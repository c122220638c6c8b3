"""Exception types shared across the package."""


class HeckemodError(Exception):
    """Base class for all package-specific errors."""


class InvalidCartanType(HeckemodError):
    """Family/rank combination outside the admissible list."""


class UnknownName(HeckemodError, ValueError):
    """A suite, mutation or formula name its registry (or the named suite) lacks."""


class WeylGroupTooLarge(HeckemodError):
    """A walk over the whole Weyl group refused because |W| exceeds the cap."""


class NotDivisible(HeckemodError):
    """Exact division asked for a quotient that does not exist in the ring."""


class NonReducedWord(HeckemodError):
    """A word of simple reflections is longer than the element it spells."""


class InvalidCharacter(HeckemodError):
    """Character name or value assignment not admissible for the root system."""


class RhoEpsNotIntegral(HeckemodError):
    """Half-sum of a character's negative-class coroots left the coweight lattice.

    This cannot happen for a well-formed character partition; raising means the
    partition itself is broken."""


class NonDominant(HeckemodError):
    """A coweight with a negative coordinate where dominance is required."""


class WrongFamily(HeckemodError):
    """Formula only defined for a specific Cartan family."""


class CoweightOutOfRange(HeckemodError):
    """A coweight coordinate outside the packing bound of the ring's keys."""
