"""Exact Hecke-module computations over small-rank root systems.

The package builds irreducible root systems, reads reduced words, lengths
and parabolic levels off the Weyl orbit of rho, does exact sparse arithmetic
in Z[q, q^-1][P^vee], implements the induced generator actions, Demazure and
conjugated-generator operators and the alternator operator, and
machine-verifies every operator identity they satisfy. A CLI (``heckemod``)
drives verification suites, single formula evaluations, and golden-table
emission.
"""

__version__ = "0.1.0"

from .algebra import GroupRingElem, exact_div, grsum, specialize_q, weyl_act
from .characters import HeckeCharacter, character_by_name, characters
from .errors import (
    HeckemodError,
    InvalidCartanType,
    InvalidCharacter,
    NegativeQExponentAtZero,
    NonDominant,
    NonReducedWord,
    NotDivisible,
    RhoEpsNotIntegral,
    WeylGroupTooLarge,
    WrongFamily,
)
from .formulas import (
    bessel_value,
    casselman_shalika,
    coset_measure,
    demazure_character,
    dominant_coweights_up_to_height,
    iwahori_image,
    macdonald,
    poincare_polynomial,
    shalika,
    theorem_lhs,
    theorem_rhs,
    weyl_character,
)
from .operators import (
    alternator,
    demazure,
    demazure_word,
    fraktur_t,
    intertwiner_op,
    omega_apply,
    sum_fraktur,
    t_act,
    t_word,
    weyl_denominator,
)
from .root_system import (
    CartanType,
    Coweight,
    Root,
    RootSystem,
    WeylElement,
    WeylGroup,
    build_root_system,
    is_dominant,
    reflect,
    rho,
    weyl_group,
    weyl_order,
)

__all__ = [name for name in dir() if not name.startswith("_")]
