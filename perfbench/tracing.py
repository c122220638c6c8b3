"""Spans and counters around heckemod's public functions, installed from outside.

``install()`` replaces each traced function by a wrapper, in its defining
module or class and in every heckemod module that imported the name (the
operator, formula and verify modules bind ``exact_div``, ``t_act`` and the
like at import time, so patching the defining module alone would miss their
calls). A span wrapper records (id, name, start, end, parent) and adds its
duration minus its child spans' durations to the layer's self time; a count
wrapper only counts calls, because the functions it wraps are too small and
too frequent for a clock read on each call.
"""

from __future__ import annotations

import json
import sys
import time
import types

#: Traced verifier -> suite name.
VERIFY_SUITES = {
    "verify_operator_identity": "operator-identity",
    "verify_quadratic": "quadratic",
    "verify_braid": "braid",
    "verify_bernstein": "bernstein",
    "verify_deformed_demazure": "deformed-demazure",
    "verify_intertwiner": "intertwiner",
    "verify_rho_pairing": "rho-pairing",
}
OPERATORS = ("t_act", "sum_fraktur", "alternator", "divide_by_weyl_denominator",
             "demazure", "t_word", "intertwiner_op")
FORMULAS = ("theorem_lhs", "theorem_rhs", "weyl_character", "demazure_character",
            "macdonald", "shalika")

#: The per-layer metrics, in the order they are printed. Each is
#: (metric name, unit); the layer name is the metric name less its last part.
PER_LAYER = (
    [("root_system.weyl_group.self_s", "s"),
     ("root_system.simple_reflection_matrix.calls", "count"),
     ("root_system.element_of_matrix.calls", "count"),
     ("root_system.apply.calls", "count")]
    + [(f"algebra.exact_div_{kind}.{m}", u) for kind in ("binomial", "generic")
       for m, u in (("calls", "count"), ("self_s", "s"), ("terms_in", "count"))]
    + [("algebra.grsum.self_s", "s"), ("algebra.weyl_act.self_s", "s"),
       ("algebra.rational_clear.self_s", "s"), ("algebra.mul.self_s", "s"),
       ("algebra.qd_mul.calls", "count")]
    + [(f"operators.{op}.{m}", u) for op in OPERATORS
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("operators.alternator.terms_out", "count")]
    + [(f"formulas.{f}.{m}", u) for f in FORMULAS for m, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"verify.{s}.{m}", u) for s in VERIFY_SUITES.values() for m, u in (("self_s", "s"), ("checks", "count"))]
    + [("cli.serialize.self_s", "s"), ("cli.write.self_s", "s"), ("trace.overhead_s", "s")]
)

#: Spans kept for the trace file; later spans still count in the totals.
SPAN_CAP = 200_000


class Tracer:
    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.stack: list[list] = []  # [span id, time covered by child spans]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 1

    def add(self, key: str, value) -> None:
        self.totals[key] = self.totals.get(key, 0) + value

    def span(self, fn, name, terms_in=None, terms_out=None):
        """Wrap ``fn`` in a span. ``name`` is a layer name or a function of the
        call's arguments that returns one; ``terms_in``/``terms_out`` give a
        support size from the arguments or the result."""
        tracer = self
        totals, stack, spans = self.totals, self.stack, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            layer = name(*args) if callable(name) else name
            sid = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                key = layer + ".self_s"
                totals[key] = totals.get(key, 0.0) + duration - frame[1]
                key = layer + ".total_s"
                totals[key] = totals.get(key, 0.0) + duration
                key = layer + ".calls"
                totals[key] = totals.get(key, 0) + 1
                if len(spans) < SPAN_CAP:
                    spans.append((sid, layer, t0, t1, parent))
                else:
                    tracer.dropped += 1
            if terms_in is not None:
                tracer.add(layer + ".terms_in", terms_in(*args))
            if terms_out is not None:
                tracer.add(layer + ".terms_out", terms_out(out))
            return out

        return wrapper

    def count(self, fn, name):
        totals = self.totals
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            totals[key] = totals.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def add_checks(self, fn, suite):
        """Span around one verifier that also adds up the checks it reports."""
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.add(f"verify.{suite}.checks", result.checked)
            return result

        return self.span(wrapper, f"verify.{suite}")

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "dropped": self.dropped, "spans": self.spans}, fh)


def _rebind(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "heckemod" or mod_name.startswith("heckemod."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced heckemod function; call after ``import heckemod``."""
    from heckemod import algebra, cli, formulas, operators, root_system, verify

    def wrap_function(module, attr, make):
        original = getattr(module, attr)
        _rebind(original, make(original))

    def wrap_method(cls, attr, make):
        setattr(cls, attr, make(vars(cls)[attr]))

    wrap_function(root_system, "weyl_group", lambda f: tracer.span(f, "root_system.weyl_group"))
    wrap_function(root_system, "simple_reflection_matrix",
                  lambda f: tracer.count(f, "root_system.simple_reflection_matrix"))
    wrap_method(root_system.WeylGroup, "element_of_matrix",
                lambda f: tracer.count(f, "root_system.element_of_matrix"))
    wrap_method(root_system.WeylElement, "apply", lambda f: tracer.count(f, "root_system.apply"))

    wrap_function(algebra, "exact_div", lambda f: tracer.span(
        f, lambda num, den: "algebra.exact_div_binomial" if len(den.coeffs) == 2
        else "algebra.exact_div_generic",
        terms_in=lambda num, den: len(num.coeffs)))
    wrap_function(algebra, "grsum", lambda f: tracer.span(f, "algebra.grsum"))
    wrap_function(algebra, "weyl_act", lambda f: tracer.span(f, "algebra.weyl_act"))
    wrap_function(algebra, "qd_mul", lambda f: tracer.count(f, "algebra.qd_mul"))
    wrap_method(algebra.RationalElem, "clear", lambda f: tracer.span(f, "algebra.rational_clear"))
    wrap_method(algebra.GroupRingElem, "__mul__", lambda f: tracer.span(f, "algebra.mul"))

    for op in OPERATORS:
        terms_out = (lambda out: len(out.coeffs)) if op == "alternator" else None
        wrap_function(operators, op, lambda f, op=op: tracer.span(f, f"operators.{op}", terms_out=terms_out))
    for name in FORMULAS:
        wrap_function(formulas, name, lambda f, name=name: tracer.span(f, f"formulas.{name}"))
    for fn_name, suite in VERIFY_SUITES.items():
        wrap_function(verify, fn_name, lambda f, suite=suite: tracer.add_checks(f, suite))

    wrap_method(algebra.GroupRingElem, "to_str", lambda f: tracer.span(f, "cli.serialize"))
    wrap_method(algebra.GroupRingElem, "to_json_obj", lambda f: tracer.span(f, "cli.serialize"))
    json_proxy = types.ModuleType("json")
    json_proxy.__dict__.update(vars(cli.json))
    json_proxy.dumps = tracer.span(cli.json.dumps, "cli.serialize")
    cli.json = json_proxy
    wrap_function(cli, "_atomic_write", lambda f: tracer.span(f, "cli.write"))
