"""Command-line front end: verification suites, single evaluations, tables.

Exit codes: 0 success, 1 verification failure (witness JSON on stdout),
2 argument/parse errors, 3 domain errors (a named precondition was violated),
4 I/O errors; :func:`main` maps every error to its code, including errors
raised in ``--jobs`` workers. Identical inputs produce byte-identical outputs
regardless of ``--jobs``; table files are written to a temp name and
atomically renamed, so failures never leave partial files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

from . import __version__
from .algebra import COORD_BOUND, qd_str
from .characters import character_by_name, characters
from .errors import HeckemodError, InvalidCartanType, InvalidCharacter
from .formulas import (
    bessel_value,
    casselman_shalika,
    demazure_character,
    dominant_coweights_up_to_height,
    in_family_b,
    iwahori_image,
    macdonald,
    shalika,
    theorem_lhs,
    theorem_rhs,
    weyl_character,
)
from .root_system import build_root_system
from .verify import (
    BOX_CAP_DEFAULT,
    BOX_RADIUS_DEFAULT,
    DEFAULT_TYPES,
    _any_type,
    run_suite,
    suite_tasks,
)

OUTPUT_DIR_ENV = "HECKEMOD_OUTPUT_DIR"

PARSE_ERROR, DOMAIN_ERROR, IO_ERROR = 2, 3, 4


def _casselman_shalika(rs, eps, lam, word):
    pair = casselman_shalika(rs, lam)
    theorem = pair.theorem_form
    return pair.closed_form, {"theorem_form": theorem.to_json_obj()}, lambda: [f"theorem_form: {theorem.to_str()}"]


def _shalika(rs, eps, lam, word):
    forms = shalika(rs, lam)
    rewritten = forms.rewritten_form
    agree = forms.theorem_form == rewritten
    fields = {"rewritten_form": rewritten.to_json_obj(), "forms_agree": agree}
    return forms.theorem_form, fields, lambda: [f"rewritten_form: {rewritten.to_str()}", f"forms_agree: {agree}"]


def _bessel_value(rs, eps, lam, word):
    report = bessel_value(rs)
    ratio = report.unit_ratio
    fields = {
        "quoted_product": report.quoted_product.to_json_obj(),
        "quoted_product_str": report.quoted_product.to_str(),
        "unit_ratio_to_quoted": list(ratio[:2]) + [list(ratio[2])] if ratio is not None else None,
        "q_form_cofactor": report.q_form_cofactor.to_str(),
    }
    return report.theorem_value, fields, lambda: [
        f"quoted_product: {fields['quoted_product_str']}",
        f"unit_ratio_to_quoted: {fields['unit_ratio_to_quoted']}",
        f"q_form_cofactor: {fields['q_form_cofactor']}",
    ]


def _iwahori_image(rs, eps, lam, word):
    # t_word refuses a non-reduced word, which would name a shorter element.
    image = iwahori_image(eps, _parse_word(word or "", rs.rank), lam)
    measure = qd_str(image.measure)
    return image.value, {"measure": measure}, lambda: [f"measure: {measure}"]


class Formula(NamedTuple):
    """One evaluable formula.

    ``evaluate(rs, eps, lam, word)`` returns ``(value, extra row fields,
    lines)``, where ``lines()`` makes the text lines ``eval`` prints under
    the value (a table never calls it); ``eps`` is the named character, or
    None when none is named, ``lam`` the parsed coweight, or None when the
    formula takes none, and ``word`` is the raw ``--word`` text. ``applies``
    says which types a table includes the formula for. Formulas are looked
    up by name on each call.
    """

    needs_character: bool
    needs_lambda: bool
    implied_character: str | None
    applies: Callable
    evaluate: Callable


FORMULAS: dict[str, Formula] = {
    "theorem-lhs": Formula(True, True, None, _any_type,
                           lambda rs, eps, lam, word: (theorem_lhs(eps, lam), {}, list)),
    "theorem-rhs": Formula(True, True, None, _any_type,
                           lambda rs, eps, lam, word: (theorem_rhs(eps, lam), {}, list)),
    "weyl-char": Formula(False, True, None, _any_type,
                         lambda rs, eps, lam, word: (weyl_character(rs, lam), {}, list)),
    "demazure-char": Formula(False, True, None, _any_type,
                             lambda rs, eps, lam, word: (demazure_character(rs, lam), {}, list)),
    "casselman-shalika": Formula(False, True, "sign", _any_type, _casselman_shalika),
    "macdonald": Formula(False, True, "triv", _any_type,
                         lambda rs, eps, lam, word: (macdonald(rs, lam), {}, list)),
    "shalika": Formula(False, True, "neg-short", in_family_b, _shalika),
    "bessel-value": Formula(False, False, "neg-long", in_family_b, _bessel_value),
    "iwahori-image": Formula(True, True, None, _any_type, _iwahori_image),
}


class DomainExit(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _parse_lambda(text: str, rank: int) -> tuple[int, ...]:
    try:
        coords = tuple(int(c.strip()) for c in text.split(","))
    except ValueError:
        raise DomainExit(PARSE_ERROR, f"cannot parse coweight {text!r}: expected comma-separated integers")
    if len(coords) != rank:
        raise DomainExit(PARSE_ERROR, f"coweight {text!r} has {len(coords)} coordinates, rank is {rank}")
    if not all(-COORD_BOUND <= c < COORD_BOUND for c in coords):
        raise DomainExit(PARSE_ERROR, f"coweight {text!r} has a coordinate outside the packing bound"
                                      f" [{-COORD_BOUND}, {COORD_BOUND - 1}]")
    return coords


def _parse_word(text: str, rank: int) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        word = tuple(int(c.strip()) - 1 for c in text.split(","))
    except ValueError:
        raise DomainExit(PARSE_ERROR, f"cannot parse word {text!r}: expected comma-separated indices")
    if any(i < 0 or i >= rank for i in word):
        raise DomainExit(PARSE_ERROR, f"word {text!r} has indices outside 1..{rank}")
    return word


def _evaluate_formula(type_name: str, formula: str, character: str | None,
                      lam: tuple[int, ...] | None, word_text: str | None) -> tuple[dict, Callable]:
    """One formula evaluation; returns the row dict used by eval and table,
    and the formula's ``lines`` callable (:class:`Formula`)."""
    rs = build_root_system(type_name)
    needs_char, _, implied = FORMULAS[formula][:3]
    char_name = character if needs_char else (implied or "-")
    # A named character must exist for the type even where the formula takes none.
    eps = character_by_name(rs, character) if character is not None else None
    value, extra, lines = FORMULAS[formula].evaluate(rs, eps, lam, word_text)
    row = {
        "type": type_name,
        "character": char_name,
        "lambda": list(lam) if lam is not None else [],
        "formula": formula,
        "value": value.to_str(),
        "value_records": value.to_json_obj(),
    }
    row.update(extra)
    return row, lines


def _json_text(obj, newline: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, for
    string-keyed documents. With ``indent`` set, ``json`` runs its pure-Python
    encoder; here each list and dict is one join and strings go through the C
    string encoder. Scalars other than ``str`` and ``int`` go to
    ``json.dumps``. ``newline`` is a line break and the indentation of the
    level ``obj`` sits at."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, int) and not isinstance(obj, bool):
        return int.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join(_json_text(v, inner) for v in obj) + newline + "]"
    return json.dumps(obj)


# --- verify -----------------------------------------------------------------


def _suite_task(args):
    suite, type_name, radius, cap, mutate = args
    return [r.to_json_obj() for r in run_suite(suite, type_name, radius=radius, cap=cap, mutate=mutate)]


def _require_at_least(args, minimums: dict[str, int]) -> None:
    for flag, low in minimums.items():
        value = getattr(args, flag)
        if value < low:
            raise DomainExit(PARSE_ERROR, f"--{flag} must be at least {low}, got {value}")


def _run_tasks(fn, tasks: list, jobs: int) -> list:
    """fn over tasks in order, on at most one worker process per task and per CPU."""
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def cmd_verify(args) -> int:
    _require_at_least(args, {"box": 0, "cap": 1, "jobs": 1})
    types = args.type or list(DEFAULT_TYPES)
    for t in types:  # a bad type is reported before a bad suite or mutation
        build_root_system(t)
    try:
        pairs = suite_tasks(types, args.suite, args.mutate, args.max_rank)
    except ValueError as exc:
        raise DomainExit(PARSE_ERROR, str(exc))
    tasks = [(s, t, args.box, args.cap, args.mutate) for s, t in pairs]
    if not tasks:
        owning = f" and registers mutation {args.mutate!r}" if args.mutate is not None else ""
        raise DomainExit(PARSE_ERROR, f"nothing to verify: no selected suite applies to the selected types{owning}")
    chunks = _run_tasks(_suite_task, tasks, args.jobs)
    results = [r for chunk in chunks for r in chunk]
    results.sort(key=lambda r: (r["identity"], r["type"], r["character"] or ""))

    ok = all(r["status"] == "pass" for r in results)
    if args.output == "json":
        print(_json_text({"ok": ok, "results": results}))
    else:
        for r in results:
            line = f"{r['status'].upper():4s} {r['identity']:22s} {r['type']:3s} {r['character'] or '-':10s} checks={r['checked']}"
            print(line)
            if r["status"] == "fail":
                print("     witness: " + json.dumps(r["witness"], sort_keys=True))
        print(f"{'OK' if ok else 'FAIL'}: {sum(r['status'] == 'pass' for r in results)}/{len(results)} identities passed")
        if not ok:
            failures = [r for r in results if r["status"] == "fail"]
            print(json.dumps({"ok": False, "failures": failures}, sort_keys=True))
    return 0 if ok else 1


# --- eval ---------------------------------------------------------------------


def cmd_eval(args) -> int:
    formula = args.formula
    if formula not in FORMULAS:
        raise DomainExit(PARSE_ERROR, f"unknown formula {formula!r}; known: {sorted(FORMULAS)}")
    rs = build_root_system(args.type)
    entry = FORMULAS[formula]
    if entry.needs_character and args.character is None:
        raise DomainExit(PARSE_ERROR, f"formula {formula} requires --character")
    lam = None
    if entry.needs_lambda:
        if args.lam is None:
            raise DomainExit(PARSE_ERROR, f"formula {formula} requires --lambda")
        lam = _parse_lambda(args.lam, rs.rank)
    row, lines = _evaluate_formula(args.type, formula, args.character, lam, args.word)
    if args.output == "json":
        print(_json_text(row))
    elif args.output == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["type", "character", "lambda", "formula", "value"])
        writer.writerow([row["type"], row["character"], ",".join(map(str, row["lambda"])), row["formula"], row["value"]])
        sys.stdout.write(buf.getvalue())
    else:
        print("\n".join([row["value"], *lines()]))
    return 0


# --- table ----------------------------------------------------------------------


def _table_row(args):
    type_name, char_name, lam, formula = args
    needs_char = FORMULAS[formula].needs_character
    row, _ = _evaluate_formula(type_name, formula, char_name if needs_char else None, lam, "")
    return row


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-heckemod-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_table(args) -> int:
    _require_at_least(args, {"height": 0, "jobs": 1})
    rs = build_root_system(args.type)
    if args.characters == "all":
        char_names = [eps.name for eps in characters(rs)]
    else:
        # A name given twice still makes one set of rows.
        char_names = list(dict.fromkeys(c.strip() for c in args.characters.split(",")))
        for c in char_names:
            character_by_name(rs, c)
    formulas = list(dict.fromkeys(f.strip() for f in args.formulas.split(",")))
    for f in formulas:
        if f not in FORMULAS:
            raise DomainExit(PARSE_ERROR, f"unknown formula {f!r}; known: {sorted(FORMULAS)}")
        if f == "iwahori-image":
            raise DomainExit(PARSE_ERROR, "iwahori-image needs --word; use eval for it")

    lambdas = dominant_coweights_up_to_height(rs, args.height)
    tasks = []
    for formula in formulas:
        needs_char, needs_lam, implied, applies, _ = FORMULAS[formula]
        if not applies(rs):
            continue
        per_chars = char_names if needs_char else [implied or "-"]
        per_lams = lambdas if needs_lam else [None]
        for char_name in per_chars:
            for lam in per_lams:
                tasks.append((args.type, char_name, lam, formula))
    if not tasks:
        raise DomainExit(PARSE_ERROR, f"nothing to tabulate: no selected formula applies to {args.type}")

    rows = _run_tasks(_table_row, tasks, args.jobs)
    rows.sort(key=lambda r: (r["type"], r["character"], r["lambda"], r["formula"]))

    out_dir = args.out or os.environ.get(OUTPUT_DIR_ENV) or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
        base = os.path.join(out_dir, f"table_{args.type}")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["type", "character", "lambda", "formula", "value"])
        for r in rows:
            writer.writerow(
                [r["type"], r["character"], ",".join(map(str, r["lambda"])), r["formula"], r["value"]]
            )
        _atomic_write(base + ".csv", buf.getvalue())
        _atomic_write(base + ".json", _json_text(rows) + "\n")
    except OSError as exc:
        raise DomainExit(IO_ERROR, f"cannot write table: {exc}")
    print(f"wrote {base}.csv and {base}.json ({len(rows)} rows)")
    return 0


# --- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckemod",
        description="Exact verification and evaluation of Hecke-module operator identities",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run identity verification suites")
    p_verify.add_argument("--type", action="append", help="Cartan type (repeatable); default: the standard list")
    p_verify.add_argument("--max-rank", type=int, default=None)
    p_verify.add_argument("--box", type=int, default=BOX_RADIUS_DEFAULT, help="monomial box radius")
    p_verify.add_argument("--cap", type=int, default=BOX_CAP_DEFAULT, help="max monomials per box")
    p_verify.add_argument("--suite", action="append", help="suite name (repeatable); default: all")
    p_verify.add_argument("--mutate", default=None, help="test-only negative control; forces exit 1")
    p_verify.add_argument("--output", choices=("text", "json"), default="text")
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.set_defaults(func=cmd_verify)

    p_eval = sub.add_parser("eval", help="evaluate one formula")
    p_eval.add_argument("--type", required=True)
    p_eval.add_argument("--character", default=None)
    p_eval.add_argument("--lambda", dest="lam", default=None, help="comma-separated coweight coordinates")
    p_eval.add_argument("--formula", required=True)
    p_eval.add_argument("--word", default="", help="1-based simple reflection indices for iwahori-image")
    p_eval.add_argument("--output", choices=("text", "json", "csv"), default="text")
    p_eval.set_defaults(func=cmd_eval)

    p_table = sub.add_parser("table", help="emit CSV/JSON value tables")
    p_table.add_argument("--type", required=True)
    p_table.add_argument("--characters", default="all")
    p_table.add_argument("--height", type=int, default=3, help="max coordinate sum of dominant coweights")
    p_table.add_argument("--formulas", default="theorem-lhs,theorem-rhs")
    p_table.add_argument("--out", default=None, help=f"output directory (or ${OUTPUT_DIR_ENV})")
    p_table.add_argument("--jobs", type=int, default=1)
    p_table.set_defaults(func=cmd_table)
    return parser


def _attach_negative_lambda(argv: list[str]) -> list[str]:
    """Rewrite ``--lambda -1,2`` as ``--lambda=-1,2``.

    argparse reads a value that starts with ``-`` and is not a plain negative
    number as the next option, so a coweight whose first coordinate is
    negative would otherwise need the ``=`` form.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--lambda" and token[:1] == "-" and token[1:2].isdigit():
            out[-1] = f"--lambda={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_lambda(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except DomainExit as exc:
        code, message = exc.code, str(exc)
    except (InvalidCartanType, InvalidCharacter) as exc:
        code, message = PARSE_ERROR, str(exc)
    except HeckemodError as exc:
        code, message = DOMAIN_ERROR, f"{type(exc).__name__}: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
