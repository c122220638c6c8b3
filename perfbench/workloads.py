"""The three workloads, and the checks of their outputs against oracle.py.

Every input is fixed by the workload (boxes, heights, types); the seed only
draws the sample of coweights whose theorem_lhs value is recomputed at q = 1.
Checks run after the timed rounds, in the benchmark's own process; none of
them compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random

import oracle

STRUCTURAL_SUITES = ("quadratic", "braid", "bernstein", "deformed-demazure", "intertwiner", "rho-pairing")
TABLE_FORMULAS = ("weyl-char", "demazure-char", "macdonald", "shalika")
LHS_SAMPLE = 4


class Workload:
    """A heckemod command line plus what its output must satisfy."""

    def __init__(self, name: str, size: str):
        self.name = name
        smoke = size == "smoke"
        if name == "identity":
            self.types = ("A1", "A2") if smoke else ("A3", "G2", "B3")
            self.suites = ("operator-identity",)
            self.radius, self.cap = (1, 40) if smoke else (2, 40)
        elif name == "structural":
            self.types = ("A2",) if smoke else ("A2", "A3", "B2", "C2", "G2", "B3")
            self.suites = STRUCTURAL_SUITES
            self.radius, self.cap = (1, 200) if smoke else (2, 200)
        elif name == "closed-forms":
            self.types = ("A2",) if smoke else ("B3",)
            self.height = 2 if smoke else 3
            self.formulas = tuple(f for f in TABLE_FORMULAS if f != "shalika" or self.types[0][0] == "B")
        else:
            raise ValueError(f"unknown workload {name!r}")

    def argv(self, out_dir: str) -> list[str]:
        if self.name == "closed-forms":
            return ["table", "--type", self.types[0], "--height", str(self.height),
                    "--formulas", ",".join(self.formulas), "--out", out_dir, "--jobs", "1"]
        argv = ["verify"]
        for t in self.types:
            argv += ["--type", t]
        for s in self.suites:
            argv += ["--suite", s]
        return argv + ["--box", str(self.radius), "--cap", str(self.cap), "--jobs", "1", "--output", "json"]

    def check(self, out_dir: str) -> tuple[int, int, list[str]]:
        """(operations attempted, operations failed, problems) for one round."""
        if self.name == "closed-forms":
            return check_table(self.types[0], self.height, self.formulas, out_dir)
        return check_verify(self.types, self.suites, self.radius, self.cap, out_dir)


def expected_checks(suite: str, type_name: str, radius: int, cap: int) -> int:
    rank = len(oracle.cartan(type_name))
    box = oracle.box_size(rank, radius, cap)
    small = oracle.box_size(rank, 1, 30)  # the suites' fixed second box
    return {
        "operator-identity": box,
        "quadratic": rank * box,
        "deformed-demazure": rank * box,
        "intertwiner": rank * box,
        "bernstein": rank * min(box, 40) * min(small, 9),
        "braid": min(small, 2) * oracle.reduced_word_excess(type_name),
        "rho-pairing": rank,
    }[suite]


def check_verify(types, suites, radius, cap, out_dir):
    with open(os.path.join(out_dir, "stdout.txt")) as fh:
        report = json.load(fh)
    problems = []
    expected = {
        (suite, t, char): expected_checks(suite, t, radius, cap)
        for t in types for suite in suites for char in oracle.characters(t)
    }
    got = {(r["identity"], r["type"], r["character"]): r for r in report["results"]}
    if set(got) != set(expected):
        problems.append(f"results {sorted(set(got) ^ set(expected))} missing or unexpected")
    attempted = sum(r["checked"] for r in got.values())
    failed = sum(r["status"] != "pass" for r in got.values())
    for key, r in sorted(got.items()):
        if r["status"] == "pass" and not 0 < r["checked"] == expected.get(key, -1):
            problems.append(f"{key} checked {r['checked']}, expected {expected.get(key)}")
    if report["ok"] != (failed == 0):
        problems.append(f"report ok={report['ok']} with {failed} failed results")
    return attempted, failed, problems


def _split_signed(text: str) -> list[tuple[int, str]]:
    """Split at the " + " and " - " outside parentheses; (sign, term) pairs."""
    sign = 1
    if text.startswith("-"):
        text, sign = text[1:], -1
    out, depth, start, i = [], 0, 0, 0
    while i < len(text):
        depth += (text[i] == "(") - (text[i] == ")")
        if depth == 0 and text[i:i + 3] in (" + ", " - "):
            out.append((sign, text[start:i]))
            sign = 1 if text[i + 1] == "+" else -1
            start = i = i + 3
        else:
            i += 1
    return out + [(sign, text[start:])]


def _parse_q(text: str) -> dict[int, int]:
    """A q-Laurent coefficient as printed, e.g. "q^2 - 3*q + 1" or "-q^-1"."""
    out = {}
    for sign, term in _split_signed(text):
        mag, star, power = term.partition("*")
        if not star:
            mag, power = ("1", term) if term.startswith("q") else (term, "")
        out[0 if not power else 1 if power == "q" else int(power[2:])] = sign * int(mag)
    return out


def parse_value(text: str, rank: int) -> dict[tuple[int, ...], dict[int, int]]:
    """A group-ring element as printed by heckemod, read without heckemod."""
    out = {}
    for sign, term in [] if text == "0" else _split_signed(text):
        coeff, _, mono = term.partition("pi^[")
        coeff = coeff.removesuffix("*").strip("()")
        key = tuple(int(c) for c in mono.rstrip("]").split(",")) if mono else (0,) * rank
        out[key] = {e: sign * c for e, c in (_parse_q(coeff) if coeff else {0: 1}).items()}
    return out


def _records(records):
    """value_records as {coweight: {q-exponent: coefficient}}."""
    return {tuple(r["coweight"]): {int(e): int(c) for e, c in r["coeff"]} for r in records}


def _at_q_one(value):
    out = {mu: sum(qd.values()) for mu, qd in value.items()}
    return {mu: c for mu, c in out.items() if c}


def check_table(type_name, height, formulas, out_dir):
    rank = len(oracle.cartan(type_name))
    base = os.path.join(out_dir, f"table_{type_name}")
    with open(base + ".json") as fh:
        rows = json.load(fh)
    with open(base + ".csv", newline="") as fh:
        csv_rows = list(csv.reader(fh))
    problems = []
    if csv_rows[0] != ["type", "character", "lambda", "formula", "value"]:
        problems.append(f"csv header {csv_rows[0]}")
    as_csv = [[r["type"], r["character"], ",".join(map(str, r["lambda"])), r["formula"], r["value"]] for r in rows]
    if csv_rows[1:] != as_csv:
        problems.append("csv and json rows differ")
    lambdas = oracle.dominant_up_to_height(rank, height)
    if len(rows) != len(lambdas) * len(formulas):
        problems.append(f"{len(rows)} rows, expected {len(lambdas) * len(formulas)}")

    by_key = {(r["formula"], tuple(r["lambda"])): r for r in rows}
    for (formula, lam), r in sorted(by_key.items()):
        value = _records(r["value_records"])
        wrong = []
        if parse_value(r["value"], rank) != value:
            wrong.append("value_records do not match the printed value")
        if formula == "weyl-char":
            dim = oracle.weyl_dimension(type_name, lam)
            if sum(_at_q_one(value).values()) != dim:
                wrong.append(f"coefficients do not sum to the Weyl dimension {dim}")
        elif formula == "demazure-char":
            if r["value"] != by_key.get(("weyl-char", lam), {}).get("value"):
                wrong.append("differs from the weyl-char row")
        elif formula == "macdonald":
            if _at_q_one(value) != oracle.orbit_sum(type_name, lam):
                wrong.append("at q = 1 differs from the orbit sum")
            if not any(lam) and value != {lam: oracle.poincare(type_name)}:
                wrong.append("at lambda = 0 differs from prod (1 - q^d_i)/(1 - q)")
        elif formula == "shalika":
            if r.get("forms_agree") is not True:
                wrong.append("forms_agree is not true")
        if wrong:
            problems.append(f"{formula} {lam}: " + "; ".join(wrong))
    return len(rows), 0, problems


def check_lhs_sample(workload: Workload, seed: int) -> list[str]:
    """theorem_lhs at q = 1 equals the signed orbit sum, on a seeded sample."""
    from heckemod import build_root_system, character_by_name, theorem_lhs

    pool = [
        (t, name, lam)
        for t in workload.types
        for name in oracle.characters(t)
        for lam in oracle.box_points(len(oracle.cartan(t)), workload.radius, workload.cap)
    ]
    problems = []
    for t, name, lam in random.Random(seed).sample(pool, min(LHS_SAMPLE, len(pool))):
        value = theorem_lhs(character_by_name(build_root_system(t), name), lam)
        expected = oracle.signed_orbit_sum(t, lam, oracle.characters(t)[name])
        if _at_q_one(value.coeffs) != expected:
            problems.append(f"theorem_lhs({t}, {name}, {lam}) at q = 1 is not the signed orbit sum")
    return problems


def negative_controls() -> list[tuple[str, bool]]:
    """(control, failed as it must) for drop-sign-correction on A1 through the
    CLI and the first registered mutation of each structural suite on B2."""
    from heckemod import cli, verify

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify", "--mutate", "drop-sign-correction", "--type", "A1", "--box", "0"])
    out = [("operator-identity/drop-sign-correction A1", code == 1)]
    for suite in STRUCTURAL_SUITES:
        mutation = verify.SUITES[suite][2][0]
        results = verify.run_suite(suite, "B2", radius=1, cap=30, mutate=mutation)
        out.append((f"{suite}/{mutation} B2", any(not r.passed for r in results)))
    return out
