import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckemod.cli import _json_text, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_theorem_lhs_golden(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--type", "A1", "--character", "sign", "--lambda", "1", "--formula", "theorem-lhs"
    )
    assert code == 0
    assert out.strip() == "-pi^[-2] + (q - 1) + q*pi^[2]"


def test_eval_macdonald_poincare(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--type", "A2", "--character", "triv", "--lambda", "0,0", "--formula", "macdonald"
    )
    assert code == 0
    assert out.strip() == "(q^3 + 2*q^2 + 2*q + 1)"


def test_eval_bessel_report(capsys):
    code, out, _ = run_cli(capsys, "eval", "--type", "B2", "--character", "neg-long", "--formula", "bessel-value")
    assert code == 0
    assert "q_form_cofactor: (q^2 + q)" in out
    assert "unit_ratio_to_quoted: None" in out


def test_eval_json_output(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--type", "A1", "--character", "triv", "--lambda", "0",
        "--formula", "theorem-lhs", "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "(q + 1)"
    assert payload["value_records"] == [{"coweight": [0], "coeff": [[0, "1"], [1, "1"]]}]


def test_eval_iwahori_image(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--type", "A1", "--character", "triv", "--lambda", "0",
        "--formula", "iwahori-image", "--word", "1",
    )
    assert code == 0
    assert out.splitlines()[0] == "q"
    assert "measure: 1" in out


@pytest.mark.parametrize("word", ["1,1", "1,2,1,2"])
def test_eval_iwahori_image_rejects_non_reduced_word(capsys, word):
    # A non-reduced word names a shorter element (1,1 names T_e); t_word
    # refuses it rather than computing something else.
    code, out, err = run_cli(
        capsys, "eval", "--type", "A2", "--character", "sign", "--lambda", "1,1",
        "--formula", "iwahori-image", "--word", word,
    )
    assert (code, out) == (3, "")
    assert "NonReducedWord" in err


def test_eval_shalika_both_forms(capsys):
    code, out, _ = run_cli(capsys, "eval", "--type", "B2", "--lambda", "0,1", "--formula", "shalika")
    assert code == 0
    assert "forms_agree: True" in out


def test_eval_lambda_with_negative_first_coordinate(capsys):
    base = ("eval", "--type", "B2", "--character", "triv", "--formula", "theorem-lhs")
    code, out, err = run_cli(capsys, *base, "--lambda", "-1,2")
    assert (code, err) == (0, "")
    assert run_cli(capsys, *base, "--lambda=-1,2") == (0, out, "")
    assert run_cli(capsys, "eval", "--type", "A1", "--formula", "macdonald", "--lambda", "-1,2")[0] == 2


def test_parse_errors_exit_2(capsys):
    assert run_cli(capsys, "eval", "--type", "Z1", "--formula", "macdonald", "--lambda", "0")[0] == 2
    assert run_cli(capsys, "eval", "--type", "A1", "--formula", "no-such", "--lambda", "0")[0] == 2
    assert run_cli(capsys, "eval", "--type", "A1", "--formula", "macdonald", "--lambda", "x")[0] == 2
    assert run_cli(capsys, "eval", "--type", "A1", "--formula", "macdonald", "--lambda", "1,2")[0] == 2
    assert run_cli(capsys, "eval", "--type", "A2", "--character", "neg-long", "--lambda", "0,0", "--formula", "theorem-lhs")[0] == 2


@pytest.mark.parametrize("formula", ["weyl-char", "demazure-char", "casselman-shalika", "macdonald"])
def test_eval_checks_the_character_of_every_formula(capsys, formula):
    # A character the type does not have is refused even where the formula takes none.
    code, out, err = run_cli(
        capsys, "eval", "--type", "A2", "--formula", formula, "--character", "neg-long", "--lambda", "1,0"
    )
    assert (code, out) == (2, "")
    assert err == "error: character 'neg-long' not defined for A2\n"
    # A valid one it does not use changes nothing.
    base = ("eval", "--type", "A2", "--formula", formula, "--lambda", "1,0")
    code, out, err = run_cli(capsys, *base, "--character", "triv")
    assert (code, err) == (0, "")
    assert run_cli(capsys, *base) == (0, out, "")


def test_domain_errors_exit_3(capsys):
    code, _, err = run_cli(capsys, "eval", "--type", "A1", "--formula", "weyl-char", "--lambda", "-1")
    assert code == 3
    assert "dominant" in err


def test_verify_small_pass(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--type", "A1", "--suite", "quadratic", "--suite", "rho-pairing", "--box", "1"
    )
    assert code == 0
    assert "OK" in out


def test_verify_json_report(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--type", "A1", "--suite", "rho-pairing", "--output", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert {r["identity"] for r in payload["results"]} == {"rho-pairing"}


def test_verify_mutation_fails_with_witness(capsys):
    code, out, _ = run_cli(capsys, "verify", "--type", "A1", "--mutate", "drop-sign-correction", "--box", "0")
    assert code == 1
    assert '"lhs": "(q + 1)"' in out
    assert '"rhs": "(-q - 1)"' in out


def test_verify_unknown_suite_or_mutation(capsys):
    assert run_cli(capsys, "verify", "--type", "A1", "--suite", "nope")[0] == 2
    assert run_cli(capsys, "verify", "--type", "A1", "--mutate", "nope")[0] == 2
    # with both unknown, the mutation is named
    code, _, err = run_cli(capsys, "verify", "--type", "A1", "--suite", "nope", "--mutate", "nope2")
    assert code == 2 and err.startswith("error: unknown mutation 'nope2'")


def test_table_counts_and_determinism(tmp_path, capsys):
    # A1, height 3: 4 dominant coweights per formula per character
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    for out in (out1, out2):
        code, _, _ = run_cli(capsys, "table", "--type", "A1", "--height", "3", "--out", str(out))
        assert code == 0
    csv1 = (out1 / "table_A1.csv").read_bytes()
    assert csv1 == (out2 / "table_A1.csv").read_bytes()
    assert (out1 / "table_A1.json").read_bytes() == (out2 / "table_A1.json").read_bytes()
    lines = csv1.decode().strip().splitlines()
    assert lines[0] == "type,character,lambda,formula,value"
    assert len(lines) - 1 == 4 * 2 * 2  # lambdas x characters x formulas


_JSON_TEXT = st.text() | st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\ud7ff\udc00\U0001f600')
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _JSON_TEXT,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_JSON_TEXT, inner),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None)
@given(_JSON_VALUES)
def test_json_text_is_json_dumps_indent_2(value):
    assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)


def test_table_json_is_json_dumps_indent_2(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "table", "--type", "B3", "--height", "3", "--out", str(tmp_path))
    assert code == 0
    text = (tmp_path / "table_B3.json").read_text()
    rows = json.loads(text)
    assert len(rows) == 160
    expected = json.dumps(rows, sort_keys=True, indent=2) + "\n"
    if text != expected:  # pytest's diff of two 20 MB strings would not finish
        at = next((k for k, (a, b) in enumerate(zip(text, expected)) if a != b), min(len(text), len(expected)))
        pytest.fail(f"table_B3.json differs from json.dumps at character {at}: {text[max(at - 40, 0):at + 40]!r}")


def test_table_rows_scale_with_characters(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "table", "--type", "B2", "--height", "1", "--out", str(tmp_path))
    assert code == 0
    rows = json.loads((tmp_path / "table_B2.json").read_text())
    assert {r["character"] for r in rows} == {"triv", "sign", "neg-long", "neg-short"}
    assert len(rows) == 3 * 4 * 2


def test_table_jobs_parallelism_is_deterministic(tmp_path, capsys):
    seq = tmp_path / "seq"
    par = tmp_path / "par"
    run_cli(capsys, "table", "--type", "A1", "--height", "2", "--out", str(seq))
    run_cli(capsys, "table", "--type", "A1", "--height", "2", "--out", str(par), "--jobs", "2")
    assert (seq / "table_A1.csv").read_bytes() == (par / "table_A1.csv").read_bytes()
    assert (seq / "table_A1.json").read_bytes() == (par / "table_A1.json").read_bytes()


def test_table_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HECKEMOD_OUTPUT_DIR", str(tmp_path))
    code, _, _ = run_cli(capsys, "table", "--type", "A1", "--height", "1")
    assert code == 0
    assert (tmp_path / "table_A1.csv").exists()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "heckemod.cli", "eval", "--type", "A1", "--character", "triv",
         "--lambda", "0", "--formula", "theorem-lhs"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(q + 1)"


def test_perfbench_tracing_installs():
    # The benchmark's tracer wraps package functions and methods by name, so a
    # rename in the package breaks traced runs; installing it must still work.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "perfbench"]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", "import heckemod, tracing; tracing.install(tracing.Tracer())"],
        capture_output=True, text=True, cwd=root, env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_out_of_range_numbers_exit_2(capsys, tmp_path):
    for argv in (
        ("verify", "--type", "A1", "--box", "-1"),
        ("verify", "--type", "A1", "--cap", "0"),
        ("verify", "--type", "A1", "--jobs", "0"),
        ("table", "--type", "A1", "--height", "-1", "--out", str(tmp_path)),
        ("table", "--type", "A1", "--jobs", "0", "--out", str(tmp_path)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "must be at least" in err, argv
    assert list(tmp_path.iterdir()) == []
    # A coordinate outside the packing bound of the ring's keys stops at the
    # edge, with the bound named, rather than wrapping or raising later.
    for lam in ("131072,0", "-131073,5", "0,99999999999999999999"):
        code, out, err = run_cli(capsys, "eval", "--type", "A2", "--formula", "weyl-char", f"--lambda={lam}")
        assert (code, out) == (2, ""), lam
        assert err == (f"error: coweight {lam!r} has a coordinate outside the packing bound"
                       " [-131072, 131071]\n"), lam


def test_verify_braid_skips_rank_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "--type", "A1", "--type", "A2", "--suite", "braid", "--box", "0")
    assert code == 0
    assert " A1 " not in out
    assert "OK: 2/2" in out
    code, out, err = run_cli(capsys, "verify", "--type", "A1", "--suite", "braid")
    assert code == 2 and out == "" and "nothing to verify" in err


def test_verify_mutation_keeps_selected_suites(capsys):
    # A mutation narrows --suite to the suites that register it; it never
    # swaps in other owners.
    code, out, err = run_cli(capsys, "verify", "--type", "A1", "--suite", "quadratic",
                             "--mutate", "shift-poincare")
    assert (code, out) == (2, "")
    assert "nothing to verify" in err
    code, out, _ = run_cli(capsys, "verify", "--type", "B2", "--suite", "intertwiner",
                           "--suite", "quadratic", "--mutate", "swap-cases", "--box", "0",
                           "--output", "json")
    assert code == 1
    assert {r["identity"] for r in json.loads(out)["results"]} == {"intertwiner"}


def test_verify_mutation_alone_runs_every_owner(capsys):
    code, out, _ = run_cli(capsys, "verify", "--type", "B2", "--mutate", "swap-cases",
                           "--box", "0", "--output", "json")
    assert code == 1
    identities = {r["identity"] for r in json.loads(out)["results"]}
    assert identities == {"deformed-demazure", "intertwiner", "bessel-intertwiner"}


def test_verify_repeated_types_and_suites_run_once(capsys):
    once = run_cli(capsys, "verify", "--type", "A1", "--suite", "rho-pairing")
    twice = run_cli(capsys, "verify", "--type", "A1", "--type", "a1",
                    "--suite", "rho-pairing", "--suite", "rho-pairing")
    assert twice == once
    assert "OK: 2/2" in once[1]


def test_table_repeated_formulas_and_characters_write_each_row_once(tmp_path, capsys):
    for name, formulas, chars in (("once", "weyl-char,theorem-lhs", "triv"),
                                  ("twice", "weyl-char,theorem-lhs,weyl-char", "triv,triv")):
        code, out, _ = run_cli(capsys, "table", "--type", "A1", "--height", "2", "--formulas", formulas,
                               "--characters", chars, "--out", str(tmp_path / name))
        assert code == 0 and "(6 rows)" in out
    for suffix in (".csv", ".json"):
        once = (tmp_path / "once" / f"table_A1{suffix}").read_bytes()
        assert (tmp_path / "twice" / f"table_A1{suffix}").read_bytes() == once


def test_table_without_applicable_formula_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "table", "--type", "A2", "--formulas", "shalika",
                             "--out", str(tmp_path / "tables"))
    assert (code, out) == (2, "")
    assert "nothing to tabulate" in err
    assert list(tmp_path.iterdir()) == []


class _RecordingPool:
    """In-process stand-in for ProcessPoolExecutor that records max_workers."""

    sizes: list = []

    def __init__(self, max_workers):
        _RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_jobs_clamped_to_tasks_and_cpus(capsys, tmp_path, monkeypatch):
    import heckemod.cli as cli

    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    code, _, _ = run_cli(capsys, "verify", "--type", "A1", "--suite", "rho-pairing",
                         "--suite", "quadratic", "--box", "0", "--jobs", "64")
    assert code == 0
    code, _, _ = run_cli(capsys, "table", "--type", "A1", "--height", "2", "--formulas", "weyl-char",
                         "--out", str(tmp_path), "--jobs", "64")
    assert code == 0
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    run_cli(capsys, "table", "--type", "A1", "--height", "2", "--formulas", "weyl-char",
            "--out", str(tmp_path), "--jobs", "64")
    # 2 verify tasks, 3 table rows, then 3 rows on 2 CPUs.
    assert _RecordingPool.sizes == [2, 3, 2]


def test_f4_size_guard_names_no_cli_step(capsys):
    # No command-line option raises the cap, so the message must not ask for
    # one; the class and exit code 3 stay.
    code, out, err = run_cli(capsys, "verify", "--type", "F4")
    assert (code, out) == (3, "")
    assert err == "error: WeylGroupTooLarge: |W(F4)| = 1152 exceeds the cap 500 on walks over the whole Weyl group\n"


def test_eval_alternator_side_on_f4(capsys):
    # The alternator side needs no Weyl group, so it evaluates on F4; the
    # Hecke sum over all of W still stops at the size guard.
    base = ("eval", "--type", "F4", "--character", "neg-long", "--lambda", "0,0,0,0")
    code, out, err = run_cli(capsys, *base, "--formula", "theorem-rhs")
    assert (code, err) == (0, "")
    assert out.startswith("(-q^17 - 2*q^16 - 2*q^15 - q^14)*pi^[-5,1,1,0] + "
                          "(q^16 + 2*q^15 + 2*q^14 + q^13)*pi^[-5,2,0,0]")
    code, out, err = run_cli(capsys, *base, "--formula", "theorem-lhs")
    assert (code, out) == (3, "")
    assert err.startswith("error: WeylGroupTooLarge: |W(F4)| = 1152")
    # weyl-char reads w0 lambda off the dominant chamber, so it needs no W
    # either; its coefficients sum to Weyl's dimension formula
    # prod_{a>0} <a, lambda + rho> / <a, rho>.
    from heckemod.root_system import build_root_system

    rs = build_root_system("F4")
    for lam in ((0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0)):
        code, out, err = run_cli(capsys, "eval", "--type", "F4", "--formula", "weyl-char",
                                 "--lambda", ",".join(map(str, lam)), "--output", "json")
        assert (code, err) == (0, ""), lam
        records = json.loads(out)["value_records"]
        top = bottom = 1
        for r in rs.positive_roots:
            top *= rs.pairing(r, tuple(c + 1 for c in lam))
            bottom *= rs.pairing(r, (1, 1, 1, 1))
        assert sum(int(c) for rec in records for _, c in rec["coeff"]) * bottom == top, lam
        assert all(e == 0 for rec in records for e, _ in rec["coeff"]), lam
        # demazure-char runs Demazure operators along w0's word, read off -rho.
        code, out, err = run_cli(capsys, "eval", "--type", "F4", "--formula", "demazure-char",
                                 "--lambda", ",".join(map(str, lam)), "--output", "json")
        assert (code, err) == (0, ""), lam
        records = json.loads(out)["value_records"]
        assert sum(int(c) for rec in records for _, c in rec["coeff"]) * bottom == top, lam
    # macdonald at lambda = 0 is the Poincare polynomial prod_d (1 - q^d) / (1 - q)
    # over the degrees of F4.
    poincare = {0: 1}
    for d in (2, 6, 8, 12):
        poincare = {k: sum(c for e, c in poincare.items() if k - d < e <= k) for k in range(max(poincare) + d)}
    code, out, err = run_cli(capsys, "eval", "--type", "F4", "--formula", "macdonald", "--lambda", "0,0,0,0",
                             "--output", "json")
    assert (code, err) == (0, "")
    ((record,),) = [json.loads(out)["value_records"]]
    assert record["coweight"] == [0, 0, 0, 0]
    assert {e: int(c) for e, c in record["coeff"]} == poincare
