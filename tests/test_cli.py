import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckemod.algebra import COORD_BOUND, GroupRingElem
from heckemod.cli import FORMULAS, _json_text, main
from heckemod.formulas import bessel_value
from heckemod.root_system import build_root_system
from heckemod.verify import SUITES


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


@pytest.mark.parametrize("formula, rest", [
    ("weyl-char", ("--lambda", "1,0")),
    ("macdonald", ("--lambda", "1,0")),
    ("theorem-lhs", ("--character", "sign", "--lambda", "1,0")),
    ("bessel-value", ()),
])
def test_eval_checks_the_word_of_every_formula(capsys, formula, rest):
    # --word is parsed at the edge like --lambda, so a bad one is refused even
    # where the formula takes no word; a valid one it does not use changes nothing.
    type_name = "B2" if formula == "bessel-value" else "A2"
    base = ("eval", "--type", type_name, "--formula", formula, *rest)
    for word, message in (("9", "has indices outside 1..2"), ("x", "cannot parse word")):
        code, out, err = run_cli(capsys, *base, "--word", word)
        assert (code, out) == (2, ""), word
        assert message in err, word
    code, out, err = run_cli(capsys, *base)
    assert (code, err) == (0, "")
    assert run_cli(capsys, *base, "--word", "2,1") == (0, out, "")


def test_eval_checks_the_lambda_of_every_formula(capsys):
    # --lambda is parsed at the edge like --word, so a bad one is refused even
    # where the formula takes no lambda; a valid one it does not use changes
    # nothing, and the row still says "lambda": [].
    base = ("eval", "--type", "B2", "--formula", "bessel-value", "--output", "json")
    for lam, message in (("garbage", "cannot parse coweight"), ("1", "has 1 coordinates, rank is 2")):
        code, out, err = run_cli(capsys, *base, "--lambda", lam)
        assert (code, out) == (2, ""), lam
        assert message in err, lam
    code, out, err = run_cli(capsys, *base)
    assert (code, err) == (0, "")
    assert json.loads(out)["lambda"] == []
    assert run_cli(capsys, *base, "--lambda", "1,0") == (0, out, "")


@pytest.mark.parametrize("flag, text, message", [
    ("--lambda", "1_0,0", "cannot parse coweight"),
    ("--lambda", "\uff11,0", "cannot parse coweight"),
    ("--word", "1_0", "cannot parse word"),
    ("--word", "\uff11", "cannot parse word"),
], ids=["lambda-underscore", "lambda-fullwidth", "word-underscore", "word-fullwidth"])
def test_eval_accepts_only_ascii_integers(capsys, flag, text, message):
    # int() alone reads 1_0 as 10 and a full-width 1 as 1.
    base = ("eval", "--type", "A2", "--formula", "weyl-char", "--lambda", "1,0")
    code, out, err = run_cli(capsys, *base, flag, text)
    assert (code, out) == (2, "")
    assert err == f"error: {message} {text!r}: expected comma-separated {'integers' if flag == '--lambda' else 'indices'}\n"


def test_eval_signs_and_spaces_still_parse(capsys):
    base = ("eval", "--type", "A2", "--formula", "weyl-char")
    code, out, err = run_cli(capsys, *base, "--lambda", "1,0", "--word", "1,2")
    assert (code, err) == (0, "")
    assert run_cli(capsys, *base, "--lambda", " +1 , 0 ", "--word", " +1, 2") == (0, out, "")


def test_eval_shalika_both_forms(capsys):
    code, out, _ = run_cli(capsys, "eval", "--type", "B2", "--lambda", "0,1", "--formula", "shalika")
    assert code == 0
    assert "forms_agree: True" in out


_CS_B2 = ("-q*pi^[-3,1] + q^2*pi^[-3,2] + pi^[-1,-1] + (q^2 - q)*pi^[-1,0] + (-q^3 + q^2)*pi^[-1,1]"
          " - q^3*pi^[-1,2] - q*pi^[1,-2] + (q^2 - q)*pi^[1,-1] + (-q^3 + q^2)*pi^[1,0] + q^4*pi^[1,1]"
          " + q^2*pi^[3,-2] - q^3*pi^[3,-1]")
_SHALIKA_B2 = "(-q^3 - q^2)*pi^[-2,1] + (q^2 + q)*pi^[0,-1] + (q^4 + q^3)*pi^[0,1] + (-q^3 - q^2)*pi^[2,-1]"


@pytest.mark.parametrize("argv, lines", [
    (("--formula", "casselman-shalika", "--lambda", "0,0"), [_CS_B2]),
    (("--formula", "shalika", "--lambda", "0,0"),
     [_SHALIKA_B2, f"rewritten_form: {_SHALIKA_B2}", "forms_agree: True"]),
    (("--formula", "bessel-value"), [
        "(q^2 + q)*pi^[-1,0] + (-q^3 - q^2)*pi^[-1,1] + (-q^3 - q^2)*pi^[1,-1] + (q^4 + q^3)*pi^[1,0]",
        "quoted_product: pi^[-1,0] - q^-1*pi^[-1,1] - q^-1*pi^[1,-1] + q^-2*pi^[1,0]",
        "unit_ratio_to_quoted: None",
        "q_form_cofactor: (q^2 + q)",
    ]),
    (("--formula", "iwahori-image", "--character", "sign", "--lambda", "0,0", "--word", "1,2"), [
        "pi^[-3,2] + (-q + 1)*pi^[-1,1] + (-q + 1)*pi^[-1,2] + (-q + 1)*pi^[1,0]"
        " + (q^2 - 2*q + 1)*pi^[1,1] + (-q + 1)*pi^[3,-1]",
        "measure: 1",
    ]),
])
def test_eval_text_lines_golden(capsys, argv, lines):
    # Every line in order: the value, then one line per field of the row.
    assert run_cli(capsys, "eval", "--type", "B2", *argv) == (0, "\n".join(lines) + "\n", "")


def test_unknown_formula_exits_2_in_eval_and_table(capsys, tmp_path):
    message = "error: unknown formula 'nope'; known: " + str(sorted(FORMULAS)) + "\n"
    assert run_cli(capsys, "eval", "--type", "B2", "--formula", "nope") == (2, "", message)
    assert run_cli(capsys, "table", "--type", "B2", "--formulas", "nope", "--out", str(tmp_path)) == (2, "", message)
    assert list(tmp_path.iterdir()) == []


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
    # A valid one it does not use changes nothing: the one the formula
    # implies, or any where it implies none.
    base = ("eval", "--type", "A2", "--formula", formula, "--lambda", "1,0")
    code, out, err = run_cli(capsys, *base, "--character", FORMULAS[formula].implied_character or "triv")
    assert (code, err) == (0, "")
    assert run_cli(capsys, *base) == (0, out, "")


@pytest.mark.parametrize("formula, named, rest", [
    ("casselman-shalika", "triv", ("--lambda", "1,1")),
    ("macdonald", "sign", ("--lambda", "1,1")),
    ("shalika", "neg-long", ("--lambda", "1,1")),
    ("bessel-value", "sign", ()),
])
def test_eval_refuses_a_character_the_formula_contradicts(capsys, formula, named, rest):
    # The row used to carry the named character beside the implied one's value.
    implied = FORMULAS[formula].implied_character
    base = ("eval", "--type", "B2", "--formula", formula, *rest)
    assert run_cli(capsys, *base, "--character", named) == (
        2, "", f"error: formula {formula} is defined for character {implied!r}, not {named!r}\n")
    code, out, err = run_cli(capsys, *base, "--output", "csv", "--character", implied)
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split(",")[1] == implied


def test_eval_bessel_value_returns_on_b5(capsys):
    # The value is the closed form, so the |W| > 500 guard of the walk does not apply.
    code, out, err = run_cli(capsys, "eval", "--type", "B5", "--formula", "bessel-value")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "q_form_cofactor: (q^5 + q^4)"


def test_eval_bessel_json_holds_quoted_product_once(capsys):
    # As records, like every ring element of a row; its text is the text output's.
    code, out, _ = run_cli(capsys, "eval", "--type", "B2", "--formula", "bessel-value", "--output", "json")
    assert code == 0
    row = json.loads(out)
    assert "quoted_product_str" not in row
    assert row["quoted_product"] == bessel_value(build_root_system("B2")).quoted_product.to_json_obj()


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
    # the message of the library's UnknownName, as it is
    assert run_cli(capsys, "verify", "--type", "A1", "--suite", "nope") == (
        2, "", f"error: unknown suite 'nope'; known: {sorted(SUITES)}\n")


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


def test_table_and_eval_use_the_canonical_type_name(tmp_path, capsys):
    # As verify does: the row's type and the table's file name are str(CartanType).
    for type_name in ("B2", "b2"):
        code, out, err = run_cli(capsys, "table", "--type", type_name, "--height", "1",
                                 "--out", str(tmp_path / type_name))
        assert (code, err) == (0, "")
        assert sorted(p.name for p in (tmp_path / type_name).iterdir()) == ["table_B2.csv", "table_B2.json"]
    for suffix in (".csv", ".json"):
        name = "table_B2" + suffix
        assert (tmp_path / "b2" / name).read_bytes() == (tmp_path / "B2" / name).read_bytes(), name
    base = ("eval", "--formula", "weyl-char", "--lambda", "1", "--output", "csv")
    assert run_cli(capsys, *base, "--type", " a1") == run_cli(capsys, *base, "--type", "A1")


_JSON_TEXT = st.text() | st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\ud7ff\udc00\U0001f600')
# Ring elements of rank 1-4 with coordinates up to the packing bound, and
# coefficients past 2^64 of both signs at negative q-exponents; an empty term
# map is the zero element.
_COORD = st.integers(-COORD_BOUND, COORD_BOUND - 1) | st.sampled_from([-COORD_BOUND, COORD_BOUND - 1])
_COEFF = st.integers(-(2**80), 2**80).filter(bool) | st.sampled_from([2**64 + 1, -(2**64) - 1])
_ELEMENTS = st.integers(1, 4).flatmap(lambda n: st.dictionaries(
    st.tuples(*[_COORD] * n), st.dictionaries(st.integers(-6, 6), _COEFF, min_size=1, max_size=4), max_size=4,
).map(lambda terms: GroupRingElem(n, terms)))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _JSON_TEXT | _ELEMENTS,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_JSON_TEXT, inner),
    max_leaves=40,
)
# An element as eval's value, in a row, and in a table of rows.
_ROWS = st.builds(lambda row, f: {**row, "value_records": f},
                  st.dictionaries(_JSON_TEXT, _JSON_TEXT | st.integers() | st.lists(st.integers()) | _ELEMENTS,
                                  max_size=4),
                  _ELEMENTS)
_DOCUMENTS = _JSON_VALUES | _ELEMENTS | _ROWS | st.lists(_ROWS, max_size=3)


def _records(value):
    """The document json.dumps sees: each ring element as its records."""
    if isinstance(value, GroupRingElem):
        return value.to_json_obj()
    if isinstance(value, dict):
        return {k: _records(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_records(v) for v in value]
    return value


@settings(max_examples=150, deadline=None)
@given(_DOCUMENTS)
@example([{"value_records": GroupRingElem(2, {(1, -1): {0: Fraction(23, 2)}, (0, 0): {0: 1 + 2**67}})}])
def test_json_text_is_json_dumps_indent_2(value):
    assert _json_text(value) == json.dumps(_records(value), sort_keys=True, indent=2)


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
    # The B2 rows carry ring elements besides the value (rewritten_form,
    # quoted_product), pickled back from the workers.
    for type_name, formulas in (("A1", ()),
                                ("B2", ("--formulas", "casselman-shalika,shalika,bessel-value,macdonald"))):
        seq = tmp_path / type_name / "seq"
        par = tmp_path / type_name / "par"
        for out, jobs in ((seq, "1"), (par, "2")):
            code, _, _ = run_cli(capsys, "table", "--type", type_name, "--height", "2", *formulas,
                                 "--out", str(out), "--jobs", jobs)
            assert code == 0
        for suffix in (".csv", ".json"):
            name = f"table_{type_name}{suffix}"
            assert (seq / name).read_bytes() == (par / name).read_bytes(), name


@pytest.mark.parametrize("mutate", [(), ("--mutate", "swap-cases")])
@pytest.mark.parametrize("output", ["text", "json"])
def test_verify_jobs_parallelism_is_deterministic(capsys, output, mutate):
    # A passing run on two types, and a failing control that prints witnesses.
    types = ("--type", "B2") if mutate else ("--type", "A2", "--type", "B2")
    runs = [run_cli(capsys, "verify", *types, *mutate, "--box", "1", "--output", output, "--jobs", jobs)
            for jobs in ("1", "2")]
    assert runs[0] == runs[1]
    assert runs[0][0] == (1 if mutate else 0)


def test_table_json_failure_writes_no_csv(tmp_path, capsys, monkeypatch):
    # Both texts are built before either file is written.
    import heckemod.cli as cli

    def broken(obj, newline="\n"):
        raise RuntimeError("json writer broke")

    monkeypatch.setattr(cli, "_json_text", broken)
    with pytest.raises(RuntimeError, match="json writer broke"):
        main(["table", "--type", "A1", "--height", "1", "--out", str(tmp_path / "tables")])
    assert not list(tmp_path.glob("**/table_*"))


def test_table_onto_a_directory_renames_neither_file(tmp_path, capsys):
    # Both temp files are written and both targets checked before either
    # rename, so the directory named like the JSON stops the CSV too.
    (tmp_path / "table_A1.json").mkdir()
    code, out, err = run_cli(capsys, "table", "--type", "A1", "--height", "1", "--out", str(tmp_path))
    assert (code, out) == (4, "")
    assert "is not a regular file" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table_A1.json"]
    assert not list((tmp_path / "table_A1.json").iterdir())


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_table_files_take_their_mode_from_the_umask(tmp_path, capsys, umask, mode):
    old = os.umask(umask)
    try:
        code, _, _ = run_cli(capsys, "table", "--type", "A1", "--height", "1", "--out", str(tmp_path))
    finally:
        os.umask(old)
    assert code == 0
    assert {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()} == {
        "table_A1.csv": mode, "table_A1.json": mode}


def test_no_record_tree_on_any_cli_path(tmp_path, capsys, monkeypatch):
    # Every table and eval JSON writes ring elements from their packed keys;
    # to_json_obj stays the tests' reference for those records.
    def refuse(self):
        raise AssertionError("to_json_obj on a CLI path")

    monkeypatch.setattr(GroupRingElem, "to_json_obj", refuse)
    code, _, err = run_cli(capsys, "table", "--type", "B2", "--height", "1", "--out", str(tmp_path),
                           "--formulas", "macdonald,casselman-shalika,shalika,bessel-value")
    assert (code, err) == (0, "")
    for formula, entry in FORMULAS.items():
        type_name, lam = ("A1", "1") if formula == "theorem-lhs" else ("B2", "1,1")
        argv = ["eval", "--type", type_name, "--formula", formula, "--output", "json"]
        if entry.needs_character:
            argv += ["--character", "sign"]
        if entry.needs_lambda:
            argv += ["--lambda", lam]
        if formula == "iwahori-image":
            argv += ["--word", "1,2"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), formula
        assert json.loads(out)["formula"] == formula


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


def test_cli_import_loads_no_process_pool():
    # A serial run never starts a pool, so it should not pay for importing one.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, heckemod.cli; print('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_cli_import_loads_no_fractions():
    # No computation takes a rational value of q, so nothing on the CLI's
    # import path needs the fractions module.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, heckemod.cli; print('fractions' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


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
    assert identities == {"deformed-demazure", "intertwiner"}


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


def test_table_refuses_a_formula_whose_character_is_not_selected(tmp_path, capsys):
    # macdonald implies triv; as in eval, selecting only sign contradicts it.
    code, out, err = run_cli(capsys, "table", "--type", "B2", "--characters", "sign", "--formulas", "macdonald",
                             "--out", str(tmp_path / "refused"))
    assert (code, out) == (2, "")
    assert "'triv'" in err
    assert list(tmp_path.iterdir()) == []
    code, out, _ = run_cli(capsys, "table", "--type", "B2", "--height", "1", "--characters", "sign,triv",
                           "--formulas", "macdonald,casselman-shalika", "--out", str(tmp_path / "kept"))
    assert code == 0
    rows = json.loads((tmp_path / "kept" / "table_B2.json").read_text())
    assert sorted({(r["formula"], r["character"]) for r in rows}) == [("casselman-shalika", "sign"),
                                                                       ("macdonald", "triv")]


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

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
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


def test_eval_casselman_shalika_on_f4(capsys):
    # The closed form walks no Weyl group, so the size guard does not stop it.
    # At lambda = 0 it is q^24 pi^rho prod_{a>0} (1 - q^-1 pi^{-a^vee}), so
    # its coefficients summed over the coweights are (q - 1)^24.
    code, out, err = run_cli(capsys, "eval", "--type", "F4", "--formula", "casselman-shalika",
                             "--lambda", "0,0,0,0", "--output", "json")
    assert (code, err) == (0, "")
    total: dict[int, int] = {}
    for record in json.loads(out)["value_records"]:
        for e, c in record["coeff"]:
            total[e] = total.get(e, 0) + int(c)
    assert {e: c for e, c in total.items() if c} == {k: comb(24, k) * (-1) ** (24 - k) for k in range(25)}


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
