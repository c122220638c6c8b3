import json
import subprocess
import sys

from heckemod.cli import main


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


def test_eval_shalika_both_forms(capsys):
    code, out, _ = run_cli(capsys, "eval", "--type", "B2", "--lambda", "0,1", "--formula", "shalika")
    assert code == 0
    assert "forms_agree: True" in out


def test_parse_errors_exit_2(capsys):
    assert run_cli(capsys, "eval", "--type", "Z1", "--formula", "macdonald", "--lambda", "0")[0] == 2
    assert run_cli(capsys, "eval", "--type", "A1", "--formula", "no-such", "--lambda", "0")[0] == 2
    assert run_cli(capsys, "eval", "--type", "A1", "--formula", "macdonald", "--lambda", "x")[0] == 2
    assert run_cli(capsys, "eval", "--type", "A1", "--formula", "macdonald", "--lambda", "1,2")[0] == 2
    assert run_cli(capsys, "eval", "--type", "A2", "--character", "neg-long", "--lambda", "0,0", "--formula", "theorem-lhs")[0] == 2


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


def test_verify_braid_skips_rank_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "--type", "A1", "--type", "A2", "--suite", "braid", "--box", "0")
    assert code == 0
    assert " A1 " not in out
    assert "OK: 2/2" in out
    code, out, err = run_cli(capsys, "verify", "--type", "A1", "--suite", "braid")
    assert code == 2 and out == "" and "nothing to verify" in err


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
