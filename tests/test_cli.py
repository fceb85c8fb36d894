"""CLI subcommands, exit codes, file output, verify round-trips."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from pgroupcert import certdoc
from pgroupcert.cli import main
from pgroupcert.exterior import MAX_SYMMETRIZATION_N
from pgroupcert.groups import MAX_GROUP_N


class _Runner:
    """Runs one command line in this process; stdout and stderr are captured together.

    An exception raised by the command propagates, so a crash fails the test.
    """

    def invoke(self, command, args):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            exit_code = command(args)
        return SimpleNamespace(exit_code=exit_code, output=captured.getvalue())


@pytest.fixture()
def runner():
    return _Runner()


def test_certify_auto_prime(runner):
    result = runner.invoke(main, ["certify", "--n", "1", "--r", "1"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["kind"] == "construction"
    assert doc["command"]["params"]["p"] == 3
    assert doc["certificate"]["overall_pass"] is True
    assert doc["certificate"]["group"]["lambda"] == {"num": "2", "den": "3"}


def test_certify_explicit_prime_records_deltas(runner):
    result = runner.invoke(main, ["certify", "--n", "2", "--r", "1", "--p", "7"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["certificate"]["delta"] == [-14, -50]


def test_certify_rejects_even_prime(runner):
    result = runner.invoke(main, ["certify", "--n", "1", "--r", "1", "--p", "2"])
    assert result.exit_code == 2
    assert "odd primes" in result.output


def test_certify_rejects_bad_congruence(runner):
    result = runner.invoke(main, ["certify", "--n", "2", "--r", "1", "--p", "5"])
    assert result.exit_code == 2


def test_certify_verify_round_trip(runner, tmp_path):
    out = tmp_path / "cert.json"
    result = runner.invoke(main, ["certify", "--n", "2", "--r", "1", "--p", "7", "--out", str(out)])
    assert result.exit_code == 0
    result = runner.invoke(main, ["verify", str(out)])
    assert result.exit_code == 0, result.output
    assert "FAIL" not in result.output


def test_verify_rejects_tampered_file(runner, tmp_path):
    out = tmp_path / "cert.json"
    runner.invoke(main, ["certify", "--n", "1", "--r", "1", "--p", "3", "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["certificate"]["delta"][0] += 1
    out.write_text(json.dumps(doc))
    result = runner.invoke(main, ["verify", str(out)])
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_verify_rejects_truncated_file(runner, tmp_path):
    out = tmp_path / "cert.json"
    runner.invoke(main, ["certify", "--n", "1", "--r", "1", "--p", "3", "--out", str(out)])
    out.write_text(out.read_text()[: len(out.read_text()) // 2])
    result = runner.invoke(main, ["verify", str(out)])
    assert result.exit_code == 2


def test_group_brute_mode(runner):
    result = runner.invoke(main, ["group", "--n", "1", "--p", "3", "--mode", "brute"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    cert = doc["certificate"]
    assert cert["order"] == 27
    assert cert["max_abelian_order"] == 9
    assert cert["lambda"] == {"num": "2", "den": "3"}
    assert cert["modes_agree"] is True


def test_group_structural_mode(runner):
    result = runner.invoke(main, ["group", "--n", "2", "--p", "3", "--mode", "structural"])
    assert result.exit_code == 0
    cert = json.loads(result.output)["certificate"]
    assert cert["order"] == 243
    assert cert["max_abelian_order"] == 27


def test_group_budget_error(runner):
    result = runner.invoke(main, ["group", "--n", "3", "--p", "101", "--mode", "brute"])
    assert result.exit_code == 2


def test_olshanskii_vacuous_case(runner, tmp_path):
    out = tmp_path / "olsh.json"
    result = runner.invoke(
        main, ["olshanskii", "--n", "1", "--r", "2", "--p", "3", "--seed", "7", "--out", str(out)]
    )
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["certificate"]["certified"] is True
    assert doc["certificate"]["k"] == 4
    verify_result = runner.invoke(main, ["verify", str(out)])
    assert verify_result.exit_code == 0, verify_result.output


def test_olshanskii_k_above_n_needs_no_budget(runner, tmp_path):
    # k = 7 > n = 5; gb(10, 7, 3) = 18,326,727,760 is far over the default budget
    out = tmp_path / "olsh.json"
    result = runner.invoke(main, ["olshanskii", "--n", "5", "--r", "4", "--p", "3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    verify_result = runner.invoke(main, ["verify", str(out)])
    assert verify_result.exit_code == 0, verify_result.output
    assert "nondegeneracy: k=7 > n=5" in verify_result.output


def test_olshanskii_requires_r_at_least_2(runner):
    result = runner.invoke(main, ["olshanskii", "--n", "2", "--r", "1", "--p", "5"])
    assert result.exit_code == 2


def test_lambda_table_json_and_witness(runner):
    result = runner.invoke(
        main,
        ["lambda-table", "--max-n", "3", "--max-r", "1", "--epsilon", "2/3"],
    )
    assert result.exit_code == 0
    cert = json.loads(result.output)["certificate"]
    assert cert["rows"][0]["bound"] == {"num": "2", "den": "3"}
    assert cert["epsilon_witness"] == {"n": 2, "r": 1}


def test_lambda_table_witness_none_in_range(runner):
    result = runner.invoke(
        main,
        ["lambda-table", "--max-n", "2", "--max-r", "1", "--epsilon", "51/100"],
    )
    cert = json.loads(result.output)["certificate"]
    assert cert["epsilon_witness"] == "none in range"


def test_lambda_table_csv(runner):
    result = runner.invoke(main, ["lambda-table", "--max-n", "2", "--max-r", "2", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "n,r,k,abelian_exponent,order_exponent,bound"
    assert lines[1] == "1,1,,2,3,2/3"
    assert len(lines) == 5


def test_find_prime(runner):
    result = runner.invoke(main, ["find-prime", "--n", "2", "--h", "7"])
    assert result.exit_code == 0
    assert json.loads(result.output)["certificate"]["prime"] == 13


def test_usage_error_on_missing_flags(runner):
    assert runner.invoke(main, ["certify"]).exit_code == 2
    assert runner.invoke(main, ["verify", "/nonexistent/file.json"]).exit_code == 2


def test_certify_rejects_n_over_cap(runner):
    result = runner.invoke(main, ["certify", "--n", str(MAX_SYMMETRIZATION_N + 1), "--p", "3"])
    assert result.exit_code == 2
    assert "exceeds" in result.output
    result = runner.invoke(main, ["certify", "--n", str(MAX_SYMMETRIZATION_N + 1)])
    assert result.exit_code == 2


def test_find_prime_rejects_n_over_cap(runner):
    result = runner.invoke(main, ["find-prime", "--n", str(MAX_SYMMETRIZATION_N + 1)])
    assert result.exit_code == 2
    assert "exceeds" in result.output


def test_group_rejects_n_over_cap(runner):
    result = runner.invoke(main, ["group", "--n", str(MAX_GROUP_N + 1), "--p", "3"])
    assert result.exit_code == 2
    assert f"n <= {MAX_GROUP_N}" in result.output


def test_verify_malformed_field_is_usage_error(runner, tmp_path):
    out = tmp_path / "cert.json"
    runner.invoke(main, ["certify", "--n", "1", "--r", "1", "--p", "3", "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["certificate"]["n"] = "abc"
    doc["digest"] = certdoc.compute_digest(certdoc.document_digestable(doc))
    out.write_text(json.dumps(doc))
    result = runner.invoke(main, ["verify", str(out)])
    assert result.exit_code == 2
    assert "bad integer literal" in result.output


def test_cli_import_leaves_numpy_out():
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    code = "import sys, pgroupcert.cli; sys.exit('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr or "numpy was imported"


def test_cli_import_leaves_click_out():
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    code = "import sys, pgroupcert.cli; sys.exit('click' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr or "click was imported"


def test_click_style_entry_raises_system_exit_with_the_status(tmp_path, capsys):
    good = tmp_path / "good.json"
    assert main(["certify", "--n", "1", "--r", "1", "--p", "3", "--out", str(good)]) == 0
    bad = tmp_path / "bad.json"
    doc = json.loads(good.read_text())
    doc["certificate"]["delta"][0] += 1
    bad.write_text(json.dumps(doc))
    for path, status in [(good, 0), (bad, 1), (tmp_path / "missing.json", 2)]:
        with pytest.raises(SystemExit) as exc:
            main.main(args=["verify", str(path)], prog_name="pgroupcert")
        assert exc.value.code == status
    assert "usage: pgroupcert verify" in capsys.readouterr().err


def test_verify_reports_a_lambda_table_with_a_zero_r_row(runner, tmp_path):
    out = tmp_path / "table.json"
    assert runner.invoke(main, ["lambda-table", "--max-n", "2", "--max-r", "2", "--out", str(out)]).exit_code == 0
    doc = json.loads(out.read_text())
    doc["certificate"]["rows"][1]["r"] = 0
    doc["digest"] = certdoc.compute_digest(certdoc.document_digestable(doc))
    out.write_text(json.dumps(doc))
    # It used to raise ZeroDivisionError out of the verifier; the runner lets it propagate.
    result = runner.invoke(main, ["verify", str(out)])
    assert result.exit_code == 1
    assert "FAIL lambda_table:params" in result.output


def test_olshanskii_at_a_large_prime(runner, tmp_path):
    out = tmp_path / "family.json"
    result = runner.invoke(main, ["olshanskii", "--n", "1", "--r", "5", "--p", "2147483659", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert runner.invoke(main, ["verify", str(out)]).exit_code == 0


@pytest.mark.parametrize("args", [["--p", "3", "--attempts", "0"], ["--p", "1"], ["--p", "2"], ["--p", "9"]])
def test_olshanskii_rejects_bad_search_parameters(runner, args):
    # p = 1 used to loop forever looking for an invertible matrix; p = 2
    # gave a document that verify rejects.
    result = runner.invoke(main, ["olshanskii", "--n", "1", "--r", "2", *args])
    assert result.exit_code == 2, result.output


@pytest.mark.parametrize(
    "args",
    [
        ["group", "--n", "1", "--p", "9"],
        ["group", "--n", "1", "--p", "15"],
        ["group", "--n", str(MAX_GROUP_N), "--p", str(10**50 + 1)],
        ["group", "--n", "1", "--p", str(2**89 - 1)],
        ["certify", "--n", "1", "--p", str(2**89 - 1)],
        ["find-prime", "--n", "1", "--min", str(10**31), "--ceiling", str(10**31 + 100)],
        ["certify", "--n", "1", "--r", "10000", "--p", "3"],
    ],
)
def test_inputs_beyond_the_primality_test_or_the_document_are_usage_errors(runner, args):
    # 2**89 - 1 is prime but beyond the deterministic primality test; the
    # order 3^10002 has more digits than a document integer may hold.
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.output.count("usage:") == 1
    assert "Traceback" not in result.output


def test_certify_at_the_largest_order_a_document_holds(runner, tmp_path):
    # 3^9002 has 4295 digits, within the 4300 a document integer may hold.
    out = tmp_path / "cert.json"
    assert runner.invoke(main, ["certify", "--n", "1", "--r", "9000", "--p", "3", "--out", str(out)]).exit_code == 0
    assert runner.invoke(main, ["verify", str(out)]).exit_code == 0
