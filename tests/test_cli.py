"""CLI subcommands, exit codes, file output, verify round-trips."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from pgroupcert import certdoc, products, solver
from pgroupcert.cli import main
from pgroupcert.exterior import MAX_SYMMETRIZATION_N
from pgroupcert.groups import MAX_GROUP_N
from pgroupcert.symplectic import MAX_FORM_FAMILY_ENTRIES


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
    assert "group-law calls, budget is 200000" in result.output


@pytest.mark.parametrize(
    "args",
    [["group", "--n", "1", "--p", "3", "--budget", "5"], ["find-prime", "--n", "2", "--ceiling", "5"]],
    ids=["group --budget", "find-prime --ceiling"],
)
def test_retired_bounds_are_unknown_options(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert f"unrecognized arguments: {args[-2]} 5" in result.output


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
    # k = 7 > n = 5; gb(10, 7, 3) = 18,326,727,760 is far over any budget, and none applies
    out = tmp_path / "olsh.json"
    result = runner.invoke(
        main, ["olshanskii", "--n", "5", "--r", "4", "--p", "3", "--budget", "1", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    verify_result = runner.invoke(main, ["verify", "--budget", "1", str(out)])
    assert verify_result.exit_code == 0, verify_result.output
    assert "ok   olshanskii:isotropic_enumeration\n" in verify_result.output


@pytest.mark.parametrize("k", [-3, 0, 1, 10**9, "0x" + "f" * 1000], ids=["-3", "0", "1", "1e9", "hex1000"])
def test_verify_fails_an_invalid_k_without_searching(runner, tmp_path, k):
    out = tmp_path / "olsh.json"
    runner.invoke(main, ["olshanskii", "--n", "3", "--r", "7", "--p", "3", "--seed", "1", "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["certificate"]["k"] = k
    doc["digest"] = certdoc.compute_digest(certdoc.document_digestable(doc))
    out.write_text(json.dumps(doc))
    start = time.perf_counter()
    result = runner.invoke(main, ["verify", str(out)])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 1, result.output
    assert "well_formed" not in result.output
    assert "FAIL olshanskii:k_choice" in result.output
    for name in ("isotropic_enumeration", "exact_abelian_bound"):
        assert f"FAIL olshanskii:{name}  (not run: k invalid)" in result.output


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


def test_find_prime_past_a_million_verifies(runner, tmp_path):
    out = tmp_path / "prime.json"
    result = runner.invoke(main, ["find-prime", "--n", "2", "--min", "2000000", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads(out.read_text())["certificate"]["prime"] == 2_000_029
    verify_result = runner.invoke(main, ["verify", str(out)])
    assert verify_result.exit_code == 0, verify_result.output


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
    assert "FAIL lambda_table:payload" in result.output


def test_verify_reports_a_zero_denominator_as_a_parse_error(runner, tmp_path):
    out = tmp_path / "table.json"
    assert runner.invoke(main, ["lambda-table", "--max-n", "2", "--max-r", "2", "--out", str(out)]).exit_code == 0
    doc = json.loads(out.read_text())
    doc["certificate"]["rows"][0]["bound"]["den"] = "0"
    doc["digest"] = certdoc.compute_digest(certdoc.document_digestable(doc))
    out.write_text(json.dumps(doc))
    # It used to raise ZeroDivisionError out of the verifier; the runner lets it propagate.
    result = runner.invoke(main, ["verify", str(out)])
    assert result.exit_code == 2
    assert "cannot parse" in result.output


def test_lambda_table_over_the_row_limit_is_a_usage_error(runner, monkeypatch):
    # 300 x 300 used to take seconds and hundreds of MB before writing a byte.
    monkeypatch.setattr(solver, "lambda_row", lambda n, r: pytest.fail("a row was built"))
    result = runner.invoke(main, ["lambda-table", "--max-n", "101", "--max-r", "100"])
    assert result.exit_code == 2, result.output
    assert result.output.count("usage:") == 1
    assert "Traceback" not in result.output


def test_certify_and_verify_at_a_safe_prime_near_the_primality_limit(runner, tmp_path):
    # p - 1 = 2q with q prime: finding the roots by factoring p - 1 would
    # take hours.  Both commands must finish within 5 s.
    out = tmp_path / "cert.json"
    p = "1000000000000000000004903"
    start = time.perf_counter()
    result = runner.invoke(main, ["certify", "--n", "1", "--r", "1", "--p", p, "--out", str(out)])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["verify", str(out)])
    assert result.exit_code == 0, result.output
    assert "FAIL" not in result.output
    assert time.perf_counter() - start < 5.0


def test_olshanskii_at_a_large_prime(runner, tmp_path):
    out = tmp_path / "family.json"
    result = runner.invoke(main, ["olshanskii", "--n", "1", "--r", "5", "--p", "2147483659", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert runner.invoke(main, ["verify", str(out)]).exit_code == 0


@pytest.mark.parametrize(
    "args",
    [
        # gb(44, 22, p) has 4357 digits: the exact bound's BudgetExceeded used to fail to format it.
        ["--n", "22", "--r", "2", "--p", "1000000007"],
        # gb(32, 23, p) has 4969 digits: the transcript records it in hex.
        ["--n", "16", "--r", "3", "--p", "1000000000000000000000007"],
    ],
)
def test_olshanskii_counts_past_the_digit_limit(runner, tmp_path, args):
    out = tmp_path / "family.json"
    result = runner.invoke(main, ["olshanskii", *args, "--out", str(out)])
    assert result.exit_code == 0, result.output
    verify_result = runner.invoke(main, ["verify", str(out)])
    assert verify_result.exit_code == 0, verify_result.output


def test_olshanskii_over_the_size_limit_is_a_usage_error(runner, monkeypatch):
    # --n 2 --r 1000000 used to grow past 900 MB before writing a byte.
    def refuse(*args):
        raise AssertionError("a matrix was drawn")

    monkeypatch.setattr(products, "random_invertible", refuse)
    n = 1
    r = MAX_FORM_FAMILY_ENTRIES // (2 * n) ** 2
    result = runner.invoke(main, ["olshanskii", "--n", str(n), "--r", str(r + 1), "--p", "3"])
    assert result.exit_code == 2, result.output
    assert result.output.count("usage:") == 1
    assert "exceeds the limit" in result.output
    with pytest.raises(AssertionError, match="a matrix was drawn"):
        runner.invoke(main, ["olshanskii", "--n", str(n), "--r", str(r), "--p", "3"])


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
        ["find-prime", "--n", "1", "--min", str(10**31)],
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


def _redigested(runner, tmp_path, command, edit):
    """Produce a document by ``command``, apply ``edit`` to its certificate, re-digest; returns its path."""
    out = tmp_path / "doc.json"
    runner.invoke(main, command + ["--out", str(out)])
    doc = json.loads(out.read_text())
    edit(doc["certificate"])
    doc["digest"] = certdoc.compute_digest(certdoc.document_digestable(doc))
    out.write_text(json.dumps(doc))
    return out


_CERTIFY = ["certify", "--n", "1", "--r", "1", "--p", "3"]
_OLSHANSKII = ["olshanskii", "--n", "2", "--r", "2", "--p", "3", "--seed", "1"]


@pytest.mark.parametrize(
    "command, edit",
    [
        (_OLSHANSKII, lambda cert: cert.update(certified="false")),
        (_CERTIFY, lambda cert: cert.update(overall_pass="false")),
        (_CERTIFY, lambda cert: cert["checks"].update(rank_formula=1)),
        (["lambda-table", "--max-n", "2", "--max-r", "2"], lambda cert: cert["rows"][3].update(exponent_form_exact="no")),
        (["certify", "--n", "1", "--r", "2", "--p", "3"], lambda cert: cert["group"].update(abelian_bound_conditional=0)),
    ],
    ids=["certified", "overall_pass", "checks", "exponent_form_exact", "abelian_bound_conditional"],
)
def test_verify_accepts_only_json_booleans(runner, tmp_path, command, edit):
    # Each of these documents used to verify with exit 0: "false" and 0 were read by truth value.
    result = runner.invoke(main, ["verify", str(_redigested(runner, tmp_path, command, edit))])
    assert result.exit_code == 2, result.output
    assert "expected a boolean" in result.output


def _exact_bound_without_its_dimension(cert):
    del cert["bound"]["max_common_isotropic_dim"]
    cert["bound"]["exact_abelian_exponent"] = 2  # the true exponent is 4


@pytest.mark.parametrize(
    "command, edit, check",
    [
        (_OLSHANSKII, _exact_bound_without_its_dimension, "olshanskii:exact_abelian_bound"),
        (
            ["certify", "--n", "2", "--p", "7"],
            lambda cert: cert["atilde"].append(cert["atilde"][0]),
            "construction:payload",
        ),
    ],
    ids=["exact bound without its dimension", "repeated atilde entry"],
)
def test_verify_fails_a_claim_it_used_to_leave_unchecked(runner, tmp_path, command, edit, check):
    result = runner.invoke(main, ["verify", str(_redigested(runner, tmp_path, command, edit))])
    assert result.exit_code == 1, result.output
    assert [line.split()[1] for line in result.output.splitlines() if line.startswith("FAIL")] == [check]


def test_verify_of_checks_that_are_not_an_object_fails_in_a_fresh_process(runner, tmp_path):
    # A list of checks used to raise AttributeError out of the verifier: a traceback and exit 1.
    path = _redigested(runner, tmp_path, _CERTIFY, lambda cert: cert.update(checks=[True]))
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "pgroupcert.cli", "verify", str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr
    assert "FAIL construction:payload  (certificate.checks is [true], rebuilt {" in result.stdout


def _assert_one_line_usage_error(result, message):
    """Exit 2 with ``message`` ending the error line; the runner lets any exception propagate."""
    assert result.exit_code == 2, result.output
    assert result.output.splitlines()[-1].endswith(message), result.output


@pytest.mark.parametrize(
    "content, reason",
    [(b"\xff\xfe", "invalid start byte"), (b'{"kind": "\xe9"}', "invalid continuation byte")],
    ids=["bom", "latin-1"],
)
def test_verify_of_a_file_that_is_not_utf8_is_a_parse_error(runner, tmp_path, content, reason):
    # The file's bytes are decoded before parse_document sees them, so UnicodeDecodeError is the command's to map.
    path = tmp_path / "bytes.json"
    path.write_bytes(content)
    result = runner.invoke(main, ["verify", str(path)])
    _assert_one_line_usage_error(result, reason)
    assert f"cannot parse {path}: 'utf-8' codec can't decode" in result.output


@pytest.mark.parametrize("depth", [990, 2000, 100_000])
def test_verify_of_a_deeply_nested_file_is_a_parse_error(runner, tmp_path, depth):
    # json.loads raises RecursionError, not JSONDecodeError, past the interpreter's recursion limit.
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth + "\n")
    result = runner.invoke(main, ["verify", str(path)])
    _assert_one_line_usage_error(result, f"cannot parse {path}: nested too deeply to decode or encode")


@pytest.mark.parametrize(
    "command",
    [
        "certify --n 1 --p 3",
        "group --n 1 --p 3",
        "olshanskii --n 2 --r 2 --p 3 --seed 1",
        "lambda-table --max-n 2 --max-r 2",
        "lambda-table --max-n 2 --max-r 2 --format csv",
        "find-prime --n 2",
    ],
)
def test_an_out_path_that_cannot_be_written_is_a_usage_error(runner, tmp_path, command):
    # Each producer writes through _write_output, after its work is done.
    out = tmp_path / "missing" / "doc.json"
    result = runner.invoke(main, [*command.split(), "--out", str(out)])
    _assert_one_line_usage_error(result, f"cannot write {out}: [Errno 2] No such file or directory: '{out}'")
    assert not out.parent.exists()


@pytest.mark.parametrize("epsilon", ["1e999999", "1e-999999", "1E5"])
def test_lambda_table_refuses_an_exponent_in_epsilon(runner, tmp_path, epsilon):
    # Fraction() expands an exponent into a value of a million digits, which the
    # verifier's decoder refuses to read; the text is refused before it is parsed.
    out = tmp_path / "table.json"
    start = time.perf_counter()
    result = runner.invoke(main, ["lambda-table", "--max-n", "1", "--max-r", "1", "--epsilon", epsilon, "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    _assert_one_line_usage_error(result, f"--epsilon takes a fraction or a decimal without an exponent, got {epsilon!r}")
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["2/3", "0.5"])
def test_lambda_table_epsilon_without_an_exponent_verifies(runner, tmp_path, epsilon):
    out = tmp_path / "table.json"
    result = runner.invoke(main, ["lambda-table", "--max-n", "1", "--max-r", "1", "--epsilon", epsilon, "--out", str(out)])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["verify", str(out)])
    assert result.exit_code == 0, result.output


def _bare_integers_past_2_53(node):
    """The JSON integers in node whose absolute value exceeds 2^53."""
    if isinstance(node, bool):
        return []
    if isinstance(node, int):
        return [node] if abs(node) > 2**53 else []
    children = node.values() if isinstance(node, dict) else node if isinstance(node, list) else []
    return [value for child in children for value in _bare_integers_past_2_53(child)]


@pytest.mark.parametrize(
    "command",
    [
        "certify --n 1 --p 1152921504606847009",
        "group --n 1 --p 1152921504606847009",
        # p stays small under the raised budget: an exact search at p near 2^60 enumerates p + 1 lines.
        "olshanskii --n 2 --r 2 --p 3 --seed 1152921504606846976 --budget 100000000000000000000",
        "olshanskii --n 1 --r 2 --p 1152921504606847009 --seed 1152921504606846976",
    ],
)
def test_every_integer_past_2_53_is_written_as_a_string(runner, tmp_path, command):
    out = tmp_path / "doc.json"
    result = runner.invoke(main, [*command.split(), "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert _bare_integers_past_2_53(doc) == []
    words = command.split()
    large = {flag[2:]: value for flag, value in zip(words[1::2], words[2::2]) if int(value) > 2**53}
    assert {key: doc["command"]["params"][key] for key in large} == large
    result = runner.invoke(main, ["verify", str(out)])
    assert result.exit_code == 0, result.output
    assert "FAIL" not in result.output
