"""Command-line interface: schema, exit codes, formats, determinism."""

import csv
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from toepnull import __version__, count_table, toeplitz
from toepnull.counting import CountTable
from toepnull.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    main,
)

pytestmark = pytest.mark.usefixtures("clean_budget_env")


@pytest.fixture
def clean_budget_env(monkeypatch):
    monkeypatch.delenv("TOEPNULL_BUDGET", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# schema


def test_json_payload_shape(capsys):
    code, payload = run_json(capsys, "table", "--n", "2", "--q", "2")
    assert code == EXIT_OK
    assert sorted(payload) == ["checks", "command", "params", "results", "tool_version"]
    assert payload["tool_version"] == __version__
    assert payload["command"] == "table"
    rows = payload["results"]["rows"]
    assert rows[2]["counts"] == {"0": "16", "1": "12", "2": "3", "3": "1"}
    assert all(isinstance(v, str) for row in rows for v in row["counts"].values())


def test_huge_counts_survive_json(capsys):
    code, payload = run_json(capsys, "table", "--n", "40", "--q", "13")
    assert code == EXIT_OK
    reported = int(payload["results"]["rows"][40]["counts"]["0"])
    assert reported == count_table(40, 13).count(40, 0)
    assert reported > 2**63  # would overflow a fixed-width integer field


def test_csv_long_format(capsys):
    code, out, err = run(capsys, "table", "--n", "1", "--q", "2", "--format", "csv")
    assert code == EXIT_OK and err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["m", "nullity", "count"]
    assert rows[1:] == [["0", "0", "1"], ["0", "1", "1"],
                        ["1", "0", "4"], ["1", "1", "3"], ["1", "2", "1"]]


def test_text_is_default(capsys):
    code, out, err = run(capsys, "table", "--n", "1", "--q", "3")
    assert code == EXIT_OK
    assert "m=1: 18 8 1" in out


# ---------------------------------------------------------------------------
# subcommands


def test_table_single_nullity_column(capsys):
    code, payload = run_json(capsys, "table", "--n", "3", "--q", "2",
                             "--nullity", "3")
    assert code == EXIT_OK
    assert payload["results"]["rows"] == [
        {"m": 0, "count": "0"}, {"m": 1, "count": "0"},
        {"m": 2, "count": "1"}, {"m": 3, "count": "3"}]


def test_table_brute_force_check(capsys):
    code, payload = run_json(capsys, "table", "--n", "4", "--q", "2",
                             "--check-brute-force")
    assert code == EXIT_OK
    assert payload["checks"] == [
        {"name": "model_vs_enumeration", "passed": True}]


def test_spectrum_includes_closed_form_check_at_two(capsys):
    code, payload = run_json(capsys, "spectrum", "--n", "6", "--q", "2")
    assert code == EXIT_OK
    names = [c["name"] for c in payload["checks"]]
    assert names == ["closed_form_cross_check"]
    assert payload["results"]["spectrum"][0] == {"rank": 7, "count": "4096"}


def test_spectrum_brute_force_check(capsys):
    code, payload = run_json(capsys, "spectrum", "--n", "3", "--q", "3",
                             "--check-brute-force")
    assert code == EXIT_OK
    assert [c["name"] for c in payload["checks"]] == ["model_vs_enumeration"]
    assert all(c["passed"] for c in payload["checks"])


def test_verify_exhaustive(capsys):
    code, payload = run_json(capsys, "verify", "--n", "3", "--q", "2")
    assert code == EXIT_OK
    assert payload["results"]["passed"] is True
    assert payload["results"]["mode"] == "exhaustive"
    names = {c["name"] for c in payload["checks"]}
    assert "rule:plateau" in names and "structure:ascent_span" in names
    assert payload["results"]["counterexample"] is None


def test_verify_sampled_is_deterministic(capsys):
    args = ("verify", "--n", "10", "--q", "7", "--seed", "11", "--trials", "8")
    first = run_json(capsys, *args)
    second = run_json(capsys, *args)
    assert first == second
    assert first[0] == EXIT_OK
    assert first[1]["results"]["mode"] == "sampled"


def test_count_string_flags(capsys):
    code, out, err = run(capsys, "count-string", "--q", "2",
                         "--start", "0,1", "--string", "1,2,1,0")
    assert (code, out, err) == (EXIT_OK, "4\n", "")
    code, payload = run_json(capsys, "count-string", "--q", "3",
                             "--start", "0,1", "--string", "1,0")
    assert code == EXIT_OK
    assert payload["results"]["count"] == "4"
    assert payload["params"] == {"q": 3, "start": [0, 1], "string": [1, 0]}


def test_closed_forms_battery(capsys):
    code, payload = run_json(capsys, "closed-forms", "--n", "6")
    assert code == EXIT_OK
    assert all(c["passed"] for c in payload["checks"])
    assert {c["name"] for c in payload["checks"]} == {
        "closed:theta", "closed:eta", "closed:invertible",
        "closed:nullity_counts", "closed:nullity1_structured",
        "closed:positive_excursions"}
    row = payload["results"]["rows"][1]
    assert row == {"n": 2, "theta": "11", "eta": "5", "invertible": "16",
                   "nullity1_structured": "5", "positive_excursions": "4"}


# ---------------------------------------------------------------------------
# exit codes


def test_missing_required_flag_is_invalid(capsys):
    assert run(capsys, "table", "--q", "2")[0] == EXIT_INVALID
    assert run(capsys, "count-string", "--q", "2", "--string", "1")[0] == EXIT_INVALID
    assert run(capsys, "nonsense")[0] == EXIT_INVALID


def test_bad_values_are_invalid(capsys):
    assert run(capsys, "table", "--n", "3", "--q", "9")[0] == EXIT_INVALID
    assert run(capsys, "table", "--n", "-1", "--q", "2")[0] == EXIT_INVALID
    assert run(capsys, "table", "--n", "2", "--q", "2", "--nullity", "-2")[0] \
        == EXIT_INVALID
    assert run(capsys, "count-string", "--q", "2", "--start", "0,1,2",
               "--string", "1")[0] == EXIT_INVALID
    assert run(capsys, "count-string", "--q", "2", "--start", "zero,1",
               "--string", "1")[0] == EXIT_INVALID
    assert run(capsys, "closed-forms", "--n", "0")[0] == EXIT_INVALID


def test_nullity_is_checked_before_any_scan(capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("no enumeration may start")

    monkeypatch.setattr("toepnull.cli.brute_force_table", no_scan)
    code, out, err = run(capsys, "table", "--n", "9", "--q", "2", "--check-brute-force",
                         "--nullity", "-1")
    assert (code, out) == (EXIT_INVALID, "")
    assert "--nullity" in err


def test_large_moduli_are_decided_quickly(capsys):
    q = 2 ** 61 - 1
    start = time.perf_counter()
    code, payload = run_json(capsys, "table", "--n", "2", "--q", str(q))
    assert code == EXIT_OK
    assert sum(int(c) for c in payload["results"]["rows"][2]["counts"].values()) == q ** 5
    code, out, err = run(capsys, "count-string", "--q", str(q), "--start", "0,1",
                         "--string", "1,0")
    assert (code, err) == (EXIT_OK, "")
    assert int(out) == (q - 1) ** 2  # the ascending census weight of a fall
    assert time.perf_counter() - start < 1
    code, out, err = run(capsys, "table", "--n", "2", "--q", "3317044064679887385961981")
    assert (code, out) == (EXIT_INVALID, "")
    assert "modulus too large" in err


def test_bad_budget_env_is_invalid(capsys, monkeypatch):
    monkeypatch.setenv("TOEPNULL_BUDGET", "plenty")
    code, out, err = run(capsys, "table", "--n", "2", "--q", "2",
                         "--check-brute-force")
    assert code == EXIT_INVALID and "TOEPNULL_BUDGET" in err


def test_budget_exit(capsys):
    code, out, err = run(capsys, "table", "--n", "15", "--q", "2",
                         "--check-brute-force")
    assert code == EXIT_BUDGET
    assert "budget" in err
    # without the enumeration pass the same table is pure recurrence work
    assert run(capsys, "table", "--n", "15", "--q", "2")[0] == EXIT_OK


def test_unsupported_combinations(capsys):
    code, out, err = run(capsys, "closed-forms", "--n", "3", "--q", "3")
    assert code == EXIT_UNSUPPORTED and "GF(2)" in err
    code, out, err = run(capsys, "verify", "--n", "2", "--q", "2",
                         "--format", "csv")
    assert code == EXIT_UNSUPPORTED


def test_mismatch_exit_when_enumeration_disagrees(capsys, monkeypatch):
    # force the enumeration result to differ: the comparison must notice
    doctored = CountTable(q=2, counts=((1, 1), (4, 3, 1), (16, 11, 4, 1)))
    monkeypatch.setattr("toepnull.cli.brute_force_table",
                        lambda n, q, budget=None, jobs=1: doctored)
    code, payload = run_json(capsys, "table", "--n", "2", "--q", "2",
                             "--check-brute-force")
    assert code == EXIT_MISMATCH
    assert payload["checks"][0]["passed"] is False
    assert "order 2" in payload["checks"][0]["detail"]
    code, payload = run_json(capsys, "spectrum", "--n", "2", "--q", "2",
                             "--check-brute-force")
    assert code == EXIT_MISMATCH


# ---------------------------------------------------------------------------
# output plumbing


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "spectrum", "--n", "2", "--q", "5",
                         "--format", "json", "--out", str(target))
    assert (code, out, err) == (EXIT_OK, "", "")
    payload = json.loads(target.read_text())
    assert payload["results"]["spectrum"][-1] == {"rank": 0, "count": "1"}


def test_out_into_missing_directory_is_invalid(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "table", "--n", "2", "--q", "2", "--out", str(target))
    assert (code, out) == (EXIT_INVALID, "")
    assert err.startswith("toepnull: error: cannot write")
    assert not target.exists()


def test_jobs_above_the_cap_are_invalid(capsys, monkeypatch):
    def no_pool(size):
        raise AssertionError("no worker pool may start")

    monkeypatch.setattr("toepnull.enumeration.Pool", no_pool)
    for argv in (["table", "--check-brute-force"], ["verify"]):
        code, out, err = run(capsys, *argv, "--n", "3", "--q", "2", "--jobs", "100000")
        assert (code, out) == (EXIT_INVALID, "")
        assert "jobs" in err


@pytest.mark.parametrize("argv", [
    ["table", "--n", "2", "--q", "2"],
    ["spectrum", "--n", "2", "--q", "2"],
    ["verify", "--seed", "1", "--trials", "2", "--n", "2", "--q", "2"],
])
def test_jobs_and_budget_are_checked_without_a_scan(capsys, argv):
    for flags in (["--jobs", "100000"], ["--jobs", "-5"], ["--jobs", "0"], ["--budget", "0"]):
        code, out, err = run(capsys, *argv, *flags)
        assert (code, out) == (EXIT_INVALID, "")
        assert flags[0] in err
    assert run(capsys, *argv, "--jobs", "64", "--budget", "1")[0] == EXIT_OK


def misreport_child_of_zero_spec(monkeypatch):
    """Make the shared elimination of both engines report a wrong nullity
    for the first child of every all-zero spec (lex index 0)."""
    for cls in (toeplitz._PackedGF2, toeplitz._DenseGFq):
        def children(self, rows, real=cls.children):
            kids, nus = real(self, rows)
            if self.rank(rows) == 0:
                nus[0] += 1
            return kids, nus
        monkeypatch.setattr(cls, "children", children)


def cross_check_outcomes(capsys, jobs):
    return [run(capsys, *argv, "--n", "3", "--q", q, "--jobs", str(jobs), "--format", "json")
            for argv in (["table", "--check-brute-force"], ["verify"]) for q in ("2", "3")]


def test_rank_cross_check_failure_exits_2(capsys, monkeypatch):
    misreport_child_of_zero_spec(monkeypatch)
    for code, out, err in cross_check_outcomes(capsys, 1):
        assert (code, out) == (EXIT_MISMATCH, "")
        assert err.startswith("toepnull: cross-check: rank cross-check failed: child "
                              "(a_new, b_new) = (0, 0) of the order-0 spec at index 0")
        assert "Traceback" not in err


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the injected fault")
def test_rank_cross_check_failure_is_independent_of_jobs(capsys, monkeypatch):
    misreport_child_of_zero_spec(monkeypatch)
    assert cross_check_outcomes(capsys, 2) == cross_check_outcomes(capsys, 1)


def test_python_dash_m_runs_the_cli(capsys):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = ["table", "--n", "2", "--q", "3", "--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "toepnull", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)
    proc = subprocess.run([sys.executable, "-m", "toepnull", "table", "--n", "2"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_INVALID and proc.stdout == ""


def test_python_dash_m_cli_module_matches_the_package():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for argv in (["closed-forms", "--n", "3", "--format", "csv"], ["table", "--n", "2"],
                 ["closed-forms", "--n", "3", "--q", "3"]):
        package, module = [
            subprocess.run([sys.executable, "-m", name, *argv], env=env,
                           capture_output=True, text=True, timeout=60)
            for name in ("toepnull", "toepnull.cli")]
        assert package.stdout or package.stderr
        assert (module.returncode, module.stdout, module.stderr) == \
            (package.returncode, package.stdout, package.stderr)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
