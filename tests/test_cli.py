"""Command-line interface: schema, exit codes, formats, determinism."""

import csv
import inspect
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import typing
from pathlib import Path

import pytest

from toepnull import (__version__, cli, count_table, counting, enumeration,
                      kernel_structure, toeplitz)
from toepnull.counting import CountTable, PairState, RuleClass, count_string
from toepnull.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    main,
)

from census_faults import skew_census
from lane_faults import fault_lane


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


PINNED = [
    (["table", "--n", "3", "--q", "2"],
     "counts by nullity over GF(2), orders 0..3\n"
     "m=0: 1 1\nm=1: 4 3 1\nm=2: 16 12 3 1\nm=3: 64 48 12 3 1\n"),
    (["table", "--n", "3", "--q", "2", "--format", "csv"],
     "m,nullity,count\n0,0,1\n0,1,1\n1,0,4\n1,1,3\n1,2,1\n2,0,16\n2,1,12\n"
     "2,2,3\n2,3,1\n3,0,64\n3,1,48\n3,2,12\n3,3,3\n3,4,1\n"),
    (["table", "--n", "4", "--q", "3", "--nullity", "2"],
     "counts at nullity 2 over GF(3)\nm=0: 0\nm=1: 1\nm=2: 8\nm=3: 72\nm=4: 648\n"),
    (["table", "--n", "4", "--q", "3", "--nullity", "2", "--format", "csv"],
     "m,nullity,count\n0,2,0\n1,2,1\n2,2,8\n3,2,72\n4,2,648\n"),
    (["spectrum", "--n", "4", "--q", "2"],
     "order-4 counts by rank over GF(2)\nrank 5: 256\nrank 4: 192\nrank 3: 48\n"
     "rank 2: 12\nrank 1: 3\nrank 0: 1\n[  ok] closed_form_cross_check checked=6\n"),
    (["spectrum", "--n", "4", "--q", "2", "--format", "csv"],
     "rank,count\n5,256\n4,192\n3,48\n2,12\n1,3\n0,1\n"),
    (["spectrum", "--n", "3", "--q", "3", "--check-brute-force"],
     "order-3 counts by rank over GF(3)\nrank 4: 1458\nrank 3: 648\nrank 2: 72\n"
     "rank 1: 8\nrank 0: 1\n[  ok] closed_form_cross_check checked=5\n"
     "[  ok] model_vs_enumeration\n"),
    (["verify", "--n", "2", "--q", "2"],
     "exhaustive verification: n=2 q=2\n"
     "[  ok] rule:ascending checked=3\n[  ok] rule:descending checked=0\n"
     "[  ok] rule:one_zero checked=1\n[  ok] rule:plateau checked=2\n"
     "[  ok] rule:start checked=1\n[  ok] rule:zero_zero checked=4\n"
     "[  ok] structure:ascent_span checked=3\n"
     "[  ok] structure:descent_interior_zeros checked=1\n"
     "[  ok] structure:plateau_shift checked=10\n"
     "[  ok] structure:single_generator_ends checked=6\nresult: PASS\n"),
    (["verify", "--n", "6", "--q", "3", "--seed", "5", "--trials", "16"],
     "sampled census check: n=6 q=3 trials=16 seed=5\n"
     "[  ok] rule:ascending checked=4\n[  ok] rule:descending checked=0\n"
     "[  ok] rule:one_zero checked=4\n[  ok] rule:plateau checked=1\n"
     "[  ok] rule:zero_zero checked=7\nresult: PASS\n"),
    (["closed-forms", "--n", "3"],
     "closed-form battery through order 3 over GF(2)\n"
     "n=1: theta=3 eta=1 invertible=4 nullity1=2 excursions=1\n"
     "n=2: theta=11 eta=5 invertible=16 nullity1=5 excursions=4\n"
     "n=3: theta=43 eta=21 invertible=64 nullity1=12 excursions=12\n"
     "[  ok] closed:theta checked=3\n[  ok] closed:eta checked=3\n"
     "[  ok] closed:invertible checked=2\n[  ok] closed:nullity_counts checked=12\n"
     "[  ok] closed:nullity1_structured checked=3\n"
     "[  ok] closed:positive_excursions checked=3\n"),
    (["closed-forms", "--n", "3", "--format", "csv"],
     "n,theta,eta,invertible,nullity1_structured,positive_excursions\n"
     "1,3,1,4,2,1\n2,11,5,16,5,4\n3,43,21,64,12,12\n"),
    (["count-string", "--q", "13", "--start", "0,1", "--string", "1,2,1,0"], "24336\n"),
]


@pytest.mark.parametrize("argv, expected", PINNED)
def test_full_text_and_csv_output(capsys, argv, expected):
    assert run(capsys, *argv) == (EXIT_OK, expected, "")


def test_json_builds_neither_csv_nor_text(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("a renderer of an unprinted format ran")

    for name, (handler, csv_records, _) in cli._COMMANDS.items():
        monkeypatch.setitem(cli._COMMANDS, name, (handler, csv_records and never, never))
    for argv, _ in PINNED:
        code, payload = run_json(capsys, *argv)
        assert code == EXIT_OK and payload["command"] == argv[0]


# ---------------------------------------------------------------------------
# counts past CPython's 4300-digit limit on str(int)


def exact_int(digits):
    """int(digits) at any length, in chunks each under the digit limit."""
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def test_counts_of_any_size_are_printed(capsys):
    q = 2 ** 61 - 1
    top = (q - 1) * q ** 240  # invertible specs of order 120: 4,426 digits
    limit = digit_limit()
    argv = ["table", "--n", "120", "--q", str(q)]
    code, payload = run_json(capsys, *argv)
    assert code == EXIT_OK and exact_int(payload["results"]["rows"][120]["counts"]["0"]) == top
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert (code, err) == (EXIT_OK, "")
    assert exact_int(out.splitlines()[-122].split(",")[2]) == top
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert exact_int(out.splitlines()[-1].split()[1]) == top
    assert digit_limit() == limit

    string = ",".join(["1"] + ["2"] * 10000 + ["1", "0"])
    expected = count_string(PairState(0, 1), [int(v) for v in string.split(",")], 13)
    argv = ["count-string", "--q", "13", "--start", "0,1", "--string", string]
    code, payload = run_json(capsys, *argv)
    assert code == EXIT_OK and exact_int(payload["results"]["count"]) == expected
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "") and exact_int(out.strip()) == expected
    assert digit_limit() == limit


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this CPython has no digit limit")
def test_digit_limit_still_guards_input_and_is_restored(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "count-string", "--q", "2", "--start", "0,1",
                         "--string", "1," + "7" * 5000)
    assert (code, out) == (EXIT_INVALID, "")
    assert "comma-separated integers" in err
    assert time.perf_counter() - start < 1
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(5000)
        for fmt in ("json", "csv", "text"):
            assert run(capsys, "table", "--n", "3", "--q", "5", "--format", fmt)[0] == EXIT_OK
            assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(old)


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


def test_spectrum_names_the_ranks_off_the_closed_forms(capsys, monkeypatch):
    real = cli.nullity_count_closed
    monkeypatch.setattr(cli, "nullity_count_closed", lambda n, k, q: real(n, k, q) + (k == 1))
    code, payload = run_json(capsys, "spectrum", "--n", "3", "--q", "2")
    assert code == EXIT_MISMATCH
    assert payload["checks"] == [{
        "name": "closed_form_cross_check", "passed": False, "checked": 5,
        "detail": "ranks disagreeing with the closed forms: [3]"}]


def test_spectrum_brute_force_check(capsys):
    code, payload = run_json(capsys, "spectrum", "--n", "3", "--q", "3",
                             "--check-brute-force")
    assert code == EXIT_OK
    assert [c["name"] for c in payload["checks"]] == [
        "closed_form_cross_check", "model_vs_enumeration"]
    assert all(c["passed"] for c in payload["checks"])


def test_verify_exhaustive(capsys):
    code, payload = run_json(capsys, "verify", "--n", "3", "--q", "2")
    assert code == EXIT_OK
    assert payload["results"]["passed"] is True
    assert payload["results"]["mode"] == "exhaustive"
    names = {c["name"] for c in payload["checks"]}
    assert "rule:plateau" in names and "structure:ascent_span" in names
    assert payload["results"]["counterexample"] is None


# (name, checked, expected_offsets or cross_checked, passed) of every check
VERIFY_CHECKS = {
    ("3", "3"): [
        ("rule:ascending", 51, {"-1": 4, "0": 4, "1": 1}, True),
        ("rule:descending", 4, {"-1": 9}, True),
        ("rule:one_zero", 44, {"0": 6, "1": 3}, True),
        ("rule:plateau", 36, {"-1": 6, "0": 3}, True),
        ("rule:start", 1, {"0": 2, "1": 1}, True),
        ("rule:zero_zero", 138, {"0": 7, "1": 2}, True),
        ("structure:ascent_span", 51, 3, True),
        ("structure:descent_interior_zeros", 48, 1, True),
        ("structure:plateau_shift", 312, 4, True),
        ("structure:single_generator_ends", 408, 4, True),
    ],
    ("5", "2"): [
        ("rule:ascending", 151, {"-1": 1, "0": 2, "1": 1}, True),
        ("rule:descending", 34, {"-1": 4}, True),
        ("rule:one_zero", 112, {"0": 2, "1": 2}, True),
        ("rule:plateau", 156, {"-1": 2, "0": 2}, True),
        ("rule:start", 1, {"0": 1, "1": 1}, True),
        ("rule:zero_zero", 229, {"0": 3, "1": 1}, True),
        ("structure:ascent_span", 151, 6, True),
        ("structure:descent_interior_zeros", 146, 2, True),
        ("structure:plateau_shift", 614, 12, True),
        ("structure:single_generator_ends", 453, 4, True),
    ],
}


@pytest.mark.parametrize("n, q", VERIFY_CHECKS)
def test_verify_output_is_pinned_and_independent_of_jobs(capsys, n, q):
    argv = ("verify", "--n", n, "--q", q)
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["checked"], c.get("expected_offsets", c.get("cross_checked")),
             c["passed"]) for c in checks] == VERIFY_CHECKS[n, q]
    text = run(capsys, *argv)
    assert text[0] == EXIT_OK and text[1].endswith("result: PASS\n")
    for jobs in ("1", "2", "3"):
        # the JSON echoes --jobs in its params and is otherwise the same bytes
        assert run(capsys, *argv, "--jobs", jobs, "--format", "json") == (
            EXIT_OK, out.replace('"jobs": 1,', f'"jobs": {jobs},'), "")
        assert run(capsys, *argv, "--jobs", jobs) == text


def test_verify_sampled_is_deterministic(capsys):
    args = ("verify", "--n", "10", "--q", "7", "--seed", "11", "--trials", "8")
    first = run_json(capsys, *args)
    second = run_json(capsys, *args)
    assert first == second
    assert first[0] == EXIT_OK
    assert first[1]["results"]["mode"] == "sampled"


# ---------------------------------------------------------------------------
# failing verify runs: the whole report is pinned


def inject_verify_faults(monkeypatch, *, rules):
    """Make the public plateau predicate disagree with the scan on runs of
    more than three orders, replayed at every fifth spec; with ``rules``,
    also expect one child too many at the top offset of an ascending
    census."""
    if rules:
        skew_census(monkeypatch, RuleClass.ASCENDING, 1)
    monkeypatch.setattr(kernel_structure, "check_plateau_shift", lambda run: len(run) > 3)
    monkeypatch.setattr(enumeration, "PREDICATE_CHECK_STRIDE", 5)


ASCENDING_DETAIL = "census {0: 4, 1: 4, 2: 1} != expected {0: 4, 1: 4, 2: 2}"
ASCENDING_CEX = {"order": 0, "a": [0], "b": [], "index": 0, "detail": ASCENDING_DETAIL}
PLATEAU_CEX = {"order": 2, "a": [0, 0, 0], "b": [1, 1], "index": 10,
               "detail": "plateau_shift: predicate (False) disagrees with scan (True)"}


def check_payload(name, passed, checked, extra, cex):
    key = "expected_offsets" if name.startswith("rule:") else "cross_checked"
    return {"name": name, "passed": passed, "checked": checked, key: extra,
            "counterexample": cex}


def failing_verify_checks(rules):
    """(name, passed, checked, expected_offsets or cross_checked,
    counterexample) of every check of the faulty q=3 n=3 scan."""
    top = 2 if rules else 1
    return [check_payload(*row) for row in [
        ("rule:ascending", not rules, 51, {"-1": 4, "0": 4, "1": top},
         ASCENDING_CEX if rules else None),
        ("rule:descending", True, 4, {"-1": 9}, None),
        ("rule:one_zero", True, 44, {"0": 6, "1": 3}, None),
        ("rule:plateau", True, 36, {"-1": 6, "0": 3}, None),
        ("rule:start", True, 1, {"0": 2, "1": 1}, None),
        ("rule:zero_zero", True, 138, {"0": 7, "1": 2}, None),
        ("structure:ascent_span", True, 51, 10, None),
        ("structure:descent_interior_zeros", True, 48, 8, None),
        ("structure:plateau_shift", False, 312, 66, PLATEAU_CEX),
        ("structure:single_generator_ends", True, 408, 79, None),
    ]]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the injected faults")
@pytest.mark.parametrize("rules", (True, False))
def test_failing_verify_output_is_pinned_at_any_jobs(capsys, monkeypatch, rules):
    inject_verify_faults(monkeypatch, rules=rules)
    argv = ("verify", "--n", "3", "--q", "3")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (EXIT_MISMATCH, "")
    cex = ASCENDING_CEX if rules else PLATEAU_CEX
    assert json.loads(out) == {
        "tool_version": __version__, "command": "verify",
        "params": {"n": 3, "q": 3, "jobs": 1, "budget": None, "seed": None, "trials": None},
        "results": {"mode": "exhaustive", "q": 3, "n": 3, "rules_passed": not rules,
                    "structure_passed": False, "passed": False, "counterexample": cex},
        "checks": failing_verify_checks(rules),
    }
    # failures are not printed; the report carries them
    failures = {name: c.failures for rep in cli.verify_exhaustive(3, 3)
                for name, c in rep.checks.items() if c.failures}
    assert failures == ({"ascending": 51, "plateau_shift": 60} if rules
                        else {"plateau_shift": 60})
    lines = [f"[{'ok' if c['passed'] else 'FAIL':>4}] {c['name']} checked={c['checked']}"
             for c in failing_verify_checks(rules)]
    text = "\n".join(["exhaustive verification: n=3 q=3", *lines,
                      f"counterexample: order={cex['order']} index={cex['index']} "
                      f"a={cex['a']} b={cex['b']}: {cex['detail']}", "result: FAIL\n"])
    assert run(capsys, *argv) == (EXIT_MISMATCH, text, "")
    assert run(capsys, *argv, "--jobs", "2", "--format", "json") == (
        EXIT_MISMATCH, out.replace('"jobs": 1,', '"jobs": 2,'), "")
    assert run(capsys, *argv, "--jobs", "2") == (EXIT_MISMATCH, text, "")


def test_failing_sampled_verify_output_is_pinned(capsys, monkeypatch):
    inject_verify_faults(monkeypatch, rules=True)
    argv = ("verify", "--n", "6", "--q", "3", "--seed", "4", "--trials", "40")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (EXIT_MISMATCH, "")
    cex = {"order": 6, "a": [0, 0, 0, 1, 1, 2, 1], "b": [2, 1, 1, 0, 0, 1],
           "index": 127876, "detail": ASCENDING_DETAIL}
    assert json.loads(out) == {
        "tool_version": __version__, "command": "verify",
        "params": {"n": 6, "q": 3, "jobs": 1, "budget": None, "seed": 4, "trials": 40},
        "results": {"mode": "sampled", "q": 3, "n": 6, "trials": 40, "seed": 4,
                    "passed": False, "counterexample": cex},
        "checks": [check_payload(*row) for row in [
            ("rule:ascending", False, 7, {"-1": 4, "0": 4, "1": 2}, cex),
            ("rule:descending", True, 0, {"-1": 9}, None),
            ("rule:one_zero", True, 4, {"0": 6, "1": 3}, None),
            ("rule:plateau", True, 2, {"-1": 6, "0": 3}, None),
            ("rule:zero_zero", True, 27, {"0": 7, "1": 2}, None),
        ]],
    }
    report = cli.sample_census(6, 3, 40, 4)
    assert {name: c.failures for name, c in report.checks.items()} == {
        "ascending": 7, "descending": 0, "one_zero": 0, "plateau": 0, "zero_zero": 0}
    assert run(capsys, *argv) == (EXIT_MISMATCH, "\n".join([
        "sampled census check: n=6 q=3 trials=40 seed=4",
        "[FAIL] rule:ascending checked=7",
        "[  ok] rule:descending checked=0",
        "[  ok] rule:one_zero checked=4",
        "[  ok] rule:plateau checked=2",
        "[  ok] rule:zero_zero checked=27",
        "counterexample: order=6 index=127876 a=[0, 0, 0, 1, 1, 2, 1] "
        "b=[2, 1, 1, 0, 0, 1]: " + ASCENDING_DETAIL,
        "result: FAIL\n"]), "")


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


def test_budget_env_var_is_ignored(capsys, monkeypatch):
    # --budget is the one way to set the cap; the old variable changes nothing
    argv = ("table", "--n", "2", "--q", "2", "--check-brute-force")
    plain = run(capsys, *argv)
    assert plain[0] == EXIT_OK
    for value in ("plenty", "1"):
        monkeypatch.setenv("TOEPNULL_BUDGET", value)
        assert run(capsys, *argv) == plain


def test_budget_exit(capsys):
    code, out, err = run(capsys, "table", "--n", "15", "--q", "2",
                         "--check-brute-force")
    assert code == EXIT_BUDGET
    assert "budget" in err
    # without the enumeration pass the same table is pure recurrence work
    assert run(capsys, "table", "--n", "15", "--q", "2")[0] == EXIT_OK


def test_huge_orders_exit_on_the_budget_at_once(capsys, monkeypatch):
    # str(int) refuses q^(2n+1) past 4300 digits; the message must not need it
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--n", "8000", "--q", "2")
    assert (code, out) == (EXIT_BUDGET, "")
    assert err == ("toepnull: budget: scan needs a budget of at least 2^16001 matrices "
                   "at its deepest level, cap is 268435456; raise the cap explicitly "
                   "to proceed\n")
    assert enumeration.BudgetExceededError(2 ** 16001, 1).required == 2 ** 16001

    def no_model(*args, **kwargs):
        raise AssertionError("the weight DP may not run before the budget check")

    monkeypatch.setattr(cli, "count_table", no_model)
    monkeypatch.setattr(cli, "rank_spectrum", no_model)
    for command in ("table", "spectrum"):
        code, out, err = run(capsys, command, "--n", "8000", "--q", "2",
                             "--check-brute-force")
        assert (code, out) == (EXIT_BUDGET, "")
        assert "at least 2^16001" in err
    # at q >= 3 the power itself takes seconds to compute; 2^k is a true
    # lower bound on it, a fraction of a percent short in the exponent
    for argv, q, n in ((["verify"], 3, 20_000_000),
                       (["table", "--check-brute-force"], 13, 5_000_000)):
        code, out, err = run(capsys, *argv, "--n", str(n), "--q", str(q))
        assert (code, out) == (EXIT_BUDGET, "")
        k = int(err.split("at least 2^")[1].split()[0])
        assert 0.999 * (2 * n + 1) * math.log2(q) < k <= (2 * n + 1) * math.log2(q)
        assert err == (f"toepnull: budget: scan needs a budget of at least 2^{k} matrices "
                       "at its deepest level, cap is 268435456; raise the cap explicitly "
                       "to proceed\n")
    assert time.perf_counter() - start < 20


def test_modulus_cap_is_named_in_the_error(capsys):
    for argv in (["table", "--n", "2", "--q", "17", "--check-brute-force"],
                 ["verify", "--n", "2", "--q", "17"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INVALID, "")
        assert err == "toepnull: error: modulus 17 exceeds the exhaustive-verification cap 13\n"
        assert "max_q" not in err


def test_unsupported_combinations(capsys):
    code, out, err = run(capsys, "closed-forms", "--n", "3", "--q", "3")
    assert code == EXIT_UNSUPPORTED and "GF(2)" in err
    code, out, err = run(capsys, "verify", "--n", "2", "--q", "2",
                         "--format", "csv")
    assert code == EXIT_UNSUPPORTED


def test_unsupported_format_is_refused_before_any_work(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("no scan or count may start")

    for name in ("verify_exhaustive", "sample_census", "count_string"):
        monkeypatch.setattr(cli, name, no_work)
    for argv in (["verify", "--n", "6", "--q", "3"],
                 ["verify", "--n", "20", "--q", "2"],  # over the budget too
                 ["verify", "--seed", "1", "--n", "4", "--q", "5"],
                 ["count-string", "--q", "2", "--start", "0,1", "--string", "1,0"],
                 ["count-string", "--q", "4", "--start", "0,1", "--string", "1,0"]):
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert (code, out) == (EXIT_UNSUPPORTED, "")
        assert "--format csv is not available" in err
    # parse errors and --jobs/--budget ranges are still checked first
    for flags in (["--jobs", "0"], ["--budget", "0"], ["--n", "x"]):
        code, out, err = run(capsys, "verify", "--n", "3", "--q", "2", *flags,
                             "--format", "csv")
        assert (code, out) == (EXIT_INVALID, "")


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
    assert run(capsys, "table", "--n", "2", "--q", "2", "--check-brute-force") == (
        EXIT_MISMATCH, "counts by nullity over GF(2), orders 0..2\n"
        "m=0: 1 1\nm=1: 4 3 1\nm=2: 16 12 3 1\nenumeration check: MISMATCH\n", "")


def test_a_moved_plateau_weight_reaches_the_model(capsys, monkeypatch):
    # the census is written once, in counting's table: move one unit of the
    # plateau's weight from d - 1 to d and the DP, count_string and the
    # exhaustive rule checks must all follow it
    before = count_table(4, 3)
    skew_census(monkeypatch, RuleClass.PLATEAU, 1, -1)
    assert count_table(4, 3) != before
    code, out, err = run(capsys, "table", "--n", "4", "--q", "3", "--check-brute-force")
    assert (code, err) == (EXIT_MISMATCH, "")
    assert out.endswith("enumeration check: MISMATCH\n")
    assert run(capsys, "count-string", "--q", "3", "--start", "1,1", "--string", "1,1") == (
        EXIT_OK, "4\n", "")
    assert run(capsys, "verify", "--n", "3", "--q", "3")[0] == EXIT_MISMATCH


def test_a_moved_start_reaches_the_dp_and_the_start_check(capsys, monkeypatch):
    # the order-0 start census is written once too: one zero matrix more
    # moves the DP's first row and fails the exhaustive start check
    monkeypatch.setattr(counting, "_start", lambda q: {0: q - 2, 1: 2})
    assert count_table(0, 3).counts == ((1, 2),)
    code, report = run_json(capsys, "verify", "--n", "1", "--q", "3")
    assert code == EXIT_MISMATCH
    start = next(c for c in report["checks"] if c["name"] == "rule:start")
    assert (start["passed"], start["expected_offsets"]) == (False, {"0": 1, "1": 2})
    assert start["counterexample"]["a"] == [1]  # the first root at the over-counted nullity 0


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
    # table and spectrum scan nothing here; sampled verify caps the 3^2 = 9
    # entries of each order-2 matrix, so a budget of 1 refuses it
    capped = EXIT_BUDGET if "--seed" in argv else EXIT_OK
    assert run(capsys, *argv, "--jobs", "64", "--budget", "1")[0] == capped
    assert run(capsys, *argv, "--jobs", "64", "--budget", "9")[0] == EXIT_OK


def test_sampled_orders_are_capped_before_any_row_is_built(capsys, monkeypatch):
    # order 60000 needs 60001^2 entries per matrix, past the default 2^28:
    # refused with exit 3, where it used to die in MemoryError building rows
    def no_rows(*args):
        raise AssertionError("no row may be built before the budget check")

    monkeypatch.setattr(type(toeplitz.engine(3)), "rows", no_rows)
    assert run(capsys, "verify", "--seed", "1", "--n", "60000", "--q", "3",
               "--trials", "1") == (
        EXIT_BUDGET, "", "toepnull: budget: scan needs a budget of 3600120001 entries in "
        "each sampled matrix, cap is 268435456; raise the cap explicitly to proceed\n")
    with pytest.raises(enumeration.BudgetExceededError) as exc:
        enumeration.sample_census(16384, 3, 1, 1)  # 16385^2 entries; 16384^2 is the cap
    assert (exc.value.required, exc.value.budget) == (16385 ** 2, 2 ** 28)
    with pytest.raises(enumeration.BudgetExceededError):
        enumeration.sample_census(2, 3, 1, 1, budget=8)
    with pytest.raises(ValueError, match="budget must be positive"):
        enumeration.sample_census(2, 3, 1, 1, budget=0)


def misreport_child_of_zero_spec(monkeypatch):
    """Make the shared elimination of both engines report a wrong nullity
    for the first child of every all-zero spec (lex index 0)."""
    for cls in (toeplitz._PackedGF2, toeplitz._LaneGFq):
        def children(self, rows, real=cls.children):
            kids, nus = real(self, rows)
            if self.rank(rows) == 0:
                nus[0] += 1
            return kids, nus
        monkeypatch.setattr(cls, "children", children)


def cross_check_outcomes(capsys, jobs):
    # the walk's children reach table --check-brute-force at q >= 5 only;
    # at q in {2, 3} it counts on lanes (see the lane fault tests below)
    return [run(capsys, *argv, "--n", "3", "--q", q, "--jobs", str(jobs), "--format", "json")
            for argv, q in ((["table", "--check-brute-force"], "5"), (["verify"], "2"),
                            (["verify"], "3"))]


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


@pytest.mark.parametrize("jobs", ["1", pytest.param("2", marks=pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers must inherit the injected fault"))])
@pytest.mark.parametrize("q", ["2", "3"])
def test_a_faulty_lane_exits_2_on_and_off_the_stride(capsys, monkeypatch, q, jobs):
    # lane 0 (the zero matrix) is re-ranked from scratch and raises; lane 1
    # is not, and the order-4 row of the table disagrees with the model
    fault_lane(monkeypatch, 0)
    for argv in (["table", "--n", "4"], ["spectrum", "--n", "4"]):
        assert run(capsys, *argv, "--q", q, "--check-brute-force", "--jobs", jobs) == (
            EXIT_MISMATCH, "", "toepnull: cross-check: lane cross-check failed: the order-4 "
            "spec at index 0 has nullity string (1, 2, 3, 4, 4) in its lane but "
            "(1, 2, 3, 4, 5) from scratch\n")
    monkeypatch.undo()
    fault_lane(monkeypatch, 1)
    code, payload = run_json(capsys, "table", "--n", "4", "--q", q, "--check-brute-force",
                             "--jobs", jobs)
    assert code == EXIT_MISMATCH and payload["checks"][0]["detail"].startswith(
        "order 4: enumeration [")


def fault_children_of(monkeypatch, index, fault):
    """Apply ``fault`` to the child nullities that the packed engine's
    shared elimination gives for the order-2 GF(2) spec at lex ``index``."""
    target = toeplitz.engine(2).rows(*enumeration._index_to_ab(index, 2, 2))
    real = toeplitz._PackedGF2.children

    def children(self, rows):
        kids, nus = real(self, rows)
        if rows == target:
            fault(nus)
        return kids, nus

    monkeypatch.setattr(toeplitz._PackedGF2, "children", children)


def overstate_first(nus):
    nus[0] += 1


def swap_first_with_a_different(nus):
    i = next(k for k, nu in enumerate(nus) if nu != nus[0])
    nus[0], nus[i] = nus[i], nus[0]


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers must inherit the injected fault"))])
@pytest.mark.parametrize("index, fault, child", [
    (16, overstate_first, "(0, 0)"),  # used to die at kern[0] with an IndexError
    (5, swap_first_with_a_different, "(1, 0)"),  # census intact; blamed the plateau rule
])
def test_kernel_dimension_is_checked_against_the_walks_nullity(
        capsys, monkeypatch, jobs, index, fault, child):
    fault_children_of(monkeypatch, index, fault)
    code, out, err = run(capsys, "verify", "--n", "3", "--q", "2", "--jobs", str(jobs))
    assert (code, out) == (EXIT_MISMATCH, "")
    assert err == (f"toepnull: cross-check: rank cross-check failed: child (a_new, b_new) = "
                   f"{child} of the order-2 spec at index {index} has nullity 1 by shared "
                   f"elimination but 0 from scratch\n")


def raise_first_by_two(nus):
    nus[0] += 2


def set_first(value):
    def fault(nus):
        nus[0] = value
    return fault


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the injected fault")
def test_a_measured_nullity_jump_fails_verification_at_any_jobs(capsys, monkeypatch):
    # child (0, 0) of the order-2 spec at index 5, off the rank stride,
    # claims nullity 3 after its parent's 1; the census of the pair (1, 3)
    # used to raise as invalid input (exit 4) before the kernel check ran
    fault_children_of(monkeypatch, 5, raise_first_by_two)
    for jobs in ("1", "2"):
        assert run(capsys, "verify", "--n", "4", "--q", "2", "--jobs", jobs) == (
            EXIT_MISMATCH, "", "toepnull: cross-check: rank cross-check failed: child "
            "(a_new, b_new) = (0, 0) of the order-2 spec at index 5 has nullity 3 by shared "
            "elimination but 1 from scratch\n")
    # a fall from 2 to 0 leaves no kernel to check: the pair fails the step
    # bound, counted for both specs of the faulted child's orbit (the
    # order-3 spec at index 4 and its unwalked transpose at index 8)
    monkeypatch.undo()
    fault_children_of(monkeypatch, 1, set_first(0))
    code, out, err = run(capsys, "verify", "--n", "4", "--q", "2", "--format", "json")
    assert (code, err) == (EXIT_MISMATCH, "")
    step = next(c for c in json.loads(out)["checks"] if c["name"] == "rule:step_bound")
    assert step == {"name": "rule:step_bound", "passed": False, "checked": 2,
                    "expected_offsets": {}, "counterexample": {
                        "order": 3, "a": [0, 0, 0, 0], "b": [0, 1, 0], "index": 4,
                        "detail": "consecutive nullities differ by at most 1, got (2, 0)"}}
    assert run(capsys, "verify", "--n", "4", "--q", "2", "--jobs", "2",
               "--format", "json") == (EXIT_MISMATCH, out.replace('"jobs": 1,', '"jobs": 2,'), "")


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the injected fault")
def test_a_wrong_kernel_vector_fails_verification_at_any_jobs(capsys, monkeypatch):
    # the order-4 spec at index 192, a stride index, has kernel (1, 0, 1, 0, 1);
    # the fault flips its entry 1.  At jobs=2 the walk splits at order 3
    # and the spec lies in the range [24, 49), one that does not start at 0
    target = toeplitz.engine(2).rows(*enumeration._index_to_ab(192, 4, 2))
    real = toeplitz._PackedGF2.kernel

    def kernel(self, rows):
        kern = real(self, rows)
        return (kern[0] ^ 2, *kern[1:]) if rows == target else kern

    monkeypatch.setattr(toeplitz._PackedGF2, "kernel", kernel)
    for jobs in ("1", "2"):
        assert run(capsys, "verify", "--n", "4", "--q", "2", "--jobs", jobs) == (
            EXIT_MISMATCH, "", "toepnull: cross-check: kernel cross-check failed: kernel "
            "vector (1, 1, 1, 0, 1) of the order-4 spec at index 192 is not annihilated by "
            "its row 0\n")


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers must inherit the injected fault"))])
@pytest.mark.parametrize("nullity", [6, -1])
def test_an_impossible_nullity_fails_the_brute_force_scan(capsys, monkeypatch, jobs, nullity):
    # an order-3 nullity must lie in 0..4; past the end it used to raise
    # IndexError, and below 0 it landed in the last slot unseen.  The walk's
    # string census is the scan that reads children at q = 2
    fault_children_of(monkeypatch, 5, set_first(nullity))
    for n in (4, 3):
        with pytest.raises(enumeration.RankCrossCheckError) as exc:
            enumeration.brute_force_strings(n, 2, jobs=jobs)
        assert str(exc.value) == (
            "rank cross-check failed: child "
            f"(a_new, b_new) = (0, 0) of the order-2 spec at index 5 has nullity {nullity} "
            "by shared elimination but 1 from scratch")


@pytest.mark.parametrize("q, n", [("3", "4"), ("5", "3")])
def test_brute_force_reports_are_identical_at_any_jobs(capsys, q, n):
    # the orbit-reduced scan splits by index ranges; only the echoed jobs differ
    for command in ("table", "spectrum"):
        argv = (command, "--n", n, "--q", q, "--check-brute-force", "--format", "json")
        code, out, err = run(capsys, *argv, "--jobs", "1")
        assert (code, err) == (EXIT_OK, "") and '"jobs": 1,' in out
        for jobs in ("2", "7"):
            assert run(capsys, *argv, "--jobs", jobs) == (
                EXIT_OK, out.replace('"jobs": 1,', f'"jobs": {jobs},'), "")


FORK_ONLY = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                               reason="workers must inherit the injected fault")


@pytest.mark.parametrize("jobs", ["1", pytest.param("2", marks=FORK_ONLY)])
def test_a_broken_symmetry_table_fails_the_brute_force_scan(capsys, monkeypatch, jobs):
    # transpose made to fix the pair (a_k, b_k) = (0, 1): specs holding it
    # are walked with orbit size 1, not 2, so their order comes up short
    real = enumeration._group

    def group(q, n_max):
        tables = real(q, n_max)
        tables[1][1][0][1] = 1  # element 1 is transpose; one table at q = 2
        return tables

    monkeypatch.setattr(enumeration, "_group", group)
    for argv in (["table", "--n", "3"], ["spectrum", "--n", "2"]):
        assert run(capsys, *argv, "--q", "2", "--check-brute-force", "--jobs", jobs) == (
            EXIT_MISMATCH, "", "toepnull: cross-check: orbit cross-check failed: the orbit "
            "sizes of order 1 add up to 6, not 2^3\n")


@pytest.mark.parametrize("jobs", ["1", pytest.param("2", marks=FORK_ONLY)])
def test_a_broken_symmetry_table_fails_verification(capsys, monkeypatch, jobs):
    # the verify twin of the test above: exhaustive verify walks the same
    # reduced tree, and the same per-order sum catches the same table
    real = enumeration._group

    def group(q, n_max):
        tables = real(q, n_max)
        tables[1][1][0][1] = 1
        return tables

    monkeypatch.setattr(enumeration, "_group", group)
    assert run(capsys, "verify", "--n", "3", "--q", "2", "--jobs", jobs) == (
        EXIT_MISMATCH, "", "toepnull: cross-check: orbit cross-check failed: the orbit "
        "sizes of order 1 add up to 6, not 2^3\n")


@pytest.mark.parametrize("jobs", ["1", pytest.param("2", marks=FORK_ONLY)])
def test_an_orbit_member_of_another_nullity_fails_the_brute_force_scan(
        capsys, monkeypatch, jobs):
    # the order-2 GF(3) spec at index 128, digits (1, 1, 2, 0, 2), is a
    # stride spec; its transpose (1, 2, 1, 2, 0) is made to claim rank 2
    eng = toeplitz.engine(3)
    member = eng.rows((1, 2, 2), (1, 0))
    real = type(eng).rank
    monkeypatch.setattr(type(eng), "rank",
                        lambda self, rows: 2 if rows == member else real(self, rows))
    for argv in (["table", "--n", "3"], ["spectrum", "--n", "3"]):
        assert run(capsys, *argv, "--q", "3", "--check-brute-force", "--jobs", jobs) == (
            EXIT_MISMATCH, "", "toepnull: cross-check: orbit cross-check failed: the "
            "order-2 spec at index 128 has orbit size 8 and nullity 0 in the walk, but its "
            "orbit has 8 members, least (1, 1, 2, 0, 2), of nullities [0, 1]\n")


def test_a_predicate_refusing_a_replayed_spec_fails_its_cross_check(capsys, monkeypatch):
    # the all-zero order-3 spec claims a plateau (4, 4); its replay of
    # nullities (3, 4) is not one, and that is the scan's fault, not the input's
    real = enumeration.walk

    def walk(*args):
        for m, index, rows, string, nus, weight in real(*args):
            if (m, index) == (3, 0):
                string = string[:-2] + string[-1:] * 2
            yield m, index, rows, string, nus, weight

    monkeypatch.setattr(enumeration, "walk", walk)
    code, payload = run_json(capsys, "verify", "--n", "3", "--q", "2")
    assert code == EXIT_MISMATCH
    plateau = next(c for c in payload["checks"] if c["name"] == "structure:plateau_shift")
    assert not plateau["passed"] and plateau["counterexample"]["index"] == 0
    _, structure = cli.verify_exhaustive(3, 2)
    assert structure.checks["plateau_shift"].failures == 2  # the scan's and the replay's


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


def test_public_surface_resolves():
    import toepnull

    namespace = {}
    exec("from toepnull import *", namespace)
    assert len(set(toepnull.__all__)) == len(toepnull.__all__)
    for name in toepnull.__all__:
        assert namespace[name] is getattr(toepnull, name)


def test_public_annotations_resolve():
    from toepnull import field

    for module in (field, toeplitz, kernel_structure, counting, enumeration, cli):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                typing.get_type_hints(obj)
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        typing.get_type_hints(member)
            elif inspect.isfunction(obj):
                typing.get_type_hints(obj)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
