"""Tests of the benchmark harness itself: oracle, metric names, seeds, tracer.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import os
import random
import re

import pytest

import toepnull
import toepnull.cli
import toepnull.enumeration
import toepnull.toeplitz
from toepnull.counting import CountTable

import micro
import oracle
import passrun
import workloads
from layers import layer_metrics
from run import failures
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = toepnull.cli.main(argv)
    return rc, buf.getvalue()


def _corrupt_first_row(text):
    payload = json.loads(text)
    row = payload["results"]["rows"][1]["counts"]
    row["0"] = str(int(row["0"]) + 1)
    return json.dumps(payload)


def test_oracle_accepts_every_op_of_a_small_plan():
    ops = [workloads.table_check(2, 3, "group1"),
           workloads.verify_exhaustive(3, 2, "group2"),
           workloads.verify_sampled(6, 5, 3, 11, "group1"),
           workloads.closed_forms(6, "group1"),
           workloads.table_json(7, 5, "group2"),
           workloads.spectrum_json(7, 7, "group2")]
    for op in ops:
        rc, text = _cli(op["argv"])
        assert oracle.check_cli(op, rc, text) is None, op["label"]


def test_corrupted_count_row_fails_the_oracle():
    op = workloads.table_json(5, 3, "group2")
    rc, text = _cli(op["argv"])
    assert oracle.check_cli(op, rc, _corrupt_first_row(text)) is not None


def test_wrong_check_counts_fail_the_oracle():
    op = workloads.verify_sampled(6, 3, 4, 1, "group1")
    rc, text = _cli(op["argv"])
    assert oracle.check_cli(dict(op, trials=5), rc, text) is not None
    op = workloads.verify_exhaustive(3, 2, "group2")
    rc, text = _cli(op["argv"])
    assert oracle.check_cli(dict(op, n=4), rc, text) is not None


def test_nullity_string_oracle():
    op = workloads.nullity_string_op(12, 3, random.Random(4), "group2")
    spec = toepnull.ToeplitzSpec(field=toepnull.PrimeField(3), a=tuple(op["a"]),
                                 b=tuple(op["b"]))
    values = toepnull.nullity_string(spec)
    assert oracle.check_string(op, values) is None
    assert oracle.check_string(op, values[:-1] + (values[-1] + 1,)) is not None


@pytest.mark.parametrize("kind", ["table", "table_check"])
def test_corrupted_model_counts_as_a_failed_op(monkeypatch, kind):
    real = toepnull.cli.count_table

    def corrupt(n, q):
        table = real(n, q)
        rows = [list(r) for r in table.counts]
        rows[1][0] += 1
        return CountTable(q=q, counts=tuple(tuple(r) for r in rows))

    monkeypatch.setattr(toepnull.cli, "count_table", corrupt)
    op = (workloads.table_json(3, 2, "group2") if kind == "table"
          else workloads.table_check(3, 2, "group1"))
    report = passrun.run_plan({"ops": [op, workloads.spectrum_json(3, 2, "group2")]},
                              trace=False)
    assert len(failures([report])) == 1


def test_metric_names_are_valid_and_match_what_the_harness_measures():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), names
    measured = set(layer_metrics(["root", 0, 0.0, 0.0, []], [], 0))
    measured |= {f"toeplitz.gf2_rank.us_n{s}" for s in micro.SIZES}
    measured |= {f"toeplitz.gfq_rank.q{q}.us_n{s}" for q in (3, 13) for s in micro.SIZES}
    measured.add("trace.overhead_ratio")
    assert measured == {m["name"] for m in bench["per_layer"]}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        groups = {g for g, *_ in workloads.GROUPS[workload]}
        assert {f"{g}_s" for g in groups} < {m["name"] for m in bench["end_to_end"]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    assert workloads.plan(workload, 7)["ops"] == workloads.plan(workload, 7)["ops"]
    # exhaustive and counting have fixed sizes: the seed only orders their
    # operations, so two seeds may share an order, but not ten of them
    orders = {json.dumps(workloads.plan(workload, s)["ops"]) for s in range(10)}
    assert len(orders) > 1


def test_sampled_inputs_differ_for_every_seed():
    inputs = {json.dumps(sorted(workloads.plan("sampled", s)["ops"],
                                key=lambda op: op["label"])) for s in range(20)}
    assert len(inputs) == 20


def test_tracer_wraps_every_namespace_and_restores_it():
    original = toepnull.toeplitz.gf2_rank
    spec = toepnull.ToeplitzSpec(field=toepnull.PrimeField(2), a=(1, 0, 1), b=(1, 1))
    tracer = Tracer()
    assert tracer.install() > 0
    assert toepnull.enumeration.gf2_rank is not original
    assert toepnull.enumeration.gf2_rank is toepnull.toeplitz.gf2_rank
    tracer.span("op:string", toepnull.nullity_string, spec)
    assert tracer.restore()
    assert toepnull.enumeration.gf2_rank is original
    tree = tracer.root.as_json()
    (op,) = tree[4]
    (string,) = op[4]
    assert string[0] == "toeplitz.nullity_string"
    ranks = [c for c in string[4] if c[0] == "toeplitz.gf2_rank"]
    assert ranks and ranks[0][1] == 3
    assert tracer.spans[1][3] == 0  # the package call's parent is the op span
