"""One benchmark pass, run in a fresh interpreter by ``run.py``.

Reads a request from stdin: ``{"plan": ..., "trace": bool}`` runs the
plan's operations one after another (a closed loop: each starts when the
previous one has finished), and ``{"micro": seed}`` runs the kernel
microbenchmarks.  Writes one JSON object to stdout.

CLI operations go through ``toepnull.cli.main(argv)`` with their output
captured; ``nullity_string`` is called on a spec built before the clock
starts.  Functions are looked up on their module at call time, so a
traced pass reaches the tracer's wrappers.  Every output is checked by
the oracle after the last operation, outside the timed intervals and
with the tracer removed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import sys
import time

import toepnull
import toepnull.cli
import toepnull.toeplitz
from toepnull.field import PrimeField
from toepnull.toeplitz import ToeplitzSpec

import oracle
from micro import microbench
from layers import layer_metrics
from tracer import Tracer


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = toepnull.cli.main(argv)
    return rc, buf.getvalue()


def _run_string(spec):
    return 0, list(toepnull.toeplitz.nullity_string(spec))


def _prepare(op):
    if op["kind"] == "nullity_string":
        spec = ToeplitzSpec(field=PrimeField(op["q"]), a=tuple(op["a"]), b=tuple(op["b"]))
        return _run_string, spec
    return _run_cli, op["argv"]


def run_plan(plan, trace: bool):
    ops = plan["ops"]
    calls = [_prepare(op) for op in ops]
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    outcomes = []
    try:
        for op, (fn, arg) in zip(ops, calls):
            start = time.perf_counter()
            try:
                if tracer:
                    rc, out = tracer.span(f"op:{op['label']}", fn, arg)
                else:
                    rc, out = fn(arg)
            except Exception as exc:  # a traceback is a failed operation, not a harness crash
                rc, out = f"raised {type(exc).__name__}: {exc}", None
            outcomes.append((time.perf_counter() - start, rc, out))
    finally:
        restored = tracer.restore() if tracer else True

    results = []
    for op, (seconds, rc, out) in zip(ops, outcomes):
        try:
            if out is None:
                reason = str(rc)
            elif op["kind"] == "nullity_string":
                reason = oracle.check_string(op, out)
            else:
                reason = oracle.check_cli(op, rc, out)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            reason = f"output has an unexpected shape: {exc!r}"
        text = out if isinstance(out, str) else json.dumps(out)
        results.append({"label": op["label"], "group": op["group"], "seconds": seconds,
                        "failure": reason,
                        "output_bytes": len(out.encode()) if isinstance(out, str) else 0,
                        "digest": hashlib.sha256(text.encode()).hexdigest()})
    report = {"ops": results, "restored": restored,
              "start_method": multiprocessing.get_start_method(),
              "package": os.path.dirname(toepnull.__file__)}
    if tracer:
        report["tree"] = tracer.root.as_json()
        report["spans"] = tracer.spans
        report["layers"] = layer_metrics(report["tree"], ops,
                                         sum(r["output_bytes"] for r in results))
    return report


def main() -> None:
    request = json.load(sys.stdin)
    if "micro" in request:
        report = {"micro": microbench(request["micro"])}
    else:
        report = run_plan(request["plan"], request["trace"])
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
