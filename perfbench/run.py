"""The toepnull benchmark: one command per workload, checked outputs, named metrics.

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each pass runs in a fresh interpreter
(``perfbench/passrun.py``) that imports the package from ``src`` through
``PYTHONPATH``, never an installed copy.  Passes repeat until
``--seconds`` have gone by; every metric is the median over the passes
of the run.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced serial passes, runs the kernel
microbenchmarks and prints the per-layer metrics.  The metric names and
units come from ``BENCHMARK.json``.

The last line of stdout is one JSON object: ``correct``, ``attempted``
and ``failed`` count operations (a nonzero exit, a failed check or an
oracle mismatch fails one) and ``metrics`` maps each name to its value
and unit.  The lines before it restate every metric with its sample
count and record the machine, Python, source and start method.  Any
fault of the harness itself exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from workloads import GROUPS, WORKLOADS, plan as make_plan

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "perfbench")
TRACE_DIR = os.path.join(ROOT, ".perfbench_traces")
SETUP_SAMPLES = 21
DEADLINE_S = 170.0
SETUP_CODE = "from toepnull.cli import main; main(['--version'])"


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("TOEPNULL_BUDGET", None)  # the budget guard must see its default
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: List[str], stdin: bytes, deadline: float):
    """Run one child to completion; returns (stdout, exit code, max RSS in KiB)."""
    proc = subprocess.Popen([sys.executable] + args, cwd=ROOT, env=child_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(stdin)
        proc.stdin.close()
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, usage.ru_maxrss


def run_child(request: Dict, deadline: float):
    began = time.monotonic()
    out, code, maxrss = spawn([os.path.join(HERE, "passrun.py")],
                              json.dumps(request).encode(), deadline)
    if code != 0:
        raise HarnessError(f"pass process exited with {code}")
    report = json.loads(out)
    if "package" in report and os.path.realpath(report["package"]) != os.path.realpath(
            os.path.join(SRC, "toepnull")):
        raise HarnessError(f"measured {report['package']}, not the checkout's src")
    report["maxrss_kib"] = maxrss
    report["elapsed"] = time.monotonic() - began
    return report


def measure_setup(deadline: float) -> List[float]:
    """Fresh interpreter to ``import toepnull`` to parser built (--version)."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        _, code, _ = spawn(["-c", SETUP_CODE], b"", deadline)
        elapsed = time.perf_counter() - start
        if code != 0:
            raise HarnessError(f"`toepnull --version` exited with {code}")
        if i:  # the first start writes the bytecode caches
            samples.append(elapsed)
    return samples


def summary(samples: List[float]) -> str:
    """Sample count and the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            value = sorted(samples)[math.ceil(p / 100 * n) - 1]
            return f"n={n} p{p:g}={value:.6g}"
    return f"n={n} (no percentile has 10 samples beyond it)"


def source_identity() -> Dict[str, Optional[str]]:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "toepnull", "*.py"))):
        with open(path, "rb") as handle:
            digest.update(handle.read())
    commit = None
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as handle:
                head = handle.read().strip()
        commit = head
    except OSError:
        pass  # not a git checkout: the source digest identifies the code
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def group_seconds(report: Dict, group: str) -> float:
    return sum(op["seconds"] for op in report["ops"] if op["group"] == group)


def pass_seconds(report: Dict) -> float:
    """One full checked pass: the operations back to back, oracle excluded."""
    return sum(op["seconds"] for op in report["ops"])


def _last(reports: List[Dict]) -> float:
    """Duration of the latest pass: a run starts no pass it cannot finish in time."""
    return reports[-1]["elapsed"] if reports else 0.0


def failures(reports: List[Dict]) -> List[str]:
    return [f"{op['label']}: {op['failure']}"
            for r in reports for op in r["ops"] if op["failure"]]


def run_untraced(workload: str, seed: int, seconds: float, deadline: float):
    plan = make_plan(workload, seed)
    setup = measure_setup(deadline)
    reports = []
    start = time.monotonic()
    while not reports or time.monotonic() - start + _last(reports) <= seconds:
        reports.append(run_child({"plan": plan, "trace": False}, deadline))

    values = {"setup_s": setup, "wall_s": [pass_seconds(r) for r in reports],
              "peak_rss_mib": [r["maxrss_kib"] / 1024 for r in reports]}
    lines = []
    for group, name, unit, work in GROUPS[workload]:
        times = values[f"{group}_s"] = [group_seconds(r, group) for r in reports]
        if work is not None:
            amount = sum(op[work] for op in plan["ops"] if op["group"] == group)
            times = [amount / t for t in times]
        lines.append(f"{name} = {statistics.median(times):.6g} {unit} "
                     f"({group}, {summary(times)})")
    return reports, values, lines


def run_traced(workload: str, seed: int, seconds: float, deadline: float):
    plan = make_plan(workload, seed)
    plain, traced = [], []
    start = time.monotonic()
    while not traced or time.monotonic() - start + _last(plain) + _last(traced) <= seconds:
        plain.append(run_child({"plan": plan, "trace": False}, deadline))
        traced.append(run_child({"plan": plan, "trace": True}, deadline))
    micro = run_child({"micro": seed}, deadline)["micro"]

    reference = [op["digest"] for op in plain[0]["ops"]]
    for r in plain + traced:
        for op, digest in zip(r["ops"], reference):
            if op["digest"] != digest and not op["failure"]:
                op["failure"] = "output differs between traced and untraced passes"
        if not r["restored"]:
            raise HarnessError("a wrapped name was not restored after tracing")

    os.makedirs(TRACE_DIR, exist_ok=True)
    with open(os.path.join(TRACE_DIR, f"{workload}-seed{seed}.json"), "w") as handle:
        json.dump({"plan": plan, "passes": [{"tree": r.pop("tree"), "spans": r.pop("spans")}
                                            for r in traced]}, handle)
    values = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
    values.update({name: [v] for name, v in micro.items()})
    values["trace.overhead_ratio"] = [pass_seconds(t) / pass_seconds(p)
                                      for p, t in zip(plain, traced)]
    return plain + traced, values, []


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not os.path.isfile(os.path.join(SRC, "toepnull", "__init__.py")):
            raise HarnessError(f"no package source at {SRC}/toepnull")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
        runner = run_traced if args.trace else run_untraced
        reports, values, lines = runner(args.workload, args.seed, args.seconds, deadline)
        missing = {m["name"] for m in declared} ^ set(values)
        if missing:
            raise HarnessError(f"measured and declared metrics differ: {sorted(missing)}")
    except (HarnessError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    bad = failures(reports)
    attempted = sum(len(r["ops"]) for r in reports)
    env = {"workload": args.workload, "seed": args.seed, "passes": len(reports),
           "machine": platform.machine(), "platform": platform.platform(),
           "cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
           "start_method": reports[0]["start_method"],
           **source_identity()}
    print("env " + json.dumps(env, sort_keys=True))
    medians = {name: statistics.median(samples) for name, samples in values.items()}
    for spec in declared:
        print(f"{spec['name']} = {medians[spec['name']]:.6g} {spec['unit']} "
              f"({summary(values[spec['name']])})")
    for line in lines:
        print(line)
    print(f"failed_ops_ratio = {len(bad) / attempted:.6g} ratio (base = {attempted} ops attempted)")
    for line in bad:
        print(f"FAILED {line}")
    result = {"correct": not bad, "attempted": attempted, "failed": len(bad),
              "metrics": {spec["name"]: {"value": medians[spec["name"]],
                                         "unit": spec["unit"]} for spec in declared}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
