"""Workload plans: the operations one benchmark pass runs, made from a seed.

A plan is plain JSON data, so the parent process can hand it to each
fresh pass interpreter.  The package only ever sees the generated
inputs: argument vectors for ``toepnull.cli.main`` and digit tuples for
``toepnull.toeplitz.nullity_string``.  The seed fixes the order of the
operations in a pass and, on ``sampled``, the census seeds and the
random specs; the same seed always gives the same plan.

Every operation belongs to one of two groups per workload.  Each group
isolates the layer that a later optimisation targets, and the other
workloads leave that layer idle (see README.md for the predictions).
"""

from __future__ import annotations

import random
from typing import Dict, List

WORKLOADS = ("exhaustive", "sampled", "counting")

# Per workload: (group, metric name printed in the report, its unit,
# the op field counted as work, or None when the metric is a time).
GROUPS: Dict[str, tuple] = {
    "exhaustive": (("group1", "scan_specs_per_s", "specs/s", "specs"),
                   ("group2", "verify_specs_per_s", "specs/s", "specs")),
    "sampled": (("group1", "census_trials_per_s", "trials/s", "trials"),
                ("group2", "string_prefixes_per_s", "prefixes/s", "prefixes")),
    "counting": (("group1", "closed_forms_s", "s", None),
                 ("group2", "table_json_s", "s", None)),
}


def specs_upto(n: int, q: int) -> int:
    """Specs of every order 0..n: sum of q^(2m+1)."""
    return sum(q ** (2 * m + 1) for m in range(n + 1))


def _cli_op(kind: str, group: str, argv: List[str], **meta) -> Dict:
    label = " ".join(argv)
    return {"label": label, "kind": kind, "group": group, "argv": argv, **meta}


def table_check(n: int, q: int, group: str) -> Dict:
    argv = ["table", "--n", str(n), "--q", str(q), "--check-brute-force",
            "--format", "json"]
    return _cli_op("table_check", group, argv, n=n, q=q, specs=specs_upto(n, q))


def verify_exhaustive(n: int, q: int, group: str) -> Dict:
    argv = ["verify", "--n", str(n), "--q", str(q), "--format", "json"]
    # the rules scan and the structure scan each visit every spec of order <= n
    return _cli_op("verify_exhaustive", group, argv, n=n, q=q,
                   specs=2 * specs_upto(n, q))


def verify_sampled(n: int, q: int, trials: int, seed: int, group: str) -> Dict:
    argv = ["verify", "--seed", str(seed), "--trials", str(trials), "--n", str(n),
            "--q", str(q), "--format", "json"]
    return _cli_op("verify_sampled", group, argv, n=n, q=q, trials=trials)


def nullity_string_op(n: int, q: int, rng: random.Random, group: str) -> Dict:
    a = [rng.randrange(q) for _ in range(n + 1)]
    b = [rng.randrange(q) for _ in range(n)]
    return {"label": f"nullity_string q={q} n={n}", "kind": "nullity_string",
            "group": group, "n": n, "q": q, "a": a, "b": b, "prefixes": n + 1}


def closed_forms(n: int, group: str) -> Dict:
    return _cli_op("closed_forms", group,
                   ["closed-forms", "--n", str(n), "--format", "json"], n=n, q=2)


def table_json(n: int, q: int, group: str) -> Dict:
    return _cli_op("table", group,
                   ["table", "--n", str(n), "--q", str(q), "--format", "json"], n=n, q=q)


def spectrum_json(n: int, q: int, group: str) -> Dict:
    return _cli_op("spectrum", group,
                   ["spectrum", "--n", str(n), "--q", str(q), "--format", "json"],
                   n=n, q=q)


def plan(workload: str, seed: int) -> Dict:
    """The operations of one pass, in a seeded order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(seed)
    if workload == "exhaustive":
        ops = [table_check(8, 2, "group1"), table_check(4, 3, "group1"),
               table_check(3, 5, "group1"),
               verify_exhaustive(7, 2, "group2"), verify_exhaustive(4, 3, "group2")]
    elif workload == "sampled":
        ops = [verify_sampled(40, 13, 2, rng.randrange(1 << 32), "group1"),
               verify_sampled(80, 3, 4, rng.randrange(1 << 32), "group1"),
               nullity_string_op(120, 2, rng, "group2"),
               nullity_string_op(80, 3, rng, "group2"),
               nullity_string_op(80, 13, rng, "group2")]
    else:
        ops = [closed_forms(64, "group1"), table_json(240, 3, "group2"),
               spectrum_json(240, 13, "group2")]
    rng.shuffle(ops)
    return {"workload": workload, "seed": seed, "ops": ops}
