"""Independent output oracle for every benchmark operation.

Counts are checked against the classical closed forms for Toeplitz
matrices by rank over GF(q) (Daykin 1960; Kaltofen & Lobo 1996):

    N(n, 0) = (q - 1) q^(2n)
    N(n, k) = (q^2 - 1) q^(2(n - k))     for 1 <= k <= n
    N(n, n + 1) = 1

These use neither the weight DP nor any scan.  Scans are checked by the
number of checks they report, so a scan that skips specs fails instead
of winning.  ``check`` returns None for a correct output, else the
reason it is wrong.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from workloads import specs_upto

# Bound now, before a traced pass patches the package: the oracle must
# neither use nor be counted by the tracer's wrappers.
from toepnull.field import PrimeField
from toepnull.kernel_structure import validate_nullity_string
from toepnull.toeplitz import ToeplitzSpec, rank_nullity


def closed_count(n: int, k: int, q: int) -> int:
    """Order-n specs of nullity k over GF(q)."""
    if k == 0:
        return (q - 1) * q ** (2 * n)
    if k == n + 1:
        return 1
    return (q * q - 1) * q ** (2 * (n - k))


def _closed_row(m: int, q: int) -> Dict[str, str]:
    return {str(k): str(closed_count(m, k, q)) for k in range(m + 2)}


def _table_rows(results: Dict, q: int) -> Optional[str]:
    rows: List[Dict] = results["rows"]
    if [r["m"] for r in rows] != list(range(results["n"] + 1)):
        return "table rows do not cover orders 0..n"
    for r in rows:
        if r["counts"] != _closed_row(r["m"], q):
            return f"order {r['m']}: counts differ from the closed forms"
    return None


def _rule_checks(payload: Dict) -> Dict[str, int]:
    return {c["name"]: c["checked"] for c in payload["checks"]
            if c["name"].startswith("rule:")}


def check_cli(op: Dict, rc: int, text: str) -> Optional[str]:
    if rc != 0:
        return f"exit code {rc}"
    try:
        payload = json.loads(text)
    except ValueError:
        return "output is not JSON"
    failed = [c["name"] for c in payload["checks"] if not c["passed"]]
    if failed:
        return f"checks failed: {failed}"
    results, kind = payload["results"], op["kind"]
    n, q = op["n"], op["q"]
    if kind in ("table", "table_check"):
        if kind == "table_check" and [c["name"] for c in payload["checks"]] != [
                "model_vs_enumeration"]:
            return "no enumeration check reported"
        return _table_rows(results, q)
    if kind == "spectrum":
        got = {e["rank"]: e["count"] for e in results["spectrum"]}
        want = {n + 1 - k: str(closed_count(n, k, q)) for k in range(n + 2)}
        return None if got == want else "spectrum differs from the closed forms"
    if kind == "verify_exhaustive":
        checks = _rule_checks(payload)
        start = checks.pop("rule:start", 0)
        expected = specs_upto(n - 1, q)
        if start != 1 or sum(checks.values()) != expected:
            return (f"rule checks {sum(checks.values())} + start {start}, "
                    f"expected {expected} + 1")
        if not results["passed"]:
            return "verification did not pass"
        return None
    if kind == "verify_sampled":
        total = sum(_rule_checks(payload).values())
        if total != op["trials"] or not results["passed"]:
            return f"sampled census made {total} checks, expected {op['trials']}"
        return None
    if kind == "closed_forms":
        rows = results["rows"]
        if [r["n"] for r in rows] != list(range(1, n + 1)):
            return "closed-form rows do not cover orders 1..n"
        for r in rows:
            inv = closed_count(r["n"], 0, 2)
            if int(r["theta"]) + int(r["eta"]) != inv or int(r["invertible"]) != inv:
                return f"order {r['n']}: invertible count differs from (q-1)q^(2n)"
        return None
    return f"no oracle for {kind}"


def check_string(op: Dict, values) -> Optional[str]:
    values = tuple(values)
    if len(values) != op["n"] + 1:
        return f"string has {len(values)} entries, expected {op['n'] + 1}"
    if not validate_nullity_string(values):
        return "string breaks the nullity grammar"
    spec = ToeplitzSpec(field=PrimeField(op["q"]), a=tuple(op["a"]), b=tuple(op["b"]))
    if values[-1] != rank_nullity(spec)[1]:
        return "last entry differs from the nullity of the whole matrix"
    return None
