"""Command-line front end.

Subcommands:

* ``table``         counts by nullity for every order up to n, from the
                    weight model; ``--check-brute-force`` re-derives the
                    same table by exhaustive enumeration and compares.
* ``spectrum``      order-n counts by rank, cross-checked against the
                    closed forms at every q.
* ``verify``        exhaustive cross-validation of the transition rules
                    and the kernel-structure predicates, both read off
                    one walk of the tree; with ``--seed`` it instead
                    spot-checks random specs, which works far beyond the
                    exhaustive budget.
* ``count-string``  weighted count of extension chains realizing one
                    nullity string from a given (previous, current) pair.
* ``closed-forms``  GF(2) closed-form battery cross-checked against one
                    pass of the weight model.

``python -m toepnull.cli`` and ``python -m toepnull`` run the same command.

Exit codes: 0 success, 2 a verification check failed (or an exhaustive
scan's rank cross-check did), 3 the budget was exceeded (exhaustive
matrices, or the entries of one sampled matrix), 4 invalid input
(including a modulus too large to test for primality exactly, an
``--out`` path that cannot be written, and ``--jobs`` or ``--budget``
out of range on any command that takes them), 5 unsupported option
combination.  Checks run in this order, and the first that fails sets
the code: parsing and the ``--jobs``/``--budget`` ranges (4), then an
unsupported ``--format`` (5), then the command's own checks and work.

JSON output always has the shape ``{tool_version, command, params,
results, checks}``; matrix counts are exact decimal strings of any size
(past CPython's 4300-digit ``str(int)`` cap).  CSV is long format (one
row per cell); text is for humans; only the chosen format is built.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .counting import (
    PairState,
    battery_rows,
    closed_eta,
    closed_excursions,
    closed_nullity1,
    closed_theta,
    count_string,
    count_table,
    invertible_formula,
    nullity_count_closed,
    rank_spectrum,
)
from .enumeration import (
    MAX_JOBS,
    BudgetExceededError,
    RankCrossCheckError,
    Report,
    brute_force_table,
    sample_census,
    verify_exhaustive,
)

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_BUDGET = 3
EXIT_INVALID = 4
EXIT_UNSUPPORTED = 5

DEFAULT_TRIALS = 256


class UsageError(Exception):
    """Bad command line; maps to exit code 4."""


class UnsupportedCombinationError(RuntimeError):
    """Coherent input the tool deliberately does not serve; exit code 5."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def build_parser() -> _Parser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("json", "csv", "text"), default="text",
                        help="output format (default: text)")
    shared.add_argument("--out", metavar="PATH",
                        help="write the report to PATH instead of stdout")

    parser = _Parser(prog="toepnull", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    # count-string and closed-forms take no --jobs/--budget
    parser.set_defaults(jobs=1, budget=None)
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("table", parents=[shared],
                       help="counts by nullity for orders 0..n")
    p.add_argument("--n", type=int, required=True, help="largest order")
    p.add_argument("--q", type=int, required=True, help="field modulus (prime)")
    p.add_argument("--nullity", type=int, help="restrict output to one nullity")
    p.add_argument("--check-brute-force", action="store_true",
                   dest="check_brute_force",
                   help="re-derive the table by enumeration and compare")
    p.add_argument("--jobs", type=int, default=1,
                   help=f"worker processes, at most {MAX_JOBS}")
    p.add_argument("--budget", type=int, help="enumeration cap override")

    p = sub.add_parser("spectrum", parents=[shared],
                       help="order-n counts by rank")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--check-brute-force", action="store_true",
                   dest="check_brute_force",
                   help="re-derive the spectrum by enumeration and compare")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--budget", type=int)

    p = sub.add_parser("verify", parents=[shared],
                       help="cross-validate rules and kernel structure")
    p.add_argument("--n", type=int, required=True, help="largest order to scan")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help=f"worker processes, at most {MAX_JOBS}; --seed runs serially, ignoring it")
    p.add_argument("--budget", type=int)
    p.add_argument("--seed", type=int,
                   help="sample random specs instead of scanning exhaustively")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                   help=f"samples when --seed is given (default: {DEFAULT_TRIALS})")

    p = sub.add_parser("count-string", parents=[shared],
                       help="weighted count of chains realizing a nullity string")
    p.add_argument("--start", required=True,
                   help="previous,current nullity pair, e.g. 0,1")
    p.add_argument("--string", required=True,
                   help="comma-separated nullity string, e.g. 1,2,1,0")
    p.add_argument("--q", type=int, required=True)

    p = sub.add_parser("closed-forms", parents=[shared],
                       help="GF(2) closed forms vs the weight model")
    p.add_argument("--n", type=int, required=True, help="check orders 1..n")
    p.add_argument("--q", type=int, default=2,
                   help="must be 2; other moduli have no closed forms here")
    return parser


# ---------------------------------------------------------------------------
# payload helpers


def _cex_payload(cex) -> Optional[Dict]:
    if cex is None:
        return None
    return {"order": cex.order, "a": list(cex.a), "b": list(cex.b),
            "index": cex.index, "detail": cex.detail}


def _checks_payload(report: Report) -> List[Dict]:
    """Census rules show their expected census, predicates their cross-checks."""
    return [{
        "name": f"{'structure' if chk.expected_offsets is None else 'rule'}:{name}",
        "passed": chk.failures == 0,
        "checked": chk.checked,
        **({"cross_checked": chk.cross_checked} if chk.expected_offsets is None else
           {"expected_offsets": {str(k): v for k, v in sorted(chk.expected_offsets.items())}}),
        "counterexample": _cex_payload(chk.counterexample),
    } for name, chk in sorted(report.checks.items())]


def _parse_int_list(text: str, label: str) -> Tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{label} must be comma-separated integers, got {text!r}") from None


@contextlib.contextmanager
def _any_size():
    """Lift CPython's cap on the digits ``str(int)`` gives (3.10.7 on)
    while counts become decimal strings; user input is parsed under it."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


def _check_scan_flags(cfg: argparse.Namespace) -> None:
    """Range-check ``--jobs`` and ``--budget`` even where no scan runs."""
    if not 1 <= cfg.jobs <= MAX_JOBS:
        raise ValueError(f"--jobs must be from 1 to {MAX_JOBS}, got {cfg.jobs}")
    if cfg.budget is not None and cfg.budget < 1:
        raise ValueError(f"--budget must be positive, got {cfg.budget}")


# ---------------------------------------------------------------------------
# subcommands: each returns (params, results, checks)


def _cmd_table(cfg: argparse.Namespace):
    if cfg.nullity is not None and cfg.nullity < 0:
        raise ValueError("--nullity must be nonnegative")
    # enumeration first: an over-budget scan is refused before the DP runs
    brute = (brute_force_table(cfg.n, cfg.q, budget=cfg.budget, jobs=cfg.jobs)
             if cfg.check_brute_force else None)
    table = count_table(cfg.n, cfg.q)
    params = {"n": cfg.n, "q": cfg.q, "nullity": cfg.nullity, "jobs": cfg.jobs,
              "budget": cfg.budget, "check_brute_force": cfg.check_brute_force}
    checks: List[Dict] = []
    if brute is not None:
        passed = brute.counts == table.counts
        check = {"name": "model_vs_enumeration", "passed": passed}
        if not passed:
            m = next(m for m, row in enumerate(brute.counts) if row != table.counts[m])
            check["detail"] = (f"order {m}: enumeration {list(brute.counts[m])}"
                               f" != model {list(table.counts[m])}")
        checks.append(check)
    with _any_size():
        if cfg.nullity is None:
            results = {"q": cfg.q, "n": cfg.n, "rows": [
                {"m": m, "counts": {str(nu): str(c) for nu, c in enumerate(row)}}
                for m, row in enumerate(table.counts)]}
        else:  # a row of order m ends at nullity m + 1
            results = {"q": cfg.q, "n": cfg.n, "nullity": cfg.nullity, "rows": [
                {"m": m, "count": str(row[cfg.nullity] if cfg.nullity < len(row) else 0)}
                for m, row in enumerate(table.counts)]}
    return params, results, checks


def _cmd_spectrum(cfg: argparse.Namespace):
    brute = (brute_force_table(cfg.n, cfg.q, budget=cfg.budget, jobs=cfg.jobs)
             if cfg.check_brute_force else None)
    spectrum = rank_spectrum(cfg.n, cfg.q)
    params = {"n": cfg.n, "q": cfg.q, "jobs": cfg.jobs, "budget": cfg.budget,
              "check_brute_force": cfg.check_brute_force}
    bad = [r for r, c in spectrum.items()
           if c != nullity_count_closed(cfg.n, cfg.n + 1 - r, cfg.q)]
    checks: List[Dict] = [{"name": "closed_form_cross_check", "passed": not bad,
                           "checked": len(spectrum)}]
    if bad:
        checks[0]["detail"] = f"ranks disagreeing with the closed forms: {bad}"
    if brute is not None:
        expected = {cfg.n + 1 - nu: c for nu, c in enumerate(brute.row(cfg.n))}
        passed = expected == dict(spectrum)
        check = {"name": "model_vs_enumeration", "passed": passed}
        if not passed:
            check["detail"] = f"enumeration spectrum {expected} != model {dict(spectrum)}"
        checks.append(check)
    with _any_size():
        entries = [{"rank": r, "count": str(c)} for r, c in spectrum.items()]
    return params, {"q": cfg.q, "n": cfg.n, "spectrum": entries}, checks


def _cmd_verify(cfg: argparse.Namespace):
    params = {"n": cfg.n, "q": cfg.q, "jobs": cfg.jobs, "budget": cfg.budget,
              "seed": cfg.seed, "trials": cfg.trials if cfg.seed is not None else None}
    if cfg.seed is not None:
        report = sample_census(cfg.n, cfg.q, cfg.trials, cfg.seed, budget=cfg.budget)
        checks = _checks_payload(report)
        results = {"mode": "sampled", "q": cfg.q, "n": cfg.n,
                   "trials": cfg.trials, "seed": cfg.seed, "passed": report.passed,
                   "counterexample": _cex_payload(report.counterexample)}
    else:
        rules, structure = verify_exhaustive(cfg.n, cfg.q, budget=cfg.budget, jobs=cfg.jobs)
        checks = _checks_payload(rules) + _checks_payload(structure)
        results = {"mode": "exhaustive", "q": cfg.q, "n": cfg.n,
                   "rules_passed": rules.passed, "structure_passed": structure.passed,
                   "passed": rules.passed and structure.passed,
                   "counterexample": _cex_payload(rules.counterexample
                                                  or structure.counterexample)}
    return params, results, checks


def _cmd_count_string(cfg: argparse.Namespace):
    start_vals = _parse_int_list(cfg.start, "start")
    if len(start_vals) != 2:
        raise ValueError(f"start must be 'previous,current', got {cfg.start!r}")
    values = _parse_int_list(cfg.string, "string")
    total = count_string(PairState(*start_vals), values, cfg.q)
    params = {"q": cfg.q, "start": list(start_vals), "string": list(values)}
    with _any_size():
        return params, {"count": str(total)}, []


def _cmd_closed_forms(cfg: argparse.Namespace):
    if cfg.q != 2:
        raise UnsupportedCombinationError(
            f"closed forms are specific to GF(2), got q={cfg.q}")
    if cfg.n < 1:
        raise ValueError("--n must be at least 1")
    names = "theta eta invertible nullity_counts nullity1_structured positive_excursions"
    oks: Dict[str, List[bool]] = {name: [] for name in names.split()}
    rows = []
    for m, (counts, (theta, eta), one, exc) in enumerate(battery_rows(cfg.n), 1):
        th, et = closed_theta(m), closed_eta(m)
        inv = invertible_formula(m) if m >= 2 else th + et
        oks["theta"].append(th == theta)
        oks["eta"].append(et == eta)
        if m >= 2:
            oks["invertible"].append(inv == counts[0])
        oks["nullity_counts"] += [nullity_count_closed(m, k) == c for k, c in enumerate(counts)]
        oks["nullity1_structured"].append(one == closed_nullity1(m))
        oks["positive_excursions"].append(exc == closed_excursions(m))
        with _any_size():
            rows.append({"n": m, "theta": str(th), "eta": str(et), "invertible": str(inv),
                         "nullity1_structured": str(one), "positive_excursions": str(exc)})
    checks = [{"name": f"closed:{name}", "passed": all(ok), "checked": len(ok)}
              for name, ok in oks.items()]
    return {"n": cfg.n, "q": cfg.q}, {"q": 2, "n": cfg.n, "rows": rows}, checks


# ---------------------------------------------------------------------------
# renderers: CSV records from the results, text lines from results and checks


def _check_lines(checks: List[Dict]) -> List[str]:
    return [f"[{'ok' if c['passed'] else 'FAIL':>4}] {c['name']}"
            + (f" checked={c['checked']}" if "checked" in c else "") for c in checks]


def _table_cells(res: Dict) -> List[Dict]:
    nullity = res.get("nullity")
    return [{"m": r["m"], "nullity": nu, "count": c} for r in res["rows"]
            for nu, c in (r["counts"].items() if nullity is None else [(nullity, r["count"])])]


def _table_text(res: Dict, checks: List[Dict]) -> List[str]:
    if "nullity" in res:
        text = [f"counts at nullity {res['nullity']} over GF({res['q']})"]
        text += [f"m={r['m']}: {r['count']}" for r in res["rows"]]
    else:
        text = [f"counts by nullity over GF({res['q']}), orders 0..{res['n']}"]
        text += [f"m={r['m']}: " + " ".join(r["counts"].values()) for r in res["rows"]]
    if checks:
        text.append("enumeration check: " + ("ok" if checks[0]["passed"] else "MISMATCH"))
    return text


def _spectrum_text(res: Dict, checks: List[Dict]) -> List[str]:
    return ([f"order-{res['n']} counts by rank over GF({res['q']})"]
            + [f"rank {e['rank']}: {e['count']}" for e in res["spectrum"]]
            + _check_lines(checks))


def _verify_text(res: Dict, checks: List[Dict]) -> List[str]:
    head = f"exhaustive verification: n={res['n']} q={res['q']}"
    if res["mode"] == "sampled":
        head = (f"sampled census check: n={res['n']} q={res['q']} "
                f"trials={res['trials']} seed={res['seed']}")
    text = [head, *_check_lines(checks)]
    cex = res["counterexample"]
    if cex is not None:
        text.append(f"counterexample: order={cex['order']} index={cex['index']} "
                    f"a={cex['a']} b={cex['b']}: {cex['detail']}")
    return text + ["result: " + ("PASS" if res["passed"] else "FAIL")]


def _closed_forms_text(res: Dict, checks: List[Dict]) -> List[str]:
    return ([f"closed-form battery through order {res['n']} over GF(2)"]
            + [f"n={r['n']}: theta={r['theta']} eta={r['eta']} "
               f"invertible={r['invertible']} nullity1={r['nullity1_structured']} "
               f"excursions={r['positive_excursions']}" for r in res["rows"]]
            + _check_lines(checks))


# command -> (handler, the records of its CSV table or None, its text lines)
_COMMANDS = {
    "table": (_cmd_table, _table_cells, _table_text),
    "spectrum": (_cmd_spectrum, lambda res: res["spectrum"], _spectrum_text),
    "verify": (_cmd_verify, None, _verify_text),
    "count-string": (_cmd_count_string, None, lambda res, checks: [res["count"]]),
    "closed-forms": (_cmd_closed_forms, lambda res: res["rows"], _closed_forms_text),
}


# ---------------------------------------------------------------------------
# driver


def _render(cfg: argparse.Namespace, params: Dict, results: Dict, checks: List[Dict]) -> str:
    _, csv_records, text_lines = _COMMANDS[cfg.command]
    if cfg.format == "json":
        payload = {"tool_version": __version__, "command": cfg.command,
                   "params": params, "results": results, "checks": checks}
        return json.dumps(payload, indent=2) + "\n"
    if cfg.format == "csv":
        records = csv_records(results)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [list(records[0]), *(r.values() for r in records)])
        return buf.getvalue()
    return "\n".join(text_lines(results, checks)) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        cfg = parser.parse_args(argv)
    except UsageError as exc:
        print(f"toepnull: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        _check_scan_flags(cfg)
        if cfg.format == "csv" and _COMMANDS[cfg.command][1] is None:
            raise UnsupportedCombinationError(
                f"--format csv is not available for {cfg.command}")
        params, results, checks = _COMMANDS[cfg.command][0](cfg)
        rendered = _render(cfg, params, results, checks)
    except UnsupportedCombinationError as exc:
        print(f"toepnull: unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except BudgetExceededError as exc:
        print(f"toepnull: budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RankCrossCheckError as exc:
        print(f"toepnull: cross-check: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ValueError as exc:
        print(f"toepnull: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            print(f"toepnull: error: cannot write {cfg.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return EXIT_INVALID
    else:
        sys.stdout.write(rendered)
    return EXIT_OK if all(c["passed"] for c in checks) else EXIT_MISMATCH


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
