"""Per-layer metrics from the call tree of one traced pass.

A node is ``[key, calls, total_s, self_s, children]`` as written by
``tracer.Node.as_json``; the children of the root are the harness's op
spans, keyed ``op:<label>``.  Ratios are given with their base: a ratio
whose base is zero on a workload (no exhaustive scan on ``counting``,
say) reads 0.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Tuple

RANK = {"toeplitz.gf2_rank", "toeplitz.gfq_rank"}
KERNEL = {"toeplitz.gf2_rref", "toeplitz.gf2_nullspace", "toeplitz.gfq_rref",
          "toeplitz.gfq_nullspace", "toeplitz.canonical_vectors"}
ROWS = {"toeplitz.gf2_pack_rows", "toeplitz.gfq_rows"}
CLOSED = {"counting.closed_theta", "counting.closed_eta",
          "counting.invertible_formula", "counting.nullity_count_closed"}
# closed-forms components, by the span that computes each
COMPONENTS = {"count_table": "counting.count_table", "theta_eta": "counting.theta_eta",
              "nullity1_structured": "counting.nullity1_structured_count",
              "positive_excursion": "counting.positive_excursion_count"}
EXHAUSTIVE_KINDS = ("table_check", "verify_exhaustive")


def _walk(node: list) -> Iterator[list]:
    yield node
    for child in node[4]:
        yield from _walk(child)


def _topmost(node: list, match: Callable[[str], bool]) -> Iterator[list]:
    """Matching nodes with no matching ancestor."""
    for child in node[4]:
        if match(child[0]):
            yield child
        else:
            yield from _topmost(child, match)


def _layer(prefix: str) -> Callable[[str], bool]:
    return lambda key: key.startswith(prefix + ".")


def _in(keys) -> Callable[[str], bool]:
    return set(keys).__contains__


def _calls(tree: list, match: Callable[[str], bool]) -> int:
    return sum(n[1] for n in _walk(tree) if match(n[0]))


def _self(tree: list, match: Callable[[str], bool]) -> float:
    return sum((n[3] for n in _walk(tree) if match(n[0])), 0.0)


def _total(tree: list, match: Callable[[str], bool]) -> float:
    return sum((n[2] for n in _topmost(tree, match)), 0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _op_trees(tree: list, ops: List[Dict], kinds: Tuple[str, ...]) -> Iterator[Tuple[Dict, list]]:
    by_label = {f"op:{op['label']}": op for op in ops}
    for child in tree[4]:
        op = by_label.get(child[0])
        if op is not None and op["kind"] in kinds:
            yield op, child


def _rank_calls_per(tree: list, ops: List[Dict], kinds: Tuple[str, ...], base: str) -> float:
    calls = work = 0
    for op, sub in _op_trees(tree, ops, kinds):
        calls += _calls(sub, _in(RANK))
        work += op[base]
    return _ratio(calls, work)


def layer_metrics(tree: list, ops: List[Dict], output_bytes: int) -> Dict[str, float]:
    """Counts and self times of every layer in one traced pass."""
    m: Dict[str, float] = {}
    for name, keys in (("gf2_rank", ["toeplitz.gf2_rank"]),
                       ("gfq_rank", ["toeplitz.gfq_rank"]),
                       ("kernel", KERNEL), ("rows", ROWS)):
        m[f"toeplitz.{name}.calls"] = _calls(tree, _in(keys))
        m[f"toeplitz.{name}.self_s"] = _self(tree, _in(keys))
    m["toeplitz.nullity_string.self_s"] = _self(tree, _in(["toeplitz.nullity_string"]))
    m["toeplitz.rank_calls_per_spec"] = _rank_calls_per(tree, ops, ("table_check",), "specs")
    m["toeplitz.rank_calls_per_verify_spec"] = _rank_calls_per(
        tree, ops, ("verify_exhaustive",), "specs")
    m["toeplitz.rank_calls_per_trial"] = _rank_calls_per(
        tree, ops, ("verify_sampled",), "trials")

    specs = sum(op["specs"] for op, _ in _op_trees(tree, ops, EXHAUSTIVE_KINDS))
    scan_self = sum(_self(sub, _layer("enumeration"))
                    for _, sub in _op_trees(tree, ops, EXHAUSTIVE_KINDS))
    enum_nodes = list(_topmost(tree, _layer("enumeration")))
    in_toeplitz = sum(n[2] for e in enum_nodes for n in _topmost(e, _layer("toeplitz")))
    m["enumeration.specs"] = specs
    m["enumeration.self_s"] = _self(tree, _layer("enumeration"))
    m["enumeration.self_us_per_spec"] = _ratio(scan_self * 1e6, specs)
    m["enumeration.rank_share"] = _ratio(in_toeplitz, sum(e[2] for e in enum_nodes))

    m["kernel_structure.calls"] = _calls(tree, _layer("kernel_structure"))
    m["kernel_structure.self_s"] = _self(tree, _layer("kernel_structure"))

    m["counting.transition_weights.calls"] = _calls(tree, _in(["counting.transition_weights"]))
    m["counting.self_s"] = _self(tree, _layer("counting"))
    for name, key in COMPONENTS.items():
        m[f"counting.{name}_s"] = _total(tree, _in([key]))
    m["counting.closed_s"] = _total(tree, _in(CLOSED))

    m["cli.self_s"] = _self(tree, _layer("cli"))
    m["cli.output_bytes"] = output_bytes
    m["field.calls"] = _calls(tree, _layer("field"))
    m["field.self_s"] = _self(tree, _layer("field"))
    return m
