"""Exhaustive enumeration: the ground truth the counting model answers to.

Everything here measures matrices directly: every rank comes from an
elimination of the spec's own rows, and no transition weight, closed
form or structural shortcut from the other modules is assumed, which
makes these scans oracles for all of them.

:func:`walk` visits the extension tree depth first, the children of an
order-m spec being its q^2 one-step extensions in (a_new, b_new) order,
so each order comes in lex order of the digits (a_0, a_1, b_1, ...,
a_n, b_n); ``toeplitz.engine(q).children`` eliminates the rows they
share once.  The string census (:func:`brute_force_strings`) and
:func:`verify_exhaustive` walk the lex-least spec of each orbit of the
group G of transpose, scaling and diagonal similarity, which keeps
nullity strings, and count it for its orbit.  At q in {2, 3}
:func:`brute_force_table` counts on lanes below the walk's order-s
specs: one bit-sliced elimination of all their extensions, a bit per
spec.  As independent checks, at lex indices that are multiples of
RANK_CHECK_STRIDE the walk re-ranks all children and each orbit member
from scratch, a lane's whole string is recomputed from scratch and
:func:`verify_exhaustive` multiplies each kernel vector by the spec's
rows (the same specs at any worker count); each order's orbit sizes must
add up to q^(2m+1).  A disagreement raises :class:`RankCrossCheckError`.

A budget guard keeps exhaustive work explicit: a scan whose deepest
level would exceed the cap (q^(2n+1) matrices, default 2^28, override
with a ``budget`` argument) refuses up front.  ``jobs`` (at most
MAX_JOBS) cuts a shallow level of the tree into index ranges holding
equal shares of its walked specs; each worker enters its own ranges
only, and the first range also owns the levels above.  Tallies merge
associatively and counterexamples are ordered by (order, lex index), so
reports are identical for any worker count.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from dataclasses import dataclass
from functools import partial, reduce
from multiprocessing import Pool
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import counting, kernel_structure
from .counting import CountTable, PairState, RuleClass
from .field import PrimeField
from .toeplitz import ToeplitzSpec, engine
from .toeplitz import gf2_rank  # noqa: F401  the perfbench tracer test looks it up here

DEFAULT_BUDGET = 1 << 28
MAX_JOBS = 64
RANK_CHECK_STRIDE = 64
PREDICATE_CHECK_STRIDE = 64

_MASK64 = (1 << 64) - 1


class BudgetExceededError(RuntimeError):
    """A scan would enumerate more matrices, or hold larger ones, than allowed."""

    def __init__(self, required: int, budget: int,
                 unit: str = "matrices at its deepest level") -> None:
        super().__init__(
            f"scan needs a budget of {_decimal(required)} {unit}, "
            f"cap is {_decimal(budget)}; raise the cap explicitly to proceed"
        )
        self.required = required
        self.budget = budget


def _decimal(count: int) -> str:
    """``count`` in decimal, or past the digits str(int) allows as a power of two."""
    try:
        return str(count)
    except ValueError:
        return f"at least 2^{count.bit_length() - 1}"


class RankCrossCheckError(RuntimeError):
    """A child nullity from the engine's shared elimination disagreed
    with a from-scratch elimination of the child's rows."""

    def __init__(self, order: int, index: int, *detail) -> None:
        super().__init__(order, index, *detail)  # picklable
        self.order, self.index = order, index

    def __str__(self) -> str:
        order, index, a_new, b_new, shared, scratch = self.args
        return (f"rank cross-check failed: child (a_new, b_new) = ({a_new}, {b_new}) "
                f"of the order-{order} spec at index {index} has nullity {shared} by "
                f"shared elimination but {scratch} from scratch")


class OrbitCrossCheckError(RankCrossCheckError):
    """The reduced walk's orbits disagreed with their expansion or sizes."""

    def __str__(self) -> str:
        return f"orbit cross-check failed: {self.args[2]}"


class LaneCrossCheckError(RankCrossCheckError):
    """A lane's nullity string disagreed with a from-scratch elimination."""

    def __str__(self) -> str:
        order, index, lane, scratch = self.args
        return (f"lane cross-check failed: the order-{order} spec at index {index} has "
                f"nullity string {lane} in its lane but {scratch} from scratch")


class KernelCrossCheckError(RankCrossCheckError):
    """A kernel vector that a row of its own spec does not annihilate."""

    def __str__(self) -> str:
        order, index, vector, row = self.args
        return (f"kernel cross-check failed: kernel vector {vector} of the order-{order} "
                f"spec at index {index} is not annihilated by its row {row}")


def _recheck(q: int, m: int, index: int, rows: list, nu: int) -> None:
    """Raise unless the order-m child at ``index`` has nullity ``nu``."""
    scratch = m + 1 - engine(q).rank(rows)
    if scratch != nu:
        raise RankCrossCheckError(m - 1, index // (q * q), *divmod(index % (q * q), q),
                                  nu, scratch)


def _check_ranks(q: int, kids: list, nus: Sequence[int], m: int, index: int) -> None:
    """Re-rank every child of the order-m spec at ``index`` from scratch
    (``gf2_rank``/``gfq_rank``) against the nullities ``children`` gave."""
    for k, (kid, nu) in enumerate(zip(kids, nus)):
        _recheck(q, m + 1, index * q * q + k, kid, nu)


def _check_kernel(q: int, m: int, index: int, rows: list, kern: Tuple[int, ...]) -> None:
    """Raise unless every row of the order-m spec at ``index`` annihilates
    every vector of its kernel: a dot product each, no elimination."""
    eng = engine(q)
    for v in kern:
        for i, row in enumerate(rows):
            if eng.dot(row, v, m + 1):
                raise KernelCrossCheckError(m, index, eng.vectors((v,), m + 1)[0], i)


def _resolve_budget(budget: Optional[int]) -> int:
    """A scan's budget: DEFAULT_BUDGET when None, refused below 1."""
    if budget is not None and budget < 1:
        raise ValueError("budget must be positive")
    return DEFAULT_BUDGET if budget is None else budget


def _require_budget(n: int, q: int, budget: Optional[int]) -> None:
    """Refuse an order-n scan of over ``budget`` (as resolved by
    :func:`_resolve_budget`) matrices at its deepest level.  Past the
    budget and str(int)'s digits, 2^k <= q^(2n+1) stands in for the power
    (k = (2n+1) t // 4096 with 2^t <= q^4096; 2n+1 at q = 2)."""
    budget = _resolve_budget(budget)
    k = (2 * n + 1) * ((q ** 4096).bit_length() - 1) // 4096
    cap = 4 * getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 2^cap = 16^limit
    required = 1 << k if 0 < cap <= k and k >= budget.bit_length() else q ** (2 * n + 1)
    if required > budget:
        raise BudgetExceededError(required, budget)


def _check_params(n: int, q: int, jobs: int = 1) -> PrimeField:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"order must be a nonnegative integer, got {n!r}")
    fld = PrimeField(q)
    if not isinstance(jobs, int) or isinstance(jobs, bool) or not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"jobs must be an integer from 1 to {MAX_JOBS}, got {jobs!r}")
    return fld


# ---------------------------------------------------------------------------
# digit bookkeeping


def _digits_to_ab(digits: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    return (digits[0],) + tuple(digits[1::2]), tuple(digits[2::2])


def _index_to_ab(index: int, m: int, q: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The digit tuples of the order-m spec at this lex index."""
    return _digits_to_ab([index // q ** k % q for k in range(2 * m, -1, -1)])


def spec_index(spec: ToeplitzSpec) -> int:
    """Position of a spec in the lexicographic enumeration of its order."""
    q, idx = spec.field.q, spec.a[0]
    for a_new, b_new in zip(spec.a[1:], spec.b):
        idx = (idx * q + a_new) * q + b_new
    return idx


def enumerate_all(n: int, q: int, *, budget: Optional[int] = None) -> Iterator[ToeplitzSpec]:
    """Every spec of order exactly n, in lexicographic digit order."""
    fld = _check_params(n, q)
    _require_budget(n, q, budget)
    for digits in itertools.product(range(q), repeat=2 * n + 1):
        a, b = _digits_to_ab(digits)
        yield ToeplitzSpec(field=fld, a=a, b=b)


# ---------------------------------------------------------------------------
# the walker and the parallel driver


def _group(q: int, n_max: int) -> List[tuple]:
    """G as digit tables for orders <= n_max: (t, c, lam) sends a_0 to
    root[a_0] = c a_0 and the pair (a_k, b_k), coded a_k q + b_k, to
    pairs[k % (q-1)][code], the code of (c lam^-k a_k, c lam^k b_k),
    swapped when t is 1 (transpose, scaling, diagonal similarity)."""
    group = []
    for t, c, lam in itertools.product((0, 1), range(1, q), range(1, q)):
        pairs = []
        for k in range(min(q - 1, n_max + 1)):
            up, down = c * pow(lam, -k, q) % q, c * pow(lam, k, q) % q
            images = [(up * x % q, down * y % q) for x in range(q) for y in range(q)]
            pairs.append([y * q + x if t else x * q + y for x, y in images])
        group.append(([c * x % q for x in range(q)], pairs))
    return group


def _least(stab: list, m: int, q: int) -> list:
    """``(x, stabiliser)`` for each digit x at position m (a_0 at 0, the
    pair code of (a_m, b_m) after it) that no element of ``stab`` lowers."""
    tables = [(g, g[1][m % (q - 1)] if m else g[0]) for g in stab]
    return [(x, [g for g, t in tables if t[x] == x]) for x in range(q * q if m else q)
            if all(x <= t[x] for _, t in tables)]


def _check_orbit(q: int, group: List[tuple], m: int, index: int, nu: int,
                 weight: int) -> None:
    """Expand the orbit of the order-m spec at ``index`` from the digit
    tables: it must have ``weight`` members, the spec must be the least,
    and every member must have nullity ``nu`` from scratch."""
    digits = tuple(index // q ** k % q for k in range(2 * m, -1, -1))
    codes = [x * q + y for x, y in zip(digits[1::2], digits[2::2])]
    orbit = {(root[digits[0]], *itertools.chain(*(divmod(pairs[k % (q - 1)][p], q)
                                                  for k, p in enumerate(codes, 1))))
             for root, pairs in group}
    eng = engine(q)
    nus = {m + 1 - eng.rank(eng.rows(*_digits_to_ab(image))) for image in orbit}
    if len(orbit) != weight or min(orbit) != digits or nus != {nu}:
        raise OrbitCrossCheckError(m, index, (
            f"the order-{m} spec at index {index} has orbit size {weight} and nullity {nu} in "
            f"the walk, but its orbit has {len(orbit)} members, least {min(orbit)}, of "
            f"nullities {sorted(nus)}"))


def walk(q: int, n_max: int, split: int = -1, lo: int = 0, hi: int = 0,
         group: Optional[List[tuple]] = None) -> Iterator[tuple]:
    """The lex-least spec of each orbit of ``group`` (by default the
    identity: every spec) of order <= n_max, depth first, as ``(order,
    lex index, rows, nullity string, child nullities, orbit size)``.

    Rows are ``toeplitz.engine(q)``'s, shared with siblings: never change
    them.  Child nullities cover all q^2 children in (a_new, b_new) order
    and are empty at order n_max.  In preorder the last spec yielded one
    order up is the parent.  With ``0 <= split < n_max`` the walk enters
    only the order-``split`` specs whose index lies in [lo, hi) and,
    unless ``lo`` is 0, only the ancestors they need.  ``group`` (from
    :func:`_group`) acts pair by pair and lex order compares prefixes
    first, so a spec is least in its orbit exactly when its parent is
    and its last pair p has p <= g(p) for each g in the parent's
    stabiliser; the g with g(p) = p make the child's.  A spec with
    children whose index is a multiple of RANK_CHECK_STRIDE has them
    re-ranked and its orbit checked (:func:`_check_orbit`) first, if the
    walk owns its order (``_run``): the same checks at any worker count."""
    eng = engine(q)
    children, q2, own = eng.children, q * q, split if lo else 0
    group = group or [(range(q), [range(q2)] * (q - 1))]  # the identity alone

    def inside(node: tuple) -> bool:
        m, index = node[0], node[1]
        if m > split or (m < split and not lo):
            return True
        width = q2 ** (split - m)
        return index * width < hi and (index + 1) * width > lo

    roots = [(a0, eng.rows((a0,), ()), stab) for a0, stab in reversed(_least(group, 0, q))]
    stack = list(filter(inside, [(0, a0, rows, (1 - eng.rank(rows),), stab)
                                 for a0, rows, stab in roots]))
    while stack:
        m, index, rows, string, stab = stack.pop()
        weight = len(group) // len(stab)
        if m == n_max:
            yield m, index, rows, string, (), weight
            continue
        kids, nus = children(rows)
        if not index % RANK_CHECK_STRIDE and m >= own:
            _check_ranks(q, kids, nus, m, index)
            if len(group) > 1:
                _check_orbit(q, group, m, index, string[-1], weight)
        yield m, index, rows, string, nus, weight
        m += 1
        base = index * q2
        if len(stab) > 1:
            batch = [(m, base + k, kids[k], string + (nus[k],), sub)
                     for k, sub in reversed(_least(stab, m, q))]
        elif m == n_max:  # leaves go out at once instead of through the stack
            for k in range(q2):
                yield m, base + k, kids[k], string + (nus[k],), (), weight
            continue
        else:
            batch = [(m, base + k, kids[k], string + (nus[k],), stab)
                     for k in range(q2 - 1, -1, -1)]
        stack += batch if m > split else filter(inside, batch)


def _split_depth(q: int, n_max: int, jobs: int) -> Optional[int]:
    """Shallow depth whose level the workers partition; None means serial."""
    if jobs <= 1 or n_max < 2:
        return None
    best = None
    for s in range(1, n_max):
        width = q ** (2 * s + 1)
        if width > 16384:
            break
        best = s
        if width >= 32 * jobs:
            break
    return best


def _run(scan: Callable, merge: Callable, q: int, n_max: int, jobs: int):
    """Run ``scan((q, n_max, split, lo, hi))`` over the whole tree.

    Serially that is one call with no split.  Otherwise the split level
    is cut into about 4 * jobs index ranges, each starting at a quantile
    of the level's specs that are least in their orbits under G (the
    specs the scans walk, at least one in each range), a pool of
    at most ``jobs`` workers scans them, and ``merge(total, part)`` folds
    the parts in range order.  A scan owns the specs of its range and
    their descendants; the range starting at 0 also owns every shallower
    spec.  If ranges fail a cross-check, the failure first in preorder
    (compared at the deepest failing order: a lane lies below n_max) is
    raised, the one a serial run would raise.
    """
    split = _split_depth(q, n_max, jobs)
    if split is None:
        return scan((q, n_max, -1, 0, 0))
    width, level = q ** (2 * split + 1), [(0, _group(q, split))]
    for m in range(split + 1):
        level = [(index * q * q + x, sub) for index, stab in level for x, sub in _least(stab, m, q)]
    ranges, least = min(4 * jobs, len(level)), [index for index, _ in level] + [width]
    bounds = [0] + [least[-(-len(level) * i // ranges)] for i in range(1, ranges)] + [width]
    args = [(q, n_max, split, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    parts, failures = [], []
    with Pool(min(jobs, len(args))) as pool:
        results = pool.imap(scan, args)
        for _ in args:
            try:
                parts.append(next(results))
            except RankCrossCheckError as exc:
                failures.append(exc)
    if failures:
        top = max(e.order for e in failures)  # preorder: lex order of digits, prefix first
        raise min(failures, key=lambda e: (e.index * q ** (2 * (top - e.order)), e.order))
    total = parts[0]
    for part in parts[1:]:
        merge(total, part)
    return total


# ---------------------------------------------------------------------------
# single-spec census


def extension_census(spec: ToeplitzSpec) -> Dict[int, int]:
    """``{nullity: count}`` over the q^2 one-step extensions of ``spec``,
    measured directly; every child's nullity is also re-ranked from scratch."""
    q = spec.field.q
    eng = engine(q)
    kids, nus = eng.children(eng.rows(spec.a, spec.b))
    _check_ranks(q, kids, nus, spec.order, spec_index(spec))
    return dict(Counter(nus))


# ---------------------------------------------------------------------------
# the brute-force string census


def _check_step(q: int, m: int, index: int, rows: list, nu: int, nus: Sequence[int]) -> None:
    """Bordering by a row and a column moves a rank by 0 to 2, so a child
    nullity that is negative or more than one step from its parent's
    ``nu`` is a fault: re-rank that child from scratch, then the parent.
    A child both agree with is left out, and its order's size check fails."""
    k = next(k for k, v in enumerate(nus) if v < 0 or abs(v - nu) > 1)
    child = index * q * q + k
    _recheck(q, m + 1, child, engine(q).rows(*_index_to_ab(child, m + 1, q)), nus[k])
    _recheck(q, m, index, rows, nu)


def _census_scan(args: tuple) -> Dict[Tuple[int, ...], List[int]]:
    """How many specs extend each nullity string by a step of -1, 0 and +1:
    a walked spec tallies its q^2 child nullities once per member of its
    orbit, which G maps onto the children of every other member.  The
    roots are tallied under the empty string, as steps from a virtual 0."""
    q, n_max, split, lo, hi = args
    own, q2 = split if lo else 0, q * q
    tally: Dict[Tuple[int, ...], List[int]] = {}
    for m, index, rows, string, nus, weight in walk(*args, _group(q, n_max)):
        if not m and not own:
            tally.setdefault((), [0, 0, 0])[string[0] + 1] += weight
        if nus and m >= own:
            nu = string[-1]
            down, flat, up = nus.count(nu - 1), nus.count(nu), nus.count(nu + 1)
            if down + flat + up != q2 or (down and not nu):  # no nullity is -1
                _check_step(q, m, index, rows, nu, nus)
            row = tally.get(string) or tally.setdefault(string, [0, 0, 0])
            row[0] += down * weight
            row[1] += flat * weight
            row[2] += up * weight
    return tally


def _add_tallies(into: Dict[tuple, List[int]], part: Dict[tuple, List[int]]) -> None:
    for string, row in part.items():
        into[string] = [x + y for x, y in zip(into.get(string, (0, 0, 0)), row)]


def brute_force_strings(n_max: int, q: int, *, budget: Optional[int] = None,
                        jobs: int = 1) -> Dict[Tuple[int, ...], int]:
    """Every nullity string of the specs of order <= n_max, sorted, with how
    many specs have it, from one reduced walk; the orbit sizes walked at each
    order m < n_max, and the census at n_max, must add up to q^(2m+1)."""
    _check_params(n_max, q, jobs)
    _require_budget(n_max, q, budget)
    census, sizes = {}, [0] * (n_max + 1)
    for string, row in _run(_census_scan, _add_tallies, q, n_max, jobs).items():
        sizes[len(string)] += sum(row)
        for value, count in enumerate(row, (string[-1] if string else 0) - 1):
            if count:
                census[string + (value,)] = count
    _check_sizes(q, [size // q ** 2 for size in sizes[1:]] + sizes[-1:])
    return dict(sorted(census.items()))


def brute_force_table(n_max: int, q: int, *, budget: Optional[int] = None,
                      jobs: int = 1) -> CountTable:
    """Exact N(m, nu) for all m <= n_max, read off :func:`brute_force_strings`
    at q >= 5, and at q in {2, 3} off :func:`_lane_scan` below the walk to a
    chunk order s, whose order-m lanes count each order-m spec q^(2(n_max - m)) times."""
    _check_params(n_max, q, jobs)
    _require_budget(n_max, q, budget)
    counts = [[0] * (m + 2) for m in range(n_max + 1)]
    if q > 3:
        for string, count in brute_force_strings(n_max, q, budget=budget, jobs=jobs).items():
            counts[len(string) - 1][string[-1]] += count
    else:
        s = min(n_max, max(2, n_max - (6 if q == 2 else 4)))  # 4^6, 9^4 lanes; orbits checked to 2
        tally = _run(partial(_lane_scan, n_max), Counter.update, q, s, jobs)
        _check_sizes(q, [tally[m] for m in range(n_max + 1) if m in tally])
        for m, row in enumerate(counts):
            for nu in range(m + 2):
                row[nu], rest = divmod(tally[m, nu], q ** (2 * (n_max - m)))
                if rest:
                    raise OrbitCrossCheckError(m, 0, f"{tally[m, nu]} weighted lanes have "
                                               f"nullity {nu} at order {m}, not a multiple of "
                                               f"{q}^{2 * (n_max - m)}")
    return CountTable(q=q, counts=tuple(map(tuple, counts)))


def _check_sizes(q: int, sizes: Sequence[int]) -> None:
    """Raise unless the orbit sizes of each order m add up to q^(2m+1)."""
    for m, size in enumerate(sizes):
        if size != q ** (2 * m + 1):
            raise OrbitCrossCheckError(m, 0, f"the orbit sizes of order {m} add up to "
                                       f"{size}, not {q}^{2 * m + 1}")


# ---------------------------------------------------------------------------
# bit-sliced lanes across specs: brute_force_table at q in {2, 3}


def _lane_gains(q: int, n: int, s: int, index: int) -> Tuple[List[int], List[int]]:
    """Eliminate at once the q^(2(n-s)) order-n extensions of the order-s
    spec at ``index``, bit k of every int (lane k) the k-th in lex order;
    an entry is one int at q = 2, the pair (is 1, is 2) at q = 3.  Rows
    go in top down, and a lane whose residual is first nonzero at column c
    reduces by its pivot row there or makes it (a GF(3) 2 swaps the
    planes): the mirror image of the engines' pivot loops, which take rows
    bottom up and pivot on the highest lane (``prefix_nullities``), and a
    stride of lanes is checked against them.  Returns per order m the
    lanes with one and with two pivots at max(row, column) = m."""
    full, zero = (1 << q ** (2 * (n - s))) - 1, 0 if q == 2 else (0, 0)
    planes = [[full * (d == v) for v in range(1, q)]
              for d in (index // q ** k % q for k in range(2 * s, -1, -1))]
    planes += [[((1 << q ** e) - 1 << q ** e * v) * (full // ((1 << q ** (e + 1)) - 1))
                for v in range(1, q)] for e in range(2 * (n - s) - 1, -1, -1)]  # digit e of k
    a, b = _digits_to_ab([x[0] if q == 2 else x for x in planes])
    one, two, held, piv = ([0] * (n + 1) for _ in range(4))
    for i in range(n + 1):
        row, live = [a[j - i] if j >= i else b[i - j - 1] for j in range(n + 1)], full
        for c in range(n + 1):
            x = row[c]
            nz = live & (x if q == 2 else x[0] | x[1])
            red, new, p = nz & held[c], nz & ~held[c], piv[c] or [zero] * (n - c)
            if red and q == 2:
                row[c + 1:] = [y ^ z & red for y, z in zip(row[c + 1:], p)]
            elif red:  # add -x_c times the pivot row; GF(3) addition in six operations
                neg, pos = red & x[0], red & x[1]
                for j, ((y1, y2), (z1, z2)) in enumerate(zip(row[c + 1:], p), c + 1):
                    w1, w2 = z1 & pos | z2 & neg, z2 & pos | z1 & neg
                    u = (y1 | w2) ^ (y2 | w1)
                    row[j] = (y2 | w2) ^ u, (y1 | w1) ^ u
            if new and q == 2:
                piv[c] = [z | y & new for y, z in zip(row[c + 1:], p)]
            elif new:
                keep, swap = new & x[0], new & x[1]
                piv[c] = [(z1 | y1 & keep | y2 & swap, z2 | y2 & keep | y1 & swap)
                          for (y1, y2), (z1, z2) in zip(row[c + 1:], p)]
            held[c], live, m = held[c] | new, live ^ new, max(i, c)
            two[m] |= one[m] & new
            one[m] ^= new
            if not live:
                break
    return one, two


def _lane_scan(n: int, args: tuple) -> Counter:
    """Weighted lane counts by (order, nullity) and orbit sizes by order up
    to s, the depth of ``walk(*args)``, each of whose order-s specs is a chunk
    counted for each member of its orbit.  A chunk or a lane whose lex index
    is a multiple of RANK_CHECK_STRIDE (the walk checks those above) gets
    :func:`_check_orbit` or has its string checked by ``prefix_nullities``."""
    q, s, split, lo, hi = args
    own, eng, tally, group = split if lo else 0, engine(q), Counter(), _group(q, s)
    width = q ** (2 * (n - s))
    full = (1 << width) - 1
    for m, index, _, string, _, weight in walk(*args, group):
        if m >= own:
            tally[m] += weight
        if m < s:
            continue
        if not index % RANK_CHECK_STRIDE:
            _check_orbit(q, group, m, index, string[-1], weight)
        one, two = _lane_gains(q, n, s, index)
        for k in range(-index * width % RANK_CHECK_STRIDE, width, RANK_CHECK_STRIDE):
            lane = tuple(itertools.accumulate(1 - (one[m] >> k & 1) - 2 * (two[m] >> k & 1)
                                              for m in range(n + 1)))
            scratch = eng.prefix_nullities(eng.rows(*_index_to_ab(index * width + k, n, q)))
            if lane != scratch:
                raise LaneCrossCheckError(n, index * width + k, lane, scratch)
        at = [full]  # at[nu]: the lanes of nullity nu
        for m in range(n + 1):
            pad = [0, *at, 0, 0]
            at = [pad[v] & (full ^ (one[m] | two[m])) | pad[v + 1] & one[m] | pad[v + 2] & two[m]
                  for v in range(m + 2)]
            for nu, mask in enumerate(at):
                tally[m, nu] += weight * mask.bit_count()
    return tally


# ---------------------------------------------------------------------------
# checks, tallies and reports


@dataclass(frozen=True)
class Counterexample:
    """A spec whose measurement disagreed with the model."""

    order: int
    a: Tuple[int, ...]
    b: Tuple[int, ...]
    index: int
    detail: str

    @property
    def sort_key(self) -> Tuple[int, int]:
        return (self.order, self.index)


@dataclass(slots=True)
class Check:
    """One rule or predicate over a scan, with the failing spec first in
    (order, lex index); a census rule also keeps its expected census."""

    name: str
    checked: int = 0
    cross_checked: int = 0
    failures: int = 0
    counterexample: Optional[Counterexample] = None
    expected_offsets: Optional[Dict[int, int]] = None

    def merge(self, other: "Check") -> None:
        self.checked += other.checked
        self.cross_checked += other.cross_checked
        self.failures += other.failures
        self.counterexample = min(filter(None, (self.counterexample, other.counterexample)),
                                  key=lambda c: c.sort_key, default=None)


@dataclass
class Report:
    """The checks of one kind over one scan, by name."""

    checks: Dict[str, Check]

    @property
    def passed(self) -> bool:
        return all(c.failures == 0 for c in self.checks.values())

    @property
    def counterexample(self) -> Optional[Counterexample]:
        return min((c.counterexample for c in self.checks.values() if c.counterexample),
                   key=lambda c: c.sort_key, default=None)


class _Tally(dict):
    """Scan-side :class:`Check` objects by name, made empty on first use,
    and the orbit sizes walked per order.  Picklable, so workers return
    it as it is; ``merge`` is associative."""

    def __init__(self, q: int, n_max: int = 0) -> None:
        super().__init__()
        self.q = q
        self.expected: Dict[Tuple[int, int], Tuple[str, Dict[int, int]]] = {}
        self.sizes = [0] * (n_max + 1)

    def __missing__(self, name: str) -> Check:
        check = self[name] = Check(name)
        return check

    def record(self, name: str, ok: bool, m: int, index: int, detail: str,
               weight: int = 1, cross: bool = False) -> None:
        """Count one check of the order-m spec at ``index`` for each of the
        ``weight`` specs of its orbit, or with ``cross`` one cross-check;
        ``detail`` says what failed when not ``ok``."""
        check = self[name]
        if cross:
            check.cross_checked += 1
        else:
            check.checked += weight
        if not ok:
            check.failures += weight
            cex = check.counterexample
            if cex is None or (m, index) < cex.sort_key:
                a, b = _index_to_ab(index, m, self.q)
                check.counterexample = Counterexample(order=m, a=a, b=b, index=index,
                                                      detail=detail)

    def census(self, prev_nu: int, nu: int, child_nus: Sequence[int], m: int,
               index: int, weight: int = 1) -> None:
        """Check the census of one spec's children against the weight
        model, for each of the ``weight`` specs of its orbit."""
        cached = self.expected.get((prev_nu, nu))
        if cached is None:
            try:
                state = PairState(prev_nu, nu)
            except ValueError as exc:  # no census fits; only faulty elimination gets here
                self.record(STEP_RULE, False, m, index, str(exc), weight)
                return
            cached = (state.rule_class.value, dict(counting.transition_weights(state, self.q)))
            self.expected[prev_nu, nu] = cached
        name, expected = cached
        census: Dict[int, int] = {}
        for child in child_nus:
            census[child] = census.get(child, 0) + 1
        ok = census == expected
        self.record(name, ok, m, index, "" if ok else
                    f"census {dict(sorted(census.items()))} != expected "
                    f"{dict(sorted(expected.items()))}", weight)

    def merge(self, part: "_Tally") -> None:
        for name, check in part.items():
            self[name].merge(check)
        self.sizes = [x + y for x, y in zip(self.sizes, part.sizes)]


START_RULE = "start"
STEP_RULE = "step_bound"


def _rule_report(tally: _Tally) -> Report:
    """One check per pair class, each with its expected census, and the
    step bound |nu_m - nu_{m-1}| <= 1 if a measured pair broke it."""
    for cls, row in counting._census(tally.q).items():
        tally[cls.value].expected_offsets = dict(row)
    checks = {cls.value: tally[cls.value] for cls in RuleClass}
    if STEP_RULE in tally:
        checks[STEP_RULE] = tally[STEP_RULE]
        checks[STEP_RULE].expected_offsets = {}  # no spec has such a pair
    return Report(checks)


# ---------------------------------------------------------------------------
# sampled census spot checks


class XorShift64:
    """Marsaglia's 64-bit xorshift generator; identical on every platform."""

    def __init__(self, seed: int) -> None:
        self.state = (seed & _MASK64) or 0x9E3779B97F4A7C15

    def next_word(self) -> int:
        x = self.state
        x ^= (x << 13) & _MASK64
        x ^= x >> 7
        x ^= (x << 17) & _MASK64
        self.state = x
        return x

    def below(self, bound: int) -> int:
        """Uniform draw from [0, bound) by rejection."""
        if not 1 <= bound <= 1 << 64:
            raise ValueError("bound must lie in [1, 2**64]")
        threshold = (1 << 64) - ((1 << 64) % bound)
        while True:
            word = self.next_word()
            if word < threshold:
                return word % bound


def sample_census(n: int, q: int, trials: int, seed: int, *,
                  budget: Optional[int] = None) -> Report:
    """Spot-check the weight model on random order-n specs.

    Draws digits (a_0, a_1, b_1, ...) from a seeded xorshift stream, so
    a given (n, q, trials, seed) always examines the same specs.  Useful
    far beyond the exhaustive budget; cost scales with trials, not q^n.
    A trial's rows are built once, from its digits, which also give its
    lex index.  Its (previous, current) nullity is the tail of its
    nullity string (``prefix_nullities``, one elimination of the rows,
    with a virtual 0 before order 0), and ``children`` of the same rows
    gives the census: two eliminations per trial.  The children of every
    RANK_CHECK_STRIDE-th trial, from trial 0 on, are re-ranked from scratch.
    Orders of over ``budget`` (as resolved by :func:`_resolve_budget`)
    entries in a matrix, (n+1)^2, are refused up front.
    """
    _check_params(n, q)
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 0:
        raise ValueError(f"trials must be a nonnegative integer, got {trials!r}")
    budget = _resolve_budget(budget)
    if (n + 1) ** 2 > budget:
        raise BudgetExceededError((n + 1) ** 2, budget, "entries in each sampled matrix")
    rng = XorShift64(seed)
    eng = engine(q)
    tally = _Tally(q)
    for trial in range(trials):
        digits = [rng.below(q) for _ in range(2 * n + 1)]
        rows = eng.rows(*_digits_to_ab(digits))
        prev_nu, nu = (0, *eng.prefix_nullities(rows))[-2:]
        index = reduce(lambda i, digit: i * q + digit, digits)  # lex, by Horner
        kids, nus = eng.children(rows)
        if not trial % RANK_CHECK_STRIDE:
            _check_ranks(q, kids, nus, n, index)
        tally.census(prev_nu, nu, nus, n, index)
    return _rule_report(tally)


# ---------------------------------------------------------------------------
# exhaustive verification: rule censuses and kernel predicates in one walk


ENDS = "single_generator_ends"
ASCENT = "ascent_span"
PLATEAU_RUN = "plateau_shift"
DESCENT = "descent_interior_zeros"


def _cross_check(tally: _Tally, name: str, ok: bool, m: int, index: int,
                 run_start: int) -> None:
    """Re-run the public predicate on rebuilt specs; it must agree with the
    scan, and refusing the specs as unqualified is a disagreement too."""
    fld = PrimeField(tally.q)
    a, b = _index_to_ab(index, m, tally.q)
    run = [ToeplitzSpec(field=fld, a=a[:k + 1], b=b[:k]) for k in range(run_start, m + 1)]
    try:
        if name == PLATEAU_RUN:
            ok_pub = kernel_structure.check_plateau_shift(run)
        elif name == DESCENT:
            ok_pub = kernel_structure.check_descent_interior_zeros(run[-1])
        elif name == ENDS:
            ok_pub = kernel_structure.check_single_generator_ends(*run)
        else:
            ok_pub = kernel_structure.check_ascent_span(*run)
        detail = f"{name}: predicate ({ok_pub}) disagrees with scan ({ok})"
    except kernel_structure.PreconditionError as exc:
        ok_pub, detail = None, f"{name}: predicate refuses the spec: {exc}"
    tally.record(name, ok_pub == ok, m, index, detail, cross=True)


def _verify_scan(args: tuple) -> _Tally:
    """Census the children of each spec the reduced walk visits (order 0
    with a virtual previous nullity 0) and apply every qualifying
    predicate to each step, into one tally weighted by orbit size:
    rule-class names and predicate names do not overlap.

    The kernel, the open plateau run and the lex indices of the orbit
    members (one per element of G, ``members[-1]`` standing for the
    parent of order 0) of each order are kept in per-order lists; a run
    is (start order, all omega so far, all sigma so far), or None
    outside runs.  A kernel whose dimension is not the nullity the walk
    gave raises :class:`RankCrossCheckError`; at lex indices that are
    multiples of RANK_CHECK_STRIDE each kernel vector must be annihilated
    by the spec's rows (:func:`_check_kernel`).  With the dimension that
    pins the canonical kernel.
    """
    q, n_max, split, lo, hi = args
    own = split if lo else 0
    q2 = q * q
    eng = engine(q)
    kernel, sigma, ends = eng.kernel, eng.sigma, eng.ends
    group = _group(q, n_max)
    tables = [[g[0] for g in group]] + [[g[1][m % (q - 1)] for g in group]
                                        for m in range(1, n_max + 1)]
    tally = _Tally(q, n_max)
    kernels: List[tuple] = [()] * (n_max + 1)
    runs: List[Optional[Tuple[int, bool, bool]]] = [None] * (n_max + 1)
    members: List[List[int]] = [[]] * (n_max + 1) + [[0] * len(group)]

    def check(name: str, ok: bool, detail: str, run_start: int) -> None:
        """Record a predicate on the spec at hand for its whole orbit, and
        replay each member whose index is a multiple of the stride."""
        tally.record(name, ok, m, index, detail, weight)
        for member in sorted({i for i in members[m] if not i % PREDICATE_CHECK_STRIDE}):
            _cross_check(tally, name, ok, m, member, run_start)

    for m, index, rows, string, child_nus, weight in walk(q, n_max, split, lo, hi, group):
        code = index % q2
        members[m] = [i * q2 + t[code] for i, t in zip(members[m - 1], tables[m])]
        nu = string[-1]
        if m >= own:
            tally.sizes[m] += weight
            if child_nus:
                tally.census(string[-2] if m else 0, nu, child_nus, m, index, weight)
        kern = kernels[m] = kernel(rows) if nu else ()
        if kern and not index % RANK_CHECK_STRIDE and m >= own:
            _check_kernel(q, m, index, rows, kern)
        runs[m] = None
        if m == 0:
            continue
        if len(kern) != nu and m >= own:
            raise RankCrossCheckError(m - 1, index // q2, *divmod(code, q), nu, len(kern))
        prev_nu, prev = string[-2], kernels[m - 1]
        if nu == prev_nu and nu >= 1:
            # an appended zero lane changes no packed int: prev is its own omega shift
            is_w, is_s = kern == prev, kern == sigma(prev)
            run = runs[m - 1]
            run = runs[m] = ((m - 1, is_w, is_s) if run is None
                             else (run[0], run[1] and is_w, run[2] and is_s))
            if m >= own:
                check(PLATEAU_RUN, run[1] or run[2],
                      "plateau run mixes append-zero and prepend-zero shifts", run[0])
        elif m < own:
            continue
        elif prev_nu == 0 and nu == 1:
            check(ENDS, 0 not in ends(kern[0], m + 1),
                  "fresh kernel generator vanishes at an end", m - 1)
        elif nu == prev_nu + 1 and prev_nu >= 1:
            # kern is independent: equal ranks pin span(shifted) = span(kern)
            shifted = prev + sigma(prev)
            check(ASCENT, eng.rank(shifted) == eng.rank(kern + shifted) == len(kern),
                  "kernel is not the span of the shifted old kernel", m - 1)
        elif prev_nu > nu >= 1:
            check(DESCENT, all(ends(v, m + 1) == (0, 0) for v in kern),
                  "descent-interior kernel vector touches an end", m - 1)
    return tally


def verify_exhaustive(n_max: int, q: int, *, budget: Optional[int] = None,
                      jobs: int = 1) -> Tuple[Report, Report]:
    """Rule and structure reports for every spec of order <= n_max, from
    one walk of the lex-least spec of each orbit of G.

    Child censuses and kernel predicates do not change under G, so each
    walked spec counts for its whole orbit and a failing orbit names its
    least member.  The rule report compares the census of every spec of
    order < n_max with the weight model, and checks the order-0 start
    over the q diagonal digits against the census the DP starts from.
    The structure report checks the four kernel-structure predicates on
    every qualifying step, on the engine's own representations; each
    orbit member of such a step whose lex index is a multiple of
    PREDICATE_CHECK_STRIDE, walked or not, is replayed through the public
    predicates, which must agree.  Each order's orbit sizes must add up
    to q^(2m+1).
    """
    _check_params(n_max, q, jobs)
    _require_budget(n_max, q, budget)
    tally = _run(_verify_scan, _Tally.merge, q, n_max, jobs)
    _check_sizes(q, tally.sizes)

    # the order-0 start: census of the first nullity over the q diagonal digits,
    # failing at the first root whose nullity is more frequent than expected
    eng, expected = engine(q), counting._start(q)
    nus = [1 - eng.rank(eng.rows((a0,), ())) for a0 in range(q)]
    census = Counter(nus)
    a0 = next((a0 for a0, nu in enumerate(nus) if census[nu] > expected.get(nu, 0)), 0)
    tally.record(START_RULE, dict(census) == expected, 0, a0,
                 f"start census {dict(census)} != expected {expected}")
    tally[START_RULE].expected_offsets = expected
    rules = _rule_report(tally)
    rules.checks[START_RULE] = tally[START_RULE]
    names = sorted((ENDS, ASCENT, PLATEAU_RUN, DESCENT))
    return rules, Report({name: tally[name] for name in names})
