"""Counting specs by nullity: transition model, dynamic program, closed forms.

The walk of nullity values along an embedding chain is Markov in the
terminal pair (previous nullity, current nullity).  For each pair class
the census of the q^2 one-step extensions is fixed:

    class            pair              census of next nullity
    zero_zero        (0, 0)            0: q^2 - q + 1    1: q - 1
    one_zero         (1, 0)            0: q^2 - q        1: q
    ascending        (d - 1, d)        d+1: 1   d: 2q - 2   d-1: (q - 1)^2
    plateau          (d, d), d >= 1    d: q     d-1: q^2 - q
    descending       (d, d - 1), d>=2  d-2: q^2

Every row sums to q^2.  ``_census`` is this table, the one written
census: the weight DP, ``count_string``, the string grammar (the steps
with a positive count) and the ``enumeration`` scans all read it.
Summing products of these weights over the order-0 start (q - 1
invertible 1 x 1 matrices in state (0, 0), one zero matrix in state
(0, 1), a virtual nullity 0 in front) counts specs exactly; the
``enumeration`` module validates that claim wholesale.  The DP is one
pass over three lists indexed by the current nullity d, the masses of
(d - 1, d), (d, d) and (d + 1, d); every order-based count reads off
that pass.

Everything here is exact integer arithmetic; counts get large fast and
stay correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Dict, Iterator, List, Sequence, Tuple

from .field import is_prime


class RuleClass(Enum):
    """The five terminal-pair classes with distinct extension censuses."""

    ZERO_ZERO = "zero_zero"
    ONE_ZERO = "one_zero"
    ASCENDING = "ascending"
    PLATEAU = "plateau"
    DESCENDING = "descending"


@dataclass(frozen=True)
class PairState:
    """Terminal pair (previous nullity, current nullity) of a spec.

    For an order-0 spec the previous nullity is the virtual value 0.
    """

    prev: int
    cur: int

    def __post_init__(self) -> None:
        for v in (self.prev, self.cur):
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"nullities are nonnegative integers, got {v!r}")
        if abs(self.cur - self.prev) > 1:
            raise ValueError(
                f"consecutive nullities differ by at most 1, got {self.prev, self.cur}"
            )

    @property
    def rule_class(self) -> RuleClass:
        return _rule_class(self.prev, self.cur)


def _rule_class(prev: int, cur: int) -> RuleClass:
    # the one case split over pairs, unchecked: the grammar hands it anything
    if cur == prev + 1:
        return RuleClass.ASCENDING
    if cur == 0:
        return RuleClass.ZERO_ZERO if prev == 0 else RuleClass.ONE_ZERO
    if cur == prev:
        return RuleClass.PLATEAU
    return RuleClass.DESCENDING


def _check_modulus(q: int) -> None:
    if not isinstance(q, int) or isinstance(q, bool) or not is_prime(q):
        raise ValueError(f"modulus must be a prime integer, got {q!r}")


def _census(q: int) -> Dict[RuleClass, Tuple[Tuple[int, int], ...]]:
    """The census table above: per pair class, (step from the current
    nullity, count) pairs over the q^2 one-step extensions; unchecked."""
    return {
        RuleClass.ZERO_ZERO: ((0, q * q - q + 1), (1, q - 1)),
        RuleClass.ONE_ZERO: ((0, q * q - q), (1, q)),
        RuleClass.ASCENDING: ((1, 1), (0, 2 * q - 2), (-1, (q - 1) ** 2)),
        RuleClass.PLATEAU: ((0, q), (-1, q * q - q)),
        RuleClass.DESCENDING: ((-1, q * q),),
    }


def transition_weights(state: PairState, q: int) -> Tuple[Tuple[int, int], ...]:
    """Census over the q^2 one-step extensions as (next nullity, count) pairs."""
    _check_modulus(q)
    return tuple((state.cur + step, w) for step, w in _census(q)[state.rule_class])


@lru_cache(maxsize=4096)
def _allowed_next(prev: int, cur: int) -> Tuple[int, ...]:
    """Values that may follow the pair (prev, cur), after a virtual (0, 0):
    its census row's steps with a positive count, the same at every q.
    Unchecked, as validators ask; plain ints even for (0, True) or (0, 1.0)."""
    return tuple(int(cur) + step for step, w in _census(2)[_rule_class(prev, cur)] if w)


# ---------------------------------------------------------------------------
# dynamic program over pair states

# The grammar leaves three pairs per current nullity d: (d - 1, d), (d, d)
# and (d + 1, d).  A distribution holds their masses in three lists of one
# length, indexed by d: ascending, flat and descending.
Dist = Tuple[List[int], List[int], List[int]]


def _walk(dist: Dist, q: int, steps: int, positive: bool = False) -> Iterator[Dist]:
    """``dist`` and the distribution after each of ``steps`` steps, in turn;
    with ``positive`` the walk drops every step to nullity 0."""
    # the ten nonzero cells of the table, its rows in RuleClass order, keyed by step
    zz, oz, rise, plat, fall = map(dict, _census(q).values())
    zz_up, zz_flat, oz_up, oz_flat, up = zz[1], zz[0], oz[1], oz[0], rise[1]
    a_flat, a_down, p_flat, p_down, d_down = rise[0], rise[-1], plat[0], plat[-1], fall[-1]
    yield dist
    for _ in range(steps):
        asc, flat, desc = dist
        dist = ([0, flat[0] * zz_up + desc[0] * oz_up] + [a * up for a in asc[1:]],
                [flat[0] * zz_flat + desc[0] * oz_flat]
                + [a * a_flat + f * p_flat for a, f in zip(asc[1:], flat[1:])] + [0],
                [a * a_down + f * p_down + d * d_down
                 for a, f, d in zip(asc[1:], flat[1:], desc[1:])] + [0, 0])
        if positive:
            dist[1][0] = dist[2][0] = 0
        yield dist


def _last(walk: Iterator[Dist]) -> Dist:
    for dist in walk:
        pass
    return dist


def _row(dist: Dist, m: int) -> Tuple[int, ...]:
    asc, flat, desc = dist
    return tuple(asc[d] + flat[d] + desc[d] for d in range(m + 2))


def _to_zero(dist: Dist, q: int) -> int:
    """Mass that steps from ``dist`` to nullity 0: one step of its part
    at nullity 0 and 1, the only part that can get there."""
    _, flat, desc = _last(_walk(tuple(masses[:2] for masses in dist), q, 1))
    return flat[0] + desc[0]


def _start(q: int) -> Dict[int, int]:
    """The order-0 start census, by nullity: a_0 != 0 gives 0, a_0 == 0
    gives 1.  The DP starts from it and the exhaustive scan checks it."""
    return {0: q - 1, 1: 1}


def _orders(n: int, q: int) -> Iterator[Dist]:
    """The distributions of orders 0..n, from the order-0 start, each
    nullity after a virtual 0."""
    _check_modulus(q)
    if n < 0:
        raise ValueError("order must be nonnegative")
    start = _start(q)
    return _walk(([0, start[1]], [start[0], 0], [0, 0]), q, n)


def state_distribution(n: int, q: int) -> Dict[PairState, int]:
    """How many order-n specs end in each terminal pair, per the model."""
    return {PairState(d - rise, d): mass
            for rise, masses in zip((1, 0, -1), _last(_orders(n, q)))
            for d, mass in enumerate(masses) if mass}


@dataclass(frozen=True)
class CountTable:
    """N(m, nu) for 0 <= m <= n: row m holds counts for nu = 0 .. m+1."""

    q: int
    counts: Tuple[Tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.counts) - 1

    def row(self, m: int) -> Tuple[int, ...]:
        return self.counts[m]

    def count(self, m: int, nu: int) -> int:
        if not 0 <= m <= self.n:
            raise ValueError(f"order {m} outside this table (0..{self.n})")
        if not 0 <= nu <= m + 1:
            raise ValueError(f"nullity {nu} impossible at order {m}")
        return self.counts[m][nu]


def count_table(n: int, q: int) -> CountTable:
    """Counts of order-m specs by nullity for all m <= n, by the weight DP."""
    return CountTable(q=q, counts=tuple(_row(d, m) for m, d in enumerate(_orders(n, q))))


def rank_spectrum(n: int, q: int) -> Dict[int, int]:
    """Counts of order-n specs by rank, highest rank first."""
    row = _row(_last(_orders(n, q)), n)
    return {n + 1 - nu: row[nu] for nu in range(n + 2)}


def _split(dist: Dist) -> Tuple[int, int]:
    return dist[1][0], dist[2][0]


def theta_eta(n: int) -> Tuple[int, int]:
    """(theta, eta): the order-n GF(2) specs ending in the pairs (0, 0) and
    (1, 0), which split the invertible count, from the DP."""
    if n < 1:
        raise ValueError("terminal-pair split needs order >= 1")
    return _split(_last(_orders(n, 2)))


# ---------------------------------------------------------------------------
# weighted string counting


def count_string(start: PairState, values: Sequence[int], q: int) -> int:
    """Number of extension chains realizing ``values`` from a ``start`` pair.

    ``values`` restates the current nullity as its first entry (matching
    how tent strings are usually written) and continues with the
    proposed successors; each successor multiplies in its census weight.
    An empty ``values`` counts the base spec itself: 1.

    Raises ValueError when the string does not start at ``start.cur`` or
    takes a step the grammar forbids; the message names the position.
    """
    _check_modulus(q)
    vals = list(values)
    if not vals:
        return 1
    if vals[0] != start.cur:
        raise ValueError(f"position 0: string starts at {vals[0]}, state is at {start.cur}")
    table = _census(q)
    state = start
    total = 1
    for pos in range(1, len(vals)):
        v = vals[pos]
        weight = next((w for step, w in table[state.rule_class]
                       if state.cur + step == v), None)
        if weight is None:
            raise ValueError(f"position {pos}: step {state.cur} -> {v} is not grammar-legal")
        total *= weight
        state = PairState(state.cur, v)
    return total


# ---------------------------------------------------------------------------
# all-positive walks


def positive_excursion_count(n: int, q: int) -> int:
    """Weighted count of length-n excursions: nullity 1 at the start,
    positive throughout, back to 0 exactly at step n."""
    _check_modulus(q)
    if n < 1:
        raise ValueError("an excursion needs at least one step")
    return _to_zero(_last(_walk(([0, 1], [0, 0], [0, 0]), q, n - 1, positive=True)), q)


def nullity1_structured_count(n: int) -> int:
    """Order-n GF(2) specs of nullity 1 whose whole nullity string stays
    positive."""
    if n < 1:
        raise ValueError("needs order >= 1")
    return _row(_last(_walk(([0, 1], [0, 0], [0, 0]), 2, n, positive=True)), n)[1]


def _strings(max_len: int, positive: bool = False) -> Iterator[Tuple[int, ...]]:
    """Every grammar-valid string of 1 to ``max_len`` values, with
    ``positive`` only those whose values are all positive: depth first
    from the virtual pair (0, 0), successor values ascending."""

    def walk(prefix: Tuple[int, ...], prev: int, cur: int) -> Iterator[Tuple[int, ...]]:
        if prefix:
            yield prefix
        if len(prefix) < max_len:
            for nxt in sorted(v for v in _allowed_next(prev, cur) if v or not positive):
                yield from walk(prefix + (nxt,), cur, nxt)

    return walk((), 0, 0)


def iter_positive_strings(length: int) -> Iterator[Tuple[int, ...]]:
    """All grammar-valid strings of exactly ``length`` values with every
    value positive (so they start at 1).  Depth-first, ascending."""
    return (s for s in _strings(length, positive=True) if len(s) == length)


def positive_string_counts(m: int, k: int) -> int:
    """P(m, k): all-positive strings of length m + 1 ending at k.

    Counted by explicitly enumerating the strings, not by weights, so it
    is an independent companion to the weighted counts above.
    """
    if m < 0:
        raise ValueError("length index must be nonnegative")
    if k < 1:
        raise ValueError("an all-positive string cannot end below 1")
    return sum(1 for s in iter_positive_strings(m + 1) if s[-1] == k)


# ---------------------------------------------------------------------------
# closed forms, over GF(2) unless they take q


def closed_theta(n: int) -> int:
    """(2^(2n+1) + 1) / 3, the closed form for the (0, 0) terminal count."""
    if n < 1:
        raise ValueError("closed form defined for n >= 1")
    value, rem = divmod(2 ** (2 * n + 1) + 1, 3)
    assert rem == 0
    return value


def closed_eta(n: int) -> int:
    """(2^(2n) - 1) / 3, the closed form for the (1, 0) terminal count."""
    if n < 1:
        raise ValueError("closed form defined for n >= 1")
    value, rem = divmod(2 ** (2 * n) - 1, 3)
    assert rem == 0
    return value


def closed_nullity1(n: int) -> int:
    """(n + 3) * 2^(n-2), the closed form for ``nullity1_structured_count``."""
    if n < 1:
        raise ValueError("closed form defined for n >= 1")
    return (n + 3) * 2**n // 4


def closed_excursions(n: int) -> int:
    """n * 2^(n-1), the closed form for ``positive_excursion_count(n, 2)``."""
    if n < 1:
        raise ValueError("closed form defined for n >= 1")
    return n * 2 ** (n - 1)


def invertible_formula(n: int) -> int:
    """Summed-up count of invertible order-n GF(2) specs.

    Assembles the invertible count from first-singularity positions and
    the theta/eta closed forms; must reproduce 4^n.
    """
    if n < 2:
        raise ValueError("formula defined for n >= 2")
    total = n * 2 ** (n - 1) + (n - 1) * 2 ** (n - 2)
    for j in range(1, n - 1):
        total += (closed_theta(j) + 2 * closed_eta(j)) * ((n - 1) - j) * 2 ** (n - 2 - j)
    total += 3 * closed_theta(n - 1) + 2 * closed_eta(n - 1)
    return total


def nullity_count_closed(n: int, k: int, q: int = 2) -> int:
    """Closed-form N(n, k) over GF(q) (Daykin 1960): (q - 1) q^(2n)
    invertible, (q^2 - 1) q^(2(n-k)) for nullity 1 <= k <= n, and exactly
    one spec (all zeros) of nullity n+1."""
    _check_modulus(q)
    if n < 0:
        raise ValueError("order must be nonnegative")
    if not 0 <= k <= n + 1:
        raise ValueError(f"nullity {k} impossible at order {n}")
    if k == 0:
        return (q - 1) * q ** (2 * n)
    if k == n + 1:
        return 1
    return (q * q - 1) * q ** (2 * (n - k))


def battery_rows(n: int) -> List[Tuple[Tuple[int, ...], Tuple[int, int], int, int]]:
    """For m = 1..n: ``count_table(m, 2).row(m)``, ``theta_eta(m)``,
    ``nullity1_structured_count(m)`` and ``positive_excursion_count(m, 2)``, read
    off one pass of each walk: O(n^2) steps where per-order calls take O(n^3)."""
    if n < 1:
        raise ValueError("needs order >= 1")
    full, positive = _orders(n, 2), _walk(([0, 1], [0, 0], [0, 0]), 2, n, positive=True)
    next(full)
    rows, before = [], next(positive)
    for m, dist, pos in zip(range(1, n + 1), full, positive):
        rows.append((_row(dist, m), _split(dist), _row(pos, m)[1], _to_zero(before, 2)))
        before = pos
    return rows
