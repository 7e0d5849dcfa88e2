"""Toeplitz matrices over GF(q): construction, rank, kernels.

A spec of order n records the first row ``a = (a_0, ..., a_n)`` and the
first column below the diagonal ``b = (b_1, ..., b_n)``; entry (i, j)
of the (n+1) x (n+1) matrix is ``a[j-i]`` on or above the diagonal and
``b[i-j]`` below it.  Extending a spec appends one digit to each of
``a`` and ``b``, which embeds the old matrix in the top-left corner of
the new one (and, by constant diagonals, in the bottom-right corner
too).  The nullity string of a spec lists the kernel dimension of every
embedded prefix; the rank profile of one elimination of the whole
matrix gives all of them.

Two elimination engines implement the same exact arithmetic on rows
packed into one integer each, entry j in the lane at bit ``bits * j``,
building an echelon form row by row in a dict keyed by pivot column:

* 8-bit lanes modulo any prime q, where one ``bytes.translate`` maps
  every entry of a row at once, and
* a GF(2) fast path on 1-bit lanes, eliminating with word-wide xors.

Each keeps only its arithmetic, their base ``_Engine`` the rest, once
for both: :func:`engine` lists them, picks one per modulus, and every
caller goes through it.  Every method but ``rows`` takes a spec's rows,
built once, and entry tuples appear only at ``vectors`` and the public
functions.  Kernels and spans are canonical:
the unique reduced echelon basis, rows ordered by pivot with leading
entry 1, so equal subspaces compare equal.  A kernel is read straight
off one elimination whose pivots are the rows' highest nonzero lanes,
canonical as it comes: no second elimination normalizes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .field import DEFAULT_MAX_Q, PrimeField, element_value

Vector = Tuple[int, ...]


# ---------------------------------------------------------------------------
# packed GF(2) engine


def gf2_pack_rows(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Rows of the spec'd matrix as integers, bit j = column j."""
    n = len(a) - 1
    diagonals = sum(d << k for k, d in enumerate((*b[::-1], *a)))  # entry (i, j) is bit n + j - i
    return [diagonals >> n - i & (2 << n) - 1 for i in range(n + 1)]


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) by xor elimination, pivot = lowest set bit."""
    return len(_gf2_pivots(rows))


def _gf2_pivots(rows: Iterable[int], piv: Optional[dict] = None) -> dict:
    """Echelon form of packed rows, keyed by each row's lowest set bit,
    which no other row shares; given ``piv``, the rows extend it."""
    piv = {} if piv is None else piv
    for r in rows:
        while r:
            low = r & -r
            p = piv.get(low)
            if p is None:
                piv[low] = r
                break
            r ^= p
    return piv


def _gf2_top_pivots(rows: Sequence[int]) -> List[int]:
    """Echelon form of the packed rows of a square matrix: entry c is the
    row whose highest set bit is bit c, or 0 if there is none."""
    piv = [0] * len(rows)
    for r in rows:
        while r:
            c = r.bit_length() - 1
            p = piv[c]
            if not p:
                piv[c] = r
                break
            r ^= p
    return piv


def gf2_rref(rows: Iterable[int]) -> Tuple[List[int], List[int]]:
    """Reduced echelon form of packed rows.

    Returns (rows, pivots): nonzero reduced rows ordered by pivot column
    and the matching pivot column indices.
    """
    # bottom up, as in gfq_rref: clear from each row the pivot bits of the
    # reduced rows below it, each of which holds no other pivot bit
    done: List[Tuple[int, int]] = []
    for low, row in sorted(_gf2_pivots(rows).items(), reverse=True):
        for other_low, other in done:
            if row & other_low:
                row ^= other
        done.append((low, row))
    return [row for _, row in done[::-1]], [low.bit_length() - 1 for low, _ in done[::-1]]


# ---------------------------------------------------------------------------
# byte-lane engine, any prime modulus up to DEFAULT_MAX_Q: entries lie in
# [0, q) and q^2 <= 256, so byte j of u*q + v is u_j*q + v_j, no carry

assert DEFAULT_MAX_Q ** 2 < 256, "lanes of u*q + v would carry"


@lru_cache(maxsize=None)
def _lane_tables(q: int) -> Tuple[bytes, ...]:
    """Translate tables on the bytes u*q + v: table f < q gives (u - f v)
    mod q, table q gives u v mod q, table q + f gives v / f mod q at u = 0."""
    pairs = [divmod(x, q) for x in range(256)]  # bytes from q^2 on never occur
    return (*(bytes((u - f * v) % q for u, v in pairs) for f in range(q)),
            bytes(u * v % q for u, v in pairs),
            *(bytes(x * pow(f, -1, q) % q for x in range(256)) for f in range(1, q)))


def gfq_rows(a: Sequence[int], b: Sequence[int]) -> List[bytes]:
    """Rows of the spec'd matrix as bytes, entry j = byte j: digit rows
    for ``gfq_rank``, and the lanes of the engine's rows."""
    n = len(a) - 1
    diagonals = bytes(b[::-1]) + bytes(a)  # entry (i, j) is diagonals[n + j - i]
    return [diagonals[n - i:2 * n + 1 - i] for i in range(n + 1)]


def gfq_rank(rows: Iterable[Union[int, Sequence[int]]], q: int) -> int:
    """Rank modulo q by lane elimination, pivot = lowest nonzero lane.
    A row is a lane int or a sequence of digits in [0, q)."""
    return len(_lane_pivots([r if isinstance(r, int) else int.from_bytes(r, "little")
                             for r in rows], q))


def _lane_pivots(rows: Iterable[int], q: int, piv: Optional[dict] = None, w: int = 0) -> dict:
    """Echelon form of lane rows modulo q, keyed by each row's lowest
    nonzero lane, which no other row shares; the row has entry 1 there.
    Given ``piv``, the rows extend it, and ``w`` bytes must hold every
    row of both (the default fits the widest of ``rows``, a sequence)."""
    sub, w = _lane_tables(q), w or max(rows, default=0).bit_length() + 7 >> 3
    piv = {} if piv is None else piv
    for r in rows:
        while r:
            shift = (r & -r).bit_length() - 1 & ~7
            f, c = r >> shift & 255, shift >> 3
            if c not in piv:
                piv[c] = int.from_bytes(r.to_bytes(w, "little").translate(sub[q + f]), "little")
                break
            r = int.from_bytes((r * q + piv[c]).to_bytes(w, "little").translate(sub[f]), "little")
    return piv


def _lane_top_pivots(rows: Sequence[int], q: int) -> List[int]:
    """Echelon form of the lane rows of a square matrix modulo q: entry c
    is the row whose highest nonzero lane is lane c, with entry 1 there,
    or 0 if there is none."""
    sub, w = _lane_tables(q), len(rows)
    piv = [0] * w
    for r in rows:
        while r:
            c = r.bit_length() - 1 >> 3
            f = r >> 8 * c & 255
            p = piv[c]
            if not p:
                piv[c] = int.from_bytes(r.to_bytes(w, "little").translate(sub[q + f]), "little")
                break
            r = int.from_bytes((r * q + p).to_bytes(w, "little").translate(sub[f]), "little")
    return piv


def _lane_residual(v: int, echelon: Iterable[Tuple[int, int]], q: int, w: int) -> int:
    """``v`` reduced by (pivot lane, row) pairs in increasing pivot order,
    each row with entry 1 at its pivot lane and 0 below it: 0 in every
    pivot lane, and 0 exactly when ``v`` lies in their span."""
    sub = _lane_tables(q)
    for c, row in echelon:
        if f := v >> 8 * c & 255:
            v = int.from_bytes((v * q + row).to_bytes(w, "little").translate(sub[f]), "little")
    return v


def gfq_rref(rows: List[int], q: int) -> Tuple[List[int], List[int]]:
    """Reduced echelon form of lane rows modulo q: the nonzero reduced
    rows ordered by pivot lane, and the matching pivot lanes."""
    echelon = sorted(_lane_pivots(rows, q).items())
    w = max(rows, default=0).bit_length() + 7 >> 3
    for i in range(len(echelon) - 2, -1, -1):  # bottom up, by the reduced rows below
        c, row = echelon[i]
        echelon[i] = c, _lane_residual(row, echelon[i + 1:], q, w)
    return [row for _, row in echelon], [c for c, _ in echelon]


def _directions(r0: int, r1: int, q: int, w: int) -> List[int]:
    """For d = 0..q-1 the lane vector r0 + d (r1 - r0) scaled to leading
    entry 1, or 0 when it is 0; two vectors are dependent exactly when
    either is 0 or both are equal."""
    sub = _lane_tables(q)
    step = int.from_bytes((r1 * q + r0).to_bytes(w, "little").translate(sub[1]), "little")
    pair = (r0 * q + step).to_bytes(w, "little")  # step: r1 - r0 in every lane
    out = []
    for v in (pair.translate(sub[-d % q]) for d in range(q)):
        lead = v.lstrip(b"\0")[:1]
        out.append(int.from_bytes(v.translate(sub[q + lead[0]]), "little") if lead else 0)
    return out


def canonical_vectors(vectors: Iterable[Sequence[int]], q: int) -> Tuple[Vector, ...]:
    """The unique reduced-echelon basis of span(vectors), as entry tuples:
    two collections span the same subspace exactly when these are equal."""
    vectors = [bytes(v) for v in vectors]
    width = len(vectors[0]) if vectors else 0
    reduced = gfq_rref([int.from_bytes(v, "little") for v in vectors], q)[0]
    return tuple(tuple(row.to_bytes(width, "little")) for row in reduced)


# ---------------------------------------------------------------------------
# the engine seam: both representations behind one interface


class _Engine:
    """What both engines share: the methods that only read or move the
    lanes of packed vectors, built on the engine's own ``rref``, ``dot``
    and pivot loops."""

    q: int
    bits: int

    def kernel(self, rows: List[int]) -> Tuple[int, ...]:
        """Canonical kernel basis of a square matrix, read off one
        elimination whose pivots are each row's highest nonzero lane.
        Free lane f gives the kernel vector with 1 at f and 0 at the
        other free lanes, its entry at each pivot lane c > f solved from
        row c, which is 1 at c and 0 above it; the lanes below f stay 0.
        So f is its lowest nonzero lane and, in order of f, these are the
        reduced echelon basis."""
        piv, width, bits, q, dot = self._top_pivots(rows), len(rows), self.bits, self.q, self.dot
        echelon, basis = [(c, row) for c, row in enumerate(piv) if row], []
        for f in range(width):
            if not piv[f]:
                v = 1 << bits * f
                for c, row in echelon:
                    if c > f and (d := dot(row, v, width)):
                        v |= q - d << bits * c
                basis.append(v)
        return tuple(basis)

    def span(self, vectors: Sequence[int]) -> Tuple[int, ...]:
        return tuple(self.rref(list(vectors))[0])

    def vectors(self, kernel: Tuple[int, ...], width: int) -> Tuple[Vector, ...]:
        mask = (1 << self.bits) - 1
        return tuple(tuple(v >> shift & mask for shift in range(0, self.bits * width, self.bits))
                     for v in kernel)

    def sigma(self, kernel: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(v << self.bits for v in kernel)

    def ends(self, v: int, width: int) -> Tuple[int, int]:
        mask = (1 << self.bits) - 1
        return v & mask, v >> self.bits * (width - 1) & mask

    def prefix_nullities(self, rows: List[int]) -> Vector:
        made = [0] * len(rows)  # made[m]: pivots in T_m but in no smaller leading block
        for i, c in self._rank_profile(rows, len(rows)):
            made[max(i, c)] += 1
        return tuple(m + 1 - rank for m, rank in enumerate(accumulate(made)))

    def _rank_profile(self, rows: Sequence[int], width: int) -> List[Tuple[int, int]]:
        """(row, lane) of each pivot made by eliminating ``rows`` of
        ``width`` lanes in order in one call of the engine's own pivot
        loop: rows 0..i cut to lanes 0..k have as rank the count of pivots
        with row <= i and lane <= k, as each pivot row is its row minus
        earlier ones and is 0 below its pivot lane, the lane of its lowest
        set bit.  The loop asks for row i + 1 only once done with row i."""
        piv, made = {}, []  # the pivots, and the row that made each

        def fed():
            for i, r in enumerate(rows):
                yield r
                if len(piv) > len(made):
                    made.append(i)

        self._pivots(fed(), piv, width)
        return [(i, ((row & -row).bit_length() - 1) // self.bits)
                for i, row in zip(made, piv.values())]


class _PackedGF2(_Engine):
    """GF(2) on 1-bit lanes, eliminated by xor."""

    q, bits = 2, 1

    def rows(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        return gf2_pack_rows(a, b)

    def rank(self, rows: List[int]) -> int:
        return gf2_rank(rows)

    def rref(self, rows: List[int]) -> Tuple[List[int], List[int]]:
        return gf2_rref(rows)

    def dot(self, u: int, v: int, width: int) -> int:
        return (u & v).bit_count() & 1

    def _top_pivots(self, rows: List[int]) -> List[int]:
        return _gf2_top_pivots(rows)

    def children(self, rows: List[int]) -> Tuple[List[List[int]], List[int]]:
        m = len(rows) - 1
        # child row i + 1 is parent row i one column right, behind the b
        # digit that starts parent row i + 1
        tail = [(rows[i] << 1) | (rows[i + 1] & 1) for i in range(m)]
        head0, head1 = rows[0], rows[0] | 2 << m
        last0, last1 = rows[m] << 1, rows[m] << 1 | 1
        kids = [[head0, *tail, last0], [head0, *tail, last1],
                [head1, *tail, last0], [head1, *tail, last1]]
        # eliminate the shared tail once; reducing a row by its pivots in
        # increasing order clears every pivot bit, which leaves a residual
        # that is 0 exactly when the row lies in the tail's span
        piv = _gf2_pivots(tail)
        h0, h1, l0, l1 = head0, head1, last0, last1
        for low, p in sorted(piv.items()):
            if h0 & low:
                h0 ^= p
            if h1 & low:
                h1 ^= p
            if l0 & low:
                l0 ^= p
            if l1 & low:
                l1 ^= p
        # rank of a child = rank of the tail + rank of its two residuals,
        # one less than their count of nonzeros when they are equal
        free = m + 2 - len(piv)
        return kids, [free - (h > 0) - (l > 0) + (h == l > 0)
                      for h in (h0, h1) for l in (l0, l1)]

    def _pivots(self, rows: Iterable[int], piv: dict, width: int) -> None:
        _gf2_pivots(rows, piv)


@dataclass(frozen=True)
class _LaneGFq(_Engine):
    """GF(q) on 8-bit lanes, eliminated by ``bytes.translate``."""

    q: int
    bits = 8

    def rows(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        return [int.from_bytes(row, "little") for row in gfq_rows(a, b)]

    def rank(self, rows: List[int]) -> int:
        return gfq_rank(rows, self.q)

    def rref(self, rows: List[int]) -> Tuple[List[int], List[int]]:
        return gfq_rref(rows, self.q)

    def dot(self, u: int, v: int, width: int) -> int:
        return sum((u * self.q + v).to_bytes(width, "little").translate(
            _lane_tables(self.q)[self.q])) % self.q

    def _top_pivots(self, rows: List[int]) -> List[int]:
        return _lane_top_pivots(rows, self.q)

    def children(self, rows: List[int]) -> Tuple[List[List[int]], List[int]]:
        m, q, w = len(rows) - 1, self.q, len(rows) + 1
        tail = [rows[i] << 8 | rows[i + 1] & 255 for i in range(m)]  # as in _PackedGF2
        heads = [rows[0] | a_new << 8 * w - 8 for a_new in range(q)]
        lasts = [rows[m] << 8 | b_new for b_new in range(q)]
        kids = [[head, *tail, last] for head in heads for last in lasts]
        # eliminate the shared tail once (as in _PackedGF2.children); a
        # residual is linear in the new digit, so two per end give all q
        piv = sorted(_lane_pivots(tail, q).items())
        h0, h1, l0, l1 = (_lane_residual(v, piv, q, w) for v in (*heads[:2], *lasts[:2]))
        hs, ls = _directions(h0, h1, q, w), _directions(l0, l1, q, w)
        # rank of a child = rank of the tail + rank of its two residuals
        return kids, [m + 2 - len(piv) - (h > 0) - (l > 0) + (h == l > 0) for h in hs for l in ls]

    def _pivots(self, rows: Iterable[int], piv: dict, width: int) -> None:
        _lane_pivots(rows, self.q, piv, width)


@lru_cache(maxsize=None)
def engine(q: int) -> _Engine:
    """The elimination engine for GF(q), one cached instance per modulus:
    1-bit lanes at q = 2, 8-bit lanes otherwise.  This is the one place
    the representation is chosen.

    The base ``_Engine`` builds on ``rref`` what only reads or moves
    lanes: ``span``, ``vectors`` (entry tuples), ``sigma`` (a zero
    prepended to every kernel vector; an appended one changes no packed
    int) and ``ends`` (the first and last entry); on ``_pivots`` (the
    engine's pivot loop, extending an echelon by rows)
    ``prefix_nullities``; and on ``_top_pivots`` (one elimination keyed
    by each row's highest nonzero lane) and ``dot`` the canonical
    ``kernel`` of a square matrix, read straight off that elimination
    with no ``rref``.  Each engine keeps its arithmetic: ``rows``,
    ``rank`` (from scratch; it only reads its rows), ``rref``, ``dot``
    (of two rows: the parity of their common bits, or the lanewise
    product table), ``_pivots``, ``_top_pivots`` and the scans' hot loop
    ``children``, which inlines its xor or translate: shared
    per-operation hooks would add a call to every row operation there,
    and they saved no lines.

    ``children`` gives the rows of the q^2 one-step extensions in
    (a_new, b_new) order, read off the parent's rows, and the nullity of
    each.  The children share all rows but the first and the last, so
    ``children`` eliminates those m rows once and reduces the q first-row
    and q last-row variants against them: a child's rank is the shared
    rank plus the rank of its two residuals.  That is exact elimination
    of the child's own rows, with O(m) work per child; ``enumeration``
    re-checks a stride of children with ``rank``.

    ``prefix_nullities(rows)`` gives the nullity of T_0, ..., T_n from
    the rows of T_n, for ``nullity_string`` and for each ``sample_census``
    trial, which hands the same rows to ``children``.  It feeds the rows
    once, in order, to one ``_pivots`` call and notes the row i of each
    pivot made and its lane c, the pivot row's lowest nonzero one: the
    rank profile (Dumas, Pernet & Sultan, "Computing the rank profile
    matrix", ISSAC 2015).  Rows 0..m cut to lanes 0..m are T_m, the
    leading block of T_{m+1}, so its rank is the count of pivots with
    max(i, c) <= m: about one ``rank``'s work per string, O(n^3); ``rank``
    of each truncated prefix is the from-scratch path the tests check it
    against.
    """
    return _PackedGF2() if q == 2 else _LaneGFq(q)


# ---------------------------------------------------------------------------
# public data model


@dataclass(frozen=True)
class ToeplitzSpec:
    """Order-n recipe: first row ``a``, first column below the diagonal ``b``."""

    field: PrimeField
    a: Tuple[int, ...]
    b: Tuple[int, ...]

    def __post_init__(self) -> None:
        a = tuple(element_value(self.field, x) for x in self.a)
        b = tuple(element_value(self.field, x) for x in self.b)
        if len(a) < 1:
            raise ValueError("first row needs at least the diagonal entry")
        if len(b) != len(a) - 1:
            raise ValueError(
                f"column part must have one entry fewer than the row part, "
                f"got {len(a)} and {len(b)}"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def order(self) -> int:
        return len(self.a) - 1

    @property
    def size(self) -> int:
        """Row (and column) count of the materialized matrix."""
        return len(self.a)


# ---------------------------------------------------------------------------
# operations


def rank_nullity(spec: ToeplitzSpec) -> Tuple[int, int]:
    """(rank, nullity) of the materialized matrix, by exact elimination."""
    eng = engine(spec.field.q)
    rank = eng.rank(eng.rows(spec.a, spec.b))
    return rank, spec.size - rank


def kernel_basis(spec: ToeplitzSpec) -> Tuple[Vector, ...]:
    """Canonical kernel basis of the materialized matrix as entry tuples:
    reduced echelon rows ordered by pivot."""
    eng = engine(spec.field.q)
    return eng.vectors(eng.kernel(eng.rows(spec.a, spec.b)), spec.size)


def extend(spec: ToeplitzSpec, b_new: int, a_new: int) -> ToeplitzSpec:
    """One-step embedding: append ``a_new`` to the row, ``b_new`` to the column."""
    return ToeplitzSpec(field=spec.field, a=spec.a + (a_new,), b=spec.b + (b_new,))


def truncate(spec: ToeplitzSpec) -> ToeplitzSpec:
    """Drop the last digit of each part, undoing one extension."""
    if spec.order == 0:
        raise ValueError("an order-0 spec has no shorter prefix")
    return ToeplitzSpec(field=spec.field, a=spec.a[:-1], b=spec.b[:-1])


def nullity_string(spec: ToeplitzSpec) -> Vector:
    """Nullity of every embedded prefix, order 0 through order n.

    Read off the rank profile of one elimination of the whole matrix
    (``prefix_nullities`` of :func:`engine`), at O(n^3) for the string.
    ``rank_nullity`` of each truncated prefix is its from-scratch check.
    """
    eng = engine(spec.field.q)
    return eng.prefix_nullities(eng.rows(spec.a, spec.b))
