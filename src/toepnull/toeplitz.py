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
each with one pivot loop that builds an echelon form row by row in a
list indexed by pivot lane, the pivot of a row being its highest
nonzero lane:

* 8-bit lanes modulo any prime q, where one ``bytes.translate`` maps
  every entry of a row at once, and
* a GF(2) fast path on 1-bit lanes, eliminating with word-wide xors.

Each keeps only its arithmetic, their base ``_Engine`` the rest, once
for both: :func:`engine` lists them, picks one per modulus, and every
caller goes through it.  Every method but ``rows`` takes a spec's rows,
built once, and entry tuples appear only at ``vectors`` and the public
functions.  Kernels are canonical: the unique reduced echelon basis,
rows ordered by pivot with leading entry 1, so equal subspaces compare
equal.  A kernel is read straight off the pivot loop's echelon,
canonical as it comes: no second elimination normalizes it.  The one
lowest-lane elimination left, ``gfq_rref`` behind the public
``canonical_vectors``, shares no loop with the engines: it is the
independent path the public kernel predicates replay on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, List, Sequence, Tuple, Union

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
    """Rank over GF(2) by xor elimination, pivot = highest set bit."""
    rows = list(rows)
    width = max(rows, default=0).bit_length()
    return width - _gf2_pivots(rows, width)[0].count(0)


def _gf2_pivots(rows: Iterable[int], width: int) -> Tuple[List[int], List[int]]:
    """The GF(2) pivot loop: echelon form of packed rows of ``width``
    bits, entry c the pivot row whose highest set bit is bit c, or 0 if
    there is none; and for each row in the order fed, the bit at which
    it made its pivot, or -1 if it reduced to 0."""
    piv, made = [0] * width, []
    for r in rows:
        while r:
            c = r.bit_length() - 1
            p = piv[c]
            if not p:
                piv[c] = r
                made.append(c)
                break
            r ^= p
        else:
            made.append(-1)
    return piv, made


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
    """Rank modulo q by lane elimination, pivot = highest nonzero lane.
    A row is a lane int or a sequence of digits in [0, q)."""
    lanes = [r if isinstance(r, int) else int.from_bytes(r, "little") for r in rows]
    w = max(lanes, default=0).bit_length() + 7 >> 3
    return w - _lane_pivots(lanes, q, w)[0].count(0)


def _lane_pivots(rows: Iterable[int], q: int, w: int) -> Tuple[List[int], List[int]]:
    """The byte-lane pivot loop: echelon form of lane rows of ``w`` lanes
    modulo q, entry c the pivot row whose highest nonzero lane is lane c,
    with entry 1 there, or 0 if there is none; and for each row in the
    order fed, the lane at which it made its pivot, or -1 if it reduced
    to 0."""
    sub, piv, made = _lane_tables(q), [0] * w, []
    for r in rows:
        while r:
            c = r.bit_length() - 1 >> 3
            f = r >> 8 * c & 255
            p = piv[c]
            if not p:
                piv[c] = int.from_bytes(r.to_bytes(w, "little").translate(sub[q + f]), "little")
                made.append(c)
                break
            r = int.from_bytes((r * q + p).to_bytes(w, "little").translate(sub[f]), "little")
        else:
            made.append(-1)
    return piv, made


def _lane_residual(v: int, echelon: Iterable[Tuple[int, int]], q: int, w: int) -> int:
    """``v`` reduced by (pivot lane, row) pairs in decreasing pivot order,
    each row with entry 1 at its pivot lane and 0 above it: 0 in every
    pivot lane, and 0 exactly when ``v`` lies in their span."""
    sub = _lane_tables(q)
    for c, row in echelon:
        if f := v >> 8 * c & 255:
            v = int.from_bytes((v * q + row).to_bytes(w, "little").translate(sub[f]), "little")
    return v


def gfq_rref(rows: List[int], q: int) -> Tuple[List[int], List[int]]:
    """Reduced echelon form of lane rows modulo q: the nonzero reduced
    rows ordered by pivot lane, and the matching pivot lanes.  Its own
    Gauss-Jordan loop, pivot = lowest nonzero lane, shares nothing with
    the engines' pivot loops, which it checks."""
    sub, w = _lane_tables(q), max(rows, default=0).bit_length() + 7 >> 3
    piv = {}  # pivot lane -> row with 1 there and 0 in every other pivot lane

    def minus(v: int, f: int, row: int) -> int:  # v - f row
        return int.from_bytes((v * q + row).to_bytes(w, "little").translate(sub[f]), "little")

    for r in rows:
        for c, row in piv.items():
            if f := r >> 8 * c & 255:
                r = minus(r, f, row)
        if r:
            c = (r & -r).bit_length() - 1 >> 3
            r = int.from_bytes(r.to_bytes(w, "little").translate(sub[q + (r >> 8 * c & 255)]),
                               "little")
            for k, row in piv.items():  # only rows with k < c are nonzero at c
                if f := row >> 8 * c & 255:
                    piv[k] = minus(row, f, r)
            piv[c] = r
    echelon = sorted(piv.items())
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
    lanes of packed vectors, and those built on the engine's own pivot
    loop ``_pivots`` and ``dot``."""

    q: int
    bits: int

    def kernel(self, rows: List[int]) -> Tuple[int, ...]:
        """Canonical kernel basis of a square matrix, read off the pivot
        loop's echelon, whose pivots are each row's highest nonzero lane.
        Free lane f gives the kernel vector with 1 at f and 0 at the
        other free lanes, its entry at each pivot lane c > f solved from
        row c, which is 1 at c and 0 above it; the lanes below f stay 0.
        So f is its lowest nonzero lane and, in order of f, these are the
        reduced echelon basis."""
        width, bits, q, dot = len(rows), self.bits, self.q, self.dot
        piv = self._pivots(rows, width)[0]
        echelon, basis = [(c, row) for c, row in enumerate(piv) if row], []
        for f in range(width):
            if not piv[f]:
                v = 1 << bits * f
                for c, row in echelon:
                    if c > f and (d := dot(row, v, width)):
                        v |= q - d << bits * c
                basis.append(v)
        return tuple(basis)

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
        n = len(rows) - 1
        made = [0] * (n + 1)  # made[m]: pivots in T_m but in no smaller trailing block
        for i, c in zip(range(n, -1, -1), self._pivots(reversed(rows), n + 1)[1]):
            if c >= 0:
                made[n - min(i, c)] += 1
        return tuple(m + 1 - rank for m, rank in enumerate(accumulate(made)))


class _PackedGF2(_Engine):
    """GF(2) on 1-bit lanes, eliminated by xor."""

    q, bits = 2, 1

    def rows(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        return gf2_pack_rows(a, b)

    def rank(self, rows: Sequence[int]) -> int:
        return gf2_rank(rows)

    def dot(self, u: int, v: int, width: int) -> int:
        return (u & v).bit_count() & 1

    def _pivots(self, rows: Iterable[int], width: int) -> Tuple[List[int], List[int]]:
        return _gf2_pivots(rows, width)

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
        # decreasing order clears every pivot bit, which leaves a residual
        # that is 0 exactly when the row lies in the tail's span
        piv = _gf2_pivots(tail, m + 2)[0]
        h0, h1, l0, l1 = head0, head1, last0, last1
        for c in range(m + 1, -1, -1):
            if p := piv[c]:
                top = 1 << c
                if h0 & top:
                    h0 ^= p
                if h1 & top:
                    h1 ^= p
                if l0 & top:
                    l0 ^= p
                if l1 & top:
                    l1 ^= p
        # rank of a child = rank of the tail + rank of its two residuals,
        # one less than their count of nonzeros when they are equal
        free = piv.count(0)
        return kids, [free - (h > 0) - (l > 0) + (h == l > 0)
                      for h in (h0, h1) for l in (l0, l1)]


@dataclass(frozen=True)
class _LaneGFq(_Engine):
    """GF(q) on 8-bit lanes, eliminated by ``bytes.translate``."""

    q: int
    bits = 8

    def rows(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        return [int.from_bytes(row, "little") for row in gfq_rows(a, b)]

    def rank(self, rows: Sequence[int]) -> int:
        return gfq_rank(rows, self.q)

    def dot(self, u: int, v: int, width: int) -> int:
        return sum((u * self.q + v).to_bytes(width, "little").translate(
            _lane_tables(self.q)[self.q])) % self.q

    def _pivots(self, rows: Iterable[int], width: int) -> Tuple[List[int], List[int]]:
        return _lane_pivots(rows, self.q, width)

    def children(self, rows: List[int]) -> Tuple[List[List[int]], List[int]]:
        m, q, w = len(rows) - 1, self.q, len(rows) + 1
        tail = [rows[i] << 8 | rows[i + 1] & 255 for i in range(m)]  # as in _PackedGF2
        heads = [rows[0] | a_new << 8 * w - 8 for a_new in range(q)]
        lasts = [rows[m] << 8 | b_new for b_new in range(q)]
        kids = [[head, *tail, last] for head in heads for last in lasts]
        # eliminate the shared tail once (as in _PackedGF2.children); a
        # residual is linear in the new digit, so two per end give all q
        piv = _lane_pivots(tail, q, w)[0]
        echelon = [(c, row) for c, row in enumerate(piv) if row][::-1]
        h0, h1, l0, l1 = (_lane_residual(v, echelon, q, w) for v in (*heads[:2], *lasts[:2]))
        hs, ls = _directions(h0, h1, q, w), _directions(l0, l1, q, w)
        # rank of a child = rank of the tail + rank of its two residuals
        free = piv.count(0)
        return kids, [free - (h > 0) - (l > 0) + (h == l > 0) for h in hs for l in ls]


@lru_cache(maxsize=None)
def engine(q: int) -> _Engine:
    """The elimination engine for GF(q), one cached instance per modulus:
    1-bit lanes at q = 2, 8-bit lanes otherwise.  This is the one place
    the representation is chosen.

    Each engine keeps its arithmetic: ``rows``, ``rank`` (from scratch;
    it only reads its rows), ``dot`` (of two rows: the parity of their
    common bits, or the lanewise product table), ``_pivots`` (its one
    pivot loop, ``_gf2_pivots`` or ``_lane_pivots``, pivot = highest
    nonzero lane) and the scans' hot loop ``children``, which inlines its
    xor or translate: shared per-operation hooks would add a call to
    every row operation there, and they saved no lines.  The base
    ``_Engine`` builds the rest on them: ``vectors`` (entry tuples),
    ``sigma`` (a zero prepended to every kernel vector; an appended one
    changes no packed int), ``ends`` (the first and last entry), and on
    ``_pivots`` the canonical ``kernel`` of a square matrix (with
    ``dot``) and ``prefix_nullities``.  Each of ``rank``, ``children``,
    ``kernel`` and ``prefix_nullities`` runs the pivot loop once.

    ``children`` gives the rows of the q^2 one-step extensions in
    (a_new, b_new) order, read off the parent's rows, and the nullity of
    each.  The children share all rows but the first and the last, so
    ``children`` eliminates those m rows once and reduces the q first-row
    and q last-row variants against them in decreasing pivot order: a
    child's rank is the shared rank plus the rank of its two residuals.
    That is exact elimination of the child's own rows, with O(m) work per
    child; ``enumeration`` re-checks a stride of children with ``rank``.

    ``prefix_nullities(rows)`` gives the nullity of T_0, ..., T_n from
    the rows of T_n, for ``nullity_string`` and for each ``sample_census``
    trial, which hands the same rows to ``children``.  It feeds rows n,
    ..., 0 once to the pivot loop and notes the lane c at which each row
    i made a pivot: the rank profile (Dumas, Pernet & Sultan, "Computing
    the rank profile matrix", ISSAC 2015), taken from the bottom-right
    corner.  By constant diagonals rows i..n cut to lanes i..n are
    T_{n-i}, and each pivot row is a combination of its own row and the
    rows fed before it, 0 above its lane, so the rank of T_m is the count
    of pivots with min(i, c) >= n - m: about one ``rank``'s work per
    string, O(n^3); ``rank`` of each truncated prefix is the from-scratch
    path the tests check it against.
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
