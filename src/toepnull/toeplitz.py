"""Toeplitz matrices over GF(q): construction, rank, kernels.

A spec of order n records the first row ``a = (a_0, ..., a_n)`` and the
first column below the diagonal ``b = (b_1, ..., b_n)``; entry (i, j)
of the (n+1) x (n+1) matrix is ``a[j-i]`` on or above the diagonal and
``b[i-j]`` below it.  Extending a spec appends one digit to each of
``a`` and ``b``, which embeds the old matrix in the top-left corner of
the new one (and, by constant diagonals, in the bottom-right corner
too).  The nullity string of a spec lists the kernel dimension of every
embedded prefix; one elimination, bordered by a row and a column per
order, gives all of them.

Two elimination engines implement the same exact arithmetic, each
building an echelon form row by row in a dict keyed by pivot column:

* dense row lists modulo any prime q, and
* a GF(2) fast path packing each row into one integer, least
  significant bit = column 0, eliminating with word-wide xors.

:func:`engine` picks one of them for a modulus and puts both behind one
interface, which every caller here and in ``enumeration`` goes through.
Both reduce kernels to the same canonical form: the unique reduced
echelon basis with leading entry 1 at the lowest possible index and
rows ordered by pivot.  Equal subspaces therefore compare equal as
plain tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .field import PrimeField, element_value

Vector = Tuple[int, ...]


# ---------------------------------------------------------------------------
# packed GF(2) engine


def gf2_pack_rows(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Rows of the spec'd matrix as integers, bit j = column j."""
    n = len(a) - 1
    rows = []
    for i in range(n + 1):
        bits = 0
        for j in range(n + 1):
            e = a[j - i] if j >= i else b[i - j - 1]
            if e:
                bits |= 1 << j
        rows.append(bits)
    return rows


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) by xor elimination, pivot = lowest set bit."""
    return len(_gf2_pivots(rows))


def _gf2_pivots(rows: Iterable[int]) -> dict:
    """Echelon form of packed rows, keyed by each row's lowest set bit,
    which no other row shares."""
    piv: dict = {}
    for r in rows:
        while r:
            low = r & -r
            p = piv.get(low)
            if p is None:
                piv[low] = r
                break
            r ^= p
    return piv


def gf2_rref(rows: Iterable[int]) -> Tuple[List[int], List[int]]:
    """Reduced echelon form of packed rows.

    Returns (rows, pivots): nonzero reduced rows ordered by pivot column
    and the matching pivot column indices.
    """
    piv = _gf2_pivots(rows)
    # clear every pivot bit from the other rows, highest pivot first
    for low in sorted(piv, reverse=True):
        row = piv[low]
        for other_low in piv:
            if other_low < low and piv[other_low] & low:
                piv[other_low] ^= row
    lows = sorted(piv)
    return [piv[low] for low in lows], [low.bit_length() - 1 for low in lows]


def gf2_nullspace(rows: Iterable[int], width: int) -> List[int]:
    """Canonical packed kernel basis of a matrix with ``width`` columns."""
    reduced, pivots = gf2_rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        v = 1 << free
        probe = 1 << free
        for i, p in enumerate(pivots):
            if reduced[i] & probe:
                v |= 1 << p
        basis.append(v)
    # the free-column basis is not echelon in general; normalize it
    canonical, _ = gf2_rref(basis)
    return canonical


def unpack_bits(bits: int, width: int) -> Vector:
    """Packed row back to an entry tuple."""
    return tuple((bits >> j) & 1 for j in range(width))


# ---------------------------------------------------------------------------
# generic engine, any prime modulus


def gfq_rows(a: Sequence[int], b: Sequence[int]) -> List[List[int]]:
    """Dense rows of the spec'd matrix."""
    n = len(a) - 1
    return [
        [a[j - i] if j >= i else b[i - j - 1] for j in range(n + 1)]
        for i in range(n + 1)
    ]


def gfq_rank(rows: Iterable[Sequence[int]], q: int) -> int:
    """Rank modulo q by elimination, pivot = first nonzero column."""
    return len(_gfq_pivots(rows, q))


def _gfq_residual(v: Sequence[int], echelon: Iterable[Tuple[int, List[int]]],
                  q: int) -> Sequence[int]:
    """``v`` reduced by echelon rows, given as (pivot column, row) pairs
    whose row has entry 1 at its pivot column and 0 at the pivot columns
    of the pairs before it: 0 in every pivot column, and 0 everywhere
    exactly when ``v`` lies in their span."""
    for c, row in echelon:
        f = v[c]
        if f:
            v = [(x - f * y) % q for x, y in zip(v, row)]
    return v


def _gfq_pivots(rows: Iterable[Sequence[int]], q: int) -> dict:
    """Echelon form of dense rows modulo q, keyed by each row's pivot
    column: the row has entry 1 there and 0 before it and at the pivot
    columns stored before it, as ``_gfq_residual`` takes them.  Reads
    ``rows`` without changing them."""
    piv: dict = {}
    for r in rows:
        r = _gfq_residual(r, piv.items(), q)
        c = next(filter(r.__getitem__, range(len(r))), None)
        if c is not None:
            inv = pow(r[c], q - 2, q)
            piv[c] = [x * inv % q for x in r]
    return piv


def gfq_rref(rows: Iterable[Sequence[int]], q: int) -> Tuple[List[List[int]], List[int]]:
    """Reduced row echelon form modulo q.

    Returns (rows, pivots): the nonzero reduced rows ordered by pivot
    column and the matching pivot columns.  Does not modify the input.
    """
    echelon = sorted(_gfq_pivots(rows, q).items())
    # bottom up, reduce each row by the already reduced rows below it
    for i in range(len(echelon) - 2, -1, -1):
        c, row = echelon[i]
        echelon[i] = c, _gfq_residual(row, echelon[i + 1:], q)
    return [row for _, row in echelon], [c for c, _ in echelon]


def gfq_nullspace(rows: Sequence[Sequence[int]], q: int) -> List[Vector]:
    """Kernel basis from the reduced echelon form (one vector per free column)."""
    ncols = len(rows[0]) if rows else 0
    reduced, pivots = gfq_rref(rows, q)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for i, p in enumerate(pivots):
            v[p] = (-reduced[i][free]) % q
        basis.append(tuple(v))
    return basis


def _directions(r0: List[int], r1: List[int], q: int) -> List[Optional[Vector]]:
    """For d = 0..q-1 the vector r0 + d (r1 - r0) scaled to leading entry
    1, or None when it is 0; two vectors are dependent exactly when
    either is None or both are equal."""
    out: List[Optional[Vector]] = []
    for d in range(q):
        v = [(x + d * (y - x)) % q for x, y in zip(r0, r1)]
        lead = next((x for x in v if x), 0)
        if lead:
            inv = pow(lead, q - 2, q)
            out.append(tuple(x * inv % q for x in v))
        else:
            out.append(None)
    return out


def canonical_vectors(vectors: Iterable[Sequence[int]], q: int) -> Tuple[Vector, ...]:
    """The unique reduced-echelon basis of span(vectors).

    Two collections span the same subspace exactly when their canonical
    forms are equal, so subspace comparison is tuple comparison.
    """
    return tuple(tuple(row) for row in gfq_rref(vectors, q)[0])


# ---------------------------------------------------------------------------
# the engine seam: both representations behind one interface


class _PackedGF2:
    """GF(2) on bit-packed rows; kernels are tuples of packed vectors."""

    def rows(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        return gf2_pack_rows(a, b)

    def rank(self, rows: List[int]) -> int:
        return gf2_rank(rows)

    def kernel(self, rows: List[int]) -> Tuple[int, ...]:
        return tuple(gf2_nullspace(rows, len(rows)))

    def vectors(self, kernel: Tuple[int, ...], width: int) -> Tuple[Vector, ...]:
        return tuple(unpack_bits(v, width) for v in kernel)

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

    def prefix_nullities(self, a: Sequence[int], b: Sequence[int]) -> Vector:
        piv: dict = {}  # lowest set bit -> reduced row of E, as in _gf2_pivots
        ops: dict = {}  # lowest set bit -> its row of U, bit i for row i of T
        zeros: List[int] = []  # rows of U whose row of E is 0
        col = row = 0  # column m above the diagonal, row m left of it
        out = []
        for m in range(len(a)):
            if m:
                col, row = col << 1 | a[m], row << 1 | b[m - 1]
            new = 1 << m
            # the new column: row i of E gains U_i . col
            for low, u in ops.items():
                if (u & col).bit_count() & 1:
                    piv[low] |= new
            # the first zero row that gains a 1 there becomes its pivot,
            # and is added to every other one that does
            keep, rest = None, []
            for u in zeros:
                if (u & col).bit_count() & 1:
                    if keep is None:
                        keep = ops[new] = u
                        piv[new] = new
                        continue
                    u ^= keep
                rest.append(u)
            zeros = rest
            # the new row, with U row e_m, reduced by the pivots
            e, u = row | a[0] << m, new
            while e:
                low = e & -e
                p = piv.get(low)
                if p is None:
                    piv[low], ops[low] = e, u
                    break
                e ^= p
                u ^= ops[low]
            else:
                zeros.append(u)
            out.append(len(zeros))
        return tuple(out)

    def omega(self, kernel: Tuple[int, ...]) -> Tuple[int, ...]:
        return kernel  # an appended zero sets no bit

    def sigma(self, kernel: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(v << 1 for v in kernel)

    def span(self, vectors: Sequence[int]) -> Tuple[int, ...]:
        return tuple(gf2_rref(vectors)[0])

    def ends(self, v: int, width: int) -> Tuple[int, int]:
        return v & 1, (v >> (width - 1)) & 1


class _DenseGFq:
    """GF(q) on dense row lists; kernels are tuples of entry tuples."""

    def __init__(self, q: int) -> None:
        self.q = q

    def rows(self, a: Sequence[int], b: Sequence[int]) -> List[List[int]]:
        return gfq_rows(a, b)

    def rank(self, rows: List[List[int]]) -> int:
        return gfq_rank(rows, self.q)

    def kernel(self, rows: List[List[int]]) -> Tuple[Vector, ...]:
        return canonical_vectors(gfq_nullspace(rows, self.q), self.q)

    def vectors(self, kernel: Tuple[Vector, ...], width: int) -> Tuple[Vector, ...]:
        return kernel

    def children(self, rows: List[List[int]]) -> Tuple[List[List[List[int]]], List[int]]:
        m, q = len(rows) - 1, self.q
        tail = [[rows[i + 1][0], *rows[i]] for i in range(m)]  # as in _PackedGF2
        heads = [[*rows[0], a_new] for a_new in range(q)]
        lasts = [[b_new, *rows[m]] for b_new in range(q)]
        kids = [[head, *tail, last] for head in heads for last in lasts]
        # eliminate the shared tail once (as in _PackedGF2.children); a
        # residual is linear in the new digit, so two per end give all q
        piv = _gfq_pivots(tail, q)
        free = [c for c in range(m + 2) if c not in piv]
        residuals = [_gfq_residual(v, piv.items(), q)
                     for v in (heads[0], heads[1], lasts[0], lasts[1])]
        # residuals vanish in the pivot columns, so the free ones hold them
        h0, h1, l0, l1 = ([r[c] for c in free] for r in residuals)
        hs, ls = _directions(h0, h1, q), _directions(l0, l1, q)
        # rank of a child = rank of the tail + rank of its two residuals
        return kids, [len(free) - (h is not None) - (l is not None) + (h is not None and h == l)
                      for h in hs for l in ls]

    def prefix_nullities(self, a: Sequence[int], b: Sequence[int]) -> Vector:
        q = self.q
        # pivot column -> (row of E, row of U), in the order _gfq_residual
        # takes them; a row of U may be short, its missing entries are 0.
        # A U row made at order k has k + 1 entries, and the zero rows stay
        # in the order they were made, so a row is never shorter than the
        # earlier zero row or pivot row subtracted from it below
        piv: dict = {}
        zeros: List[List[int]] = []  # rows of U whose row of E is 0
        out = []
        for m in range(len(a)):
            col = a[m:0:-1]  # column m above the diagonal
            # the new column: row i of E gains U_i . col
            for e, u in piv.values():
                e.append(sum(map(mul, u, col)) % q)
            # the first zero row that gains a nonzero entry there, scaled
            # to 1, becomes its pivot and clears it from the other ones
            keep, rest = None, []
            for u in zeros:
                f = sum(map(mul, u, col)) % q
                if f:
                    if keep is None:
                        inv = pow(f, q - 2, q)
                        keep = [x * inv % q for x in u]
                        piv[m] = [0] * m + [1], keep
                        continue
                    u[:len(keep)] = [(x - f * y) % q for x, y in zip(u, keep)]
                rest.append(u)
            zeros = rest
            # the new row, with U row e_m, reduced by the pivots
            e, u = [*b[:m][::-1], a[0]], [0] * m + [1]
            for p, (erow, urow) in piv.items():
                f = e[p]
                if f:
                    e = [(x - f * y) % q for x, y in zip(e, erow)]
                    u[:len(urow)] = [(x - f * y) % q for x, y in zip(u, urow)]
            c = next(filter(e.__getitem__, range(m + 1)), None)
            if c is None:
                zeros.append(u)
            else:
                inv = pow(e[c], q - 2, q)
                piv[c] = [x * inv % q for x in e], [x * inv % q for x in u]
            out.append(len(zeros))
        return tuple(out)

    def omega(self, kernel: Tuple[Vector, ...]) -> Tuple[Vector, ...]:
        return tuple(v + (0,) for v in kernel)

    def sigma(self, kernel: Tuple[Vector, ...]) -> Tuple[Vector, ...]:
        return tuple((0,) + v for v in kernel)

    def span(self, vectors: Sequence[Vector]) -> Tuple[Vector, ...]:
        return canonical_vectors(vectors, self.q)

    def ends(self, v: Vector, width: int) -> Tuple[int, int]:
        return v[0], v[-1]


_PACKED = _PackedGF2()


def engine(q: int) -> Union[_PackedGF2, _DenseGFq]:
    """The elimination engine for GF(q): packed rows at q = 2, dense rows
    otherwise.  This is the one place the representation is chosen.

    ``rank`` eliminates its rows from scratch and only reads them;
    ``kernel`` is canonical, in the engine's own vector form
    (``vectors`` gives entry tuples); ``children`` gives the rows of the
    q^2 one-step extensions in (a_new, b_new) order, read off the
    parent's rows, and the nullity of each.  The children share all rows
    but the first and the last, so ``children`` eliminates those m rows
    once and reduces the q first-row and q last-row variants against
    them: a child's rank is the shared rank plus the rank of its two
    residuals.  That is exact elimination of the child's own rows, with
    O(m) work per child; ``enumeration`` re-checks a stride of children
    with ``rank``.

    ``prefix_nullities(a, b)`` gives the nullity of T_0, ..., T_n, each
    the leading block of the next, for ``nullity_string`` and for the
    (previous, current) pair of each ``sample_census`` trial, from one
    elimination state: the reduced rows E of T_m and the row operations
    U with E = U T_m.  To go to T_{m+1} it appends U c to E, c being the
    new column; makes the first zero row of E with a nonzero new entry
    that column's pivot and clears the entry from the other zero rows;
    and reduces the new row, with U row e_{m+1}, by the pivots.  The
    nullity is the count of zero rows.  That is O(m^2) work per order,
    O(n^3) per string, with no call to ``rows`` or ``rank``, which stay
    the from-scratch path the tests check it against.

    ``omega``/``sigma`` append/prepend a zero to every kernel vector,
    ``span`` is a canonical span and ``ends`` the first and last entry
    of a vector.
    """
    return _PACKED if q == 2 else _DenseGFq(q)


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

    One elimination state is bordered by a row and a column per order
    (``prefix_nullities`` of :func:`engine`), at O(n^3) for the string.
    ``rank_nullity`` of each truncated prefix is its from-scratch check.
    """
    return engine(spec.field.q).prefix_nullities(spec.a, spec.b)
