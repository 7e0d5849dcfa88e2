"""Plain list elimination modulo q, the oracle for the byte-lane engine.

Rows are lists of digits and every row operation is a list comprehension
over the entries: no packing, no translate tables, and each nullity comes
from a from-scratch elimination of the matrix it belongs to.
"""


def list_rows(a, b):
    """Digit rows of the spec'd matrix."""
    n = len(a) - 1
    return [[a[j - i] if j >= i else b[i - j - 1] for j in range(n + 1)]
            for i in range(n + 1)]


def _residual(v, echelon, q):
    """``v`` reduced by (pivot column, row) pairs whose row has entry 1 at
    its pivot column and 0 at the pivot columns of the pairs before it."""
    for c, row in echelon:
        f = v[c]
        if f:
            v = [(x - f * y) % q for x, y in zip(v, row)]
    return v


def _pivots(rows, q):
    """Echelon rows keyed by pivot column, in the form ``_residual`` takes."""
    piv = {}
    for r in rows:
        r = _residual(list(r), piv.items(), q)
        c = next(filter(r.__getitem__, range(len(r))), None)
        if c is not None:
            inv = pow(r[c], q - 2, q)
            piv[c] = [x * inv % q for x in r]
    return piv


def list_rank(rows, q):
    return len(_pivots(rows, q))


def list_rref(rows, q):
    """(reduced rows ordered by pivot column, pivot columns)."""
    echelon = sorted(_pivots(rows, q).items())
    for i in range(len(echelon) - 2, -1, -1):
        c, row = echelon[i]
        echelon[i] = c, _residual(row, echelon[i + 1:], q)
    return [row for _, row in echelon], [c for c, _ in echelon]


def list_span(vectors, q):
    """Canonical basis of span(vectors): its reduced rows as tuples."""
    return tuple(tuple(row) for row in list_rref(vectors, q)[0])


def list_kernel(rows, q, width):
    """Canonical kernel basis of a matrix with ``width`` columns."""
    reduced, pivots = list_rref(rows, q)
    basis = []
    for free in range(width):
        if free not in pivots:
            v = [0] * width
            v[free] = 1
            for row, p in zip(reduced, pivots):
                v[p] = -row[free] % q
            basis.append(v)
    return list_span(basis, q)


def list_children(a, b, q):
    """Nullity of each one-step extension, in (a_new, b_new) order."""
    m = len(b)
    return [m + 2 - list_rank(list_rows(a + (a_new,), b + (b_new,)), q)
            for a_new in range(q) for b_new in range(q)]


def list_prefix_nullities(a, b, q):
    """Nullity of every leading block T_0, ..., T_n."""
    return tuple(m + 1 - list_rank(list_rows(a[:m + 1], b[:m]), q) for m in range(len(a)))
