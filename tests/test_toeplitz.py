"""Toeplitz specs: matrix layout, rank/kernel, extension, nullity strings."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toepnull import (
    PrimeField,
    ToeplitzSpec,
    extend,
    kernel_basis,
    nullity_string,
    rank_nullity,
    truncate,
    validate_nullity_string,
)
from toepnull import toeplitz
from toepnull.toeplitz import (
    canonical_vectors,
    engine,
    gf2_pack_rows,
    gf2_rank,
    gfq_rank,
    gfq_rref,
    gfq_rows,
)

from list_oracle import (list_children, list_kernel, list_prefix_nullities, list_rank,
                         list_rows, list_rref, list_span)
from prefix_oracle import scratch_nullity_string

F2 = PrimeField(2)
F3 = PrimeField(3)


def spec2(a, b):
    return ToeplitzSpec(field=F2, a=tuple(a), b=tuple(b))


def all_specs(n, q):
    fld = PrimeField(q)
    for digits in itertools.product(range(q), repeat=2 * n + 1):
        a = (digits[0],) + digits[1::2]
        b = digits[2::2]
        yield ToeplitzSpec(field=fld, a=a, b=b)


# ---------------------------------------------------------------------------
# matrix layout


def rows_of(spec):
    return [list(row) for row in gfq_rows(spec.a, spec.b)]


def pack(eng, rows):
    """Digit rows as the engine's packed ints, entry j in lane j."""
    return [sum(x << eng.bits * j for j, x in enumerate(row)) for row in rows]


def test_materialize_all_ones():
    assert rows_of(spec2((1, 1), (1,))) == [[1, 1], [1, 1]]


def test_materialize_upper_one():
    assert rows_of(spec2((0, 1), (0,))) == [[0, 1], [0, 0]]


def test_materialize_order_two_mod_three():
    spec = ToeplitzSpec(field=F3, a=(1, 0, 2), b=(1, 0))
    assert rows_of(spec) == [[1, 0, 2], [1, 1, 0], [0, 1, 1]]


def test_constant_diagonals():
    spec = ToeplitzSpec(field=PrimeField(5), a=(3, 1, 4, 2), b=(0, 2, 1))
    rows = rows_of(spec)
    for i in range(spec.size):
        for j in range(spec.size):
            expected = spec.a[j - i] if j >= i else spec.b[i - j - 1]
            assert rows[i][j] == expected


def test_spec_validation():
    with pytest.raises(ValueError):
        ToeplitzSpec(field=F2, a=(), b=())
    with pytest.raises(ValueError):
        ToeplitzSpec(field=F2, a=(1, 0), b=())
    with pytest.raises(ValueError):
        ToeplitzSpec(field=F2, a=(2,), b=())


# ---------------------------------------------------------------------------
# rank, nullity, kernels


def test_rank_nullity_examples():
    assert rank_nullity(spec2((1,), ())) == (1, 0)
    assert rank_nullity(spec2((0,), ())) == (0, 1)
    assert rank_nullity(spec2((1, 1), (1,))) == (1, 1)


def test_kernel_examples():
    assert kernel_basis(spec2((1, 1), (1,))) == ((1, 1),)
    assert kernel_basis(spec2((0, 1), (0,))) == ((1, 0),)
    zero2 = spec2((0, 0), (0,))
    basis = kernel_basis(zero2)
    assert basis == ((1, 0), (0, 1))
    assert kernel_basis(spec2((1,), ())) == ()


def test_all_ones_three_by_three_has_nullity_two():
    spec = spec2((1, 1, 1), (1, 1))
    assert rank_nullity(spec) == (1, 2)
    assert kernel_basis(spec) == ((1, 0, 1), (0, 1, 1))


def test_kernel_vectors_annihilate_matrix():
    for spec in all_specs(3, 3):
        rows = rows_of(spec)
        basis = kernel_basis(spec)
        assert len(basis) == rank_nullity(spec)[1]
        for v in basis:
            for row in rows:
                assert sum(r * x for r, x in zip(row, v)) % 3 == 0


# ---------------------------------------------------------------------------
# extension and truncation


def test_extend_embeds_old_matrix_in_both_corners():
    spec = ToeplitzSpec(field=F3, a=(1, 2), b=(0,))
    bigger = extend(spec, 2, 1)
    assert bigger.a == (1, 2, 1) and bigger.b == (0, 2)
    old = rows_of(spec)
    new = rows_of(bigger)
    size = spec.size
    assert all(new[i][j] == old[i][j] for i in range(size) for j in range(size))
    assert all(
        new[i + 1][j + 1] == old[i][j] for i in range(size) for j in range(size)
    )


def test_truncate_inverts_extend():
    spec = spec2((1, 0), (1,))
    assert truncate(extend(spec, 1, 0)) == spec
    with pytest.raises(ValueError):
        truncate(spec2((1,), ()))


def test_four_distinct_extensions_mod_two():
    spec = spec2((1,), ())
    children = {extend(spec, b, a) for a in (0, 1) for b in (0, 1)}
    assert len(children) == 4
    assert all(truncate(c) == spec for c in children)


def test_extend_rejects_digits_outside_the_field():
    spec = ToeplitzSpec(field=F3, a=(1,), b=())
    assert extend(spec, 2, 1) == ToeplitzSpec(field=F3, a=(1, 1), b=(2,))
    for b_new, a_new in ((3, 1), (1, 3), (-1, 0), (True, 0), (0, 1.0)):
        with pytest.raises(ValueError):
            extend(spec, b_new, a_new)


# ---------------------------------------------------------------------------
# nullity strings


def test_nullity_string_examples():
    assert nullity_string(spec2((1, 1), (1,))) == (0, 1)
    assert nullity_string(spec2((0, 0), (0,))) == (1, 2)
    assert nullity_string(spec2((1, 0), (0,))) == (0, 0)


def test_nullity_string_tracks_prefixes():
    spec = ToeplitzSpec(field=F3, a=(0, 1, 2, 0), b=(2, 1, 1))
    values = nullity_string(spec)
    assert len(values) == spec.order + 1
    probe = spec
    for m in range(spec.order, -1, -1):
        assert rank_nullity(probe)[1] == values[m]
        if m:
            probe = truncate(probe)


@pytest.mark.parametrize("q, n_max", [(2, 5), (3, 3)])
def test_nullity_steps_bounded_by_one(q, n_max):
    for spec in all_specs(n_max, q):
        values = nullity_string(spec)
        assert values[0] in (0, 1)
        assert all(abs(b - a) <= 1 for a, b in zip(values, values[1:]))


def test_rank_never_decreases_under_extension():
    for spec in all_specs(4, 2):
        values = nullity_string(spec)
        ranks = [m + 1 - nu for m, nu in enumerate(values)]
        assert all(r2 >= r1 for r1, r2 in zip(ranks, ranks[1:]))


# ---------------------------------------------------------------------------
# symmetry: transposing a spec preserves the whole nullity string


def transpose(spec):
    return ToeplitzSpec(
        field=spec.field, a=(spec.a[0],) + spec.b, b=spec.a[1:]
    )


@pytest.mark.parametrize("q, n_max", [(2, 5), (3, 3)])
def test_transpose_preserves_nullity_string(q, n_max):
    for spec in all_specs(n_max, q):
        assert nullity_string(spec) == nullity_string(transpose(spec))


# ---------------------------------------------------------------------------
# the two elimination engines agree


def test_engines_agree_exhaustively_mod_two():
    for spec in all_specs(4, 2):
        packed = gf2_rank(gf2_pack_rows(spec.a, spec.b))
        generic = gfq_rank(gfq_rows(spec.a, spec.b), 2)
        assert packed == generic


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 30), st.data())
def test_engines_agree_on_random_specs(n, data):
    a = tuple(data.draw(st.integers(0, 1)) for _ in range(n + 1))
    b = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
    packed_rows = gf2_pack_rows(a, b)
    assert gf2_rank(packed_rows) == gfq_rank(gfq_rows(a, b), 2) == list_rank(list_rows(a, b), 2)
    width = n + 1
    # 1-bit and 8-bit lanes: the shared methods of the engine base must
    # read and move both alike
    engines = engine(2), toeplitz._LaneGFq(2)
    assert {eng.vectors(eng.rows(a, b), width) for eng in engines} == {
        tuple(map(tuple, list_rows(a, b)))}
    # both engines emit the canonical basis; so does the list oracle, and
    # it is its own canonical form
    kernels = [eng.kernel(eng.rows(a, b)) for eng in engines]
    kernel = engines[0].vectors(kernels[0], width)
    assert kernel == engines[1].vectors(kernels[1], width)
    assert kernel == list_kernel(list_rows(a, b), 2, width)
    assert kernel == canonical_vectors(kernel, 2)
    shifted = canonical_vectors([(*v, 0) for v in kernel] + [(0, *v) for v in kernel], 2)
    for eng, kern in zip(engines, kernels):
        assert eng.vectors(eng.sigma(kern), width + 1) == tuple((0, *v) for v in kernel)
        assert [eng.ends(v, width) for v in kern] == [(v[0], v[-1]) for v in kernel]
        # kern is independent, and with its shifts spans what ``shifted`` does
        assert eng.rank(kern) == len(kern)
        both = kern + eng.sigma(kern)
        assert eng.rank(both) == eng.rank([*both, *pack(eng, shifted)]) == len(shifted)


@pytest.mark.parametrize("q, max_width", [(2, 8), (3, 5)])
def test_vectors_roundtrip(q, max_width):
    """``vectors`` reads lane j of a packed int as entry j."""
    for eng in {engine(q), toeplitz._LaneGFq(q)}:
        for width in range(1, max_width + 1):
            for vec in itertools.product(range(q), repeat=width):
                packed = sum(x << eng.bits * j for j, x in enumerate(vec))
                assert eng.vectors((packed,), width) == (vec,)


# ---------------------------------------------------------------------------
# shared elimination of the children against from-scratch elimination


def check_children(q, a, b):
    """``engine(q).children`` must give each extension's own rows and
    ``m + 2 - rank`` with the rank from a from-scratch elimination."""
    eng = engine(q)
    kids, nus = eng.children(eng.rows(a, b))
    m = len(b)
    scratch = [eng.rows(a + (a_new,), b + (b_new,)) for a_new in range(q) for b_new in range(q)]
    assert kids == scratch
    assert nus == [m + 2 - gf2_rank(rows) if q == 2 else m + 2 - gfq_rank(rows, q)
                   for rows in scratch]
    return kids


@pytest.mark.parametrize("q, m_max", [(2, 5), (3, 3), (5, 2)])
def test_shared_children_match_from_scratch_exhaustively(q, m_max):
    for m in range(m_max + 1):
        for spec in all_specs(m, q):
            check_children(q, spec.a, spec.b)


def random_digits(rng, q, m):
    """Uniform, sparse or periodic digits; sparse and periodic specs have
    rank-deficient shared rows and first/last rows inside their span."""
    kind = rng.randrange(3)
    if kind == 2:
        cycle = [rng.randrange(q) for _ in range(rng.randrange(1, 5))]
        p = len(cycle)
        return (tuple(cycle[j % p] for j in range(m + 1)),
                tuple(cycle[-i % p] for i in range(1, m + 1)))
    density = 1.0 if kind == 0 else 0.1
    digits = [rng.randrange(q) if rng.random() < density else 0 for _ in range(2 * m + 1)]
    return tuple(digits[:m + 1]), tuple(digits[m + 1:])


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13])
def test_shared_children_match_from_scratch_on_random_specs(q):
    rng = random.Random(1000 + q)
    eng = engine(q)
    deficient = zero_residual = 0
    for _ in range(30):
        m = rng.randrange(41)
        a, b = random_digits(rng, q, m)
        kid = check_children(q, a, b)[0]
        shared = eng.rank(kid[1:-1])
        deficient += shared < m
        zero_residual += shared in (eng.rank(kid[:-1]), eng.rank(kid[1:]))
    assert deficient and zero_residual


# ---------------------------------------------------------------------------
# the nullity string against from-scratch elimination


def check_against_scratch(specs):
    """Compare each string with the oracle; return the largest nullity
    seen and the largest nullity that a step down left."""
    peak = dropped_from = 0
    for spec in specs:
        values = nullity_string(spec)
        assert values == scratch_nullity_string(spec)
        peak = max(peak, *values)
        dropped_from = max([dropped_from] + [x for x, y in zip(values, values[1:]) if y < x])
    return peak, dropped_from


@pytest.mark.parametrize("q, m_max", [(2, 6), (3, 3), (5, 2), (7, 2)])
def test_bordered_nullities_match_from_scratch_exhaustively(q, m_max):
    specs = (spec for m in range(m_max + 1) for spec in all_specs(m, q))
    peak, dropped_from = check_against_scratch(specs)
    # several zero rows at once, and one of several kept as a new pivot
    assert peak >= 3 and dropped_from >= 2


def zero_prefix_digits(rng, q, m):
    """Digits whose a and b both start with zeros, so the first sections
    are zero matrices of growing nullity."""
    k = rng.randrange(3, m + 2)
    a = (0,) * k + tuple(rng.randrange(q) for _ in range(m + 1 - k))
    b = (0,) * (k - 1) + tuple(rng.randrange(q) for _ in range(m + 1 - k))
    return a, b


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13])
def test_bordered_nullities_match_from_scratch_on_random_specs(q):
    rng = random.Random(4000 + q)
    fld = PrimeField(q)
    specs = []
    for _ in range(40):
        m = rng.randrange(2, 61)
        digits = zero_prefix_digits if rng.random() < 0.25 else random_digits
        a, b = digits(rng, q, m)
        specs.append(ToeplitzSpec(field=fld, a=a, b=b))
    peak, dropped_from = check_against_scratch(specs)
    assert peak >= 3 and dropped_from >= 2


def test_long_strings_need_no_from_scratch_elimination(monkeypatch):
    rng = random.Random(5000)
    specs = []
    for q, n in ((2, 400), (3, 200), (13, 120), (2, 40), (5, 30), (13, 30)):
        a, b = (zero_prefix_digits if n < 100 else random_digits)(rng, q, n)
        specs.append(ToeplitzSpec(field=PrimeField(q), a=a, b=b))

    def refuse(*args):
        raise AssertionError("from-scratch elimination in nullity_string")

    # one rows build per string, and each of its n + 1 rows enters the
    # elimination loop once: an elimination per prefix feeds it O(n^2)
    calls = {"rows": 0, "fed": 0}

    def counted_build(build):
        def wrapper(a, b):
            calls["rows"] += 1
            return build(a, b)
        return wrapper

    def counted_loop(loop):
        def wrapper(rows, *args):
            def counted():  # as the loop consumes them, which may be lazily
                for row in rows:
                    calls["fed"] += 1
                    yield row
            return loop(counted(), *args)
        return wrapper

    for name in ("gf2_rank", "gfq_rank"):
        monkeypatch.setattr(toeplitz, name, refuse)
    for name in ("gf2_pack_rows", "gfq_rows"):
        monkeypatch.setattr(toeplitz, name, counted_build(getattr(toeplitz, name)))
    for name in ("_gf2_pivots", "_lane_pivots"):
        monkeypatch.setattr(toeplitz, name, counted_loop(getattr(toeplitz, name)))
    strings = []
    for spec in specs:
        before = dict(calls)
        strings.append(nullity_string(spec))
        assert (calls["rows"] - before["rows"], calls["fed"] - before["fed"]) == (1, spec.size)
    monkeypatch.undo()
    for spec, values in zip(specs, strings):
        assert len(values) == spec.size and validate_nullity_string(values)
        assert values[-1] == rank_nullity(spec)[1]
        if spec.order < 100:
            assert values == scratch_nullity_string(spec)


# ---------------------------------------------------------------------------
# GF(q) elimination against properties that need no second eliminator


def reduced_by(v, reduced, pivots, q):
    """``v`` minus its pivot-column entries times the matching rref rows."""
    out = list(v)
    for row, p in zip(reduced, pivots):
        f = v[p]
        out = [(x - f * y) % q for x, y in zip(out, row)]
    return out


def random_matrices(rng, q):
    """Square rows and the m x (m+2) rows a spec's children share, from
    uniform, sparse and periodic digits, plus zero rows and no rows."""
    yield []
    yield [[0] * 3 for _ in range(2)]
    yield [[0, 2 % q, 1], [0, 0, 0], [0, 1, 1]]
    for _ in range(12):
        m = rng.randrange(41)
        a, b = random_digits(rng, q, m)
        yield gfq_rows(a, b)
        yield gfq_rows(a + (rng.randrange(q),), b + (rng.randrange(q),))[1:-1]


def unpack(lanes, width):
    return [list(v.to_bytes(width, "little")) for v in lanes]


def check_elimination(rows, q):
    width = len(rows[0]) if rows else 0
    before = [list(row) for row in rows]
    rank = gfq_rank(rows, q)
    lanes = [int.from_bytes(bytes(row), "little") for row in rows]
    assert gfq_rank(lanes, q) == rank
    reduced, pivots = gfq_rref(lanes, q)
    reduced = unpack(reduced, width)
    assert [list(row) for row in rows] == before  # gfq_rank only reads its input
    assert len(reduced) == len(pivots) == rank
    # reduced echelon form: strictly increasing pivots, leading entry 1,
    # and zeros in every other row's pivot column
    assert pivots == sorted(set(pivots))
    for row, p in zip(reduced, pivots):
        assert all(0 <= x < q for x in row) and row[p] == 1 and not any(row[:p])
        assert [other[p] for other in reduced] == [int(other is row) for other in reduced]
    # the rref rows span every input row
    assert all(not any(reduced_by(v, reduced, pivots, q)) for v in rows)
    assert gfq_rank(list(zip(*rows)), q) == rank  # rank(A) == rank(A^T)
    if len(rows) != width:
        return  # the package computes kernels of square matrices only
    kernel = unpack(toeplitz._LaneGFq(q).kernel(lanes), width)
    assert len(kernel) == width - rank
    assert gfq_rank(kernel, q) == len(kernel)
    assert all(sum(x * y for x, y in zip(row, v)) % q == 0 for v in kernel for row in rows)


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_gfq_elimination_properties(q):
    rng = random.Random(2000 + q)
    for rows in random_matrices(rng, q):
        check_elimination(rows, q)


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_gfq_rank_counts_the_row_space(q):
    """q^rank is the number of distinct combinations of the rows."""
    rng = random.Random(3000 + q)
    for _ in range(40):
        k, width = rng.randrange(1, 4 if q > 7 else 5), rng.randrange(1, 5)
        rows = [[rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(width)]
                for _ in range(k)]
        if rng.random() < 0.3:
            rows.append([(x + 2 * y) % q for x, y in zip(rows[0], rows[-1])])
        span = {tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % q for j in range(width))
                for coeffs in itertools.product(range(q), repeat=len(rows))}
        assert q ** gfq_rank(rows, q) == len(span)
        check_elimination(rows, q)


# ---------------------------------------------------------------------------
# the byte-lane engine against the plain list elimination


def test_engine_is_one_cached_instance_per_modulus():
    for q in (2, 3, 5, 13):
        assert engine(q) is engine(q)
    assert engine(3) is not engine(5) and engine(3).q == 3


def oracle_matrices(rng, q):
    """Digit rows for the differential test: no rows; all-(q-1) specs
    and rows of 0 and q-1, whose lanes reach byte q^2 - 1 in u*q + v;
    square rows and the m x (m+2) rows a spec's children share, from
    uniform, sparse and periodic digits."""
    top = q - 1
    yield []
    for m in range(4):
        yield list_rows((top,) * (m + 1), (top,) * m)
    for _ in range(4):
        k, width = rng.randrange(1, 9), rng.randrange(1, 12)
        yield [[rng.choice((0, top)) for _ in range(width)] for _ in range(k)]
    for _ in range(10):
        m = rng.randrange(31)
        a, b = random_digits(rng, q, m)
        yield list_rows(a, b)
        yield list_rows(a + (rng.randrange(q),), b + (rng.randrange(q),))[1:-1]


def oracle_specs(rng, q):
    top = q - 1
    yield (top,), ()
    yield (top,) * 6, (top,) * 5
    for _ in range(12):
        m = rng.randrange(2, 21)
        yield (zero_prefix_digits if rng.random() < 0.25 else random_digits)(rng, q, m)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_rank_profile_gives_the_rank_of_every_trailing_block(q):
    # rectangular, not Toeplitz, fed bottom up: rows i..end cut to lanes
    # k..end have as rank the recorded pivots with row >= i and lane >= k
    rng = random.Random(7000 + q)
    top = q - 1
    engines = [engine(q)] + ([toeplitz._LaneGFq(2)] if q == 2 else [])
    for _ in range(30):
        height, width = rng.randrange(1, 13), rng.randrange(1, 13)
        kind = rng.randrange(3)
        rows = [[rng.randrange(q) if kind == 0 else rng.choice((0, top)) if kind == 1
                 else rng.randrange(q) * (rng.random() < 0.3) for _ in range(width)]
                for _ in range(height)]
        rows[rng.randrange(height)] = [0] * width
        rows[rng.randrange(height)] = [top] * width
        for eng in engines:
            made = eng._pivots(reversed(pack(eng, rows)), width)[1]
            assert len(made) == height
            profile = [(i, c) for i, c in zip(range(height - 1, -1, -1), made) if c >= 0]
            for i in range(height):
                for k in range(width):
                    count = sum(r >= i and c >= k for r, c in profile)
                    assert count == list_rank([row[k:] for row in rows[i:]], q)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_lanes_match_the_list_oracle(q):
    rng = random.Random(6000 + q)
    lanes = toeplitz._LaneGFq(q)  # at q = 2 too, where engine(2) packs bits
    for rows in oracle_matrices(rng, q):
        width = len(rows[0]) if rows else 0
        packed = [int.from_bytes(bytes(row), "little") for row in rows]
        assert gfq_rank(rows, q) == gfq_rank(packed, q) == list_rank(rows, q)
        reduced, pivots = gfq_rref(packed, q)
        assert (unpack(reduced, width), pivots) == list_rref(rows, q)
        assert canonical_vectors(rows, q) == list_span(rows, q)
        if len(rows) == width:  # the package computes kernels of square matrices only
            assert lanes.vectors(lanes.kernel(packed), width) == list_kernel(rows, q, width)
            assert lanes.rank(packed) == list_rank(rows, q)
    for a, b in oracle_specs(rng, q):
        kids, nus = lanes.children(lanes.rows(a, b))
        assert nus == list_children(a, b, q)
        assert [unpack(kid, len(a) + 1) for kid in kids] == [
            list_rows(a + (a_new,), b + (b_new,)) for a_new in range(q) for b_new in range(q)]
        assert lanes.prefix_nullities(lanes.rows(a, b)) == list_prefix_nullities(a, b, q)
        spec = ToeplitzSpec(field=PrimeField(q), a=a, b=b)  # through engine(q)
        assert kernel_basis(spec) == list_kernel(list_rows(a, b), q, len(a))


def edge_matrices(q):
    """Digit rows of square matrices at the edges of the kernel read-off:
    no rows, order 0, zero, invertible, rank 1, and pivots in only the
    last or only the first column."""
    top = q - 1
    yield []
    yield [[0]]
    yield [[top]]
    for n in (2, 5):
        yield [[0] * n for _ in range(n)]
        yield [[int(i == j) for j in range(n)] for i in range(n)]
        yield [[top if j >= i else 0 for j in range(n)] for i in range(n)]  # triangular
        yield [[(i + 1) * (j + 1) % q for j in range(n)] for i in range(n)]  # rank 1
        yield [[0] * (n - 1) + [i % q] for i in range(n)]
        yield [[top] + [0] * (n - 1) for _ in range(n)]


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_edge_kernels_match_the_list_oracle(q):
    for rows in edge_matrices(q):
        width = len(rows)
        expected = list_kernel(rows, q, width)
        assert len(expected) == width - list_rank(rows, q)
        for eng in {engine(q), toeplitz._LaneGFq(q)}:
            packed = pack(eng, rows)
            assert eng.vectors(eng.kernel(packed), width) == expected


@pytest.mark.parametrize("q", [2, 5])
def test_kernels_need_no_second_elimination(monkeypatch, q):
    # the kernel is read off one highest-lane elimination, canonical as
    # it stands: no rref, of the rows or of the solutions
    rng = random.Random(9000 + q)
    specs = [(zero_prefix_digits if rng.random() < 0.5 else random_digits)(
        rng, q, rng.randrange(2, 16)) for _ in range(40)]
    eng = engine(q)

    def refuse(*args):
        raise AssertionError("second elimination in kernel")

    for name in ("gfq_rref", "canonical_vectors"):
        monkeypatch.setattr(toeplitz, name, refuse)
    kernels = [eng.vectors(eng.kernel(eng.rows(a, b)), len(a)) for a, b in specs]
    monkeypatch.undo()
    assert sum(map(bool, kernels)) >= 10
    assert kernels == [list_kernel(list_rows(a, b), q, len(a)) for a, b in specs]


@pytest.mark.parametrize("q", [2, 5])
def test_each_engine_method_runs_the_one_pivot_loop_once(monkeypatch, q):
    # rank, children, prefix_nullities and kernel all eliminate by the
    # module's one pivot loop for the field, once per call, and never by
    # the independent gfq_rref behind canonical_vectors
    rng = random.Random(9500 + q)
    eng, loop = engine(q), "_gf2_pivots" if q == 2 else "_lane_pivots"
    calls = []

    def counted(name):
        real = getattr(toeplitz, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    def refuse(*args):
        raise AssertionError("second elimination in an engine method")

    for name in ("_gf2_pivots", "_lane_pivots"):
        monkeypatch.setattr(toeplitz, name, counted(name))
    for name in ("gfq_rref", "canonical_vectors"):
        monkeypatch.setattr(toeplitz, name, refuse)
    for _ in range(20):
        m = rng.randrange(16)
        a, b = (zero_prefix_digits if m >= 2 and rng.random() < 0.5 else random_digits)(
            rng, q, m)
        rows = eng.rows(a, b)
        for method in (eng.rank, eng.children, eng.prefix_nullities, eng.kernel):
            calls.clear()
            method(rows)
            assert calls == [loop], method.__name__
