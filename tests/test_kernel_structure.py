"""Nullity-string grammar and the four kernel-structure predicates."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toepnull import (
    PairState,
    PreconditionError,
    PrimeField,
    ToeplitzSpec,
    check_ascent_span,
    check_descent_interior_zeros,
    check_plateau_shift,
    check_single_generator_ends,
    iter_valid_strings,
    kernel_basis,
    shift_omega,
    shift_sigma,
    transition_weights,
    validate_nullity_string,
    validate_nullity_string_by_patterns,
)
from toepnull.counting import _allowed_next

F2 = PrimeField(2)


def spec2(a, b):
    return ToeplitzSpec(field=F2, a=tuple(a), b=tuple(b))


# ---------------------------------------------------------------------------
# shift helpers


def test_shift_examples():
    assert shift_omega((1, 2)) == (1, 2, 0)
    assert shift_sigma((1, 2)) == (0, 1, 2)
    assert shift_omega(()) == (0,)
    assert shift_sigma(()) == (0,)


# ---------------------------------------------------------------------------
# string validators


@pytest.mark.parametrize(
    "string, valid",
    [
        ((), True),
        ((0,), True),
        ((1,), True),
        ((2,), False),
        ((0, 1, 2, 2, 1, 0), True),
        ((1, 1, 2), False),
        ((1, 2, 1, 1), False),
        ((0, 0, 1, 2, 3, 2, 1, 0, 0), True),
        ((1, 2, 2, 2, 1, 0, 1), True),
        ((1, 0, 2), False),
        ((1, 2, 0), False),
        ((0, 1, 1, 0, 0, 1), True),
    ],
)
def test_validator_examples(string, valid):
    assert validate_nullity_string(string) is valid
    assert validate_nullity_string_by_patterns(string) is valid


def test_negative_values_rejected():
    assert not validate_nullity_string((-1,))
    assert not validate_nullity_string_by_patterns((-1,))


def all_step_strings(length, starts=(0, 1, 2), max_value=None):
    """Every nonnegative string whose steps lie in {-1, 0, +1}."""

    def walk(prefix):
        yield prefix
        if len(prefix) == length:
            return
        for step in (-1, 0, 1):
            nxt = prefix[-1] + step
            if nxt >= 0 and (max_value is None or nxt <= max_value):
                yield from walk(prefix + (nxt,))

    for start in starts:
        yield from walk((start,))


def test_validators_agree_on_all_short_step_strings():
    for string in all_step_strings(7):
        assert validate_nullity_string(string) == validate_nullity_string_by_patterns(
            string
        )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=0, max_size=12))
def test_validators_agree_on_arbitrary_strings(values):
    assert validate_nullity_string(values) == validate_nullity_string_by_patterns(
        values
    )


# ---------------------------------------------------------------------------
# the paper's local rules, written out: the oracle for the census table's support


def literal_allowed_next(prev, cur):
    if cur == 0:
        return {0, 1}
    if prev < cur:
        return {cur + 1, cur, cur - 1}
    if prev == cur:
        return {cur, cur - 1}
    return {cur - 1}


def literal_validate(values):
    vals = list(values)
    if not vals:
        return True
    if vals[0] not in (0, 1):
        return False
    prev = 0
    for i in range(1, len(vals)):
        cur = vals[i - 1]
        if vals[i] not in literal_allowed_next(prev, cur):
            return False
        prev = cur
    return True


def test_the_grammar_is_the_support_of_the_census_at_every_q():
    pairs = [(prev, cur) for cur in range(9) for prev in (cur - 1, cur, cur + 1) if prev >= 0]
    for prev, cur in pairs:
        literal = literal_allowed_next(prev, cur)
        assert set(_allowed_next(prev, cur)) == literal
        for q in (2, 3, 5, 7, 11, 13):
            weights = transition_weights(PairState(prev, cur), q)
            assert {value for value, w in weights if w > 0} == literal


def test_validator_matches_the_literal_rules():
    for length in range(8):
        for string in itertools.product(range(-1, 4), repeat=length):
            assert validate_nullity_string(string) == literal_validate(string)


def test_validator_returns_on_odd_values():
    _allowed_next.cache_clear()
    for string in [(1.0, 2.0), (True, 2), (0, 1.5), ("a",), (None, 1), (1, None)]:
        assert validate_nullity_string(string) is literal_validate(string)
    # odd values asked first leave the grammar's cached steps plain ints
    assert all(type(v) is int for s in iter_valid_strings(4) for v in s)


def test_iter_valid_strings_matches_validators():
    produced = set(iter_valid_strings(7))
    expected = {s for s in all_step_strings(7) if validate_nullity_string(s)}
    assert produced == expected
    assert all(validate_nullity_string_by_patterns(s) for s in produced)
    assert list(iter_valid_strings(0)) == []


# ---------------------------------------------------------------------------
# predicate: a kernel born from an invertible matrix has one generator
# with nonzero first and last entries


def test_single_generator_ends_example():
    prev = spec2((1,), ())
    nxt = spec2((1, 1), (1,))
    assert kernel_basis(nxt) == ((1, 1),)
    assert check_single_generator_ends(prev, nxt)


def test_single_generator_ends_preconditions():
    with pytest.raises(PreconditionError):
        check_single_generator_ends(spec2((0,), ()), spec2((0, 0), (0,)))
    with pytest.raises(PreconditionError):
        check_single_generator_ends(spec2((1,), ()), spec2((1, 0), (0,)))
    with pytest.raises(PreconditionError):
        check_single_generator_ends(spec2((1,), ()), spec2((0, 1), (0,)))


def test_ends_property_is_not_universal():
    # A kernel NOT born from an invertible prefix can violate the ends
    # property, so the predicate's precondition carries real content:
    # here the nullity string is (1, 1) and the generator is (1, 0).
    spec = spec2((0, 1), (0,))
    assert kernel_basis(spec) == ((1, 0),)


# ---------------------------------------------------------------------------
# predicate: on an ascent from positive nullity the new kernel is spanned
# by the two shifted copies of the old one


def test_ascent_span_example():
    prev = spec2((0,), ())
    nxt = spec2((0, 0), (0,))
    assert check_ascent_span(prev, nxt)


def test_ascent_span_preconditions():
    with pytest.raises(PreconditionError):
        check_ascent_span(spec2((1,), ()), spec2((1, 1), (1,)))  # 0 -> 1 start
    with pytest.raises(PreconditionError):
        check_ascent_span(spec2((0,), ()), spec2((0, 1), (0,)))  # plateau


# ---------------------------------------------------------------------------
# predicate: along a plateau the kernel shifts uniformly


def test_plateau_shift_examples():
    base = spec2((0,), ())
    sigma_next = spec2((0, 0), (1,))
    omega_next = spec2((0, 1), (0,))
    assert kernel_basis(sigma_next) == ((0, 1),)
    assert kernel_basis(omega_next) == ((1, 0),)
    assert check_plateau_shift([base, sigma_next])
    assert check_plateau_shift([base, omega_next])
    assert check_plateau_shift([base, omega_next, spec2((0, 1, 0), (0, 0))])


def test_plateau_shift_preconditions():
    base = spec2((0,), ())
    with pytest.raises(PreconditionError):
        check_plateau_shift([base])  # too short
    with pytest.raises(PreconditionError):
        check_plateau_shift([base, spec2((0, 0), (0,))])  # nullity rises
    with pytest.raises(PreconditionError):
        check_plateau_shift([spec2((1,), ()), spec2((1, 0), (0,))])  # invertible
    with pytest.raises(PreconditionError):
        check_plateau_shift([base, spec2((1, 1), (1,))])  # not an extension


# ---------------------------------------------------------------------------
# predicate: strictly inside a descent every kernel vector has zero ends


def test_descent_interior_zeros_example():
    spec = spec2((0, 0, 1), (0, 1))
    assert kernel_basis(spec) == ((0, 1, 0),)
    assert check_descent_interior_zeros(spec)


def test_descent_interior_zeros_preconditions():
    with pytest.raises(PreconditionError):
        check_descent_interior_zeros(spec2((1,), ()))  # order 0
    with pytest.raises(PreconditionError):
        check_descent_interior_zeros(spec2((0, 1), (0,)))  # plateau (1, 1)
    with pytest.raises(PreconditionError):
        check_descent_interior_zeros(spec2((1, 0), (0,)))  # stays invertible
    with pytest.raises(PreconditionError):
        check_descent_interior_zeros(spec2((0, 1), (1,)))  # lands on 0


# ---------------------------------------------------------------------------
# the predicates hold across a small exhaustive sweep (the deep sweeps run
# in the acceptance battery)


def test_predicates_hold_for_all_small_extensions():
    from toepnull import extend, rank_nullity

    for q in (2, 3):
        fld = PrimeField(q)
        for digits in itertools.product(range(q), repeat=5):
            a = (digits[0], digits[1], digits[3])
            b = (digits[2], digits[4])
            spec = ToeplitzSpec(field=fld, a=a, b=b)
            prev = ToeplitzSpec(field=fld, a=a[:-1], b=b[:-1])
            nu_prev = rank_nullity(prev)[1]
            nu = rank_nullity(spec)[1]
            if nu_prev == 0 and nu == 1:
                assert check_single_generator_ends(prev, spec)
            if nu_prev >= 1 and nu == nu_prev + 1:
                assert check_ascent_span(prev, spec)
            if nu_prev >= 1 and nu == nu_prev:
                assert check_plateau_shift([prev, spec])
            if nu_prev > nu >= 1:
                assert check_descent_interior_zeros(spec)
