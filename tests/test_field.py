"""Prime fields: digit reduction, primality, guard rails."""

import pytest

from toepnull import (
    DEFAULT_MAX_Q,
    PrimeField,
    is_prime,
)
from toepnull.field import element_value


# ---------------------------------------------------------------------------
# primality


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** r, n) == n - 1 for r in range(1, s))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 10 ** 5) if is_prime(n)] == \
        [n for n in range(-3, 10 ** 5) if _trial_division(n)]


def test_is_prime_needs_base_37():
    n = 3825123056546413051
    assert n == 149491 * 747451 * 34233211
    assert all(_strong_probable_prime(n, a) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
    assert not is_prime(n)


def test_is_prime_large_moduli():
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 31 - 1)
    assert not is_prime((2 ** 61 - 1) * (2 ** 19 - 1))
    assert not is_prime(3_317_044_064_679_887_385_961_981 - 1)
    assert not is_prime(3 * 2 ** 100)  # a factor among the bases settles it at any size
    with pytest.raises(ValueError, match="too large"):
        is_prime(3_317_044_064_679_887_385_961_981)
    with pytest.raises(ValueError, match="too large"):
        PrimeField(2 ** 127 - 1)


# ---------------------------------------------------------------------------
# guard rails


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 12, -3])
def test_composite_or_tiny_modulus_rejected(bad):
    assert not is_prime(bad)
    with pytest.raises(ValueError):
        PrimeField(bad)


def test_modulus_cap():
    with pytest.raises(ValueError):
        PrimeField(17)
    assert PrimeField(DEFAULT_MAX_Q).q == 13


def test_non_integer_modulus_rejected():
    with pytest.raises(ValueError):
        PrimeField(2.0)
    with pytest.raises(ValueError):
        PrimeField(True)


def test_fields_compare_by_modulus():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert len({PrimeField(3), PrimeField(3), PrimeField(2)}) == 2


def test_element_validation():
    f3 = PrimeField(3)
    with pytest.raises(ValueError):
        element_value(f3, -1)
    with pytest.raises(ValueError):
        element_value(f3, 1.5)


def test_element_value_coercion():
    f3 = PrimeField(3)
    assert element_value(f3, 2) == 2
    with pytest.raises(ValueError):
        element_value(f3, 3)
    with pytest.raises(ValueError):
        element_value(f3, True)
