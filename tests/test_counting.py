"""Weight model: transition weights, count tables, closed forms, excursions.

The multi-digit reference rows frozen here were produced by an
independent exhaustive enumeration (materialize every spec, eliminate,
tally); regenerate with ``brute_force_table`` from the enumeration
module if they ever need to be re-derived.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toepnull import (
    PairState,
    RuleClass,
    closed_eta,
    closed_theta,
    count_string,
    count_table,
    invertible_formula,
    iter_positive_strings,
    nullity1_structured_count,
    nullity_count_closed,
    positive_excursion_count,
    positive_string_counts,
    rank_spectrum,
    theta_eta,
    transition_weights,
)
from toepnull import counting
from toepnull.counting import (
    battery_rows,
    closed_excursions,
    closed_nullity1,
    state_distribution,
)

PRIMES = (2, 3, 5, 7, 11, 13)

# counts by nullity from exhaustive enumeration, frozen
BRUTE_Q3_N2 = (162, 72, 8, 1)
BRUTE_Q3_N6 = (1062882, 472392, 52488, 5832, 648, 72, 8, 1)
BRUTE_Q5_N4 = (1562500, 375000, 15000, 600, 24, 1)


# ---------------------------------------------------------------------------
# pair states and their weights


def test_pair_state_classes():
    assert PairState(0, 0).rule_class is RuleClass.ZERO_ZERO
    assert PairState(1, 0).rule_class is RuleClass.ONE_ZERO
    assert PairState(1, 2).rule_class is RuleClass.ASCENDING
    assert PairState(0, 1).rule_class is RuleClass.ASCENDING
    assert PairState(2, 2).rule_class is RuleClass.PLATEAU
    assert PairState(3, 2).rule_class is RuleClass.DESCENDING


def test_pair_state_validation():
    for prev, cur in [(-1, 0), (0, -1), (0, 2), (2, 0), (3, 1), (1, 3)]:
        with pytest.raises(ValueError):
            PairState(prev, cur)


def test_transition_weight_examples():
    assert transition_weights(PairState(0, 0), 2) == ((0, 3), (1, 1))
    assert transition_weights(PairState(3, 3), 5) == ((3, 5), (2, 20))
    assert transition_weights(PairState(4, 3), 3) == ((2, 9),)
    assert transition_weights(PairState(1, 0), 2) == ((0, 2), (1, 2))
    assert transition_weights(PairState(1, 2), 2) == ((3, 1), (2, 2), (1, 1))
    assert transition_weights(PairState(0, 1), 3) == ((2, 1), (1, 4), (0, 4))


@pytest.mark.parametrize("q", PRIMES)
def test_weights_always_cover_all_extensions(q):
    states = [PairState(0, 0), PairState(1, 0), PairState(0, 1), PairState(2, 3),
              PairState(1, 1), PairState(4, 4), PairState(2, 1), PairState(5, 4)]
    for state in states:
        weights = transition_weights(state, q)
        assert sum(w for _, w in weights) == q * q
        assert all(w > 0 for _, w in weights)
        values = [v for v, _ in weights]
        assert len(set(values)) == len(values)
        assert all(abs(v - state.cur) <= 1 and v >= 0 for v in values)


def test_weights_reject_bad_modulus():
    with pytest.raises(ValueError):
        transition_weights(PairState(0, 0), 4)
    with pytest.raises(ValueError):
        count_table(3, 1)


# ---------------------------------------------------------------------------
# count tables


def test_small_reference_rows_mod_two():
    table = count_table(3, 2)
    assert table.row(0) == (1, 1)
    assert table.row(1) == (4, 3, 1)
    assert table.row(2) == (16, 12, 3, 1)
    assert table.row(3) == (64, 48, 12, 3, 1)


def test_frozen_enumeration_rows():
    assert count_table(2, 3).row(2) == BRUTE_Q3_N2
    assert count_table(6, 3).row(6) == BRUTE_Q3_N6
    assert count_table(4, 5).row(4) == BRUTE_Q5_N4


def test_count_lookup_bounds():
    table = count_table(2, 2)
    assert table.count(2, 3) == 1
    with pytest.raises(ValueError):
        table.count(2, 4)
    with pytest.raises(ValueError):
        table.count(1, -1)
    with pytest.raises(ValueError):
        table.count(3, 0)


@pytest.mark.parametrize("q", PRIMES)
def test_rows_sum_to_all_specs(q):
    table = count_table(5, q)
    for m in range(6):
        assert sum(table.row(m)) == q ** (2 * m + 1)


@pytest.mark.parametrize("q", PRIMES)
def test_state_distribution_is_a_probability_times_total(q):
    for n in range(5):
        dist = state_distribution(n, q)
        assert sum(dist.values()) == q ** (2 * n + 1)
        assert all(s.cur <= n + 1 for s in dist)


def test_rank_spectrum_matches_table():
    assert rank_spectrum(2, 2) == {3: 16, 2: 12, 1: 3, 0: 1}
    assert rank_spectrum(2, 5) == {3: 2500, 2: 600, 1: 24, 0: 1}
    assert list(rank_spectrum(4, 3)) == [5, 4, 3, 2, 1, 0]


def restarted_dp(n, q, start, positive=False):
    """The restart-per-order DP: n steps from ``start`` on the public weights."""
    dist = dict(start)
    for _ in range(n):
        nxt = {}
        for state, mass in dist.items():
            for value, weight in transition_weights(state, q):
                if value or not positive:
                    key = PairState(state.cur, value)
                    nxt[key] = nxt.get(key, 0) + mass * weight
        dist = nxt
    return dist


@pytest.mark.parametrize("q", PRIMES)
def test_one_pass_matches_the_restarted_dp(q):
    start = {PairState(0, 0): q - 1, PairState(0, 1): 1}
    fresh = {PairState(0, 1): 1}
    table = count_table(30, q)
    for n in range(31):
        dist = restarted_dp(n, q, start)
        row = tuple(sum(c for s, c in dist.items() if s.cur == nu) for nu in range(n + 2))
        assert state_distribution(n, q) == dist
        assert table.row(n) == count_table(n, q).row(n) == row
        assert rank_spectrum(n, q) == {n + 1 - nu: c for nu, c in enumerate(row)}
        if n == 0:
            continue
        before = restarted_dp(n - 1, q, fresh, positive=True)
        assert positive_excursion_count(n, q) == sum(
            mass * w for s, mass in before.items()
            for value, w in transition_weights(s, q) if value == 0)
        if q == 2:
            assert theta_eta(n) == (dist.get(PairState(0, 0), 0),
                                    dist.get(PairState(1, 0), 0))
            after = restarted_dp(n, q, fresh, positive=True)
            assert nullity1_structured_count(n) == sum(
                mass for s, mass in after.items() if s.cur == 1)


def test_battery_rows_match_the_per_order_calls():
    rows = battery_rows(40)
    assert len(rows) == 40
    for m, (counts, duo, one, exc) in enumerate(rows, 1):
        assert counts == count_table(m, 2).row(m)
        assert duo == theta_eta(m)
        assert one == nullity1_structured_count(m)
        assert exc == positive_excursion_count(m, 2)
    with pytest.raises(ValueError):
        battery_rows(0)


@pytest.mark.parametrize("q", PRIMES)
def test_count_table_matches_the_general_closed_forms(q):
    # Daykin (1960); Kaltofen & Lobo (1996): no DP and no scan
    table = count_table(200, q)
    for n in range(201):
        expected = ((q - 1) * q ** (2 * n),
                    *((q * q - 1) * q ** (2 * (n - k)) for k in range(1, n + 1)), 1)
        assert table.row(n) == expected
        assert tuple(nullity_count_closed(n, k, q) for k in range(n + 2)) == expected


# ---------------------------------------------------------------------------
# invertible/nullity-one counts and their closed forms


def test_theta_eta_table():
    expected = {1: (3, 1), 2: (11, 5), 3: (43, 21), 4: (171, 85)}
    for n, (theta, eta) in expected.items():
        assert theta_eta(n) == (theta, eta)
        assert closed_theta(n) == theta
        assert closed_eta(n) == eta


@pytest.mark.parametrize("n", range(1, 25))
def test_theta_eta_closed_forms(n):
    theta, eta = theta_eta(n)
    assert theta == (2 ** (2 * n + 1) + 1) // 3 == closed_theta(n)
    assert eta == (2 ** (2 * n) - 1) // 3 == closed_eta(n)
    assert theta + eta == 4**n


def test_theta_eta_domain():
    for fn in (theta_eta, closed_theta, closed_nullity1, closed_excursions):
        with pytest.raises(ValueError):
            fn(0)


@pytest.mark.parametrize("n", range(2, 15))
def test_invertible_formula_matches_table(n):
    assert invertible_formula(n) == count_table(n, 2).count(n, 0) == 4**n


def test_invertible_formula_domain():
    with pytest.raises(ValueError):
        invertible_formula(1)


def test_nullity_count_closed_matches_table():
    table = count_table(8, 2)
    for n in range(1, 9):
        for k in range(n + 2):
            assert nullity_count_closed(n, k) == table.count(n, k)
    assert nullity_count_closed(5, 0) == 4**5
    assert nullity_count_closed(5, 1) == 3 * 4**4
    with pytest.raises(ValueError):
        nullity_count_closed(3, 5)
    with pytest.raises(ValueError):
        nullity_count_closed(3, -1)
    with pytest.raises(ValueError):
        nullity_count_closed(3, 1, 4)


# ---------------------------------------------------------------------------
# string-weight products


def test_count_string_examples():
    assert count_string(PairState(0, 1), (1, 2, 1, 0), 2) == 4
    assert count_string(PairState(0, 1), (1, 1, 1), 2) == 4
    assert count_string(PairState(0, 1), (1, 2, 2, 2, 1, 0), 2) == 32
    assert count_string(PairState(0, 1), (1, 0), 3) == 4
    assert count_string(PairState(0, 0), (0,), 7) == 1


def test_count_string_validation():
    with pytest.raises(ValueError):
        count_string(PairState(0, 1), (2, 1), 2)  # first value must echo cur
    with pytest.raises(ValueError):
        count_string(PairState(0, 1), (1, 3), 2)  # illegal step
    with pytest.raises(ValueError):
        count_string(PairState(1, 1), (1, 2), 2)  # plateau cannot rise
    assert count_string(PairState(0, 0), (), 5) == 1


def test_count_string_checks_the_modulus_once(monkeypatch):
    calls = []
    monkeypatch.setattr(counting, "is_prime", lambda q: calls.append(q) or True)
    plateau = (1,) + (2,) * 1000 + (1, 0)
    assert count_string(PairState(0, 1), plateau, 3) == 4 * 3**998 * 6 * 9
    assert calls == [3]


def test_count_string_sums_to_census_totals():
    # Summing the product over every realizable continuation of fixed
    # length reproduces the q^(2L) extension total.
    q, depth = 3, 3

    def continuations(state, length):
        if length == 0:
            return 1
        return sum(
            w * continuations(PairState(state.cur, value), length - 1)
            for value, w in transition_weights(state, q)
        )

    for state in (PairState(0, 0), PairState(0, 1), PairState(1, 1)):
        assert continuations(state, depth) == q ** (2 * depth)


# ---------------------------------------------------------------------------
# positive excursions


def test_iter_positive_strings_small():
    assert set(iter_positive_strings(1)) == {(1,)}
    assert set(iter_positive_strings(2)) == {(1, 1), (1, 2)}
    assert set(iter_positive_strings(3)) == {
        (1, 1, 1), (1, 2, 1), (1, 2, 2), (1, 2, 3)}
    assert list(iter_positive_strings(0)) == []


def test_positive_strings_are_single_peaked():
    for length in range(1, 10):
        for s in iter_positive_strings(length):
            assert min(s) >= 1 and s[0] == 1
            rises = [i for i in range(len(s) - 1) if s[i + 1] > s[i]]
            falls = [i for i in range(len(s) - 1) if s[i + 1] < s[i]]
            assert all(r < f for r in rises for f in falls)


def test_positive_string_count_examples():
    assert positive_string_counts(2, 1) == 2
    assert positive_string_counts(2, 3) == 1
    assert positive_string_counts(0, 2) == 0
    assert positive_string_counts(1, 2) == 1
    assert positive_string_counts(4, 1) == positive_string_counts(6, 3) == 3
    with pytest.raises(ValueError):
        positive_string_counts(-1, 1)
    with pytest.raises(ValueError):
        positive_string_counts(2, 0)


@pytest.mark.parametrize("m", range(0, 13))
def test_positive_string_counts_match_enumeration(m):
    by_end = {}
    for s in iter_positive_strings(m + 1):
        by_end[s[-1]] = by_end.get(s[-1], 0) + 1
    for k in range(1, 8):
        assert positive_string_counts(m, k) == by_end.get(k, 0)


@pytest.mark.parametrize("n", range(1, 16))
def test_positive_excursion_closed_form_mod_two(n):
    assert positive_excursion_count(n, 2) == n * 2 ** (n - 1) == closed_excursions(n)


@pytest.mark.parametrize("n", range(1, 16))
def test_nullity1_structured_closed_form(n):
    expected = (n + 3) * 2 ** (n - 2) if n >= 2 else 2
    assert nullity1_structured_count(n) == expected == closed_nullity1(n)


@pytest.mark.parametrize("q", (2, 3, 5))
def test_excursions_decompose_over_positive_strings(q):
    # The excursion total is the weighted sum, over single-peak positive
    # strings ending at 1, of the chains realizing that string and then
    # returning to 0.
    for n in range(1, 7):
        total = sum(
            count_string(PairState(0, 1), s + (0,), q)
            for s in iter_positive_strings(n)
            if s[-1] == 1
        )
        assert total == positive_excursion_count(n, q)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 18), st.integers(1, 8))
def test_positive_counts_shift_identity(m, k):
    assert positive_string_counts(m + k - 1, k) == positive_string_counts(m, 1)
    assert positive_string_counts(k - 1, k) == 1
