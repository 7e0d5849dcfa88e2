"""Acceptance battery: the seven headline guarantees, at full scale.

Every criterion prints exactly one ``[PASS]``/``[FAIL]`` line (visible
even without ``-s``) and is exact: no tolerances anywhere.  The deep
exhaustive scans here are the slow part of the suite; run just this file
with ``pytest tests/test_acceptance.py`` when re-checking the headline
claims.
"""

import functools
from contextlib import contextmanager

import pytest

from toepnull import (
    PairState,
    PrimeField,
    ToeplitzSpec,
    brute_force_strings,
    brute_force_table,
    closed_eta,
    closed_theta,
    count_table,
    extension_census,
    invertible_formula,
    iter_valid_strings,
    nullity1_structured_count,
    positive_excursion_count,
    positive_string_counts,
    rank_spectrum,
    theta_eta,
    validate_nullity_string,
    validate_nullity_string_by_patterns,
    verify_exhaustive,
)


@functools.cache
def verified(n_max, q):
    """The rule and structure reports of one exhaustive walk, shared by
    criteria 4 and 5."""
    return verify_exhaustive(n_max, q)


@contextmanager
def criterion(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] {label}")
        raise
    else:
        with capsys.disabled():
            print(f"[PASS] {label}")


def test_criterion_1_model_matches_enumeration(capsys):
    with criterion(capsys, "1 counts by nullity: weight model == exhaustive "
                           "enumeration (q=2 n<=10, q=3 n<=6, q=5 n<=4)"):
        for q, n_max in ((2, 10), (3, 6), (5, 4)):
            assert brute_force_table(n_max, q).counts == \
                count_table(n_max, q).counts, f"divergence at q={q}"


def test_criterion_2_reference_values(capsys):
    with criterion(capsys, "2 reference values: small counts, terminal-pair "
                           "split, order-2 rank spectrum"):
        table = count_table(3, 2)
        assert table.count(1, 1) == 3
        assert table.count(2, 1) == 12
        assert table.count(2, 0) == 16
        assert table.count(3, 1) == 48
        assert theta_eta(1) == (3, 1)
        assert theta_eta(2) == (11, 5)
        assert rank_spectrum(2, 2) == {3: 16, 2: 12, 1: 3, 0: 1}


def test_criterion_3_closed_forms(capsys):
    with criterion(capsys, "3 closed forms over GF(2): invertible and "
                           "nullity-1 counts, terminal split, table shift, "
                           "structured nullity-1, positive excursions"):
        deep = count_table(48, 2)
        for n in range(1, 41):
            assert deep.count(n, 0) == 2 ** (2 * n)
            assert deep.count(n, 1) == 3 * 4 ** (n - 1)
        for n in range(2, 21):
            assert invertible_formula(n) == 2 ** (2 * n)
        for n in range(1, 21):
            theta, eta = theta_eta(n)
            assert closed_theta(n) == theta
            assert closed_eta(n) == eta
            assert theta + eta == deep.count(n, 0)
        for n in range(1, 21):
            for k in range(1, 9):
                assert deep.count(n + k - 1, k) == deep.count(n, 1)
        for n in range(1, 21):
            expected = (n + 3) * 2 ** (n - 2) if n >= 2 else 2
            assert nullity1_structured_count(n) == expected
            assert positive_excursion_count(n, 2) == n * 2 ** (n - 1)


def test_criterion_4_transition_rules(capsys):
    with criterion(capsys, "4 transition censuses: exhaustive scans (q=2 "
                           "n<=8, q=3 n<=5, q=5 n<=3) and the adjudicating "
                           "identity-matrix census at q=3"):
        identity = ToeplitzSpec(field=PrimeField(3), a=(1, 0), b=(0,))
        assert extension_census(identity) == {0: 7, 1: 2}
        for q, n_max in ((2, 8), (3, 5), (5, 3)):
            report, _ = verified(n_max, q)
            assert report.passed, f"rule failure at q={q}: {report.counterexample}"
            assert all(c.checked > 0 for c in report.checks.values())


def test_criterion_5_kernel_structure(capsys):
    with criterion(capsys, "5 kernel-structure predicates: exhaustive scans "
                           "(q=2 n<=8, q=3 n<=5)"):
        for q, n_max in ((2, 8), (3, 5)):
            _, report = verified(n_max, q)
            assert report.passed, f"structure failure at q={q}"
            assert all(c.checked > 0 for c in report.checks.values())
            assert all(c.cross_checked > 0 for c in report.checks.values())


def test_criterion_6_string_language(capsys):
    with criterion(capsys, "6 nullity-string language: validators agree "
                           "(length <= 12) and realized == valid at q=2 "
                           "(length <= 9)"):

        def step_strings(length, starts=(0, 1, 2)):
            def walk(prefix):
                yield prefix
                if len(prefix) == length:
                    return
                for delta in (-1, 0, 1):
                    nxt = prefix[-1] + delta
                    if nxt >= 0:
                        yield from walk(prefix + (nxt,))

            for start in starts:
                yield from walk((start,))

        for s in step_strings(12):
            assert validate_nullity_string(s) == \
                validate_nullity_string_by_patterns(s), f"validators split on {s}"
        assert set(brute_force_strings(8, 2)) == set(iter_valid_strings(9))


def test_criterion_7_positive_string_counts(capsys):
    with criterion(capsys, "7 single-peak string counts: end-height shift "
                           "identity (m <= 12, k <= 6) and boundary cases"):
        for m in range(13):
            for k in range(1, 7):
                assert positive_string_counts(m + k - 1, k) == \
                    positive_string_counts(m, 1)
                assert positive_string_counts(k - 1, k) == 1
                if m < k - 1:
                    assert positive_string_counts(m, k) == 0
