"""Exhaustive enumeration: censuses, budgets, parallel determinism, sampling."""

import itertools
import multiprocessing
import pickle
from collections import Counter

import pytest

from toepnull import (
    BudgetExceededError,
    Counterexample,
    DEFAULT_BUDGET,
    PairState,
    PrimeField,
    RankCrossCheckError,
    RuleClass,
    ToeplitzSpec,
    XorShift64,
    brute_force_strings,
    brute_force_table,
    count_string,
    count_table,
    extend,
    extension_census,
    iter_valid_strings,
    rank_nullity,
    sample_census,
    spec_index,
    state_distribution,
    theta_eta,
    verify_exhaustive,
)
from toepnull import cli, enumeration, kernel_structure
from toepnull.enumeration import MAX_JOBS, _Tally, walk
from toepnull.toeplitz import engine, gfq_rows

from census_faults import skew_census
from lane_faults import fault_lane
from prefix_oracle import scratch_nullity_string

F2 = PrimeField(2)


# ---------------------------------------------------------------------------
# enumeration order and indexing


def all_specs(n, q):
    """Every spec of order n, in lex order of its digits (a_0, a_1, b_1, ..., a_n, b_n)."""
    fld = PrimeField(q)
    return [ToeplitzSpec(field=fld, a=(d[0], *d[1::2]), b=d[2::2])
            for d in itertools.product(range(q), repeat=2 * n + 1)]


@pytest.mark.parametrize("n, q", [(0, 2), (2, 2), (1, 3), (1, 5)])
def test_enumerate_all_is_complete_and_ordered(n, q):
    # spec_index maps the lex enumeration of all order-n specs onto range(q^(2n+1))
    specs = all_specs(n, q)
    assert len(specs) == q ** (2 * n + 1)
    assert len(set(specs)) == len(specs)
    assert all(s.order == n for s in specs)
    assert [spec_index(s) for s in specs] == list(range(len(specs)))


def test_spec_index_tracks_digit_order():
    # the digits (a_0, a_1, b_1, a_2, b_2) in base 3, b_2 the last
    fld = PrimeField(3)
    for a, b, index in [((0, 0, 0), (0, 0), 0), ((0, 0, 0), (0, 1), 1),
                        ((0, 0, 1), (0, 0), 3), ((0, 1, 0), (2, 0), 45),
                        ((1, 0, 0), (0, 0), 81), ((2, 2, 2), (2, 2), 242)]:
        assert spec_index(ToeplitzSpec(field=fld, a=a, b=b)) == index


def test_enumerate_rejects_bad_parameters():
    with pytest.raises(ValueError):
        brute_force_strings(-1, 2)
    with pytest.raises(ValueError):
        brute_force_strings(2, 6)


# ---------------------------------------------------------------------------
# the walker against the slow path


@pytest.mark.parametrize("n, q", [(3, 2), (2, 3), (1, 5)])
def test_walk_matches_per_spec_measurements(n, q):
    eng = engine(q)
    specs = {m: all_specs(m, q) for m in range(n + 1)}
    seen = {m: [] for m in range(n + 1)}
    for m, index, rows, string, child_nus, weight in walk(q, n):
        assert weight == 1
        seen[m].append(index)
        spec = specs[m][index]
        assert rows == eng.rows(spec.a, spec.b)
        assert string == scratch_nullity_string(spec)
        children = [] if m == n else [rank_nullity(extend(spec, b_new, a_new))[1]
                                      for a_new in range(q) for b_new in range(q)]
        assert list(child_nus) == children
    assert sum(map(len, seen.values())) == sum(q ** (2 * m + 1) for m in range(n + 1))
    for m, indices in seen.items():
        assert indices == list(range(q ** (2 * m + 1)))


@pytest.mark.parametrize("q", (2, 3, 13))
def test_order_zero_scans_stop_at_the_roots(q):
    # only a_0 = 0 gives a singular 1 x 1 matrix; roots have no children
    nodes = [(m, index, string, nus, w) for m, index, _, string, nus, w in walk(q, 0)]
    assert nodes == [(0, a0, (int(a0 == 0),), (), 1) for a0 in range(q)]
    assert brute_force_table(0, q).counts == ((q - 1, 1),)
    assert set(brute_force_strings(0, q)) == {(0,), (1,)}
    rules, structure = verify_exhaustive(0, q)
    assert rules.passed and structure.passed
    assert {name: c.checked for name, c in rules.checks.items()} == {
        **{c.value: 0 for c in RuleClass}, "start": 1}
    assert all(c.checked == 0 for c in structure.checks.values())


def test_start_census_failure_is_reported(monkeypatch):
    # every 1 x 1 matrix claims rank 1, so no root opens at nullity 1
    monkeypatch.setattr(type(engine(3)), "rank", lambda self, rows: 1)
    rules, structure = verify_exhaustive(0, 3)
    start = rules.checks["start"]
    assert (start.checked, start.failures, rules.passed) == (1, 1, False)
    assert rules.counterexample == start.counterexample == Counterexample(
        order=0, a=(0,), b=(), index=0,
        detail="start census {0: 3} != expected {0: 2, 1: 1}")
    assert structure.passed


def test_walk_preorder_parent_is_last_node_one_order_up():
    last = {}
    for m, index, _, string, _, _ in walk(3, 2):
        if m:
            parent_index, parent_string = last[m - 1]
            assert index // 9 == parent_index and string[:-1] == parent_string
        last[m] = (index, string)


# ---------------------------------------------------------------------------
# the orbit-reduced walk against the full walk (the trivial group)


def full_walk_counts(q, n):
    counts = [[0] * (m + 2) for m in range(n + 1)]
    for m, _, _, string, _, _ in walk(q, n):
        counts[m][string[-1]] += 1
    return tuple(map(tuple, counts))


@pytest.mark.parametrize("q, n", [(2, 6), (3, 3), (5, 2), (7, 2), (11, 1), (13, 1)])
def test_reduced_counts_match_the_full_walk(q, n):
    assert brute_force_table(n, q).counts == full_walk_counts(q, n)


@pytest.mark.parametrize("q, n_max", [(2, 8), (3, 5)])
def test_lanes_match_the_full_walk_at_every_order(q, n_max):
    # the identity-group walk ranks every spec one at a time: the oracle
    # for the bit-sliced elimination, its chunk weights and its division
    full = full_walk_counts(q, n_max)
    for n in range(n_max + 1):
        assert brute_force_table(n, q).counts == full[:n + 1], n


def stride_lanes(monkeypatch):
    """Record the order-n specs whose lanes are re-ranked from scratch."""
    seen, real = [], enumeration._index_to_ab
    monkeypatch.setattr(enumeration, "_index_to_ab",
                        lambda index, m, q: seen.append((m, index)) or real(index, m, q))
    return seen


@pytest.mark.parametrize("q, n", [(2, 8), (3, 5)])
def test_lanes_count_and_check_the_same_specs_at_any_jobs(monkeypatch, q, n):
    monkeypatch.setattr(enumeration, "Pool", _InlinePool)
    seen = stride_lanes(monkeypatch)
    tables, checked = [], []
    for jobs in (1, 2, 7):
        seen.clear()
        tables.append(brute_force_table(n, q, jobs=jobs))
        checked.append(sorted(index for m, index in seen if m == n))
    assert tables[0].counts == count_table(n, q).counts
    assert tables == tables[:1] * 3 and checked == checked[:1] * 3
    # every 64th lex index among the specs under the lex-least chunk prefixes
    assert checked[0] == sorted(set(checked[0])) and len(checked[0]) >= 50
    assert all(index % enumeration.CHECK_STRIDE == 0 for index in checked[0])


@pytest.mark.parametrize("q", (2, 3))
def test_a_faulty_lane_on_the_stride_fails_its_cross_check(monkeypatch, q):
    # the zero matrix of order 4 is lane 0 of the first chunk: its last
    # step claims a pivot, which the from-scratch string does not have
    fault_lane(monkeypatch, 0)
    with pytest.raises(RankCrossCheckError) as exc:
        brute_force_table(4, q)
    assert exc.value.args[:2] == (4, 0)
    assert str(exc.value) == ("lane cross-check failed: the order-4 spec at index 0 has "
                              "nullity string (1, 2, 3, 4, 4) in its lane but "
                              "(1, 2, 3, 4, 5) from scratch")
    err = pickle.loads(pickle.dumps(exc.value))
    assert err.args == exc.value.args and str(err) == str(exc.value)


@pytest.mark.parametrize("q", (2, 3))
def test_a_faulty_lane_off_the_stride_shows_in_the_counts(monkeypatch, q):
    # lane 1 (b_4 = 1, all else 0) makes its one pivot at order 4: flipped
    # there, only the order-4 row moves; flipped at order 3 the lane's
    # string moves for order 3 alone, which q^2 extensions cannot share
    fault_lane(monkeypatch, 1)
    table = brute_force_table(4, q)
    model = count_table(4, q).counts
    assert table.counts[:4] == model[:4] and table.counts[4] != model[4]
    assert sum(table.counts[4]) == q ** 9
    monkeypatch.undo()
    fault_lane(monkeypatch, 1, 3)
    with pytest.raises(RankCrossCheckError) as exc:
        brute_force_table(4, q)
    assert exc.value.args[:2] == (3, 0)
    assert str(exc.value) == (f"orbit cross-check failed: {13 if q == 2 else 73} weighted "
                              f"lanes have nullity 3 at order 3, not a multiple of {q}^2")


def test_reduced_census_matches_the_full_walk(monkeypatch):
    # the identity-group walk yields every spec once: the oracle for the
    # parent-side orbit weights, serially and over index ranges
    monkeypatch.setattr(enumeration, "Pool", _InlinePool)
    for q, n_max in ((2, 6), (3, 4), (5, 3), (7, 2)):
        for n in range(n_max + 1):
            full = Counter(node[3] for node in walk(q, n))
            for jobs in (1, 2):
                assert brute_force_strings(n, q, jobs=jobs) == full, (q, n, jobs)


def terminal_pairs(census, n):
    """The census's order-n specs by their last two nullities."""
    ends = Counter()
    for string, count in census.items():
        if len(string) == n + 1:
            ends[PairState(*string[-2:])] += count
    return ends


@pytest.mark.parametrize("q, n", [(2, 6), (3, 4), (5, 3), (7, 2), (11, 1), (13, 1)])
def test_census_terminal_pairs_match_the_model(q, n):
    census = brute_force_strings(n, q)
    for m in range(1, n + 1):
        assert terminal_pairs(census, m) == state_distribution(m, q)


@pytest.mark.parametrize("q, n", [(2, 8), (3, 5), (5, 3), (7, 2), (11, 1), (13, 1)])
def test_census_counts_every_string_as_the_model_does(q, n):
    # the paper's headline count: every string nu_0..nu_m is realized by
    # (q - 1 or 1 roots) times the product of its census weights
    census = brute_force_strings(n, q)
    assert set(census) == set(iter_valid_strings(n + 1))
    for string, count in census.items():
        roots = q - 1 if string[0] == 0 else 1
        assert count == roots * count_string(PairState(0, string[0]), string, q), string
    for m in range(n + 1):
        assert sum(c for s, c in census.items() if len(s) == m + 1) == q ** (2 * m + 1)


@pytest.mark.parametrize("q, n", [(2, 6), (3, 3), (5, 2), (7, 1), (13, 1)])
def test_orbit_sizes_of_each_order_add_up(q, n):
    group = enumeration._group(q, n)
    assert len(group) == 2 * (q - 1) ** 2
    sizes = Counter()
    for m, _, _, _, _, weight in walk(q, n, group=group):
        sizes[m] += weight
    assert sizes == {m: q ** (2 * m + 1) for m in range(n + 1)}


@pytest.mark.parametrize("q, n", [(2, 3), (3, 2), (5, 1), (7, 1)])
def test_reduced_walk_visits_the_least_spec_of_each_orbit(q, n):
    # orbits straight from the matrices: c T, D T D^-1 with D = diag(lam^i),
    # and transposes; a matrix is looked up to find its spec's lex index
    walked = {(m, index): weight
              for m, index, *_, weight in walk(q, n, group=enumeration._group(q, n))}
    expected = {}
    for m in range(n + 1):
        index_of = {tuple(map(tuple, gfq_rows(s.a, s.b))): i
                    for i, s in enumerate(all_specs(m, q))}
        for mat, i in index_of.items():
            orbit = set()
            for t, c, lam in itertools.product((0, 1), range(1, q), range(1, q)):
                img = [[c * pow(lam, r - s, q) * x % q for s, x in enumerate(row)]
                       for r, row in enumerate(mat)]
                orbit.add(index_of[tuple(zip(*img)) if t else tuple(map(tuple, img))])
            if min(orbit) == i:
                expected[m, i] = len(orbit)
    assert walked == expected


def test_a_stride_spec_gets_both_cross_checks(monkeypatch):
    # every walked spec with children whose index is a multiple of the
    # stride has its children re-ranked and its orbit expanded, at any jobs
    stride = [(m, index) for m, index, *_ in walk(3, 4, group=enumeration._group(3, 4))
              if m < 4 and not index % enumeration.CHECK_STRIDE]
    ranked, orbits = [], []
    monkeypatch.setattr(enumeration, "_check_ranks",
                        lambda q, kids, nus, m, index: ranked.append((m, index)))
    real = enumeration._check_orbit
    monkeypatch.setattr(enumeration, "_check_orbit",
                        lambda *args: orbits.append(args[2:4]) or real(*args))
    brute_force_strings(4, 3)
    assert ranked == orbits == stride and len(stride) >= 3
    # ranges in-process: ancestors are walked again, every stride spec at least once
    monkeypatch.setattr(enumeration, "Pool", _InlinePool)
    ranked.clear()
    orbits.clear()
    brute_force_strings(4, 3, jobs=7)
    assert set(ranked) == set(orbits) == set(stride)
    ranked.clear()
    orbits.clear()
    verify_exhaustive(4, 3)  # verify walks the same reduced tree
    assert ranked == orbits == stride


# ---------------------------------------------------------------------------
# single-spec censuses


def census_of(a, b, q=2):
    spec = ToeplitzSpec(field=PrimeField(q), a=a, b=b)
    return extension_census(spec)


def test_extension_census_examples():
    assert census_of((1,), ()) == {0: 3, 1: 1}
    assert census_of((0,), ()) == {0: 1, 1: 2, 2: 1}
    assert census_of((0, 0), (0,)) == {3: 1, 2: 2, 1: 1}
    assert census_of((1, 0, 0), (0, 0), q=3) == {0: 7, 1: 2}


@pytest.mark.parametrize("q", (2, 3, 5))
def test_census_totals_and_step_bound(q):
    fld = PrimeField(q)
    from toepnull import rank_nullity

    for digits in itertools.product(range(q), repeat=3):
        spec = ToeplitzSpec(field=fld, a=digits[:2], b=digits[2:])
        census = extension_census(spec)
        nu = rank_nullity(spec)[1]
        assert sum(census.values()) == q * q
        assert all(abs(child - nu) <= 1 for child in census)


# ---------------------------------------------------------------------------
# budget plumbing


def test_resolve_budget_precedence():
    # without a budget the default cap decides; a passed budget replaces it
    enumeration._require_budget(13, 2, None)  # 2^27 matrices
    with pytest.raises(BudgetExceededError) as exc:
        enumeration._require_budget(14, 2, None)
    assert (exc.value.required, exc.value.budget) == (2 ** 29, DEFAULT_BUDGET)
    enumeration._require_budget(14, 2, 2 ** 29)
    with pytest.raises(BudgetExceededError):
        brute_force_strings(1, 2, budget=7)


def test_resolve_budget_rejects_garbage():
    for bad in (0, -5):
        for scan in (brute_force_table, brute_force_strings, verify_exhaustive):
            with pytest.raises(ValueError, match="budget must be positive"):
                scan(1, 2, budget=bad)


def test_budget_guard_reports_requirement():
    with pytest.raises(BudgetExceededError) as exc:
        brute_force_table(14, 2)
    assert exc.value.required == 2**29
    assert exc.value.budget == DEFAULT_BUDGET
    # a raised cap admits the scan; a tight one still covers small orders
    assert brute_force_table(2, 2, budget=32).row(2) == (16, 12, 3, 1)
    with pytest.raises(BudgetExceededError):
        brute_force_table(2, 2, budget=31)


def test_budget_argument_guards_scans():
    with pytest.raises(BudgetExceededError):
        brute_force_table(4, 2, budget=100)
    with pytest.raises(BudgetExceededError):
        verify_exhaustive(4, 2, budget=100)
    with pytest.raises(BudgetExceededError):
        brute_force_strings(4, 2, budget=100)
    assert brute_force_table(1, 2, budget=8).row(1) == (4, 3, 1)


# ---------------------------------------------------------------------------
# brute force versus the weight model


@pytest.mark.parametrize("n, q", [(6, 2), (3, 3), (2, 5)])
def test_brute_force_matches_model(n, q):
    assert brute_force_table(n, q).counts == count_table(n, q).counts


def test_brute_force_matches_direct_enumeration():
    from toepnull import rank_nullity

    table = brute_force_table(2, 3)
    for n in range(3):
        tally = [0] * (n + 2)
        for spec in all_specs(n, 3):
            tally[rank_nullity(spec)[1]] += 1
        assert table.row(n) == tuple(tally)


def census_theta_eta(n):
    """Order-n GF(2) specs ending (0, 0) and (1, 0), read off the census."""
    ends = terminal_pairs(brute_force_strings(n, 2), n)
    return ends[PairState(0, 0)], ends[PairState(1, 0)]


def test_brute_force_theta_eta():
    assert census_theta_eta(1) == (3, 1)
    assert census_theta_eta(4) == (171, 85)
    for n in range(1, 7):
        assert census_theta_eta(n) == theta_eta(n)


# ---------------------------------------------------------------------------
# parallel scans are deterministic and agree with serial ones


def rule_summary(report):
    return {
        name: (c.checked, c.failures, c.expected_offsets)
        for name, c in report.checks.items()
    }


def test_jobs_do_not_change_results():
    serial = brute_force_table(4, 2, jobs=1)
    assert brute_force_table(4, 2, jobs=2).counts == serial.counts
    assert brute_force_table(4, 2, jobs=7).counts == serial.counts

    rules1, s1 = verify_exhaustive(3, 3, jobs=1)
    rules2, s2 = verify_exhaustive(3, 3, jobs=2)
    assert rules1.passed and rules2.passed
    assert rule_summary(rules1) == rule_summary(rules2)

    assert s1.passed and s2.passed
    assert {k: (c.checked, c.cross_checked) for k, c in s1.checks.items()} == {
        k: (c.checked, c.cross_checked) for k, c in s2.checks.items()
    }


class _InlinePool:
    """Stands in for multiprocessing.Pool: records its size, maps in-process."""

    sizes = []

    def __init__(self, size):
        self.sizes.append(size)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, args):
        return map(fn, args)


def identity_group(q, n_max):
    return [(range(q), [range(q * q)] * (q - 1))]


@pytest.mark.parametrize("q, n_max", [(2, 6), (3, 4), (5, 3), (7, 2)])
def test_reduced_verify_matches_the_full_walk(monkeypatch, q, n_max):
    # under the identity group verify walks every spec once, each with
    # weight 1: the oracle for the orbit weights and the replayed members
    monkeypatch.setattr(enumeration, "Pool", _InlinePool)
    reduced = [[verify_exhaustive(n, q, jobs=jobs) for n in range(n_max + 1)]
               for jobs in (1, 2)]
    monkeypatch.setattr(enumeration, "_group", identity_group)
    full = [verify_exhaustive(n, q) for n in range(n_max + 1)]
    assert reduced == [full, full]


def test_reduced_verify_fails_like_the_full_walk(monkeypatch):
    # faults that depend only on nullities fail whole orbits: the failure
    # counts and the first counterexamples match the full walk's
    skew_census(monkeypatch, RuleClass.PLATEAU, 1)
    monkeypatch.setattr(kernel_structure, "check_plateau_shift", lambda run: len(run) > 3)
    monkeypatch.setattr(enumeration, "CHECK_STRIDE", 5)
    monkeypatch.setattr(enumeration, "Pool", _InlinePool)
    reduced = [verify_exhaustive(3, 3, jobs=jobs) for jobs in (1, 2)]
    monkeypatch.setattr(enumeration, "_group", identity_group)
    full = verify_exhaustive(3, 3)
    assert not full[0].passed and not full[1].passed
    assert full[0].counterexample.order == 1
    assert reduced == [full, full]


@pytest.mark.parametrize("scan, n, q", [(brute_force_strings, 7, 2), (brute_force_table, 7, 3)])
def test_stride_checks_are_independent_of_jobs(monkeypatch, scan, n, q):
    # a range that does not start at 0 re-walks the ancestors above its
    # split level; their stride checks belong to the range at 0 alone
    monkeypatch.setattr(enumeration, "Pool", _InlinePool)
    calls = Counter()
    for name in ("_check_orbit", "_check_ranks"):
        def counted(*args, real=getattr(enumeration, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(enumeration, name, counted)
    counts = []
    for jobs in (1, 8, 64):
        calls.clear()
        scan(n, q, jobs=jobs)
        counts.append(dict(calls))
    assert counts[0]["_check_orbit"] and counts[0]["_check_ranks"]
    assert counts[0] == counts[1] == counts[2]


def test_pool_is_sized_by_ranges_and_jobs_are_capped(monkeypatch):
    monkeypatch.setattr(enumeration, "Pool", _InlinePool)
    _InlinePool.sizes.clear()
    serial = brute_force_strings(3, 2)
    # the split level of q=2, n=3 holds 2^5 specs, 20 of them least in
    # their orbits, so at most 20 ranges, none of them empty
    assert brute_force_strings(3, 2, jobs=MAX_JOBS) == serial
    assert _InlinePool.sizes == [20]
    # the lane table walks to its chunk order 2 and splits above it, at
    # order 1: 2^3 specs, 6 of them least in their orbits
    assert brute_force_table(3, 2, jobs=MAX_JOBS).counts == brute_force_table(3, 2).counts
    assert _InlinePool.sizes == [20, 6]
    assert verify_exhaustive(3, 2, jobs=3)[0].passed
    assert _InlinePool.sizes == [20, 6, 3]
    for bad in (0, MAX_JOBS + 1, 100000, True, 2.0):
        with pytest.raises(ValueError):
            brute_force_table(3, 2, jobs=bad)
        with pytest.raises(ValueError):
            verify_exhaustive(3, 2, jobs=bad)
    assert _InlinePool.sizes == [20, 6, 3]


def test_exhaustive_verify_starts_one_pool(monkeypatch, capsys):
    monkeypatch.setattr(enumeration, "Pool", _InlinePool)
    _InlinePool.sizes.clear()
    assert cli.main(["verify", "--n", "3", "--q", "2", "--jobs", "2"]) == cli.EXIT_OK
    assert "result: PASS" in capsys.readouterr().out
    assert _InlinePool.sizes == [2]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the injected faults")
def test_first_counterexample_is_independent_of_jobs(monkeypatch):
    skew_census(monkeypatch, RuleClass.ASCENDING, 1)
    monkeypatch.setattr(kernel_structure, "check_plateau_shift", lambda run: len(run) > 3)
    monkeypatch.setattr(enumeration, "CHECK_STRIDE", 5)
    rules, structure = zip(*(verify_exhaustive(3, 3, jobs=jobs) for jobs in (1, 2)))
    assert not rules[0].passed and rules[0].counterexample is not None
    assert not structure[0].passed
    assert structure[0].checks["plateau_shift"].counterexample is not None
    assert rules[0] == rules[1]
    assert structure[0] == structure[1]


def test_rule_scan_covers_every_parent():
    report, _ = verify_exhaustive(3, 3)
    assert report.passed
    # every spec of order < 3 is censused once, plus one root-distribution check
    assert report.checks["start"].checked == 1
    total = sum(c.checked for name, c in report.checks.items() if name != "start")
    assert total == sum(3 ** (2 * m + 1) for m in range(3))


def test_structure_scan_counts_steps():
    _, report = verify_exhaustive(3, 2)
    assert report.passed
    assert all(c.cross_checked <= c.checked for c in report.checks.values())
    assert report.checks["ascent_span"].checked > 0
    assert report.checks["plateau_shift"].checked > 0
    assert report.checks["descent_interior_zeros"].checked > 0
    assert report.checks["single_generator_ends"].checked > 0


def step_name(prev, cur):
    """The predicate that the step prev -> cur qualifies for, if any."""
    if prev == 0 and cur == 1:
        return "single_generator_ends"
    if prev >= 1 and cur == prev + 1:
        return "ascent_span"
    if prev >= 1 and cur == prev:
        return "plateau_shift"
    if prev > cur >= 1:
        return "descent_interior_zeros"
    return None


@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize("q, n", [(2, 4), (3, 2), (5, 1)])
def test_one_walk_checks_each_qualifying_spec_once(q, n, jobs):
    censuses = dict.fromkeys((cls.value for cls in RuleClass), 0)
    steps = dict.fromkeys(("single_generator_ends", "ascent_span", "plateau_shift",
                           "descent_interior_zeros"), 0)
    for m in range(n + 1):
        for spec in all_specs(m, q):
            string = scratch_nullity_string(spec)
            prev = string[-2] if m else 0
            if m < n:
                censuses[PairState(prev, string[-1]).rule_class.value] += 1
            name = step_name(prev, string[-1]) if m else None
            if name is not None:
                steps[name] += 1
    rules, structure = verify_exhaustive(n, q, jobs=jobs)
    assert rules.passed and structure.passed
    assert {name: c.checked for name, c in rules.checks.items()} == {**censuses, "start": 1}
    assert {name: c.checked for name, c in structure.checks.items()} == steps


# ---------------------------------------------------------------------------
# the failure path is live: fabricated measurements are caught


def test_rule_stats_flags_wrong_census():
    tally = _Tally(2)
    # the four children of a = (1,) have nullities 0, 0, 0, 1
    tally.census(0, 0, [0, 0, 0, 1], 0, 1)
    check = tally["zero_zero"]
    assert (check.checked, check.failures) == (1, 0)
    # a fabricated census for the order-1 spec a = (1, 0), b = (0,)
    tally.census(0, 0, [0, 0, 1, 1], 1, 4)
    check = tally["zero_zero"]
    cex = check.counterexample
    assert (check.checked, check.failures) == (2, 1)
    assert cex is not None and cex.order == 1 and cex.a == (1, 0)
    # the recorded spec can be rebuilt and re-measured independently,
    # exposing the fabricated census
    rebuilt = ToeplitzSpec(field=F2, a=cex.a, b=cex.b)
    assert extension_census(rebuilt) == {0: 3, 1: 1}


def test_predicate_refusal_is_a_failed_cross_check():
    # the scan claims the zero specs of orders 2 and 3 form a plateau run;
    # their nullities are 3 and 4, so the public predicate refuses them
    tally = _Tally(2)
    enumeration._cross_check(tally, enumeration.PLATEAU_RUN, True, 3, 0, 2)
    check = tally[enumeration.PLATEAU_RUN]
    assert (check.checked, check.cross_checked, check.failures) == (0, 1, 1)
    assert check.counterexample.detail == ("plateau_shift: predicate refuses the spec: "
                                           "all specs in the run must share one positive "
                                           "nullity")


@pytest.mark.parametrize("q, n", [(2, 4), (3, 3)])
def test_a_wrong_ascent_kernel_fails_the_span_check(monkeypatch, q, n):
    # at the first walked ascent nu d -> d+1 (d >= 1) of order n off the
    # kernel stride, swap the kernel for e_0..e_d: canonical, of the right
    # dimension, and spanning another subspace
    eng = engine(q)
    index, string = next((index, string) for m, index, _, string, _, _ in walk(
        q, n, group=enumeration._group(q, n)) if m == n and string[-2] >= 1
        and string[-1] == string[-2] + 1 and index % enumeration.CHECK_STRIDE)
    target = eng.rows(*enumeration._index_to_ab(index, n, q))
    wrong = tuple(1 << eng.bits * j for j in range(string[-1]))
    real = type(eng).kernel
    assert real(eng, target) != wrong

    def kernel(self, rows):
        return wrong if rows == target else real(self, rows)

    monkeypatch.setattr(type(eng), "kernel", kernel)
    rules, structure = verify_exhaustive(n, q)
    assert rules.passed
    check = structure.checks[enumeration.ASCENT]
    assert check.failures >= 1 and check.counterexample.sort_key == (n, index)
    assert check.counterexample.detail == "kernel is not the span of the shifted old kernel"
    others = [c for name, c in structure.checks.items() if name != enumeration.ASCENT]
    assert not any(c.failures for c in others)


def test_rule_stats_keeps_smallest_counterexample():
    tally = _Tally(2)
    tally.census(0, 0, [0] * 9, 1, 7)
    tally.census(0, 0, [0] * 9, 0, 0)
    assert tally["zero_zero"].counterexample.sort_key == (0, 0)
    # merging keeps the smallest too, whichever side holds it
    other = _Tally(2)
    other.census(0, 0, [0] * 9, 1, 7)
    other.merge(tally)
    merged = other["zero_zero"]
    assert [merged.failures, merged.counterexample] == [3, tally["zero_zero"].counterexample]


# ---------------------------------------------------------------------------
# seeded sampling


def test_xorshift_reference_stream():
    gen = XorShift64(1)
    assert [gen.next_word() for _ in range(3)] == [
        1082269761,
        1152992998833853505,
        11177516664432764457,
    ]


def test_xorshift_zero_seed_falls_back():
    assert XorShift64(0).next_word() == XorShift64(2**64).next_word() != 0


def test_xorshift_below_stays_in_range():
    gen = XorShift64(42)
    draws = [gen.below(5) for _ in range(500)]
    assert set(draws) <= set(range(5))
    assert len(set(draws)) == 5
    with pytest.raises(ValueError):
        gen.below(0)
    # no rejection threshold exists past 2^64 (the draw would never end)
    with pytest.raises(ValueError):
        gen.below(2**64 + 1)
    state = gen.state
    assert gen.below(2**64) == XorShift64(state).next_word()  # every word is kept


def test_sample_census_is_deterministic():
    first = sample_census(9, 5, trials=40, seed=7)
    second = sample_census(9, 5, trials=40, seed=7)
    assert first.passed
    assert rule_summary(first) == rule_summary(second)
    assert sum(c.checked for c in first.checks.values()) == 40
    shifted = sample_census(9, 5, trials=40, seed=8)
    assert shifted.passed


def test_sample_census_beyond_exhaustive_budget():
    # 13^33 specs of order 16 exist; sampling still answers in milliseconds
    report = sample_census(16, 13, trials=4, seed=3)
    assert report.passed
    assert sum(c.checked for c in report.checks.values()) == 4


def test_sample_census_validates_trials():
    with pytest.raises(ValueError):
        sample_census(3, 2, trials=-1, seed=0)
    assert sample_census(3, 2, trials=0, seed=0).passed


@pytest.mark.parametrize("q", (2, 3, 13))
def test_sampled_trials_off_the_stride_rank_nothing_from_scratch(monkeypatch, q):
    # a trial is one rows build, one rank-profile string and one shared
    # elimination of its children; only a stride trial re-ranks its q^2
    # children from scratch
    calls = Counter()
    cls = type(engine(q))
    for name in ("rank", "children", "prefix_nullities", "rows"):
        def counted(self, *args, real=getattr(cls, name), name=name):
            calls[name] += 1
            return real(self, *args)
        monkeypatch.setattr(cls, name, counted)
    assert sample_census(9, q, trials=5, seed=3).passed
    assert calls == {"rank": q * q, "children": 5, "prefix_nullities": 5, "rows": 5}
    calls.clear()
    monkeypatch.setattr(enumeration, "CHECK_STRIDE", 2)  # trials 0, 2 and 4
    assert sample_census(9, q, trials=5, seed=3).passed
    assert calls == {"rank": 3 * q * q, "children": 5, "prefix_nullities": 5, "rows": 5}


def test_a_sampled_pair_past_the_step_bound_fails_a_check(monkeypatch):
    # a nullity string that jumps is a measurement fault, not bad input
    cls = type(engine(3))
    real = cls.prefix_nullities
    monkeypatch.setattr(cls, "prefix_nullities",
                        lambda self, rows: real(self, rows)[:-1] + (9,))
    report = sample_census(4, 3, trials=3, seed=2)
    step = report.checks["step_bound"]
    assert (step.checked, step.failures, step.expected_offsets) == (3, 3, {})
    assert report.counterexample is step.counterexample
    assert step.counterexample.detail.startswith(
        "consecutive nullities differ by at most 1, got (")
    assert sample_census(4, 3, trials=0, seed=2).checks.keys() == {
        c.value for c in RuleClass}


# ---------------------------------------------------------------------------
# rank cross-checks of the shared elimination


def misreport(monkeypatch, q, specs=None):
    """Make ``engine(q).children`` overstate its last child's nullity, for
    the (order, index) specs given or for every spec."""
    eng = engine(q)
    real = type(eng).children
    faulty = None if specs is None else [
        eng.rows(*enumeration._index_to_ab(index, m, q)) for m, index in specs]

    def children(self, rows):
        kids, nus = real(self, rows)
        if faulty is None or rows in faulty:
            nus[-1] += 1
        return kids, nus

    monkeypatch.setattr(type(eng), "children", children)


def rank_failure(order, index, a_new, b_new, shared, scratch):
    """``failure`` of the rank cross-check that fails child (a_new, b_new) of
    the order-``order`` spec at ``index``."""
    return (order, index), (
        f"rank cross-check failed: child (a_new, b_new) = ({a_new}, {b_new}) of the "
        f"order-{order} spec at index {index} has nullity {shared} by shared elimination "
        f"but {scratch} from scratch")


def failure(exc):
    """The (order, index) and the message of a raised cross-check."""
    return exc.value.args[:2], str(exc.value)


def test_censuses_cross_check_ranks(monkeypatch):
    misreport(monkeypatch, 3)
    with pytest.raises(RankCrossCheckError) as exc:
        extension_census(ToeplitzSpec(field=PrimeField(3), a=(1, 2), b=(0,)))
    assert failure(exc) == rank_failure(1, 15, 2, 2, 1, 0)
    err = pickle.loads(pickle.dumps(exc.value))
    assert err.args == exc.value.args and str(err) == str(exc.value)
    with pytest.raises(RankCrossCheckError):
        sample_census(9, 3, trials=1, seed=7)  # trial 0 is always re-ranked


def census_counts(census, n):
    """N(m, nu) for m <= n summed off a string census by last entry."""
    counts = [[0] * (m + 2) for m in range(n + 1)]
    for string, count in census.items():
        counts[len(string) - 1][string[-1]] += count
    return tuple(map(tuple, counts))


def test_walk_cross_checks_on_a_stride(monkeypatch):
    # off the stride, a child overstated within one step of its parent's
    # nullity 2 shows only as a count mismatch
    misreport(monkeypatch, 2, [(3, 3)])
    assert census_counts(brute_force_strings(4, 2), 4) != count_table(4, 2).counts
    monkeypatch.undo()
    # one overstated from 1 to 2 under a parent of nullity 0 is a step of two
    misreport(monkeypatch, 2, [(3, 63)])
    with pytest.raises(RankCrossCheckError) as exc:
        brute_force_strings(4, 2)
    assert failure(exc) == rank_failure(3, 63, 1, 1, 2, 1)
    monkeypatch.undo()
    misreport(monkeypatch, 2, [(3, 64)])
    with pytest.raises(RankCrossCheckError) as exc:
        brute_force_strings(4, 2)
    assert failure(exc) == rank_failure(3, 64, 1, 1, 2, 1)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the injected fault")
def test_rank_cross_check_failure_is_independent_of_jobs(monkeypatch):
    # q=2, n=5, jobs=5 splits order 4 into 20 ranges.  The range at 0 also
    # walks every order-3 spec and reaches (3, 64), digits (1, 0, ..., 0),
    # only after the serial walk has met (4, 192), digits (0, 1, 1, 0, ...,
    # 0), which lies in a later range; both are least in their orbits
    walked = {(m, index) for m, index, *_ in walk(2, 5, group=enumeration._group(2, 5))}
    assert {(3, 64), (4, 192)} <= walked
    misreport(monkeypatch, 2, [(3, 64), (4, 192)])
    errors = []
    for jobs in (1, 5):
        with pytest.raises(RankCrossCheckError) as exc:
            verify_exhaustive(5, 2, jobs=jobs)
        errors.append(failure(exc))
    assert errors[0] == errors[1] == rank_failure(4, 192, 1, 1, 3, 2)
    with pytest.raises(RankCrossCheckError) as exc:
        enumeration._verify_scan((2, 5, 4, 0, 1))  # any range at 0
    assert failure(exc) == rank_failure(3, 64, 1, 1, 2, 1)


def failing_scan(args):
    """A scan that fails in every range but the one at 0."""
    q, n_max, split, lo, hi = args
    if lo:
        raise RankCrossCheckError(split, lo, f"range [{lo}, {hi}) failed")
    return [lo]


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_a_cross_check_failure_crosses_a_pool_that_is_not_forked(monkeypatch, method):
    # workers started afresh (forkserver is the Linux default from Python
    # 3.14) send their failures back pickled; the first in preorder wins
    monkeypatch.setattr(enumeration, "Pool", multiprocessing.get_context(method).Pool)
    with pytest.raises(RankCrossCheckError) as exc:
        enumeration._run(failing_scan, list.extend, 2, 5, 2)
    assert failure(exc) == ((3, 15), "range [15, 24) failed")


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the injected faults")
def test_lane_table_failure_is_independent_of_jobs(monkeypatch):
    # orbit faults at the order-2 stride spec 128, digits (1, 1, 2, 0, 2),
    # and at the order-3 chunk 0, the zero matrix.  Preorder meets (3, 0)
    # first; at jobs=2 the walk to the chunk order 3 splits at order 2,
    # so the two fail in different ranges
    real = enumeration._check_orbit

    def check_orbit(q, group, m, index, nu, weight):
        real(q, group, m, index, nu, weight + ((m, index) in {(2, 128), (3, 0)}))

    monkeypatch.setattr(enumeration, "_check_orbit", check_orbit)
    errors = []
    for jobs in (1, 2):
        with pytest.raises(RankCrossCheckError) as exc:
            brute_force_table(7, 3, jobs=jobs)
        errors.append(failure(exc))
    assert errors[0] == errors[1] == ((3, 0), (
        "orbit cross-check failed: the order-3 spec at index 0 has orbit size 2 and "
        "nullity 4 in the walk, but its orbit has 1 members, least (0, 0, 0, 0, 0, 0, 0), "
        "of nullities [4]"))


def fault_child(monkeypatch, m, index, k, value):
    """Make the packed engine report child k of the order-m GF(2) spec at
    ``index`` with nullity ``value``."""
    target = engine(2).rows(*enumeration._index_to_ab(index, m, 2))
    real = type(engine(2)).children

    def children(self, rows):
        kids, nus = real(self, rows)
        if rows == target:
            nus[k] = value
        return kids, nus

    monkeypatch.setattr(type(engine(2)), "children", children)


def test_an_impossible_pair_fails_the_census_scan(monkeypatch):
    # child (0, 0) of the order-2 spec at index 1 claims nullity 0 after
    # its parent's 2, a step of two
    fault_child(monkeypatch, 2, 1, 0, 0)
    with pytest.raises(RankCrossCheckError) as exc:
        brute_force_strings(3, 2)
    assert failure(exc) == rank_failure(2, 1, 0, 0, 0, 2)
    # child (0, 0) of the order-1 spec at index 3 claims -1; its nullity is 1
    monkeypatch.undo()
    fault_child(monkeypatch, 1, 3, 0, -1)
    with pytest.raises(RankCrossCheckError) as exc:
        brute_force_strings(3, 2)
    assert failure(exc) == rank_failure(1, 3, 0, 0, -1, 1)


def test_an_impossible_step_re_ranks_every_child(monkeypatch):
    # the order-2 spec at index 1 has string (1, 2, 2) and children
    # [2, 2, 1, 1]; reported as [3, 0, 1, 1], child 0 is one too high (a
    # possible step) and child 1 two below (impossible).  All children are
    # re-ranked, so the first wrong one is named, not the impossible one
    fault_child(monkeypatch, 2, 1, 0, 3)
    fault_child(monkeypatch, 2, 1, 1, 0)
    with pytest.raises(RankCrossCheckError) as exc:
        brute_force_strings(3, 2)
    assert failure(exc) == rank_failure(2, 1, 0, 0, 3, 2)


def test_a_leaf_out_of_range_fails_the_census_scan(monkeypatch):
    # the nullity-0 children of the order-2 spec at index 5 claim 5, past
    # the 0..4 of an order-3 leaf
    eng = engine(2)
    nus = eng.children(eng.rows(*enumeration._index_to_ab(5, 2, 2)))[1]
    zero = [k for k, nu in enumerate(nus) if nu == 0]
    assert zero
    for k in zero:
        fault_child(monkeypatch, 2, 5, k, 5)
    with pytest.raises(RankCrossCheckError) as exc:
        brute_force_strings(3, 2)
    assert failure(exc) == rank_failure(2, 5, *divmod(zero[0], 2), 5, 0)


# ---------------------------------------------------------------------------
# realized nullity strings


@pytest.mark.parametrize("q", (2, 3))
def test_realized_strings_are_exactly_the_valid_ones(q):
    realized = set(brute_force_strings(4, q))
    assert realized == set(iter_valid_strings(5))


def test_realized_strings_lengths():
    realized = set(brute_force_strings(2, 2))
    assert {len(s) for s in realized} == {1, 2, 3}
    assert (0, 1, 2) in realized and (1, 1, 1) in realized
    assert (1, 1, 2) not in realized
