from __future__ import annotations

import math
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

import infatom as ia

EPS = 1e-9


def _table_from_weights(weights, cards):
    total = sum(weights)
    pmf = {}
    outcome = [0] * len(cards)
    for flat, w in enumerate(weights):
        rem = flat
        for i in range(len(cards) - 1, -1, -1):
            outcome[i] = rem % cards[i]
            rem //= cards[i]
        if w > 0:
            pmf[tuple(outcome)] = w / total
    names = tuple(f"X{i}" for i in range(1, len(cards) + 1))
    return ia.ProbTable.from_pmf(names, pmf, cards)


@st.composite
def prob_tables(draw, cards=(2, 2, 2)):
    size = 1
    for c in cards:
        size *= c
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)),
            min_size=size,
            max_size=size,
        )
    )
    assume(sum(weights) > 1e-6)
    return _table_from_weights(weights, cards)


@st.composite
def varset_pairs(draw, n=3):
    s = draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1))
    extra = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return sorted(s), sorted(s | extra)


# ---------------------------------------------------------------------------
# Measure axioms
# ---------------------------------------------------------------------------


@given(prob_tables(), varset_pairs())
@settings(max_examples=150)
def test_entropy_nonnegative_and_monotone(table, pair):
    small, large = pair
    h_small = ia.entropy(table, small)
    h_large = ia.entropy(table, large)
    assert h_small >= -EPS
    assert h_small <= h_large + EPS


@given(prob_tables(cards=(2, 3, 2)))
@settings(max_examples=100)
def test_entropy_subadditive(table):
    sets = ([0], [1], [2], [0, 1], [1, 2])
    for s, t in combinations(sets, 2):
        assert ia.entropy(table, set(s) | set(t)) <= ia.entropy(table, s) + ia.entropy(
            table, t
        ) + EPS


@given(prob_tables())
@settings(max_examples=100)
def test_mutual_information_nonnegative_and_symmetric(table):
    for a, b in (([0], [1]), ([0], [1, 2]), ([0, 1], [2])):
        mi = ia.mutual_information(table, a, b)
        assert mi >= -EPS
        assert mi == pytest.approx(ia.mutual_information(table, b, a), abs=1e-12)


@given(prob_tables())
@settings(max_examples=100)
def test_two_variable_inclusion_exclusion_is_exact(table):
    for a, b in (([0], [1]), ([0], [1, 2]), ([0, 2], [1])):
        lhs = ia.entropy(table, set(a) | set(b))
        rhs = ia.entropy(table, a) + ia.entropy(table, b) - ia.mutual_information(
            table, a, b
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)


@given(prob_tables())
@settings(max_examples=100)
def test_interaction_of_order_two_is_mutual_information(table):
    for a, b in (([0], [1]), ([0], [2]), ([0, 1], [2])):
        assert ia.interaction_information(table, [a, b]) == pytest.approx(
            ia.mutual_information(table, a, b), abs=1e-12
        )


@given(prob_tables())
@settings(max_examples=100)
def test_conditional_mi_nonnegative(table):
    for a, b, c in (([0], [1], [2]), ([1], [2], [0]), ([0], [2], [1])):
        assert ia.conditional_mi(table, a, b, c) >= -EPS


# ---------------------------------------------------------------------------
# Decomposition feasibility
# ---------------------------------------------------------------------------


@given(prob_tables())
@settings(max_examples=100)
def test_feasible_interval_never_empty(table):
    lo, hi = ia.feasible_interval(table)
    assert lo >= -EPS
    assert hi - lo >= -EPS


@given(prob_tables())
@settings(max_examples=60)
def test_distributivity_gap_nonnegative_at_endpoints(table):
    lo, hi = ia.feasible_interval(table)
    assert ia.delta_H(table, lo) >= -EPS
    assert ia.delta_H(table, hi) >= -EPS


@given(prob_tables(cards=(2, 2, 3)))
@settings(max_examples=25)
def test_minimal_synergy_solution_validates(table):
    d = ia.solve_trivariate(table)
    report = ia.validate(d, table)
    assert report.passed, [c for c in report.checks if not c.passed]


@given(prob_tables())
@settings(max_examples=50)
def test_inclusion_exclusion_residual_vanishes(table):
    lo, hi = ia.feasible_interval(table)
    for r in (lo, hi):
        assert abs(ia.check_inclusion_exclusion3(table, r)) < EPS


# ---------------------------------------------------------------------------
# Bulk seeded sweep
# ---------------------------------------------------------------------------


def test_pairwise_information_dominates_coinformation_bulk():
    # 10,000 seeded tables: the smallest pairwise mutual information can
    # never drop below the co-information.
    worst = math.inf
    for i in range(10_000):
        t = ia.sample_table(1234, i, (2, 2, 2))
        i12 = ia.mutual_information(t, [0], [1])
        i13 = ia.mutual_information(t, [0], [2])
        i23 = ia.mutual_information(t, [1], [2])
        i3 = ia.interaction_information(t, [[0], [1], [2]])
        worst = min(worst, min(i12, i13, i23) - i3)
    assert worst >= -EPS
