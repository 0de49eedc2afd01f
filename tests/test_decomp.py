from __future__ import annotations

import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import infatom as ia
from infatom import decomp, lattice, terms
from infatom.decomp import Atom, AtomSet, Decomposition, ParthoodTable, parse_label
from infatom.lattice import Antichain

from _oracles import (
    AND_PMF,
    oracle_covering_rule,
    oracle_entropy,
    oracle_equal_rows,
    oracle_interaction,
    oracle_interval,
    oracle_lift_entries,
    oracle_mi,
    oracle_monotonicity,
    oracle_monotonicity_pairs,
    oracle_parity_row,
    oracle_set_atoms,
    oracle_set_row,
    oracle_supports,
    oracle_term_gaps,
    oracle_term_sizes,
)

# The nine-atom parthood table of the general 3-variable solution,
# frozen as golden data (column order: redundancy, synergy, pairwise,
# per-variable, ghost).
GOLDEN_TRIVARIATE_ROWS = {
    "{1}{2}{3}": (1, 0, 0, 0, 0, 0, 0, 0, 0),
    "{1}{2}": (1, 0, 1, 0, 0, 0, 0, 0, 0),
    "{1}{3}": (1, 0, 0, 1, 0, 0, 0, 0, 0),
    "{2}{3}": (1, 0, 0, 0, 1, 0, 0, 0, 0),
    "{1,2}{3}": (1, 1, 0, 1, 1, 0, 0, 0, 0),
    "{1,3}{2}": (1, 1, 1, 0, 1, 0, 0, 0, 0),
    "{1}{2,3}": (1, 1, 1, 1, 0, 0, 0, 0, 0),
    "{1}": (1, 1, 1, 1, 0, 1, 0, 0, 0),
    "{2}": (1, 1, 1, 0, 1, 0, 1, 0, 0),
    "{3}": (1, 1, 0, 1, 1, 0, 0, 1, 0),
    "{1,2}": (1, 1, 1, 1, 1, 1, 1, 0, 1),
    "{1,3}": (1, 1, 1, 1, 1, 1, 0, 1, 1),
    "{2,3}": (1, 1, 1, 1, 1, 0, 1, 1, 1),
    "{1,2,3}": (1, 1, 1, 1, 1, 1, 1, 1, 1),
}


def atom_map(d: Decomposition) -> dict[str, float]:
    return {a.label.text: a.size for a in d.atoms}


# ---------------------------------------------------------------------------
# Feasible interval
# ---------------------------------------------------------------------------


def test_feasible_interval_goldens(xor, copies, and_table):
    assert ia.feasible_interval(xor) == pytest.approx((0.0, 0.0), abs=1e-12)
    assert ia.feasible_interval(copies) == pytest.approx((1.0, 1.0), abs=1e-12)
    assert ia.feasible_interval(and_table) == pytest.approx((0.0, 0.0), abs=1e-12)


def test_feasible_interval_matches_oracle_on_random_tables():
    for seed in range(200):
        t = ia.random_table(f"fi:{seed}", [2, 2, 2])
        lo, hi = ia.feasible_interval(t)
        olo, ohi = oracle_interval(t.pmf())
        assert lo == pytest.approx(olo, abs=1e-12)
        assert hi == pytest.approx(ohi, abs=1e-12)
        assert hi - lo >= -1e-9


def test_feasible_interval_wrong_arity():
    with pytest.raises(ia.WrongArity):
        ia.feasible_interval(ia.random_table("fi2", [2, 2]))


# ---------------------------------------------------------------------------
# Trivariate solver
# ---------------------------------------------------------------------------


def test_xor_decomposition_is_synergy_plus_ghost(xor):
    d = ia.solve_trivariate(xor)
    sizes = atom_map(d)
    assert sizes["Pi_s"] == pytest.approx(1.0, abs=1e-9)
    assert sizes["Pi_g"] == pytest.approx(1.0, abs=1e-9)
    for text, size in sizes.items():
        if text not in ("Pi_s", "Pi_g"):
            assert size == 0.0
    assert d.atom_covering("Pi_s") == 2
    assert d.atom_covering("Pi_g") == 1
    assert d.atom_covering("{1}{2}{3}") == 3


def test_trivariate_table_matches_golden(xor):
    d = ia.solve_trivariate(xor)
    assert [c.text for c in d.table.cols] == [
        "{1}{2}{3}",
        "Pi_s",
        "{1}{2}",
        "{1}{3}",
        "{2}{3}",
        "{1}",
        "{2}",
        "{3}",
        "Pi_g",
    ]
    for row, text in zip(d.table.entries, (str(a) for a in d.table.rows)):
        assert row == GOLDEN_TRIVARIATE_ROWS[text], text


def test_repeated_trivariate_tables_match_oracles():
    tables = [ia.solve_trivariate(ia.random_table(f"pt:{s}", [2, 2, 3])).table for s in "abc"]
    supports = [c.antichain.indices for c in tables[0].cols if c.kind == "set"]
    for tab in tables:
        assert tab == tables[0]
        for a, entries in zip(tab.rows, tab.entries):
            set_cells = iter(oracle_set_row(a.brackets, supports))
            pi_s, pi_g = oracle_parity_row(a.brackets, 3)
            by_kind = {"synergy": pi_s, "ghost": pi_g}
            expected = tuple(
                next(set_cells) if c.kind == "set" else by_kind[c.kind] for c in tab.cols
            )
            assert entries == expected, str(a)


def test_every_solve_fetches_its_lattice(monkeypatch):
    # Parthood tables are shared between solves, but each solve still asks
    # for its lattice, so its calls do not depend on earlier solves.
    fetched = []
    real = decomp.enumerate_antichains
    monkeypatch.setattr(decomp, "enumerate_antichains", lambda n: fetched.append(n) or real(n))
    t = ia.random_table("fetch", [2, 2, 2])
    first = ia.solve_trivariate(t).table
    assert ia.solve_trivariate(t).table is first
    assert fetched == [3, 3]


def test_one_marginal_pass_per_subset(marginal_passes):
    t = ia.random_table("passes", [2, 3, 4])
    lo, _hi = ia.feasible_interval(t)
    for _ in range(3):
        ia.solve_trivariate(t)
    ia.check_inclusion_exclusion3(t, lo)
    try:
        ia.solve_set_theoretic(t)
    except ia.NotSetTheoretic:
        pass
    # One pass over the rows sums all seven subsets of a 3-variable table.
    assert marginal_passes == ["3-variable"]
    assert sorted(t._entropies) == [1, 2, 3, 4, 5, 6, 7]


def test_one_marginal_pass_per_subset_of_four_variables(marginal_passes):
    t = ia.random_table("passes", [2, 3, 4, 2])
    for _ in range(3):
        try:
            ia.solve_set_theoretic(t)
        except ia.NotSetTheoretic:
            pass
    subsets = [s for k in range(1, 5) for s in combinations(range(4), k)]
    assert sorted(marginal_passes) == sorted(subsets)


def test_copies_decomposition_is_pure_redundancy(copies):
    d = ia.solve_trivariate(copies)
    sizes = atom_map(d)
    assert sizes["{1}{2}{3}"] == pytest.approx(1.0, abs=1e-9)
    assert sum(v for k, v in sizes.items() if k != "{1}{2}{3}") == 0.0
    # conservation: three unit entropies, one atom covered three times
    assert d.atoms.weighted_size() == pytest.approx(3.0, abs=1e-9)


def test_two_coins_copy_decomposition_is_two_uniques(two_coins):
    d = ia.solve_trivariate(two_coins)
    sizes = atom_map(d)
    assert sizes["{1}{3}"] == pytest.approx(1.0, abs=1e-9)
    assert sizes["{2}{3}"] == pytest.approx(1.0, abs=1e-9)
    assert sum(v for k, v in sizes.items() if k not in ("{1}{3}", "{2}{3}")) == 0.0


def test_and_gate_decomposition_matches_closed_forms(and_table):
    # Oracle: closed-form substitution from entropies of the literal pmf.
    i3 = oracle_interaction(AND_PMF, [(0,), (1,), (2,)])
    d = ia.solve_trivariate(and_table, 0.0)
    sizes = atom_map(d)
    assert sizes["Pi_s"] == pytest.approx(-i3, abs=1e-12)
    assert sizes["Pi_s"] == pytest.approx(0.18872187554086706, abs=1e-9)
    assert sizes["{1}{3}"] == pytest.approx(oracle_mi(AND_PMF, (0,), (2,)), abs=1e-12)
    assert sizes["{2}{3}"] == pytest.approx(oracle_mi(AND_PMF, (1,), (2,)), abs=1e-12)
    assert sizes["{1}{2}{3}"] == 0.0
    assert sizes["{1}"] == pytest.approx(
        oracle_entropy(AND_PMF, (0, 1, 2)) - oracle_entropy(AND_PMF, (1, 2)), abs=1e-12
    )


def test_solver_default_redundancy_is_lower_endpoint():
    t = ia.random_table("default-r", [2, 2, 2])
    lo, _hi = ia.feasible_interval(t)
    d = ia.solve_trivariate(t)
    assert d.redundancy_param == lo


def test_solver_rejects_infeasible_redundancy(xor):
    with pytest.raises(ia.InfeasibleRedundancy):
        ia.solve_trivariate(xor, 0.25)


@pytest.mark.parametrize("r", [1 - 5e-10, 1 + 5e-10, 1 + 1e-9])
def test_redundancy_within_eps_of_the_interval_is_read_as_its_endpoint(copies, r):
    # The copy gate's interval is [1, 1]: r is read, and recorded, as 1.
    d = ia.solve_trivariate(copies, r)
    assert d.redundancy_param == 1.0
    assert ia.validate(d, copies).passed
    assert ia.delta_H(copies, r) == ia.delta_H(copies, 1.0)


def test_every_accepted_redundancy_validates_on_random_tables():
    eps = ia.DEFAULT_EPS
    for k in range(60):
        t = ia.random_table(f"edge-r:{k}", [2, 3, 2])
        lo, hi = ia.feasible_interval(t)
        for r, endpoint in ((hi + eps, hi), (lo - eps, lo), (hi + eps / 2, hi), (lo - eps / 2, lo)):
            d = ia.solve_trivariate(t, r)
            assert d.redundancy_param == endpoint, (k, r)
            assert ia.validate(d, t).passed, (k, r)
            assert abs(ia.check_inclusion_exclusion3(t, r)) <= 1e-12, (k, r)


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
def test_solver_rejects_non_finite_redundancy_as_input_error(xor, r):
    with pytest.raises(ia.RedundancyValueError, match="finite") as info:
        ia.solve_trivariate(xor, r)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("check", [ia.solve_trivariate, ia.delta_H, ia.check_inclusion_exclusion3])
@pytest.mark.parametrize("gate, r", [
    ("copy_gate", True),  # feasible as 1, but a bool is not a number
    ("xor_gate", False),
    ("xor_gate", "0"),
    ("xor_gate", 10**400),  # past the float range
], ids=["true", "false", "text", "huge-int"])
def test_a_redundancy_value_that_is_not_a_finite_real_number_is_refused(check, gate, r):
    with pytest.raises(ia.RedundancyValueError, match="finite real number"):
        check(getattr(ia, gate)(), r)


@pytest.mark.parametrize("check", [ia.delta_H, ia.check_inclusion_exclusion3])
def test_the_gap_and_the_identity_refuse_no_redundancy_value(xor, check):
    # None is solve_trivariate's default; the other two have none.
    with pytest.raises(ia.RedundancyValueError, match="finite real number"):
        check(xor, None)


@pytest.mark.parametrize("r", [Fraction(1), 1], ids=["fraction", "int"])
def test_a_real_redundancy_value_is_recorded_as_a_float(copies, r):
    d = ia.solve_trivariate(copies, r)
    assert d.redundancy_param.__class__ is float
    assert d.atom_size("{1}{2}{3}").__class__ is float
    assert d == ia.solve_trivariate(copies, 1.0)
    assert ia.decomposition_from_json(ia.decomposition_to_json(d)) == d


def test_a_repeated_outcome_of_zero_mass_gives_a_negative_atom():
    # The constructor checks nothing: the full selection keeps the later,
    # zero-mass row of (0, 0, 0), so H(X1,X2,X3) = 0.5 < H(X2,X3) = 1.
    t = ia.ProbTable(("a", "b", "c"), (2, 2, 2),
                     (((0, 0, 0), 0.5), ((0, 1, 1), 0.5), ((0, 0, 0), 0.0)))
    with pytest.raises(ia.NegativeAtomSize, match=r"^\{1\} = -0\.5 is negative beyond eps$"):
        ia.solve_trivariate(t)


def test_solver_wrong_arity():
    with pytest.raises(ia.WrongArity):
        ia.solve_trivariate(ia.random_table("arity2", [2, 2]))


def test_trivariate_reconstruction_at_both_endpoints():
    # All seven entropy row sums must reproduce the measured entropies for
    # any feasible redundancy value.
    single = [Antichain.parse(t) for t in ("{1}", "{2}", "{3}", "{1,2}", "{1,3}", "{2,3}", "{1,2,3}")]
    idx = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    for seed in range(100):
        t = ia.random_table(f"recon:{seed}", [2, 2, 2])
        lo, hi = ia.feasible_interval(t)
        for r in (lo, hi, lo + 0.5 * (hi - lo)):
            d = ia.solve_trivariate(t, r)
            for a, s in zip(single, idx):
                assert d.term_sum(a) == pytest.approx(ia.entropy(t, s), abs=1e-9)


def test_synergy_identity_and_r_invariance():
    for seed in range(100):
        t = ia.random_table(f"synid:{seed}", [3, 2, 2])
        lo, hi = ia.feasible_interval(t)
        gap = (
            ia.mutual_information(t, [0, 1], [2])
            - ia.mutual_information(t, [0], [2])
            - ia.mutual_information(t, [1], [2])
        )
        diffs = []
        for r in (lo, hi):
            d = ia.solve_trivariate(t, r)
            diff = d.atom_size("Pi_s") - d.atom_size("{1}{2}{3}")
            assert diff == pytest.approx(gap, abs=1e-9)
            diffs.append(diff)
        assert diffs[0] == pytest.approx(diffs[1], abs=1e-9)


def test_ghost_equals_synergy_always():
    for seed in range(50):
        t = ia.random_table(f"ghost:{seed}", [2, 2, 3])
        d = ia.solve_trivariate(t)
        assert d.atom_size("Pi_g") == d.atom_size("Pi_s")


# ---------------------------------------------------------------------------
# Source/target view
# ---------------------------------------------------------------------------


def test_pid_view_xor(xor):
    v = ia.pid_view(ia.solve_trivariate(xor), 3)
    assert (v.redundancy, v.unique_a, v.unique_b, v.synergy) == pytest.approx(
        (0.0, 0.0, 0.0, 1.0), abs=1e-9
    )
    assert v.sources == (1, 2) and v.target == 3


def test_pid_view_copies(copies):
    v = ia.pid_view(ia.solve_trivariate(copies), 3)
    assert (v.redundancy, v.unique_a, v.unique_b, v.synergy) == pytest.approx(
        (1.0, 0.0, 0.0, 0.0), abs=1e-9
    )


def test_pid_view_two_coins_copy(two_coins):
    v = ia.pid_view(ia.solve_trivariate(two_coins), 3)
    assert (v.redundancy, v.unique_a, v.unique_b, v.synergy) == pytest.approx(
        (0.0, 1.0, 1.0, 0.0), abs=1e-9
    )


def test_pid_view_satisfies_information_equations():
    for seed in range(50):
        t = ia.random_table(f"pid:{seed}", [2, 2, 2])
        d = ia.solve_trivariate(t)
        for target in (1, 2, 3):
            v = ia.pid_view(d, target)
            a, b = (s - 1 for s in v.sources)
            tt = target - 1
            assert v.redundancy + v.unique_a == pytest.approx(
                ia.mutual_information(t, [a], [tt]), abs=1e-9
            )
            assert v.redundancy + v.unique_b == pytest.approx(
                ia.mutual_information(t, [b], [tt]), abs=1e-9
            )
            assert v.redundancy + v.unique_a + v.unique_b + v.synergy == pytest.approx(
                ia.mutual_information(t, [a, b], [tt]), abs=1e-9
            )


def test_pid_view_sums_to_the_sources_information_for_every_solver():
    # An atom a decomposition does not hold (Pi_s of a distributive
    # solution) reads 0, so every solver's view sums to I(sources; target).
    tables = [ia.xor_gate(), ia.and_gate(), ia.copy_gate(), ia.two_coins_copy_gate()]
    tables += [ia.random_table(f"pid-solvers:{seed}", [2, 3, 2]) for seed in range(5)]
    distributive = 0
    for k, t in enumerate(tables):
        solutions = [ia.solve_trivariate(t, r) for r in ia.feasible_interval(t)]
        if k == 0:
            solutions.append(ia.solve_n_parity(3))
        try:
            solutions.append(ia.solve_set_theoretic(t))
            distributive += 1
        except ia.NotSetTheoretic:
            pass
        for d in solutions:
            for target in (1, 2, 3):
                v = ia.pid_view(d, target)
                total = v.redundancy + v.unique_a + v.unique_b + v.synergy
                sources = [s - 1 for s in v.sources]
                assert abs(total - ia.mutual_information(t, sources, [target - 1])) <= 1e-9, (k, d)
    assert distributive >= 2  # the two copy gates


def test_pid_view_rejects_bad_target(xor):
    with pytest.raises(ia.VariableSetError):
        ia.pid_view(ia.solve_trivariate(xor), 4)


@pytest.mark.parametrize("target", [True, 2.0, "2", None])
def test_pid_view_refuses_a_target_that_is_not_an_int(xor, target):
    with pytest.raises(ia.VariableSetError, match="target must be 1, 2 or 3"):
        ia.pid_view(ia.solve_trivariate(xor), target)


# ---------------------------------------------------------------------------
# Distributive solver
# ---------------------------------------------------------------------------


def test_three_pair_construction_solves_distributively(three_pair):
    d = ia.solve_set_theoretic(three_pair)
    sizes = atom_map(d)
    for pair in ("{1}{2}", "{1}{3}", "{2}{3}"):
        assert sizes[pair] == pytest.approx(1.0, abs=1e-9)
    for text, size in sizes.items():
        if text not in ("{1}{2}", "{1}{3}", "{2}{3}"):
            assert size == 0.0
    assert d.atom_covering("{1}{2}") == 2
    assert ia.validate(d, three_pair).passed


def test_xor_is_not_distributive(xor):
    with pytest.raises(ia.NotSetTheoretic) as err:
        ia.solve_set_theoretic(xor)
    negatives = dict(err.value.negatives)
    assert negatives["{1}{2}{3}"] == pytest.approx(-1.0, abs=1e-9)
    # The listing reads the labels' text: pinned byte for byte.
    assert str(err.value) == "negative atoms: {1}{2}{3} = -1.000000000"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_distributive_solver_reuses_its_labels(n):
    names = [f"X{i}" for i in range(1, n + 1)]
    copies = ia.ProbTable.from_pmf(names, {(0,) * n: 0.5, (1,) * n: 0.5})
    first = ia.solve_set_theoretic(copies).table.cols
    again = ia.solve_set_theoretic(ia.ProbTable.from_pmf(names, {(0,) * n: 0.5, (1,) * n: 0.5}))
    assert len(first) == 2**n - 1
    assert all(x is y for x, y in zip(first, again.table.cols, strict=True))
    assert all(x is y for x, y in zip(first, again.atoms.labels(), strict=True))
    # Column order: larger index sets first, then lexicographic.
    supports = [c.antichain.indices for c in first]
    assert supports == sorted(supports, key=lambda t: (-len(t), t))


def test_single_variable_distributive_solution():
    t = ia.load_table("p,A\n0.5,0\n0.25,1\n0.25,2\n")
    d = ia.solve_set_theoretic(t)
    assert d.atom_size("{1}") == pytest.approx(ia.entropy(t, [0]), abs=1e-12)
    assert ia.validate(d, t).passed


def test_distributive_agreement_with_trivariate_solver():
    agreements = 0
    for seed in range(300):
        t = ia.random_table(f"agree:{seed}", [2, 2, 2])
        try:
            ds = ia.solve_set_theoretic(t)
        except ia.NotSetTheoretic:
            continue
        agreements += 1
        dt = ia.solve_trivariate(t, ds.atom_size("{1}{2}{3}"))
        assert dt.atom_size("Pi_s") <= 1e-9
        for label in ("{1}{2}{3}", "{1}{2}", "{1}{3}", "{2}{3}", "{1}", "{2}", "{3}"):
            assert dt.atom_size(label) == pytest.approx(ds.atom_size(label), abs=1e-9)
    assert agreements > 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_distributive_table_matches_venn_oracle(n):
    names = [f"X{i}" for i in range(1, n + 1)]
    copies = ia.ProbTable.from_pmf(names, {(0,) * n: 0.5, (1,) * n: 0.5})
    d = ia.solve_set_theoretic(copies)
    supports = oracle_supports(n)
    assert [c.antichain.indices for c in d.table.cols] == supports
    for a, row in zip(d.table.rows, d.table.entries):
        assert row == oracle_set_row(a.brackets, supports), str(a)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_distributive_inversion_matches_entropy_oracle(n):
    for seed in range(40):
        cards = random.Random(seed).choices([2, 3], k=n)
        t = ia.random_table(f"mobius:{n}:{seed}", cards)
        expected = oracle_set_atoms(t.pmf(), n)
        got = decomp._mobius_atoms(t)
        assert len(got) == 1 << n and got[0] == 0.0
        assert len(expected) == len(got) - 1
        for key, size in expected.items():
            mask = sum(1 << (i - 1) for i in key)
            assert got[mask] == pytest.approx(size, abs=1e-12), (seed, key)


def test_distributive_solver_arity_cap():
    with pytest.raises(ia.WrongArity):
        ia.solve_set_theoretic(ia.parity_gate(6))


# ---------------------------------------------------------------------------
# n-parity solver
# ---------------------------------------------------------------------------


def test_parity3_matches_xor_solution(xor):
    d3 = ia.solve_n_parity(3)
    dx = ia.solve_trivariate(xor)
    assert d3.atom_size("Pi_s") == dx.atom_size("Pi_s") == 1.0
    assert d3.atom_size("Pi_g") == dx.atom_size("Pi_g") == 1.0
    assert len(d3.atoms) == 2


def test_parity5_has_three_unit_ghosts():
    d = ia.solve_n_parity(5)
    sizes = atom_map(d)
    assert sizes == {"Pi_s": 1.0, "Pi_g": 1.0, "Pi_g_2": 1.0, "Pi_g_3": 1.0}
    assert d.atoms.weighted_size() == 5.0
    assert d.atoms.total_size() == 4.0


def test_parity4_pair_term_is_two_bits():
    d = ia.solve_n_parity(4)
    assert d.term_sum(Antichain.parse("{1,2}")) == 2.0
    assert d.term_sum(Antichain.parse("{1,2,3}")) == 3.0
    assert d.term_sum(Antichain.parse("{1,2,3,4}")) == 3.0
    assert d.term_sum(Antichain.parse("{1,2}{3,4}")) == 1.0
    assert d.term_sum(Antichain.parse("{1}{2}")) == 0.0


def test_parity_solutions_validate():
    for n in (3, 4, 5):
        rep = ia.validate(ia.solve_n_parity(n), ia.parity_gate(n))
        assert rep.passed, [c for c in rep.checks if not c.passed]


def test_parity7_validates():
    assert ia.validate(ia.solve_n_parity(7), ia.parity_gate(7)).passed


def _count_calls(monkeypatch, owner, attr, modules=()) -> list:
    """Replace ``owner.attr``, and its binding in each of ``modules``, by a
    wrapper that records the positional arguments of every call."""
    calls = []
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    for module in modules:
        monkeypatch.setattr(module, attr, counted)
    return calls


def test_validate_reduces_each_row_once(monkeypatch):
    from infatom import terms

    t3 = ia.random_table("reduce-once", [2, 3, 2])
    cases = [
        (ia.solve_n_parity(5), ia.parity_gate(5)),
        (ia.solve_trivariate(t3), t3),
        (
            ia.lift_decomposition(ia.solve_n_parity(4), ia.parity_gate(4)),
            ia.extend_with_joint(ia.parity_gate(4)),
        ),
    ]
    calls = _count_calls(monkeypatch, terms, "reduce_antichain", [decomp])
    for d, t in cases:
        calls.clear()
        assert ia.validate(d, t).passed
        multi = [a for a in d.table.rows if a.covering >= 2]
        assert Counter(a for _table, a in calls) == Counter(multi)


def test_validate_builds_the_hasse_diagram_once_per_lattice(monkeypatch):
    from infatom import lattice

    calls = _count_calls(monkeypatch, lattice.LatticeView, "_cover_positions")
    lattice.enumerate_antichains.cache_clear()
    d, t = ia.solve_n_parity(4), ia.parity_gate(4)
    for _ in range(3):
        assert ia.validate(d, t).passed
    assert len(calls) == 1
    lattice.enumerate_antichains.cache_clear()
    assert ia.validate(d, t).passed
    assert len(calls) == 2


def test_solver_tables_follow_a_rebuilt_lattice():
    # A memoised table over the old view's elements is not handed back
    # once the lattice is rebuilt: it is rebuilt over the new elements.
    t = ia.parity_gate(5)
    before = ia.validate(ia.solve_n_parity(5), t)
    lattice.enumerate_antichains.cache_clear()
    d = ia.solve_n_parity(5)
    assert d.table.rows is lattice.enumerate_antichains(5).elements
    assert d.table is ia.solve_n_parity(5).table
    assert ia.validate(d, t) == before


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_parity_table_matches_closed_form_oracle(n):
    d = ia.solve_n_parity(n)
    ghosts = ["Pi_g"] + [f"Pi_g_{k}" for k in range(2, n - 1)]
    assert [c.text for c in d.table.cols] == ["Pi_s"] + ghosts
    for a, row in zip(d.table.rows, d.table.entries):
        assert row == oracle_parity_row(a.brackets, n), str(a)


def test_parity_solver_range():
    with pytest.raises(ia.LatticeRangeError):
        ia.solve_n_parity(2)
    with pytest.raises(ia.LatticeRangeError):
        ia.solve_n_parity(9)


# ---------------------------------------------------------------------------
# Symmetric uniqueness
# ---------------------------------------------------------------------------


def test_xor_uniqueness_closed_form():
    u = ia.verify_xor_uniqueness()
    assert u.x == 1.0 and u.y == 0.0
    assert u.conservation == 2.0
    assert u.pi_variable == 0.0
    assert u.pi_ghost == 1.0


def test_xor_uniqueness_redundancy_is_forced(xor):
    assert ia.feasible_interval(xor) == (0.0, 0.0)


def test_xor_uniqueness_fields_are_computed_by_the_solver(monkeypatch):
    # On the copy gate the solver puts everything in the triple atom.
    monkeypatch.setattr(decomp, "xor_gate", ia.copy_gate)
    u = ia.verify_xor_uniqueness()
    assert u.x == 0.0 and u.y == 0.0 and u.pi_ghost == 0.0


# ---------------------------------------------------------------------------
# Lift
# ---------------------------------------------------------------------------


def test_lift_xor_keeps_sizes_and_bumps_coverings(xor):
    d = ia.solve_trivariate(xor)
    lifted = ia.lift_decomposition(d, xor)
    assert lifted.n == 4
    assert lifted.atom_size("Pi_s") == 1.0 and lifted.atom_covering("Pi_s") == 3
    assert lifted.atom_size("Pi_g") == 1.0 and lifted.atom_covering("Pi_g") == 2
    extended = ia.extend_with_joint(xor)
    assert ia.validate(lifted, extended).passed
    # the added variable carries the whole system
    for i in range(3):
        assert ia.mutual_information(extended, [i], [3]) == pytest.approx(1.0, abs=1e-9)
    assert ia.mutual_information(extended, [0, 1], [3]) == pytest.approx(2.0, abs=1e-9)


def test_lift_copies_increments_redundancy_covering(copies):
    lifted = ia.lift_decomposition(ia.solve_trivariate(copies), copies)
    assert lifted.atom_covering("{1}{2}{3}") == 4
    assert lifted.atom_size("{1}{2}{3}") == pytest.approx(1.0, abs=1e-9)
    assert ia.validate(lifted, ia.extend_with_joint(copies)).passed


def test_lift_two_coins_copy(two_coins):
    d = ia.solve_trivariate(two_coins)
    lifted = ia.lift_decomposition(d, two_coins)
    # oracle: the lift keeps every size and adds one covering everywhere
    for atom in d.atoms:
        assert lifted.atom_size(atom.label) == atom.size
        assert lifted.atom_covering(atom.label) == atom.covering + 1
    assert ia.validate(lifted, ia.extend_with_joint(two_coins)).passed


def test_lift_rows_follow_bracket_removal(xor):
    d = ia.solve_trivariate(xor)
    lifted = ia.lift_decomposition(d, xor)
    assert lifted.table.row(Antichain.parse("{1,2}{4}")) == d.table.row(
        Antichain.parse("{1,2}")
    )
    assert lifted.table.row(Antichain.parse("{4}")) == d.table.row(
        Antichain.parse("{1,2,3}")
    )
    assert lifted.table.row(Antichain.parse("{1}{2}{3}")) == d.table.row(
        Antichain.parse("{1}{2}{3}")
    )


def test_lift_refuses_eight_variables_before_validating(monkeypatch):
    d, t = ia.solve_n_parity(8), ia.parity_gate(8)
    calls = _count_calls(monkeypatch, decomp, "validate")
    with pytest.raises(ia.LatticeRangeError, match="cannot lift .* over 8 variables: "
                       "lattices stop at 8 variables"):
        ia.lift_decomposition(d, t)
    assert calls == []


def test_lift_rejects_invalid_decomposition(xor):
    d = ia.solve_trivariate(xor)
    broken_atoms = AtomSet(
        tuple(
            Atom(a.label, 0.5 if a.label.text == "Pi_g" else a.size, a.covering)
            for a in d.atoms
        )
    )
    broken = Decomposition(3, d.table, broken_atoms, d.redundancy_param)
    with pytest.raises(ia.ValidationFailed):
        ia.lift_decomposition(broken, xor)


def test_lift_of_random_solutions_validates():
    for seed in range(10):
        t = ia.random_table(f"liftrand:{seed}", [2, 2, 2])
        d = ia.solve_trivariate(t)
        lifted = ia.lift_decomposition(d, t)
        assert ia.validate(lifted, ia.extend_with_joint(t)).passed


# ---------------------------------------------------------------------------
# Validator fault injections
# ---------------------------------------------------------------------------


def _tamper_atom(d: Decomposition, text: str, size: float) -> Decomposition:
    atoms = AtomSet(
        tuple(
            Atom(a.label, size if a.label.text == text else a.size, a.covering)
            for a in d.atoms
        )
    )
    return Decomposition(d.n, d.table, atoms, d.redundancy_param)


def test_validator_flags_tampered_size(xor):
    d = ia.solve_trivariate(xor)
    report = ia.validate(_tamper_atom(d, "Pi_g", 0.5), xor)
    assert not report.passed
    check = report.check("conservation_law")
    assert not check.passed
    assert check.residual == pytest.approx(0.5, abs=1e-9)


def test_validator_flags_tampered_row(xor):
    d = ia.solve_trivariate(xor)
    entries = [list(row) for row in d.table.entries]
    row_i = list(d.table.rows).index(Antichain.parse("{1}"))
    col_i = [c.text for c in d.table.cols].index("Pi_s")
    entries[row_i][col_i] = 0
    tampered = Decomposition(
        3,
        ParthoodTable(d.table.rows, d.table.cols, tuple(tuple(r) for r in entries)),
        d.atoms,
        d.redundancy_param,
    )
    report = ia.validate(tampered, xor)
    assert not report.passed
    assert not (report.check("monotonicity").passed and report.check("term_sizes").passed)


def test_validator_flags_tampered_covering(xor):
    d = ia.solve_trivariate(xor)
    atoms = AtomSet(
        tuple(
            Atom(a.label, a.size, 3 if a.label.text == "Pi_s" else a.covering)
            for a in d.atoms
        )
    )
    report = ia.validate(Decomposition(3, d.table, atoms, d.redundancy_param), xor)
    assert not report.passed
    assert not report.check("covering_rule").passed


def test_validator_requires_matching_arity(xor):
    d = ia.solve_n_parity(4)
    with pytest.raises(ia.WrongArity):
        ia.validate(d, xor)


def _with_rows(d: Decomposition, picks: list[int]) -> Decomposition:
    """``d`` with its table cut down to (or repeating) the rows at ``picks``."""
    table = ParthoodTable(
        tuple(d.table.rows[i] for i in picks),
        d.table.cols,
        tuple(d.table.entries[i] for i in picks),
    )
    return Decomposition(d.n, table, d.atoms, d.redundancy_param)


@pytest.mark.parametrize(
    "picks",
    [list(range(13)), list(range(14)) + [5], [i for i in range(14) if i != 5] + [4]],
    ids=["missing-row", "duplicated-row", "missing-and-duplicated-row"],
)
def test_validator_rejects_incomplete_table(xor, picks):
    d = ia.solve_trivariate(xor)
    assert ia.validate(_with_rows(d, list(range(14))[::-1]), xor).passed
    with pytest.raises(ia.DecompositionFormatError, match="14 antichains"):
        ia.validate(_with_rows(d, picks), xor)


def _entries_with(d: Decomposition, value) -> tuple:
    """``d``'s entries with the first one replaced by ``value``."""
    first = (value,) + d.table.entries[0][1:]
    return (first,) + d.table.entries[1:]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.table.entries[:-1], "shape mismatch"),
        (lambda d: (d.table.entries[0][:-1],) + d.table.entries[1:], "shape mismatch"),
        (lambda d: _entries_with(d, 2), "must be 0 or 1"),
        (lambda d: _entries_with(d, -1), "must be 0 or 1"),
        (lambda d: _entries_with(d, "1"), "must be 0 or 1"),
        (lambda d: _entries_with(d, [1]), "must be 0 or 1"),
    ],
    ids=["missing-row", "ragged-row", "entry-2", "entry--1", "entry-string", "entry-list"],
)
def test_parthood_table_rejects_bad_shapes_and_entries(xor, edit, message):
    d = ia.solve_trivariate(xor)
    with pytest.raises(ia.DecompositionFormatError, match=message):
        ParthoodTable(d.table.rows, d.table.cols, edit(d))


@pytest.mark.parametrize("index", [2**40, 10**10 - 1])
def test_parthood_table_builds_no_row_masks_before_validate(xor, index):
    # A fresh antichain, not a shared parsed one, so its masks are its own.
    # Its mask would need ``index`` bits; validate rejects the row first.
    d = ia.solve_trivariate(xor)
    far = Antichain(((index,),))
    table = ParthoodTable((far,) + d.table.rows[1:], d.table.cols, d.table.entries)
    assert "masks" not in vars(far)
    with pytest.raises(ia.DecompositionFormatError, match="14 antichains"):
        ia.validate(Decomposition(3, table, d.atoms, d.redundancy_param), xor)
    assert "masks" not in vars(far)


def test_validator_rejects_columns_that_are_not_the_atoms(xor):
    d = ia.solve_trivariate(xor)
    eight = Decomposition(3, d.table, AtomSet(d.atoms.atoms[:8]), d.redundancy_param)
    with pytest.raises(ia.DecompositionFormatError, match="columns"):
        ia.validate(eight, xor)
    swapped = AtomSet((d.atoms.atoms[1], d.atoms.atoms[0]) + d.atoms.atoms[2:])
    with pytest.raises(ia.DecompositionFormatError, match="columns"):
        ia.validate(Decomposition(3, d.table, swapped, d.redundancy_param), xor)


@pytest.mark.parametrize("brackets", [[[4]], [[10**9]], [[2], [4]]], ids=["4", "1e9", "2-4"])
def test_validator_rejects_set_atoms_outside_the_variables(xor, brackets):
    # Relabelled consistently in atoms and columns, so only the label is wrong.
    # A fresh antichain, not a shared parsed one, so its masks are its own;
    # built directly, as set_theoretic may hand back an equal label built
    # earlier from an antichain that already has masks.
    d = ia.solve_trivariate(xor)
    old, new = parse_label("{1}"), ia.AtomLabel("set", antichain=Antichain.of(*brackets))
    atoms = AtomSet(
        tuple(Atom(new if a.label == old else a.label, a.size, a.covering) for a in d.atoms)
    )
    bad = Decomposition(3, ParthoodTable(d.table.rows, atoms.labels(), d.table.entries), atoms)
    with pytest.raises(ia.DecompositionFormatError, match=r"outside 1\.\.3"):
        ia.validate(bad, xor)
    with pytest.raises(ia.DecompositionFormatError, match=r"outside 1\.\.3"):
        ia.lift_decomposition(bad, xor)
    # The check reads bracket indices; it never builds a label's bitmasks.
    assert "masks" not in vars(new.antichain)


@pytest.mark.parametrize(
    "edits",
    [{"Pi_s": (1e308, 2), "Pi_g": (1e308, 1)}, {"{1}": (0.0, 10**400)}, {"{1}{2}{3}": (1e308, 3)}],
    ids=["size-sum", "covering-past-floats", "weighted-sum"],
)
def test_validator_rejects_sums_past_the_float_range(xor, edits):
    # Each atom is a finite size and an int covering, but a sum the checks
    # form is not a finite float.
    d = ia.solve_trivariate(xor)
    atoms = AtomSet(tuple(Atom(a.label, *edits.get(a.label.text, (a.size, a.covering)))
                          for a in d.atoms))
    bad = Decomposition(3, d.table, atoms)
    with pytest.raises(ia.DecompositionFormatError, match="finite float"):
        ia.validate(bad, xor)
    with pytest.raises(ia.DecompositionFormatError, match="finite float"):
        ia.lift_decomposition(bad, xor)


@pytest.mark.parametrize(
    "kind, kw",
    [
        ("x", {}),
        ("ghost", {"index": 0}),
        ("ghost", {}),
        ("ghost", {"index": True}),
        ("ghost", {"index": 1.0}),
        ("ghost", {"index": 1, "antichain": Antichain.of([1])}),
        ("synergy", {"index": 1}),
        ("synergy", {"antichain": Antichain.of([1])}),
        ("set", {}),
        ("set", {"antichain": Antichain(())}),
        ("set", {"antichain": Antichain.of([1, 2])}),
        ("set", {"antichain": Antichain.of([1], [2]), "index": 1}),
    ],
    ids=["kind-x", "Pi_g_0", "ghost-no-index", "ghost-True", "ghost-1.0", "ghost-antichain",
         "synergy-index", "synergy-antichain", "set-none", "set-empty", "set-{1,2}", "set-index"],
)
def test_validator_rejects_labels_built_outside_the_rules(kind, kw):
    # The constructor is the one check, so no validate or parthood rule
    # ever meets such a label.
    for _ in range(2):
        with pytest.raises(ia.LabelError):
            ia.AtomLabel(kind, **kw)


def test_parthood_rejects_a_label_kind_without_a_rule():
    # Such a label cannot be built, so it never reaches ``_parthood``.
    with pytest.raises(ia.LabelError, match="'x' has no parthood rule"):
        ia.AtomLabel("x")


def test_validator_rejects_made_up_xor_decomposition(xor, made_up_xor_json):
    d = ia.decomposition_from_json(made_up_xor_json)
    with pytest.raises(ia.DecompositionFormatError):
        ia.validate(d, xor)
    with pytest.raises(ia.DecompositionFormatError):
        ia.lift_decomposition(d, xor)


def _lifted(d: Decomposition, t):
    """``d`` lifted once, with the table it decomposes."""
    return ia.lift_decomposition(d, t), ia.extend_with_joint(t)


def _monotonicity_cases():
    """Solved decompositions with their tables: parity 3..5, random
    trivariate solutions at random redundancy values, lifts, and one
    random trivariate solution lifted twice."""
    cases = [(ia.solve_n_parity(n), ia.parity_gate(n)) for n in (3, 4, 5)]
    lifts = [(ia.solve_n_parity(n), ia.parity_gate(n)) for n in (3, 4)]
    for seed in range(3):
        t = ia.random_table(f"mono:{seed}", [2, 3, 2] if seed else [2, 2, 2])
        lo, hi = ia.feasible_interval(t)
        r = lo + random.Random(seed).random() * (hi - lo)
        cases.append((ia.solve_trivariate(t, r), t))
        lifts.append((ia.solve_trivariate(t), t))
    cases += [_lifted(d, t) for d, t in lifts]
    cases.append(_lifted(*cases[-1]))  # the last trivariate lift, lifted again
    return cases


def _mutate(d: Decomposition, rng: random.Random) -> Decomposition:
    """Flip entries, zero an atom or make one positive, and shuffle rows,
    each with some chance."""
    rows = list(d.table.rows)
    entries = [list(row) for row in d.table.entries]
    atoms = list(d.atoms.atoms)
    for _ in range(rng.choice([0, 1, 1, 2, 4])):
        i, j = rng.randrange(len(rows)), rng.randrange(len(atoms))
        entries[i][j] ^= 1
    if rng.random() < 0.4:
        j = rng.randrange(len(atoms))
        size = 0.0 if atoms[j].size > 0 else 0.5
        atoms[j] = Atom(atoms[j].label, size, atoms[j].covering)
    order = list(range(len(rows)))
    if rng.random() < 0.5:
        rng.shuffle(order)
    table = ParthoodTable(
        tuple(rows[i] for i in order),
        d.table.cols,
        tuple(tuple(entries[i]) for i in order),
    )
    return Decomposition(d.n, table, AtomSet(tuple(atoms)), d.redundancy_param)


def _mutated_cases():
    """Each of :func:`_monotonicity_cases` as solved, then mutated copies."""
    rng = random.Random(5)
    for d, t in _monotonicity_cases():
        for trial in range(8 if d.n < 5 else 3):
            yield (d.n, trial), (d if trial == 0 else _mutate(d, rng)), t


def test_monotonicity_matches_all_pairs_oracle():
    failing = 0
    extended_only = 0
    for case, m, t in _mutated_cases():
        check = ia.validate(m, t).check("monotonicity")
        assert (check.passed, check.residual, check.detail) == oracle_monotonicity(
            m, t, ia.DEFAULT_EPS
        ), case
        failing += not check.passed
        # Violations beyond those of the plain order: only the
        # reduction-extended pairs find them.
        plain = oracle_monotonicity(m, t, ia.DEFAULT_EPS, extended=False)[1]
        extended_only += check.residual > plain
    assert failing >= 30
    assert extended_only >= 15


def _shuffled(d: Decomposition, rng: random.Random) -> Decomposition:
    """``d`` with its rows, and their entries, in a random order."""
    order = list(range(len(d.table.rows)))
    rng.shuffle(order)
    table = ParthoodTable(
        tuple(d.table.rows[i] for i in order),
        d.table.cols,
        tuple(d.table.entries[i] for i in order),
    )
    return Decomposition(d.n, table, d.atoms, d.redundancy_param)


def test_monotonicity_matches_pairwise_oracle_beyond_five():
    # Lifts of parity 5 -> 6 and 6 -> 7 and a trivariate solution lifted
    # twice, each as solved, shuffled and mutated.
    t = ia.random_table("mono:0", [2, 2, 2])
    bases = [
        _lifted(ia.solve_n_parity(5), ia.parity_gate(5)),
        _lifted(ia.solve_n_parity(6), ia.parity_gate(6)),
        _lifted(*_lifted(ia.solve_trivariate(t), t)),
    ]
    rng = random.Random(12)
    failing = 0
    for d, t in bases:
        mutants = [_mutate(d, rng) for _ in range(3 if d.n < 7 else 1)]
        for m in [d, _shuffled(d, rng), *mutants]:
            check = ia.validate(m, t).check("monotonicity")
            expected = oracle_monotonicity_pairs(m, t, ia.DEFAULT_EPS)
            assert (check.passed, check.residual, check.detail) == expected, m.n
            failing += not check.passed
    assert failing >= 4


def _lift_corpus():
    """Each of :func:`_monotonicity_cases`, parity 6 and 7 and lifted
    parity 6, so that lifts reach 8 variables, as solved and with its rows
    shuffled: (decomposition, table)."""
    rng = random.Random(15)
    bases = _monotonicity_cases()
    bases += [(ia.solve_n_parity(n), ia.parity_gate(n)) for n in (6, 7)]
    bases.append(_lifted(ia.solve_n_parity(6), ia.parity_gate(6)))
    for d, t in bases:
        yield d, t
        yield _shuffled(d, rng), t


def test_lift_matches_the_lift_map_loop():
    seen = set()
    for d, t in _lift_corpus():
        lifted = ia.lift_decomposition(d, t)
        view = lattice.enumerate_antichains(d.n + 1)
        assert lifted.table.rows is view.elements
        assert lifted.table.entries == oracle_lift_entries(d), d.n
        assert lifted.table.cols == d.table.cols
        assert [a.covering for a in lifted.atoms] == [a.covering + 1 for a in d.atoms]
        seen.add(d.n + 1)
    assert seen == {4, 5, 6, 7, 8}


def test_validate_reports_agree_for_in_order_and_shuffled_rows():
    # Every check reads the table by lattice position, so the whole report,
    # failing checks' details included, does not depend on the row order:
    # for each mutated case, and for the lift corpus and its lifts, which
    # reach 8 variables, shuffled and in reversed lattice order alike.
    rng = random.Random(21)
    cases = [(m, t) for _case, m, t in _mutated_cases()]
    for d, t in _lift_corpus():
        cases += [(d, t), _lifted(d, t)]
    failing = 0
    for m, t in cases:
        view = lattice.enumerate_antichains(m.n)
        order = sorted(range(len(m.table.rows)), key=lambda i: view.index(m.table.rows[i]))
        in_order = _with_rows(m, order)
        assert in_order.table.rows == view.elements
        expected = ia.validate(in_order, t)
        for other in (_shuffled(m, rng), _with_rows(m, order[::-1])):
            assert ia.validate(other, t) == expected, m.n
        failing += not expected.passed
    assert failing >= 50 and max(m.n for m, _t in cases) == 8


def _report_text(report) -> list[tuple]:
    """A report's checks, each residual as ``float.hex``."""
    return [(c.name, c.passed, c.residual.hex(), c.detail) for c in report.checks]


def _fresh_table(d: Decomposition) -> Decomposition:
    """``d`` with an equal parthood table that holds no memo."""
    table = ParthoodTable(d.table.rows, d.table.cols, d.table.entries)
    return Decomposition(d.n, table, d.atoms, d.redundancy_param)


def test_validate_reports_match_for_reused_fresh_and_shuffled_tables():
    # A table's bitsets are kept after its first validate; a second validate
    # reads them, and must report what a fresh equal table reports, bit for
    # bit.  Solved tables (trial 0) are the solvers' shared ones, and their
    # reports pass, so shuffling their rows changes no detail either.
    rng = random.Random(23)
    reused = 0
    for case, m, t in _mutated_cases():
        shuffled = _shuffled(m, rng)
        for d in (m, shuffled):
            ia.validate(d, t)
            assert "_bits" in vars(d.table), case
            warm = _report_text(ia.validate(d, t))
            assert warm == _report_text(ia.validate(_fresh_table(d), t)), case
        if case[1] == 0:
            reused += m.table is decomp._parthood(m.n, m.atoms.labels())
            assert ia.validate(m, t).passed, case
            assert _report_text(ia.validate(shuffled, t)) == warm, case
    assert reused == 6  # parity 3..5 and three trivariate solutions


def _bitsets_oracle(table: ParthoodTable, view) -> tuple:
    """:meth:`ParthoodTable._bitsets`, read entry by entry, by lattice position."""
    held_at = [0] * len(view)
    for a, x in zip(table.rows, table.entries):
        held_at[view.index(a)] = sum(v << j for j, v in enumerate(x))
    low = [next((p for p, h in enumerate(held_at) if h >> j & 1), -1)
           for j in range(len(table.cols))]
    return held_at, low


def test_bitsets_match_an_entry_by_entry_oracle():
    rng = random.Random(24)
    for case, m, t in _mutated_cases():
        view = lattice.enumerate_antichains(m.n)
        for d in (m, _shuffled(m, rng)):
            got = [list(x) for x in d.table._bitsets(view)]
            assert got == [list(x) for x in _bitsets_oracle(d.table, view)], case


def test_lifted_bitsets_equal_those_rebuilt_from_entries():
    seen = set()
    for d, t in _lift_corpus():
        lifted = ia.lift_decomposition(d, t).table
        view = lattice.enumerate_antichains(d.n + 1)
        derived = vars(lifted)["_bits"]  # built by the lift, from d's bitsets
        rebuilt = ParthoodTable(lifted.rows, lifted.cols, lifted.entries)._bitsets(view)
        assert derived == rebuilt, d.n
        seen.add(d.n + 1)
    assert seen == {4, 5, 6, 7, 8}


def _warm_cases():
    """A generic trivariate solution, whose terms do not reduce to other
    terms, and parity 4, where R2 reduces ``{1,2,3}{4}`` to ``{4}``."""
    t = ia.random_table("warm", [2, 3, 2])
    cases = [(ia.solve_trivariate(t), t), (ia.solve_n_parity(4), ia.parity_gate(4))]
    for d, t in cases:
        ia.lift_decomposition(d, t)  # builds both views, covers and lift table
    return cases


def test_warm_lift_builds_no_image(monkeypatch):
    # The only antichains a warm lift builds are the reduced forms its
    # validate builds, each through the trusted path, which checks nothing.
    cases = _warm_cases()
    expected = [oracle_lift_entries(d) for d, _t in cases]
    images = _count_calls(monkeypatch, lattice, "lift_map")
    checked = _count_calls(monkeypatch, Antichain, "__init__")
    built = _count_calls(monkeypatch, Antichain, "_trusted")
    assert not hasattr(decomp, "lift_map")
    reduced = []
    for (d, t), entries in zip(cases, expected):
        built.clear()
        ia.validate(d, t)
        reduced.append(len(built))
        built.clear()
        assert ia.lift_decomposition(d, t).table.entries == entries
        assert len(built) == reduced[-1]
    assert images == [] and checked == [] and reduced == [0, 4]


def test_warm_validate_looks_up_no_antichain(monkeypatch):
    # Rows in lattice order are not looked up, and a reduced form that
    # differs from its term is placed by its masks: validate makes no
    # LatticeView.index call, however many rows reduce.
    from infatom import terms

    cases = _warm_cases()
    cases.append(_lifted(*cases[1]))
    calls = _count_calls(monkeypatch, lattice.LatticeView, "index")
    changed = []
    for d, t in cases:
        reduced = [(a, terms.reduce_antichain(t, a)[0]) for a in d.table.rows if a.covering > 1]
        changed.append(sum(r is not None and r != a for a, r in reduced))
        calls.clear()
        assert ia.validate(d, t).passed
        assert calls == []
    assert changed[:2] == [0, 4] and changed[2] > 0


def test_validate_makes_no_order_tests_on_a_warm_view(monkeypatch):
    d, t = _lifted(ia.solve_n_parity(4), ia.parity_gate(4))
    ia.validate(d, t)  # builds the n = 5 view's covers
    calls = []
    real = lattice.leq

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    # Every module binding of ``leq``, as a ``from .lattice import leq`` copies it.
    for module in (lattice, decomp):
        if getattr(module, "leq", None) is real:
            monkeypatch.setattr(module, "leq", counting)
    assert ia.validate(d, t).passed
    assert calls == []


def test_covering_rule_and_equal_rows_match_row_oracles():
    failing = Counter()
    for case, m, t in _mutated_cases():
        report = ia.validate(m, t)
        for name, expected in (
            ("covering_rule", oracle_covering_rule(m)),
            ("equal_rows", oracle_equal_rows(m, t, ia.DEFAULT_EPS)),
        ):
            check = report.check(name)
            assert (check.passed, check.residual, check.detail) == expected, (name, case)
            failing[name] += not check.passed
    assert failing["covering_rule"] >= 12 and failing["equal_rows"] >= 18, failing


def _beyond_five_cases():
    """Lifts of parity 5 -> 6 and 6 -> 7 and a trivariate solution lifted
    twice, each as solved, shuffled and mutated."""
    t = ia.random_table("mono:0", [2, 2, 2])
    bases = [
        _lifted(ia.solve_n_parity(5), ia.parity_gate(5)),
        _lifted(ia.solve_n_parity(6), ia.parity_gate(6)),
        _lifted(*_lifted(ia.solve_trivariate(t), t)),
    ]
    rng = random.Random(18)
    for d, t in bases:
        mutants = [_mutate(d, rng) for _ in range(3 if d.n < 7 else 1)]
        for trial, m in enumerate([d, _shuffled(d, rng), *mutants]):
            yield (d.n, trial), m, t


def test_term_sizes_match_row_oracle():
    failing = 0
    ties = 0
    for case, m, t in [*_mutated_cases(), *_beyond_five_cases()]:
        check = ia.validate(m, t).check("term_sizes")
        expected = oracle_term_sizes(m, t, ia.DEFAULT_EPS)
        assert (check.passed, check.residual, check.detail) == expected, case
        failing += not check.passed
        # The validator evaluates one gap per reduced form and row pattern;
        # count the cases where two such groups share the worst gap, so that
        # the detail must pick the first position in lattice order among them.
        gaps = oracle_term_gaps(m, t, ia.DEFAULT_EPS)
        worst = max(gaps)
        groups = {
            (terms.reduce_antichain(t, a)[0], x)
            for a, x, gap in zip(m.table.rows, m.table.entries, gaps)
            if gap == worst
        }
        ties += worst > ia.DEFAULT_EPS and len(groups) >= 2
    assert failing >= 50 and ties >= 15, (failing, ties)


def test_monotonicity_oracle_cases_reach_both_paths():
    # validate counts monotonicity violations only where equal rows fail
    # or some row holds an atom an upper cover's row lacks, which is where
    # the plain order finds a violation; everywhere else it passes at once.
    paths = Counter()
    for _case, m, t in _mutated_cases():
        equal_rows = oracle_equal_rows(m, t, ia.DEFAULT_EPS)[0]
        plain = oracle_monotonicity(m, t, ia.DEFAULT_EPS, extended=False)[0]
        paths[equal_rows, plain] += 1
    assert paths[True, True] >= 25, paths
    assert paths[False, True] >= 1 and paths[True, False] >= 15 and paths[False, False] >= 20, paths


def test_accepting_validate_at_eight_stays_small():
    # An accepting validate builds no up-set masks, each of which is as
    # wide as the lattice (21,146 positions at n = 8).
    d, t = _lifted(ia.solve_n_parity(7), ia.parity_gate(7))
    assert ia.validate(d, t).passed  # builds the view's covers and the entropies
    tracemalloc.start()
    try:
        assert ia.validate(d, t).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, peak


# ---------------------------------------------------------------------------
# Random scan
# ---------------------------------------------------------------------------


def test_scan_feasibility_over_thousand_samples():
    s = ia.scan_random(1000, 42, [2, 2, 2])
    assert s.min_interval_width >= -1e-9
    assert s.min_atom_size >= -1e-9
    assert s.set_theoretic_successes > 0
    if s.max_subadditivity_gap is not None:
        assert s.max_subadditivity_gap <= 1e-9


def test_scan_deterministic():
    a = ia.scan_random(200, 42, [2, 2, 2])
    b = ia.scan_random(200, 42, [2, 2, 2])
    assert a == b
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize("n_samples, cards, message", [
    (1, [2.5, 2, 2], "cardinalities must be integers"),
    (1, [2.0, 2, 2], "cardinalities must be integers"),
    (1, [True, 2, 2], "cardinalities must be integers"),
    (True, [2, 2, 2], "n_samples must be an integer"),
    (1.0, [2, 2, 2], "n_samples must be an integer"),
])
def test_scan_refuses_arguments_that_are_not_ints(n_samples, cards, message):
    with pytest.raises(ia.GateSpecError, match=message):
        ia.scan_random(n_samples, 0, cards)


@pytest.mark.parametrize("seed", [1.0, True, "1", None])
def test_scan_refuses_a_seed_that_is_not_an_int(seed):
    with pytest.raises(ia.GateSpecError, match="seed and index must be integers"):
        ia.scan_random(2, seed, [2, 2, 2])
    with pytest.raises(ia.GateSpecError, match="seed and index must be integers"):
        ia.sample_table(seed, 0, [2, 2, 2])
    with pytest.raises(ia.GateSpecError, match="seed and index must be integers"):
        ia.sample_table(1, seed, [2, 2, 2])


def test_scan_rejects_bad_requests():
    with pytest.raises(ia.WrongArity):
        ia.scan_random(10, 1, [2, 2])
    with pytest.raises(ia.GateSpecError):
        ia.scan_random(0, 1, [2, 2, 2])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_decomposition_json_roundtrip(xor, two_coins):
    for d in (ia.solve_trivariate(xor), ia.solve_trivariate(two_coins), ia.solve_n_parity(4)):
        back = ia.decomposition_from_json(ia.decomposition_to_json(d))
        assert back == d


def test_decomposition_json_rejects_garbage():
    with pytest.raises(ia.DecompositionFormatError):
        ia.decomposition_from_json("{not json")
    with pytest.raises(ia.DecompositionFormatError):
        ia.decomposition_from_json('{"n": 3}')


def test_parse_label_forms():
    assert parse_label("Pi_s").kind == "synergy"
    assert parse_label("Pi_g").index == 1
    assert parse_label("Pi_g_4").index == 4
    assert parse_label("{1}{3}").antichain == Antichain.of([1], [3])
    for text in ("x", "{1,2}{3}", "synergy", "Pi_g_x"):
        with pytest.raises(ia.LabelError):
            parse_label(text)


def test_set_labels_are_shared_per_antichain():
    built = ia.AtomLabel.set_theoretic(Antichain.of([1], [2]))
    assert built is parse_label(" {1}{2} ")
    assert built is ia.AtomLabel.set_theoretic(Antichain.parse("{2}{1}"))
    assert built is not parse_label("{1}{3}")


def test_atom_sets_refuse_duplicate_labels_and_coverings_below_one():
    label = parse_label("{1}")
    with pytest.raises(ia.LabelError, match="duplicate atom labels"):
        AtomSet((Atom(label, 1.0, 1), Atom(label, 0.5, 1)))
    with pytest.raises(ia.LabelError, match="coverings must be >= 1"):
        AtomSet((Atom(label, 1.0, 0),))


def test_pid_view_needs_a_trivariate_decomposition():
    with pytest.raises(ia.WrongArity, match="expected a trivariate decomposition, got n = 4"):
        ia.pid_view(ia.solve_n_parity(4), 1)


def test_validation_report_check_of_an_unknown_name(xor):
    report = ia.validate(ia.solve_trivariate(xor), xor)
    assert report.check("total_law").passed
    with pytest.raises(KeyError):
        report.check("no_such_check")


def test_synergy_and_ghost_labels_are_shared():
    assert parse_label(" Pi_s ") is ia.AtomLabel.synergy()
    assert parse_label("Pi_g") is ia.AtomLabel.ghost() is ia.AtomLabel.ghost(1)
    assert parse_label("Pi_g_2") is ia.AtomLabel.ghost(k=2)
    assert parse_label("Pi_g_2") is not parse_label("Pi_g_3")
    for _ in range(3):  # errors are not cached
        with pytest.raises(ia.LabelError):
            ia.AtomLabel.ghost(0)


def test_ghost_labels_past_every_arity_are_built_but_refused():
    # Every ghost an arity up to MAX_VARIABLES admits is shared; a larger k
    # builds a label, which validate refuses at every n.
    last = lattice.MAX_VARIABLES - 2
    for k in range(1, last + 1):
        assert ia.AtomLabel.ghost(k) is parse_label(f"Pi_g_{k}")
    beyond = ia.AtomLabel.ghost(last + 1)
    assert beyond == parse_label(f"Pi_g_{last + 1}") and beyond.text == f"Pi_g_{last + 1}"
    d = ia.solve_n_parity(lattice.MAX_VARIABLES)
    atoms = AtomSet(d.atoms.atoms + (Atom(beyond, 0.0, 1),))
    cols = ParthoodTable(d.table.rows, atoms.labels(), tuple(row + (0,) for row in d.table.entries))
    with pytest.raises(ia.DecompositionFormatError, match=f"k <= {last}"):
        ia.validate(Decomposition(d.n, cols, atoms), ia.parity_gate(lattice.MAX_VARIABLES))
    for k in (True, 1.0, 0, -1, "1"):
        for _ in range(2):
            with pytest.raises(ia.LabelError):
                ia.AtomLabel.ghost(k)


def test_labels_past_the_cap_leave_the_shared_labels_shared():
    # Labels beyond MAX_VARIABLES, however many, do not unshare the ones
    # an arity admits; run in a fresh process, so no earlier test has
    # built {1}{2} first.
    code = (
        "from infatom.decomp import AtomLabel, parse_label\n"
        "from infatom.lattice import Antichain\n"
        "for i in range(9, 300):\n"
        "    parse_label('{%d}' % i)\n"
        "first = parse_label('{1}{2}')\n"
        "print(first is parse_label('{1}{2}') is AtomLabel.set_theoretic(Antichain.of([1], [2])))\n"
    )
    src = str(Path(ia.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "True\n"


def test_every_label_an_arity_admits_is_shared():
    top = lattice.MAX_VARIABLES
    for m in range(1, 1 << top):
        indices = [i + 1 for i in range(top) if m >> i & 1]
        text = "".join(f"{{{i}}}" for i in indices)
        label = parse_label(text)
        assert label.kind == "set" and label.text == text and parse_label(text) is label
        assert ia.AtomLabel.set_theoretic(Antichain.of(*[[i] for i in indices])) is label
        assert ia.AtomLabel.set_theoretic(label.antichain) is label
    assert parse_label("{2}{1}") is parse_label("{1}{2}")
    assert parse_label("Pi_s") is ia.AtomLabel.synergy()
    for k in range(1, top - 1):
        assert parse_label("Pi_g" if k == 1 else f"Pi_g_{k}") is ia.AtomLabel.ghost(k)
    assert parse_label("Pi_g_1") is ia.AtomLabel.ghost(1)
    with pytest.raises(ia.LabelError):  # a text is not an antichain
        ia.AtomLabel.set_theoretic("{1}")
    # Past the cap, labels are equal but built afresh, and validate refuses them.
    d = ia.solve_n_parity(top)
    for text, message in ((f"{{{top + 1}}}", f"set atom {{{top + 1}}} names a variable "
                                             f"outside 1..{top}"),
                          (f"Pi_g_{top - 1}", f"ghost atom Pi_g_{top - 1} needs k <= {top - 2} "
                                              f"over {top} variables")):
        beyond = parse_label(text)
        assert beyond == parse_label(text) and beyond is not parse_label(text)
        atoms = AtomSet(d.atoms.atoms + (Atom(beyond, 0.0, 1),))
        table = ParthoodTable(d.table.rows, atoms.labels(),
                              tuple(row + (0,) for row in d.table.entries))
        with pytest.raises(ia.DecompositionFormatError, match=re.escape(message)):
            ia.validate(Decomposition(d.n, table, atoms), ia.parity_gate(top))


@pytest.mark.parametrize(
    "text, error", [("{1,2}", ia.LabelError), ("{0}", ia.AntichainError), ("{1}{1}", ia.AntichainError)]
)
def test_bad_set_labels_raise_on_every_call(text, error):
    # Errors are never cached: the second and third calls raise as the first.
    for _ in range(3):
        with pytest.raises(error):
            parse_label(text)
    for _ in range(3):
        with pytest.raises(ia.LabelError):
            ia.AtomLabel.set_theoretic(Antichain.of([1, 2]))


def test_validation_report_json_shape(xor):
    report = ia.validate(ia.solve_trivariate(xor), xor)
    import json

    obj = json.loads(report.to_json())
    assert set(obj.keys()) == {"checks"}
    names = [c["name"] for c in obj["checks"]]
    assert names == [
        "atom_nonnegativity",
        "monotonicity",
        "covering_rule",
        "conservation_law",
        "total_law",
        "term_sizes",
        "equal_rows",
    ]
    assert all(set(c.keys()) == {"name", "pass", "residual"} for c in obj["checks"])
