from __future__ import annotations

import math

import pytest

import infatom as ia
from infatom import decomp
from infatom.decomp import Atom, AtomSet, Decomposition, ParthoodTable, parse_label
from infatom.lattice import Antichain

from _oracles import (
    AND_PMF,
    oracle_entropy,
    oracle_interaction,
    oracle_interval,
    oracle_mi,
    oracle_parity_row,
    oracle_set_row,
    oracle_supports,
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
    assert sorted(marginal_passes) == [(0,), (0, 1), (0, 1, 2), (0, 2), (1,), (1, 2), (2,)]


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


def test_pid_view_rejects_bad_target(xor):
    with pytest.raises(ia.VariableSetError):
        ia.pid_view(ia.solve_trivariate(xor), 4)


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


def test_validator_rejects_made_up_xor_decomposition(xor, made_up_xor_json):
    d = ia.decomposition_from_json(made_up_xor_json)
    with pytest.raises(ia.DecompositionFormatError):
        ia.validate(d, xor)
    with pytest.raises(ia.DecompositionFormatError):
        ia.lift_decomposition(d, xor)


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
    assert parse_label("x").kind == "named"
    with pytest.raises(ia.LabelError):
        parse_label("{1,2}{3}")


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
