from __future__ import annotations

import math

import pytest

import infatom as ia
from infatom import dist

from _oracles import AND_PMF, oracle_entropy, oracle_marginal

XOR_CSV = """\
# three fair bits with an even-parity constraint
p,O1,O2,O3
1/4,0,0,0
0,0,0,1
0,0,1,0
1/4,0,1,1
0,1,0,0
1/4,1,0,1
1/4,1,1,0
0,1,1,1
"""


# ---------------------------------------------------------------------------
# Loading and normalization
# ---------------------------------------------------------------------------


def test_load_csv_drops_zero_rows_and_parses_fractions():
    t = ia.load_table(XOR_CSV)
    assert t.variables == ("O1", "O2", "O3")
    assert t.cards == (2, 2, 2)
    assert len(t.rows) == 4
    assert t.pmf() == ia.xor_gate().pmf()


def test_load_single_deterministic_row():
    t = ia.load_table("p,X1\n1.0, 0\n")
    assert t.n == 1
    assert t.cards == (1,)
    assert ia.entropy(t, [0]) == 0.0


def test_load_rejects_bad_mass():
    with pytest.raises(ia.TotalMassInvalid):
        ia.load_table("p,A\n0.5,0\n0.499,1\n")


def test_load_rejects_malformed_row():
    with pytest.raises(ia.MalformedRow):
        ia.load_table("p,A,B\n0.5,0\n0.5,1,0\n")
    with pytest.raises(ia.MalformedRow):
        ia.load_table("p,A\nnot-a-number,0\n")
    with pytest.raises(ia.MalformedRow):
        ia.load_table("q,A\n1.0,0\n")


def test_load_rejects_duplicates_and_negatives():
    with pytest.raises(ia.DuplicateOutcome):
        ia.load_table("p,A\n0.5,0\n0.5,0\n")
    with pytest.raises(ia.NegativeProbability):
        ia.load_table("p,A\n1.5,0\n-0.5,1\n")


def test_load_json_and_roundtrip(xor):
    parsed = ia.load_table(ia.dump_json(xor))
    assert parsed == xor
    parsed = ia.load_table(ia.dump_csv(xor))
    assert parsed == xor


def test_load_normalizes_small_mass_drift():
    t = ia.load_table("p,A\n0.5000000001,0\n0.5,1\n")
    assert math.isclose(sum(p for _, p in t.rows), 1.0, abs_tol=1e-15)


# ---------------------------------------------------------------------------
# Marginalization
# ---------------------------------------------------------------------------


def test_marginalize_xor_to_single_is_fair_coin(xor):
    m = ia.marginalize(xor, [0])
    assert m.pmf() == {(0,): 0.5, (1,): 0.5}
    assert m.variables == ("O1",)


def test_marginalize_identity(xor):
    assert ia.marginalize(xor, [0, 1, 2]) == xor


def test_marginalize_and_gate_inputs_match_oracle(and_table):
    m = ia.marginalize(and_table, [0, 1])
    assert m.pmf() == pytest.approx(oracle_marginal(AND_PMF, (0, 1)))
    assert all(p == 0.25 for p in m.pmf().values())


def test_marginalize_rejects_empty_or_out_of_range(xor):
    with pytest.raises(ia.VariableSetError):
        ia.marginalize(xor, [])
    with pytest.raises(ia.VariableSetError):
        ia.marginalize(xor, [3])


# ---------------------------------------------------------------------------
# Entropies and informations
# ---------------------------------------------------------------------------


def test_xor_entropies(xor):
    assert ia.entropy(xor, [0, 1, 2]) == pytest.approx(2.0, abs=1e-12)
    for i in range(3):
        assert ia.entropy(xor, [i]) == pytest.approx(1.0, abs=1e-12)
    assert ia.entropy(xor, []) == 0.0


def test_fair_coin_entropy():
    t = ia.load_table("p,A\n0.5,0\n0.5,1\n")
    assert ia.entropy(t, [0]) == pytest.approx(1.0, abs=1e-12)


def test_and_output_entropy_matches_oracle(and_table):
    assert ia.entropy(and_table, [2]) == pytest.approx(
        oracle_entropy(AND_PMF, (2,)), abs=1e-12
    )
    assert ia.entropy(and_table, [2]) == pytest.approx(0.8112781244591328, abs=1e-12)


def test_xor_mutual_information(xor):
    assert ia.mutual_information(xor, [0], [2]) == pytest.approx(0.0, abs=1e-12)
    assert ia.mutual_information(xor, [0, 1], [2]) == pytest.approx(1.0, abs=1e-12)


def test_self_information_is_entropy(xor, and_table):
    for t in (xor, and_table):
        for s in ([0], [1], [0, 2]):
            assert ia.mutual_information(t, s, s) == pytest.approx(
                ia.entropy(t, s), abs=1e-12
            )


def test_conditional_mi_xor(xor):
    assert ia.conditional_mi(xor, [0], [1], [2]) == pytest.approx(1.0, abs=1e-12)


def test_conditional_mi_independent_coins():
    pmf = {(a, b, c): 1 / 8 for a in (0, 1) for b in (0, 1) for c in (0, 1)}
    t = ia.ProbTable.from_pmf(("A", "B", "C"), pmf)
    assert ia.conditional_mi(t, [0], [1], [2]) == pytest.approx(0.0, abs=1e-12)


def test_conditional_mi_empty_condition_is_mi(xor):
    assert ia.conditional_mi(xor, [0, 1], [2], []) == pytest.approx(
        ia.mutual_information(xor, [0, 1], [2]), abs=1e-15
    )


def test_interaction_information_xor(xor):
    # Alternating sum 3 - 6 + 2 over the parity system's entropies.
    assert ia.interaction_information(xor, [[0], [1], [2]]) == pytest.approx(
        -1.0, abs=1e-12
    )


def test_interaction_information_copies(copies):
    assert ia.interaction_information(copies, [[0], [1], [2]]) == pytest.approx(
        1.0, abs=1e-12
    )


def test_interaction_information_independent_groups():
    pmf = {(a, b, c): 1 / 8 for a in (0, 1) for b in (0, 1) for c in (0, 1)}
    t = ia.ProbTable.from_pmf(("A", "B", "C"), pmf)
    assert ia.interaction_information(t, [[0], [1], [2]]) == pytest.approx(
        0.0, abs=1e-12
    )


# ---------------------------------------------------------------------------
# Per-table entropy memo
# ---------------------------------------------------------------------------


def test_entropy_memo_keys_the_sorted_selection(marginal_passes):
    t = ia.random_table("memo", [2, 3, 2])
    h = ia.entropy(t, [2, 0])
    assert ia.entropy(t, [0, 2]) == h
    assert ia.entropy(t, (2, 0, 2)) == h
    assert ia.entropy(t, frozenset({0, 2})) == h
    assert marginal_passes == [(0, 2)]
    assert len(t._entropies) == 1


@pytest.mark.parametrize("selection", [[3], [0, 3], [-1], frozenset({1, 5})])
def test_entropy_rejects_out_of_range_after_memo_fills(selection, marginal_passes):
    t = ia.random_table("memo", [2, 3, 2])
    for i in range(3):
        ia.entropy(t, [i])
    ia.entropy(t, [0, 1, 2])
    before = dict(t._entropies)
    with pytest.raises(ia.VariableSetError, match="out of range"):
        ia.entropy(t, selection)
    assert t._entropies == before
    assert len(marginal_passes) == 4


def test_entropy_of_empty_selection_is_zero(marginal_passes):
    t = ia.random_table("memo", [2, 3, 2])
    assert ia.entropy(t, []) == 0.0
    assert ia.entropy(t, ()) == 0.0
    assert marginal_passes == [()]


def test_entropy_memo_hit_is_bit_identical_to_a_fresh_pass():
    t = ia.random_table("memo-bits", [3, 2, 4, 2])
    for mask in range(1, 1 << t.n):
        idx = tuple(i for i in range(t.n) if mask >> i & 1)
        fresh = -math.fsum(
            p * math.log2(p) for p in dist._marginal(t, idx).values() if p > 0.0
        )
        assert ia.entropy(t, idx) == fresh
        assert ia.entropy(t, reversed(idx)) == fresh


def test_equal_tables_keep_separate_memos(marginal_passes):
    first = ia.random_table("memo-eq", [2, 2, 3])
    second = ia.random_table("memo-eq", [2, 2, 3])
    before = (repr(first), hash(first))
    for i in range(3):
        ia.entropy(first, [i])
    assert (repr(first), hash(first)) == before
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second)
    ia.entropy(second, [0])
    assert marginal_passes == [(0,), (1,), (2,), (0,)]


def test_is_deterministic_function(xor):
    assert ia.is_deterministic_function(xor, [2], [0, 1])
    assert ia.is_deterministic_function(xor, [2], [2])
    assert not ia.is_deterministic_function(xor, [2], [0])


def test_is_independent(xor, copies):
    assert ia.is_independent(xor, [0], [2])
    assert not ia.is_independent(xor, [0, 1], [2])
    assert not ia.is_independent(copies, [0], [1])
    with pytest.raises(ia.VariableSetError):
        ia.is_independent(xor, [0, 1], [1])


# ---------------------------------------------------------------------------
# Gate generators
# ---------------------------------------------------------------------------


def test_gen_gate_xor_probabilities():
    t = ia.gen_gate("xor")
    assert t.pmf() == {(0, 0, 0): 0.25, (0, 1, 1): 0.25, (1, 0, 1): 0.25, (1, 1, 0): 0.25}


def test_parity3_equals_xor_distribution(xor):
    assert ia.gen_gate("parity(3)").pmf() == xor.pmf()


def test_parity_rows_have_even_parity():
    t = ia.gen_gate("parity(5)")
    assert len(t.rows) == 16
    assert all(sum(o) % 2 == 0 for o, _ in t.rows)
    assert all(p == 1 / 16 for _, p in t.rows)


def test_random_gate_deterministic_in_seed():
    a = ia.gen_gate("random(7,[2,2,2])")
    b = ia.gen_gate("random(7,[2,2,2])")
    assert a == b
    c = ia.gen_gate("random(8,[2,2,2])")
    assert a != c


def test_gen_gate_rejects_bad_specs():
    with pytest.raises(ia.GateSpecError):
        ia.gen_gate("parity(1)")
    with pytest.raises(ia.GateSpecError):
        ia.gen_gate("random(7,[1,2])")
    with pytest.raises(ia.GateSpecError):
        ia.gen_gate("nand")


def test_two_coins_copy_shape(two_coins):
    assert two_coins.cards == (2, 2, 4)
    assert ia.entropy(two_coins, [2]) == pytest.approx(2.0, abs=1e-12)
    assert ia.is_deterministic_function(two_coins, [2], [0, 1])
    assert ia.is_deterministic_function(two_coins, [0, 1], [2])


# ---------------------------------------------------------------------------
# Joint extension
# ---------------------------------------------------------------------------


def test_extend_with_joint_names_and_entropy(xor):
    e = ia.extend_with_joint(xor)
    assert e.variables == ("O1", "O2", "O3", "O4")
    assert e.cards == (2, 2, 2, 8)
    assert ia.entropy(e, [3]) == pytest.approx(2.0, abs=1e-12)
    assert ia.is_deterministic_function(e, [3], [0, 1, 2])
    assert ia.is_deterministic_function(e, [0, 1, 2], [3])


def test_extend_with_joint_fallback_name():
    t = ia.ProbTable.from_pmf(("left", "right"), {(0, 0): 0.5, (1, 1): 0.5})
    assert ia.extend_with_joint(t).variables == ("left", "right", "joint")
