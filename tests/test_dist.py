from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations, product

import pytest

import infatom as ia
from infatom import dist

from _oracles import (
    AND_PMF,
    DECISION_TABLES,
    oracle_entropy,
    oracle_interaction,
    oracle_marginal,
    oracle_mi,
)

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


#: Edge tokens: forms that float() and Fraction() might read differently.
PROB_TOKENS = (
    "0.1", "2/3", " 1/3 ", " 1 / 3 ", "1_000", "1__0", "_1", ".5", "5.", "1e-400",
    "-1e-400", "-0", "0x10", "\u0661\u0662", "\u0660.\u0665", "\u0661/\u0662",
    "\U0001d7cf.5", "nan", "-nan", "inf", "-inf", "infinity", "1e400", "1/0", "", ".",
)


@pytest.mark.parametrize("token", PROB_TOKENS)
def test_parse_prob_reads_text_as_the_nearest_float_of_its_exact_value(token):
    try:
        want = float(Fraction(token.strip()))
    except (ValueError, ZeroDivisionError, OverflowError):
        with pytest.raises(ia.MalformedRow, match=re.escape(f"cannot parse probability {token!r}")):
            dist._parse_prob(token)
    else:
        assert dist._parse_prob(token) == want


def test_parse_prob_rejects_non_finite_json_numbers():
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ia.MalformedRow, match="cannot parse probability"):
            dist._parse_prob(value)


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
    assert list(t._entropies) == [0b101]


@pytest.mark.parametrize("selection", [[3], [0, 3], [-1], frozenset({1, 5})])
def test_entropy_rejects_out_of_range_after_memo_fills(selection, marginal_passes):
    t = ia.random_table("memo", [2, 3, 2])
    for i in range(3):
        ia.entropy(t, [i])
    ia.entropy(t, [0, 1, 2])
    ia.entropy(t, [])
    before = dict(t._entropies)
    with pytest.raises(ia.VariableSetError, match="out of range"):
        ia.entropy(t, selection)
    bad = frozenset(selection)
    for derived in (
        lambda: ia.mutual_information(t, bad, [0]),
        lambda: ia.conditional_mi(t, [0], [1], bad),
        lambda: ia.is_deterministic_function(t, [0], bad),
        lambda: ia.is_independent(t, bad, [0]),
        lambda: ia.interaction_information(t, [[0], bad]),
        lambda: ia.marginalize(t, bad),
    ):
        with pytest.raises(ia.VariableSetError, match="out of range"):
            derived()
    # The empty set is a memo key now, yet only conditional_mi may take it.
    for derived in (
        lambda: ia.mutual_information(t, frozenset(), [0]),
        lambda: ia.is_deterministic_function(t, frozenset(), [0]),
        lambda: ia.interaction_information(t, [frozenset(), [0]]),
        lambda: ia.marginalize(t, frozenset()),
    ):
        with pytest.raises(ia.VariableSetError, match="empty"):
            derived()
    assert t._entropies == before
    assert len(marginal_passes) == 5


def test_entropy_of_empty_selection_is_zero(marginal_passes):
    t = ia.random_table("memo", [2, 3, 2])
    assert ia.entropy(t, []) == 0.0
    assert ia.entropy(t, ()) == 0.0
    assert marginal_passes == [()]


def test_entropy_memo_hit_is_bit_identical_to_a_fresh_pass():
    for cards in [(3, 2, 4, 2), (4,) * 6]:
        t = ia.random_table("memo-bits", cards)
        pmf = dict(t.rows)
        for mask in range(1 << t.n):
            idx = tuple(i for i in range(t.n) if mask >> i & 1)
            fresh = -math.fsum(
                p * math.log2(p) for p in oracle_marginal(pmf, idx).values() if p > 0.0
            )
            assert ia.entropy(t, idx) == fresh
            assert ia.entropy(t, reversed(idx)) == fresh
        single = ia.marginalize(t, [1])
        assert single.pmf().keys() == oracle_marginal(pmf, (1,)).keys()
        assert all(type(o) is tuple and len(o) == 1 for o, _ in single.rows)


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


# ---------------------------------------------------------------------------
# Selections checked once per process
# ---------------------------------------------------------------------------


#: Calls on one fresh 5-variable table; later calls find earlier entries
#: in its memo, as a union or as an argument, under other spellings.
SELECTION_CALLS = [
    lambda t: ia.mutual_information(t, [0, 1], [2]),
    lambda t: ia.mutual_information(t, [0], [1, 2]),
    lambda t: ia.mutual_information(t, (2, 0), iter([3])),
    lambda t: ia.mutual_information(t, [1.0], [True, 0]),
    lambda t: ia.mutual_information(t, [4], frozenset({4})),
    lambda t: ia.mutual_information(t, [3, 1], [0, 2]),
    lambda t: ia.conditional_mi(t, [0], [3], [1, 4]),
    lambda t: ia.conditional_mi(t, [2], [4], []),
    lambda t: ia.interaction_information(t, [[0], [1, 3], [4]]),
    lambda t: ia.is_independent(t, [1], [4]),
    lambda t: ia.is_deterministic_function(t, [0, 3], [1]),
]


def _passes_per_step(marginal_passes) -> list[int]:
    counts = []
    t = ia.random_table("selections", [2, 3, 2, 2, 3])
    for call in SELECTION_CALLS:
        marginal_passes.clear()
        call(t)
        counts.append(len(marginal_passes))
    decomp, parity = ia.solve_n_parity(5), ia.parity_gate(5)
    marginal_passes.clear()
    ia.validate(decomp, parity)
    return counts + [len(marginal_passes)]


def test_marginal_passes_depend_only_on_the_table(marginal_passes):
    # Each call reads its entropies from the table's memo by mask, and a
    # missing one costs one pass; which selections the process has seen
    # before must not change which passes are made.
    dist._SELECTION_MASKS.clear()
    cold = _passes_per_step(marginal_passes)
    warm = _passes_per_step(marginal_passes)
    assert warm == cold
    assert cold == [3, 2, 3, 1, 1, 2, 4, 2, 2, 0, 0, 31]


def test_equal_numbers_and_one_shot_iterators_select_the_positions():
    first = ia.random_table("spellings", [2, 3, 2])
    h = ia.entropy(first, [1])
    for spelling in ([1.0], [True], iter([1]), (x for x in [1])):
        t = ia.random_table("spellings", [2, 3, 2])
        assert ia.entropy(t, spelling).hex() == h.hex()
        assert list(t._entropies) == [0b10] and type(next(iter(t._entropies))) is int
    for spelling in ([1.0], [True], iter([1])):
        single = ia.marginalize(first, spelling)
        assert single.variables == ("X2",)
        assert all(type(v) is int for o, _ in single.rows for v in o)
    mi = ia.mutual_information(first, [0], [1, 2])
    t = ia.random_table("spellings", [2, 3, 2])
    assert ia.mutual_information(t, iter([0.0]), (x for x in [True, 2])).hex() == mi.hex()
    assert sorted(t._entropies) == [0b1, 0b110, 0b111]


@pytest.mark.parametrize("seen", [False, True], ids=["cold", "after-[1]"])
@pytest.mark.parametrize("selection", [[1.5], [0.9], ["2"], ["x"], [None], [[1]], [1, 2.5]],
                         ids=repr)
def test_non_integer_positions_raise_variable_set_error(selection, seen):
    t = ia.random_table("spellings", [2, 3, 2])
    dist._SELECTION_MASKS.clear()
    if seen:
        ia.entropy(t, [1])
    before = dict(t._entropies)
    for call in (
        lambda: ia.entropy(t, selection),
        lambda: ia.mutual_information(t, selection, [0]),
        lambda: ia.mutual_information(t, [0], iter(selection)),
        lambda: ia.marginalize(t, selection),
    ):
        with pytest.raises(ia.VariableSetError):
            call()
    assert t._entropies == before
    assert all(type(i) is int for key in dist._SELECTION_MASKS for i in key)


_OUT_OF_RANGE = [
    lambda t, s: ia.entropy(t, s),
    lambda t, s: ia.marginalize(t, s),
    lambda t, s: ia.mutual_information(t, [0], s),
    lambda t, s: ia.conditional_mi(t, [0], [1], s),
    lambda t, s: ia.interaction_information(t, [s]),
    lambda t, s: ia.is_deterministic_function(t, s, [1]),
    lambda t, s: ia.is_independent(t, s, [1]),
]


def _messages(table, selection) -> list[str]:
    texts = []
    for call in _OUT_OF_RANGE:
        with pytest.raises(ia.VariableSetError) as info:
            call(table, selection)
        texts.append(str(info.value))
    return texts


@pytest.mark.parametrize("selection", [[0, 3], frozenset({4}), (2, 3, 4)])
def test_a_selection_from_a_wider_table_raises_the_same_text(selection):
    narrow = ia.random_table("narrow", [2, 2])
    dist._SELECTION_MASKS.clear()
    cold = _messages(narrow, selection)
    wide = ia.random_table("wide", [2] * 5)
    for call in _OUT_OF_RANGE[:2]:
        call(wide, selection)
    assert frozenset(selection) in dist._SELECTION_MASKS
    assert _messages(ia.random_table("narrow", [2, 2]), selection) == cold
    positions = tuple(sorted(selection))
    assert set(cold) == {f"selection {positions!r} out of range for 2 variables"}


def test_empty_selections_after_the_empty_entropy_is_memoised():
    t = ia.random_table("empty", [2, 2, 3])
    for _ in range(2):
        assert ia.entropy(t, []) == 0.0
        assert ia.entropy(t, frozenset()) == 0.0
        assert ia.conditional_mi(t, [0], [1], iter([])) == ia.mutual_information(t, [0], [1])
        for call in (
            lambda: ia.mutual_information(t, [], [0]),
            lambda: ia.mutual_information(t, [0], frozenset()),
            lambda: ia.interaction_information(t, [[0], ()]),
            lambda: ia.is_deterministic_function(t, [0], []),
            lambda: ia.is_independent(t, iter([]), [0]),
            lambda: ia.marginalize(t, []),
        ):
            with pytest.raises(ia.VariableSetError, match="^empty variable selection$"):
                call()
        t = ia.random_table("empty", [2, 2, 3])


@pytest.mark.parametrize("make", DECISION_TABLES.values(), ids=list(DECISION_TABLES))
def test_quantities_match_the_oracles_bit_for_bit(make):
    t = make()
    pmf = dict(t.rows)
    subsets = [s for k in range(t.n + 1) for s in combinations(range(t.n), k)]
    for s in subsets:
        assert ia.entropy(t, s).hex() == oracle_entropy(pmf, s).hex(), s
        if s:
            groups = [(i,) for i in s]
            assert (ia.interaction_information(t, groups).hex()
                    == oracle_interaction(pmf, groups).hex()), s
    for a, b in product(subsets[1:], repeat=2):
        assert ia.mutual_information(t, a, b).hex() == oracle_mi(pmf, a, b).hex(), (a, b)


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


def test_extend_with_joint_steps_past_names_in_use():
    t = ia.ProbTable.from_pmf(("joint", "joint_"), {(0, 0): 0.5, (1, 1): 0.5})
    assert ia.extend_with_joint(t).variables == ("joint", "joint_", "joint__")
    with pytest.raises(ia.VariableSetError, match="variable name 'joint_' already in use"):
        ia.extend_with_joint(t, "joint_")


@pytest.mark.parametrize("text, message", [
    ('{"variables": ["A"]}', "JSON table needs 'variables' and 'outcomes' keys"),
    ('{"outcomes": []}', "JSON table needs 'variables' and 'outcomes' keys"),
    ('{"variables": ["A"], "outcomes": [{"p": 1, "values": 0}]}', "bad outcome values 0"),
    ('{"variables": [1, null, true], "outcomes": []}', "variable names must be strings"),
    ('{"variables": ["A", {"B": 1}], "outcomes": []}', "variable names must be strings"),
    ('{"variables": [["A"]], "outcomes": []}', "variable names must be strings"),
])
def test_load_json_refuses_missing_keys_and_values_that_are_not_a_list(text, message):
    with pytest.raises(ia.MalformedRow, match=re.escape(message)):
        ia.load_table(text)


@pytest.mark.parametrize("cards", [[2.9, 2], [2.0, 2], [True, 2], ["2", 2], [None, 2]])
def test_random_table_refuses_non_integer_cardinalities(cards):
    with pytest.raises(ia.GateSpecError, match="cardinalities must be integers"):
        ia.random_table(1, cards)


@pytest.mark.parametrize("cards", [[2.7, True], [2.0, 2], [True, 2], ["2", 2]])
def test_from_pmf_refuses_non_integer_cardinalities(cards):
    with pytest.raises(ia.MalformedRow, match="cardinalities must be integers"):
        ia.ProbTable.from_pmf(("A", "B"), {(0, 0): 1.0}, cards=cards)


@pytest.mark.parametrize("names", [[1, "B"], ["A", None], [True, False]],
                         ids=["int", "None", "bool"])
def test_from_pmf_refuses_names_that_are_not_strings(names):
    with pytest.raises(ia.MalformedRow, match="variable names must be strings"):
        ia.ProbTable.from_pmf(names, {(0, 0): 1.0})


def test_joint_name_must_be_a_string(xor):
    with pytest.raises(ia.MalformedRow, match="variable names must be strings"):
        ia.extend_with_joint(xor, name=5)


def test_oversized_generators_and_empty_groups_are_refused(xor):
    with pytest.raises(ia.VariableSetError, match="needs at least one group"):
        ia.interaction_information(xor, [])
    with pytest.raises(ia.GateSpecError, match=re.escape("parity(21) table would have 2^20 rows")):
        ia.parity_gate(21)
    # The size is checked before anything is drawn or allocated.
    with pytest.raises(ia.GateSpecError, match="oversized table"):
        ia.random_table(0, (2,) * 21)
