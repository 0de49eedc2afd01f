from __future__ import annotations

import math
import random
from itertools import combinations, permutations

import pytest

import infatom as ia
from infatom import terms
from infatom.lattice import Antichain
from infatom.terms import eval_term, reduce_antichain

from _oracles import (
    DECISION_TABLES,
    oracle_delta_H,
    oracle_entropy,
    oracle_inclusion_exclusion3,
    oracle_interaction,
    oracle_interval,
    oracle_mi,
    oracle_reduce,
)


# ---------------------------------------------------------------------------
# eval_term dispatch
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text, message", [
    ("{}", "cannot evaluate the empty antichain directly"),
    ("{1}{1000}", "{1}{1000} uses indices beyond the table's 3 variables"),
], ids=["empty", "index-1000"])
def test_unevaluable_antichains_are_refused_before_any_mask(xor, text, message):
    a = Antichain.parse(text)
    for built in (False, True):
        if built:  # masks built elsewhere are checked as ints
            assert not a.brackets or "masks" not in vars(a)
            assert len(a.masks) == len(a.brackets)
        for fn in (eval_term, reduce_antichain):
            with pytest.raises(ia.AntichainError) as err:
                fn(xor, a)
            assert str(err.value) == message


def test_single_bracket_is_joint_entropy(xor):
    tv = eval_term(xor, Antichain.of([1]))
    assert tv.is_exact and tv.value == pytest.approx(1.0, abs=1e-12)
    tv = eval_term(xor, Antichain.of([1, 2]))
    assert tv.value == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eval_term_with_given_reduction_matches_its_own(seed):
    t = ia.random_table(f"given-reduction:{seed}", [2] * 5)
    elements = ia.enumerate_antichains(5).elements
    assert len(elements) == 202
    for a in elements:
        assert eval_term(t, a, reduction=reduce_antichain(t, a)) == eval_term(t, a), a


def test_each_mask_pair_is_decided_once_per_eps_and_eval_term_builds_no_bracket_sets(monkeypatch):
    # Over a whole n = 5 lattice on one table, every R1/R2 decision is made
    # once per eps, each R1 decision through one dist call, and a second
    # pass makes none.  Once each mask's shared position set exists, terms
    # builds no set of its own, not even on a table it has not seen.
    t = ia.random_table("decide-once", [2] * 5)
    elements = ia.enumerate_antichains(5).elements
    decisions = []
    calls = []
    real_decide, real_mi = terms._decide, terms.mutual_information

    def decide(table, decided, key, x, y, eps):
        decisions.append((key, eps))
        return real_decide(table, decided, key, x, y, eps)

    def mutual_information(table, x, y):
        calls.append((x, y))
        return real_mi(table, x, y)

    monkeypatch.setattr(terms, "_decide", decide)
    monkeypatch.setattr(terms, "mutual_information", mutual_information)
    for eps in (ia.DEFAULT_EPS, 1e-3):
        decisions.clear()
        calls.clear()
        first = [eval_term(t, a, eps=eps) for a in elements]
        assert decisions and len(decisions) == len(set(decisions)), eps
        assert len(calls) == sum(1 for key, _ in decisions if not key & 1)
        decisions.clear()
        calls.clear()
        assert [eval_term(t, a, eps=eps) for a in elements] == first
        assert decisions == calls == []
    built = []
    monkeypatch.setattr(terms, "frozenset", lambda *a: built.append(a) or frozenset(*a),
                        raising=False)
    fresh = ia.random_table("decide-once:fresh", [2] * 5)
    for a in elements:
        eval_term(fresh, a)
    assert decisions and built == []


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


@pytest.mark.parametrize("make", DECISION_TABLES.values(), ids=list(DECISION_TABLES))
def test_rule_decisions_and_entropies_match_dist(make):
    # R2 is decided from two memoised mask entropies and R1 through
    # mutual_information; both must agree with dist's own predicates.  The
    # entropy sum over the marginal must be the generator form bit for bit.
    t = make()
    n = t.n
    elements = ia.enumerate_antichains(n).elements
    rules = set()
    for eps in (1e-9, 1e-3, 0.05):
        for a in elements:
            reduce_antichain(t, a, eps=eps)
        for key, step in t._decisions[eps].items():
            rule, pair = key & 1, key >> 1
            x, y = _bits(pair >> n), _bits(pair & ((1 << n) - 1))
            if rule:
                expected = ia.is_deterministic_function(t, x, y, eps=eps)
            else:
                expected = ia.mutual_information(t, x, y) <= eps
            assert bool(step) == expected, (eps, x, y, rule)
            rules.add(rule)
    assert rules == {0, 1}
    for k in range(n + 1):
        for s in combinations(range(n), k):
            masses = ia.dist._marginal(t, s).values()
            expected = -math.fsum(p * math.log2(p) for p in masses if p > 0.0)
            assert ia.entropy(t, s).hex() == expected.hex(), s


@pytest.mark.parametrize("make", DECISION_TABLES.values(), ids=list(DECISION_TABLES))
def test_mask_entropies_are_the_entropies_bit_for_bit(make):
    # Read by mask first and by selection first, each on a fresh table, and
    # again once the memo holds every subset.
    by_mask, by_set = make(), make()
    n = by_mask.n
    for mask in range(1 << n):
        positions = _bits(mask)
        h = ia.dist._mask_entropy(by_mask, mask)
        assert h.hex() == ia.entropy(by_set, positions).hex(), positions
        assert ia.entropy(by_mask, positions).hex() == h.hex(), positions
        assert ia.dist._mask_entropy(by_set, mask).hex() == h.hex(), positions
        assert ia.dist._mask_entropy(by_mask, mask) is h
    # One entry per subset, keyed by its mask, however it was first read.
    assert set(by_mask._entropies) == set(by_set._entropies) == set(range(1 << n))


#: The five decision tables and seeded random tables over 3 to 5 variables.
EVAL_TABLES = {
    **DECISION_TABLES,
    **{f"random({seed},{cards})": (lambda s=seed, c=cards: ia.random_table(f"eval:{s}", c))
       for seed, cards in enumerate([(2, 2, 2), (3, 2, 4), (2, 3, 2, 2), (2,) * 5, (3, 2, 2, 2, 2)])},
}


@pytest.mark.parametrize("make", EVAL_TABLES.values(), ids=list(EVAL_TABLES))
def test_eval_term_equals_dist_bit_for_bit(make):
    # eval_term reads mask entropies from its table's memo; dist's public
    # quantities are computed on a second, equal table with its own memo.
    t, ref = make(), make()
    for a in ia.enumerate_antichains(t.n).elements:
        tv = eval_term(t, a)
        reduced, _ = reduce_antichain(t, a)
        if reduced is None:
            assert tv.value == 0.0, a
            continue
        groups = [[i - 1 for i in b] for b in reduced.brackets]
        if len(groups) == 1:
            assert tv.value.hex() == ia.entropy(ref, groups[0]).hex(), a
        elif len(groups) == 2:
            assert tv.value.hex() == ia.mutual_information(ref, *groups).hex(), a
        else:
            hi = min(ia.mutual_information(ref, x, y) for x, y in combinations(groups, 2))
            lo = max(0.0, ia.interaction_information(ref, groups)) if len(groups) == 3 else 0.0
            assert tv.value is None, a
            assert [b.hex() for b in tv.bounds] == [lo.hex(), hi.hex()], a


def test_xor_pair_bracket_reduces_by_function_rule(xor):
    tv = eval_term(xor, Antichain.parse("{1,2}{3}"))
    assert tv.is_exact
    assert tv.value == pytest.approx(1.0, abs=1e-12)
    assert any(step.startswith("R2") for step in tv.trace)


def test_xor_singletons_vanish_by_independence(xor):
    tv = eval_term(xor, Antichain.parse("{1}{2}{3}"))
    assert tv.is_exact and tv.value == 0.0
    assert any(step.startswith("R1") for step in tv.trace)


def test_and_singletons_vanish_by_independence(and_table):
    tv = eval_term(and_table, Antichain.parse("{1}{2}{3}"))
    assert tv.is_exact and tv.value == 0.0


def test_copies_triple_reduces_to_entropy(copies):
    tv = eval_term(copies, Antichain.parse("{1}{2}{3}"))
    assert tv.is_exact and tv.value == pytest.approx(1.0, abs=1e-12)


def test_generic_triple_is_interval_with_oracle_bounds():
    t = ia.random_table("interval-oracle", [2, 2, 2])
    tv = eval_term(t, Antichain.parse("{1}{2}{3}"))
    assert not tv.is_exact
    lo, hi = oracle_interval(t.pmf())
    assert tv.bounds[0] == pytest.approx(lo, abs=1e-12)
    assert tv.bounds[1] == pytest.approx(hi, abs=1e-12)
    assert tv.bounds[0] <= tv.bounds[1] + 1e-9
    assert tv.bounds[0] >= -1e-9


def test_two_brackets_equal_mutual_information():
    for seed in range(5):
        t = ia.random_table(f"pairmi:{seed}", [2, 2, 2])
        for a, b in (([1], [2]), ([1], [2, 3]), ([1, 3], [2])):
            tv = eval_term(t, Antichain.of(a, b))
            mi = ia.mutual_information(t, [i - 1 for i in a], [i - 1 for i in b])
            assert tv.is_exact
            assert tv.value == pytest.approx(mi, abs=1e-12)


def test_union_dominates_parts_at_measure_level():
    # The pair term {i,j}{k} can never carry less than either single-source
    # mutual information.
    for seed in range(20):
        t = ia.random_table(f"subdist:{seed}", [2, 2, 2])
        for i, j, k in permutations((1, 2, 3)):
            if i > j:
                continue
            tv = eval_term(t, Antichain.of([i, j], [k]))
            lower = max(
                ia.mutual_information(t, [i - 1], [k - 1]),
                ia.mutual_information(t, [j - 1], [k - 1]),
            )
            assert tv.value >= lower - 1e-9


def test_interval_lower_bound_tracks_positive_coinformation():
    for seed in range(30):
        t = ia.random_table(f"pos-i3:{seed}", [2, 2, 2])
        i3 = ia.interaction_information(t, [[0], [1], [2]])
        tv = eval_term(t, Antichain.parse("{1}{2}{3}"))
        if tv.is_exact:
            assert tv.value >= max(0.0, i3) - 1e-9
        else:
            assert tv.bounds[0] >= max(0.0, i3) - 1e-12


def test_four_bracket_interval_bounds():
    t = ia.random_table("four", [2, 2, 2, 2])
    tv = eval_term(t, Antichain.parse("{1}{2}{3}{4}"))
    if not tv.is_exact:
        assert tv.bounds[0] == 0.0
        pair_mis = [
            ia.mutual_information(t, [i], [j]) for i, j in combinations(range(4), 2)
        ]
        assert tv.bounds[1] <= min(pair_mis) + 1e-12


def test_eval_term_rejects_foreign_indices(xor):
    with pytest.raises(ia.AntichainError):
        eval_term(xor, Antichain.parse("{1}{4}"))


# ---------------------------------------------------------------------------
# Reduction confluence
# ---------------------------------------------------------------------------


def _reduce_alternative(table, a, eps_det=1e-9):
    """Same rules, opposite priorities: function rule first, pairs scanned
    in reverse.  Used to probe order independence of the outcome."""
    brackets = [frozenset(i - 1 for i in b) for b in a.brackets]
    while len(brackets) >= 2:
        dropped = False
        for i in reversed(range(len(brackets))):
            for j in reversed(range(len(brackets))):
                if i == j:
                    continue
                h_cond = ia.entropy(table, brackets[i] | brackets[j]) - ia.entropy(
                    table, brackets[j]
                )
                if h_cond <= eps_det:
                    del brackets[j]
                    dropped = True
                    break
            if dropped:
                break
        if not dropped:
            break
    for x, y in combinations(brackets, 2):
        if ia.mutual_information(table, x, y) <= eps_det:
            return None
    return [sorted(i + 1 for i in b) for b in brackets]


def _value_of(table, a):
    tv = eval_term(table, a)
    return ("exact", round(tv.value, 10)) if tv.is_exact else (
        "interval",
        round(tv.bounds[0], 10),
        round(tv.bounds[1], 10),
    )


def test_reduction_is_confluent_on_gate_corpus():
    corpus = [
        ia.xor_gate(),
        ia.parity_gate(4),
        ia.and_gate(),
        ia.copy_gate(),
        ia.two_coins_copy_gate(),
    ]
    for table in corpus:
        for a in ia.enumerate_antichains(table.n).elements:
            alt = _reduce_alternative(table, a)
            if alt is None:
                alt_value = ("exact", 0.0)
            elif len(alt) == 1:
                alt_value = ("exact", round(ia.entropy(table, [i - 1 for i in alt[0]]), 10))
            elif len(alt) == 2:
                alt_value = (
                    "exact",
                    round(
                        ia.mutual_information(
                            table, [i - 1 for i in alt[0]], [i - 1 for i in alt[1]]
                        ),
                        10,
                    ),
                )
            else:
                groups = [[i - 1 for i in b] for b in alt]
                lo = max(0.0, ia.interaction_information(table, groups)) if len(alt) == 3 else 0.0
                hi = min(
                    ia.mutual_information(table, x, y) for x, y in combinations(groups, 2)
                )
                alt_value = ("interval", round(lo, 10), round(hi, 10))
            assert _value_of(table, a) == alt_value, str(a)


def _no_rule_applies(table, a):
    sets = [[i - 1 for i in b] for b in a.brackets]
    return all(
        ia.mutual_information(table, x, y) > ia.DEFAULT_EPS for x, y in combinations(sets, 2)
    ) and not any(ia.is_deterministic_function(table, x, y) for x, y in permutations(sets, 2))


@pytest.mark.parametrize(
    "table",
    [
        ia.random_table("unreduced", [2] * 5),
        ia.parity_gate(5),
        ia.extend_with_joint(ia.parity_gate(4)),
    ],
    ids=["random5", "parity5", "parity4-joint"],
)
def test_unreduced_antichain_comes_back_as_is(table):
    for a in ia.enumerate_antichains(table.n).elements:
        reduced, trace = reduce_antichain(table, a)
        assert (trace == ()) == _no_rule_applies(table, a), str(a)
        assert (reduced is a) == (trace == ()), str(a)


REDUCTION_CORPUS = {
    "xor": ia.xor_gate(),
    "and": ia.and_gate(),
    "copy": ia.copy_gate(),
    "two-coins-copy": ia.two_coins_copy_gate(),
    "parity4": ia.parity_gate(4),
    "parity5": ia.parity_gate(5),
    "parity4-joint": ia.extend_with_joint(ia.parity_gate(4)),
    "xor-joint": ia.extend_with_joint(ia.xor_gate()),
    # Many R2 drops per term: every bracket of copy5 determines every
    # other, and parity5's joint determines each variable.
    "copy5": ia.ProbTable.from_pmf([f"X{i}" for i in range(1, 6)],
                                   {(0,) * 5: 0.5, (1,) * 5: 0.5}),
    "parity5-joint": ia.extend_with_joint(ia.parity_gate(5)),
    **{f"random{n}:{seed}": ia.random_table(f"reduce:{n}:{seed}", [2] * n)
       for n in (4, 5) for seed in range(3)},
}


@pytest.mark.parametrize("name", list(REDUCTION_CORPUS))
def test_reduction_matches_the_stated_rules(name):
    table = REDUCTION_CORPUS[name]
    for a in ia.enumerate_antichains(table.n).elements:
        if a.covering == 1:
            continue
        reduced, trace = reduce_antichain(table, a)
        brackets = None if reduced is None else reduced.brackets
        assert (brackets, trace) == oracle_reduce(table, a, ia.DEFAULT_EPS), str(a)


def test_decisions_are_kept_per_eps():
    # One table, reduced at the default eps, then at a coarser one, then at
    # the default again: each pass sees only its own eps's decisions.
    for name, table in REDUCTION_CORPUS.items():
        multi = [a for a in ia.enumerate_antichains(table.n).elements if a.covering > 1]
        for eps in (ia.DEFAULT_EPS, 1e-3, ia.DEFAULT_EPS):
            for a in multi:
                reduced, trace = reduce_antichain(table, a, eps=eps)
                brackets = None if reduced is None else reduced.brackets
                assert (brackets, trace) == oracle_reduce(table, a, eps), (name, eps, str(a))


def _frozenset_value(table, a, eps):
    """The term size by the frozenset formulas: dist's own quantities on
    the reduced form's bracket sets."""
    reduced, trace = reduce_antichain(table, a, eps=eps)
    if reduced is None:
        return ia.TermValue.exact(0.0, trace)
    sets = [frozenset(i - 1 for i in b) for b in reduced.brackets]
    if len(sets) == 1:
        return ia.TermValue.exact(ia.entropy(table, sets[0]), trace)
    if len(sets) == 2:
        return ia.TermValue.exact(ia.mutual_information(table, *sets), trace)
    lo = max(0.0, ia.interaction_information(table, sets)) if len(sets) == 3 else 0.0
    hi = min(ia.mutual_information(table, x, y) for x, y in combinations(sets, 2))
    return ia.TermValue.interval(lo, hi, trace)


@pytest.mark.parametrize("eps", [ia.DEFAULT_EPS, 1e-3])
def test_eval_term_is_bit_identical_to_the_frozenset_formulas(eps):
    for name, table in REDUCTION_CORPUS.items():
        for a in ia.enumerate_antichains(table.n).elements:
            want = _frozenset_value(table, a, eps)
            got = eval_term(table, a, eps=eps)
            assert got == want, (name, str(a))
            assert [math.copysign(1.0, v) for v in got.bounds] == [
                math.copysign(1.0, v) for v in want.bounds
            ], (name, str(a))


# ---------------------------------------------------------------------------
# Distributivity gap and the 3-variable identity
# ---------------------------------------------------------------------------


def test_delta_h_xor(xor):
    assert ia.delta_H(xor, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_delta_h_copies(copies):
    assert ia.delta_H(copies, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_delta_h_two_coins_copy(two_coins):
    assert ia.delta_H(two_coins, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_delta_h_rejects_infeasible(xor):
    with pytest.raises(ia.InfeasibleRedundancy):
        ia.delta_H(xor, 0.5)
    with pytest.raises(ia.InfeasibleRedundancy):
        ia.delta_H(xor, -0.5)


def test_delta_h_wrong_arity():
    t = ia.random_table("arity", [2, 2])
    with pytest.raises(ia.WrongArity):
        ia.delta_H(t, 0.0)


def test_delta_h_invariant_under_variable_permutations():
    base = ia.random_table("perm", [2, 3, 2])
    lo, _hi = ia.redundancy_bounds(base)
    values = []
    for perm in permutations(range(3)):
        pmf = {tuple(o[i] for i in perm): p for o, p in base.pmf().items()}
        t = ia.ProbTable.from_pmf(("A", "B", "C"), pmf)
        values.append(ia.delta_H(t, lo))
    assert max(values) - min(values) <= 1e-12


def test_delta_h_nonnegative_on_random_tables():
    for seed in range(50):
        t = ia.random_table(f"dh:{seed}", [2, 2, 2])
        lo, hi = ia.redundancy_bounds(t)
        assert ia.delta_H(t, lo) >= -1e-9
        assert ia.delta_H(t, hi) >= -1e-9


def test_redundancy_bounds_equal_the_mi_and_ii_formula():
    # Bit for bit, on tables whose memo redundancy_bounds never touched.
    gates = ("xor", "and", "copy", "two-coins-copy")
    specs = [f"random({i},[{c},{c},{c}])" for c in (2, 3, 4) for i in range(340)]
    for spec in specs + list(gates):
        t, fresh = ia.gen_gate(spec), ia.gen_gate(spec)
        i12 = ia.mutual_information(fresh, [0], [1])
        i13 = ia.mutual_information(fresh, [0], [2])
        i23 = ia.mutual_information(fresh, [1], [2])
        i3 = ia.interaction_information(fresh, [[0], [1], [2]])
        assert ia.redundancy_bounds(t) == (max(0.0, i3), min(i12, i13, i23)), spec


def test_inclusion_exclusion3_xor(xor):
    assert ia.check_inclusion_exclusion3(xor, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_inclusion_exclusion3_residual_vanishes_on_random_tables():
    # Both sides evaluated independently from the raw pmf as the oracle.
    worst = 0.0
    for seed in range(1000):
        t = ia.random_table(f"ie3:{seed}", [2, 2, 2])
        pmf = t.pmf()
        lo, hi = oracle_interval(pmf)
        u = (seed * 0.6180339887498949) % 1.0
        r = lo + u * (hi - lo)
        residual = ia.check_inclusion_exclusion3(t, r)
        worst = max(worst, abs(residual))
        i3 = oracle_interaction(pmf, [(0,), (1,), (2,)])
        direct = oracle_entropy(pmf, (0, 1, 2)) - (
            oracle_entropy(pmf, (0,))
            + oracle_entropy(pmf, (1,))
            + oracle_entropy(pmf, (2,))
            - oracle_mi(pmf, (0,), (1,))
            - oracle_mi(pmf, (0,), (2,))
            - oracle_mi(pmf, (1,), (2,))
            + r
            - (r - i3)
        )
        assert residual == pytest.approx(direct, abs=1e-12)
    assert worst < 1e-9


def test_gap_and_identity_equal_the_oracle_bit_for_bit():
    # Criterion-5 tables and the gates, at both endpoints and a random r;
    # the oracle reads a fresh copy, whose memo the package never touched.
    makers = [
        (ia.sample_table, (seed, i, cards))
        for seed, cards in ((550, (2, 2, 2)), (551, (3, 3, 3)))
        for i in range(150)
    ]
    makers += [(ia.gen_gate, (g,)) for g in ("xor", "and", "copy", "two-coins-copy")]
    rng = random.Random(5)
    for make, args in makers:
        t, fresh = make(*args), make(*args)
        lo, hi = ia.redundancy_bounds(t)
        for r in (lo, hi, lo + rng.random() * (hi - lo)):
            assert ia.delta_H(t, r) == oracle_delta_H(fresh, r)
            assert ia.check_inclusion_exclusion3(t, r) == oracle_inclusion_exclusion3(fresh, r)


@pytest.mark.parametrize("check", [ia.delta_H, ia.check_inclusion_exclusion3])
def test_gap_and_identity_raise_in_order(check):
    # Arity first, then a non-finite r, then an r outside [lo - eps, hi + eps].
    for bad_arity in (ia.random_table("order", [2, 2]), ia.parity_gate(4)):
        for r in (0.0, math.nan, math.inf, 10.0):
            with pytest.raises(ia.WrongArity):
                check(bad_arity, r)
    t = ia.random_table("order", [2, 3, 2])
    lo, hi = ia.redundancy_bounds(t)
    for r in (math.nan, math.inf, -math.inf):
        with pytest.raises(ia.RedundancyValueError):
            check(t, r)
    eps = 1e-6
    for r in (lo - 2 * eps, hi + 2 * eps):
        with pytest.raises(ia.InfeasibleRedundancy):
            check(t, r, eps=eps)
    for r in (lo - eps / 2, hi + eps / 2):
        check(t, r, eps=eps)


def test_term_value_shape():
    tv = ia.TermValue.exact(1.5, ("R2(a<=b)",))
    assert tv.kind == "exact" and tv.bounds == (1.5, 1.5)
    tv = ia.TermValue.interval(0.0, 1.0)
    assert tv.kind == "interval" and tv.value is None
    assert math.isfinite(tv.bounds[1])
