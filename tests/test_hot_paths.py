"""The criterion-5 hot loop, pinned bit for bit, and the paths under it.

The pin replays the first 300 ops of the benchmark's ``sweep3`` workload
at seed 0 (the same tables and the same ``u`` draw as
``bench/workloads.py``) and hashes the ``float.hex`` of every value it
returns, so any change to how an entropy, a bound or an atom size is
summed shows up as a new digest.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest

import infatom as ia
from infatom import decomp, dist, terms

from _oracles import oracle_marginal, oracle_mobius_atoms

#: SHA-256 of the first 300 sweep3 ops of seed 0, recorded before the
#: full-selection marginal, the Möbius plan and the record stores changed.
SWEEP3_DIGEST = "1a7be5fdc26908dc0839ec097a361465adb6b89350073f13c1c6e5607a0e14ce"


def _sweep3_digest(seed: int, ops: int) -> str:
    h = hashlib.sha256()
    for i in range(ops):
        card = 2 + i % 3
        table = ia.random_table(f"{seed}:{i}", (card,) * 3)
        u = random.Random(f"{seed}:{i}:r").random()
        lo, hi = decomp.feasible_interval(table)
        r = lo + u * (hi - lo)
        sols = [decomp.solve_trivariate(table, x) for x in (lo, hi, r)]
        residual = terms.check_inclusion_exclusion3(table, r)
        try:
            sols.append(decomp.solve_set_theoretic(table))
        except ia.NotSetTheoretic:
            sols.append(None)
        h.update(f"{i} {lo.hex()} {hi.hex()} {residual.hex()}\n".encode())
        for d in sols:
            for atom in d.atoms if d is not None else ():
                h.update(f"{atom.label.text} {atom.size.hex()}\n".encode())
            h.update(b"-\n")
    return h.hexdigest()


def test_sweep3_values_are_pinned_bit_for_bit():
    assert _sweep3_digest(0, 300) == SWEEP3_DIGEST


# ---------------------------------------------------------------------------
# The distributive solver's plan per arity
# ---------------------------------------------------------------------------

MOBIUS_TABLES = {
    **{f"random{n}": (lambda n=n: ia.random_table(f"mobius:{n}", (3, 2, 4, 2, 3)[:n]))
       for n in range(1, 6)},
    "xor": ia.xor_gate,
    "and": ia.and_gate,
    "copy": ia.copy_gate,
    "two-coins-copy": ia.two_coins_copy_gate,
    "parity2": lambda: ia.parity_gate(2),
    "parity4": lambda: ia.parity_gate(4),
    "parity5": lambda: ia.parity_gate(5),
}


@pytest.mark.parametrize("make", MOBIUS_TABLES.values(), ids=list(MOBIUS_TABLES))
def test_mobius_atoms_match_the_per_call_oracle_bit_for_bit(make):
    got = decomp._mobius_atoms(make())
    want = oracle_mobius_atoms(make())
    # The oracle lists the masks 1 .. 2^n - 1 in order, by index tuple.
    n = len(got).bit_length() - 1
    assert list(want) == [tuple(i + 1 for i in range(n) if m >> i & 1) for m in range(1, 1 << n)]
    assert got[0] == 0.0
    assert [v.hex() for v in got[1:]] == [v.hex() for v in want.values()]


def test_mobius_plan_is_built_once_per_arity(monkeypatch):
    calls = []
    real = dist.interaction_information

    def counting(table, groups):
        calls.append(groups)
        return real(table, groups)

    monkeypatch.setattr(decomp, "interaction_information", counting)
    decomp._mobius_plan.cache_clear()
    for rep in range(3):
        for n in range(1, 6):
            decomp._mobius_atoms(ia.random_table(f"plan:{rep}:{n}", (2,) * n))
    info = decomp._mobius_plan.cache_info()
    assert (info.misses, info.hits) == (5, 10)
    # One interaction information per non-empty subset mask, each over
    # the plan's shared groups.
    assert len(calls) == 3 * sum(2**n - 1 for n in range(1, 6))
    groups, columns = decomp._mobius_plan(5)
    assert all(a is b for a, b in zip(calls[-31:], groups, strict=True))
    assert groups[:3] == (({0},), ({1},), ({0}, {1}))
    # Each mask with its set-atom label, in the solver's column order.
    assert [(m, str(label)) for m, label in columns[:3]] == [
        (31, "{1}{2}{3}{4}{5}"), (15, "{1}{2}{3}{4}"), (23, "{1}{2}{3}{5}")]


# ---------------------------------------------------------------------------
# The full selection
# ---------------------------------------------------------------------------


def test_full_selection_is_the_pmf():
    t = ia.random_table("full", (3, 2, 4))
    full = dist._marginal(t, (0, 1, 2))
    assert full == t.pmf() and list(full) == [o for o, _ in t.rows]


@pytest.mark.parametrize("idx", [(0,), (1,), (2,), (0, 1), (0, 2), ()])
def test_marginals_match_the_tuple_keyed_oracle_bit_for_bit(idx):
    # One position is summed under int keys; its marginal must still be
    # the tuple-keyed row-order sum, in first-seen key order.
    t = ia.random_table("marginal", (3, 2, 4))
    got = dist._marginal(t, idx)
    want = oracle_marginal(t.pmf(), idx)
    assert list(got) == list(want)
    assert [p.hex() for p in got.values()] == [p.hex() for p in want.values()]


# ---------------------------------------------------------------------------
# Zero-mass rows
# ---------------------------------------------------------------------------

#: Only a direct constructor call keeps a zero-mass row; from_pmf drops it.
#: Its entropies are those of the table without that row.
ZERO_ROW = ia.ProbTable(("a", "b"), (2, 2), (((0, 0), 0.0), ((1, 1), 1.0)))


def test_zero_mass_row_entropy_of_one_variable():
    t = ia.ProbTable(*ZERO_ROW._key)
    assert ia.entropy(t, [0]).hex() == (-0.0).hex()


def test_zero_mass_row_entropy_of_the_full_selection():
    t = ia.ProbTable(*ZERO_ROW._key)
    assert ia.entropy(t, [0, 1]).hex() == (-0.0).hex()


def test_zero_mass_rows_give_the_entropies_of_the_table_without_them():
    rows = (((0, 0, 1), 0.25), ((0, 1, 0), 0.0), ((1, 0, 0), 0.5), ((1, 1, 1), 0.25),
            ((1, 1, 0), 0.0))
    t = ia.ProbTable(("a", "b", "c"), (2, 2, 2), rows)
    kept = ia.ProbTable(("a", "b", "c"), (2, 2, 2), tuple(r for r in rows if r[1]))
    for k in range(4):
        for s in combinations(range(3), k):
            assert ia.entropy(t, s).hex() == ia.entropy(kept, s).hex(), s
    assert ia.marginalize(t, [0]) == ia.marginalize(kept, [0])


def test_negative_mass_rows_still_raise():
    t = ia.ProbTable(("a",), (2,), (((0,), -0.5), ((1,), 1.5)))
    with pytest.raises(ValueError, match="math domain error"):
        ia.entropy(t, [0])
