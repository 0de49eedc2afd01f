"""Independent brute-force oracles used to freeze expected test values.

Everything here works on plain dicts and loops, deliberately avoiding
the package's own data structures, so that a test comparing the two is
a genuine cross-check rather than a tautology.  The exceptions are the
validator oracles (:func:`oracle_monotonicity`, :func:`oracle_covering_rule`,
:func:`oracle_term_sizes` and :func:`oracle_equal_rows`), which read a
decomposition and take reduced terms or term sizes from the package; their
order test is :func:`brute_leq`, and they read rows in :func:`lattice_order`,
the lattice's listing key written out.
:func:`oracle_covers` is the closed-form cover rule on plain sets of
brackets, with no order test at all.
:func:`oracle_monotonicity_pairs` reads the package's lattice too: it tests
the reduction-extended pairs one by one with ``lattice.leq``, fast enough
to check the validator's mask closure beyond n = 5.  :func:`oracle_lift_entries`
is the lift's row loop through ``lattice.lift_map``, one image per term,
the reference for the lift's position table.
:func:`oracle_reduce` reads only a table's pmf and an antichain's brackets.
:func:`oracle_mobius_atoms` is the distributive solver's transform with its
lists built on every call.
:func:`oracle_delta_H` and :func:`oracle_inclusion_exclusion3` spell out the
gap and the 3-variable identity through the public entropy, mutual- and
interaction-information functions of :mod:`infatom.dist`, one call per
quantity, so the package's seven-entropy path is checked bit for bit.
:func:`oracle_from_pmf`, :func:`oracle_load_csv`, :func:`oracle_dump_csv`
and :func:`oracle_random_table` are the table ingest and emission written
row by row: each row checked in turn, raising for the first bad one, and
each CSV line split, stripped and formatted on its own.  They build the
package's ``ProbTable`` with its plain constructor and read probability
text with its ``_parse_prob``, so the bulk column checks are compared
with the row checks on errors, values and bytes.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from itertools import combinations, product

from infatom.dist import (
    ProbTable,
    _parse_prob,
    and_gate,
    entropy,
    extend_with_joint,
    interaction_information,
    mutual_information,
    parity_gate,
    random_table,
    xor_gate,
)
from infatom.errors import DuplicateOutcome, MalformedRow, NegativeProbability, TotalMassInvalid
from infatom.lattice import enumerate_antichains, leq, lift_map, top
from infatom.terms import eval_term, reduce_antichain

# Literal gate pmfs, written out by hand.
XOR_PMF = {(0, 0, 0): 0.25, (0, 1, 1): 0.25, (1, 0, 1): 0.25, (1, 1, 0): 0.25}
AND_PMF = {(0, 0, 0): 0.25, (0, 1, 0): 0.25, (1, 0, 0): 0.25, (1, 1, 1): 0.25}
COPY_PMF = {(0, 0, 0): 0.5, (1, 1, 1): 0.5}
TWO_COINS_COPY_PMF = {(0, 0, 0): 0.25, (0, 1, 1): 0.25, (1, 0, 2): 0.25, (1, 1, 3): 0.25}


#: Tables whose every subset the bit-for-bit tests range over: two gates,
#: a parity system, a joint extension and a random table of five bits.
DECISION_TABLES = {
    "xor": xor_gate,
    "and": and_gate,
    "parity(5)": lambda: parity_gate(5),
    "random(0,[3,3,3])+joint": lambda: extend_with_joint(random_table(0, (3, 3, 3))),
    "random(5 bits)": lambda: random_table("decisions", [2] * 5),
}


def three_pair_pmf() -> dict[tuple[int, int, int], float]:
    """Three variables, each the pair of two out of three hidden fair bits."""
    pmf = {}
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                pmf[(2 * a + b, 2 * b + c, 2 * c + a)] = 1 / 8
    return pmf


def oracle_marginal(pmf: dict, idx) -> dict:
    if not idx:  # the trivial pmf on (): one outcome, of mass 1 exactly
        return {(): 1.0}
    out: dict = {}
    for outcome, p in pmf.items():
        key = tuple(outcome[i] for i in idx)
        out[key] = out.get(key, 0.0) + p
    return out


def oracle_entropy(pmf: dict, idx) -> float:
    # fsum: the correctly rounded sum, whatever order the terms come in.
    return -math.fsum(p * math.log2(p) for p in oracle_marginal(pmf, idx).values() if p > 0)


def oracle_mi(pmf: dict, a, b) -> float:
    union = tuple(sorted(set(a) | set(b)))
    return oracle_entropy(pmf, a) + oracle_entropy(pmf, b) - oracle_entropy(pmf, union)


def oracle_interaction(pmf: dict, groups) -> float:
    """Alternating entropy sum over unions of chosen groups."""
    total = 0.0
    for k in range(1, len(groups) + 1):
        for chosen in combinations(groups, k):
            union = tuple(sorted({i for g in chosen for i in g}))
            total += (-1.0) ** (k - 1) * oracle_entropy(pmf, union)
    return total


def oracle_set_atoms(pmf: dict, n: int) -> dict[tuple[int, ...], float]:
    """Distributive atom size for every non-empty 1-based index set T,
    straight from joint entropies: ``-sum (-1)^|V - C| H(V)`` over the
    index sets V that contain the complement C of T."""
    atoms = {}
    for m in range(1, n + 1):
        for t in combinations(range(n), m):
            complement = [i for i in range(n) if i not in t]
            total = 0.0
            for k in range(m + 1):
                for added in combinations(t, k):
                    v = tuple(sorted(complement + list(added)))
                    total -= (-1.0) ** k * oracle_entropy(pmf, v)
            atoms[tuple(i + 1 for i in t)] = total
    return atoms


def oracle_mobius_atoms(table) -> dict[tuple[int, ...], float]:
    """The distributive solver's fast Möbius transform, with its groups and
    index tuples built afresh on every call: one
    ``interaction_information`` per subset mask, then the same
    subtractions in the same order, so its floats match bit for bit."""
    n = table.n
    f = [0.0] * (1 << n)
    for m in range(1, 1 << n):
        f[m] = interaction_information(table, [frozenset((i,)) for i in range(n) if m >> i & 1])
    for i in range(n):
        bit = 1 << i
        for m in range(1, 1 << n):
            if not m & bit:
                f[m] -= f[m | bit]
    return {tuple(i + 1 for i in range(n) if m >> i & 1): f[m] for m in range(1, 1 << n)}


def oracle_interval(pmf: dict) -> tuple[float, float]:
    """Feasible triple-intersection range from raw entropies."""
    i12 = oracle_mi(pmf, (0,), (1,))
    i13 = oracle_mi(pmf, (0,), (2,))
    i23 = oracle_mi(pmf, (1,), (2,))
    i3 = oracle_interaction(pmf, [(0,), (1,), (2,)])
    return max(0.0, i3), min(i12, i13, i23)


def oracle_delta_H(table, r) -> float:
    """``r - I_3`` of a 3-variable table (no feasibility check)."""
    return r - interaction_information(table, [[0], [1], [2]])


def oracle_inclusion_exclusion3(table, r) -> float:
    """Residual of the 3-variable identity, every term read on its own."""
    gap = oracle_delta_H(table, r)
    h1 = entropy(table, [0])
    h2 = entropy(table, [1])
    h3 = entropy(table, [2])
    i12 = mutual_information(table, [0], [1])
    i13 = mutual_information(table, [0], [2])
    i23 = mutual_information(table, [1], [2])
    lhs = entropy(table, [0, 1, 2])
    return lhs - (h1 + h2 + h3 - i12 - i13 - i23 + r - gap)


def oracle_reduce(table, a, eps) -> tuple[tuple[tuple[int, ...], ...] | None, tuple[str, ...]]:
    """``(brackets, trace)`` of the reduction rules as the ``terms`` module
    states them, on raw entropies: R1 over every pair of brackets, then R2
    over ordered pairs in position order, the whole round repeated until
    no rule fires.  ``brackets`` is None when R1 fired."""
    pmf = table.pmf()

    def text(b) -> str:
        return "{" + ",".join(str(i) for i in b) + "}"

    def positions(b) -> tuple[int, ...]:
        return tuple(i - 1 for i in b)

    brackets = [tuple(sorted(b)) for b in a.brackets]
    trace = []
    while len(brackets) >= 2:
        for x, y in combinations(brackets, 2):
            if oracle_mi(pmf, positions(x), positions(y)) <= eps:
                trace.append(f"R1({text(x)},{text(y)})")
                return None, tuple(trace)
        dropped = None
        for x in brackets:
            for y in brackets:
                if x == y:
                    continue
                union = tuple(sorted(positions(x) + positions(y)))
                if oracle_entropy(pmf, union) - oracle_entropy(pmf, positions(y)) <= eps:
                    trace.append(f"R2({text(x)}<={text(y)})")
                    dropped = y
                    break
            if dropped is not None:
                break
        if dropped is None:
            break
        brackets.remove(dropped)
    return tuple(sorted(brackets)), tuple(trace)


def brute_leq(a_brackets, b_brackets) -> bool:
    """The order definition written as explicit nested loops."""
    for bb in b_brackets:
        found = False
        for aa in a_brackets:
            if set(aa).issubset(set(bb)):
                found = True
        if not found:
            return False
    return True


def oracle_covers(brackets, n) -> set[frozenset[frozenset[int]]]:
    """Upper covers of an antichain over ``{1..n}`` by the closed-form rule,
    as sets of brackets: every way to add an unused index to one bracket
    when there is an unused index; otherwise every way to drop one bracket,
    when there are two or more; otherwise none (the top)."""
    blocks = [frozenset(b) for b in brackets]
    used = set().union(*blocks)
    free = [i for i in range(1, n + 1) if i not in used]
    if free:
        return {
            frozenset(blocks[:k] + [blocks[k] | {i}] + blocks[k + 1:])
            for k in range(len(blocks))
            for i in free
        }
    if len(blocks) >= 2:
        return {frozenset(blocks[:k] + blocks[k + 1:]) for k in range(len(blocks))}
    return set()


def oracle_parity_row(brackets, n) -> tuple[int, ...]:
    """Parthood row of the n-parity closed form, columns Pi_s then ghosts
    1..n-2: a single bracket of k indices holds Pi_s and the first
    min(k, n-1) - 1 ghosts, two brackets using all n indices hold Pi_s
    alone, and every other term holds nothing."""
    row = [0] * (n - 1)
    if len(brackets) == 1:
        row[0] = 1
        for g in range(1, min(len(brackets[0]), n - 1)):
            row[g] = 1
    if len(brackets) == 2:
        used = 0
        for b in brackets:
            used += len(b)
        if used == n:
            row[0] = 1
    return tuple(row)


def oracle_supports(n) -> list[tuple[int, ...]]:
    """Index sets of the distributive atoms over 1..n, larger sets first,
    then lexicographic."""
    out = []
    for m in range(n, 0, -1):
        out.extend(combinations(range(1, n + 1), m))
    return out


def oracle_set_row(brackets, supports) -> tuple[int, ...]:
    """Venn parthood: the atom over index set T lies in a term iff every
    bracket of the term shares an index with T."""
    row = []
    for t in supports:
        inside = 1
        for b in brackets:
            meets = False
            for i in b:
                if i in t:
                    meets = True
            if not meets:
                inside = 0
        row.append(inside)
    return tuple(row)


def lattice_order(decomp) -> list[tuple]:
    """A parthood table's ``(antichain, entries row)`` pairs in the lattice's
    listing order, its key written out: more brackets first, then fewer
    indices, then by brackets.  Validator details name their first offender
    in this order."""
    def key(pair) -> tuple:
        brackets = pair[0].brackets
        return -len(brackets), sum(len(b) for b in brackets), brackets

    return sorted(zip(decomp.table.rows, decomp.table.entries), key=key)


def oracle_monotonicity(decomp, table, eps, *, extended=True) -> tuple[bool, float, str]:
    """``(passed, residual, detail)`` of the validator's monotonicity check,
    by testing every ordered pair of rows with :func:`brute_leq`.

    A pair (a, b) with a <= b violates it if row a holds an atom that row b
    lacks.  A pair that is not ordered but becomes ordered once a, b or
    both are replaced by reduced forms that differ from them violates it
    if this happens for an atom of positive size; ``extended=False`` leaves
    these pairs out.  Reduced forms come from the package's
    ``reduce_antichain``, as in the validator.  Both loops run in
    :func:`lattice_order`, so the detail is the first violating pair in it."""
    pairs = lattice_order(decomp)
    rows = [a for a, _x in pairs]
    positive = [a.size > eps for a in decomp.atoms.atoms]
    reduced = {a: reduce_antichain(table, a, eps=eps)[0] for a in rows}

    def order(x, y) -> bool:
        return brute_leq(x.brackets, y.brackets)

    def holds_more(x, y, positive_only) -> bool:
        for j in range(len(x)):
            if positive_only and not positive[j]:
                continue
            if x[j] > y[j]:
                return True
        return False

    violations = 0
    first_bad = ""
    for a, x in pairs:
        for b, y in pairs:
            if a == b:
                continue
            if order(a, b):
                bad = holds_more(x, y, False)
            elif not extended:
                continue
            else:
                ra, rb = reduced[a], reduced[b]
                alt = (
                    (ra is not None and ra != a and order(ra, b))
                    or (rb is not None and rb != b and order(a, rb))
                    or (
                        ra is not None
                        and rb is not None
                        and (ra != a or rb != b)
                        and order(ra, rb)
                    )
                )
                if not alt:
                    continue
                bad = holds_more(x, y, True)
            if bad:
                violations += 1
                if not first_bad:
                    first_bad = f"{a} vs {b}"
    return violations == 0, float(violations), first_bad


def oracle_monotonicity_pairs(decomp, table, eps) -> tuple[bool, float, str]:
    """``(passed, residual, detail)`` of the validator's monotonicity check,
    with the reduction-extended pairs tested one by one with ``leq``.

    Ordered pairs are counted from up-set masks over lattice positions, as
    in the validator.  The other candidates for row a are the rows outside
    its up-set that lack one of its positive atoms and, where a's reduced
    form is a itself, have another reduced form; each is tested with the
    three clauses of :func:`oracle_monotonicity`.  Rows are read by lattice
    position, so the detail pairs the first position with a violation with
    the lowest position it violates with."""
    view = enumerate_antichains(decomp.n)
    elements = view.elements
    size = len(elements)
    atoms = decomp.atoms.atoms
    positive = sum(1 << j for j, atom in enumerate(atoms) if atom.size > eps)
    held_at = [0] * size
    at = [0] * len(atoms)
    for a, x in zip(decomp.table.rows, decomp.table.entries):
        p = view.index(a)
        for j, v in enumerate(x):
            if v:
                held_at[p] |= 1 << j
                at[j] |= 1 << p
    up = [0] * size
    for p in range(size - 1, -1, -1):
        for c in view.covers[p]:
            up[p] |= up[c] | 1 << c
    everywhere = (1 << size) - 1

    def lacking(h) -> int:
        common = everywhere
        for j in range(len(atoms)):
            if h >> j & 1:
                common &= at[j]
        return everywhere ^ common

    red_at = [reduce_antichain(table, a, eps=eps)[0] for a in elements]
    changed_at = [r is not None and r != a for r, a in zip(red_at, elements)]
    changed_mask = sum(1 << p for p, flag in enumerate(changed_at) if flag)
    violations = 0
    first_bad = ""
    for p, a in enumerate(elements):
        bad = up[p] & lacking(held_at[p])
        violations += bad.bit_count()
        first = size
        if bad and not first_bad:
            first = min(k for k in range(size) if bad >> k & 1)
        candidates = lacking(held_at[p] & positive) & ~up[p]
        if not changed_at[p]:
            candidates &= changed_mask
        bits = bin(candidates)[:1:-1]  # bit k at index k
        k = bits.find("1")
        while k >= 0:
            if (
                (changed_at[p] and leq(red_at[p], elements[k]))
                or (changed_at[k] and leq(a, red_at[k]))
                or (changed_at[p] and changed_at[k] and leq(red_at[p], red_at[k]))
            ):
                violations += 1
                first = min(first, k)
            k = bits.find("1", k + 1)
        if not first_bad and first < size:
            first_bad = f"{a} vs {elements[first]}"
    return violations == 0, float(violations), first_bad


def oracle_covering_rule(decomp) -> tuple[bool, float, str]:
    """``(passed, residual, detail)`` of the validator's covering rule,
    row by row: an atom's covering must equal the largest bracket count
    among the rows that hold it (0 when no row does)."""
    atoms = decomp.atoms.atoms
    observed = [0] * len(atoms)
    for a, x in zip(decomp.table.rows, decomp.table.entries):
        for j in range(len(atoms)):
            if x[j] and len(a.brackets) > observed[j]:
                observed[j] = len(a.brackets)
    mismatches = 0
    first_bad = ""
    for j, atom in enumerate(atoms):
        if observed[j] != atom.covering:
            mismatches += 1
            if not first_bad:
                first_bad = f"{atom.label}: {atom.covering} != {observed[j]}"
    return mismatches == 0, float(mismatches), first_bad


def oracle_term_gaps(decomp, table, eps) -> list[float]:
    """Per row, the gap between the ``fsum`` of the sizes of the atoms the
    row holds and its term's size from the package's ``eval_term``: the
    absolute difference from an exact size, the distance outside an
    interval."""
    sizes = [a.size for a in decomp.atoms.atoms]
    gaps = []
    for a, x in zip(decomp.table.rows, decomp.table.entries):
        total = math.fsum(s for s, v in zip(sizes, x) if v)
        tv = eval_term(table, a, eps=eps)
        if tv.is_exact:
            gaps.append(abs(total - tv.value))
        else:
            lo, hi = tv.bounds
            gaps.append(max(lo - total, total - hi, 0.0))
    return gaps


def oracle_term_sizes(decomp, table, eps) -> tuple[bool, float, str]:
    """``(passed, residual, detail)`` of the validator's term-size check,
    row by row from :func:`oracle_term_gaps`: the residual is the largest
    gap, and a failed check names the first row in :func:`lattice_order`
    whose gap is strictly larger than every earlier row's."""
    worst = 0.0
    first_bad = ""
    gap_of = dict(zip(decomp.table.rows, oracle_term_gaps(decomp, table, eps)))
    for a, _x in lattice_order(decomp):
        gap = gap_of[a]
        if gap > worst:
            worst = gap
            first_bad = str(a)
    return worst <= eps, worst, first_bad if worst > eps else ""


def oracle_equal_rows(decomp, table, eps) -> tuple[bool, float, str]:
    """``(passed, residual, detail)`` of the validator's equal-rows check,
    row by row: a row whose reduced form is another term must agree with
    that term's row on every atom of positive size; a failed check names
    the first such row in :func:`lattice_order`."""
    positive = [a.size > eps for a in decomp.atoms.atoms]
    row_of = dict(zip(decomp.table.rows, decomp.table.entries))
    mismatches = 0
    first_bad = ""
    for a, x in lattice_order(decomp):
        ra = reduce_antichain(table, a, eps=eps)[0]
        if ra is None or ra == a:
            continue
        y = row_of[ra]
        differs = False
        for j in range(len(x)):
            if positive[j] and x[j] != y[j]:
                differs = True
        if differs:
            mismatches += 1
            if not first_bad:
                first_bad = f"{a} ~ {ra}"
    return mismatches == 0, float(mismatches), first_bad


def oracle_lift_entries(decomp) -> tuple[tuple[int, ...], ...]:
    """Entries of the lifted table, one per antichain over ``n + 1``: the
    row of the term's :func:`lift_map` image, the top's for the empty one."""
    n1 = decomp.n + 1
    whole = top(decomp.n)
    entries = []
    for a in enumerate_antichains(n1).elements:
        image = lift_map(a, n1)
        entries.append(decomp.table.row(whole if image.is_empty else image))
    return tuple(entries)


def oracle_from_pmf(variables, pmf, cards=None, *, eps=1e-9) -> ProbTable:
    """``ProbTable.from_pmf`` with every row checked in turn."""
    names = tuple(str(v) for v in variables)
    if not names or len(set(names)) != len(names) or any(not v for v in names):
        raise MalformedRow(f"variable names must be non-empty and unique: {names!r}")
    items = list(pmf.items()) if isinstance(pmf, Mapping) else list(pmf)
    seen = {}
    for outcome, p in items:
        key = tuple(outcome)
        if len(key) != len(names) or not all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in key
        ):
            raise MalformedRow(f"bad outcome {outcome!r} for {len(names)} variables")
        p = float(p)
        if p < 0.0:
            raise NegativeProbability(f"P{key!r} = {p}")
        if key in seen:
            raise DuplicateOutcome(f"outcome {key!r} listed twice")
        seen[key] = p
    total = math.fsum(seen.values())
    if not (1.0 - eps <= total <= 1.0 + eps):
        raise TotalMassInvalid(f"total mass {total!r} outside [1-eps, 1+eps]")
    kept = {o: p / total for o, p in seen.items() if p != 0.0}
    if cards is None:
        inferred = [1] * len(names)
        for o in kept:
            for i, v in enumerate(o):
                inferred[i] = max(inferred[i], v + 1)
        cards_t = tuple(inferred)
    else:
        if any(isinstance(c, bool) or not isinstance(c, int) for c in cards):
            raise MalformedRow(f"cardinalities must be integers, got {cards!r}")
        cards_t = tuple(cards)
        if len(cards_t) != len(names) or any(c < 1 for c in cards_t):
            raise MalformedRow(f"bad cardinalities {cards_t!r}")
        for o in kept:
            if any(v >= c for v, c in zip(o, cards_t)):
                raise MalformedRow(f"outcome {o!r} exceeds cardinalities {cards_t!r}")
    return ProbTable(names, cards_t, tuple(sorted(kept.items())))


def oracle_load_csv(text: str, eps: float = 1e-9) -> ProbTable:
    """The CSV loader with every line split, stripped and checked in turn."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise MalformedRow("empty table")
    header = [tok.strip() for tok in lines[0].split(",")]
    if len(header) < 2 or header[0] != "p":
        raise MalformedRow(f"header must be 'p,<v1>,...': {lines[0]!r}")
    pmf = []
    for ln in lines[1:]:
        toks = [tok.strip() for tok in ln.split(",")]
        if len(toks) != len(header):
            raise MalformedRow(f"row {ln!r} has {len(toks)} fields, expected {len(header)}")
        p = _parse_prob(toks[0])
        try:
            outcome = tuple(int(tok) for tok in toks[1:])
        except ValueError as exc:
            raise MalformedRow(f"bad symbol index in row {ln!r}") from exc
        if any(v < 0 for v in outcome):
            raise MalformedRow(f"negative symbol index in row {ln!r}")
        pmf.append((outcome, p))
    return oracle_from_pmf(header[1:], pmf, eps=eps)


def oracle_dump_csv(table) -> str:
    """The CSV form, one ``repr`` and one ``str`` per field."""
    out = ["p," + ",".join(table.variables)]
    for outcome, p in table.rows:
        out.append(repr(p) + "," + ",".join(str(v) for v in outcome))
    return "\n".join(out) + "\n"


def oracle_random_table(seed, cards) -> ProbTable:
    """``random_table`` with its weights and pmf built one outcome at a time."""
    cards_t = tuple(int(c) for c in cards)
    size = 1
    for c in cards_t:
        size *= c
    rng = random.Random(seed)
    weights = [-math.log(1.0 - rng.random()) for _ in range(size)]
    total = math.fsum(weights)
    outcomes = product(*map(range, cards_t))
    pmf = {outcome: w / total for outcome, w in zip(outcomes, weights)}
    names = tuple(f"X{i}" for i in range(1, len(cards_t) + 1))
    return oracle_from_pmf(names, pmf, cards_t)
