"""Discrete joint distributions and entropy-derived quantities.

A :class:`ProbTable` is an immutable, normalized probability mass function
over named discrete variables.  All quantities are reported in bits
(logarithm base 2) with the convention ``0 * log2(0) = 0``; rows with
probability exactly zero are dropped at construction time.

Variable selections ("varsets") are iterables of 0-based positions into
``table.variables``.  Text interfaces (CSV headers, CLI flags, antichain
syntax) are 1-based; the conversion happens at those boundaries only.
Each function checks a selection once, where it enters, and
:func:`entropy` checks one only on a memo miss.

Every quantity below is a signed sum of subset entropies, and
:func:`entropy` is the one place they are computed.  Tables are
immutable, so each table memoises its subset entropies: a subset's
entropy is computed by one pass over the rows the first time it is asked
for and looked up on every later request.  The memo lives and dies with
its table and plays no part in equality, hashing or ``repr``.

File formats
------------
CSV:  header ``p,<v1>,<v2>,...``; one row per outcome; ``p`` is a decimal
      or a fraction ``a/b``; values are non-negative symbol indices;
      ``#`` starts a comment line.
JSON: ``{"variables": [...], "outcomes": [{"p": 0.25, "values": [0,0,0]},
      ...]}``.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import (
    DuplicateOutcome,
    GateSpecError,
    MalformedRow,
    NegativeProbability,
    TotalMassInvalid,
    VariableSetError,
)

#: Default tolerance, in bits, for equality and non-negativity assertions
#: and for classifying a conditional entropy or a mutual information as
#: exactly zero (deterministic / independent).  It is the only tolerance.
DEFAULT_EPS = 1e-9

Outcome = tuple[int, ...]
VarSet = frozenset[int]


# ---------------------------------------------------------------------------
# ProbTable
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbTable:
    """An immutable joint pmf over named discrete variables.

    ``rows`` is sorted by outcome, contains no zero-probability entries,
    and sums to 1 (the constructor rescales mass drift within tolerance).
    Build instances through :meth:`from_pmf` or :func:`load_table`.
    """

    variables: tuple[str, ...]
    cards: tuple[int, ...]
    rows: tuple[tuple[Outcome, float], ...]

    def __post_init__(self) -> None:
        # Subset entropies by selection (a frozenset); filled by entropy().
        object.__setattr__(self, "_entropies", {})

    @property
    def n(self) -> int:
        return len(self.variables)

    def pmf(self) -> dict[Outcome, float]:
        """The pmf as a dict keyed by outcome tuple."""
        return dict(self.rows)

    @classmethod
    def from_pmf(
        cls,
        variables: Sequence[str],
        pmf: Mapping[Outcome, float] | Iterable[tuple[Outcome, float]],
        cards: Sequence[int] | None = None,
        *,
        eps: float = DEFAULT_EPS,
    ) -> "ProbTable":
        """Validate, normalize and freeze a pmf.

        Raises the table-contract errors: :class:`MalformedRow`,
        :class:`DuplicateOutcome`, :class:`NegativeProbability`,
        :class:`TotalMassInvalid`.
        """
        names = tuple(str(v) for v in variables)
        if not names or len(set(names)) != len(names) or any(not v for v in names):
            raise MalformedRow(f"variable names must be non-empty and unique: {names!r}")
        items = list(pmf.items()) if isinstance(pmf, Mapping) else list(pmf)
        seen: dict[Outcome, float] = {}
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
            cards_t = tuple(int(c) for c in cards)
            if len(cards_t) != len(names) or any(c < 1 for c in cards_t):
                raise MalformedRow(f"bad cardinalities {cards_t!r}")
            for o in kept:
                if any(v >= c for v, c in zip(o, cards_t)):
                    raise MalformedRow(f"outcome {o!r} exceeds cardinalities {cards_t!r}")
        return cls(names, cards_t, tuple(sorted(kept.items())))


# ---------------------------------------------------------------------------
# Parsing and emission
# ---------------------------------------------------------------------------


def _parse_prob(token: str | float) -> float:
    """A probability from text (decimal or ``a/b``) or from a JSON number."""
    if isinstance(token, bool) or not isinstance(token, (str, int, float)):
        raise MalformedRow(f"probability must be a number or a string, got {token!r}")
    try:
        return float(Fraction(token.strip()) if isinstance(token, str) else token)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise MalformedRow(f"cannot parse probability {token!r}") from exc


def _load_csv(text: str, eps: float) -> ProbTable:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise MalformedRow("empty table")
    header = [tok.strip() for tok in lines[0].split(",")]
    if len(header) < 2 or header[0] != "p":
        raise MalformedRow(f"header must be 'p,<v1>,...': {lines[0]!r}")
    names = header[1:]
    pmf: list[tuple[Outcome, float]] = []
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
    return ProbTable.from_pmf(names, pmf, eps=eps)


def _load_json(text: str, eps: float) -> ProbTable:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedRow(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "variables" not in obj or "outcomes" not in obj:
        raise MalformedRow("JSON table needs 'variables' and 'outcomes' keys")
    names = obj["variables"]
    if not isinstance(names, list) or not isinstance(obj["outcomes"], list):
        raise MalformedRow("'variables' and 'outcomes' must be lists")
    pmf: list[tuple[Outcome, float]] = []
    for entry in obj["outcomes"]:
        if not isinstance(entry, dict) or "p" not in entry or "values" not in entry:
            raise MalformedRow(f"bad outcome entry {entry!r}")
        values = entry["values"]
        if not isinstance(values, list) or not all(isinstance(v, int) for v in values):
            raise MalformedRow(f"bad outcome values {values!r}")
        pmf.append((tuple(values), _parse_prob(entry["p"])))
    return ProbTable.from_pmf([str(v) for v in names], pmf, eps=eps)


def load_table(text: str, *, eps: float = DEFAULT_EPS) -> ProbTable:
    """Parse a distribution from CSV or JSON text (format is sniffed)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _load_json(text, eps)
    return _load_csv(text, eps)


def dump_csv(table: ProbTable) -> str:
    """Emit the CSV form.  Probabilities use shortest round-trip floats."""
    out = ["p," + ",".join(table.variables)]
    for outcome, p in table.rows:
        out.append(repr(p) + "," + ",".join(str(v) for v in outcome))
    return "\n".join(out) + "\n"


def dump_json(table: ProbTable) -> str:
    """Emit the JSON form.  Key order and row order are deterministic."""
    obj = {
        "variables": list(table.variables),
        "outcomes": [{"p": p, "values": list(o)} for o, p in table.rows],
    }
    return json.dumps(obj)


# ---------------------------------------------------------------------------
# Variable selections
# ---------------------------------------------------------------------------


def _varset(table: ProbTable, s: Iterable[int], *, allow_empty: bool = False) -> VarSet:
    idx = frozenset(int(i) for i in s)
    if not idx:
        if allow_empty:
            return idx
        raise VariableSetError("empty variable selection")
    if min(idx) < 0 or max(idx) >= table.n:
        raise VariableSetError(
            f"selection {tuple(sorted(idx))!r} out of range for {table.n} variables"
        )
    return idx


def _marginal(table: ProbTable, idx: tuple[int, ...]) -> dict[Outcome, float]:
    # idx is sorted and may be empty; the marginal is then the trivial pmf on ().
    acc: dict[Outcome, float] = {}
    for outcome, p in table.rows:
        key = tuple(outcome[i] for i in idx)
        acc[key] = acc.get(key, 0.0) + p
    return acc


def marginalize(table: ProbTable, s: Iterable[int]) -> ProbTable:
    """Project the pmf onto the (non-empty) selection ``s``."""
    idx = tuple(sorted(_varset(table, s)))
    pmf = _marginal(table, idx)
    return ProbTable.from_pmf(
        [table.variables[i] for i in idx], pmf, [table.cards[i] for i in idx]
    )


# ---------------------------------------------------------------------------
# Entropy-derived quantities
# ---------------------------------------------------------------------------


def entropy(table: ProbTable, s: Iterable[int]) -> float:
    """Joint Shannon entropy of the selection, in bits.

    An empty selection has entropy 0 by the ``0 log 0`` convention.
    """
    key = frozenset(s)
    memo = table._entropies
    h = memo.get(key)
    if h is None:
        idx = _varset(table, key, allow_empty=True)
        marginal = _marginal(table, tuple(sorted(idx)))
        h = memo[idx] = -math.fsum(p * math.log2(p) for p in marginal.values() if p > 0.0)
    return h


def mutual_information(table: ProbTable, a: Iterable[int], b: Iterable[int]) -> float:
    """I(a;b) = H(a) + H(b) - H(a u b).  Overlapping selections are fine."""
    sa = _varset(table, a)
    sb = _varset(table, b)
    return entropy(table, sa) + entropy(table, sb) - entropy(table, sa | sb)


def conditional_mi(
    table: ProbTable, a: Iterable[int], b: Iterable[int], c: Iterable[int]
) -> float:
    """I(a;b|c); an empty ``c`` degenerates to plain mutual information."""
    sa = _varset(table, a)
    sb = _varset(table, b)
    sc = _varset(table, c, allow_empty=True)
    ac = sa | sc
    bc = sb | sc
    abc = ac | sb
    return entropy(table, ac) + entropy(table, bc) - entropy(table, abc) - entropy(table, sc)


def interaction_information(table: ProbTable, groups: Sequence[Iterable[int]]) -> float:
    """Alternating-sum interaction information of order ``len(groups)``.

    ``I_m = sum_k (-1)^(k-1) sum over k-subsets of H(union of the chosen
    groups)``.  ``I_1`` is the entropy and ``I_2`` the mutual information;
    ``I_3`` is the co-information, which may be negative.
    """
    sets = [_varset(table, g) for g in groups]
    if not sets:
        raise VariableSetError("interaction information needs at least one group")
    total = 0.0
    for k in range(1, len(sets) + 1):
        sign = 1.0 if k % 2 == 1 else -1.0
        for chosen in combinations(sets, k):
            union: frozenset[int] = frozenset()
            for s in chosen:
                union |= s
            total += sign * entropy(table, union)
    return total


def is_deterministic_function(
    table: ProbTable,
    a: Iterable[int],
    b: Iterable[int],
    *,
    eps: float = DEFAULT_EPS,
) -> bool:
    """True iff ``a`` is a deterministic function of ``b``: H(a|b) <= eps."""
    sa = _varset(table, a)
    sb = _varset(table, b)
    return entropy(table, sa | sb) - entropy(table, sb) <= eps


def is_independent(
    table: ProbTable,
    a: Iterable[int],
    b: Iterable[int],
    *,
    eps: float = DEFAULT_EPS,
) -> bool:
    """True iff the disjoint selections carry no mutual information."""
    sa = _varset(table, a)
    sb = _varset(table, b)
    if sa & sb:
        raise VariableSetError(
            f"selections {tuple(sorted(sa))!r} and {tuple(sorted(sb))!r} overlap"
        )
    return mutual_information(table, sa, sb) <= eps


# ---------------------------------------------------------------------------
# Gate generators
# ---------------------------------------------------------------------------


def xor_gate() -> ProbTable:
    """Three pairwise independent fair bits with an even-parity constraint."""
    quarter = 0.25
    pmf = {(0, 0, 0): quarter, (0, 1, 1): quarter, (1, 0, 1): quarter, (1, 1, 0): quarter}
    return ProbTable.from_pmf(("O1", "O2", "O3"), pmf, (2, 2, 2))


def parity_gate(n: int) -> ProbTable:
    """Uniform distribution on the even-parity n-bit strings, n >= 2."""
    if not isinstance(n, int) or n < 2:
        raise GateSpecError(f"parity needs an integer n >= 2, got {n!r}")
    if n > 20:
        raise GateSpecError(f"parity({n}) table would have 2^{n - 1} rows")
    p = 2.0 ** (1 - n)
    pmf = {}
    for code in range(2**n):
        bits = tuple((code >> (n - 1 - i)) & 1 for i in range(n))
        if sum(bits) % 2 == 0:
            pmf[bits] = p
    return ProbTable.from_pmf(tuple(f"X{i}" for i in range(1, n + 1)), pmf, (2,) * n)


def and_gate() -> ProbTable:
    """Two independent fair bits and their logical AND."""
    quarter = 0.25
    pmf = {(0, 0, 0): quarter, (0, 1, 0): quarter, (1, 0, 0): quarter, (1, 1, 1): quarter}
    return ProbTable.from_pmf(("X1", "X2", "X3"), pmf, (2, 2, 2))


def copy_gate() -> ProbTable:
    """One fair bit copied into three variables."""
    pmf = {(0, 0, 0): 0.5, (1, 1, 1): 0.5}
    return ProbTable.from_pmf(("X1", "X2", "X3"), pmf, (2, 2, 2))


def two_coins_copy_gate() -> ProbTable:
    """Two independent fair bits plus a third variable equal to the pair."""
    quarter = 0.25
    pmf = {(0, 0, 0): quarter, (0, 1, 1): quarter, (1, 0, 2): quarter, (1, 1, 3): quarter}
    return ProbTable.from_pmf(("X1", "X2", "X3"), pmf, (2, 2, 4))


def random_table(seed: int | str, cards: Sequence[int]) -> ProbTable:
    """A pmf drawn uniformly from the probability simplex, fixed by seed.

    Sampling uses normalized exponentials from ``random.Random(seed)``,
    whose ``random()`` stream is stable across Python releases for a given
    seed, so results are reproducible byte for byte.
    """
    cards_t = tuple(int(c) for c in cards)
    if not cards_t or any(c < 2 for c in cards_t):
        raise GateSpecError(f"cardinalities must all be >= 2, got {cards_t!r}")
    size = 1
    for c in cards_t:
        size *= c
    if size > 1 << 20:
        raise GateSpecError(f"cardinalities {cards_t!r} give an oversized table")
    rng = random.Random(seed)
    weights = [-math.log(1.0 - rng.random()) for _ in range(size)]
    total = math.fsum(weights)
    pmf = {}
    outcome = [0] * len(cards_t)
    for flat in range(size):
        rem = flat
        for i in range(len(cards_t) - 1, -1, -1):
            outcome[i] = rem % cards_t[i]
            rem //= cards_t[i]
        pmf[tuple(outcome)] = weights[flat] / total
    names = tuple(f"X{i}" for i in range(1, len(cards_t) + 1))
    return ProbTable.from_pmf(names, pmf, cards_t)


_PARITY_RE = re.compile(r"^parity\((\d+)\)$")
_RANDOM_RE = re.compile(r"^random\((-?\d+)\s*,\s*\[([\d,\s]+)\]\)$")


def gen_gate(spec: str) -> ProbTable:
    """Build a canonical gate distribution from its textual name.

    Accepted specs: ``xor``, ``and``, ``copy``, ``two-coins-copy``,
    ``parity(N)`` and ``random(SEED,[c1,c2,...])``.
    """
    spec = spec.strip()
    fixed = {
        "xor": xor_gate,
        "and": and_gate,
        "copy": copy_gate,
        "two-coins-copy": two_coins_copy_gate,
    }
    if spec in fixed:
        return fixed[spec]()
    m = _PARITY_RE.match(spec)
    if m:
        return parity_gate(int(m.group(1)))
    m = _RANDOM_RE.match(spec)
    if m:
        cards = [int(tok) for tok in m.group(2).split(",") if tok.strip()]
        return random_table(int(m.group(1)), cards)
    raise GateSpecError(f"unknown gate spec {spec!r}")


# ---------------------------------------------------------------------------
# Joint extension
# ---------------------------------------------------------------------------


def _joint_name(variables: Sequence[str]) -> str:
    pattern = re.compile(r"^(.*?)(\d+)$")
    matches = [pattern.match(v) for v in variables]
    if all(matches) and len({m.group(1) for m in matches}) == 1:
        numbers = [int(m.group(2)) for m in matches]
        if numbers == list(range(1, len(variables) + 1)):
            return f"{matches[0].group(1)}{len(variables) + 1}"
    name = "joint"
    while name in variables:
        name += "_"
    return name


def extend_with_joint(table: ProbTable, name: str | None = None) -> ProbTable:
    """Append a variable equal to the joint outcome of all existing ones.

    The new variable's symbol is the mixed-radix code of the outcome tuple
    (last variable least significant), so its cardinality is the product
    of the originals.
    """
    new_name = name if name is not None else _joint_name(table.variables)
    if new_name in table.variables:
        raise VariableSetError(f"variable name {new_name!r} already in use")
    strides = [1] * table.n
    for i in range(table.n - 2, -1, -1):
        strides[i] = strides[i + 1] * table.cards[i + 1]
    pmf = {}
    for outcome, p in table.rows:
        code = sum(v * strides[i] for i, v in enumerate(outcome))
        pmf[outcome + (code,)] = p
    total_card = strides[0] * table.cards[0]
    return ProbTable.from_pmf(
        table.variables + (new_name,), pmf, table.cards + (total_card,)
    )
