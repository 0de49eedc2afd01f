"""Discrete joint distributions and entropy-derived quantities.

A :class:`ProbTable` is an immutable, normalized probability mass function
over named discrete variables.  All quantities are reported in bits
(logarithm base 2) with the convention ``0 * log2(0) = 0``; rows with
probability exactly zero are dropped at construction time.

Variable selections ("varsets") are iterables of 0-based positions into
``table.variables``.  Text interfaces (CSV headers, CLI flags, antichain
syntax) are 1-based; the conversion happens at those boundaries only.
Each function turns a selection into its subset mask (bit ``i`` for
position ``i``) where it enters.  The first time the process sees a
selection, its elements are checked and its mask is recorded in
``_SELECTION_MASKS``.  From then on the mask is the proof that the
selection is valid: any table accepts it with one range test,
``mask >> table.n == 0``, and takes its positions from the mask, never
from the caller's set, which may hold ``1.0`` or ``True`` for ``1``.

Every quantity below is a signed sum of subset entropies, the entropy of
a union of selections being that of the OR of their masks.  Tables are
immutable, so each table memoises its subset entropies, one entry per
subset mask, and :func:`_mask_entropy` is the one reader and writer of
that memo: a subset's entropy is computed by one marginal pass the first
time it is asked for and looked up on every later request.  A 3-variable
table is the exception: every 3-variable caller reads all seven of its
subsets, so its first miss sums all seven marginals in one pass over the
rows.  A pass keys the rows with one :func:`operator.itemgetter` (the
3-variable pass unpacks each outcome instead) and sums their masses per
key in row order; the selection of every variable is the pmf itself,
``dict(rows)``, with nothing to sum, and that of none is one outcome of
mass 1 exactly, so its entropy is 0 on every table.  Each quantity takes
its selections' masks once and does its arithmetic on masks, reading
every entropy through :func:`_mask_entropy`, as the solver layers do.
A table also keeps the decisions of :mod:`infatom.terms`' reduction
rules.  Both memos live and die with their table and play no part in
equality, hashing or ``repr``.

File formats
------------
CSV:  header ``p,<v1>,<v2>,...``; one row per outcome; ``p`` is a decimal
      or a fraction ``a/b``, read as the nearest float; values are
      non-negative symbol indices; ``#`` starts a comment line.  Tables
      are checked in bulk, a whole column at a time, and an error names
      the first offending row, as a row-by-row check would.
      :func:`dump_csv` refuses a variable name that CSV cannot carry back.
JSON: ``{"variables": [...], "outcomes": [{"p": 0.25, "values": [0,0,0]},
      ...]}``.
"""

from __future__ import annotations

import math
import random
import re
from functools import lru_cache, reduce
from itertools import chain, combinations, compress, filterfalse, product, repeat, starmap
from operator import ge, itemgetter, methodcaller, mul, neg, or_, truediv
from typing import Iterable, Mapping, Sequence

from .errors import (
    DuplicateOutcome,
    GateSpecError,
    MalformedRow,
    NegativeProbability,
    TotalMassInvalid,
    VariableSetError,
    _Record,
    _integer,
)

#: Default tolerance, in bits, for equality and non-negativity assertions
#: and for classifying a conditional entropy or a mutual information as
#: exactly zero (deterministic / independent).  It is the only tolerance
#: callers set; ``decomp._ZERO_SNAP`` (1e-12) snaps smaller positive atom sizes to 0.
DEFAULT_EPS = 1e-9

Outcome = tuple[int, ...]
VarSet = frozenset[int]


# ---------------------------------------------------------------------------
# ProbTable
# ---------------------------------------------------------------------------


class ProbTable(_Record):
    """An immutable joint pmf over named discrete variables.

    ``rows`` is sorted by outcome, contains no zero-probability entries,
    and sums to 1 (the constructor rescales mass drift within tolerance).
    Build instances through :meth:`from_pmf` or :func:`load_table`.
    """

    def __init__(self, variables: tuple[str, ...], cards: tuple[int, ...],
                 rows: tuple[tuple[Outcome, float], ...]) -> None:
        # _entropies: subset entropies by subset mask (an int), read and
        # filled by _mask_entropy() only; _decisions: reduction-rule
        # decisions by eps, then by bracket-mask pair, filled by
        # terms.reduce_antichain().
        # n: the number of variables, stored rather than a property, as the
        # reduction rules read it on every call.
        self.__dict__.update(variables=variables, cards=cards, rows=rows, n=len(variables),
                             _key=(variables, cards, rows), _entropies={}, _decisions={})

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

        The rows are checked a column at a time; if a check fails, a scan
        raises for the first offending row.  Raises the table-contract
        errors: :class:`MalformedRow`, :class:`DuplicateOutcome`,
        :class:`NegativeProbability`, :class:`TotalMassInvalid`.
        """
        names = _names(variables)
        n = len(names)
        items = list(pmf.items()) if isinstance(pmf, Mapping) else list(pmf)
        cols = _columns(items, n)
        if cols is None:  # pairs that len() cannot size pass the scan
            cols = _columns(_checked_rows(items, n), n)
        return cls._from_columns(names, *cols, cards, eps)

    @classmethod
    def _from_columns(cls, names: tuple[str, ...], keys: list[Outcome], masses: list[float],
                      cards: Sequence[int] | None, eps: float) -> "ProbTable":
        """The column-wise core of :meth:`from_pmf`: ``names`` are checked,
        and ``keys`` are tuples of ``len(names)`` non-negative ints, with
        ``masses`` the float mass of each.  A negative mass or a repeated
        outcome makes the row scan raise for the first offending row; a
        sign is read as ``0.0 > p``, as ``min`` misses any after a NaN."""
        n = len(names)
        if any(map((0.0).__gt__, masses)) or len(set(keys)) != len(keys):
            _checked_rows(list(zip(keys, masses)), n)  # raises
        try:
            total = math.fsum(masses)
        except OverflowError:  # finite masses whose sum is not
            total = math.inf
        if not (1.0 - eps <= total <= 1.0 + eps):
            raise TotalMassInvalid(f"total mass {total!r} outside [1-eps, 1+eps]")
        if 0.0 in masses:
            keys = list(compress(keys, masses))
            masses = list(filter(None, masses))
        highs = tuple(map(max, zip(*keys))) if keys else (0,) * n
        if cards is None:
            cards_t = tuple(v + 1 for v in highs)
        else:
            cards_t = tuple(map(_integer, cards))
            if None in cards_t:
                raise MalformedRow(f"cardinalities must be integers, got {cards!r}")
            if len(cards_t) != n or min(cards_t) < 1:
                raise MalformedRow(f"bad cardinalities {cards_t!r}")
            if any(map(ge, highs, cards_t)):
                o = next(o for o in keys if any(map(ge, o, cards_t)))
                raise MalformedRow(f"outcome {o!r} exceeds cardinalities {cards_t!r}")
        return cls(names, cards_t, tuple(sorted(zip(keys, map(truediv, masses, repeat(total))))))


def _names(variables: Sequence[str]) -> tuple[str, ...]:
    """The variable names, checked to be strings, non-empty and unique."""
    names = tuple(variables)
    if not all(isinstance(v, str) for v in names):
        raise MalformedRow("variable names must be strings")
    if not names or len(set(names)) != len(names) or "" in names:
        raise MalformedRow(f"variable names must be non-empty and unique: {names!r}")
    return names


def _columns(items: list, n: int) -> tuple[list[Outcome], list[float]] | None:
    """The outcomes and float masses of ``(outcome, p)`` pairs, or None if
    an outcome fails a row check.  Each check covers a whole column; the
    masses' signs and repeated outcomes are left to
    :meth:`ProbTable._from_columns`."""
    if not items:
        return [], []
    try:
        if set(map(len, items)) != {2}:
            return None
        outcomes, ps = zip(*items)
        keys = list(map(tuple, outcomes))
        masses = list(map(float, ps))
        flat = list(chain.from_iterable(keys))
        types = set(map(type, flat))
        if (set(map(len, keys)) != {n} or bool in types
                or not all(map(issubclass, types, repeat(int))) or min(flat) < 0):
            return None
    except (TypeError, ValueError, OverflowError):  # the scan names the row
        return None
    return keys, masses


def _checked_rows(items: list, n: int) -> list[tuple[Outcome, float]]:
    """Check ``items`` row by row and raise for the first offending row;
    the rows as pairs if none offends."""
    seen: set[Outcome] = set()
    rows = []
    for outcome, p in items:
        key = tuple(outcome)
        if len(key) != n or not all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in key
        ):
            raise MalformedRow(f"bad outcome {outcome!r} for {n} variables")
        p = float(p)
        if p < 0.0:
            raise NegativeProbability(f"P{key!r} = {p}")
        if key in seen:
            raise DuplicateOutcome(f"outcome {key!r} listed twice")
        seen.add(key)
        rows.append((key, p))
    return rows


# ---------------------------------------------------------------------------
# Parsing and emission
# ---------------------------------------------------------------------------


def _parse_prob(token: str | float) -> float:
    """A probability from text (decimal or ``a/b``) or from a JSON number.

    Either text form is read as the nearest float: ``float`` reads a
    decimal correctly rounded, as ``Fraction`` then ``float`` would, and
    only the ``a/b`` form (which ``float`` rejects) goes through
    ``Fraction``.  A non-finite value is not a probability."""
    if isinstance(token, bool) or not isinstance(token, (str, int, float)):
        raise MalformedRow(f"probability must be a number or a string, got {token!r}")
    try:
        try:
            p = float(token)
        except ValueError:  # text only: an int or a float never raises it
            from fractions import Fraction

            p = float(Fraction(token.strip()))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise MalformedRow(f"cannot parse probability {token!r}") from exc
    if not math.isfinite(p):
        raise MalformedRow(f"cannot parse probability {token!r}")
    return p


def _load_csv(text: str, eps: float) -> ProbTable:
    lines = [*filterfalse(methodcaller("startswith", "#"),
                          filter(None, map(str.strip, text.splitlines())))]
    if not lines:
        raise MalformedRow("empty table")
    header = [tok.strip() for tok in lines[0].split(",")]
    if len(header) < 2 or header[0] != "p":
        raise MalformedRow(f"header must be 'p,<v1>,...': {lines[0]!r}")
    body = lines[1:]
    cols = _csv_columns(body, len(header))
    if cols is None:
        _raise_first_bad_line(body, len(header))
    return ProbTable._from_columns(_names(header[1:]), *cols, None, eps)


def _csv_columns(body: list[str], k: int) -> tuple[list[Outcome], list[float]] | None:
    """The outcomes and masses of CSV rows of ``k`` fields, or None if a
    row is malformed.  The rows are split as one text and read a column
    at a time, each distinct symbol field once."""
    if not set(map(str.count, body, repeat(","))) <= {k - 1}:
        return None
    fields = ",".join(body).split(",") if body else []
    probs = fields[::k]
    del fields[::k]  # the symbols, row after row
    try:
        try:
            masses = list(map(float, probs))
        except ValueError:  # ``a/b``, whitespace float() keeps, or malformed
            masses = list(map(_parse_prob, map(str.strip, probs)))
        values = {tok: int(tok.strip()) for tok in set(fields)}
    except ValueError:
        return None
    if not all(map(math.isfinite, masses)) or min(values.values(), default=0) < 0:
        return None
    return list(zip(*[iter(map(values.__getitem__, fields))] * (k - 1))), masses


def _raise_first_bad_line(body: list[str], k: int) -> None:
    """Check CSV rows one by one and raise for the first malformed one."""
    for ln in body:
        toks = [tok.strip() for tok in ln.split(",")]
        if len(toks) != k:
            raise MalformedRow(f"row {ln!r} has {len(toks)} fields, expected {k}")
        _parse_prob(toks[0])
        try:
            outcome = [int(tok) for tok in toks[1:]]
        except ValueError as exc:
            raise MalformedRow(f"bad symbol index in row {ln!r}") from exc
        if min(outcome) < 0:
            raise MalformedRow(f"negative symbol index in row {ln!r}")


def _load_json(text: str, eps: float) -> ProbTable:
    import json

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
    return ProbTable.from_pmf(names, pmf, eps=eps)


def load_table(text: str, *, eps: float = DEFAULT_EPS) -> ProbTable:
    """Parse a distribution from CSV or JSON text (format is sniffed)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _load_json(text, eps)
    return _load_csv(text, eps)


def dump_csv(table: ProbTable) -> str:
    """Emit the CSV form.  Probabilities use shortest round-trip floats.

    A variable name that CSV cannot carry back, one holding a comma or a
    line break or with whitespace around it, raises :class:`MalformedRow`."""
    for v in table.variables:
        if "," in v or v != v.strip() or len(v.splitlines()) != 1:
            raise MalformedRow(f"variable name {v!r} cannot be written to CSV")
    row = "%r" + ",%d" * table.n
    return "\n".join(["p," + ",".join(table.variables),
                      *[row % (p, *o) for o, p in table.rows]]) + "\n"


def dump_json(table: ProbTable) -> str:
    """Emit the JSON form.  Key order and row order are deterministic."""
    import json

    obj = {
        "variables": list(table.variables),
        "outcomes": [{"p": p, "values": list(o)} for o, p in table.rows],
    }
    return json.dumps(obj)


# ---------------------------------------------------------------------------
# Variable selections
# ---------------------------------------------------------------------------


def _selection_mask(table: ProbTable, s: Iterable[int], *, allow_empty: bool = False) -> int:
    """The subset mask of the selection ``s``, checked against ``table``
    once per process (see the module docstring).  Each element must equal
    its ``int``: ``1.0`` and ``True`` select position 1, while ``1.5``,
    ``"1"`` or ``None`` raise :class:`VariableSetError`.  A selection out
    of range for ``table`` is checked afresh, so it raises the text it
    would raise in a fresh process."""
    try:
        key = frozenset(s)
    except TypeError as exc:  # an unhashable element, or no iterable at all
        raise VariableSetError(f"bad variable selection: {exc}") from None
    mask = _SELECTION_MASKS.get(key)
    if mask is not None and not mask >> table.n and (mask or allow_empty):
        return mask
    try:
        idx = frozenset(map(int, key))
    except (TypeError, ValueError, OverflowError):
        idx = None
    if idx != key:
        raise VariableSetError(f"selection {tuple(key)!r} holds a non-integer position")
    if not idx and not allow_empty:
        raise VariableSetError("empty variable selection")
    if idx and (min(idx) < 0 or max(idx) >= table.n):
        raise VariableSetError(
            f"selection {tuple(sorted(idx))!r} out of range for {table.n} variables"
        )
    mask = _SELECTION_MASKS[idx] = sum(1 << i for i in idx)
    return mask


#: The subset mask of each selection :func:`_selection_mask` has checked,
#: keyed by its frozenset of int positions: at most one entry per subset of
#: the widest table's variables that is ever asked for, shared by every
#: table.
_SELECTION_MASKS: dict[VarSet, int] = {}


@lru_cache(maxsize=1 << 12)
def _mask_positions(mask: int) -> VarSet:
    """The 0-based positions of the bits set in a subset mask.

    One shared set per mask, so its hash is computed once."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _marginal(table: ProbTable, idx: tuple[int, ...]) -> dict[Outcome, float]:
    # idx is sorted and may be empty; the marginal is then the trivial pmf
    # on (), whose one mass is 1 exactly, not the rows' rounded sum.
    if not idx:
        return {(): 1.0}
    if len(idx) == len(table.variables):
        return dict(table.rows)
    # A run of consecutive positions is a slice, so every key is a tuple
    # whatever the length of idx.  One position is keyed by the symbol
    # itself, building no 1-tuple per row, and re-keyed after.
    if len(idx) == 1:
        key = itemgetter(idx[0])
    elif idx[-1] - idx[0] + 1 != len(idx):
        key = itemgetter(*idx)
    else:
        key = itemgetter(slice(idx[0], idx[-1] + 1))
    acc: dict[Outcome, float] = {}
    get = acc.get
    for outcome, p in table.rows:
        k = key(outcome)
        acc[k] = get(k, 0.0) + p
    return {(k,): p for k, p in acc.items()} if len(idx) == 1 else acc


def marginalize(table: ProbTable, s: Iterable[int]) -> ProbTable:
    """Project the pmf onto the (non-empty) selection ``s``."""
    idx = tuple(sorted(_mask_positions(_selection_mask(table, s))))
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
    return _mask_entropy(table, _selection_mask(table, s, allow_empty=True))


def _trivariate_marginals(table: ProbTable) -> list[dict]:
    """The marginals of a 3-variable table's subsets, indexed by mask - 1,
    from one pass over its rows.

    Each mass is summed per key in row order, as :func:`_marginal` sums
    it, and a one-variable marginal stays keyed by the bare symbol; the
    full selection is ``dict(rows)``, as there."""
    ma, mb, mab, mc, mac, mbc = {}, {}, {}, {}, {}, {}
    ga, gb, gab, gc, gac, gbc = ma.get, mb.get, mab.get, mc.get, mac.get, mbc.get
    for (a, b, c), p in table.rows:
        ma[a] = ga(a, 0.0) + p
        mb[b] = gb(b, 0.0) + p
        mc[c] = gc(c, 0.0) + p
        k = a, b
        mab[k] = gab(k, 0.0) + p
        k = a, c
        mac[k] = gac(k, 0.0) + p
        k = b, c
        mbc[k] = gbc(k, 0.0) + p
    return [ma, mb, mab, mc, mac, mbc, dict(table.rows)]


def _entropy_of(masses) -> float:
    """``-sum p log2 p`` over a marginal's masses, correctly rounded."""
    try:
        return -math.fsum(map(mul, masses, map(math.log2, masses)))
    except ValueError:
        # A zero mass: only a table built straight from the constructor
        # keeps a zero-mass row, and it has the entropies of the table
        # without that row.
        masses = [p for p in masses if p]
        return -math.fsum(map(mul, masses, map(math.log2, masses)))


def _mask_entropy(table: ProbTable, mask: int) -> float:
    """The entropy of the subset ``mask``: read from the table's memo, or
    computed and stored there on the first request.

    A miss costs one marginal pass, except on a 3-variable table, where
    one pass over the rows fills all seven non-empty subsets at once:
    every 3-variable caller (the trivariate solver, its interval and the
    inclusion-exclusion check) reads all seven."""
    memo = table._entropies
    h = memo.get(mask)
    if h is None:
        if mask and table.n == 3:
            hs = [_entropy_of(marginal.values()) for marginal in _trivariate_marginals(table)]
            memo.update(zip(range(1, 8), hs))
            return hs[mask - 1]
        idx = tuple(sorted(_mask_positions(mask)))
        h = memo[mask] = _entropy_of(_marginal(table, idx).values())
    return h


def _mask_mi(table: ProbTable, x: int, y: int) -> float:
    """I(x;y) = H(x) + H(y) - H(x | y) of two subset masks, summed in that
    order, so every caller gets the same bits."""
    return _mask_entropy(table, x) + _mask_entropy(table, y) - _mask_entropy(table, x | y)


def mutual_information(table: ProbTable, a: Iterable[int], b: Iterable[int]) -> float:
    """I(a;b) = H(a) + H(b) - H(a u b).  Overlapping selections are fine.

    :func:`_mask_mi` of the two masks, the union being ``mask(a) |
    mask(b)``; every cold R1 decision of :mod:`infatom.terms` comes
    here, and every two-bracket term size is the same sum."""
    return _mask_mi(table, _selection_mask(table, a), _selection_mask(table, b))


def conditional_mi(
    table: ProbTable, a: Iterable[int], b: Iterable[int], c: Iterable[int]
) -> float:
    """I(a;b|c); an empty ``c`` degenerates to plain mutual information."""
    ma = _selection_mask(table, a)
    mb = _selection_mask(table, b)
    mc = _selection_mask(table, c, allow_empty=True)
    return (_mask_entropy(table, ma | mc) + _mask_entropy(table, mb | mc)
            - _mask_entropy(table, ma | mb | mc) - _mask_entropy(table, mc))


def interaction_information(table: ProbTable, groups: Sequence[Iterable[int]]) -> float:
    """Alternating-sum interaction information of order ``len(groups)``.

    ``I_m = sum_k (-1)^(k-1) sum over k-subsets of H(union of the chosen
    groups)``.  ``I_1`` is the entropy and ``I_2`` the mutual information;
    ``I_3`` is the co-information, which may be negative.
    """
    masks = [_selection_mask(table, g) for g in groups]
    if not masks:
        raise VariableSetError("interaction information needs at least one group")
    total = 0.0
    for k in range(1, len(masks) + 1):
        sign = 1.0 if k % 2 == 1 else -1.0
        for chosen in combinations(masks, k):
            total += sign * _mask_entropy(table, reduce(or_, chosen))
    return total


def is_deterministic_function(
    table: ProbTable,
    a: Iterable[int],
    b: Iterable[int],
    *,
    eps: float = DEFAULT_EPS,
) -> bool:
    """True iff ``a`` is a deterministic function of ``b``: H(a|b) <= eps."""
    ma = _selection_mask(table, a)
    mb = _selection_mask(table, b)
    return _mask_entropy(table, ma | mb) - _mask_entropy(table, mb) <= eps


def is_independent(
    table: ProbTable,
    a: Iterable[int],
    b: Iterable[int],
    *,
    eps: float = DEFAULT_EPS,
) -> bool:
    """True iff the disjoint selections carry no mutual information."""
    ma = _selection_mask(table, a)
    mb = _selection_mask(table, b)
    if ma & mb:
        raise VariableSetError(f"selections {tuple(sorted(_mask_positions(ma)))!r} and "
                               f"{tuple(sorted(_mask_positions(mb)))!r} overlap")
    return _mask_mi(table, ma, mb) <= eps


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
    pmf = {bits: p for bits in product((0, 1), repeat=n) if sum(bits) % 2 == 0}
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
    cards_t = tuple(map(_integer, cards))
    if None in cards_t:
        raise GateSpecError(f"cardinalities must be integers, got {cards!r}")
    if not cards_t or any(c < 2 for c in cards_t):
        raise GateSpecError(f"cardinalities must all be >= 2, got {cards_t!r}")
    size = 1
    for c in cards_t:
        size *= c
    if size > 1 << 20:
        raise GateSpecError(f"cardinalities {cards_t!r} give an oversized table")
    rng = random.Random(seed)
    # weight k is -log(1 - u_k), the k-th draw of the stream.
    draws = starmap(rng.random, repeat((), size))
    weights = list(map(neg, map(math.log, map((1.0).__sub__, draws))))
    total = math.fsum(weights)
    # product() runs the last variable fastest: weight k goes to the k-th
    # outcome in mixed radix, last variable least significant.
    pmf = zip(product(*map(range, cards_t)), map(truediv, weights, repeat(total)))
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
        # int() takes the spaces around a field and refuses an empty or
        # a split one.
        try:
            cards = [int(tok) for tok in m.group(2).split(",")]
        except ValueError:
            raise GateSpecError(f"bad cardinality list in gate spec {spec!r}") from None
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
    pmf = {o + (sum(map(mul, o, strides)),): p for o, p in table.rows}
    return ProbTable.from_pmf(table.variables + (new_name,), pmf,
                              table.cards + (strides[0] * table.cards[0],))
