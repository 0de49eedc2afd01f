"""Information-atom decompositions with covering numbers.

A decomposition assigns every intersection-of-unions term a subset of
non-negative "atoms" through a 0/1 parthood table; each atom carries a
covering number saying how many times its information is counted across
the system's variables.  Two bookkeeping identities tie the solution to
the distribution: the conservation law ``sum H(X_k) = sum c_i * Pi_i``
and the total law ``H(all) = sum Pi_i``.

Parthood
--------
Every solver's table comes from one rule, applied to each term ``a``:

* a set-theoretic atom over index set T is part of ``a`` iff every
  bracket of ``a`` meets T (the distributive, Venn-diagram rule);
* the synergistic atom ``Pi_s`` is part of ``a`` iff ``a`` has one
  bracket, or two brackets that together use all n indices;
* the ghost atom ``Pi_g_k`` is part of ``a`` iff ``a`` is a single
  bracket B and ``k < min(|B|, n - 1)``.

The synergistic and ghost atoms are exactly where the Venn rule fails,
i.e. where distributivity fails: for n = 3, ``Pi_s`` lies in
``(X1 u X2) n X3`` but in neither ``X1 n X3`` nor ``X2 n X3``, and
``Pi_g`` lies in ``X1 u X2`` but in neither ``X1`` nor ``X2``.  Lifted
tables keep their pre-lift rows and are not rebuilt by the rule.

Solvers
-------
* :func:`solve_trivariate` decomposes any 3-variable system into nine
  atoms (redundancy, three pairwise, three per-variable, one synergistic
  and one ghost atom) given a redundancy value from the feasible
  interval; by default the minimal-synergy endpoint is used.
* :func:`solve_set_theoretic` inverts the subset-order sums of
  interaction informations; it succeeds exactly when all resulting atoms
  are non-negative (the distributive, fully Venn-like case).
* :func:`solve_n_parity` gives the closed-form solution for the n-bit
  even-parity system: one unit synergistic atom and n-2 unit ghosts.
* :func:`lift_decomposition` extends a solved system by the joint of all
  its variables; atoms keep their sizes and gain one covering each.

:func:`validate` checks any decomposition against a distribution and is
the acceptance gate for everything this module produces.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from itertools import combinations

from .dist import (
    DEFAULT_EPS,
    ProbTable,
    entropy,
    interaction_information,
    mutual_information,
    random_table,
)
from .errors import (
    DecompositionFormatError,
    GateSpecError,
    InfeasibleRedundancy,
    LabelError,
    LatticeRangeError,
    NegativeAtomSize,
    NotSetTheoretic,
    ValidationFailed,
    VariableSetError,
    WrongArity,
)
from .lattice import Antichain, enumerate_antichains, leq, lift_map, top
from .terms import _check_feasible, eval_term, reduce_antichain, redundancy_bounds


# ---------------------------------------------------------------------------
# Atom labels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomLabel:
    """Name of one atom: a singleton-bracket antichain, the synergistic
    atom ``Pi_s``, a ghost atom ``Pi_g`` / ``Pi_g_k``, or a free name."""

    kind: str  # "set" | "synergy" | "ghost" | "named"
    antichain: Antichain | None = None
    index: int = 0
    name: str = ""

    @classmethod
    def set_theoretic(cls, a: Antichain) -> "AtomLabel":
        if any(len(b) != 1 for b in a.brackets) or a.is_empty:
            raise LabelError(f"set-theoretic labels use singleton brackets: {a}")
        return cls("set", antichain=a)

    @classmethod
    def synergy(cls) -> "AtomLabel":
        return cls("synergy")

    @classmethod
    def ghost(cls, k: int = 1) -> "AtomLabel":
        if k < 1:
            raise LabelError(f"ghost index must be >= 1, got {k}")
        return cls("ghost", index=k)

    @classmethod
    def named(cls, name: str) -> "AtomLabel":
        if not name:
            raise LabelError("empty atom name")
        return cls("named", name=name)

    @property
    def text(self) -> str:
        if self.kind == "set":
            return str(self.antichain)
        if self.kind == "synergy":
            return "Pi_s"
        if self.kind == "ghost":
            return "Pi_g" if self.index == 1 else f"Pi_g_{self.index}"
        return self.name

    def __str__(self) -> str:
        return self.text


_GHOST_RE = re.compile(r"^Pi_g(?:_(\d+))?$")


def parse_label(text: str) -> AtomLabel:
    """Inverse of :attr:`AtomLabel.text`."""
    text = text.strip()
    if text == "Pi_s":
        return AtomLabel.synergy()
    m = _GHOST_RE.match(text)
    if m:
        return AtomLabel.ghost(int(m.group(1)) if m.group(1) else 1)
    if text.startswith("{"):
        return AtomLabel.set_theoretic(Antichain.parse(text))
    return AtomLabel.named(text)


# ---------------------------------------------------------------------------
# Atom sets, parthood tables, decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    label: AtomLabel
    size: float
    covering: int


@dataclass(frozen=True)
class AtomSet:
    """Atoms with sizes (bits) and covering numbers, in a fixed order."""

    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        labels = [a.label for a in self.atoms]
        if len(set(labels)) != len(labels):
            raise LabelError("duplicate atom labels")
        if any(a.covering < 1 for a in self.atoms):
            raise LabelError("coverings must be >= 1")
        object.__setattr__(self, "_by_label", {a.label: a for a in self.atoms})

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def labels(self) -> tuple[AtomLabel, ...]:
        return tuple(a.label for a in self.atoms)

    def size(self, label: AtomLabel) -> float:
        return self._by_label[label].size

    def covering(self, label: AtomLabel) -> int:
        return self._by_label[label].covering

    def total_size(self) -> float:
        return math.fsum(a.size for a in self.atoms)

    def weighted_size(self) -> float:
        return math.fsum(a.covering * a.size for a in self.atoms)


@dataclass(frozen=True)
class ParthoodTable:
    """0/1 matrix: which atoms (columns) compose which terms (rows)."""

    rows: tuple[Antichain, ...]
    cols: tuple[AtomLabel, ...]
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != len(self.rows) or any(
            len(r) != len(self.cols) for r in self.entries
        ):
            raise DecompositionFormatError("parthood table shape mismatch")
        if any(v not in (0, 1) for row in self.entries for v in row):
            raise DecompositionFormatError("parthood entries must be 0 or 1")
        object.__setattr__(self, "_row_index", {a: i for i, a in enumerate(self.rows)})

    def row(self, a: Antichain) -> tuple[int, ...]:
        return self.entries[self._row_index[a]]


#: Parthood tables already built, by ``(n, labels)``.  Each solver passes a
#: label tuple fixed by its arity, so about 14 keys ever occur.
_PARTHOOD_TABLES: dict[tuple[int, tuple[AtomLabel, ...]], ParthoodTable] = {}


def _parthood(n: int, labels: tuple[AtomLabel, ...]) -> ParthoodTable:
    """Parthood table of ``labels`` over every antichain on ``{1..n}``.

    Each table is built once and shared, as tables are frozen.  The lattice
    is fetched before the lookup, so every solve makes the same calls into
    :mod:`lattice` whether or not its table was built by an earlier one."""
    rows = enumerate_antichains(n).elements
    table = _PARTHOOD_TABLES.get((n, labels))
    if table is not None:
        return table
    # Built by the rule in the module docstring, one column at a time.
    brackets = [a.brackets for a in rows]
    columns = []
    for lab in labels:
        if lab.kind == "set":
            support = frozenset(lab.antichain.indices)
            col = [all(not support.isdisjoint(b) for b in bs) for bs in brackets]
        elif lab.kind == "synergy":
            col = [
                len(bs) == 1 or (len(bs) == 2 and len(bs[0]) + len(bs[1]) == n)
                for bs in brackets
            ]
        elif lab.kind == "ghost":
            k = lab.index
            col = [len(bs) == 1 and k < min(len(bs[0]), n - 1) for bs in brackets]
        else:
            raise LabelError(f"no parthood rule for named atom {lab.text!r}")
        columns.append([int(v) for v in col])
    table = _PARTHOOD_TABLES[n, labels] = ParthoodTable(rows, labels, tuple(zip(*columns)))
    return table


@dataclass(frozen=True)
class Decomposition:
    """A parthood table plus solved atom sizes and coverings.

    ``redundancy_param`` records the free triple-intersection value when
    one exists (trivariate and 3-variable distributive solutions).
    """

    n: int
    table: ParthoodTable
    atoms: AtomSet
    redundancy_param: float | None = None

    def atom_size(self, label: AtomLabel | str) -> float:
        return self.atoms.size(parse_label(label) if isinstance(label, str) else label)

    def atom_covering(self, label: AtomLabel | str) -> int:
        key = parse_label(label) if isinstance(label, str) else label
        return self.atoms.covering(key)

    def term_sum(self, a: Antichain) -> float:
        """Size the table assigns to the term labeled ``a``."""
        row = self.table.row(a)
        return math.fsum(
            atom.size for atom, flag in zip(self.atoms.atoms, row) if flag
        )


#: Positive sizes below this are floating-point noise and snap to zero.
#: Negative noise is clipped at the full eps, but snapping real positive
#: mass up to eps would shift the conservation and total sums past eps.
_ZERO_SNAP = 1e-12


def _clip(value: float, eps: float, what: str) -> float:
    if value < -eps:
        raise NegativeAtomSize(f"{what} = {value!r} is negative beyond eps")
    return 0.0 if value < _ZERO_SNAP else value


# ---------------------------------------------------------------------------
# General trivariate solution
# ---------------------------------------------------------------------------


def feasible_interval(table: ProbTable) -> tuple[float, float]:
    """Feasible range of the trivariate redundancy parameter.

    ``(max(0, I_3), min pairwise mutual information)``; never empty.
    """
    return redundancy_bounds(table)


def _trivariate_sizes(table: ProbTable, r: float, eps: float) -> list[tuple[str, float, int]]:
    h1 = entropy(table, [0])
    h2 = entropy(table, [1])
    h3 = entropy(table, [2])
    h12 = entropy(table, [0, 1])
    h13 = entropy(table, [0, 2])
    h23 = entropy(table, [1, 2])
    h123 = entropy(table, [0, 1, 2])
    i12 = h1 + h2 - h12
    i13 = h1 + h3 - h13
    i23 = h2 + h3 - h23
    i3 = i12 - (h13 + h23 - h123 - h3)  # I_3 = I(1;2) - I(1;2|3)
    synergy = r - i3
    return [
        ("{1}{2}{3}", _clip(r, eps, "redundancy"), 3),
        ("Pi_s", _clip(synergy, eps, "Pi_s"), 2),
        ("{1}{2}", _clip(i12 - r, eps, "{1}{2}"), 2),
        ("{1}{3}", _clip(i13 - r, eps, "{1}{3}"), 2),
        ("{2}{3}", _clip(i23 - r, eps, "{2}{3}"), 2),
        ("{1}", _clip(h123 - h23, eps, "{1}"), 1),
        ("{2}", _clip(h123 - h13, eps, "{2}"), 1),
        ("{3}", _clip(h123 - h12, eps, "{3}"), 1),
        ("Pi_g", _clip(synergy, eps, "Pi_g"), 1),
    ]


def solve_trivariate(
    table: ProbTable, r: float | None = None, *, eps: float = DEFAULT_EPS
) -> Decomposition:
    """Decompose a 3-variable system into nine non-negative atoms.

    ``r`` is the size assigned to the triple intersection (covering 3)
    and must lie in :func:`feasible_interval`; the default is the lower
    endpoint, the minimal-synergy convention.  The synergistic and ghost
    atoms both measure ``r - I_3``; pairwise atoms are ``I(Xi;Xj) - r``;
    per-variable atoms are the conditional entropies given the rest.
    """
    if table.n != 3:
        raise WrongArity(f"expected 3 variables, got {table.n}")
    lo, hi = feasible_interval(table)
    if r is None:
        r = lo
    _check_feasible(r, lo, hi, eps)
    sizes = _trivariate_sizes(table, r, eps)
    atoms = AtomSet(tuple(Atom(parse_label(t), s, c) for t, s, c in sizes))
    return Decomposition(3, _parthood(3, atoms.labels()), atoms, r)


@dataclass(frozen=True)
class PidView:
    """Redundancy / unique / synergy split of what two sources say about
    a target, read off a trivariate decomposition."""

    redundancy: float
    unique_a: float
    unique_b: float
    synergy: float
    sources: tuple[int, int]
    target: int


def pid_view(decomp: Decomposition, target: int) -> PidView:
    """Source decomposition of ``I(sources; target)`` for a 3-variable
    solution; ``target`` is 1-based."""
    if decomp.n != 3:
        raise WrongArity(f"expected a trivariate decomposition, got n = {decomp.n}")
    if target not in (1, 2, 3):
        raise VariableSetError(f"target must be 1, 2 or 3, got {target!r}")
    a, b = sorted({1, 2, 3} - {target})
    return PidView(
        redundancy=decomp.atom_size("{1}{2}{3}"),
        unique_a=decomp.atom_size(str(Antichain.of([a], [target]))),
        unique_b=decomp.atom_size(str(Antichain.of([b], [target]))),
        synergy=decomp.atom_size("Pi_s"),
        sources=(a, b),
        target=target,
    )


# ---------------------------------------------------------------------------
# Distributive (set-theoretic) solution via subset-order inversion
# ---------------------------------------------------------------------------

#: Arity cap for the distributive solver: interaction informations are
#: summed over all supersets of every index set.
MAX_SET_THEORETIC = 5


def _mobius_atoms(table: ProbTable) -> dict[tuple[int, ...], float]:
    """Atom size for every non-empty 1-based index set, by inversion of
    the superset sums of interaction informations."""
    n = table.n
    idx = list(range(n))
    inter: dict[tuple[int, ...], float] = {}
    for m in range(1, n + 1):
        for subset in combinations(idx, m):
            inter[subset] = interaction_information(table, [[i] for i in subset])
    atoms: dict[tuple[int, ...], float] = {}
    for m in range(1, n + 1):
        for base in combinations(idx, m):
            acc = 0.0
            rest = [i for i in idx if i not in base]
            for extra in range(0, len(rest) + 1):
                sign = 1.0 if extra % 2 == 0 else -1.0
                for added in combinations(rest, extra):
                    key = tuple(sorted(base + added))
                    acc += sign * inter[key]
            atoms[tuple(i + 1 for i in base)] = acc
    return atoms


def solve_set_theoretic(table: ProbTable, *, eps: float = DEFAULT_EPS) -> Decomposition:
    """Solve a distributive system: atoms on singleton-bracket antichains.

    The atom over index set T has covering |T| and size given by the
    alternating superset sum of interaction informations.  Raises
    :class:`NotSetTheoretic` listing every negative atom when the system
    is not distributive (such systems carry synergy instead).
    """
    n = table.n
    if n < 1 or n > MAX_SET_THEORETIC:
        raise WrongArity(f"distributive solver supports 1..{MAX_SET_THEORETIC} variables")
    raw = _mobius_atoms(table)
    order = sorted(raw, key=lambda t: (-len(t), t))
    negatives = [
        (str(Antichain.of(*[[i] for i in t])), v) for t, v in raw.items() if v < -eps
    ]
    if negatives:
        raise NotSetTheoretic(sorted(negatives))
    atoms = []
    for t in order:
        label = AtomLabel.set_theoretic(Antichain.of(*[[i] for i in t]))
        atoms.append(Atom(label, _clip(raw[t], eps, label.text), len(t)))
    atom_set = AtomSet(tuple(atoms))
    r = raw[tuple(range(1, n + 1))] if n == 3 else None
    return Decomposition(n, _parthood(n, atom_set.labels()), atom_set, r)


# ---------------------------------------------------------------------------
# n-parity closed form
# ---------------------------------------------------------------------------


def solve_n_parity(n: int) -> Decomposition:
    """Closed-form decomposition of the n-bit even-parity system, n in 3..8.

    One unit synergistic atom covered twice and ``n - 2`` unit ghost
    atoms covered once, so a term over a single bracket of k indices has
    size ``min(k, n-1)``, a term over two complementary brackets has size
    1, and every other term is empty.
    """
    if not isinstance(n, int) or not 3 <= n <= 8:
        raise LatticeRangeError(f"n-parity solver supports n in [3, 8], got {n!r}")
    labels = [AtomLabel.synergy()] + [AtomLabel.ghost(k) for k in range(1, n - 1)]
    atoms = AtomSet(
        tuple(
            Atom(lab, 1.0, 2 if lab.kind == "synergy" else 1) for lab in labels
        )
    )
    return Decomposition(n, _parthood(n, atoms.labels()), atoms, None)


# ---------------------------------------------------------------------------
# Symmetric parity-gate uniqueness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XorUniqueness:
    """Closed-form solution of the symmetric 3-bit parity ansatz.

    Unknowns: ``x`` the synergistic atom and ``y`` the per-pair atoms.
    The per-variable atoms measure ``1 - 2y - x`` and the ghost atom
    ``2x + 3y - 1``; the conservation law forces ``2x + 3y = 2``, which
    turns the per-variable size into ``-y/2``, so non-negativity pins
    ``y = 0`` and ``x = 1``.
    """

    x: float
    y: float
    pi_variable: float
    pi_ghost: float
    conservation: float


def verify_xor_uniqueness() -> XorUniqueness:
    """Solve the symmetric ansatz; the unique solution is x = 1, y = 0."""
    y = 0.0  # pi_variable = 1 - 2y - x = -y/2 >= 0 and y >= 0 force y = 0
    x = (2.0 - 3.0 * y) / 2.0
    return XorUniqueness(
        x=x,
        y=y,
        pi_variable=1.0 - 2.0 * y - x,
        pi_ghost=2.0 * x + 3.0 * y - 1.0,
        conservation=2.0 * x + 3.0 * y,
    )


# ---------------------------------------------------------------------------
# Lift: extend a solved system by the joint of all its variables
# ---------------------------------------------------------------------------


def lift_decomposition(
    decomp: Decomposition, table: ProbTable, *, eps: float = DEFAULT_EPS
) -> Decomposition:
    """Re-read a solution as a decomposition of ``n + 1`` variables where
    the added variable is the joint of the originals.

    Atoms keep their sizes and every covering grows by one.  A lifted
    term's row is the row of its image under :func:`lift_map`; terms
    whose brackets all contain the new index collapse onto the
    whole-system row.  The input must validate against ``table``.
    """
    report = validate(decomp, table, eps=eps)
    if not report.passed:
        raise ValidationFailed(report)
    n1 = decomp.n + 1
    lifted_atoms = AtomSet(
        tuple(Atom(a.label, a.size, a.covering + 1) for a in decomp.atoms)
    )
    whole = top(decomp.n)
    view = enumerate_antichains(n1)
    entries = []
    for a in view.elements:
        image = lift_map(a, n1)
        entries.append(decomp.table.row(whole if image.is_empty else image))
    tab = ParthoodTable(view.elements, decomp.table.cols, tuple(entries))
    return Decomposition(n1, tab, lifted_atoms, decomp.redundancy_param)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> str:
        return json.dumps(
            {
                "checks": [
                    {"name": c.name, "pass": c.passed, "residual": c.residual}
                    for c in self.checks
                ]
            }
        )


def validate(
    decomp: Decomposition,
    table: ProbTable,
    *,
    eps: float = DEFAULT_EPS,
) -> ValidationReport:
    """Run every structural and numerical check; failures are reported,
    never raised.  Shape errors raise: :class:`WrongArity` if the variable
    counts differ, :class:`DecompositionFormatError` unless the parthood
    table has exactly one row per antichain over ``{1..n}``.

    Checks: atom non-negativity; row monotonicity along the antichain
    order (extended by reduction-proven term equalities, which compare
    only atoms of positive size); the covering rule ``c_i = max |alpha|``
    over rows containing atom i; the conservation law; the total law;
    term sizes (equality where the term evaluates exactly, interval
    containment otherwise); and equal rows for reduction-equal terms.
    """
    if table.n != decomp.n:
        raise WrongArity(
            f"decomposition over {decomp.n} variables, table over {table.n}"
        )
    rows = decomp.table.rows
    view = enumerate_antichains(decomp.n)
    if len(rows) != len(view) or set(rows) != set(view.elements):
        raise DecompositionFormatError(
            f"parthood table rows are not the {len(view)} antichains over "
            f"{decomp.n} variables"
        )
    checks: list[CheckResult] = []
    atoms = decomp.atoms.atoms
    entries = decomp.table.entries
    positive = [a.size > eps for a in atoms]

    # V1: non-negative atoms.
    worst = min((a.size for a in atoms), default=0.0)
    checks.append(
        CheckResult("atom_nonnegativity", worst >= -eps, max(0.0, -worst))
    )

    # Reduced form of every row term, for V2/V7.
    reduced: dict[Antichain, Antichain | None] = {}
    for a in rows:
        red, _trace = reduce_antichain(table, a, eps=eps)
        reduced[a] = red

    def row_leq(x: tuple[int, ...], y: tuple[int, ...], positive_only: bool) -> bool:
        for i, (xv, yv) in enumerate(zip(x, y)):
            if positive_only and not positive[i]:
                continue
            if xv > yv:
                return False
        return True

    # V2: monotonicity along the order, extended by reduction equalities.
    violations = 0
    first_bad = ""
    for a, x in zip(rows, entries):
        for b, y in zip(rows, entries):
            if a == b:
                continue
            plain = leq(a, b)
            if plain:
                ok = row_leq(x, y, False)
            else:
                ra, rb = reduced[a], reduced[b]
                alt = (
                    (ra is not None and ra != a and leq(ra, b))
                    or (rb is not None and rb != b and leq(a, rb))
                    or (
                        ra is not None
                        and rb is not None
                        and (ra != a or rb != b)
                        and leq(ra, rb)
                    )
                )
                if not alt:
                    continue
                ok = row_leq(x, y, True)
            if not ok:
                violations += 1
                if not first_bad:
                    first_bad = f"{a} vs {b}"
    checks.append(CheckResult("monotonicity", violations == 0, float(violations), first_bad))

    # V3: covering rule.
    mismatches = 0
    first_bad = ""
    for j, atom in enumerate(atoms):
        observed = max(
            (a.covering for a, row in zip(rows, entries) if row[j]),
            default=0,
        )
        if observed != atom.covering:
            mismatches += 1
            if not first_bad:
                first_bad = f"{atom.label.text}: {atom.covering} != {observed}"
    checks.append(CheckResult("covering_rule", mismatches == 0, float(mismatches), first_bad))

    # V4: conservation law.
    lhs = math.fsum(entropy(table, [k]) for k in range(table.n))
    residual = abs(lhs - decomp.atoms.weighted_size())
    checks.append(CheckResult("conservation_law", residual <= eps, residual))

    # V5: total law.
    residual = abs(entropy(table, range(table.n)) - decomp.atoms.total_size())
    checks.append(CheckResult("total_law", residual <= eps, residual))

    # V6: term sizes, exact or by interval containment.
    worst_gap = 0.0
    first_bad = ""
    for a in rows:
        total = decomp.term_sum(a)
        tv = eval_term(table, a, eps=eps)
        if tv.is_exact:
            gap = abs(total - tv.value)
        else:
            lo, hi = tv.bounds
            gap = max(lo - total, total - hi, 0.0)
        if gap > worst_gap:
            worst_gap = gap
            first_bad = str(a)
    checks.append(
        CheckResult("term_sizes", worst_gap <= eps, worst_gap, first_bad if worst_gap > eps else "")
    )

    # V7: reduction-equal terms share rows on positive atoms.
    mismatches = 0
    first_bad = ""
    for a in rows:
        ra = reduced[a]
        if ra is None or ra == a:
            continue
        x, y = decomp.table.row(a), decomp.table.row(ra)
        if not (row_leq(x, y, True) and row_leq(y, x, True)):
            mismatches += 1
            if not first_bad:
                first_bad = f"{a} ~ {ra}"
    checks.append(CheckResult("equal_rows", mismatches == 0, float(mismatches), first_bad))

    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# Random scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanSummary:
    """Aggregate statistics of a seeded random-distribution scan."""

    n_samples: int
    seed: int
    cards: tuple[int, ...]
    min_interval_width: float
    min_atom_size: float
    pi_s_min: float
    pi_s_max: float
    set_theoretic_successes: int
    max_subadditivity_gap: float | None

    def to_json(self) -> str:
        return json.dumps(
            {
                "samples": self.n_samples,
                "seed": self.seed,
                "cards": list(self.cards),
                "min_interval_width": self.min_interval_width,
                "min_atom_size": self.min_atom_size,
                "pi_s_min": self.pi_s_min,
                "pi_s_max": self.pi_s_max,
                "set_theoretic_successes": self.set_theoretic_successes,
                "max_subadditivity_gap": self.max_subadditivity_gap,
            }
        )


def sample_table(seed: int, index: int, cards) -> ProbTable:
    """The ``index``-th table of a scan: seeded independently per sample,
    so results do not depend on evaluation order."""
    return random_table(f"{seed}:{index}", cards)


def scan_random(
    n_samples: int, seed: int, cards, *, eps: float = DEFAULT_EPS
) -> ScanSummary:
    """Feasibility and distributivity statistics over seeded random pmfs.

    For each sample: the feasible redundancy interval, the minimal-synergy
    atom sizes, and whether the distributive solver would succeed; when
    it would, the sample's mutual-information subadditivity gap
    ``I((X1,X2);X3) - I(X1;X3) - I(X2;X3)`` is tracked (it stays <= 0 in
    every distributive system).
    """
    cards_t = tuple(int(c) for c in cards)
    if len(cards_t) != 3:
        raise WrongArity("interval statistics need exactly 3 variables")
    if n_samples < 1:
        raise GateSpecError("n_samples must be >= 1")
    min_width = math.inf
    min_atom = math.inf
    pi_s_min = math.inf
    pi_s_max = -math.inf
    successes = 0
    max_gap: float | None = None
    for i in range(n_samples):
        t = sample_table(seed, i, cards_t)
        lo, hi = feasible_interval(t)
        min_width = min(min_width, hi - lo)
        for _text, size, _cov in _trivariate_sizes(t, lo, eps):
            min_atom = min(min_atom, size)
        synergy = lo - interaction_information(t, [[0], [1], [2]])
        pi_s_min = min(pi_s_min, synergy)
        pi_s_max = max(pi_s_max, synergy)
        if all(v >= -eps for v in _mobius_atoms(t).values()):
            successes += 1
            gap = (
                mutual_information(t, [0, 1], [2])
                - mutual_information(t, [0], [2])
                - mutual_information(t, [1], [2])
            )
            max_gap = gap if max_gap is None else max(max_gap, gap)
    return ScanSummary(
        n_samples=n_samples,
        seed=seed,
        cards=cards_t,
        min_interval_width=min_width,
        min_atom_size=min_atom,
        pi_s_min=pi_s_min,
        pi_s_max=pi_s_max,
        set_theoretic_successes=successes,
        max_subadditivity_gap=max_gap,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def decomposition_to_json(decomp: Decomposition) -> str:
    obj = {
        "n": decomp.n,
        "redundancy_param": decomp.redundancy_param,
        "atoms": [
            {"label": a.label.text, "size": a.size, "covering": a.covering}
            for a in decomp.atoms
        ],
        "table": {
            "rows": [str(a) for a in decomp.table.rows],
            "cols": [c.text for c in decomp.table.cols],
            "entries": [list(row) for row in decomp.table.entries],
        },
    }
    return json.dumps(obj)


def decomposition_from_json(text: str) -> Decomposition:
    """Parse and shape-check a serialized decomposition."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DecompositionFormatError(f"invalid JSON: {exc}") from exc
    try:
        n = int(obj["n"])
        r = obj.get("redundancy_param")
        r = None if r is None else float(r)
        atoms = []
        for entry in obj["atoms"]:
            atoms.append(
                Atom(parse_label(entry["label"]), float(entry["size"]), int(entry["covering"]))
            )
        tbl = obj["table"]
        rows = tuple(Antichain.parse(t) for t in tbl["rows"])
        cols = tuple(parse_label(t) for t in tbl["cols"])
        entries = tuple(tuple(int(v) for v in row) for row in tbl["entries"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DecompositionFormatError(f"bad decomposition JSON: {exc}") from exc
    atom_set = AtomSet(tuple(atoms))
    if tuple(c.text for c in cols) != tuple(a.label.text for a in atom_set):
        raise DecompositionFormatError("table columns do not match atom list")
    return Decomposition(n, ParthoodTable(rows, cols, entries), atom_set, r)
