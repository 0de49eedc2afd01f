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
``Pi_g`` lies in ``X1 u X2`` but in neither ``X1`` nor ``X2``.  A
lifted row is the input's row for the term's :func:`~infatom.lattice.lift_map`
image, so a lifted solver table is the rule over the base arity read
through the lift maps, not the rule over the lifted arity.

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
from functools import cached_property, lru_cache

from .dist import (
    DEFAULT_EPS,
    ProbTable,
    _mask_positions,
    entropy,
    interaction_information,
    random_table,
    xor_gate,
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
    _Record,
    _integer,
)
from .lattice import MAX_VARIABLES, Antichain, LatticeView, enumerate_antichains
from .terms import (
    _bounds,
    _check_feasible,
    _co_information,
    _trivariate_entropies,
    eval_term,
    reduce_antichain,
    redundancy_bounds,
)


# ---------------------------------------------------------------------------
# Atom labels
# ---------------------------------------------------------------------------


class AtomLabel(_Record):
    """Name of one atom: a singleton-bracket antichain, the synergistic
    atom ``Pi_s``, or a ghost atom ``Pi_g`` / ``Pi_g_k``.

    The classmethods return shared (immutable) labels for every atom an
    arity up to :data:`MAX_VARIABLES` admits, all built at import (see
    :data:`_LABELS`), and build any other label afresh.  The constructor
    raises :class:`LabelError` for any other kind, a set label
    not made of singleton brackets, a ghost index that is not an int
    ``>= 1``, or an antichain or index the kind does not take.  Errors are
    not cached, so bad arguments raise on every call.  ``text`` and the
    hash are computed when a label is built, and again when one is loaded:
    a label pickles as its fields, as string hashes differ by process."""

    def __init__(self, kind: str, antichain: Antichain | None = None, index: int = 0) -> None:
        if kind == "set":
            if (not isinstance(antichain, Antichain) or antichain.is_empty
                    or any(len(b) != 1 for b in antichain.brackets) or index != 0):
                raise LabelError(f"set labels take singleton brackets, no index: {antichain}")
            text = str(antichain)
        elif kind == "synergy":
            if antichain is not None or index != 0:
                raise LabelError("the synergistic label takes no antichain or index")
            text = "Pi_s"
        elif kind == "ghost":
            if antichain is not None or type(index) is not int or index < 1:
                raise LabelError(f"ghost labels take an integer index >= 1, got {index!r}")
            text = "Pi_g" if index == 1 else f"Pi_g_{index}"
        else:
            raise LabelError(f"atom label kind {kind!r} has no parthood rule")
        key = (kind, antichain, index)
        self.__dict__.update(kind=kind, antichain=antichain, index=index, _key=key, text=text,
                             _hash=hash(key))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return self.__class__, self._key

    @classmethod
    def set_theoretic(cls, a: Antichain) -> "AtomLabel":
        """The label of the set atom over ``a``'s indices."""
        return isinstance(a, Antichain) and _LABELS.get(str(a)) or cls("set", antichain=a)

    @classmethod
    def synergy(cls) -> "AtomLabel":
        return _SYNERGY

    @classmethod
    def ghost(cls, k: int = 1) -> "AtomLabel":
        if k.__class__ is int and 1 <= k <= len(_GHOSTS):
            return _GHOSTS[k - 1]
        return cls("ghost", index=k)

    def __str__(self) -> str:
        return self.text


#: The labels where distributivity fails; n variables admit ghosts k <= n - 2.
_SYNERGY = AtomLabel("synergy")
_GHOSTS = tuple(AtomLabel("ghost", index=k) for k in range(1, MAX_VARIABLES - 1))
_GHOST_RE = re.compile(r"^Pi_g(?:_(\d+))?$")


def _label_table() -> dict[str, AtomLabel]:
    """``Pi_s``, the ghosts and the 255 set labels over ``1..MAX_VARIABLES``,
    keyed by their text.  The index sets over ``1..i + 1`` are those over
    ``1..i``, each also with ``i + 1`` added, so each set's brackets and
    masks are built in canonical order and checked no further."""
    brackets, masks = [()], [()]
    for i in range(MAX_VARIABLES):
        brackets += [b + ((i + 1,),) for b in brackets]
        masks += [m + (1 << i,) for m in masks]
    sets = [AtomLabel("set", antichain=Antichain._trusted(b, m))
            for b, m in zip(brackets[1:], masks[1:])]
    return {label.text: label for label in (_SYNERGY, *_GHOSTS, *sets)}


#: Every label an arity up to :data:`MAX_VARIABLES` admits, 262 in all,
#: keyed by its text and built at import: a finite family, so no memo.
_LABELS = _label_table()


def parse_label(text: str) -> AtomLabel:
    """Inverse of :attr:`AtomLabel.text`; any other text raises
    :class:`LabelError`.  A canonical text of a label in :data:`_LABELS`
    is one dict read, returning the shared label; other spellings
    (``{2}{1}``, ``Pi_g_1``) and labels beyond :data:`MAX_VARIABLES` are
    parsed, and get the shared label wherever one exists."""
    text = text.strip()
    label = _LABELS.get(text)
    if label is not None:
        return label
    if text.startswith("{"):
        return AtomLabel.set_theoretic(Antichain.parse(text))
    m = _GHOST_RE.match(text)
    if m:
        return AtomLabel.ghost(int(m.group(1)) if m.group(1) else 1)
    raise LabelError(f"atom label {text!r} is not a set label, Pi_s or Pi_g_k")


# ---------------------------------------------------------------------------
# Atom sets, parthood tables, decompositions
# ---------------------------------------------------------------------------


class Atom(_Record):
    def __init__(self, label: AtomLabel, size: float, covering: int) -> None:
        self.__dict__.update(label=label, size=size, covering=covering,
                             _key=(label, size, covering))


class AtomSet(_Record):
    """Atoms with sizes (bits) and covering numbers, in a fixed order."""

    def __init__(self, atoms: tuple[Atom, ...]) -> None:
        by_label = {a.label: a for a in atoms}
        if len(by_label) != len(atoms):
            raise LabelError("duplicate atom labels")
        if any(a.covering < 1 for a in atoms):
            raise LabelError("coverings must be >= 1")
        self.__dict__.update(atoms=atoms, _key=(atoms,), _by_label=by_label)

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


class ParthoodTable(_Record):
    """0/1 matrix: which atoms (columns) compose which terms (rows)."""

    def __init__(self, rows: tuple[Antichain, ...], cols: tuple[AtomLabel, ...],
                 entries: tuple[tuple[int, ...], ...]) -> None:
        if len(entries) != len(rows) or not set(map(len, entries)) <= {len(cols)}:
            raise DecompositionFormatError("parthood table shape mismatch")
        try:
            binary = set().union(*entries) <= {0, 1}
        except TypeError:  # an unhashable entry, such as a list, is neither
            binary = False
        if not binary:
            raise DecompositionFormatError("parthood entries must be 0 or 1")
        self.__dict__.update(rows=rows, cols=cols, entries=entries, _key=(rows, cols, entries))

    @cached_property
    def _row_index(self) -> dict[tuple[int, ...], int]:
        """Each row's position, keyed by its masks, built on the first
        :meth:`row`: rows that :func:`validate` rejects (say, over an index
        far beyond n) are never turned into masks."""
        return {a.masks: i for i, a in enumerate(self.rows)}

    def row(self, a: Antichain) -> tuple[int, ...]:
        return self.entries[self._row_index[a.masks]]

    def _bitsets(self, view: LatticeView) -> tuple:
        """The entries as the int bitsets :func:`validate` reads, over the
        positions of ``view``, the lattice the rows were checked against:
        ``(held_at, low)``.  ``held_at[p]`` marks the columns that the row
        at lattice position p holds (bit j for column j), and ``low[j]`` is
        the lowest position whose row holds column j, -1 for none.  Both
        are indexed by lattice position, so nothing here depends on the
        order of the rows.  They depend on the entries alone, so, like
        :attr:`_row_index`, they are built on the first call and kept: a
        table shared through the solvers' memo is read once per process."""
        bits = self.__dict__.get("_bits")
        if bits is None:
            # Rows share few patterns, so each distinct row is coded once.
            entries = self.entries
            code = {x: sum(1 << j for j, v in enumerate(x) if v) for x in set(entries)}
            held_at = [code[x] for x in entries]
            if self.rows != view.elements:
                held_at = [h for _p, h in sorted(zip(map(view.index, self.rows), held_at))]
            bits = self._keep_bits(held_at)
        return bits

    def _keep_bits(self, held_at: list[int]) -> tuple:
        """Complete :meth:`_bitsets` from ``held_at``, keep it and return it."""
        # A column's lowest position is where a pattern holding it is first
        # seen; ``unseen`` marks the columns not yet placed.
        low = [-1] * len(self.cols)
        unseen = (1 << len(low)) - 1
        for p, h in enumerate(held_at):
            new = h & unseen
            if new:
                for j in range(new.bit_length()):
                    if new >> j & 1:
                        low[j] = p
                unseen ^= new
        bits = self.__dict__["_bits"] = (held_at, low)
        return bits

    def _covers_hold(self, covers: tuple[tuple[int, ...], ...]) -> bool:
        """Whether each row's atoms are held by the rows of its upper
        covers, the lattice's :attr:`~LatticeView.covers`; after
        :meth:`_bitsets`, decided once per table and kept."""
        hold = self.__dict__.get("_monotone")
        if hold is None:
            held_at = self._bits[0]
            hold = self.__dict__["_monotone"] = not any(
                h & ~held_at[c] for h, cs in zip(held_at, covers) if h for c in cs)
        return hold


def _parthood(n: int, labels: tuple[AtomLabel, ...]) -> ParthoodTable:
    """Parthood table of ``labels`` over every antichain on ``{1..n}``.

    Each table is built once and kept on its lattice view (``_tables``), as
    tables are frozen, so a rebuilt lattice starts with none.  The lattice
    is fetched first, so every solve makes the same calls into
    :mod:`lattice` whether or not its table was built earlier."""
    view = enumerate_antichains(n)
    table = view._tables.get(labels)
    if table is not None:
        return table
    # Built by the rule in the module docstring, one column at a time, on masks.
    masks = [a.masks for a in view.elements]
    full = (1 << n) - 1
    columns = []
    for lab in labels:
        if lab.kind == "set":
            support = sum(lab.antichain.masks)
            col = [all(m & support for m in ms) for ms in masks]
        elif lab.kind == "synergy":
            col = [len(ms) == 1 or (len(ms) == 2 and ms[0] | ms[1] == full) for ms in masks]
        else:
            k = lab.index
            col = [len(ms) == 1 and k < min(ms[0].bit_count(), n - 1) for ms in masks]
        columns.append([int(v) for v in col])
    table = view._tables[labels] = ParthoodTable(view.elements, labels, tuple(zip(*columns)))
    return table


class Decomposition(_Record):
    """A parthood table plus solved atom sizes and coverings.

    ``redundancy_param`` records the free triple-intersection value when
    one exists (trivariate and 3-variable distributive solutions).
    """

    def __init__(self, n: int, table: ParthoodTable, atoms: AtomSet,
                 redundancy_param: float | None = None) -> None:
        self.__dict__.update(n=n, table=table, atoms=atoms, redundancy_param=redundancy_param,
                             _key=(n, table, atoms, redundancy_param))

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


def _trivariate_sizes(h: list[float], r: float, eps: float) -> list[tuple[str, float, int]]:
    """The nine atoms' label texts, sizes and coverings, from the seven
    entropies of :func:`_trivariate_entropies`."""
    h1, h2, h3, h12, h13, h23, h123 = h
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
    and must lie in :func:`feasible_interval`; an ``r`` up to ``eps``
    outside it is read, and recorded, as the nearest endpoint.  The
    default is the lower endpoint, the minimal-synergy convention.  The
    synergistic and ghost atoms both measure ``r - I_3``; pairwise atoms
    are ``I(Xi;Xj) - r``; per-variable atoms are the conditional
    entropies given the rest.
    """
    h = _trivariate_entropies(table)  # raises WrongArity unless n = 3
    lo, hi = _bounds(h)  # the feasible interval, from the entropies read once
    r = _check_feasible(lo if r is None else r, lo, hi, eps)
    sizes = _trivariate_sizes(h, r, eps)
    atoms = AtomSet(tuple(Atom(parse_label(t), s, c) for t, s, c in sizes))
    return Decomposition(3, _parthood(3, atoms.labels()), atoms, r)


class PidView(_Record):
    """Redundancy / unique / synergy split of what two sources say about
    a target, read off a trivariate decomposition."""

    def __init__(self, redundancy: float, unique_a: float, unique_b: float, synergy: float,
                 sources: tuple[int, int], target: int) -> None:
        self.__dict__.update(redundancy=redundancy, unique_a=unique_a, unique_b=unique_b,
                             synergy=synergy, sources=sources, target=target,
                             _key=(redundancy, unique_a, unique_b, synergy, sources, target))


def pid_view(decomp: Decomposition, target: int) -> PidView:
    """Source decomposition of ``I(sources; target)`` for a 3-variable
    solution; ``target`` is 1-based.  An atom the decomposition does not
    hold (``Pi_s`` of a distributive solution) adds nothing: it reads 0."""
    if decomp.n != 3:
        raise WrongArity(f"expected a trivariate decomposition, got n = {decomp.n}")
    if _integer(target) not in (1, 2, 3):
        raise VariableSetError(f"target must be 1, 2 or 3, got {target!r}")
    a, b = sorted({1, 2, 3} - {target})
    size = {atom.label: atom.size for atom in decomp.atoms}.get
    return PidView(
        redundancy=size(AtomLabel.set_theoretic(Antichain.of([1], [2], [3])), 0.0),
        unique_a=size(AtomLabel.set_theoretic(Antichain.of([a], [target])), 0.0),
        unique_b=size(AtomLabel.set_theoretic(Antichain.of([b], [target])), 0.0),
        synergy=size(AtomLabel.synergy(), 0.0),
        sources=(a, b),
        target=target,
    )


# ---------------------------------------------------------------------------
# Distributive (set-theoretic) solution via subset-order inversion
# ---------------------------------------------------------------------------

#: Arity cap for the distributive solver.  The inversion is cheap at any
#: n; the cap bounds the parthood table, one row per antichain and one
#: column per atom, which ``_parthood`` keeps on the lattice view.
MAX_SET_THEORETIC = 5

@lru_cache(maxsize=MAX_SET_THEORETIC)
def _mobius_plan(n: int) -> tuple[tuple, tuple]:
    """For each subset mask ``m`` in ``1 .. 2^n - 1`` (bit i for index
    i + 1), its singleton groups; and each mask with its set-atom label,
    in column order: larger sets first, then lexicographic.  Built once
    per arity."""
    bits = [[i for i in range(n) if m >> i & 1] for m in range(1 << n)]
    groups = tuple(tuple(_mask_positions(1 << i) for i in b) for b in bits[1:])
    order = sorted(range(1, 1 << n), key=lambda m: (-len(bits[m]), bits[m]))
    return groups, tuple(
        (m, AtomLabel.set_theoretic(Antichain.of(*[[i + 1] for i in bits[m]]))) for m in order
    )


def _mobius_atoms(table: ProbTable) -> list[float]:
    """Atom size for every subset mask (bit i for index i + 1; 0.0 at the
    empty mask), by inversion of the superset sums of interaction
    informations: the fast Möbius transform, O(n 2^n) steps."""
    n = table.n
    f = [0.0, *[interaction_information(table, g) for g in _mobius_plan(n)[0]]]
    for i in range(n):
        bit = 1 << i
        for m in range(1, 1 << n):
            if not m & bit:
                f[m] -= f[m | bit]
    return f


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
    f = _mobius_atoms(table)
    columns = _mobius_plan(n)[1]
    negatives = [(label.text, f[m]) for m, label in columns if f[m] < -eps]
    if negatives:
        raise NotSetTheoretic(sorted(negatives))
    atom_set = AtomSet(tuple(
        Atom(label, _clip(f[m], eps, label.text), m.bit_count()) for m, label in columns
    ))
    r = f[-1] if n == 3 else None  # the full mask's atom
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
    if not isinstance(n, int) or not 3 <= n <= MAX_VARIABLES:
        raise LatticeRangeError(f"n-parity solver supports n in [3, {MAX_VARIABLES}], got {n!r}")
    ghosts = tuple(Atom(AtomLabel.ghost(k), 1.0, 1) for k in range(1, n - 1))
    atoms = AtomSet((Atom(AtomLabel.synergy(), 1.0, 2),) + ghosts)
    return Decomposition(n, _parthood(n, atoms.labels()), atoms, None)


# ---------------------------------------------------------------------------
# Symmetric parity-gate uniqueness
# ---------------------------------------------------------------------------


class XorUniqueness(_Record):
    """Solution of the symmetric 3-bit parity ansatz.

    Unknowns: ``x`` the synergistic atom and ``y`` the per-pair atoms.
    The per-variable atoms measure ``1 - 2y - x`` and the ghost atom
    ``2x + 3y - 1``; the conservation law forces ``2x + 3y = 2``, which
    turns the per-variable size into ``-y/2``, so non-negativity pins
    ``y = 0`` and ``x = 1``.
    """

    def __init__(self, x: float, y: float, pi_variable: float, pi_ghost: float,
                 conservation: float) -> None:
        self.__dict__.update(x=x, y=y, pi_variable=pi_variable, pi_ghost=pi_ghost,
                             conservation=conservation,
                             _key=(x, y, pi_variable, pi_ghost, conservation))


def verify_xor_uniqueness() -> XorUniqueness:
    """Solve the symmetric ansatz; the unique solution is x = 1, y = 0.
    The gate's feasible interval is ``[0, 0]``, so :func:`solve_trivariate`
    gives it: the sizes of ``Pi_s``, ``{1}{2}``, ``{1}`` and ``Pi_g``."""
    size = solve_trivariate(xor_gate()).atom_size
    x, y = size("Pi_s"), size("{1}{2}")
    return XorUniqueness(x=x, y=y, pi_variable=size("{1}"), pi_ghost=size("Pi_g"),
                         conservation=2.0 * x + 3.0 * y)


# ---------------------------------------------------------------------------
# Lift: extend a solved system by the joint of all its variables
# ---------------------------------------------------------------------------


def lift_decomposition(
    decomp: Decomposition, table: ProbTable, *, eps: float = DEFAULT_EPS
) -> Decomposition:
    """Re-read a solution as a decomposition of ``n + 1`` variables where
    the added variable is the joint of the originals.

    Atoms keep their sizes and every covering grows by one.  A lifted
    term's row is the row of its image under :func:`lift_map`, the
    whole-system row when the image is empty: the lifted ``held`` bitsets
    are the input's, read at the lifted view's cached
    :attr:`~LatticeView.lifts` positions, and each distinct pattern's
    entry row is built once from its bits.  The input must validate
    against ``table``; one over :data:`MAX_VARIABLES` variables is refused
    first, as its lift has no lattice.
    """
    if decomp.n >= MAX_VARIABLES:
        raise LatticeRangeError(f"cannot lift a decomposition over {decomp.n} variables: "
                                f"lattices stop at {MAX_VARIABLES} variables")
    report = validate(decomp, table, eps=eps)
    if not report.passed:
        raise ValidationFailed(report)
    atoms = AtomSet(tuple(Atom(a.label, a.size, a.covering + 1) for a in decomp.atoms))
    held_at, _ = decomp.table._bitsets(enumerate_antichains(decomp.n))
    view = enumerate_antichains(decomp.n + 1)
    # The lifted rows are in lattice order, each holding its image's atoms.
    held = [held_at[q] for q in view.lifts]
    row = {h: tuple(h >> j & 1 for j in range(len(decomp.table.cols))) for h in set(held)}
    tab = ParthoodTable(view.elements, decomp.table.cols, tuple(map(row.__getitem__, held)))
    tab._keep_bits(held)
    return Decomposition(decomp.n + 1, tab, atoms, decomp.redundancy_param)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


class CheckResult(_Record):
    def __init__(self, name: str, passed: bool, residual: float, detail: str = "") -> None:
        self.__dict__.update(name=name, passed=passed, residual=residual, detail=detail,
                             _key=(name, passed, residual, detail))


class ValidationReport(_Record):
    def __init__(self, checks: tuple[CheckResult, ...]) -> None:
        self.__dict__.update(checks=checks, _key=(checks,))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> str:
        checks = [{"name": c.name, "pass": c.passed, "residual": c.residual} for c in self.checks]
        return json.dumps({"checks": checks})


def validate(
    decomp: Decomposition,
    table: ProbTable,
    *,
    eps: float = DEFAULT_EPS,
) -> ValidationReport:
    """Run every structural and numerical check; failures are reported,
    never raised.  Shape errors raise: :class:`WrongArity` if the variable
    counts differ, :class:`DecompositionFormatError` unless the parthood
    table has exactly one row per antichain over ``{1..n}``, its
    columns are the decomposition's atoms, in order, every set atom's
    label names variables in ``1..n`` only, and every ghost ``Pi_g_k`` has
    ``k <= n - 2`` (:class:`AtomLabel` builds no other kind, and no k < 1),
    and the atoms' absolute sizes times their coverings sum to a finite
    float, which bounds every size sum the checks form.
    Columns are not tied to their labels: whether a column follows the
    parthood rule for its label is not checked, as a lifted table
    follows the rule over the base arity read through the lift maps
    (see the module docstring).

    Checks: atom non-negativity; row monotonicity along the antichain
    order (extended by reduction-proven term equalities, which compare
    only atoms of positive size); the covering rule ``c_i = max |alpha|``
    over rows containing atom i; the conservation law; the total law;
    term sizes (equality where the term evaluates exactly, interval
    containment otherwise); and equal rows for reduction-equal terms.

    The parthood table is read into int bitsets once per table, not once
    per call: ``held[p]``, the atoms the row at lattice position p holds
    (bit j for atom j), and per atom, the lowest position whose row holds
    it.  They depend on the entries alone, so a table the solvers share
    (every trivariate solve, every :func:`solve_n_parity` of one n) is
    read once per process, and :func:`lift_decomposition` derives the
    lifted table's from its input's.  ``positive``, the atoms of size
    above ``eps``, is read per call.  Every check reads the table by
    lattice position only, and a failed check's detail names its first
    offender in lattice-position order, so a report, details included,
    does not depend on the order of the rows.
    Each term with two or more brackets is reduced once (see
    :mod:`infatom.terms`), and ``red_pos[k]``, read by monotonicity, term
    sizes and equal rows, is the position of k's reduced form, found by
    the key of its masks in the view's index (bit m for each mask m): k
    itself where no rule fires (a single bracket included), -1 where R1
    empties the term.  Write ``r(k)`` for the reduced form
    where ``red_pos[k]`` is neither.  Monotonicity is first decided on
    cover pairs: it passes, with residual 0, if equal rows pass and
    ``held[p] & ~held[c] == 0`` for every upper cover c of every position
    p.  Row inclusion is transitive, so the cover test gives
    ``held[p] <= held[k]`` for every ``p <= k``: no plain pair violates.
    Equal rows give ``held[k] & positive == held[r(k)] & positive``
    wherever ``r(k)`` exists, so each reduction-extended pair holds on
    positive atoms: for ``r(p) <= k``, ``held[p] & positive`` is
    ``held[r(p)] & positive``, contained in ``held[k]``; for
    ``p <= r(k)``, ``held[p] & positive`` is contained in ``held[r(k)] &
    positive``, which is ``held[k] & positive``; ``r(p) <= r(k)``
    combines the two.  Only when the cover test or equal rows fail are
    the violating ordered pairs counted, still without testing any pair,
    on masks over lattice positions that are as wide as the lattice.
    Each row's strict up-set ``up[p]`` is OR-ed together in one backward
    pass over the view's cached :attr:`~LatticeView.covers`, and is
    intersected with the mask of rows lacking one of the row's atoms,
    built once per distinct ``held`` pattern h as the OR of the positions
    of each distinct pattern g with ``h & ~g``.  The reduction-extended
    pairs come from the same pass: let ``up_pre[p]`` mark the positions k
    with ``p <= r(k)``.  In a finite order ``p <= x`` iff ``x = p`` or
    ``c <= x`` for an upper cover c of p, so ``up_pre[p]`` is the
    positions k with ``r(k) = p`` OR-ed with ``up_pre[c]`` over p's
    covers, complete when the backward pass reaches p.  For the row at p,
    with ``r(p)`` at q, a row k extends the order with it iff
    ``r(p) <= k`` (k is q or in ``up[q]``), ``p <= r(k)`` (k in
    ``up_pre[p]``) or ``r(p) <= r(k)`` (k in ``up_pre[q]``); where
    ``r(p)`` does not exist only the middle clause does.  That mask, the
    positions outside ``up[p]`` (pairs already ordered are counted once,
    as such) and the rows lacking a positive atom of row p are AND-ed,
    and the violations are popcounts.  The detail names the first position with a
    violation and the lowest position in its mask.  The covering rule
    reads each atom's lowest position: the listing is graded by covering,
    most brackets first.  Term sizes sum each distinct ``held`` pattern
    once with ``fsum``, correctly rounded, so as
    :meth:`Decomposition.term_sum` would.  A term's size depends only on
    its reduced form, so :func:`~infatom.terms.eval_term` runs once per key
    ``(red_pos[p], held[p])``, and the detail names the first position
    with the largest gap.  Equal rows test ``(held[p] ^ held[q]) &
    positive`` for q = ``red_pos[p]`` where that is neither p nor -1.
    Covering and equal rows list their offenders in lattice-position
    order: the residual is their count, and the detail names the first.
    """
    if table.n != decomp.n:
        raise WrongArity(f"decomposition over {decomp.n} variables, table over {table.n}")
    rows = decomp.table.rows
    view = enumerate_antichains(decomp.n)
    if rows != view.elements and (len(rows) != len(view) or set(rows) != set(view.elements)):
        raise DecompositionFormatError(
            f"parthood table rows are not the {len(view)} antichains over "
            f"{decomp.n} variables"
        )
    if decomp.table.cols != decomp.atoms.labels():
        raise DecompositionFormatError("table columns do not match atom list")
    for label in decomp.table.cols:
        # Brackets are sorted, so each one's last index is its largest.
        if label.kind == "set" and max(b[-1] for b in label.antichain.brackets) > decomp.n:
            raise DecompositionFormatError(
                f"set atom {label.text} names a variable outside 1..{decomp.n}"
            )
        # The parthood rule puts Pi_g_k in no term unless k <= n - 2.
        if label.kind == "ghost" and label.index > decomp.n - 2:
            raise DecompositionFormatError(
                f"ghost atom {label.text} needs k <= {decomp.n - 2} over {decomp.n} variables"
            )
    try:
        finite = math.isfinite(math.fsum(a.covering * abs(a.size) for a in decomp.atoms))
    except OverflowError:  # a covering past the float range, or the sum
        finite = False
    if not finite:
        raise DecompositionFormatError("atom sizes times coverings do not sum to a finite "
                                       "float: JSON could not carry the residuals")
    checks: list[CheckResult] = []
    atoms = decomp.atoms.atoms
    positive = sum(1 << j for j, a in enumerate(atoms) if a.size > eps)

    # V1: non-negative atoms.
    worst = min((a.size for a in atoms), default=0.0)
    checks.append(CheckResult("atom_nonnegativity", worst >= -eps, max(0.0, -worst)))

    # The table's bitsets (see ParthoodTable._bitsets), read once per table.
    elements = view.elements
    held_at, low = decomp.table._bitsets(view)

    # The reduction of every term, for V2, V6 and V7; None for a single
    # bracket, which is its own reduced form.
    reductions = [
        None if len(a.brackets) == 1 else reduce_antichain(table, a, eps=eps) for a in elements
    ]

    # ``red_pos[p]`` is the position of p's reduced form: p where no rule
    # fires, -1 where R1 empties the term.
    position = view._index
    red_pos = [p if r is None or not r[1] else -1 if r[0] is None
               else position[sum(1 << m for m in r[0].masks)] for p, r in enumerate(reductions)]

    # V7 (reported last): reduction-equal terms share rows on positive atoms.
    offenders = [f"{elements[p]} ~ {elements[q]}" for p, q in enumerate(red_pos)
                 if q >= 0 and q != p and (held_at[p] ^ held_at[q]) & positive]
    equal_rows = CheckResult("equal_rows", not offenders, float(len(offenders)),
                             offenders[0] if offenders else "")

    # V2: monotonicity along the order, extended by reduction equalities.
    # Where V7 passes and every row's atoms are held by its upper covers'
    # rows, V2 passes (see the docstring); otherwise the violations are
    # counted on masks over lattice positions.
    covers = view.covers
    if equal_rows.passed and decomp.table._covers_hold(covers):
        checks.append(CheckResult("monotonicity", True, 0.0, ""))
    else:
        # ``up_pre[q]`` starts as the other positions reduced to q.  Covers lie
        # later in the listing, a linear extension, so read backwards each
        # ``up`` and ``up_pre`` mask is complete before it is used.
        # ``lacking[h]`` marks the rows lacking an atom of pattern ``h``:
        # the positions of each distinct pattern ``g`` with ``h & ~g``.
        up_pre = [0] * len(elements)
        for p, q in enumerate(red_pos):
            if q >= 0 and q != p:
                up_pre[q] |= 1 << p
        up = [0] * len(elements)
        for p in range(len(elements) - 1, -1, -1):
            m = 0
            u = up_pre[p]
            for c in covers[p]:
                m |= up[c] | 1 << c
                u |= up_pre[c]
            up[p] = m
            up_pre[p] = u
        where = {}
        for p, g in enumerate(held_at):
            where[g] = where.get(g, 0) | 1 << p
        lacking = {h: sum(m for g, m in where.items() if h & ~g)
                   for h in {*held_at, *(h & positive for h in held_at)}}
        # ``reach`` marks the rows that order with the row at p once reduced
        # forms replace one side or both (see the docstring).  A row never
        # lacks its own atoms, so its ``lacking`` masks leave it out.
        violations = 0
        first_bad = ""
        for p, (a, h, q) in enumerate(zip(elements, held_at, red_pos)):
            reach = up_pre[p] if q < 0 or q == p else up[q] | 1 << q | up_pre[p] | up_pre[q]
            bad = (up[p] & lacking[h]) | (lacking[h & positive] & reach & ~up[p])
            violations += bad.bit_count()
            if bad and not first_bad:
                first_bad = f"{a} vs {elements[(bad & -bad).bit_length() - 1]}"
        checks.append(CheckResult("monotonicity", violations == 0, float(violations), first_bad))

    # V3: covering rule, read at the lowest position holding each atom.
    observed = [elements[p].covering if p >= 0 else 0 for p in low]
    offenders = [f"{atom.label.text}: {atom.covering} != {c}"
                 for atom, c in zip(atoms, observed) if c != atom.covering]
    checks.append(CheckResult("covering_rule", not offenders, float(len(offenders)),
                              offenders[0] if offenders else ""))

    # V4: conservation law.
    lhs = math.fsum(entropy(table, [k]) for k in range(table.n))
    residual = abs(lhs - decomp.atoms.weighted_size())
    checks.append(CheckResult("conservation_law", residual <= eps, residual))

    # V5: total law.
    residual = abs(entropy(table, range(table.n)) - decomp.atoms.total_size())
    checks.append(CheckResult("total_law", residual <= eps, residual))

    # V6: term sizes, exact or by interval containment.  A term's size
    # depends only on its reduced form, so rows sharing ``red_pos`` and a
    # ``held`` pattern share one gap.
    sizes = [a.size for a in atoms]
    sums = {h: math.fsum(s for j, s in enumerate(sizes) if h >> j & 1) for h in set(held_at)}
    gaps = {}
    worst_gap = 0.0
    first_bad = ""
    for a, h, q, reduction in zip(elements, held_at, red_pos, reductions):
        gap = gaps.get((q, h))
        if gap is None:
            total = sums[h]
            # An exact term's bounds are (value, value): the gap is |total - value|.
            lo, hi = eval_term(table, a, eps=eps, reduction=reduction).bounds
            gap = gaps[q, h] = max(lo - total, total - hi, 0.0)
        if gap > worst_gap:
            worst_gap = gap
            first_bad = str(a)
    checks.append(
        CheckResult("term_sizes", worst_gap <= eps, worst_gap, first_bad if worst_gap > eps else "")
    )
    checks.append(equal_rows)

    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# Random scans
# ---------------------------------------------------------------------------


class ScanSummary(_Record):
    """Aggregate statistics of a seeded random-distribution scan."""

    def __init__(self, n_samples: int, seed: int, cards: tuple[int, ...],
                 min_interval_width: float, min_atom_size: float, pi_s_min: float,
                 pi_s_max: float, set_theoretic_successes: int,
                 max_subadditivity_gap: float | None) -> None:
        self.__dict__.update(n_samples=n_samples, seed=seed, cards=cards,
                             min_interval_width=min_interval_width, min_atom_size=min_atom_size,
                             pi_s_min=pi_s_min, pi_s_max=pi_s_max,
                             set_theoretic_successes=set_theoretic_successes,
                             max_subadditivity_gap=max_subadditivity_gap,
                             _key=(n_samples, seed, cards, min_interval_width, min_atom_size,
                                   pi_s_min, pi_s_max, set_theoretic_successes,
                                   max_subadditivity_gap))

    def to_json(self) -> str:
        # The fields in order, ``n_samples`` written as "samples".
        keys = ("samples", "seed", "cards", "min_interval_width", "min_atom_size", "pi_s_min",
                "pi_s_max", "set_theoretic_successes", "max_subadditivity_gap")
        return json.dumps(dict(zip(keys, self._key)))


def sample_table(seed: int, index: int, cards) -> ProbTable:
    """The ``index``-th table of a scan: seeded independently per sample,
    so results do not depend on evaluation order.  Both numbers must be
    ints (:class:`GateSpecError`), so equal seeds draw equal tables."""
    key = _integer(seed), _integer(index)
    if None in key:
        raise GateSpecError(f"scan seed and index must be integers, got {seed!r}, {index!r}")
    return random_table("{}:{}".format(*key), cards)


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
    cards_t = tuple(map(_integer, cards))
    if None in cards_t:
        raise GateSpecError(f"cardinalities must be integers, got {cards!r}")
    if len(cards_t) != 3:
        raise WrongArity("interval statistics need exactly 3 variables")
    if _integer(n_samples) is None or n_samples < 1:
        raise GateSpecError("n_samples must be an integer >= 1")
    min_width = math.inf
    min_atom = math.inf
    pi_s_min = math.inf
    pi_s_max = -math.inf
    successes = 0
    max_gap: float | None = None
    for i in range(n_samples):
        t = sample_table(seed, i, cards_t)
        h = _trivariate_entropies(t)
        lo, hi = _bounds(h)
        min_width = min(min_width, hi - lo)
        for _text, size, _cov in _trivariate_sizes(h, lo, eps):
            min_atom = min(min_atom, size)
        synergy = lo - _co_information(h)
        pi_s_min = min(pi_s_min, synergy)
        pi_s_max = max(pi_s_max, synergy)
        if all(v >= -eps for v in _mobius_atoms(t)):
            successes += 1
            # Each mutual information summed as mutual_information sums it.
            h1, h2, h3, h12, h13, h23, h123 = h
            gap = (h12 + h3 - h123) - (h1 + h3 - h13) - (h2 + h3 - h23)
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


def _json_value(value, types, rule: str):
    """``value`` if it has one of ``types``, else ValueError(rule).  JSON
    true and false load as bools, which Python counts as ints: refused."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(rule)
    return value


def _json_finite(value, rule: str) -> float:
    number = float(_json_value(value, (int, float), rule))
    if not math.isfinite(number):
        raise ValueError(rule)
    return number


def _json_field(obj, key: str, where: str):
    """``obj[key]``, or ValueError naming what is wrong: ``obj``, which
    ``where`` names, must be a JSON object holding ``key``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object")
    if key not in obj:
        raise ValueError(f"{where} has no {key!r} field")
    return obj[key]


def _json_array(obj, key: str, where: str, path: str) -> list:
    """:func:`_json_field`, which must be a JSON array; ``path`` names it."""
    return _json_value(_json_field(obj, key, where), list, f"{path} must be an array")


def decomposition_from_json(text: str) -> Decomposition:
    """Parse and shape-check a serialized decomposition.

    Fields are checked, not coerced: the decomposition, its atoms and its
    table are JSON objects holding their fields, ``atoms`` and the
    table's ``rows``, ``cols`` and ``entries`` (and each entries row) are
    arrays, ``n``, coverings and table entries are JSON integers (entries
    0 or 1), sizes finite numbers, ``redundancy_param`` null or a finite
    number, and labels and rows strings.  ``true`` and ``false`` are none
    of these.  A message names the field at fault."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DecompositionFormatError(f"invalid JSON: {exc}") from exc
    try:
        top = "the decomposition"
        n = _json_value(_json_field(obj, "n", top), int, "n must be an integer")
        r = obj.get("redundancy_param")
        r = None if r is None else _json_finite(r, "redundancy_param must be a finite number")
        atoms = []
        for k, entry in enumerate(_json_array(obj, "atoms", top, "atoms")):
            where = f"atoms[{k}]"
            atoms.append(
                Atom(
                    parse_label(_json_value(_json_field(entry, "label", where), str,
                                            "labels must be strings")),
                    _json_finite(_json_field(entry, "size", where), "sizes must be finite numbers"),
                    _json_value(_json_field(entry, "covering", where), int,
                                "coverings must be integers"),
                )
            )
        tbl = _json_field(obj, "table", top)
        rows = tuple(
            Antichain.parse(_json_value(t, str, "rows must be strings"))
            for t in _json_array(tbl, "rows", "table", "table.rows")
        )
        cols = tuple(
            parse_label(_json_value(t, str, "labels must be strings"))
            for t in _json_array(tbl, "cols", "table", "table.cols")
        )
        entries = tuple(
            tuple(_json_value(v, int, "entries must be 0 or 1")
                  for v in _json_value(row, list, f"table.entries[{k}] must be an array"))
            for k, row in enumerate(_json_array(tbl, "entries", "table", "table.entries"))
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DecompositionFormatError(f"bad decomposition JSON: {exc}") from exc
    return Decomposition(n, ParthoodTable(rows, cols, entries), AtomSet(tuple(atoms)), r)
