"""Sizes of intersection-of-unions terms on a concrete distribution.

An antichain ``{1,2}{3}`` labels the term "(X1 joint X2) intersect X3".
Single brackets are joint entropies and bracket pairs are mutual
informations, both exactly.  With three or more brackets the size is not
always determined by entropies alone; two reduction rules shrink the
bracket list where the distribution permits, and anything left
undetermined is reported as an interval:

* R1: if two bracket-joints are independent the whole term is empty.
* R2: if bracket-joint A is a deterministic function of bracket-joint B,
  intersecting with B is redundant, so bracket B is dropped.

Rules are applied R1 first, then R2, each in one pass over the bracket
pairs in position order, so traces are deterministic.  R1 needs one
pass: R2 only drops brackets, so every pair left was found dependent.
R2's pass skips pairs that touch a dropped bracket and ends at a
fixpoint: a decision depends on its pair's masks alone, so a drop changes
none, and a scan restarted after it would find every earlier pair still
not firing.

Both rules work on bracket masks (bit ``i - 1`` for index ``i``).  Each
table keeps, per ``eps``, the decision of every mask pair a rule tested,
keyed by ``(x << n | y) << 1 | rule`` (0 for R1; 1 for R2, "x is a
function of y"): the rule's trace step, or ``""`` where it does not fire.
A missing R1 decision is made through
:func:`~infatom.dist.mutual_information`, the rule's definition.  A
missing R2 decision subtracts two mask entropies, ``H(x | y) - H(y)``
(``|`` the mask union), as :func:`~infatom.dist.is_deterministic_function`
does.  Entropies come from :mod:`infatom.dist`'s memo: term sizes and R2
read it by mask through ``dist._mask_entropy`` (a two-bracket size is
``dist._mask_mi``, the value of ``mutual_information``), and the
trivariate bounds read the seven subsets through
:func:`~infatom.dist.entropy`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, permutations

from .dist import (DEFAULT_EPS, ProbTable, _mask_entropy, _mask_mi, _mask_positions, entropy,
                   mutual_information)
from .errors import AntichainError, InfeasibleRedundancy, RedundancyValueError, WrongArity, _Record
from .lattice import Antichain


class TermValue(_Record):
    """Size of a term in bits: exact, or an undetermined interval.

    ``value`` is None for intervals; ``bounds`` always brackets the true
    size and collapses onto ``value`` when exact.  ``trace`` records the
    reduction rules applied, in order.
    """

    def __init__(self, value: float | None, bounds: tuple[float, float],
                 trace: tuple[str, ...] = ()) -> None:
        self.__dict__.update(value=value, bounds=bounds, trace=trace, _key=(value, bounds, trace))

    @property
    def is_exact(self) -> bool:
        return self.value is not None

    @property
    def kind(self) -> str:
        return "exact" if self.is_exact else "interval"

    @classmethod
    def exact(cls, value: float, trace: tuple[str, ...] = ()) -> "TermValue":
        return cls(value, (value, value), trace)

    @classmethod
    def interval(cls, lo: float, hi: float, trace: tuple[str, ...] = ()) -> "TermValue":
        return cls(None, (lo, hi), trace)


def _masks(a: Antichain, n: int) -> tuple[int, ...]:
    """``a``'s bracket masks, checked against a table over ``n`` variables.
    A mask has a bit per index up to the largest, so masks not yet built
    (and kept in ``a.__dict__``) are built once every index is at most n."""
    masks = a.__dict__.get("masks")
    if masks is None and max(map(max, a.brackets), default=0) <= n:
        masks = a.masks
    if masks == ():
        raise AntichainError("cannot evaluate the empty antichain directly")
    # Brackets are disjoint, so the largest mask holds the largest index.
    if masks is None or max(masks) >> n:
        raise AntichainError(f"{a} uses indices beyond the table's {n} variables")
    return masks


@lru_cache(maxsize=1 << 12)
def _btext(mask: int) -> str:
    # Bit i - 1 of a mask is 1-based index i.
    return "{" + ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1) + "}"


def _decide(table: ProbTable, decided: dict[int, str], key: int, x: int, y: int,
            eps: float) -> str:
    """Make, store and return ``decided[key]``, the decision on masks ``x``,
    ``y`` of the rule in the key's low bit (see the module docstring)."""
    if key & 1:  # x given y carries at most eps bits
        step = "R2({}<={})" if _mask_entropy(table, x | y) - _mask_entropy(table, y) <= eps else ""
    else:
        mi = mutual_information(table, _mask_positions(x), _mask_positions(y))
        step = "R1({},{})" if mi <= eps else ""
    decided[key] = step = step.format(_btext(x), _btext(y)) if step else ""
    return step


def reduce_antichain(
    table: ProbTable, a: Antichain, *, eps: float = DEFAULT_EPS
) -> tuple[Antichain | None, tuple[str, ...]]:
    """Apply R1, then R2, one pass each (see the module docstring).

    Returns ``(None, trace)`` when R1 proved the term empty, otherwise
    the reduced antichain (term sizes are equal along the whole trace).
    When no rule fires that is ``a`` itself, with an empty trace.
    """
    n = table.n
    masks = _masks(a, n)
    decided = table._decisions.get(eps)
    if decided is None:
        decided = table._decisions[eps] = {}
    for x, y in combinations(masks, 2):
        key = (x << n | y) << 1
        step = decided.get(key)
        if step is None:
            step = _decide(table, decided, key, x, y, eps)
        if step:
            return None, (step,)
    gone = 0  # the OR of the dropped masks, which are disjoint
    trace: list[str] = []
    for x, y in permutations(masks, 2):
        if (x | y) & gone:
            continue
        key = (x << n | y) << 1 | 1
        step = decided.get(key)
        if step is None:
            step = _decide(table, decided, key, x, y, eps)
        if step:
            trace.append(step)
            gone |= y
    if not trace:
        return a, ()
    kept = tuple(m for m in masks if not m & gone)
    # The kept masks are a subsequence of the canonical ones, as are their brackets.
    brackets = tuple(b for b, m in zip(a.brackets, masks) if not m & gone)
    return Antichain._trusted(brackets, kept), tuple(trace)


def eval_term(
    table: ProbTable,
    a: Antichain,
    *,
    eps: float = DEFAULT_EPS,
    reduction: tuple[Antichain | None, tuple[str, ...]] | None = None,
) -> TermValue:
    """Size of the term labeled by ``a`` on ``table``, in bits.

    Exact for one bracket (joint entropy), two brackets (mutual
    information), and any antichain the reduction rules bring down that
    far.  Otherwise an interval: for three surviving brackets the lower
    bound is ``max(0, I_3)`` of the bracket-joints, for more it is 0; the
    upper bound is the smallest pairwise mutual information.

    ``reduction``, if given, must be ``reduce_antichain(table, a, eps=eps)``;
    a caller that already holds it passes it instead of reducing again.
    ``a``'s masks are checked against the table once per call: here for
    one bracket or none, and otherwise by the reduction.
    """
    if len(a.brackets) < 2:
        return TermValue.exact(_mask_entropy(table, _masks(a, table.n)[0]))
    if reduction is None:
        reduction = reduce_antichain(table, a, eps=eps)
    reduced, trace = reduction
    if reduced is None:
        return TermValue.exact(0.0, trace)
    masks = reduced.masks
    if len(masks) == 1:
        return TermValue.exact(_mask_entropy(table, masks[0]), trace)
    if len(masks) == 2:
        return TermValue.exact(_mask_mi(table, *masks), trace)
    # Each sum in the order mutual_information and interaction_information
    # use, so every bound is bit-identical to their values.
    h = {m: _mask_entropy(table, m) for m in masks}
    mi = [h[x] + h[y] - _mask_entropy(table, x | y) for x, y in combinations(masks, 2)]
    lo = 0.0
    if len(masks) == 3:
        x, y, z = masks
        lo = max(0.0, h[x] + h[y] + h[z] - _mask_entropy(table, x | y)
                 - _mask_entropy(table, x | z) - _mask_entropy(table, y | z)
                 + _mask_entropy(table, x | y | z))
    return TermValue.interval(lo, min(mi), trace)


# ---------------------------------------------------------------------------
# Trivariate inclusion-exclusion with the distributivity gap
# ---------------------------------------------------------------------------


_TRIVARIATE_SUBSETS = tuple(map(_mask_positions, (1, 2, 4, 3, 5, 6, 7)))


def _trivariate_entropies(table: ProbTable) -> list[float]:
    """``H1, H2, H3, H12, H13, H23, H123`` of a 3-variable table, read from
    its entropy memo after the first call.  Raises :class:`WrongArity`
    for any other table."""
    if table.n != 3:
        raise WrongArity(f"expected 3 variables, got {table.n}")
    return [entropy(table, s) for s in _TRIVARIATE_SUBSETS]


def _co_information(h: list[float]) -> float:
    """``I_3`` from the entropies of :func:`_trivariate_entropies`, summed
    in the order ``interaction_information`` sums them, so bit-identical
    to its value."""
    h1, h2, h3, h12, h13, h23, h123 = h
    return h1 + h2 + h3 - h12 - h13 - h23 + h123


def _bounds(h: list[float]) -> tuple[float, float]:
    # Mutual informations are summed as mutual_information sums them.
    h1, h2, h3, h12, h13, h23, _ = h
    return max(0.0, _co_information(h)), min(h1 + h2 - h12, h1 + h3 - h13, h2 + h3 - h23)


def redundancy_bounds(table: ProbTable) -> tuple[float, float]:
    """Feasible range of the triple-intersection size for 3 variables.

    ``lo = max(0, I_3)`` and ``hi = min`` of the pairwise mutual
    informations; ``lo <= hi`` holds for every distribution.  Both are
    bit-identical to the values of ``interaction_information`` and
    ``mutual_information``.
    """
    return _bounds(_trivariate_entropies(table))


def _check_feasible(r: float, lo: float, hi: float, eps: float) -> float:
    """``r`` as a float clamped into ``[lo, hi]``; refused unless a finite
    real number within ``eps`` of it.  A bool, or a value with no
    ``__float__`` (a string, None), is not read as a number."""
    try:
        x = float(r) if r.__class__ is not bool and hasattr(type(r), "__float__") else math.nan
    except OverflowError:  # an int or Fraction beyond the float range
        x = math.nan
    if not math.isfinite(x):
        raise RedundancyValueError(f"redundancy value must be a finite real number, got {r!r}")
    if not (lo - eps <= x <= hi + eps):
        raise InfeasibleRedundancy(
            f"r = {r!r} outside feasible interval [{lo!r}, {hi!r}]"
        )
    return min(max(x, lo), hi)


def _feasible_entropies(table: ProbTable, r: float, eps: float) -> tuple[list[float], float]:
    """:func:`_trivariate_entropies`, and ``r`` as :func:`_check_feasible`
    reads it against the bounds they give."""
    h = _trivariate_entropies(table)
    return h, _check_feasible(r, *_bounds(h), eps)


def delta_H(table: ProbTable, r: float, *, eps: float = DEFAULT_EPS) -> float:
    """Distributivity gap for a 3-variable system, given the triple size.

    With ``r`` assigned to the triple intersection, the gap between
    "(X u Y) n Z" and "(X n Z) u (Y n Z)" measures ``r - I_3``.  It is
    non-negative for feasible ``r`` and invariant under variable
    permutations.
    """
    h, r = _feasible_entropies(table, r, eps)
    return r - _co_information(h)


def check_inclusion_exclusion3(
    table: ProbTable, r: float, *, eps: float = DEFAULT_EPS
) -> float:
    """Residual of the 3-variable inclusion-exclusion identity.

    ``H(X1 u X2 u X3) - [sum H(Xi) - sum I(Xi;Xj) + r - delta_H(r)]``.
    The ``r``-dependence cancels, so the residual is zero (to floating
    point) for every distribution and every feasible ``r``.  The seven
    subset entropies are read once, and every partial sum is the one
    ``delta_H`` and ``mutual_information`` compute.
    """
    h, r = _feasible_entropies(table, r, eps)
    h1, h2, h3, h12, h13, h23, h123 = h
    gap = r - _co_information(h)
    i12 = h1 + h2 - h12
    i13 = h1 + h3 - h13
    i23 = h2 + h3 - h23
    return h123 - (h1 + h2 + h3 - i12 - i13 - i23 + r - gap)
