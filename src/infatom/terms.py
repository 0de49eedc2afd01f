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

Rules are applied R1 first, then R2, iterated to a fixpoint, scanning
bracket pairs in position order so reduction traces are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .dist import (
    DEFAULT_EPS,
    ProbTable,
    entropy,
    interaction_information,
    is_deterministic_function,
    mutual_information,
)
from .errors import AntichainError, InfeasibleRedundancy, WrongArity
from .lattice import Antichain


@dataclass(frozen=True)
class TermValue:
    """Size of a term in bits: exact, or an undetermined interval.

    ``value`` is None for intervals; ``bounds`` always brackets the true
    size and collapses onto ``value`` when exact.  ``trace`` records the
    reduction rules applied, in order.
    """

    value: float | None
    bounds: tuple[float, float]
    trace: tuple[str, ...] = ()

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


def _bracket_sets(table: ProbTable, a: Antichain) -> list[frozenset[int]]:
    if a.is_empty:
        raise AntichainError("cannot evaluate the empty antichain directly")
    if a.indices[-1] > table.n:
        raise AntichainError(f"{a} uses indices beyond the table's {table.n} variables")
    # Antichain indices are 1-based labels; tables use 0-based positions.
    return [frozenset(i - 1 for i in b) for b in a.brackets]


def _btext(bracket: frozenset[int]) -> str:
    return "{" + ",".join(str(i + 1) for i in sorted(bracket)) + "}"


def reduce_antichain(
    table: ProbTable, a: Antichain, *, eps: float = DEFAULT_EPS
) -> tuple[Antichain | None, tuple[str, ...]]:
    """Apply R1/R2 to a fixpoint.

    Returns ``(None, trace)`` when R1 proved the term empty, otherwise
    the reduced antichain (term sizes are equal along the whole trace).
    """
    brackets = _bracket_sets(table, a)
    trace: list[str] = []
    while len(brackets) >= 2:
        for x, y in combinations(brackets, 2):
            if mutual_information(table, x, y) <= eps:
                trace.append(f"R1({_btext(x)},{_btext(y)})")
                return None, tuple(trace)
        pair = next(
            (p for p in permutations(brackets, 2) if is_deterministic_function(table, *p, eps=eps)),
            None,
        )
        if pair is None:
            break
        trace.append(f"R2({_btext(pair[0])}<={_btext(pair[1])})")
        brackets.remove(pair[1])  # brackets are disjoint, so distinct
    reduced = Antichain.of(*[[i + 1 for i in b] for b in brackets])
    return reduced, tuple(trace)


def eval_term(
    table: ProbTable, a: Antichain, *, eps: float = DEFAULT_EPS
) -> TermValue:
    """Size of the term labeled by ``a`` on ``table``, in bits.

    Exact for one bracket (joint entropy), two brackets (mutual
    information), and any antichain the reduction rules bring down that
    far.  Otherwise an interval: for three surviving brackets the lower
    bound is ``max(0, I_3)`` of the bracket-joints, for more it is 0; the
    upper bound is the smallest pairwise mutual information.
    """
    brackets = _bracket_sets(table, a)
    if len(brackets) == 1:
        return TermValue.exact(entropy(table, brackets[0]))
    reduced, trace = reduce_antichain(table, a, eps=eps)
    if reduced is None:
        return TermValue.exact(0.0, trace)
    sets = _bracket_sets(table, reduced)
    if len(sets) == 1:
        return TermValue.exact(entropy(table, sets[0]), trace)
    if len(sets) == 2:
        return TermValue.exact(mutual_information(table, sets[0], sets[1]), trace)
    lo = 0.0
    if len(sets) == 3:
        lo = max(0.0, interaction_information(table, sets))
    hi = min(mutual_information(table, x, y) for x, y in combinations(sets, 2))
    return TermValue.interval(lo, hi, trace)


# ---------------------------------------------------------------------------
# Trivariate inclusion-exclusion with the distributivity gap
# ---------------------------------------------------------------------------


def redundancy_bounds(table: ProbTable) -> tuple[float, float]:
    """Feasible range of the triple-intersection size for 3 variables.

    ``lo = max(0, I_3)`` and ``hi = min`` of the pairwise mutual
    informations; ``lo <= hi`` holds for every distribution.
    """
    if table.n != 3:
        raise WrongArity(f"expected 3 variables, got {table.n}")
    i12 = mutual_information(table, [0], [1])
    i13 = mutual_information(table, [0], [2])
    i23 = mutual_information(table, [1], [2])
    i3 = interaction_information(table, [[0], [1], [2]])
    return max(0.0, i3), min(i12, i13, i23)


def _check_feasible(r: float, lo: float, hi: float, eps: float) -> None:
    if not (lo - eps <= r <= hi + eps):
        raise InfeasibleRedundancy(
            f"r = {r!r} outside feasible interval [{lo!r}, {hi!r}]"
        )


def delta_H(table: ProbTable, r: float, *, eps: float = DEFAULT_EPS) -> float:
    """Distributivity gap for a 3-variable system, given the triple size.

    With ``r`` assigned to the triple intersection, the gap between
    "(X u Y) n Z" and "(X n Z) u (Y n Z)" measures ``r - I_3``.  It is
    non-negative for feasible ``r`` and invariant under variable
    permutations.
    """
    _check_feasible(r, *redundancy_bounds(table), eps)
    return r - interaction_information(table, [[0], [1], [2]])


def check_inclusion_exclusion3(
    table: ProbTable, r: float, *, eps: float = DEFAULT_EPS
) -> float:
    """Residual of the 3-variable inclusion-exclusion identity.

    ``H(X1 u X2 u X3) - [sum H(Xi) - sum I(Xi;Xj) + r - delta_H(r)]``.
    The ``r``-dependence cancels, so the residual is zero (to floating
    point) for every distribution and every feasible ``r``.
    """
    gap = delta_H(table, r, eps=eps)
    h1 = entropy(table, [0])
    h2 = entropy(table, [1])
    h3 = entropy(table, [2])
    i12 = mutual_information(table, [0], [1])
    i13 = mutual_information(table, [0], [2])
    i23 = mutual_information(table, [1], [2])
    lhs = entropy(table, [0, 1, 2])
    return lhs - (h1 + h2 + h3 - i12 - i13 - i23 + r - gap)
