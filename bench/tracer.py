"""Per-layer tracing of ``infatom`` from outside the package.

:class:`Tracer` wraps every public function of ``dist``, ``lattice``,
``terms``, ``decomp`` and ``cli`` (plus ``Antichain.parse`` and
``LatticeView.hasse_edges``).  ``terms`` and ``decomp`` bind names such as
``entropy`` and ``leq`` with ``from .x import name`` and ``__init__``
re-exports them, so each wrapper replaces every attribute of every
``infatom`` module that holds the original function object.

Calls are aggregated per (parent layer, layer) edge instead of being kept
as one span per call: ``leq`` alone runs about 80k times per n = 5 Hasse
build.  A layer's self time is its duration minus the time of the wrapped
calls made beneath it.  A few counters are read from arguments and return
values: rows scanned and distinct (table, subset) pairs for ``entropy``,
R1/R2 firings from reduction traces, interval results of ``eval_term`` and
rows checked by ``validate``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

from infatom import lattice

TRACED_MODULES = ("dist", "lattice", "terms", "decomp", "cli")

#: Functions reported under a shared layer name.
RENAMED = {
    "dist.dump_csv": "dist.dump",
    "dist.dump_json": "dist.dump",
    "decomp.decomposition_to_json": "decomp.json",
    "decomp.decomposition_from_json": "decomp.json",
}


#: Counters read from arguments and results rather than from call edges.
COUNTED = (
    "dist.rows_scanned",
    "terms.r1_fired",
    "terms.r2_fired",
    "decomp.validate.rows",
    "decomp.validate.pairs",
)


class Tracer:
    """Installs wrappers on entry and restores the originals on exit.

    Nothing is recorded until :meth:`phase` names a root: ``INPUT`` while
    an op's inputs are built, ``OP`` while the op runs.
    """

    INPUT = "<input>"
    OP = "<op>"

    def __init__(self) -> None:
        # (parent, name) -> [calls, total seconds, self seconds]
        self.edges: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()
        self.active = False
        self._stack = [self.OP]
        self._child = [0.0]
        self._tables: dict[int, object] = {}
        self._subsets: set[tuple[int, frozenset]] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        mods = [m for name, m in sys.modules.items() if name == "infatom" or name.startswith("infatom.")]
        for short in TRACED_MODULES:
            mod = sys.modules[f"infatom.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = RENAMED.get(f"{short}.{attr}", f"{short}.{attr}")
                self._rebind(mods, obj, self._wrap(name, obj))
        parse = vars(lattice.Antichain)["parse"]
        self._set(lattice.Antichain, "parse", classmethod(self._wrap("lattice.parse", parse.__func__)))
        hasse = lattice.LatticeView.hasse_edges
        self._set(lattice.LatticeView, "hasse_edges", self._wrap("lattice.hasse_edges", hasse))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def phase(self, root: str | None) -> None:
        """Record calls under ``root`` from now on, or nothing if None."""
        self.active = root is not None
        if root is not None:
            self._stack[0] = root

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind(self, mods, original, wrapper) -> None:
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    self._set(mod, attr, wrapper)

    def _wrap(self, name: str, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        stack, child, edges = self._stack, self._child, self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            stack.append(name)
            child.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                stack.pop()
                below = child.pop()
                child[-1] += took
                edge = edges.get((parent, name))
                if edge is None:
                    edge = edges[(parent, name)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += took
                edge[2] += took - below
            if observe is not None:
                observe(args, result)
            return result

        if hasattr(fn, "cache_clear"):
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    # -- counters read from arguments and results ----------------------------

    def _observe_dist_entropy(self, args, result) -> None:
        table, subset = args[0], args[1]
        if iter(subset) is subset:
            raise TypeError("entropy got a one-shot iterator; the tracer cannot read it")
        # Holding each table keeps its id unique for the whole run.
        self._tables[id(table)] = table
        self._subsets.add((id(table), frozenset(subset)))
        self.counts["dist.rows_scanned"] += len(table.rows)

    def _observe_terms_reduce_antichain(self, args, result) -> None:
        for step in result[1]:
            self.counts["terms.r1_fired" if step.startswith("R1") else "terms.r2_fired"] += 1

    def _observe_terms_eval_term(self, args, result) -> None:
        self.counts["terms.eval_term.intervals"] += not result.is_exact

    def _observe_decomp_validate(self, args, result) -> None:
        rows = len(args[0].table.rows)
        self.counts["decomp.validate.rows"] += rows
        self.counts["decomp.validate.pairs"] += rows * rows

    # -- results --------------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(e[0] for (_, n), e in self.edges.items() if n == name)

    def self_ms(self, name: str) -> float:
        return 1000.0 * sum(e[2] for (_, n), e in self.edges.items() if n == name)

    def edge_calls(self, parent: str, name: str) -> int:
        edge = self.edges.get((parent, name))
        return edge[0] if edge else 0

    @property
    def distinct_subsets(self) -> int:
        return len(self._subsets)

    def layer_value(self, metric: str) -> float:
        """Value of a per-layer metric name such as ``lattice.leq.calls``."""
        if metric in COUNTED:
            return self.counts[metric]
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            return self.calls(layer)
        if stat == "self_ms":
            return self.self_ms(layer)
        if metric == "dist.entropy.distinct":
            return self.distinct_subsets
        if metric == "dist.entropy.repeat_ratio":
            return self.calls("dist.entropy") / max(1, self.distinct_subsets)
        if metric == "terms.eval_term.interval_frac":
            return self.counts["terms.eval_term.intervals"] / max(1, self.calls("terms.eval_term"))
        raise KeyError(metric)

    def missing_edges(self, required) -> list[str]:
        return [f"{p} -> {n}" for p, n in required if self.edge_calls(p, n) == 0]

    def table(self) -> list[str]:
        """Edges by self time, for the human-readable report."""
        lines = []
        for (parent, name), (n, total, own) in sorted(self.edges.items(), key=lambda kv: -kv[1][2]):
            lines.append(f"    {parent:34s} -> {name:36s} {n:8d} calls {1000 * own:10.2f} ms self")
        return lines
