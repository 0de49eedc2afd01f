"""The benchmark's three workloads: seeded inputs, ops and output checks.

A workload is a fixed cycle of op kinds.  ``op(i)`` builds the inputs of
the ``i``-th op from the seed (outside the timed interval) and returns an
:class:`Op` whose ``run`` is timed and whose ``check`` is not.  Every op
gets freshly built table objects, so a cache attached to a table cannot
carry over from one op to the next.

The checks compare against references computed here, never against the
package's own answers: entropies from ``table.rows``, lattice sizes and
Hasse edges by brute force, and SHA-256 digests of the CLI's output.

``infatom`` is reached through module attributes only (``decomp.validate``,
not ``from infatom.decomp import validate``), so the tracer's rebinding of
module attributes also covers the benchmark's own calls.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

import infatom
from infatom import cli, decomp, dist, lattice, terms

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
HASHES_FILE = BENCH_DIR / "cli_hashes.json"

#: Tolerance of every numerical check, in bits.
TOL = 1e-9

#: Antichain counts for n = 1..5.
LATTICE_SIZES = (1, 4, 14, 51, 202)


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def ref_entropy(table, idx) -> float:
    """Joint entropy in bits of the 0-based positions ``idx``, from the rows."""
    acc: dict[tuple, float] = {}
    for outcome, p in table.rows:
        key = tuple(outcome[i] for i in idx)
        acc[key] = acc.get(key, 0.0) + p
    return -math.fsum(p * math.log2(p) for p in acc.values() if p > 0.0)


def ref_mi(table, a, b) -> float:
    return ref_entropy(table, a) + ref_entropy(table, b) - ref_entropy(table, sorted(set(a) | set(b)))


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= TOL


def laws_hold(d, table) -> bool:
    """Conservation law, total law and every single-bracket term sum."""
    sizes = [a.size for a in d.atoms.atoms]
    weighted = math.fsum(a.covering * a.size for a in d.atoms.atoms)
    singles = math.fsum(ref_entropy(table, [k]) for k in range(table.n))
    if not _close(weighted, singles):
        return False
    if not _close(math.fsum(sizes), ref_entropy(table, range(table.n))):
        return False
    n_single = 0
    for a, row in zip(d.table.rows, d.table.entries):
        if a.covering != 1:
            continue
        n_single += 1
        term = math.fsum(s for s, flag in zip(sizes, row) if flag)
        if not _close(term, ref_entropy(table, [i - 1 for i in a.brackets[0]])):
            return False
    return n_single == 2**table.n - 1


def _partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [part[k] | {first}] + part[k + 1 :]
        yield [{first}] + part


def ref_antichains(n: int) -> list[frozenset]:
    """Every partition of every non-empty subset of 1..n, as sets of sets."""
    out = []
    for k in range(1, n + 1):
        for subset in combinations(range(1, n + 1), k):
            for part in _partitions(list(subset)):
                out.append(frozenset(frozenset(b) for b in part))
    return out


def ref_hasse(n: int) -> set[tuple[frozenset, frozenset]]:
    """Cover pairs of the antichain order, by brute force over all pairs."""
    elems = ref_antichains(n)

    def leq(a, b):
        return all(any(x <= y for x in a) for y in b)

    size = len(elems)
    up = [0] * size
    down = [0] * size
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            if i != j and leq(a, b):
                up[i] |= 1 << j
                down[j] |= 1 << i
    return {
        (elems[i], elems[j])
        for i in range(size)
        for j in range(size)
        if up[i] >> j & 1 and not up[i] & down[j]
    }


def as_sets(a) -> frozenset:
    return frozenset(frozenset(b) for b in a.brackets)


# ---------------------------------------------------------------------------
# sweep3: criterion 5 and scan, the package's hot loop
# ---------------------------------------------------------------------------


class Sweep3:
    """One op per seeded random 3-variable table, cards cycling 2, 3, 4."""

    name = "sweep3"
    kinds = ("card2", "card3", "card4")

    def __init__(self, seed: int, workdir: Path | None = None) -> None:
        self.seed = seed
        lattice.enumerate_antichains(3)

    def op(self, i: int) -> Op:
        card = 2 + i % 3
        table = dist.random_table(f"{self.seed}:{i}", (card,) * 3)
        u = random.Random(f"{self.seed}:{i}:r").random()

        def run():
            lo, hi = decomp.feasible_interval(table)
            r = lo + u * (hi - lo)
            sols = [decomp.solve_trivariate(table, x) for x in (lo, hi, r)]
            residual = terms.check_inclusion_exclusion3(table, r)
            try:
                sols.append(decomp.solve_set_theoretic(table))
            except infatom.NotSetTheoretic:
                pass
            return lo, hi, residual, sols

        def check(result) -> bool:
            lo, hi, residual, sols = result
            i12 = ref_mi(table, [0], [1])
            i13 = ref_mi(table, [0], [2])
            i23 = ref_mi(table, [1], [2])
            i3 = i12 + ref_entropy(table, [2]) - ref_entropy(table, [0, 2]) - ref_entropy(
                table, [1, 2]
            ) + ref_entropy(table, [0, 1, 2])
            return (
                _close(lo, max(0.0, i3))
                and _close(hi, min(i12, i13, i23))
                and abs(residual) <= TOL
                and all(laws_hold(d, table) for d in sols)
            )

        return Op(self.kinds[i % 3], run, check)


# ---------------------------------------------------------------------------
# certify: validation and lattice jobs at n = 4..5
# ---------------------------------------------------------------------------


class Certify:
    """The validator and the lattice at n = 4-5, where time grows fastest."""

    name = "certify"
    kinds = (
        "validate_trivariate",
        "validate_parity4",
        "validate_parity5",
        "lift_parity4",
        "lift_trivariate",
        "hasse5",
        "eval_terms5",
    )

    def __init__(self, seed: int, workdir: Path | None = None) -> None:
        self.seed = seed
        self.parity = {n: decomp.solve_n_parity(n) for n in (4, 5)}
        self.view5 = lattice.enumerate_antichains(5)
        self._hasse_ref: set | None = None

    def _trivariate(self, cycle: int):
        table = dist.random_table(f"{self.seed}:{cycle}:t3", (3, 3, 3))
        lo, hi = decomp.feasible_interval(table)
        u = random.Random(f"{self.seed}:{cycle}:r").random()
        return table, decomp.solve_trivariate(table, lo + u * (hi - lo))

    def op(self, i: int) -> Op:
        kind = self.kinds[i % len(self.kinds)]
        cycle = i // len(self.kinds)
        if kind == "validate_trivariate":
            table, d = self._trivariate(cycle)
            return self._validate_op(kind, d, table, 14)
        if kind in ("validate_parity4", "validate_parity5"):
            n = int(kind[-1])
            return self._validate_op(kind, self.parity[n], dist.parity_gate(n), LATTICE_SIZES[n - 1])
        if kind in ("lift_parity4", "lift_trivariate"):
            if kind == "lift_parity4":
                table, d = dist.parity_gate(4), self.parity[4]
            else:
                table, d = self._trivariate(cycle)
            return self._lift_op(kind, d, table)
        if kind == "hasse5":
            return Op(kind, self.view5.hasse_edges, self._check_hasse)
        table = dist.random_table(f"{self.seed}:{cycle}:t5", (2,) * 5)
        return Op(
            kind,
            lambda: [terms.eval_term(table, a) for a in self.view5.elements],
            lambda values: self._check_terms(table, values),
        )

    def _validate_op(self, kind, d, table, rows) -> Op:
        return Op(
            kind,
            lambda: decomp.validate(d, table),
            lambda report: report.passed and len(d.table.rows) == rows,
        )

    def _lift_op(self, kind, d, table) -> Op:
        extended = dist.extend_with_joint(table)

        def run():
            lifted = decomp.lift_decomposition(d, table)
            return lifted, decomp.validate(lifted, extended)

        def check(result) -> bool:
            lifted, report = result
            coverings = [a.covering + 1 for a in d.atoms.atoms]
            return (
                report.passed
                and len(lifted.table.rows) == LATTICE_SIZES[d.n]
                and [a.covering for a in lifted.atoms.atoms] == coverings
            )

        return Op(kind, run, check)

    def _check_hasse(self, edges) -> bool:
        if self._hasse_ref is None:
            self._hasse_ref = ref_hasse(5)
        sizes = tuple(len(lattice.enumerate_antichains(n)) for n in range(1, 6))
        got = {(as_sets(a), as_sets(b)) for a, b in edges}
        return sizes == LATTICE_SIZES and len(edges) == len(got) and got == self._hasse_ref

    def _check_terms(self, table, values) -> bool:
        if len(values) != LATTICE_SIZES[4]:
            return False
        for a, tv in zip(self.view5.elements, values):
            lo, hi = tv.bounds
            if lo > hi + TOL:
                return False
            brackets = [[i - 1 for i in b] for b in a.brackets]
            if len(brackets) == 1:
                want = ref_entropy(table, brackets[0])
            elif len(brackets) == 2:
                want = ref_mi(table, *brackets)
            else:
                continue
            if not (tv.is_exact and abs(tv.value - want) <= 2 * TOL):
                return False
        return True


# ---------------------------------------------------------------------------
# cli: the end-to-end pipelines, one subprocess or pipeline at a time
# ---------------------------------------------------------------------------


def load_hashes() -> dict[str, dict[str, str]]:
    if not HASHES_FILE.exists():
        return {}
    return json.loads(HASHES_FILE.read_text())


def digest(outs: tuple[bytes, ...]) -> str:
    """SHA-256 of an op's outputs, NUL-separated."""
    return hashlib.sha256(b"\0".join(outs)).hexdigest()


class Cli:
    """``python -m infatom.cli`` pipelines on seeded input files.

    Each op's result is ``(exit codes, outputs)``: the standard output of
    every stage whose output no later stage consumes through a pipe.  The
    inputs are fixed for the run, so every cycle must print the same
    bytes, and for a seed listed in ``cli_hashes.json`` the bytes recorded
    there.
    """

    name = "cli"
    kinds = (
        "gate_pipe",
        "gate_random6",
        "decompose_validate_lift",
        "validate_tampered",
        "scan",
        "lattice_dot",
        "info6",
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        self.t3 = dist.random_table(f"{seed}:cli3", (3, 3, 3))
        tampered = json.loads(decomp.decomposition_to_json(decomp.solve_trivariate(self.t3)))
        tampered["atoms"][1]["size"] += 0.25
        gate6 = f"random({seed},[4,4,4,4,4,4])"
        self.t6_csv = dist.dump_csv(dist.gen_gate(gate6))
        files = {
            "t3.csv": dist.dump_csv(self.t3),
            "bad3.json": json.dumps(tampered) + "\n",
            "t4.csv": dist.dump_csv(dist.random_table(f"{seed}:cli4", (2,) * 4)),
            "t6.csv": self.t6_csv,
        }
        for name, text in files.items():
            (workdir / name).write_text(text)
        f = {name: str(workdir / name) for name in files}
        # kind -> (stages, chained).  Unchained stages run at once, each
        # reading the previous one through a pipe; chained stages run in
        # turn, each later one reading the first one's output.
        self.pipelines: dict[str, tuple[list[list[str]], bool]] = {
            "gate_pipe": ([["gate", "xor"], ["decompose", "-"]], False),
            "gate_random6": ([["gate", gate6]], False),
            "decompose_validate_lift": (
                [
                    ["decompose", "--json", f["t3.csv"]],
                    ["validate", "-", f["t3.csv"]],
                    ["lift", "-", f["t3.csv"]],
                ],
                True,
            ),
            "validate_tampered": ([["validate", f["bad3.json"], f["t3.csv"]]], False),
            "scan": ([["scan", "--samples", "200", "--seed", str(seed)]], False),
            "lattice_dot": ([["lattice", "4", "--dot", "--dist", f["t4.csv"]]], False),
            "info6": ([["info", f["t6.csv"]]], False),
        }
        self.expected_codes = {k: (0,) * len(v[0]) for k, v in self.pipelines.items()}
        self.expected_codes["validate_tampered"] = (1,)
        self.recorded = load_hashes().get(str(seed), {})
        self.first: dict[str, tuple[bytes, ...]] = {}
        self.checked: dict[tuple[str, tuple[bytes, ...]], bool] = {}
        self.env = {k: v for k, v in os.environ.items() if k != "INFATOM_EPS"}
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def op(self, i: int) -> Op:
        kind = self.kinds[i % len(self.kinds)]
        return Op(kind, lambda: self.spawn(kind), lambda result: self.check(kind, result))

    def spawn(self, kind: str) -> tuple[tuple[int, ...], tuple[bytes, ...]]:
        """Run the op's stages as subprocesses of ``python -m infatom.cli``."""
        stages, chained = self.pipelines[kind]
        base = [sys.executable, "-m", "infatom.cli"]
        if chained:
            runs = []
            for k, argv in enumerate(stages):
                data = runs[0].stdout if k else b""
                runs.append(subprocess.run(base + argv, input=data, stdout=subprocess.PIPE,
                                           stderr=subprocess.DEVNULL, env=self.env, cwd=ROOT))
            return tuple(r.returncode for r in runs), tuple(r.stdout for r in runs)
        procs = []
        stdin = subprocess.DEVNULL
        for argv in stages:
            proc = subprocess.Popen(base + argv, stdin=stdin, stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL, env=self.env, cwd=ROOT)
            if procs:
                procs[-1].stdout.close()
            procs.append(proc)
            stdin = proc.stdout
        out = procs[-1].communicate()[0]
        return tuple(p.wait() for p in procs), (out,)

    def call_main(self, kind: str) -> tuple[tuple[int, ...], tuple[bytes, ...]]:
        """The same stages through ``cli.main`` in this process."""
        stages, chained = self.pipelines[kind]
        codes, outs = [], []
        text = ""
        saved_stdin = sys.stdin
        try:
            for k, argv in enumerate(stages):
                sys.stdin = io.StringIO(text)
                clear_lattice_cache()
                buf = io.StringIO()
                with redirect_stdout(buf):
                    codes.append(cli.main(argv))
                outs.append(buf.getvalue().encode())
                if k == 0 or not chained:
                    text = buf.getvalue()
        finally:
            sys.stdin = saved_stdin
        return tuple(codes), tuple(outs) if chained else (outs[-1],)

    def check(self, kind: str, result) -> bool:
        codes, outs = result
        if codes != self.expected_codes[kind]:
            return False
        if self.first.setdefault(kind, outs) != outs:
            return False
        if kind in self.recorded and self.recorded[kind] != digest(outs):
            return False
        key = (kind, outs)
        if key not in self.checked:
            self.checked[key] = self._semantic_check(kind, outs)
        return self.checked[key]

    def _semantic_check(self, kind: str, outs: tuple[bytes, ...]) -> bool:
        if kind == "gate_random6":
            return outs[0].decode() == self.t6_csv
        if kind == "decompose_validate_lift":
            solved = decomp.decomposition_from_json(outs[0].decode())
            lifted = decomp.decomposition_from_json(outs[2].decode())
            return (
                decomp.validate(solved, self.t3).passed
                and laws_hold(solved, self.t3)
                and all(c["pass"] for c in json.loads(outs[1])["checks"])
                and decomp.validate(lifted, dist.extend_with_joint(self.t3)).passed
            )
        if kind == "validate_tampered":
            return not all(c["pass"] for c in json.loads(outs[0])["checks"])
        return all(outs)


def clear_lattice_cache() -> None:
    """Forget cached lattices, as a new process would."""
    clear = getattr(lattice.enumerate_antichains, "cache_clear", None)
    if clear is not None:
        clear()


WORKLOADS = {w.name: w for w in (Sweep3, Certify, Cli)}


def temp_workdir() -> tempfile.TemporaryDirectory:
    """A scratch directory inside the benchmark's own directory."""
    return tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR)
