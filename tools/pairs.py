"""Paired benchmark runs of two checkouts, summarised by the pairs rule.

Usage, from anywhere::

    python3 tools/pairs.py PARENT CHANGE --workload sweep3 --seconds 30 --pairs 10

``PARENT`` and ``CHANGE`` are two checkouts of this repository.  Each pair
runs ``bench/run.py --workload W --seconds S --seed N`` once in each
checkout, one after the other; the side that goes first alternates from
pair to pair, so a drift in host speed favours neither.  Each run's last
line of output is its JSON result.

Every run has ``PYTHONDONTWRITEBYTECODE=1``, so no run writes bytecode, and
a checkout that holds a ``__pycache__`` directory is refused (exit 2) before
any run starts, so no run reads bytecode from a checkout either.  Runs
then match a default environment on both sides: the standard library's
cached bytecode is read, and the repository's own modules are compiled
from source.  A checkout holding ``__pycache__`` files would otherwise
start faster than one holding none.

Both sides must run the same benchmark: unless the two checkouts hold
``BENCHMARK.json`` and every file under ``bench/`` byte for byte alike,
the tool exits 2 before any run, naming the first file that differs.

For every end-to-end metric that ``BENCHMARK.json`` declares, the summary gives each side's median and quartiles over its runs
and the number of pairs the change won, ties counting for neither side.
It then reads the metric as:

* ``gain``: the change won at least nine pairs in ten, and the medians
  differ, in its favour, by more than the parent's quartile spread;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound, a fraction of the parent's median;
* ``unresolved``: neither, but the parent's quartile spread is wider than
  the bound allows, so a regression within it could not show;
* ``same``: none of the above.

The last line of output is the summary as one JSON object.  With
``--out PATH`` the summary is also written to ``PATH`` (a ``BENCH_*.json``
record) together with every run's metric values, ``sys.version``, the
bytecode settings of the runs (``env``) and each checkout's ``git
rev-parse HEAD`` (null outside a git checkout).  Standard library only;
nothing under ``bench/`` is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: The bytecode settings of every run, as the ``--out`` record states them.
BYTECODE_ENV = {"PYTHONDONTWRITEBYTECODE": "1"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The pairs rule for one metric; ``parent[i]`` and ``change[i]`` are pair i.

    ``better`` is ``"higher"`` or ``"lower"`` and ``bound`` the fraction of
    the parent's median by which the change may be worse."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same non-zero number of runs on each side")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = p3 - p1
    gained = sign * (cm - pm)
    allowed = bound * abs(pm)
    if 10 * wins >= 9 * len(parent) and gained > spread:
        verdict = "gain"
    elif -gained > allowed:
        verdict = "worse"
    elif spread > allowed:
        verdict = "unresolved"
    else:
        verdict = "same"
    return {
        "parent": {"median": pm, "q1": p1, "q3": p3},
        "change": {"median": cm, "q1": c1, "q3": c3},
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "spread": spread,
        "verdict": verdict,
    }


def run_bench(checkout: Path, workload: str, seconds: float, seed: int) -> dict[str, float]:
    """One benchmark run in ``checkout``; its end-to-end metric values."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--seed", str(seed)]
    env = {**os.environ, **BYTECODE_ENV}
    env.pop("PYTHONPYCACHEPREFIX", None)  # bytecode is read where Python keeps it
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env=env)
    if out.returncode != 0:
        raise SystemExit(f"pairs: {' '.join(cmd)} in {checkout} exited {out.returncode}:\n"
                         f"{out.stderr.strip()}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result.get("correct") or result.get("failed"):
        raise SystemExit(f"pairs: run in {checkout} reported failed ops: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def first_difference(parent: Path, change: Path) -> str | None:
    """The first of ``BENCHMARK.json`` and the files under ``bench/``, in
    order of relative path, that the two checkouts do not both hold with
    the same bytes; None if there is none."""
    def bench_files(root: Path) -> set[str]:
        return {f.relative_to(root).as_posix() for f in (root / "bench").rglob("*") if f.is_file()}

    for name in ["BENCHMARK.json", *sorted(bench_files(parent) | bench_files(change))]:
        a, b = parent / name, change / name
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            return name
    return None


def commit_of(checkout: Path) -> str | None:
    """The commit ``checkout`` has checked out, or None if git cannot tell."""
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--pairs", type=int, default=10, metavar="K")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, metavar="PATH",
                        help="also write the summary and every run's values as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for checkout in (args.parent, args.change):
        cache = next(checkout.rglob("__pycache__"), None)
        if cache is not None:
            print(f"pairs: {cache} holds bytecode; remove every __pycache__ from both checkouts",
                  file=sys.stderr)
            return 2
    differing = first_difference(args.parent, args.change)
    if differing is not None:
        print(f"pairs: {differing} differs between {args.parent} and {args.change}; "
              "both sides must run the same benchmark", file=sys.stderr)
        return 2
    spec = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            values = run_bench(getattr(args, side), args.workload, args.seconds, args.seed)
            runs[side].append(values)
            print(f"pair {k + 1} {side:6s} " + " ".join(
                f"{m['name']}={values[m['name']]:.4g}" for m in spec), file=sys.stderr)
    summary = {}
    for m in spec:
        name = m["name"]
        s = summary[name] = summarize([r[name] for r in runs["parent"]],
                                      [r[name] for r in runs["change"]], m["better"], m["bound"])
        print(f"{name:12s} parent {s['parent']['median']:.4g} [{s['parent']['q1']:.4g}, "
              f"{s['parent']['q3']:.4g}]  change {s['change']['median']:.4g} "
              f"[{s['change']['q1']:.4g}, {s['change']['q3']:.4g}]  "
              f"wins {s['wins']}/{s['pairs']}  {s['verdict']}")
    result = {"workload": args.workload, "seconds": args.seconds, "seed": args.seed,
              "metrics": summary}
    if args.out is not None:
        record = dict(result, python=sys.version, env=BYTECODE_ENV, runs=runs,
                      commits={side: commit_of(getattr(args, side)) for side in runs})
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
