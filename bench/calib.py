"""A fixed reference job that measures how fast the host runs right now.

The benchmark runs on shared hosts whose speed drifts: on a 2-vCPU Xeon VM
the same code ran 1.7x faster at one moment than 10 s earlier, in CPU time
as well as in wall time, so neither clock alone is steady.  The reference
job is interleaved with a workload's ops and timed the same way; dividing
an op's time by the reference job's time nearby removes the drift while
keeping every change of the program's own cost.

The job never touches ``infatom``, so nothing a change to the package does
can move it.  It is pure-Python work of the same kind as the package's:
dict and tuple building, float sums and logs, and subset tests on small
frozensets.

``python3 bench/calib.py REPS`` is the out-of-process form for the ``cli``
workload and for set-up: interpreter start, the standard-library imports
the CLI also makes, and ``REPS`` runs of the job.
"""

from __future__ import annotations

# argparse, re and dataclasses are unused here: they are imported for their
# start-up cost, which every CLI process pays too.
import argparse  # noqa: F401
import json
import math
import random
import re  # noqa: F401
import sys
from dataclasses import dataclass  # noqa: F401
from itertools import combinations

#: Reference times, in seconds, of one in-process job and of one
#: ``spawn_argv`` process.  They only fix the scale of the reported
#: metrics: a metric reads as it would on a host where the reference job
#: takes this long.
REF_JOB_S = 0.002
REF_SPAWN_S = 0.100

#: Jobs per calibration process.
SPAWN_REPS = 5


def _table() -> list[tuple[tuple[int, ...], float]]:
    rng = random.Random(20240403)
    outcomes = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]
    weights = [rng.random() for _ in outcomes]
    total = sum(weights)
    return [(o, w / total) for o, w in zip(outcomes, weights)]


def _blocks() -> list[frozenset]:
    return [frozenset(s) for k in (1, 2, 3) for s in combinations(range(1, 7), k)]


def _antichains() -> list[tuple[frozenset, ...]]:
    small = [b for b in BLOCKS if len(b) < 3]
    return [(b,) for b in BLOCKS] + [(a, b) for a, b in combinations(small, 2) if not a & b]


ROWS = _table()
BLOCKS = _blocks()
ANTICHAINS = _antichains()


def job() -> tuple[float, int]:
    """Marginal entropies of a fixed 64-row table, subset tests, and the
    order test of antichains of sets written as nested generators."""
    acc = 0.0
    for k in (1, 2, 3):
        for idx in combinations(range(3), k):
            marg: dict[tuple, float] = {}
            for outcome, p in ROWS:
                key = tuple(outcome[i] for i in idx)
                marg[key] = marg.get(key, 0.0) + p
            acc -= math.fsum(p * math.log2(p) for p in marg.values())
    count = 0
    for a in BLOCKS:
        for b in BLOCKS:
            if a <= b or not a & b:
                count += 1
    for a in ANTICHAINS[::20]:
        for b in ANTICHAINS:
            if all(any(x <= y for x in a) for y in b):
                count += 1
    return acc, count


def spawn_argv() -> list[str]:
    """The command line of one out-of-process calibration."""
    return [sys.executable, __file__, str(SPAWN_REPS)]


if __name__ == "__main__":
    for _ in range(int(sys.argv[1])):
        result = job()
    print(json.dumps({"entropy_sum": result[0], "pairs": result[1]}))
