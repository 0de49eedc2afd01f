"""Benchmark of the ``infatom`` package: seeded closed-loop workloads.

Usage, from the root of a checkout::

    python3 bench/run.py --workload sweep3 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload in turn
    python3 bench/run.py --trace 1                 # the traced per-layer run

Workloads (one caller, closed loop, inputs generated from ``--seed``):

* ``sweep3``  -- criterion 5 and ``scan``: one op per random 3-variable
  table (cards 2, 3 and 4 in turn) solves at three redundancy values,
  checks the inclusion-exclusion identity and tries the distributive
  solver.  Almost all ``dist`` and ``decomp`` work.
* ``certify`` -- validation and lattice jobs at n = 4-5, where
  ``validate`` and ``hasse_edges`` grow fastest.  Mostly ``lattice.leq``.
* ``cli``     -- ``python -m infatom.cli`` pipelines as subprocesses:
  interpreter start, imports, parsing and emission.

An untraced run (``--trace 0``) times whole cycles of ops until
``--seconds`` have passed and at least 100 ops ran, checks every output
outside the timed interval, and prints ``setup_s`` (median of several
fresh set-up processes), ``ops_per_s``, ``op_p50_ms``, ``op_p90_ms``,
``peak_rss_mb`` and ``fail_frac``.  The host's speed drifts by up to 1.7x
within seconds, so every time is taken at a reference host speed: the
fixed reference job of ``calib.py`` is timed between ops (and beside every
set-up process), and each time is scaled by ``REF / reference time
nearby``.  Raw wall-clock values are printed beside the scaled ones.  The
traced run (``--trace 1``) runs a
fixed prefix of every workload with the wrappers of ``tracer.py``
installed and prints per-layer metrics named ``<workload>.<layer metric>``;
its counts repeat exactly for a given seed.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (``RESULT_METRICS`` untraced, the per-layer metrics traced).

``--record-hashes K`` rewrites ``cli_hashes.json`` with the SHA-256 of
every ``cli`` op's output for seeds 0..K-1; runs with a recorded seed fail
any op whose output bytes differ.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

SETUP_REPEATS = 9
MIN_OPS = 100
#: Seconds between reference jobs in the closed loop.  ``cli`` times a
#: calibration process rather than the in-process job, because its ops
#: are processes too; that costs about 0.1 s, so it runs less often.
CAL_INTERVAL_S = {"sweep3": 0.1, "certify": 0.1, "cli": 0.5}
#: An op's time is scaled by the median of this many reference times
#: nearest to it.
CAL_WINDOW = 8
NAMES = ("sweep3", "certify", "cli")

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
#: The metrics of the result line, as listed under ``end_to_end`` in
#: BENCHMARK.json.  ``fail_frac`` is printed but left out: it is 0 when
#: all is well, and ``attempted``/``failed`` carry it.
RESULT_METRICS = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")

#: Ops in each workload's traced prefix; whole cycles, so the mix is kept.
TRACE_OPS = {"sweep3": 60, "certify": 7, "cli": 9}
#: Untraced cycles behind the ``kind.*.p50_ms`` metrics.
KIND_CYCLES = 3

#: Per-layer metrics reported for each workload's traced prefix.
LAYER_METRICS = {
    "sweep3": (
        "dist.entropy.calls",
        "dist.entropy.self_ms",
        "dist.entropy.distinct",
        "dist.entropy.repeat_ratio",
        "dist.rows_scanned",
        "dist.mutual_information.calls",
        "dist.mutual_information.self_ms",
        "dist.interaction_information.calls",
        "dist.interaction_information.self_ms",
        "dist.random_table.self_ms",
        "lattice.parse.calls",
        "terms.redundancy_bounds.calls",
        "terms.check_inclusion_exclusion3.self_ms",
        "decomp.solve_trivariate.calls",
        "decomp.solve_trivariate.self_ms",
        "decomp.parse_label.calls",
        "decomp.solve_set_theoretic.self_ms",
    ),
    "certify": (
        "dist.entropy.calls",
        "dist.entropy.self_ms",
        "lattice.leq.calls",
        "lattice.leq.self_ms",
        "lattice.hasse_edges.self_ms",
        "terms.reduce_antichain.calls",
        "terms.reduce_antichain.self_ms",
        "terms.r1_fired",
        "terms.r2_fired",
        "terms.eval_term.calls",
        "terms.eval_term.self_ms",
        "terms.eval_term.interval_frac",
        "decomp.validate.calls",
        "decomp.validate.self_ms",
        "decomp.validate.rows",
        "decomp.validate.pairs",
        "decomp.lift_decomposition.self_ms",
    ),
    "cli": (
        "dist.load_table.self_ms",
        "dist.dump.self_ms",
        "lattice.hasse_edges.self_ms",
        "lattice.enumerate_antichains.self_ms",
        "terms.eval_term.calls",
        "terms.eval_term.self_ms",
        "terms.eval_term.interval_frac",
        "decomp.lift_decomposition.self_ms",
        "decomp.json.self_ms",
        "cli.main.self_ms",
    ),
}

#: Call edges each traced prefix must show; zero calls means a wrapper
#: missed a binding, and the run stops.
REQUIRED_EDGES = {
    "sweep3": (
        ("decomp.solve_trivariate", "dist.entropy"),
        ("decomp.solve_trivariate", "decomp.parse_label"),
        ("decomp.feasible_interval", "terms.redundancy_bounds"),
        ("terms.check_inclusion_exclusion3", "dist.entropy"),
        ("decomp.solve_set_theoretic", "dist.interaction_information"),
    ),
    "certify": (
        ("decomp.validate", "lattice.leq"),
        ("decomp.validate", "terms.reduce_antichain"),
        ("decomp.validate", "terms.eval_term"),
        ("terms.reduce_antichain", "dist.mutual_information"),
        ("decomp.lift_decomposition", "decomp.validate"),
        ("lattice.hasse_edges", "lattice.leq"),
    ),
    "cli": (
        ("cli.main", "dist.load_table"),
        ("cli.main", "dist.dump"),
        ("cli.main", "decomp.json"),
        ("cli.main", "decomp.validate"),
        ("cli.main", "decomp.scan_random"),
        ("cli.main", "lattice.enumerate_antichains"),
        ("cli.main", "lattice.hasse_edges"),
    ),
}


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


@dataclass
class Sample:
    kind: str
    seconds: float
    ok: bool
    error: str = ""


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(("repeat_ratio", "interval_frac", "overhead")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------


def run_op(op, tr=None) -> Sample:
    """Time ``op.run``; check its result afterwards, outside the timing.

    With a tracer, only ``op.run`` is traced, never the check.
    """
    if tr is not None:
        tr.phase(tr.OP)
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a failed op is counted, not fatal
        return Sample(op.kind, time.perf_counter() - start, False, f"{type(exc).__name__}: {exc}")
    finally:
        if tr is not None:
            tr.phase(None)
    took = time.perf_counter() - start
    try:
        ok = bool(op.check(result))
    except Exception as exc:
        return Sample(op.kind, took, False, f"check raised {type(exc).__name__}: {exc}")
    return Sample(op.kind, took, ok, "" if ok else "wrong output")


def calibrate(name: str) -> float:
    """Seconds of one reference job: in this process, or for ``cli`` as a
    process of its own."""
    import calib

    start = time.perf_counter()
    if name == "cli":
        subprocess.run(calib.spawn_argv(), stdout=subprocess.DEVNULL, check=True)
    else:
        calib.job()
    return time.perf_counter() - start


def closed_loop(workload, seconds: float) -> tuple[list[Sample], list[tuple[int, float]]]:
    """Whole cycles of ops until ``seconds`` have passed and ``MIN_OPS`` ran.

    Reference jobs run between ops, outside the ops' timing, every
    ``CAL_INTERVAL_S`` and once at each end; each is returned as (ops done
    before it, seconds).
    """
    cycle = len(workload.kinds)
    interval = CAL_INTERVAL_S[workload.name]
    samples: list[Sample] = []
    cals = [(0, calibrate(workload.name))]
    start = last_cal = time.perf_counter()
    i = 0
    while i % cycle or i < MIN_OPS or time.perf_counter() - start < seconds:
        samples.append(run_op(workload.op(i)))
        i += 1
        if time.perf_counter() - last_cal >= interval:
            cals.append((i, calibrate(workload.name)))
            last_cal = time.perf_counter()
    if cals[-1][0] != i:
        cals.append((i, calibrate(workload.name)))
    return samples, cals


def fixed_ops(workload, n: int, in_process: bool = False, tr=None) -> list[Sample]:
    """The first ``n`` ops.  ``in_process`` runs cli ops through ``cli.main``.

    With a tracer, building each op's inputs is traced under its own root.
    """
    out = []
    for i in range(n):
        if tr is not None:
            tr.phase(tr.INPUT)
        op = workload.op(i)
        if tr is not None:
            tr.phase(None)
        if in_process:
            op.run = functools.partial(workload.call_main, op.kind)
        out.append(run_op(op, tr))
    return out


def report_failures(name: str, samples: list[Sample]) -> None:
    bad = [s for s in samples if not s.ok]
    for s in bad[:5]:
        print(f"{name}: {s.kind} failed: {s.error}", file=sys.stderr)
    if len(bad) > 5:
        print(f"{name}: {len(bad) - 5} more failures", file=sys.stderr)


def kind_p50_ms(samples: list[Sample]) -> dict[str, float]:
    by_kind: dict[str, list[float]] = {}
    for s in samples:
        by_kind.setdefault(s.kind, []).append(s.seconds)
    return {k: 1000.0 * statistics.median(v) for k, v in by_kind.items()}


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def setup_seconds(name: str, seed: int) -> float:
    """Process start to ready-for-the-first-op, in a fresh process."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only", "--workload", name, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        took = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"set-up of {name} failed with exit code {proc.returncode}")
    return took


def scaled_setup(name: str, seed: int) -> tuple[float, float]:
    """Median set-up time at reference speed, and raw.

    Each set-up process is paired with a calibration process run just
    before it; set-up is a fresh process too, so the process form of the
    reference job is the one that matches it.
    """
    import calib

    raw, cal = [], []
    for _ in range(SETUP_REPEATS):
        cal.append(calibrate("cli"))
        raw.append(setup_seconds(name, seed))
    scaled = statistics.median(r / c for r, c in zip(raw, cal)) * calib.REF_SPAWN_S
    return scaled, statistics.median(raw)


def peak_rss_mb(name: str) -> float:
    # ru_maxrss is in KiB on Linux.  For cli the work runs in child
    # processes, and RUSAGE_CHILDREN holds the largest of them.
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


def scaled_seconds(name: str, samples: list[Sample], cals: list[tuple[int, float]]) -> list[float]:
    """Each op's time at reference host speed.

    An op's time is multiplied by ``REF / c``, where ``c`` is the median of
    the ``CAL_WINDOW`` reference times taken nearest to it, so a stretch
    of the run in which the host ran slow counts as much as any other.
    """
    import calib

    ref = calib.REF_SPAWN_S if name == "cli" else calib.REF_JOB_S
    pos = [p for p, _ in cals]
    width = min(CAL_WINDOW, len(cals))
    local: dict[int, float] = {}
    out = []
    for j, s in enumerate(samples):
        # The op j ran between the reference jobs at positions <= j and > j.
        k = bisect.bisect_right(pos, j)
        lo = max(0, min(k - width // 2, len(cals) - width))
        if lo not in local:
            local[lo] = statistics.median(c for _, c in cals[lo : lo + width])
        out.append(s.seconds * ref / local[lo])
    return out


def timed_run(name: str, seed: int, seconds: float) -> dict:
    import workloads

    with workloads.temp_workdir() as tmp:
        workload = workloads.WORKLOADS[name](seed, Path(tmp))
        samples, cals = closed_loop(workload, seconds)
    # Read before the set-up processes below start, so only ops count.
    rss = peak_rss_mb(name)
    setup, setup_raw = scaled_setup(name, seed)

    raw = [s.seconds for s in samples]
    lat = scaled_seconds(name, samples, cals)
    failed = sum(not s.ok for s in samples)
    values = {
        "setup_s": setup,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "op_p90_ms": 1000.0 * statistics.quantiles(lat, n=10)[-1],
        "peak_rss_mb": rss,
    }
    n = len(lat)
    raw_p90 = statistics.quantiles(raw, n=10)[-1]
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-up processes (raw {setup_raw:.6f})",
        "ops_per_s": f"{n} ops over {sum(lat):.3f} s scaled (raw {n / sum(raw):.3f})",
        "op_p50_ms": f"n={n} (raw {1000 * statistics.median(raw):.3f})",
        "op_p90_ms": f"n={n}, {sum(x > values['op_p90_ms'] / 1000 for x in lat)} beyond "
                     f"(raw {1000 * raw_p90:.3f})",
        "peak_rss_mb": "largest child process" if name == "cli" else "worker process",
    }
    cal_ms = [1000 * c for _, c in cals]
    print(f"{name}  seed={seed}  {n} ops in {n // len(workload.kinds)} cycles; "
          f"{len(cals)} reference jobs, {min(cal_ms):.3f}-{max(cal_ms):.3f} ms, "
          f"median {statistics.median(cal_ms):.3f} ms")
    for metric, value in values.items():
        print(f"  {metric:12s} {value:14.6f} {E2E_UNITS[metric]:4s}  {notes[metric]}")
    print(f"  {'fail_frac':12s} {failed / n:14.6f} {'':4s}  {failed} of {n} ops failed")
    kinds = kind_p50_ms(samples)
    print("  raw kind p50 ms: " + ", ".join(f"{k} {v:.3f}" for k, v in kinds.items()))
    report_failures(name, samples)
    return {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": E2E_UNITS[m]} for m in RESULT_METRICS},
    }


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def untraced_prefix(workload) -> tuple[list[Sample], float]:
    import workloads

    workloads.clear_lattice_cache()
    start = time.perf_counter()
    samples = fixed_ops(workload, TRACE_OPS[workload.name], workload.name == "cli")
    return samples, time.perf_counter() - start


def traced_prefix(workload):
    """Run the workload's traced prefix; returns (tracer, samples, seconds)."""
    import tracer
    import workloads

    workloads.clear_lattice_cache()
    with tracer.Tracer() as tr:
        start = time.perf_counter()
        samples = fixed_ops(workload, TRACE_OPS[workload.name], workload.name == "cli", tr)
        took = time.perf_counter() - start
    missing = tr.missing_edges(REQUIRED_EDGES[workload.name])
    if missing:
        raise BenchError(f"{workload.name}: traced calls missing on " + ", ".join(missing))
    return tr, samples, took


IMPORT_TIMER = "import time; t = time.perf_counter(); import infatom.cli; print(time.perf_counter() - t)"


def interpreter_ms() -> tuple[float, float]:
    """Median bare interpreter start and ``infatom.cli`` import, in ms."""
    interp, imports = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        interp.append(time.perf_counter() - start)
        out = subprocess.run([sys.executable, "-c", IMPORT_TIMER], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        imports.append(float(out.stdout))
    return 1000.0 * statistics.median(interp), 1000.0 * statistics.median(imports)


def traced_run(seed: int) -> dict:
    import workloads

    metrics: dict[str, float] = {}
    samples_all: list[Sample] = []
    for name in NAMES:
        with workloads.temp_workdir() as tmp:
            workload = workloads.WORKLOADS[name](seed, Path(tmp))
            n = TRACE_OPS[name]
            # The same ops untraced, before and after, for the overhead ratio.
            plain, untraced = untraced_prefix(workload)
            tr, traced, took = traced_prefix(workload)
            after, untraced_after = untraced_prefix(workload)
            plain += after
            untraced = (untraced + untraced_after) / 2
            kinds: list[Sample] = []
            if name != "sweep3":
                kinds = fixed_ops(workload, KIND_CYCLES * len(workload.kinds))
        samples_all += plain + traced + kinds
        values = {m: tr.layer_value(m) for m in LAYER_METRICS[name]}
        values["trace.overhead"] = untraced / took
        for kind, ms in kind_p50_ms(kinds).items():
            values[f"kind.{kind}.p50_ms"] = ms
        if name == "cli":
            values["cli.interp_ms"], values["cli.import_ms"] = interpreter_ms()
        print(f"{name}  seed={seed}  traced prefix of {n} ops: {1000 * took:.1f} ms traced, "
              f"{1000 * untraced:.1f} ms untraced")
        for metric, value in values.items():
            print(f"  {metric:42s} {value:16.6f} {unit_of(metric)}")
        print("  call edges, by self time:")
        print("\n".join(tr.table()))
        report_failures(name, plain + traced + kinds)
        metrics.update({f"{name}.{m}": v for m, v in values.items()})
    failed = sum(not s.ok for s in samples_all)
    return {
        "correct": failed == 0,
        "attempted": len(samples_all),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in metrics.items()},
    }


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.splitlines()
        if out.returncode != 0 or not lines:
            print(f"bench: workload {name} exited with {out.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def record_hashes(count: int) -> None:
    import workloads

    recorded = {}
    for seed in range(count):
        with workloads.temp_workdir() as tmp:
            workload = workloads.Cli(seed, Path(tmp))
            workload.recorded = {}
            recorded[str(seed)] = {}
            for kind in workload.kinds:
                result = workload.spawn(kind)
                if not workload.check(kind, result):
                    raise BenchError(f"cli op {kind} failed for seed {seed}; nothing recorded")
                recorded[str(seed)][kind] = workloads.digest(result[1])
    workloads.HASHES_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-hashes", type=int, metavar="K", default=None)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "infatom" / "__init__.py").is_file():
        print(f"bench: {SRC / 'infatom'} not found; run from a checkout with its sources",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("INFATOM_EPS", None)
    # Unwind on SIGTERM too, so scratch directories and children are cleaned up.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.setup_only:
            import workloads

            with workloads.temp_workdir() as tmp:
                workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
                print("ready", flush=True)
            return 0
        if args.record_hashes is not None:
            record_hashes(args.record_hashes)
            return 0
        if args.trace:
            result = traced_run(args.seed)
        elif args.workload == "all":
            return run_all(args)
        else:
            result = timed_run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
