"""Checks on the benchmark itself.  Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
from pathlib import Path

import run
import workloads


def traced_counts(seed: int) -> dict[str, float]:
    """Every count-valued layer metric and every call edge's count."""
    out: dict[str, float] = {}
    for name in run.NAMES:
        with workloads.temp_workdir() as tmp:
            tr, samples, _ = run.traced_prefix(workloads.WORKLOADS[name](seed, Path(tmp)))
        assert all(s.ok for s in samples), [s.error for s in samples if not s.ok]
        for metric in run.LAYER_METRICS[name]:
            if run.unit_of(metric) != "ms":
                out[f"{name}.{metric}"] = tr.layer_value(metric)
        for (parent, layer), (calls, _total, _own) in tr.edges.items():
            out[f"{name}: {parent} -> {layer}"] = calls
    return out


def test_traced_counts_repeat_exactly():
    first = traced_counts(3)
    assert first["sweep3.dist.entropy.calls"] > 0
    assert first["certify.decomp.validate.pairs"] > 0
    assert first == traced_counts(3)


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {}
    for name, metrics in run.LAYER_METRICS.items():
        extra = ["trace.overhead"]
        if name != "sweep3":
            extra += [f"kind.{k}.p50_ms" for k in workloads.WORKLOADS[name].kinds]
        if name == "cli":
            extra += ["cli.interp_ms", "cli.import_ms"]
        for metric in list(metrics) + extra:
            emitted[f"{name}.{metric}"] = run.unit_of(metric)
    assert declared == emitted
    assert [m["name"] for m in spec["end_to_end"]] == list(run.RESULT_METRICS)
    assert all(m["unit"] == run.E2E_UNITS[m["name"]] for m in spec["end_to_end"])


def test_hasse_reference_counts():
    # Cover-edge counts for n = 1 and 2, by hand: n = 2 is the diamond
    # {1}{2} < {1}, {2} < {1,2}.
    assert [len(workloads.ref_antichains(n)) for n in range(1, 6)] == list(workloads.LATTICE_SIZES)
    assert len(workloads.ref_hasse(1)) == 0
    assert len(workloads.ref_hasse(2)) == 4
