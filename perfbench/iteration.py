"""One benchmark iteration: ``run.py`` calls :func:`run_one` in a fresh fork.

The report holds the end-to-end measurements, the result digest and any
problems found; a traced iteration adds the per-layer metrics of
:func:`layer_metrics` and the per-phase self times.
"""

from __future__ import annotations

import os
from pathlib import Path

from layers import (
    CELL_SPAN,
    ITERATION_SPAN,
    LAYER_POINTS,
    LayerTracer,
    is_layer,
    leftover_patches,
    summarize,
)
from workloads import WORKLOADS, no_phase

#: Layer span names, in the order the trace table lists them.
LAYERS = tuple(dict.fromkeys(point.layer for point in LAYER_POINTS if is_layer(point.layer)))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: dict, workers: int) -> dict[str, float]:
    """Every per-layer metric of one traced iteration (see INTERACTIONS.md)."""

    spans = summary["spans"]
    counters = summary["counters"]
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        totals = spans.get(layer, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = float(totals["calls"])
        metrics[f"{layer}.self_s"] = totals["self_s"]
    for layer in ("wavelets.forward", "wavelets.inverse"):
        metrics[f"{layer}.rows"] = counters.get(f"{layer}.rows", 0.0)
    rows = metrics["wavelets.forward.rows"] + metrics["wavelets.inverse.rows"]
    batched = counters.get("wavelets.forward.batched_rows", 0.0) + counters.get(
        "wavelets.inverse.batched_rows", 0.0
    )
    metrics["wavelets.batched_row_frac"] = _ratio(batched, rows)
    metrics["compression.float.ratio"] = _ratio(
        counters.get("compression.float.bytes", 0.0),
        counters.get("compression.float.raw_bytes", 0.0),
    )
    metrics["compression.index.bits_per_index"] = _ratio(
        8.0 * counters.get("compression.index.bytes", 0.0),
        counters.get("compression.index.indices", 0.0),
    )
    metrics["simulation.delivered_ratio"] = _ratio(
        metrics["simulation.emit_message.calls"], counters.get("simulation.meter.copies", 0.0)
    )
    metrics["checkpoint.bytes"] = counters.get("checkpoint.save.bytes", 0.0)
    sweep_s = sum(
        values["total_s"] for name, values in spans.items() if name.startswith("phase.run.")
    )
    cells_s = spans.get(CELL_SPAN, {}).get("total_s", 0.0)
    metrics["orchestration.pool.idle_frac"] = (
        1.0 - cells_s / (workers * sweep_s) if cells_s else 0.0
    )
    metrics["trace.other_s"] = sum(
        values["self_s"] for name, values in spans.items() if not is_layer(name)
    )
    # The traced time the self times must add up to: this process's iteration
    # plus every worker-side root (sweep cells and their result encoding).
    metrics["trace.traced_s"] = sum(values["self_s"] for values in spans.values())
    metrics["trace.wall_s"] = spans[ITERATION_SPAN]["total_s"]
    return metrics


def run_one(workload: str, seed: int, size: str, traced: bool, work_dir: Path) -> dict:
    """Run one iteration in this process and return its report."""

    work_dir.mkdir(parents=True, exist_ok=True)
    run, cpus = WORKLOADS[workload]
    if cpus == 1:
        # A single-process workload stays on one CPU, so it never migrates;
        # on a shared 2-vCPU host this narrowed its run-phase spread.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    report: dict = {}
    if traced:
        tracer = LayerTracer(work_dir)
        tracer.install()
        try:
            with tracer.span(ITERATION_SPAN):
                iteration = run(seed, size, work_dir, tracer.phase)
        finally:
            tracer.restore()
        summary = summarize(tracer)
        report["layers"] = layer_metrics(summary, cpus)
        spans = summary["spans"]
        # A phase's wall-clock is its span's; in pool workers, the cells'.
        report["phases"] = {
            name: {
                "wall_s": spans.get(f"phase.{name}", spans.get(name))["total_s"],
                "self_s": values,
            }
            for name, values in summary["phases"].items()
        }
        leftover = leftover_patches()
        if leftover:
            iteration.problems.append(f"wrappers left installed: {', '.join(leftover)}")
    else:
        iteration = run(seed, size, work_dir, no_phase)

    report.update(
        setup_s=iteration.setup_s,
        run_s=iteration.run_s,
        node_rounds=iteration.node_rounds,
        wall_s=iteration.wall_s,
        node_rounds_per_s=iteration.node_rounds / iteration.run_s,
        scale_cost_ratio=iteration.scale_cost_ratio,
        peak_rss_mib=iteration.peak_rss_mib,
        digest=iteration.digest,
        problems=iteration.problems,
    )
    return report
