"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at simulator
scale (fewer nodes, fewer rounds, smaller synthetic models), prints the same
rows/series the paper reports and writes them to an output directory.  A
plain test run writes to the untracked ``benchmarks/.output/``, so running
the suite never rewrites committed files; with ``BENCH_RECORD=1`` (set by the
``bench`` and ``perf`` stages of ``scripts/ci.sh``) the reports land in the
committed ``benchmarks/output/`` that EXPERIMENTS.md quotes and
``scripts/check_perf.py`` reads.  The absolute numbers differ from the
paper's 96-node testbed; the *shape* (who wins, by roughly what factor) is
what the assertions check.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.simulation.experiment import ExperimentConfig

#: Where reports go: the committed directory only when recording on purpose.
OUTPUT_DIR = Path(__file__).parent / (
    "output" if os.environ.get("BENCH_RECORD") == "1" else ".output"
)


def save_report(name: str, text: str) -> None:
    """Write a benchmark report to ``OUTPUT_DIR/<name>.txt`` and echo it."""

    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n[{name}]\n{text}\n(written to {path})")


def merge_json_metrics(area: str, phase: str, metrics: dict) -> Path:
    """Merge one phase's metrics into ``OUTPUT_DIR/BENCH_<area>.json``.

    The document accumulates across the tests of one run — each test owns one
    ``phases`` key — giving downstream tooling a single machine-readable file
    per benchmark area (the perf-trajectory format ROADMAP.md asks for).
    """

    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"BENCH_{area}.json"
    document: dict = {"version": 1, "area": area, "phases": {}}
    if path.exists():
        try:
            existing = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            existing = None
        if isinstance(existing, dict) and existing.get("version") == 1:
            document = existing
    document.setdefault("phases", {})[phase] = metrics
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def scale_down(
    config: ExperimentConfig,
    num_nodes: int = 8,
    degree: int = 4,
    rounds: int = 16,
    eval_every: int = 4,
    eval_test_samples: int = 128,
) -> ExperimentConfig:
    """Shrink a workload configuration so a benchmark finishes in seconds."""

    return replace(
        config,
        num_nodes=num_nodes,
        degree=min(degree, num_nodes - 1),
        rounds=rounds,
        eval_every=eval_every,
        eval_test_samples=eval_test_samples,
    )


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR
