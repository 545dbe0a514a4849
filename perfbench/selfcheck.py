"""Harness self-check: smoke-size runs of every workload, traced and untraced.

Usage, from the repository root (under a minute)::

    python3 perfbench/selfcheck.py

For each workload it runs ``run.py --size smoke`` with ``--trace 0`` and
``--trace 1`` and checks that the last stdout line has exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, that the run was
correct, and that the metric names and units are exactly those BENCHMARK.json
lists.  It then installs and restores the layer wrappers in-process and checks
that every patched function is the original object again, and that the runs
wrote nothing in the repository outside ``.perfbench/`` and ``__pycache__``.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import LAYER_POINTS, LayerTracer, leftover_patches, resolve  # noqa: E402
from run import WORKLOADS, metric_units  # noqa: E402


def _tree_state() -> dict[str, float]:
    """Modification time of every repository file the benchmark must not touch."""

    state = {}
    for path in ROOT.rglob("*"):
        parts = path.relative_to(ROOT).parts
        if parts[0] in (".git", ".perfbench") or "__pycache__" in parts or not path.is_file():
            continue
        state[str(path.relative_to(ROOT))] = path.stat().st_mtime
    return state


def check_run(workload: str, trace: int) -> None:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--size", "smoke",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    label = f"{workload} --trace {trace}"
    if completed.returncode != 0:
        raise SystemExit(f"{label}: exit code {completed.returncode}\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise SystemExit(f"{label}: not correct: {result}\n{completed.stderr}")
    expected = metric_units("per_layer" if trace else "end_to_end")
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != expected:
        raise SystemExit(f"{label}: metric names/units differ from BENCHMARK.json")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
            raise SystemExit(f"{label}: malformed metric {name}: {metric}")
    print(f"ok  {label}: {result['attempted']} iteration(s), {len(got)} metrics")


def check_restore() -> None:
    originals = [getattr(resolve(p.owner), p.attribute) for p in LAYER_POINTS]
    tracer = LayerTracer(ROOT / ".perfbench" / "selfcheck")
    tracer.install()
    try:
        if len(leftover_patches()) != len(LAYER_POINTS):
            raise SystemExit("install did not wrap every patch site")
    finally:
        tracer.restore()
    restored = [getattr(resolve(p.owner), p.attribute) for p in LAYER_POINTS]
    changed = [
        f"{p.owner}.{p.attribute}"
        for p, before, after in zip(LAYER_POINTS, originals, restored)
        if before is not after
    ]
    if changed or leftover_patches():
        raise SystemExit(f"wrappers not restored: {changed or leftover_patches()}")
    print(f"ok  {len(LAYER_POINTS)} wrappers installed and restored")


def main() -> int:
    before = _tree_state()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
    check_restore()
    if _tree_state() != before:
        raise SystemExit("the benchmark modified files outside .perfbench/")
    print("ok  nothing written outside .perfbench/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
