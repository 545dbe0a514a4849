"""The repository benchmark: run one workload repeatedly and report its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig10_scale --seed 1 --seconds 30 --trace 0

Each iteration runs in a fresh process, forked from this one once ``src/``
is imported, with one BLAS/OpenMP thread.  Iterations start until the
next one would end after ``--seconds``; every run makes at least one (with
``--trace 1``, at least one untraced/traced pair).  The last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics of BENCHMARK.json as medians over the
iterations, with ``--trace 1`` the per-layer metrics of the traced
iterations.  Earlier lines carry the host fingerprint and, when traced, the
full layer table (also written to ``.perfbench/``).

An iteration fails when it raises, completes fewer rounds than configured,
leaves a tracing wrapper installed, or yields a result digest that differs
from the other iterations of the run or from the digest pinned in
``golden.json`` for its seed; ``failed`` counts those, and ``failed /
attempted`` is the workload's failure fraction.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig10_scale", "cifar_sweep", "async_churn")
#: Hard limit on one iteration; the whole run must end within 180 seconds.
ITERATION_TIMEOUT_S = 120.0

def metric_units(kind: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in benchmark[kind]}


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None  # a plain checkout: do not let git search parent directories
    try:
        completed = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over every file under src/ (identifies checkouts without git)."""

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_fingerprint() -> dict[str, object]:
    import numpy

    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    status = _git("status", "--porcelain", "--", "src")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": _source_digest(),
    }


def _pin_threads() -> None:
    # Two pool workers times several BLAS threads oversubscribe a small host;
    # set before numpy is first imported, so every iteration inherits it.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"


def run_iteration(
    workload: str, seed: int, size: str, traced: bool, work_dir: Path
) -> tuple[dict | None, str]:
    """One iteration in a fresh forked process; returns (report or None, error).

    The child is forked from this process after the program is imported, so
    it starts from the same state every time without paying for the imports,
    and its peak RSS is its own.  It runs in a process group of its own, so a
    timeout also stops the sweep's pool workers.
    """

    from iteration import run_one

    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:  # the iteration process
        status = 1
        try:
            os.close(read_fd)
            os.setpgid(0, 0)
            report = run_one(workload, seed, size, traced, work_dir)
            with os.fdopen(write_fd, "w", encoding="utf-8") as out:
                out.write(json.dumps(report))
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    try:
        os.setpgid(pid, pid)
    except (ProcessLookupError, PermissionError):
        pass  # the child already set it (or already exited)
    os.close(write_fd)
    chunks: list[bytes] = []
    deadline = time.monotonic() + ITERATION_TIMEOUT_S
    timed_out = False
    with os.fdopen(read_fd, "rb") as pipe:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([pipe], [], [], remaining)[0]:
                timed_out = True
                break
            chunk = pipe.read1(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    if timed_out:
        os.killpg(pid, signal.SIGKILL)
    _, status = os.waitpid(pid, 0)
    shutil.rmtree(work_dir, ignore_errors=True)
    if timed_out:
        return None, f"iteration exceeded {ITERATION_TIMEOUT_S:.0f} s"
    if os.waitstatus_to_exitcode(status) != 0:
        return None, f"iteration exited with status {os.waitstatus_to_exitcode(status)}"
    return json.loads(b"".join(chunks)), ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke: tiny deployments for the harness self-check",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    _pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import iteration  # noqa: F401  -- imports the program before the first fork

    print(json.dumps({"host": host_fingerprint()}, sort_keys=True), flush=True)
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    pinned = golden.get(args.workload, {}).get(str(args.seed)) if args.size == "full" else None

    end_to_end = metric_units("end_to_end")
    kinds = (False, True) if args.trace else (False,)
    # Reports by traced/untraced: of every iteration that measured, and of
    # the iterations that also passed every check.
    measured: dict[bool, list[dict]] = {False: [], True: []}
    passed: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    digests: set[str] = set()
    started = time.monotonic()
    durations: list[float] = []
    while True:
        round_started = time.monotonic()
        for traced in kinds:
            work_dir = ROOT / ".perfbench" / "work" / f"{os.getpid()}-{attempted}"
            report, error = run_iteration(args.workload, args.seed, args.size, traced, work_dir)
            attempted += 1
            if report is not None:
                digests.add(report["digest"])
                if report["problems"]:
                    error = "; ".join(report["problems"])
                elif pinned is not None and report["digest"] != pinned:
                    error = f"digest {report['digest'][:16]} differs from golden {pinned[:16]}"
                measured[traced].append(report)
                if not error:
                    passed[traced].append(report)
                print(
                    json.dumps(
                        {
                            "iteration": attempted,
                            "traced": traced,
                            **{name: report[name] for name in end_to_end},
                            "digest": report["digest"],
                        }
                    ),
                    flush=True,
                )
            if error:
                failed += 1
                print(f"perfbench: iteration {attempted} failed: {error}", file=sys.stderr)
        durations.append(time.monotonic() - round_started)
        if time.monotonic() - started + statistics.median(durations) > args.seconds:
            break
    if len(digests) > 1:
        # Same seed, same inputs: every iteration must produce the same bytes.
        failed = attempted
        print(f"perfbench: iterations disagree on the digest: {sorted(digests)}", file=sys.stderr)

    def complete(reports: dict[bool, list[dict]]) -> bool:
        return bool(reports[False]) and (not args.trace or bool(reports[True]))

    # Failed iterations are reported from only when no iteration passed.
    reports = passed if complete(passed) else measured
    if not complete(reports):
        print("perfbench: no iteration produced measurements", file=sys.stderr)
        return 1
    if args.trace:
        metrics = traced_metrics(args.workload, args.seed, args.size, reports)
    else:
        metrics = {
            name: {"value": statistics.median(r[name] for r in reports[False]), "unit": unit}
            for name, unit in end_to_end.items()
        }
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def traced_metrics(workload: str, seed: int, size: str, reports: dict[bool, list[dict]]) -> dict:
    """The per-layer metrics (medians over traced iterations), plus the full table."""

    traced = reports[True]
    table = {
        name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]
    }
    table["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in reports[False])
        - 1.0
    )
    full = {"workload": workload, "seed": seed, "layers": table, "phases": traced[-1]["phases"]}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{workload}-{size}-seed{seed}.json").write_text(
        json.dumps(full, indent=1, sort_keys=True)
    )
    print(json.dumps({"layer_table": full}, sort_keys=True))
    return {
        name: {"value": table[name], "unit": unit} for name, unit in metric_units("per_layer").items()
    }


if __name__ == "__main__":
    sys.exit(main())
