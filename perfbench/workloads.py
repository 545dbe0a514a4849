"""The benchmark's workloads: one iteration of each, built from a seed.

Every workload is a function ``run_<name>(seed, size, work_dir, phase)`` that
generates its own inputs from ``seed``, drives the public ``repro`` API, and
returns an :class:`Iteration` record.  ``phase`` is a context-manager factory
(``phase("setup.large")``) that the traced run turns into a phase span and
that is a no-op otherwise, so untraced and traced iterations run the same code.

Why each workload exists (the prediction rule: a change to a layer should
move the workload where that layer dominates and leave the other flat):

* ``fig10_scale`` -- synchronous arena rounds on the tiny fig10 MLP (d = 340)
  at N = 250 and then N = 2000.  The model is tiny, so per-node bookkeeping
  (topology lookups, scenario checks, contexts, metering, per-node encode
  calls) dominates, and the N = 2000 / N = 250 cost ratio exposes any term
  that grows faster than N.
* ``cifar_sweep`` -- a Table-I-style ``run_sweep`` of the cifar10 conv model
  (d = 18,490) over jwins, choco, full-sharing and random-sampling on a
  2-worker pool with a file-backed store and cadence checkpoints.  It is
  bound by arithmetic and I/O (conv SGD, per-node DWT, codecs, baselines,
  evaluation, store appends, snapshot writes); topology and scenario checks
  are noise here.
* ``async_churn`` -- event-driven gossip with JWINS on the fig10 MLP at
  N = 300 under the churn-partition preset, message drops, compute
  stragglers and link jitter.  The same scenario, topology and DWT layers run
  per event instead of per round (single-row DWT, ``state_at`` per event, an
  event queue), so a sync-only optimisation that costs gossip shows here.

Each workload also runs a companion deployment at about one eighth of its
node count in the same iteration; ``scale_cost_ratio`` divides the cost per
node-round of the full-size run by that of the companion.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, NamedTuple

import numpy as np

from repro.core import JwinsConfig, jwins_factory
from repro.datasets.base import Dataset, LearningTask, classification_accuracy
from repro.datasets.synthetic import make_class_images
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MLPClassifier
from repro.orchestration import ResultStore, Sweep, run_sweep
from repro.scenarios.presets import get_scenario
from repro.simulation import ExperimentConfig, ExperimentResult, Simulator

PhaseFactory = Callable[[str], ContextManager[Any]]


def no_phase(name: str) -> ContextManager[Any]:
    return nullcontext()


@dataclass
class Iteration:
    """What one iteration measured and produced."""

    setup_s: float
    run_s: float
    node_rounds: int
    wall_s: float
    small_cost: float  # run seconds per node-round of the 1/8-size companion
    digest: str
    peak_rss_mib: float
    problems: list[str] = field(default_factory=list)

    @property
    def scale_cost_ratio(self) -> float:
        return (self.run_s / self.node_rounds) / self.small_cost


def _self_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_rounds(result: ExperimentResult, rounds: int, label: str, problems: list[str]) -> None:
    if result.rounds_completed != rounds:
        problems.append(f"{label}: {result.rounds_completed} of {rounds} rounds completed")


# -- the fig10 MLP task (same task as the fig10 arena scaling benchmark) --------------


def fig10_task(seed: int, num_nodes: int) -> LearningTask:
    """Synthetic 4x4 image classification on a 16-16-4 MLP (d = 340).

    Sized so every node owns at least two training samples.
    """

    train_samples = max(2 * num_nodes, 2000)
    test_samples = 64
    generator = np.random.default_rng(seed)
    inputs, labels = make_class_images(
        generator, train_samples + test_samples, 4, image_size=4, channels=1, noise=0.5
    )
    return LearningTask(
        name="toy",
        train=Dataset(inputs[:train_samples], labels[:train_samples]),
        test=Dataset(inputs[train_samples:], labels[train_samples:]),
        model_factory=lambda rng: MLPClassifier(16, 16, 4, rng),
        loss_factory=CrossEntropyLoss,
        accuracy_fn=classification_accuracy,
    )


def _fig10_config(seed: int, num_nodes: int, rounds: int, **extra: Any) -> ExperimentConfig:
    # A mapping, not keyword arguments: ``from_dict`` is the stable entry point
    # that keeps accepting ``engine`` however the engines are reorganised.
    return ExperimentConfig.from_dict(
        {
            "num_nodes": num_nodes,
            "degree": 6,
            "rounds": rounds,
            "local_steps": 1,
            "batch_size": 8,
            "learning_rate": 0.05,
            "eval_every": rounds,
            "eval_nodes": 8,
            "eval_test_samples": 64,
            "seed": seed,
            "partition": "iid",
            **extra,
        }
    )


class Shape(NamedTuple):
    """Deployment sizes of one workload iteration."""

    small_nodes: int
    small_rounds: int
    large_nodes: int
    large_rounds: int
    #: Set-ups of the full-size deployment timed per iteration (median kept).
    setup_repeats: int = 1


def _build_cell(seed: int, config: ExperimentConfig) -> Simulator:
    task = fig10_task(seed, config.num_nodes)
    return Simulator(task, jwins_factory(JwinsConfig.paper_default()), config, scheme_name="jwins")


def _timed_setup(build: Callable[[], Any], repeats: int) -> tuple[Any, float]:
    """Build ``repeats`` times; returns the last build and the median set-up time.

    The discarded builds are collected before returning, so their garbage is
    not left for the run phase to pay for.
    """

    times = []
    for repeat in range(repeats):
        started = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - started)
        if repeat < repeats - 1:
            del built
            gc.collect()
    return built, statistics.median(times)


def _run_cell(
    seed: int, config: ExperimentConfig, phase: PhaseFactory, tag: str, setup_repeats: int = 1
) -> tuple[ExperimentResult, float, float]:
    """Build and run one JWINS deployment; returns (result, setup_s, run_s)."""

    with phase(f"setup.{tag}"):
        simulator, setup_s = _timed_setup(lambda: _build_cell(seed, config), setup_repeats)
    started = time.perf_counter()
    with phase(f"run.{tag}"):
        result = simulator.run()
    return result, setup_s, time.perf_counter() - started


def _persist(payload: Any, work_dir: Path, phase: PhaseFactory) -> str:
    with phase("persist"):
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        (work_dir / "result.json").write_text(
            json.dumps({"digest": digest, "results": payload}, sort_keys=True)
        )
    return digest


# -- fig10_scale ------------------------------------------------------------------------

FIG10_SHAPES = {
    "full": Shape(250, 4, 2000, 2),
    "smoke": Shape(8, 1, 64, 1),
}


def _run_sandwich(
    seed: int,
    shape: Shape,
    make_config: Callable[[int, int, int], ExperimentConfig],
    work_dir: Path,
    phase: PhaseFactory,
) -> Iteration:
    """The companion cell, the full-size cell, then the companion cell again.

    Timing the companion on both sides of the full-size cell cancels the
    host's slow speed drift out of ``scale_cost_ratio``; the two companion
    runs have the same inputs and must produce the same result.
    """

    started = time.perf_counter()
    problems: list[str] = []
    small_config = make_config(seed, shape.small_nodes, shape.small_rounds)
    large_config = make_config(seed, shape.large_nodes, shape.large_rounds)
    small, _, small_before_s = _run_cell(seed, small_config, phase, "small")
    large, setup_s, run_s = _run_cell(seed, large_config, phase, "large", shape.setup_repeats)
    small_again, _, small_after_s = _run_cell(seed, small_config, phase, "small")
    _check_rounds(small, shape.small_rounds, f"N={shape.small_nodes}", problems)
    _check_rounds(large, shape.large_rounds, f"N={shape.large_nodes}", problems)
    cells = [small.to_dict(), large.to_dict()]
    if small_again.to_dict() != cells[0]:
        problems.append(f"N={shape.small_nodes}: two runs of the same inputs differ")
    digest = _persist(cells, work_dir, phase)
    small_node_rounds = small.num_nodes * small.rounds_completed
    return Iteration(
        setup_s=setup_s,
        run_s=run_s,
        node_rounds=large.num_nodes * large.rounds_completed,
        wall_s=time.perf_counter() - started,
        small_cost=(small_before_s + small_after_s) / (2 * small_node_rounds),
        digest=digest,
        peak_rss_mib=_self_rss_mib(),
        problems=problems,
    )


def _arena_config(seed: int, num_nodes: int, rounds: int) -> ExperimentConfig:
    return _fig10_config(seed, num_nodes, rounds, engine="arena")


def run_fig10_scale(seed: int, size: str, work_dir: Path, phase: PhaseFactory) -> Iteration:
    """Why: per-node bookkeeping, not arithmetic, dominates a tiny model at N = 2000."""

    return _run_sandwich(seed, FIG10_SHAPES[size], _arena_config, work_dir, phase)


# -- async_churn ------------------------------------------------------------------------

ASYNC_SHAPES = {
    "full": Shape(37, 8, 300, 6, setup_repeats=3),
    # The churn-partition preset needs a few rounds to place its outages.
    "smoke": Shape(8, 4, 16, 4),
}


def _async_config(seed: int, num_nodes: int, rounds: int) -> ExperimentConfig:
    return _fig10_config(
        seed,
        num_nodes,
        rounds,
        execution="async",
        scenario=get_scenario("churn-partition", num_nodes, rounds).to_dict(),
        message_drop_probability=0.05,
        compute_speed_range=[1.0, 3.0],
        link_latency_jitter_seconds=0.01,
    )


def run_async_churn(seed: int, size: str, work_dir: Path, phase: PhaseFactory) -> Iteration:
    """Why: the same layers run per event under gossip, so sync-only changes show."""

    return _run_sandwich(seed, ASYNC_SHAPES[size], _async_config, work_dir, phase)


# -- cifar_sweep ------------------------------------------------------------------------

CIFAR_SCHEMES = ("jwins", "choco", "full-sharing", "random-sampling")
CIFAR_SHAPES = {
    "full": Shape(2, 12, 16, 6, setup_repeats=3),
    "smoke": Shape(2, 2, 4, 2),
}
CIFAR_WORKERS = 2
CHECKPOINT_EVERY = 2


def cifar_sweep(seed: int, num_nodes: int, rounds: int) -> Sweep:
    overrides: dict[str, Any] = {"num_nodes": num_nodes, "rounds": rounds, "seed": seed}
    if num_nodes <= 4:
        overrides["degree"] = num_nodes - 1
    return Sweep(
        name=f"cifar-n{num_nodes}",
        workloads=("cifar10",),
        schemes=CIFAR_SCHEMES,
        base_overrides=overrides,
        task_seed=seed,
    )


def _build_sweep_cells(sweep: Sweep) -> list[Simulator]:
    """Every cell's task and simulator: what each pool worker builds first."""

    simulators = []
    for spec in sweep.expand():
        task, factory, config, _ = spec.build()
        simulators.append(Simulator(task, factory, config, scheme_name=spec.scheme.label))
    return simulators


def _run_store_sweep(
    sweep: Sweep, work_dir: Path, tag: str, phase: PhaseFactory
) -> tuple[bytes, float, list[ExperimentResult]]:
    store_path = work_dir / f"store-{tag}.jsonl"
    checkpoint_dir = work_dir / f"checkpoints-{tag}"
    started = time.perf_counter()
    with phase(f"run.{tag}"):
        outcome = run_sweep(
            sweep,
            store=ResultStore(store_path),
            workers=CIFAR_WORKERS,
            checkpoint_dir=str(checkpoint_dir),
            checkpoint_every=CHECKPOINT_EVERY,
        )
    elapsed = time.perf_counter() - started
    results = [outcome.result_for(spec) for spec in sweep.expand()]
    return store_path.read_bytes(), elapsed, results


def run_cifar_sweep(seed: int, size: str, work_dir: Path, phase: PhaseFactory) -> Iteration:
    """Why: conv SGD, codecs, store and checkpoint I/O dominate; topology is noise."""

    shape = CIFAR_SHAPES[size]
    started = time.perf_counter()
    problems: list[str] = []
    sweeps = {
        "small": cifar_sweep(seed, shape.small_nodes, shape.small_rounds),
        "large": cifar_sweep(seed, shape.large_nodes, shape.large_rounds),
    }
    stores = {}
    elapsed = {}
    node_rounds = {}
    for tag, rounds in (("small", shape.small_rounds), ("large", shape.large_rounds)):
        stores[tag], elapsed[tag], results = _run_store_sweep(sweeps[tag], work_dir, tag, phase)
        for result in results:
            _check_rounds(result, rounds, f"{tag}/{result.scheme}", problems)
        rows = stores[tag].count(b"\n")
        if rows != len(CIFAR_SCHEMES):
            problems.append(f"{tag}: store holds {rows} rows, expected {len(CIFAR_SCHEMES)}")
        node_rounds[tag] = sum(r.num_nodes * r.rounds_completed for r in results)
    digest = hashlib.sha256(stores["small"] + stores["large"]).hexdigest()
    # Peak RSS of the pool workers (the reaped children of this process),
    # read before the set-up probe below can grow this process.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    # The workers build their own cells, out of sight; time the same builds
    # here, after the sweeps, so the workers fork from a lean process.
    with phase("setup.large"):
        _, setup_s = _timed_setup(
            lambda: _build_sweep_cells(sweeps["large"]), shape.setup_repeats
        )
    return Iteration(
        setup_s=setup_s,
        run_s=elapsed["large"],
        node_rounds=node_rounds["large"],
        wall_s=time.perf_counter() - started,
        small_cost=elapsed["small"] / node_rounds["small"],
        digest=digest,
        peak_rss_mib=peak_rss_mib,
        problems=problems,
    )


class Workload(NamedTuple):
    run: Callable[[int, str, Path, PhaseFactory], Iteration]
    #: CPUs the workload keeps busy; a one-CPU workload is pinned to one CPU.
    cpus: int


WORKLOADS: dict[str, Workload] = {
    "fig10_scale": Workload(run_fig10_scale, cpus=1),
    "cifar_sweep": Workload(run_cifar_sweep, cpus=CIFAR_WORKERS),
    "async_churn": Workload(run_async_churn, cpus=1),
}
