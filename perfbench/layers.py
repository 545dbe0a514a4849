"""Per-layer tracing from outside the program: wrappers around public functions.

:class:`LayerTracer` patches each function listed in :data:`LAYER_POINTS`
where its caller looks it up (a class attribute, or a module global such as
``repro.simulation.engine.metropolis_hastings_weights``), records one span
``(name, start, end, parent)`` per call in memory, and restores every
original on :meth:`LayerTracer.restore`.  Nothing under ``src/`` changes.

A layer's self time is its spans' total duration minus the time covered by
their child spans.  The self time of the spans the benchmark opens itself
(the iteration, its phases and, in pool workers, each sweep cell) is
``trace.other_s``, so ``sum(self_s over layers) + trace.other_s`` is the
traced wall-clock of every process.  Pool workers inherit the patches through
``fork``; their spans are flushed to ``spans-<pid>.json`` in the work
directory after each root span and merged by :func:`summarize`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, ContextManager, Iterator

#: Span name of one whole iteration (the root in the iteration process).
ITERATION_SPAN = "iteration"
#: Span name of each sweep cell in a pool worker (a worker-side root).
CELL_SPAN = "orchestration.cell"

Counter = Callable[[tuple, dict, Any], dict[str, float]]


def _rows(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    rows = float(args[1].shape[0])
    return {"rows": rows, "batched_rows": rows}


def _one_row(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"rows": 1.0}


def _float_codec(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"raw_bytes": float(args[1].nbytes), "bytes": float(result.size_bytes)}


def _index_codec(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"indices": float(len(args[1])), "bytes": float(result.size_bytes)}


def _copies(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    copies = kwargs.get("copies", args[3] if len(args) > 3 else 1)
    return {"copies": float(copies)}


def _file_bytes(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"bytes": float(Path(result).stat().st_size)}


@dataclass(frozen=True)
class Point:
    """One patch site: ``owner`` is ``"module:Class"`` or ``"module"``."""

    layer: str
    owner: str
    attribute: str
    counter: Counter | None = None


#: Every public function the traced run wraps, grouped by layer.
LAYER_POINTS: tuple[Point, ...] = (
    Point("topology.neighbors", "repro.topology.graphs:Topology", "neighbors"),
    Point("topology.weights", "repro.simulation.engine", "metropolis_hastings_weights"),
    Point("topology.generate", "repro.topology.policy:GeneratorPolicy", "initial"),
    Point("topology.generate", "repro.topology.policy:GeneratorPolicy", "rewire"),
    Point("scenarios.allows", "repro.scenarios.schedule:ScenarioState", "allows"),
    Point("scenarios.state_at", "repro.scenarios.schedule:ScenarioSchedule", "state_at"),
    Point("simulation.make_context", "repro.simulation.engine:Simulator", "make_context"),
    Point("simulation.meter", "repro.simulation.network:ByteMeter", "record_send", _copies),
    Point("simulation.meter", "repro.simulation.network:ByteMeter", "end_round"),
    Point("simulation.emit_message", "repro.simulation.engine:Simulator", "emit_message"),
    Point("simulation.build_nodes", "repro.simulation.engine", "build_nodes"),
    Point("simulation.build_nodes", "repro.simulation.arena", "build_nodes"),
    Point("simulation.events", "repro.simulation.events:EventLoop", "schedule"),
    Point("simulation.events", "repro.simulation.events:EventLoop", "pop"),
    Point("simulation.sample_batch", "repro.simulation.node:SimulationNode", "sample_batch"),
    Point("simulation.evaluate", "repro.simulation.engine:Simulator", "record_evaluation"),
    Point("wavelets.setup", "repro.wavelets.transform:WaveletTransform", "__init__"),
    Point("wavelets.forward", "repro.wavelets.transform:WaveletTransform", "forward", _one_row),
    Point("wavelets.forward", "repro.wavelets.transform:WaveletTransform", "forward_batch", _rows),
    Point("wavelets.inverse", "repro.wavelets.transform:WaveletTransform", "inverse", _one_row),
    Point("wavelets.inverse", "repro.wavelets.transform:WaveletTransform", "inverse_batch", _rows),
    Point("nn.forward", "repro.nn.models:MLPClassifier", "forward"),
    Point("nn.forward", "repro.nn.models:ConvClassifier", "forward"),
    Point("nn.backward", "repro.nn.models:MLPClassifier", "backward"),
    Point("nn.backward", "repro.nn.models:ConvClassifier", "backward"),
    Point("nn.loss", "repro.nn.losses:CrossEntropyLoss", "forward"),
    Point("nn.loss", "repro.nn.losses:CrossEntropyLoss", "backward"),
    Point("nn.sgd_step", "repro.nn.optim:SGD", "step"),
    Point("nn.sgd_step", "repro.simulation.arena:NodeArenas", "step_rows"),
    Point("core.rank", "repro.core.ranking:WaveletRanker", "round_scores"),
    Point("core.rank", "repro.core.ranking:WaveletRanker", "round_scores_from_change"),
    Point("core.rank", "repro.core.ranking:WaveletRanker", "mark_shared"),
    Point("core.rank", "repro.core.ranking:WaveletRanker", "end_of_round"),
    Point("core.rank", "repro.core.ranking:WaveletRanker", "end_of_round_from_change"),
    Point("core.topk", "repro.core.jwins", "topk_indices"),
    Point("core.cutoff", "repro.core.cutoff:CutoffDistribution", "sample"),
    Point("core.aggregate", "repro.core.jwins", "partial_weighted_average"),
    Point("compression.float", "repro.compression.float_codec:FloatCodec", "compress", _float_codec),
    Point("compression.float", "repro.compression.float_codec:FloatCodec", "decompress"),
    Point("compression.index", "repro.compression.indices:EliasGammaIndexCodec", "encode", _index_codec),
    Point("compression.index", "repro.compression.indices:EliasGammaIndexCodec", "decode"),
    Point("baselines.prepare", "repro.baselines.choco:ChocoScheme", "prepare"),
    Point("baselines.prepare", "repro.baselines.full_sharing:FullSharingScheme", "prepare"),
    Point("baselines.prepare", "repro.baselines.random_sampling:RandomSamplingScheme", "prepare"),
    Point("baselines.aggregate", "repro.baselines.choco:ChocoScheme", "aggregate"),
    Point("baselines.aggregate", "repro.baselines.full_sharing:FullSharingScheme", "aggregate"),
    Point("baselines.aggregate", "repro.baselines.random_sampling:RandomSamplingScheme", "aggregate"),
    Point("orchestration.store", "repro.orchestration.store:ResultStore", "put"),
    Point("orchestration.serialize", "repro.simulation.metrics:ExperimentResult", "to_dict"),
    Point(CELL_SPAN, "repro.orchestration.spec:ExperimentSpec", "run"),
    Point("checkpoint.capture", "repro.checkpoint.snapshot", "capture_snapshot"),
    Point("checkpoint.save", "repro.checkpoint.manager:CheckpointManager", "save", _file_bytes),
)


def resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class LayerTracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, work_dir: Path) -> None:
        self.work_dir = Path(work_dir)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: One ``[name_id, start, end, parent]`` list per span, in open order.
        self.spans: list[list[float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = [-1]
        self._pid = os.getpid()
        self._originals: list[tuple[Any, str, Any, bool]] = []
        os.register_at_fork(after_in_child=self._forget_parent_spans)

    def _forget_parent_spans(self) -> None:
        # A forked pool worker starts with a copy of the parent's buffer and
        # open-span stack; its own spans must not re-count the parent's.
        self.spans.clear()
        self.counters.clear()
        self._stack[:] = [-1]

    # -- recording -------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a benchmark-side span (the iteration, or a ``phase.*``)."""

        index = len(self.spans)
        self.spans.append([self._name_id(name), time.perf_counter(), 0.0, self._stack[-1]])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def phase(self, name: str) -> ContextManager[None]:
        return self.span(f"phase.{name}")

    def wrap(self, layer: str, function: Callable, counter: Counter | None) -> Callable:
        tracer = self
        name_id = self._name_id(layer)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            span = [name_id, clock(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer.counters[f"{layer}.{key}"] += value
            if len(stack) == 1 and os.getpid() != tracer._pid:
                # A root span closed in a pool worker, which may be
                # terminated without running exit hooks: write it out now.
                tracer.flush_worker()
            return result

        traced.__perfbench_original__ = function  # type: ignore[attr-defined]
        return traced

    # -- patching --------------------------------------------------------------------
    def install(self) -> None:
        for point in LAYER_POINTS:
            owner = resolve(point.owner)
            had_own = point.attribute in vars(owner)
            original = getattr(owner, point.attribute)
            self._originals.append((owner, point.attribute, original, had_own))
            setattr(owner, point.attribute, self.wrap(point.layer, original, point.counter))

    def restore(self) -> None:
        for owner, attribute, original, had_own in reversed(self._originals):
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._originals.clear()

    # -- pool workers ----------------------------------------------------------------
    def flush_worker(self) -> None:
        """Append this worker's spans to its file and start a fresh buffer."""

        path = self.work_dir / f"spans-{os.getpid()}.json"
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(self._payload()) + "\n")
        self.spans.clear()
        self.counters.clear()

    def _payload(self) -> dict[str, Any]:
        return {"names": self.names, "spans": self.spans, "counters": dict(self.counters)}


def leftover_patches() -> list[str]:
    """The patch sites that still hold a wrapper (empty after a clean restore)."""

    leftover = []
    for point in LAYER_POINTS:
        value = getattr(resolve(point.owner), point.attribute)
        if hasattr(value, "__perfbench_original__"):
            leftover.append(f"{point.owner}.{point.attribute}")
    return leftover


# -- summarizing -------------------------------------------------------------------------


def _buffers(tracer: LayerTracer) -> Iterator[dict[str, Any]]:
    yield tracer._payload()
    for path in sorted(tracer.work_dir.glob("spans-*.json")):
        for line in path.read_text(encoding="utf-8").splitlines():
            yield json.loads(line)


def is_layer(name: str) -> bool:
    """Whether a span name is a program layer (not a benchmark-side root)."""

    return not (name == ITERATION_SPAN or name == CELL_SPAN or name.startswith("phase."))


def summarize(tracer: LayerTracer) -> dict[str, Any]:
    """Totals per span name, and per phase, over this process and its workers.

    Returns ``{"spans": {name: {"calls", "self_s", "total_s"}}, "phases":
    {phase: {name: self_s}}, "counters": {...}}``.  A span's phase is the
    nearest enclosing ``phase.*`` span; in pool workers it is the sweep cell
    (:data:`CELL_SPAN`) that encloses it.
    """

    spans_by_name: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    )
    phases: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    counters: dict[str, float] = defaultdict(float)
    for buffer in _buffers(tracer):
        names = buffer["names"]
        spans = buffer["spans"]
        for key, value in buffer["counters"].items():
            counters[key] += value
        child_time = [0.0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                child_time[int(parent)] += end - start
        # Parents always precede their children in open order.
        phase_of: list[str | None] = [None] * len(spans)
        for index, (name_id, start, end, parent) in enumerate(spans):
            name = names[int(name_id)]
            self_s = end - start - child_time[index]
            totals = spans_by_name[name]
            totals["calls"] += 1
            totals["self_s"] += self_s
            totals["total_s"] += end - start
            if name.startswith("phase."):
                phase_of[index] = name[len("phase."):]
            elif name == CELL_SPAN:
                phase_of[index] = CELL_SPAN
            elif parent >= 0:
                phase_of[index] = phase_of[int(parent)]
            if phase_of[index] is not None:
                phases[phase_of[index]][name] += self_s
    return {
        "spans": {name: dict(values) for name, values in sorted(spans_by_name.items())},
        "phases": {name: dict(values) for name, values in phases.items()},
        "counters": dict(counters),
    }
