"""The arena engine: contiguous ``(N, d)`` node-state arenas with batched kernels.

The per-node engine (:func:`~repro.simulation.engine.build_nodes` plus
:class:`~repro.simulation.engine.SynchronousMode`) stores one private model per
:class:`~repro.simulation.node.SimulationNode` and drives train/encode/
aggregate as a Python loop over nodes.  That is faithful to the original
process-per-client deployment but caps the fig10 scalability reproduction at a
few dozen nodes: the round cost is dominated by per-node, per-tensor Python
overhead, not by arithmetic.

This module batches the node *state* instead.  All mutable per-node training
state lives in three contiguous ``(N, d)`` float64 arenas — parameters,
gradients and momentum — and every node's :class:`~repro.nn.module.Parameter`
objects are rebound to row views into them (:func:`build_arena_nodes`).  The
:class:`ArenaSynchronousMode` schedule then replaces the hottest per-node loops
with whole-arena numpy operations:

* the SGD update of a local step runs once over all active rows
  (:meth:`NodeArenas.step_rows`) instead of once per node per tensor;
* the three DWT passes of a JWINS round (scores change, own coefficients,
  end-of-round change) each run as one batched
  :meth:`~repro.wavelets.transform.ModelTransform.forward_batch` /
  :meth:`~repro.wavelets.transform.ModelTransform.inverse_batch` call over a
  stacked coefficient matrix;
* everything between the DWTs — ranking, top-k, index sizing and the
  weighted average — runs as whole-matrix passes
  (:func:`~repro.core.jwins.prepare_rows`,
  :func:`~repro.core.jwins.aggregate_rows`), and the new models are written
  straight into the parameter arena;
* scenario churn/partition checks act on the active-id row set rather than on
  per-object membership tests.

The determinism contract is strict bit-identity: for any configuration,
``config.with_engine("arena")`` produces an
:class:`~repro.simulation.metrics.ExperimentResult` whose ``to_dict()`` is
byte-for-byte equal to the per-node engine's (the equivalence tests in
``tests/simulation/test_arena.py`` pin this down).  The per-node path stays the
reference twin; see ``docs/SCALING.md`` for the memory layout and the
measured scaling story.

Checkpoints are engine-agnostic: node ``state_dict`` payloads read identically
through the views, and :class:`ArenaSynchronousMode` keeps the mode name and
private state of :class:`~repro.simulation.engine.SynchronousMode`, so a
snapshot taken under one engine resumes under the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.interface import Message, RoundContext, SchemeFactory
from repro.core.jwins import JwinsScheme, aggregate_rows, prepare_rows
from repro.datasets.base import LearningTask
from repro.exceptions import SimulationError
from repro.nn.optim import SGD
from repro.simulation.engine import Simulator, SynchronousMode, build_nodes
from repro.simulation.experiment import ExperimentConfig
from repro.simulation.node import SimulationNode
from repro.wavelets.transform import ModelTransform

__all__ = [
    "ArenaSGD",
    "ArenaSynchronousMode",
    "NodeArenas",
    "build_arena_nodes",
]


class NodeArenas:
    """Contiguous ``(N, d)`` arenas holding every node's mutable training state.

    One row per node, one column per flat model parameter, laid out in the
    model's deterministic :meth:`~repro.nn.module.Module.parameters` order —
    so row ``i`` of :attr:`params` is exactly node ``i``'s flat parameter
    vector as returned by :func:`~repro.nn.module.get_flat_parameters`.

    Attributes
    ----------
    params:
        ``(N, d)`` parameter values; node models read and write it through
        per-tensor row views.
    grads:
        ``(N, d)`` accumulated gradients, zeroed by ``model.zero_grad()``
        through the same views.
    velocity:
        ``(N, d)`` SGD momentum buffers (all zeros while momentum is 0.0),
        owned jointly with each node's :class:`ArenaSGD`.
    """

    def __init__(self, num_nodes: int, shapes: list[tuple[int, ...]]) -> None:
        if num_nodes <= 0:
            raise SimulationError("an arena needs at least one node row")
        if not shapes:
            raise SimulationError("an arena needs at least one parameter tensor")
        self.num_nodes = int(num_nodes)
        self.shapes = [tuple(int(n) for n in shape) for shape in shapes]
        self.sizes = [int(np.prod(shape)) for shape in self.shapes]
        self.model_size = int(sum(self.sizes))
        bounds = np.concatenate([[0], np.cumsum(self.sizes)])
        self.slices = [
            slice(int(start), int(stop)) for start, stop in zip(bounds[:-1], bounds[1:])
        ]
        self.params = np.zeros((self.num_nodes, self.model_size), dtype=np.float64)
        self.grads = np.zeros_like(self.params)
        self.velocity = np.zeros_like(self.params)

    def tensor_views(
        self, arena: np.ndarray, row: int
    ) -> list[np.ndarray]:
        """Per-tensor views of ``arena``'s row ``row``, reshaped to the model shapes.

        The arenas are C-contiguous, so each ``arena[row, slice]`` segment is
        itself contiguous and the reshape is guaranteed to be a view — writes
        through the returned arrays land in the arena.
        """

        return [
            arena[row, column_range].reshape(shape)
            for column_range, shape in zip(self.slices, self.shapes)
        ]

    def step_rows(self, rows: np.ndarray, lr: float, momentum: float) -> None:
        """One batched SGD update over the given node rows.

        Bit-identical to calling :meth:`repro.nn.optim.SGD.step` on each
        node: the update is elementwise (``v = m*v + g``; ``p -= lr*u``) and
        elementwise float operations commute with row batching.  Weight decay
        is intentionally unsupported — the simulator never configures it.
        """

        if rows.size == 0:
            return
        if momentum:
            self.velocity[rows] *= momentum
            self.velocity[rows] += self.grads[rows]
            self.params[rows] -= lr * self.velocity[rows]
        else:
            self.params[rows] -= lr * self.grads[rows]


class ArenaSGD(SGD):
    """SGD whose momentum buffers are views into the shared velocity arena.

    Behaviorally identical to :class:`~repro.nn.optim.SGD` — ``step`` and
    ``state_dict`` keep the base behaviour and operate in place on the views —
    except that :meth:`load_state_dict` writes *through* the views instead of
    replacing the buffer list, which would silently sever the node from the
    arena and break the batched update path after a checkpoint restore.
    """

    def __init__(
        self,
        parameters,
        lr: float,
        momentum: float,
        velocity_views: list[np.ndarray],
    ) -> None:
        super().__init__(parameters, lr=lr, momentum=momentum)
        if len(velocity_views) != len(self.parameters):
            raise SimulationError(
                f"expected {len(self.parameters)} velocity views, "
                f"got {len(velocity_views)}"
            )
        for view, parameter in zip(velocity_views, self.parameters):
            if view.shape != parameter.value.shape:
                raise SimulationError(
                    f"velocity view shape {view.shape} does not match "
                    f"parameter shape {parameter.value.shape}"
                )
        self._velocity = list(velocity_views)

    def state_dict(self) -> dict:
        """Serialize exactly like :class:`~repro.nn.optim.SGD`.

        The velocity views read back the arena rows, so the inherited
        serialization is already exact; the method is defined explicitly so
        the pairing with the view-preserving :meth:`load_state_dict` is
        complete under the snapshot protocol.
        """

        return super().state_dict()

    def load_state_dict(self, state: dict) -> None:
        """Restore checkpointed momentum by writing through the arena views."""

        velocity = [np.asarray(buffer, dtype=np.float64) for buffer in state["velocity"]]
        if len(velocity) != len(self.parameters):
            raise SimulationError(
                f"checkpointed optimizer holds {len(velocity)} momentum buffers, "
                f"this optimizer tracks {len(self.parameters)} parameters"
            )
        for buffer, view in zip(velocity, self._velocity):
            if buffer.shape != view.shape:
                raise SimulationError(
                    f"momentum buffer shape {buffer.shape} does not match "
                    f"parameter shape {view.shape}"
                )
            view[...] = buffer


def build_arena_nodes(
    task: LearningTask,
    scheme_factory: SchemeFactory,
    config: ExperimentConfig,
) -> tuple[list[SimulationNode], NodeArenas]:
    """Build per-node simulation nodes whose state lives in shared arenas.

    Delegates all construction (data partitioning, model initialization,
    scheme seeding) to :func:`~repro.simulation.engine.build_nodes` so every
    RNG stream is consumed in exactly the per-node order, then migrates each
    node's parameter values, gradients and momentum buffers into the
    ``(N, d)`` arenas and rebinds the node's
    :class:`~repro.nn.module.Parameter` objects (and its optimizer, swapped
    for :class:`ArenaSGD`) to row views.  The nodes remain fully functional
    per-node objects — ``local_training``, ``state_dict`` and evaluation work
    unchanged — which is what keeps checkpoints and the async mode
    engine-agnostic.
    """

    nodes = build_nodes(task, scheme_factory, config)
    shapes = [parameter.shape for parameter in nodes[0].model.parameters()]
    arenas = NodeArenas(config.num_nodes, shapes)
    for node in nodes:
        row = node.node_id
        parameters = node.model.parameters()
        if [parameter.shape for parameter in parameters] != arenas.shapes:
            raise SimulationError(
                f"node {row} has a different parameter layout than node 0; "
                "the arena engine requires homogeneous models"
            )
        value_views = arenas.tensor_views(arenas.params, row)
        grad_views = arenas.tensor_views(arenas.grads, row)
        for parameter, value_view, grad_view in zip(parameters, value_views, grad_views):
            value_view[...] = parameter.value
            grad_view[...] = parameter.grad
            parameter.value = value_view
            parameter.grad = grad_view
        velocity_views = arenas.tensor_views(arenas.velocity, row)
        for view, buffer in zip(velocity_views, node.optimizer.state_dict()["velocity"]):
            view[...] = buffer
        node.optimizer = ArenaSGD(
            parameters,
            lr=node.optimizer.lr,
            momentum=node.optimizer.momentum,
            velocity_views=velocity_views,
        )
    return nodes, arenas


@dataclass(frozen=True)
class _JwinsBatchPlan:
    """Proof that a round's schemes can run through the batched JWINS path."""

    transform: ModelTransform
    use_accumulation: bool


#: The methods whose batched twins the arena round runs instead.
_JWINS_ROUND_PROTOCOL = (
    "prepare",
    "prepare_from_coefficients",
    "aggregate",
    "aggregate_coefficients",
    "finalize",
    "finalize_from_change",
)


def _jwins_batch_plan(nodes: list[SimulationNode]) -> _JwinsBatchPlan | None:
    """Whether (and how) the active nodes' schemes admit the batched JWINS round.

    The batched path is taken only when every scheme is the same
    :class:`~repro.core.jwins.JwinsScheme` subtype that inherits the round
    protocol unchanged (so :func:`~repro.core.jwins.prepare_rows` and
    :func:`~repro.core.jwins.aggregate_rows` cover it) and all schemes share
    one configuration, hence (in a homogeneous arena) one transform layout.
    Anything else — mixed schemes, a baseline scheme, a subclass overriding
    the round protocol — falls back to per-node scheme calls, still on
    arena-backed state.
    """

    if not nodes:
        return None
    first = nodes[0].scheme
    if not isinstance(first, JwinsScheme):
        return None
    cls = type(first)
    if any(
        getattr(cls, method) is not getattr(JwinsScheme, method)
        for method in _JWINS_ROUND_PROTOCOL
    ):
        return None
    for node in nodes[1:]:
        if type(node.scheme) is not cls or node.scheme.config != first.config:
            return None
    return _JwinsBatchPlan(
        transform=first.transform, use_accumulation=first.ranker.use_accumulation
    )


class ArenaSynchronousMode(SynchronousMode):
    """Lock-step rounds over arena state: batched SGD and batched DWT passes.

    A drop-in twin of :class:`~repro.simulation.engine.SynchronousMode` that
    produces byte-identical results while replacing the per-node hot loops:

    * **train** runs step-major — one gradient-arena zeroing, then every
      active node samples, forwards and backwards its own mini-batch
      (per-node RNG streams are independent, so the reorder is bit-safe),
      then one :meth:`NodeArenas.step_rows` call applies the SGD update to
      all active rows at once;
    * **encode** computes the two forward DWTs of a JWINS round for all
      active nodes in two batched passes, then ranks, cuts off, selects and
      sizes every message in one :func:`~repro.core.jwins.prepare_rows` call;
    * **aggregate** averages all inboxes in one ordered scatter-add
      (:func:`~repro.core.jwins.aggregate_rows`), reconstructs all rows in
      one batched inverse DWT, feeds the end-of-round accumulator update
      from one batched forward DWT of the round changes, and writes the new
      models straight into :attr:`NodeArenas.params`, which every node's
      parameters view.

    The delivery loop is copied verbatim from the per-node mode — the shared
    message-drop RNG must consume draws in exactly the per-node order —
    and scenario activity is expressed as the active-row index set.
    Non-JWINS (or heterogeneous) schemes fall back to per-node scheme calls
    while keeping the batched SGD training.  The mode keeps ``name = "sync"``
    and the ``{"kind", "clock"}`` checkpoint state of its parent, so
    snapshots interoperate across engines and executions can resume
    interrupted runs bit-identically (pinned in ``tests/simulation``).
    """

    def run(self, simulator: Simulator) -> None:
        config = simulator.config
        nodes = simulator.nodes
        arenas = simulator.arenas
        if arenas is None:
            raise SimulationError(
                "ArenaSynchronousMode requires arena-built nodes; "
                "set ExperimentConfig.engine='arena'"
            )
        clock = 0.0
        start_round = 0
        resume = simulator.consume_resume_state(self.name)
        if resume is not None:
            clock = float(resume.mode_state["clock"])
            start_round = int(resume.rounds_completed)

        for round_index in range(start_round, config.rounds):
            simulator.apply_topology_policy(round_index)
            state = simulator.scenario_state(round_index)
            active_rows = np.asarray(state.active, dtype=np.int64)
            active_nodes = [nodes[node_id] for node_id in state.active]
            plan = _jwins_batch_plan(active_nodes)

            # -- train: step-major, one batched SGD update per local step ----------
            with simulator.profile("train"):
                start_matrix = arenas.params[active_rows].copy()
                losses: list[list[float]] = [[] for _ in active_nodes]
                for node in active_nodes:
                    node.model.train()
                for _ in range(config.local_steps):
                    arenas.grads[active_rows] = 0.0
                    for position, node in enumerate(active_nodes):
                        inputs, targets = node.sample_batch()
                        outputs = node.model.forward(inputs)
                        losses[position].append(node.loss.forward(outputs, targets))
                        node.model.backward(node.loss.backward())
                    arenas.step_rows(
                        active_rows, config.learning_rate, config.momentum
                    )
                for position, node in enumerate(active_nodes):
                    node.last_train_loss = float(np.mean(losses[position]))
                trained_matrix = arenas.params[active_rows].copy()

            # -- byzantine + contexts (per-node loops over reorder-safe streams) ---
            presented: list[np.ndarray] = []
            contexts: list[RoundContext] = []
            for position, node in enumerate(active_nodes):
                presented.append(
                    simulator.apply_byzantine(
                        node.node_id,
                        round_index,
                        state,
                        start_matrix[position],
                        trained_matrix[position],
                    )
                )
                contexts.append(
                    simulator.make_context(
                        node, round_index, start_matrix[position], presented[position],
                        now=clock,
                    )
                )
            schemes = [node.scheme for node in active_nodes]

            # -- encode: batched DWT passes, then one batched JWINS encode ---------
            messages: dict[int, Message] = {}
            with simulator.profile("encode"):
                if plan is not None:
                    presented_matrix = np.stack(presented)
                    change_matrix = plan.transform.forward_batch(
                        presented_matrix - start_matrix
                    )
                    own_matrix = plan.transform.forward_batch(presented_matrix)
                    del presented_matrix
                    prepared = prepare_rows(schemes, contexts, change_matrix, own_matrix)
                    del change_matrix
                    for node, context, message in zip(active_nodes, contexts, prepared):
                        messages[node.node_id] = simulator.record_prepared_message(
                            node, context, message
                        )
                else:
                    for node, context in zip(active_nodes, contexts):
                        messages[node.node_id] = simulator.prepare_message(node, context)

            # -- deliver (verbatim per-node loop: shared drop-RNG draw order) ------
            round_fractions = [
                messages[node_id].shared_fraction for node_id in state.active
            ]
            drops_enabled = config.message_drop_probability > 0.0
            inboxes: list[list[Message]] = []
            for node in active_nodes:
                inbox: list[Message] = []
                for neighbor in simulator.topology.neighbors(node.node_id):
                    message = messages.get(neighbor)
                    if message is None:
                        continue  # the sender sat this round out
                    if not state.allows(neighbor, node.node_id):
                        simulator._m_suppressed.inc()
                        continue
                    if drops_enabled and not simulator.deliver_allowed():
                        simulator._m_dropped.inc()
                        continue
                    inbox.append(message)
                for message in inbox:
                    simulator.emit_message(message, node.node_id, clock)
                inboxes.append(inbox)

            # -- aggregate: one scatter-add, batched DWTs, direct writeback --------
            with simulator.profile("aggregate"):
                if plan is not None:
                    averaged_matrix = aggregate_rows(schemes, contexts, inboxes, own_matrix)
                    del own_matrix
                    new_matrix = plan.transform.inverse_batch(averaged_matrix)
                    del averaged_matrix
                    if plan.use_accumulation:
                        round_change_matrix = plan.transform.forward_batch(
                            new_matrix - start_matrix
                        )
                        for scheme, round_change in zip(schemes, round_change_matrix):
                            scheme.finalize_from_change(round_change)
                        del round_change_matrix
                    arenas.params[active_rows] = new_matrix
                else:
                    for node, context, inbox in zip(active_nodes, contexts, inboxes):
                        new_params = node.scheme.aggregate(context, inbox)
                        node.scheme.finalize(context, new_params)
                        node.set_parameters(new_params)

            # -- meter time and bytes (identical to the per-node mode) -------------
            max_bytes = max(
                (
                    message.size.total_bytes * simulator.topology.degree(message.sender)
                    for message in messages.values()
                ),
                default=0,
            )
            round_duration = config.time_model.round_duration(
                config.local_steps, max_bytes
            )
            worst_slowdown = state.max_slowdown()
            if worst_slowdown > 1.0:
                round_duration += (
                    worst_slowdown - 1.0
                ) * config.time_model.compute_duration(config.local_steps)
            clock += round_duration
            simulator.meter.end_round()
            simulator.result.rounds_completed = round_index + 1
            simulator.emit_round_end(round_index, None, clock)

            # -- evaluate ----------------------------------------------------------
            is_last = round_index == config.rounds - 1
            if (round_index + 1) % config.eval_every == 0 or is_last:
                shared = float(np.mean(round_fractions)) if round_fractions else 0.0
                simulator.record_evaluation(round_index + 1, shared, clock)
                if simulator.should_stop_at_target():
                    simulator.mark_profile_round(round_index)
                    break
            simulator.mark_profile_round(round_index)
            simulator.checkpoint_point(lambda: {"kind": self.name, "clock": clock})

        simulator.result.simulated_time_seconds = clock
        simulator.result.per_node_time_seconds = [clock] * config.num_nodes
