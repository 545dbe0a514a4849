"""Deterministic guards against per-lookup work that grows with N.

A round must stay linear in the number of nodes.  Two lookups used to make
it quadratic: a neighbor query that scanned the whole edge list, and a
scenario check that rebuilt or searched the round's state on every delivery.
These tests count work instead of timing it, so they are exact on any host:

* the edge list of every topology is iterated a constant number of times
  (at construction), however many nodes, rounds and lookups follow;
* ``ScenarioSchedule.state_at`` runs at most once per round;
* an arena JWINS round runs its encode, average and writeback as matrix
  passes: no per-row top-k, Elias-gamma encode, weighted average or flat
  parameter write is called, whatever N is.

Each execution path is covered: the arena sync engine, the per-node sync
engine and event-driven gossip, under a scenario with churn, a partition and
a topology rewired every round.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.compression.indices import EliasGammaIndexCodec
from repro.core import aggregation, jwins, jwins_factory
from repro.nn import module
from repro.simulation import node as simulation_node
from repro.sparsification import topk
from repro.scenarios.schedule import NodeOutage, PartitionWindow, ScenarioSchedule
from repro.simulation import ExperimentConfig, Simulator
from repro.topology import policy
from repro.topology.graphs import Topology
from repro.topology.policy import GeneratorPolicy
from tests.conftest import make_toy_task

ROUNDS = 3
SIZES = (32, 128)
PATHS = {
    "arena-sync": dict(engine="arena"),
    "pernode-sync": dict(engine="pernode"),
    "async": dict(execution="async"),
}


class CountingEdges(tuple):
    """An edge tuple that counts how often it is iterated."""

    iterations: int

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def _scenario(num_nodes: int) -> ScenarioSchedule:
    half = num_nodes // 2
    return ScenarioSchedule(
        name="scaling-guard",
        topology=GeneratorPolicy(rewire_every=1),
        outages=(NodeOutage(node=1, start_round=1, end_round=2),),
        partitions=(
            PartitionWindow(
                start_round=1,
                end_round=3,
                groups=(tuple(range(half)), tuple(range(half, num_nodes))),
            ),
        ),
    )


def _config(path: str, num_nodes: int) -> ExperimentConfig:
    return ExperimentConfig(
        num_nodes=num_nodes,
        degree=4,
        rounds=ROUNDS,
        local_steps=1,
        batch_size=8,
        eval_every=ROUNDS,
        eval_nodes=4,
        eval_test_samples=32,
        seed=5,
        partition="iid",
        scenario=_scenario(num_nodes),
        **PATHS[path],
    )


def _run(path: str, num_nodes: int, monkeypatch) -> tuple[list[int], Counter]:
    """Run one deployment; returns per-topology edge iterations and state_at calls."""

    topologies: list[CountingEdges] = []
    generate = policy.TOPOLOGY_GENERATORS["random-regular"]

    def counted_generator(*args, **kwargs) -> Topology:
        sampled = generate(*args, **kwargs)
        edges = CountingEdges(sampled.edges)
        edges.iterations = 0
        topologies.append(edges)
        return Topology(num_nodes=sampled.num_nodes, edges=edges)

    state_calls: Counter = Counter()
    state_at = ScenarioSchedule.state_at

    def counted_state_at(self, round_index, num_nodes):
        state_calls[round_index] += 1
        return state_at(self, round_index, num_nodes)

    with monkeypatch.context() as patch:
        patch.setitem(policy.TOPOLOGY_GENERATORS, "random-regular", counted_generator)
        patch.setattr(ScenarioSchedule, "state_at", counted_state_at)
        task = make_toy_task(train_samples=2 * num_nodes)
        result = Simulator(task, jwins_factory(), _config(path, num_nodes)).run()
    assert result.rounds_completed == ROUNDS
    assert len(result.scenario_rounds) == ROUNDS
    return [edges.iterations for edges in topologies], state_calls


@pytest.mark.parametrize("path", sorted(PATHS))
def test_edge_list_iterations_do_not_grow_with_lookups(path, monkeypatch):
    counts = {size: _run(path, size, monkeypatch)[0] for size in SIZES}
    for size, iterations in counts.items():
        # Sync rewires before rounds 1 and 2; gossip rewires as the global
        # round advances: an initial graph plus up to one per later round.
        assert 2 <= len(iterations) <= ROUNDS, (size, iterations)
        assert max(iterations) <= 1, (size, iterations)
    small, large = (counts[size] for size in SIZES)
    assert set(small) == set(large)


@pytest.mark.parametrize("path", sorted(PATHS))
def test_state_at_runs_at_most_once_per_round(path, monkeypatch):
    for size in SIZES:
        calls = _run(path, size, monkeypatch)[1]
        # Gossip may also look up round ROUNDS: a late delivery reaching a
        # node that has already finished its last round.
        assert set(range(ROUNDS)) <= set(calls) <= set(range(ROUNDS + 1)), (size, calls)
        assert max(calls.values()) == 1, (size, calls)


#: Per-row functions a batched arena JWINS round must not call, at every
#: place a caller could look them up.
PER_ROW_CALLS = (
    (topk, "topk_indices"),
    (jwins, "topk_indices"),
    (EliasGammaIndexCodec, "encode"),
    (aggregation, "partial_weighted_average"),
    (jwins, "partial_weighted_average"),
    (module, "set_flat_parameters"),
    (simulation_node, "set_flat_parameters"),
)


@pytest.mark.parametrize("num_nodes", SIZES)
def test_arena_jwins_round_makes_no_per_row_calls(num_nodes, monkeypatch):
    calls: Counter = Counter()

    def counting(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return counted

    task = make_toy_task(train_samples=2 * num_nodes)
    simulator = Simulator(task, jwins_factory(), _config("arena-sync", num_nodes))
    with monkeypatch.context() as patch:
        for owner, name in PER_ROW_CALLS:
            patch.setattr(owner, name, counting(name, getattr(owner, name)))
        result = simulator.run()
    assert result.rounds_completed == ROUNDS
    assert result.total_bytes > 0
    assert calls == Counter(), calls
