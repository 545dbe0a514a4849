"""Tests for Metropolis-Hastings mixing weights."""

import numpy as np
import pytest

from repro.topology.graphs import random_regular_topology, ring_topology, star_topology
from repro.topology.weights import metropolis_hastings_weights


@pytest.fixture
def topology():
    return random_regular_topology(12, 4, np.random.default_rng(0))


def test_metropolis_hastings_doubly_stochastic(topology):
    weights = metropolis_hastings_weights(topology).to_dense()
    assert np.allclose(weights.sum(axis=0), 1.0)
    assert np.allclose(weights.sum(axis=1), 1.0)
    assert np.all(weights >= -1e-12)


def test_metropolis_hastings_symmetric(topology):
    weights = metropolis_hastings_weights(topology).to_dense()
    assert np.allclose(weights, weights.T)


def test_metropolis_hastings_zero_on_non_edges(topology):
    weights = metropolis_hastings_weights(topology).to_dense()
    adjacency = np.zeros((topology.num_nodes, topology.num_nodes))
    for u, v in topology.edges:
        adjacency[u, v] = adjacency[v, u] = 1.0
    off_diagonal = ~np.eye(topology.num_nodes, dtype=bool)
    assert np.all(weights[off_diagonal & (adjacency == 0)] == 0)


def test_metropolis_hastings_regular_graph_values(topology):
    """On a d-regular graph every edge weight is 1 / (d + 1)."""

    weights = metropolis_hastings_weights(topology).to_dense()
    for u, v in topology.edges:
        assert weights[u, v] == pytest.approx(1.0 / 5.0)


def test_metropolis_hastings_star_graph_handles_degree_imbalance():
    weights = metropolis_hastings_weights(star_topology(6)).to_dense()
    assert np.allclose(weights.sum(axis=1), 1.0)
    assert np.all(np.diag(weights) >= 0)


def test_gossip_step_preserves_average(topology):
    weights = metropolis_hastings_weights(topology).to_dense()
    values = np.random.default_rng(1).normal(size=(topology.num_nodes, 3))
    mixed = weights @ values
    assert np.allclose(mixed.mean(axis=0), values.mean(axis=0))


def test_repeated_gossip_converges_to_consensus():
    topology = ring_topology(8)
    weights = metropolis_hastings_weights(topology).to_dense()
    values = np.random.default_rng(2).normal(size=8)
    mixed = values.copy()
    for _ in range(200):
        mixed = weights @ mixed
    assert np.allclose(mixed, values.mean(), atol=1e-6)


def test_rows_align_with_neighbor_lists(topology):
    weights = metropolis_hastings_weights(topology)
    dense = weights.to_dense()
    for node in range(topology.num_nodes):
        row = weights.row(node)
        assert row.shape == (topology.degree(node),)
        assert np.array_equal(row, dense[node, topology.neighbors(node)])
        assert weights.self_weights[node] == dense[node, node]
