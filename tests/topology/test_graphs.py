"""Tests for communication topologies."""

import numpy as np
import pytest

from repro.exceptions import TopologyError
from repro.topology.graphs import (
    Topology,
    fully_connected_topology,
    random_regular_topology,
    ring_topology,
    star_topology,
)


def test_random_regular_topology_degrees():
    topology = random_regular_topology(16, 4, np.random.default_rng(0))
    assert topology.num_nodes == 16
    for node in range(16):
        assert topology.degree(node) == 4
    assert topology.is_connected()


def test_random_regular_topology_is_deterministic_per_rng():
    a = random_regular_topology(12, 4, np.random.default_rng(7))
    b = random_regular_topology(12, 4, np.random.default_rng(7))
    assert a.edges == b.edges


def test_random_regular_odd_product_raises():
    with pytest.raises(TopologyError):
        random_regular_topology(5, 3, np.random.default_rng(0))


def test_random_regular_degree_too_large_raises():
    with pytest.raises(TopologyError):
        random_regular_topology(4, 4, np.random.default_rng(0))


def test_ring_topology_structure():
    topology = ring_topology(6)
    assert len(topology.edges) == 6
    assert topology.neighbors(0) == [1, 5]
    assert topology.is_connected()


def test_fully_connected_topology():
    topology = fully_connected_topology(5)
    assert len(topology.edges) == 10
    for node in range(5):
        assert topology.degree(node) == 4


def test_star_topology():
    topology = star_topology(7, center=2)
    assert topology.degree(2) == 6
    assert all(topology.degree(node) == 1 for node in range(7) if node != 2)


def test_star_invalid_center_raises():
    with pytest.raises(TopologyError):
        star_topology(4, center=9)


def test_topology_rejects_self_loops():
    with pytest.raises(TopologyError):
        Topology(num_nodes=3, edges=((0, 0),))


def test_topology_rejects_unknown_nodes():
    with pytest.raises(TopologyError):
        Topology(num_nodes=3, edges=((0, 5),))


def _scanned_neighbors(topology, node):
    """Reference lookup: scan every edge (the pre-CSR implementation)."""

    found = set()
    for u, v in topology.edges:
        if u == node:
            found.add(v)
        elif v == node:
            found.add(u)
    return sorted(found)


@pytest.mark.parametrize(
    "topology",
    [
        random_regular_topology(40, 6, np.random.default_rng(3)),
        star_topology(7, center=2),
        ring_topology(5),
        # Duplicate and reversed edges collapse to one neighbor entry.
        Topology(num_nodes=4, edges=((0, 1), (1, 0), (0, 1), (2, 3))),
    ],
)
def test_csr_neighbors_and_degrees_match_an_edge_scan(topology):
    for node in range(topology.num_nodes):
        expected = _scanned_neighbors(topology, node)
        assert topology.neighbors(node) == expected
        assert topology.degree(node) == len(expected)
    assert topology.indptr[-1] == len(topology.indices) == int(topology.degrees.sum())


def test_derived_csr_state_leaves_equality_and_edges_untouched():
    a = Topology(num_nodes=3, edges=((0, 1), (1, 2)))
    b = Topology(num_nodes=3, edges=((0, 1), (1, 2)))
    assert a == b and hash(a) == hash(b)
    assert a.edges == ((0, 1), (1, 2))
    assert a != Topology(num_nodes=3, edges=((0, 1), (0, 2)))


def test_is_connected_detects_a_split_graph():
    assert not Topology(num_nodes=4, edges=((0, 1), (2, 3))).is_connected()
    assert not Topology(num_nodes=3, edges=()).is_connected()
    assert Topology(num_nodes=4, edges=((0, 1), (1, 2), (2, 3))).is_connected()
