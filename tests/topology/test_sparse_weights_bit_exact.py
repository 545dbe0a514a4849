"""Pin the sparse Metropolis-Hastings weights to the dense matrix, bit for bit.

Every run's numbers depend on these weights, so the sparse form must
reproduce the historical dense construction exactly: ``==``, never a
tolerance.  The reference below is that construction, kept verbatim.
"""

import numpy as np
import pytest

from repro.topology.graphs import (
    clustered_topology,
    random_regular_topology,
    ring_topology,
    small_world_topology,
    star_topology,
)
from repro.topology.weights import metropolis_hastings_weights


def dense_reference(topology):
    size = topology.num_nodes
    degrees = [topology.degree(node) for node in range(size)]
    matrix = np.zeros((size, size))
    for u, v in topology.edges:
        weight = 1.0 / (1.0 + max(degrees[u], degrees[v]))
        matrix[u, v] = weight
        matrix[v, u] = weight
    for node in range(size):
        matrix[node, node] = 1.0 - matrix[node].sum()
    return matrix


TOPOLOGIES = {
    "random-regular-16": lambda: random_regular_topology(16, 6, np.random.default_rng(0)),
    "random-regular-250": lambda: random_regular_topology(250, 6, np.random.default_rng(1)),
    "random-regular-2000": lambda: random_regular_topology(2000, 6, np.random.default_rng(2)),
    "small-world-500": lambda: small_world_topology(500, 6, 0.2, np.random.default_rng(3)),
    "clustered-300": lambda: clustered_topology(300, 4, 3, np.random.default_rng(4)),
    "ring-9": lambda: ring_topology(9),
    "star-11": lambda: star_topology(11, center=3),
}


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_sparse_weights_equal_the_dense_construction_exactly(name):
    topology = TOPOLOGIES[name]()
    weights = metropolis_hastings_weights(topology)
    reference = dense_reference(topology)
    for node in range(topology.num_nodes):
        assert weights.self_weights[node] == reference[node, node], node
        neighbors = topology.neighbors(node)
        assert np.array_equal(weights.row(node), reference[node, neighbors]), node
    # Nothing outside the diagonal and the edges carries weight.
    assert np.array_equal(weights.to_dense(), reference)
