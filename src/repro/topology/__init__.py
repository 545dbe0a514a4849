"""Topology substrate: communication graphs, mixing weights and policies."""

from repro.topology.graphs import (
    Topology,
    clustered_topology,
    fully_connected_topology,
    random_regular_topology,
    ring_topology,
    small_world_topology,
    star_topology,
)
from repro.topology.policy import (
    TOPOLOGY_GENERATORS,
    GeneratorPolicy,
    TopologyPolicy,
    topology_policy_from_dict,
)
from repro.topology.weights import MixingWeights, metropolis_hastings_weights

__all__ = [
    "GeneratorPolicy",
    "MixingWeights",
    "TOPOLOGY_GENERATORS",
    "Topology",
    "TopologyPolicy",
    "clustered_topology",
    "fully_connected_topology",
    "random_regular_topology",
    "ring_topology",
    "small_world_topology",
    "star_topology",
    "topology_policy_from_dict",
    "metropolis_hastings_weights",
]
