"""Mixing weights for decentralized averaging.

The paper runs D-PSGD with Metropolis–Hastings weights (Xiao & Boyd, 2004):
``W[i][j] = 1 / (1 + max(deg(i), deg(j)))`` for every edge, with the diagonal
absorbing the remaining mass.  The resulting matrix is symmetric and doubly
stochastic, which is what guarantees the average model is preserved by a
gossip step.

The matrix is stored sparsely (:class:`MixingWeights`): one self weight per
node plus the edge weights aligned with the topology's CSR adjacency, so a
deployment of ``N`` nodes holds ``O(N·d)`` weights instead of ``N²``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import TopologyError
from repro.topology.graphs import Topology

__all__ = ["MixingWeights", "metropolis_hastings_weights"]


@dataclass(frozen=True, eq=False)
class MixingWeights:
    """A sparse symmetric mixing matrix over ``topology``.

    ``self_weights[i]`` is the diagonal entry of node ``i``;
    ``neighbor_weights`` is aligned with ``topology.indices``, so
    :meth:`row` of node ``i`` lines up with ``topology.neighbors(i)``.
    """

    topology: Topology
    self_weights: np.ndarray
    neighbor_weights: np.ndarray

    def row(self, node: int) -> np.ndarray:
        """Weights of ``node``'s neighbors, in ``topology.neighbors(node)`` order."""

        indptr = self.topology.indptr
        return self.neighbor_weights[indptr[node] : indptr[node + 1]]

    def to_dense(self) -> np.ndarray:
        """The equivalent dense ``N × N`` matrix (for inspection and tests)."""

        topology = self.topology
        matrix = np.diag(self.self_weights)
        rows = np.repeat(np.arange(topology.num_nodes), topology.degrees)
        matrix[rows, topology.indices] = self.neighbor_weights
        return matrix


def metropolis_hastings_weights(topology: Topology) -> MixingWeights:
    """Symmetric doubly-stochastic mixing weights for ``topology``."""

    size = topology.num_nodes
    degrees = topology.degrees
    rows = np.repeat(np.arange(size), degrees)
    neighbor_weights = 1.0 / (1.0 + np.maximum(degrees[rows], degrees[topology.indices]))
    # Each self weight is ``1 - sum`` of the node's full length-N matrix row,
    # summed as that dense row: numpy's pairwise summation groups terms by
    # position, so summing the d nonzeros alone rounds differently in the
    # last bit for most rows of a typical graph.  One scratch row, filled and
    # reset per node, keeps the historical bits without an N × N matrix.
    scratch = np.zeros(size)
    self_weights = np.empty(size)
    indptr, indices = topology.indptr, topology.indices
    for node in range(size):
        start, stop = indptr[node], indptr[node + 1]
        columns = indices[start:stop]
        scratch[columns] = neighbor_weights[start:stop]
        self_weights[node] = 1.0 - scratch.sum()
        scratch[columns] = 0.0
    if np.any(self_weights < -1e-12):
        raise TopologyError("Metropolis-Hastings weights produced a negative entry")
    for array in (self_weights, neighbor_weights):
        array.flags.writeable = False
    return MixingWeights(topology, self_weights, neighbor_weights)
