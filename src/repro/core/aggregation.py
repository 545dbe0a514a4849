"""Weighted averaging of sparse (partial) model vectors.

When a node only receives a subset of a neighbor's coefficients, the missing
entries are substituted with the node's own values before the weighted
(Metropolis–Hastings) averaging — this is how partial sharing is aggregated in
DecentralizePy and what Algorithm 1 line 10 ("average all received partial
wavelets with own coefficients") means in practice.  The same helper serves
the parameter domain (random sampling, TopK) and the wavelet domain (JWINS).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import SimulationError

__all__ = ["SparseContribution", "partial_weighted_average", "scatter_weighted_average"]


class SparseContribution:
    """One neighbor's sparse contribution: ``values`` at ``indices`` with ``weight``."""

    __slots__ = ("weight", "indices", "values")

    def __init__(self, weight: float, indices: np.ndarray, values: np.ndarray) -> None:
        self.weight = float(weight)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        if self.indices.shape != self.values.shape:
            raise SimulationError("indices and values must have the same length")


def partial_weighted_average(
    own: np.ndarray,
    self_weight: float,
    contributions: Iterable[SparseContribution],
) -> np.ndarray:
    """Weighted average of the own vector with sparse neighbor contributions.

    Each neighbor's vector is mentally "completed" by filling its unshared
    entries with the own values, then the usual weighted average is taken:

    ``result = W_ii * own + sum_j W_ij * completed_j``

    which simplifies to adding ``W_ij * (values_j - own[indices_j])`` at the
    shared positions.  The weights of the received contributions plus the own
    weight may sum to *less* than one: any missing mass (a neighbor whose
    message was dropped or who left the network) implicitly keeps the node's
    own values, which is what makes the sharing schemes robust to message loss
    and churn.  A total above one is always an error — it would amplify the
    model instead of averaging it.
    """

    own = np.asarray(own, dtype=np.float64).reshape(1, -1)
    return scatter_weighted_average(own, [self_weight], [list(contributions)])[0]


#: Contribution entries averaged per pass of :func:`scatter_weighted_average`;
#: bounds its temporaries (about 0.5 MB per array) whatever the batch size.
_TERMS_PER_PASS = 1 << 16


def scatter_weighted_average(
    own: np.ndarray,
    self_weights: Sequence[float],
    inboxes: Sequence[Sequence[SparseContribution]],
) -> np.ndarray:
    """Row-wise :func:`partial_weighted_average` of an ``(R, C)`` own matrix.

    Row ``r`` averages ``own[r]`` (weight ``self_weights[r]``) with the
    contributions of ``inboxes[r]``, whose indices must each be distinct.
    Every term ``w * (values - own[r, indices])`` reads the unchanged own
    matrix, so a block of rows computes all of its terms in one pass;
    ``np.add.at`` then adds them into a copy of ``own`` in row-major, inbox
    order.  It applies repeated indices one after another in index order, so
    each element receives its additions in inbox order, exactly as a
    per-row loop would.  Rows are independent, so blocking them changes no
    bit; it only caps the pass size at about :data:`_TERMS_PER_PASS` terms.
    """

    own = np.asarray(own, dtype=np.float64)
    totals = np.array(self_weights, dtype=np.float64)
    if own.ndim != 2 or totals.shape != (own.shape[0],) or len(inboxes) != own.shape[0]:
        raise SimulationError(
            f"expected an (R, C) own matrix with R self weights and R inboxes, got "
            f"shapes {own.shape}, {totals.shape} and {len(inboxes)} inboxes"
        )
    width = own.shape[1]
    own_flat = own.reshape(-1)
    result = own.copy()
    result_flat = result.reshape(-1)
    row_terms = np.array(
        [sum(contribution.indices.size for contribution in inbox) for inbox in inboxes],
        dtype=np.int64,
    )
    first_term = np.cumsum(row_terms) - row_terms
    splits = (np.flatnonzero(np.diff(first_term // _TERMS_PER_PASS)) + 1).tolist()
    for start, stop in zip([0, *splits], [*splits, len(inboxes)]):
        block = inboxes[start:stop]
        contributions = [contribution for inbox in block for contribution in inbox]
        if not contributions:
            continue
        flat = np.concatenate([contribution.indices for contribution in contributions])
        if flat.size and (flat.min() < 0 or flat.max() >= width):
            raise SimulationError("contribution indices out of range")
        rows = np.repeat(np.arange(start, stop), [len(inbox) for inbox in block])
        weights = np.array([contribution.weight for contribution in contributions])
        sizes = [contribution.indices.size for contribution in contributions]
        flat += np.repeat(rows * width, sizes)
        terms = np.concatenate([contribution.values for contribution in contributions])
        terms -= own_flat[flat]
        terms *= np.repeat(weights, sizes)
        np.add.at(result_flat, flat, terms)
        np.add.at(totals, rows, weights)
    excess = np.flatnonzero(totals > 1.0 + 1e-6)
    if excess.size:
        raise SimulationError(
            "mixing weights must not exceed 1 for a stable average, "
            f"got {float(totals[excess[0]])}"
        )
    return result
