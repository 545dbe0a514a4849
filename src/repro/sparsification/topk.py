"""TopK sparsification by absolute magnitude."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.sparsification.base import Sparsifier

__all__ = ["TopKSparsifier", "topk_groups", "topk_indices"]


def topk_indices(scores: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` largest |scores|, returned sorted ascending."""

    scores = np.asarray(scores).reshape(1, -1)
    ((_, indices),) = topk_groups(scores, np.array([count]))
    return indices[0]


def topk_groups(
    scores: np.ndarray, counts: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Row-wise :func:`topk_indices` of an ``(R, C)`` score matrix, by count.

    Row ``r`` keeps its ``counts[r]`` largest |scores|.  Returns one
    ``(rows, indices)`` pair per distinct count ``k``, in ascending ``k``:
    ``rows`` are the row numbers with that count and ``indices`` is a
    ``(len(rows), k)`` matrix whose row ``j`` holds row ``rows[j]``'s
    selection, sorted ascending.  The rows of one count go through a single
    ``np.argpartition`` along axis 1, which partitions each row with the
    same introselect as a 1-D call on that row alone, so ties resolve
    exactly as in a per-row call.
    """

    scores = np.asarray(scores)
    counts = np.asarray(counts, dtype=np.int64)
    if scores.ndim != 2 or counts.shape != (scores.shape[0],):
        raise ConfigurationError(
            f"expected an (R, C) score matrix and R counts, got shapes "
            f"{scores.shape} and {counts.shape}"
        )
    if counts.size and counts.min() <= 0:
        raise ConfigurationError("count must be positive")
    size = scores.shape[1]
    groups = []
    for count in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == count)
        if count >= size:
            groups.append((rows, np.tile(np.arange(size, dtype=np.int64), (rows.size, 1))))
            continue
        magnitudes = np.abs(scores[rows])
        # argpartition is O(C) per row; the order inside the top-k set is
        # irrelevant, so only the k survivors are sorted.
        selected = np.argpartition(magnitudes, size - count, axis=1)[:, size - count :]
        groups.append((rows, np.sort(selected, axis=1).astype(np.int64, copy=False)))
    return groups


class TopKSparsifier(Sparsifier):
    """Select the coefficients with the largest absolute value."""

    def select(self, scores: np.ndarray, count: int) -> np.ndarray:
        return topk_indices(scores, count)
