"""The JWINS sharing scheme (Algorithm 1 of the paper).

Per round, a node running JWINS

1. transforms its local model change to the wavelet domain and adds it to the
   accumulated importance scores (Equation 3);
2. samples a sharing fraction ``alpha`` from the randomized cut-off
   distribution and takes the TopK coefficient indices by accumulated score;
3. sends the *current* wavelet coefficients at those indices, plus the
   Elias-gamma-compressed index list, to every neighbor;
4. averages the received partial wavelet vectors with its own coefficients
   using the Metropolis–Hastings weights, substituting its own values for the
   coefficients a neighbor did not share;
5. inverts the wavelet transform to obtain the next round's model and updates
   the accumulator with the whole-round change (Equation 4).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.compression.float_codec import FloatCodec, RawFloatCodec
from repro.compression.indices import EliasGammaIndexCodec, RawIndexCodec
from repro.compression.sizing import PayloadSize
from repro.core.aggregation import SparseContribution, scatter_weighted_average
from repro.core.config import JwinsConfig
from repro.core.interface import Message, RoundContext, SharingScheme
from repro.core.ranking import WaveletRanker
from repro.exceptions import SimulationError
from repro.sparsification.base import fraction_to_count
from repro.sparsification.topk import topk_groups
from repro.wavelets.transform import IdentityTransform, ModelTransform, WaveletTransform

# The per-layer tracer in ``perfbench/layers.py`` patches these two names on
# this module; they are the one-row cases of the kernels used here.
from repro.core.aggregation import partial_weighted_average  # noqa: F401
from repro.sparsification.topk import topk_indices  # noqa: F401

__all__ = ["JwinsScheme", "aggregate_rows", "jwins_factory", "prepare_rows"]

MESSAGE_KIND = "jwins-partial-wavelets"


class JwinsScheme(SharingScheme):
    """Per-node JWINS state: transform, ranker, cut-off and codecs."""

    name = "jwins"

    def __init__(
        self,
        node_id: int,
        model_size: int,
        seed: int,
        config: JwinsConfig | None = None,
    ) -> None:
        self.node_id = int(node_id)
        self.config = config if config is not None else JwinsConfig()
        self.transform: ModelTransform
        if self.config.use_wavelet:
            self.transform = WaveletTransform(
                model_size, wavelet=self.config.wavelet, levels=self.config.levels
            )
        else:
            self.transform = IdentityTransform(model_size)
        self.ranker = WaveletRanker(self.transform, self.config.use_accumulation)
        self._float_codec = (
            FloatCodec() if self.config.float_codec == "fpzip-like" else RawFloatCodec()
        )
        self._index_codec = (
            EliasGammaIndexCodec() if self.config.index_codec == "elias-gamma" else RawIndexCodec()
        )
        self._fixed_alpha = self.config.cutoff.expected_fraction()
        self._own_coefficients: np.ndarray | None = None
        self.last_alpha: float | None = None

    # -- extension hook ----------------------------------------------------------
    def _adjust_scores(self, scores: np.ndarray) -> np.ndarray:
        """Hook for subclasses to reweight the ranking scores before TopK.

        The base scheme uses the accumulated scores unchanged; the adaptive
        variant (:class:`repro.core.adaptive.AdaptiveJwinsScheme`) reweights
        them per wavelet band, the direction the paper sketches as future work.
        """

        return scores

    # -- Algorithm 1, lines 5-8 ------------------------------------------------
    def prepare(self, context: RoundContext) -> Message:
        local_change = self.transform.forward(
            np.asarray(context.params_trained, dtype=np.float64)
            - np.asarray(context.params_start, dtype=np.float64)
        )
        own_coefficients = self.transform.forward(context.params_trained)
        return self.prepare_from_coefficients(context, local_change, own_coefficients)

    def prepare_from_coefficients(
        self,
        context: RoundContext,
        local_change_coefficients: np.ndarray,
        own_coefficients: np.ndarray,
    ) -> Message:
        """Algorithm 1 lines 5-8 from precomputed coefficient vectors.

        The one-row case of :func:`prepare_rows`, which the arena engine
        calls for all of its nodes at once, so both engines run one code path
        and produce bit-identical messages.  ``own_coefficients`` is retained
        by reference until :meth:`aggregate` consumes it and must not be
        mutated by the caller in between.
        """

        change = np.array(local_change_coefficients, dtype=np.float64, ndmin=2)
        own = np.asarray(own_coefficients, dtype=np.float64).reshape(1, -1)
        return prepare_rows([self], [context], change, own)[0]

    # -- Algorithm 1, lines 9-11 ------------------------------------------------
    def aggregate(self, context: RoundContext, messages: list[Message]) -> np.ndarray:
        averaged = self.aggregate_coefficients(context, messages)
        return self.transform.inverse(averaged)

    def aggregate_coefficients(
        self, context: RoundContext, messages: list[Message]
    ) -> np.ndarray:
        """Algorithm 1 lines 9-10 without the final inverse transform.

        Returns the partially weighted-averaged coefficient vector still in
        the transform domain: the one-receiver case of
        :func:`aggregate_rows`.
        """

        if self._own_coefficients is None:
            raise SimulationError("aggregate called before prepare")
        own = self._own_coefficients.reshape(1, -1)
        return aggregate_rows([self], [context], [messages], own)[0]

    # -- Algorithm 1, line 12 ----------------------------------------------------
    def finalize(self, context: RoundContext, new_params: np.ndarray) -> None:
        self.ranker.end_of_round(context.params_start, new_params)

    def finalize_from_change(self, round_change_coefficients: np.ndarray) -> None:
        """Equation 4 from a precomputed coefficient-domain round change.

        Batched twin of :meth:`finalize`: the arena engine transforms
        ``x^(t+1,0) - x^(t,0)`` for all nodes in one pass and feeds each
        scheme its row.  A no-op when accumulation is disabled.
        """

        self.ranker.end_of_round_from_change(round_change_coefficients)

    # -- checkpointing -----------------------------------------------------------
    def state_dict(self) -> dict:
        """Accumulated scores plus the in-flight round state (if any)."""

        return {
            "ranker": self.ranker.state_dict(),
            "own_coefficients": (
                None if self._own_coefficients is None else self._own_coefficients.copy()
            ),
            "last_alpha": None if self.last_alpha is None else float(self.last_alpha),
        }

    def load_state_dict(self, state) -> None:
        """Restore state captured by :meth:`state_dict`."""

        self.ranker.load_state_dict(state["ranker"])
        own = state["own_coefficients"]
        self._own_coefficients = (
            None if own is None else np.asarray(own, dtype=np.float64).copy()
        )
        alpha = state["last_alpha"]
        self.last_alpha = None if alpha is None else float(alpha)


def prepare_rows(
    schemes: Sequence[JwinsScheme],
    contexts: Sequence[RoundContext],
    change: np.ndarray,
    own: np.ndarray,
) -> list[Message]:
    """Algorithm 1 lines 5-8 for a batch of nodes, as whole-matrix passes.

    Row ``r`` of the ``(R, C)`` matrices belongs to ``schemes[r]``:
    ``change`` holds the transformed local model changes and ``own`` the
    transformed trained models.  The schemes must share one configuration.
    Per row the result is bit-identical to a one-node call:

    * the scores ``V + change`` are computed in place into ``change``, which
      is consumed (IEEE addition is commutative);
    * each node draws its cut-off from its own ``context.rng``;
    * top-k runs once per distinct count (:func:`topk_groups`);
    * the index metadata size comes from
      :meth:`~repro.compression.indices.IndexCodec.encoded_sizes`, without
      building the bitstream, since only its size reaches the message;
    * the float payload is compressed per row, as its size depends on it.

    Every scheme keeps its ``own`` row by reference until
    :func:`aggregate_rows`.
    """

    first = schemes[0]
    config = first.config
    size = first.ranker.coefficient_size
    scores = change
    if config.use_accumulation:
        for row, scheme in enumerate(schemes):
            scores[row] += scheme.ranker.scores
    for row, scheme in enumerate(schemes):
        if type(scheme)._adjust_scores is not JwinsScheme._adjust_scores:
            scores[row] = scheme._adjust_scores(scores[row])
    if config.use_random_cutoff:
        alphas = [config.cutoff.sample(context.rng) for context in contexts]
    else:
        alphas = [first._fixed_alpha] * len(schemes)
    count_of = {alpha: fraction_to_count(alpha, size) for alpha in dict.fromkeys(alphas)}
    counts = np.array([count_of[alpha] for alpha in alphas], dtype=np.int64)

    messages: list[Message] = [None] * len(schemes)  # type: ignore[list-item]
    for rows, indices in topk_groups(scores, counts):
        values = own[rows[:, None], indices]
        metadata_bytes = first._index_codec.encoded_sizes(indices, size).tolist()
        for position, row in enumerate(rows.tolist()):
            scheme = schemes[row]
            row_indices = indices[position]
            row_values = values[position]
            scheme.ranker.mark_shared(row_indices)
            payload = {
                "indices": row_indices,
                "values": row_values,
                "alpha": alphas[row],
                "coefficient_size": size,
            }
            messages[row] = Message(
                sender=scheme.node_id,
                kind=MESSAGE_KIND,
                payload=payload,
                size=PayloadSize(
                    values_bytes=scheme._float_codec.compress(row_values).size_bytes,
                    metadata_bytes=metadata_bytes[position],
                ),
                shared_fraction=min(
                    1.0, row_values.size / max(1, contexts[row].model_size)
                ),
            )
    for row, scheme in enumerate(schemes):
        scheme.last_alpha = alphas[row]
        scheme._own_coefficients = own[row]
    return messages


def aggregate_rows(
    schemes: Sequence[JwinsScheme],
    contexts: Sequence[RoundContext],
    inboxes: Sequence[Sequence[Message]],
    own: np.ndarray,
) -> np.ndarray:
    """Algorithm 1 lines 9-10 for a batch of nodes, without the inverse DWT.

    ``own`` is the ``(R, C)`` matrix handed to :func:`prepare_rows` (its
    rows are the schemes' retained coefficients); row ``r`` of the result
    averages it with ``inboxes[r]`` through one ordered scatter-add,
    :func:`~repro.core.aggregation.scatter_weighted_average`.
    """

    received: list[list[SparseContribution]] = []
    for scheme, context, messages in zip(schemes, contexts, inboxes):
        if scheme._own_coefficients is None:
            raise SimulationError("aggregate called before prepare")
        contributions = []
        for message in messages:
            if message.kind != MESSAGE_KIND:
                raise SimulationError(
                    f"JWINS received an incompatible message of kind {message.kind!r}"
                )
            weight = context.neighbor_weights.get(message.sender)
            if weight is None:
                raise SimulationError(
                    f"received a message from non-neighbor node {message.sender}"
                )
            contributions.append(
                SparseContribution(
                    weight=weight,
                    indices=message.payload["indices"],
                    values=message.payload["values"],
                )
            )
        received.append(contributions)
    averaged = scatter_weighted_average(
        own, [context.self_weight for context in contexts], received
    )
    for scheme in schemes:
        scheme._own_coefficients = None
    return averaged


def jwins_factory(config: JwinsConfig | None = None):
    """Return a :data:`~repro.core.interface.SchemeFactory` building JWINS nodes."""

    def factory(node_id: int, model_size: int, seed: int) -> JwinsScheme:
        return JwinsScheme(node_id, model_size, seed, config)

    return factory
