"""The batched JWINS round against a frozen port of the per-row round.

``prepare_rows``/``aggregate_rows`` run ranking, cut-off, top-k, index
sizing and the weighted average as whole-matrix passes.  The reference below
is the per-row code they replaced, kept verbatim as ground truth: one
``rng.choice`` cut-off draw, one 1-D ``np.argpartition``, one Elias-gamma
bitstream and one ``partial_weighted_average`` loop per node.  Every case
must match it bit for bit: indices, values, sizes, alpha, accumulator state
and the averaged coefficients.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.elias import elias_gamma_encode
from repro.compression.sizing import PayloadSize
from repro.core import aggregation
from repro.core.adaptive import AdaptiveJwinsScheme
from repro.core.config import JwinsConfig
from repro.core.cutoff import CutoffDistribution
from repro.core.interface import Message, RoundContext
from repro.core.jwins import MESSAGE_KIND, JwinsScheme, aggregate_rows, prepare_rows
from repro.exceptions import SimulationError
from repro.sparsification.base import fraction_to_count

MODEL_SIZE = 97
NODES = 12
DEGREE = 4


# -- the frozen per-row reference ---------------------------------------------------


def reference_topk(scores: np.ndarray, count: int) -> np.ndarray:
    if count >= scores.size:
        return np.arange(scores.size, dtype=np.int64)
    magnitudes = np.abs(scores)
    selected = np.argpartition(magnitudes, scores.size - count)[scores.size - count :]
    return np.sort(selected).astype(np.int64)


def reference_index_bytes(scheme: JwinsScheme, indices: np.ndarray) -> int:
    if scheme.config.index_codec != "elias-gamma":
        return 4 * indices.size + 12
    payload, _, _ = elias_gamma_encode(np.diff(np.sort(indices), prepend=-1))
    return len(payload) + 12


def reference_prepare(
    scheme: JwinsScheme, context: RoundContext, change: np.ndarray, own: np.ndarray
) -> Message:
    scores = scheme._adjust_scores(scheme.ranker.round_scores_from_change(change))
    if scheme.config.use_random_cutoff:
        cutoff = scheme.config.cutoff
        alpha = float(cutoff.alphas[context.rng.choice(len(cutoff.alphas), p=cutoff.probabilities)])
    else:
        alpha = scheme._fixed_alpha
    scheme.last_alpha = alpha
    count = fraction_to_count(alpha, scheme.ranker.coefficient_size)
    indices = reference_topk(scores, count)
    scheme._own_coefficients = own
    values = own[indices]
    scheme.ranker.mark_shared(indices)
    size = PayloadSize(
        values_bytes=scheme._float_codec.compress(values).size_bytes,
        metadata_bytes=reference_index_bytes(scheme, indices),
    )
    return Message(
        sender=scheme.node_id,
        kind=MESSAGE_KIND,
        payload={
            "indices": indices,
            "values": values,
            "alpha": alpha,
            "coefficient_size": scheme.ranker.coefficient_size,
        },
        size=size,
        shared_fraction=min(1.0, values.size / max(1, context.model_size)),
    )


def reference_average(
    own: np.ndarray, self_weight: float, contributions: list[tuple[float, Message]]
) -> np.ndarray:
    result = own.copy()
    total_weight = float(self_weight)
    for weight, message in contributions:
        indices = message.payload["indices"]
        result[indices] += weight * (message.payload["values"] - own[indices])
        total_weight += weight
    assert total_weight <= 1.0 + 1e-6
    return result


# -- fixtures -----------------------------------------------------------------------


def build_schemes(config: JwinsConfig, adaptive: bool = False) -> list[JwinsScheme]:
    cls = AdaptiveJwinsScheme if adaptive else JwinsScheme
    return [cls(node, MODEL_SIZE, seed=node, config=config) for node in range(NODES)]


def neighbors_of(node: int) -> list[int]:
    return [(node + step) % NODES for step in range(1, DEGREE + 1)]


def contexts_for(round_index: int) -> list[RoundContext]:
    weight = 1.0 / (DEGREE + 1)
    return [
        RoundContext(
            round_index=round_index,
            params_start=np.zeros(MODEL_SIZE),
            params_trained=np.zeros(MODEL_SIZE),
            self_weight=weight,
            neighbor_weights={neighbor: weight for neighbor in neighbors_of(node)},
            rng=np.random.default_rng([node, round_index]),
            node_id=node,
        )
        for node in range(NODES)
    ]


KINDS = ("ties", "zero-padded", "normal")


def score_matrix(kind: str, rng: np.random.Generator, size: int) -> np.ndarray:
    if kind == "ties":
        # A handful of distinct magnitudes: top-k cuts through long runs of ties.
        return rng.integers(-2, 3, size=(NODES, size)).astype(np.float64)
    if kind == "zero-padded":
        matrix = np.zeros((NODES, size))
        matrix[:, : size // 4] = rng.normal(size=(NODES, size // 4))
        return matrix
    return rng.normal(size=(NODES, size))


def random_inboxes(
    messages: list[Message], rng: np.random.Generator
) -> list[list[Message]]:
    """Inboxes of every length 0..DEGREE, as drops and partitions leave them."""

    inboxes = []
    for node in range(NODES):
        length = node % (DEGREE + 1)
        kept = sorted(rng.choice(DEGREE, size=length, replace=False).tolist())
        inboxes.append([messages[neighbors_of(node)[slot]] for slot in kept])
    return inboxes


def assert_messages_equal(actual: Message, expected: Message) -> None:
    assert actual.sender == expected.sender
    assert actual.kind == expected.kind
    assert actual.size == expected.size
    assert actual.shared_fraction == expected.shared_fraction
    assert actual.payload["alpha"] == expected.payload["alpha"]
    assert actual.payload["coefficient_size"] == expected.payload["coefficient_size"]
    for key in ("indices", "values"):
        assert actual.payload[key].dtype == expected.payload[key].dtype
        assert actual.payload[key].tobytes() == expected.payload[key].tobytes()


def run_both(
    config: JwinsConfig, kind: str, adaptive: bool = False, rounds: int = 3
) -> None:
    """Run ``rounds`` rounds through the batched kernels and the reference."""

    batched = build_schemes(config, adaptive)
    reference = build_schemes(config, adaptive)
    rng = np.random.default_rng([sorted(KINDS).index(kind), int(adaptive)])
    size = batched[0].ranker.coefficient_size
    for round_index in range(rounds):
        change = score_matrix(kind, rng, size)
        own = score_matrix(kind, rng, size)
        batched_contexts = contexts_for(round_index)
        reference_contexts = contexts_for(round_index)

        messages = prepare_rows(batched, batched_contexts, change.copy(), own)
        expected = [
            reference_prepare(scheme, context, change[row], own[row].copy())
            for row, (scheme, context) in enumerate(zip(reference, reference_contexts))
        ]
        for actual, wanted in zip(messages, expected):
            assert_messages_equal(actual, wanted)
        for ours, theirs, ours_ctx, theirs_ctx in zip(
            batched, reference, batched_contexts, reference_contexts
        ):
            assert ours.last_alpha == theirs.last_alpha
            assert ours.ranker.scores.tobytes() == theirs.ranker.scores.tobytes()
            assert ours_ctx.rng.bit_generator.state == theirs_ctx.rng.bit_generator.state

        inboxes = random_inboxes(messages, rng)
        averaged = aggregate_rows(batched, batched_contexts, inboxes, own)
        for row, context in enumerate(reference_contexts):
            contributions = [
                (context.neighbor_weights[message.sender], message)
                for message in inboxes[row]
            ]
            wanted = reference_average(own[row], context.self_weight, contributions)
            assert averaged[row].tobytes() == wanted.tobytes()
        assert all(scheme._own_coefficients is None for scheme in batched)

        # Equation 4 with a shared round change keeps both sides in lock step.
        round_change = rng.normal(size=(NODES, size))
        for row in range(NODES):
            batched[row].finalize_from_change(round_change[row])
            reference[row].finalize_from_change(round_change[row])
            reference[row]._own_coefficients = None


# -- the matrix -----------------------------------------------------------------------

CUTOFFS = {
    "uniform": CutoffDistribution.uniform(),
    "budgeted": CutoffDistribution.budgeted(0.1),
    "fixed": CutoffDistribution.fixed(0.25),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("cutoff", sorted(CUTOFFS))
@pytest.mark.parametrize("use_accumulation", [True, False])
def test_batched_round_matches_the_per_row_reference(kind, cutoff, use_accumulation):
    config = JwinsConfig(cutoff=CUTOFFS[cutoff], use_accumulation=use_accumulation)
    run_both(config, kind)


@pytest.mark.parametrize("kind", ["ties", "normal"])
def test_batched_round_matches_without_random_cutoff(kind):
    run_both(JwinsConfig(cutoff=CUTOFFS["uniform"], use_random_cutoff=False), kind)


@pytest.mark.parametrize("kind", ["ties", "zero-padded"])
def test_batched_round_matches_for_the_adaptive_scheme(kind):
    run_both(JwinsConfig.paper_default(), kind, adaptive=True)


@pytest.mark.parametrize("index_codec", ["elias-gamma", "raw"])
def test_batched_round_matches_without_the_wavelet(index_codec):
    run_both(JwinsConfig(use_wavelet=False, index_codec=index_codec), "ties")


@pytest.mark.parametrize("terms_per_pass", [1, 7, 150])
def test_batched_average_does_not_depend_on_the_pass_size(terms_per_pass, monkeypatch):
    """Rows are averaged in blocks of bounded size; any blocking gives the same bits."""

    monkeypatch.setattr(aggregation, "_TERMS_PER_PASS", terms_per_pass)
    run_both(JwinsConfig.paper_default(), "normal")


def test_one_row_scheme_calls_are_the_batched_kernel():
    """``prepare``/``aggregate`` on one node equal the reference too."""

    config = JwinsConfig.paper_default()
    scheme = JwinsScheme(0, MODEL_SIZE, seed=0, config=config)
    reference = JwinsScheme(0, MODEL_SIZE, seed=0, config=config)
    rng = np.random.default_rng(5)
    start, trained = rng.normal(size=MODEL_SIZE), rng.normal(size=MODEL_SIZE)
    context, reference_context = contexts_for(0)[0], contexts_for(0)[0]
    context.params_start = reference_context.params_start = start
    context.params_trained = reference_context.params_trained = trained

    message = scheme.prepare(context)
    transform = reference.transform
    expected = reference_prepare(
        reference,
        reference_context,
        transform.forward(trained - start),
        transform.forward(trained),
    )
    assert_messages_equal(message, expected)
    neighbor = neighbors_of(0)[0]
    echo = Message(neighbor, MESSAGE_KIND, dict(message.payload), message.size)
    new_params = scheme.aggregate(context, [echo])
    wanted = reference_average(
        reference._own_coefficients,
        reference_context.self_weight,
        [(reference_context.neighbor_weights[neighbor], echo)],
    )
    assert new_params.tobytes() == transform.inverse(wanted).tobytes()


def test_batched_aggregate_keeps_the_checks():
    config = JwinsConfig.paper_default()
    schemes = build_schemes(config)
    contexts = contexts_for(0)
    rng = np.random.default_rng(0)
    size = schemes[0].ranker.coefficient_size
    own = rng.normal(size=(NODES, size))
    messages = prepare_rows(schemes, contexts, rng.normal(size=(NODES, size)), own)

    stranger = [[messages[0]]] + [[] for _ in range(NODES - 1)]  # node 0 is not its own neighbor
    with pytest.raises(SimulationError, match="non-neighbor"):
        aggregate_rows(schemes, contexts, stranger, own)

    foreign = Message(neighbors_of(0)[0], "dense", {}, PayloadSize(0, 0))
    with pytest.raises(SimulationError, match="incompatible"):
        aggregate_rows(schemes, contexts, [[foreign]] + [[] for _ in range(NODES - 1)], own)

    heavy = contexts_for(0)
    heavy[3].neighbor_weights = {n: 0.5 for n in neighbors_of(3)}
    inboxes = [[] for _ in range(NODES)]
    inboxes[3] = [messages[n] for n in neighbors_of(3)]
    with pytest.raises(SimulationError, match="must not exceed 1"):
        aggregate_rows(schemes, heavy, inboxes, own)

    bad = Message(
        neighbors_of(1)[0],
        MESSAGE_KIND,
        {"indices": np.array([size]), "values": np.array([1.0])},
        PayloadSize(0, 0),
    )
    inboxes = [[] for _ in range(NODES)]
    inboxes[1] = [bad]
    with pytest.raises(SimulationError, match="out of range"):
        aggregate_rows(schemes, contexts, inboxes, own)


def test_aggregate_before_prepare_raises():
    schemes = build_schemes(JwinsConfig.paper_default())
    size = schemes[0].ranker.coefficient_size
    with pytest.raises(SimulationError, match="before prepare"):
        aggregate_rows(
            schemes, contexts_for(0), [[] for _ in range(NODES)], np.zeros((NODES, size))
        )
