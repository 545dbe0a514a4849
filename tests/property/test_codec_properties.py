"""Property-based tests for the compression codecs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.elias import elias_gamma_decode, elias_gamma_encode, gamma_code_length
from repro.compression.float_codec import FloatCodec
from repro.compression.indices import EliasGammaIndexCodec, RawIndexCodec


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(min_value=1, max_value=2**40), max_size=200))
def test_elias_gamma_roundtrip(values):
    payload, bits, count = elias_gamma_encode(values)
    assert elias_gamma_decode(payload, bits, count) == values
    assert bits == sum(gamma_code_length(v) for v in values)
    assert len(payload) == (bits + 7) // 8


@settings(max_examples=60, deadline=None)
@given(
    universe=st.integers(min_value=1, max_value=5000),
    seed=st.integers(min_value=0, max_value=2**16),
    fraction=st.floats(min_value=0.01, max_value=1.0),
)
def test_index_codecs_roundtrip(universe, seed, fraction):
    rng = np.random.default_rng(seed)
    count = max(1, min(universe, int(fraction * universe)))
    indices = np.sort(rng.choice(universe, size=count, replace=False))
    for codec in (EliasGammaIndexCodec(), RawIndexCodec()):
        encoded = codec.encode(indices, universe)
        assert np.array_equal(codec.decode(encoded), indices)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
        max_size=300,
    )
)
def test_float_codec_lossless(values):
    array = np.asarray(values, dtype=np.float32)
    codec = FloatCodec()
    restored = codec.decompress(codec.compress(array))
    assert np.array_equal(restored, array)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    size=st.integers(min_value=1, max_value=2000),
)
def test_float_codec_never_larger_than_raw_plus_overhead(seed, size):
    """DEFLATE adds at most a small constant overhead even on incompressible data."""

    values = np.random.default_rng(seed).normal(size=size).astype(np.float32)
    compressed = FloatCodec().compress(values)
    assert compressed.size_bytes <= 4 * size + 256


def _index_rows(universe: int, count: int, rows: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack(
        [np.sort(rng.choice(universe, size=count, replace=False)) for _ in range(rows)]
    ).reshape(rows, count)


@settings(max_examples=80, deadline=None)
@given(
    universe=st.integers(min_value=1, max_value=4000),
    seed=st.integers(min_value=0, max_value=2**16),
    fraction=st.floats(min_value=0.0, max_value=1.0),
    rows=st.integers(min_value=1, max_value=4),
)
def test_closed_form_index_sizes_equal_encoded_sizes(universe, seed, fraction, rows):
    count = min(universe, int(fraction * universe))
    index_rows = _index_rows(universe, count, rows, seed)
    for codec in (EliasGammaIndexCodec(), RawIndexCodec()):
        expected = [codec.encode(row, universe).size_bytes for row in index_rows]
        assert codec.encoded_sizes(index_rows, universe).tolist() == expected


def test_closed_form_index_sizes_on_gap_edge_cases():
    codec = EliasGammaIndexCodec()
    universe = 64
    cases = [
        np.zeros(0, dtype=np.int64),  # nothing shared
        np.array([0]),  # first index 0: the shifted gap is 1
        np.array([universe - 1]),  # the largest first gap
        np.arange(5, 12),  # consecutive indices: every later gap is 1
        np.array([0, 1, 2, 40, 41, 63]),
        np.arange(universe),  # the full universe
    ]
    for indices in cases:
        rows = indices.reshape(1, -1)
        assert codec.encoded_sizes(rows, universe).tolist() == [
            codec.encode(indices, universe).size_bytes
        ]
    # Unsorted rows are sized like encode sizes them: after sorting.
    assert codec.encoded_sizes(np.array([[9, 3, 5]]), 10).tolist() == [
        codec.encode(np.array([9, 3, 5]), 10).size_bytes
    ]


def test_closed_form_index_sizes_keep_the_encode_checks():
    import pytest

    from repro.exceptions import CodecError

    codec = EliasGammaIndexCodec()
    for bad, universe in (
        (np.array([[1, 1, 2]]), 10),  # duplicates
        (np.array([[0, 10]]), 10),  # out of range
        (np.array([[-1, 3]]), 10),  # negative
        (np.array([[0, 1]]), 0),  # empty universe
    ):
        with pytest.raises(CodecError):
            codec.encode(bad[0], universe)
        with pytest.raises(CodecError):
            codec.encoded_sizes(bad, universe)
