"""Tests for the ModelTransform abstractions."""

import numpy as np
import pytest

from repro.exceptions import WaveletError
from repro.wavelets.transform import (
    FourierTransform,
    IdentityTransform,
    WaveletTransform,
    make_transform,
)


@pytest.mark.parametrize("size", [50, 333, 1000])
def test_wavelet_transform_roundtrip(size):
    rng = np.random.default_rng(size)
    transform = WaveletTransform(size, wavelet="sym2", levels=4)
    vector = rng.normal(size=size)
    assert np.allclose(transform.inverse(transform.forward(vector)), vector, atol=1e-9)


def test_wavelet_transform_is_linear():
    rng = np.random.default_rng(0)
    transform = WaveletTransform(200)
    a, b = rng.normal(size=200), rng.normal(size=200)
    lhs = transform.forward(3.0 * a + b)
    rhs = 3.0 * transform.forward(a) + transform.forward(b)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_identity_transform_is_identity():
    transform = IdentityTransform(10)
    vector = np.arange(10.0)
    assert np.array_equal(transform.forward(vector), vector)
    assert np.array_equal(transform.inverse(vector), vector)
    assert transform.coefficient_size() == 10


def test_fourier_transform_roundtrip():
    transform = FourierTransform(77)
    vector = np.random.default_rng(5).normal(size=77)
    assert np.allclose(transform.inverse(transform.forward(vector)), vector, atol=1e-10)


def test_make_transform_factory_names():
    assert isinstance(make_transform("wavelet", 64), WaveletTransform)
    assert isinstance(make_transform("fft", 64), FourierTransform)
    assert isinstance(make_transform("identity", 64), IdentityTransform)
    with pytest.raises(WaveletError):
        make_transform("dct", 64)


def test_wrong_input_length_raises():
    transform = WaveletTransform(100)
    with pytest.raises(WaveletError):
        transform.forward(np.zeros(99))


def test_levels_clamped_for_tiny_models():
    transform = WaveletTransform(10, wavelet="sym2", levels=4)
    assert transform.levels <= 2
    vector = np.random.default_rng(1).normal(size=10)
    assert np.allclose(transform.inverse(transform.forward(vector)), vector, atol=1e-10)


def test_nonpositive_model_size_raises():
    with pytest.raises(WaveletError):
        IdentityTransform(0)


def test_sparsifying_low_frequency_band_keeps_most_energy():
    """Keeping only the deepest approximation band reconstructs a smooth signal well."""

    size = 512
    grid = np.linspace(0.0, 4.0 * np.pi, size)
    smooth = np.sin(grid) + 0.5 * np.cos(0.5 * grid)
    transform = WaveletTransform(size, wavelet="sym2", levels=4)
    coefficients = transform.forward(smooth)
    kept = np.zeros_like(coefficients)
    band = transform.layout.band_slices()[0]
    kept[band] = coefficients[band]
    reconstructed = transform.inverse(kept)
    energy_ratio = np.sum(reconstructed**2) / np.sum(smooth**2)
    assert energy_ratio > 0.9


def test_cached_layouts_equal_a_fresh_probe():
    """Transforms share one memoized layout per (size, wavelet, levels) key,
    and it is exactly the layout a probe decomposition of that shape yields."""

    from repro.wavelets.dwt import wavedec
    from repro.wavelets.filters import available_wavelets
    from repro.wavelets.packing import pack_coefficients

    for wavelet in available_wavelets():
        for size in (1, 2, 3, 7, 8, 31, 64, 100, 333, 340, 1000, 4097):
            for levels in (1, 4, 9):
                transform = WaveletTransform(size, wavelet=wavelet, levels=levels)
                _, fresh = pack_coefficients(
                    wavedec(np.zeros(size), wavelet, transform.levels)
                )
                assert transform.layout == fresh, (wavelet, size, levels)
                again = WaveletTransform(size, wavelet=wavelet, levels=levels)
                assert again.layout is transform.layout
