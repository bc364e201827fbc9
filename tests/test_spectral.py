import numpy as np
import pytest

from doakit.spectral import (
    SpectralFrames,
    apply_weighting,
    band_select,
    sample_covariance,
    stft,
)


@pytest.fixture
def rng():
    # a generator per test, so its inputs do not depend on which tests ran first
    return np.random.default_rng(77)


def test_stft_shapes_and_frequencies(rng):
    signal = rng.standard_normal((4000, 3))
    frames = stft(signal, frame_size=512, hop=256, sample_rate=16000.0)
    assert frames.num_frames == 1 + (4000 - 512) // 256
    assert frames.num_bands == 257
    assert frames.num_sensors == 3
    np.testing.assert_allclose(
        frames.band_frequencies, np.arange(257) * 16000.0 / 512
    )


def test_stft_zero_input():
    frames = stft(np.zeros((1024, 2)), frame_size=256, hop=128)
    assert np.all(frames.data == 0)


def test_stft_rejects_unknown_window():
    with pytest.raises(ValueError):
        stft(np.zeros(1024), frame_size=256, hop=128, window="not-a-window")


def test_stft_sinusoid_bin_concentration():
    # closed-form DFT: an exact-bin sinusoid with a rectangular window fills
    # only its own bin
    fs, n = 16000.0, 512
    k = 20
    t = np.arange(4 * n) / fs
    signal = np.cos(2 * np.pi * (k * fs / n) * t)
    frames = stft(signal, frame_size=n, hop=n, window="boxcar", sample_rate=fs)
    mags = np.abs(frames.data[:, 0, 0])
    peak = mags[k]
    others = np.delete(mags, k)
    assert peak > 0
    assert np.max(others) <= 1e-8 * peak


def test_stft_parseval_one_frame(rng):
    # unnormalized forward DFT: sum |X|^2 over the full spectrum equals
    # frame_size times the time-domain energy; fold the one-sided bands
    n = 256
    x = rng.standard_normal(n)
    frames = stft(x, frame_size=n, hop=n, window="boxcar")
    spec = np.abs(frames.data[:, 0, 0]) ** 2
    folded = spec[0] + spec[-1] + 2 * np.sum(spec[1:-1])
    assert abs(folded - n * np.sum(x**2)) < 1e-6 * n * np.sum(x**2)


def test_stft_round_trip_rect_window(rng):
    x = rng.standard_normal((1024, 2))
    frames = stft(x, frame_size=256, hop=256, window="boxcar")
    for i in range(frames.num_frames):
        rec = np.fft.irfft(frames.data[:, i, :], n=256, axis=0)
        np.testing.assert_allclose(rec, x[i * 256 : (i + 1) * 256], atol=1e-10)


def _random_frames(rng, num_bands=5, num_frames=4, num_sensors=3):
    data = rng.standard_normal((num_bands, num_frames, num_sensors)) + 1j * rng.standard_normal(
        (num_bands, num_frames, num_sensors)
    )
    freqs = np.linspace(100.0, 1000.0, num_bands)
    return SpectralFrames(data=data, band_frequencies=freqs, sample_rate=16000.0)


def test_unit_weighting_is_identity(rng):
    frames = _random_frames(rng)
    out = apply_weighting(frames, "unit")
    np.testing.assert_array_equal(out.data, frames.data)


def test_phat_weighting(rng):
    frames = _random_frames(rng)
    frames.data[0, 0, 0] = 3 + 4j
    frames.data[0, 0, 1] = 0.0
    out = apply_weighting(frames, "phat")
    assert abs(out.data[0, 0, 0] - (3 + 4j) / 5) < 1e-15
    assert out.data[0, 0, 1] == 0.0
    assert np.all(np.abs(out.data) <= 1.0 + 1e-12)


def test_phat_idempotent(rng):
    frames = _random_frames(rng)
    once = apply_weighting(frames, "phat")
    twice = apply_weighting(once, "phat")
    np.testing.assert_allclose(twice.data, once.data, atol=1e-12)


def test_phat_rejects_unknown_scheme(rng):
    with pytest.raises(ValueError):
        apply_weighting(_random_frames(rng), "scot")


def test_sample_covariance_rank_one(rng):
    frames = _random_frames(rng, num_frames=1)
    cov = sample_covariance(frames)
    for k in range(frames.num_bands):
        x = frames.data[k, 0]
        np.testing.assert_allclose(cov.matrices[k], np.outer(x, x.conj()), atol=1e-14)


def test_sample_covariance_basis_vector():
    data = np.zeros((2, 5, 3), dtype=complex)
    data[:, :, 0] = 1.0
    frames = SpectralFrames(data, np.array([100.0, 200.0]), 16000.0)
    cov = sample_covariance(frames)
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(cov.matrices[0], expected, atol=1e-15)


def test_sample_covariance_matches_naive_loop(rng):
    frames = _random_frames(rng, num_frames=3)
    cov = sample_covariance(frames)
    for k in range(frames.num_bands):
        acc = np.zeros((3, 3), dtype=complex)
        for n in range(3):
            x = frames.data[k, n]
            acc += np.outer(x, x.conj())
        np.testing.assert_allclose(cov.matrices[k], acc / 3, atol=1e-12)


def test_sample_covariance_invariants(rng):
    frames = _random_frames(rng, num_frames=7)
    cov = sample_covariance(frames)
    for k in range(cov.num_bands):
        s = cov.matrices[k]
        trace = np.trace(s).real
        assert np.max(np.abs(s - s.conj().T)) <= 1e-12 * trace
        assert np.linalg.eigvalsh(s).min() >= -1e-10 * trace
        energy = np.mean(np.linalg.norm(frames.data[k], axis=1) ** 2)
        assert abs(trace - energy) < 1e-12 * energy


def test_band_select(rng):
    frames = _random_frames(rng, num_bands=8)
    full = band_select(frames, 0.0, 20000.0)
    assert full.num_bands == 8
    np.testing.assert_array_equal(full.data, frames.data)
    assert full.sample_rate == frames.sample_rate
    f3 = frames.band_frequencies[3]
    single = band_select(frames, f3 - 1, f3 + 1)
    assert single.num_bands == 1
    np.testing.assert_array_equal(single.data, frames.data[3:4])
    with pytest.raises(ValueError):
        band_select(frames, 5000.0, 6000.0)
    with pytest.raises(ValueError):
        band_select(frames, 100.0, 100.0)


def test_band_select_speech_range():
    # 16 kHz / 512-point STFT: 300..3500 Hz covers bins 10 through 112
    freqs = np.arange(257) * 16000.0 / 512
    data = np.zeros((257, 1, 2), dtype=complex)
    sel = band_select(SpectralFrames(data, freqs, 16000.0), 300.0, 3500.0)
    assert sel.num_bands == 103
    assert sel.band_frequencies[0] == freqs[10]
    assert sel.band_frequencies[-1] == freqs[112]
    assert sel.sample_rate == 16000.0
