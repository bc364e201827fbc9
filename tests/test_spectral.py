import numpy as np
import pytest
from scipy.signal import get_window

from doakit.spectral import (
    SpectralFrames,
    apply_weighting,
    band_select,
    periodic_window,
    sample_covariance,
    stft,
)
from oracles import gather_stft


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


STFT_SHAPES = pytest.mark.parametrize(
    "num_samples, num_sensors, frame_size, hop",
    [
        (1000, None, 64, 32),  # 1-D input
        (256, 3, 256, 128),  # T equal to the frame size: one frame
        (1000, 2, 64, 100),  # hop larger than the frame
        (1001, 4, 128, 37),  # hop does not divide T - F
        (2000, 1, 256, 128),  # M = 1
        (4000, 12, 512, 256),  # M = 12
    ],
    ids=["1-d", "one-frame", "hop-above-frame", "ragged-hop", "m-1", "m-12"],
)


@STFT_SHAPES
def test_stft_matches_gather_oracle(rng, num_samples, num_sensors, frame_size, hop):
    shape = num_samples if num_sensors is None else (num_samples, num_sensors)
    signal = rng.standard_normal(shape)
    frames = stft(signal, frame_size=frame_size, hop=hop)
    assert frames.num_frames == 1 + (num_samples - frame_size) // hop
    assert frames.num_sensors == (num_sensors or 1)
    np.testing.assert_array_equal(frames.data, gather_stft(signal, frame_size, hop))


@STFT_SHAPES
def test_stft_kept_bands_are_the_all_band_rows(rng, num_samples, num_sensors, frame_size,
                                               hop):
    # a band range keeps rows first..last of the all-band frames, bit for
    # bit, both ends included when they fall on a band
    shape = num_samples if num_sensors is None else (num_samples, num_sensors)
    signal = rng.standard_normal(shape)
    full = stft(signal, frame_size=frame_size, hop=hop, sample_rate=16000.0)
    step = 16000.0 / frame_size
    top = frame_size // 2
    for first, last, f_min, f_max in [
        (0, top, 0.0, 8000.0),  # every band, edges on the first and last
        (3, top // 2, 3 * step, top // 2 * step),  # both edges on a band
        (3, top // 2, 2.5 * step, (top // 2 + 0.5) * step),  # edges between bands
        (5, 5, 5 * step, 5.5 * step),  # one band
        (top, top, top * step, np.inf),  # the last band, no upper edge
    ]:
        kept = stft(signal, frame_size=frame_size, hop=hop, sample_rate=16000.0,
                    f_min=f_min, f_max=f_max)
        assert kept.data.flags.c_contiguous
        assert kept.data.tobytes() == full.data[first:last + 1].tobytes()
        assert kept.band_frequencies.tobytes() == full.band_frequencies[first:last + 1].tobytes()


@pytest.mark.parametrize(
    "f_min, f_max, message",
    [
        (3500.0, 300.0, "f_min must be below f_max"),
        (300.0, 300.0, "f_min must be below f_max"),
        (np.nan, 3500.0, "f_min must be below f_max"),
        (300.0, 310.0, "band selection is empty"),  # between two 62.5 Hz bands
        (8100.0, 9000.0, "band selection is empty"),  # above Nyquist
    ],
    ids=["inverted", "equal", "nan", "between-bands", "above-nyquist"],
)
def test_stft_and_band_select_reject_the_same_ranges(f_min, f_max, message):
    signal = np.ones((1024, 2))
    with pytest.raises(ValueError, match=message):
        stft(signal, frame_size=256, hop=128, f_min=f_min, f_max=f_max)
    with pytest.raises(ValueError, match=message):
        band_select(stft(signal, frame_size=256, hop=128), f_min, f_max)


def test_stft_rejects_complex_input(rng):
    signal = rng.standard_normal((1024, 2)) + 1j * rng.standard_normal((1024, 2))
    for x in (signal, signal.astype(np.complex64), signal[:, 0], signal.real + 0j):
        with pytest.raises(ValueError, match="signal must be real"):
            stft(x, frame_size=256, hop=128)


def test_stft_integer_and_float_samples_give_the_same_frames(rng):
    # the same sample values as int16, float32 and float64 give the same
    # frames, bit for bit: each is cast to float64 exactly
    values = rng.integers(-32768, 32768, size=(2000, 3))
    frames = [stft(values.astype(dtype), frame_size=256, hop=128, f_min=300.0, f_max=3500.0)
              for dtype in (np.int16, np.float32, np.float64)]
    assert frames[0].data.tobytes() == frames[1].data.tobytes() == frames[2].data.tobytes()
    np.testing.assert_array_equal(frames[2].data, stft(values, frame_size=256, hop=128,
                                                       f_min=300.0, f_max=3500.0).data)


def test_stft_zero_input():
    frames = stft(np.zeros((1024, 2)), frame_size=256, hop=128)
    assert np.all(frames.data == 0)


@pytest.mark.parametrize("window", ["hann", "boxcar"])
@pytest.mark.parametrize("n", [2, 3, 255, 256, 512, 4096])
def test_periodic_window_matches_scipy(window, n):
    expected = get_window(window, n, fftbins=True)
    assert periodic_window(window, n).tobytes() == expected.tobytes()


@pytest.mark.parametrize("window", ["hann", "boxcar"])
def test_stft_uses_periodic_window(rng, window):
    signal = rng.standard_normal((1000, 2))
    frames = stft(signal, frame_size=128, hop=64, window=window)
    np.testing.assert_array_equal(frames.data, gather_stft(signal, 128, 64, window))


def test_stft_rejects_unknown_window():
    # names scipy.signal.get_window knows but stft does not are unknown too
    for window in ["not-a-window", "hamming", "kaiser", ("kaiser", 8), 8.0, ["hann"]]:
        with pytest.raises(ValueError, match="unknown window"):
            stft(np.zeros(1024), frame_size=256, hop=128, window=window)


@pytest.mark.parametrize("frame_size", [0, -2])
def test_stft_rejects_frame_size_below_two(frame_size):
    with pytest.raises(ValueError, match="frame_size"):
        stft(np.zeros(1024), frame_size=frame_size, hop=128)


EVEN = "be a positive even integer"
POSITIVE = "be a positive integer"
RATE = "be positive and finite"


@pytest.mark.parametrize(
    "name, value, rule",
    [
        ("frame_size", True, EVEN),
        ("frame_size", 255, EVEN),
        ("frame_size", "256", EVEN),
        ("frame_size", np.float64(np.inf), EVEN),
        ("hop", True, POSITIVE),
        ("hop", 0, POSITIVE),
        ("hop", 1.5, POSITIVE),
        ("hop", None, POSITIVE),
        ("hop", np.float64(np.inf), POSITIVE),
        ("sample_rate", True, RATE),
        ("sample_rate", 0.0, RATE),
        ("sample_rate", np.inf, RATE),
        ("sample_rate", np.nan, RATE),
        ("f_min", True, "be a number"),
        ("f_min", "300", "be a number"),
        ("f_max", None, "be a number"),
    ],
)
def test_stft_rejects_bad_numeric_settings(name, value, rule):
    # a bool is not a number here: hop=True used to run as hop 1
    settings = {"frame_size": 256, "hop": 128, name: value}
    with pytest.raises(ValueError) as raised:
        stft(np.zeros((2048, 2)), **settings)
    assert str(raised.value) == f"{name} must {rule}, got {value!r}"


def test_stft_takes_integer_valued_float_sizes():
    signal = np.random.default_rng(0).standard_normal((2048, 2))
    frames = stft(signal, frame_size=256.0, hop=128.0)
    assert frames.data.tobytes() == stft(signal, frame_size=256, hop=128).data.tobytes()


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
    return SpectralFrames(data=data, band_frequencies=freqs)


def test_phat_weighting(rng):
    frames = _random_frames(rng)
    frames.data[0, 0, 0] = 3 + 4j
    frames.data[0, 0, 1] = 0.0
    out = apply_weighting(frames)
    assert abs(out.data[0, 0, 0] - (3 + 4j) / 5) < 1e-15
    assert out.data[0, 0, 1] == 0.0
    assert np.all(np.abs(out.data) <= 1.0 + 1e-12)


def test_phat_idempotent(rng):
    frames = _random_frames(rng)
    once = apply_weighting(frames)
    twice = apply_weighting(once)
    np.testing.assert_allclose(twice.data, once.data, atol=1e-12)


def test_sample_covariance_rank_one(rng):
    frames = _random_frames(rng, num_frames=1)
    cov = sample_covariance(frames)
    for k in range(frames.num_bands):
        x = frames.data[k, 0]
        np.testing.assert_allclose(cov.matrices[k], np.outer(x, x.conj()), atol=1e-14)


def test_sample_covariance_basis_vector():
    data = np.zeros((2, 5, 3), dtype=complex)
    data[:, :, 0] = 1.0
    frames = SpectralFrames(data, np.array([100.0, 200.0]))
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
    f3 = frames.band_frequencies[3]
    single = band_select(frames, f3 - 1, f3 + 1)
    assert single.num_bands == 1
    np.testing.assert_array_equal(single.data, frames.data[3:4])
    with pytest.raises(ValueError, match="band selection is empty"):
        band_select(frames, 5000.0, 6000.0)
    with pytest.raises(ValueError, match="f_min must be below f_max"):
        band_select(frames, 100.0, 100.0)


def test_band_select_does_not_copy(rng):
    frames = _random_frames(rng, num_bands=8)
    for f_min, f_max in [(0.0, 20000.0), (100.0, 1000.0), (250.0, 600.0)]:
        assert np.shares_memory(band_select(frames, f_min, f_max).data, frames.data)


def test_band_select_speech_range():
    # 16 kHz / 512-point STFT: 300..3500 Hz covers bins 10 through 112
    freqs = np.arange(257) * 16000.0 / 512
    data = np.zeros((257, 1, 2), dtype=complex)
    sel = band_select(SpectralFrames(data, freqs), 300.0, 3500.0)
    assert sel.num_bands == 103
    assert sel.band_frequencies[0] == freqs[10]
    assert sel.band_frequencies[-1] == freqs[112]
