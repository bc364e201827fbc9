"""Time-frequency frontend: STFT, PHAT weighting, sample covariance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .manifold import check_number, is_integer

# relative magnitude floor applied by PHAT weighting on near-silent bins
PHAT_FLOOR = 1e-12

# the windows stft knows, as the coefficients a_k of the cosine sum
# sum_k a_k cos(k x), written as scipy.signal writes them; the windows are
# built here because importing scipy.signal, which pulls in scipy.stats,
# took about 0.4 of the 0.9 s `import doakit` took on a 2-vCPU x86-64 host
WINDOWS = {"hann": (0.5, 1.0 - 0.5), "boxcar": (1.0,)}


def _band_frequencies(frequencies, num_bands):
    """The frequencies as a float array; ValueError unless they are
    ``num_bands`` non-negative, strictly increasing band frequencies."""
    f = np.asarray(frequencies, dtype=float)
    if f.shape != (num_bands,):
        raise ValueError("band count mismatch")
    if not (np.all(f >= 0.0) and np.all(np.diff(f) > 0.0)):
        raise ValueError("band frequencies must be non-negative and strictly increasing")
    return f


@dataclass
class SpectralFrames:
    """Complex time-frequency tensor indexed (band, frame, sensor)."""

    data: np.ndarray  # (K, N, M) complex
    band_frequencies: np.ndarray  # (K,) Hz

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.ndim != 3:
            raise ValueError("data must have shape (bands, frames, sensors)")
        self.band_frequencies = _band_frequencies(self.band_frequencies, self.data.shape[0])

    @property
    def num_bands(self):
        return self.data.shape[0]

    @property
    def num_frames(self):
        return self.data.shape[1]

    @property
    def num_sensors(self):
        return self.data.shape[2]


@dataclass
class CovarianceSet:
    """Per-band Hermitian matrices at non-negative, strictly increasing band
    frequencies."""

    matrices: np.ndarray  # (K, M, M) complex
    band_frequencies: np.ndarray  # (K,) Hz

    def __post_init__(self):
        self.matrices = np.asarray(self.matrices, dtype=complex)
        if self.matrices.ndim != 3 or self.matrices.shape[1] != self.matrices.shape[2]:
            raise ValueError("matrices must have shape (bands, M, M)")
        self.band_frequencies = _band_frequencies(self.band_frequencies, self.matrices.shape[0])

    @property
    def num_bands(self):
        return self.matrices.shape[0]

    @property
    def num_sensors(self):
        return self.matrices.shape[1]


def periodic_window(window, n):
    """The n-point (n >= 2) periodic window named ``window``, equal bit for
    bit to scipy.signal.get_window(window, n, fftbins=True): the cosine sum
    over linspace(-pi, pi, n + 1), accumulated term by term, with its last
    sample dropped. ValueError for a window not in WINDOWS."""
    coefficients = WINDOWS.get(window) if isinstance(window, str) else None
    if coefficients is None:
        raise ValueError(f"unknown window {window!r}; known: {sorted(WINDOWS)}")
    x = np.linspace(-np.pi, np.pi, n + 1)
    w = np.zeros(n + 1)
    for k, a in enumerate(coefficients):
        w += a * np.cos(k * x)
    return w[:-1]


def frame_frequencies(frame_size, sample_rate):
    """The frame_size // 2 + 1 band frequencies in Hz of a real frame_size-point
    FFT at sample_rate, as ``stft`` and ``synth_stft_scene`` give them."""
    return np.arange(frame_size // 2 + 1) * sample_rate / frame_size


def band_range(frequencies, f_min, f_max):
    """The slice of the strictly increasing ``frequencies`` with
    f_min <= f <= f_max. ValueError unless f_min < f_max and the slice holds
    a band."""
    if not f_min < f_max:
        raise ValueError("f_min must be below f_max")
    first = np.searchsorted(frequencies, f_min, side="left")
    stop = np.searchsorted(frequencies, f_max, side="right")
    if not first < stop:
        raise ValueError("band selection is empty")
    return slice(int(first), int(stop))


def stft(signal, frame_size=512, hop=256, window="hann", sample_rate=16000.0,
         f_min=0.0, f_max=np.inf):
    """Short-time Fourier transform of a real multichannel signal, kept to the
    bands in [f_min, f_max].

    Parameters
    ----------
    signal : (T,) or (T, M) real array, integer or floating; the samples
        are cast to float64 a channel at a time, as they are read
    frame_size : even frame length in samples, at least 2
    hop : hop size in samples, at least 1
    window : "hann" (periodic Hann) or "boxcar" (rectangular); see
        periodic_window. Any other name raises ValueError.
    sample_rate : sampling rate in Hz
    f_min, f_max : the band range kept, both ends included (band_range);
        the default keeps every band

    Returns C-contiguous (K, N, M) frames with N = 1 + floor((T - frame_size)
    / hop) frames, whose K bands are the one-sided bands k * fs / frame_size,
    k = 0 .. frame_size / 2, that lie in the range. The forward DFT is
    unnormalized. ValueError for complex samples, and naming the setting
    for a numeric setting that is not a number (a bool included) or is out
    of range.
    """
    signal = np.asarray(signal)
    if np.iscomplexobj(signal):
        raise ValueError("signal must be real")
    if signal.ndim == 1:
        signal = signal[:, None]
    num_samples, num_sensors = signal.shape
    check_number(frame_size, "frame_size", "be a positive even integer",
                 lambda v: v >= 2 and is_integer(v) and v % 2 == 0)
    check_number(hop, "hop", "be a positive integer", lambda v: v >= 1 and is_integer(v))
    check_number(sample_rate, "sample_rate", "be positive and finite",
                 lambda v: 0.0 < v < np.inf)
    check_number(f_min, "f_min")
    check_number(f_max, "f_max")
    frame_size, hop = int(frame_size), int(hop)
    if num_samples < frame_size:
        raise ValueError("signal shorter than one frame")
    win = periodic_window(window, frame_size)
    freqs = frame_frequencies(frame_size, sample_rate)
    kept = band_range(freqs, f_min, f_max)

    # (N, M, frame) strided view of the samples, framed along time; each
    # channel's windowed frames go into one reused buffer, and only the kept
    # bins of its spectra are stored
    frames = sliding_window_view(signal, frame_size, axis=0)[::hop]
    num_frames = frames.shape[0]
    windowed = np.empty((num_frames, frame_size))
    data = np.empty((kept.stop - kept.start, num_frames, num_sensors), dtype=complex)
    for m in range(num_sensors):
        np.multiply(frames[:, m], win, out=windowed)
        data[:, :, m] = np.fft.rfft(windowed, axis=-1)[:, kept].T
    return SpectralFrames(data=data, band_frequencies=freqs[kept])


def apply_weighting(frames):
    """PHAT weighting of the time-frequency tensor: every entry divided by
    its magnitude, floored at PHAT_FLOOR times the mean magnitude of its
    frame so silent bins map to zero instead of NaN.
    """
    mag = np.abs(frames.data)
    floor = PHAT_FLOOR * np.mean(mag, axis=(0, 2), keepdims=True)
    floor = np.maximum(floor, np.finfo(float).tiny)
    data = frames.data / np.maximum(mag, floor)
    return SpectralFrames(data=data, band_frequencies=frames.band_frequencies)


def sample_covariance(frames):
    """Per-band sample covariance S_k = N^-1 sum_n x_kn x_kn^H."""
    if frames.num_frames < 1:
        raise ValueError("need at least one frame")
    x = frames.data
    # one batched BLAS product over bands: (K, M, N) @ (K, N, M)
    s = np.swapaxes(x, 1, 2) @ x.conj() / frames.num_frames
    # enforce exact Hermitian symmetry against rounding
    s = 0.5 * (s + np.conj(np.transpose(s, (0, 2, 1))))
    return CovarianceSet(matrices=s, band_frequencies=frames.band_frequencies)


def band_select(frames, f_min, f_max):
    """The bands of the frames with f_min <= f_k <= f_max (band_range), as a
    view of their data."""
    kept = band_range(frames.band_frequencies, f_min, f_max)
    return SpectralFrames(
        data=frames.data[kept], band_frequencies=frames.band_frequencies[kept]
    )
