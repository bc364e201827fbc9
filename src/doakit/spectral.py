"""Time-frequency frontend: STFT, magnitude weighting, sample covariance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import get_window

# relative magnitude floor applied by PHAT weighting on near-silent bins
PHAT_FLOOR = 1e-12


@dataclass
class SpectralFrames:
    """Complex time-frequency tensor indexed (band, frame, sensor)."""

    data: np.ndarray  # (K, N, M) complex
    band_frequencies: np.ndarray  # (K,) Hz
    sample_rate: float

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        self.band_frequencies = np.asarray(self.band_frequencies, dtype=float)
        if self.data.ndim != 3:
            raise ValueError("data must have shape (bands, frames, sensors)")
        if self.band_frequencies.shape[0] != self.data.shape[0]:
            raise ValueError("band count mismatch")
        if np.any(np.diff(self.band_frequencies) <= 0):
            raise ValueError("band frequencies must be strictly increasing")

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
    """Per-band Hermitian PSD sample covariance matrices."""

    matrices: np.ndarray  # (K, M, M) complex
    band_frequencies: np.ndarray  # (K,) Hz

    def __post_init__(self):
        self.matrices = np.asarray(self.matrices, dtype=complex)
        self.band_frequencies = np.asarray(self.band_frequencies, dtype=float)
        if self.matrices.ndim != 3 or self.matrices.shape[1] != self.matrices.shape[2]:
            raise ValueError("matrices must have shape (bands, M, M)")
        if self.band_frequencies.shape[0] != self.matrices.shape[0]:
            raise ValueError("band count mismatch")

    @property
    def num_bands(self):
        return self.matrices.shape[0]

    @property
    def num_sensors(self):
        return self.matrices.shape[1]


def stft(signal, frame_size=512, hop=256, window="hann", sample_rate=16000.0):
    """Short-time Fourier transform of a real multichannel signal.

    Parameters
    ----------
    signal : (T,) or (T, M) real array
    frame_size : even frame length in samples
    hop : hop size in samples
    window : window name understood by scipy.signal.get_window
    sample_rate : sampling rate in Hz

    Returns frames with N = 1 + floor((T - frame_size) / hop) frames and
    K = frame_size / 2 + 1 one-sided bands at frequencies k * fs / frame_size.
    The forward DFT is unnormalized.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim == 1:
        signal = signal[:, None]
    num_samples = signal.shape[0]
    if frame_size % 2 != 0:
        raise ValueError("frame_size must be even")
    if hop < 1:
        raise ValueError("hop must be at least 1")
    if num_samples < frame_size:
        raise ValueError("signal shorter than one frame")
    try:
        win = get_window(window, frame_size, fftbins=True)
    except ValueError as exc:
        raise ValueError(f"unknown window {window!r}") from exc

    num_frames = 1 + (num_samples - frame_size) // hop
    starts = np.arange(num_frames) * hop
    # (N, frame, M) windowed segments -> rfft over the frame axis
    segments = signal[starts[:, None] + np.arange(frame_size)] * win[None, :, None]
    spectra = np.fft.rfft(segments, axis=1)  # (N, K, M)
    freqs = np.arange(frame_size // 2 + 1) * sample_rate / frame_size
    return SpectralFrames(
        data=np.transpose(spectra, (1, 0, 2)),
        band_frequencies=freqs,
        sample_rate=sample_rate,
    )


def apply_weighting(frames, scheme="unit"):
    """Entrywise magnitude weighting of the time-frequency tensor.

    "unit" is the identity; "phat" divides every entry by its magnitude,
    floored at PHAT_FLOOR times the mean magnitude of its frame so silent
    bins map to zero instead of NaN.
    """
    if scheme == "unit":
        return frames
    if scheme != "phat":
        raise ValueError(f"unknown weighting scheme {scheme!r}")
    mag = np.abs(frames.data)
    floor = PHAT_FLOOR * np.mean(mag, axis=(0, 2), keepdims=True)
    floor = np.maximum(floor, np.finfo(float).tiny)
    data = frames.data / np.maximum(mag, floor)
    return SpectralFrames(
        data=data,
        band_frequencies=frames.band_frequencies,
        sample_rate=frames.sample_rate,
    )


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
    """Keep only the bands of the frames with f_min <= f_k <= f_max."""
    if not f_min < f_max:
        raise ValueError("f_min must be below f_max")
    keep = (frames.band_frequencies >= f_min) & (frames.band_frequencies <= f_max)
    if not np.any(keep):
        raise ValueError("band selection is empty")
    return SpectralFrames(
        data=frames.data[keep],
        band_frequencies=frames.band_frequencies[keep],
        sample_rate=frames.sample_rate,
    )
