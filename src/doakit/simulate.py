"""Synthetic scenes, permutation-aligned scoring, and Monte Carlo sweeps."""

from __future__ import annotations

import csv
import json
import time
import warnings
from dataclasses import dataclass, field
from itertools import product

import numpy as np
from scipy.optimize import linear_sum_assignment

from .estimators import (
    DEFAULT_MVDR_LOADING,
    grid_search,
    music_cost_spec,
    mvdr_cost_spec,
    srp_cost_spec,
)
from .manifold import ArrayGeometry, fibonacci_grid, great_circle_distance
from .refine import refine
from .spectral import SpectralFrames, apply_weighting, band_select, sample_covariance

# the sweep axes of a Monte Carlo cell, in key order
CELL_FIELDS = ("estimator", "s", "grid_size", "variant", "iters", "snr_db")


@dataclass
class Scene:
    """Free-field plane-wave scene: sources at fixed directions plus noise."""

    geometry: ArrayGeometry
    sources: np.ndarray  # (L, 3) unit direction vectors
    snr_db: float = 20.0
    seed: int = 0
    sample_rate: float = 16000.0
    duration: float = 1.0
    # log-normal spread (dB) of per-source band gains; 0 keeps every source
    # flat across bands, larger values make bands source-dominated the way
    # sparse wideband signals such as speech are
    band_gain_spread_db: float = 0.0

    def __post_init__(self):
        self.sources = np.asarray(self.sources, dtype=float).reshape(-1, 3)
        norms = np.linalg.norm(self.sources, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("source directions must be unit vectors")
        if np.isnan(self.snr_db):
            raise ValueError("snr_db must not be NaN")
        if self.num_sources >= self.geometry.num_sensors:
            warnings.warn(
                "more sources than sensors minus one; estimators may fail",
                stacklevel=2,
            )

    @property
    def num_sources(self):
        return self.sources.shape[0]


def _noise_variance(snr_db, num_sources, num_sensors):
    # per-sensor complex noise variance making the per-band ratio of total
    # signal power (num_sources, unit-power sources through unit-norm
    # steering vectors) to total noise power equal to the requested SNR;
    # a source-free scene keeps the unit reference power
    if np.isinf(snr_db):
        return 0.0
    return max(num_sources, 1) * 10.0 ** (-snr_db / 10.0) / num_sensors


def synth_stft_scene(scene, frame_size=512, num_frames=100, f_min=300.0, f_max=3500.0):
    """Draw a time-frequency tensor directly from the plane-wave model.

    Source coefficients are i.i.d. complex Gaussian with unit variance on
    average inside the active band range [f_min, f_max] and zero outside;
    a nonzero scene.band_gain_spread_db redistributes each source's power
    across bands (unit mean square preserved). Noise is complex Gaussian at
    every band with power set from scene.snr_db. Deterministic given
    scene.seed.
    """
    geom = scene.geometry
    m = geom.num_sensors
    sig_ss, noise_ss, gain_ss = np.random.SeedSequence(scene.seed).spawn(3)
    sig_rng = np.random.default_rng(sig_ss)
    noise_rng = np.random.default_rng(noise_ss)
    gain_rng = np.random.default_rng(gain_ss)

    num_bands = frame_size // 2 + 1
    freqs = np.arange(num_bands) * scene.sample_rate / frame_size
    active = (freqs >= f_min) & (freqs <= f_max)
    omega = 2.0 * np.pi * freqs / geom.speed_of_sound

    # (K, M, L) steering tensor
    tau = geom.sensors @ scene.sources.T  # (M, L)
    steering = np.exp(1j * omega[:, None, None] * tau[None]) / np.sqrt(m)

    shape = (num_bands, num_frames, scene.num_sources)
    y = (sig_rng.standard_normal(shape) + 1j * sig_rng.standard_normal(shape)) / np.sqrt(2.0)
    if scene.band_gain_spread_db > 0.0 and scene.num_sources > 0:
        gains = 10.0 ** (
            scene.band_gain_spread_db
            * gain_rng.standard_normal((num_bands, scene.num_sources))
            / 20.0
        )
        gains /= np.sqrt(np.mean(gains[active] ** 2, axis=0, keepdims=True))
        y = y * gains[:, None, :]
    y[~active] = 0.0
    x = y @ np.swapaxes(steering, 1, 2)  # (K, N, L) @ (K, L, M)

    sigma2 = _noise_variance(scene.snr_db, scene.num_sources, m)
    if sigma2 > 0.0:
        bshape = (num_bands, num_frames, m)
        x = x + np.sqrt(sigma2 / 2.0) * (
            noise_rng.standard_normal(bshape) + 1j * noise_rng.standard_normal(bshape)
        )
    return SpectralFrames(data=x, band_frequencies=freqs, sample_rate=scene.sample_rate)


def _fractional_delay(signal, delay_samples, half_width=32):
    """Windowed-sinc fractional delay of a 1-D signal (non-causal, interior
    samples only are valid; callers must pad)."""
    n0 = int(np.round(delay_samples))
    frac = delay_samples - n0
    i = np.arange(-half_width, half_width + 1)
    x = i - frac
    taper = np.cos(0.5 * np.pi * x / (half_width + 1)) ** 2
    kernel = np.sinc(x) * np.where(np.abs(x) <= half_width + 1, taper, 0.0)
    conv = np.convolve(signal, kernel)
    # conv[n + half_width - n0] interpolates signal at time n - delay_samples
    return conv, half_width - n0


def synth_time_scene(scene):
    """Render the scene as a real multichannel time-domain signal.

    Each channel is the sum over sources of the source signal advanced by
    d_m . q / c seconds (plane-wave propagation, windowed-sinc fractional
    delays), plus white Gaussian noise at the scene SNR.
    """
    geom = scene.geometry
    fs = scene.sample_rate
    num_samples = int(round(scene.duration * fs))
    if num_samples < 1:
        raise ValueError("scene duration too short")
    ss = np.random.SeedSequence(scene.seed).spawn(scene.num_sources + 1)
    half_width = 32
    lags = np.abs(geom.sensors @ scene.sources.T) * fs / geom.speed_of_sound
    max_shift = int(np.ceil(lags.max())) + 1 if lags.size else 0
    margin = half_width + max_shift + 1

    out = np.zeros((num_samples, geom.num_sensors))
    for ell in range(scene.num_sources):
        rng = np.random.default_rng(ss[ell])
        src = rng.standard_normal(num_samples + 2 * margin)
        for m in range(geom.num_sensors):
            # channel m is delayed by -d_m . q / c (arrives early when
            # the sensor leans toward the source)
            delay = -(geom.sensors[m] @ scene.sources[ell]) * fs / geom.speed_of_sound
            conv, offset = _fractional_delay(src, delay, half_width)
            idx = np.arange(num_samples) + margin + offset
            out[:, m] += conv[idx]

    if not np.isinf(scene.snr_db):
        noise_rng = np.random.default_rng(ss[-1])
        sigma = np.sqrt(max(scene.num_sources, 1) * 10.0 ** (-scene.snr_db / 10.0))
        out = out + sigma * noise_rng.standard_normal(out.shape)
    return out


def evaluate(estimates, truth):
    """Per-source great-circle errors in degrees, indexed like ``truth``, under
    the assignment of estimates to sources that minimizes the average error."""
    estimates = np.atleast_2d(np.asarray(estimates, dtype=float))
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    if estimates.shape != truth.shape:
        raise ValueError("estimates and truth must have the same shape")
    # pairwise error matrix, truth index i vs estimate index j
    err = np.degrees(great_circle_distance(truth[:, None, :], estimates[None, :, :]))
    err = np.atleast_2d(err)
    rows, cols = linear_sum_assignment(err)
    return err[rows, cols]


@dataclass
class MonteCarloConfig:
    """Sweep over estimator, exponent, grid size, variant, iteration count
    and SNR; every cell runs ``num_trials`` independent scenes."""

    geometry: ArrayGeometry
    estimators: tuple = ("srp-phat",)
    s_values: tuple = (-3.0,)
    grid_sizes: tuple = (100,)
    variants: tuple = ("quadratic",)
    iteration_counts: tuple = (30,)
    snr_values: tuple = (10.0,)
    num_sources: int = 1
    num_trials: int = 20
    master_seed: int = 0
    sample_rate: float = 16000.0
    frame_size: int = 256
    num_frames: int = 100
    f_min: float = 300.0
    f_max: float = 3500.0
    min_separation_deg: float = 10.0
    min_source_separation_deg: float = 15.0
    band_gain_spread_db: float = 0.0
    mvdr_loading: float = 1e-3
    rel_tol: float = 1e-10


@dataclass
class EvalResult:
    """Per-trial error table plus per-cell medians and localization times."""

    rows: list = field(default_factory=list)
    medians: dict = field(default_factory=dict)
    cell_seconds: dict = field(default_factory=dict)

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            writer = csv.DictWriter(
                f, fieldnames=[*CELL_FIELDS, "trial", "src_index", "error_deg"]
            )
            writer.writeheader()
            writer.writerows(self.rows)

    def summary(self):
        cells = [
            dict(
                zip(CELL_FIELDS, key),
                median_error_deg=median,
                median_seconds=self.cell_seconds.get(key),
            )
            for key, median in sorted(self.medians.items())
        ]
        return {"cells": cells}

    def write_summary(self, path):
        with open(path, "w") as f:
            json.dump(self.summary(), f, indent=2)


def random_sources(rng, num_sources, min_separation_rad):
    """Uniformly random unit directions, redrawn until every pair is at least
    ``min_separation_rad`` apart."""
    while True:
        q = rng.standard_normal((num_sources, 3))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        apart = great_circle_distance(q[:, None], q[None])
        if np.all(apart[np.triu_indices(num_sources, k=1)] >= min_separation_rad):
            return q


def estimator_covariance(frames, estimator, f_min, f_max):
    """Sample covariance of the bands in [f_min, f_max] an estimator works
    on: SRP-PHAT sees PHAT-weighted frames, every other estimator the frames
    as they are. PHAT comes before the selection because its floor is a mean
    over every band of a frame. Raises LinAlgError when SRP-PHAT is given a
    non-finite entry, which PHAT would divide by and spread through its
    frame's floor."""
    if estimator == "srp-phat":
        if not np.all(np.isfinite(frames.data)):
            raise np.linalg.LinAlgError(
                "no usable signal: the frames hold a non-finite value"
            )
        frames = apply_weighting(frames, "phat")
    return sample_covariance(band_select(frames, f_min, f_max))


def build_cost_spec(cov, estimator, s, num_sources, speed_of_sound,
                    mvdr_loading=DEFAULT_MVDR_LOADING):
    if estimator in ("srp", "srp-phat"):
        return srp_cost_spec(cov, s=s, speed_of_sound=speed_of_sound)
    if estimator == "music":
        return music_cost_spec(cov, num_sources, s=s, speed_of_sound=speed_of_sound)
    if estimator == "mvdr":
        return mvdr_cost_spec(cov, loading=mvdr_loading, s=s, speed_of_sound=speed_of_sound)
    raise ValueError(f"unknown estimator {estimator!r}")


def locate_sources(cov, geometry, grid, *, estimator, s, num_sources, variant,
                   max_iters, min_separation_rad, rel_tol=1e-10,
                   mvdr_loading=DEFAULT_MVDR_LOADING):
    """Localize sources in a covariance from ``estimator_covariance``: build
    the estimator's cost spec, search the grid, then refine each peak.
    Returns (directions, objective values, traces). Raises LinAlgError when
    the covariance has a non-finite entry or is zero in every band."""
    band_power = np.trace(cov.matrices, axis1=1, axis2=2).real
    if not (np.all(np.isfinite(cov.matrices)) and np.any(band_power)):
        raise np.linalg.LinAlgError(
            "no usable signal: the covariance is non-finite or zero in every band"
        )
    spec = build_cost_spec(
        cov, estimator, s, num_sources, geometry.speed_of_sound, mvdr_loading
    )
    peaks = grid_search(
        spec, geometry, grid, num_sources=num_sources, min_separation=min_separation_rad
    )
    directions, values, traces = [], [], []
    for q0, value in peaks:
        if variant == "none" or max_iters == 0:
            directions.append(q0)
            values.append(value)
            traces.append([value])
        else:
            trace = refine(spec, geometry, q0, variant=variant,
                           max_iters=max_iters, rel_tol=rel_tol)
            directions.append(trace.iterates[-1])
            values.append(trace.objectives[-1])
            traces.append(list(trace.objectives))
    return directions, values, traces


def run_trial(config, cell_key, cell_index, trial, grid):
    """One Monte Carlo trial; returns (per-source errors, localization time).

    The time covers cost-spec build, grid search and refinement only."""
    estimator, s, grid_size, variant, iters, snr_db = cell_key
    seed_seq = np.random.SeedSequence([config.master_seed, *cell_index, trial])
    rng = np.random.default_rng(seed_seq)
    sources = random_sources(
        rng, config.num_sources, np.radians(config.min_source_separation_deg)
    )
    scene = Scene(
        geometry=config.geometry,
        sources=sources,
        snr_db=snr_db,
        seed=int(seed_seq.generate_state(1)[0]),
        sample_rate=config.sample_rate,
        band_gain_spread_db=config.band_gain_spread_db,
    )
    frames = synth_stft_scene(
        scene,
        frame_size=config.frame_size,
        num_frames=config.num_frames,
        f_min=config.f_min,
        f_max=config.f_max,
    )
    cov = estimator_covariance(frames, estimator, config.f_min, config.f_max)

    start = time.perf_counter()
    directions, _, _ = locate_sources(
        cov,
        config.geometry,
        grid,
        estimator=estimator,
        s=s,
        num_sources=config.num_sources,
        variant=variant,
        max_iters=iters,
        min_separation_rad=np.radians(config.min_separation_deg),
        rel_tol=config.rel_tol,
        mvdr_loading=config.mvdr_loading,
    )
    elapsed = time.perf_counter() - start
    return evaluate(directions, sources), elapsed


def monte_carlo(config):
    """Run the full sweep; deterministic given config.master_seed."""
    grids = {g: fibonacci_grid(g) for g in set(config.grid_sizes)}
    axes = (config.estimators, config.s_values, config.grid_sizes,
            config.variants, config.iteration_counts, config.snr_values)
    result = EvalResult()
    for cell in product(*(enumerate(axis) for axis in axes)):
        cell_index, cell_key = zip(*cell)
        errors, times = [], []
        for trial in range(config.num_trials):
            err, elapsed = run_trial(
                config, cell_key, cell_index, trial, grids[cell_key[2]]
            )
            times.append(elapsed)
            errors.extend(err)
            result.rows.extend(
                dict(zip(CELL_FIELDS, cell_key), trial=trial, src_index=i,
                     error_deg=float(e))
                for i, e in enumerate(err)
            )
        result.medians[cell_key] = float(np.median(errors))
        result.cell_seconds[cell_key] = float(np.median(times))
    return result
