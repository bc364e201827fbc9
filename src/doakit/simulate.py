"""Synthetic scenes, permutation-aligned scoring, and Monte Carlo sweeps."""

from __future__ import annotations

import csv
import json
import time
import warnings
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .estimators import (
    DEFAULT_MVDR_LOADING,
    band_powers,
    check_exponent,
    grid_search,
    music_cost_spec,
    mvdr_cost_spec,
    power_mean,
    srp_cost_spec,
)
from .manifold import (
    ArrayGeometry,
    check_number,
    fibonacci_grid,
    great_circle_distance,
    is_integer,
)
from .refine import PairCoefficients, RefinementTrace, refine
from .spectral import (
    SpectralFrames,
    apply_weighting,
    band_range,
    frame_frequencies,
    sample_covariance,
)

# the sweep axes of a Monte Carlo cell, in key order, and the
# MonteCarloConfig fields that list each axis's values
CELL_FIELDS = ("estimator", "s", "grid_size", "variant", "iters", "snr_db")
SWEEP_AXES = ("estimators", "s_values", "grid_sizes", "variants",
              "iteration_counts", "snr_values")
# the estimator and refinement variant names locate_sources knows
ESTIMATORS = ("srp", "srp-phat", "music", "mvdr")
VARIANTS = ("quadratic", "linear", "none")
# the MonteCarloConfig axes that hold integers, and the fields that do,
# each with its least value
INTEGER_AXES = ("grid_sizes", "iteration_counts")
INTEGER_FIELDS = {"num_sources": 1, "num_trials": 1, "master_seed": 0, "frame_size": 2,
                  "num_frames": 1}
# draws random_sources makes before it gives up on the separation
MAX_SOURCE_DRAWS = 10_000


def as_integer(value, name):
    """``value`` as an int when it is an integer-valued number such as 100 or
    100.0; ValueError naming the setting ``name`` otherwise."""
    check_number(value, name, "be an integer", is_integer)
    return int(value)


def _check_snr(snr_db, name="snr_db"):
    # the noise of -inf dB would be infinite
    check_number(snr_db, name, "be a number above -inf", lambda v: v > -np.inf)


def _check_spread(spread_db):
    check_number(spread_db, "band_gain_spread_db", "be a finite non-negative number",
                 lambda v: 0.0 <= v < np.inf)


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
        _check_snr(self.snr_db)
        _check_spread(self.band_gain_spread_db)
        if self.num_sources >= self.geometry.num_sensors:
            warnings.warn(
                "more sources than sensors minus one; estimators may fail",
                stacklevel=2,
            )

    @property
    def num_sources(self):
        return self.sources.shape[0]


def _noise_variance(snr_db, num_sources):
    # per-sensor noise variance, in units of one source's power at a sensor,
    # making the ratio of total signal power (num_sources unit-power
    # sources) to total noise power equal to the requested SNR; a
    # source-free scene keeps the unit reference power
    if np.isinf(snr_db):
        return 0.0
    return max(num_sources, 1) * 10.0 ** (-snr_db / 10.0)


def plane_wave_response(geometry, sources, frequencies):
    """(K, M, L) phasors exp(j w_k d_m . q_l) at sensors d_m of plane waves from
    unit directions q_l, w_k the wavenumber of ``frequencies[k]`` in Hz."""
    omega = geometry.wavenumbers(frequencies)
    tau = geometry.sensors @ np.asarray(sources, dtype=float).T  # (M, L)
    return np.exp(1j * omega[:, None, None] * tau[None])


def synth_stft_scene(scene, frame_size=512, num_frames=100, f_min=300.0, f_max=3500.0):
    """Draw a time-frequency tensor of the bands in [f_min, f_max]
    (band_range, as ``stft`` keeps them) directly from the plane-wave model.

    Source coefficients are i.i.d. complex Gaussian with unit variance on
    average; a nonzero scene.band_gain_spread_db redistributes each source's
    power across the kept bands (unit mean square preserved). Noise is
    complex Gaussian with power set from scene.snr_db.

    The signal, noise and gain streams are each read band by band, from band
    0 up to the last kept band and no further, with a band's real and
    imaginary parts side by side. So a band's draws depend only on the seed
    and its index, and a kept band's row does not depend on the range.
    Deterministic given scene.seed.
    """
    geom = scene.geometry
    m, num_sources = geom.num_sensors, scene.num_sources
    sig_ss, noise_ss, gain_ss = np.random.SeedSequence(scene.seed).spawn(3)

    freqs = frame_frequencies(frame_size, scene.sample_rate)
    kept = band_range(freqs, f_min, f_max)
    freqs = freqs[kept]

    steering = plane_wave_response(geom, scene.sources, freqs) / np.sqrt(m)  # unit norm

    # bands 0 .. kept.stop - 1 of each stream, each row read as complex
    drawn = (kept.stop, num_frames)
    sig_rng = np.random.default_rng(sig_ss)
    y = sig_rng.standard_normal((*drawn, 2 * num_sources)).view(complex)[kept]
    y /= np.sqrt(2.0)
    if scene.band_gain_spread_db > 0.0 and num_sources > 0:
        gain_rng = np.random.default_rng(gain_ss)
        gains = 10.0 ** (
            scene.band_gain_spread_db * gain_rng.standard_normal((kept.stop, num_sources))[kept]
            / 20.0
        )
        gains /= np.sqrt(np.mean(gains ** 2, axis=0, keepdims=True))
        y *= gains[:, None, :]
    signal = y @ np.swapaxes(steering, 1, 2)  # (K, N, L) @ (K, L, M)

    # unit-norm steering vectors give each source power 1/M at a sensor
    sigma2 = _noise_variance(scene.snr_db, num_sources) / m
    if sigma2 == 0.0:
        return SpectralFrames(data=signal, band_frequencies=freqs)
    # the noise is drawn into the output's own buffer, whose kept rows are
    # scaled and take the signal in place
    noise_rng = np.random.default_rng(noise_ss)
    buffer = np.empty((*drawn, 2 * m))
    noise_rng.standard_normal(out=buffer)
    x = buffer.view(complex)[kept]
    x *= np.sqrt(sigma2 / 2.0)
    x += signal
    return SpectralFrames(data=x, band_frequencies=freqs)


def synth_time_scene(scene):
    """Render the scene as a real multichannel time-domain signal.

    Channel m holds each white Gaussian source advanced by d_m . q / c
    seconds, an exact circular delay: the rfft of the source times its
    ``plane_wave_response`` (the phasors ``synth_stft_scene`` steers with),
    plus white Gaussian noise at the scene SNR. Sources are flat across
    frequency, so a scene with a band gain spread is refused.
    """
    check_number(scene.duration, "duration", "be positive and finite",
                 lambda v: 0.0 < v < np.inf)
    check_number(scene.band_gain_spread_db, "band_gain_spread_db",
                 "be 0 in a time-domain scene", lambda v: v == 0.0)
    num_samples = int(round(scene.duration * scene.sample_rate))
    if num_samples < 1:
        raise ValueError("scene duration too short")
    ss = np.random.SeedSequence(scene.seed).spawn(scene.num_sources + 1)
    freqs = np.fft.rfftfreq(num_samples, 1.0 / scene.sample_rate)

    # the channels' spectrum, summed one source at a time so that no
    # (F, M, L) response is held, then transformed back in its place
    out = np.zeros((freqs.size, scene.geometry.num_sensors), dtype=complex)
    for q, seq in zip(scene.sources, ss):
        src = np.fft.rfft(np.random.default_rng(seq).standard_normal(num_samples))
        out += plane_wave_response(scene.geometry, q[None], freqs)[:, :, 0] * src[:, None]
    out = np.fft.irfft(out, n=num_samples, axis=0)

    sigma2 = _noise_variance(scene.snr_db, scene.num_sources)
    if sigma2 > 0.0:
        out += np.sqrt(sigma2) * np.random.default_rng(ss[-1]).standard_normal(out.shape)
    return out


def _min_sum_assignment(cost):
    """The column each row takes in a minimum-sum assignment of a square
    cost matrix: Kuhn-Munkres with row and column potentials and one
    shortest augmenting path per row (Crouse, 2016), O(n^3). Columns are
    visited and ties broken as scipy.optimize.linear_sum_assignment does, so
    the same columns come out when several assignments reach the minimum."""
    n = cost.shape[0]
    u, v = np.zeros(n), np.zeros(n)
    col4row, row4col, path = np.full(n, -1), np.full(n, -1), np.full(n, -1)
    for cur in range(n):
        dist = np.full(n, np.inf)  # shortest path cost to each column
        seen_rows, seen_cols = np.zeros(n, bool), np.zeros(n, bool)
        todo = np.arange(n - 1, -1, -1)  # columns not yet reached
        i, low, sink = cur, 0.0, -1
        while sink < 0:
            seen_rows[i] = True
            reach = low + cost[i, todo] - u[i] - v[todo]
            closer = reach < dist[todo]
            path[todo[closer]] = i
            dist[todo[closer]] = reach[closer]
            low = dist[todo].min()
            ties = np.flatnonzero(dist[todo] == low)
            free = ties[row4col[todo[ties]] < 0]  # a free column ends the path
            k = free[-1] if free.size else ties[0]
            j = todo[k]
            seen_cols[j] = True
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            todo[k] = todo[-1]
            todo = todo[:-1]
        seen_rows[cur] = False
        u[cur] += low
        u[seen_rows] += low - dist[col4row[seen_rows]]
        v[seen_cols] -= low - dist[seen_cols]
        # flip the matched and unmatched edges along the path back to cur
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def evaluate(estimates, truth):
    """Per-source great-circle errors in degrees, indexed like ``truth``, under
    the assignment of estimates to sources that minimizes the average error."""
    estimates = np.atleast_2d(np.asarray(estimates, dtype=float))
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    if estimates.shape != truth.shape:
        raise ValueError("estimates and truth must have the same shape")
    # pairwise error matrix, truth index i vs estimate index j
    err = np.degrees(great_circle_distance(truth[:, None, :], estimates[None, :, :]))
    if not np.all(np.isfinite(err)):
        raise ValueError("estimates and truth must be finite")
    return err[np.arange(len(err)), _min_sum_assignment(err)]


@dataclass
class MonteCarloConfig:
    """Sweep over estimator, exponent, grid size, variant, iteration count
    and SNR. Every cell scores ``num_trials`` independent scenes, and cells
    at one SNR score the same ones."""

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

    def __post_init__(self):
        for name in SWEEP_AXES:
            axis = getattr(self, name)
            if not isinstance(axis, (list, tuple)) or not axis:
                raise ValueError(f"{name} must be a non-empty list")
        for name in INTEGER_AXES:
            setattr(self, name, tuple(as_integer(v, name) for v in getattr(self, name)))
        for name, least in INTEGER_FIELDS.items():
            value = as_integer(getattr(self, name), name)
            check_number(value, name, f"be at least {least}", lambda v: v >= least)
            setattr(self, name, value)
        for s in self.s_values:
            check_exponent(s, "s_values")
        for snr_db in self.snr_values:
            _check_snr(snr_db, "snr_values")
        check_number(self.sample_rate, "sample_rate", "be positive and finite",
                     lambda v: 0.0 < v < np.inf)
        for name in ("f_min", "f_max"):
            check_number(getattr(self, name), name)
        # the band rule synth_stft_scene applies, before any grid is built
        band_range(frame_frequencies(self.frame_size, self.sample_rate), self.f_min, self.f_max)
        _check_spread(self.band_gain_spread_db)
        check_number(self.min_source_separation_deg, "min_source_separation_deg",
                     "lie in [0, 180]", lambda v: 0.0 <= v <= 180.0)
        # every cell's settings up front, so a bad one late in an axis does
        # not wait for the cells before it to run
        for estimator, variant, iters in product(
                self.estimators, self.variants, self.iteration_counts):
            _check_settings(estimator, variant, self.num_sources, iters, self.rel_tol,
                            self.mvdr_loading, self.min_separation_deg)
        # cells are keyed by their values, so a value may appear once per axis
        for name in SWEEP_AXES:
            axis = getattr(self, name)
            for i, value in enumerate(axis):
                if value in axis[:i]:
                    raise ValueError(f"{name} repeats the value {value!r}")


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
    ``min_separation_rad`` apart. Raises ValueError naming the separation
    when MAX_SOURCE_DRAWS draws do not meet it."""
    for _ in range(MAX_SOURCE_DRAWS):
        q = rng.standard_normal((num_sources, 3))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        apart = great_circle_distance(q[:, None], q[None])
        if np.all(apart[np.triu_indices(num_sources, k=1)] >= min_separation_rad):
            return q
    raise ValueError(
        f"no {num_sources} random directions at least "
        f"{np.degrees(min_separation_rad):g} deg apart in {MAX_SOURCE_DRAWS} draws"
    )


def estimator_covariance(frames, estimator):
    """Sample covariance of the frames an estimator reads: PHAT-weighted for
    SRP-PHAT, as they are for the others. The frames hold only the bands in
    use, as ``stft`` and ``synth_stft_scene`` give them, so PHAT's floor is
    the mean magnitude over those bands of a frame."""
    if estimator == "srp-phat":
        # a NaN or inf entry (inf / inf is NaN) leaves its band's covariance
        # non-finite, for build_cost_spec to reject
        with np.errstate(invalid="ignore"):
            frames = apply_weighting(frames)
    return sample_covariance(frames)


def _check_settings(estimator, variant, num_sources, max_iters, rel_tol, mvdr_loading,
                    min_separation):
    """The settings check of ``locate_sources``, which MonteCarloConfig also
    runs on every cell before a sweep starts: ValueError naming the setting.
    The source count and the peak separation (in degrees or radians alike)
    are checked here as well, so a bad one fails before any grid pass rather
    than in ``grid_search`` after it."""
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    check_number(num_sources, "num_sources", "be at least 1", lambda v: v >= 1)
    check_number(max_iters, "max_iters", "be non-negative", lambda v: v >= 0)
    for name, value in (("num_sources", num_sources), ("max_iters", max_iters)):
        check_number(value, name, "be an integer", is_integer)
    for name, value in (("rel_tol", rel_tol), ("mvdr_loading", mvdr_loading),
                        ("min_separation", min_separation)):
        check_number(value, name, "be a finite non-negative number",
                     lambda v: 0.0 <= v < np.inf)


def build_cost_spec(cov, estimator, s, num_sources, mvdr_loading=DEFAULT_MVDR_LOADING):
    """The estimator's cost spec of a covariance from ``estimator_covariance``.
    Raises LinAlgError ("no usable signal") when the covariance is non-finite
    or zero in every band, ValueError for an unknown estimator."""
    band_power = np.trace(cov.matrices, axis1=1, axis2=2).real
    if not (np.all(np.isfinite(cov.matrices)) and np.any(band_power)):
        raise np.linalg.LinAlgError(
            "no usable signal: the covariance is non-finite or zero in every band"
        )
    if estimator in ("srp", "srp-phat"):
        return srp_cost_spec(cov, s=s)
    if estimator == "music":
        return music_cost_spec(cov, num_sources, s=s)
    if estimator == "mvdr":
        return mvdr_cost_spec(cov, loading=mvdr_loading, s=s)
    raise ValueError(f"unknown estimator {estimator!r}")


def refine_peaks(spec, geometry, peaks, *, variant, max_iters, rel_tol=1e-10):
    """The last stage of ``locate_sources``: one RefinementTrace per peak of
    ``grid_search``, in peak order, whose last iterate is the direction; an
    unrefined peak (variant "none" or max_iters 0) gets the one-point trace
    of its grid point. The caller checks the settings: ``locate_sources``
    and ``MonteCarloConfig`` run ``_check_settings``."""
    if variant == "none" or max_iters == 0:
        return [RefinementTrace(iterates=[q0], objectives=[value]) for q0, value in peaks]
    coeffs = PairCoefficients.from_cost_spec(spec, geometry)
    return [refine(coeffs, geometry, q0, variant=variant, max_iters=max_iters, rel_tol=rel_tol)
            for q0, _ in peaks]


def locate_sources(cov, geometry, grid, *, estimator, s, num_sources, variant,
                   max_iters, min_separation_rad, rel_tol=1e-10,
                   mvdr_loading=DEFAULT_MVDR_LOADING):
    """Localize sources in a covariance from ``estimator_covariance``: build
    the cost spec, search the grid, then ``refine_peaks``. Returns one
    RefinementTrace per source in peak order, whose last iterate is the
    direction. Raises ValueError naming the setting for an unknown estimator
    or variant, a num_sources below 1, a negative max_iters, a count that is
    not an integer (2 and 2.0 are, 2.5 is not), or a rel_tol,
    mvdr_loading or min_separation_rad outside [0, inf), whatever the
    estimator and variant, and LinAlgError when the covariance is non-finite
    or zero in every band."""
    _check_settings(estimator, variant, num_sources, max_iters, rel_tol, mvdr_loading,
                    min_separation_rad)
    spec = build_cost_spec(cov, estimator, s, num_sources, mvdr_loading)
    values = power_mean(band_powers(spec, geometry, grid.points), s)
    peaks = grid_search(values, grid, num_sources, min_separation_rad)
    return refine_peaks(spec, geometry, peaks, variant=variant, max_iters=max_iters,
                        rel_tol=rel_tol)


def _front_end(estimator):
    # the covariance an estimator reads from estimator_covariance
    return "phat" if estimator == "srp-phat" else "raw"


def trial_searches(config, snr_index, trial, grids):
    """Trial ``trial`` at the SNR ``config.snr_values[snr_index]``, drawn
    and searched on every grid: returns its true sources and its searches,
    keyed by (estimator, s, grid size), each as (spec, peaks, seconds).

    The sources and noise come from SeedSequence([master_seed, snr_index,
    trial]) alone, so a cell's scenes do not depend on which other
    estimators, exponents, grid sizes, variants or iteration counts the
    sweep holds. The frames give one covariance per front end. Each
    estimator's cost spec is built once, for every grid (a spec depends on
    neither the grid nor s, which enters only the power mean); each grid
    takes one ``band_powers`` call per spec, and each s the power mean of
    those band powers and its ``grid_search``. A search's seconds are what
    it would cost on its own: its spec build and ``band_powers`` call, each
    timed as one call, and its own power mean and pick."""
    seed_seq = np.random.SeedSequence([config.master_seed, snr_index, trial])
    rng = np.random.default_rng(seed_seq)
    sources = random_sources(
        rng, config.num_sources, np.radians(config.min_source_separation_deg)
    )
    scene = Scene(
        geometry=config.geometry,
        sources=sources,
        snr_db=config.snr_values[snr_index],
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
    readers = {_front_end(e): e for e in config.estimators}
    covariances = {
        end: estimator_covariance(frames, estimator) for end, estimator in readers.items()
    }
    separation = np.radians(config.min_separation_deg)
    searches = {}
    for estimator in config.estimators:
        start = time.perf_counter()
        spec = build_cost_spec(
            covariances[_front_end(estimator)], estimator, config.s_values[0],
            config.num_sources, config.mvdr_loading,
        )
        built = time.perf_counter() - start
        for grid in grids:
            start = time.perf_counter()
            powers = band_powers(spec, config.geometry, grid.points)
            shared = built + time.perf_counter() - start
            for s in config.s_values:
                start = time.perf_counter()
                peaks = grid_search(power_mean(powers, s), grid, config.num_sources, separation)
                searches[(estimator, s, grid.size)] = (
                    replace(spec, s=s), peaks, shared + time.perf_counter() - start,
                )
    return sources, searches


def run_trial(config, cell_key, search, sources):
    """One Monte Carlo cell on one trial: refines the peaks of the cell's
    ``search`` from ``trial_searches`` and scores them against ``sources``.
    Returns (per-source errors, localization time), the time being the
    search's seconds plus this cell's refinement, what one cell costs on
    its own."""
    variant, iters = cell_key[3:5]
    spec, peaks, search_seconds = search
    start = time.perf_counter()
    traces = refine_peaks(
        spec, config.geometry, peaks, variant=variant, max_iters=iters, rel_tol=config.rel_tol
    )
    elapsed = search_seconds + time.perf_counter() - start
    return evaluate([t.iterates[-1] for t in traces], sources), elapsed


def monte_carlo(config):
    """Run the full sweep; deterministic given config.master_seed.

    Trials run outer and cells inner: each (trial, SNR) recording is drawn
    and searched once (``trial_searches``), and every cell at that SNR
    refines and scores its search (``run_trial``). Rows come out cell by
    cell, trials in order within a cell."""
    grids = [fibonacci_grid(g) for g in config.grid_sizes]
    cells = list(product(*(getattr(config, name) for name in SWEEP_AXES)))
    rows = {cell: [] for cell in cells}
    times = {cell: [] for cell in cells}
    for trial, (snr_index, snr_db) in product(range(config.num_trials),
                                              enumerate(config.snr_values)):
        sources, searches = trial_searches(config, snr_index, trial, grids)
        for cell in cells:
            if cell[-1] != snr_db:
                continue
            err, elapsed = run_trial(config, cell, searches[cell[:3]], sources)
            times[cell].append(elapsed)
            rows[cell].extend(
                dict(zip(CELL_FIELDS, cell), trial=trial, src_index=i, error_deg=float(e))
                for i, e in enumerate(err)
            )
    result = EvalResult()
    for cell in cells:
        result.rows.extend(rows[cell])
        result.medians[cell] = float(np.median([r["error_deg"] for r in rows[cell]]))
        result.cell_seconds[cell] = float(np.median(times[cell]))
    return result
