"""Unified cost specifications for SRP, SRP-PHAT, MUSIC and MVDR.

Every estimator is expressed as the minimization over the sphere of the
power mean, across frequency bands, of the quadratic forms a_k(q)^H V_k a_k(q)
with Hermitian PSD matrices V_k. Estimators that are natively maximizations
(the SRP family) are converted with a Gershgorin diagonal shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .manifold import SPEED_OF_SOUND, great_circle_distance

# floor applied to band powers before negative exponents
EPS_POWER = 1e-30

DEFAULT_MVDR_LOADING = 1e-3

# wavenumbers within this many ulps of an arithmetic progression count as
# evenly spaced, so the phasor recurrence of phasor_table reproduces
# exp(j omega_k x)
_SPACING_ULPS = 8


@dataclass
class CostSpec:
    """Matrices, wavenumbers and exponent of the band-power objective."""

    matrices: np.ndarray  # (K, M, M) Hermitian PSD
    omega: np.ndarray  # (K,) wavenumbers in rad/m
    s: float
    # common spacing of omega when evenly spaced (STFT bands), else None
    band_step: float | None = field(init=False, repr=False)

    def __post_init__(self):
        self.matrices = np.asarray(self.matrices, dtype=complex)
        self.omega = np.asarray(self.omega, dtype=float)
        if self.matrices.ndim != 3 or self.matrices.shape[1] != self.matrices.shape[2]:
            raise ValueError("matrices must have shape (bands, M, M)")
        if self.omega.shape != (self.matrices.shape[0],):
            raise ValueError("omega length must match the band count")
        if np.any(self.omega < 0) or np.any(np.diff(self.omega) <= 0):
            raise ValueError("omega must be non-negative and strictly increasing")
        if self.s == 0.0 or self.s > 1.0:
            raise ValueError("exponent s must lie in (-inf, 1], s != 0")
        self.band_step = _common_step(self.omega)

    @property
    def num_bands(self):
        return self.matrices.shape[0]

    @property
    def num_sensors(self):
        return self.matrices.shape[1]


def gershgorin_shift(c):
    """Return (P, V) with P the largest absolute row sum of the Hermitian
    matrix c and V = P*I - c, which is PSD by the Gershgorin circle theorem.
    A (K, M, M) stack gives P per matrix."""
    c = np.asarray(c, dtype=complex)
    p = np.max(np.sum(np.abs(c), axis=-1), axis=-1)
    v = p[..., None, None] * np.eye(c.shape[-1]) - c
    return (float(p) if p.ndim == 0 else p), v


def _wavenumbers(frequencies, speed_of_sound):
    return 2.0 * np.pi * np.asarray(frequencies, dtype=float) / speed_of_sound


def srp_cost_spec(cov, s=-3.0, speed_of_sound=SPEED_OF_SOUND):
    """Steered-response-power cost. Apply PHAT weighting to the frames before
    computing the covariance to obtain SRP-PHAT."""
    return CostSpec(
        matrices=gershgorin_shift(cov.matrices)[1],
        omega=_wavenumbers(cov.band_frequencies, speed_of_sound),
        s=s,
    )


def music_cost_spec(cov, num_sources, s=-1.0, speed_of_sound=SPEED_OF_SOUND):
    """Noise-subspace projector cost (MUSIC)."""
    m = cov.num_sensors
    if not 1 <= num_sources < m:
        raise ValueError("num_sources must satisfy 1 <= L < M")
    _, vecs = np.linalg.eigh(cov.matrices)  # ascending eigenvalues, per band
    noise = vecs[..., : m - num_sources]
    return CostSpec(
        matrices=noise @ np.swapaxes(noise.conj(), 1, 2),
        omega=_wavenumbers(cov.band_frequencies, speed_of_sound),
        s=s,
    )


def mvdr_cost_spec(cov, loading=DEFAULT_MVDR_LOADING, s=-1.0, speed_of_sound=SPEED_OF_SOUND):
    """Inverse-covariance (Capon) cost with relative diagonal loading."""
    if loading < 0:
        raise ValueError("loading must be non-negative")
    m = cov.num_sensors
    traces = np.trace(cov.matrices, axis1=1, axis2=2).real
    loaded = cov.matrices + (loading * (traces / m))[:, None, None] * np.eye(m)
    w = np.linalg.eigvalsh(loaded)
    singular = np.flatnonzero(w[:, 0] <= 1e-12 * np.maximum(w[:, -1], 0.0))
    if singular.size:
        raise np.linalg.LinAlgError(
            f"band {singular[0]}: covariance singular after loading; increase loading"
        )
    inv = np.linalg.inv(loaded)
    return CostSpec(
        matrices=0.5 * (inv + np.swapaxes(inv.conj(), 1, 2)),
        omega=_wavenumbers(cov.band_frequencies, speed_of_sound),
        s=s,
    )


def power_mean(values, s, axis=0):
    """Generalized power mean ((1/K) sum y^s)^(1/s) along the given axis.

    For s < 0 the values are floored at EPS_POWER before exponentiation so
    exact zeros (e.g. MUSIC on noiseless data) stay finite. Evaluated as
    c * M_s(y / c) with c the smallest value for s < 0 and the largest for
    s > 0, so every (y / c)^s lies in [0, 1] and cannot overflow.
    """
    # quadratic forms can round to tiny negatives; clamp into the domain
    values = np.maximum(values, EPS_POWER if s < 0 else 0.0)
    if s < 0:
        c = values.min(axis=axis, keepdims=True)
    else:
        c = values.max(axis=axis, keepdims=True)
        c[c <= 0.0] = 1.0  # all-zero values
    ratios = values / c
    ratios **= s
    mean = np.add.reduce(ratios, axis=axis) / values.shape[axis]
    out = c.squeeze(axis) * mean ** (1.0 / s)
    return float(out) if out.ndim == 0 else out


def _common_step(omega):
    """Spacing of omega if every omega_k lies within a few ulps of
    omega_0 + k * step, so the phasor recurrence reproduces exp(j omega_k x)
    to rounding; None otherwise."""
    step = (omega[-1] - omega[0]) / max(omega.size - 1, 1)
    drift = np.max(np.abs(omega - (omega[0] + step * np.arange(omega.size))))
    return float(step) if drift <= _SPACING_ULPS * np.finfo(float).eps * omega[-1] else None


def phasor_table(omega, x, step):
    """exp(j omega_k x) for every band, shape (K, x.size); meant for a small
    x, such as the sensor delays of one direction.

    With evenly spaced omega (``step`` from :func:`_common_step`) each band
    is the previous one times exp(j step x): two exp calls and one
    cumulative product over the bands. Otherwise one exp per entry.
    """
    omega = np.asarray(omega, dtype=float)
    if step is None:
        return np.exp(np.multiply.outer(1j * omega, x))
    first, rotate = np.exp(np.multiply.outer((1j * omega[0], 1j * step), x))
    table = np.empty((omega.size, x.size), dtype=complex)
    table[0] = first
    table[1:] = rotate
    return np.multiply.accumulate(table, axis=0, out=table)


def band_powers(spec, geometry, points):
    """Quadratic forms a_k(q)^H V_k a_k(q) for one or many directions.

    Returns shape (K,) for a single direction or (K, G) for a (G, 3) batch.
    One band at a time, so memory stays O(G M): the band's (G, M) steering
    phasors, then one BLAS product b = a V_k^T and the row sums
    Re sum_m conj(a_m) b_m. The 1/M of the unit-norm steering vectors is
    applied once at the end.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    tau = pts @ geometry.sensors.T  # (G, M)
    out = np.empty((spec.num_bands, pts.shape[0]))
    for k in range(spec.num_bands):
        a = np.exp(1j * spec.omega[k] * tau)
        b = a @ spec.matrices[k].T
        out[k] = np.einsum("gm,gm->g", a.conj(), b).real
    out /= geometry.num_sensors
    return out[:, 0] if single else out


def objective(spec, geometry, q):
    """Power-mean objective at a single direction."""
    return power_mean(band_powers(spec, geometry, q), spec.s)


def grid_search(spec, geometry, grid, num_sources=1, min_separation=np.deg2rad(10.0)):
    """Pick up to ``num_sources`` well separated local minima on the grid.

    Local minima (value <= all graph neighbors) are ranked by objective value
    and greedily filtered so returned directions are pairwise at least
    ``min_separation`` apart. If too few local minima survive, the remaining
    slots are padded from the globally smallest grid values that respect the
    separation. Returns a list of (direction, objective value) pairs sorted
    ascending by value.
    """
    if num_sources < 1:
        raise ValueError("num_sources must be at least 1")
    values = power_mean(band_powers(spec, geometry, grid.points), spec.s, axis=0)

    nbrs = grid.neighbors
    is_local_min = values <= np.minimum.reduceat(values[nbrs.indices], nbrs.indptr[:-1])
    candidates = np.flatnonzero(is_local_min)
    candidates = candidates[np.argsort(values[candidates], kind="stable")]
    fallback = np.argsort(values, kind="stable")

    selected = []
    for pool in (candidates, fallback):
        for i in pool:
            if len(selected) >= num_sources:
                break
            if not selected or np.all(
                great_circle_distance(grid.points[i], grid.points[selected])
                >= min_separation
            ):
                selected.append(int(i))
    return [(grid.points[i].copy(), float(values[i])) for i in selected]
