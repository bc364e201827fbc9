"""Unified cost specifications for SRP, SRP-PHAT, MUSIC and MVDR.

Every estimator is expressed as the minimization over the sphere of the
power mean, across frequency bands, of the quadratic forms a_k(q)^H V_k a_k(q)
with Hermitian PSD matrices V_k. Estimators that are natively maximizations
(the SRP family) are converted with a Gershgorin diagonal shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifold import SPEED_OF_SOUND, great_circle_distance

# floor applied to band powers before negative exponents
EPS_POWER = 1e-30

DEFAULT_MVDR_LOADING = 1e-3


@dataclass
class CostSpec:
    """Matrices, wavenumbers and exponent of the band-power objective."""

    matrices: np.ndarray  # (K, M, M) Hermitian PSD
    omega: np.ndarray  # (K,) wavenumbers in rad/m
    s: float

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

    @property
    def num_bands(self):
        return self.matrices.shape[0]

    @property
    def num_sensors(self):
        return self.matrices.shape[1]


def gershgorin_shift(c):
    """Return (P, V) with P the largest absolute row sum of the Hermitian
    matrix c and V = P*I - c, which is PSD by the Gershgorin circle theorem."""
    c = np.asarray(c, dtype=complex)
    p = float(np.max(np.sum(np.abs(c), axis=1)))
    v = p * np.eye(c.shape[0]) - c
    return p, v


def _wavenumbers(frequencies, speed_of_sound):
    return 2.0 * np.pi * np.asarray(frequencies, dtype=float) / speed_of_sound


def srp_cost_spec(cov, s=-3.0, speed_of_sound=SPEED_OF_SOUND):
    """Steered-response-power cost. Apply PHAT weighting to the frames before
    computing the covariance to obtain SRP-PHAT."""
    shifted = np.stack([gershgorin_shift(c)[1] for c in cov.matrices])
    return CostSpec(
        matrices=shifted,
        omega=_wavenumbers(cov.band_frequencies, speed_of_sound),
        s=s,
    )


def music_cost_spec(cov, num_sources, s=-1.0, speed_of_sound=SPEED_OF_SOUND):
    """Noise-subspace projector cost (MUSIC)."""
    m = cov.num_sensors
    if not 1 <= num_sources < m:
        raise ValueError("num_sources must satisfy 1 <= L < M")
    projectors = np.empty_like(cov.matrices)
    for k, c in enumerate(cov.matrices):
        _, vecs = np.linalg.eigh(c)  # ascending eigenvalues
        noise = vecs[:, : m - num_sources]
        projectors[k] = noise @ noise.conj().T
    return CostSpec(
        matrices=projectors,
        omega=_wavenumbers(cov.band_frequencies, speed_of_sound),
        s=s,
    )


def mvdr_cost_spec(cov, loading=DEFAULT_MVDR_LOADING, s=-1.0, speed_of_sound=SPEED_OF_SOUND):
    """Inverse-covariance (Capon) cost with relative diagonal loading."""
    if loading < 0:
        raise ValueError("loading must be non-negative")
    m = cov.num_sensors
    inv = np.empty_like(cov.matrices)
    for k, c in enumerate(cov.matrices):
        loaded = c + loading * (np.trace(c).real / m) * np.eye(m)
        w = np.linalg.eigvalsh(loaded)
        if w[0] <= 1e-12 * max(w[-1], 0.0):
            raise np.linalg.LinAlgError(
                f"band {k}: covariance singular after loading; increase loading"
            )
        vk = np.linalg.inv(loaded)
        inv[k] = 0.5 * (vk + vk.conj().T)
    return CostSpec(
        matrices=inv,
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
    values = np.asarray(values, dtype=float)
    # quadratic forms can round to tiny negatives; clamp into the domain
    values = np.maximum(values, EPS_POWER if s < 0 else 0.0)
    c = (np.min if s < 0 else np.max)(values, axis=axis, keepdims=True)
    c = np.where(c > 0.0, c, 1.0)  # all-zero values for s > 0
    out = np.squeeze(c, axis=axis) * np.mean((values / c) ** s, axis=axis) ** (1.0 / s)
    return float(out) if np.ndim(out) == 0 else out


def band_powers(spec, geometry, points):
    """Quadratic forms a_k(q)^H V_k a_k(q) for one or many directions.

    Returns shape (K,) for a single direction or (K, G) for a (G, 3) batch.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    tau = pts @ geometry.sensors.T  # (G, M)
    m = geometry.num_sensors
    out = np.empty((spec.num_bands, pts.shape[0]))
    for k in range(spec.num_bands):
        a = np.exp(1j * spec.omega[k] * tau) / np.sqrt(m)
        out[k] = np.einsum("gm,mr,gr->g", a.conj(), spec.matrices[k], a).real
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

    is_local_min = np.array(
        [values[i] <= values[grid.neighbors[i]].min() for i in range(grid.size)]
    )
    candidates = np.flatnonzero(is_local_min)
    candidates = candidates[np.argsort(values[candidates], kind="stable")]
    fallback = np.argsort(values, kind="stable")

    selected = []
    for pool in (candidates, fallback):
        for i in pool:
            if len(selected) >= num_sources:
                break
            q = grid.points[i]
            if all(
                great_circle_distance(q, grid.points[j]) >= min_separation
                for j in selected
            ):
                selected.append(int(i))
    return [(grid.points[i].copy(), float(values[i])) for i in selected]
