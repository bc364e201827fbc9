"""Continuous refinement of DOA estimates by majorization-minimization.

Each band power a_k(q)^H V_k a_k(q) expands into a sum of cosines over the
distinct sensor pairs. A quadratic upper bound of each cosine around the
current iterate, combined with the tangent plane of the concave power mean,
yields a quadratic surrogate q^T D q - 2 v^T q minimized exactly on the
sphere (a generalized trust region subproblem). A further eigenvalue bound
linearizes the surrogate, giving a closed-form update. Both updates decrease
the objective monotonically and keep every iterate on the sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dsyevd

from .estimators import EPS_POWER, phasor_table, power_mean
from .manifold import normalized

GTRS_NORM_TOL = 1e-12
# relative threshold below which a component is treated as numerically zero
_HARD_CASE_RTOL = 1e-12
_TINY = np.finfo(float).tiny
# band powers below this share of tr(V_k)/M count as near a null; the two
# cosine readings in pair_band_powers differ by a few ulps of tr(V_k)/M,
# about 1e-10 of a power at this level, so switching there cannot break the
# 1e-9 relative descent guarantee
_NULL_RTOL = 1e-5


@dataclass
class PairCoefficients:
    """The pair form of the objective: off-diagonal cost matrix entries per
    band and sensor pair, the sensor positions and pair coordinate
    differences they are steered by, the exponent, and the Gram bound of
    the linearization constant."""

    sensors: np.ndarray  # (M, 3) sensor coordinates
    pairs: np.ndarray  # (2, P) sensor indices (m, r), m < r
    deltas: np.ndarray  # (P, 3) sensor coordinate differences d_m - d_r
    delta_outer: np.ndarray  # (P, 9) flattened delta_p delta_p^T
    neg_entries: np.ndarray  # (K, P) -V_k[m, r]
    magnitudes: np.ndarray  # (K, P) |V_k[m, r]|
    diagonal: np.ndarray  # (K,) tr(V_k) / M, the diagonal part of each band power
    omega: np.ndarray  # (K,) the cost spec's wavenumbers
    band_step: float | None  # their common spacing (CostSpec.band_step)
    s: float  # power-mean exponent
    gram_lmax: float  # lambda_max(sum_p delta_p delta_p^T)

    @property
    def num_sensors(self):
        return self.sensors.shape[0]

    @classmethod
    def from_cost_spec(cls, spec, geometry):
        pairs = geometry.pair_indices.T
        deltas = geometry.pair_deltas
        # fancy indexing leaves the band axis innermost; (K, P) rows keep the
        # per-step arithmetic on contiguous memory
        entries = np.ascontiguousarray(spec.matrices[:, pairs[0], pairs[1]])
        traces = np.trace(spec.matrices, axis1=1, axis2=2).real
        return cls(
            sensors=geometry.sensors,
            pairs=pairs,
            deltas=deltas,
            delta_outer=(deltas[:, :, None] * deltas[:, None, :]).reshape(-1, 9),
            neg_entries=-entries,
            magnitudes=np.abs(entries),
            diagonal=traces / geometry.num_sensors,
            omega=spec.omega,
            band_step=spec.band_step,
            s=spec.s,
            gram_lmax=geometry.pair_gram_lmax,
        )


@dataclass
class SurrogateSystem:
    """Quadratic surrogate q^T D q - 2 v^T q (+ const) and the linearization
    constant C of the linear variant, which makes C*I - D PSD."""

    D: np.ndarray  # (3, 3) real symmetric PSD
    v: np.ndarray  # (3,)
    xi: np.ndarray  # (P,) per-pair quadratic weights, all >= 0
    C: float


@dataclass
class RefinementTrace:
    iterates: list  # unit 3-vectors q_0 .. q_T
    objectives: list  # objective value at each iterate
    converged_at: int | None = None


def pair_band_powers(coeffs, q):
    """Band powers a_k(q)^H V_k a_k(q) via the pair cosine expansion
    tr(V_k)/M + (2/M) sum_p u_kp cos(psi_kp - b_kp . q), with
    V_k[m, r] = u exp(j psi) and b_kp = omega_k delta_p.

    Each cosine term is read off the pair phasor
    f_kp = -V_k[m, r] exp(-j b_kp . q) = u exp(j phi0), phi0 = psi + pi - b.q,
    as -Re f. The phasors are formed as -V_k[m, r] conj(s_km) s_kr from the
    K x M steering phasors s_km = exp(j omega_k d_m . q), built by the band
    recurrence of :func:`phasor_table`. Returns (powers, phasors), so the
    surrogate built at the same q reuses the phasors.
    """
    steer = phasor_table(coeffs.omega, coeffs.sensors @ q, coeffs.band_step)
    m, r = coeffs.pairs
    phasors = steer.conj()[:, m]
    phasors *= steer[:, r]
    phasors *= coeffs.neg_entries
    scale = 2.0 / coeffs.num_sensors
    powers = coeffs.diagonal - scale * np.add.reduce(phasors.real, axis=1)
    # near an exact null (noise-free MUSIC) the rounding of the products
    # would move a band power by a few ulps of its terms at every step; there
    # each cosine is re-read as |u cos| = u - (u sin)^2 / (u + |u cos|),
    # which is flat in phi0 where the cosine is near +-1, as the cosine is
    near = np.flatnonzero(powers <= _NULL_RTOL * coeffs.diagonal)
    if near.size:
        re, im = phasors.real[near], phasors.imag[near]
        u = coeffs.magnitudes[near]
        flat = np.copysign(u - im * im / np.maximum(u + np.abs(re), _TINY), re)
        powers[near] = coeffs.diagonal[near] - scale * np.add.reduce(flat, axis=1)
    return powers, phasors


def _band_weights(powers, s):
    """Tangent-plane weights of the power mean at the given band powers,
    beta_k = (1/K) (y_k / M_s(y))^(s-1), which stays finite at large |s|."""
    y = np.maximum(powers, EPS_POWER)
    return (y / power_mean(y, s)) ** (s - 1.0) / y.shape[0]


def surrogate_system(coeffs, q_hat, evaluated):
    """Assemble the quadratic surrogate of the objective around q_hat from
    ``evaluated = pair_band_powers(coeffs, q_hat)``.

    Every cosine term u cos(psi - b.q) is bounded by a quadratic in b.q that
    touches it at b.q_hat, with the curvature weight sinc(phi0) for
    phi0 = psi + pi - b.q_hat wrapped into (-pi, pi]. The pair phasor
    f = u exp(j phi0) of :func:`pair_band_powers` holds all of it:
    phi0 = arg f, and with u sin(phi0) = Im f the weighted magnitude is
    u_hat = u sinc(phi0) = Im f / phi0 and u_hat phi0 = Im f, with no further
    cosine, sine or sinc pass. The linearization constant is
    C = (max_p xi_p) lambda_max(sum_p delta_p delta_p^T).
    """
    powers, phasors = evaluated
    beta = _band_weights(powers, coeffs.s)  # (K,) >= 0

    sin_part = phasors.imag  # u sin(phi0)
    phi0 = np.arctan2(sin_part, phasors.real)
    # phi0 = 0 only where u sin(phi0) = 0 too; there sinc(0) = 1 gives u_hat = u
    with np.errstate(invalid="ignore"):
        u_hat = sin_part / phi0
    np.copyto(u_hat, coeffs.magnitudes, where=phi0 == 0.0)

    # the cosine expansion carries 2/M and the cosine bound carries 1/2; with
    # scale_k = omega_k beta_k / M and psi_hat = omega_k delta_p.q_hat + phi0,
    # gamma_p = sum_k scale_k u_hat psi_hat = xi_p delta_p.q_hat + sum_k scale_k Im f
    omega = coeffs.omega
    scale = omega * beta / coeffs.num_sensors
    xi = (omega * scale) @ u_hat  # (P,)
    gamma = xi * (coeffs.deltas @ q_hat) + scale @ sin_part

    d = (xi @ coeffs.delta_outer).reshape(3, 3)
    v = gamma @ coeffs.deltas
    return SurrogateSystem(D=d, v=v, xi=xi, C=float(np.max(xi)) * coeffs.gram_lmax)


def solve_gtrs(D, v):
    """Global minimizer of q^T D q - 2 v^T q over the unit sphere, returned
    as (q, mu, hard) with mu the multiplier of the unit-norm constraint and
    hard True in the hard case.

    Works in the eigenbasis of D: q(mu) = (D + mu*I)^-1 v with mu the unique
    root of 1/||q(mu)|| = 1 on (-lambda_min, inf), found by Newton's method
    (More & Sorensen 1983) from a start left of the root. In the hard case
    (v orthogonal to the bottom eigenspace with leftover norm) mu =
    -lambda_min and the missing norm is added along a bottom eigenvector
    oriented to have a positive first nonzero component.
    """
    D = np.asarray(D, dtype=float)
    v = np.asarray(v, dtype=float)
    # LAPACK's dsyevd (the routine np.linalg.eigh runs) without numpy's
    # per-call checks, which cost twice the 3 x 3 solve
    lam, basis, info = dsyevd(D, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    w = v @ basis  # v in the eigenbasis

    # past eigh everything runs on plain floats: numpy calls on 3-vectors
    # cost more than their arithmetic
    lam_list, w_list = lam.tolist(), w.tolist()
    scale = max(abs(lam_list[0]), abs(lam_list[-1]), math.hypot(*v.tolist()), 1.0)
    tiny = _HARD_CASE_RTOL * scale
    # work in t = mu + lambda_min >= 0: gap + t keeps its digits near the pole
    gap_list = [x - lam_list[0] for x in lam_list]
    bottom = [i for i, g in enumerate(gap_list) if g <= tiny]

    def newton_step(idx, t):
        # ||c|| for c = w / (gap + t) over components idx, and the Newton step
        # on 1/||c|| = 1 from there (0 once ||c|| <= 1), using
        # d||c||^2/dt = -2 sum c^2 / (gap + t)
        n2 = slope = 0.0
        for i in idx:
            den = gap_list[i] + t
            c2 = (w_list[i] / den) ** 2
            n2 += c2
            slope += c2 / den
        norm = math.sqrt(n2)
        return norm, ((norm - 1.0) * n2 / slope if norm > 1.0 else 0.0)

    if max(abs(w_list[i]) for i in bottom) <= tiny:
        # v (nearly) misses the bottom eigenspace: look at the rest at t = 0
        rest = range(len(bottom), len(w_list))
        norm, step = newton_step(rest, 0.0)
        if norm <= 1.0:
            # hard case: fill the missing norm along a bottom eigenvector
            coeff = np.zeros_like(w)
            coeff[rest] = w[rest] / (lam - lam[0])[rest]
            q = basis @ coeff
            e = basis[:, 0]
            nz = np.flatnonzero(np.abs(e) > 1e-14)
            if nz.size and e[nz[0]] < 0:
                e = -e
            q = normalized(q + np.sqrt(max(1.0 - float(q @ q), 0.0)) * e)
            return q, -lam[0], True
        # one Newton step on the rest from t = 0 is positive and stays left of
        # its root, and the bottom terms only raise ||q(t)||, so ||q(t)|| >= 1
        t = step
    else:
        # every bottom term has gap + t <= ||w_B||, so ||q(t)|| >= 1 here
        t = math.sqrt(sum(w_list[i] ** 2 for i in bottom)) - gap_list[bottom[-1]]

    # 1/||q(t)|| is concave and increasing on (0, inf), so each Newton step
    # from the left of the root raises t and never passes the root
    every = range(len(w_list))
    norm, step = newton_step(every, t)
    while abs(norm - 1.0) > GTRS_NORM_TOL and t + step > t:
        t += step
        norm, step = newton_step(every, t)
    q = basis @ np.array([wi / (g + t) for wi, g in zip(w_list, gap_list)])
    q /= math.sqrt(q @ q)
    return q, t - lam_list[0], False


def linear_update(system, q_hat):
    """Closed-form minimizer of the linear surrogate on the sphere."""
    g = system.v - system.D @ q_hat + system.C * q_hat
    n = np.linalg.norm(g)
    if n <= np.finfo(float).tiny:
        return np.asarray(q_hat, dtype=float).copy()
    return g / n


def refine(spec, geometry, q0, variant="quadratic", max_iters=30, rel_tol=1e-10):
    """Iteratively refine a DOA estimate from q0.

    variant "quadratic" solves the trust-region subproblem each step;
    "linear" uses the closed-form normalized-gradient-like update. Stops
    after ``max_iters`` steps or once the relative objective decrease falls
    below ``rel_tol`` on two consecutive iterations.
    """
    if variant not in ("quadratic", "linear"):
        raise ValueError(f"unknown variant {variant!r}")
    if max_iters < 0:
        raise ValueError("max_iters must be non-negative")
    coeffs = PairCoefficients.from_cost_spec(spec, geometry)
    q = normalized(q0)
    # each objective evaluation's phasors build the next surrogate
    evaluated = pair_band_powers(coeffs, q)
    obj = power_mean(evaluated[0], coeffs.s)
    iterates, objectives = [q], [obj]
    converged_at = None
    slow = 0
    for t in range(max_iters):
        system = surrogate_system(coeffs, q, evaluated)
        if variant == "quadratic":
            q = solve_gtrs(system.D, system.v)[0]
        else:
            q = linear_update(system, q)
        evaluated = pair_band_powers(coeffs, q)
        new_obj = power_mean(evaluated[0], coeffs.s)
        iterates.append(q)
        objectives.append(new_obj)
        decrease = (obj - new_obj) / max(abs(obj), _TINY)
        obj = new_obj
        slow = slow + 1 if decrease < rel_tol else 0
        if slow >= 2:
            converged_at = t + 1
            break
    return RefinementTrace(
        iterates=iterates, objectives=objectives, converged_at=converged_at
    )
