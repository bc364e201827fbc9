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

from dataclasses import dataclass

import numpy as np

from .estimators import EPS_POWER, power_mean
from .manifold import normalized

_TWO_PI = 2.0 * np.pi

GTRS_NORM_TOL = 1e-12
# relative threshold below which a component is treated as numerically zero
_HARD_CASE_RTOL = 1e-12


@dataclass
class PairCoefficients:
    """Magnitude/phase of the off-diagonal cost matrix entries, per band and
    sensor pair, together with the pair coordinate differences."""

    deltas: np.ndarray  # (P, 3) sensor coordinate differences
    magnitudes: np.ndarray  # (K, P) |V_k[m, r]|
    phases: np.ndarray  # (K, P) arg(V_k[m, r]) in (-pi, pi]
    traces: np.ndarray  # (K,) real traces of V_k
    num_sensors: int

    @classmethod
    def from_cost_spec(cls, spec, geometry):
        m, r = geometry.pair_indices.T
        entries = spec.matrices[:, m, r]  # (K, P)
        return cls(
            deltas=geometry.pair_deltas,
            magnitudes=np.abs(entries),
            phases=np.angle(entries),
            traces=np.trace(spec.matrices, axis1=1, axis2=2).real,
            num_sensors=geometry.num_sensors,
        )


@dataclass
class SurrogateSystem:
    """Quadratic surrogate q^T D q - 2 v^T q (+ const); C is the linearization
    constant, present only when built for the linear variant."""

    D: np.ndarray  # (3, 3) real symmetric PSD
    v: np.ndarray  # (3,)
    xi: np.ndarray  # (P,) per-pair quadratic weights, all >= 0
    C: float | None = None


@dataclass
class RefinementTrace:
    iterates: list  # unit 3-vectors q_0 .. q_T
    objectives: list  # objective value at each iterate
    variant: str
    converged_at: int | None = None


def wrap_phase(theta0):
    """Wrap an angle into (-pi, pi]: returns (z0, phi0) with
    phi0 = theta0 + 2*pi*z0 and z0 the integer minimizing |phi0|.
    Ties at |phi0| = pi resolve to +pi."""
    theta0 = np.asarray(theta0, dtype=float)
    z0 = -np.floor((theta0 + np.pi) / _TWO_PI)
    phi0 = theta0 + _TWO_PI * z0
    # floor puts phi0 in [-pi, pi); fold the -pi edge (and any rounding
    # escape past +pi) back into (-pi, pi]
    low = phi0 <= -np.pi
    z0 = z0 + low
    phi0 = phi0 + _TWO_PI * low
    high = phi0 > np.pi
    z0 = z0 - high
    phi0 = phi0 - _TWO_PI * high
    if np.ndim(theta0) == 0:
        return int(z0), float(phi0)
    return z0.astype(int), phi0


def unnormalized_sinc(x):
    """sin(x)/x with the removable singularity filled, sinc(0) = 1."""
    return np.sinc(np.asarray(x, dtype=float) / np.pi)


def cosine_surrogate_coeffs(psi, b_dot_qhat):
    """Expansion-point quantities of the quadratic cosine upper bound.

    For the term u*cos(psi - b.q), expanding at b.q = ``b_dot_qhat`` gives
    u*cos(psi - b.q) <= (u/2)*w*(psi_hat - b.q)^2 + const with the returned
    (psi_hat, w). The weight w = sinc(psi_hat - b_dot_qhat) lies in [0, 1].
    Broadcasts over array inputs.
    """
    _, phi0 = wrap_phase(np.asarray(psi, dtype=float) + np.pi - b_dot_qhat)
    # psi_hat - b_dot_qhat = phi0 exactly, by construction
    psi_hat = b_dot_qhat + phi0
    return psi_hat, unnormalized_sinc(phi0)


def pair_band_powers(coeffs, omega, q):
    """Band powers a_k(q)^H V_k a_k(q) via the pair cosine expansion."""
    m = coeffs.num_sensors
    phase = coeffs.phases - np.asarray(omega)[:, None] * (coeffs.deltas @ q)[None, :]
    return coeffs.traces / m + 2.0 / m * np.sum(
        coeffs.magnitudes * np.cos(phase), axis=1
    )


def _band_weights(powers, s):
    """Tangent-plane weights of the power mean at the given band powers,
    beta_k = (1/K) (y_k / M_s(y))^(s-1), which stays finite at large |s|."""
    y = np.maximum(powers, EPS_POWER)
    return (y / power_mean(y, s)) ** (s - 1.0) / y.shape[0]


def surrogate_system(spec, coeffs, q_hat, with_constant=False, geometry=None):
    """Assemble the quadratic surrogate of the objective around q_hat.

    With ``with_constant=True`` (requires ``geometry``) the linearization
    constant C for the linear variant is attached, using the cached largest
    eigenvalue of the pair-difference Gram matrix.
    """
    q_hat = np.asarray(q_hat, dtype=float)
    omega = spec.omega
    powers = pair_band_powers(coeffs, omega, q_hat)
    beta = _band_weights(powers, spec.s)  # (K,) all >= 0

    b_dot = omega[:, None] * (coeffs.deltas @ q_hat)[None, :]  # (K, P)
    psi_hat, weight = cosine_surrogate_coeffs(coeffs.phases, b_dot)
    u_hat = coeffs.magnitudes * weight

    # the cosine expansion carries 2/M and the cosine bound carries 1/2
    scale = beta[:, None] / coeffs.num_sensors
    xi = np.sum(omega[:, None] ** 2 * scale * u_hat, axis=0)  # (P,)
    gamma = np.sum(omega[:, None] * scale * u_hat * psi_hat, axis=0)

    d = np.einsum("p,pi,pj->ij", xi, coeffs.deltas, coeffs.deltas)
    v = gamma @ coeffs.deltas
    c = None
    if with_constant:
        if geometry is None:
            raise ValueError("geometry required to build the linear constant")
        c = majorization_constant(xi, geometry)
    return SurrogateSystem(D=d, v=v, xi=xi, C=c)


def majorization_constant(xi, geometry):
    """C = (max_p xi_p) * lambda_max(sum_p delta_p delta_p^T), which makes
    C*I - D positive semi-definite for D built from the same weights."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0):
        raise ValueError("pair weights must be non-negative")
    if xi.size == 0:
        return 0.0
    return float(np.max(xi)) * geometry.pair_gram_lmax


def solve_gtrs(D, v, return_info=False):
    """Global minimizer of q^T D q - 2 v^T q over the unit sphere.

    Works in the eigenbasis of D: q(mu) = (D + mu*I)^-1 v with mu the unique
    root of ||q(mu)||^2 - 1 on (-lambda_min, inf), found by bisection with
    Newton acceleration. In the hard case (v orthogonal to the bottom
    eigenspace with leftover norm) the missing norm is added along a bottom
    eigenvector oriented to have a positive first nonzero component.
    """
    D = np.asarray(D, dtype=float)
    v = np.asarray(v, dtype=float)
    lam, basis = np.linalg.eigh(D)
    w = basis.T @ v

    scale = max(np.max(np.abs(lam)), np.linalg.norm(v), 1.0)
    tiny = _HARD_CASE_RTOL * scale
    degenerate = lam - lam[0] <= tiny
    free = ~degenerate

    def norm_sq(mu):
        return float(np.sum((w[free] / (lam[free] + mu)) ** 2))

    hard = bool(np.all(np.abs(w[degenerate]) <= tiny))
    if hard and (not np.any(free) or norm_sq(-lam[0]) <= 1.0):
        # hard case: mu = -lambda_min, fill the norm in the bottom eigenspace
        mu = -lam[0]
        coeff = np.zeros_like(w)
        coeff[free] = w[free] / (lam[free] + mu)
        q = basis @ coeff
        e = basis[:, 0]
        nz = np.flatnonzero(np.abs(e) > 1e-14)
        if nz.size and e[nz[0]] < 0:
            e = -e
        q = q + np.sqrt(max(1.0 - float(q @ q), 0.0)) * e
        q = normalized(q)
        return (q, mu, True) if return_info else q

    # generic case: f(mu) = ||q(mu)||^2 - 1 is convex and decreasing;
    # probing the pole at mu = -lam[0] overflows to +inf, which the
    # bracketing logic treats correctly
    def f(mu):
        with np.errstate(divide="ignore"):
            return float(np.sum((w / (lam + mu)) ** 2)) - 1.0

    lo = -lam[0]
    hi = max(np.linalg.norm(w) - lam[0], lo + tiny)
    # expand until the upper end brackets the root
    while f(hi) > 0.0:
        hi = lo + 2.0 * (hi - lo) + 1.0
    # shrink the lower end until f(lo) > 0 strictly
    step = max(hi - lo, 1.0)
    while True:
        cand = lo + np.finfo(float).eps * step
        if cand >= hi or f(cand) > 0.0:
            lo = cand
            break
        step *= 0.5
        if step < np.finfo(float).tiny:
            break

    mu = 0.5 * (lo + hi)
    best_mu, best_val = mu, abs(f(mu))
    for _ in range(200):
        fv = f(mu)
        if abs(fv) < best_val:
            best_mu, best_val = mu, abs(fv)
        if abs(fv) <= GTRS_NORM_TOL:
            break
        if fv > 0.0:
            lo = mu
        else:
            hi = mu
        # Newton step on 1 - 1/||q(mu)|| (More-Sorensen), safeguarded
        n2 = fv + 1.0
        n = np.sqrt(n2)
        dn2 = -2.0 * float(np.sum(w**2 / (lam + mu) ** 3))
        if dn2 < 0.0:
            newton = mu - (1.0 - 1.0 / n) * (2.0 * n2) / dn2 * n
        else:
            newton = mu
        mu = newton if lo < newton < hi else 0.5 * (lo + hi)
        if hi - lo <= np.finfo(float).eps * max(abs(lo), abs(hi)):
            break
    mu = best_mu
    q = basis @ (w / (lam + mu))
    q = normalized(q)
    return (q, mu, False) if return_info else q


def linear_update(system, q_hat):
    """Closed-form minimizer of the linear surrogate on the sphere."""
    if system.C is None:
        raise ValueError("linear update needs a system built with a constant")
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
    obj = power_mean(pair_band_powers(coeffs, spec.omega, q), spec.s)
    iterates, objectives = [q], [obj]
    converged_at = None
    slow = 0
    for t in range(max_iters):
        system = surrogate_system(
            spec, coeffs, q, with_constant=(variant == "linear"), geometry=geometry
        )
        if variant == "quadratic":
            q = solve_gtrs(system.D, system.v)
        else:
            q = linear_update(system, q)
        new_obj = power_mean(pair_band_powers(coeffs, spec.omega, q), spec.s)
        iterates.append(q)
        objectives.append(new_obj)
        decrease = (obj - new_obj) / max(abs(obj), np.finfo(float).tiny)
        obj = new_obj
        slow = slow + 1 if decrease < rel_tol else 0
        if slow >= 2:
            converged_at = t + 1
            break
    return RefinementTrace(
        iterates=iterates,
        objectives=objectives,
        variant=variant,
        converged_at=converged_at,
    )
