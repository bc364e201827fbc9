"""Continuous refinement of DOA estimates by majorization-minimization.

Each band power a_k(q)^H V_k a_k(q) expands into a sum of cosines over the
distinct sensor pairs. A quadratic upper bound of each cosine around the
current iterate, combined with the tangent plane of the concave power mean,
yields a quadratic surrogate q^T D q - 2 v^T q minimized exactly on the
sphere (a generalized trust region subproblem). Bounding D by lambda_max(D) I
linearizes the surrogate, giving a closed-form update. Both updates decrease
the objective monotonically and keep every iterate on the sphere. ``refine``
speeds up their linear convergence with safeguarded SQUAREM extrapolation,
which keeps both properties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import EPS_POWER, check_exponent, common_step, power_mean
from .manifold import check_number, is_integer, normalized

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
    differences they are steered by, the wavenumbers and the exponent, and
    what every evaluation would otherwise rebuild from them."""

    sensors: np.ndarray  # (M, 3) sensor coordinates
    pairs: np.ndarray  # (2, P) sensor indices (m, r), m < r
    deltas: np.ndarray  # (P, 3) sensor coordinate differences d_m - d_r
    delta_outer: np.ndarray  # (P, 9) flattened delta_p delta_p^T
    neg_entries: np.ndarray  # (K, P) -V_k[m, r]
    magnitudes: np.ndarray  # (K, P) |V_k[m, r]|
    diagonal: np.ndarray  # (K,) tr(V_k) / M, the diagonal part of each band power
    null_floor: np.ndarray  # (K,) _NULL_RTOL * diagonal, the near-null threshold
    omega: np.ndarray  # (K,) wavenumbers of the cost spec's band frequencies
    # (2,) j omega_0 and j step, the band recurrence's rates when the
    # wavenumbers are evenly spaced (common_step), else None
    rates: np.ndarray | None
    s: float  # power-mean exponent

    @property
    def num_sensors(self):
        return self.sensors.shape[0]

    @classmethod
    def from_cost_spec(cls, spec, geometry, s):
        check_exponent(s)
        pairs = np.array(np.triu_indices(geometry.num_sensors, k=1))
        deltas = geometry.sensors[pairs[0]] - geometry.sensors[pairs[1]]
        omega = geometry.wavenumbers(spec.band_frequencies)
        # fancy indexing leaves the band axis innermost, as it does for the
        # pair phasors of pair_band_powers; in that one layout the per-step
        # products with the entries run on contiguous memory
        entries = spec.matrices[:, pairs[0], pairs[1]]
        diagonal = np.trace(spec.matrices, axis1=1, axis2=2).real / geometry.num_sensors
        step = common_step(omega)
        return cls(
            sensors=geometry.sensors,
            pairs=pairs,
            deltas=deltas,
            delta_outer=(deltas[:, :, None] * deltas[:, None, :]).reshape(-1, 9),
            neg_entries=-entries,
            magnitudes=np.abs(entries),
            diagonal=diagonal,
            null_floor=_NULL_RTOL * diagonal,
            omega=omega,
            rates=None if step is None else np.array((1j * omega[0], 1j * step)),
            s=s,
        )


@dataclass
class RefinementTrace:
    iterates: list  # unit 3-vectors q_0 .. q_T, one per accepted step
    objectives: list  # objective value at each iterate
    # the step at which the tolerance test stopped; None at the step cap
    converged_at: int | None = None
    # objective evaluations, rejected extrapolations included
    evaluations: int = 0


def pair_band_powers(coeffs, q):
    """Band powers a_k(q)^H V_k a_k(q) via the pair cosine expansion
    tr(V_k)/M + (2/M) sum_p u_kp cos(psi_kp - b_kp . q), with
    V_k[m, r] = u exp(j psi) and b_kp = omega_k delta_p.

    Each cosine term is read off the pair phasor
    f_kp = -V_k[m, r] exp(-j b_kp . q) = u exp(j phi0), phi0 = psi + pi - b.q,
    as -Re f. The phasors are formed as -V_k[m, r] conj(s_km) s_kr from the
    K x M steering phasors s_km = exp(j omega_k d_m . q). On evenly spaced
    bands these are the band recurrence: band 0 and the rotation
    exp(j step d_m . q) are two exp calls on ``coeffs.rates``, and one
    cumulative product over the bands gives the rest; otherwise one exp per
    entry. Returns (powers, phasors, objective) with objective the power
    mean of the powers, so the surrogate built at the same q reuses the
    phasors and the mean.
    """
    x = coeffs.sensors @ q
    if coeffs.rates is None:
        steer = np.exp(np.multiply.outer(1j * coeffs.omega, x))
    else:
        first, rotate = np.exp(np.multiply.outer(coeffs.rates, x))
        steer = np.empty((coeffs.omega.size, x.size), dtype=complex)
        steer[0] = first
        steer[1:] = rotate
        np.multiply.accumulate(steer, axis=0, out=steer)
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
    below = powers <= coeffs.null_floor
    if below.any():
        near = np.flatnonzero(below)
        re, im = phasors.real[near], phasors.imag[near]
        u = coeffs.magnitudes[near]
        flat = np.copysign(u - im * im / np.maximum(u + np.abs(re), _TINY), re)
        powers[near] = coeffs.diagonal[near] - scale * np.add.reduce(flat, axis=1)
    return powers, phasors, power_mean(powers, coeffs.s)


def _band_weights(powers, s, mean):
    """Tangent-plane weights of the power mean at the given band powers,
    beta_k = (1/K) (y_k / M_s(y))^(s-1) with ``mean`` = M_s(y), which stays
    finite at large |s|."""
    y = np.maximum(powers, EPS_POWER)
    return (y / mean) ** (s - 1.0) / y.shape[0]


def surrogate_system(coeffs, q_hat, evaluated):
    """The quadratic surrogate q^T D q - 2 v^T q (+ const) of the objective
    around q_hat, as (D, v), from ``evaluated = pair_band_powers(coeffs, q_hat)``.
    D = sum_p xi_p delta_p delta_p^T with every xi_p >= 0, so D is PSD.

    Every cosine term u cos(psi - b.q) is bounded by a quadratic in b.q that
    touches it at b.q_hat, with the curvature weight sinc(phi0) for
    phi0 = psi + pi - b.q_hat wrapped into (-pi, pi]. The pair phasor
    f = u exp(j phi0) of :func:`pair_band_powers` holds all of it:
    phi0 = arg f, and with u sin(phi0) = Im f the weighted magnitude is
    u_hat = u sinc(phi0) = Im f / phi0 and u_hat phi0 = Im f, with no further
    cosine, sine or sinc pass.
    """
    powers, phasors, mean = evaluated
    beta = _band_weights(powers, coeffs.s, mean)  # (K,) >= 0

    sin_part = phasors.imag  # u sin(phi0)
    # arctan2 and the division run on contiguous copies of the interleaved
    # views, in half the time; the product with scale below keeps the view,
    # since BLAS would sum a contiguous copy in another order
    sin_copy = sin_part.copy(order="K")
    phi0 = np.arctan2(sin_copy, phasors.real.copy(order="K"))
    # phi0 = 0 only where u sin(phi0) = 0 too; there sinc(0) = 1 gives u_hat = u
    with np.errstate(invalid="ignore"):
        u_hat = sin_copy / phi0
    np.copyto(u_hat, coeffs.magnitudes, where=phi0 == 0.0)

    # the cosine expansion carries 2/M and the cosine bound carries 1/2; with
    # scale_k = omega_k beta_k / M and psi_hat = omega_k delta_p.q_hat + phi0,
    # gamma_p = sum_k scale_k u_hat psi_hat = xi_p delta_p.q_hat + sum_k scale_k Im f
    omega = coeffs.omega
    scale = omega * beta / coeffs.num_sensors
    xi = (omega * scale) @ u_hat  # (P,)
    gamma = xi * (coeffs.deltas @ q_hat) + scale @ sin_part

    return (xi @ coeffs.delta_outer).reshape(3, 3), gamma @ coeffs.deltas


def _secular_newton(gaps, w, idx, t):
    # ||c|| for c = w / (gap + t) over components idx, and the Newton step on
    # 1/||c|| = 1 from there (0 once ||c|| <= 1), using
    # d||c||^2/dt = -2 sum c^2 / (gap + t)
    n2 = slope = 0.0
    for i in idx:
        den = gaps[i] + t
        c2 = (w[i] / den) ** 2
        n2 += c2
        slope += c2 / den
    norm = math.sqrt(n2)
    return norm, ((norm - 1.0) * n2 / slope if norm > 1.0 else 0.0)


def solve_gtrs(D, v):
    """Global minimizer of q^T D q - 2 v^T q over the unit sphere, for a
    symmetric PSD 3 x 3 matrix D, returned as (q, mu, hard) with mu the
    multiplier of the unit-norm constraint and hard True in the hard case.

    Works in the eigenbasis of D: q(mu) = (D + mu*I)^-1 v with mu the unique
    root of 1/||q(mu)|| = 1 on (-lambda_min, inf), found by Newton's method
    (More & Sorensen 1983) from a start left of the root. With a simple
    bottom eigenvalue that v reaches (the case of every refinement step
    seen on real scenes) the start is |w_0|, w = v in the eigenbasis, and
    everything past the eigendecomposition is float arithmetic on the three
    components. A (nearly) repeated bottom eigenvalue, or v (nearly)
    orthogonal to it, takes the start from the bottom eigenspace, or, in
    the hard case (v orthogonal to the bottom eigenspace with leftover
    norm), returns mu = -lambda_min and adds the missing norm along a
    bottom eigenvector oriented to have a positive first nonzero component.
    """
    D = np.asarray(D, dtype=float)
    v = np.asarray(v, dtype=float)
    lam, basis = np.linalg.eigh(D)  # LAPACK dsyevd on the lower triangle
    # numpy hands the eigenvectors back C-ordered; in the Fortran order
    # LAPACK wrote them, the 3 x 3 products below round as they always have
    basis = np.asfortranarray(basis)
    w = v @ basis  # v in the eigenbasis

    # past eigh everything runs on plain floats: numpy calls on 3-vectors
    # cost more than their arithmetic
    lam0, lam1, lam2 = lam.tolist()
    w0, w1, w2 = w.tolist()
    scale = max(abs(lam0), abs(lam2), math.hypot(*v.tolist()), 1.0)
    tiny = _HARD_CASE_RTOL * scale
    # work in t = mu + lambda_min >= 0: gap + t keeps its digits near the pole
    g0, g1, g2 = lam0 - lam0, lam1 - lam0, lam2 - lam0
    if g1 > tiny and abs(w0) > tiny:
        # the bottom term alone has norm >= 1 at t = |w_0|
        t = math.sqrt(w0 ** 2) - g0
    else:
        gaps, ws = (g0, g1, g2), (w0, w1, w2)
        bottom = [i for i, g in enumerate(gaps) if g <= tiny]
        if max(abs(ws[i]) for i in bottom) <= tiny:
            # v (nearly) misses the bottom eigenspace: look at the rest at t = 0
            rest = range(len(bottom), 3)
            norm, step = _secular_newton(gaps, ws, rest, 0.0)
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
            # one Newton step on the rest from t = 0 is positive and stays left
            # of its root, and the bottom terms only raise ||q(t)||, so
            # ||q(t)|| >= 1
            t = step
        else:
            # every bottom term has gap + t <= ||w_B||, so ||q(t)|| >= 1 here
            t = math.sqrt(sum(ws[i] ** 2 for i in bottom)) - gaps[bottom[-1]]

    # 1/||q(t)|| is concave and increasing on (0, inf), so each Newton step
    # from the left of the root raises t and never passes the root. The
    # step is _secular_newton's over all three components, unrolled, its
    # sums taken in the same order from the same 0.0
    while True:
        d0, d1, d2 = g0 + t, g1 + t, g2 + t
        c0, c1, c2 = w0 / d0, w1 / d1, w2 / d2
        s0, s1, s2 = c0 ** 2, c1 ** 2, c2 ** 2
        n2 = 0.0 + s0 + s1 + s2
        norm = math.sqrt(n2)
        if not abs(norm - 1.0) > GTRS_NORM_TOL:
            break
        if norm > 1.0:
            step = (norm - 1.0) * n2 / (0.0 + s0 / d0 + s1 / d1 + s2 / d2)
        else:
            step = 0.0
        if not t + step > t:
            break
        t += step
    q = basis @ np.array([c0, c1, c2])
    q /= math.sqrt(q @ q)
    return q, t - lam0, False


def linear_update(D, v, q_hat):
    """Closed-form minimizer on the sphere of the linear surrogate of
    q^T D q - 2 v^T q at q_hat: normalize(v + (C*I - D) q_hat) with
    C = lambda_max(D), the smallest C for which C*I - D is PSD, so that the
    linear surrogate majorizes the quadratic one."""
    g = v - D @ q_hat + np.linalg.eigvalsh(D)[-1] * q_hat
    n = math.sqrt(g @ g)
    if n <= _TINY:
        return np.asarray(q_hat, dtype=float).copy()
    return g / n


def _squarem_point(q0, q1, q2):
    """The SqS3 extrapolation (Varadhan & Roland 2008) of two MM maps
    q0 -> q1 -> q2, normalized onto the sphere: normalize(q0 - 2 alpha r +
    alpha^2 v) with r = q1 - q0, v = q2 - 2 q1 + q0 and
    alpha = -||r|| / ||v||. None unless alpha < -1 (alpha = -1 gives q2).

    The point is formed divided by alpha^2, as k^2 q0 + 2 k r + v with
    k = -1 / alpha in (0, 1), which is the same direction and stays finite
    however small v is."""
    r = q1 - q0
    v = q2 - q1 - r
    r_norm, v_norm = math.sqrt(r @ r), math.sqrt(v @ v)
    if not 0.0 < v_norm < r_norm:
        return None
    k = v_norm / r_norm
    x = (k * k) * q0 + (2.0 * k) * r + v
    n = math.sqrt(x @ x)
    return x / n if n > 0.0 else None


def refine(coeffs, q0, variant="quadratic", max_iters=30, rel_tol=1e-10):
    """Iteratively refine a DOA estimate from q0 on the objective whose pair
    form is ``coeffs``, which several starts share.

    Each MM map builds the surrogate at the current iterate; variant
    "quadratic" solves its trust-region subproblem, "linear" takes the
    closed-form normalized-gradient-like update. Every two maps
    q0 -> q1 -> q2 close a SQUAREM cycle: the extrapolation of
    :func:`_squarem_point` is evaluated once and accepted only if its
    objective is no higher than q2's, and the next cycle starts from q2 or
    from the accepted point. A cycle whose last map already decreased the
    objective by no more than ``rel_tol`` is not extrapolated.

    A step is an MM map or an accepted extrapolation; the trace records
    every step, so its objectives never rise, and holds at most
    ``max_iters`` of them. Stops there or once the relative objective
    decrease is at most ``rel_tol`` on two consecutive steps; ``rel_tol``
    = 0 stops once the objective no longer decreases. An iterate whose
    objective is exactly 0 (at s > 0, every band power rounded to 0 or
    below) is the global minimum of the nonnegative objective: the
    refinement stops there as converged, with no surrogate, whose tangent
    plane of the power mean would divide by that 0. ``evaluations`` counts
    every objective evaluation, rejected extrapolations included.
    """
    if variant not in ("quadratic", "linear"):
        raise ValueError(f"unknown variant {variant!r}")
    check_number(max_iters, "max_iters", "be non-negative", lambda v: v >= 0)
    check_number(max_iters, "max_iters", "be an integer", is_integer)
    check_number(rel_tol, "rel_tol", "be a finite non-negative number",
                 lambda v: 0.0 <= v < np.inf)
    q = normalized(q0)
    # each objective evaluation's phasors and mean build the next surrogate
    evaluated = pair_band_powers(coeffs, q)
    trace = RefinementTrace(iterates=[q], objectives=[evaluated[2]], evaluations=1)
    cycle = [q]  # the iterates of the current SQUAREM cycle
    slow = 0
    while len(trace.iterates) <= max_iters:
        if evaluated[2] == 0.0:
            trace.converged_at = len(trace.objectives) - 1
            break
        point = None
        if len(cycle) == 3:
            if slow == 0:
                point = _squarem_point(*cycle)
            cycle = cycle[2:]
        if point is not None:
            tried = pair_band_powers(coeffs, point)
            trace.evaluations += 1
            if not tried[2] <= evaluated[2]:
                continue
            q, evaluated = point, tried
            cycle = [q]
        else:
            D, v = surrogate_system(coeffs, q, evaluated)
            if variant == "quadratic":
                q = solve_gtrs(D, v)[0]
            else:
                q = linear_update(D, v, q)
            evaluated = pair_band_powers(coeffs, q)
            trace.evaluations += 1
            cycle.append(q)
        obj, new_obj = trace.objectives[-1], evaluated[2]
        trace.iterates.append(q)
        trace.objectives.append(new_obj)
        decrease = (obj - new_obj) / max(abs(obj), _TINY)
        slow = slow + 1 if decrease <= rel_tol else 0
        if slow >= 2:
            trace.converged_at = len(trace.objectives) - 1
            break
    return trace
