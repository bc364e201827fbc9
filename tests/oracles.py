"""Reference constructions the tests check the library against.

The refinement builds its cosine bounds from pair phasors; the wrapped
phase and sinc weight below are the textbook form of the same bound, kept
here as an independent oracle. The ``reference_*`` functions are the MM
step as it was written before its per-step setup moved into
``PairCoefficients`` and its GTRS Newton step was unrolled: the library's
must keep their bits.
"""

import math

import numpy as np
from scipy.signal import get_window

from doakit.estimators import EPS_POWER, band_powers, common_step, power_mean
from doakit.manifold import great_circle_distance, normalized
from doakit.refine import (
    _HARD_CASE_RTOL,
    _NULL_RTOL,
    GTRS_NORM_TOL,
    PairCoefficients,
    RefinementTrace,
    linear_update,
    pair_band_powers,
    solve_gtrs,
    surrogate_system,
)
from doakit.spectral import apply_weighting

_TWO_PI = 2.0 * np.pi
# the step angle in radians below which plain_mm at rel_tol = 0 counts an
# MM map as having stopped moving
STILL_RAD = 1e-12


def hertz(omega, speed_of_sound=343.0):
    """Band frequencies in Hz of wavenumbers in rad/m, omega c / (2 pi), for
    cost specs whose inputs are drawn as wavenumbers."""
    return np.asarray(omega, dtype=float) * speed_of_sound / _TWO_PI


def doa_from_angles(colatitude, azimuth):
    """Unit direction vector(s) from colatitude and azimuth in radians, the
    inverse of ``angles_from_doa``.

    Broadcasts over array inputs; the vector components live on the last axis.
    """
    colatitude = np.asarray(colatitude, dtype=float)
    azimuth = np.asarray(azimuth, dtype=float)
    st = np.sin(colatitude)
    return np.stack(
        [
            np.cos(azimuth) * st,
            np.sin(azimuth) * st,
            np.cos(colatitude) * np.ones_like(azimuth),
        ],
        axis=-1,
    )


def steering_vector(geometry, wavenumber, q):
    """Array response for a plane wave from direction q at spatial frequency
    ``wavenumber`` (rad/m): entry m is M^(-1/2) exp(j w d_m . q). The
    library forms these for a whole batch of directions in ``band_powers``
    and from pair phasors in the refinement."""
    if wavenumber < 0:
        raise ValueError("wavenumber must be non-negative")
    phase = wavenumber * (geometry.sensors @ np.asarray(q, dtype=float))
    return np.exp(1j * phase) / np.sqrt(geometry.num_sensors)


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


def quadratic_monomials(points):
    """(G, 9) monomials [x^2, y^2, z^2, 2xy, 2xz, 2yz, x, y, z] of the
    points, so q^T D q - 2 v^T q at every point is one matrix-vector
    product with :func:`gtrs_coefficients`."""
    x, y, z = points.T
    return np.stack([x * x, y * y, z * z, 2 * x * y, 2 * x * z, 2 * y * z, x, y, z],
                    axis=1)


def gtrs_coefficients(d, v):
    """Coefficients of q^T D q - 2 v^T q against :func:`quadratic_monomials`."""
    return np.array([d[0, 0], d[1, 1], d[2, 2], d[0, 1], d[0, 2], d[1, 2], *(-2.0 * v)])


def gather_stft(signal, frame_size, hop, window="hann"):
    """Reference for ``stft``'s framing: a fancy index gathers every window
    into an (N, frame, M) copy, then rfft runs over the frame axis. Returns
    the (K, N, M) spectra."""
    signal = np.asarray(signal, dtype=float)
    if signal.ndim == 1:
        signal = signal[:, None]
    num_frames = 1 + (signal.shape[0] - frame_size) // hop
    starts = np.arange(num_frames) * hop
    win = get_window(window, frame_size, fftbins=True)
    segments = signal[starts[:, None] + np.arange(frame_size)] * win[None, :, None]
    return np.transpose(np.fft.rfft(segments, axis=1), (1, 0, 2))


def covariance_then_select(frames, estimator, f_min, f_max):
    """Reference for ``estimator_covariance``: PHAT for SRP-PHAT, the sample
    covariance of every band by ``einsum``, then the bands in [f_min, f_max].
    Returns (matrices, band frequencies)."""
    if estimator == "srp-phat":
        frames = apply_weighting(frames)
    x = frames.data
    s = np.einsum("knm,knr->kmr", x, x.conj()) / frames.num_frames
    keep = (frames.band_frequencies >= f_min) & (frames.band_frequencies <= f_max)
    return s[keep], frames.band_frequencies[keep]


def symmetric_neighbors(grid):
    """Each grid point's k nearest plus every point that counts it among its
    own k nearest, as one ascending index list per point: the neighbors a
    grid point's value is compared with in ``grid_search``."""
    closure = [set(row) for row in grid.neighbors.tolist()]
    for i, row in enumerate(grid.neighbors.tolist()):
        for j in row:
            closure[j].add(i)
    return [sorted(row) for row in closure]


def objective(spec, geometry, q, s):
    """The power-mean objective with exponent s at one direction in its
    steering form, the band powers a_k(q)^H V_k a_k(q); the refinement
    evaluates it from pair phasors instead."""
    return power_mean(band_powers(spec, geometry, np.reshape(q, (1, 3)))[:, 0], s)


def plain_mm(spec, geometry, q0, s, variant="quadratic", max_iters=30, rel_tol=1e-10):
    """Reference for ``refine``: the MM maps alone, no extrapolation, with
    the same stopping rule (relative decrease at most ``rel_tol`` on two
    consecutive steps). At ``rel_tol`` = 0 it is the limit the refinement
    is checked against, so a step counts only if its map has also stopped
    moving (by less than ``STILL_RAD``): near a flat minimum the objective
    stops decreasing in floating point while the maps still crawl."""
    coeffs = PairCoefficients.from_cost_spec(spec, geometry, s)
    q = normalized(q0)
    evaluated = pair_band_powers(coeffs, q)
    trace = RefinementTrace(iterates=[q], objectives=[evaluated[2]], evaluations=1)
    slow = 0
    for step in range(1, max_iters + 1):
        D, v = surrogate_system(coeffs, q, evaluated)
        last = q
        q = solve_gtrs(D, v)[0] if variant == "quadratic" else linear_update(D, v, q)
        evaluated = pair_band_powers(coeffs, q)
        obj = trace.objectives[-1]
        decrease = (obj - evaluated[2]) / max(abs(obj), np.finfo(float).tiny)
        trace.iterates.append(q)
        trace.objectives.append(evaluated[2])
        trace.evaluations += 1
        still = rel_tol > 0 or great_circle_distance(last, q) < STILL_RAD
        slow = slow + 1 if decrease <= rel_tol and still else 0
        if slow >= 2:
            trace.converged_at = step
            break
    return trace


def _reference_phasor_table(omega, x, step):
    # exp(j omega_k x) per band: the band recurrence on evenly spaced omega
    omega = np.asarray(omega, dtype=float)
    if step is None:
        return np.exp(np.multiply.outer(1j * omega, x))
    first, rotate = np.exp(np.multiply.outer((1j * omega[0], 1j * step), x))
    table = np.empty((omega.size, x.size), dtype=complex)
    table[0] = first
    table[1:] = rotate
    return np.multiply.accumulate(table, axis=0, out=table)


def reference_pair_band_powers(coeffs, q):
    """``pair_band_powers`` with its recurrence step and near-null floor
    rebuilt on every call."""
    steer = _reference_phasor_table(coeffs.omega, coeffs.sensors @ q,
                                    common_step(coeffs.omega))
    m, r = coeffs.pairs
    phasors = steer.conj()[:, m]
    phasors *= steer[:, r]
    phasors *= coeffs.neg_entries
    scale = 2.0 / coeffs.num_sensors
    powers = coeffs.diagonal - scale * np.add.reduce(phasors.real, axis=1)
    near = np.flatnonzero(powers <= _NULL_RTOL * coeffs.diagonal)
    if near.size:
        re, im = phasors.real[near], phasors.imag[near]
        u = coeffs.magnitudes[near]
        tiny = np.finfo(float).tiny
        flat = np.copysign(u - im * im / np.maximum(u + np.abs(re), tiny), re)
        powers[near] = coeffs.diagonal[near] - scale * np.add.reduce(flat, axis=1)
    return powers, phasors, power_mean(powers, coeffs.s)


def reference_surrogate_system(coeffs, q_hat, evaluated):
    """``surrogate_system``: (D, v) from an evaluation at q_hat."""
    powers, phasors, mean = evaluated
    y = np.maximum(powers, EPS_POWER)
    beta = (y / mean) ** (coeffs.s - 1.0) / y.shape[0]
    sin_part = phasors.imag
    sin_copy = sin_part.copy(order="K")
    phi0 = np.arctan2(sin_copy, phasors.real.copy(order="K"))
    with np.errstate(invalid="ignore"):
        u_hat = sin_copy / phi0
    np.copyto(u_hat, coeffs.magnitudes, where=phi0 == 0.0)
    omega = coeffs.omega
    scale = omega * beta / coeffs.num_sensors
    xi = (omega * scale) @ u_hat
    gamma = xi * (coeffs.deltas @ q_hat) + scale @ sin_part
    return (xi @ coeffs.delta_outer).reshape(3, 3), gamma @ coeffs.deltas


def reference_solve_gtrs(D, v):
    """``solve_gtrs`` with one Newton-step helper over index lists for
    every case."""
    D = np.asarray(D, dtype=float)
    v = np.asarray(v, dtype=float)
    lam, basis = np.linalg.eigh(D)
    basis = np.asfortranarray(basis)
    w = v @ basis
    lam_list, w_list = lam.tolist(), w.tolist()
    scale = max(abs(lam_list[0]), abs(lam_list[-1]), math.hypot(*v.tolist()), 1.0)
    tiny = _HARD_CASE_RTOL * scale
    gap_list = [x - lam_list[0] for x in lam_list]
    bottom = [i for i, g in enumerate(gap_list) if g <= tiny]

    def newton_step(idx, t):
        n2 = slope = 0.0
        for i in idx:
            den = gap_list[i] + t
            c2 = (w_list[i] / den) ** 2
            n2 += c2
            slope += c2 / den
        norm = math.sqrt(n2)
        return norm, ((norm - 1.0) * n2 / slope if norm > 1.0 else 0.0)

    if max(abs(w_list[i]) for i in bottom) <= tiny:
        rest = range(len(bottom), len(w_list))
        norm, step = newton_step(rest, 0.0)
        if norm <= 1.0:
            coeff = np.zeros_like(w)
            coeff[rest] = w[rest] / (lam - lam[0])[rest]
            q = basis @ coeff
            e = basis[:, 0]
            nz = np.flatnonzero(np.abs(e) > 1e-14)
            if nz.size and e[nz[0]] < 0:
                e = -e
            q = normalized(q + np.sqrt(max(1.0 - float(q @ q), 0.0)) * e)
            return q, -lam[0], True
        t = step
    else:
        t = math.sqrt(sum(w_list[i] ** 2 for i in bottom)) - gap_list[bottom[-1]]
    every = range(len(w_list))
    norm, step = newton_step(every, t)
    while abs(norm - 1.0) > GTRS_NORM_TOL and t + step > t:
        t += step
        norm, step = newton_step(every, t)
    q = basis @ np.array([wi / (g + t) for wi, g in zip(w_list, gap_list)])
    q /= math.sqrt(q @ q)
    return q, t - lam_list[0], False


def reference_linear_update(D, v, q_hat):
    """``linear_update`` with its norm from ``np.linalg.norm``."""
    g = v - D @ q_hat + np.linalg.eigvalsh(D)[-1] * q_hat
    n = np.linalg.norm(g)
    if n <= np.finfo(float).tiny:
        return np.asarray(q_hat, dtype=float).copy()
    return g / n


# the refinement's step functions by name, as ``refine`` looks them up
REFERENCE_STEP = {
    "pair_band_powers": reference_pair_band_powers,
    "surrogate_system": reference_surrogate_system,
    "solve_gtrs": reference_solve_gtrs,
    "linear_update": reference_linear_update,
}
