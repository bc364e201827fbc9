"""Reference constructions the tests check the library against.

The refinement builds its cosine bounds from pair phasors; the wrapped
phase and sinc weight below are the textbook form of the same bound, kept
here as an independent oracle.
"""

import numpy as np
from scipy.signal import get_window

from doakit.estimators import band_powers, power_mean
from doakit.manifold import great_circle_distance, normalized
from doakit.refine import (
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


def objective(spec, geometry, q):
    """The power-mean objective at one direction in its steering form, the
    band powers a_k(q)^H V_k a_k(q); the refinement evaluates it from pair
    phasors instead."""
    return power_mean(band_powers(spec, geometry, np.reshape(q, (1, 3)))[:, 0], spec.s)


def plain_mm(spec, geometry, q0, variant="quadratic", max_iters=30, rel_tol=1e-10):
    """Reference for ``refine``: the MM maps alone, no extrapolation, with
    the same stopping rule (relative decrease at most ``rel_tol`` on two
    consecutive steps). At ``rel_tol`` = 0 it is the limit the refinement
    is checked against, so a step counts only if its map has also stopped
    moving (by less than ``STILL_RAD``): near a flat minimum the objective
    stops decreasing in floating point while the maps still crawl."""
    coeffs = PairCoefficients.from_cost_spec(spec, geometry)
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
