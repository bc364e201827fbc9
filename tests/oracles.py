"""Reference constructions the tests check the library against.

The refinement builds its cosine bounds from pair phasors; the wrapped
phase and sinc weight below are the textbook form of the same bound, kept
here as an independent oracle.
"""

import numpy as np

from doakit.spectral import apply_weighting

_TWO_PI = 2.0 * np.pi


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


def covariance_then_select(frames, estimator, f_min, f_max):
    """Reference for ``estimator_covariance``: PHAT for SRP-PHAT, the sample
    covariance of every band by ``einsum``, then the bands in [f_min, f_max].
    Returns (matrices, band frequencies)."""
    if estimator == "srp-phat":
        frames = apply_weighting(frames, "phat")
    x = frames.data
    s = np.einsum("knm,knr->kmr", x, x.conj()) / frames.num_frames
    keep = (frames.band_frequencies >= f_min) & (frames.band_frequencies <= f_max)
    return s[keep], frames.band_frequencies[keep]
