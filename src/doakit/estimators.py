"""Unified cost specifications for SRP, SRP-PHAT, MUSIC and MVDR.

Every estimator is expressed as the minimization over the sphere of the
power mean, across frequency bands, of the quadratic forms a_k(q)^H V_k a_k(q)
with Hermitian PSD matrices V_k. Estimators that are natively maximizations
(the SRP family) are converted with a Gershgorin diagonal shift. A cost
spec is the ``CovarianceSet`` of the V_k; the exponent s is chosen apart
from it and enters only the power mean.
"""

from __future__ import annotations

import numpy as np

from .manifold import check_number, great_circle_distance, is_integer
from .spectral import CovarianceSet

# floor applied to band powers before negative exponents
EPS_POWER = 1e-30

DEFAULT_MVDR_LOADING = 1e-3

# wavenumbers within this many ulps of an arithmetic progression count as
# evenly spaced, so the band recurrence reproduces exp(j omega_k x)
_SPACING_ULPS = 8

# bytes of one (r, M) complex block buffer of band_powers: r = 2048 rows at
# M = 12, and the pass's four complex and two real block buffers then take
# about 1.9 MiB, within a 2 MiB L2 cache (96 KiB to 1.5 MiB were measured;
# this was fastest or within noise of it at M = 12, 32 and 64)
_BLOCK_BYTES = 384 * 1024


def check_exponent(s, name="exponent s"):
    """ValueError naming ``name`` unless s is a number in (-inf, 1] other
    than 0, an exponent the power mean takes."""
    check_number(s, name, "lie in (-inf, 1], s != 0", lambda v: -np.inf < v <= 1.0 and v != 0.0)


def gershgorin_shift(c):
    """V = P*I - c with P the largest absolute row sum of the Hermitian matrix
    c, so V is PSD by the Gershgorin circle theorem. A (K, M, M) stack is
    shifted matrix by matrix."""
    c = np.asarray(c, dtype=complex)
    p = np.max(np.sum(np.abs(c), axis=-1), axis=-1)
    return p[..., None, None] * np.eye(c.shape[-1]) - c


def srp_cost_spec(cov):
    """Steered-response-power cost. Apply PHAT weighting to the frames before
    computing the covariance to obtain SRP-PHAT."""
    return CovarianceSet(gershgorin_shift(cov.matrices), cov.band_frequencies)


def music_cost_spec(cov, num_sources):
    """Noise-subspace projector cost (MUSIC)."""
    m = cov.num_sensors
    check_number(num_sources, "num_sources", f"be an integer with 1 <= L < M = {m}",
                 lambda v: 1 <= v < m and is_integer(v))
    _, vecs = np.linalg.eigh(cov.matrices)  # ascending eigenvalues, per band
    noise = vecs[..., : m - int(num_sources)]
    return CovarianceSet(noise @ np.swapaxes(noise.conj(), 1, 2), cov.band_frequencies)


def mvdr_cost_spec(cov, loading=DEFAULT_MVDR_LOADING):
    """Inverse-covariance (Capon) cost with relative diagonal loading."""
    check_number(loading, "loading", "be a finite non-negative number",
                 lambda v: 0.0 <= v < np.inf)
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
    return CovarianceSet(0.5 * (inv + np.swapaxes(inv.conj(), 1, 2)), cov.band_frequencies)


def power_mean(values, s):
    """Generalized power mean ((1/K) sum y^s)^(1/s) over the bands (axis 0).

    For s < 0 the values are floored at EPS_POWER before exponentiation so
    exact zeros (e.g. MUSIC on noiseless data) stay finite. Evaluated as
    c * M_s(y / c) with c the smallest value for s < 0 and the largest for
    s > 0, so every (y / c)^s lies in [0, 1] and cannot overflow. The
    input is not modified; the one temporary as large as it is the clamped
    copy, which then holds the ratios.
    """
    # quadratic forms can round to tiny negatives; clamp into the domain
    ratios = np.maximum(values, EPS_POWER if s < 0 else 0.0)
    if s < 0:
        c = ratios.min(axis=0, keepdims=True)
    else:
        c = ratios.max(axis=0, keepdims=True)
        c[c <= 0.0] = 1.0  # all-zero values
    np.divide(ratios, c, out=ratios)
    ratios **= s
    mean = np.add.reduce(ratios, axis=0) / ratios.shape[0]
    return c[0] * mean ** (1.0 / s)


def common_step(omega):
    """Spacing of the wavenumbers omega if every omega_k lies within a few
    ulps of omega_0 + k * step, so the band recurrence
    exp(j omega_(k+1) x) = exp(j omega_k x) exp(j step x) reproduces
    exp(j omega_k x) to rounding; None otherwise."""
    step = (omega[-1] - omega[0]) / max(omega.size - 1, 1)
    drift = np.max(np.abs(omega - (omega[0] + step * np.arange(omega.size))))
    return float(step) if drift <= _SPACING_ULPS * np.finfo(float).eps * omega[-1] else None


def band_powers(spec, geometry, points):
    """Quadratic forms a_k(q)^H V_k a_k(q), shape (K, G), for a (G, 3) batch
    of directions: the one grid pass of locate, Monte Carlo and the tests.

    The points are split into balanced row blocks, as few as keep each
    block within r rows (r = 2048 at M = 12, so a block's buffers stay in
    cache), with sizes that differ by at most one. Each block runs the band
    loop into its columns of the output, so working memory is O(r M) beside
    the output, whatever G. A block's (r, M) steering phasors
    a = exp(j omega_k tau) live in one buffer reused by every block and
    band. On evenly spaced bands (:func:`common_step`, the rule the pair
    form of ``refine`` reads too) band 0 and the rotation exp(j step tau)
    are each filled once per block with cos and sin (cheaper than the
    complex exp of a purely imaginary argument), and every later band is
    a *= rot. On other bands every band is its own cos and sin fill. Then
    one BLAS product b = a V_k^T and the row sums Re sum_m conj(a_m) b_m.
    The 1/M of the unit-norm steering vectors is applied once at the end.
    Every point's powers are those of one unblocked pass, bit for bit.
    """
    omega = geometry.wavenumbers(spec.band_frequencies)
    sensors = geometry.sensors.T
    num_points, m = len(points), geometry.num_sensors
    powers = np.empty((len(omega), num_points))
    # balanced blocks of at most r >= 4 rows, so on G >= 2 points every
    # block has at least 2: a one-row product takes BLAS's GEMV path, which
    # rounds differently from the GEMM of a larger block
    num_blocks = max(-(-num_points // max(_BLOCK_BYTES // (16 * m), 4)), 1)
    edges = [num_points * i // num_blocks for i in range(num_blocks + 1)]
    rows = -(-num_points // num_blocks)
    tau, phase = np.empty((rows, m)), np.empty((rows, m))
    a, conj_a, b = (np.empty((rows, m), dtype=complex) for _ in range(3))
    step = common_step(omega)
    rot = np.empty_like(a) if step is not None and len(omega) > 1 else None

    def fill(out, t, w):  # out = exp(j w t), written as its cos and sin
        p = phase[: len(t)]
        np.multiply(t, w, out=p)
        np.cos(p, out=out.real)
        np.sin(p, out=out.imag)

    for lo, hi in zip(edges, edges[1:]):
        t, x, conj_x, y = (buf[: hi - lo] for buf in (tau, a, conj_a, b))
        np.matmul(points[lo:hi], sensors, out=t)
        turn = None if rot is None else rot[: hi - lo]
        if turn is not None:
            fill(turn, t, step)
        for k, w in enumerate(omega):
            if k and turn is not None:
                x *= turn
            else:
                fill(x, t, w)
            np.matmul(x, spec.matrices[k].T, out=y)
            np.conjugate(x, out=conj_x)
            powers[k, lo:hi] = np.einsum("gm,gm->g", conj_x, y).real
    powers /= m
    return powers


def grid_search(values, grid, num_sources, min_separation):
    """Pick ``num_sources`` well separated local minima of the objective
    ``values`` at the grid points, such as the power mean of a spec's
    ``band_powers`` there.

    A point is a local minimum when its value is no higher than those of its
    k nearest grid points and of every point that counts it among theirs.
    Local minima are ranked by objective value and greedily filtered so
    returned directions are pairwise at least ``min_separation`` apart. If
    too few local minima survive, the remaining slots are padded from the
    globally smallest grid values that respect the separation. Returns a list
    of (direction, objective value) pairs sorted ascending by value. Raises
    ValueError when not even the padding finds ``num_sources`` grid points
    that far apart.
    """
    check_number(num_sources, "num_sources", "be at least 1", lambda v: v >= 1)
    check_number(num_sources, "num_sources", "be an integer", is_integer)
    check_number(min_separation, "min_separation", "be a finite non-negative number",
                 lambda v: 0.0 <= v < np.inf)

    nearest = values[grid.neighbors]
    is_local_min = np.all(nearest >= values[:, None], axis=1)
    # nor is a point that a lower (or NaN) point counts among its k nearest
    is_local_min[grid.neighbors[~(nearest <= values[:, None])]] = False
    candidates = np.flatnonzero(is_local_min)
    candidates = candidates[np.argsort(values[candidates], kind="stable")]

    selected = []

    def pick(pool):
        for i in pool:
            if len(selected) >= num_sources:
                return
            if not selected or np.all(
                great_circle_distance(grid.points[i], grid.points[selected])
                >= min_separation
            ):
                selected.append(int(i))

    pick(candidates)
    if len(selected) < num_sources:
        # sort all G values only when the local minima leave a slot unfilled
        pick(np.argsort(values, kind="stable"))
    if len(selected) < num_sources:
        raise ValueError(
            f"only {len(selected)} of {num_sources} directions on the {grid.size}-point "
            f"grid are at least {np.degrees(min_separation):g} deg apart"
        )
    return [(grid.points[i].copy(), float(values[i])) for i in selected]
