import functools
import itertools
import sys
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from doakit.estimators import band_powers, grid_search, power_mean, srp_cost_spec
from doakit.manifold import (
    ArrayGeometry,
    fibonacci_grid,
    fibonacci_points,
    great_circle_distance,
    random_geometry,
)
from doakit.refine import (
    PairCoefficients,
    _squarem_point,
    linear_update,
    pair_band_powers,
    refine,
    solve_gtrs,
    surrogate_system,
)
from doakit.simulate import (
    MonteCarloConfig,
    Scene,
    build_cost_spec,
    estimator_covariance,
    locate_sources,
    monte_carlo,
    random_sources,
    synth_stft_scene,
)
from doakit.spectral import CovarianceSet
from oracles import (
    REFERENCE_STEP,
    cosine_surrogate_coeffs,
    gtrs_coefficients,
    hertz,
    objective,
    plain_mm,
    quadratic_monomials,
    reference_solve_gtrs,
    steering_vector,
    unnormalized_sinc,
    wrap_phase,
)


@pytest.fixture
def rng():
    # a generator per test, so its inputs do not depend on which tests ran first
    return np.random.default_rng(4321)


def random_unit(rng):
    q = rng.standard_normal(3)
    return q / np.linalg.norm(q)


def random_spec(num_sensors=5, num_bands=4, *, seed):
    local = np.random.default_rng(seed)
    geom = random_geometry(num_sensors=num_sensors, seed=int(local.integers(1 << 30)))
    mats = []
    for _ in range(num_bands):
        a = local.standard_normal((num_sensors, num_sensors)) + 1j * local.standard_normal(
            (num_sensors, num_sensors)
        )
        mats.append(a @ a.conj().T / num_sensors)
    omega = np.sort(local.uniform(5.0, 70.0, num_bands))
    return CovarianceSet(np.stack(mats), hertz(omega, geom.speed_of_sound)), geom


@pytest.mark.parametrize(
    "theta,z_expected,phi_expected",
    [
        (0.0, 0, 0.0),
        (np.pi, 0, np.pi),
        (-np.pi, 1, np.pi),
        (3 * np.pi, -1, np.pi),
        (-2.5 * np.pi, 1, -0.5 * np.pi),
        (7.0, -1, 7.0 - 2 * np.pi),
    ],
)
def test_wrap_phase_values(theta, z_expected, phi_expected):
    z, phi = wrap_phase(theta)
    assert z == z_expected
    assert abs(phi - phi_expected) < 1e-12
    assert abs(theta + 2 * np.pi * z - phi) < 1e-12


def test_wrap_phase_random_range(rng):
    theta = rng.uniform(-40.0, 40.0, 10_000)
    z, phi = wrap_phase(theta)
    assert np.all(phi > -np.pi) and np.all(phi <= np.pi)
    np.testing.assert_allclose(theta + 2 * np.pi * z, phi, atol=1e-9)


def test_unnormalized_sinc(rng):
    assert unnormalized_sinc(0.0) == 1.0
    assert abs(unnormalized_sinc(np.pi)) < 1e-15
    x = rng.uniform(0.1, 10.0, 100)
    np.testing.assert_allclose(unnormalized_sinc(x), np.sin(x) / x, atol=1e-14)


def test_cosine_surrogate_coeffs_values():
    # expansion at the bottom of the band-power cosine term (b.q = psi + pi):
    # the curvature weight is maximal and psi_hat sits half a period past psi
    psi_hat, w = cosine_surrogate_coeffs(np.pi, 0.0)
    assert abs(psi_hat - 0.0) < 1e-12 and abs(w - 1.0) < 1e-12

    psi_hat, w = cosine_surrogate_coeffs(0.0, np.pi)
    assert abs(psi_hat - np.pi) < 1e-12 and abs(w - 1.0) < 1e-12

    # expansion at the top of the term: the bound flattens out completely
    psi_hat, w = cosine_surrogate_coeffs(0.0, 0.0)
    assert abs(psi_hat - np.pi) < 1e-12
    assert abs(w - unnormalized_sinc(np.pi)) < 1e-15

    # a quarter period off the bottom
    psi_hat, w = cosine_surrogate_coeffs(np.pi / 2, 0.0)
    assert abs(psi_hat + np.pi / 2) < 1e-12
    assert abs(w - 2.0 / np.pi) < 1e-12


def test_cosine_surrogate_upper_bound(rng):
    # u cos(psi - t) <= -(u/2) w (psi_hat - t)^2 + touching constant, i.e. the
    # negated bound majorizes -cos; check the canonical scalar form over a
    # wide random sweep and the touching identity at the expansion point
    theta = rng.uniform(-10 * np.pi, 10 * np.pi, 100_000)
    theta0 = rng.uniform(-10 * np.pi, 10 * np.pi, 100_000)
    z0, phi0 = wrap_phase(theta0)
    w = unnormalized_sinc(phi0)
    bound = (
        0.5 * w * (theta + 2 * np.pi * z0) ** 2
        - np.cos(phi0)
        - 0.5 * phi0 * np.sin(phi0)
    )
    assert np.all(bound >= -np.cos(theta) - 1e-9)
    at_exp = 0.5 * w * phi0**2 - np.cos(phi0) - 0.5 * phi0 * np.sin(phi0)
    np.testing.assert_allclose(at_exp, -np.cos(theta0), atol=1e-12)


def test_pair_band_powers_matches_quadratic_form(rng):
    spec, geom = random_spec(seed=10)
    coeffs = PairCoefficients.from_cost_spec(spec, geom, -1.0)
    omega = geom.wavenumbers(spec.band_frequencies)
    for _ in range(10):
        q = random_unit(rng)
        via_pairs = pair_band_powers(coeffs, q)[0]
        for k in range(spec.num_bands):
            a = steering_vector(geom, omega[k], q)
            direct = (a.conj() @ spec.matrices[k] @ a).real
            assert abs(via_pairs[k] - direct) < 1e-10


def test_surrogate_single_band_weight_is_one(rng):
    from doakit.refine import _band_weights

    y = np.array([rng.uniform(0.1, 5.0)])
    for s in (-3.0, -1.0, 0.5, 1.0):
        w = _band_weights(y, s, power_mean(y, s))
        assert abs(w[0] - 1.0) < 1e-12


def test_band_weights_finite_at_large_negative_s():
    from doakit.refine import _band_weights

    y = np.array([1e-30, 1.0])
    w = _band_weights(y, -30.0, power_mean(y, -30.0))
    assert np.all(np.isfinite(w))
    # beta_k = (1/K) (y_k / M_s)^(s-1) with M_s = 2^(1/30) * 1e-30
    np.testing.assert_allclose(w, [0.5 * 2.0 ** (31.0 / 30.0), 0.0], rtol=1e-12)


@pytest.mark.parametrize("offset_deg", [0.0, 3.0])
def test_refine_noise_free_music_large_negative_s(offset_deg):
    # noise-free MUSIC has exactly null bands at the source; s = -10 used to
    # overflow the band weights and break the GTRS eigendecomposition
    from doakit.estimators import music_cost_spec
    from doakit.simulate import Scene, synth_stft_scene
    from doakit.spectral import sample_covariance

    geom = random_geometry(num_sensors=8, seed=3)
    truth = np.array([0.3, -0.4, 0.866])
    truth /= np.linalg.norm(truth)
    frames = synth_stft_scene(Scene(geom, truth[None], snr_db=np.inf, seed=2),
                              frame_size=256, num_frames=40)
    cov = sample_covariance(frames)
    coeffs = PairCoefficients.from_cost_spec(music_cost_spec(cov, 1), geom, -10.0)
    axis = np.cross(truth, [0.0, 0.0, 1.0])
    axis /= np.linalg.norm(axis)
    t = np.radians(offset_deg)
    q0 = np.cos(t) * truth + np.sin(t) * axis
    for variant in ("quadratic", "linear"):
        trace = refine(coeffs, q0, variant=variant, max_iters=30)
        assert np.all(np.isfinite(trace.objectives))
        assert np.all(np.diff(trace.objectives) <= 1e-9 * np.abs(trace.objectives[:-1]))
        assert np.degrees(great_circle_distance(trace.iterates[-1], truth)) < 0.01


def test_surrogate_zero_phase_single_pair():
    # two sensors, one band, real positive off-diagonal entry, expanding at
    # the bottom of the cosine term (pair phase argument = pi): D and v have
    # a closed form
    geom = ArrayGeometry(np.array([[0.05, 0.0, 0.0], [-0.05, 0.0, 0.0]]))
    u = 0.7
    mat = np.array([[1.0, u], [u, 1.0]], dtype=complex)
    omega = 40.0
    spec = CovarianceSet(mat[None], hertz([omega]))
    coeffs = PairCoefficients.from_cost_spec(spec, geom, 1.0)
    delta = coeffs.deltas[0]  # (0.1, 0, 0)
    # pick q_hat with omega * delta . q_hat = pi exactly
    qx = np.pi / (omega * delta[0])
    q_hat = np.array([qx, 0.0, np.sqrt(1.0 - qx**2)])
    D, v = surrogate_system(coeffs, q_hat, pair_band_powers(coeffs, q_hat))
    # beta = 1 (single band), weight = sinc(0) = 1, psi_hat = pi; with one
    # pair D = xi delta delta^T pins xi
    xi_expected = omega**2 * u / 2.0
    np.testing.assert_allclose(D, xi_expected * np.outer(delta, delta), atol=1e-9)
    np.testing.assert_allclose(v, (omega * u * np.pi / 2.0) * delta, atol=1e-9)


def test_surrogate_majorizes_objective(rng):
    # the surrogate gap Q(q) - Q(q_hat) must dominate the objective gap
    # G(q) - G(q_hat) for any q; this pins down every constant in D and v
    for trial in range(30):
        s = [-3.0, -1.0, 0.5, 1.0][trial % 4]
        spec, geom = random_spec(num_sensors=4, num_bands=3, seed=100 + trial)
        coeffs = PairCoefficients.from_cost_spec(spec, geom, s)
        q_hat = random_unit(rng)
        evaluated = pair_band_powers(coeffs, q_hat)
        D, v = surrogate_system(coeffs, q_hat, evaluated)
        c = np.linalg.eigvalsh(D)[-1]  # the linear variant's constant
        g_hat = power_mean(evaluated[0], s)

        def quad(q):
            return q @ D @ q - 2.0 * v @ q

        for _ in range(20):
            q = random_unit(rng)
            g = power_mean(pair_band_powers(coeffs, q)[0], s)
            gap = quad(q) - quad(q_hat)
            assert gap >= g - g_hat - 1e-9
            # and the linearized surrogate majorizes the quadratic one
            lin = (
                quad(q_hat)
                + 2.0 * (D @ q_hat - v) @ (q - q_hat)
                + c * np.sum((q - q_hat) ** 2)
            )
            assert lin >= quad(q) - 1e-9


def _linear_step(D, v, q_hat):
    # the linear update written out: normalize(v + (lambda_max(D) I - D) q_hat)
    g = v + (np.linalg.eigvalsh(D)[-1] * np.eye(3) - D) @ q_hat
    return g / np.linalg.norm(g)


def test_majorization_constant_single_pair():
    # single pair delta (1, 0, 0): D = xi delta delta^T has lambda_max(D) = xi,
    # so the linear step is normalize(v + xi q_hat - D q_hat)
    geom = ArrayGeometry(np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]]))
    omega = 4.0
    # omega * delta . q_hat = pi puts the expansion at sinc(0) = 1
    qx = np.pi / omega
    q_hat = np.array([qx, 0.0, np.sqrt(1.0 - qx**2)])
    for u, xi_expected in [(0.25, 2.0), (0.0, 0.0)]:
        mat = np.array([[1.0, u], [u, 1.0]], dtype=complex)
        spec = CovarianceSet(mat[None], hertz([omega]))
        coeffs = PairCoefficients.from_cost_spec(spec, geom, 1.0)
        D, v = surrogate_system(coeffs, q_hat, pair_band_powers(coeffs, q_hat))
        np.testing.assert_allclose(D, np.diag([xi_expected, 0.0, 0.0]), atol=1e-12)
        assert abs(np.linalg.eigvalsh(D)[-1] - xi_expected) < 1e-12
        if u:
            g = v + xi_expected * q_hat - D @ q_hat
            expected = g / np.linalg.norm(g)
        else:
            # a zero system has no gradient: the iterate stays
            np.testing.assert_array_equal(v, 0.0)
            expected = q_hat
        np.testing.assert_allclose(linear_update(D, v, q_hat), expected, atol=1e-15)


def test_majorization_constant_dominates_d(rng):
    # C = lambda_max(D) is the smallest C with C*I - D PSD: the gap's smallest
    # eigenvalue is 0 up to rounding, and the linear step is normalize(v + (C*I - D) q_hat)
    for trial in range(20):
        spec, geom = random_spec(seed=200 + trial)
        coeffs = PairCoefficients.from_cost_spec(spec, geom, [-3.0, 0.5][trial % 2])
        q_hat = random_unit(rng)
        D, v = surrogate_system(coeffs, q_hat, pair_band_powers(coeffs, q_hat))
        c = np.linalg.eigvalsh(D)[-1]
        gap = np.linalg.eigvalsh(c * np.eye(3) - D).min()
        assert abs(gap) <= 1e-12 * max(c, 1.0)
        np.testing.assert_allclose(
            linear_update(D, v, q_hat), _linear_step(D, v, q_hat), rtol=0, atol=1e-14
        )


def test_solve_gtrs_diagonal_cases():
    # D = I: minimizer is v / ||v||
    v = np.array([3.0, 0.0, 4.0])
    q, _, _ = solve_gtrs(np.eye(3), v)
    np.testing.assert_allclose(q, v / 5.0, atol=1e-9)

    # v = 0 with distinct eigenvalues: bottom eigenvector, positive first entry
    q, mu, hard = solve_gtrs(np.diag([1.0, 2.0, 3.0]), np.zeros(3))
    assert hard
    np.testing.assert_allclose(q, [1.0, 0.0, 0.0], atol=1e-12)
    assert abs(mu + 1.0) < 1e-12


def test_solve_gtrs_hard_case_partial_norm():
    # v lives in the top eigenspace only and is small enough that the
    # boundary multiplier cannot reach unit norm: the bottom eigenvector
    # supplies the missing norm
    d = np.diag([0.0, 0.0, 4.0])
    v = np.array([0.0, 0.0, 1.0])
    q, mu, hard = solve_gtrs(d, v)
    assert hard and abs(mu) < 1e-12
    assert abs(q[2] - 0.25) < 1e-12
    assert abs(np.linalg.norm(q) - 1.0) < 1e-12
    assert q[0] > 0.0  # deterministic orientation


def test_solve_gtrs_interior_v_large():
    # large v in a non-degenerate direction: generic root finding
    d = np.diag([1.0, 5.0, 9.0])
    v = np.array([2.0, -3.0, 6.0])
    q, mu, hard = solve_gtrs(d, v)
    assert not hard
    assert abs(np.linalg.norm(q) - 1.0) < 1e-10
    np.testing.assert_allclose((d + mu * np.eye(3)) @ q, v, atol=1e-8)


def test_solve_gtrs_against_dense_grid(rng):
    monomials = quadratic_monomials(fibonacci_points(200_000))
    for trial in range(50):
        a = rng.standard_normal((3, 3))
        d = a @ a.T * rng.uniform(0.1, 10.0)
        v = rng.standard_normal(3) * rng.uniform(0.0, 5.0)
        q, _, _ = solve_gtrs(d, v)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-10
        val = q @ d @ q - 2.0 * v @ q
        assert val <= (monomials @ gtrs_coefficients(d, v)).min() + 1e-4
        # stationarity on the sphere: the Euclidean gradient is radial
        grad = 2.0 * (d @ q - v)
        tangential = grad - (grad @ q) * q
        assert np.linalg.norm(tangential) <= 1e-8 * max(np.linalg.norm(grad), 1.0)


@st.composite
def gtrs_problems(draw):
    """D = Q diag(lam) Q^T and v = Q w, with repeated bottom eigenvalues and v
    (nearly) orthogonal to the bottom eigenvector drawn often."""
    lam = np.sort(draw(arrays(float, 3, elements=st.floats(0.0, 100.0))))
    if draw(st.booleans()):
        lam[1] = lam[0]
    basis, _ = np.linalg.qr(draw(arrays(float, (3, 3), elements=st.floats(-1.0, 1.0))))
    w = draw(arrays(float, 3, elements=st.floats(-100.0, 100.0)))
    w[0] *= draw(st.sampled_from([0.0, 1e-14, 1e-12, 1e-10, 1.0]))
    return basis @ np.diag(lam) @ basis.T, basis @ w


# scale 5, so the hard-case threshold is 5e-12: bottom component at twice it
_D_EDGE = np.diag([1.0, 2.0, 5.0])
# two bottom eigenvalues 0.5 threshold apart, bottom components just above it
_D_SPLIT = np.diag([1.0, 1.0 + 2.5e-12, 5.0])


@settings(max_examples=300, deadline=None)
@given(gtrs_problems())
@example((_D_EDGE, np.array([1e-11, 0.5, 0.5])))
@example((_D_EDGE, np.array([1e-12, 0.0, 8.0])))
@example((_D_EDGE, np.array([1e-12, 0.0, 4.0 + 1e-10])))
@example((_D_SPLIT, np.array([6e-12, 6e-12, 0.5])))
@example((_D_SPLIT, np.array([-6e-12, 0.0, 2.0])))
# ||q(-lambda_min)||^2 rounds to 1 + eps while its square root rounds to 1
@example((np.diag([0.0, 17.0, 17.0]), np.array([0.0, 17.0, 17.0 * 1.1e-8])))
@example((np.diag([1.0, 2.0, 3.0]), np.zeros(3)))
@example((2.5 * np.eye(3), np.array([0.3, -1.0, 0.2])))
@example((2.5 * np.eye(3), np.zeros(3)))
def test_solve_gtrs_optimality_certificate(problem):
    # q is a global minimizer on the sphere iff ||q|| = 1, (D + mu I) q = v
    # and D + mu I is positive semi-definite, i.e. mu >= -lambda_min
    d, v = problem
    lam = np.linalg.eigvalsh(d)
    scale = max(np.abs(lam).max(), np.linalg.norm(v), 1.0)
    q, mu, _ = solve_gtrs(d, v)
    assert abs(np.linalg.norm(q) - 1.0) < 1e-12
    assert mu >= -lam[0] - 1e-12 * scale
    assert np.linalg.norm((d + mu * np.eye(3)) @ q - v) <= 1e-8 * scale


def test_linear_update_explicit(rng):
    # lambda_max(diag(1, 2, 3)) = 3: g = v - D q_hat + 3 q_hat = (0.5, 0, 0)
    q_hat = np.array([0.0, 0.0, 1.0])
    q = linear_update(np.diag([1.0, 2.0, 3.0]), np.array([0.5, 0.0, 0.0]), q_hat)
    np.testing.assert_allclose(q, [1.0, 0.0, 0.0], atol=1e-15)
    # random PSD systems
    for _ in range(50):
        a = rng.standard_normal((3, 3))
        D = a @ a.T * 10.0 ** rng.uniform(-3, 3)
        v = rng.standard_normal(3)
        q_hat = random_unit(rng)
        q = linear_update(D, v, q_hat)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-15
        np.testing.assert_allclose(q, _linear_step(D, v, q_hat), rtol=0, atol=1e-14)
    # degenerate gradient keeps the iterate in place
    np.testing.assert_allclose(
        linear_update(np.zeros((3, 3)), np.zeros(3), q_hat), q_hat, atol=1e-15
    )


def test_linear_two_source_music_accuracy():
    # 20 two-source MUSIC scenes, 12 mics, G = 100, 50 frames, 20 dB, s = -3,
    # linear at T = 30: with C = lambda_max(D) the median error reads 0.11 deg
    # (0.11-0.26 deg over master seeds 0-7); with the looser pair-Gram bound
    # max(xi) lambda_max(sum delta delta^T) it read 1.69 deg (0.97-3.7 deg)
    config = MonteCarloConfig(
        geometry=random_geometry(num_sensors=12, radius=0.1, seed=0),
        estimators=("music",),
        variants=("linear",),
        snr_values=(20.0,),
        num_sources=2,
        num_trials=20,
        num_frames=50,
        master_seed=0,
    )
    median = monte_carlo(config).medians[("music", -3.0, 100, "linear", 30, 20.0)]
    assert median < 0.5


def test_refine_zero_iterations(rng):
    spec, geom = random_spec(seed=7)
    q0 = random_unit(rng)
    trace = refine(PairCoefficients.from_cost_spec(spec, geom, -1.0), q0, max_iters=0)
    assert len(trace.iterates) == 1
    np.testing.assert_allclose(trace.iterates[0], q0, atol=1e-12)
    assert abs(trace.objectives[0] - objective(spec, geom, q0, -1.0)) < 1e-10


def test_refine_rejects_bad_args():
    coeffs = PairCoefficients.from_cost_spec(*random_spec(seed=7), -1.0)
    with pytest.raises(ValueError):
        refine(coeffs, np.array([1.0, 0, 0]), variant="cubic")
    with pytest.raises(ValueError):
        refine(coeffs, np.array([1.0, 0, 0]), max_iters=-1)
    with pytest.raises(ValueError, match="max_iters must be non-negative, got True"):
        refine(coeffs, np.array([1.0, 0, 0]), max_iters=True)


def test_refine_takes_integer_valued_max_iters_only():
    # the step cap is a count: 2.5 is refused (it would cap at 2), 3.0 is 3
    coeffs = PairCoefficients.from_cost_spec(*random_spec(seed=7), -1.0)
    q0 = np.array([1.0, 0, 0])
    with pytest.raises(ValueError, match="max_iters must be an integer, got 2.5"):
        refine(coeffs, q0, max_iters=2.5)
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        refine(coeffs, q0, max_iters=np.float64(np.inf))
    assert refine(coeffs, q0, max_iters=3.0).objectives == refine(
        coeffs, q0, max_iters=3).objectives


@pytest.mark.parametrize("rel_tol", [float("nan"), -1.0, float("inf"), True, "1e-10", None],
                         ids=["nan", "negative", "inf", "bool", "string", "null"])
def test_refine_rejects_bad_rel_tol(rel_tol):
    coeffs = PairCoefficients.from_cost_spec(*random_spec(seed=7), -1.0)
    with pytest.raises(ValueError, match="rel_tol"):
        refine(coeffs, np.array([1.0, 0, 0]), rel_tol=rel_tol)


@pytest.mark.parametrize("variant", ["quadratic", "linear"])
@pytest.mark.parametrize("s", [-3.0, -1.0, 0.5, 1.0])
def test_refine_monotone_descent(variant, s, rng):
    # a seed per parameter pair that, unlike hash() of a str, is the same in
    # every process
    seed = zlib.crc32(repr((variant, s)).encode()) % 1000
    spec, geom = random_spec(num_sensors=6, num_bands=5, seed=seed)
    q0 = random_unit(rng)
    trace = refine(PairCoefficients.from_cost_spec(spec, geom, s), q0, variant=variant,
                   max_iters=25)
    objs = np.array(trace.objectives)
    assert np.all(np.diff(objs) <= 1e-10 * np.maximum(np.abs(objs[:-1]), 1.0))
    for q in trace.iterates:
        assert abs(np.linalg.norm(q) - 1.0) < 1e-10


@pytest.mark.parametrize("variant", ["quadratic", "linear"])
def test_refine_recovers_rank_one_source(variant, rng):
    geom = random_geometry(num_sensors=8, seed=21)
    qstar = random_unit(rng)
    freqs = np.linspace(500.0, 4000.0, 8)
    mats = []
    for f in freqs:
        w = 2 * np.pi * f / geom.speed_of_sound
        a = steering_vector(geom, w, qstar)
        mats.append(np.outer(a, a.conj()))
    cov = CovarianceSet(np.stack(mats), freqs)
    coeffs = PairCoefficients.from_cost_spec(srp_cost_spec(cov), geom, 0.5)
    # start 10 degrees off the source
    axis = np.cross(qstar, random_unit(rng))
    axis /= np.linalg.norm(axis)
    angle = np.radians(10.0)
    q0 = qstar * np.cos(angle) + np.cross(axis, qstar) * np.sin(angle)
    trace = refine(coeffs, q0, variant=variant, max_iters=60)
    err = np.degrees(great_circle_distance(trace.iterates[-1], qstar))
    assert err < 0.01


def test_refine_fixed_point_at_stationary(rng):
    # the converged point is numerically stationary: re-refining from it
    # barely moves (some starts take over 200 steps to converge here)
    spec, geom = random_spec(num_sensors=6, num_bands=4, seed=55)
    coeffs = PairCoefficients.from_cost_spec(spec, geom, -1.0)
    trace = refine(coeffs, random_unit(rng), max_iters=500)
    assert trace.converged_at is not None
    q = trace.iterates[-1]
    again = refine(coeffs, q, max_iters=5)
    assert great_circle_distance(again.iterates[-1], q) < 1e-5


def test_refine_scale_invariant(rng):
    # scaling every cost matrix rescales the objective but leaves the
    # iterate sequence unchanged
    spec, geom = random_spec(num_sensors=5, num_bands=3, seed=91)
    scaled = CovarianceSet(4.0 * spec.matrices, spec.band_frequencies)
    q0 = random_unit(rng)
    a = refine(PairCoefficients.from_cost_spec(spec, geom, -3.0), q0, max_iters=10)
    b = refine(PairCoefficients.from_cost_spec(scaled, geom, -3.0), q0, max_iters=10)
    for qa, qb in zip(a.iterates, b.iterates):
        np.testing.assert_allclose(qa, qb, atol=1e-9)
    np.testing.assert_allclose(
        np.array(b.objectives), 4.0 * np.array(a.objectives), rtol=1e-9
    )


def test_refine_convergence_flag(rng):
    spec, geom = random_spec(num_sensors=6, num_bands=4, seed=13)
    coeffs = PairCoefficients.from_cost_spec(spec, geom, -1.0)
    trace = refine(coeffs, random_unit(rng), max_iters=200, rel_tol=1e-10)
    assert trace.converged_at is not None
    assert trace.converged_at < 200
    assert len(trace.iterates) == trace.converged_at + 1


@pytest.mark.parametrize("variant", ["quadratic", "linear"])
def test_refine_evaluates_one_power_mean_per_evaluation(monkeypatch, rng, variant):
    # the surrogate at an iterate reuses the mean its evaluation produced, and
    # a rejected extrapolation costs one evaluation and nothing more
    calls = []

    def counting_power_mean(values, s):
        calls.append(s)
        return power_mean(values, s)

    monkeypatch.setattr(sys.modules[refine.__module__], "power_mean", counting_power_mean)
    spec, geom = random_spec(num_sensors=6, num_bands=4, seed=13)
    coeffs = PairCoefficients.from_cost_spec(spec, geom, -1.0)
    trace = refine(coeffs, random_unit(rng), variant=variant, max_iters=20)
    assert len(trace.objectives) > 2
    assert len(calls) == trace.evaluations >= len(trace.objectives)


def test_squarem_point_extrapolates_a_linear_sequence(rng):
    # maps that shrink the error by the same factor each time: the SqS3
    # point lands on their limit, up to the sphere's curvature at the step
    limit, error = random_unit(rng), 1e-3 * random_unit(rng)
    q0, q1, q2 = (limit + 0.8 ** n * error for n in range(3))
    q0, q1, q2 = (q / np.linalg.norm(q) for q in (q0, q1, q2))
    x = _squarem_point(q0, q1, q2)
    assert abs(np.linalg.norm(x) - 1.0) < 1e-15
    assert great_circle_distance(x, limit) < 1e-2 * great_circle_distance(q2, limit)


def test_squarem_point_needs_alpha_below_minus_one(rng):
    q = random_unit(rng)
    assert _squarem_point(q, q, q) is None  # no move
    # q2 back at q0: ||v|| = 2 ||r||, alpha = -1/2
    other = random_unit(rng)
    assert _squarem_point(q, other, q) is None
    # equal steps along a line, exact in binary: v = 0, alpha = -inf
    start, step = np.array([1.0, 0.0, 0.0]), np.array([0.0, 2.0 ** -10, 0.0])
    assert _squarem_point(start, start + step, start + 2.0 * step) is None


def _scene_starts(estimator, seed=0):
    """A two-source 12-mic scene's cost spec at s = -3 and its 100-point grid
    peaks: the starts a coarse locate refines."""
    geom = random_geometry(num_sensors=12, radius=0.1, seed=seed)
    sources = random_sources(np.random.default_rng(seed), 2, np.radians(15.0))
    scene = Scene(geom, sources, snr_db=10.0, seed=seed, band_gain_spread_db=12.0)
    frames = synth_stft_scene(scene, frame_size=256, num_frames=100)
    spec = build_cost_spec(estimator_covariance(frames, estimator), estimator, 2)
    grid = fibonacci_grid(100)
    peaks = grid_search(power_mean(band_powers(spec, geom, grid.points), -3.0), grid, 2,
                        np.radians(10.0))
    return spec, geom, [q0 for q0, _ in peaks]


@pytest.mark.parametrize("variant", ["quadratic", "linear"])
@pytest.mark.parametrize("estimator", ["music", "srp-phat", "mvdr"])
def test_refine_limit_matches_plain_mm(estimator, variant):
    # the extrapolation changes the path, not where it ends: run to
    # rel_tol = 0, the accelerated refine and the plain MM loop stop at the
    # same point, and the accelerated one never needs more MM steps to get
    # within 1e-3 deg of it
    spec, geom, starts = _scene_starts(estimator)
    coeffs = PairCoefficients.from_cost_spec(spec, geom, -3.0)
    for q0 in starts:
        fast = refine(coeffs, q0, variant=variant, max_iters=10_000, rel_tol=0.0)
        slow = plain_mm(spec, geom, q0, -3.0, variant=variant, max_iters=10_000, rel_tol=0.0)
        assert fast.converged_at is not None and slow.converged_at is not None
        limit = slow.iterates[-1]
        assert np.degrees(great_circle_distance(fast.iterates[-1], limit)) < 1e-5

        def steps_to_limit(trace):
            off = np.degrees(great_circle_distance(np.array(trace.iterates), limit))
            return int(np.argmax(off < 1e-3))

        assert steps_to_limit(fast) <= steps_to_limit(slow)


@pytest.mark.parametrize("estimator, seed, variant", [
    ("music", 3, "linear"), ("mvdr", 3, "quadratic"), ("srp-phat", 0, "quadratic"),
])
def test_refine_at_zero_tolerance_stops_once_the_objective_stops_decreasing(
        estimator, seed, variant):
    # a start of each scene reaches its final objective within 30 steps and
    # then holds it exactly; rel_tol = 0 stops after two steps that do not
    # decrease the objective, not at the step cap
    spec, geom, starts = _scene_starts(estimator, seed=seed)
    coeffs = PairCoefficients.from_cost_spec(spec, geom, -3.0)
    for q0 in starts:
        trace = refine(coeffs, q0, variant=variant, max_iters=2000, rel_tol=0.0)
        objs = trace.objectives
        assert trace.converged_at is not None and trace.converged_at < 100
        assert not objs[-1] < objs[-2] and not objs[-2] < objs[-3]


def test_refine_steps_are_maps_and_accepted_extrapolations(rng):
    # every recorded step lowers the objective (or keeps it), the cap
    # counts steps, not evaluations, and a refine that hits the cap reports
    # no convergence
    spec, geom, starts = _scene_starts("music")
    coeffs = PairCoefficients.from_cost_spec(spec, geom, -3.0)
    for max_iters in (1, 2, 3, 7, 30):
        for q0 in starts:
            trace = refine(coeffs, q0, max_iters=max_iters)
            steps = len(trace.objectives) - 1
            assert len(trace.iterates) == steps + 1
            assert steps <= max_iters and trace.evaluations >= steps + 1
            assert (trace.converged_at is None) == (steps == max_iters)
            objs = np.array(trace.objectives)
            assert np.all(np.diff(objs) <= 1e-9 * np.abs(objs[:-1]))


def test_iteration_cost_scales_with_pairs_and_bands(rng):
    # one surrogate build touches every (band, pair) product once; doubling
    # the work should not blow past linear growth by much
    import time

    def build_time(num_sensors, num_bands, reps=20):
        spec, geom = random_spec(num_sensors=num_sensors, num_bands=num_bands, seed=3)
        coeffs = PairCoefficients.from_cost_spec(spec, geom, -1.0)
        q = random_unit(rng)
        evaluated = pair_band_powers(coeffs, q)
        surrogate_system(coeffs, q, evaluated)  # warm up
        best = np.inf
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(reps):
                surrogate_system(coeffs, q, evaluated)
            best = min(best, time.perf_counter() - start)
        return best / reps

    small = build_time(6, 8)
    large = build_time(12, 32)  # 4.4x pairs, 4x bands -> ~17x work
    # generous slack: only guard against superquadratic blowup
    assert large < 400.0 * small


STFT_FREQUENCIES = {
    "stft-52": np.arange(5, 57) * 62.5,
    "stft-1025": np.arange(1025) * 16000.0 / 2048,
    "uneven": hertz(np.sort(np.random.default_rng(7).uniform(5.0, 70.0, 52))),
}


def _psd_spec(freqs, num_sensors, seed):
    local = np.random.default_rng(seed)
    a = local.standard_normal((freqs.size, num_sensors, 3)) + 1j * local.standard_normal(
        (freqs.size, num_sensors, 3)
    )
    return CovarianceSet(a @ np.swapaxes(a.conj(), 1, 2) / num_sensors, freqs)


def test_pair_coefficients_pairs():
    geom = random_geometry(num_sensors=5, seed=3)
    spec = _psd_spec(STFT_FREQUENCIES["stft-52"], 5, seed=3)
    coeffs = PairCoefficients.from_cost_spec(spec, geom, -1.0)
    assert coeffs.pairs.shape == (2, 10)
    assert len({(m, r) for m, r in coeffs.pairs.T}) == 10
    for (m, r), delta in zip(coeffs.pairs.T, coeffs.deltas):
        assert m < r
        np.testing.assert_array_equal(delta, geom.sensors[m] - geom.sensors[r])
    np.testing.assert_array_equal(coeffs.omega, geom.wavenumbers(spec.band_frequencies))


@pytest.mark.parametrize("kind", STFT_FREQUENCIES)
def test_pair_band_powers_matches_steering_on_band_grids(kind, rng):
    # the pair phasors come from the band recurrence on evenly spaced bands
    spec = _psd_spec(STFT_FREQUENCIES[kind], 8, seed=3)
    geom = random_geometry(num_sensors=8, seed=9)
    coeffs = PairCoefficients.from_cost_spec(spec, geom, -1.0)
    assert (coeffs.rates is None) == (kind == "uneven")
    omega = geom.wavenumbers(spec.band_frequencies)
    scale = np.trace(spec.matrices, axis1=1, axis2=2).real / 8
    for _ in range(5):
        q = random_unit(rng)
        via_pairs = pair_band_powers(coeffs, q)[0]
        direct = np.array([
            (a.conj() @ v @ a).real
            for a, v in zip((steering_vector(geom, w, q) for w in omega), spec.matrices)
        ])
        assert np.max(np.abs(via_pairs - direct) / scale) <= 1e-12


def _surrogate_oracle(spec, geom, q_hat, s):
    # the surrogate as wrap_phase and unnormalized_sinc define it: one cosine
    # pass for the band powers, then the wrapped expansion phases and weights
    n = geom.num_sensors
    m, r = np.triu_indices(n, k=1)
    deltas = geom.sensors[m] - geom.sensors[r]
    omega = 2 * np.pi * spec.band_frequencies / geom.speed_of_sound
    entries = spec.matrices[:, m, r]
    mags, phases = np.abs(entries), np.angle(entries)
    b_dot = np.outer(omega, deltas @ q_hat)
    traces = np.trace(spec.matrices, axis1=1, axis2=2).real
    powers = traces / n + 2.0 / n * np.sum(mags * np.cos(phases - b_dot), axis=1)
    y = np.maximum(powers, 1e-30)
    beta = (y / power_mean(y, s)) ** (s - 1.0) / y.size
    psi_hat, weight = cosine_surrogate_coeffs(phases, b_dot)
    scale = beta[:, None] / n
    u_hat = mags * weight
    xi = np.sum(omega[:, None] ** 2 * scale * u_hat, axis=0)
    gamma = np.sum(omega[:, None] * scale * u_hat * psi_hat, axis=0)
    d = np.einsum("p,pi,pj->ij", xi, deltas, deltas)
    return d, gamma @ deltas


@pytest.mark.parametrize("kind", ["stft-52", "uneven"])
@pytest.mark.parametrize("s", [-3.0, 0.5])
def test_surrogate_matches_wrap_sinc_oracle(kind, s, rng):
    spec = _psd_spec(STFT_FREQUENCIES[kind], 6, seed=11)
    geom = random_geometry(num_sensors=6, seed=12)
    coeffs = PairCoefficients.from_cost_spec(spec, geom, s)
    for _ in range(10):
        q_hat = random_unit(rng)
        d_ref, v_ref = _surrogate_oracle(spec, geom, q_hat, s)
        D, v = surrogate_system(coeffs, q_hat, pair_band_powers(coeffs, q_hat))
        np.testing.assert_allclose(D, d_ref, rtol=0, atol=1e-12 * np.abs(d_ref).max())
        np.testing.assert_allclose(v, v_ref, rtol=0, atol=1e-12 * np.abs(v_ref).max())


def test_pair_band_powers_flat_at_exact_null():
    # noise-free single-source MUSIC: every band power is 0 at the source and
    # each pair cosine sits at a stationary point, so moving q by far less
    # than any resolvable angle must leave the powers bit for bit unchanged
    # (the objective at s < 0 counts the bands that round below EPS_POWER)
    geom = random_geometry(num_sensors=8, seed=3)
    qstar = np.array([0.3, -0.4, 0.866])
    qstar /= np.linalg.norm(qstar)
    freqs = STFT_FREQUENCIES["stft-52"]
    steer = np.stack([steering_vector(geom, w, qstar) for w in geom.wavenumbers(freqs)])
    projectors = np.eye(8) - steer[:, :, None] * steer[:, None, :].conj()
    coeffs = PairCoefficients.from_cost_spec(CovarianceSet(projectors, freqs), geom, -10.0)
    at_null = pair_band_powers(coeffs, qstar)[0]
    assert np.max(np.abs(at_null)) < 1e-14
    local = np.random.default_rng(0)
    for eps in (1e-14, 1e-12, 1e-10):
        q = qstar + eps * local.standard_normal(3)
        np.testing.assert_array_equal(
            pair_band_powers(coeffs, q / np.linalg.norm(q))[0], at_null
        )


@pytest.fixture(scope="module")
def many_sensor_specs():
    """The srp, music and mvdr cost specs, refined at s = -1, of a two-source 64-mic
    scene over all 257 bands of 512-point frames: the many-sensor,
    many-band edge of the input domain."""
    geom = random_geometry(num_sensors=64, radius=0.1, seed=5)
    sources = random_sources(np.random.default_rng(5), 2, np.radians(15.0))
    frames = synth_stft_scene(Scene(geom, sources, snr_db=10.0, seed=5), frame_size=512,
                              num_frames=80, f_min=0.0, f_max=8000.0)
    return geom, {estimator: build_cost_spec(estimator_covariance(frames, estimator),
                                             estimator, 2)
                  for estimator in ("srp", "music", "mvdr")}


@pytest.mark.parametrize("variant", ["quadratic", "linear"])
@pytest.mark.parametrize("estimator", ["srp", "music", "mvdr"])
def test_refine_descends_on_the_sphere_with_many_sensors_and_bands(many_sensor_specs,
                                                                   estimator, variant):
    # criterion 3's checks at M = 64 and K = 257
    geom, specs = many_sensor_specs
    spec = specs[estimator]
    assert geom.num_sensors == 64 and spec.band_frequencies.size == 257
    q0 = random_unit(np.random.default_rng(64))
    trace = refine(PairCoefficients.from_cost_spec(spec, geom, -1.0), q0, variant=variant,
                   max_iters=30, rel_tol=0.0)
    objs = np.array(trace.objectives)
    assert objs.size > 2
    assert np.all(np.diff(objs) <= 1e-9 * np.abs(objs[:-1]))
    assert np.max(np.abs(np.linalg.norm(trace.iterates, axis=1) - 1.0)) <= 1e-12


@pytest.mark.parametrize("estimator", ["srp", "music", "mvdr"])
def test_band_powers_do_not_move_with_the_array(many_sensor_specs, estimator):
    # moving the array by t turns every sensor's plane-wave phasor by the
    # same exp(j w t . q), which each band's quadratic form cancels: the
    # grid pass and the pair form read the same band powers, to rounding
    geom, specs = many_sensor_specs
    spec = specs[estimator]
    moved = ArrayGeometry(geom.sensors + np.array([2.0, -3.0, 1.5]), geom.speed_of_sound)
    scale = np.trace(spec.matrices, axis1=1, axis2=2).real[:, None] / geom.num_sensors
    points = fibonacci_points(200)
    at, there = band_powers(spec, geom, points), band_powers(spec, moved, points)
    assert np.max(np.abs(there - at) / scale) <= 1e-12
    coeffs, moved_coeffs = (PairCoefficients.from_cost_spec(spec, g, -1.0) for g in (geom, moved))
    at, there = (np.stack([pair_band_powers(c, q)[0] for q in points[::20]], axis=1)
                 for c in (coeffs, moved_coeffs))
    assert np.max(np.abs(there - at) / scale) <= 1e-12


@functools.cache
def _bit_guard_scene(num_sensors, snr_db, spacing):
    # a two-source scene on an M-mic array, its 12 STFT bands in 300-1000 Hz
    # or uneven ones, and each estimator's covariance
    geom = random_geometry(num_sensors=num_sensors, radius=0.1, seed=2)
    sources = random_sources(np.random.default_rng(2), 2, np.radians(30.0))
    frames = synth_stft_scene(Scene(geom, sources, snr_db=snr_db, seed=2), frame_size=256,
                              num_frames=40, f_min=300.0, f_max=1000.0)
    covs = {}
    for estimator in ("srp", "srp-phat", "music", "mvdr"):
        cov = estimator_covariance(frames, estimator)
        if spacing == "uneven":
            cov = CovarianceSet(cov.matrices, STFT_FREQUENCIES["uneven"][: cov.num_bands])
        covs[estimator] = cov
    return geom, covs


def _same_trace(a, b):
    return (np.array_equal(a.iterates, b.iterates) and a.objectives == b.objectives
            and a.evaluations == b.evaluations and a.converged_at == b.converged_at)


@pytest.mark.parametrize("num_sensors, snr_db, spacing", [
    *itertools.product([12], [20.0, 0.0, np.inf], ["even", "uneven"]),
    (64, 20.0, "even"), (64, 0.0, "uneven"), (64, np.inf, "even"),
])
@pytest.mark.parametrize("estimator", ["srp", "srp-phat", "music", "mvdr"])
def test_refine_keeps_the_reference_step_bits(monkeypatch, estimator, num_sensors, snr_db,
                                              spacing):
    # the MM step without per-step setup (rates and near-null floor built
    # once per spec, the GTRS Newton step unrolled) gives every trace of the
    # step as first written, bit for bit: iterates, objectives, evaluations
    # and converged_at, from a coarse grid's two peaks
    geom, covs = _bit_guard_scene(num_sensors, snr_db, spacing)
    grid = fibonacci_grid(100)
    module = sys.modules[refine.__module__]
    spec = build_cost_spec(covs[estimator], estimator, 2)
    for s in (-10.0, -3.0, -1.0, 0.5, 1.0):
        coeffs = PairCoefficients.from_cost_spec(spec, geom, s)
        peaks = grid_search(power_mean(band_powers(spec, geom, grid.points), s), grid, 2,
                            np.radians(10.0))
        for (q0, _), variant, rel_tol in itertools.product(
                peaks, ("quadratic", "linear"), (1e-10, 0.0)):
            got = refine(coeffs, q0, variant=variant, rel_tol=rel_tol)
            with monkeypatch.context() as patch:
                for name, reference in REFERENCE_STEP.items():
                    patch.setattr(module, name, reference)
                want = refine(coeffs, q0, variant=variant, rel_tol=rel_tol)
            assert _same_trace(got, want), (s, variant, rel_tol, q0)


def _gtrs_edge_problems():
    # diagonal D, so eigh returns its entries exactly: gap_1 = lambda_1 and
    # |w_0| = |v_0| sit one ulp below, at and one ulp above the threshold
    # 1e-12 * scale (scale 5 from lambda_max), then repeated eigenvalues,
    # D = 0, v = 0 and the hard cases of the optimality certificate
    tiny = 1e-12 * 5.0
    near = (np.nextafter(tiny, 0.0), tiny, np.nextafter(tiny, 1.0))
    for gap, w0, sign in itertools.product(near + (0.0, 1.0), near + (0.0, 0.5), (1.0, -1.0)):
        for rest in ([0.5, 0.5], [0.0, 8.0], [0.0, 0.1], [1e-13, 2.0]):
            yield np.diag([0.0, gap, 5.0]), np.array([sign * w0, *rest])
    yield np.diag([1.0, 1.0, 5.0]), np.array([0.3, -0.2, 0.5])
    yield np.diag([2.0, 2.0, 2.0]), np.array([0.3, -1.0, 0.2])
    yield 2.5 * np.eye(3), np.zeros(3)
    yield np.zeros((3, 3)), np.array([0.0, 3.0, 4.0])
    yield np.zeros((3, 3)), np.zeros(3)
    yield np.diag([1.0, 2.0, 3.0]), np.zeros(3)
    yield np.diag([0.0, 0.0, 4.0]), np.array([0.0, 0.0, 1.0])
    yield np.diag([0.0, 17.0, 17.0]), np.array([0.0, 17.0, 17.0 * 1.1e-8])
    yield np.diag([1.0, 1.0 + 2.5e-12, 5.0]), np.array([6e-12, 6e-12, 0.5])
    yield np.diag([1.0, 1.0 + 2.5e-12, 5.0]), np.array([-6e-12, 0.0, 2.0])


def _gtrs_random_problems(count, seed=11):
    # PSD matrices over many scales, half of them Q diag(lam) Q^T with a
    # repeated bottom eigenvalue or v (nearly) orthogonal to its eigenvector
    local = np.random.default_rng(seed)
    for i in range(count):
        if i % 2:
            a = local.standard_normal((3, 3))
            d = a @ a.T * 10.0 ** local.uniform(-6, 6)
            v = local.standard_normal(3) * 10.0 ** local.uniform(-6, 6)
        else:
            lam = np.sort(local.uniform(0.0, 100.0, 3))
            if local.random() < 0.5:
                lam[1] = lam[0]
            basis, _ = np.linalg.qr(local.uniform(-1.0, 1.0, (3, 3)))
            w = local.uniform(-100.0, 100.0, 3)
            w[0] *= local.choice([0.0, 1e-14, 1e-12, 1e-10, 1.0])
            d, v = basis @ np.diag(lam) @ basis.T, basis @ w
        yield d, v


def test_solve_gtrs_keeps_the_reference_bits():
    # the unrolled Newton step of the simple-bottom case and the untouched
    # degenerate and hard-case branches give the reference's q, mu and
    # hard-case flag, bit for bit
    problems = itertools.chain(_gtrs_edge_problems(), _gtrs_random_problems(20_000))
    for d, v in problems:
        q, mu, hard = solve_gtrs(d, v)
        q_ref, mu_ref, hard_ref = reference_solve_gtrs(d, v)
        assert np.array_equal(q, q_ref) and mu == mu_ref and hard == hard_ref, (d, v)


def test_refine_stops_at_an_objective_of_zero(monkeypatch):
    # noise-free two-source MUSIC at s = 1 on 32 mics: an iterate of the
    # second peak rounds every band power to 0 or below, so the power mean
    # is exactly 0, the global minimum; refine stops there as converged
    # instead of building a surrogate whose band weights divide by that 0
    geom = random_geometry(32, 0.1, seed=5)
    sources = random_sources(np.random.default_rng(5), 2, np.radians(30.0))
    frames = synth_stft_scene(Scene(geom, sources, snr_db=np.inf, seed=5), frame_size=256,
                              num_frames=60)
    built = []

    def checked_surrogate(coeffs, q_hat, evaluated):
        built.append(evaluated[2])
        return surrogate_system(coeffs, q_hat, evaluated)

    monkeypatch.setattr(sys.modules[refine.__module__], "surrogate_system", checked_surrogate)
    traces = locate_sources(estimator_covariance(frames, "music"), geom, fibonacci_grid(100),
                            estimator="music", s=1.0, num_sources=2, variant="quadratic",
                            max_iters=30, min_separation_rad=np.radians(10.0))
    last = traces[1]
    assert last.objectives[-1] == 0.0 and 0.0 not in last.objectives[:-1]
    assert last.converged_at == len(last.objectives) - 1 < 30
    assert built and 0.0 not in built
