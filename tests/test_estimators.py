import functools
import tracemalloc

import numpy as np
import pytest

from doakit.estimators import (
    _BLOCK_BYTES,
    EPS_POWER,
    CostSpec,
    band_powers,
    common_step,
    gershgorin_shift,
    grid_search,
    music_cost_spec,
    mvdr_cost_spec,
    power_mean,
    srp_cost_spec,
)
from doakit.manifold import (
    ArrayGeometry,
    fibonacci_grid,
    great_circle_distance,
    random_geometry,
)
from doakit.refine import PairCoefficients, pair_band_powers
from doakit.simulate import (
    Scene,
    build_cost_spec,
    estimator_covariance,
    random_sources,
    synth_stft_scene,
)
from doakit.spectral import CovarianceSet
from oracles import hertz, objective, steering_vector, symmetric_neighbors


@pytest.fixture
def rng():
    # a generator per test, so its inputs do not depend on which tests ran first
    return np.random.default_rng(2024)


def search(spec, geometry, grid, num_sources=1, min_separation=np.radians(10.0)):
    # the grid stage of locate_sources: band powers, their power mean, the pick
    values = power_mean(band_powers(spec, geometry, grid.points), spec.s)
    return grid_search(values, grid, num_sources, min_separation)


def random_unit(rng, n=None):
    q = rng.standard_normal(3 if n is None else (n, 3))
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def random_psd(rng, m, rank=None):
    a = rng.standard_normal((m, rank or m)) + 1j * rng.standard_normal((m, rank or m))
    return a @ a.conj().T / m


def rank_one_cov(geom, freqs, q):
    mats = []
    for f in freqs:
        a = steering_vector(geom, 2 * np.pi * f / geom.speed_of_sound, q)
        mats.append(np.outer(a, a.conj()))
    return CovarianceSet(np.stack(mats), np.asarray(freqs, float))


def test_gershgorin_identity():
    v = gershgorin_shift(np.eye(3))
    np.testing.assert_allclose(v, np.zeros((3, 3)), atol=1e-15)


def test_gershgorin_diagonal():
    v = gershgorin_shift(np.diag([1.0, 2.0]))
    np.testing.assert_allclose(v, np.diag([1.0, 0.0]), atol=1e-15)


def test_gershgorin_random_psd(rng):
    for _ in range(20):
        c = random_psd(rng, 6)
        v = gershgorin_shift(c)
        trace = np.trace(v).real
        assert np.linalg.eigvalsh(v).min() >= -1e-10 * max(trace, 1.0)


def test_cost_spec_validation():
    mats = np.stack([np.eye(2, dtype=complex)] * 2)
    CostSpec(mats, np.array([1.0, 2.0]), s=1.0)
    with pytest.raises(ValueError):
        CostSpec(mats, np.array([1.0, 2.0]), s=0.0)
    with pytest.raises(ValueError):
        CostSpec(mats, np.array([1.0, 2.0]), s=1.5)
    for s in (np.nan, -np.inf, "-1", None, True):
        with pytest.raises(ValueError, match="exponent s"):
            CostSpec(mats, np.array([1.0, 2.0]), s=s)
    for freqs in ([2.0, 1.0], [1.0, 1.0], [-1.0, 2.0], [np.nan, 2.0]):
        with pytest.raises(ValueError, match="non-negative and strictly increasing"):
            CostSpec(mats, np.array(freqs), s=-1.0)
    with pytest.raises(ValueError, match="band count"):
        CostSpec(mats, np.array([1.0, 2.0, 3.0]), s=-1.0)


def test_srp_spec_isotropic_degenerate():
    cov = CovarianceSet(np.stack([np.eye(4, dtype=complex)]), np.array([500.0]))
    spec = srp_cost_spec(cov, s=0.5)
    np.testing.assert_allclose(spec.matrices[0], np.zeros((4, 4)), atol=1e-15)


def test_srp_rank_one_grid_argmin(rng):
    geom = random_geometry(num_sensors=8, seed=11)
    qstar = random_unit(rng)
    cov = rank_one_cov(geom, [800.0, 1200.0, 1600.0], qstar)
    spec = srp_cost_spec(cov, s=0.5)
    grid = fibonacci_grid(10_000)
    values = power_mean(band_powers(spec, geom, grid.points), spec.s)
    best = grid.points[np.argmin(values)]
    covering = 2.0 * np.sqrt(4.0 * np.pi / grid.size)
    assert great_circle_distance(best, qstar) < covering


def test_srp_single_band_argmin_independent_of_s(rng):
    geom = random_geometry(num_sensors=6, seed=12)
    cov = rank_one_cov(geom, [1000.0], random_unit(rng))
    grid = fibonacci_grid(500)
    argmins = []
    for s in (0.5, -3.0):
        spec = srp_cost_spec(cov, s=s)
        values = power_mean(band_powers(spec, geom, grid.points), s)
        argmins.append(np.argmin(values))
    assert argmins[0] == argmins[1]


def test_music_spec_projector(rng):
    geom = random_geometry(num_sensors=6, seed=4)
    qstar = random_unit(rng)
    a = steering_vector(geom, 2 * np.pi * 1000.0 / geom.speed_of_sound, qstar)
    s = np.outer(a, a.conj()) + 0.01 * np.eye(6)
    cov = CovarianceSet(s[None], np.array([1000.0]))
    spec = music_cost_spec(cov, num_sources=1)
    v = spec.matrices[0]
    assert spec.s == -1.0
    assert abs((a.conj() @ v @ a).real) <= 1e-8
    np.testing.assert_allclose(v @ v, v, atol=1e-10)
    assert abs(np.trace(v).real - 5.0) < 1e-10


def test_music_rejects_too_many_sources():
    cov = CovarianceSet(np.stack([np.eye(3, dtype=complex)]), np.array([500.0]))
    with pytest.raises(ValueError):
        music_cost_spec(cov, num_sources=3)


@pytest.mark.parametrize("num_sources", [1.5, np.float64(2.5), np.inf, True])
def test_music_rejects_a_non_integer_source_count(num_sources):
    cov = CovarianceSet(np.stack([np.eye(4, dtype=complex)]), np.array([500.0]))
    with pytest.raises(ValueError, match="num_sources must be an integer with 1 <= L < M"):
        music_cost_spec(cov, num_sources=num_sources)
    assert music_cost_spec(cov, num_sources=2.0).matrices.shape == (1, 4, 4)


@pytest.mark.parametrize("loading", [np.nan, np.inf, -1e-3, True, "1e-3", None])
def test_mvdr_rejects_non_finite_or_negative_loading(loading):
    cov = CovarianceSet(np.stack([np.eye(2, dtype=complex)]), np.array([500.0]))
    with pytest.raises(ValueError, match="loading"):
        mvdr_cost_spec(cov, loading=loading)


def test_mvdr_spec():
    cov = CovarianceSet(np.stack([np.eye(2, dtype=complex)]), np.array([500.0]))
    spec = mvdr_cost_spec(cov, loading=0.0)
    np.testing.assert_allclose(spec.matrices[0], np.eye(2), atol=1e-12)

    cov = CovarianceSet(np.diag([1.0, 2.0]).astype(complex)[None], np.array([500.0]))
    spec = mvdr_cost_spec(cov, loading=0.0)
    np.testing.assert_allclose(spec.matrices[0], np.diag([1.0, 0.5]), atol=1e-12)


def test_mvdr_rejects_singular():
    x = np.array([1.0, 1.0 + 0j])
    cov = CovarianceSet(np.outer(x, x.conj())[None], np.array([500.0]))
    with pytest.raises(np.linalg.LinAlgError):
        mvdr_cost_spec(cov, loading=0.0)


@pytest.mark.parametrize(
    "values,s,expected",
    [
        ((1.0, 2.0, 3.0), 1.0, 2.0),
        ((1.0, 1.0), -1.0, 1.0),
        ((1.0, 3.0), -1.0, 1.5),
    ],
)
def test_power_mean_values(values, s, expected):
    assert abs(power_mean(np.array(values), s) - expected) < 1e-12


@pytest.mark.parametrize("tiny", [1e-30, 1e-12])
def test_power_mean_large_negative_s_does_not_underflow(tiny):
    # (1/2)^(-1/30) * tiny ~ 1.0234 * tiny: the large value's term vanishes
    expected = 2.0 ** (1.0 / 30.0) * tiny
    got = power_mean(np.array([tiny, 1.0]), -30.0)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def _power_mean_two_temporaries(values, s):
    # reference: the power mean with a fresh array for the ratios beside the
    # clamped copy
    values = np.maximum(values, EPS_POWER if s < 0 else 0.0)
    if s < 0:
        c = values.min(axis=0, keepdims=True)
    else:
        c = values.max(axis=0, keepdims=True)
        c[c <= 0.0] = 1.0
    ratios = values / c
    ratios **= s
    mean = np.add.reduce(ratios, axis=0) / values.shape[0]
    return c[0] * mean ** (1.0 / s)


@pytest.mark.parametrize("s", [-30.0, -3.0, -1.0, 0.5, 1.0])
def test_power_mean_leaves_its_input_and_keeps_its_bits(rng, s):
    values = rng.uniform(0.0, 5.0, (52, 1000)) * rng.uniform(1e-12, 1.0, 1000)
    values[:, :3] = 0.0  # all-zero columns
    values[rng.integers(52, size=200), rng.integers(1000, size=200)] = 0.0
    values[rng.integers(52, size=200), rng.integers(1000, size=200)] = -1e-17
    kept = values.copy()
    got = power_mean(values, s)
    np.testing.assert_array_equal(values, kept)
    np.testing.assert_array_equal(got, _power_mean_two_temporaries(kept, s))


def test_power_mean_monotone_in_s(rng):
    s_sweep = [-10.0, -3.0, -1.0, -0.5, 0.2, 0.5, 0.8, 1.0]
    for _ in range(200):
        y = rng.uniform(0.05, 5.0, size=6)
        means = [power_mean(y, s) for s in s_sweep]
        assert np.all(np.diff(means) >= -1e-10)


def test_power_mean_concave_tangent(rng):
    from doakit.refine import _band_weights

    for s in (-3.0, -1.0, 0.5, 1.0):
        for _ in range(100):
            y = rng.uniform(0.05, 5.0, size=8)
            y_hat = rng.uniform(0.05, 5.0, size=8)
            mean = power_mean(y_hat, s)
            grad = _band_weights(y_hat, s, mean)
            tangent = mean + grad @ (y - y_hat)
            assert tangent >= power_mean(y, s) - 1e-10


def test_objective_identity_matrices(rng):
    geom = random_geometry(num_sensors=5, seed=8)
    mats = np.stack([np.eye(5, dtype=complex)] * 3)
    spec = CostSpec(mats, hertz([10.0, 20.0, 30.0]), s=-1.0)
    for _ in range(5):
        assert abs(objective(spec, geom, random_unit(rng)) - 1.0) < 1e-12


def test_objective_rank_one_at_source(rng):
    geom = random_geometry(num_sensors=5, seed=8)
    qstar = random_unit(rng)
    a = steering_vector(geom, 2 * np.pi * 900.0 / geom.speed_of_sound, qstar)
    spec = CostSpec(np.outer(a, a.conj())[None], np.array([900.0]), s=0.5)
    assert abs(objective(spec, geom, qstar) - 1.0) < 1e-12


def test_objective_matches_cosine_expansion(rng):
    # two independent evaluation paths: steering quadratic form vs the
    # trace + pair-cosine expansion
    geom = random_geometry(num_sensors=4, seed=2)
    mats = np.stack([random_psd(rng, 4) for _ in range(6)])
    spec = CostSpec(mats, hertz(np.sort(rng.uniform(5, 60, 6))), s=-1.0)
    coeffs = PairCoefficients.from_cost_spec(spec, geom)
    for _ in range(20):
        q = random_unit(rng)
        direct = objective(spec, geom, q)
        expansion = power_mean(pair_band_powers(coeffs, q)[0], spec.s)
        assert abs(direct - expansion) < 1e-10


def test_objective_rotation_invariant(rng):
    geom = random_geometry(num_sensors=4, seed=2)
    mats = np.stack([random_psd(rng, 4) for _ in range(4)])
    spec = CostSpec(mats, hertz(np.sort(rng.uniform(5, 60, 4))), s=0.5)
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated = ArrayGeometry(geom.sensors @ rot.T, geom.speed_of_sound)
    for _ in range(10):
        q = random_unit(rng)
        a = objective(spec, geom, q)
        b = objective(spec, rotated, rot @ q)
        assert abs(a - b) < 1e-10


def test_objective_scale_covariance(rng):
    geom = random_geometry(num_sensors=4, seed=2)
    mats = np.stack([random_psd(rng, 4) for _ in range(4)])
    freqs = hertz(np.sort(rng.uniform(5, 60, 4)))
    spec = CostSpec(mats, freqs, s=-3.0)
    scaled = CostSpec(7.5 * mats, freqs, s=-3.0)
    grid = fibonacci_grid(300)
    q = random_unit(rng)
    assert abs(objective(scaled, geom, q) - 7.5 * objective(spec, geom, q)) < 1e-9
    a = search(spec, geom, grid, num_sources=2)
    b = search(scaled, geom, grid, num_sources=2)
    for (qa, _), (qb, _) in zip(a, b):
        np.testing.assert_array_equal(qa, qb)


def test_grid_search_single_source(rng):
    geom = random_geometry(num_sensors=8, seed=11)
    qstar = random_unit(rng)
    cov = rank_one_cov(geom, [1000.0], qstar)
    spec = srp_cost_spec(cov, s=0.5)
    grid = fibonacci_grid(10_000)
    peaks = search(spec, geom, grid, num_sources=1)
    assert len(peaks) == 1
    covering = 2.0 * np.sqrt(4.0 * np.pi / grid.size)
    assert great_circle_distance(peaks[0][0], qstar) < covering


def test_grid_search_flat_landscape():
    geom = random_geometry(num_sensors=4, seed=6)
    mats = np.stack([np.eye(4, dtype=complex)] * 2)
    spec = CostSpec(mats, hertz([10.0, 20.0]), s=-1.0)
    grid = fibonacci_grid(500)
    peaks = search(spec, geom, grid, num_sources=3, min_separation=np.radians(20))
    assert len(peaks) == 3
    values = [v for _, v in peaks]
    assert np.ptp(values) < 1e-12
    for i in range(3):
        for j in range(i + 1, 3):
            assert great_circle_distance(peaks[i][0], peaks[j][0]) >= np.radians(20)


def _local_minima_by_loop(values, grid):
    # reference: the per-point loop over each point's k nearest and every
    # point that counts it among its own
    return [i for i, row in enumerate(symmetric_neighbors(grid))
            if values[i] <= values[row].min()]


def test_grid_search_local_minima_match_loop(rng):
    # with no separation limit, asking for every local minimum returns
    # exactly them, by value
    geom = random_geometry(num_sensors=6, seed=8)
    mats = np.stack([random_psd(rng, 6) for _ in range(3)])
    spec = CostSpec(mats, hertz([20.0, 35.0, 50.0]), s=-1.0)
    grid = fibonacci_grid(2000)
    values = power_mean(band_powers(spec, geom, grid.points), spec.s)
    minima = _local_minima_by_loop(values, grid)
    assert len(minima) > 1
    peaks = grid_search(values, grid, len(minima), 0.0)
    expected = sorted(minima, key=lambda i: values[i])
    np.testing.assert_array_equal([p[0] for p in peaks], grid.points[expected])
    np.testing.assert_array_equal([p[1] for p in peaks], values[expected])


@pytest.mark.parametrize("kind", ["random", "ties", "nan"])
def test_grid_search_local_minima_match_loop_across_sizes(kind):
    # grid values drawn directly, from three levels for "ties", so a point
    # often equals some of its neighbors, and with one in ten NaN for "nan",
    # which is never a minimum and spoils its neighbors'
    local = np.random.default_rng(11)
    for count in [*range(4, 200), *range(200, 3001, 97), 10_000]:
        grid = fibonacci_grid(count)
        if kind == "ties":
            values = local.integers(0, 3, count).astype(float)
        else:
            values = local.standard_normal(count)
        if kind == "nan":
            values[local.random(count) < 0.1] = np.nan
        minima = _local_minima_by_loop(values, grid)
        if not minima:  # a small grid can be all NaN next to each point
            continue
        peaks = grid_search(values, grid, len(minima), 0.0)
        expected = sorted(minima, key=lambda i: values[i])
        np.testing.assert_array_equal([p[0] for p in peaks], grid.points[expected])


def test_grid_search_two_sources():
    geom = random_geometry(num_sensors=8, seed=13)
    q1 = np.array([1.0, 0.0, 0.0])
    q2 = np.array([0.0, 0.0, 1.0])
    freqs = np.linspace(500.0, 3500.0, 13)
    mats = []
    for f in freqs:
        w = 2 * np.pi * f / geom.speed_of_sound
        a1 = steering_vector(geom, w, q1)
        a2 = steering_vector(geom, w, q2)
        mats.append(np.outer(a1, a1.conj()) + np.outer(a2, a2.conj()))
    cov = CovarianceSet(np.stack(mats), np.asarray(freqs))
    spec = srp_cost_spec(cov, s=0.5)
    grid = fibonacci_grid(10_000)
    peaks = search(spec, geom, grid, num_sources=2, min_separation=np.radians(20))
    assert len(peaks) == 2
    covering = 2.0 * np.sqrt(4.0 * np.pi / grid.size)
    found = [p[0] for p in peaks]
    for target in (q1, q2):
        assert min(great_circle_distance(f, target) for f in found) < covering


# evenly spaced STFT bands (16 kHz; 256-point frames in 300-3500 Hz and
# every band of 2048-point frames) and sorted random ones: band_powers and
# the pair expansion's phasor table (test_refine) take the band recurrence on
# the evenly spaced ones and one cos and sin (or exp) per band on the others
FREQUENCY_KINDS = {
    "stft-52": np.arange(5, 57) * 62.5,
    "stft-1025": np.arange(1025) * 16000.0 / 2048,
    "uneven": hertz(np.sort(np.random.default_rng(7).uniform(5.0, 70.0, 52))),
}


@pytest.mark.parametrize("kind", FREQUENCY_KINDS)
@pytest.mark.parametrize("num_points", [1, 100, 10_000])
def test_band_powers_matches_steering_loop(kind, num_points):
    freqs = FREQUENCY_KINDS[kind]
    local = np.random.default_rng(num_points)
    geom = random_geometry(num_sensors=12, seed=5)
    mats = local.standard_normal((freqs.size, 12, 4)) + 1j * local.standard_normal(
        (freqs.size, 12, 4)
    )
    spec = CostSpec(mats @ np.swapaxes(mats.conj(), 1, 2), freqs, s=-1.0)
    omega = geom.wavenumbers(freqs)
    points = fibonacci_grid(max(num_points, 4)).points[:num_points]
    got = band_powers(spec, geom, points)
    # oracle: steering_vector for every band at up to 40 of the directions
    picks = np.unique(np.linspace(0, num_points - 1, 40).astype(int))
    for g in picks:
        expected = np.array([
            (a.conj() @ v @ a).real
            for a, v in zip(
                (steering_vector(geom, w, points[g]) for w in omega), spec.matrices
            )
        ])
        scale = np.trace(spec.matrices, axis1=1, axis2=2).real / 12
        assert np.max(np.abs(got[:, g] - expected) / scale) <= 1e-12


def _band_powers_band_by_band(spec, geometry, points):
    # reference: one spec's band loop written out, cos and sin of every band
    # and conj(a) taken per band
    omega = geometry.wavenumbers(spec.band_frequencies)
    tau = points @ geometry.sensors.T
    out = np.empty((spec.num_bands, points.shape[0]))
    for k, w in enumerate(omega):
        a = np.empty(tau.shape, dtype=complex)
        np.cos(tau * w, out=a.real)
        np.sin(tau * w, out=a.imag)
        out[k] = np.einsum("gm,gm->g", a.conj(), a @ spec.matrices[k].T).real
    return out / geometry.num_sensors


@pytest.mark.parametrize("spacing", ["even", "uneven"])
@pytest.mark.parametrize("num_points", [100, 1000])
def test_band_powers_equal_band_by_band_reference(spacing, num_points):
    # for srp, srp-phat, music and mvdr: on uneven bands, one cos and sin per
    # band, the bits of the per-band cos and sin reference, and on evenly
    # spaced bands that reference to rounding, which the band recurrence
    # changes
    geom = random_geometry(num_sensors=12, seed=0)
    scene = Scene(geom, random_sources(np.random.default_rng(3), 2, np.radians(30.0)),
                  snr_db=10.0, seed=3)
    frames = synth_stft_scene(scene, frame_size=256, num_frames=40)
    points = fibonacci_grid(num_points).points
    for estimator in ("srp", "srp-phat", "music", "mvdr"):
        cov = estimator_covariance(frames, estimator)
        if spacing == "uneven":
            cov = CovarianceSet(cov.matrices, FREQUENCY_KINDS["uneven"])
        spec = build_cost_spec(cov, estimator, -3.0, num_sources=2)
        got = band_powers(spec, geom, points)
        expected = _band_powers_band_by_band(spec, geom, points)
        if spacing == "uneven":
            assert np.array_equal(got, expected)
        else:
            scale = np.trace(spec.matrices, axis1=1, axis2=2).real / geom.num_sensors
            assert np.max(np.abs(got - expected) / scale[:, None]) <= 1e-12


def _band_powers_unblocked(spec, geometry, points):
    # reference: the grid pass as one block of all G points, band recurrence
    # on evenly spaced bands, fresh (G, M) arrays for tau, b and conj(a)
    omega = geometry.wavenumbers(spec.band_frequencies)
    tau = points @ geometry.sensors.T
    powers = np.empty((len(omega), tau.shape[0]))
    phase = np.empty_like(tau)

    def fill(out, w):
        np.multiply(tau, w, out=phase)
        np.cos(phase, out=out.real)
        np.sin(phase, out=out.imag)

    a = np.empty(tau.shape, dtype=complex)
    step = common_step(omega)
    rot = None
    if step is not None and len(omega) > 1:
        rot = np.empty_like(a)
        fill(rot, step)
    for k, w in enumerate(omega):
        if k and rot is not None:
            a *= rot
        else:
            fill(a, w)
        b = a @ spec.matrices[k].T
        powers[k] = np.einsum("gm,gm->g", a.conj(), b).real
    powers /= geometry.num_sensors
    return powers


@functools.cache
def _block_scene_specs(num_sensors, spacing):
    # srp, srp-phat, music and mvdr specs of one 2-source scene on an
    # M-sensor array, on its 12 STFT bands in 300-1000 Hz or on uneven ones
    geom = random_geometry(num_sensors=num_sensors, seed=0)
    scene = Scene(geom, random_sources(np.random.default_rng(3), 2, np.radians(30.0)),
                  snr_db=10.0, seed=3)
    frames = synth_stft_scene(scene, frame_size=256, num_frames=40, f_min=300.0, f_max=1000.0)
    specs = {}
    for estimator in ("srp", "srp-phat", "music", "mvdr"):
        cov = estimator_covariance(frames, estimator)
        if spacing == "uneven":
            cov = CovarianceSet(cov.matrices, FREQUENCY_KINDS["uneven"][: cov.num_bands])
        specs[estimator] = build_cost_spec(cov, estimator, -3.0, num_sources=2)
    return geom, specs


@pytest.mark.parametrize("spacing", ["even", "uneven"])
@pytest.mark.parametrize("num_sensors", [12, 64])
def test_band_powers_blocks_keep_the_unblocked_bits(num_sensors, spacing):
    # r rows per block at most; around r, 2r and one-row remainders the
    # balanced blocks give every point the bits of one unblocked pass
    geom, specs = _block_scene_specs(num_sensors, spacing)
    r = _BLOCK_BYTES // (16 * num_sensors)
    for num_points in (0, 1, 2, r - 1, r, r + 1, 2 * r + 1, 10_000):
        points = fibonacci_grid(max(num_points, 4)).points[:num_points]
        for estimator, spec in specs.items():
            got = band_powers(spec, geom, points)
            assert got.shape == (spec.num_bands, num_points)
            assert np.array_equal(got, _band_powers_unblocked(spec, geom, points)), (
                estimator, num_points)


def _traced_peak(call):
    # (peak traced bytes during call, its result), numpy buffers included
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_grid_pass_memory_does_not_scale_with_the_grid():
    # band_powers holds O(r M) beside its output, and power_mean one copy of
    # its input
    geom = random_geometry(num_sensors=12, seed=0)
    local = np.random.default_rng(6)
    mats = local.standard_normal((8, 12, 4)) + 1j * local.standard_normal((8, 12, 4))
    spec = CostSpec(mats @ np.swapaxes(mats.conj(), 1, 2), FREQUENCY_KINDS["stft-52"][:8],
                    s=-3.0)
    above = {}
    for num_points in (10_000, 40_000):
        points = fibonacci_grid(num_points).points
        peak, powers = _traced_peak(lambda: band_powers(spec, geom, points))
        above[num_points] = peak - powers.nbytes
    assert above[10_000] < 3e6
    assert abs(above[40_000] - above[10_000]) < 64 * 1024, above
    values = local.uniform(0.0, 1.0, (52, 10_000))
    peak, _ = _traced_peak(lambda: power_mean(values, -3.0))
    assert peak < 1.25 * values.nbytes, peak / values.nbytes


@functools.cache
def _scene_covariances(num_sources):
    # one fixed 12-mic scene per source count, the front ends of every estimator
    geom = random_geometry(num_sensors=12, seed=0)
    scene = Scene(geom, random_sources(np.random.default_rng(40 + num_sources), num_sources,
                                       np.radians(30.0)), snr_db=10.0, seed=num_sources)
    frames = synth_stft_scene(scene, frame_size=256, num_frames=40)
    return geom, {e: estimator_covariance(frames, e) for e in ("srp-phat", "music", "mvdr")}


@pytest.mark.parametrize("num_sources", [1, 2, 3])
@pytest.mark.parametrize("estimator", ["srp-phat", "music", "mvdr"])
def test_grid_search_picks_what_per_band_cos_and_sin_picks(estimator, num_sources):
    # the band recurrence moves band powers by rounding only, so grid_search
    # picks the grid points the per-band cos and sin reference picks; the
    # srp-phat L = 1 scene is also searched on uneven bands, cos and sin's path
    geom, covariances = _scene_covariances(num_sources)
    cov = covariances[estimator]
    spacings = {"even": cov.band_frequencies}
    if (estimator, num_sources) == ("srp-phat", 1):
        spacings["uneven"] = FREQUENCY_KINDS["uneven"]
    for spacing, freqs in spacings.items():
        assert (common_step(geom.wavenumbers(freqs)) is None) == (spacing == "uneven")
        spec = build_cost_spec(CovarianceSet(cov.matrices, freqs), estimator, -3.0,
                               num_sources=num_sources)
        for size in (100, 1000, 10_000):
            grid = fibonacci_grid(size)
            reference = power_mean(_band_powers_band_by_band(spec, geom, grid.points), spec.s)
            expected = grid_search(reference, grid, num_sources, np.radians(10.0))
            peaks = search(spec, geom, grid, num_sources=num_sources)
            np.testing.assert_array_equal([p[0] for p in peaks], [p[0] for p in expected])


def _select_by_pair_loop(values, grid, num_sources, min_separation):
    # reference: the selection loop with one distance call per selected pair
    candidates = np.array(_local_minima_by_loop(values, grid))
    candidates = candidates[np.argsort(values[candidates], kind="stable")]
    selected = []
    for pool in (candidates, np.argsort(values, kind="stable")):
        for i in pool:
            if len(selected) >= num_sources:
                break
            if all(
                great_circle_distance(grid.points[i], grid.points[j]) >= min_separation
                for j in selected
            ):
                selected.append(int(i))
    return selected


def _three_band_spec():
    # a random 3-band, 6-sensor spec for the selection tests
    local = np.random.default_rng(5)
    a = local.standard_normal((3, 6, 6)) + 1j * local.standard_normal((3, 6, 6))
    return CostSpec(a @ np.swapaxes(a.conj(), 1, 2) / 6, hertz([20.0, 35.0, 50.0]), s=-1.0)


@pytest.mark.parametrize("num_sources", [1, 3, 8])
@pytest.mark.parametrize("separation", ["none", "10deg", "40deg", "tie"])
def test_grid_search_selection_matches_pair_loop(num_sources, separation):
    geom = random_geometry(num_sensors=6, seed=8)
    spec = _three_band_spec()
    grid = fibonacci_grid(500)
    values = power_mean(band_powers(spec, geom, grid.points), spec.s)
    if separation == "tie":
        # exactly the distance between the two best local minima
        best = _select_by_pair_loop(values, grid, 2, 0.0)
        min_sep = great_circle_distance(grid.points[best[0]], grid.points[best[1]])
    else:
        min_sep = {"none": 0.0, "10deg": np.radians(10.0), "40deg": np.radians(40.0)}[separation]
    expected = _select_by_pair_loop(values, grid, num_sources, min_sep)
    peaks = grid_search(values, grid, num_sources, min_sep)
    np.testing.assert_array_equal([p[0] for p in peaks], grid.points[expected])
    np.testing.assert_array_equal([p[1] for p in peaks], values[expected])


@pytest.mark.parametrize("num_sources", [2.5, np.float64(1.5), np.inf])
def test_grid_search_rejects_a_non_integer_source_count(num_sources):
    geom = random_geometry(num_sensors=6, seed=8)
    with pytest.raises(ValueError, match="num_sources must be an integer"):
        search(_three_band_spec(), geom, fibonacci_grid(100), num_sources=num_sources)
    assert len(search(_three_band_spec(), geom, fibonacci_grid(100), num_sources=2.0)) == 2


def test_grid_search_refuses_an_infinite_source_count_without_a_warning():
    # inf % 1 warns "invalid value" for a numpy float; RuntimeWarnings are errors here
    with pytest.raises(ValueError, match="num_sources must be an integer"):
        grid_search(np.zeros(100), fibonacci_grid(100), np.float64(np.inf), 0.1)


@pytest.mark.parametrize("separation", [np.nan, np.inf, -0.1, True, "0.1", None])
def test_grid_search_rejects_bad_separation(separation):
    geom = random_geometry(num_sensors=6, seed=8)
    with pytest.raises(ValueError, match="min_separation"):
        search(_three_band_spec(), geom, fibonacci_grid(100), num_sources=2,
               min_separation=separation)


@pytest.mark.parametrize(
    "num_sources, separation_deg, found",
    [(2, 200.0, 1), (8, 100.0, 3)],
)
def test_grid_search_raises_when_it_cannot_fill(num_sources, separation_deg, found):
    # no two points of the sphere are 200 deg apart, and at most four (a
    # tetrahedron's vertices) are pairwise 100 deg apart
    geom = random_geometry(num_sensors=6, seed=8)
    with pytest.raises(ValueError, match=f"only {found} of {num_sources} "):
        search(_three_band_spec(), geom, fibonacci_grid(100),
               num_sources=num_sources, min_separation=np.radians(separation_deg))
