import numpy as np
import pytest

from doakit.estimators import (
    CostSpec,
    band_powers,
    gershgorin_shift,
    grid_search,
    music_cost_spec,
    mvdr_cost_spec,
    objective,
    power_mean,
    srp_cost_spec,
)
from doakit.manifold import (
    ArrayGeometry,
    fibonacci_grid,
    great_circle_distance,
    random_geometry,
    steering_vector,
)
from doakit.refine import PairCoefficients, pair_band_powers
from doakit.spectral import CovarianceSet


@pytest.fixture
def rng():
    # a generator per test, so its inputs do not depend on which tests ran first
    return np.random.default_rng(2024)


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
    p, v = gershgorin_shift(np.eye(3))
    assert p == 1.0
    np.testing.assert_allclose(v, np.zeros((3, 3)), atol=1e-15)


def test_gershgorin_diagonal():
    p, v = gershgorin_shift(np.diag([1.0, 2.0]))
    assert p == 2.0
    np.testing.assert_allclose(v, np.diag([1.0, 0.0]), atol=1e-15)


def test_gershgorin_random_psd(rng):
    for _ in range(20):
        c = random_psd(rng, 6)
        _, v = gershgorin_shift(c)
        trace = np.trace(v).real
        assert np.linalg.eigvalsh(v).min() >= -1e-10 * max(trace, 1.0)


def test_cost_spec_validation():
    mats = np.stack([np.eye(2, dtype=complex)] * 2)
    CostSpec(mats, np.array([1.0, 2.0]), s=1.0)
    with pytest.raises(ValueError):
        CostSpec(mats, np.array([1.0, 2.0]), s=0.0)
    with pytest.raises(ValueError):
        CostSpec(mats, np.array([1.0, 2.0]), s=1.5)
    with pytest.raises(ValueError):
        CostSpec(mats, np.array([2.0, 1.0]), s=-1.0)


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
    values = power_mean(band_powers(spec, geom, grid.points), spec.s, axis=0)
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
        values = power_mean(band_powers(spec, geom, grid.points), s, axis=0)
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
            grad = _band_weights(y_hat, s)
            tangent = power_mean(y_hat, s) + grad @ (y - y_hat)
            assert tangent >= power_mean(y, s) - 1e-10


def test_objective_identity_matrices(rng):
    geom = random_geometry(num_sensors=5, seed=8)
    mats = np.stack([np.eye(5, dtype=complex)] * 3)
    spec = CostSpec(mats, np.array([10.0, 20.0, 30.0]), s=-1.0)
    for _ in range(5):
        assert abs(objective(spec, geom, random_unit(rng)) - 1.0) < 1e-12


def test_objective_rank_one_at_source(rng):
    geom = random_geometry(num_sensors=5, seed=8)
    qstar = random_unit(rng)
    omega = 2 * np.pi * 900.0 / geom.speed_of_sound
    a = steering_vector(geom, omega, qstar)
    spec = CostSpec(np.outer(a, a.conj())[None], np.array([omega]), s=0.5)
    assert abs(objective(spec, geom, qstar) - 1.0) < 1e-12


def test_objective_matches_cosine_expansion(rng):
    # two independent evaluation paths: steering quadratic form vs the
    # trace + pair-cosine expansion
    geom = random_geometry(num_sensors=4, seed=2)
    mats = np.stack([random_psd(rng, 4) for _ in range(6)])
    spec = CostSpec(mats, np.sort(rng.uniform(5, 60, 6)), s=-1.0)
    coeffs = PairCoefficients.from_cost_spec(spec, geom)
    for _ in range(20):
        q = random_unit(rng)
        direct = objective(spec, geom, q)
        expansion = power_mean(pair_band_powers(coeffs, q)[0], spec.s)
        assert abs(direct - expansion) < 1e-10


def test_objective_rotation_invariant(rng):
    geom = random_geometry(num_sensors=4, seed=2)
    mats = np.stack([random_psd(rng, 4) for _ in range(4)])
    spec = CostSpec(mats, np.sort(rng.uniform(5, 60, 4)), s=0.5)
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
    omega = np.sort(rng.uniform(5, 60, 4))
    spec = CostSpec(mats, omega, s=-3.0)
    scaled = CostSpec(7.5 * mats, omega, s=-3.0)
    grid = fibonacci_grid(300)
    q = random_unit(rng)
    assert abs(objective(scaled, geom, q) - 7.5 * objective(spec, geom, q)) < 1e-9
    a = grid_search(spec, geom, grid, num_sources=2)
    b = grid_search(scaled, geom, grid, num_sources=2)
    for (qa, _), (qb, _) in zip(a, b):
        np.testing.assert_array_equal(qa, qb)


def test_grid_search_single_source(rng):
    geom = random_geometry(num_sensors=8, seed=11)
    qstar = random_unit(rng)
    cov = rank_one_cov(geom, [1000.0], qstar)
    spec = srp_cost_spec(cov, s=0.5)
    grid = fibonacci_grid(10_000)
    peaks = grid_search(spec, geom, grid, num_sources=1)
    assert len(peaks) == 1
    covering = 2.0 * np.sqrt(4.0 * np.pi / grid.size)
    assert great_circle_distance(peaks[0][0], qstar) < covering


def test_grid_search_flat_landscape():
    geom = random_geometry(num_sensors=4, seed=6)
    mats = np.stack([np.eye(4, dtype=complex)] * 2)
    spec = CostSpec(mats, np.array([10.0, 20.0]), s=-1.0)
    grid = fibonacci_grid(500)
    peaks = grid_search(spec, geom, grid, num_sources=3, min_separation=np.radians(20))
    assert len(peaks) == 3
    values = [v for _, v in peaks]
    assert np.ptp(values) < 1e-12
    for i in range(3):
        for j in range(i + 1, 3):
            assert great_circle_distance(peaks[i][0], peaks[j][0]) >= np.radians(20)


def test_grid_search_local_minima_match_loop(rng):
    # reference: the per-point loop over neighbor lists; with no separation
    # limit, asking for every local minimum returns exactly them, by value
    geom = random_geometry(num_sensors=6, seed=8)
    mats = np.stack([random_psd(rng, 6) for _ in range(3)])
    spec = CostSpec(mats, np.array([20.0, 35.0, 50.0]), s=-1.0)
    grid = fibonacci_grid(2000)
    values = power_mean(band_powers(spec, geom, grid.points), spec.s, axis=0)
    nbrs = grid.neighbors
    minima = [
        i for i in range(grid.size)
        if values[i] <= values[nbrs.indices[nbrs.indptr[i]:nbrs.indptr[i + 1]]].min()
    ]
    assert len(minima) > 1
    peaks = grid_search(spec, geom, grid, num_sources=len(minima), min_separation=0.0)
    expected = sorted(minima, key=lambda i: values[i])
    np.testing.assert_array_equal([p[0] for p in peaks], grid.points[expected])
    np.testing.assert_array_equal([p[1] for p in peaks], values[expected])


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
    peaks = grid_search(spec, geom, grid, num_sources=2, min_separation=np.radians(20))
    assert len(peaks) == 2
    covering = 2.0 * np.sqrt(4.0 * np.pi / grid.size)
    found = [p[0] for p in peaks]
    for target in (q1, q2):
        assert min(great_circle_distance(f, target) for f in found) < covering


# evenly spaced STFT wavenumbers (16 kHz; 256-point frames in 300-3500 Hz and
# every band of 2048-point frames) and sorted random ones: band_powers takes
# one exp per band whatever the spacing, the pair expansion's phasor table
# (test_refine) takes the band recurrence on the evenly spaced ones
OMEGA_KINDS = {
    "stft-52": 2 * np.pi * np.arange(5, 57) * 62.5 / 343.0,
    "stft-1025": 2 * np.pi * np.arange(1025) * 16000.0 / 2048 / 343.0,
    "uneven": np.sort(np.random.default_rng(7).uniform(5.0, 70.0, 52)),
}


@pytest.mark.parametrize("kind", OMEGA_KINDS)
@pytest.mark.parametrize("num_points", [1, 100, 10_000])
def test_band_powers_matches_steering_loop(kind, num_points):
    omega = OMEGA_KINDS[kind]
    local = np.random.default_rng(num_points)
    geom = random_geometry(num_sensors=12, seed=5)
    mats = local.standard_normal((omega.size, 12, 4)) + 1j * local.standard_normal(
        (omega.size, 12, 4)
    )
    spec = CostSpec(mats @ np.swapaxes(mats.conj(), 1, 2), omega, s=-1.0)
    assert (spec.band_step is None) == (kind == "uneven")
    points = fibonacci_grid(max(num_points, 4)).points[:num_points]
    got = band_powers(spec, geom, points[0] if num_points == 1 else points)
    got = got.reshape(omega.size, num_points)
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


def _select_by_pair_loop(values, grid, num_sources, min_separation):
    # reference: the selection loop with one distance call per selected pair
    nbrs = grid.neighbors
    is_min = values <= np.minimum.reduceat(values[nbrs.indices], nbrs.indptr[:-1])
    candidates = np.flatnonzero(is_min)
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


@pytest.mark.parametrize("num_sources", [1, 3, 8])
@pytest.mark.parametrize("separation", ["none", "10deg", "40deg", "tie"])
def test_grid_search_selection_matches_pair_loop(num_sources, separation):
    local = np.random.default_rng(5)
    geom = random_geometry(num_sensors=6, seed=8)
    a = local.standard_normal((3, 6, 6)) + 1j * local.standard_normal((3, 6, 6))
    spec = CostSpec(a @ np.swapaxes(a.conj(), 1, 2) / 6, np.array([20.0, 35.0, 50.0]), s=-1.0)
    grid = fibonacci_grid(500)
    values = power_mean(band_powers(spec, geom, grid.points), spec.s, axis=0)
    if separation == "tie":
        # exactly the distance between the two best local minima
        best = _select_by_pair_loop(values, grid, 2, 0.0)
        min_sep = great_circle_distance(grid.points[best[0]], grid.points[best[1]])
    else:
        min_sep = {"none": 0.0, "10deg": np.radians(10.0), "40deg": np.radians(40.0)}[separation]
    expected = _select_by_pair_loop(values, grid, num_sources, min_sep)
    peaks = grid_search(spec, geom, grid, num_sources=num_sources, min_separation=min_sep)
    np.testing.assert_array_equal([p[0] for p in peaks], grid.points[expected])
    np.testing.assert_array_equal([p[1] for p in peaks], values[expected])
