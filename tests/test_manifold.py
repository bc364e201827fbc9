import numpy as np
import pytest
from scipy.spatial import cKDTree

from doakit.manifold import (
    ArrayGeometry,
    angles_from_doa,
    fibonacci_grid,
    fibonacci_points,
    great_circle_distance,
    is_integer,
    random_geometry,
)
from oracles import doa_from_angles, steering_vector, symmetric_neighbors

rng = np.random.default_rng(1234)


@pytest.mark.parametrize(
    "colat,azim,expected",
    [
        (0.0, 1.3, (0.0, 0.0, 1.0)),
        (np.pi / 2, 0.0, (1.0, 0.0, 0.0)),
        (np.pi / 2, np.pi / 2, (0.0, 1.0, 0.0)),
    ],
)
def test_doa_from_angles(colat, azim, expected):
    np.testing.assert_allclose(doa_from_angles(colat, azim), expected, atol=1e-15)


@pytest.mark.parametrize(
    "q,expected",
    [
        ((0.0, 0.0, 1.0), (0.0, 0.0)),
        ((1.0, 0.0, 0.0), (np.pi / 2, 0.0)),
        ((0.0, -1.0, 0.0), (np.pi / 2, -np.pi / 2)),
    ],
)
def test_angles_from_doa(q, expected):
    np.testing.assert_allclose(angles_from_doa(np.array(q)), expected, atol=1e-15)


def test_angle_round_trip():
    q = rng.standard_normal((10_000, 3))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    colat, azim = angles_from_doa(q)
    back = doa_from_angles(colat, azim)
    assert np.max(np.abs(back - q)) < 1e-10
    assert np.all(azim > -np.pi) and np.all(azim <= np.pi)
    assert np.all(colat >= 0) and np.all(colat <= np.pi)


def test_geometry_json_round_trip(tmp_path):
    geom = random_geometry(num_sensors=4, seed=9)
    path = tmp_path / "geom.json"
    geom.to_json(path)
    back = ArrayGeometry.from_json(path)
    np.testing.assert_array_equal(back.sensors, geom.sensors)
    assert back.speed_of_sound == geom.speed_of_sound


def test_geometry_rejects_single_sensor():
    with pytest.raises(ValueError):
        ArrayGeometry(np.zeros((1, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_geometry_rejects_non_finite_sensors(bad):
    sensors = np.zeros((3, 3))
    sensors[1, 2] = bad
    with pytest.raises(ValueError, match="sensor coordinates must be finite"):
        ArrayGeometry(sensors)


@pytest.mark.parametrize("speed", [np.inf, np.nan, 0.0, -343.0, True, "343", None])
def test_geometry_rejects_bad_speed_of_sound(speed):
    with pytest.raises(ValueError, match="speed of sound must be positive and finite"):
        ArrayGeometry(np.eye(3), speed_of_sound=speed)


@pytest.mark.parametrize("value, expected", [
    (100, True), (100.0, True), (np.int64(-3), True), (np.float64(4.0), True),
    (10 ** 400, True), (2.5, False), (np.float64(1.5), False), (np.inf, False),
    (np.float64(np.inf), False), (-np.inf, False), (np.nan, False),
])
def test_is_integer(value, expected):
    # one rule for every count: an int too large for a float is an integer,
    # and a numpy inf is refused without an "invalid value" warning
    assert is_integer(value) is expected


def test_geometry_wavenumbers():
    geom = ArrayGeometry(np.eye(3), speed_of_sound=1480.0)
    freqs = np.array([0.0, 62.5, 1000.0])
    np.testing.assert_array_equal(geom.wavenumbers(freqs), 2.0 * np.pi * freqs / 1480.0)
    assert geom.wavenumbers(1480.0) == 2.0 * np.pi


def test_steering_vector_trivial():
    geom = ArrayGeometry(np.zeros((3, 3)) + 0.0)
    a = steering_vector(geom, 12.0, np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(a, np.full(3, 1 / np.sqrt(3)), atol=1e-15)

    geom = random_geometry(num_sensors=6, seed=0)
    a = steering_vector(geom, 0.0, np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(a, np.full(6, 1 / np.sqrt(6)), atol=1e-15)


def test_steering_vector_two_sensor_phase():
    geom = ArrayGeometry(np.array([[1.0, 0, 0], [0.0, 0, 0]]))
    a = steering_vector(geom, np.pi, np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(a, [-1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_steering_vector_unit_norm_and_periodicity():
    geom = random_geometry(num_sensors=8, seed=5)
    q = np.array([0.2, -0.5, 0.6])
    q /= np.linalg.norm(q)
    for wavenumber in (0.5, 17.0, 90.0):
        a = steering_vector(geom, wavenumber, q)
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12
        # entry m is periodic in the phase with period 2*pi/(d_m . q)
        proj = geom.sensors @ q
        m = int(np.argmax(np.abs(proj)))
        shifted = steering_vector(geom, wavenumber + abs(2 * np.pi / proj[m]), q)
        assert abs(shifted[m] - a[m]) < 1e-10


def test_great_circle_distance_basic():
    q1 = np.array([1.0, 0.0, 0.0])
    assert great_circle_distance(q1, q1) == 0.0
    assert abs(great_circle_distance(q1, -q1) - np.pi) < 1e-15
    assert abs(great_circle_distance(q1, np.array([0.0, 1.0, 0.0])) - np.pi / 2) < 1e-15


def test_great_circle_distance_near_zero():
    # arccos of the dot product reads up to ~1e-6 deg for identical vectors
    # and 0 for vectors 1e-9 rad apart; the arctan2 form resolves both
    q = rng.standard_normal((1000, 3))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    assert np.max(great_circle_distance(q, q)) < 1e-15
    for angle in (1e-9, 1e-12):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([np.cos(angle), np.sin(angle), 0.0])
        assert abs(great_circle_distance(a, b) - angle) < 1e-6 * angle
    assert isinstance(great_circle_distance(q[0], q[0]), float)
    assert great_circle_distance(q[:50, None, :], q[None, :50, :]).shape == (50, 50)


def test_great_circle_triangle_inequality():
    for _ in range(500):
        q = rng.standard_normal((3, 3))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        d01 = great_circle_distance(q[0], q[1])
        d12 = great_circle_distance(q[1], q[2])
        d02 = great_circle_distance(q[0], q[2])
        assert d02 <= d01 + d12 + 1e-10
        assert abs(d01 - great_circle_distance(q[1], q[0])) < 1e-10


def test_fibonacci_grid_basic():
    grid = fibonacci_grid(100)
    assert grid.size == 100
    norms = np.linalg.norm(grid.points, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    # distinct points
    dots = grid.points @ grid.points.T
    np.fill_diagonal(dots, -1.0)
    assert np.arccos(np.clip(dots.max(), -1, 1)) > 0.0


@pytest.mark.parametrize("count", [*range(4, 3001, 7), 100, 1000, 10_000, 100_000])
def test_fibonacci_grid_neighbors_match_knn_sets(count):
    # oracle: each point's k nearest plus every point that counts it among
    # its own, from a k-d tree; every row is compared, the polar ones too
    grid = fibonacci_grid(count)
    k = min(8, count - 1)
    _, idx = cKDTree(grid.points).query(grid.points, k=k + 1)
    expected = [set() for _ in range(count)]
    for i, row in enumerate(idx.tolist()):
        for j in row:
            if j != i:
                expected[i].add(j)
                expected[j].add(i)
    got = symmetric_neighbors(grid)
    for i in range(count):
        assert got[i] == sorted(expected[i]), i


@pytest.mark.parametrize(
    "sizes", [range(start, min(start + 300, 3001)) for start in range(4, 3001, 300)]
    + [[10_000]], ids=lambda sizes: f"{sizes[0]}-{sizes[-1]}")
def test_fibonacci_grid_neighbors_are_k_nearest(sizes):
    # tie-robust: a row may take either of two points at the same distance,
    # so it is checked by distance, not by index against the k-d tree's
    for count in sizes:
        grid = fibonacci_grid(count)
        k = min(8, count - 1)
        assert grid.neighbors.shape == (count, k)
        rows = np.sort(grid.neighbors, axis=1)
        assert np.all(rows[:, 1:] != rows[:, :-1]), count
        assert not np.any(rows == np.arange(count)[:, None]), count
        assert rows.min() >= 0 and rows.max() < count, count
        kth, _ = cKDTree(grid.points).query(grid.points, k=[k + 1])
        chord = np.linalg.norm(grid.points[grid.neighbors] - grid.points[:, None], axis=2)
        assert np.max(np.abs(chord.max(axis=1) - kth[:, 0])) <= 1e-12, count


def test_fibonacci_grid_rejects_tiny():
    with pytest.raises(ValueError):
        fibonacci_grid(3)


@pytest.mark.parametrize("count", [2**63, 2**63 - 1, 2**64, 4.5, 3, np.nan, np.inf, True],
                         ids=["2**63", "2**63-1", "2**64", "4.5", "3", "nan", "inf", "bool"])
def test_fibonacci_points_rejects_a_count_it_cannot_lay_out(count):
    # np.arange(2**63) is empty and np.arange(4.5) has 5 rows, neither on the
    # lattice of their count
    with pytest.raises(ValueError, match=rf"grid size must .*, got {count!r}$"):
        fibonacci_points(count)


def test_fibonacci_points_takes_an_integer_valued_float():
    np.testing.assert_array_equal(fibonacci_points(100.0), fibonacci_points(100))


def test_fibonacci_covering_radius():
    # dense random sampling oracle for the covering radius bound
    points = fibonacci_points(10_000)
    sample = rng.standard_normal((1_000_000, 3))
    sample /= np.linalg.norm(sample, axis=1, keepdims=True)
    chord, _ = cKDTree(points).query(sample)
    angle = 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))
    assert angle.max() < 2.0 * np.sqrt(4.0 * np.pi / 10_000)
