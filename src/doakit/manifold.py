"""Sensor array geometry and directions of arrival on the unit sphere."""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

SPEED_OF_SOUND = 343.0  # m/s, dry air at 20 C

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))

# the k of each grid point's k nearest other points
NUM_NEIGHBORS = 8

# The lattice is irregular near its poles, up to about 105 rows in. The
# rows there take their neighbors by brute force over the rows up to
# _POLAR_REACH index steps away, which hold them all (the farthest is 55
# steps away). The lattice's shape there depends on the row index, not on
# the grid size, so both counts hold for every size.
_POLAR_ROWS = 128
_POLAR_REACH = 64
# Elsewhere row i's nearest neighbors sit at index offsets +-F_m, Fibonacci
# numbers (F_0 = 1, F_1 = 2) with m within about 2.2 of log_phi(rho_i
# sqrt(G)), rho_i the point's distance to the z axis; the six F_m from
# m = ceil(log - 2.5) on hold them all.
_LATTICE_OFFSETS = 6
_LOG_PHI_SQUARED = 2.0 * np.log((1.0 + np.sqrt(5.0)) / 2.0)


def check_number(value, name, rule="be a number", holds=lambda v: True):
    """ValueError "<name> must <rule>, got <value>" unless ``value`` is a
    real number, not a bool, for which ``holds(value)`` is true; NaN holds
    no range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not holds(value):
        raise ValueError(f"{name} must {rule}, got {value!r}")


def is_integer(value):
    """True for an integer-valued real number such as 100, 100.0 or an int
    too large for a float; False for 2.5, inf and NaN, without a warning."""
    return isinstance(value, numbers.Integral) or float(value).is_integer()


def angles_from_doa(q):
    """Colatitude and azimuth in radians of unit direction vector(s) q, so
    that q = (cos(azimuth) sin(colatitude), sin(azimuth) sin(colatitude),
    cos(colatitude)).

    Returns (colatitude, azimuth) with colatitude in [0, pi] and azimuth in
    (-pi, pi]. At the poles the azimuth is 0 by convention.
    """
    q = np.asarray(q, dtype=float)
    colatitude = np.arccos(np.clip(q[..., 2], -1.0, 1.0))
    azimuth = np.arctan2(q[..., 1], q[..., 0])
    # arctan2 may return -pi for directions like (-x, -0.0); fold to +pi
    azimuth = np.where(azimuth <= -np.pi, np.pi, azimuth)
    if q.ndim == 1:
        return float(colatitude), float(azimuth)
    return colatitude, azimuth


def great_circle_distance(q1, q2):
    """Angular distance in radians between unit vectors (broadcasts).

    The arctan2 form stays accurate near 0 and pi, where arccos of the dot
    product loses about half the digits."""
    q1, q2 = np.asarray(q1, float), np.asarray(q2, float)
    cross = np.linalg.norm(np.cross(q1, q2), axis=-1)
    return np.arctan2(cross, np.sum(q1 * q2, axis=-1))


def normalized(q):
    """Project a nonzero 3-vector onto the unit sphere."""
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return q / n


@dataclass
class ArrayGeometry:
    """Sensor coordinates and the speed of sound, which together fix the
    wavenumber of every frequency."""

    sensors: np.ndarray  # (M, 3) in meters
    speed_of_sound: float = SPEED_OF_SOUND

    def __post_init__(self):
        self.sensors = np.atleast_2d(np.asarray(self.sensors, dtype=float))
        if self.sensors.ndim != 2 or self.sensors.shape[1] != 3:
            raise ValueError("sensors must be an (M, 3) array")
        if self.sensors.shape[0] < 2:
            raise ValueError("need at least two sensors")
        if not np.all(np.isfinite(self.sensors)):
            raise ValueError("sensor coordinates must be finite")
        check_number(self.speed_of_sound, "speed of sound", "be positive and finite",
                     lambda v: 0.0 < v < np.inf)

    @property
    def num_sensors(self):
        return self.sensors.shape[0]

    def wavenumbers(self, frequencies):
        """Wavenumbers 2 pi f / c in rad/m of frequencies in Hz."""
        return 2.0 * np.pi * np.asarray(frequencies, dtype=float) / self.speed_of_sound

    @classmethod
    def from_json(cls, path):
        """Load {"speed_of_sound": c, "sensors": [[x,y,z], ...]} from a file;
        ValueError when the file holds no such object or c is not a number."""
        with open(path) as f:
            obj = json.load(f)
        if not isinstance(obj, dict):
            raise ValueError("a geometry file must hold a JSON object")
        speed = obj.get("speed_of_sound", SPEED_OF_SOUND)
        check_number(speed, "speed_of_sound")
        return cls(sensors=np.asarray(obj["sensors"], dtype=float),
                   speed_of_sound=float(speed))

    def to_json(self, path):
        obj = {
            "speed_of_sound": self.speed_of_sound,
            "sensors": self.sensors.tolist(),
        }
        with open(path, "w") as f:
            json.dump(obj, f, indent=2)


def random_geometry(num_sensors=12, radius=0.1, seed=0):
    """Sensors drawn uniformly inside a sphere of the given radius (meters)."""
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal((num_sensors, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    r = radius * rng.random(num_sensors) ** (1.0 / 3.0)
    return ArrayGeometry(direction * r[:, None])


def fibonacci_points(count):
    """Near-uniform spherical point set on the Fibonacci spiral lattice; ValueError
    naming ``count`` unless it is an integer of at least 4 with that many rows."""
    rule = "be an integer of at least 4 that numpy can index"
    check_number(count, "grid size", rule, lambda v: is_integer(v) and 4 <= v < 2**63)
    i = np.arange(count)
    check_number(count, "grid size", rule, lambda v: i.size == v)
    z = 1.0 - (2.0 * i + 1.0) / count
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    phi = i * _GOLDEN_ANGLE
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


@dataclass
class SphericalGrid:
    """Point set on the sphere and each point's k nearest other points."""

    points: np.ndarray  # (G, 3) unit vectors
    # row i holds the indices of point i's k nearest other points, in no
    # particular order; the relation is not symmetric
    neighbors: np.ndarray  # (G, k)

    @property
    def size(self):
        return self.points.shape[0]


def _nearest(points, rows, offsets, k):
    """For each row, the k points nearest its point among the rows at index
    offsets +-``offsets`` from it ((n,) for every row, or (R, n) per row).
    Chord order is angular order on the sphere. Squared chords are summed
    coordinate by coordinate, as a k-d tree sums them, so they round as its
    distances do."""
    candidates = rows[:, None] + np.concatenate([offsets, -offsets], axis=-1)
    outside = (candidates < 0) | (candidates >= points.shape[0])
    candidates[outside] = 0  # a stand-in; its distance is discarded
    dist = 0.0
    for coord in points.T:
        diff = coord.take(candidates)
        diff -= coord[rows, None]
        diff *= diff
        dist += diff
    dist[outside] = np.inf
    nearest = np.argpartition(dist, k - 1, axis=1)[:, :k]
    return np.take_along_axis(candidates, nearest, axis=1)


def fibonacci_grid(count):
    """Fibonacci lattice grid with each point's k = min(NUM_NEIGHBORS,
    count - 1) nearest other points.

    The candidates come from the lattice itself: rows near a pole are
    searched by brute force over the rows around them, every other row over
    its Fibonacci index offsets (see ``_LATTICE_OFFSETS``). On a small grid
    every row is a polar row.
    """
    points = fibonacci_points(count)
    k = min(NUM_NEIGHBORS, count - 1)
    index = np.arange(count)
    polar = np.minimum(index, count - 1 - index) < _POLAR_ROWS
    knn = np.empty((count, k), dtype=np.intp)
    knn[polar] = _nearest(points, index[polar], np.arange(1, _POLAR_REACH + 1), k)
    rows = index[~polar]
    if rows.size:
        z = points[rows, 2]
        low = np.ceil(np.log((1.0 - z * z) * count) / _LOG_PHI_SQUARED - 2.5)
        order = low.astype(np.intp)[:, None] + np.arange(_LATTICE_OFFSETS)
        fib = [1, 2]
        while len(fib) <= order[:, -1].max():
            fib.append(fib[-1] + fib[-2])
        knn[rows] = _nearest(points, rows, np.asarray(fib)[order], k)
    return SphericalGrid(points=points, neighbors=knn)
