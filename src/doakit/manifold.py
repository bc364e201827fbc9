"""Sensor array geometry and directions of arrival on the unit sphere."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

SPEED_OF_SOUND = 343.0  # m/s, dry air at 20 C

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))

# neighbors per point in a grid's k-nearest-neighbor graph
NUM_NEIGHBORS = 8


def doa_from_angles(colatitude, azimuth):
    """Unit direction vector(s) from colatitude and azimuth in radians.

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


def angles_from_doa(q):
    """Inverse of :func:`doa_from_angles`.

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
    """Sensor coordinates plus precomputed differences for all distinct pairs.

    The pair list enumerates unordered pairs (m, r) with m < r, and stores
    delta = d_m - d_r for each. The largest eigenvalue of the 3x3 Gram matrix
    of the deltas only depends on the geometry and is cached here.
    """

    sensors: np.ndarray  # (M, 3) in meters
    speed_of_sound: float = SPEED_OF_SOUND

    pair_indices: np.ndarray = field(init=False, repr=False)
    pair_deltas: np.ndarray = field(init=False, repr=False)
    pair_gram_lmax: float = field(init=False, repr=False)

    def __post_init__(self):
        self.sensors = np.atleast_2d(np.asarray(self.sensors, dtype=float))
        if self.sensors.ndim != 2 or self.sensors.shape[1] != 3:
            raise ValueError("sensors must be an (M, 3) array")
        if self.sensors.shape[0] < 2:
            raise ValueError("need at least two sensors")
        if not self.speed_of_sound > 0:
            raise ValueError("speed of sound must be positive")
        m, r = np.triu_indices(self.num_sensors, k=1)
        self.pair_indices = np.stack([m, r], axis=1)
        self.pair_deltas = self.sensors[m] - self.sensors[r]
        gram = self.pair_deltas.T @ self.pair_deltas
        self.pair_gram_lmax = float(np.linalg.eigvalsh(gram)[-1])

    @property
    def num_sensors(self):
        return self.sensors.shape[0]

    @classmethod
    def from_json(cls, path):
        """Load {"speed_of_sound": c, "sensors": [[x,y,z], ...]} from a file."""
        with open(path) as f:
            obj = json.load(f)
        return cls(
            sensors=np.asarray(obj["sensors"], dtype=float),
            speed_of_sound=float(obj.get("speed_of_sound", SPEED_OF_SOUND)),
        )

    def to_json(self, path):
        obj = {
            "speed_of_sound": self.speed_of_sound,
            "sensors": self.sensors.tolist(),
        }
        with open(path, "w") as f:
            json.dump(obj, f, indent=2)


def random_geometry(num_sensors=12, radius=0.1, seed=0, speed_of_sound=SPEED_OF_SOUND):
    """Sensors drawn uniformly inside a sphere of the given radius (meters)."""
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal((num_sensors, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    r = radius * rng.random(num_sensors) ** (1.0 / 3.0)
    return ArrayGeometry(direction * r[:, None], speed_of_sound=speed_of_sound)


def steering_vector(geometry, wavenumber, q):
    """Array response for a plane wave from direction q at spatial frequency
    ``wavenumber`` (rad/m): entry m is M^(-1/2) exp(j w d_m . q)."""
    if wavenumber < 0:
        raise ValueError("wavenumber must be non-negative")
    phase = wavenumber * (geometry.sensors @ np.asarray(q, dtype=float))
    return np.exp(1j * phase) / np.sqrt(geometry.num_sensors)


def fibonacci_points(count):
    """Near-uniform spherical point set on the Fibonacci spiral lattice."""
    if count < 4:
        raise ValueError("need at least 4 grid points")
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    phi = i * _GOLDEN_ANGLE
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


@dataclass
class SphericalGrid:
    """Point set on the sphere with a symmetric nearest-neighbor graph."""

    points: np.ndarray  # (G, 3) unit vectors
    neighbors: sparse.csr_array  # (G, G) symmetric adjacency, no self loops

    @property
    def size(self):
        return self.points.shape[0]


def fibonacci_grid(count):
    """Fibonacci lattice grid with a symmetrized k-nearest-neighbor graph."""
    points = fibonacci_points(count)
    k = min(NUM_NEIGHBORS, count - 1)
    # Euclidean nearest neighbors on the sphere are also angular nearest
    _, idx = cKDTree(points).query(points, k=k + 1)
    rows = np.repeat(np.arange(count), k + 1)
    cols = np.ravel(idx)
    keep = rows != cols
    knn = sparse.csr_array(
        (np.ones(keep.sum(), dtype=np.int8), (rows[keep], cols[keep])),
        shape=(count, count),
    )
    return SphericalGrid(points=points, neighbors=knn + knn.T)
