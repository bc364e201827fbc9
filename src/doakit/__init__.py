"""Direction-of-arrival estimation with continuous refinement on the sphere.

Classical grid-based estimators (SRP, SRP-PHAT, MUSIC, MVDR) are expressed
as minimizations of a single power-mean objective over the unit sphere, and
coarse grid estimates are polished by majorization-minimization updates that
stay on the sphere by construction.

One pipeline turns frames into directions: ``estimator_covariance`` gives the
band-selected covariance and ``locate_sources`` builds the cost spec, searches
the grid and refines. Solver internals live in their modules
(``doakit.estimators``, ``doakit.refine``, ...).
"""

from .manifold import ArrayGeometry, fibonacci_grid, random_geometry
from .simulate import (
    MonteCarloConfig,
    Scene,
    estimator_covariance,
    evaluate,
    locate_sources,
    monte_carlo,
    synth_time_scene,
)
from .spectral import stft

__version__ = "0.1.0"
