"""Span tracing of doakit's layer functions, installed from outside the package.

The pipeline calls layer functions through the globals of the calling module
(``doakit.cli.stft``, ``doakit.simulate.refine``, ``doakit.refine.solve_gtrs``
and so on), so a span wrapper replaces every module attribute that is bound to
the traced function. Note that the package attribute ``doakit.refine`` is the
function; the module is ``sys.modules["doakit.refine"]``.

A span's self time is its duration minus the durations of the spans it
called. The caller opens one root span per timed unit (a locate call or a
Monte Carlo sweep); its self time is the time no layer span covers.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# layer (module under doakit) -> functions wrapped in spans
LAYERS = {
    "manifold": ("fibonacci_grid",),
    "spectral": ("stft", "apply_weighting", "sample_covariance", "band_select"),
    "estimators": (
        "grid_search",
        "band_powers",
        "power_mean",
        "srp_cost_spec",
        "music_cost_spec",
        "mvdr_cost_spec",
    ),
    "refine": (
        "refine",
        "surrogate_system",
        "solve_gtrs",
        "linear_update",
        "pair_band_powers",
    ),
    "simulate": (
        "synth_stft_scene",
        "build_cost_spec",
        "locate_sources",
        "evaluate",
        "run_trial",
    ),
    "cli": ("main", "cmd_locate"),
}

SPANS = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)

# criterion 3's tolerance: an objective may not rise by more than this share
DESCENT_RTOL = 1e-9
# counts refine calls whose objective rose
DESCENT_COUNT = "refine.descent_violations"

COMPLEX_BYTES = 16
REAL_BYTES = 8


def descent_violated(objectives):
    """True if the objective sequence rises by more than DESCENT_RTOL anywhere."""
    return any(b - a > DESCENT_RTOL * abs(a) for a, b in zip(objectives, objectives[1:]))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Collects per-span call counts, self and total time, and layer counts."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.counts = Counter()
        self.root_s = 0.0
        self.root_self_s = 0.0
        self._stack = []
        self._patched = []
        self._hooks = {
            "estimators.band_powers": self._count_band_powers,
            "refine.refine": self._count_refine,
        }

    def install(self):
        """Wrap every doakit module attribute bound to a traced function."""
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "doakit" or name.startswith("doakit.")
        ]
        for span in SPANS:
            layer, func = span.split(".")
            home = sys.modules.get(f"doakit.{layer}")
            if home is None:  # never imported, so never called
                continue
            original = getattr(home, func)
            wrapper = self._wrap(span, original)
            for module in modules:
                if getattr(module, func, None) is original:
                    setattr(module, func, wrapper)
                    self._patched.append((module, func, original))

    def uninstall(self):
        for module, func, original in reversed(self._patched):
            setattr(module, func, original)
        self._patched.clear()

    @contextmanager
    def root(self):
        """Time one unit of work; spans opened inside it are its children."""
        self._stack.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            duration = perf_counter() - start
            self.root_s += duration
            self.root_self_s += duration - self._stack.pop()

    def _wrap(self, span, fn):
        stack = self._stack
        hook = self._hooks.get(span)

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                self.calls[span] += 1
                self.self_s[span] += duration - children
                self.total_s[span] += duration
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _count_band_powers(self, args, kwargs, result):
        # computed from shapes, not measured: one quadratic form a^H V a per
        # (band, direction); 8 real flops per complex multiply-add for V a and
        # a^H (V a); bytes for reading V_k, writing and reading the steering
        # block and writing the output row
        spec = _arg(args, kwargs, 0, "spec")
        geometry = _arg(args, kwargs, 1, "geometry")
        points = _arg(args, kwargs, 2, "points")
        k = spec.num_bands
        m = geometry.num_sensors
        g = 1 if len(getattr(points, "shape", (3,))) == 1 else points.shape[0]
        self.counts["band_powers.quadforms"] += k * g
        self.counts["band_powers.flops"] += k * g * (8 * m * m + 8 * m)
        self.counts["band_powers.bytes"] += k * (
            COMPLEX_BYTES * m * m + 2 * COMPLEX_BYTES * g * m + REAL_BYTES * g
        )

    def _count_refine(self, args, kwargs, result):
        self.counts["refine.steps"] += len(result.objectives) - 1
        self.counts["refine.converged"] += result.converged_at is not None
        self.counts[DESCENT_COUNT] += descent_violated(result.objectives)

    def dump(self):
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "root_s": self.root_s,
            "root_self_s": self.root_self_s,
        }
