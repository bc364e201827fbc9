"""One workload process: set up, render inputs, run the timed closed loop.

Usage (normally started by run.py, which merges processes into metrics):

    python3 worker.py --workload locate-coarse --seed 1 --part 0 \
        --seconds 8 --trace 0 --workdir DIR

Prints one JSON object with the raw measurements as its last stdout line.
Inputs are rendered in chunks between timed ops, never inside a timed op,
and the calibration kernel runs between chunks. With --trace 1, chunks
alternate between untraced and traced, so the same run gives the untraced
throughput against which tracing overhead is read.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

from spans import DESCENT_COUNT, Tracer, descent_violated

# numpy, scipy and doakit are imported inside functions: their import is
# timed as set-up

NUM_SOURCES = 2
NUM_SENSORS = 12
ARRAY_RADIUS = 0.1
NORM_TOL = 1e-12

# the Monte Carlo array is part of the workload, like a fixed device; the
# seed varies the scenes only
SWEEP_ARRAY_SEED = 0

# seed streams: warm-up inputs never coincide with timed inputs
WARMUP_STREAM = 0
TIMED_STREAM = 1

LOCATE_CONFIG = {"frame_size": 256, "hop": 128, "f_min": 300.0, "f_max": 3500.0, "s": -3.0}
LOCATE_FLAGS = {
    "locate-coarse": ["--grid", "100", "--variant", "quadratic", "--iters", "30"],
    "locate-dense": ["--grid", "10000", "--variant", "none"],
}
LOCATE_SNR_DB = 20.0
# ops per chunk: about 0.3 s (coarse) and 1 s (dense) of work between
# calibrations, so the calibration follows the host's speed phases
RENDER_CHUNK = {"locate-coarse": 4, "locate-dense": 1}

SWEEP = {
    "estimators": ("srp-phat", "mvdr"),
    "variants": ("quadratic", "linear"),
    "grid_sizes": (1000,),
    "iteration_counts": (30,),
    "s_values": (-3.0,),
    "snr_values": (10.0,),
    "band_gain_spread_db": 12.0,
    "frame_size": 256,
}
TRIALS_PER_CELL = 2  # one sweep of the four cells is about 1 s

# times are reported as they would read on a host where one calibration
# kernel takes this long
CALIBRATION_REFERENCE_MS = 5.0
CALIBRATION_REPEATS = 3


def _seeds(seed, stream, index, count=2):
    import numpy as np

    state = np.random.SeedSequence([seed, stream, index]).generate_state(count)
    return [int(x) for x in state]


class Calibration:
    """A fixed kernel that reads the host's current speed.

    A shared host runs this process at speeds up to 1.5x apart, in phases
    of seconds to minutes that hit every CPU. The kernel mixes small LAPACK
    calls and interpreter work, as the workloads do, and does not use doakit,
    so no change to doakit can speed it up. Its time tracks the workloads'
    op time across phases (see README.md), and dividing by it removes most of
    the phase from every reported time.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        a = np.random.default_rng(0).standard_normal((12, 12))
        self.matrix = a @ a.T
        self.samples_ms = []

    def _kernel(self):
        for _ in range(150):
            self.np.linalg.eigh(self.matrix)
        total = 0
        for i in range(25000):
            total += i * i % 7
        return total

    def measure(self):
        """The kernel's current time in ms (median of repeats)."""
        times = []
        for _ in range(CALIBRATION_REPEATS):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        ms = 1e3 * statistics.median(times)
        self.samples_ms.append(ms)
        return ms

    @staticmethod
    def scale(*samples_ms):
        """Reference time over the mean of kernel times taken around some work."""
        return CALIBRATION_REFERENCE_MS / statistics.fmean(samples_ms)


class Run:
    """Raw measurements of one workload process.

    Each op's wall latency is stored with the calibration scale of its chunk,
    which is known when the chunk ends; the scaled sums give times at
    reference speed.
    """

    def __init__(self, trace):
        self.trace = trace
        self.latencies_s = []  # untraced op latencies, wall
        self.scales = []  # calibration scale of each of them
        self.busy_s = 0.0  # untraced closed-loop time, wall
        self.busy_ref_s = 0.0  # the same at reference speed
        self.ops = 0  # untraced ops
        self.traced_s = 0.0
        self.traced_ref_s = 0.0
        self.traced_ops = 0
        self.chunk_s = 0.0  # wall time of the current chunk's ops
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.descent_violations = 0
        self.errors_deg = []
        self.problems = []

    def fail(self, message):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)

    def timed_enough(self, seconds):
        # in traced runs both halves must have run at least once
        if self.trace and (self.ops == 0 or self.traced_ops == 0):
            return False
        return self.busy_s + self.traced_s >= seconds

    def record(self, traced, elapsed, ops=1):
        """Count `ops` ops that took `elapsed` seconds of wall time in all."""
        self.chunk_s += elapsed
        if traced:
            self.traced_ops += ops
            self.traced_s += elapsed
        else:
            self.ops += ops
            self.busy_s += elapsed

    def end_chunk(self, traced, scale):
        """Apply the chunk's calibration scale to its ops."""
        if traced:
            self.traced_ref_s += self.chunk_s * scale
        else:
            self.busy_ref_s += self.chunk_s * scale
            self.scales.extend([scale] * (len(self.latencies_s) - len(self.scales)))
        self.chunk_s = 0.0

    def result(self, setup_s, calibration, env):
        return {
            "setup_s": setup_s,
            "latencies_s": self.latencies_s,
            "scales": self.scales,
            "busy_s": self.busy_s,
            "busy_ref_s": self.busy_ref_s,
            "ops": self.ops,
            "traced_s": self.traced_s,
            "traced_ref_s": self.traced_ref_s,
            "traced_ops": self.traced_ops,
            "attempted": self.attempted,
            "failed": self.failed,
            "descent_violations": self.descent_violations,
            "errors_deg": self.errors_deg,
            "problems": self.problems,
            "calibration_ms": calibration.samples_ms,
            "trace": self.tracer.dump() if self.tracer else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "env": env,
        }


class Locate:
    """`doakit locate` on pre-rendered WAVs; every recording has its own array."""

    def __init__(self, name, seed, part, workdir):
        from doakit import cli, random_geometry
        from doakit.simulate import evaluate

        self.cli = cli
        self.random_geometry = random_geometry
        self.evaluate = evaluate  # bound before tracing: scoring is not traced
        self.seed = seed
        self.part = part
        self.workdir = workdir
        self.flags = LOCATE_FLAGS[name]
        self.chunk = RENDER_CHUNK[name]
        self.config = os.path.join(workdir, "locate.json")
        with open(self.config, "w") as f:
            json.dump(LOCATE_CONFIG, f)

    def render(self, stream, index):
        geometry_seed, scene_seed = _seeds(self.seed, stream, index)
        stem = os.path.join(self.workdir, f"rec-{stream}-{index}")
        self.random_geometry(NUM_SENSORS, ARRAY_RADIUS, seed=geometry_seed).to_json(
            stem + ".geometry.json"
        )
        with contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main([
                "simulate", "--geometry", stem + ".geometry.json",
                "--sources", str(NUM_SOURCES), "--snr-db", str(LOCATE_SNR_DB),
                "--duration", "1", "--seed", str(scene_seed), "--output", stem + ".wav",
            ])
        if code != 0:
            raise RuntimeError(f"rendering {stem} failed with exit code {code}")
        with open(stem + ".json") as f:
            truth = [s["doa"] for s in json.load(f)["sources"]]
        argv = [
            "locate", "--config", self.config, "--geometry", stem + ".geometry.json",
            "--input", stem + ".wav", "--estimator", "music",
            "--sources", str(NUM_SOURCES), *self.flags, "--output", stem + ".report",
        ]
        return argv, stem, truth

    def warm_up(self):
        argv, _, _ = self.render(WARMUP_STREAM, self.part)
        start = time.perf_counter()
        self.cli.main(argv)
        return time.perf_counter() - start

    def check(self, run, code, stem, truth, traced):
        """Criterion 3's tolerances on one report; scores it if it is usable.

        Rising traces of traced ops are counted by the tracer's refine hook."""
        import numpy as np

        if code != 0:
            run.fail(f"exit code {code}")
            return
        try:
            with open(stem + ".report") as f:
                sources = json.load(f)["sources"]
        except (OSError, ValueError, KeyError) as exc:
            run.fail(f"unreadable report: {exc}")
            return
        if len(sources) != NUM_SOURCES:
            run.fail(f"{len(sources)} sources reported, expected {NUM_SOURCES}")
            return
        directions = np.array([s["doa"] for s in sources], dtype=float)
        if directions.shape != (NUM_SOURCES, 3) or not np.all(np.isfinite(directions)):
            run.fail("non-finite or malformed direction")
            return
        if np.max(np.abs(np.linalg.norm(directions, axis=1) - 1.0)) > NORM_TOL:
            run.fail("direction off the unit sphere")
            return
        run.errors_deg.extend(float(e) for e in self.evaluate(directions, truth))
        traces = [np.asarray(s["objective_trace"], dtype=float) for s in sources]
        if not all(np.all(np.isfinite(t)) for t in traces):
            run.fail("non-finite objective trace")
            return
        violations = sum(descent_violated(t.tolist()) for t in traces)
        if violations:
            if not traced:
                run.descent_violations += violations
            run.fail("objective trace rose")

    def run(self, run, seconds, calibration):
        # each process of a run renders its own share of the seed's recordings
        index = self.part * 1_000_000
        chunk = 0
        before = calibration.measure()
        while not run.timed_enough(seconds):
            traced = run.trace and chunk % 2 == 1
            batch = [self.render(TIMED_STREAM, index + i) for i in range(self.chunk)]
            index += self.chunk
            if traced:
                run.tracer.install()
            try:
                for argv, stem, truth in batch:
                    code, elapsed = self.timed_op(run, argv, traced)
                    run.record(traced, elapsed)
                    if not traced:
                        run.latencies_s.append(elapsed)
                    self.check(run, code, stem, truth, traced)
                    for suffix in (".geometry.json", ".wav", ".json", ".report"):
                        with contextlib.suppress(FileNotFoundError):
                            os.remove(stem + suffix)
                    if run.timed_enough(seconds):
                        break
            finally:
                if traced:
                    run.tracer.uninstall()
            after = calibration.measure()
            run.end_chunk(traced, calibration.scale(before, after))
            before = after
            chunk += 1

    def timed_op(self, run, argv, traced):
        run.attempted += 1
        root = run.tracer.root() if traced else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with root:
                code = self.cli.main(argv)
        except Exception:  # a crashing op is a failed op, never the end of the run
            code = "exception: " + traceback.format_exc(limit=1).strip().splitlines()[-1]
        return code, time.perf_counter() - start


class Sweep:
    """`doakit.simulate.monte_carlo` on one fixed array; one op is one trial."""

    def __init__(self, name, seed, part, workdir):
        import numpy as np

        import doakit.simulate
        from doakit import MonteCarloConfig, monte_carlo, random_geometry

        self.np = np
        self.seed = seed
        self.part = part
        self.monte_carlo = monte_carlo
        self.module = doakit.simulate
        self.config = MonteCarloConfig(
            geometry=random_geometry(NUM_SENSORS, ARRAY_RADIUS, seed=SWEEP_ARRAY_SEED),
            num_sources=NUM_SOURCES,
            **SWEEP,
        )
        self.inner = None  # the run_trial the timing wrapper calls
        self.tracer = None  # set during traced sweeps
        self.outcomes = []  # (errors or exception text, seconds, rose) per trial

    def sweep(self, stream, index, trials):
        (master,) = _seeds(self.seed, stream, index, count=1)
        self.config.master_seed = master
        self.config.num_trials = trials
        return self.monte_carlo(self.config)

    def warm_up(self):
        start = time.perf_counter()
        self.sweep(WARMUP_STREAM, self.part, 1)
        return time.perf_counter() - start

    def trial(self, *args, **kwargs):
        """Timing wrapper on doakit.simulate.run_trial; checks come after the sweep.

        In traced sweeps the tracer's refine hook counts rising objectives;
        the count is read outside the timed call."""
        rose_before = self.tracer.counts[DESCENT_COUNT] if self.tracer else 0
        start = time.perf_counter()
        try:
            result = self.inner(*args, **kwargs)
        except Exception:  # a crashing trial is a failed op, never the end of the sweep
            elapsed = time.perf_counter() - start
            result = (self.np.full(NUM_SOURCES, self.np.nan), elapsed)
            errors = "exception: " + traceback.format_exc(limit=1).strip().splitlines()[-1]
        else:
            elapsed = time.perf_counter() - start
            errors = result[0]
        rose = self.tracer.counts[DESCENT_COUNT] > rose_before if self.tracer else False
        self.outcomes.append((errors, elapsed, rose))
        return result

    def check(self, run, outcome, traced):
        errors, elapsed, rose = outcome
        run.attempted += 1
        if not traced:
            run.latencies_s.append(elapsed)
        if isinstance(errors, str):
            run.fail(errors)
            return
        errors = self.np.asarray(errors, dtype=float)
        if errors.shape != (NUM_SOURCES,) or not self.np.all(self.np.isfinite(errors)):
            run.fail(f"trial errors not {NUM_SOURCES} finite values: {errors!r}")
            return
        run.errors_deg.extend(float(e) for e in errors)
        if rose:
            run.fail("refine objective rose in a trial")

    def run(self, run, seconds, calibration):
        # each process of a run takes its own share of the seed's sweeps
        index = self.part * 1_000_000
        sweep = 0
        before = calibration.measure()
        while not run.timed_enough(seconds):
            traced = run.trace and sweep % 2 == 1
            self.tracer = run.tracer if traced else None
            if traced:
                run.tracer.install()  # wraps run_trial before the timing wrapper goes on
            self.inner = self.module.run_trial
            self.module.run_trial = self.trial
            self.outcomes = []
            try:
                root = run.tracer.root() if traced else contextlib.nullcontext()
                start = time.perf_counter()
                with root:
                    self.sweep(TIMED_STREAM, index + sweep, TRIALS_PER_CELL)
                elapsed = time.perf_counter() - start
            finally:
                self.module.run_trial = self.inner
                if traced:
                    run.tracer.uninstall()
            after = calibration.measure()
            run.record(traced, elapsed, ops=len(self.outcomes))
            for outcome in self.outcomes:
                self.check(run, outcome, traced)
            run.end_chunk(traced, calibration.scale(before, after))
            before = after
            sweep += 1


WORKLOADS = {"locate-coarse": Locate, "locate-dense": Locate, "mc-sweep": Sweep}


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, required=True,
                        help="index of this process within the run; selects its inputs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    before_import = time.perf_counter()
    import doakit  # noqa: F401  (the import is part of set-up)

    import_s = time.perf_counter() - before_import
    workload = WORKLOADS[args.workload](args.workload, args.seed, args.part, args.workdir)
    setup_s = import_s + workload.warm_up()
    calibration = Calibration()
    run = Run(bool(args.trace))
    workload.run(run, args.seconds, calibration)
    print(json.dumps(run.result(setup_s, calibration, environment())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
