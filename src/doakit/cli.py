"""Command-line interface: locate, bench, grid, simulate.

Exit codes: 0 success, 2 usage or validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np
from scipy.io import wavfile

from .manifold import ArrayGeometry, angles_from_doa, fibonacci_grid, fibonacci_points
from .simulate import (
    MonteCarloConfig,
    Scene,
    estimator_covariance,
    locate_sources,
    monte_carlo,
    random_sources,
    synth_time_scene,
)
from .spectral import stft

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

DEFAULTS = {
    "estimator": "srp-phat",
    "s": -3.0,
    "sources": 1,
    "grid": 100,
    "variant": "quadratic",
    "iters": 30,
    "tolerance": 1e-10,
    "seed": 0,
    "frame_size": 512,
    "hop": 256,
    "window": "hann",
    "f_min": 300.0,
    "f_max": 3500.0,
    "loading": 1e-3,
    "min_separation_deg": 10.0,
    "sample_rate": 16000.0,
    "snr_db": 20.0,
    "duration": 1.0,
}


class UsageError(Exception):
    pass


def _reject_unknown(keys, known, what):
    unknown = set(keys) - set(known)
    if unknown:
        raise UsageError(f"unknown {what}: {sorted(unknown)}")


def _load_config(args):
    """Merge defaults, config file values and explicit flags (flags win)."""
    config = dict(DEFAULTS)
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path) as f:
                loaded = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {path}: {exc}")
        _reject_unknown(loaded, [*DEFAULTS, "geometry", "input", "output"], "config keys")
        config.update(loaded)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            config[key] = value
    return config


def _load_geometry(config):
    path = config.get("geometry")
    if not path:
        raise UsageError("a geometry file is required (--geometry)")
    try:
        return ArrayGeometry.from_json(path)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read geometry {path}: {exc}")


def _read_input(config, num_sensors):
    path = config.get("input")
    if not path:
        raise UsageError("an input file is required (--input)")
    try:
        if str(path).endswith(".wav"):
            rate, data = wavfile.read(path)
            if np.issubdtype(data.dtype, np.integer):
                data = data / float(np.iinfo(data.dtype).max)
            else:
                data = data.astype(float)
        else:
            # raw interleaved float32 at the configured sample rate
            rate = float(config["sample_rate"])
            flat = np.fromfile(path, dtype=np.float32)
            if flat.size % num_sensors != 0:
                raise UsageError(
                    f"raw input length not divisible by {num_sensors} channels"
                )
            data = flat.reshape(-1, num_sensors).astype(float)
    except OSError as exc:
        raise UsageError(f"cannot read input {path}: {exc}")
    if data.ndim == 1:
        data = data[:, None]
    if data.shape[1] != num_sensors:
        raise UsageError(
            f"input has {data.shape[1]} channels but geometry has {num_sensors} sensors"
        )
    return float(rate), data


def cmd_locate(args):
    config = _load_config(args)
    geometry = _load_geometry(config)
    rate, signal = _read_input(config, geometry.num_sensors)

    frames = stft(
        signal,
        frame_size=int(config["frame_size"]),
        hop=int(config["hop"]),
        window=config["window"],
        sample_rate=rate,
    )
    cov = estimator_covariance(frames, config["estimator"], config["f_min"], config["f_max"])
    directions, values, traces = locate_sources(
        cov,
        geometry,
        fibonacci_grid(int(config["grid"])),
        estimator=config["estimator"],
        s=float(config["s"]),
        num_sources=int(config["sources"]),
        variant=config["variant"],
        max_iters=int(config["iters"]),
        min_separation_rad=np.radians(float(config["min_separation_deg"])),
        rel_tol=float(config["tolerance"]),
        mvdr_loading=float(config["loading"]),
    )
    report = {"sources": []}
    for q, value, trace in zip(directions, values, traces):
        colat, azim = angles_from_doa(q)
        report["sources"].append(
            {
                "doa": [float(x) for x in q],
                "colatitude_deg": float(np.degrees(colat)),
                "azimuth_deg": float(np.degrees(azim)),
                "objective": float(value),
                "objective_trace": [float(x) for x in trace],
            }
        )
    _emit(report, config.get("output"))
    return EXIT_OK


def cmd_simulate(args):
    config = _load_config(args)
    geometry = _load_geometry(config)
    output = config.get("output")
    if not output:
        raise UsageError("an output WAV path is required (--output)")
    seed = int(config["seed"])
    rng = np.random.default_rng(seed)
    sources = random_sources(rng, int(config["sources"]), np.radians(15.0))
    scene = Scene(
        geometry=geometry,
        sources=sources,
        snr_db=float(config["snr_db"]),
        seed=seed,
        sample_rate=float(config["sample_rate"]),
        duration=float(config["duration"]),
    )
    signal = synth_time_scene(scene)
    std = np.std(signal)
    if std > 0.0:  # a silent scene stays silent
        signal = signal / (8.0 * std)  # headroom for float WAV
    wavfile.write(output, int(scene.sample_rate), signal.astype(np.float32))
    truth = {
        "sources": [{"doa": [float(x) for x in q]} for q in sources],
        "snr_db": float(config["snr_db"]),
        "seed": seed,
    }
    truth_path = str(output).rsplit(".", 1)[0] + ".json"
    with open(truth_path, "w") as f:
        json.dump(truth, f, indent=2)
    print(f"wrote {output} and {truth_path}", file=sys.stderr)
    return EXIT_OK


def cmd_grid(args):
    points = fibonacci_points(args.size)
    lines = ["x,y,z"]
    lines += [",".join(repr(float(c)) for c in p) for p in points]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_bench(args):
    try:
        with open(args.sweep) as f:
            sweep = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read sweep file {args.sweep}: {exc}")
    try:
        geometry = ArrayGeometry.from_json(sweep.pop("geometry"))
    except KeyError:
        raise UsageError("sweep file must name a geometry file")
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read geometry: {exc}")
    output = sweep.pop("output", args.output) or "bench"
    _reject_unknown(sweep, MonteCarloConfig.__dataclass_fields__, "sweep keys")
    for key in ("estimators", "s_values", "grid_sizes", "variants",
                "iteration_counts", "snr_values"):
        if key in sweep:
            sweep[key] = tuple(sweep[key])
    config = MonteCarloConfig(geometry=geometry, **sweep)
    result = monte_carlo(config)
    result.write_csv(f"{output}.csv")
    result.write_summary(f"{output}.json")
    print(f"wrote {output}.csv and {output}.json", file=sys.stderr)
    return EXIT_OK


def _emit(obj, output):
    text = json.dumps(obj, indent=2) + "\n"
    if output:
        with open(output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="doakit", description="DOA estimation with continuous refinement"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    locate = sub.add_parser("locate", help="localize sources in a recording")
    locate.add_argument("--config", help="JSON config file (flags override)")
    locate.add_argument("--geometry", help="array geometry JSON file")
    locate.add_argument("--input", help="multichannel WAV or raw float32 file")
    locate.add_argument("--estimator", choices=["srp", "srp-phat", "music", "mvdr"])
    locate.add_argument("--s", type=float, help="power mean exponent")
    locate.add_argument("--grid", type=int, help="initial grid size")
    locate.add_argument("--variant", choices=["quadratic", "linear", "none"])
    locate.add_argument("--iters", type=int, help="max refinement iterations")
    locate.add_argument("--sources", type=int, help="number of sources")
    locate.add_argument("--sample-rate", dest="sample_rate", type=float,
                        help="sample rate for raw input")
    locate.add_argument("--output", help="write the JSON report here")
    locate.set_defaults(func=cmd_locate)

    simulate = sub.add_parser("simulate", help="write a synthetic WAV + ground truth")
    simulate.add_argument("--config", help="JSON config file (flags override)")
    simulate.add_argument("--geometry", help="array geometry JSON file")
    simulate.add_argument("--sources", type=int)
    simulate.add_argument("--snr-db", dest="snr_db", type=float)
    simulate.add_argument("--duration", type=float, help="seconds")
    simulate.add_argument("--seed", type=int)
    simulate.add_argument("--output", help="output WAV path")
    simulate.set_defaults(func=cmd_simulate)

    grid = sub.add_parser("grid", help="dump a spherical grid as CSV")
    grid.add_argument("size", type=int)
    grid.add_argument("--output")
    grid.set_defaults(func=cmd_grid)

    bench = sub.add_parser("bench", help="run a Monte Carlo sweep with timings")
    bench.add_argument("--sweep", required=True, help="JSON sweep description")
    bench.add_argument("--output", help="output basename for CSV/JSON")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
