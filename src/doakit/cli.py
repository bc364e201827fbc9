"""Command-line interface: locate, bench, grid, simulate.

Exit codes: 0 success, 2 usage or validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import struct
import sys

import numpy as np

from .manifold import (
    ArrayGeometry,
    angles_from_doa,
    check_number,
    fibonacci_grid,
    fibonacci_points,
)
from .simulate import (
    ESTIMATORS,
    VARIANTS,
    MonteCarloConfig,
    Scene,
    as_integer,
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


def _reject_unknown(keys, known, what):
    unknown = set(keys) - set(known)
    if unknown:
        raise ValueError(f"unknown {what}: {sorted(unknown)}")


def _load_json_object(path, what):
    try:
        with open(path) as f:
            loaded = json.load(f)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}")
    if not isinstance(loaded, dict):
        raise ValueError(f"{what} {path} must hold a JSON object")
    return loaded


def _load_config(args):
    """Merge defaults, config file values and explicit flags (flags win)."""
    config = dict(DEFAULTS)
    path = getattr(args, "config", None)
    if path:
        loaded = _load_json_object(path, "config")
        _reject_unknown(loaded, [*DEFAULTS, "geometry", "input", "output"], "config keys")
        config.update(loaded)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            config[key] = value
    return config


def _integer(config, key):
    """An integer setting of the merged config; 100.0 counts as 100, and any
    other non-integer exits 2 with the key in the message."""
    return as_integer(config[key], key)


def _number(config, key):
    """A real-valued setting of the merged config as a float; a bool or a
    non-number exits 2 with the key in the message."""
    check_number(config[key], key)
    return float(config[key])


def _path(settings, key):
    """A file path setting, or None when ``settings`` does not hold ``key``;
    anything but a non-empty string exits 2 with the key in the message."""
    if key not in settings:
        return None
    value = settings[key]
    if not (isinstance(value, str) and value):
        raise ValueError(f"{key} must be a non-empty file path, got {value!r}")
    return value


def _refuse_overwrite(written, read):
    """ValueError, before anything is written, when one of the ``written``
    paths names the same file as one of the ``read`` (what, path) pairs,
    after resolving links and ``..``; a None path is skipped."""
    targets = {os.path.realpath(path): path for path in written if path}
    for what, source in read:
        path = targets.get(os.path.realpath(source)) if source else None
        if path:
            raise ValueError(f"{path} would overwrite the {what} file {source}")


def _load_geometry(config):
    path = _path(config, "geometry")
    if path is None:
        raise ValueError(
            'a geometry file is required (--geometry, or "geometry" in a config or sweep file)'
        )
    try:
        return ArrayGeometry.from_json(path)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"cannot read geometry {path}: {exc}")


# WAVE format tags; WAVE_FORMAT_EXTENSIBLE names the real one in the first
# bytes of a sub-format GUID whose remaining bytes are fixed
_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
_GUID_TAIL = b"\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _parse_fmt(body, end):
    """(tag, channels, rate, bytes per sample, bits per sample) of a fmt
    chunk, with ``end`` the struct byte order of the file."""
    if len(body) < 16:
        raise ValueError("fmt chunk is shorter than 16 bytes")
    tag, channels, rate, byte_rate, align, bits = struct.unpack(end + "HHIIHH", body[:16])
    if tag == _EXTENSIBLE and len(body) >= 18:
        if struct.unpack(end + "H", body[16:18])[0] < 22 or len(body) < 40:
            raise ValueError("WAVE_FORMAT_EXTENSIBLE fmt chunk is too short")
        guid = body[24:40]
        if guid[4:] == struct.pack(end + "HH", 0, 0x10) + _GUID_TAIL:
            tag = struct.unpack(end + "I", guid[:4])[0]
    if tag not in (_PCM, _IEEE_FLOAT):
        raise ValueError(f"unsupported WAV format tag {tag:#06x}")
    if tag == _PCM and byte_rate != rate * align:
        raise ValueError("WAV header byte rate is not sample rate x block align")
    if not 0 < channels <= align:
        raise ValueError(f"WAV header has {channels} channels in {align}-byte blocks")
    return tag, channels, rate, align // channels, bits


def _read_samples(f, size, fmt, end):
    """The ``size``-byte data chunk at the file position as (frames,
    channels) samples in the dtype scipy.io.wavfile.read gives them."""
    tag, channels, _, width, bits = fmt
    if tag == _IEEE_FLOAT:
        if bits not in (32, 64) or width not in (4, 8):
            raise ValueError(f"unsupported {bits}-bit float samples")
        dtype = f"{end}f{width}"
    elif 1 <= bits <= 8:
        dtype = "u1"  # PCM of 8 bits or fewer is unsigned
    elif width in (3, 5, 6, 7):
        # no dtype that wide: each sample goes into the high bytes of the
        # next wider signed integer
        wide = 4 if width == 3 else 8
        raw = np.fromfile(f, dtype=np.uint8, count=size).reshape(-1, width)
        padded = np.zeros((raw.shape[0], wide), dtype=np.uint8)
        if end == ">":
            padded[:, :width] = raw
        else:
            padded[:, wide - width:] = raw
        return padded.view(f"{end}i{wide}").reshape(-1, channels)
    elif bits <= 64 and width in (1, 2, 4, 8):
        dtype = f"{end}i{width}"
    else:
        raise ValueError(f"unsupported {bits}-bit PCM samples in {width}-byte containers")
    return np.fromfile(f, dtype=dtype, count=size // width).reshape(-1, channels)


def _read_wav(path):
    """(sample rate, (frames, channels) samples) of a WAV file, the samples
    as scipy.io.wavfile.read returns them: RIFF, RIFX or RF64; PCM, unsigned
    up to 8 bits and signed up to 64, or IEEE float of 32 or 64 bits; plain
    or WAVE_FORMAT_EXTENSIBLE."""
    with open(path, "rb") as f:
        riff = f.read(12)
        if len(riff) < 12 or riff[:4] not in (b"RIFF", b"RIFX", b"RF64") or riff[8:] != b"WAVE":
            raise ValueError("not a RIFF WAVE file")
        end = ">" if riff[:4] == b"RIFX" else "<"
        stop = struct.unpack(end + "I", riff[4:8])[0] + 8
        data_size = None
        if riff[:4] == b"RF64":
            # its 32-bit sizes read 0xFFFFFFFF; a ds64 chunk holds the real ones
            chunk, size, riff_size, data_size = struct.unpack("<4sIQQ", f.read(24))
            if chunk != b"ds64":
                raise ValueError("RF64 file without a ds64 chunk")
            stop = riff_size + 8
            f.seek(size - 16, 1)
        fmt = samples = None
        while f.tell() < stop:
            head = f.read(8)
            if len(head) < 8:
                if samples is not None:
                    break  # cut short after its data, which scipy reads too
                raise ValueError("file ends before its data chunk")
            chunk, size = struct.unpack(end + "4sI", head)
            start = f.tell()
            if chunk == b"fmt ":
                fmt = _parse_fmt(f.read(size), end)
            elif chunk == b"data":
                if fmt is None:
                    raise ValueError("data chunk before the fmt chunk")
                size = size if data_size is None else data_size
                samples = _read_samples(f, size, fmt, end)
            f.seek(start + size + size % 2)  # chunks are padded to even sizes
        if samples is None:
            raise ValueError("no data chunk")
    return fmt[2], samples


def _write_wav(path, rate, samples):
    """Write (frames, channels) samples as float32, byte for byte as
    scipy.io.wavfile.write does: RIFF, an 18-byte fmt chunk, a fact chunk
    with the frame count, then the data."""
    frames, channels = samples.shape
    fmt = struct.pack("<HHIIHHH", _IEEE_FLOAT, channels, rate, 4 * channels * rate,
                      4 * channels, 32, 0)
    riff_size = 50 + 4 * samples.size
    if riff_size > 0xFFFFFFFF:
        raise ValueError("the recording is too long for a RIFF WAV file")
    with open(path, "wb") as f:
        f.write(struct.pack("<4sI4s4sI", b"RIFF", riff_size, b"WAVE", b"fmt ", len(fmt)))
        f.write(fmt)
        f.write(struct.pack("<4sII4sI", b"fact", 4, frames, b"data", 4 * samples.size))
        np.asarray(samples, dtype="<f4").tofile(f)


def _read_input(config, num_sensors):
    path = _path(config, "input")
    if path is None:
        raise ValueError("an input file is required (--input)")
    wav = path.lower().endswith(".wav")
    if not wav:
        # raw interleaved float32 at the configured sample rate
        rate = config["sample_rate"]
        check_number(rate, "sample_rate", "be positive and finite", lambda v: 0.0 < v < np.inf)
    try:
        if wav:
            rate, data = _read_wav(path)
        else:
            data = np.fromfile(path, dtype=np.float32)
    except (OSError, ValueError, struct.error) as exc:
        raise ValueError(f"cannot read input {path}: {exc}")
    if not wav:
        if data.size % num_sensors != 0:
            raise ValueError(f"raw input length not divisible by {num_sensors} channels")
        data = data.reshape(-1, num_sensors)
    elif data.dtype == np.uint8:
        data = (data - 128.0) / 128.0  # unsigned, silence at 128
    elif np.issubdtype(data.dtype, np.integer):
        data = data / float(np.iinfo(data.dtype).max)
    # float samples stay as they are; stft casts them a channel at a time
    if data.shape[1] != num_sensors:
        raise ValueError(
            f"input has {data.shape[1]} channels but geometry has {num_sensors} sensors"
        )
    return float(rate), data


def cmd_locate(args):
    config = _load_config(args)
    output = _path(config, "output")
    geometry = _load_geometry(config)
    _refuse_overwrite([output], [("geometry", config["geometry"]),
                                 ("input", _path(config, "input")), ("config", args.config)])
    rate, signal = _read_input(config, geometry.num_sensors)

    frames = stft(
        signal,
        frame_size=_integer(config, "frame_size"),
        hop=_integer(config, "hop"),
        window=config["window"],
        sample_rate=rate,
        f_min=_number(config, "f_min"),
        f_max=_number(config, "f_max"),
    )
    cov = estimator_covariance(frames, config["estimator"])
    traces = locate_sources(
        cov,
        geometry,
        fibonacci_grid(_integer(config, "grid")),
        estimator=config["estimator"],
        s=_number(config, "s"),
        num_sources=_integer(config, "sources"),
        variant=config["variant"],
        max_iters=_integer(config, "iters"),
        min_separation_rad=np.radians(_number(config, "min_separation_deg")),
        rel_tol=_number(config, "tolerance"),
        mvdr_loading=_number(config, "loading"),
    )
    report = {"sources": []}
    for trace in traces:
        q = trace.iterates[-1]
        colat, azim = angles_from_doa(q)
        report["sources"].append(
            {
                "doa": [float(x) for x in q],
                "colatitude_deg": float(np.degrees(colat)),
                "azimuth_deg": float(np.degrees(azim)),
                "objective": float(trace.objectives[-1]),
                "objective_trace": [float(x) for x in trace.objectives],
                "steps": len(trace.objectives) - 1,
                "evaluations": trace.evaluations,
                "converged_at": trace.converged_at,
            }
        )
    _emit(json.dumps(report, indent=2) + "\n", output)
    return EXIT_OK


def cmd_simulate(args):
    config = _load_config(args)
    output = _path(config, "output")
    if output is None:
        raise ValueError("an output WAV path is required (--output)")
    # the truth file sits beside the recording, with its extension swapped
    truth_path = os.path.splitext(output)[0] + ".json"
    if truth_path == output:
        raise ValueError(f"output {output} would be overwritten by the truth file")
    geometry = _load_geometry(config)
    _refuse_overwrite([output, truth_path],
                      [("geometry", config["geometry"]), ("config", args.config)])
    seed = _integer(config, "seed")
    sample_rate = _integer(config, "sample_rate")
    # the WAV header holds the byte rate, 4 bytes per sample and channel, in 32 bits
    if not 0 < 4 * geometry.num_sensors * sample_rate <= 0xFFFFFFFF:
        raise ValueError(
            f"sample_rate must be a positive integer that fits a WAV header, got {sample_rate}"
        )
    rng = np.random.default_rng(seed)
    sources = random_sources(rng, _integer(config, "sources"), np.radians(15.0))
    scene = Scene(
        geometry=geometry,
        sources=sources,
        snr_db=_number(config, "snr_db"),
        seed=seed,
        sample_rate=sample_rate,
        duration=_number(config, "duration"),
    )
    signal = synth_time_scene(scene)
    std = np.std(signal)
    if std > 0.0:  # a silent scene stays silent
        signal = signal / (8.0 * std)  # headroom for float WAV
    _write_wav(output, sample_rate, signal.astype(np.float32))
    truth = {
        "sources": [{"doa": [float(x) for x in q]} for q in sources],
        "snr_db": scene.snr_db,
        "seed": seed,
    }
    with open(truth_path, "w") as f:
        json.dump(truth, f, indent=2)
    print(f"wrote {output} and {truth_path}", file=sys.stderr)
    return EXIT_OK


def cmd_grid(args):
    points = fibonacci_points(args.size)
    lines = ["x,y,z"]
    lines += [",".join(repr(float(c)) for c in p) for p in points]
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_bench(args):
    sweep = _load_json_object(args.sweep, "sweep file")
    geometry = _load_geometry(sweep)
    # the --output flag wins over the sweep file, as flags do for locate
    output = args.output or _path(sweep, "output") or "bench"
    _refuse_overwrite([f"{output}.csv", f"{output}.json"],
                      [("sweep", args.sweep), ("geometry", sweep["geometry"])])
    del sweep["geometry"]
    sweep.pop("output", None)
    _reject_unknown(sweep, MonteCarloConfig.__dataclass_fields__, "sweep keys")
    config = MonteCarloConfig(geometry=geometry, **sweep)
    result = monte_carlo(config)
    result.write_csv(f"{output}.csv")
    result.write_summary(f"{output}.json")
    print(f"wrote {output}.csv and {output}.json", file=sys.stderr)
    return EXIT_OK


def _emit(text, output):
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
    locate.add_argument("--estimator", choices=ESTIMATORS)
    locate.add_argument("--s", type=float, help="power mean exponent")
    locate.add_argument("--grid", type=int, help="initial grid size")
    locate.add_argument("--variant", choices=VARIANTS)
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
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
