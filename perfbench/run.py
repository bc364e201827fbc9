"""doakit benchmark: locate-coarse, locate-dense and mc-sweep.

    python3 perfbench/run.py                      # all workloads, untraced
    python3 perfbench/run.py --workload locate-coarse --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload mc-sweep --trace 1   # per-layer self time
    python3 perfbench/run.py --smoke              # the benchmark's own checks

Run from the root of a doakit source tree; the package is imported from
./src. A run of one workload is three fresh worker processes (worker.py),
one after the other, each of which sets up and then runs a closed loop with
one caller for a third of --seconds. Every time is reported at reference
speed: the wall time scaled by a calibration kernel timed between chunks of
ops (worker.Calibration); wall figures are printed beside them. The last
stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}; with --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, with --trace 1 the per-layer ones. A record with the
environment goes to perfbench/results/.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import Counter

from spans import DESCENT_COUNT, SPANS
from worker import CALIBRATION_REFERENCE_MS, Calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("locate-coarse", "locate-dense", "mc-sweep")
# one run is this many fresh processes, each timing its share of --seconds
PROCESSES = 3
WORKER_TIMEOUT_S = 150
GROSS_ERROR_DEG = 5.0
TAIL_BEYOND = 10
CRITERION_7_GATE = 5.0
SMOKE_SECONDS = 2.0
SMOKE_MAX_UNATTRIBUTED = 0.05

# the 12x12 matrices of this workload gain nothing from BLAS threads, which
# only add scheduling noise; one thread is always at most nproc
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "throughput_per_s": "ops/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "median_error_deg": "deg",
    "gross_error_rate": "fraction",
    "failed_fraction": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def run_worker(workload, seed, part, seconds, trace, workdir):
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
        "--seed", str(seed), "--part", str(part), "--seconds", repr(seconds),
        "--trace", str(trace), "--workdir", workdir,
    ]
    env = dict(os.environ, PYTHONPATH=SRC, **THREAD_ENV)
    proc = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies):
    """The highest percentile with TAIL_BEYOND samples beyond it: the sample
    with exactly that many above it. Returns (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(raws):
    """Metrics of the processes of one run; times at reference speed."""
    errors = [e for raw in raws for e in raw["errors_deg"]]
    wall = [t for raw in raws for t in raw["latencies_s"]]
    latencies = [t * k for raw in raws for t, k in zip(raw["latencies_s"], raw["scales"])]
    wall_setup_s = statistics.median(raw["setup_s"] for raw in raws)
    calibration_ms = statistics.median(ms for raw in raws for ms in raw["calibration_ms"])
    ops = sum(raw["ops"] for raw in raws)
    value, percentile = tail(latencies)
    metrics = {
        "throughput_per_s": ops / sum(raw["busy_ref_s"] for raw in raws),
        "latency_ms_p50": 1e3 * statistics.median(latencies),
        "latency_ms_tail": 1e3 * value,
        "median_error_deg": statistics.median(errors) if errors else float("nan"),
        "gross_error_rate": (
            sum(e > GROSS_ERROR_DEG for e in errors) / len(errors) if errors else 1.0
        ),
        "failed_fraction": sum(r["failed"] for r in raws) / sum(r["attempted"] for r in raws),
        # set-up is mostly import, which follows the kernel less closely than
        # ops do; the run's median kernel time still removes most of the drift
        # between runs minutes apart
        "setup_s": wall_setup_s * Calibration.scale(calibration_ms),
        "peak_rss_mb": max(raw["peak_rss_mb"] for raw in raws),
    }
    detail = {
        "wall_throughput_per_s": ops / sum(raw["busy_s"] for raw in raws),
        "wall_latency_ms_p50": 1e3 * statistics.median(wall),
        "wall_setup_s": wall_setup_s,
        "calibration_ms": calibration_ms,
        "latency_ms_tail_percentile": percentile,
        "latency_samples": len(latencies),
        "error_samples": len(errors),
        "wall_setup_s_samples": [raw["setup_s"] for raw in raws],
    }
    return metrics, detail


def merge_traces(raws):
    merged = {"calls": Counter(), "self_s": Counter(), "total_s": Counter(), "counts": Counter(),
              "root_s": 0.0, "root_self_s": 0.0}
    for raw in raws:
        for key in ("calls", "self_s", "total_s", "counts"):
            merged[key].update(raw["trace"][key])
        merged["root_s"] += raw["trace"]["root_s"]
        merged["root_self_s"] += raw["trace"]["root_self_s"]
    return merged


def per_layer(raws, e2e, detail):
    trace = merge_traces(raws)
    ops = sum(raw["traced_ops"] for raw in raws)
    traced_ref_s = sum(raw["traced_ref_s"] for raw in raws)
    calls, self_s, counts = trace["calls"], trace["self_s"], trace["counts"]
    metrics = {}
    for span in SPANS:
        metrics[f"{span}.calls_per_op"] = calls[span] / ops
        metrics[f"{span}.self_ms_per_op"] = 1e3 * self_s[span] / ops
    refine_calls = calls["refine.refine"]
    steps = counts["refine.steps"]
    metrics.update({
        "estimators.band_powers.quadforms_per_op": counts["band_powers.quadforms"] / ops,
        "estimators.band_powers.flops_per_op": counts["band_powers.flops"] / ops,
        "estimators.band_powers.bytes_per_op": counts["band_powers.bytes"] / ops,
        "refine.refine.steps_per_call": steps / refine_calls if refine_calls else 0.0,
        "refine.refine.converged_fraction": (
            counts["refine.converged"] / refine_calls if refine_calls else 0.0
        ),
        "refine.refine.descent_violations": (
            counts[DESCENT_COUNT] + sum(raw["descent_violations"] for raw in raws)
        ),
        "refine.refine.ms_per_step": (
            1e3 * trace["total_s"]["refine.refine"] / steps if steps else 0.0
        ),
        "unattributed_ms_per_op": 1e3 * trace["root_self_s"] / ops,
        "traced_op_ms": 1e3 * trace["root_s"] / ops,
        "trace_overhead_pct": 100.0 * (e2e["throughput_per_s"] * traced_ref_s / ops - 1.0),
        "latency_ms_tail": e2e["latency_ms_tail"],
        "gross_error_rate": e2e["gross_error_rate"],
        "failed_fraction": e2e["failed_fraction"],
        "calibration_ms": detail["calibration_ms"],
        "wall_throughput_per_s": detail["wall_throughput_per_s"],
        "wall_latency_ms_p50": detail["wall_latency_ms_p50"],
        "wall_setup_s": detail["wall_setup_s"],
    })
    return metrics


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(workload, seed, seconds, trace):
    """Run one workload in fresh processes, one after the other; returns its record."""
    e2e_units, layer_units = load_benchmark()
    workdir = os.path.join(HERE, "_work", f"{workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        raws = [
            run_worker(workload, seed, part, seconds / PROCESSES, trace, workdir)
            for part in range(PROCESSES)
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(os.path.dirname(workdir))
    e2e, detail = end_to_end(raws)
    layers = per_layer(raws, e2e, detail) if trace else {}
    gated_units = layer_units if trace else e2e_units
    attempted = sum(raw["attempted"] for raw in raws)
    failed = sum(raw["failed"] for raw in raws)
    correct = failed == 0 and e2e["median_error_deg"] < GROSS_ERROR_DEG
    env = dict(
        raws[0]["env"],
        nproc=os.cpu_count(),
        cpus_allowed=len(os.sched_getaffinity(0)),
        machine=platform.machine(),
        commit=git_commit(),
        seed=seed,
        seconds=seconds,
        processes=PROCESSES,
        ops=sum(raw["ops"] + raw["traced_ops"] for raw in raws),
    )
    return {
        "workload": workload,
        "trace": trace,
        "env": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": [p for raw in raws for p in raw["problems"]][:5],
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()},
        "detail": detail,
        "per_layer": {k: {"value": v, "unit": layer_units[k]} for k, v in layers.items()},
        "gated": {
            k: {"value": v, "unit": gated_units[k]}
            for k, v in (layers if trace else e2e).items()
            if k in gated_units
        },
    }


def print_record(record):
    env = record["env"]
    print(f"== {record['workload']}  seed={env['seed']}  trace={record['trace']}  "
          f"ops={env['ops']}  attempted={record['attempted']}  failed={record['failed']}")
    print("   env " + json.dumps(env, sort_keys=True))
    print(f"   calibration kernel {record['detail']['calibration_ms']:.3f} ms "
          f"(reference {CALIBRATION_REFERENCE_MS} ms)")
    detail = record["detail"]
    for name, metric in record["end_to_end"].items():
        note = ""
        if name == "latency_ms_tail":
            note = (f"  (p{detail['latency_ms_tail_percentile']:.1f} of "
                    f"{detail['latency_samples']} ops)")
        elif name == "median_error_deg":
            note = f"  ({detail['error_samples']} sources)"
        elif name in ("throughput_per_s", "latency_ms_p50", "setup_s"):
            note = f"  (wall {detail['wall_' + name]:.6g})"
        print(f"   {name:<40} {metric['value']:>14.6g} {metric['unit']}{note}")
    for name, metric in record["per_layer"].items():
        print(f"   {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    for problem in record["problems"]:
        print(f"   problem: {problem}")


def save(record, name):
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", f"{name}.json"), "w") as f:
        json.dump(record, f, indent=2)


def result_line(records):
    metrics = {}
    for record in records:
        prefix = f"{record['workload']}:" if len(records) > 1 else ""
        metrics.update({prefix + k: v for k, v in record["gated"].items()})
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    })


def criterion_7(records):
    p50 = {r["workload"]: r["end_to_end"]["latency_ms_p50"]["value"] for r in records}
    ratio = p50["locate-dense"] / p50["locate-coarse"]
    print(f"criterion 7 read-out (informational): locate-dense p50 / locate-coarse p50 = "
          f"{p50['locate-dense']:.1f} ms / {p50['locate-coarse']:.1f} ms = {ratio:.2f}x "
          f"(gate: >= {CRITERION_7_GATE:.0f}x)")


def smoke(seed):
    """A few ops per workload, traced; checks names, units and zero-call predictions."""
    e2e_units, layer_units = load_benchmark()
    zero_calls = {
        "locate-coarse": ("simulate.synth_stft_scene", "simulate.run_trial"),
        "locate-dense": ("simulate.synth_stft_scene", "simulate.run_trial", "refine."),
        "mc-sweep": ("spectral.stft", "cli.cmd_locate", "cli.main"),
    }
    failures = []
    for workload in WORKLOADS:
        record = run_workload(workload, seed, SMOKE_SECONDS, 1)
        print_record(record)
        e2e, layers = record["end_to_end"], record["per_layer"]
        for name, unit in list(e2e_units.items()) + list(END_TO_END_UNITS.items()):
            if e2e.get(name, {}).get("unit") != unit:
                failures.append(f"{workload}: end-to-end {name} missing or not in {unit}")
        for name, unit in layer_units.items():
            if layers.get(name, {}).get("unit") != unit:
                failures.append(f"{workload}: per-layer {name} missing or not in {unit}")
        for prefix in zero_calls[workload]:
            for name, metric in layers.items():
                if name.startswith(prefix) and name.endswith(".calls_per_op") and metric["value"]:
                    failures.append(f"{workload}: {name} = {metric['value']}, expected 0")
        op_ms = layers["traced_op_ms"]["value"]
        unattributed = layers["unattributed_ms_per_op"]["value"]
        attributed = sum(m["value"] for n, m in layers.items() if n.endswith(".self_ms_per_op"))
        if abs(attributed + unattributed - op_ms) > 1e-6 * op_ms:
            failures.append(f"{workload}: self times + unattributed != op latency")
        if unattributed > SMOKE_MAX_UNATTRIBUTED * op_ms:
            failures.append(f"{workload}: unattributed {unattributed:.3f} ms of {op_ms:.3f} ms")
        if record["failed"] or not record["correct"]:
            failures.append(f"{workload}: {record['failed']} failed ops")
    for failure in failures:
        print(f"SMOKE FAIL {failure}")
    print("SMOKE " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description="doakit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, untraced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's own checks")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "doakit", "__init__.py")):
        print(f"error: no doakit package under {SRC}; run from a doakit source tree",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    for workload in workloads:
        record = run_workload(workload, args.seed, args.seconds, args.trace)
        print_record(record)
        save(record, f"{workload}-seed{args.seed}-trace{args.trace}")
        records.append(record)
    if len(records) == len(WORKLOADS):
        criterion_7(records)
    print(result_line(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
