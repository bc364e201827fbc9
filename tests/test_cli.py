import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import doakit.simulate
from doakit.cli import DEFAULTS, main
from doakit.manifold import (
    ArrayGeometry,
    fibonacci_grid,
    fibonacci_points,
    great_circle_distance,
    random_geometry,
)
from doakit.estimators import band_powers, grid_search, power_mean
from doakit.refine import refine
from doakit.simulate import build_cost_spec, estimator_covariance, locate_sources
from doakit.spectral import stft
from oracles import plain_mm

@pytest.fixture
def geometry_file(tmp_path):
    geom = random_geometry(num_sensors=8, seed=3)
    path = tmp_path / "array.json"
    geom.to_json(path)
    return str(path)


def test_simulate_then_locate(tmp_path, geometry_file, capsys):
    wav = str(tmp_path / "scene.wav")
    rc = main([
        "simulate", "--geometry", geometry_file, "--sources", "1",
        "--snr-db", "20", "--seed", "5", "--duration", "0.5",
        "--output", wav,
    ])
    assert rc == 0
    truth = json.loads((tmp_path / "scene.json").read_text())
    assert truth["seed"] == 5

    report_path = str(tmp_path / "report.json")
    rc = main([
        "locate", "--geometry", geometry_file, "--input", wav,
        "--sources", "1", "--grid", "400", "--iters", "30",
        "--output", report_path,
    ])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["sources"]) == 1
    found = np.array(report["sources"][0]["doa"])
    want = np.array(truth["sources"][0]["doa"])
    assert np.degrees(great_circle_distance(found, want)) < 1.0
    # refinement trace is monotone
    trace = report["sources"][0]["objective_trace"]
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    # angles in the report are consistent with the unit vector
    colat = np.radians(report["sources"][0]["colatitude_deg"])
    azim = np.radians(report["sources"][0]["azimuth_deg"])
    rebuilt = np.array([
        np.sin(colat) * np.cos(azim),
        np.sin(colat) * np.sin(azim),
        np.cos(colat),
    ])
    np.testing.assert_allclose(rebuilt, found, atol=1e-9)


def test_locate_variant_none_matches_grid_point(tmp_path, geometry_file):
    wav = str(tmp_path / "scene.wav")
    main([
        "simulate", "--geometry", geometry_file, "--sources", "1",
        "--seed", "9", "--duration", "0.5", "--output", wav,
    ])
    out = str(tmp_path / "coarse.json")
    rc = main([
        "locate", "--geometry", geometry_file, "--input", wav,
        "--grid", "400", "--variant", "none", "--output", out,
    ])
    assert rc == 0
    report = json.loads((tmp_path / "coarse.json").read_text())
    found = np.array(report["sources"][0]["doa"])
    points = fibonacci_points(400)
    nearest = np.min(np.linalg.norm(points - found, axis=1))
    assert nearest < 1e-9  # exactly a grid point, no refinement applied
    assert report["sources"][0]["objective_trace"] == [
        report["sources"][0]["objective"]
    ]
    assert report["sources"][0]["steps"] == 0
    assert report["sources"][0]["converged_at"] is None


def test_locate_config_file_with_flag_override(tmp_path, geometry_file):
    wav = str(tmp_path / "scene.wav")
    main([
        "simulate", "--geometry", geometry_file, "--sources", "1",
        "--seed", "2", "--duration", "0.5", "--output", wav,
    ])
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({
        "geometry": geometry_file,
        "input": wav,
        "grid": 400,
        "iters": 0,
        "estimator": "srp",
    }))
    out = str(tmp_path / "r.json")
    rc = main(["locate", "--config", str(config), "--output", out])
    assert rc == 0
    # the flag wins over the config value
    out2 = str(tmp_path / "r2.json")
    rc = main(["locate", "--config", str(config), "--iters", "20",
               "--output", out2])
    assert rc == 0
    a = json.loads((tmp_path / "r.json").read_text())
    b = json.loads((tmp_path / "r2.json").read_text())
    assert len(a["sources"][0]["objective_trace"]) == 1
    assert len(b["sources"][0]["objective_trace"]) > 1


def test_locate_config_rejects_unknown_keys(tmp_path, geometry_file, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"grid_size": 7, "estimatr": "music"}))
    rc = main(["locate", "--config", str(config), "--geometry", geometry_file,
               "--input", "nope.wav"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "estimatr" in err and "grid_size" in err


@pytest.mark.parametrize("content", ["5", '["grid"]', "null", '"text"'])
def test_locate_config_must_be_object(tmp_path, geometry_file, capsys, content):
    config = tmp_path / "conf.json"
    config.write_text(content)
    rc = main(["locate", "--config", str(config), "--geometry", geometry_file,
               "--input", "nope.wav"])
    assert rc == 2
    assert "must hold a JSON object" in capsys.readouterr().err


def test_locate_has_no_seed_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["locate", "--seed", "5"])
    assert exc.value.code == 2


def test_simulate_silent_scene_writes_finite_wav(tmp_path, geometry_file):
    from scipy.io import wavfile

    wav = str(tmp_path / "silent.wav")
    rc = main(["simulate", "--geometry", geometry_file, "--sources", "0",
               "--snr-db", "inf", "--duration", "0.1", "--output", wav])
    assert rc == 0
    _, data = wavfile.read(wav)
    assert data.shape == (1600, 8)
    assert np.all(np.isfinite(data))


@pytest.mark.parametrize("estimator", ["srp", "srp-phat", "music", "mvdr"])
@pytest.mark.parametrize("kind", ["silent", "nan", "silent-8-bit"])
def test_locate_without_usable_signal_exits_3(tmp_path, geometry_file, capsys,
                                              kind, estimator):
    from scipy.io import wavfile

    data = np.zeros((8000, 8), dtype=np.float32)
    if kind == "nan":
        data = np.random.default_rng(0).standard_normal(data.shape).astype(np.float32)
        data[1234, 3] = np.nan
    elif kind == "silent-8-bit":
        data = np.full(data.shape, 128, dtype=np.uint8)  # unsigned, silence at 128
    wav = str(tmp_path / f"{kind}.wav")
    wavfile.write(wav, 16000, data)
    out = tmp_path / "report.json"
    rc = main(["locate", "--geometry", geometry_file, "--input", wav,
               "--estimator", estimator, "--output", str(out)])
    assert rc == 3
    assert "no usable signal" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("estimator", ["srp-phat", "music"])
def test_locate_matches_library_pipeline(tmp_path, geometry_file, estimator):
    from scipy.io import wavfile

    wav = str(tmp_path / "scene.wav")
    main(["simulate", "--geometry", geometry_file, "--sources", "2",
          "--seed", "4", "--duration", "0.5", "--output", wav])
    out = str(tmp_path / "report.json")
    rc = main(["locate", "--geometry", geometry_file, "--input", wav,
               "--estimator", estimator, "--sources", "2", "--grid", "200",
               "--iters", "10", "--output", out])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())

    rate, signal = wavfile.read(wav)
    frames = stft(signal.astype(float), frame_size=DEFAULTS["frame_size"],
                  hop=DEFAULTS["hop"], window=DEFAULTS["window"], sample_rate=float(rate),
                  f_min=DEFAULTS["f_min"], f_max=DEFAULTS["f_max"])
    cov = estimator_covariance(frames, estimator)
    traces = locate_sources(
        cov, ArrayGeometry.from_json(geometry_file), fibonacci_grid(200),
        estimator=estimator, s=DEFAULTS["s"], num_sources=2, variant="quadratic",
        max_iters=10, min_separation_rad=np.radians(DEFAULTS["min_separation_deg"]),
        rel_tol=DEFAULTS["tolerance"], mvdr_loading=DEFAULTS["loading"],
    )
    sources = report["sources"]
    assert [s["doa"] for s in sources] == [list(t.iterates[-1]) for t in traces]
    assert [s["objective"] for s in sources] == [t.objectives[-1] for t in traces]
    assert [s["objective_trace"] for s in sources] == [t.objectives for t in traces]
    assert [s["converged_at"] for s in sources] == [t.converged_at for t in traces]


def test_locate_ends_at_the_limit_within_the_step_cap(tmp_path, geometry_file):
    # CI's array and scene length, MUSIC, two sources, at the least seed from
    # 0 up on which all three gates below hold (seed 1): with the
    # extrapolation the 30-step answer is the rel_tol = 0 limit, and plain
    # MM's, to the ~1e-4 deg a flat objective resolves, while plain MM at
    # 30 steps ends 16.9 deg short of it
    wav = str(tmp_path / "scene.wav")
    assert main(["simulate", "--geometry", geometry_file, "--sources", "2",
                 "--seed", "1", "--duration", "0.5", "--output", wav]) == 0
    out = tmp_path / "report.json"
    assert main(["locate", "--geometry", geometry_file, "--input", wav,
                 "--estimator", "music", "--sources", "2", "--iters", "30",
                 "--output", str(out)]) == 0
    sources = json.loads(out.read_text())["sources"]

    from scipy.io import wavfile

    rate, signal = wavfile.read(wav)
    frames = stft(signal, frame_size=DEFAULTS["frame_size"], hop=DEFAULTS["hop"],
                  sample_rate=float(rate), f_min=DEFAULTS["f_min"], f_max=DEFAULTS["f_max"])
    geometry = ArrayGeometry.from_json(geometry_file)
    spec = build_cost_spec(estimator_covariance(frames, "music"), "music", DEFAULTS["s"], 2)
    grid = fibonacci_grid(DEFAULTS["grid"])
    peaks = grid_search(power_mean(band_powers(spec, geometry, grid.points), spec.s), grid, 2,
                        np.radians(DEFAULTS["min_separation_deg"]))

    def degrees(a, b):
        return float(np.degrees(great_circle_distance(np.asarray(a), b)))

    shortfalls = []
    for source, (q0, _) in zip(sources, peaks):
        assert source["steps"] <= 30
        limit = refine(spec, geometry, q0, max_iters=10_000, rel_tol=0.0).iterates[-1]
        reference = plain_mm(spec, geometry, q0, max_iters=10_000, rel_tol=0.0).iterates[-1]
        assert degrees(source["doa"], limit) < 1e-4
        assert degrees(source["doa"], reference) < 2e-4
        shortfalls.append(degrees(plain_mm(spec, geometry, q0).iterates[-1], limit))
    assert max(shortfalls) > 0.05


@pytest.fixture
def two_source_wav(tmp_path, geometry_file):
    wav = str(tmp_path / "two.wav")
    assert main(["simulate", "--geometry", geometry_file, "--sources", "2",
                 "--seed", "6", "--duration", "0.5", "--output", wav]) == 0
    return wav


@pytest.mark.parametrize(
    "flags, config, message",
    [
        (["--s", "nan"], {}, "exponent s"),
        ([], {"loading": float("nan")}, "loading"),
        ([], {"loading": float("inf")}, "loading"),
        ([], {"frame_size": 0}, "frame_size"),
        ([], {"min_separation_deg": float("nan")}, "min_separation"),
        ([], {"min_separation_deg": 200.0}, "only 1 of 2"),
        ([], {"tolerance": float("nan")}, "rel_tol"),
        ([], {"tolerance": -1.0}, "rel_tol"),
        (["--variant", "none"], {"tolerance": float("nan")}, "rel_tol"),
        (["--variant", "none"], {"iters": -5}, "max_iters"),
        ([], {"variant": "bogus", "iters": 0}, "variant"),
        ([], {"estimator": "srp-phat", "loading": float("nan")}, "mvdr_loading"),
        ([], {"estimator": "srp-phat", "loading": float("inf")}, "mvdr_loading"),
        ([], {"estimator": "music", "loading": float("nan")}, "mvdr_loading"),
        ([], {"estimator": "music", "loading": float("inf")}, "mvdr_loading"),
        (["--sources", "0"], {}, "num_sources must be at least 1"),
        (["--sources", "-1"], {}, "num_sources must be at least 1"),
    ],
    ids=["s-nan", "loading-nan", "loading-inf", "frame-size-0", "separation-nan",
         "separation-200", "tolerance-nan", "tolerance-negative",
         "unrefined-tolerance-nan", "unrefined-iters-negative", "variant-bogus",
         "srp-phat-loading-nan", "srp-phat-loading-inf", "music-loading-nan",
         "music-loading-inf", "sources-0", "sources-negative"],
)
def test_locate_rejects_out_of_range_numbers(tmp_path, geometry_file, two_source_wav,
                                             capsys, flags, config, message):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"estimator": "mvdr", **config}))
    out = tmp_path / "report.json"
    rc = main(["locate", "--config", str(conf), "--geometry", geometry_file,
               "--input", two_source_wav, "--sources", "2", *flags,
               "--output", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key", ["s", "loading", "tolerance", "min_separation_deg", "f_min", "f_max"]
)
@pytest.mark.parametrize("value", ["x", True, None, [1.0]], ids=["string", "bool", "null", "list"])
def test_locate_rejects_non_number_settings(tmp_path, geometry_file, two_source_wav,
                                            capsys, key, value):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({key: value}))
    out = tmp_path / "report.json"
    rc = main(["locate", "--config", str(conf), "--geometry", geometry_file,
               "--input", two_source_wav, "--output", str(out)])
    assert rc == 2
    assert f"{key} must be a number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ({"f_min": 3500.0, "f_max": 300.0}, "f_min must be below f_max"),
        ({"f_min": 300.0, "f_max": 300.0}, "f_min must be below f_max"),
        ({"f_min": 300.0, "f_max": 310.0}, "band selection is empty"),
        ({"f_min": 9000.0, "f_max": 12000.0}, "band selection is empty"),
    ],
    ids=["inverted", "equal", "between-bands", "above-nyquist"],
)
@pytest.mark.parametrize("estimator", ["srp-phat", "music"])
def test_locate_rejects_empty_or_inverted_band_range(tmp_path, geometry_file, two_source_wav,
                                                     capsys, config, message, estimator):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"estimator": estimator, **config}))
    out = tmp_path / "report.json"
    rc = main(["locate", "--config", str(conf), "--geometry", geometry_file,
               "--input", two_source_wav, "--output", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("window, code", [("boxcar", 0), ("kaiser", 2)])
def test_locate_window_setting(tmp_path, geometry_file, two_source_wav, capsys,
                               window, code):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"window": window}))
    out = tmp_path / "report.json"
    rc = main(["locate", "--config", str(conf), "--geometry", geometry_file,
               "--input", two_source_wav, "--output", str(out)])
    assert rc == code
    assert out.exists() == (code == 0)
    if code:
        assert "unknown window 'kaiser'" in capsys.readouterr().err


def test_locate_reports_steps_and_convergence(tmp_path, geometry_file, two_source_wav):
    reports = {}
    for iters in ("1", "30"):
        out = tmp_path / f"report-{iters}.json"
        rc = main(["locate", "--geometry", geometry_file, "--input", two_source_wav,
                   "--sources", "2", "--iters", iters, "--output", str(out)])
        assert rc == 0
        reports[iters] = json.loads(out.read_text())["sources"]
    for source in reports["1"]:
        assert source["steps"] == 1
        assert source["evaluations"] == 2
        assert source["converged_at"] is None
    converged = [s for s in reports["30"] if s["converged_at"] is not None]
    assert converged
    for source in reports["30"]:
        assert source["steps"] == len(source["objective_trace"]) - 1 <= 30
        assert source["evaluations"] >= source["steps"] + 1
    for source in converged:
        assert source["converged_at"] == source["steps"]


@pytest.mark.parametrize(
    "key, value",
    [("iters", 2.5), ("hop", 100.5), ("grid", 100.7), ("frame_size", 256.5),
     ("sources", 1.5), ("grid", "100"), ("iters", True)],
    ids=["iters", "hop", "grid", "frame-size", "sources", "grid-string", "iters-bool"],
)
def test_locate_rejects_non_integer_settings(tmp_path, geometry_file, two_source_wav,
                                             capsys, key, value):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({key: value}))
    out = tmp_path / "report.json"
    rc = main(["locate", "--config", str(conf), "--geometry", geometry_file,
               "--input", two_source_wav, "--output", str(out)])
    assert rc == 2
    assert f"{key} must be an integer" in capsys.readouterr().err
    assert not out.exists()


def test_counts_too_large_for_a_float_exit_2(tmp_path, geometry_file, two_source_wav, capsys):
    # float() of a 401-digit count overflows; the count is an integer, and
    # no grid or band layout that large can be built, so both commands exit 2
    huge = "1" + "0" * 400
    out = tmp_path / "report.json"
    rc = main(["locate", "--geometry", geometry_file, "--input", two_source_wav,
               "--grid", huge, "--output", str(out)])
    assert rc == 2 and not out.exists()
    sweep = tmp_path / "sweep.json"
    sweep.write_text(f'{{"geometry": {json.dumps(geometry_file)}, "frame_size": {huge}}}')
    rc = main(["bench", "--sweep", str(sweep), "--output", str(tmp_path / "bench")])
    assert rc == 2
    assert capsys.readouterr().err.count("error: ") == 2
    assert not any(tmp_path.glob("bench*"))


def test_locate_accepts_integer_valued_floats(tmp_path, geometry_file, two_source_wav):
    settings = {"iters": 5, "hop": 128, "grid": 150, "frame_size": 256, "sources": 2}
    reports = []
    for name, values in (("int", settings),
                         ("float", {k: float(v) for k, v in settings.items()})):
        conf = tmp_path / f"{name}.json"
        conf.write_text(json.dumps(values))
        out = tmp_path / f"{name}-report.json"
        rc = main(["locate", "--config", str(conf), "--geometry", geometry_file,
                   "--input", two_source_wav, "--output", str(out)])
        assert rc == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1]


def test_simulate_rejects_snr_at_minus_inf(tmp_path, geometry_file, capsys):
    wav = tmp_path / "scene.wav"
    rc = main(["simulate", "--geometry", geometry_file, "--snr-db=-inf",
               "--duration", "0.1", "--output", str(wav)])
    assert rc == 2
    assert "snr_db" in capsys.readouterr().err
    assert not wav.exists()


def test_simulate_exits_2_when_the_sources_cannot_be_placed(tmp_path, geometry_file, capsys):
    # 60 random directions all 15 deg apart are drawn with odds near 1e-13
    wav = tmp_path / "scene.wav"
    rc = main(["simulate", "--geometry", geometry_file, "--sources", "60",
               "--duration", "0.1", "--output", str(wav)])
    assert rc == 2
    assert "60 random directions at least 15 deg apart" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["array.json"]


def test_locate_raw_float32_input(tmp_path, geometry_file, capsys):
    from scipy.io import wavfile

    scene = str(tmp_path / "scene.wav")
    main(["simulate", "--geometry", geometry_file, "--sources", "1",
          "--seed", "3", "--duration", "0.5", "--output", scene])
    _, samples = wavfile.read(scene)  # float32, (T, 8)
    # the same samples at another rate, so the raw branch must use --sample-rate
    wav, raw = tmp_path / "8k.wav", tmp_path / "8k.f32"
    wavfile.write(wav, 8000, samples)
    samples.tofile(raw)  # row-major, so the channels are interleaved
    reports = []
    for path, flags in ((wav, []), (raw, ["--sample-rate", "8000"])):
        out = tmp_path / f"{path.name}.json"
        rc = main(["locate", "--geometry", geometry_file, "--input", str(path),
                   *flags, "--output", str(out)])
        assert rc == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1]

    samples.ravel()[:-1].tofile(raw)
    rc = main(["locate", "--geometry", geometry_file, "--input", str(raw),
               "--sample-rate", "8000"])
    assert rc == 2
    assert "not divisible by 8 channels" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["0", "-16000", "nan", "inf"])
def test_locate_raw_input_rejects_bad_sample_rate(tmp_path, geometry_file, capsys, rate):
    raw = tmp_path / "x.f32"
    np.ones((1600, 8), dtype=np.float32).tofile(raw)
    rc = main(["locate", "--geometry", geometry_file, "--input", str(raw),
               f"--sample-rate={rate}"])
    assert rc == 2
    assert "sample_rate must be positive" in capsys.readouterr().err


NON_PATHS = pytest.mark.parametrize(
    "value", [3, True, 0, None, "", ["a"]],
    ids=["int", "bool", "zero", "null", "empty", "list"],
)


@NON_PATHS
def test_locate_rejects_non_string_geometry(tmp_path, two_source_wav, capsys, value):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"geometry": value}))
    out = tmp_path / "report.json"
    rc = main(["locate", "--config", str(conf), "--input", two_source_wav,
               "--output", str(out)])
    assert rc == 2
    assert "geometry must be a non-empty file path" in capsys.readouterr().err
    assert not out.exists()


@NON_PATHS
def test_locate_rejects_non_string_input(tmp_path, geometry_file, capsys, value):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"input": value}))
    out = tmp_path / "report.json"
    rc = main(["locate", "--config", str(conf), "--geometry", geometry_file,
               "--output", str(out)])
    assert rc == 2
    assert "input must be a non-empty file path" in capsys.readouterr().err
    assert not out.exists()


@NON_PATHS
@pytest.mark.parametrize("command", ["locate", "simulate"])
def test_rejects_non_string_output(tmp_path, geometry_file, two_source_wav, capsys,
                                   command, value):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"output": value}))
    before = sorted(tmp_path.iterdir())
    flags = ["--input", two_source_wav] if command == "locate" else ["--duration", "0.1"]
    rc = main([command, "--config", str(conf), "--geometry", geometry_file, *flags])
    assert rc == 2
    captured = capsys.readouterr()
    assert "output must be a non-empty file path" in captured.err
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == before


@NON_PATHS
def test_bench_rejects_non_string_geometry(tmp_path, capsys, value):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"geometry": value}))
    rc = main(["bench", "--sweep", str(sweep), "--output", str(tmp_path / "bench")])
    assert rc == 2
    assert "geometry must be a non-empty file path" in capsys.readouterr().err


@pytest.mark.parametrize("duration", ["inf", "nan", "0", "-1"])
def test_simulate_rejects_bad_duration(tmp_path, geometry_file, capsys, duration):
    wav = tmp_path / "scene.wav"
    rc = main(["simulate", "--geometry", geometry_file, f"--duration={duration}",
               "--output", str(wav)])
    assert rc == 2
    assert "duration must be positive and finite" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["array.json"]


@pytest.mark.parametrize(
    "config",
    [{"sample_rate": 16000.9}, {"sample_rate": 0.5, "duration": 4},
     {"sample_rate": -16000, "duration": -1}, {"sample_rate": 0},
     {"sample_rate": "16000"}, {"sample_rate": 2**32, "duration": 1e-9}],
    ids=["fractional", "half-hertz", "negative", "zero", "string", "too-high"],
)
def test_simulate_rejects_bad_sample_rate(tmp_path, geometry_file, capsys, config):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"duration": 0.1, **config}))
    wav = tmp_path / "scene.wav"
    rc = main(["simulate", "--config", str(conf), "--geometry", geometry_file,
               "--output", str(wav)])
    assert rc == 2
    assert "sample_rate must be" in capsys.readouterr().err
    assert not wav.exists()


def test_simulate_writes_its_sample_rate(tmp_path, geometry_file):
    from scipy.io import wavfile

    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"sample_rate": 8000.0, "duration": 0.25}))
    wav = tmp_path / "scene.wav"
    rc = main(["simulate", "--config", str(conf), "--geometry", geometry_file,
               "--output", str(wav)])
    assert rc == 0
    rate, samples = wavfile.read(wav)
    assert rate == 8000 and samples.shape == (2000, 8)


def test_simulate_and_locate_read_upper_case_wav(tmp_path, geometry_file):
    # a name ending in .WAV is a WAV file both ways, not raw float32 samples
    upper, lower = tmp_path / "scene.WAV", tmp_path / "scene.wav"
    rc = main(["simulate", "--geometry", geometry_file, "--sources", "1",
               "--seed", "5", "--duration", "0.5", "--output", str(upper)])
    assert rc == 0
    assert (tmp_path / "scene.json").exists()
    lower.write_bytes(upper.read_bytes())
    reports = []
    for path in (upper, lower):
        out = tmp_path / f"{path.name}.report"
        rc = main(["locate", "--geometry", geometry_file, "--input", str(path),
                   "--output", str(out)])
        assert rc == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1]


def test_simulate_truth_sits_beside_extensionless_output(tmp_path, geometry_file):
    # only the last path component's extension is swapped, so a dot in a
    # directory name does not move the truth file out of that directory
    (tmp_path / "runs.v1").mkdir()
    rc = main(["simulate", "--geometry", geometry_file, "--sources", "1",
               "--duration", "0.1", "--output", str(tmp_path / "runs.v1" / "scene")])
    assert rc == 0
    assert sorted(p.name for p in (tmp_path / "runs.v1").iterdir()) == ["scene", "scene.json"]
    assert not (tmp_path / "runs.json").exists()


def test_simulate_rejects_output_the_truth_would_overwrite(tmp_path, geometry_file, capsys):
    rc = main(["simulate", "--geometry", geometry_file, "--sources", "1",
               "--duration", "0.1", "--output", str(tmp_path / "scene.json")])
    assert rc == 2
    assert "overwritten by the truth file" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["array.json"]


@pytest.mark.parametrize(
    "geometry_name, output",
    [("array.json", "array.wav"), ("array.json", "sub/../array.wav"), ("array.dat", "array.dat")],
    ids=["truth", "truth-via-dotdot", "wav"],
)
def test_simulate_refuses_to_overwrite_its_geometry(tmp_path, capsys, geometry_name, output):
    # the truth file (array.wav -> array.json) or the WAV itself would
    # replace the geometry the command reads
    (tmp_path / "sub").mkdir()
    geometry = tmp_path / geometry_name
    random_geometry(num_sensors=8, seed=3).to_json(geometry)
    original = geometry.read_bytes()
    rc = main(["simulate", "--geometry", str(geometry), "--duration", "0.1",
               "--output", str(tmp_path / output)])
    assert rc == 2
    assert f"would overwrite the geometry file {geometry}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([geometry_name, "sub"])
    assert geometry.read_bytes() == original


def test_simulate_refuses_to_overwrite_its_config(tmp_path, geometry_file, capsys):
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"duration": 0.1}))
    rc = main(["simulate", "--config", str(conf), "--geometry", geometry_file,
               "--output", str(tmp_path / "c.wav")])
    assert rc == 2
    assert f"would overwrite the config file {conf}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["array.json", "c.json"]
    assert json.loads(conf.read_text()) == {"duration": 0.1}


@pytest.mark.parametrize("read", ["geometry", "input", "config"])
def test_locate_refuses_to_overwrite_what_it_reads(tmp_path, geometry_file, two_source_wav,
                                                   capsys, read):
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"estimator": "music", "sources": 2}))
    target = {"geometry": geometry_file, "input": two_source_wav, "config": str(conf)}[read]
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    rc = main(["locate", "--config", str(conf), "--geometry", geometry_file,
               "--input", two_source_wav, "--output", target])
    assert rc == 2
    assert f"would overwrite the {read} file {target}" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("read", ["sweep", "geometry"])
def test_bench_refuses_to_overwrite_what_it_reads(tmp_path, geometry_file, capsys,
                                                  monkeypatch, read):
    # a sweep file named bench.json is what the default output "bench"
    # writes its summary to; --output array would put it on the geometry
    monkeypatch.chdir(tmp_path)
    sweep = tmp_path / ("bench.json" if read == "sweep" else "sweep.json")
    sweep.write_text(json.dumps({"geometry": geometry_file, "num_trials": 1, "num_frames": 10}))
    flags = [] if read == "sweep" else ["--output", str(tmp_path / "array")]
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(["bench", "--sweep", sweep.name, *flags]) == 2
    assert f"would overwrite the {read} file" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("command", ["locate", "bench"])
def test_non_utf8_settings_file_exits_2_naming_it(tmp_path, geometry_file, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")  # UTF-16 with a byte-order mark
    if command == "locate":
        argv, what = ["locate", "--config", str(bad), "--geometry", geometry_file,
                      "--input", "nope.wav"], "config"
    else:
        argv, what = ["bench", "--sweep", str(bad)], "sweep file"
    assert main(argv) == 2
    assert f"cannot read {what} {bad}" in capsys.readouterr().err


def _command_with_geometry(command, tmp_path, geometry):
    """argv for ``command`` reading the geometry file ``geometry``, every
    output under tmp_path/out."""
    out = tmp_path / "out"
    if command == "locate":
        return ["locate", "--geometry", geometry, "--input", str(tmp_path / "nope.wav"),
                "--output", str(out)]
    if command == "simulate":
        return ["simulate", "--geometry", geometry, "--duration", "0.1",
                "--output", str(out)]
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"geometry": geometry, "num_trials": 1, "num_frames": 10}))
    return ["bench", "--sweep", str(sweep), "--output", str(out)]


@pytest.mark.parametrize("command", ["locate", "simulate", "bench"])
@pytest.mark.parametrize(
    "content, message",
    [
        ([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]], "must hold a JSON object"),
        ({"sensors": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]], "speed_of_sound": None},
         "speed_of_sound must be a number"),
        ({"sensors": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]], "speed_of_sound": "343"},
         "speed_of_sound must be a number"),
        ({"speed_of_sound": 343.0}, "sensors"),
        ({"sensors": [[0.0, 0.0, 0.0], [0.1, 0.0, None]]}, "sensor coordinates must be finite"),
        ({"sensors": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]], "speed_of_sound": float("inf")},
         "speed of sound must be positive and finite"),
        ({"sensors": {"a": 1}}, "not 'dict'"),
    ],
    ids=["bare-list", "null-speed", "string-speed", "no-sensors", "null-coordinate",
         "infinite-speed", "sensor-dict"],
)
def test_malformed_geometry_exits_2(tmp_path, capsys, command, content, message):
    geometry = tmp_path / "array.json"
    geometry.write_text(json.dumps(content))
    rc = main(_command_with_geometry(command, tmp_path, str(geometry)))
    assert rc == 2
    err = capsys.readouterr().err
    assert f"cannot read geometry {geometry}" in err and message in err
    assert not any(p.name.startswith("out") for p in tmp_path.iterdir())


def test_locate_channel_mismatch(tmp_path, geometry_file, capsys):
    from scipy.io import wavfile

    wav = str(tmp_path / "mono.wav")
    wavfile.write(wav, 16000, np.zeros((1600, 1), dtype=np.float32))
    rc = main(["locate", "--geometry", geometry_file, "--input", wav])
    assert rc == 2
    assert "channels" in capsys.readouterr().err


def test_locate_requires_geometry(capsys):
    rc = main(["locate", "--input", "nope.wav"])
    assert rc == 2
    assert "geometry" in capsys.readouterr().err


def test_locate_missing_geometry_file(tmp_path, capsys):
    rc = main(["locate", "--geometry", str(tmp_path / "missing.json"),
               "--input", "nope.wav"])
    assert rc == 2


@pytest.mark.parametrize("size", ["3", "9223372036854775808"])
def test_grid_exits_2_on_a_size_it_cannot_lay_out(size, capsys):
    # np.arange(2**63) is empty: such a grid would print only the header
    assert main(["grid", size]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "grid size must" in captured.err and size in captured.err


def test_grid_stdout_and_round_trip(tmp_path, capsys):
    rc = main(["grid", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "x,y,z"
    assert len(lines) == 5
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(parsed, fibonacci_points(4))

    out = str(tmp_path / "grid.csv")
    rc = main(["grid", "100", "--output", out])
    assert rc == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(rows, fibonacci_points(100))


def test_bench_sweep(tmp_path, geometry_file, capsys):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({
        "geometry": geometry_file,
        "estimators": ["srp-phat"],
        "s_values": [-3.0],
        "grid_sizes": [200],
        "variants": ["quadratic"],
        "iteration_counts": [0, 5],
        "snr_values": [20.0],
        "num_trials": 2,
        "num_frames": 30,
        "master_seed": 4,
    }))
    base = str(tmp_path / "bench")
    rc = main(["bench", "--sweep", str(sweep), "--output", base])
    assert rc == 0
    csv_lines = (tmp_path / "bench.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 1 + 2 * 2  # header + 2 cells x 2 trials
    summary = json.loads((tmp_path / "bench.json").read_text())
    assert len(summary["cells"]) == 2

    # same sweep, same numbers
    base2 = str(tmp_path / "bench2")
    main(["bench", "--sweep", str(sweep), "--output", base2])
    assert (tmp_path / "bench2.csv").read_text() == (tmp_path / "bench.csv").read_text()


def test_bench_rejects_unknown_keys(tmp_path, geometry_file, capsys):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"geometry": geometry_file, "bogus": 1}))
    rc = main(["bench", "--sweep", str(sweep)])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_bench_missing_sweep(capsys):
    assert main(["bench", "--sweep", "no-such-file.json"]) == 2


@pytest.mark.parametrize("content", ["[1]", "5", "null"])
def test_bench_sweep_must_be_object(tmp_path, capsys, content):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(content)
    assert main(["bench", "--sweep", str(sweep)]) == 2
    assert "must hold a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"s_values": -3.0}, "s_values"),
        ({"estimators": "music"}, "estimators"),
        ({"snr_values": []}, "snr_values"),
        ({"num_trials": 0}, "num_trials"),
        ({"iteration_counts": [2.5]}, "iteration_counts must be an integer"),
        ({"grid_sizes": [100.5]}, "grid_sizes must be an integer"),
        ({"num_trials": 1.5}, "num_trials must be an integer"),
        ({"rel_tol": float("nan")}, "rel_tol"),
        ({"iteration_counts": [0], "rel_tol": float("nan")}, "rel_tol"),
        ({"variants": ["bogus"], "iteration_counts": [0]}, "variant"),
        ({"iteration_counts": [0], "mvdr_loading": float("nan")}, "mvdr_loading"),
        ({"mvdr_loading": "x"}, "mvdr_loading"),
        ({"snr_values": ["10"]}, "snr_values"),
        ({"snr_values": [None]}, "snr_values"),
        ({"snr_values": [10.0, float("-inf")]}, "snr_values"),
        ({"s_values": ["x"]}, "s_values"),
        ({"s_values": [False]}, "s_values"),
        ({"estimators": ["music", "music"]}, "estimators repeats the value 'music'"),
        ({"grid_sizes": [100, 100.0]}, "grid_sizes repeats the value 100"),
        ({"min_source_separation_deg": 200}, "min_source_separation_deg must lie in [0, 180]"),
        ({"min_source_separation_deg": -5}, "min_source_separation_deg must lie in [0, 180]"),
        ({"min_separation_deg": -1}, "min_separation must be a finite non-negative number"),
        ({"num_sources": 0}, "num_sources must be at least 1"),
        ({"num_sources": -1}, "num_sources must be at least 1"),
        ({"frame_size": 0}, "frame_size must be at least 2"),
        ({"frame_size": -256}, "frame_size must be at least 2"),
        ({"sample_rate": 0}, "sample_rate must be positive and finite"),
        ({"sample_rate": -16000}, "sample_rate must be positive and finite"),
        ({"band_gain_spread_db": "12"}, "band_gain_spread_db must be a finite non-negative"),
        ({"band_gain_spread_db": None}, "band_gain_spread_db must be a finite non-negative"),
        ({"band_gain_spread_db": float("nan")}, "band_gain_spread_db must be a finite"),
        ({"band_gain_spread_db": -1}, "band_gain_spread_db must be a finite non-negative"),
        ({"rel_tol": True}, "rel_tol must be a finite non-negative number, got True"),
        ({"mvdr_loading": True}, "mvdr_loading must be a finite non-negative number, got True"),
        ({"min_separation_deg": True}, "min_separation must be a finite non-negative number"),
        ({"f_min": "300"}, "f_min must be a number, got '300'"),
        ({"f_min": None}, "f_min must be a number, got None"),
        ({"f_min": True}, "f_min must be a number, got True"),
        ({"f_max": "3500"}, "f_max must be a number, got '3500'"),
        ({"f_min": 3500, "f_max": 300}, "f_min must be below f_max"),
        ({"num_frames": 0}, "num_frames must be at least 1, got 0"),
        ({"num_frames": -5}, "num_frames must be at least 1, got -5"),
        ({"master_seed": -1}, "master_seed must be at least 0, got -1"),
    ],
    ids=["scalar-axis", "string-axis", "empty-axis", "zero-trials",
         "fractional-iterations", "fractional-grid", "fractional-trials", "rel-tol-nan",
         "unrefined-rel-tol-nan", "variant-bogus", "unrefined-loading-nan",
         "loading-string", "snr-string", "snr-null", "snr-minus-inf", "s-string",
         "s-bool", "repeated-estimator", "repeated-grid-size",
         "source-separation-above-180", "source-separation-negative",
         "peak-separation-negative", "zero-sources", "negative-sources",
         "zero-frame-size", "negative-frame-size", "zero-sample-rate",
         "negative-sample-rate", "spread-string", "spread-null", "spread-nan",
         "spread-negative", "rel-tol-bool", "loading-bool", "peak-separation-bool",
         "f-min-string", "f-min-null", "f-min-bool", "f-max-string", "inverted-band-range",
         "zero-frames", "negative-frames", "negative-seed"],
)
def test_bench_rejects_bad_axes_and_trials(tmp_path, geometry_file, capsys,
                                           overrides, message):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"geometry": geometry_file, **overrides}))
    rc = main(["bench", "--sweep", str(sweep), "--output", str(tmp_path / "bench")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["array.json", "sweep.json"]


def test_bench_exits_2_when_the_sources_cannot_be_placed(tmp_path, geometry_file, capsys):
    # three directions pairwise 150 deg apart do not exist; the draws give up
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"geometry": geometry_file, "num_sources": 3,
                                 "min_source_separation_deg": 150, "num_trials": 1,
                                 "num_frames": 10, "grid_sizes": [50]}))
    rc = main(["bench", "--sweep", str(sweep), "--output", str(tmp_path / "bench")])
    assert rc == 2
    assert "3 random directions at least 150 deg apart" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["array.json", "sweep.json"]


def test_bench_rejects_bad_cell_before_running(tmp_path, geometry_file, capsys,
                                               monkeypatch):
    # the bad variant is the last of its axis, after cells that would run
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran before the sweep was checked")

    # drawing a trial's scene is its first stage, refining a cell its last
    for stage in ("synth_stft_scene", "run_trial"):
        monkeypatch.setattr(doakit.simulate, stage, no_trial)
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({
        "geometry": geometry_file,
        "estimators": ["srp-phat", "mvdr"],
        "variants": ["quadratic", "bogus"],
        "snr_values": [0.0, 10.0, 20.0],
        "num_trials": 5,
    }))
    rc = main(["bench", "--sweep", str(sweep), "--output", str(tmp_path / "bench")])
    assert rc == 2
    assert "unknown variant 'bogus'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["array.json", "sweep.json"]


def test_import_simulate_and_locate_load_no_scipy(tmp_path, geometry_file):
    # importing doakit, simulating a recording and locating its sources load
    # no scipy module at all; scoring imports scipy.optimize when it first runs
    code = (
        "import sys, doakit, doakit.cli\n"
        "wav, geometry = sys.argv[1], sys.argv[2]\n"
        "assert doakit.cli.main(['simulate', '--geometry', geometry, '--sources', '1',\n"
        "                        '--duration', '0.25', '--output', wav]) == 0\n"
        "assert doakit.cli.main(['locate', '--geometry', geometry, '--input', wav,\n"
        "                        '--output', wav + '.report']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print(doakit.evaluate([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],\n"
        "                      [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]).tolist())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-c", code, str(tmp_path / "scene.wav"), geometry_file]
    out = subprocess.run(argv, env=env, check=True, capture_output=True,
                         text=True).stdout.splitlines()
    assert out == ["[]", "[0.0, 0.0]"]
    assert len(json.loads((tmp_path / "scene.wav.report").read_text())["sources"]) == 1


def test_runtime_needs_no_scipy(tmp_path, geometry_file):
    # with every scipy import made to fail, importing doakit, simulating,
    # locating, scoring and a one-cell bench all still succeed
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({
        "geometry": geometry_file, "num_sources": 2, "num_trials": 1, "num_frames": 10,
        "grid_sizes": [50],
    }))
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import doakit, doakit.cli\n"
        "wav, geometry, sweep = sys.argv[1:4]\n"
        "assert doakit.cli.main(['simulate', '--geometry', geometry, '--sources', '2',\n"
        "                        '--duration', '0.25', '--output', wav]) == 0\n"
        "assert doakit.cli.main(['locate', '--geometry', geometry, '--input', wav,\n"
        "                        '--sources', '2', '--output', wav + '.report']) == 0\n"
        "print(doakit.evaluate([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],\n"
        "                      [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]).tolist())\n"
        "assert doakit.cli.main(['bench', '--sweep', sweep, '--output', wav + '.bench']) == 0\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-c", code, str(tmp_path / "scene.wav"), geometry_file, str(sweep)]
    out = subprocess.run(argv, env=env, check=True, capture_output=True,
                         text=True).stdout.splitlines()
    assert out == ["[0.0, 0.0]"]
    assert len(json.loads((tmp_path / "scene.wav.report").read_text())["sources"]) == 2
    cells = json.loads((tmp_path / "scene.wav.bench.json").read_text())["cells"]
    assert len(cells) == 1 and np.isfinite(cells[0]["median_error_deg"])


def test_bench_output_flag_wins_over_sweep_file(tmp_path, geometry_file):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({
        "geometry": geometry_file,
        "output": str(tmp_path / "from-file"),
        "grid_sizes": [100],
        "iteration_counts": [0],
        "num_trials": 1,
        "num_frames": 10,
    }))
    rc = main(["bench", "--sweep", str(sweep), "--output", str(tmp_path / "from-flag")])
    assert rc == 0
    assert (tmp_path / "from-flag.csv").exists()
    assert not (tmp_path / "from-file.csv").exists()
    # without the flag the sweep file names the output
    assert main(["bench", "--sweep", str(sweep)]) == 0
    assert (tmp_path / "from-file.csv").exists()
