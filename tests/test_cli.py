import json

import numpy as np
import pytest

from doakit.cli import DEFAULTS, main
from doakit.manifold import (
    ArrayGeometry,
    fibonacci_grid,
    fibonacci_points,
    great_circle_distance,
    random_geometry,
)
from doakit.simulate import estimator_covariance, locate_sources
from doakit.spectral import stft

pytestmark = pytest.mark.filterwarnings(
    "ignore::scipy.io.wavfile.WavFileWarning"
)


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
@pytest.mark.parametrize("kind", ["silent", "nan"])
def test_locate_without_usable_signal_exits_3(tmp_path, geometry_file, capsys,
                                              kind, estimator):
    from scipy.io import wavfile

    data = np.zeros((8000, 8), dtype=np.float32)
    if kind == "nan":
        data = np.random.default_rng(0).standard_normal(data.shape).astype(np.float32)
        data[1234, 3] = np.nan
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
                  hop=DEFAULTS["hop"], window=DEFAULTS["window"], sample_rate=float(rate))
    cov = estimator_covariance(frames, estimator, DEFAULTS["f_min"], DEFAULTS["f_max"])
    directions, values, _ = locate_sources(
        cov, ArrayGeometry.from_json(geometry_file), fibonacci_grid(200),
        estimator=estimator, s=DEFAULTS["s"], num_sources=2, variant="quadratic",
        max_iters=10, min_separation_rad=np.radians(DEFAULTS["min_separation_deg"]),
        rel_tol=DEFAULTS["tolerance"], mvdr_loading=DEFAULTS["loading"],
    )
    assert [s["doa"] for s in report["sources"]] == [list(q) for q in directions]
    assert [s["objective"] for s in report["sources"]] == values


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
