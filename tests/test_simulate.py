from itertools import permutations

import numpy as np
import pytest

from doakit.manifold import great_circle_distance, random_geometry
from doakit.simulate import (
    MonteCarloConfig,
    Scene,
    estimator_covariance,
    evaluate,
    monte_carlo,
    random_sources,
    synth_stft_scene,
    synth_time_scene,
)
from doakit.spectral import sample_covariance, stft
from oracles import covariance_then_select


@pytest.fixture
def rng():
    # a generator per test, so its inputs do not depend on which tests ran first
    return np.random.default_rng(99)


GEOM = random_geometry(num_sensors=6, radius=0.08, seed=1)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_scene_validation(rng):
    with pytest.raises(ValueError):
        Scene(GEOM, np.array([[2.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        Scene(GEOM, np.array([[1.0, 0.0, 0.0]]), snr_db=np.nan)
    with pytest.warns(UserWarning):
        Scene(GEOM, random_sources(rng, 6, 0.1))
    # a source-free scene is a valid noise-only recording
    scene = Scene(GEOM, np.zeros((0, 3)))
    assert scene.num_sources == 0


def test_stft_scene_shapes_and_band_support():
    scene = Scene(GEOM, np.array([[0.0, 0.0, 1.0]]), snr_db=np.inf, seed=5)
    frames = synth_stft_scene(scene, frame_size=256, num_frames=16)
    assert frames.data.shape == (129, 16, 6)
    freqs = frames.band_frequencies
    outside = (freqs < 300.0) | (freqs > 3500.0)
    assert np.all(frames.data[outside] == 0)
    assert np.any(frames.data[~outside] != 0)


def test_stft_scene_noiseless_rank_one():
    # without noise every frame is a multiple of the steering vector, so the
    # per-band covariance has rank one
    scene = Scene(GEOM, np.array([[0.0, 0.0, 1.0]]), snr_db=np.inf, seed=5)
    frames = synth_stft_scene(scene, frame_size=256, num_frames=32)
    cov = sample_covariance(frames)
    k = np.argmax(np.abs(frames.data).sum(axis=(1, 2)))
    lam = np.linalg.eigvalsh(cov.matrices[k])
    assert lam[-1] > 1e-6
    assert lam[-2] <= 1e-10 * lam[-1]


def test_stft_scene_deterministic():
    scene = Scene(GEOM, np.array([[1.0, 0.0, 0.0]]), snr_db=10.0, seed=42)
    a = synth_stft_scene(scene, frame_size=256, num_frames=8)
    b = synth_stft_scene(scene, frame_size=256, num_frames=8)
    np.testing.assert_array_equal(a.data, b.data)
    other = Scene(GEOM, np.array([[1.0, 0.0, 0.0]]), snr_db=10.0, seed=43)
    c = synth_stft_scene(other, frame_size=256, num_frames=8)
    assert np.any(a.data != c.data)


def test_stft_scene_noise_only_covariance():
    scene = Scene(GEOM, np.zeros((0, 3)), snr_db=0.0, seed=3)
    frames = synth_stft_scene(scene, frame_size=64, num_frames=2000)
    cov = sample_covariance(frames)
    sigma2 = 1.0 / 6.0  # one reference source, 0 dB, split over 6 sensors
    for k in (10, 12):
        c = cov.matrices[k]
        diag = np.diag(c).real
        np.testing.assert_allclose(diag, sigma2, rtol=0.15)
        off = c - np.diag(np.diag(c))
        assert np.max(np.abs(off)) < 0.1 * sigma2


def test_stft_scene_snr_calibration(rng):
    target = 10.0
    scene = Scene(GEOM, random_sources(rng, 2, 0.3), snr_db=target, seed=8)
    signal = synth_stft_scene(
        Scene(GEOM, scene.sources, snr_db=np.inf, seed=8),
        frame_size=256,
        num_frames=400,
    )
    full = synth_stft_scene(scene, frame_size=256, num_frames=400)
    active = (signal.band_frequencies >= 300) & (signal.band_frequencies <= 3500)
    p_sig = np.mean(np.abs(signal.data[active]) ** 2) * 6  # per-band array power
    p_noise = np.mean(np.abs((full.data - signal.data)[active]) ** 2) * 6
    measured = 10 * np.log10(p_sig / p_noise)
    assert abs(measured - target) < 0.5


def test_stft_scene_band_gains_preserve_power():
    src = np.array([[0.0, 1.0, 0.0]])
    flat = Scene(GEOM, src, snr_db=np.inf, seed=2)
    spread = Scene(GEOM, src, snr_db=np.inf, seed=2, band_gain_spread_db=12.0)
    a = synth_stft_scene(flat, frame_size=256, num_frames=500)
    b = synth_stft_scene(spread, frame_size=256, num_frames=500)
    pa = np.mean(np.abs(a.data) ** 2)
    pb = np.mean(np.abs(b.data) ** 2)
    assert abs(pb / pa - 1.0) < 0.1
    # with spread the per-band powers vary far more than sampling noise
    band_a = np.mean(np.abs(a.data) ** 2, axis=(1, 2))
    band_b = np.mean(np.abs(b.data) ** 2, axis=(1, 2))
    active = band_a > 0
    assert np.std(band_b[active]) > 3.0 * np.std(band_a[active])


@pytest.mark.parametrize("estimator", ["srp", "srp-phat", "music", "mvdr"])
def test_estimator_covariance_matches_select_after_oracle(estimator):
    # selecting the bands before the batched covariance gives the covariance
    # of every band by einsum, restricted to the selected bands, on both
    # frame layouts: the transposed view stft returns and synthesized frames
    sources = np.array([[0.0, 0.6, 0.8], [1.0, 0.0, 0.0]])
    scene = Scene(GEOM, sources, snr_db=20.0, seed=4, duration=0.25)
    recorded = stft(synth_time_scene(scene), frame_size=256, hop=128)
    synthesized = synth_stft_scene(scene, frame_size=256, num_frames=30)
    for frames in (recorded, synthesized):
        cov = estimator_covariance(frames, estimator, 300.0, 3500.0)
        matrices, freqs = covariance_then_select(frames, estimator, 300.0, 3500.0)
        np.testing.assert_array_equal(cov.band_frequencies, freqs)
        scale = np.abs(matrices).max()
        assert np.abs(cov.matrices - matrices).max() <= 1e-14 * scale


def test_time_scene_shape_and_determinism():
    scene = Scene(GEOM, np.array([[1.0, 0.0, 0.0]]), snr_db=20.0, seed=7,
                  duration=0.25)
    x = synth_time_scene(scene)
    assert x.shape == (4000, 6)
    np.testing.assert_array_equal(x, synth_time_scene(scene))
    with pytest.raises(ValueError):
        synth_time_scene(Scene(GEOM, np.array([[1.0, 0.0, 0.0]]), duration=0.0))


def test_time_scene_integer_lag():
    # two sensors one wavelength apart on the x axis, source on the x axis:
    # the near sensor leads the far one by exactly fs * 2d/c samples
    fs = 16000.0
    d = 343.0 / fs  # one sample of travel per sensor offset
    geom_pair = random_geometry(num_sensors=2, seed=0)
    geom_pair = type(geom_pair)(np.array([[d / 2, 0, 0], [-d / 2, 0, 0]]))
    scene = Scene(geom_pair, np.array([[1.0, 0.0, 0.0]]), snr_db=np.inf,
                  seed=11, sample_rate=fs, duration=0.1)
    x = synth_time_scene(scene)
    lags = np.arange(-4, 5)
    corr = [np.correlate(x[8:-8, 1], np.roll(x[:, 0], k)[8:-8])[0] for k in lags]
    # channel 0 leans toward the source and arrives 1 sample early, so
    # channel 1 matches channel 0 shifted forward by one sample
    assert lags[int(np.argmax(corr))] == 1


def test_time_scene_noise_only():
    scene = Scene(GEOM, np.zeros((0, 3)), snr_db=0.0, seed=4, duration=0.5)
    x = synth_time_scene(scene)
    assert x.shape == (8000, 6)
    np.testing.assert_allclose(np.std(x, axis=0), 1.0, rtol=0.1)


def test_evaluate_identity_and_permutation():
    truth = np.array([[1.0, 0, 0], [0, 1.0, 0]])
    np.testing.assert_allclose(evaluate(truth, truth), [0.0, 0.0], atol=1e-12)
    swapped = truth[::-1]
    np.testing.assert_allclose(evaluate(swapped, truth), [0.0, 0.0], atol=1e-10)


def test_evaluate_known_errors():
    truth = np.array([[1.0, 0.0, 0.0]])
    est = np.array([unit([np.cos(np.radians(1.0)), np.sin(np.radians(1.0)), 0.0])])
    err = evaluate(est, truth)
    assert abs(err[0] - 1.0) < 1e-9

    # matching is forced: the best assignment still leaves {1, 0} degrees
    truth = np.array([[1.0, 0, 0], [0, 0, 1.0]])
    e1 = unit([np.cos(np.radians(1.0)), np.sin(np.radians(1.0)), 0.0])
    err = sorted(evaluate(np.array([e1, [0.0, 0, 1.0]]), truth))
    assert abs(err[0] - 0.0) < 1e-9 and abs(err[1] - 1.0) < 1e-9


def test_evaluate_rejects_bad_input():
    with pytest.raises(ValueError):
        evaluate(np.zeros((2, 3)), np.zeros((3, 3)))
    # there is no cap on the source count: seven permuted sources match exactly
    local = np.random.default_rng(7)
    truth = random_sources(local, 7, np.radians(10.0))
    np.testing.assert_allclose(evaluate(truth[local.permutation(7)], truth), 0.0, atol=1e-9)


def _evaluate_oracle(estimates, truth):
    """Brute-force search over every permutation for the minimum mean error."""
    err = np.degrees(great_circle_distance(truth[:, None, :], estimates[None, :, :]))
    num = truth.shape[0]
    best = None
    for perm in permutations(range(num)):
        cand = err[np.arange(num), list(perm)]
        if best is None or cand.mean() < best.mean():
            best = cand
    return best


@pytest.mark.parametrize("num", range(1, 7))
def test_evaluate_matches_permutation_oracle(num):
    local = np.random.default_rng(num)
    for _ in range(10):
        truth = random_sources(local, num, 0.0)
        estimates = random_sources(local, num, 0.0)
        np.testing.assert_allclose(
            evaluate(estimates, truth), _evaluate_oracle(estimates, truth), atol=1e-9
        )


def test_random_sources_separation(rng):
    for _ in range(20):
        q = random_sources(rng, 3, np.radians(25.0))
        assert q.shape == (3, 3)
        np.testing.assert_allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-12)
        for i in range(3):
            for j in range(i + 1, 3):
                assert great_circle_distance(q[i], q[j]) >= np.radians(25.0)


def _small_config(**overrides):
    base = dict(
        geometry=random_geometry(num_sensors=8, seed=2),
        estimators=("srp-phat",),
        s_values=(-3.0,),
        grid_sizes=(400,),
        variants=("quadratic",),
        iteration_counts=(10,),
        snr_values=(20.0,),
        num_sources=1,
        num_trials=3,
        master_seed=7,
        num_frames=50,
    )
    base.update(overrides)
    return MonteCarloConfig(**base)


def test_monte_carlo_rows_and_determinism():
    config = _small_config()
    a = monte_carlo(config)
    assert len(a.rows) == 3
    key = ("srp-phat", -3.0, 400, "quadratic", 10, 20.0)
    assert key in a.medians
    assert a.cell_seconds[key] > 0
    b = monte_carlo(_small_config())
    assert [r["error_deg"] for r in a.rows] == [r["error_deg"] for r in b.rows]
    c = monte_carlo(_small_config(master_seed=8))
    assert [r["error_deg"] for r in a.rows] != [r["error_deg"] for r in c.rows]


def test_monte_carlo_zero_iters_matches_none_variant():
    a = monte_carlo(_small_config(variants=("quadratic",), iteration_counts=(0,)))
    b = monte_carlo(_small_config(variants=("none",), iteration_counts=(0,)))
    assert [r["error_deg"] for r in a.rows] == [r["error_deg"] for r in b.rows]


def test_monte_carlo_refinement_improves_coarse_grid():
    config = _small_config(
        grid_sizes=(100,), iteration_counts=(0, 30), num_trials=50, num_frames=100
    )
    result = monte_carlo(config)
    coarse = result.medians[("srp-phat", -3.0, 100, "quadratic", 0, 20.0)]
    refined = result.medians[("srp-phat", -3.0, 100, "quadratic", 30, 20.0)]
    assert refined <= coarse * 1.05
    assert refined < 1.0  # grid spacing alone is several degrees at G=100


def test_monte_carlo_csv_and_summary(tmp_path):
    result = monte_carlo(_small_config())
    csv_path = tmp_path / "out.csv"
    result.write_csv(csv_path)
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "estimator,s,grid_size,variant,iters,snr_db,trial,src_index,error_deg"
    assert len(lines) == 4
    json_path = tmp_path / "out.json"
    result.write_summary(json_path)
    import json

    summary = json.loads(json_path.read_text())
    assert len(summary["cells"]) == 1
    cell = summary["cells"][0]
    assert cell["estimator"] == "srp-phat"
    assert cell["median_error_deg"] >= 0.0
    assert cell["median_seconds"] > 0.0


def _random_sources_pair_loop(rng, num_sources, min_separation_rad):
    # reference: one distance call per pair on every draw
    while True:
        q = rng.standard_normal((num_sources, 3))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        if all(
            great_circle_distance(q[i], q[j]) >= min_separation_rad
            for i in range(num_sources)
            for j in range(i + 1, num_sources)
        ):
            return q


@pytest.mark.parametrize("num_sources", [0, 1, 2, 4, 6])
def test_random_sources_matches_pair_loop(num_sources):
    for seed in range(10):
        got = random_sources(np.random.default_rng(seed), num_sources, np.radians(40.0))
        want = _random_sources_pair_loop(
            np.random.default_rng(seed), num_sources, np.radians(40.0)
        )
        np.testing.assert_array_equal(got, want)
