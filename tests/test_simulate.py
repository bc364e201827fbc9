import re
import time
from itertools import permutations, product

import numpy as np
import pytest

import doakit.simulate
from doakit.estimators import band_powers, grid_search, power_mean
from doakit.manifold import (
    ArrayGeometry,
    SphericalGrid,
    fibonacci_grid,
    great_circle_distance,
    random_geometry,
)
from doakit.refine import PairCoefficients, refine
from doakit.simulate import (
    CELL_FIELDS,
    MonteCarloConfig,
    Scene,
    build_cost_spec,
    estimator_covariance,
    evaluate,
    locate_sources,
    monte_carlo,
    random_sources,
    synth_stft_scene,
    synth_time_scene,
)
from doakit.spectral import (
    CovarianceSet,
    SpectralFrames,
    band_select,
    sample_covariance,
    stft,
)
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
    # -inf dB would mean infinite noise; the renderers drew a noise-free scene
    with pytest.raises(ValueError, match="snr_db"):
        Scene(GEOM, np.array([[1.0, 0.0, 0.0]]), snr_db=-np.inf)
    with pytest.raises(ValueError, match="snr_db"):
        Scene(GEOM, np.array([[1.0, 0.0, 0.0]]), snr_db="20")
    with pytest.warns(UserWarning):
        Scene(GEOM, random_sources(rng, 6, 0.1))
    for spread in ("12", None, True, np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="band_gain_spread_db must be a finite non-neg"):
            Scene(GEOM, np.array([[1.0, 0.0, 0.0]]), band_gain_spread_db=spread)
    # a source-free scene is a valid noise-only recording
    scene = Scene(GEOM, np.zeros((0, 3)))
    assert scene.num_sources == 0


def test_stft_scene_shapes_and_band_support():
    # the 62.5 Hz bands in [300, 3500], both ends included, as stft keeps them
    scene = Scene(GEOM, np.array([[0.0, 0.0, 1.0]]), snr_db=np.inf, seed=5)
    frames = synth_stft_scene(scene, frame_size=256, num_frames=16)
    assert frames.data.shape == (52, 16, 6)
    np.testing.assert_array_equal(frames.band_frequencies, np.arange(5, 57) * 62.5)
    assert np.all(np.any(frames.data != 0, axis=(1, 2)))


@pytest.mark.parametrize("snr_db", [np.inf, 10.0])
def test_stft_scene_draws_do_not_depend_on_the_band_range(snr_db):
    # each stream is read band by band from band 0, so a band's signal and
    # noise depend on the seed and its index alone, and the kept rows of any
    # range are the rows of the scene over every band, bit for bit (a gain
    # spread is normalized over the kept bands, so it is left flat here)
    scene = Scene(GEOM, random_sources(np.random.default_rng(4), 2, 0.3), snr_db=snr_db,
                  seed=9)
    every = synth_stft_scene(scene, frame_size=256, num_frames=20, f_min=0.0, f_max=8000.0)
    assert every.num_bands == 129
    for f_min, f_max in ((300.0, 3500.0), (0.0, 3500.0), (1000.0, 8000.0)):
        kept = synth_stft_scene(scene, frame_size=256, num_frames=20, f_min=f_min,
                                f_max=f_max)
        selected = band_select(every, f_min, f_max)
        np.testing.assert_array_equal(kept.band_frequencies, selected.band_frequencies)
        np.testing.assert_array_equal(kept.data, selected.data)


@pytest.mark.parametrize("snr_db", [np.inf, 10.0])
@pytest.mark.parametrize("spread_db", [0.0, 12.0])
@pytest.mark.parametrize("f_min, f_max, stop", [
    (300.0, 3500.0, 57), (0.0, 3500.0, 57), (1000.0, 8000.0, 129),
])
def test_stft_scene_reads_no_stream_past_the_last_kept_band(monkeypatch, snr_db, spread_db,
                                                           f_min, f_max, stop):
    # the signal stream yields 2 L normals per band and frame, the noise
    # stream 2 M (finite SNR only) and the gain stream L per band (a spread
    # only), each for bands 0 .. stop - 1 and no further
    normals = {}
    default_rng = np.random.default_rng

    class CountingGenerator:
        def __init__(self, seed):
            self.stream = ("signal", "noise", "gains")[seed.spawn_key[-1]]
            self.generator = default_rng(seed)

        def standard_normal(self, *args, **kwargs):
            out = self.generator.standard_normal(*args, **kwargs)
            normals[self.stream] = normals.get(self.stream, 0) + out.size
            return out

    monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
    scene = Scene(GEOM, random_sources(default_rng(4), 2, 0.3), snr_db=snr_db, seed=9,
                  band_gain_spread_db=spread_db)
    frames = synth_stft_scene(scene, frame_size=256, num_frames=20, f_min=f_min, f_max=f_max)
    assert frames.band_frequencies[-1] == 62.5 * (stop - 1)
    expected = {"signal": stop * 20 * 2 * 2}
    if snr_db < np.inf:
        expected["noise"] = stop * 20 * 2 * GEOM.num_sensors
    if spread_db > 0.0:
        expected["gains"] = stop * 2
    assert {name: n for name, n in normals.items() if n} == expected


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
    assert np.std(band_b) > 3.0 * np.std(band_a)


@pytest.mark.parametrize("estimator", ["srp", "srp-phat", "music", "mvdr"])
def test_estimator_covariance_matches_select_after_oracle(estimator):
    # the covariance of the selected bands of recorded and synthesized frames
    # is the covariance of every band by einsum, restricted to those bands
    sources = np.array([[0.0, 0.6, 0.8], [1.0, 0.0, 0.0]])
    scene = Scene(GEOM, sources, snr_db=20.0, seed=4, duration=0.25)
    recorded = stft(synth_time_scene(scene), frame_size=256, hop=128)
    synthesized = synth_stft_scene(scene, frame_size=256, num_frames=30, f_min=0.0,
                                   f_max=8000.0)
    for frames in (recorded, synthesized):
        cov = estimator_covariance(band_select(frames, 300.0, 3500.0), estimator)
        matrices, freqs = covariance_then_select(frames, estimator, 300.0, 3500.0)
        np.testing.assert_array_equal(cov.band_frequencies, freqs)
        scale = np.abs(matrices).max()
        assert np.abs(cov.matrices - matrices).max() <= 1e-14 * scale


def test_phat_floor_is_the_kept_band_mean():
    # one sensor, one frame: the dropped bands are loud, so the all-band
    # mean magnitude (6e5) sets a floor of 6e-7, above the quiet kept bin
    # (1e-9); the kept-band mean (0.5) sets 5e-13, below it, so PHAT leaves
    # the quiet bin at unit magnitude like the other
    data = np.array([1e6, 1e6, 1.0, 1e-9, 1e6], dtype=complex).reshape(5, 1, 1)
    frames = SpectralFrames(data=data, band_frequencies=np.array([0.0, 100.0, 200.0,
                                                                  300.0, 400.0]))
    cov = estimator_covariance(band_select(frames, 200.0, 300.0), "srp-phat")
    np.testing.assert_array_equal(cov.band_frequencies, [200.0, 300.0])
    np.testing.assert_allclose(cov.matrices[:, 0, 0], [1.0, 1.0], rtol=1e-12)


@pytest.mark.parametrize("estimator", ["srp", "music", "mvdr"])
@pytest.mark.parametrize("value", [0.0, np.nan], ids=["zero", "nan"])
def test_build_cost_spec_rejects_a_covariance_without_signal(estimator, value):
    matrices = np.zeros((3, 4, 4), dtype=complex)
    if np.isnan(value):
        matrices[:] = np.eye(4)
        matrices[1, 2, 3] = value
    cov = CovarianceSet(matrices, [300.0, 400.0, 500.0])
    with pytest.raises(np.linalg.LinAlgError, match="no usable signal"):
        build_cost_spec(cov, estimator, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_srp_phat_covariance_of_a_non_finite_entry_is_rejected(bad):
    # PHAT carries the bad entry into its band's covariance without a
    # warning, and the spec build names it
    sources = np.array([[0.0, 0.6, 0.8], [1.0, 0.0, 0.0]])
    frames = synth_stft_scene(Scene(GEOM, sources, seed=3), frame_size=256, num_frames=20)
    frames.data[7, 4, 2] = bad
    with np.errstate(all="raise"):
        cov = estimator_covariance(frames, "srp-phat")
    assert not np.all(np.isfinite(cov.matrices[7]))
    with pytest.raises(np.linalg.LinAlgError, match="no usable signal"):
        build_cost_spec(cov, "srp-phat", 2)


def test_time_scene_shape_and_determinism():
    scene = Scene(GEOM, np.array([[1.0, 0.0, 0.0]]), snr_db=20.0, seed=7,
                  duration=0.25)
    x = synth_time_scene(scene)
    assert x.shape == (4000, 6)
    np.testing.assert_array_equal(x, synth_time_scene(scene))
    with pytest.raises(ValueError):
        synth_time_scene(Scene(GEOM, np.array([[1.0, 0.0, 0.0]]), duration=0.0))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"duration": np.inf}, "duration must be positive and finite, got inf"),
        ({"duration": np.nan}, "duration must be positive and finite, got nan"),
        ({"duration": -1.0}, "duration must be positive and finite"),
        ({"duration": True}, "duration must be positive and finite, got True"),
        ({"band_gain_spread_db": 12.0},
         "band_gain_spread_db must be 0 in a time-domain scene, got 12.0"),
    ],
    ids=["duration-inf", "duration-nan", "duration-negative", "duration-bool", "spread"],
)
def test_time_scene_rejects_bad_duration_and_spread(fields, message):
    # a band gain spread would be rendered flat without a word
    scene = Scene(GEOM, np.array([[1.0, 0.0, 0.0]]), **{"duration": 0.1, **fields})
    with pytest.raises(ValueError, match=re.escape(message)):
        synth_time_scene(scene)


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


@pytest.mark.parametrize("num_samples", [1600, 1601], ids=["even", "odd"])
def test_time_scene_delays_are_exact(num_samples):
    # one noiseless source: on every bin strictly between DC and Nyquist each
    # channel's spectrum is channel 0's times its plane-wave phase lead
    fs = 16000.0
    q = unit([0.3, -0.5, 0.8])
    scene = Scene(GEOM, q[None], snr_db=np.inf, seed=3, sample_rate=fs,
                  duration=num_samples / fs)
    x = synth_time_scene(scene)
    assert x.shape == (num_samples, GEOM.num_sensors)
    inner = slice(1, (num_samples + 1) // 2)
    spectra = np.fft.rfft(x, axis=0)[inner]
    omega = GEOM.wavenumbers(np.fft.rfftfreq(num_samples, 1.0 / fs)[inner])
    lead = (GEOM.sensors - GEOM.sensors[0]) @ q
    want = spectra[:, :1] * np.exp(1j * omega[:, None] * lead[None])
    assert np.abs(spectra - want).max() <= 1e-12 * np.abs(want).max()


def test_time_scene_noise_only():
    scene = Scene(GEOM, np.zeros((0, 3)), snr_db=0.0, seed=4, duration=0.5)
    x = synth_time_scene(scene)
    assert x.shape == (8000, 6)
    np.testing.assert_allclose(np.std(x, axis=0), 1.0, rtol=0.1)


def test_locate_sources_returns_refine_traces_of_grid_peaks():
    sources = np.array([unit([1.0, 0.2, 0.3]), unit([-0.3, 1.0, -0.2])])
    frames = synth_stft_scene(Scene(GEOM, sources, snr_db=20.0, seed=3),
                              frame_size=256, num_frames=50)
    cov = estimator_covariance(frames, "music")
    grid = fibonacci_grid(100)
    separation = np.radians(10.0)
    spec = build_cost_spec(cov, "music", 2)
    peaks = grid_search(power_mean(band_powers(spec, GEOM, grid.points), -3.0), grid, 2,
                        separation)
    coeffs = PairCoefficients.from_cost_spec(spec, GEOM, -3.0)
    settings = dict(estimator="music", s=-3.0, num_sources=2, max_iters=15,
                    min_separation_rad=separation)
    for variant in ("quadratic", "linear"):
        traces = locate_sources(cov, GEOM, grid, variant=variant, **settings)
        assert len(traces) == 2
        for trace, (q0, _) in zip(traces, peaks):
            expected = refine(coeffs, q0, variant=variant, max_iters=15)
            np.testing.assert_array_equal(trace.iterates, expected.iterates)
            np.testing.assert_array_equal(trace.objectives, expected.objectives)
            assert trace.converged_at == expected.converged_at
    unrefined = locate_sources(cov, GEOM, grid, variant="none", **settings)
    assert len(unrefined) == 2
    for trace, (q0, value) in zip(unrefined, peaks):
        np.testing.assert_array_equal(trace.iterates, [q0])
        np.testing.assert_array_equal(trace.objectives, [value])
        assert trace.converged_at is None


def test_refine_peaks_builds_one_pair_form_for_all_peaks(monkeypatch):
    builds = []
    build = PairCoefficients.from_cost_spec.__func__

    def counted(cls, spec, geometry, s):
        builds.append(spec)
        return build(cls, spec, geometry, s)

    monkeypatch.setattr(PairCoefficients, "from_cost_spec", classmethod(counted))
    sources = np.array([unit([1.0, 0.2, 0.3]), unit([-0.3, 1.0, -0.2]), unit([0.1, -0.4, 1.0])])
    frames = synth_stft_scene(Scene(GEOM, sources, snr_db=20.0, seed=4),
                              frame_size=256, num_frames=50)
    traces = locate_sources(estimator_covariance(frames, "srp-phat"), GEOM, fibonacci_grid(100),
                            estimator="srp-phat", s=-3.0, num_sources=3, variant="linear",
                            max_iters=5, min_separation_rad=np.radians(10.0))
    assert len(traces) == 3 and len(builds) == 1


@pytest.mark.parametrize(
    "estimator, variant, name, value",
    [
        ("srp-phat", "quadratic", "num_sources", 2.5),
        ("music", "quadratic", "num_sources", 2.5),
        ("mvdr", "linear", "num_sources", np.float64(1.5)),
        ("music", "none", "max_iters", 2.5),
        ("srp-phat", "quadratic", "num_sources", np.float64(np.inf)),
        ("mvdr", "linear", "max_iters", np.float64(np.inf)),
    ],
)
def test_locate_sources_rejects_non_integer_counts(estimator, variant, name, value):
    # 2.5 sources is neither 2 nor 3 traces, whatever the estimator, and an
    # unrefined variant takes no fractional step count either; 2.0 is 2
    frames = synth_stft_scene(Scene(GEOM, INVARIANCE_SOURCES, snr_db=20.0, seed=3),
                              frame_size=256, num_frames=20)
    cov = estimator_covariance(frames, estimator)
    settings = dict(estimator=estimator, s=-3.0, num_sources=2, variant=variant, max_iters=3,
                    min_separation_rad=np.radians(10.0))
    grid = fibonacci_grid(100)
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        locate_sources(cov, GEOM, grid, **{**settings, name: value})
    traces = locate_sources(cov, GEOM, grid, **{**settings, name: float(settings[name])})
    assert len(traces) == 2


def _located(cov, geometry, estimator, variant):
    traces = locate_sources(cov, geometry, fibonacci_grid(200), estimator=estimator,
                            s=-3.0, num_sources=2, variant=variant, max_iters=30,
                            min_separation_rad=np.radians(10.0))
    return np.array([t.iterates[-1] for t in traces])


INVARIANCE_SOURCES = np.array([unit([1.0, 0.2, 0.3]), unit([-0.3, 1.0, -0.2])])


@pytest.mark.parametrize("factor", [1480.0 / 343.0, 0.5])
def test_array_and_speed_of_sound_scaled_together_change_nothing(factor):
    # the wavenumbers scale as 1/c and the sensor delays as the array, so
    # their products, and with them the objective, stay the same
    geom = random_geometry(num_sensors=8, seed=3)
    scaled = ArrayGeometry(geom.sensors * factor, geom.speed_of_sound * factor)
    frames = synth_stft_scene(Scene(geom, INVARIANCE_SOURCES, snr_db=20.0, seed=3),
                              frame_size=256, num_frames=50)
    points = fibonacci_grid(500).points
    for estimator in ("srp-phat", "music", "mvdr"):
        cov = estimator_covariance(frames, estimator)
        spec = build_cost_spec(cov, estimator, 2)
        scale = np.trace(spec.matrices, axis1=1, axis2=2).real[:, None] / 8
        difference = band_powers(spec, scaled, points) - band_powers(spec, geom, points)
        assert np.max(np.abs(difference) / scale) <= 1e-12
        for variant in ("quadratic", "linear"):
            got = _located(cov, scaled, estimator, variant)
            expected = _located(cov, geom, estimator, variant)
            assert np.degrees(great_circle_distance(got, expected)).max() < 1e-9


@pytest.mark.parametrize("estimator", ["srp-phat", "music", "mvdr"])
@pytest.mark.parametrize("variant", ["quadratic", "linear"])
@pytest.mark.parametrize("seed", [0, 1])
def test_sensor_permutation_changes_nothing(estimator, variant, seed):
    # relabelling the sensors, in the array and in the recording alike,
    # leaves every quadratic form a^H V a as it is
    geom = random_geometry(num_sensors=12, seed=seed)
    perm = np.random.default_rng(seed).permutation(12)
    permuted = ArrayGeometry(geom.sensors[perm], geom.speed_of_sound)
    frames = synth_stft_scene(Scene(geom, INVARIANCE_SOURCES, snr_db=20.0, seed=seed),
                              frame_size=256, num_frames=50)
    shuffled = SpectralFrames(frames.data[:, :, perm], frames.band_frequencies)
    got = _located(estimator_covariance(shuffled, estimator), permuted,
                   estimator, variant)
    expected = _located(estimator_covariance(frames, estimator), geom,
                        estimator, variant)
    assert np.degrees(great_circle_distance(got, expected)).max() < 1e-9


@pytest.mark.parametrize("estimator", ["srp-phat", "music", "mvdr"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rotating_array_sources_and_grid_rotates_the_answers(estimator, seed):
    # one rotation R of the array, the sources and the grid leaves every
    # delay d_m . q, and so the recording, the band powers and the MM steps,
    # as they were up to rounding: the answers are R times the unrotated
    # ones, matched by assignment (1 to 3 sources at s = -3 and 1)
    rng = np.random.default_rng(seed)
    rotation = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    rotation *= np.sign(np.linalg.det(rotation))
    geom = random_geometry(num_sensors=12, seed=seed)
    rotated = ArrayGeometry(geom.sensors @ rotation.T, geom.speed_of_sound)
    num_sources = seed + 1
    sources = random_sources(rng, num_sources, np.radians(30.0))
    grid = fibonacci_grid(100)
    turned = SphericalGrid(grid.points @ rotation.T, grid.neighbors)

    def located(array, truth, points, s, variant):
        frames = synth_stft_scene(Scene(array, truth, snr_db=10.0, seed=seed),
                                  frame_size=256, num_frames=50)
        traces = locate_sources(estimator_covariance(frames, estimator), array, points,
                                estimator=estimator, s=s, num_sources=num_sources,
                                variant=variant, max_iters=30,
                                min_separation_rad=np.radians(10.0))
        return np.array([t.iterates[-1] for t in traces])

    for s, variant in product((-3.0, 1.0), ("quadratic", "linear")):
        got = located(rotated, sources @ rotation.T, turned, s, variant)
        expected = located(geom, sources, grid, s, variant) @ rotation.T
        assert evaluate(got, expected).max() < 1e-6, (s, variant)


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
    with pytest.raises(ValueError):
        evaluate([[np.nan, 0.0, 1.0]], [[0.0, 0.0, 1.0]])
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


def test_evaluate_matches_scipy_assignment():
    # scipy's assignment is the oracle: the same errors, bit for bit, at
    # source counts no permutation search reaches
    from scipy.optimize import linear_sum_assignment

    local = np.random.default_rng(13)
    for num in range(1, 13):
        for _ in range(20):
            truth = random_sources(local, num, 0.0)
            estimates = random_sources(local, num, 0.0)
            err = np.degrees(great_circle_distance(truth[:, None, :], estimates[None, :, :]))
            np.testing.assert_array_equal(
                evaluate(estimates, truth), err[linear_sum_assignment(err)]
            )
    truth = random_sources(local, 40, np.radians(5.0))
    np.testing.assert_array_equal(evaluate(truth[local.permutation(40)], truth), 0.0)


def test_min_sum_assignment_breaks_ties_as_scipy_does():
    # small integer costs tie often; the columns, not only the sums, match
    from scipy.optimize import linear_sum_assignment

    from doakit.simulate import _min_sum_assignment

    local = np.random.default_rng(17)
    for num in range(1, 9):
        for _ in range(30):
            cost = local.integers(0, 3, (num, num)).astype(float)
            np.testing.assert_array_equal(
                _min_sum_assignment(cost), linear_sum_assignment(cost)[1]
            )
    np.testing.assert_array_equal(_min_sum_assignment(np.ones((5, 5))), np.arange(5))


def test_random_sources_separation(rng):
    for _ in range(20):
        q = random_sources(rng, 3, np.radians(25.0))
        assert q.shape == (3, 3)
        np.testing.assert_allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-12)
        for i in range(3):
            for j in range(i + 1, 3):
                assert great_circle_distance(q[i], q[j]) >= np.radians(25.0)


def test_random_sources_gives_up_on_an_unmeetable_separation(rng):
    # no three directions are pairwise 150 deg apart
    with pytest.raises(ValueError, match="3 random directions at least 150 deg apart"):
        random_sources(rng, 3, np.radians(150.0))


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


def test_monte_carlo_cell_rows_do_not_depend_on_the_rest_of_the_sweep():
    # a cell scores the same scenes, and so writes the same rows, whatever
    # else the sweep holds at its SNR: every cell of a three-estimator sweep
    # writes the rows it writes in its estimator's sweep alone, so no state
    # leaks from one estimator's search to the next, and one cell writes the
    # rows of a sweep of that cell alone
    def rows(result, key):
        return [r for r in result.rows if tuple(r[f] for f in CELL_FIELDS) == key]

    axes = dict(num_sources=2, s_values=(1.0, -3.0), grid_sizes=(100, 400),
                variants=("none", "linear", "quadratic"), iteration_counts=(0, 10))
    crowded = monte_carlo(_small_config(estimators=("music", "srp-phat", "mvdr"), **axes))
    assert len(crowded.medians) == 72
    for estimator in ("music", "srp-phat", "mvdr"):
        alone = monte_carlo(_small_config(estimators=(estimator,), **axes))
        assert len(alone.medians) == 24
        for key, median in alone.medians.items():
            assert rows(crowded, key) == rows(alone, key)
            assert crowded.medians[key] == median
    key = ("srp-phat", -3.0, 400, "quadratic", 10, 20.0)
    single = monte_carlo(_small_config(num_sources=2))
    assert rows(crowded, key) == single.rows
    assert crowded.medians[key] == single.medians[key]


def test_monte_carlo_synthesizes_and_searches_once_per_pairing(monkeypatch):
    calls = {"synth": 0, "powers": 0, "search": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(doakit.simulate, "synth_stft_scene", counted("synth", synth_stft_scene))
    monkeypatch.setattr(doakit.simulate, "band_powers", counted("powers", band_powers))
    monkeypatch.setattr(doakit.simulate, "grid_search", counted("search", grid_search))
    config = _small_config(
        estimators=("srp-phat", "mvdr"), s_values=(-3.0, 1.0), grid_sizes=(100, 200),
        variants=("quadratic", "linear", "none"), iteration_counts=(0, 5),
        snr_values=(10.0, 20.0), num_trials=2)
    result = monte_carlo(config)
    assert len(result.medians) == 2 * 2 * 2 * 3 * 2 * 2
    # one scene per (SNR, trial), one band_powers call per (SNR, trial, grid,
    # estimator) and one grid_search per (estimator, s, grid, SNR, trial)
    assert calls == {"synth": 2 * 2, "powers": 2 * 2 * 2 * 2, "search": 2 * 2 * 2 * 2 * 2}


def test_run_trial_only_refines_and_scores(monkeypatch):
    # a trial is drawn and searched before its cells run, so no cell's
    # run_trial builds a spec, takes band powers or searches a grid
    calls, stack = [], []  # (name, whether a run_trial was running) per call

    def watched(name, function):
        def wrapper(*args, **kwargs):
            calls.append((name, "run_trial" in stack))
            stack.append(name)
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
        return wrapper

    for name in ("build_cost_spec", "band_powers", "grid_search", "run_trial"):
        monkeypatch.setattr(doakit.simulate, name, watched(name, getattr(doakit.simulate, name)))
    result = monte_carlo(_small_config(estimators=("srp-phat", "mvdr"), grid_sizes=(100, 200),
                                       variants=("quadratic", "none"), num_trials=2))
    assert len(result.medians) == 2 * 2 * 2
    assert [name for name, _ in calls].count("run_trial") == 2 * 2 * 2 * 2
    assert [name for name, inside in calls if inside] == []


def test_monte_carlo_builds_each_spec_once_per_trial(monkeypatch):
    # a spec does not depend on the grid: two estimators, two grids and two
    # trials build 2 x 2 specs, not one per grid as well
    calls = []

    def counted(cov, estimator, *args, **kwargs):
        calls.append(estimator)
        return build_cost_spec(cov, estimator, *args, **kwargs)

    monkeypatch.setattr(doakit.simulate, "build_cost_spec", counted)
    result = monte_carlo(_small_config(estimators=("music", "mvdr"), grid_sizes=(100, 400),
                                       num_trials=2))
    assert len(result.medians) == 2 * 2
    assert sorted(calls) == ["music", "music", "mvdr", "mvdr"]


def _sweep_with_slow_band_powers(monkeypatch, call_delay, slow_estimator=None,
                                 product_delay=0.0):
    """Median seconds per estimator of a sweep without refinement, whose
    ``band_powers`` calls each sleep ``call_delay`` (every call reads the
    geometry's wavenumbers once) and whose ``slow_estimator`` sleeps
    ``product_delay`` per band in its products (its matrices are read band
    by band there)."""

    class SlowMatrices(np.ndarray):
        def __getitem__(self, key):
            time.sleep(product_delay)
            return np.asarray(self)[key]

    def slow_wavenumbers(self, frequencies):
        time.sleep(call_delay)
        return wavenumbers(self, frequencies)

    def slow_build(cov, estimator, *args, **kwargs):
        spec = build_cost_spec(cov, estimator, *args, **kwargs)
        if estimator == slow_estimator:
            spec.matrices = spec.matrices.view(SlowMatrices)
        return spec

    wavenumbers = ArrayGeometry.wavenumbers
    monkeypatch.setattr(ArrayGeometry, "wavenumbers", slow_wavenumbers)
    monkeypatch.setattr(doakit.simulate, "build_cost_spec", slow_build)
    result = monte_carlo(_small_config(estimators=("srp-phat", "mvdr"), s_values=(-3.0, 1.0),
                                       variants=("none",), iteration_counts=(0,),
                                       num_trials=2))
    cells = result.summary()["cells"]
    assert len(cells) == 4
    return {(c["estimator"], c["s"]): c["median_seconds"] for c in cells}


def test_monte_carlo_charges_every_cell_its_own_band_powers_call(monkeypatch):
    # each cell carries the band_powers call of its estimator, which every
    # exponent of that estimator reads
    seconds = _sweep_with_slow_band_powers(monkeypatch, call_delay=0.02)
    assert all(value >= 0.02 for value in seconds.values())


def test_monte_carlo_charges_products_only_to_their_estimator(monkeypatch):
    # mvdr's products sleep 2 ms in each of the 52 bands, about 0.1 s; srp-phat
    # is charged none of it, and every cell still carries its own 20 ms
    # band_powers call
    seconds = _sweep_with_slow_band_powers(monkeypatch, call_delay=0.02,
                                           slow_estimator="mvdr", product_delay=0.002)
    for s in (-3.0, 1.0):
        assert seconds[("mvdr", s)] >= 0.02 + 52 * 0.002
        assert 0.02 <= seconds[("srp-phat", s)] < 0.02 + 0.05


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"s_values": -3.0}, "s_values"),
        ({"estimators": "music"}, "estimators"),
        ({"grid_sizes": []}, "grid_sizes"),
        ({"num_trials": 0}, "num_trials"),
        ({"frame_size": 0}, "frame_size must be at least 2, got 0"),
        ({"frame_size": 1}, "frame_size must be at least 2, got 1"),
        ({"frame_size": -256}, "frame_size must be at least 2, got -256"),
        ({"sample_rate": 0.0}, "sample_rate must be positive and finite, got 0.0"),
        ({"sample_rate": -16000}, "sample_rate must be positive and finite"),
        ({"sample_rate": np.inf}, "sample_rate must be positive and finite"),
        ({"sample_rate": np.nan}, "sample_rate must be positive and finite"),
        ({"sample_rate": "16000"}, "sample_rate must be positive and finite"),
        ({"sample_rate": True}, "sample_rate must be positive and finite"),
        ({"band_gain_spread_db": "12"}, "band_gain_spread_db must be a finite non-negative"),
        ({"band_gain_spread_db": None}, "band_gain_spread_db must be a finite non-negative"),
        ({"band_gain_spread_db": True}, "band_gain_spread_db must be a finite non-negative"),
        ({"band_gain_spread_db": np.nan}, "band_gain_spread_db must be a finite non-negative"),
        ({"band_gain_spread_db": np.inf}, "band_gain_spread_db must be a finite non-negative"),
        ({"band_gain_spread_db": -1.0}, "band_gain_spread_db must be a finite non-negative"),
        ({"f_min": "300"}, "f_min must be a number, got '300'"),
        ({"f_min": None}, "f_min must be a number, got None"),
        ({"f_min": True}, "f_min must be a number, got True"),
        ({"f_max": "3500"}, "f_max must be a number, got '3500'"),
        ({"f_min": 3500.0, "f_max": 300.0}, "f_min must be below f_max"),
        ({"f_min": np.nan}, "f_min must be below f_max"),
        ({"f_min": 9000.0, "f_max": 12000.0}, "band selection is empty"),
        ({"num_frames": 0}, "num_frames must be at least 1, got 0"),
        ({"num_frames": -5}, "num_frames must be at least 1, got -5"),
        ({"master_seed": -1}, "master_seed must be at least 0, got -1"),
    ],
    ids=["scalar-axis", "string-axis", "empty-axis", "zero-trials", "frame-size-0",
         "frame-size-1", "frame-size-negative", "sample-rate-0", "sample-rate-negative",
         "sample-rate-inf", "sample-rate-nan", "sample-rate-string", "sample-rate-bool",
         "spread-string", "spread-null", "spread-bool", "spread-nan", "spread-inf",
         "spread-negative", "f-min-string", "f-min-null", "f-min-bool", "f-max-string",
         "band-range-inverted", "f-min-nan", "band-range-empty", "frames-0",
         "frames-negative", "seed-negative"],
)
def test_monte_carlo_config_rejects_bad_axes_and_trials(overrides, message):
    with pytest.raises(ValueError, match=message):
        _small_config(**overrides)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"snr_values": ("10",)}, "snr_values must be a number above -inf, got '10'"),
        ({"snr_values": (None,)}, "snr_values must be a number above -inf, got None"),
        ({"snr_values": (True,)}, "snr_values must be a number above -inf, got True"),
        ({"snr_values": (10.0, -np.inf)}, "snr_values must be a number above -inf"),
        ({"snr_values": (np.nan,)}, "snr_values must be a number above -inf"),
        ({"s_values": ("x",)}, r"s_values must lie in \(-inf, 1\], s != 0, got 'x'"),
        ({"s_values": (None,)}, "s_values must lie in"),
        ({"s_values": (True,)}, "s_values must lie in"),
        ({"s_values": (-3.0, 0.0)}, "s_values must lie in"),
        ({"s_values": (1.5,)}, "s_values must lie in"),
        ({"s_values": (-np.inf,)}, "s_values must lie in"),
        ({"s_values": (np.nan,)}, "s_values must lie in"),
    ],
    ids=["snr-string", "snr-null", "snr-bool", "snr-minus-inf", "snr-nan", "s-string",
         "s-null", "s-bool", "s-zero", "s-above-one", "s-minus-inf", "s-nan"],
)
def test_monte_carlo_config_rejects_bad_axis_entries(overrides, message):
    # the rules Scene and the exponent check apply, on every entry before any trial
    with pytest.raises(ValueError, match=message):
        _small_config(**overrides)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"estimators": ("music", "music")}, "estimators repeats the value 'music'"),
        ({"s_values": (-3.0, 1.0, -3)}, "s_values repeats the value -3"),
        ({"grid_sizes": (100, 100.0)}, "grid_sizes repeats the value 100"),
        ({"variants": ("none", "quadratic", "none")}, "variants repeats the value 'none'"),
        ({"iteration_counts": (5.0, 5)}, "iteration_counts repeats the value 5"),
        ({"snr_values": (20.0, 20.0)}, "snr_values repeats the value 20.0"),
    ],
    ids=["estimators", "s", "grid-sizes", "variants", "iterations", "snr"],
)
def test_monte_carlo_config_rejects_repeated_axis_values(overrides, message):
    # a repeated value would write rows for both cells but one summary cell
    with pytest.raises(ValueError, match=message):
        _small_config(**overrides)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"grid_sizes": (100.5,)}, "grid_sizes"),
        ({"iteration_counts": (2.5,)}, "iteration_counts"),
        ({"iteration_counts": ("5",)}, "iteration_counts"),
        ({"num_trials": 1.5}, "num_trials"),
        ({"num_sources": True}, "num_sources"),
        ({"master_seed": float("nan")}, "master_seed"),
        ({"frame_size": 256.5}, "frame_size"),
        ({"num_frames": float("inf")}, "num_frames"),
    ],
    ids=["grid-size", "iteration-count", "iteration-count-string", "trials",
         "sources-bool", "seed-nan", "frame-size", "frames-inf"],
)
def test_monte_carlo_config_rejects_non_integer_counts(overrides, message):
    with pytest.raises(ValueError, match=f"{message} must be an integer"):
        _small_config(**overrides)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"variants": ("quadratic", "bogus")}, "unknown variant 'bogus'"),
        ({"estimators": ("srp-phat", "srp-phot")}, "unknown estimator 'srp-phot'"),
        ({"iteration_counts": (10, -1)}, "max_iters"),
        ({"mvdr_loading": float("nan")}, "mvdr_loading"),
        ({"mvdr_loading": "x"}, "mvdr_loading"),
        ({"rel_tol": -1.0}, "rel_tol"),
        ({"rel_tol": float("inf")}, "rel_tol"),
        ({"min_separation_deg": -1.0}, "min_separation must be a finite non-negative"),
        ({"min_separation_deg": float("inf")}, "min_separation must be a finite non-negative"),
        ({"num_sources": 0}, "num_sources must be at least 1, got 0"),
        ({"num_sources": -1}, "num_sources must be at least 1, got -1"),
        ({"rel_tol": True}, "rel_tol must be a finite non-negative number, got True"),
        ({"mvdr_loading": True}, "mvdr_loading must be a finite non-negative number, got True"),
        ({"min_separation_deg": True}, "min_separation must be a finite non-negative number"),
    ],
    ids=["variant", "estimator", "iters-negative", "loading-nan", "loading-string",
         "rel-tol-negative", "rel-tol-inf", "separation-negative", "separation-inf",
         "sources-0", "sources-negative", "rel-tol-bool", "loading-bool",
         "separation-bool"],
)
def test_monte_carlo_config_rejects_bad_locate_settings(overrides, message):
    # the check locate_sources runs, on every cell before any trial
    with pytest.raises(ValueError, match=message):
        _small_config(**overrides)


@pytest.mark.parametrize("separation", [-1.0, 180.5, np.inf, np.nan, "20", True])
def test_monte_carlo_config_rejects_source_separation_outside_0_180(separation):
    with pytest.raises(ValueError, match=r"min_source_separation_deg must lie in \[0, 180\]"):
        _small_config(min_source_separation_deg=separation)


def test_monte_carlo_raises_when_the_sources_cannot_be_placed():
    # three directions pairwise 150 deg apart do not exist
    with pytest.raises(ValueError, match="3 random directions at least 150 deg apart"):
        monte_carlo(_small_config(num_sources=3, min_source_separation_deg=150.0,
                                  num_trials=1, num_frames=10))


def test_monte_carlo_config_accepts_integer_valued_floats():
    config = _small_config(grid_sizes=[400.0], iteration_counts=(10.0,),
                           num_trials=3.0, num_frames=np.float64(50.0))
    assert config.grid_sizes == (400,) and type(config.grid_sizes[0]) is int
    assert config.iteration_counts == (10,) and type(config.iteration_counts[0]) is int
    assert type(config.num_trials) is int and type(config.num_frames) is int
    a = monte_carlo(config)
    b = monte_carlo(_small_config())
    assert a.rows == b.rows


def test_monte_carlo_takes_a_count_too_large_for_a_float():
    # 10**400 overflows float(); as a step cap it lets every refinement run
    # until it converges, as a cap of 10 000 steps does
    huge = 10 ** 400
    config = _small_config(iteration_counts=(huge,))
    assert config.iteration_counts == (huge,)
    capped = monte_carlo(_small_config(iteration_counts=(10_000,)))
    assert [r["error_deg"] for r in monte_carlo(config).rows] == [
        r["error_deg"] for r in capped.rows]
    with pytest.raises(ValueError):  # numpy cannot lay out the frame's bands
        _small_config(frame_size=huge)


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
