"""End-to-end acceptance checks.

Each test covers one headline claim of the toolkit and prints a single
PASS/FAIL line; tolerances and runtime budgets are part of the check.
"""

import time

import numpy as np
import pytest

from doakit.estimators import gershgorin_shift, power_mean
from doakit.manifold import (
    fibonacci_points,
    great_circle_distance,
    random_geometry,
)
from doakit.refine import (
    PairCoefficients,
    _band_weights,
    pair_band_powers,
    refine,
    solve_gtrs,
    surrogate_system,
)
from doakit.simulate import MonteCarloConfig, monte_carlo
from doakit.spectral import CovarianceSet
from oracles import (
    gtrs_coefficients,
    hertz,
    quadratic_monomials,
    steering_vector,
    unnormalized_sinc,
    wrap_phase,
)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {num}: {name}{suffix}")
    return ok


def _random_cost_spec(rng, num_sensors, num_bands):
    geom = random_geometry(num_sensors=num_sensors, seed=int(rng.integers(1 << 30)))
    mats = []
    for _ in range(num_bands):
        a = rng.standard_normal((num_sensors, num_sensors)) + 1j * rng.standard_normal(
            (num_sensors, num_sensors)
        )
        mats.append(a @ a.conj().T / num_sensors)
    omega = np.sort(rng.uniform(5.0, 70.0, num_bands))
    return CovarianceSet(np.stack(mats), hertz(omega, geom.speed_of_sound)), geom


def _rank_one_spec(geom, qstar, freqs):
    mats = []
    for f in freqs:
        w = 2 * np.pi * f / geom.speed_of_sound
        a = steering_vector(geom, w, qstar)
        mats.append(np.outer(a, a.conj()))
    from doakit.estimators import srp_cost_spec

    cov = CovarianceSet(np.stack(mats), np.asarray(freqs, float))
    return srp_cost_spec(cov)


def test_criterion_1_cosine_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    theta = rng.uniform(-10 * np.pi, 10 * np.pi, 100_000)
    theta0 = rng.uniform(-10 * np.pi, 10 * np.pi, 100_000)
    z0, phi0 = wrap_phase(theta0)
    w = unnormalized_sinc(phi0)
    const = -np.cos(phi0) - 0.5 * phi0 * np.sin(phi0)
    bound = 0.5 * w * (theta + 2 * np.pi * z0) ** 2 + const
    slack = bound + np.cos(theta)
    at_point = 0.5 * w * (theta0 + 2 * np.pi * z0) ** 2 + const + np.cos(theta0)
    elapsed = time.perf_counter() - start
    ok = (
        slack.min() >= -1e-9
        and np.max(np.abs(at_point)) <= 1e-12
        and elapsed < 1.0
    )
    assert _report(
        1,
        "quadratic cosine bound",
        ok,
        f"min slack {slack.min():.2e}, max equality gap {np.max(np.abs(at_point)):.2e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_2_majorization_gap():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    s_cycle = (-3.0, -1.0, 0.5)
    worst = np.inf
    for i in range(100):
        m = int(rng.integers(3, 9))
        k = int(rng.integers(1, 17))
        s = s_cycle[i % 3]
        spec, geom = _random_cost_spec(rng, m, k)
        coeffs = PairCoefficients.from_cost_spec(spec, geom, s)
        q_hat = rng.standard_normal(3)
        q_hat /= np.linalg.norm(q_hat)
        evaluated = pair_band_powers(coeffs, q_hat)
        D, v = surrogate_system(coeffs, q_hat, evaluated)
        g_hat = power_mean(evaluated[0], s)

        q = rng.standard_normal((100, 3))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        g = power_mean(
            np.stack([pair_band_powers(coeffs, qi)[0] for qi in q], axis=1),
            s,
        )

        def quad(x):
            return np.einsum("gi,ij,gj->g", x, D, x) - 2.0 * x @ v

        gap2 = quad(q) - quad(q_hat[None])[0] - (g - g_hat)
        # linear surrogate: first-order expansion of the quadratic plus
        # C||q - q_hat||^2 with C = lambda_max(D), as linear_update takes it
        grad = 2.0 * (D @ q_hat - v)
        lin = (
            quad(q_hat[None])[0]
            + (q - q_hat) @ grad
            + np.linalg.eigvalsh(D)[-1] * np.sum((q - q_hat) ** 2, axis=1)
        )
        gap1 = lin - quad(q_hat[None])[0] - (g - g_hat)
        worst = min(worst, gap2.min(), gap1.min())
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-9 and elapsed < 30.0
    assert _report(
        2, "surrogate majorization gap", ok, f"worst gap {worst:.2e}, {elapsed:.1f}s"
    )


def test_criterion_3_monotone_descent():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_increase = -np.inf
    worst_norm = 0.0
    for i in range(500):
        s = (-3.0, -1.0, 0.5, 1.0)[i % 4]
        spec, geom = _random_cost_spec(rng, int(rng.integers(3, 9)), int(rng.integers(1, 9)))
        coeffs = PairCoefficients.from_cost_spec(spec, geom, s)
        q0 = rng.standard_normal(3)
        q0 /= np.linalg.norm(q0)
        for variant in ("quadratic", "linear"):
            trace = refine(coeffs, q0, variant=variant, max_iters=30, rel_tol=0.0)
            objs = np.array(trace.objectives)
            rel = np.diff(objs) / np.maximum(np.abs(objs[:-1]), np.finfo(float).tiny)
            worst_increase = max(worst_increase, rel.max())
            for q in trace.iterates:
                worst_norm = max(worst_norm, abs(np.linalg.norm(q) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst_increase <= 1e-9 and worst_norm <= 1e-12 and elapsed < 60.0
    assert _report(
        3,
        "monotone descent on the sphere",
        ok,
        f"worst relative increase {worst_increase:.2e}, worst norm error "
        f"{worst_norm:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_gtrs_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    monomials = quadratic_monomials(fibonacci_points(1_000_000))
    worst_excess = -np.inf
    worst_resid = 0.0
    for _ in range(1000):
        a = rng.standard_normal((3, 3))
        d = a @ a.T * rng.uniform(0.05, 20.0)
        v = rng.standard_normal(3) * rng.uniform(0.0, 8.0)
        q, mu, hard = solve_gtrs(d, v)
        val = q @ d @ q - 2.0 * v @ q
        grid_min = (monomials @ gtrs_coefficients(d, v)).min()
        worst_excess = max(worst_excess, val - grid_min)
        if not hard:
            resid = np.linalg.norm((d + mu * np.eye(3)) @ q - v)
            worst_resid = max(worst_resid, resid)
    elapsed = time.perf_counter() - start
    ok = worst_excess <= 1e-4 and worst_resid <= 1e-8 and elapsed < 120.0
    assert _report(
        4,
        "sphere-constrained quadratic solver vs dense grid",
        ok,
        f"worst excess {worst_excess:.2e}, worst stationarity {worst_resid:.2e}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_5_grid_independence():
    start = time.perf_counter()
    config = MonteCarloConfig(
        geometry=random_geometry(num_sensors=12, radius=0.1, seed=0),
        estimators=("srp-phat",),
        s_values=(-3.0,),
        grid_sizes=(100, 10_000),
        variants=("quadratic",),
        iteration_counts=(0, 30),
        snr_values=(20.0,),
        num_sources=1,
        num_trials=100,
        master_seed=50,
    )
    result = monte_carlo(config)

    def med(grid_size, iters):
        return result.medians[("srp-phat", -3.0, grid_size, "quadratic", iters, 20.0)]

    coarse_refined = med(100, 30)
    fine_unrefined = med(10_000, 0)
    fine_refined = med(10_000, 30)
    elapsed = time.perf_counter() - start
    ok = (
        coarse_refined <= fine_unrefined
        and coarse_refined <= 1.1 * fine_refined
        and elapsed < 300.0
    )
    assert _report(
        5,
        "refined coarse grid matches dense grid",
        ok,
        f"grid100+T30 {coarse_refined:.4f} deg, grid10000+T0 {fine_unrefined:.4f} deg, "
        f"grid10000+T30 {fine_refined:.4f} deg, {elapsed:.0f}s",
    )


def test_criterion_6_convergence_speed():
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    freqs = np.linspace(500.0, 4000.0, 8)
    worst = {"quadratic": 0, "linear": 0}
    for i in range(100):
        geom = random_geometry(num_sensors=12, radius=0.1, seed=1000 + i)
        qstar = rng.standard_normal(3)
        qstar /= np.linalg.norm(qstar)
        coeffs = PairCoefficients.from_cost_spec(_rank_one_spec(geom, qstar, freqs), geom, 0.5)
        # start exactly 15 degrees away along a random tangent
        t = rng.standard_normal(3)
        axis = np.cross(qstar, t)
        axis /= np.linalg.norm(axis)
        ang = np.radians(15.0)
        q0 = qstar * np.cos(ang) + np.cross(axis, qstar) * np.sin(ang)
        for variant in ("quadratic", "linear"):
            trace = refine(coeffs, q0, variant=variant, max_iters=60, rel_tol=0.0)
            errs = [np.degrees(great_circle_distance(q, qstar)) for q in trace.iterates]
            hit = next((t for t, e in enumerate(errs) if e <= 0.1), None)
            assert hit is not None
            worst[variant] = max(worst[variant], hit)
    elapsed = time.perf_counter() - start
    ok = worst["quadratic"] <= 15 and worst["linear"] <= 40 and elapsed < 60.0
    assert _report(
        6,
        "iterations to 0.1 degree",
        ok,
        f"quadratic worst {worst['quadratic']}, linear worst {worst['linear']}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_runtime_ordering():
    start = time.perf_counter()
    geometry = random_geometry(num_sensors=12, radius=0.1, seed=0)
    ratios, errors = {}, {}
    for num_sources in (1, 2):
        base = dict(
            geometry=geometry,
            estimators=("srp-phat", "music"),
            s_values=(-3.0,),
            variants=("quadratic",),
            snr_values=(20.0,),
            num_sources=num_sources,
            num_trials=11,
            master_seed=70 + num_sources,
            num_frames=50,
        )
        fast = monte_carlo(
            MonteCarloConfig(grid_sizes=(100,), iteration_counts=(30,), **base)
        )
        slow = monte_carlo(
            MonteCarloConfig(grid_sizes=(10_000,), iteration_counts=(0,), **base)
        )
        for estimator in ("srp-phat", "music"):
            coarse = (estimator, -3.0, 100, "quadratic", 30, 20.0)
            dense = (estimator, -3.0, 10_000, "quadratic", 0, 20.0)
            ratios[(estimator, num_sources)] = slow.cell_seconds[dense] / fast.cell_seconds[coarse]
            # each timing beside the median error it bought
            errors[(estimator, num_sources)] = (fast.medians[coarse], slow.medians[dense])
    elapsed = time.perf_counter() - start
    ok = all(r >= 5.0 for r in ratios.values()) and elapsed < 600.0
    detail = ", ".join(
        f"{est} L={ns}: {r:.1f}x (median error coarse {errors[(est, ns)][0]:.3g} deg, "
        f"dense {errors[(est, ns)][1]:.3g} deg)"
        for (est, ns), r in sorted(ratios.items())
    )
    assert _report(7, "coarse grid plus refinement is faster", ok, f"{detail}, {elapsed:.0f}s")


def test_criterion_8_power_mean_and_shift():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    s_sweep = np.array([-10.0, -3.0, -1.0, -0.5, 0.2, 0.5, 1.0])
    worst_mono = np.inf
    worst_tangent = np.inf
    for _ in range(10_000):
        y = rng.uniform(0.01, 10.0, 6)
        means = np.array([power_mean(y, s) for s in s_sweep])
        worst_mono = min(worst_mono, np.diff(means).min())
        s = s_sweep[rng.integers(len(s_sweep))]
        y_hat = rng.uniform(0.01, 10.0, 6)
        mean = power_mean(y_hat, s)
        tangent = mean + _band_weights(y_hat, s, mean) @ (y - y_hat)
        worst_tangent = min(worst_tangent, tangent - power_mean(y, s))
    worst_eig = np.inf
    for _ in range(1000):
        m = int(rng.integers(2, 13))
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        c = (a + a.conj().T) / 2.0
        v = gershgorin_shift(c)
        trace = max(np.trace(v).real, 1.0)
        worst_eig = min(worst_eig, np.linalg.eigvalsh(v).min() / trace)
    elapsed = time.perf_counter() - start
    ok = (
        worst_mono >= -1e-10
        and worst_tangent >= -1e-10
        and worst_eig >= -1e-10
        and elapsed < 10.0
    )
    assert _report(
        8,
        "power mean monotone and concave, shifted matrices PSD",
        ok,
        f"worst monotonicity {worst_mono:.2e}, worst tangent gap {worst_tangent:.2e}, "
        f"worst eigenvalue ratio {worst_eig:.2e}, {elapsed:.1f}s",
    )


def test_criterion_9_soft_min_pooling_beats_mean():
    start = time.perf_counter()
    config = MonteCarloConfig(
        geometry=random_geometry(num_sensors=12, radius=0.1, seed=0),
        estimators=("srp-phat",),
        s_values=(-3.0, 1.0),
        grid_sizes=(1000,),
        variants=("quadratic",),
        iteration_counts=(30,),
        snr_values=(10.0,),
        num_sources=2,
        num_trials=100,
        master_seed=90,
        band_gain_spread_db=12.0,
    )
    result = monte_carlo(config)
    med_soft = result.medians[("srp-phat", -3.0, 1000, "quadratic", 30, 10.0)]
    med_mean = result.medians[("srp-phat", 1.0, 1000, "quadratic", 30, 10.0)]
    elapsed = time.perf_counter() - start
    ok = med_soft <= med_mean and elapsed < 300.0
    assert _report(
        9,
        "negative exponent beats arithmetic mean for two sources",
        ok,
        f"s=-3 median {med_soft:.3f} deg, s=1 median {med_mean:.3f} deg, {elapsed:.0f}s",
    )
