"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Benchmark seeds follow the CLI convention: data seed
s, landmarks s+1, random pattern s+2, right-hand side s+3.
"""

import math
import os
import time

import numpy as np
import pytest

from covfield import (
    KernelConfig,
    PointSet,
    bandwidth_percentile,
    cost_equivalent_rank,
    estimator_field,
    fit,
    generate_gaussian_cloud,
    kernel_matrix,
    load_csv,
    lower_bound_small,
    lowrank_dense,
    lrsp_dense,
    max_cross_weight_norm,
    nystrom_build,
    pattern_by_radius,
    preset_observations,
    reference_points_1d,
    run_methods,
    sparse_correction,
    standardize,
    subsample,
    upper_bound_large,
    upper_bound_small,
    variance_estimator_large,
    variance_estimator_small,
)

from conftest import dense_posterior_oracle, unit_grid

PRESETS = ("uniform1d", "nonuniform1d")


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_interpolation():
    t0 = time.perf_counter()
    worst = 0.0
    grid = unit_grid(1001)
    for name in PRESETS:
        S = preset_observations(name)
        for sigma in (0.05, 0.1, 0.4):
            model = fit(S, KernelConfig(sigma=sigma))
            worst = max(worst, float(np.abs(model.cov_matrix(S, grid)).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    assert report(1, ok, f"max |R(s, y)| = {worst:.2e} (<= 1e-8), {elapsed:.2f} s (< 1 s)")


def test_criterion_02_oracle_equivalence():
    # instances drawn in the small-bandwidth regime and admitted only while
    # K_SS is numerically well conditioned - beyond cond ~1e4 the
    # dense-inverse reference cannot carry 1e-10 itself
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025)
    worst = 0.0
    done = 0
    while done < 100:
        d = int(rng.integers(1, 4))
        r = int(rng.integers(2, 21))
        n = int(rng.integers(5, 51))
        sigma = float(rng.uniform(0.05, 0.15))
        S = PointSet(rng.uniform(0, 1, (r, d)))
        X = PointSet(rng.uniform(0, 1, (n, d)))
        cfg = KernelConfig(sigma=sigma)
        if np.linalg.cond(kernel_matrix(S, S, cfg)) > 1e4:
            continue
        model = fit(S, cfg)
        R = model.cov_matrix(X, X)
        want = dense_posterior_oracle(S, X, X, cfg)
        worst = max(worst, float(np.linalg.norm(R - want) / np.linalg.norm(want)))
        done += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    assert report(2, ok, f"worst rel Frobenius = {worst:.2e} (<= 1e-10), {elapsed:.1f} s (< 10 s)")


def test_criterion_03_bound_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    violations = 0
    models = {}
    for _ in range(10**4):
        name = PRESETS[int(rng.integers(0, 2))]
        sigma = float(np.exp(rng.uniform(math.log(0.03), math.log(0.5))))
        key = (name, sigma)
        if key not in models:
            models[key] = fit(preset_observations(name), KernelConfig(sigma=sigma))
        model = models[key]
        x, y = rng.uniform(0, 1, 2)
        r_abs = abs(model.cov(x, y))
        if r_abs > upper_bound_small(model, x, y) + 1e-12:
            violations += 1
        if lower_bound_small(model, x, y) > r_abs + 1e-12:
            violations += 1
        if r_abs > upper_bound_large(model, x, y) + 1e-12:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    assert report(3, ok, f"{violations} violations in 10^4 draws, {elapsed:.1f} s (< 30 s)")


def test_criterion_04_lipschitz():
    rng = np.random.default_rng(11)
    h = 1e-6
    worst_ratio = 0.0
    for sigma in (0.05, 0.5, 5.0):
        cfg = KernelConfig(sigma=sigma)
        bound = 1.0 / (sigma * math.sqrt(math.e))
        u = rng.uniform(-1, 1, (10**4, 2)) * max(sigma, 1.0)
        ang = rng.uniform(0, 2 * math.pi, 10**4)
        dist = rng.uniform(0, 4 * sigma, 10**4)
        v = u + dist[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])

        def k(a, b, s=sigma):
            return np.exp(-np.sum((a - b) ** 2, axis=1) / (2 * s * s))

        grad = np.empty((10**4, 2))
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = h
            grad[:, axis] = (k(u + e, v) - k(u - e, v)) / (2 * h)
        worst_ratio = max(worst_ratio, float(np.linalg.norm(grad, axis=1).max() / bound))
    ok = worst_ratio <= 1 + 1e-6
    assert report(4, ok, f"max ||grad||/bound = {worst_ratio:.9f} (<= 1 + 1e-6)")


def test_criterion_05_weight_norm_limit():
    S = preset_observations("uniform1d")
    # linspace(0, 1, 2001) contains all five observation points bitwise
    grid = PointSet(np.linspace(0, 1, 2001)[:, None])
    g2 = max_cross_weight_norm(fit(S, KernelConfig(sigma=0.01)), grid, 2)
    ok = 1.0 <= g2 <= 1.0 + 1e-6
    floor_ok = True
    for sigma in (0.01, 0.05, 0.1, 0.4):
        val = max_cross_weight_norm(fit(S, KernelConfig(sigma=sigma)), grid, 2)
        floor_ok = floor_ok and val >= 1.0
    ok = ok and floor_ok
    assert report(5, ok, f"Gamma_2(sigma=0.01) = {g2:.12f} in [1, 1+1e-6]; >= 1 for all sigma: {floor_ok}")


def test_criterion_06_variance_estimators():
    ok = True
    details = []
    for name in PRESETS:
        S = preset_observations(name)
        cfg = KernelConfig(sigma=0.1)
        model = fit(S, cfg)
        refs = reference_points_1d(model)
        zero_small = all(variance_estimator_small(s, S, cfg) == 0.0 for s in S.coords[:, 0])
        zero_large = all(
            variance_estimator_large(s, refs, S, cfg) == 0.0 for s in S.coords[:, 0]
        )
        ref_exact = all(
            abs(variance_estimator_large(p, refs, S, cfg) - model.variance(p)) <= 1e-12
            for p in refs.points.coords[:, 0]
        )
        ray = 0.98 + np.linspace(0.005, 1.0, 200)
        vals = np.array([variance_estimator_small(x, S, cfg) for x in ray])
        # monotone convergence to the prior variance; strict growth until the
        # exponential tail saturates at beta in float64
        monotone = (
            np.all(np.diff(vals) >= 0)
            and all(a < b for a, b in zip(vals, vals[1:]) if a < cfg.beta * (1 - 1e-12))
            and abs(vals[-1] - cfg.beta) <= 1e-20
        )
        ok = ok and zero_small and zero_large and ref_exact and monotone
        details.append(f"{name}: zeros {zero_small and zero_large}, refs {ref_exact}, ray {monotone}")
    assert report(6, ok, "; ".join(details))


def test_criterion_07_lrsp_vs_lowrank():
    t0 = time.perf_counter()
    X = generate_gaussian_cloud(1000, 3, 42)
    cfg = KernelConfig(sigma=0.5)
    perm = np.random.default_rng(43).permutation(X.n)
    K = kernel_matrix(X, X, cfg)

    def lr_max(rank):
        fac = nystrom_build(X, perm[:rank], cfg)
        return float(np.abs(K - lowrank_dense(fac)).max())

    f0 = nystrom_build(X, perm[:100], cfg)
    ordered = True
    for mult in range(2, 11):
        pat = pattern_by_radius(X, mult * cfg.sigma)
        corr = sparse_correction(X, f0, pat, cfg)
        lrsp_err = float(np.abs(K - lrsp_dense(f0, corr)).max())
        k_eq = int(round(cost_equivalent_rank(100, X.n, pat.nnz)))
        ordered = ordered and lrsp_err < lr_max(min(k_eq, X.n))
    flat = [lr_max(r) for r in range(100, 661, 40)]
    flatness = max(flat) / min(flat)
    elapsed = time.perf_counter() - t0
    ok = ordered and flatness < 2.0 and elapsed < 120.0
    assert report(
        7, ok,
        f"LRSP < LR at every delta: {ordered}; LR max-norm flatness x{flatness:.2f} (< 2); "
        f"{elapsed:.0f} s (< 2 min)",
    )


def test_criterion_08_cost_equivalent_rank_balances():
    rng = np.random.default_rng(31)
    r0 = rng.integers(0, 500, 1000).astype(float)
    N = rng.integers(1, 10**4, 1000).astype(float)
    nnz = rng.integers(0, 10**7, 1000).astype(float)
    k = np.array([cost_equivalent_rank(a, b, c) for a, b, c in zip(r0, N, nnz)])
    lhs = k * k + N * k
    rhs = r0 * r0 + N * r0 + nnz
    worst = float(np.max(np.abs(lhs - rhs) / rhs))
    ok = worst <= 1e-9 and np.all(k >= r0)
    assert report(8, ok, f"worst relative imbalance = {worst:.2e} (<= 1e-9)")


def test_criterion_09_preconditioning_synthetic():
    t0 = time.perf_counter()
    X = generate_gaussian_cloud(1000, 3, 42)
    sigma = bandwidth_percentile(X, 2)
    cfg = KernelConfig(sigma=sigma, tau=0.004)
    rows = run_methods(
        X, cfg, r=200, delta=2 * sigma, tol_abs=1e-5, max_iter=1000, seed=43,
    )
    by = {r["method"]: r for r in rows}
    m3_ok = by[3]["iterations"] <= 50 and by[3]["residual"] <= 1e-5
    m1_ok = by[1]["iterations"] >= 1000 and by[1]["residual"] > 1e-5
    ratio = by[2]["residual"] / by[3]["residual"]
    m2_ok = ratio >= 100.0
    elapsed = time.perf_counter() - t0
    ok = m3_ok and m1_ok and m2_ok and elapsed < 120.0
    assert report(
        9, ok,
        f"M3 {by[3]['iterations']} iters (<= 50), M1 residual "
        f"{by[1]['residual']:.2e} after {by[1]['iterations']} (no converge), "
        f"M2/M3 residual ratio {ratio:.0f} (>= 100); {elapsed:.0f} s (< 2 min)",
    )


def test_criterion_10_preconditioning_real_data(tmp_path):
    sm_datasets = pytest.importorskip("statsmodels.datasets")
    path = os.path.join(os.path.dirname(sm_datasets.__file__), "randhie", "randhie.csv")
    raw = np.genfromtxt(path, delimiter=",", skip_header=1)[:, :8]
    raw = np.unique(raw, axis=0)
    csv_path = tmp_path / "health_expenditure_8col.csv"
    np.savetxt(csv_path, raw, delimiter=",", header=",".join(f"x{i}" for i in range(8)))
    X = standardize(subsample(load_csv(csv_path), 5000, seed=123))
    sigma = bandwidth_percentile(X, 2)
    cfg = KernelConfig(sigma=sigma, tau=0.004)
    rows = run_methods(
        X, cfg, r=1000, delta=2 * sigma, tol_abs=1e-5, max_iter=1000, seed=124, methods=(3,),
    )
    m3 = rows[0]
    ok = m3["iterations"] <= 30 and m3["residual"] <= 1e-5
    assert report(
        10, ok,
        f"real data n=5000 d=8: Method 3 {m3['iterations']} iters (<= 30), "
        f"residual {m3['residual']:.2e}",
    )


def test_criterion_11_singular_value_decay():
    t0 = time.perf_counter()
    X = unit_grid(500)
    ratios = {}
    for sigma in (0.6, 0.1):
        s = np.linalg.svd(kernel_matrix(X, X, KernelConfig(sigma=sigma)), compute_uv=False)
        ratios[sigma] = (s[49] / s[0], s[19] / s[0])
    elapsed = time.perf_counter() - t0
    large_ok = ratios[0.6][0] <= 1e-10
    small_ok = ratios[0.1][0] >= 1e-6
    print(
        f"ACCEPTANCE 11 detail: s50/s1(sigma=0.6) = {ratios[0.6][0]:.2e} "
        f"(<= 1e-10: {'PASS' if large_ok else 'FAIL'}); "
        f"s50/s1(sigma=0.1) = {ratios[0.1][0]:.2e} "
        f"(>= 1e-6: {'PASS' if small_ok else 'FAIL'}); "
        f"at index 20 the stated magnitudes hold: s20/s1(0.6) = {ratios[0.6][1]:.2e}, "
        f"s20/s1(0.1) = {ratios[0.1][1]:.2e}"
    )
    ok = large_ok and small_ok and elapsed < 5.0
    # the sigma=0.1 clause is unattainable at index 50 in float64 (both
    # bandwidths sit at the machine floor there); see the decisions ledger
    assert report(11, ok, f"sigma=0.6 clause {large_ok}, sigma=0.1 clause {small_ok}, {elapsed:.1f} s")


def test_criterion_12_pattern_fidelity():
    grid = unit_grid(101)
    worst = 1.0
    for name in PRESETS:
        S = preset_observations(name)
        for sigma in (0.1, 0.2, 0.4):
            model = fit(S, KernelConfig(sigma=sigma))
            exact = np.abs(model.cov_matrix(grid, grid))
            est = estimator_field(grid, S, sigma)
            ntop = int(np.ceil(0.1 * exact.size))
            top_true = set(np.argsort(exact.ravel())[-ntop:])
            top_est = set(np.argsort(est.ravel())[-ntop:])
            worst = min(worst, len(top_true & top_est) / len(top_true | top_est))
    ok = worst >= 0.4
    assert report(12, ok, f"min top-decile Jaccard over 6 fields = {worst:.3f} (>= 0.4)")
