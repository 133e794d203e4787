"""Acceptance gate: one test per headline claim, stated tolerances only.

Each test prints a single verdict line so a full run reads as a checklist.
Trial counts and seeds are fixed; every Monte Carlo quantity here is exactly
reproducible.
"""

import math
import time

import numpy as np
import pytest

import sincount as sc
from sincount.likelihood import FrequencyPlan, _chol_or_degenerate

from oracles import sample_increments

SNR_GRID = (-4.0, 0.0, 4.0)
MC_TRIALS = 100000
SPECS = (sc.Gic(), sc.PmepIr(kappa_ir=0.25), sc.PmepI(kappa_i=3.0))


def verdict(num, name, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def scen():
    return sc.standard_scenario(-4.0)


@pytest.fixture(scope="module")
def mc_runs(scen):
    """Known-frequency reports for the three closed-form criteria per SNR."""
    runs = {}
    for snr in SNR_GRID:
        runs[snr] = sc.estimate(sc.with_snr_db(scen, snr), list(SPECS),
                                sc.KNOWN_FREQ, MC_TRIALS, master_seed=105)
    return runs


def production_plan(vectors):
    """FrequencyPlan over basis columns A_1..A_n (the rows of `vectors`),
    factorized by the production Cholesky; unit known noise, so the
    residuals are L^{-1} x unscaled."""
    freqs = np.arange(vectors.shape[0], dtype=float)
    return FrequencyPlan(scenario=sc.standard_scenario(0.0), frequencies=freqs,
                         basis=vectors.T,
                         chol=_chol_or_degenerate(vectors @ vectors.T, freqs))


def test_criterion_01_gram_schmidt_equivalence():
    rng = np.random.default_rng(101)

    def classical(vectors):
        n = vectors.shape[0]
        basis = np.zeros_like(vectors)
        for m in range(n):
            acc = vectors[m].copy()
            for i in range(m):
                acc -= (basis[i] @ vectors[m]) * basis[i]
            basis[m] = acc / np.linalg.norm(acc)
        return basis

    start = time.time()
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 11))
        vectors = rng.standard_normal((dim, dim + 3))
        # the whitened unit samples are the orthonormal vectors L^{-1} A
        direct = production_plan(vectors).residuals_batch(np.eye(dim + 3)).T
        worst = max(worst, float(np.max(np.abs(direct - classical(vectors)))))
    elapsed = time.time() - start
    verdict(1, "Cholesky whitening matches the iterative Gram-Schmidt form",
            worst < 1e-9 and elapsed < 1.0,
            f"max orthonormal-vector deviation {worst:.3g}, {elapsed:.2f}s")


def test_criterion_02_quadratic_form_telescoping():
    rng = np.random.default_rng(102)
    start = time.time()
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 13))
        vectors = rng.standard_normal((dim, dim + 3))
        cov = vectors @ vectors.T
        samples = rng.standard_normal(dim + 3)
        x = vectors @ samples
        increments = production_plan(vectors).residuals_batch(samples)[0] ** 2
        total = x @ np.linalg.solve(cov, x)
        worst = max(worst, abs(np.sum(increments) - total) / abs(total))
    elapsed = time.time() - start
    verdict(2, "quadratic form telescopes into residual increments",
            worst < 1e-9 and elapsed < 1.0,
            f"max relative deviation {worst:.3g}, {elapsed:.2f}s")


def test_criterion_03_orthonormal_residuals(scen):
    trials = 200000
    start = time.time()
    plan = FrequencyPlan.build(scen, scen.all_frequencies)
    rng = np.random.default_rng(103)
    residuals = plan.residuals_batch(rng.standard_normal((trials, 64)))
    cov = np.cov(residuals.T)
    off = cov - np.diag(np.diag(cov))
    max_off = float(np.max(np.abs(off)))
    max_diag = float(np.max(np.abs(np.diag(cov) - 1.0)))
    elapsed = time.time() - start
    verdict(3, "pure-noise residual statistics are orthonormal",
            max_off < 0.01 and max_diag < 0.02 and elapsed < 60.0,
            f"max |off-diagonal| {max_off:.4f}, max |diagonal-1| "
            f"{max_diag:.4f}, {elapsed:.1f}s")


def test_criterion_04_zero_means_above_true_order(scen):
    trials = 100000
    start = time.time()
    plan = FrequencyPlan.build(scen, scen.all_frequencies)
    rows = sc.batch_samples(scen, master_seed=104, start=0, count=trials)
    residuals = plan.residuals_batch(rows)
    means = residuals[:, 2 * scen.nu0:].mean(axis=0)
    bound = 4.0 / math.sqrt(trials)
    worst = float(np.max(np.abs(means)))
    elapsed = time.time() - start
    verdict(4, "residual means vanish above the true order",
            worst < bound and elapsed < 60.0,
            f"max |mean| {worst:.5f} < {bound:.5f}, {elapsed:.1f}s")


def test_criterion_05_theory_matches_monte_carlo(scen, mc_runs):
    start = time.time()
    rows = []
    ok = True
    for snr in SNR_GRID:
        dists = sc.component_dists(sc.with_snr_db(scen, snr))
        for spec, report in zip(SPECS, mc_runs[snr]):
            theory_pa = sc.abridged_for(dists, spec).p_a
            se = math.sqrt(report.p_a * (1 - report.p_a) / MC_TRIALS)
            gap = abs(theory_pa - report.p_a)
            tol = 3 * se + 1e-3
            ok &= gap <= tol
            rows.append(f"{spec.name}@{snr:+.0f}dB {gap:.2e}<={tol:.2e}")
    elapsed = time.time() - start
    verdict(5, "abridged theory matches Monte Carlo per criterion and SNR",
            ok and elapsed < 600.0, "; ".join(rows) + f", {elapsed:.0f}s")


def test_criterion_06_abridged_bounds_full_error(scen, mc_runs):
    ok = True
    for snr in SNR_GRID:
        for report in mc_runs[snr]:
            ok &= bool(np.all(report.correct <= report.abridged_correct))
            ok &= report.p_a <= report.p_e + 1e-15
    pair = sc.standard_scenario(-2.0, nu0=2, max_order=3)
    equal = True
    for report in sc.estimate(pair, list(SPECS), sc.KNOWN_FREQ, MC_TRIALS,
                              master_seed=106):
        equal &= bool(np.array_equal(report.correct, report.abridged_correct))
        equal &= report.p_a == report.p_e
    verdict(6, "abridged error lower-bounds the full error, equality at 2-of-3",
            ok and equal,
            f"pairwise bound held on all {len(SNR_GRID) * len(SPECS)} runs; "
            f"exact equality on the two-of-three scenario: {equal}")


def test_criterion_07_snr_consistency_split(scen):
    start = time.time()
    rep20 = sc.estimate(sc.with_snr_db(scen, 20.0), list(SPECS),
                        sc.KNOWN_FREQ, MC_TRIALS, master_seed=107)
    rep30 = sc.estimate(sc.with_snr_db(scen, 30.0), list(SPECS),
                        sc.KNOWN_FREQ, MC_TRIALS, master_seed=108)
    gic20, gic30 = rep20[0], rep30[0]
    hw20 = gic20.p_e_ci[1] - gic20.p_e
    hw30 = gic30.p_e_ci[1] - gic30.p_e
    gic_flat = abs(gic20.p_e - gic30.p_e) < 0.01
    gic_positive = gic20.p_e > 5 * hw20 and gic30.p_e > 5 * hw30
    pmep_vanish = rep30[1].p_e < 1e-3 and rep30[2].p_e < 1e-3
    _, lam = sc.residual_means(scen, scen.all_frequencies)
    ranges = sc.consistency_range(lam[:scen.nu0], scen.max_order, scen.nu0)
    admissible = ranges.contains_ir(0.25) and ranges.contains_i(3.0)
    elapsed = time.time() - start
    verdict(7, "fixed-penalty floor vs vanishing adaptive-penalty error",
            gic_flat and gic_positive and pmep_vanish and admissible,
            f"gic p_e {gic20.p_e:.4f}/{gic30.p_e:.4f}, pmep-ir "
            f"{rep30[1].p_e:.1e}, pmep-i {rep30[2].p_e:.1e}, admissible "
            f"kappas {admissible}, {elapsed:.0f}s")


def test_criterion_08_frequency_error_destroys_consistency(scen):
    start = time.time()
    approach = sc.Bl(delta_omega=0.0025)
    reports = []
    for snr in (0.0, 10.0, 20.0, 30.0):
        reports.append(sc.estimate(sc.with_snr_db(scen, snr), [sc.Gic()],
                                   approach, MC_TRIALS, master_seed=109)[0])
    p_vals = [r.p_e for r in reports]
    high = p_vals[-1] > 0.9
    increasing = all(
        reports[k + 1].p_e_ci[0] > reports[k].p_e_ci[1] for k in range(3))
    elapsed = time.time() - start
    verdict(8, "fixed frequency error drives the error probability up in SNR",
            high and increasing,
            "p_e " + " -> ".join(f"{p:.4f}" for p in p_vals) +
            f", {elapsed:.0f}s")


def test_criterion_09_tuning_reproduction(scen):
    start = time.time()
    ir_opt = sc.tune("pmep-ir", scen, search_range=(0.05, 0.6),
                     grid_points=12)
    i_opt = sc.tune("pmep-i", scen, search_range=(1.5, 5.0), grid_points=8)
    in_intervals = (0.15 <= ir_opt.kappa_opt <= 0.35
                    and 2.0 <= i_opt.kappa_opt <= 4.0)
    agree = True
    details = []
    for family, lo, hi in (("pmep-ir", 0.15, 0.35), ("pmep-i", 2.0, 4.0)):
        step = (hi - lo) / 8
        theory = sc.tune(family, scen, search_range=(lo, hi), grid_points=9,
                         refine=False)
        mc = sc.tune(family, scen, objective="monte_carlo",
                     search_range=(lo, hi), grid_points=9, refine=False,
                     trials=1000000, master_seed=110)
        gap = abs(theory.kappa_opt - mc.kappa_opt)
        agree &= gap <= step + 1e-12
        details.append(f"{family} theory {theory.kappa_opt:.4g} vs mc "
                       f"{mc.kappa_opt:.4g} (step {step:.4g})")
    elapsed = time.time() - start
    verdict(9, "tuned penalties land in the reported ranges, objectives agree",
            in_intervals and agree and ir_opt.consistency_ok
            and i_opt.consistency_ok,
            f"kappa_ir {ir_opt.kappa_opt:.4f}, kappa_i {i_opt.kappa_opt:.3f}; "
            + "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_10_bl_intervals():
    start = time.time()
    scen0 = sc.standard_scenario(0.0)
    grid = [0.0, 0.001, 0.002, 0.003, 0.004, 0.006, 0.008, 0.012, 0.016,
            0.02, 0.025, 0.03]
    all_specs = [sc.Gic(), sc.Eef(), sc.PmepIr(0.25), sc.PmepI(3.0)]
    ml_reports = sc.estimate(scen0, all_specs, sc.Ml(), 4000, master_seed=111)
    ok = True
    details = []
    for spec, ml_rep in zip(all_specs, ml_reports):
        sweep = sc.ql_sweep(scen0, spec, grid, trials=30000, master_seed=112)
        interval = sc.bl_interval(sweep, ml_rep.p_e)
        positive = interval.width > 0.0
        crossing = not interval.saturated
        if sweep.mode == "theory":
            # degradation at the scale of the intervals themselves: the
            # PMEP curves dip by a few 1e-5 below 0.004 (confirmed against
            # 1e6-trial simulation), then climb steeply
            monotone = (sweep.p_a[0] <= sweep.p_a[5] + 1e-12
                        and bool(np.all(np.diff(sweep.p_a[4:9]) >= -1e-12)))
        else:
            # Monte Carlo sweep: compare offsets far enough apart to clear
            # the simulation noise
            monotone = sweep.p_a[0] < sweep.p_a[7] < sweep.p_a[11]
        ok &= positive and crossing and monotone
        details.append(f"{spec.name} width {interval.width:.3f} "
                       f"(ml ref {ml_rep.p_e:.4f})")
    elapsed = time.time() - start
    verdict(10, "blind-frequency design beats ML search on a real interval",
            ok, "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_11_distribution_kernels(scen):
    start = time.time()
    xs = np.linspace(0.0, 40.0, 401)
    central = sc.nc_chisq2(0.0)
    cdf_dev = float(np.max(np.abs(
        np.array([central.cdf(x) for x in xs]) - (1 - np.exp(-xs / 2)))))
    four_dof = sc.convolve_cdfs(sc.nc_chisq2(0.0), sc.nc_chisq2(0.0))
    conv_dev = float(np.max(np.abs(
        np.array([four_dof.cdf(x) for x in xs])
        - (1 - np.exp(-xs / 2) * (1 + xs / 2)))))
    kernels_ok = cdf_dev < 1e-12 and conv_dev < 1e-6

    draws = 1000000
    dists = sc.component_dists(scen)
    rng = np.random.default_rng(113)
    v = sample_increments(dists, rng, draws)
    logliks = 0.5 * np.cumsum(v, axis=1)
    oracle_ok = True
    details = [f"cdf dev {cdf_dev:.1e}", f"conv dev {conv_dev:.1e}"]
    for spec in SPECS:
        vals = sc.decision_values(spec, logliks, params_per_signal=2)
        nu0 = dists.nu0
        bad = (vals[:, nu0 - 1] >= vals[:, nu0 - 2]) | (
            vals[:, nu0 - 1] > vals[:, nu0])
        rate = float(bad.mean())
        theory = sc.abridged_for(dists, spec).p_a
        se = math.sqrt(rate * (1 - rate) / draws)
        z = abs(theory - rate) / se
        oracle_ok &= z <= 3.0
        details.append(f"{spec.name} z={z:.2f}")
    elapsed = time.time() - start
    verdict(11, "closed-form kernels agree with sampling oracles",
            kernels_ok and oracle_ok, "; ".join(details) + f", {elapsed:.0f}s")
