"""Oracles that the closed-form increment laws, their convolution, abridged
errors (among them PMEP-IR's interior event as two integrals), the ML
search's refinement, the Monte Carlo estimate and tune's Monte Carlo
objective are checked against, and the amplitude/phase MLE of a frequency
plan, which only tests use, the traced peak memory of a call and a ladder
injector for the trial loop."""

import dataclasses
import math
import tracemalloc

import numpy as np
from scipy.linalg import cho_solve

import sincount as sc
from sincount import distributions, montecarlo, theory, tuner
from sincount.criteria import abridged_comparisons, checked_ladders

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def traced_peak_mb(f, *args):
    """Peak memory, in MB, that tracemalloc traces while f(*args) runs."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def sample_increments(dist_set, rng, size):
    """Independent draws of the QL increments (V_1..V_N), shape (size, N).

    Column i is a chi-square with 2 dof, central where lambda_i = 0 and
    otherwise with noncentrality lambda_i; the columns are drawn in order.
    """
    return np.column_stack([
        rng.chisquare(2, size) if lam == 0 else rng.noncentral_chisquare(2, lam, size)
        for lam in dist_set.lambdas])


def _panel_rule(n_nodes, n_panels):
    """Gauss-Legendre nodes and weights on [0, 1] split into equal panels."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    starts = np.arange(n_panels)[:, None] / n_panels
    return ((starts + 0.5 * (nodes + 1.0) / n_panels).ravel(),
            np.tile(0.5 * weights / n_panels, n_panels))


def pmep_i_interior_oracle(dist_set, kappa_i, n_nodes=64, n_panels=8):
    """Abridged PMEP-I error of an interior true order (1 < nu0 < N) of QL laws,
    with the double integral taken in the other order: x = V_nu0 outermost.

    Correct selection is {y/B - x <= S < x/A} with y = V_nu0+1 and S the lower
    partial sum; for given x it needs y < x/r, r = A / (B (A + 1)), and below
    y = B x the lower bound on S is void.  So
    P = int W_lo(x) [F_S(x/A) F_up(x/r) - int_{Bx}^{x/r} W_up(y) F_S(y/B - x) dy] dx,
    with both integrals on n_panels equal panels of n_nodes Gauss nodes over
    the laws' windows.
    """
    nu0 = dist_set.nu0
    kap = float(kappa_i)
    a_coef = (nu0 / (nu0 - 1.0)) ** (1.0 / kap) - 1.0
    b_coef = ((nu0 + 1.0) / nu0) ** (1.0 / kap) - 1.0
    x_over_r = b_coef * (a_coef + 1.0) / a_coef
    lo, up = dist_set.dists[nu0 - 1], dist_set.dists[nu0]
    f_sum = sc.nc_chisq2_sum(nu0 - 1, float(np.sum(dist_set.lambdas[:nu0 - 1]))).cdf
    nodes, weights = _panel_rule(n_nodes, n_panels)
    xs = lo.support_lo + (lo.support_hint - lo.support_lo) * nodes
    y_lo = np.maximum(b_coef * xs, up.support_lo)
    y_span = np.maximum(np.minimum(x_over_r * xs, up.support_hint) - y_lo, 0.0)
    inner = np.zeros(xs.size)
    live = y_span > 0
    ys = y_lo[live, None] + y_span[live, None] * nodes
    inner[live] = y_span[live] * np.sum(
        up.pdf(ys) * f_sum(ys / b_coef - xs[live, None]) * weights, axis=1)
    outer = f_sum(xs / a_coef) * up.cdf(x_over_r * xs) - inner
    return 1.0 - (lo.support_hint - lo.support_lo) * float(np.sum(weights * lo.pdf(xs) * outer))


def pmep_ir_two_integrals(dist_set, kappa_ir):
    """theory.abridged_pmep_ir's interior case (1 < nu0 < N) as two
    integrals, each over the window of the law whose pdf it carries:
    p_a = 1 - int W_lo M F_up dx + int W_up M (F_lo(x/kappa) - F_lo(x)) dx,
    M(x) = prod_{i != nu0, nu0+1} F_i(x/kappa), with the two quadratures'
    errors and integrand points summed."""
    nu0, dists, kap = dist_set.nu0, dist_set.dists, float(kappa_ir)
    f_max = theory._cdf_product(dists, [i for i in range(dist_set.n) if i not in (nu0 - 1, nu0)],
                                kap)
    lo, up = dists[nu0 - 1], dists[nu0]
    quads = [theory._expect(lo, f_max, up.cdf),
             theory._expect(up, f_max, lambda x: lo.cdf(theory._over_kappa(x, kap)) - lo.cdf(x))]
    return theory.AbridgedReport(
        p_a=min(max(1.0 - quads[0].value + quads[1].value, 0.0), 1.0), criterion="pmep-ir",
        mode=dist_set.mode, error=quads[0].error + quads[1].error,
        evaluations=quads[0].evaluations + quads[1].evaluations)


def ncx2_window_per_law(m, lam):
    """distributions._ncx2_window's (lo, hi, top) for one noncentrality lam,
    walked one point at a time as each law walked its own window before
    the array walk: the cdf at the mean, lo's walk, hi's walk on the
    clamped cdf, then top's on the raw kernel from hi."""
    def cdf_at(x):
        value = distributions._ncx2_cdf(np.array([x]), m, lam)[0]
        if not math.isfinite(value):
            raise ValueError(f"noncentrality {lam} is past the range of the ncx2 kernel")
        return value

    mean = 2 * m + lam
    cdf_at(mean)
    spread = 12.0 * math.sqrt(2.0 * (2 * m + 2.0 * lam)) + 20.0
    lo = max(mean - spread, 0.0)
    while lo > 0.0 and cdf_at(lo) >= 1e-12:
        lo = max(mean - 1.5 * (mean - lo), 0.0)
    hi = mean + spread
    while cdf_at(hi) < 1.0 - 1e-12:
        hi *= 1.5

    def kernel_at(x):
        return distributions._ncx2_kernel(np.array([x]), m, np.array([lam]))[0]

    top = hi
    raw = kernel_at(top)
    while raw < 1.0 - 1e-14 and top < math.inf:
        top *= 1.5
        raw = kernel_at(top)
    return lo, hi, top if math.isfinite(raw) else math.inf


def nc_chisq2_sum_uncut(n_terms, lam):
    """distributions.nc_chisq2_sum with the cdf of the uncut kernel: every
    point x > 0 goes to _ncx2_cdf's kernel, none is written 1.0 from the
    window's top.  lam is a number or, for a stacked law, an array."""
    law = distributions.nc_chisq2_sum(n_terms, lam)
    m = int(n_terms)
    lam = float(lam) if np.ndim(lam) == 0 else np.asarray(lam, dtype=float)[:, None]
    return dataclasses.replace(law, cdf=lambda x: distributions._ncx2_cdf(x, m, lam))


def use_uncut_laws(monkeypatch):
    """Make theory build every noncentral chi-square law with the uncut
    kernel: the QL laws of component_dists, and so of ql_sweep and tune, and
    PMEP-I's law of the lower partial sum."""
    monkeypatch.setattr(theory, "_ncx2_laws",
                        lambda m, lams: tuple(nc_chisq2_sum_uncut(m, lam) for lam in lams))
    monkeypatch.setattr(theory, "nc_chisq2_sum", nc_chisq2_sum_uncut)


def convolve_cdfs_dense(a, b, n_intervals=4096, n_panels=2):
    """A convolution of laws as distributions.convolve_cdfs formed it before
    its discrete convolution: n_intervals + 1 knots over [a.support_lo +
    b.support_lo, a.support_hint + b.support_hint], each knot's integral
    over y in [b.support_lo, min(x - a.support_lo, b.support_hint)] on
    n_panels equal panels of 32 Gauss nodes, with b.pdf on every knot's
    nodes and the differences x - y formed for a.cdf and again for a.pdf,
    and the knot values interpolated by the same monotone cubic.  The
    defaults are that earlier rule; at 16384 intervals and 8 panels it is
    the converged reference of the accuracy tests.  The knots go 256 at a
    time, so that no temporary outgrows a block."""
    if b.atom0 >= 1.0 - 1e-12 or b.support_hint <= 1e-12:
        return a
    if a.atom0 >= 1.0 - 1e-12 or a.support_hint <= 1e-12:
        return b
    lo = a.support_lo + b.support_lo
    hi = a.support_hint + b.support_hint
    xs = np.linspace(lo, hi, n_intervals + 1)
    y_lo = b.support_lo
    y_span = np.clip(xs - a.support_lo, y_lo, b.support_hint) - y_lo
    nodes, weights = _panel_rule(32, n_panels)
    cdf_sums, pdf_sums = np.empty(xs.size), np.empty(xs.size)
    for start in range(0, xs.size, 256):
        rows = slice(start, start + 256)
        ys = y_lo + y_span[rows, None] * nodes[None, :]
        wts = y_span[rows, None] * weights[None, :]
        bp = b.pdf(ys)
        cdf_sums[rows] = np.sum(a.cdf(xs[rows, None] - ys) * bp * wts, axis=1)
        pdf_sums[rows] = np.sum(a.pdf(xs[rows, None] - ys) * bp * wts, axis=1)
    cdf_vals = b.atom0 * a.cdf(xs) + cdf_sums
    pdf_vals = b.atom0 * a.pdf(xs) + a.atom0 * b.pdf(xs) + pdf_sums
    cdf_vals = np.minimum(np.maximum.accumulate(np.clip(cdf_vals, 0.0, 1.0)), 1.0)
    atom = a.atom0 * b.atom0
    cdf_vals[0] = atom
    cdf_interp = distributions._monotone_cubic(xs, cdf_vals)
    pdf_interp = distributions._monotone_cubic(xs, np.maximum(pdf_vals, 0.0))
    top = float(cdf_vals[-1])

    def cdf(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        below = x < lo
        above = x > hi
        mid = ~(below | above)
        out[below] = 0.0
        out[above] = max(top, 1.0 - 1e-15)
        out[mid] = cdf_interp(x[mid])
        return out

    def pdf(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        mid = (x >= lo) & (x <= hi)
        out[mid] = pdf_interp(x[mid])
        return out

    return sc.Dist(cdf=cdf, pdf=pdf, support_hint=hi, atom0=atom, support_lo=lo)


def amp_phase(plan, samples):
    """Quadrature-amplitude MLE Q = C^{-1} X of a likelihood.FrequencyPlan and
    per-signal (a, phi).

    samples is one observation row or a batch of rows; returns
    (q_hat, amplitudes, phases) with a leading trial axis for a batch and
    phases mapped to [0, 2*pi).
    """
    x = np.asarray(samples, dtype=float) @ plan.basis
    q_hat = cho_solve((plan.chol, True), x.T).T
    q_sin = q_hat[..., 0::2]
    q_cos = q_hat[..., 1::2]
    amps = np.hypot(q_sin, q_cos)
    phases = np.mod(np.arctan2(q_sin, q_cos), 2.0 * math.pi)
    return q_hat, amps, phases


def golden_refine(evaluate, grid, vals, refine_tol):
    """Golden-section maximization between each row's grid neighbours, with
    the arguments and result of likelihood.refine_maxima.

    The bracket [grid[j - 1], grid[j + 1]] around the grid maximum j keeps
    its best point; each step evaluates the point mirrored about the
    bracket's centre, one point per row, and cuts the bracket at the worse
    of the two.  The step count shrinks the widest bracket, two grid steps,
    to refine_tol and does not depend on the rows.  A row keeps its grid
    point when refinement does not reach its value; returns each row's
    (point, value).
    """
    rows = np.arange(len(vals))
    j = np.argmax(vals, axis=1)
    grid_w, grid_v = grid[j], vals[np.arange(j.size), j]
    lo, hi = grid[np.maximum(j - 1, 0)], grid[np.minimum(j + 1, grid.size - 1)]
    steps = max(0, math.ceil(math.log(refine_tol / (2.0 * (grid[1] - grid[0])))
                             / math.log(_INV_PHI)))
    best = lo + _INV_PHI * (hi - lo)
    f_best = evaluate(rows, best)
    for _ in range(steps + 1):
        other = lo + hi - best
        f_other = evaluate(rows, other)
        take = f_other >= f_best
        cut = np.where(take, best, other)
        # the cut ends the bracket above when the kept point lies below it
        upper = take == (other < best)
        lo, hi = np.where(upper, lo, cut), np.where(upper, cut, hi)
        best, f_best = np.where(take, other, best), np.where(take, f_other, f_best)
    refined = f_best >= grid_v
    return np.where(refined, best, grid_w), np.where(refined, f_best, grid_v)


def _decided_whole_set(scenario, approach, trials, master_seed):
    """Every trial's ladders collected, the degenerate trials' NaN rows left
    out and the rest checked once."""
    logliks = sc.collect_logliks(scenario, approach, trials, master_seed)
    logliks = logliks[~np.isnan(logliks[:, 0])]
    if not logliks.shape[0]:
        raise sc.ValidationError("all trials degenerated; scenario is ill-posed")
    return checked_ladders(logliks)


def estimate_whole_set(scenario, specs, approach, trials, master_seed):
    """montecarlo.estimate over the whole trial set at once: the decided
    ladders held, then each criterion applied to all of them."""
    trials = montecarlo.checked_trials(trials)
    logliks = _decided_whole_set(scenario, approach, trials, master_seed)
    degenerate, n_eff = trials - logliks.shape[0], logliks.shape[0]
    nu0, n_orders = scenario.nu0, scenario.max_order
    under, over = abridged_comparisons(nu0, n_orders)
    reports = []
    for spec in specs:
        values = spec.values(logliks, params_per_signal=approach.params_per_signal)
        nu_hat = sc.argmin_order(values)
        correct = nu_hat == nu0
        under_holds = values[:, nu0 - 1] < values[:, nu0 - 2] if under else True
        over_holds = values[:, nu0 - 1] <= values[:, nu0] if over else True
        abridged_correct = np.full(n_eff, True) & under_holds & over_holds
        p_e = 1.0 - float(np.mean(correct))
        p_a = 1.0 - float(np.mean(abridged_correct))
        counts = np.bincount(nu_hat, minlength=n_orders + 1)[1:]
        offsets = np.arange(1, n_orders + 1) - nu0
        n_eq1 = int(counts[np.abs(offsets) == 1].sum())
        n_gt1 = int(counts[np.abs(offsets) > 1].sum())
        reports.append(sc.McReport(
            criterion=spec, approach_label=approach.label, trials=n_eff,
            p_e=p_e, p_e_ci=montecarlo._wilson(p_e, n_eff),
            p_a=p_a, p_a_ci=montecarlo._wilson(p_a, n_eff),
            offsets=offsets, histogram=counts,
            ratio_gt1_eq1=n_gt1 / n_eq1 if n_eq1 > 0 else math.nan,
            master_seed=int(master_seed), degenerate=degenerate,
            degenerate_warning=degenerate > 0.01 * (n_eff + degenerate),
            scenario_key=sc.scenario_fingerprint(scenario),
            indicators=np.packbits(np.stack([correct, abridged_correct]), axis=1)))
    return reports


def mc_objective_whole_set(scenario, name, approach, trials, master_seed):
    """tuner._mc_objective over the whole trial set at once: the decided
    ladders held, then 1 - mean(argmin == nu0) for each kappa of the array."""
    logliks = _decided_whole_set(scenario, approach, trials, master_seed)
    criterion, pps = tuner._FAMILIES[name][0], approach.params_per_signal

    def p_e(kappa):
        values = criterion(float(kappa)).values(logliks, params_per_signal=pps)
        return 1.0 - float(np.mean(sc.argmin_order(values) == scenario.nu0))

    def objective(kappas):
        return np.array([p_e(k) for k in kappas])

    return objective


def inject_ladders(monkeypatch, ladders):
    """Make the trial loop's ladder function hand out the rows of ladders of
    the trials whose observations it is given: a block's rows are those of
    the trials that _fill_samples last filled, in whichever shard's process
    runs the block."""
    fill_samples, first = montecarlo._fill_samples, [0]

    def recorded_fill(draw, scenario, signal, master_seed, start, count):
        first[0] = start
        return fill_samples(draw, scenario, signal, master_seed, start, count)

    def ladder_function(scenario, approach):
        def block_ladders(rows):
            return ladders[first[0]:first[0] + rows.shape[0]].copy(), None, None

        return block_ladders

    monkeypatch.setattr(montecarlo, "_fill_samples", recorded_fill)
    monkeypatch.setattr(montecarlo, "ladder_function", ladder_function)
