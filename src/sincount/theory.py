"""Theoretical error analysis of the selection criteria.

Builds the per-index laws of the likelihood increments V_i (noncentral
chi-square under fixed frequencies, extreme-value convolutions under the
ML search), evaluates closed-form abridged error probabilities for the
GIC and PMEP families, derives consistency ranges for the PMEP tuning
parameters, and sweeps the abridged error over frequency offsets for
robustness analysis.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.linalg import solve_triangular

from .criteria import Aic, Eef, Gic, PmepI, PmepIr
from .distributions import (convolve_cdfs, integrate_semiinfinite,
                            ml_component_cdf, nc_chisq2, nc_chisq2_sum)
from .errors import ModelViolationError, QuadratureError, ValidationError
from .likelihood import FrequencyPlan
from .signal_model import (clean_signal, max_offdiag_ratio, modulated_pair,
                           signal_gram, time_grid)

_LAMBDA_FLOOR = 1e-12
_ORTHOGONALITY_TOL = 0.05
_PA_ERROR_TOL = 1e-6


@dataclass(frozen=True)
class ComponentDistSet:
    """Laws of the increments V_1..V_N under a fixed true order.

    The joint law is treated as the product of the marginals (the
    orthonormalized residuals are independent), which every abridged
    formula below relies on.
    """

    dists: tuple
    lambdas: np.ndarray | None
    mode: str
    nu0: int

    @property
    def n(self):
        return len(self.dists)

    def sample_increments(self, rng, size):
        """Independent draws of (V_1..V_N), shape (size, N)."""
        return np.column_stack([d.sample(rng, size) for d in self.dists])


@dataclass(frozen=True)
class AbridgedReport:
    """Abridged error probability with its integration error estimate and
    the number of integrand points the quadrature evaluated (0 for the
    closed-form GIC rule)."""

    p_a: float
    criterion: str
    mode: str
    error: float
    evaluations: int = 0


def residual_means(scenario, eval_frequencies):
    """Expected residual statistics E(l) and noncentralities at the given
    evaluation frequencies.

    E(l) is the forward Cholesky solve of the clean-signal projections,
    scaled by the noise level; lambda_i = E(l at sine)^2 + E(l at cosine)^2.
    At the true frequencies every lambda_i with i > nu0 vanishes; offsets
    leak signal energy into the higher indices.  With unknown noise the
    Monte Carlo statistic is not whitened, so it follows these laws only at
    noise level 1; other levels are rejected.
    """
    if scenario.noise_level <= 0:
        raise ValidationError("residual means need a positive noise level")
    if not scenario.noise_known and scenario.noise_level != 1.0:
        raise ValidationError(
            "the theory needs a known noise level (or noise_level 1); "
            f"got noise_known=False with noise_level {scenario.noise_level}")
    plan = FrequencyPlan.build(scenario, eval_frequencies)
    s0 = clean_signal(scenario)
    means = solve_triangular(plan.chol, plan.basis.T @ s0, lower=True)
    means = means / scenario.noise_level
    lambdas = means[0::2] ** 2 + means[1::2] ** 2
    return means, lambdas


def component_dists(scenario, mode="ql", frequencies=None,
                    orthogonality_tol=_ORTHOGONALITY_TOL):
    """Per-index increment laws for the QL (fixed-frequency) or ML approach.

    QL: V_i is noncentral chi-square with 2 dof and noncentrality from
    residual_means at the supplied frequencies.  ML: V_i is the sum of two
    squared max-over-band statistics, each with the extreme-value closed
    form; requires the signals to be orthogonal to tolerance.
    """
    if mode == "ql":
        if frequencies is None:
            frequencies = scenario.all_frequencies
        _, lambdas = residual_means(scenario, frequencies)
        lambdas = np.where(lambdas < _LAMBDA_FLOOR, 0.0, lambdas)
        dists = tuple(nc_chisq2(lam) for lam in lambdas)
        return ComponentDistSet(dists=dists, lambdas=lambdas, mode="ql",
                                nu0=scenario.nu0)
    if mode != "ml":
        raise ValidationError(f"unknown mode {mode!r}")
    gram = signal_gram(scenario.components, scenario.n_samples)
    ratio = max_offdiag_ratio(gram)
    if ratio > orthogonality_tol:
        raise ModelViolationError(
            f"signals are not orthogonal to tolerance: max cross-energy ratio "
            f"{ratio:.3g} > {orthogonality_tol:g}")
    means, _ = residual_means(scenario, scenario.all_frequencies)
    n_samples = scenario.n_samples
    t = time_grid(n_samples)
    dists = []
    for i, slot in enumerate(scenario.candidate_slots()):
        signal_present = i < scenario.nu0
        phase = scenario.components[i].phase if signal_present else 0.0
        wave, _ = modulated_pair(slot, slot.frequency, n_samples, phase)
        energy = float(np.sum(wave**2))
        # effective band-search sizes: xi = band width *
        # sqrt(sum_t [t f(t) trig(w t + Psi(t))]^2 / E), where the cosine
        # component's xi takes the sine integrand and vice versa
        c, s = modulated_pair(slot, slot.frequency, n_samples)
        width = slot.band[1] - slot.band[0]
        xi_c = width * math.sqrt(float(np.sum((t * s) ** 2)) / energy)
        xi_s = width * math.sqrt(float(np.sum((t * c) ** 2)) / energy)
        if signal_present:
            d_s_sq = 1.0 + means[2 * i] ** 2
            d_c_sq = 1.0 + means[2 * i + 1] ** 2
        else:
            d_s_sq = d_c_sq = None
        part_c = ml_component_cdf(d_c_sq, xi_c, signal_present)
        part_s = ml_component_cdf(d_s_sq, xi_s, signal_present)
        dists.append(convolve_cdfs(part_c, part_s))
    return ComponentDistSet(dists=tuple(dists), lambdas=None, mode="ml",
                            nu0=scenario.nu0)


def _check_nu0(dist_set, nu0):
    nu0 = dist_set.nu0 if nu0 is None else int(nu0)
    if not 1 <= nu0 <= dist_set.n:
        raise ValidationError(f"nu0 {nu0} outside 1..{dist_set.n}")
    return nu0


def abridged_gic(dist_set, threshold, nu0=None):
    """Abridged error of a fixed-threshold (GIC-family) rule.

    Interior orders: p_a = 1 - F_up(T) + F_up(T) F_lo(T) with T = 2*upsilon*kappa,
    F_lo/F_up the laws of V_nu0 and V_nu0+1.  At the boundary orders the
    missing neighbor comparison drops out.
    """
    nu0 = _check_nu0(dist_set, nu0)
    if threshold < 0:
        raise ValidationError(f"threshold must be >= 0, got {threshold}")
    t_arr = np.array([float(threshold)])
    f_lo = float(dist_set.dists[nu0 - 1].cdf(t_arr)[0])
    if nu0 == dist_set.n:
        p_a = f_lo
    else:
        f_up = float(dist_set.dists[nu0].cdf(t_arr)[0])
        p_a = 1.0 - f_up if nu0 == 1 else 1.0 - f_up + f_up * f_lo
    return AbridgedReport(p_a=min(max(p_a, 0.0), 1.0), criterion="gic",
                          mode=dist_set.mode, error=0.0)


def _cdf_product(dists, indices):
    def in_scale(x):
        out = np.ones_like(np.asarray(x, dtype=float))
        for i in indices:
            out = out * dists[i].cdf(x)
        return out

    return in_scale


def abridged_pmep_ir(dist_set, kappa_ir, nu0=None):
    """Abridged error of the invariant-random-penalty rule.

    The correct-selection event is {V_nu0 > kappa * max_i V_i >= V_nu0+1};
    conditioning on the argmax position gives two semi-infinite integrals
    over the laws of V_nu0 and V_nu0+1 with the product CDF of the others.
    """
    nu0 = _check_nu0(dist_set, nu0)
    if not 0 < kappa_ir <= 1:
        raise ValidationError(f"kappa_ir must be in (0, 1], got {kappa_ir}")
    dists = dist_set.dists
    kap = float(kappa_ir)
    hint = max(d.support_hint for d in dists) / min(kap, 1.0)
    tol = 1e-9

    if nu0 == dist_set.n:
        others = _cdf_product(dists, [i for i in range(dist_set.n) if i != nu0 - 1])
        w_lo = dists[nu0 - 1].pdf

        def integrand(x):
            return w_lo(x) * others(x / kap)

        quads = [integrate_semiinfinite(integrand, tol=tol, support_hint=hint,
                                        return_error=True)]
        p_a = 1.0 - quads[0].value
    elif nu0 == 1:
        others = _cdf_product(dists, [i for i in range(dist_set.n) if i != nu0])
        w_up = dists[nu0].pdf

        def integrand(y):
            return w_up(y) * others(y / kap)

        quads = [integrate_semiinfinite(integrand, tol=tol, support_hint=hint,
                                        return_error=True)]
        p_a = quads[0].value
    else:
        rest = [i for i in range(dist_set.n) if i not in (nu0 - 1, nu0)]
        f_max = _cdf_product(dists, rest)
        w_lo, f_lo = dists[nu0 - 1].pdf, dists[nu0 - 1].cdf
        w_up, f_up = dists[nu0].pdf, dists[nu0].cdf

        def integrand1(x):
            return w_lo(x) * f_max(x / kap) * f_up(x)

        def integrand2(x):
            return w_up(x) * f_max(x / kap) * (f_lo(x / kap) - f_lo(x))

        quads = [integrate_semiinfinite(f, tol=tol, support_hint=hint,
                                        return_error=True)
                 for f in (integrand1, integrand2)]
        p_a = 1.0 - quads[0].value + quads[1].value
    return AbridgedReport(p_a=min(max(p_a, 0.0), 1.0), criterion="pmep-ir",
                          mode=dist_set.mode, error=sum(q.error for q in quads),
                          evaluations=sum(q.evaluations for q in quads))


def _lower_sum_dist(dist_set, nu0):
    """Law of V_1 + ... + V_nu0-1."""
    if dist_set.mode == "ql":
        return nc_chisq2_sum(nu0 - 1, float(np.sum(dist_set.lambdas[:nu0 - 1])))
    return reduce(convolve_cdfs, dist_set.dists[:nu0 - 1])


def _pmep_i_interior(w_up, w_lo, f_sum, a_coef, b_coef, t_up, t_lo):
    """Correct-selection probability of the inverse-penalty rule, interior case.

    Integrates W_up(y) W_lo(x) [F_sum(x/A) - F_sum(y/B - x)] over the region
    x > y A / (B (A + 1)) (where the two F_sum arguments cross), by tensor
    Gauss-Legendre with mesh-refinement error control.  Returns the value,
    its error estimate and the number of tensor nodes evaluated.
    """

    def run(n_nodes):
        yn, yw = np.polynomial.legendre.leggauss(n_nodes)
        y = 0.5 * t_up * (yn + 1.0)
        wy = 0.5 * t_up * yw
        xlo = y * a_coef / (b_coef * (a_coef + 1.0))
        span = np.maximum(t_lo - xlo, 0.0)
        xn, xw = np.polynomial.legendre.leggauss(n_nodes)
        xs = xlo[:, None] + 0.5 * span[:, None] * (xn[None, :] + 1.0)
        wx = 0.5 * span[:, None] * xw[None, :]
        bracket = f_sum(xs / a_coef) - f_sum(y[:, None] / b_coef - xs)
        vals = w_up(y)[:, None] * w_lo(xs) * np.maximum(bracket, 0.0)
        return float(np.sum(vals * wx * wy[:, None]))

    n = 192
    coarse = run(n)
    evaluations = n * n
    for _ in range(3):
        fine = run(int(n * 1.5))
        evaluations += int(n * 1.5) ** 2
        err = abs(fine - coarse)
        if err < 0.5 * _PA_ERROR_TOL:
            return fine, err, evaluations
        coarse, n = fine, int(n * 1.5)
    raise QuadratureError(
        "inverse-penalty double integral did not converge",
        estimate=fine, achieved_error=err)


def abridged_pmep_i(dist_set, kappa_i, nu0=None):
    """Abridged error of the inverse-penalty rule.

    With A = (nu0/(nu0-1))^(1/kappa) - 1 and B = ((nu0+1)/nu0)^(1/kappa) - 1,
    correct selection is {V_nu0+1/B - V_nu0 <= S < V_nu0/A} for the lower
    partial sum S; boundary orders reduce to single comparisons.
    """
    nu0 = _check_nu0(dist_set, nu0)
    if not kappa_i > 0:
        raise ValidationError(f"kappa_i must be positive, got {kappa_i}")
    dists = dist_set.dists
    kap = float(kappa_i)
    tol = 1e-9
    if nu0 == 1:
        b_coef = 2.0 ** (1.0 / kap) - 1.0
        w_lo = dists[0].pdf
        f_up = dists[1].cdf

        def integrand(x):
            return w_lo(x) * f_up(b_coef * x)

        quad = integrate_semiinfinite(integrand, tol=tol,
                                      support_hint=dists[0].support_hint,
                                      return_error=True)
        return AbridgedReport(p_a=min(max(1.0 - quad.value, 0.0), 1.0),
                              criterion="pmep-i", mode=dist_set.mode,
                              error=quad.error, evaluations=quad.evaluations)
    a_coef = (nu0 / (nu0 - 1.0)) ** (1.0 / kap) - 1.0
    f_sum = _lower_sum_dist(dist_set, nu0)
    w_lo = dists[nu0 - 1].pdf
    if nu0 == dist_set.n:

        def integrand(x):
            return w_lo(x) * f_sum.cdf(x / a_coef)

        quad = integrate_semiinfinite(
            integrand, tol=tol,
            support_hint=max(dists[nu0 - 1].support_hint,
                             f_sum.support_hint * a_coef),
            return_error=True)
        return AbridgedReport(p_a=min(max(1.0 - quad.value, 0.0), 1.0),
                              criterion="pmep-i", mode=dist_set.mode,
                              error=quad.error, evaluations=quad.evaluations)
    b_coef = ((nu0 + 1.0) / nu0) ** (1.0 / kap) - 1.0
    t_up = dists[nu0].support_hint
    t_lo = dists[nu0 - 1].support_hint + f_sum.support_hint * a_coef
    val, err, evaluations = _pmep_i_interior(dists[nu0].pdf, w_lo, f_sum.cdf,
                                             a_coef, b_coef, t_up, t_lo)
    return AbridgedReport(p_a=min(max(1.0 - val, 0.0), 1.0),
                          criterion="pmep-i", mode=dist_set.mode,
                          error=float(err), evaluations=evaluations)


def abridged_for(dist_set, spec, params_per_signal=2, nu0=None):
    """Dispatch to the criterion's abridged formula.

    EEF has no closed form (only the Monte Carlo estimate applies).
    """
    if isinstance(spec, (Gic, Aic)):
        report = abridged_gic(dist_set, spec.threshold(params_per_signal), nu0=nu0)
        return dataclasses.replace(report, criterion=spec.name)
    if isinstance(spec, PmepIr):
        return abridged_pmep_ir(dist_set, spec.kappa_ir, nu0=nu0)
    if isinstance(spec, PmepI):
        return abridged_pmep_i(dist_set, spec.kappa_i, nu0=nu0)
    raise ValidationError(
        f"no abridged formula for criterion {getattr(spec, 'name', spec)!r}")


@dataclass(frozen=True)
class ConsistencyRange:
    """Admissible tuning-parameter ranges for SNR-consistency.

    Exact ranges come from the per-k inequalities on the normalized
    noncentralities; simplified ranges use only rho = d_min^2/d_max^2 and
    are sufficient but stricter (a subset of the exact ranges).
    """

    nu0: int
    n_total: int
    rho: float
    kappa_ir_sup_exact: float
    kappa_ir_sup_simple: float
    kappa_i_inf_exact: float
    kappa_i_inf_simple: float

    def contains_ir(self, kappa_ir, simplified=False):
        sup = self.kappa_ir_sup_simple if simplified else self.kappa_ir_sup_exact
        return 0.0 < kappa_ir < sup

    def contains_i(self, kappa_i, simplified=False):
        inf = self.kappa_i_inf_simple if simplified else self.kappa_i_inf_exact
        return kappa_i > inf


def consistency_range(d_n_sq, n_total, nu0):
    """Tuning ranges that make the PMEP rules SNR-consistent.

    d_n_sq holds the normalized noncentralities of the true signals
    (i <= nu0); indices above nu0 contribute zero at the true frequencies.
    """
    d_n_sq = np.asarray(d_n_sq, dtype=float)
    if d_n_sq.shape != (nu0,):
        raise ValidationError(f"expected {nu0} noncentralities, got {d_n_sq.shape}")
    if np.any(d_n_sq <= 0):
        raise ValidationError("normalized noncentralities must be positive")
    if not 1 <= nu0 <= n_total:
        raise ValidationError(f"nu0 {nu0} outside 1..{n_total}")
    rho = float(d_n_sq.min() / d_n_sq.max())
    d_max = float(d_n_sq.max())
    ir_sup = math.inf
    i_inf = 0.0
    for k in range(1, nu0):
        tail = float(np.sum(d_n_sq[nu0 - k:]))
        head = float(np.sum(d_n_sq[:nu0 - k]))
        ir_sup = min(ir_sup, tail / (k * d_max))
        i_inf = max(i_inf, math.log(nu0 / (nu0 - k)) / math.log1p(tail / head))
    return ConsistencyRange(
        nu0=nu0,
        n_total=n_total,
        rho=rho,
        kappa_ir_sup_exact=ir_sup,
        kappa_ir_sup_simple=rho,
        kappa_i_inf_exact=i_inf,
        kappa_i_inf_simple=math.log(n_total) / math.log1p(rho / n_total),
    )


@dataclass(frozen=True)
class FrequencyErrorSweep:
    """Abridged error as a function of a common frequency offset."""

    deltas: np.ndarray
    p_a: np.ndarray
    errors: np.ndarray
    criterion: str
    mode: str
    p_aq: float
    p_waa: float | None

    def __post_init__(self):
        for name in ("deltas", "p_a", "errors"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def ql_sweep(scenario, spec, delta_grid, loss=None, error_probs=None,
             params_per_signal=2, trials=20000, master_seed=1):
    """Abridged error probability across a grid of frequency offsets.

    Each grid point offsets every candidate frequency by delta and
    evaluates the criterion's abridged formula on the resulting increment
    laws.  EEF has no closed form, so its sweep falls back to seeded
    Monte Carlo with the same offsets.  p_aq aggregates the curve through
    the loss function; given per-offset probabilities, p_waa weights them in.
    """
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.size == 0:
        raise ValidationError("delta grid must be nonempty")
    use_mc = isinstance(spec, Eef)
    p_vals = np.zeros(deltas.size)
    errs = np.zeros(deltas.size)
    if use_mc:
        from . import montecarlo
        from .likelihood import Bl

        for j, delta in enumerate(deltas):
            report = montecarlo.estimate(scenario, [spec],
                                         Bl(delta_omega=float(delta)),
                                         trials, master_seed)[0]
            p_vals[j] = report.p_a
            errs[j] = report.p_a_ci[1] - report.p_a
    else:
        for j, delta in enumerate(deltas):
            freqs = scenario.all_frequencies + float(delta)
            dists = component_dists(scenario, mode="ql", frequencies=freqs)
            report = abridged_for(dists, spec,
                                  params_per_signal=params_per_signal)
            p_vals[j] = report.p_a
            errs[j] = report.error
    weights = np.ones(deltas.size) if loss is None else np.array(
        [float(loss(d)) for d in deltas])
    p_aq = float(np.sum(p_vals * weights))
    p_waa = None
    if error_probs is not None:
        probs = np.asarray(error_probs, dtype=float)
        if probs.shape != deltas.shape:
            raise ValidationError("error_probs length does not match grid")
        p_waa = float(np.sum(probs * p_vals * weights))
    return FrequencyErrorSweep(
        deltas=deltas, p_a=p_vals, errors=errs,
        criterion=getattr(spec, "name", str(spec)),
        mode="mc" if use_mc else "theory",
        p_aq=p_aq, p_waa=p_waa)


@dataclass(frozen=True)
class BlInterval:
    """Largest frequency offset with abridged error at or below a reference."""

    width: float
    saturated: bool
    reference: float


def bl_interval(sweep, ml_reference_pe):
    """Width of the offset interval on which the blind design beats the
    reference error level (typically the ML-approach error probability).

    Scans the sweep grid upward from zero; the interval ends at the last
    grid point before the curve first exceeds the reference.  A sweep
    that never exceeds it returns the grid maximum flagged saturated.
    """
    order = np.argsort(sweep.deltas)
    deltas = sweep.deltas[order]
    p_vals = sweep.p_a[order]
    if deltas[0] < 0:
        raise ValidationError("sweep must cover nonnegative offsets only")
    if deltas[0] > 0:
        raise ValidationError("sweep must include delta = 0")
    ref = float(ml_reference_pe)
    width = 0.0
    for delta, p in zip(deltas, p_vals):
        if p > ref:
            return BlInterval(width=width, saturated=False, reference=ref)
        width = float(delta)
    return BlInterval(width=width, saturated=True, reference=ref)
