"""Theoretical error analysis of the selection criteria.

Builds the per-index laws of the likelihood increments V_i (noncentral
chi-square under fixed frequencies, extreme-value convolutions under the
ML search), evaluates closed-form abridged error probabilities for the
GIC and PMEP families, derives consistency ranges for the PMEP tuning
parameters, and sweeps the abridged error over frequency offsets for
robustness analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import montecarlo
from .criteria import Eef, Gic, PmepI, PmepIr, abridged_comparisons
from .distributions import (Quadrature, _ncx2_laws, _panel_nodes, convolve_cdfs, integrate,
                            ml_component_cdf, nc_chisq2_sum)
from .errors import (ModelViolationError, ValidationError, finite_float, finite_floats,
                     nonneg_int)
from .likelihood import Bl, _check_in_band, _factored_bases, approach_frequencies
from .signal_model import (clean_signal, max_offdiag_ratio, modulated_pair,
                           signal_gram, time_grid)

_LAMBDA_FLOOR = 1e-12
_ORTHOGONALITY_TOL = 0.05
_QUAD_TOL = 1e-9


@dataclass(frozen=True)
class ComponentDistSet:
    """Laws of the increments V_1..V_N under a fixed true order.

    The joint law is treated as the product of the marginals (the
    orthonormalized residuals are independent), which every abridged
    formula below relies on.  A QL set built from M frequency sets at once
    (component_dists given an (M, N) array) holds M members: each law is a
    stacked law over the members (distributions.Dist) and lambdas is
    (M, N), one row per member.  Any other set has one member.
    """

    dists: tuple
    lambdas: np.ndarray | None
    mode: str
    nu0: int

    def __post_init__(self):
        if not 1 <= self.nu0 <= self.n:
            raise ValidationError(f"nu0 {self.nu0} outside 1..{self.n}")

    @property
    def n(self):
        return len(self.dists)

    @property
    def members(self):
        """M for a stack over M frequency sets, else 1."""
        return 1 if self.lambdas is None or self.lambdas.ndim == 1 else len(self.lambdas)


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
    evaluation frequencies, one per order slot.

    E(l) is the FrequencyPlan residual statistic of the clean signal, whitened
    and scaled as in the Monte Carlo; lambda_i = E(l at sine)^2 + E(l at cosine)^2.
    At the true frequencies every lambda_i with i > nu0 vanishes; offsets
    leak signal energy into the higher indices.
    """
    eval_frequencies = finite_floats(eval_frequencies, "frequencies", scenario.max_order)
    means, lambdas = _stacked_residual_means(scenario, eval_frequencies[None])
    return means[0], lambdas[0]


def _stacked_residual_means(scenario, frequency_sets):
    """residual_means of each row of an (M, N) array of frequency sets, as
    (M, 2N) means and (M, N) noncentralities: the sets' bases and factors
    from likelihood._factored_bases, as FrequencyPlan.build takes them, one
    solve for all M whitened bases and one product with the clean signal.
    Each row is FrequencyPlan.residuals_batch's statistic for its set alone,
    bit for bit."""
    bases, chols = _factored_bases(scenario, frequency_sets)
    whitened = np.linalg.solve(chols, bases.transpose(0, 2, 1))
    means = np.einsum("n,mkn->mk", clean_signal(scenario), whitened) / scenario.noise_level
    return means, means[:, 0::2] ** 2 + means[:, 1::2] ** 2


def component_dists(scenario, mode="ql", frequencies=None):
    """Per-index increment laws for the QL (fixed-frequency) or ML approach.

    QL: V_i is noncentral chi-square with 2 dof and noncentrality from
    residual_means at the supplied frequencies: one set of N, or an (M, N)
    array of M >= 2 sets, which gives one set of stacked laws over M
    members, each member's laws those of its own set bit for bit, with
    every set's bands and Cholesky factor checked before the first law.
    ML: V_i is the sum of two squared max-over-band statistics, each with
    the extreme-value closed form at the nominal frequencies, so it takes
    no frequencies; requires the signals to be orthogonal to tolerance.
    """
    if mode == "ql":
        if frequencies is None:
            frequencies = scenario.all_frequencies
        if isinstance(frequencies, np.ndarray) and frequencies.ndim == 2:
            if len(frequencies) < 2:
                raise ValidationError(
                    f"frequencies: a stack of frequency sets holds two or more rows, got "
                    f"shape {frequencies.shape}; one set is a 1-d array")
            sets = np.array([finite_floats(row, "frequencies", scenario.max_order)
                             for row in frequencies])
            lambdas = _stacked_residual_means(scenario, sets)[1]
        else:
            lambdas = residual_means(scenario, frequencies)[1]
        lambdas = np.where(lambdas < _LAMBDA_FLOOR, 0.0, lambdas)
        dists = _ncx2_laws(1, lambdas.T)
        return ComponentDistSet(dists=dists, lambdas=lambdas, mode="ql",
                                nu0=scenario.nu0)
    if mode != "ml":
        raise ValidationError(f"unknown mode {mode!r}")
    if frequencies is not None:
        raise ValidationError("frequencies apply to mode 'ql' only, not to the ml laws")
    ratio = max_offdiag_ratio(signal_gram(scenario))
    if ratio > _ORTHOGONALITY_TOL:
        raise ModelViolationError(
            f"signals are not orthogonal to tolerance: max cross-energy ratio "
            f"{ratio:.3g} > {_ORTHOGONALITY_TOL:g}")
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
        # a noise slot's parts have no noncentrality
        d_s_sq, d_c_sq = ((1.0 + means[2 * i] ** 2, 1.0 + means[2 * i + 1] ** 2)
                          if signal_present else (None, None))
        dists.append(convolve_cdfs(ml_component_cdf(d_c_sq, xi_c), ml_component_cdf(d_s_sq, xi_s)))
    return ComponentDistSet(dists=tuple(dists), lambdas=None, mode="ml",
                            nu0=scenario.nu0)


def _report(criterion, dist_set, p_a, error=0.0, evaluations=0):
    """AbridgedReport with p_a clamped to [0, 1], and the formula's
    quadrature error and integrand points, as Python numbers."""
    return AbridgedReport(p_a=float(min(max(p_a, 0.0), 1.0)), criterion=criterion,
                          mode=dist_set.mode, error=float(error), evaluations=evaluations)


def _single(dist_set):
    """dist_set, a ValidationError unless it has one member: the public
    formulas take one set of laws, and ql_sweep takes a stacked one to the
    member-wise formulas."""
    if dist_set.members != 1:
        raise ValidationError(
            f"an abridged formula takes one set of laws, got a stack of {dist_set.members}")
    return dist_set


def abridged_gic(dist_set, threshold):
    """Abridged error of a fixed-threshold (GIC-family) rule.

    p_a = 1 - P(V_nu0 > T) P(V_nu0+1 <= T) with T = 2*upsilon*kappa; the
    factor of an absent comparison is 1.  A float threshold that is not
    finite skips errors.finite_float: +inf is a threshold that no increment
    exceeds, and NaN and -inf fail the range check.
    """
    return _gic_reports(_single(dist_set), threshold)[0]


def _gic_reports(dist_set, threshold):
    """abridged_gic's report for each member of dist_set, from one cdf call
    per law."""
    if not (isinstance(threshold, float) and not math.isfinite(threshold)):
        threshold = finite_float(threshold, "threshold")
    if not threshold >= 0:
        raise ValidationError(f"threshold must be >= 0, got {threshold}")
    under, over = abridged_comparisons(dist_set.nu0, dist_set.n)
    nu0, dists = dist_set.nu0, dist_set.dists
    t_arr = _per_member(dists[0], np.array([float(threshold)]))
    under_fails = dists[nu0 - 1].cdf(t_arr).ravel() if under else np.zeros(dist_set.members)
    over_holds = dists[nu0].cdf(t_arr).ravel() if over else np.ones(dist_set.members)
    # 1 - (1 - under_fails) * over_holds, expanded so that an absent factor
    # drops out exactly
    return [_report("gic", dist_set, p) for p in 1.0 - over_holds + over_holds * under_fails]


def _per_member(law, x):
    """The points x as one row per member of law (a broadcast view), so
    that every evaluation of a stacked law takes, and a wrapper counts, each
    member's points; x itself for a law of one member."""
    if not isinstance(law.support_lo, np.ndarray):
        return x
    return np.broadcast_to(x, (law.support_lo.shape[0],) + np.shape(x))


def _window(*laws):
    """The union [lo, hi] of the laws' windows, of all their members'."""
    lo = min(np.min(law.support_lo) for law in laws)
    hi = max(np.max(law.support_hint) for law in laws)
    return float(lo), float(hi)


def _at(f, xs):
    """f at the points xs, taken as rows xs.shape[0] long: a stacked law's
    member r sees row r of an (M, n, k) array."""
    return f(xs.reshape(xs.shape[0], -1)).reshape(xs.shape)


def _expect(law, *factors):
    """Quadrature of law's pdf times the factors, in order, over the union
    of its members' windows: one integral per row of the integrand (per
    member, or per kappa and member)."""
    def integrand(x):
        n, x = x.size, _per_member(law, x)
        out = law.pdf(x)
        for factor in factors:
            out = out * factor(x)
        return out.reshape(-1, n) if out.ndim > 1 else out

    return integrate(integrand, *_window(law), _QUAD_TOL)


def _cdf_product(dists, indices, kap):
    """x -> prod_{i in indices} F_i(x / kappa); kap is a number, or an array
    of them on an axis before the members', which gives rows per kappa."""
    def in_scale(x):
        x_k = _over_kappa(x, kap)
        out = np.ones_like(np.asarray(x_k, dtype=float))
        for i in indices:
            out = out * dists[i].cdf(x_k)
        return out

    return in_scale


def abridged_pmep_ir(dist_set, kappa_ir):
    """Abridged error of the invariant-random-penalty rule.

    The correct-selection event is {V_nu0 > kappa * max_i V_i >= V_nu0+1}.
    Conditioning on the argmax position gives, with
    M(x) = prod_{i != nu0, nu0+1} F_i(x/kappa),
    p_a = 1 + int M(x) [W_up(x) (F_lo(x/kappa) - F_lo(x)) - W_lo(x) F_up(x)] dx
    for the laws lo of V_nu0 and up of V_nu0+1: one integral over the union
    [min(lo.support_lo, up.support_lo), max(lo.support_hint, up.support_hint)]
    of their windows, where M is formed once per node.  With one comparison
    only the single integral J(k) = int W_k(x) prod_{i != k} F_i(x/kappa) dx,
    the probability of V_k > kappa max_{i != k} V_i, remains over W_k's
    window: p_a = J(2) at nu0 = 1 and 1 - J(nu0) at nu0 = N.  PmepIr reads
    kappa_ir, in (0, 1), the range the derivation needs.
    """
    return _pmep_ir_reports(_single(dist_set), [PmepIr(kappa_ir).kappa_ir])[0]


def _pmep_ir_reports(dist_set, kappas):
    """abridged_pmep_ir's report for each kappa of the vector kappas, each
    one PmepIr accepts, and each member of dist_set (kappa-major), from one
    integrate call: one row per kappa and member on shared nodes over the
    union of all members' windows, so the laws' terms without kappa are
    evaluated once per node for every member.  Each report carries its
    row's error and the call's integrand points."""
    kaps = np.asarray(kappas, dtype=float)
    under, over = abridged_comparisons(dist_set.nu0, dist_set.n)
    if not (under or over):
        return [_report("pmep-ir", dist_set, 0.0)] * (kaps.size * dist_set.members)
    nu0, dists = dist_set.nu0, dist_set.dists
    kap = kaps[:, None, None]
    if under and over:
        lo, up = dists[nu0 - 1], dists[nu0]
        f_max = _cdf_product(dists, [i for i in range(dist_set.n) if i not in (nu0 - 1, nu0)],
                             kap)

        def integrand(x):
            n, x = x.size, _per_member(lo, x)
            return (f_max(x) * (up.pdf(x) * (lo.cdf(_over_kappa(x, kap)) - lo.cdf(x))
                                - lo.pdf(x) * up.cdf(x))).reshape(-1, n)

        quad = integrate(integrand, *_window(lo, up), _QUAD_TOL)
        p_a = 1.0 + quad.value
    else:
        k = nu0 - 1 if under else nu0
        law = dists[k]
        f_max = _cdf_product(dists, [i for i in range(dist_set.n) if i != k], kap)
        quad = _expect(law, f_max)
        p_a = 1.0 - quad.value if under else quad.value
    return [_report("pmep-ir", dist_set, p, e, quad.evaluations)
            for p, e in zip(p_a, quad.error)]


def _over_kappa(x, kap):
    """x / kappa; a quotient beyond the float range is inf, where every cdf is 1."""
    with np.errstate(over="ignore"):
        return x / kap


def _lower_sum_dist(dist_set, nu0):
    """Law of V_1 + ... + V_nu0-1 (for a stacked set, stacked over its members)."""
    if dist_set.mode == "ql":
        return nc_chisq2_sum(nu0 - 1, np.sum(dist_set.lambdas[..., :nu0 - 1], axis=-1))
    return reduce(convolve_cdfs, dist_set.dists[:nu0 - 1])


# G's inner rule, the rule it is checked against, and the y nodes of the check
_PMEP_I_RULE, _PMEP_I_CHECK, _PMEP_I_CHECK_Y = (_panel_nodes(n, 1) for n in (16, 12, 64))


def _pmep_i_interior(up, lo, f_sum, a_coef, b_coef):
    """Correct-selection probability of the inverse-penalty rule, interior
    case, for any laws (abridged_pmep_i gives it the offset QL and ML laws),
    for every member.

    With x = V_nu0 (law lo) and y = V_nu0+1 (law up) the event
    {y/B - x <= S < x/A} needs x > r y, r = A / (B (A + 1)).  Its probability
    is T1 - T2 with T1 = int W_lo(x) F_S(x/A) (F_up(x/r) - up.atom0) dx and
    T2 = int W_up(y) G(y) dy, G(y) = int W_lo(x) F_S(y/B - x) dx over
    [max(r y, lo.support_lo), min(y/B, lo.support_hint)]: the kink of
    F_S(y/B - x) at x = y/B is G's upper limit, so G takes a fixed 16-node
    Gauss rule.  Its error estimate, the W_up-weighted difference from a
    12-node rule on 64 nodes over up's window, adds to the two integrals'.
    T1 and T2 run over the union of the members' windows; G's limits and
    the check's nodes are each member's own.
    """
    x_over_r = b_coef * (a_coef + 1.0) / a_coef

    def g(y, rule):
        # y: the nodes, a row of them per member for a stack
        x_lo = np.maximum(y / x_over_r, lo.support_lo)
        span = np.maximum(np.minimum(y / b_coef, lo.support_hint) - x_lo, 0.0)
        xs = x_lo[..., None] + span[..., None] * rule[0]
        return span * np.sum(_at(lo.pdf, xs) * _at(f_sum, y[..., None] / b_coef - xs)
                             * rule[1], axis=-1)

    t1 = _expect(lo, lambda x: f_sum(x / a_coef), lambda x: up.cdf(x * x_over_r) - up.atom0)
    t2 = _expect(up, lambda y: g(y, _PMEP_I_RULE))
    # the check's nodes over each member's own window of V_nu0+1
    y_span = up.support_hint - up.support_lo
    ys = up.support_lo + y_span * _PMEP_I_CHECK_Y[0]
    check = np.ravel(y_span) * np.sum(_PMEP_I_CHECK_Y[1] * up.pdf(ys) * np.abs(
        g(ys, _PMEP_I_RULE) - g(ys, _PMEP_I_CHECK)), axis=-1)
    inner = _PMEP_I_RULE[0].size
    return Quadrature(t1.value - t2.value, t1.error + t2.error + check,
                      t1.evaluations + inner * t2.evaluations
                      + ys.shape[-1] * (inner + _PMEP_I_CHECK[0].size))


def _pmep_i_tilted(dist_set, f_sum, a_coef, b_coef):
    """Correct-selection probability of the inverse-penalty rule, interior
    case, where V_nu0+1 is central chi-square with 2 dof (QL laws with
    lambda_nu0+1 = 0, as at the known frequencies), for every member.

    There F_up(z) = 1 - exp(-z/2), so given x = V_nu0 the event
    {y/B - x <= S < x/A} has probability
    F_S(x/A) - exp(-Bx/2) int_0^{x/A} f_S(s) exp(-Bs/2) ds.  Tilting S's
    noncentral chi-square law (2(nu0 - 1) dof, noncentrality L) by
    exp(-Bs/2) gives K times the law of S'/(1 + B), where S' has the same
    dof and noncentrality L/(1 + B) and K = E exp(-BS/2) =
    (1 + B)^(1 - nu0) exp(-LB/(2(1 + B))) (Johnson, Kotz & Balakrishnan,
    Continuous Univariate Distributions vol. 2, ch. 29).  So
    P = int W_lo(x) [F_S(x/A) - K exp(-Bx/2) F_S'((1 + B)x/A)] dx, one
    integral over lo's window.  Bx beyond the float range is inf, where
    exp(-Bx/2) is 0.
    """
    nu0 = dist_set.nu0
    lam = np.sum(dist_set.lambdas[..., :nu0 - 1], axis=-1)
    tilted = nc_chisq2_sum(nu0 - 1, lam / (1.0 + b_coef)).cdf
    exponent = -0.5 * lam * (b_coef / (1.0 + b_coef))
    # the C library's exp, one per member, as a column for a stack
    k_coef = (1.0 + b_coef) ** (1 - nu0) * np.array(
        [math.exp(e) for e in np.ravel(exponent)]).reshape(np.shape(lam) + (1,))
    scale = (1.0 + b_coef) / a_coef

    def correct(x):
        with np.errstate(over="ignore"):
            damp = np.exp(-0.5 * b_coef * x)
        return f_sum(x / a_coef) - k_coef * damp * tilted(scale * x)

    return _expect(dist_set.dists[nu0 - 1], correct)


def _pmep_i_coef(ratio, kap):
    """ratio^(1/kappa) - 1; a power beyond the float range is inf."""
    with np.errstate(over="ignore"):
        return np.float64(ratio) ** (1.0 / kap) - 1.0


def abridged_pmep_i(dist_set, kappa_i):
    """Abridged error of the inverse-penalty rule.

    With A = (nu0/(nu0-1))^(1/kappa) - 1 and B = ((nu0+1)/nu0)^(1/kappa) - 1,
    correct selection is {V_nu0+1/B - V_nu0 <= S < V_nu0/A} for the lower
    partial sum S.  When both comparisons are made, QL laws with a central
    V_nu0+1 (lambda_nu0+1 = 0, as at the known frequencies) take the
    one-integral closed form of _pmep_i_tilted; offset QL laws and the ML
    laws take the 2-d rule of _pmep_i_interior.  With one,
    p_a = 1 - int W_nu0(x) G(x) dx, with G(x) = F_nu0+1(Bx) at nu0 = 1
    (S = 0) and G(x) = F_S(x/A) at nu0 = N.  Every integral runs
    over the windows of the laws whose pdfs it carries.  Where kappa is so
    small that A overflows, S < V_nu0/A never holds and p_a = 1.  Where it is
    so large that B rounds to 0, V_nu0+1/B - V_nu0 <= S never holds and
    p_a = 1; at nu0 = N, A = 0 makes S < V_nu0/A always hold and p_a = 0.
    """
    return _pmep_i_reports(_single(dist_set), PmepI(kappa_i).kappa_i)[0]


def _pmep_i_reports(dist_set, kap):
    """abridged_pmep_i's report at kappa_i kap, a value PmepI accepts, for
    each member of dist_set, from one quadrature for all members: the
    tilted form where every member's V_nu0+1 is central (lambda_nu0+1 = 0),
    else the 2-d rule, which holds for any laws and so for a stack that
    mixes central and offset members (a sweep over zero and nonzero
    offsets).  Each report carries its member's error and the quadrature's
    integrand points."""
    under, over = abridged_comparisons(dist_set.nu0, dist_set.n)

    def every(p_a):
        return [_report("pmep-i", dist_set, p_a)] * dist_set.members

    if not (under or over):
        return every(0.0)
    nu0, dists = dist_set.nu0, dist_set.dists
    lo = dists[nu0 - 1]
    b_coef = _pmep_i_coef((nu0 + 1.0) / nu0, kap)
    if over and b_coef == 0.0:
        return every(1.0)
    if under:
        a_coef = _pmep_i_coef(nu0 / (nu0 - 1.0), kap)
        if math.isinf(a_coef):
            return every(1.0)
        if a_coef == 0.0:
            # A >= B, so B = 0 too and only the under comparison is made
            return every(0.0)
        f_sum = _lower_sum_dist(dist_set, nu0).cdf
    if not under:
        quad = _expect(lo, lambda x: dists[nu0].cdf(b_coef * x))
    elif not over:
        quad = _expect(lo, lambda x: f_sum(x / a_coef))
    elif dist_set.mode == "ql" and np.all(dist_set.lambdas[..., nu0] == 0.0):
        quad = _pmep_i_tilted(dist_set, f_sum, a_coef, b_coef)
    else:
        quad = _pmep_i_interior(dists[nu0], lo, f_sum, a_coef, b_coef)
    return [_report("pmep-i", dist_set, p_a, error, quad.evaluations)
            for p_a, error in zip(np.ravel(1.0 - quad.value), np.ravel(quad.error))]


def abridged_for(dist_set, spec, params_per_signal=2):
    """Dispatch to the criterion's abridged formula.

    EEF has no closed form (only the Monte Carlo estimate applies).
    """
    return _member_reports(_single(dist_set), spec,
                           nonneg_int(params_per_signal, "params_per_signal"))[0]


def _member_reports(dist_set, spec, params_per_signal=2):
    """abridged_for's report for each member of dist_set, in member order."""
    if isinstance(spec, Gic):
        return _gic_reports(dist_set, spec.threshold(params_per_signal))
    if isinstance(spec, PmepIr):
        return _pmep_ir_reports(dist_set, [spec.kappa_ir])
    if isinstance(spec, PmepI):
        return _pmep_i_reports(dist_set, spec.kappa_i)
    raise ValidationError(
        f"no abridged formula for criterion {getattr(spec, 'name', spec)!r}")


@dataclass(frozen=True)
class ConsistencyRange:
    """Admissible tuning-parameter ranges for SNR-consistency.

    Exact ranges come from the per-k inequalities on the normalized
    noncentralities, and contains_ir/contains_i test them.  The simplified
    bounds (*_simple) use only rho = d_min^2/d_max^2 and are sufficient but
    stricter (a subset of the exact ranges).
    """

    nu0: int
    n_total: int
    rho: float
    kappa_ir_sup_exact: float
    kappa_ir_sup_simple: float
    kappa_i_inf_exact: float
    kappa_i_inf_simple: float

    def contains_ir(self, kappa_ir):
        return 0.0 < kappa_ir < self.kappa_ir_sup_exact

    def contains_i(self, kappa_i):
        return kappa_i > self.kappa_i_inf_exact


def consistency_range(d_n_sq, n_total, nu0):
    """Tuning ranges that make the PMEP rules SNR-consistent.

    d_n_sq holds the normalized noncentralities of the true signals
    (i <= nu0), each a finite positive number; indices above nu0 contribute
    zero at the true frequencies.  n_total (N) and nu0 are integers with
    1 <= nu0 <= n_total.  Any other input is a ValidationError.
    """
    n_total, nu0 = nonneg_int(n_total, "n_total"), nonneg_int(nu0, "nu0")
    if not 1 <= nu0 <= n_total:
        raise ValidationError(f"nu0 {nu0} outside 1..{n_total}")
    d_n_sq = finite_floats(d_n_sq, "d_n_sq", nu0)
    if np.any(d_n_sq <= 0):
        raise ValidationError("normalized noncentralities must be positive")
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


def scenario_consistency(scenario):
    """consistency_range of the scenario's true signals: the first nu0
    noncentralities of residual_means at the true frequencies, with the
    scenario's N and nu0."""
    lambdas = residual_means(scenario, scenario.all_frequencies)[1]
    return consistency_range(lambdas[:scenario.nu0], scenario.max_order, scenario.nu0)


@dataclass(frozen=True)
class FrequencyErrorSweep:
    """Abridged error as a function of a common frequency offset."""

    deltas: np.ndarray
    p_a: np.ndarray
    errors: np.ndarray
    criterion: str
    mode: str
    p_aq: float | None
    p_waa: float | None

    def __post_init__(self):
        for name in ("deltas", "p_a", "errors"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def ql_sweep(scenario, spec, delta_grid, loss=None, error_probs=None,
             trials=20000, master_seed=1):
    """Abridged error probability across a grid of frequency offsets.

    Each grid point offsets every candidate frequency by delta and
    evaluates the criterion's abridged formula on the resulting increment
    laws, with the parameters per signal that the Bl(delta) approach
    declares.  The whole grid is one component_dists call, whose laws are
    stacked over the offsets, and one member-wise formula call: each
    integral is one quadrature with a row per offset over the union of the
    offsets' windows, so a point's value is within its reported error of
    the same formula on that offset's own laws (tested from -4 to 30 dB).
    EEF has no closed form, so its sweep falls back to seeded Monte Carlo
    with the same offsets, one estimate per offset.  Given a loss function, p_aq aggregates the curve
    through it; given per-offset probabilities, p_waa weights them in (with
    unit losses when no loss is given).  Each is None without its input.
    delta_grid and error_probs (one per grid point) are read by
    errors.finite_floats.  A bad grid or probability, a non-finite loss
    value, trials below montecarlo's floor, a master_seed that is not a
    nonnegative integer or an offset that takes a frequency out of its band
    raises ValidationError before the sweep runs, under every criterion.
    """
    trials, master_seed = montecarlo.checked_trials(trials), nonneg_int(master_seed, "master_seed")
    deltas = finite_floats(delta_grid, "delta_grid")
    weights = np.ones(deltas.size) if loss is None else np.array(
        [float(loss(d)) for d in deltas])
    if not np.all(np.isfinite(weights)):
        raise ValidationError(f"loss must be finite on the delta grid, got {weights}")
    probs = (None if error_probs is None
             else finite_floats(error_probs, "error_probs", deltas.size))
    use_mc = isinstance(spec, Eef)
    approaches = [Bl(delta_omega=float(delta)) for delta in deltas]
    frequencies = np.array([approach_frequencies(scenario, a) for a in approaches])
    for freqs in frequencies:
        _check_in_band(scenario, freqs)
    if use_mc:
        reports = [montecarlo.estimate(scenario, [spec], approach, trials, master_seed)[0]
                   for approach in approaches]
        p_vals = np.array([report.p_a for report in reports])
        errs = np.array([report.p_a_ci[1] - report.p_a for report in reports])
    else:
        dists = component_dists(scenario, mode="ql",
                                frequencies=frequencies if deltas.size > 1 else frequencies[0])
        reports = _member_reports(dists, spec, params_per_signal=Bl.params_per_signal)
        p_vals = np.array([report.p_a for report in reports])
        errs = np.array([report.error for report in reports])
    p_aq = None if loss is None else float(np.sum(p_vals * weights))
    p_waa = None if probs is None else float(np.sum(probs * p_vals * weights))
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
    that never exceeds it returns the grid maximum flagged saturated.  The
    reference is a probability: a ValidationError unless it is in [0, 1].
    """
    ref = finite_float(ml_reference_pe, "ml_reference_pe")
    if not 0.0 <= ref <= 1.0:
        raise ValidationError(f"ml_reference_pe must be in [0, 1], got {ref}")
    order = np.argsort(sweep.deltas)
    deltas = sweep.deltas[order]
    p_vals = sweep.p_a[order]
    if deltas[0] < 0:
        raise ValidationError("sweep must cover nonnegative offsets only")
    if deltas[0] > 0:
        raise ValidationError("sweep must include delta = 0")
    width = 0.0
    for delta, p in zip(deltas, p_vals):
        if p > ref:
            return BlInterval(width=width, saturated=False, reference=ref)
        width = float(delta)
    return BlInterval(width=width, saturated=True, reference=ref)
