import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

import sincount as sc
from sincount import theory
from sincount.errors import ModelViolationError, ValidationError
from sincount.signal_model import clean_signal

from oracles import (pmep_i_interior_oracle, pmep_ir_two_integrals, sample_increments,
                     use_uncut_laws)

# frozen reference values for the five-slot, three-signal scenario at -4 dB
LAM_M4 = (23.7651403311, 24.8478663754, 25.3444948991)
GIC_PA_M4 = 0.0278246232     # threshold 8
IR_PA_M4 = 0.0342676445      # kappa_ir = 0.25
I_PA_M4 = 0.0365892084       # kappa_i = 3


def abridged_event_rate(spec, dist_set, trials, seed, pps=2):
    """Direct-sampling oracle for the two-neighbor decision event."""
    rng = np.random.default_rng(seed)
    v = sample_increments(dist_set, rng, trials)
    logliks = 0.5 * np.cumsum(v, axis=1)
    vals = sc.decision_values(spec, logliks, params_per_signal=pps)
    nu0 = dist_set.nu0
    bad = np.zeros(trials, dtype=bool)
    if nu0 >= 2:
        bad |= vals[:, nu0 - 1] >= vals[:, nu0 - 2]
    if nu0 < vals.shape[1]:
        bad |= vals[:, nu0 - 1] > vals[:, nu0]
    return float(bad.mean())


def test_residual_means_noncentralities(scen_m4):
    _, lam = sc.residual_means(scen_m4, scen_m4.all_frequencies)
    np.testing.assert_allclose(lam[:3], LAM_M4, rtol=1e-9)
    # no signal beyond the true order at the true frequencies
    assert np.all(lam[3:] < 1e-12)


def test_noncentrality_scales_with_power(scen_m4):
    scen_up = sc.with_snr_db(scen_m4, 6.0)  # +10 dB = 10x power
    _, lam = sc.residual_means(scen_up, scen_up.all_frequencies)
    np.testing.assert_allclose(lam[:3], 10.0 * np.asarray(LAM_M4), rtol=1e-9)


def test_component_dists_ql_defaults(scen_m4, dists_m4):
    assert dists_m4.mode == "ql"
    assert dists_m4.nu0 == 3
    assert dists_m4.n == 5
    np.testing.assert_allclose(dists_m4.lambdas[:3], LAM_M4, rtol=1e-9)
    assert dists_m4.lambdas[3] == 0.0  # floored exactly to central


@pytest.mark.floor_kernel
def test_abridged_gic_frozen_value(dists_m4):
    rep = sc.abridged_gic(dists_m4, threshold=8.0)
    assert rep.p_a == pytest.approx(GIC_PA_M4, abs=1e-8)
    # closed form: no integrand, no integration error
    assert rep.error == 0.0 and rep.evaluations == 0
    assert rep.criterion == "gic"


@pytest.mark.floor_kernel
def test_abridged_pmep_ir_frozen_value(dists_m4):
    rep = sc.abridged_pmep_ir(dists_m4, kappa_ir=0.25)
    assert rep.p_a == pytest.approx(IR_PA_M4, abs=1e-6)
    # one integral over the union of the two laws' windows, within the
    # quadrature tolerance 1e-9; the bound leaves room for two
    assert 0.0 < rep.error <= 2e-9
    # two first-level integrals of 384 points: a ceiling, not a schedule
    assert 0 < rep.evaluations <= 800


def _pmep_ir_interior_cases():
    """Interior PMEP-IR (1 < nu0 < N): QL laws at -10..30 dB, three (nu0, N)
    and two offsets at four kappa, and the ML laws at -4/0/4 dB at two."""
    for snr in np.arange(-10.0, 31.0, 5.0):
        for nu0, max_order in ((2, 3), (3, 5), (4, 5)):
            scenario = sc.standard_scenario(snr, nu0=nu0, max_order=max_order)
            for delta in (0.0, 0.004):
                dists = sc.component_dists(scenario, frequencies=sc.approach_frequencies(
                    scenario, sc.Bl(delta_omega=delta)))
                for kappa in (0.05, 0.25, 0.6, 0.99):
                    yield (snr, nu0, delta, kappa), dists, kappa
    for snr in (-4.0, 0.0, 4.0):
        dists = sc.component_dists(sc.standard_scenario(snr), mode="ml")
        for kappa in (0.25, 0.6):
            yield (snr, "ml", kappa), dists, kappa


def test_abridged_pmep_ir_interior_within_the_errors_of_two_integrals():
    # the one integral over the union of the windows against the two over
    # each law's own window: the values move by at most 1.2e-9 here, in
    # 104640 points instead of 182912.  The 1e-14 is rounding: at 15 dB, nu0
    # = 2 of 3 and Bl(0.004), p_a is about 1e-14 and the gap 8.3e-15 passes
    # the summed errors by 2.5e-15
    for case, dists, kappa in _pmep_ir_interior_cases():
        rep = sc.abridged_pmep_ir(dists, kappa)
        oracle = pmep_ir_two_integrals(dists, kappa)
        assert abs(rep.p_a - oracle.p_a) <= oracle.error + rep.error + 1e-14, case
        assert rep.evaluations <= oracle.evaluations, case


def test_abridged_pmep_ir_at_the_top_of_the_domain_within_the_monte_carlo_interval():
    # 0.99 tops tune's default range and, at 0 dB, standard_scenario's exact
    # consistency range (0.990): p_a 0.6078 against [0.6025, 0.6160]
    scenario = sc.standard_scenario(0.0)
    rep = sc.abridged_pmep_ir(sc.component_dists(scenario), 0.99)
    mc, = sc.estimate(scenario, [sc.PmepIr(0.99)], sc.KNOWN_FREQ, 20000, 3)
    assert mc.p_a_ci[0] <= rep.p_a <= mc.p_a_ci[1]


@pytest.mark.parametrize("mode", ["ql", "ml"])
def test_counted_laws_give_the_same_reports_and_see_every_node(mode):
    # each law's cdf and pdf swapped for counting ones by dataclasses.replace,
    # as a tracer wraps them: a formula evaluates a law through those two only
    dists = sc.component_dists(sc.standard_scenario(-4.0), mode=mode)
    points = {}

    def counted(i, law):
        def count(kind, fn):
            def wrapped(x):
                points[i, kind] = points.get((i, kind), 0) + np.size(x)
                return fn(x)

            return wrapped

        return dataclasses.replace(law, cdf=count("cdf", law.cdf), pdf=count("pdf", law.pdf))

    laws = dataclasses.replace(dists, dists=tuple(counted(i, d) for i, d in enumerate(dists.dists)))

    def bits(rep):
        return rep.p_a.hex(), rep.error.hex(), rep.evaluations, rep.criterion, rep.mode

    for spec in (sc.Gic(), sc.PmepIr(0.25), sc.PmepI(3.0)):
        points.clear()
        rep = sc.abridged_for(laws, spec)
        assert bits(rep) == bits(sc.abridged_for(dists, spec)), spec
        if isinstance(spec, sc.PmepIr):
            assert points.get((dists.nu0 - 1, "pdf"), 0) == rep.evaluations > 0


@pytest.mark.floor_kernel
def test_abridged_pmep_i_frozen_value(dists_m4):
    rep = sc.abridged_pmep_i(dists_m4, kappa_i=3.0)
    assert rep.p_a == pytest.approx(I_PA_M4, abs=1e-6)
    assert rep.error < 1e-6
    # one integral over the window of V_nu0: a cost ceiling, not a schedule
    assert 0 < rep.evaluations <= 1000


@pytest.mark.floor_kernel
def test_ql_laws_hold_at_80_db():
    # the signal noncentralities are about 6e9 here, inside scipy's chndtr range
    dists = sc.component_dists(sc.standard_scenario(80.0))
    assert 5e9 < dists.lambdas[0] < 7e9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in (sc.Gic(), sc.PmepIr(0.25), sc.PmepI(3.0)):
            assert 0.0 <= sc.abridged_for(dists, spec).p_a <= 1.0


@pytest.mark.floor_kernel
@pytest.mark.parametrize("snr_db", [90.0, 180.0])
def test_ql_laws_past_the_kernel_range_raise(snr_db):
    # chndtr reads NaN at the law's mean from about lam = 4.5e10 (scipy 1.17):
    # gic's p_a read nan there, and the PMEP quadratures failed on nan
    with pytest.raises(ValidationError, match="noncentrality .* past the range"):
        sc.component_dists(sc.standard_scenario(snr_db))


@pytest.mark.floor_kernel
@pytest.mark.parametrize("nu0, max_order", [(1, 4), (2, 3), (3, 5), (5, 5)])
def test_abridged_values_within_their_error_of_a_tighter_quadrature(monkeypatch, nu0, max_order):
    # the quadrature may stop after its first level; what it reports must
    # still hold against the same formulas at a tolerance of 1e-13
    specs = (sc.Gic(), sc.PmepIr(0.25), sc.PmepI(1.2), sc.PmepI(3.0))
    for snr in np.arange(-10.0, 41.0, 5.0):
        dists = sc.component_dists(sc.standard_scenario(snr, nu0=nu0, max_order=max_order))
        reports = [sc.abridged_for(dists, spec) for spec in specs]
        with monkeypatch.context() as patch:
            patch.setattr(theory, "_QUAD_TOL", 1e-13)
            tight = [sc.abridged_for(dists, spec).p_a for spec in specs]
        for spec, rep, p_a in zip(specs, reports, tight):
            assert abs(rep.p_a - p_a) <= rep.error + 1e-12, (spec, snr)


def _scipy_expect(law, factor):
    """scipy's adaptive quad of law.pdf(x) * factor(x) over law's window."""
    def integrand(x):
        xs = np.array([x])
        return float(law.pdf(xs)[0] * factor(xs)[0])

    return scipy.integrate.quad(integrand, law.support_lo, law.support_hint,
                                epsabs=1e-15, epsrel=1e-13, limit=1000)[0]


def _single_integral_reference(dists, spec):
    """p_a of a one-comparison PMEP rule (nu0 = 1 or nu0 = N) by scipy quad,
    from the formulas: PMEP-IR's J(k), and PMEP-I's
    1 - int W_nu0(x) G(x) dx with G(x) = F_2(Bx) at nu0 = 1 and
    F_S(x/A) at nu0 = N."""
    nu0, n, laws = dists.nu0, dists.n, dists.dists
    if isinstance(spec, sc.PmepIr):
        k = nu0 if nu0 < n else nu0 - 1
        others = [laws[i] for i in range(n) if i != k]
        j = _scipy_expect(laws[k], lambda x: np.prod(
            [law.cdf(x / spec.kappa_ir) for law in others], axis=0))
        p_a = j if nu0 < n else 1.0 - j
    elif nu0 < n:
        b = 2.0 ** (1.0 / spec.kappa_i) - 1.0
        p_a = 1.0 - _scipy_expect(laws[0], lambda x: laws[1].cdf(b * x))
    else:
        a = (n / (n - 1.0)) ** (1.0 / spec.kappa_i) - 1.0
        lower = sc.nc_chisq2_sum(n - 1, float(np.sum(dists.lambdas[:n - 1])))
        p_a = 1.0 - _scipy_expect(laws[n - 1], lambda x: lower.cdf(x / a))
    return min(max(p_a, 0.0), 1.0)


@pytest.mark.floor_kernel
@pytest.mark.parametrize("spec", [sc.PmepIr(0.25), sc.PmepI(1.2), sc.PmepI(3.0),
                                  sc.PmepI(12.0)],
                         ids=["pmep_ir_0.25", "pmep_i_1.2", "pmep_i_3", "pmep_i_12"])
@pytest.mark.parametrize("nu0, max_order", [(1, 4), (5, 5)])
def test_single_integral_abridged_values_within_their_error_of_scipy_quad(nu0, max_order,
                                                                          spec):
    # an independent adaptive rule on the same integrand and window, so an
    # error estimate that reads 0 while the value is off fails: at kappa_i =
    # 12, nu0 = N = 5, -10 dB the two agree to 2.2e-16, while a first level
    # that compares nothing is 3.9e-6 off there with error 0
    for snr in np.arange(-10.0, 11.0, 2.0):
        dists = sc.component_dists(sc.standard_scenario(snr, nu0=nu0, max_order=max_order))
        rep = sc.abridged_for(dists, spec)
        p_ref = _single_integral_reference(dists, spec)
        assert abs(rep.p_a - p_ref) <= rep.error + 1e-12, (snr, rep.p_a, p_ref, rep.error)


@pytest.mark.parametrize("snr", [20.0, 30.0, 40.0])
@pytest.mark.parametrize("kappa", [1.2, 3.0])
def test_abridged_pmep_i_high_snr_against_oracle(snr, kappa):
    # the increment laws sit in narrow windows far from zero here; the
    # interior rule must find them instead of raising QuadratureError
    dists = sc.component_dists(sc.standard_scenario(snr))
    rep = sc.abridged_pmep_i(dists, kappa)
    rate = abridged_event_rate(sc.PmepI(kappa), dists, 100000, seed=int(snr))
    se = math.sqrt(max(rate * (1 - rate), 1e-9) / 100000)
    assert abs(rep.p_a - rate) < 4 * se + 2e-4
    assert rep.error < 1e-6


@pytest.mark.parametrize("snr", [-10.0, -4.0, 0.0, 4.0, 10.0, 20.0, 30.0, 40.0])
@pytest.mark.parametrize("nu0", [2, 3, 4])
def test_abridged_pmep_i_interior_against_other_order(snr, nu0):
    # the oracle takes x = V_nu0 outermost.  On this grid its 32-node panels
    # agree with 64-node ones within 1e-15, at a quarter of the cost
    dists = sc.component_dists(sc.standard_scenario(snr, nu0=nu0))
    for kappa in (1.2, 2.0, 3.0, 4.0):
        rep = sc.abridged_pmep_i(dists, kappa)
        assert abs(rep.p_a - pmep_i_interior_oracle(dists, kappa, n_nodes=32)) <= 1e-7
        assert 0.0 < rep.error < 1e-6


@pytest.mark.parametrize("scenario, kappa", [
    ({"snr_db": -4.0}, 12.0),
    ({"snr_db": -20.0, "nu0": 2, "max_order": 3}, 3.0),
])
def test_abridged_pmep_i_interior_far_cases_against_other_order(scenario, kappa):
    dists = sc.component_dists(sc.standard_scenario(**scenario))
    rep = sc.abridged_pmep_i(dists, kappa)
    assert abs(rep.p_a - pmep_i_interior_oracle(dists, kappa)) <= 1e-7


def _offset_dists(scenario, delta_omega):
    """QL laws at the frequencies of Bl(delta_omega)."""
    approach = sc.Bl(delta_omega=delta_omega)
    return sc.component_dists(scenario,
                              frequencies=sc.approach_frequencies(scenario, approach))


@pytest.mark.parametrize("snr", [0.0, 4.0])
@pytest.mark.parametrize("kappa", [12.0, 20.0, 50.0])
def test_abridged_pmep_i_interior_error_is_honest_at_large_kappa(snr, kappa):
    # offset laws (lambda_nu0+1 > 0) take the two-dimensional interior rule.
    # At large kappa its 16-node inner rule spans many standard deviations of
    # W_lo and is off by up to about 7e-4 (4 dB, kappa 50); the reported
    # error must still cover the distance to the other order
    dists = _offset_dists(sc.standard_scenario(snr), 0.004)
    assert dists.lambdas[dists.nu0] > 0.0
    rep = sc.abridged_pmep_i(dists, kappa)
    assert abs(rep.p_a - pmep_i_interior_oracle(dists, kappa)) <= rep.error


@pytest.mark.floor_kernel
@pytest.mark.parametrize("snr", [0.0, 4.0])
@pytest.mark.parametrize("kappa", [12.0, 20.0, 50.0])
def test_abridged_pmep_i_known_frequencies_relative_accuracy_at_large_kappa(snr, kappa):
    # at the known frequencies V_nu0+1 is central, and the tilted closed form
    # leaves one integral over the window of V_nu0; the 2-d rule was 1.0e-4
    # off here at 4 dB, kappa 20
    dists = sc.component_dists(sc.standard_scenario(snr))
    rep = sc.abridged_pmep_i(dists, kappa)
    assert abs(rep.p_a - pmep_i_interior_oracle(dists, kappa)) <= 1e-6 * rep.p_a + 1e-12
    assert rep.error <= 1e-9
    assert 0 < rep.evaluations <= 1000


@pytest.mark.floor_kernel
def test_abridged_pmep_i_interior_cost_at_minus_20_db():
    # a ceiling, not a schedule.  The known-frequency case takes one integral;
    # the kink of the 2-d rule's integrand, which offset laws take, is an
    # inner limit, so low SNR costs it no more points than at -4 dB
    scenario = sc.standard_scenario(-20.0, nu0=2, max_order=3)
    for dists, ceiling in ((sc.component_dists(scenario), 1000),
                           (_offset_dists(scenario, 0.004), 10000)):
        rep = sc.abridged_pmep_i(dists, 3.0)
        assert 0 < rep.evaluations <= ceiling
        assert 0.0 < rep.error < 1e-6


@pytest.mark.parametrize("nu0, max_order, p_a", [(3, 5, 1.0), (3, 3, 1.0), (1, 3, 0.0)])
def test_abridged_pmep_i_small_kappa_takes_the_limit(nu0, max_order, p_a):
    # at kappa 1e-4 A = (nu0/(nu0-1))^(1/kappa) - 1 overflows: S < V_nu0/A
    # never holds, so the rule never keeps nu0 over nu0 - 1.  At nu0 = 1 only
    # B overflows, and V_2/B - V_1 <= S = 0 always holds
    dists = sc.component_dists(sc.standard_scenario(-4.0, nu0=nu0, max_order=max_order))
    for kappa in (1e-4, 1e-3):
        assert sc.abridged_pmep_i(dists, kappa).p_a == pytest.approx(p_a, abs=1e-12)


@pytest.mark.parametrize("nu0, max_order, p_a", [(3, 5, 1.0), (3, 3, 0.0), (1, 3, 1.0)])
def test_abridged_pmep_i_huge_kappa_takes_the_limit(nu0, max_order, p_a):
    # from kappa about 1e17 B = ((nu0+1)/nu0)^(1/kappa) - 1 rounds to 0:
    # V_nu0+1/B - V_nu0 <= S never holds, so the rule never keeps nu0 over
    # nu0 + 1.  At nu0 = N only A is made, it rounds to 0 as well, and
    # S < V_nu0/A always holds.  At 1e15 the integrals are still evaluated
    dists = sc.component_dists(sc.standard_scenario(-4.0, nu0=nu0, max_order=max_order))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kappa in (1e15, 1e17, 1e20):
            assert sc.abridged_pmep_i(dists, kappa).p_a == pytest.approx(p_a, abs=1e-12)


def test_abridged_pmep_i_closed_form_overflow_is_silent():
    # with nu0 = 60 of 61 slots, A = (60/59)^(1/kappa) - 1 is about e^709 and
    # B = (61/60)^(1/kappa) - 1 about e^697 at this kappa, so B x overflows
    # on V_nu0's window near 1e6 while A stays finite: exp(-Bx/2) reads 0
    # without a warning, and S < V_nu0/A (about 1e-302) never holds
    lambdas = np.array([25.0] * 59 + [1e6, 0.0])
    dists = sc.ComponentDistSet(dists=tuple(sc.nc_chisq2(lam) for lam in lambdas),
                                lambdas=lambdas, mode="ql", nu0=60)
    kappa = math.log(60.0 / 59.0) / 709.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = sc.abridged_pmep_i(dists, kappa)
    assert rep.p_a == pytest.approx(1.0, abs=1e-12)
    assert 0 < rep.evaluations <= 1000


def test_abridged_kappa_validation(dists_m4):
    with pytest.raises(ValidationError):
        sc.abridged_pmep_ir(dists_m4, kappa_ir=1.5)
    with pytest.raises(ValidationError):
        sc.abridged_pmep_i(dists_m4, kappa_i=0.0)
    with pytest.raises(ValidationError, match="threshold"):
        sc.abridged_gic(dists_m4, threshold=-1.0)


@pytest.mark.parametrize("formula, name", [
    (sc.abridged_gic, "threshold"), (sc.abridged_pmep_ir, "kappa_ir"),
    (sc.abridged_pmep_i, "kappa_i"),
    pytest.param(lambda dists, value: sc.abridged_for(dists, sc.Gic(), value),
                 "params_per_signal", id="abridged_for-params_per_signal")])
@pytest.mark.parametrize("value", ["1.0", "3", True, math.nan])
def test_abridged_parameter_must_be_a_finite_number(dists_m4, formula, name, value):
    # a numeric string raised TypeError and True computed the value of 1.0;
    # a NaN threshold keeps its range message, which the test below pins.
    # params_per_signal "3" gave the p_a of 3 and True that of 1
    match = (f"{name} must be >= 0, got nan" if name == "threshold" and value != value
             else f"{name} must be a nonnegative integer, got {value!r}"
             if name == "params_per_signal"
             else f"{name} must be a finite number, got {value!r}")
    with pytest.raises(ValidationError, match=re.escape(match)):
        formula(dists_m4, value)


def _uncut_cases():
    """abridged_for over GIC, PMEP-IR and PMEP-I at -4/0/4/12 dB, nu0 in
    {1, 2, 3, N} and delta_omega in {0, 0.004}, and one theory-objective tune
    per family: each value's bits with the error and integrand points."""
    out = []
    for snr in (-4.0, 0.0, 4.0, 12.0):
        for nu0 in (1, 2, 3, 5):
            scenario = sc.standard_scenario(snr, nu0=nu0)
            for delta in (0.0, 0.004):
                approach = sc.Bl(delta_omega=delta)
                dists = sc.component_dists(
                    scenario, frequencies=sc.approach_frequencies(scenario, approach))
                for spec in (sc.Gic(), sc.PmepIr(0.25), sc.PmepI(3.0)):
                    rep = sc.abridged_for(dists, spec, approach.params_per_signal)
                    out.append((rep.p_a.hex(), rep.error.hex(), rep.evaluations))
    for family in ("pmep-ir", "pmep-i"):
        res = sc.tune(family, sc.standard_scenario(-4.0))
        out.append((res.kappa_opt.hex(), res.objective_value.hex(),
                    res.search_trace.tobytes()))
    return out


def test_abridged_values_are_those_of_the_uncut_laws_bit_for_bit(monkeypatch):
    # the QL laws write 1.0 from their window's top without calling the
    # kernel; every abridged value, error and point count is unchanged
    cut = _uncut_cases()
    use_uncut_laws(monkeypatch)
    assert _uncut_cases() == cut


def test_abridged_gic_rejects_a_nan_threshold(dists_m4):
    # a NaN threshold used to read every cdf as 0: p_a = 1.0
    with pytest.raises(ValidationError, match="threshold must be >= 0, got nan"):
        sc.abridged_gic(dists_m4, threshold=math.nan)
    # +inf stays a threshold, one that no increment exceeds
    assert sc.abridged_gic(dists_m4, threshold=math.inf).p_a == 1.0


def test_abridged_for_dispatch(dists_m4):
    rep = sc.abridged_for(dists_m4, sc.Gic())
    assert rep.criterion == "gic"
    assert rep.p_a == pytest.approx(GIC_PA_M4, abs=1e-8)
    with pytest.raises(ValidationError):
        sc.abridged_for(dists_m4, sc.Eef())


def test_boundary_orders_against_oracle():
    # lowest order: only the upper-neighbor comparison remains; highest
    # order: only the lower-neighbor one; a single slot: none at all
    specs = (sc.Gic(), sc.PmepIr(0.25), sc.PmepI(3.0))
    for nu0, max_order, seed in ((1, 3, 4), (3, 3, 5), (1, 2, 6), (2, 2, 7), (1, 1, 8)):
        scen = sc.standard_scenario(-4.0, nu0=nu0, max_order=max_order)
        dists = sc.component_dists(scen)
        for spec in specs:
            rep = sc.abridged_for(dists, spec)
            rate = abridged_event_rate(spec, dists, 200000, seed=seed)
            se = math.sqrt(max(rate * (1 - rate), 1e-9) / 200000)
            assert abs(rep.p_a - rate) < 4 * se + 2e-4, (spec.name, nu0, max_order)
            if max_order == 1:
                assert rep.p_a == 0.0, spec.name
        if max_order == 1:
            reports = sc.estimate(scen, list(specs), sc.KNOWN_FREQ, 1000, seed)
            assert [r.p_a for r in reports] == [0.0] * len(specs)


@settings(max_examples=30, deadline=None)
@given(st.booleans(), st.floats(min_value=-20.0, max_value=40.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_boundary_orders_return_probabilities(lowest, snr, where):
    # nu0 = 1 or nu0 = N; kappa from inside the exact consistency range
    # (vacuous at nu0 = 1, where it spans the usual tuning interval)
    nu0 = 1 if lowest else 3
    scen = sc.standard_scenario(snr, nu0=nu0, max_order=3)
    dists = sc.component_dists(scen)
    ranges = sc.consistency_range(dists.lambdas[:nu0], 3, nu0)
    kappa_ir = where * min(ranges.kappa_ir_sup_exact, 0.99) or 1e-3
    kappa_i = ranges.kappa_i_inf_exact + 0.1 + 10.0 * where
    for spec in (sc.Gic(), sc.PmepIr(kappa_ir), sc.PmepI(kappa_i)):
        rep = sc.abridged_for(dists, spec)
        assert 0.0 <= rep.p_a <= 1.0, spec


def test_component_dist_set_checks_nu0(dists_m4):
    for nu0 in (0, dists_m4.n + 1):
        with pytest.raises(ValidationError):
            dataclasses.replace(dists_m4, nu0=nu0)


def test_gic_plateau_at_high_snr(scen_m4):
    # fixed threshold, no signal leakage: p_a converges to 1 - F(T) of the
    # central 2-dof law, i.e. exp(-T/2)
    strong = sc.with_snr_db(scen_m4, 40.0)
    dists = sc.component_dists(strong)
    rep = sc.abridged_gic(dists, threshold=8.0)
    assert abs(rep.p_a - math.exp(-4.0)) < 1e-6


def test_gic_frequency_error_breaks_convergence(scen_m4):
    strong = sc.with_snr_db(scen_m4, 40.0)
    freqs = strong.all_frequencies + 0.0025
    dists = sc.component_dists(strong, frequencies=freqs)
    rep = sc.abridged_gic(dists, threshold=8.0)
    assert rep.p_a > 0.999


def test_ql_sweep_zero_anchor(scen_0, ):
    sweep = sc.ql_sweep(scen_0, sc.Gic(), [0.0, 0.004])
    dists = sc.component_dists(scen_0)
    anchor = sc.abridged_gic(dists, threshold=8.0)
    assert sweep.p_a[0] == pytest.approx(anchor.p_a, abs=1e-12)
    assert sweep.mode == "theory"
    # the aggregates need their inputs: a loss for p_aq, probabilities for p_waa
    assert sweep.p_aq is None and sweep.p_waa is None


def test_ql_sweep_single_point_aggregate(scen_0):
    sweep = sc.ql_sweep(scen_0, sc.Gic(), [0.003], loss=lambda d: 1.0)
    assert sweep.p_aq == pytest.approx(sweep.p_a[0], rel=1e-12)


def test_ql_sweep_monotone_and_continuous(scen_0):
    grid = np.linspace(0.0, 0.01, 6)
    sweep = sc.ql_sweep(scen_0, sc.Gic(), grid)
    diffs = np.diff(sweep.p_a)
    assert np.all(diffs >= -1e-9)  # leakage only hurts near zero
    # continuity: no jump dwarfs the typical grid-neighbor step
    assert diffs.max() <= 10 * max(np.median(diffs), 1e-9)


def test_ql_sweep_out_of_band(scen_0):
    with pytest.raises(ValidationError):
        sc.ql_sweep(scen_0, sc.Gic(), [0.0, 1.0])
    with pytest.raises(ValidationError, match="nonempty"):
        sc.ql_sweep(scen_0, sc.Gic(), [])
    with pytest.raises(ValidationError, match="error_probs must hold 2 numbers, got 1"):
        sc.ql_sweep(scen_0, sc.Gic(), [0.0, 0.002], error_probs=[0.1])


def test_ql_sweep_weighted_aggregates(scen_0):
    grid = [0.0, 0.004]
    sweep = sc.ql_sweep(scen_0, sc.Gic(), grid, loss=lambda d: 0.5,
                        error_probs=[0.1, 0.9])
    expect_q = 0.5 * (sweep.p_a[0] + sweep.p_a[1])
    assert sweep.p_aq == pytest.approx(expect_q, rel=1e-12)
    expect_w = 0.5 * (0.1 * sweep.p_a[0] + 0.9 * sweep.p_a[1])
    assert sweep.p_waa == pytest.approx(expect_w, rel=1e-12)


def test_bl_interval_cases(scen_0):
    grid = np.linspace(0.0, 0.008, 5)
    sweep = sc.ql_sweep(scen_0, sc.Gic(), grid)
    # reference below the zero-offset value: no usable interval
    below = sc.bl_interval(sweep, sweep.p_a[0] * 0.5)
    assert below.width == 0.0 and not below.saturated
    # reference above everything: saturates at the grid maximum
    above = sc.bl_interval(sweep, 1.0)
    assert above.width == pytest.approx(0.008) and above.saturated
    # crossing inside the grid
    mid = sc.bl_interval(sweep, float(sweep.p_a[2]))
    assert mid.width == pytest.approx(grid[2])
    with pytest.raises(ValidationError):
        sc.bl_interval(sc.ql_sweep(scen_0, sc.Gic(), [0.002, 0.004]), 0.5)
    with pytest.raises(ValidationError, match="nonnegative offsets"):
        sc.bl_interval(sc.ql_sweep(scen_0, sc.Gic(), [-0.002, 0.0]), 0.5)


@pytest.mark.parametrize("reference, match", [
    (math.nan, "must be a finite number"), (math.inf, "must be a finite number"),
    ("0.5", "must be a finite number"), (-0.1, r"must be in \[0, 1\]"),
    (1.5, r"must be in \[0, 1\]"),
], ids=["nan", "inf", "str", "negative", "above_one"])
def test_bl_interval_rejects_a_bad_reference(scen_0, reference, match):
    # a NaN reference used to read as never exceeded: the last width, saturated
    sweep = sc.ql_sweep(scen_0, sc.Gic(), [0.0, 0.004])
    with pytest.raises(ValidationError, match=f"ml_reference_pe {match}"):
        sc.bl_interval(sweep, reference)


@pytest.mark.parametrize("kwargs, match", [
    ({"loss": lambda d: math.nan}, "loss must be finite"),
    ({"loss": lambda d: math.inf if d > 0 else 1.0}, "loss must be finite"),
    ({"error_probs": [0.5, math.nan]}, r"error_probs\[1\] must be a finite number"),
    ({"loss": lambda d: 1.0, "error_probs": [-math.inf, 0.5]},
     r"error_probs\[0\] must be a finite number"),
], ids=["loss_nan", "loss_inf", "probs_nan", "probs_minus_inf"])
def test_ql_sweep_rejects_non_finite_loss_or_probabilities(scen_0, monkeypatch, kwargs, match):
    # these used to come back as p_aq or p_waa = NaN; now no law is built
    def no_laws(*args, **kw):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(theory, "component_dists", no_laws)
    with pytest.raises(ValidationError, match=match):
        sc.ql_sweep(scen_0, sc.Gic(), [0.0, 0.004], **kwargs)


@pytest.mark.parametrize("spec", [sc.Gic(), sc.PmepIr(0.25), sc.Eef()],
                         ids=["gic", "pmep-ir", "eef"])
@pytest.mark.parametrize("kwargs, match", [
    ({"trials": 5}, "need at least 100 trials, got 5$"),
    ({"trials": 1e5}, "trials must be a nonnegative integer"),
    ({"master_seed": "x"}, "master_seed must be a nonnegative integer"),
    ({"master_seed": -1}, "master_seed must be a nonnegative integer"),
], ids=["trials_below_floor", "trials_float", "seed_str", "seed_negative"])
def test_ql_sweep_checks_trials_and_seed_under_every_criterion(monkeypatch, spec, kwargs, match):
    # only EEF's Monte Carlo fallback used to read them, so a closed-form
    # sweep took trials=5 and master_seed="x"; now no law is built
    def no_laws(*args, **kw):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(theory, "component_dists", no_laws)
    with pytest.raises(ValidationError, match=match):
        sc.ql_sweep(sc.standard_scenario(-4.0), spec, [0.0], **kwargs)


def _sweep_grids():
    """Offset grids with negative, zero and repeated offsets, each point's
    frequencies inside the bands; on the last, every offset's V_nu0+1 is
    central, so PMEP-I takes its tilted form for the whole stack."""
    return ([0.0, 0.001, 0.002, 0.004, 0.008, 0.016, 0.03],
            [-0.004, 0.0, 0.002, 0.002, -0.001, 0.006], [0.0, 0.0])


@pytest.mark.floor_kernel
@pytest.mark.parametrize("snr", [-4.0, 0.0, 4.0, 20.0, 30.0])
@pytest.mark.parametrize("spec", [sc.Gic(), sc.PmepIr(0.25), sc.PmepI(3.0)],
                         ids=["gic", "pmep-ir", "pmep-i"])
def test_sweep_points_are_the_abridged_values_of_each_offset(snr, spec):
    # the sweep is one component_dists call over all offsets and one
    # member-wise formula call, whose integrals refine the panels every
    # offset needs over the union of their windows, which at high SNR are
    # far wider than a narrow member's peak; PMEP-I takes its 2-d rule for
    # every offset of a grid with a nonzero one, where a zero offset's own
    # laws take the tilted form.  GIC's closed form is each offset's own
    # value bit for bit
    scenario = sc.standard_scenario(snr)
    for grid in _sweep_grids():
        sweep = sc.ql_sweep(scenario, spec, grid)
        for delta, p_a, error in zip(grid, sweep.p_a, sweep.errors):
            approach = sc.Bl(delta_omega=delta)
            own = sc.abridged_for(sc.component_dists(
                scenario, frequencies=sc.approach_frequencies(scenario, approach)), spec,
                approach.params_per_signal)
            if isinstance(spec, sc.Gic):
                assert (p_a.hex(), error) == (own.p_a.hex(), 0.0), delta
            else:
                assert abs(p_a - own.p_a) <= error + own.error + 1e-14, (delta, p_a, own)


def test_a_one_point_sweep_is_the_abridged_value_bit_for_bit():
    # one offset is one set of laws, not a stack of one
    scenario = sc.standard_scenario(-4.0)
    dists = sc.component_dists(scenario, frequencies=sc.approach_frequencies(
        scenario, sc.Bl(delta_omega=0.002)))
    for spec in (sc.PmepIr(0.25), sc.PmepI(3.0)):
        sweep = sc.ql_sweep(scenario, spec, [0.002])
        rep = sc.abridged_for(dists, spec)
        assert (sweep.p_a[0].hex(), sweep.errors[0].hex()) == (rep.p_a.hex(), rep.error.hex())


def test_stacked_law_sets_go_through_the_sweep_only(scen_m4):
    # a stack of two or more frequency sets gives stacked laws with (M, N)
    # lambdas; the public formulas take one set, and one set is a 1-d array
    freqs = np.array([sc.approach_frequencies(scen_m4, sc.Bl(delta_omega=d))
                      for d in (0.0, 0.002, -0.001)])
    stack = sc.component_dists(scen_m4, frequencies=freqs)
    assert stack.members == 3 and stack.lambdas.shape == (3, 5)
    for row, own in zip(stack.lambdas, freqs):
        assert np.array_equal(row, sc.component_dists(scen_m4, frequencies=own).lambdas)
    for spec in (sc.Gic(), sc.PmepIr(0.25), sc.PmepI(3.0)):
        with pytest.raises(ValidationError, match="takes one set of laws, got a stack of 3"):
            sc.abridged_for(stack, spec)
    with pytest.raises(ValidationError, match="two or more rows"):
        sc.component_dists(scen_m4, frequencies=freqs[:1])


def test_stacked_laws_take_each_sets_lambdas_bit_for_bit():
    # the stack's bases come from one basis_matrix call and are whitened by
    # one batched solve: each row is still that set's own, each set's means
    # are the Monte Carlo's FrequencyPlan statistic of the clean signal, and
    # a row out of its band raises the error of that set alone
    rng = np.random.default_rng(5)
    for scen in (sc.standard_scenario(0.0), sc.standard_scenario(4.0, n_samples=256)):
        half = np.pi / scen.n_samples
        freqs = scen.all_frequencies + rng.uniform(-0.6 * half, 0.6 * half,
                                                   size=(9, scen.max_order))
        stack = sc.component_dists(scen, frequencies=freqs)
        for row, own in zip(stack.lambdas, freqs):
            assert row.tobytes() == sc.component_dists(scen, frequencies=own).lambdas.tobytes()
            plan = sc.FrequencyPlan.build(scen, own)
            means = sc.residual_means(scen, own)[0]
            assert means.tobytes() == plan.residuals_batch(clean_signal(scen))[0].tobytes()
        freqs[4, 2] += 2.0 * half
        with pytest.raises(ValidationError) as alone:
            sc.component_dists(scen, frequencies=freqs[4])
        with pytest.raises(ValidationError, match="order slot 3 outside band") as stacked:
            sc.component_dists(scen, frequencies=freqs)
        assert str(stacked.value) == str(alone.value)


@pytest.mark.floor_kernel
@pytest.mark.parametrize("spec", [sc.Gic(), sc.PmepIr(0.25), sc.PmepI(3.0)],
                         ids=["gic", "pmep-ir", "pmep-i"])
def test_counted_sweep_laws_give_the_same_sweep_and_see_every_node(monkeypatch, spec):
    # the sweep's slot laws, wrapped with counting cdf and pdf by
    # dataclasses.replace as a tracer wraps component_dists' sets: a formula
    # evaluates them through those two only, so the sweep is the same bit for
    # bit.  A stacked law takes a row of points per offset, so the counts see
    # every offset's points: with PMEP-IR every slot law's cdf sees each node
    # of the one integral once per offset
    scenario, grid = sc.standard_scenario(0.0), _sweep_grids()[1]
    plain = sc.ql_sweep(scenario, spec, grid)
    points = {}
    build = theory.component_dists

    def counted(*args, **kwargs):
        dists = build(*args, **kwargs)

        def wrap(i, law):
            def count(kind, fn):
                def wrapped(x):
                    points[i, kind] = points.get((i, kind), 0) + np.size(x)
                    return fn(x)

                return wrapped

            return dataclasses.replace(law, cdf=count("cdf", law.cdf), pdf=count("pdf", law.pdf))

        return dataclasses.replace(dists, dists=tuple(wrap(i, d) for i, d in enumerate(dists.dists)))

    monkeypatch.setattr(theory, "component_dists", counted)
    sweep = sc.ql_sweep(scenario, spec, grid)
    assert [p.hex() for p in sweep.p_a] == [p.hex() for p in plain.p_a]
    assert [e.hex() for e in sweep.errors] == [e.hex() for e in plain.errors]
    nu0 = scenario.nu0
    if isinstance(spec, sc.PmepIr):
        nodes = theory._member_reports(build(scenario, frequencies=np.array(
            [sc.approach_frequencies(scenario, sc.Bl(delta_omega=d)) for d in grid])),
            spec)[0].evaluations
        assert points[nu0 - 1, "pdf"] == points[nu0, "pdf"] == len(grid) * nodes > 0
        assert all(points[i, "cdf"] >= len(grid) * nodes for i in range(scenario.max_order))
    elif isinstance(spec, sc.Gic):
        # one cdf call per compared law, at the threshold of each offset
        assert points == {(nu0 - 1, "cdf"): len(grid), (nu0, "cdf"): len(grid)}
    else:
        # V_nu0's pdf, and V_nu0+1's cdf and pdf in the 2-d rule that every
        # offset of this grid takes
        assert min(points[nu0 - 1, "pdf"], points[nu0, "cdf"], points[nu0, "pdf"]) > 0


@pytest.mark.parametrize("spec", [sc.Gic(), sc.PmepIr(0.25), sc.PmepI(3.0), sc.Eef()],
                         ids=["gic", "pmep-ir", "pmep-i", "eef"])
def test_ql_sweep_checks_every_offset_before_it_runs(monkeypatch, spec):
    # the 0.05 offset takes a frequency out of its band; EEF's sweep used to
    # run an estimate for each offset before it (0.10 s at 20000 trials)
    def no_run(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(theory.montecarlo, "estimate", no_run)
    monkeypatch.setattr(theory, "integrate", no_run)
    with pytest.raises(ValidationError, match="outside band"):
        sc.ql_sweep(sc.standard_scenario(0.0), spec, [0.0, 0.002, 0.05], trials=20000)


def test_sample_increments_match_lambdas(dists_m4):
    rng = np.random.default_rng(8)
    draws = sample_increments(dists_m4, rng, 100000)
    assert draws.shape == (100000, 5)
    np.testing.assert_allclose(draws.mean(axis=0), 2.0 + dists_m4.lambdas,
                               rtol=0.02, atol=0.02)


def test_consistency_range_frozen(scen_m4):
    _, lam = sc.residual_means(scen_m4, scen_m4.all_frequencies)
    ranges = sc.consistency_range(lam[:3], 5, 3)
    assert ranges.rho == pytest.approx(0.9376845120, rel=1e-9)
    assert ranges.kappa_ir_sup_exact == pytest.approx(0.9902024379, rel=1e-9)
    assert ranges.kappa_ir_sup_simple == pytest.approx(ranges.rho, rel=1e-12)
    assert ranges.kappa_i_inf_exact == pytest.approx(0.9677094473, rel=1e-9)
    assert ranges.kappa_i_inf_simple == pytest.approx(9.3636574276, rel=1e-9)
    # the defaults are admissible for the exact conditions
    assert ranges.contains_ir(0.25)
    assert ranges.contains_i(3.0)
    # the simplified inverse-penalty bound deliberately rejects kappa_i = 3
    assert not 3.0 > ranges.kappa_i_inf_simple


def test_consistency_range_equal_snrs():
    ranges = sc.consistency_range(np.ones(3), 5, 3)
    assert ranges.rho == 1.0
    assert ranges.kappa_ir_sup_exact == pytest.approx(1.0, rel=1e-12)
    assert ranges.kappa_i_inf_simple == pytest.approx(
        math.log(5) / math.log(1.2), rel=1e-12)


def test_consistency_range_validation():
    with pytest.raises(ValidationError):
        sc.consistency_range(np.array([1.0, 0.0]), 5, 2)
    with pytest.raises(ValidationError):
        sc.consistency_range(np.ones(3), 5, 2)  # length mismatch
    with pytest.raises(ValidationError, match="outside 1..2"):
        sc.consistency_range(np.ones(3), 2, 3)
    # a NaN weight used to read every kappa as consistent, an infinite one
    # raised ZeroDivisionError; a float nu0 raised TypeError, while a boolean
    # nu0 and a float n_total were accepted and echoed
    for weights, name in (([1.0, np.nan], r"d_n_sq\[1\]"), ([np.inf, 1.0], r"d_n_sq\[0\]"),
                          ([1.0, "2"], r"d_n_sq\[1\]")):
        with pytest.raises(ValidationError, match=f"{name} must be a finite number"):
            sc.consistency_range(weights, 5, 2)
    for n_total, nu0, name in ((5, 3.0, "nu0"), (5, True, "nu0"), (5.5, 1, "n_total"),
                               (-1, 1, "n_total")):
        with pytest.raises(ValidationError, match=f"{name} must be a nonnegative integer"):
            sc.consistency_range(np.ones(int(nu0)), n_total, nu0)


def test_scenario_consistency_is_the_range_of_its_true_signals(scen_m4):
    lam = sc.residual_means(scen_m4, scen_m4.all_frequencies)[1]
    assert sc.theory.scenario_consistency(scen_m4) == sc.consistency_range(
        lam[:scen_m4.nu0], scen_m4.max_order, scen_m4.nu0)


def test_consistency_single_signal_vacuous():
    ranges = sc.consistency_range(np.array([2.0]), 5, 1)
    assert ranges.contains_ir(0.99)
    assert ranges.contains_i(0.5)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=2,
                max_size=6),
       st.floats(min_value=0.01, max_value=0.99),
       st.floats(min_value=0.1, max_value=15.0))
def test_simplified_range_inside_exact(d_sq, kap_ir, kap_i):
    nu0 = len(d_sq)
    ranges = sc.consistency_range(np.asarray(d_sq), nu0 + 2, nu0)
    if kap_ir < ranges.kappa_ir_sup_simple:
        assert ranges.contains_ir(kap_ir)
    if kap_i > ranges.kappa_i_inf_simple:
        assert ranges.contains_i(kap_i)


def test_ml_mode_requires_orthogonal_signals():
    w = 1.0
    comps = tuple(
        sc.SinusoidComponent(amplitude=1.0, frequency=w + k * 0.02, phase=0.0,
                             band=(w + k * 0.02 - 0.005, w + k * 0.02 + 0.005))
        for k in range(2))
    scen = sc.Scenario(components=comps, noise_level=1.0, n_samples=64)
    with pytest.raises(ModelViolationError):
        sc.component_dists(scen, mode="ml")


def test_ml_mode_rejects_frequencies(scen_m4):
    # the ML laws are built at the nominal frequencies, so other ones are an
    # error rather than ignored
    with pytest.raises(ValidationError, match="frequencies"):
        sc.component_dists(scen_m4, mode="ml", frequencies=scen_m4.all_frequencies + 0.002)
    with pytest.raises(ValidationError, match="unknown mode"):
        sc.component_dists(scen_m4, mode="bl")


def test_ml_mode_abridged_formulas_give_probabilities(scen_m4):
    # runs the ML partial-sum law of PMEP-I's interior case (nu0 = 3 < N = 5)
    # and the pdf of a convolved law; the values are not pinned here, as the
    # benchmark's reference holds them
    dists = sc.component_dists(scen_m4, mode="ml")
    for spec in (sc.Gic(), sc.PmepIr(kappa_ir=0.25), sc.PmepI(kappa_i=3.0)):
        rep = sc.abridged_for(dists, spec, params_per_signal=3)
        assert rep.mode == "ml"
        assert 0.0 <= rep.p_a <= 1.0
        assert math.isfinite(rep.error) and rep.error >= 0.0
    for d in dists.dists:
        x = np.linspace(d.support_lo - 1.0, d.support_hint + 1.0, 1001)
        cdf = d.cdf(x)
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))
        assert np.all(np.diff(cdf) >= 0.0)
        assert np.all(d.pdf(x) >= 0.0)


def test_ml_mode_dists_structure(scen_m4):
    dists = sc.component_dists(scen_m4, mode="ml")
    assert dists.mode == "ml"
    assert dists.n == 5
    # signal slots carry the noncentrality through the mean offsets
    means, _ = sc.residual_means(scen_m4, scen_m4.all_frequencies)
    slot_mag = np.hypot(means[0:6:2], means[1:6:2])
    assert np.all(slot_mag > 1.0)
    # each law is a proper distribution on the positive axis
    for d in dists.dists:
        assert d.cdf(0.0) >= 0.0
        assert d.cdf(1e4) > 0.999
