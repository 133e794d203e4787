import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sincount as sc
from sincount.errors import SelectionError, ValidationError

LOGLIKS = np.array([13.0, 23.0, 41.0, 42.5, 45.0])


def test_aic_values_and_threshold():
    # AIC is the GIC at its default upsilon = 2
    vals = sc.decision_values(sc.Gic(), LOGLIKS, params_per_signal=2)
    np.testing.assert_allclose(vals, -LOGLIKS + 4.0 * np.arange(1, 6))
    assert sc.Gic().threshold(2) == 8.0
    assert sc.Gic().threshold(3) == 12.0


def test_gic_values_and_threshold():
    spec = sc.Gic(upsilon=2.0)
    vals = sc.decision_values(spec, LOGLIKS, params_per_signal=2)
    np.testing.assert_allclose(vals, -LOGLIKS + 4.0 * np.arange(1, 6))
    assert spec.threshold(2) == 8.0


def test_eef_values_zero_clamp():
    vals = sc.decision_values(sc.Eef(), LOGLIKS)
    nus = np.arange(1, 6)
    ratio = LOGLIKS / nus
    stat = LOGLIKS - nus * (np.log(ratio) + 1.0)
    np.testing.assert_allclose(vals, -stat)
    # below the ratio threshold the statistic is clamped to zero
    tiny = sc.decision_values(sc.Eef(), np.array([0.5, 0.6, 0.7]))
    assert tiny[2] == 0.0


def test_pmep_ir_values_use_global_max_increment():
    vals = sc.decision_values(sc.PmepIr(kappa_ir=0.25), LOGLIKS)
    incs = np.diff(LOGLIKS, prepend=0.0)
    expect = -LOGLIKS + 0.25 * np.arange(1, 6) * incs.max()
    np.testing.assert_allclose(vals, expect)


def test_pmep_i_values():
    # ln(nu) - kappa*ln(L_nu): the log of nu / L_nu^kappa, increasing in -L^kappa/nu
    vals = sc.decision_values(sc.PmepI(kappa_i=3.0), LOGLIKS)
    np.testing.assert_allclose(vals, np.log(np.arange(1, 6)) - 3.0 * np.log(LOGLIKS))
    # L = 0 stays finite and above every L > 0
    zero = sc.decision_values(sc.PmepI(kappa_i=3.0), np.array([0.0, 0.0, 1e-300, 2.0]))
    assert np.all(np.isfinite(zero))
    assert zero[0] == zero[1] > zero[2] > zero[3]


@pytest.mark.parametrize("kappa", [0.5, 1.0, 3.0, 7.5])
def test_pmep_i_orders_like_inverse_penalty(kappa):
    # same argmin and the same pairwise comparisons as -L^kappa/nu wherever
    # that is finite and not tied
    rng = np.random.default_rng(5)
    incs = rng.exponential(1.0, size=(4000, 6)) * rng.choice([0.0, 1.0, 30.0], size=(4000, 6))
    ladders = np.cumsum(incs, axis=1)
    new = sc.decision_values(sc.PmepI(kappa_i=kappa), ladders)
    old = -(ladders**kappa) / np.arange(1, 7)
    np.testing.assert_array_equal(sc.argmin_order(new), sc.argmin_order(old))
    for i in range(6):
        for j in range(6):
            untied = old[:, i] != old[:, j]
            np.testing.assert_array_equal((new[:, i] < new[:, j])[untied],
                                          (old[:, i] < old[:, j])[untied])


def test_pmep_i_large_loglik_does_not_overflow():
    # L^120 overflows for L > 370; at 10 dB, L_3 is near 2000
    scen = sc.standard_scenario(10.0)
    rep = sc.estimate(scen, [sc.PmepI(120.0)], sc.KNOWN_FREQ, 2000, 7)[0]
    # oracle: the same rule scaled per trial by L_N^kappa, which is finite here
    ladders = sc.collect_logliks(scen, sc.KNOWN_FREQ, 2000, 7)
    scaled = -(ladders / ladders[:, -1:]) ** 120.0 / np.arange(1, 6)
    expect = np.bincount(sc.argmin_order(scaled), minlength=6)[1:]
    np.testing.assert_array_equal(rep.histogram, expect)
    assert rep.histogram[2] > 1000


def test_parameter_validation():
    with pytest.raises(ValidationError):
        sc.PmepIr(kappa_ir=0.0)
    with pytest.raises(ValidationError):
        sc.PmepI(kappa_i=-1.0)
    with pytest.raises(ValidationError):
        sc.Gic(upsilon=float("inf"))
    # 0.99, the end of tune's default range, still picks order 1 here; from
    # kappa_ir = 1 on the rule picks it whatever the data, and PmepIr refuses 1
    assert sc.argmin_order(sc.decision_values(sc.PmepIr(kappa_ir=0.99), LOGLIKS)) == 1
    with pytest.raises(ValidationError, match="kappa_ir"):
        sc.PmepIr(kappa_ir=1.5)
    with pytest.raises(ValidationError, match="kappa_ir"):
        sc.PmepIr(kappa_ir=1e308)


@pytest.mark.parametrize("build", [
    lambda: sc.Gic(upsilon="2"),
    lambda: sc.PmepIr(kappa_ir=True),
    lambda: sc.PmepIr(kappa_ir="0.25"),
    lambda: sc.PmepI(kappa_i=float("inf")),
    lambda: sc.PmepI(kappa_i=None),
    lambda: sc.decision_values(sc.Gic(), LOGLIKS, params_per_signal="3"),
    lambda: sc.decision_values(sc.Gic(), LOGLIKS, params_per_signal=True),
    lambda: sc.decision_values(sc.Gic(), LOGLIKS, params_per_signal=float("nan")),
], ids=["gic_upsilon_str", "pmep_ir_bool", "pmep_ir_str", "pmep_i_inf", "pmep_i_none",
        "params_per_signal_str", "params_per_signal_bool", "params_per_signal_nan"])
def test_penalty_parameters_must_be_finite_numbers(build):
    # a string kappa used to escape as ValueError, an infinite kappa_i to run
    # (p_e = 1) and a boolean kappa_ir to run as 1.0; a NaN params_per_signal
    # gave all-NaN decision values, whose argmin is order 1
    with pytest.raises(ValidationError):
        build()


def test_penalty_parameters_stored_as_floats():
    assert type(sc.Gic(upsilon=3).upsilon) is float
    assert type(sc.PmepIr(kappa_ir=np.float32(0.99)).kappa_ir) is float
    assert sc.PmepI(kappa_i=3) == sc.PmepI(kappa_i=3.0)


def test_decision_values_input_validation():
    with pytest.raises(ValidationError):
        sc.decision_values(sc.Gic(), np.array([1.0, 0.5, 2.0]))  # decreasing
    with pytest.raises(ValidationError):
        sc.decision_values(sc.Gic(), np.array([-1.0, 0.5, 2.0]))  # negative


def test_argmin_order_first_occurrence():
    assert sc.argmin_order(np.array([3.0, 1.0, 1.0, 2.0])) == 2
    batch = np.array([[3.0, 1.0, 2.0], [0.5, 0.5, 0.5]])
    np.testing.assert_array_equal(sc.argmin_order(batch), [2, 1])


def test_criteria_registry_names():
    assert set(sc.CRITERIA) == {"gic", "eef", "pmep-ir", "pmep-i"}
    for name, cls in sc.CRITERIA.items():
        assert cls().name == name


def test_select_order_end_to_end(scen_0):
    strong = sc.with_snr_db(scen_0, 20.0)
    obs = sc.synthesize(strong, 3)
    result = sc.select_order(sc.Gic(), obs, sc.KNOWN_FREQ, strong)
    assert result.order == 3
    assert result.values.shape == (5,)
    assert result.criterion.name == "gic"
    assert result.approach.label == "known"


def test_select_order_rejects_bad_approach(scen_0):
    obs = sc.synthesize(scen_0, 3)
    with pytest.raises(ValidationError):
        sc.select_order(sc.Gic(), obs, object(), scen_0)
    # the ladders, below select_order, check the approach too
    with pytest.raises(ValidationError, match="Ml or Bl"):
        sc.likelihood.ladder_function(scen_0, object())


@pytest.mark.parametrize("call", [
    lambda scen, approach: sc.likelihood.ladder_function(scen, approach),
    lambda scen, approach: sc.approach_frequencies(scen, approach),
    lambda scen, approach: sc.select_order(sc.Gic(), sc.synthesize(scen, 3), approach, scen),
    lambda scen, approach: sc.collect_logliks(scen, approach, 10, 3),
    lambda scen, approach: sc.estimate(scen, [sc.Gic()], approach, 100, 3),
    lambda scen, approach: sc.tune("pmep-ir", scen, approach=approach),
    lambda scen, approach: sc.tune("pmep-ir", scen, "monte_carlo", trials=100,
                                   approach=approach),
], ids=["ladder_function", "approach_frequencies", "select_order", "collect_logliks",
        "estimate", "tune-theory", "tune-monte_carlo"])
@pytest.mark.parametrize("approach", ["known", object()], ids=["name", "object"])
def test_every_entry_point_refuses_what_is_not_an_approach(scen_0, call, approach):
    # a name of an approach is not one: each entry point raises the same
    # error, where it read an approach attribute off it before
    with pytest.raises(ValidationError, match="^approach must be an Ml or Bl instance$"):
        call(scen_0, approach)


def test_select_order_wraps_failures(scen_0):
    short = sc.Observation(samples=np.zeros(7), seed=0)
    with pytest.raises(SelectionError) as info:
        sc.select_order(sc.Gic(), short, sc.KNOWN_FREQ, scen_0)
    assert info.value.diagnostics["approach"] == "known"


def test_select_order_rejects_non_finite_values(scen_0):
    # upsilon * kappa overflows to inf, so every decision value is inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SelectionError, match="non-finite") as info:
            sc.select_order(sc.Gic(upsilon=1e308), sc.synthesize(scen_0, 3),
                            sc.KNOWN_FREQ, scen_0)
    assert np.all(np.isinf(info.value.diagnostics["values"]))


def test_select_order_propagates_programming_errors(scen_0, monkeypatch):
    # observation_logliks turns a singular Gram matrix into a
    # DegenerateStatsError, so a LinAlgError out of it is a fault, not a
    # failed selection
    for error in (TypeError, np.linalg.LinAlgError):
        def broken(*args):
            raise error("not a package error")

        monkeypatch.setattr(sc.criteria, "observation_logliks", broken)
        with pytest.raises(error, match="not a package error"):
            sc.select_order(sc.Gic(), sc.synthesize(scen_0, 1), sc.KNOWN_FREQ, scen_0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=2,
                max_size=8))
def test_penalty_orderings_property(increments):
    logliks = np.cumsum(np.asarray(increments))
    gic2 = sc.decision_values(sc.Gic(upsilon=2.0), logliks)
    gic4 = sc.decision_values(sc.Gic(upsilon=4.0), logliks)
    # heavier penalty never selects a larger order
    assert sc.argmin_order(gic4) <= sc.argmin_order(gic2)
