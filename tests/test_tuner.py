import json

import numpy as np
import pytest

import sincount as sc
from oracles import golden_refine, inject_ladders, mc_objective_whole_set, traced_peak_mb
from sincount import montecarlo, theory, tuner
from sincount.criteria import checked_ladders
from sincount.distributions import integrate
from sincount.errors import ValidationError


def test_theory_objective_inverse_random_family(scen_m4):
    result = sc.tune("pmep-ir", scen_m4, grid_points=9,
                     search_range=(0.1, 0.5))
    assert 0.1 <= result.kappa_opt <= 0.5
    assert result.objective == "abridged_theory"
    assert 0.0 < result.objective_value < 0.1
    assert result.consistency_ok
    assert not result.flat
    assert len(result.search_trace) >= 9
    values = [v for _, v in result.search_trace]
    # refinement can only improve on the grid scan
    assert result.objective_value <= min(values) + 1e-12


def test_family_rejects_spec_instance(scen_m4):
    # only the family's name: an instance used to be taken for its name, and
    # the parameter it holds (0.3 here) was never read
    with pytest.raises(ValidationError, match="family"):
        sc.tune(sc.PmepIr(0.3), scen_m4, grid_points=5,
                search_range=(0.2, 0.3), refine=False)
    assert sc.tune("PMEP-IR", scen_m4, grid_points=5, search_range=(0.2, 0.3),
                   refine=False).family == "pmep-ir"


def test_unknown_family_rejected(scen_m4):
    with pytest.raises(ValidationError):
        sc.tune("gic", scen_m4)
    with pytest.raises(ValidationError):
        sc.tune("nope", scen_m4)


def test_unknown_objective_rejected(scen_m4):
    with pytest.raises(ValidationError):
        sc.tune("pmep-ir", scen_m4, objective="exhaustive")


def test_reversed_range_rejected(scen_m4):
    with pytest.raises(ValidationError, match="empty search range"):
        sc.tune("pmep-ir", scen_m4, search_range=(0.5, 0.1))


@pytest.mark.parametrize("family,search_range,match", [
    ("pmep-i", (1.0, np.inf), r"search_range\[1\] must be a finite number"),
    ("pmep-ir", (-np.inf, 0.5), r"search_range\[0\] must be a finite number"),
    ("pmep-ir", (np.nan, 0.5), r"search_range\[0\] must be a finite number"),
    ("pmep-ir", ("0.1", 0.5), r"search_range\[0\] must be a finite number"),
    ("pmep-ir", (0.1, 0.3, 0.5), "search_range must hold 2 numbers, got 3"),
    ("pmep-ir", 0.3, "search_range must be a nonempty list of numbers"),
], ids=["inf_hi", "minus_inf_lo", "nan_lo", "str_lo", "three_values", "scalar"])
def test_non_finite_or_malformed_range_rejected(scen_m4, family, search_range, match):
    # an infinite end used to reach the grid as a NaN (RuntimeWarning, then a
    # kappa error), a NaN end read as an empty range, a 3-tuple failed to unpack
    with pytest.raises(ValidationError, match=match):
        sc.tune(family, scen_m4, search_range=search_range)


@pytest.mark.parametrize("objective", ["abridged_theory", "monte_carlo"])
@pytest.mark.parametrize("family, search_range, message", [
    ("pmep-ir", (0.5, 1.5), r"kappa_ir must be in \(0, 1\), got 1.5"),
    ("pmep-ir", (0.0, 0.5), r"kappa_ir must be in \(0, 1\), got 0.0"),
    ("pmep-i", (-1.0, 3.0), "kappa_i must be positive, got -1.0"),
    ("pmep-i", (0.0, 3.0), "kappa_i must be positive, got 0.0")],
    ids=["ir_above_1", "ir_from_0", "i_negative", "i_from_0"])
def test_range_outside_the_parameter_domain_rejected_before_any_objective_call(
        monkeypatch, scen_m4, objective, family, search_range, message):
    # (0.5, 1.5) used to run the grid's first points and then fail with
    # "kappa_ir must be in (0, 1], got 1.5"
    calls = []
    for name in ("_theory_objective", "_mc_objective"):
        monkeypatch.setattr(tuner, name, lambda *args: calls.append(args))
    lo, hi = search_range
    with pytest.raises(ValidationError,
                       match=rf"search_range \({lo}, {hi}\) for {family}: {message}$"):
        sc.tune(family, scen_m4, objective=objective, search_range=search_range,
                grid_points=3)
    assert calls == []


def test_theory_objective_batch_is_the_formula_within_its_errors(scen_m4):
    # one quadrature for every kappa of the call: each value lies within the
    # batch's and the single call's errors of abridged_pmep_ir
    kappas = np.linspace(0.05, 0.6, 12)
    batch = tuner._theory_objective(scen_m4, "pmep-ir", sc.KNOWN_FREQ)(kappas)
    reports = theory._pmep_ir_reports(sc.component_dists(scen_m4), kappas)
    assert batch.tolist() == [report.p_a for report in reports]
    for kappa, report in zip(kappas, reports):
        single = sc.abridged_pmep_ir(sc.component_dists(scen_m4), kappa)
        assert abs(report.p_a - single.p_a) <= report.error + single.error
        assert type(report.p_a) is float and type(report.error) is float


def test_theory_objective_is_one_quadrature_per_call(monkeypatch, scen_m4):
    # the grid is one integrate call, and so is each refinement round
    batches, integrals = [], []
    make_objective = tuner._theory_objective

    def counted_objective(*args):
        objective = make_objective(*args)

        def counted(kappas):
            batches.append(len(kappas))
            return objective(kappas)

        return counted

    def counted_integrate(*args):
        integrals.append(args)
        return integrate(*args)

    monkeypatch.setattr(tuner, "_theory_objective", counted_objective)
    monkeypatch.setattr(theory, "integrate", counted_integrate)
    sc.tune("pmep-ir", scen_m4, search_range=(0.05, 0.6), grid_points=12)
    assert batches[0] == 12 and len(batches) >= 3
    assert len(integrals) == len(batches)


def test_single_point_range(scen_m4):
    result = sc.tune("pmep-ir", scen_m4, search_range=(0.25, 0.25))
    assert result.kappa_opt == 0.25
    assert len(result.search_trace) == 1
    assert not result.flat


@pytest.mark.parametrize("grid_points", [0, 1, 4.0])
def test_grid_needs_two_integer_points(scen_m4, grid_points):
    # 0 used to end in numpy's zero-size argmin ValueError, 1 in a flat "optimum"
    # at the range midpoint
    with pytest.raises(ValidationError, match="grid_points"):
        sc.tune("pmep-i", scen_m4, grid_points=grid_points, search_range=(0.01, 1.0))


@pytest.mark.parametrize("family, search_range, grid_points",
                         [("pmep-ir", (0.05, 0.6), 12), ("pmep-i", (1.5, 5.0), 8)])
def test_refinement_matches_golden_rule(scen_m4, family, search_range, grid_points):
    # the golden rule on the same grid values: at the same tolerance the
    # refined kappa lies within it of the golden kappa, and at a 1000 times
    # finer one, which finds the minimum, within half of it, as the
    # bracketing certificate promises.  A point d from the minimum sits
    # about (c / 2) d^2 above it, c the objective's curvature, here near its
    # grid second difference; at d = tol / 2 that is 2.5e-9 and 1.6e-9, so
    # the objective is held to that above the golden value.  It is 8.3e-11
    # and 9.3e-12 above the minimum (the golden rule's 2.0e-11 and 5.7e-13)
    lo, hi = search_range
    tol = (hi - lo) * 1e-4
    result = sc.tune(family, scen_m4, search_range=search_range, grid_points=grid_points)
    objective = tuner._theory_objective(scen_m4, family, sc.KNOWN_FREQ)
    grid, vals = result.search_trace.T

    def golden(refine_tol):
        (k,), (v,) = golden_refine(lambda rows, points: -objective(points), grid, -vals[None],
                                   refine_tol)
        return k, -v

    golden_k, golden_v = golden(tol)
    j, step = np.argmin(vals), grid[1] - grid[0]
    rise = (vals[j - 1] - 2.0 * vals[j] + vals[j + 1]) / step**2 / 2.0 * (tol / 2.0) ** 2
    assert abs(result.kappa_opt - golden_k) <= tol
    assert result.objective_value <= golden_v + rise
    assert abs(result.kappa_opt - golden(tol * 1e-3)[0]) <= tol / 2.0
    assert result.objective_value <= vals.min()


def test_refinement_needs_three_grid_points(scen_m4):
    # the refiner's first parabola runs through three grid points; two used
    # to refine across the whole range, to kappa 0.25991 here
    with pytest.raises(ValidationError, match="grid_points must be >= 3 to refine"):
        sc.tune("pmep-ir", scen_m4, grid_points=2, search_range=(0.2, 0.3))
    result = sc.tune("pmep-ir", scen_m4, grid_points=2, search_range=(0.2, 0.3), refine=False)
    assert list(result.search_trace[:, 0]) == [0.2, 0.3]
    assert sc.tune("pmep-ir", scen_m4, grid_points=2, search_range=(0.25, 0.25)).kappa_opt == 0.25


@pytest.mark.parametrize("refine", ["no", 1, None, np.True_],
                         ids=["str", "int", "none", "numpy_bool"])
def test_refine_must_be_a_bool(scen_m4, refine):
    # read by truthiness before, so refine="no" refined
    with pytest.raises(ValidationError, match="refine must be True or False"):
        sc.tune("pmep-ir", scen_m4, grid_points=5, search_range=(0.2, 0.3), refine=refine)


@pytest.mark.parametrize("grid_points", ["x", -1, 2.0])
def test_grid_points_checked_on_a_one_point_range(scen_m4, grid_points):
    # a one-point range never builds a grid, and used to take any grid_points
    with pytest.raises(ValidationError, match="grid_points must be a nonnegative integer"):
        sc.tune("pmep-ir", scen_m4, grid_points=grid_points, search_range=(0.25, 0.25))


@pytest.mark.parametrize("objective", ["abridged_theory", "monte_carlo"])
@pytest.mark.parametrize("setting, match", [
    ({"trials": -5}, "trials must be a nonnegative integer"),
    ({"trials": 50}, "need at least 100 trials, got 50$"),
    ({"trials": 1e5}, "trials must be a nonnegative integer"),
    ({"master_seed": -1}, "master_seed must be a nonnegative integer"),
    ({"master_seed": "7"}, "master_seed must be a nonnegative integer"),
], ids=["trials_negative", "trials_below_floor", "trials_float", "seed_negative", "seed_str"])
def test_trials_and_seed_checked_under_both_objectives(scen_m4, objective, setting, match):
    # the theory objective never reads them, and used to take trials=-5
    with pytest.raises(ValidationError, match=match):
        sc.tune("pmep-ir", scen_m4, objective=objective, grid_points=5,
                search_range=(0.2, 0.3), **setting)


def test_monte_carlo_objective_leaves_out_degenerate_trials_as_estimate_does(monkeypatch):
    # a NaN ladder is a degenerate trial: estimate() decides no order for it,
    # and the objective must not count it as an error either
    scen = sc.standard_scenario(0.0)
    logliks = sc.collect_logliks(scen, sc.KNOWN_FREQ, 2000, 3)
    logliks[::10] = np.nan
    inject_ladders(monkeypatch, logliks)
    for kappa in (2.0, 3.0, 4.0):
        tuned = sc.tune("pmep-i", scen, objective="monte_carlo", search_range=(kappa, kappa),
                        trials=2000, master_seed=3)
        (report,) = sc.estimate(scen, [sc.PmepI(kappa_i=kappa)], sc.KNOWN_FREQ, 2000, 3)
        assert report.trials == 1800
        assert tuned.objective_value == report.p_e
    logliks[:] = np.nan
    with pytest.raises(ValidationError, match="all trials degenerated"):
        sc.tune("pmep-i", scen, objective="monte_carlo", search_range=(3.0, 3.0),
                trials=2000, master_seed=3)
    with pytest.raises(ValidationError, match="all trials degenerated"):
        sc.estimate(scen, [sc.PmepI()], sc.KNOWN_FREQ, 2000, 3)


def test_ladder_set_is_checked_once_per_estimate_and_per_tune(monkeypatch, scen_m4):
    # estimate checks each block of the trial loop as it comes, and each
    # pass of tune's Monte Carlo objective is one estimate: each row is
    # checked exactly once per pass
    calls, passes = [], []

    def counted(logliks):
        calls.append(logliks.shape)
        return checked_ladders(logliks)

    def estimate(*args):
        passes.append(args)
        return montecarlo.estimate(*args)

    monkeypatch.setattr(montecarlo, "checked_ladders", counted)
    monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", 64 * 8 * scen_m4.n_samples)
    monkeypatch.setattr(tuner, "estimate", estimate)
    specs = [sc.Gic(), sc.Eef(), sc.PmepIr(0.25), sc.PmepI(3.0)]
    sc.estimate(scen_m4, specs, sc.KNOWN_FREQ, 300, 3)
    one_pass = [(64, scen_m4.max_order)] * 4 + [(44, scen_m4.max_order)]
    assert calls == one_pass
    calls.clear()
    sc.tune("pmep-ir", scen_m4, objective="monte_carlo", grid_points=5, trials=300,
            master_seed=3)
    assert len(passes) >= 2
    assert calls == one_pass * len(passes)
    # a ladder that falls is still refused, by estimate and by the objective
    logliks = sc.collect_logliks(scen_m4, sc.KNOWN_FREQ, 300, 3)
    logliks[7, -1] = logliks[7, -2] - 1.0
    inject_ladders(monkeypatch, logliks)
    with pytest.raises(ValidationError, match="nondecreasing"):
        sc.estimate(scen_m4, specs, sc.KNOWN_FREQ, 300, 3)
    with pytest.raises(ValidationError, match="nondecreasing"):
        sc.tune("pmep-ir", scen_m4, objective="monte_carlo", trials=300, master_seed=3)


@pytest.mark.parametrize("family, snr_db, approach, settings, nan_rows", [
    ("pmep-i", -4.0, sc.KNOWN_FREQ, {"trials": 20000}, False),
    ("pmep-ir", -4.0, sc.KNOWN_FREQ, {"trials": 20000, "refine": False}, False),
    ("pmep-ir", -4.0, sc.Bl(0.01), {"trials": 5000, "grid_points": 12}, False),
    pytest.param("pmep-i", -4.0, sc.Ml(grid_points=64), {"trials": 1000, "grid_points": 9},
                 False, marks=pytest.mark.one_blas_thread),
    ("pmep-ir", 20.0, sc.KNOWN_FREQ, {"trials": 300, "grid_points": 5, "master_seed": 1,
                                      "search_range": (0.15, 0.35), "refine": False}, False),
    ("pmep-i", 0.0, sc.KNOWN_FREQ, {"trials": 2000, "grid_points": 9,
                                    "search_range": (2.0, 4.0)}, True),
], ids=["known_refined", "known", "bl", "ml", "flat", "degenerate"])
def test_monte_carlo_objective_matches_the_whole_set_oracle(monkeypatch, family, snr_db,
                                                            approach, settings, nan_rows):
    # each objective call is one estimate over the block loop; the oracle
    # holds every trial's ladder and applies each kappa to the whole set.
    # With nan_rows, every tenth ladder is a degenerate trial's NaN row
    scen = sc.standard_scenario(snr_db)
    settings = dict({"master_seed": 3}, **settings)
    if nan_rows:
        logliks = sc.collect_logliks(scen, approach, settings["trials"], 3)
        logliks[::10] = np.nan
        inject_ladders(monkeypatch, logliks)

    def tuned():
        result = sc.tune(family, scen, objective="monte_carlo", approach=approach, **settings)
        return result.to_dict(), result.search_trace.tobytes()

    streamed = tuned()
    monkeypatch.setattr(tuner, "_mc_objective", mc_objective_whole_set)
    assert tuned() == streamed
    assert streamed[0]["flat"] == (snr_db == 20.0)


def test_monte_carlo_tune_memory_holds_no_trial_set():
    # a pass holds one block of the trial loop and, per grid value, two
    # indicator bits a trial; holding every trial's ladder grew by 160
    # bytes a trial
    def peak(trials):
        return traced_peak_mb(sc.tune, "pmep-i", sc.standard_scenario(-4.0), "monte_carlo",
                              (2.0, 4.0), 9, False, trials)

    small, large = peak(50000), peak(200000)
    assert large - small <= (150000 * 9 * 2 / 8 + 0.25e6) / 1e6
    assert large <= (2 * montecarlo._BLOCK_BYTES + 1e6) / 1e6


@pytest.mark.parametrize("trials", [0, 5, 99, 100])
def test_monte_carlo_objective_needs_the_trials_estimate_needs(scen_m4, trials):
    def tuned():
        return sc.tune("pmep-i", scen_m4, objective="monte_carlo", search_range=(3.0, 3.0),
                       trials=trials, master_seed=3)

    def estimated():
        return sc.estimate(scen_m4, [sc.PmepI(kappa_i=3.0)], sc.KNOWN_FREQ, trials, 3)

    if trials < 100:
        for run in (tuned, estimated):
            with pytest.raises(ValidationError, match=f"need at least 100 trials, got {trials}$"):
                run()
    else:
        assert tuned().objective_value == estimated()[0].p_e


def test_monte_carlo_objective(scen_m4):
    result = sc.tune("pmep-ir", scen_m4, objective="monte_carlo",
                     grid_points=5, search_range=(0.15, 0.35), refine=False,
                     trials=2000, master_seed=3)
    assert 0.15 <= result.kappa_opt <= 0.35
    assert result.objective == "monte_carlo"
    assert 0.0 <= result.objective_value < 0.2


def test_flat_objective_flagged():
    # far above threshold every trial succeeds for any kappa in range:
    # the sweep is exactly flat and the midpoint is reported
    scen = sc.standard_scenario(20.0)
    result = sc.tune("pmep-ir", scen, objective="monte_carlo", grid_points=5,
                     search_range=(0.15, 0.35), refine=False, trials=300,
                     master_seed=1)
    assert result.flat
    assert result.kappa_opt == pytest.approx(0.25, rel=1e-12)


def test_result_to_dict_json(scen_m4):
    result = sc.tune("pmep-i", scen_m4, grid_points=3, search_range=(2.5, 3.5),
                     refine=False)
    doc = json.loads(json.dumps(result.to_dict()))
    assert doc["family"] == "pmep-i"
    assert doc["consistency_ok"] is True
    assert len(doc["search_trace"]) == 3
