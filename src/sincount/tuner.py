"""Tuning of the PMEP penalty parameters.

The design procedure picks the tuning parameter of a consistent criterion
family by minimizing an error objective: either the theoretical abridged
error probability (cheap, known-frequency laws) or the Monte Carlo error
probability.  Each Monte Carlo objective call is one estimate over the same
seeded trials for every candidate value (common random numbers), so the
two objectives can be compared on the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import FAMILIES
from .errors import ValidationError, finite_floats, nonneg_int
from .likelihood import KNOWN_FREQ, approach_frequencies, refine_maxima
from .montecarlo import checked_trials, estimate
from .theory import _pmep_ir_reports, abridged_pmep_i, component_dists, scenario_consistency

_FLAT_TOL = 1e-12


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one tuning run."""

    family: str
    kappa_opt: float
    objective: str
    objective_value: float
    search_trace: np.ndarray
    consistency_ok: bool
    flat: bool

    def __post_init__(self):
        arr = np.asarray(self.search_trace, dtype=float).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "search_trace", arr)

    def to_dict(self):
        return {
            "family": self.family,
            "kappa_opt": self.kappa_opt,
            "objective": self.objective,
            "objective_value": self.objective_value,
            "search_trace": [[float(k), float(v)] for k, v in self.search_trace],
            "consistency_ok": self.consistency_ok,
            "flat": self.flat,
        }


def _theory_objective(scenario, name, approach):
    dists = component_dists(scenario, mode="ql",
                            frequencies=approach_frequencies(scenario, approach))
    if name == "pmep-ir":
        def objective(kappas):
            return np.array([report.p_a for report in _pmep_ir_reports(dists, kappas)])
    else:
        def objective(kappas):
            return np.array([abridged_pmep_i(dists, float(k)).p_a for k in kappas])

    return objective


def _mc_objective(scenario, name, approach, trials, master_seed):
    criterion = FAMILIES[name][0]

    def objective(kappas):
        reports = estimate(scenario, [criterion(float(k)) for k in kappas], approach, trials,
                           master_seed)
        return np.array([report.p_e for report in reports])

    return objective


def tune(family, scenario, objective="abridged_theory", search_range=None,
         grid_points=32, refine=True, trials=100000, master_seed=7,
         approach=KNOWN_FREQ):
    """Minimize an error objective over the family's tuning parameter.

    family is the name "pmep-ir" or "pmep-i", not an instance: its parameter
    is the one tuned.  Scans a grid of grid_points values over search_range,
    a pair of finite numbers (the family's default range in
    criteria.FAMILIES when None) whose ends the family's criterion accepts,
    so that every value between lies in the parameter's domain, then
    optionally refines the best point in its bracket with the ML search's
    refiner on the negated objective, to (hi - lo) * 1e-4 (3 grid points at
    least); a one-point range is a one-point grid.  Both objectives use the
    approach's frequencies (known frequencies by default); the theory
    objective has no ML laws.  The objective is called once for the grid,
    once per refinement round and once for a flat grid's midpoint; each
    Monte Carlo call is one estimate of all its values over the same seeded
    trials, so no trial set is held and refine costs one pass of the trial
    loop per round, and each pmep-ir theory call is one quadrature of all
    its values.  Every setting is checked under either objective: refine
    is a bool, grid_points a nonnegative integer, trials at least
    montecarlo's floor and master_seed a nonnegative integer.  The result is
    flagged against scenario_consistency.
    """
    name = family.lower() if isinstance(family, str) else None
    if name not in FAMILIES:
        raise ValidationError(f"family must be one of the names {', '.join(FAMILIES)}, "
                              f"got {family!r}")
    if not isinstance(refine, bool):
        raise ValidationError(f"refine must be True or False, got {refine!r}")
    checked_trials(trials)
    nonneg_int(master_seed, "master_seed")
    grid_points = nonneg_int(grid_points, "grid_points")
    criterion, default_range = FAMILIES[name]
    lo, hi = finite_floats(default_range if search_range is None else search_range,
                           "search_range", 2).tolist()
    if lo > hi:
        raise ValidationError(f"empty search range ({lo}, {hi})")
    try:
        criterion(lo), criterion(hi)
    except ValidationError as exc:
        raise ValidationError(f"search_range ({lo}, {hi}) for {name}: {exc}") from exc
    if lo < hi and grid_points < 2:
        raise ValidationError(f"grid_points must be >= 2 on ({lo}, {hi}), got {grid_points}")
    if refine and lo < hi and grid_points < 3:
        raise ValidationError(
            f"grid_points must be >= 3 to refine on ({lo}, {hi}), got {grid_points}")
    if objective == "abridged_theory":
        fun = _theory_objective(scenario, name, approach)
    elif objective == "monte_carlo":
        fun = _mc_objective(scenario, name, approach, trials, master_seed)
    else:
        raise ValidationError(f"unknown objective {objective!r}")

    grid = np.linspace(lo, hi, grid_points) if lo < hi else np.array([lo])
    vals = fun(grid)
    trace = np.column_stack([grid, vals])
    flat = lo < hi and float(vals.max() - vals.min()) <= _FLAT_TOL * max(
        1.0, abs(float(vals.mean())))
    if flat:
        best_k = float(0.5 * (lo + hi))
        best_v = float(fun([best_k])[0])
    else:
        j = int(np.argmin(vals))
        best_k, best_v = float(grid[j]), float(vals[j])
        if refine and lo < hi:
            (k,), (v,) = refine_maxima(lambda rows, points: -fun(points), grid, -vals[None],
                                       (hi - lo) * 1e-4)
            best_k, best_v = float(k), -float(v)

    ranges = scenario_consistency(scenario)
    ok = ranges.contains_ir(best_k) if name == "pmep-ir" else ranges.contains_i(best_k)
    return TuneResult(
        family=name,
        kappa_opt=best_k,
        objective=objective,
        objective_value=best_v,
        search_trace=trace,
        consistency_ok=bool(ok),
        flat=bool(flat),
    )
