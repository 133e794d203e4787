"""Tuning of the PMEP penalty parameters.

The design procedure picks the tuning parameter of a consistent criterion
family by minimizing an error objective: either the theoretical abridged
error probability (cheap, known-frequency laws) or the Monte Carlo error
probability.  The Monte Carlo objective reuses a single set of trials for
every candidate value (common random numbers), so the two objectives can
be compared on the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import PmepI, PmepIr, argmin_order
from .errors import ValidationError, finite_float, nonneg_int
from .likelihood import KNOWN_FREQ, approach_frequencies
from .montecarlo import trial_ladders
from .theory import (abridged_pmep_i, abridged_pmep_ir, component_dists,
                     scenario_consistency)

# each family's name: its criterion, whose one parameter is the one tuned,
# and its default search range
_FAMILIES = {"pmep-ir": (PmepIr, (0.01, 1.0)), "pmep-i": (PmepI, (1.0, 12.0))}
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


def _family_name(family):
    name = family.lower() if isinstance(family, str) else None
    if name not in _FAMILIES:
        raise ValidationError(f"family must be the name pmep-ir or pmep-i, got {family!r}")
    return name


def _theory_objective(scenario, name, approach):
    dists = component_dists(scenario, mode="ql",
                            frequencies=approach_frequencies(scenario, approach))
    formula = abridged_pmep_ir if name == "pmep-ir" else abridged_pmep_i

    def objective(kappa):
        return formula(dists, float(kappa)).p_a

    return objective


def _mc_objective(scenario, name, approach, trials, master_seed):
    logliks, _ = trial_ladders(scenario, approach, trials, master_seed)
    criterion, nu0, pps = _FAMILIES[name][0], scenario.nu0, approach.params_per_signal

    def objective(kappa):
        values = criterion(float(kappa)).values(logliks, params_per_signal=pps)
        return 1.0 - float(np.mean(argmin_order(values) == nu0))

    return objective


def tune(family, scenario, objective="abridged_theory", search_range=None,
         grid_points=32, refine=True, trials=100000, master_seed=7,
         approach=KNOWN_FREQ):
    """Minimize an error objective over the family's tuning parameter.

    family is the name "pmep-ir" or "pmep-i", not an instance: its parameter
    is the one tuned.  Scans a grid of grid_points values over search_range,
    a pair of finite numbers (the family's default range when None), then
    optionally refines the best bracket by bounded scalar minimization; a
    one-point range is a one-point grid.  Both objectives use the approach's
    frequencies (known frequencies by default); the theory objective has no
    ML laws, and the Monte Carlo one decides the trials of
    montecarlo.trial_ladders.  The result is flagged against
    theory.scenario_consistency.
    """
    name = _family_name(family)
    pair = _FAMILIES[name][1] if search_range is None else search_range
    if not (isinstance(pair, (tuple, list, np.ndarray)) and len(pair) == 2):
        raise ValidationError(f"search_range must be a pair (lo, hi), got {pair!r}")
    lo, hi = (finite_float(v, f"search_range[{j}]") for j, v in enumerate(pair))
    if lo > hi:
        raise ValidationError(f"empty search range ({lo}, {hi})")
    if lo < hi and nonneg_int(grid_points, "grid_points") < 2:
        raise ValidationError(f"grid_points must be >= 2 on ({lo}, {hi}), got {grid_points}")
    if objective == "abridged_theory":
        fun = _theory_objective(scenario, name, approach)
    elif objective == "monte_carlo":
        fun = _mc_objective(scenario, name, approach, trials, master_seed)
    else:
        raise ValidationError(f"unknown objective {objective!r}")

    grid = np.linspace(lo, hi, grid_points) if lo < hi else np.array([lo])
    vals = np.array([fun(k) for k in grid])
    trace = np.column_stack([grid, vals])
    flat = lo < hi and float(vals.max() - vals.min()) <= _FLAT_TOL * max(
        1.0, abs(float(vals.mean())))
    if flat:
        best_k = float(0.5 * (lo + hi))
        best_v = float(fun(best_k))
    else:
        j = int(np.argmin(vals))
        best_k, best_v = float(grid[j]), float(vals[j])
        if refine and lo < hi:
            # imported here: scipy.optimize serves only this refinement
            from scipy.optimize import minimize_scalar

            blo = float(grid[max(j - 1, 0)])
            bhi = float(grid[min(j + 1, grid.size - 1)])
            res = minimize_scalar(fun, bounds=(blo, bhi), method="bounded",
                                  options={"xatol": (hi - lo) * 1e-4})
            if res.fun <= best_v:
                best_k, best_v = float(res.x), float(res.fun)

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
