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
from .likelihood import KNOWN_FREQ, approach_frequencies, refine_maxima
from .montecarlo import any_decided, checked_trials, collect_logliks, decided_ladders
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
    logliks = decided_ladders(collect_logliks(scenario, approach, trials, master_seed))
    any_decided(logliks.shape[0])
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
    optionally refines the best point in its bracket with the ML search's
    refiner on the negated objective, to (hi - lo) * 1e-4 (3 grid points at
    least); a one-point range is a one-point grid.  Both objectives use the
    approach's frequencies (known frequencies by default); the theory
    objective has no ML laws, and the Monte Carlo one decides estimate's
    trials, all of collect_logliks' ladders held.  Every setting is checked
    under either objective: refine is a bool, grid_points a nonnegative
    integer, trials at least montecarlo's floor and master_seed a
    nonnegative integer.  The result is flagged against scenario_consistency.
    """
    name = _family_name(family)
    if not isinstance(refine, bool):
        raise ValidationError(f"refine must be True or False, got {refine!r}")
    checked_trials(trials)
    nonneg_int(master_seed, "master_seed")
    grid_points = nonneg_int(grid_points, "grid_points")
    pair = _FAMILIES[name][1] if search_range is None else search_range
    if not (isinstance(pair, (tuple, list, np.ndarray)) and len(pair) == 2):
        raise ValidationError(f"search_range must be a pair (lo, hi), got {pair!r}")
    lo, hi = (finite_float(v, f"search_range[{j}]") for j, v in enumerate(pair))
    if lo > hi:
        raise ValidationError(f"empty search range ({lo}, {hi})")
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
            (k,), (v,) = refine_maxima(lambda rows, points: -np.array([fun(p) for p in points]),
                                       grid, -vals[None], (hi - lo) * 1e-4)
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
