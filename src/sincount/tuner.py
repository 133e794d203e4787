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

from .criteria import PmepI, PmepIr, argmin_order, checked_ladders
from .errors import ValidationError, nonneg_int
from .likelihood import KNOWN_FREQ, approach_frequencies
from .montecarlo import collect_logliks, drop_degenerate, mc_trials
from .theory import (abridged_pmep_i, abridged_pmep_ir, component_dists,
                     consistency_range, residual_means)

_DEFAULT_RANGES = {"pmep-ir": (0.01, 1.0), "pmep-i": (1.0, 12.0)}
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
    name = family.lower() if isinstance(family, str) else getattr(family, "name", None)
    if name not in _DEFAULT_RANGES:
        raise ValidationError(f"family must be pmep-ir or pmep-i, got {family!r}")
    return name


def _spec_for(name, kappa):
    return PmepIr(kappa_ir=kappa) if name == "pmep-ir" else PmepI(kappa_i=kappa)


def _theory_objective(scenario, name, approach):
    dists = component_dists(scenario, mode="ql",
                            frequencies=approach_frequencies(scenario, approach))
    formula = abridged_pmep_ir if name == "pmep-ir" else abridged_pmep_i

    def objective(kappa):
        return formula(dists, float(kappa)).p_a

    return objective


def _mc_objective(scenario, name, approach, trials, master_seed):
    # the degenerate trials are left out, as estimate() leaves them out of p_e
    logliks = checked_ladders(drop_degenerate(
        collect_logliks(scenario, approach, mc_trials(trials), master_seed)))
    nu0 = scenario.nu0
    pps = approach.params_per_signal

    def objective(kappa):
        values = _spec_for(name, float(kappa)).values(logliks, params_per_signal=pps)
        return 1.0 - float(np.mean(argmin_order(values) == nu0))

    return objective


def tune(family, scenario, objective="abridged_theory", search_range=None,
         grid_points=32, refine=True, trials=100000, master_seed=7,
         approach=KNOWN_FREQ):
    """Minimize an error objective over the family's tuning parameter.

    Scans a grid over search_range, then optionally refines the best
    bracket by bounded scalar minimization.  Both objectives use the
    approach's frequencies (known frequencies by default); the theory
    objective has no ML laws.  The result is flagged against the exact
    consistency range of the scenario's true-signal noncentralities.
    """
    name = _family_name(family)
    lo, hi = search_range if search_range is not None else _DEFAULT_RANGES[name]
    if not (lo <= hi):
        raise ValidationError(f"empty search range ({lo}, {hi})")
    if lo < hi and nonneg_int(grid_points, "grid_points") < 2:
        raise ValidationError(f"grid_points must be >= 2 on ({lo}, {hi}), got {grid_points}")
    if objective == "abridged_theory":
        fun = _theory_objective(scenario, name, approach)
    elif objective == "monte_carlo":
        fun = _mc_objective(scenario, name, approach, trials, master_seed)
    else:
        raise ValidationError(f"unknown objective {objective!r}")

    if lo == hi:
        value = fun(lo)
        trace = np.array([[lo, value]])
        best_k, best_v, flat = float(lo), float(value), False
    else:
        grid = np.linspace(lo, hi, grid_points)
        vals = np.array([fun(k) for k in grid])
        trace = np.column_stack([grid, vals])
        flat = float(vals.max() - vals.min()) <= _FLAT_TOL * max(1.0, abs(float(vals.mean())))
        if flat:
            best_k = float(0.5 * (lo + hi))
            best_v = float(fun(best_k))
        else:
            j = int(np.argmin(vals))
            best_k, best_v = float(grid[j]), float(vals[j])
            if refine:
                # imported here: scipy.optimize serves only this refinement
                from scipy.optimize import minimize_scalar

                blo = float(grid[max(j - 1, 0)])
                bhi = float(grid[min(j + 1, grid.size - 1)])
                res = minimize_scalar(fun, bounds=(blo, bhi), method="bounded",
                                      options={"xatol": (hi - lo) * 1e-4})
                if res.fun <= best_v:
                    best_k, best_v = float(res.x), float(res.fun)

    _, lambdas = residual_means(scenario, scenario.all_frequencies)
    ranges = consistency_range(lambdas[:scenario.nu0], scenario.max_order,
                               scenario.nu0)
    if name == "pmep-ir":
        ok = ranges.contains_ir(best_k)
    else:
        ok = ranges.contains_i(best_k)
    return TuneResult(
        family=name,
        kappa_opt=best_k,
        objective=objective,
        objective_value=best_v,
        search_trace=trace,
        consistency_ok=bool(ok),
        flat=bool(flat),
    )
