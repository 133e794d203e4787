"""Model-order selection for modulated sinusoids in white Gaussian noise.

Estimate how many sinusoidal components a noisy record contains, compare
penalty rules (information criteria and pairwise-maximized error-probability
rules), compute their abridged error probabilities in closed form, and
validate everything with seeded Monte Carlo runs.
"""

import importlib

from .criteria import (CRITERIA, Eef, Gic, PmepI, PmepIr, SelectionResult,
                       argmin_order, decision_values, select_order)
from .errors import (DegenerateStatsError, ModelViolationError,
                     QuadratureError, SelectionError, SincountError,
                     ValidationError)
from .likelihood import (KNOWN_FREQ, Bl, FrequencyPlan, Ml,
                         approach_frequencies, basis_matrix,
                         observation_logliks)
from .montecarlo import (McReport, PairedComparison, batch_samples,
                         collect_logliks, estimate, paired_compare,
                         scenario_fingerprint, trial_seed)
from .signal_model import (CandidateTemplate, Observation, Scenario,
                           SinusoidComponent, amplitude_for_snr_db,
                           default_band, scenario_from_dict, scenario_to_dict,
                           snr_db, standard_scenario, synthesize, with_snr_db)

# the exports of the modules that load scipy, which the Monte Carlo path
# never calls: each resolves on first access, as does the module itself
_LAZY = {
    "distributions": ("Dist", "convolve_cdfs", "integrate", "ml_component_cdf",
                      "nc_chisq2", "nc_chisq2_sum"),
    "theory": ("AbridgedReport", "BlInterval", "ComponentDistSet", "ConsistencyRange",
               "FrequencyErrorSweep", "abridged_for", "abridged_gic", "abridged_pmep_i",
               "abridged_pmep_ir", "bl_interval", "component_dists", "consistency_range",
               "ql_sweep", "residual_means"),
    "tuner": ("TuneResult", "tune"),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    """A lazy export or module, imported on first access (PEP 562) and then
    held as a module attribute."""
    home = name if name in _LAZY else _LAZY_HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{home}", __name__)
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY_HOME})


__version__ = "0.1.0"

__all__ = [
    "Gic", "Eef", "PmepIr", "PmepI", "CRITERIA", "SelectionResult",
    "decision_values", "argmin_order", "select_order",
    "Dist", "nc_chisq2", "nc_chisq2_sum", "ml_component_cdf", "convolve_cdfs",
    "integrate",
    "SincountError", "ValidationError", "DegenerateStatsError",
    "QuadratureError", "ModelViolationError", "SelectionError",
    "Bl", "Ml", "KNOWN_FREQ", "FrequencyPlan", "basis_matrix",
    "approach_frequencies", "observation_logliks",
    "McReport", "PairedComparison", "trial_seed", "batch_samples",
    "collect_logliks", "estimate", "paired_compare", "scenario_fingerprint",
    "SinusoidComponent", "CandidateTemplate", "Observation", "Scenario",
    "synthesize", "standard_scenario", "with_snr_db", "default_band",
    "snr_db", "amplitude_for_snr_db", "scenario_to_dict", "scenario_from_dict",
    "ComponentDistSet", "AbridgedReport", "ConsistencyRange",
    "FrequencyErrorSweep", "BlInterval", "residual_means", "component_dists",
    "abridged_gic", "abridged_pmep_ir", "abridged_pmep_i", "abridged_for",
    "consistency_range", "ql_sweep", "bl_interval",
    "TuneResult", "tune",
]
