"""Model-order selection for modulated sinusoids in white Gaussian noise.

Estimate how many sinusoidal components a noisy record contains, compare
penalty rules (information criteria and pairwise-maximized error-probability
rules), compute their abridged error probabilities in closed form, and
validate everything with seeded Monte Carlo runs.
"""

from .criteria import (CRITERIA, Eef, Gic, PmepI, PmepIr, SelectionResult,
                       argmin_order, decision_values, select_order)
from .distributions import (Dist, convolve_cdfs, integrate, ml_component_cdf,
                            nc_chisq2, nc_chisq2_sum)
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
from .theory import (AbridgedReport, BlInterval, ComponentDistSet,
                     ConsistencyRange, FrequencyErrorSweep, abridged_for,
                     abridged_gic, abridged_pmep_i, abridged_pmep_ir,
                     bl_interval, component_dists, consistency_range,
                     ql_sweep, residual_means)
from .tuner import TuneResult, tune

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
