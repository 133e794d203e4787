"""Decision functions and the argmin order-selection rule.

Each criterion maps the profile log-likelihoods L_1..L_N (with L_0 = 0)
to decision values R(1)..R(N); the selected order is the argmin, ties
broken toward the smallest order.  Candidate order 0 (no signal at all)
is not part of the decision grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SelectionError, SincountError, ValidationError, finite_float
from .likelihood import checked_approach, observation_logliks


@dataclass(frozen=True)
class Gic:
    """R(nu) = -L_nu + upsilon*kappa*nu, kappa the approach's params_per_signal
    (2 at fixed frequencies, 3 searched); the default upsilon = 2 is AIC."""

    upsilon: float = 2.0

    name = "gic"

    def __post_init__(self):
        object.__setattr__(self, "upsilon", finite_float(self.upsilon, "upsilon"))

    def threshold(self, params_per_signal=2):
        """Increment threshold 2*upsilon*kappa of the abridged event."""
        return 2.0 * self.upsilon * float(params_per_signal)

    def values(self, logliks, params_per_signal=2):
        logliks = np.asarray(logliks, dtype=float)
        nus = np.arange(1, logliks.shape[-1] + 1, dtype=float)
        return -logliks + self.upsilon * float(params_per_signal) * nus


@dataclass(frozen=True)
class Eef:
    """Exponentially-embedded-family rule.

    R(nu) = -[L_nu - nu*(ln(L_nu/nu) + 1)] * H(L_nu/nu - 1), H the unit
    step, so the argmin of R maximizes the embedded-family statistic; the
    gate zeroes orders whose average increment is below 1.  values ignores
    params_per_signal: the rule divides by 2 parameters per signal (an
    amplitude and a phase) under every approach, so a searched frequency
    is not counted.
    """

    name = "eef"

    def values(self, logliks, params_per_signal=2):
        logliks = np.asarray(logliks, dtype=float)
        nus = np.arange(1, logliks.shape[-1] + 1, dtype=float)
        ratio = logliks / nus
        with np.errstate(divide="ignore", invalid="ignore"):
            stat = logliks - nus * (np.log(ratio) + 1.0)
        return np.where(ratio > 1.0, -stat, 0.0)


@dataclass(frozen=True)
class PmepIr:
    """Invariant-random penalty: R(nu) = -L_nu + kappa_ir*nu*max_i dL_i, kappa_ir
    in (0, 1]; from 1 on, R(nu) - R(nu-1) >= 0, so the rule picks order 1."""

    kappa_ir: float = 0.25

    name = "pmep-ir"

    def __post_init__(self):
        object.__setattr__(self, "kappa_ir", finite_float(self.kappa_ir, "kappa_ir"))
        if not 0 < self.kappa_ir <= 1:
            raise ValidationError(f"kappa_ir must be in (0, 1], got {self.kappa_ir}")

    def values(self, logliks, params_per_signal=2):
        logliks = np.asarray(logliks, dtype=float)
        nus = np.arange(1, logliks.shape[-1] + 1, dtype=float)
        increments = np.diff(logliks, axis=-1, prepend=0.0)
        max_inc = np.max(increments, axis=-1, keepdims=True)
        return -logliks + self.kappa_ir * nus * max_inc


@dataclass(frozen=True)
class PmepI:
    """Inverse penalty: minimize -L_nu^kappa_i / nu.

    values() returns ln(nu) - kappa_i*ln(L_nu), an increasing function of
    -L_nu^kappa_i / nu: it keeps the argmin and every comparison between
    orders, and it cannot overflow, where L^kappa does for large L.
    """

    kappa_i: float = 3.0

    name = "pmep-i"

    def __post_init__(self):
        object.__setattr__(self, "kappa_i", finite_float(self.kappa_i, "kappa_i"))
        if not self.kappa_i > 0:
            raise ValidationError("kappa_i must be positive")

    def values(self, logliks, params_per_signal=2):
        logliks = np.asarray(logliks, dtype=float)
        nus = np.arange(1, logliks.shape[-1] + 1, dtype=float)
        with np.errstate(divide="ignore"):
            log_l = np.log(np.maximum(logliks, 0.0))
        # L = 0, where -L^kappa/nu = 0 is the largest value, maps to the
        # largest finite double
        return np.minimum(np.log(nus) - self.kappa_i * log_l, np.finfo(float).max)


CRITERIA = {cls.name: cls for cls in (Gic, Eef, PmepIr, PmepI)}


def checked_ladders(logliks):
    """logliks as a float array, batched on the last axis; a ValidationError
    unless every ladder is nonnegative and nondecreasing.  Callers that apply
    several criteria to one ladder set check it once here and then call each
    spec's values()."""
    logliks = np.asarray(logliks, dtype=float)
    if np.any(logliks < -1e-9):
        raise ValidationError("log-likelihoods must be nonnegative")
    if np.any(np.diff(logliks, axis=-1) < -1e-9):
        raise ValidationError("log-likelihoods must be nondecreasing")
    return logliks


def decision_values(spec, logliks, params_per_signal=2):
    """R(1)..R(N) for one criterion; logliks may be batched (last axis)."""
    return spec.values(checked_ladders(logliks), params_per_signal=params_per_signal)


def abridged_comparisons(nu0, n_orders):
    """(under, over): the abridged error event compares order nu0 with nu0 - 1
    when nu0 >= 2 and with nu0 + 1 when nu0 < N; with neither, p_a = 0."""
    return nu0 >= 2, nu0 < n_orders


def argmin_order(values):
    """Selected order(s): argmin over the last axis, smallest on ties."""
    values = np.asarray(values, dtype=float)
    return np.argmin(values, axis=-1) + 1


@dataclass(frozen=True)
class SelectionResult:
    order: int
    values: np.ndarray
    logliks: np.ndarray
    increments: np.ndarray
    frequencies: np.ndarray
    criterion: object
    approach: object


def select_order(spec, observation, approach, scenario):
    """Pick the order minimizing the criterion's decision values.

    The log-likelihood ladder is computed once per approach (ML: greedy
    frequency search per order; BL/known: fixed frequencies) and the
    criterion is applied to it.
    """
    checked_approach(approach)
    try:
        logliks, increments, freqs = observation_logliks(observation, scenario, approach)
    except SincountError as exc:
        raise SelectionError(
            f"could not build log-likelihoods: {exc}",
            diagnostics={"approach": approach.label}) from exc
    values = decision_values(spec, logliks,
                             params_per_signal=approach.params_per_signal)
    if not np.all(np.isfinite(values)):
        raise SelectionError(
            "non-finite decision values",
            diagnostics={"logliks": logliks, "values": values})
    return SelectionResult(
        order=int(argmin_order(values)),
        values=values,
        logliks=logliks,
        increments=increments,
        frequencies=freqs,
        criterion=spec,
        approach=approach,
    )
