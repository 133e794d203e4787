"""Exception types shared across the package, and the integer, number and
object-key checks that raise them."""

import math
import numbers


class SincountError(Exception):
    """Base class for all package errors."""


class ValidationError(SincountError):
    """Invalid user input (bad scenario, out-of-band frequency, bad config)."""


class DegenerateStatsError(SincountError):
    """Sufficient statistics are numerically singular."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class QuadratureError(SincountError):
    """Quadrature failed to reach the requested tolerance."""

    def __init__(self, message, estimate=None, achieved_error=None):
        super().__init__(message)
        self.estimate = estimate
        self.achieved_error = achieved_error


def nonneg_int(value, name):
    """value as an int; a ValidationError naming it unless it is a
    nonnegative integer (bool and integral floats are not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValidationError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


def finite_float(value, name):
    """value as a float; a ValidationError naming it unless it is a finite
    real number (bool and numeric strings are not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def checked_keys(node, path, allowed=None):
    """node unchanged; a ValidationError naming path unless it is an object
    (a dict), or naming path.key for a key not in allowed (None: any key)."""
    if not isinstance(node, dict):
        raise ValidationError(f"{path or 'config'} must be an object, got {node!r}")
    for key in node:
        if allowed is not None and key not in allowed:
            raise ValidationError(f"{path + '.' if path else ''}{key}: unknown key")
    return node


class ModelViolationError(SincountError):
    """A modeling assumption (e.g. signal orthogonality) fails its check."""


class SelectionError(SincountError):
    """Order selection failed; carries partial diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics
