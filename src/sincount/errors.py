"""Exception types shared across the package, the integer, number,
number-vector and object-key checks that raise them, and the reader that
builds an object from a config dict through those checks.  finite_floats
is the one reader of a vector of numbers that comes from outside the
program (a frequency set, an envelope, a grid, a config list)."""

import inspect
import math
import numbers

import numpy as np


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


def finite_floats(values, name, size=None):
    """values as a fresh 1-d float64 array; a ValidationError naming it
    unless it is a nonempty list, tuple or 1-d ndarray (of exactly size
    entries when size is given), or naming name[j] for its first entry that
    finite_float rejects."""
    if not (isinstance(values, (list, tuple)) or
            isinstance(values, np.ndarray) and values.ndim == 1) or len(values) == 0:
        raise ValidationError(f"{name} must be a nonempty list of numbers, got {values!r}")
    if size is not None and len(values) != size:
        raise ValidationError(f"{name} must hold {size} numbers, got {len(values)}")
    return np.array([finite_float(v, f"{name}[{j}]") for j, v in enumerate(values)])


def checked_keys(node, path, allowed=None):
    """node unchanged; a ValidationError naming path unless it is an object
    (a dict), or naming path.key for a key not in allowed (None: any key)."""
    if not isinstance(node, dict):
        raise ValidationError(f"{path or 'config'} must be an object, got {node!r}")
    for key in node:
        if allowed is not None and key not in allowed:
            raise ValidationError(f"{path + '.' if path else ''}{key}: unknown key")
    return node


def from_dict(make, node, path, **parse):
    """make(**node): node's keys must be parameters of make's signature (a
    dataclass's init fields), those without a default are required, and the
    values of the keys in parse go through parse[key](value, key path)
    first, in signature order; errors name the key path, which for the root
    path "" is the key alone.  A maker without parameters rejects every key."""
    params = inspect.signature(make).parameters
    checked_keys(node, path, params)
    prefix = f"{path}." if path else ""
    for name, param in params.items():
        if param.default is param.empty and name not in node:
            raise ValidationError(f"{prefix}{name}: required")
    kwargs = {k: parse[k](node[k], prefix + k) if k in parse else node[k]
              for k in params if k in node}
    try:
        return make(**kwargs)
    except ValidationError as exc:
        if not path:
            raise
        raise ValidationError(f"{path}: {exc}") from exc


class ModelViolationError(SincountError):
    """A modeling assumption (e.g. signal orthogonality) fails its check."""


class SelectionError(SincountError):
    """Order selection failed; carries partial diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics
