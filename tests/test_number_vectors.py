"""errors.finite_floats, the one reader of a vector of numbers from outside
the program, and every site that reads one through it."""

import math
import re

import numpy as np
import pytest

import sincount as sc
from sincount.errors import ValidationError, finite_floats

W = 1.25


def _envelope_scenario(key):
    def make(values):
        tone = sc.SinusoidComponent(amplitude=1.0, frequency=W, phase=0.0,
                                    band=(W - 0.3, W + 0.3), **{key: values})
        return sc.Scenario(components=(tone,), noise_level=1.0, n_samples=64)

    return make


_SCEN = sc.standard_scenario(-4.0)
_FREQS = _SCEN.all_frequencies.tolist()

# each site: the call that reads the vector, the name its errors carry, a
# vector it accepts and the count it needs (None: any count)
SITES = {
    "amplitude_envelope": (_envelope_scenario("amplitude_envelope"), "amplitude_envelope",
                           [1.0] * 64, 64),
    "phase_envelope": (_envelope_scenario("phase_envelope"), "phase_envelope", [0.0] * 64, 64),
    "band": (lambda v: sc.SinusoidComponent(amplitude=1.0, frequency=W, phase=0.0, band=v),
             "component band", [W - 0.3, W + 0.3], 2),
    "bl": (lambda v: sc.Bl(frequencies=v), "frequencies", _FREQS, None),
    "approach_frequencies": (lambda v: sc.approach_frequencies(_SCEN, sc.Bl(frequencies=v)),
                             "frequencies", _FREQS, 5),
    "plan": (lambda v: sc.FrequencyPlan.build(_SCEN, v), "frequencies", _FREQS, None),
    "component_dists": (lambda v: sc.component_dists(_SCEN, frequencies=v), "frequencies",
                        _FREQS, 5),
    "consistency_range": (lambda v: sc.consistency_range(v, 5, 3), "d_n_sq",
                          [1.0, 2.0, 3.0], 3),
    "delta_grid": (lambda v: sc.ql_sweep(_SCEN, sc.Gic(), v), "delta_grid", [0.0, 0.002],
                   None),
    "error_probs": (lambda v: sc.ql_sweep(_SCEN, sc.Gic(), [0.0, 0.002], error_probs=v),
                    "error_probs", [0.5, 0.5], 2),
    "search_range": (lambda v: sc.tune("pmep-ir", _SCEN, search_range=v), "search_range",
                     [0.2, 0.3], 2),
}


def _with(good, j, value):
    bad = list(good)
    bad[j] = value
    return bad


# each bad form of an accepted vector, and the entry its error names (None:
# the vector as a whole)
BAD = {
    "bool": (lambda g: _with(g, len(g) - 1, True), -1),
    "numeric_string": (lambda g: _with(g, 0, str(g[0])), 0),
    "nan": (lambda g: _with(g, 0, math.nan), 0),
    "inf": (lambda g: _with(g, len(g) - 1, math.inf), -1),
    "nan_array": (lambda g: np.array(_with(g, len(g) - 1, math.nan)), -1),
    "minus_inf_array": (lambda g: np.array(_with(g, 0, -math.inf)), 0),
    "empty": (lambda g: [], None),
    "scalar": (lambda g: g[0], None),
    "2d": (lambda g: np.array([g]), None),
}


@pytest.mark.parametrize("form", list(BAD))
@pytest.mark.parametrize("site", list(SITES))
def test_every_site_rejects_a_bad_vector_naming_it(site, form):
    read, name, good, _ = SITES[site]
    make, entry = BAD[form]
    values = make(good)
    if entry is not None:
        name = f"{name}[{entry % len(good)}]"
    with pytest.raises(ValidationError, match=re.escape(name)):
        read(values)


@pytest.mark.parametrize("change", ["short", "long"])
@pytest.mark.parametrize("site", [s for s, (*_, size) in SITES.items() if size is not None])
def test_every_sized_site_rejects_the_wrong_count(site, change):
    # component_dists used to build a smaller model of fewer frequencies
    read, name, good, size = SITES[site]
    wrong = good[:-1] if change == "short" else good + good[:1]
    with pytest.raises(ValidationError,
                       match=re.escape(f"{name} must hold {size} numbers, got {len(wrong)}")):
        read(wrong)


def test_reader_messages():
    with pytest.raises(ValidationError, match=r"^x must be a nonempty list of numbers, got \(\)$"):
        finite_floats((), "x")
    with pytest.raises(ValidationError, match=r"^x must hold 3 numbers, got 2$"):
        finite_floats([1.0, 2.0], "x", 3)
    with pytest.raises(ValidationError, match=r"^x\[1\] must be a finite number, got '2'$"):
        finite_floats([1.0, "2"], "x")
    with pytest.raises(ValidationError, match=r"^x\[2\] must be a finite number"):
        finite_floats(np.array([1.0, 2.0, np.inf, np.nan]), "x")
    for values in (np.array([True, False]), np.array(["1.0"]), np.array([1 + 2j]),
                   np.array([1.0, None], dtype=object), range(3), {1.0, 2.0}, "12"):
        with pytest.raises(ValidationError, match="x"):
            finite_floats(values, "x")


@pytest.mark.parametrize("values", [
    [1, 2.5, np.float32(0.1)], (1, 2.5, np.float32(0.1)),
    np.array([1, 2.5, np.float32(0.1)]), np.array([1.0, 2.5, 0.1], dtype=np.float32),
    np.array([1, 2, 3]), np.array([1, 2, 3], dtype=np.uint8),
    np.array([1.0, 2.5], dtype=object),
])
def test_reader_returns_a_fresh_float_array_of_the_same_numbers(values):
    got = finite_floats(values, "x")
    assert got.dtype == np.float64 and got.shape == (len(values),)
    assert got.tolist() == [float(v) for v in values]
    if isinstance(values, np.ndarray):
        assert not np.shares_memory(got, values)
    got[0] = -1.0
    assert float(values[0]) != -1.0

