"""Ground-truth signal description and synthesis of noisy observations.

The observed data are N_s real samples

    x(t) = sum_i a_i f_i(t) cos(w_i t - phi_i + Psi_i(t)) + sigma0 n(t),

t = 1..N_s, with n(t) iid standard Gaussian.  A Scenario bundles the true
components (first nu0 candidate slots) with templates for the remaining
candidate orders up to max_order.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from functools import partial

import numpy as np

from .errors import ValidationError, checked_keys, finite_float, nonneg_int

TWO_PI = 2.0 * math.pi


def _as_envelope(seq, n_samples, name):
    if seq is None:
        return None
    try:
        arr = np.asarray(seq, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a sequence of numbers: {exc}") from None
    if arr.ndim != 1 or arr.shape[0] != n_samples:
        raise ValidationError(
            f"{name} must be a 1-d sequence of length {n_samples}, got shape {arr.shape}"
        )
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _check_slot(slot, label):
    """Store the slot's frequency and band as floats, the band as an open
    interval (lo, hi) that contains the frequency."""
    frequency = finite_float(slot.frequency, f"{label} frequency")
    try:
        lo, hi = slot.band
    except (TypeError, ValueError):
        raise ValidationError(f"{label}: band must be a pair [lo, hi], got {slot.band!r}") from None
    lo, hi = finite_float(lo, f"{label} band"), finite_float(hi, f"{label} band")
    if not (lo < hi):
        raise ValidationError(f"{label}: band ({lo}, {hi}) is empty")
    if not (lo < frequency < hi):
        raise ValidationError(
            f"{label}: frequency {frequency} outside open band ({lo}, {hi})"
        )
    object.__setattr__(slot, "frequency", frequency)
    object.__setattr__(slot, "band", (lo, hi))


@dataclass(frozen=True)
class SinusoidComponent:
    """One modulated sinusoid: amplitude, frequency (rad/sample), phase,
    a priori frequency band, and optional envelopes f_i(t), Psi_i(t).

    Envelopes default to None, meaning f = 1 and Psi = 0 (plain tone).
    """

    amplitude: float
    frequency: float
    phase: float
    band: tuple
    amplitude_envelope: np.ndarray | None = None
    phase_envelope: np.ndarray | None = None

    def __post_init__(self):
        amplitude = finite_float(self.amplitude, "amplitude")
        if not amplitude > 0:
            raise ValidationError(f"amplitude must be positive, got {amplitude}")
        phase = finite_float(self.phase, "phase")
        if not (0.0 <= phase < TWO_PI):
            raise ValidationError(f"phase must lie in [0, 2*pi), got {phase}")
        object.__setattr__(self, "amplitude", amplitude)
        object.__setattr__(self, "phase", phase)
        _check_slot(self, "component")


@dataclass(frozen=True)
class CandidateTemplate:
    """Frequency slot for a candidate order above nu0: nominal frequency,
    band, optional envelopes (None = plain tone)."""

    frequency: float
    band: tuple
    amplitude_envelope: np.ndarray | None = None
    phase_envelope: np.ndarray | None = None

    def __post_init__(self):
        _check_slot(self, "candidate")


@dataclass(frozen=True)
class Observation:
    """Observed samples plus the noise seed that produced them."""

    samples: np.ndarray
    seed: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)


@dataclass(frozen=True)
class Scenario:
    """Full experiment description.

    components hold the nu0 true sinusoids; extra_candidates supply the
    nominal frequencies/bands for candidate orders nu0+1..max_order.
    noise_level = 0 is accepted as a noiseless override for tests.
    """

    components: tuple
    noise_level: float
    n_samples: int
    max_order: int
    noise_known: bool = True
    extra_candidates: tuple = ()

    def __post_init__(self):
        comps = tuple(self.components)
        extras = tuple(self.extra_candidates)
        if len(comps) < 1:
            raise ValidationError("scenario needs at least one component")
        if not all(isinstance(c, SinusoidComponent) for c in comps):
            raise ValidationError("components must be SinusoidComponent instances")
        if not all(isinstance(c, CandidateTemplate) for c in extras):
            raise ValidationError("extra_candidates must be CandidateTemplate instances")
        noise_level = finite_float(self.noise_level, "noise_level")
        if noise_level < 0:
            raise ValidationError(f"noise_level must be >= 0, got {noise_level}")
        if not isinstance(self.noise_known, bool):
            # bool("false") is true: a string would silently mean known noise
            raise ValidationError(f"noise_known must be true or false, got {self.noise_known!r}")
        nonneg_int(self.n_samples, "n_samples")
        nonneg_int(self.max_order, "max_order")
        if self.max_order < len(comps):
            raise ValidationError(
                f"max_order {self.max_order} below component count {len(comps)}"
            )
        if self.n_samples < 2 * self.max_order:
            raise ValidationError(
                f"n_samples {self.n_samples} < 2*max_order {2 * self.max_order}"
            )
        if len(extras) != self.max_order - len(comps):
            raise ValidationError(
                f"need {self.max_order - len(comps)} extra candidate templates, got {len(extras)}"
            )
        object.__setattr__(self, "noise_level", noise_level)
        object.__setattr__(self, "components", tuple(self._checked(c) for c in comps))
        object.__setattr__(self, "extra_candidates", tuple(self._checked(c) for c in extras))

    def _checked(self, slot):
        """The slot with its envelopes as read-only float arrays of length n_samples."""
        return replace(
            slot,
            amplitude_envelope=_as_envelope(
                slot.amplitude_envelope, self.n_samples, "amplitude_envelope"),
            phase_envelope=_as_envelope(slot.phase_envelope, self.n_samples, "phase_envelope"),
        )

    @property
    def nu0(self):
        return len(self.components)

    @property
    def true_frequencies(self):
        return np.array([c.frequency for c in self.components])

    def candidate_slots(self):
        """Components followed by extra candidates: one slot per order 1..max_order."""
        return self.components + self.extra_candidates

    @property
    def all_frequencies(self):
        return np.array([s.frequency for s in self.candidate_slots()])

    @property
    def bands(self):
        return [s.band for s in self.candidate_slots()]


def default_band(frequency, n_samples):
    """A priori band centered on the nominal frequency, width 2*pi/N_s."""
    half = math.pi / n_samples
    return (frequency - half, frequency + half)


def time_grid(n_samples):
    """Sample times t = 1..N_s as floats."""
    return np.arange(1, n_samples + 1, dtype=float)


def modulated_pair(slot, omegas, n_samples, phase=0.0):
    """Quadrature pair of a slot's waveform over a scalar or an array of frequencies.

    Returns (c, s) with c(t) = f(t) cos(w t - phase + Psi(t)) and
    s(t) = f(t) sin(w t - phase + Psi(t)), each of shape
    np.shape(omegas) + (n_samples,); a slot without envelopes has f = 1, Psi = 0.
    """
    arg = np.multiply.outer(omegas, time_grid(n_samples)) - phase
    if slot.phase_envelope is not None:
        arg = arg + slot.phase_envelope
    c = np.cos(arg)
    s = np.sin(arg)
    if slot.amplitude_envelope is not None:
        c = c * slot.amplitude_envelope
        s = s * slot.amplitude_envelope
    return c, s


def _component_wave(component, n_samples):
    return component.amplitude * modulated_pair(
        component, component.frequency, n_samples, component.phase)[0]


def clean_signal(scenario):
    """Sum of the component waveforms a f(t) cos(w t - phi + Psi(t)) (no noise)."""
    out = np.zeros(scenario.n_samples)
    for comp in scenario.components:
        out += _component_wave(comp, scenario.n_samples)
    return out


def synthesize(scenario, seed):
    """Draw one observation: clean signal plus sigma0 times white Gaussian noise.

    The generator is counter-based (Philox keyed by the seed), so draws are
    reproducible and independent across seeds regardless of evaluation order.
    """
    seed = nonneg_int(seed, "seed")
    samples = clean_signal(scenario)
    if scenario.noise_level > 0:
        rng = np.random.Generator(np.random.Philox(key=seed))
        samples = samples + scenario.noise_level * rng.standard_normal(scenario.n_samples)
    return Observation(samples=samples, seed=seed)


def snr_db(component, noise_level):
    """SNR in dB: 10 log10(a^2 / (2 sigma0^2))."""
    if not (noise_level > 0):
        raise ValidationError(f"noise_level must be positive, got {noise_level}")
    return 10.0 * math.log10(component.amplitude**2 / (2.0 * noise_level**2))


def amplitude_for_snr_db(value_db, noise_level):
    """Amplitude giving the requested SNR: a = sigma0 * sqrt(2) * 10^(dB/20)."""
    value_db = finite_float(value_db, "snr_db")
    return noise_level * math.sqrt(2.0) * 10.0 ** (value_db / 20.0)


def signal_gram(scenario):
    """Pairwise inner products of the scenario's full component waveforms.

    Diagonal entries are the signal energies E_i = sum_t s_i(t)^2.
    """
    waves = np.column_stack([_component_wave(c, scenario.n_samples)
                             for c in scenario.components])
    return waves.T @ waves


def max_offdiag_ratio(gram):
    """max |G_ij| / sqrt(G_ii G_jj) over i != j; 0 for a 1x1 matrix."""
    g = np.asarray(gram, dtype=float)
    d = np.sqrt(np.diag(g))
    scaled = np.abs(g) / np.outer(d, d)
    np.fill_diagonal(scaled, 0.0)
    return float(scaled.max())


_STANDARD_PHASES = (0.0, -math.pi / 8, -math.pi / 6)


def standard_scenario(snr_value_db, nu0=3, max_order=5, n_samples=64,
                      noise_level=1.0, noise_known=True):
    """Equal-amplitude test scenario on a fractional-Fourier comb.

    Candidate frequencies are w_i = 2*pi*(0.2 + (i-1)/N_s) for i = 1..max_order;
    the first nu0 slots carry signals with phases (0, -pi/8, -pi/6, 0, ...) and a
    common amplitude set by snr_value_db; every slot gets the default band.
    """
    snr_value_db = finite_float(snr_value_db, "snr_db")
    nu0, max_order = nonneg_int(nu0, "nu0"), nonneg_int(max_order, "max_order")
    if nu0 < 1 or max_order < nu0:
        raise ValidationError(f"need 1 <= nu0 <= max_order, got {nu0}, {max_order}")
    if nonneg_int(n_samples, "n_samples") < 2 * max_order:
        raise ValidationError(f"n_samples {n_samples} < 2*max_order {2 * max_order}")
    noise_level = finite_float(noise_level, "noise_level")
    amp = amplitude_for_snr_db(snr_value_db, noise_level) if noise_level > 0 else 1.0
    comps = []
    extras = []
    for i in range(max_order):
        freq = TWO_PI * (0.2 + i / n_samples)
        band = default_band(freq, n_samples)
        if i < nu0:
            phase = _STANDARD_PHASES[i] if i < len(_STANDARD_PHASES) else 0.0
            comps.append(SinusoidComponent(
                amplitude=amp, frequency=freq, phase=phase % TWO_PI, band=band))
        else:
            extras.append(CandidateTemplate(frequency=freq, band=band))
    return Scenario(
        components=tuple(comps),
        noise_level=noise_level,
        n_samples=n_samples,
        max_order=max_order,
        noise_known=noise_known,
        extra_candidates=tuple(extras),
    )


def with_snr_db(scenario, value_db):
    """Copy of the scenario with every component's amplitude set to the SNR."""
    amp = amplitude_for_snr_db(value_db, scenario.noise_level)
    comps = tuple(replace(c, amplitude=amp) for c in scenario.components)
    return replace(scenario, components=comps)


def _env_to_list(env):
    return None if env is None else [float(v) for v in env]


def scenario_to_dict(scenario):
    """JSON-ready dict; inverse of scenario_from_dict."""
    return {
        "n_samples": scenario.n_samples,
        "noise_level": scenario.noise_level,
        "max_order": scenario.max_order,
        "noise_known": scenario.noise_known,
        "components": [
            {
                "amplitude": c.amplitude,
                "frequency": c.frequency,
                "phase": c.phase,
                "band": [c.band[0], c.band[1]],
                "amplitude_envelope": _env_to_list(c.amplitude_envelope),
                "phase_envelope": _env_to_list(c.phase_envelope),
            }
            for c in scenario.components
        ],
        "extra_candidates": [
            {
                "frequency": c.frequency,
                "band": [c.band[0], c.band[1]],
                "amplitude_envelope": _env_to_list(c.amplitude_envelope),
                "phase_envelope": _env_to_list(c.phase_envelope),
            }
            for c in scenario.extra_candidates
        ],
    }


def _from_dict(make, node, path, **parse):
    """make(**node): node's keys must be make's fields, those without a
    default are required, and the values of the keys in parse go through
    parse[key](value, key path) first; errors name the key path."""
    names = fields(make)
    checked_keys(node, path, [f.name for f in names])
    for f in names:
        if f.default is MISSING and f.name not in node:
            raise ValidationError(f"{path}.{f.name}: required")
    kwargs = {k: parse[k](v, f"{path}.{k}") if k in parse else v for k, v in node.items()}
    try:
        return make(**kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _slots(make, nodes, path):
    """Slots made by make from a list of objects; errors name the key path."""
    if not isinstance(nodes, list):
        raise ValidationError(f"{path} must be a list of objects, got {nodes!r}")
    return tuple(_from_dict(make, node, f"{path}[{j}]") for j, node in enumerate(nodes))


def scenario_from_dict(doc):
    """Inverse of scenario_to_dict; errors name the key path from "scenario"."""
    return _from_dict(Scenario, doc, "scenario", components=partial(_slots, SinusoidComponent),
                      extra_candidates=partial(_slots, CandidateTemplate))
