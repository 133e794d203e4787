import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import sincount as sc
from sincount.errors import ValidationError
from sincount.signal_model import (clean_signal, max_offdiag_ratio,
                                   modulated_pair, signal_gram)


def _tone(amplitude=1.0, frequency=1.0, phase=0.0, n_samples=64):
    return sc.SinusoidComponent(amplitude=amplitude, frequency=frequency,
                                phase=phase,
                                band=sc.default_band(frequency, n_samples))


def test_standard_scenario_layout(scen_m4):
    assert scen_m4.nu0 == 3
    assert scen_m4.max_order == 5
    assert scen_m4.n_samples == 64
    assert len(scen_m4.all_frequencies) == 5
    # true frequencies sit at 2*pi*(0.2 + i/64)
    expect = 2 * math.pi * (0.2 + np.arange(5) / 64.0)
    np.testing.assert_allclose(scen_m4.all_frequencies, expect, rtol=1e-12)


def test_amplitude_snr_roundtrip(scen_m4):
    for comp in scen_m4.components:
        assert sc.snr_db(comp, scen_m4.noise_level) == pytest.approx(-4.0,
                                                                     abs=1e-12)
    scen4 = sc.with_snr_db(scen_m4, 4.0)
    # 8 dB up scales amplitudes by 10**(8/20)
    ratio = scen4.components[0].amplitude / scen_m4.components[0].amplitude
    assert ratio == pytest.approx(10 ** 0.4, rel=1e-12)


@given(st.floats(min_value=-30.0, max_value=30.0))
def test_snr_db_inverts_amplitude_for_snr_db(db):
    amp = sc.amplitude_for_snr_db(db, noise_level=1.0)
    assert sc.snr_db(_tone(amplitude=amp), 1.0) == pytest.approx(db, abs=1e-9)


def test_synthesize_deterministic(scen_m4):
    a = sc.synthesize(scen_m4, 42)
    b = sc.synthesize(scen_m4, 42)
    c = sc.synthesize(scen_m4, 43)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_synthesize_rejects_negative_seed(scen_m4):
    with pytest.raises(ValidationError):
        sc.synthesize(scen_m4, -1)


def test_synthesize_takes_seeds_in_philox_key_range(scen_m4):
    # 2**128 used to raise numpy's ValueError
    assert sc.synthesize(scen_m4, 2**128 - 1).seed == 2**128 - 1
    with pytest.raises(ValidationError, match="2\\*\\*128"):
        sc.synthesize(scen_m4, 2**128)


@pytest.mark.parametrize("seed", [2.5, 2.0, True])
def test_synthesize_rejects_non_integer_seed(scen_m4, seed):
    # a float used to be truncated (2.5 drew seed 2)
    with pytest.raises(ValidationError):
        sc.synthesize(scen_m4, seed)


def test_scenario_dict_roundtrip(scen_m4):
    again = sc.scenario_from_dict(sc.scenario_to_dict(scen_m4))
    assert sc.scenario_to_dict(again) == sc.scenario_to_dict(scen_m4)
    np.testing.assert_array_equal(clean_signal(again), clean_signal(scen_m4))


def test_default_band_width():
    lo, hi = sc.default_band(1.0, 64)
    assert hi - lo == pytest.approx(2 * math.pi / 64, rel=1e-12)
    assert (lo + hi) / 2 == pytest.approx(1.0, rel=1e-12)


def test_component_waveform_phase_sign():
    # s(t) = a * cos(w t - phi) with t = 1..N
    comp = _tone(amplitude=2.0, frequency=1.0, phase=0.5, n_samples=8)
    t = np.arange(1, 9, dtype=float)
    c, s = modulated_pair(comp, comp.frequency, 8, comp.phase)
    np.testing.assert_allclose(comp.amplitude * c, 2.0 * np.cos(t - 0.5), rtol=1e-12)
    np.testing.assert_allclose(s, np.sin(t - 0.5), rtol=1e-12)
    # an array of frequencies broadcasts to one row per frequency
    rows, _ = modulated_pair(comp, np.array([1.0, 2.0]), 8)
    np.testing.assert_allclose(rows, np.cos(np.outer([1.0, 2.0], t)), rtol=1e-12)


def test_component_validation_errors():
    with pytest.raises(ValidationError):
        _tone(amplitude=-1.0)
    with pytest.raises(ValidationError):
        _tone(phase=7.0)
    with pytest.raises(ValidationError):
        # frequency outside its own band
        sc.SinusoidComponent(amplitude=1.0, frequency=2.0, phase=0.0,
                             band=(0.5, 1.5))


def test_scenario_validation_errors():
    comp = _tone(n_samples=64)
    extra = sc.CandidateTemplate(frequency=2.0, band=(1.9, 2.1))
    with pytest.raises(ValidationError, match="2\\*max_order 4"):
        # too few samples for the candidate count
        sc.Scenario(components=(comp,), noise_level=1.0, n_samples=3,
                    extra_candidates=(extra,))
    # the number of slots is the largest candidate order; it is not stated again
    scen = sc.Scenario(components=(comp,), noise_level=1.0, n_samples=4,
                       extra_candidates=(extra,))
    assert (scen.nu0, scen.max_order) == (1, 2)
    with pytest.raises(ValidationError, match="scenario.max_order: unknown key"):
        sc.scenario_from_dict(dict(sc.scenario_to_dict(scen), max_order=2))


STANDARD_DOC = sc.scenario_to_dict(sc.standard_scenario(-4.0))


@pytest.mark.parametrize("build", [
    lambda: sc.standard_scenario(-4.0, nu0=2.0),
    lambda: sc.standard_scenario(-4.0, n_samples=0),
    lambda: _tone(amplitude="1.5"),
    lambda: _tone(phase=math.nan),
    lambda: sc.CandidateTemplate(frequency="1.0", band=(0.5, 1.5)),
    lambda: sc.CandidateTemplate(frequency=1.0, band=5),
    lambda: sc.CandidateTemplate(frequency=1.0, band=(0.5, "1.5")),
    lambda: sc.Scenario(components=(_tone(),), noise_level="1", n_samples=64),
    lambda: sc.Scenario(components=(_tone(),), noise_level=0.0, n_samples=64),
    lambda: sc.standard_scenario(-4.0, noise_level=0.0),
    lambda: sc.scenario_from_dict(dict(STANDARD_DOC, noise_known="false")),
    lambda: sc.scenario_from_dict(dict(STANDARD_DOC, components=5)),
    lambda: sc.scenario_from_dict(dict(STANDARD_DOC, extra_candidates=[5])),
    lambda: sc.scenario_from_dict(dict(STANDARD_DOC, noise_knwon=False)),
    lambda: sc.scenario_from_dict(dict(STANDARD_DOC, noise_level=0.0)),
    lambda: sc.scenario_from_dict({k: v for k, v in STANDARD_DOC.items() if k != "n_samples"}),
    lambda: sc.scenario_from_dict(dict(STANDARD_DOC, extra_candidates=[
        dict(STANDARD_DOC["extra_candidates"][0], phase_envelop=None),
        *STANDARD_DOC["extra_candidates"][1:]])),
    lambda: sc.Scenario(components=(), noise_level=1.0, n_samples=64),
    lambda: sc.Scenario(components=(sc.CandidateTemplate(frequency=1.0, band=(0.5, 1.5)),),
                        noise_level=1.0, n_samples=64),
    lambda: sc.Scenario(components=(_tone(),), noise_level=1.0, n_samples=64,
                        extra_candidates=(_tone(frequency=2.0),)),
    lambda: sc.standard_scenario(-4.0, nu0=4, max_order=3),
    lambda: sc.CandidateTemplate(frequency=1.0, band=(1.0, 1.0)),
    lambda: sc.SinusoidComponent(amplitude=1.0, frequency=1.0, phase=0.0, band=(1.5, 0.5)),
    lambda: sc.scenario_from_dict(dict(STANDARD_DOC, max_order=5)),
], ids=["nu0", "n_samples", "amplitude", "phase", "frequency", "band",
        "band_entry", "noise_level", "noise_level_zero", "standard_noise_level_zero",
        "doc_noise_known", "doc_components", "doc_extras", "doc_unknown_key",
        "doc_noise_level_zero", "doc_missing_key", "doc_unknown_slot_key",
        "no_components", "component_not_sinusoid", "extra_not_template",
        "standard_nu0_above_max_order", "band_empty", "band_reversed", "doc_max_order"])
def test_invalid_scenario_fields_raise_validation_error(build):
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize("build", [
    lambda: sc.standard_scenario("x"),
    lambda: sc.standard_scenario(float("nan")),
    lambda: sc.with_snr_db(sc.standard_scenario(0.0), "x"),
    lambda: sc.amplitude_for_snr_db(None, 1.0),
    lambda: sc.amplitude_for_snr_db(0.0, 0.0),
    lambda: sc.scenario_from_dict([1]),
    lambda: sc.scenario_from_dict("x"),
], ids=["standard_snr", "standard_nan", "with_snr_db", "amplitude_for_snr_db",
        "amplitude_for_snr_db_zero_noise", "doc_list", "doc_string"])
def test_non_number_snr_and_non_object_document_raise_validation_error(build):
    # these used to escape as TypeError from the arithmetic or the indexing
    with pytest.raises(ValidationError):
        build()


def test_scenario_stores_numbers_as_floats():
    comp = sc.SinusoidComponent(amplitude=2, frequency=1, phase=0, band=[0, 2])
    assert [type(v) for v in (comp.amplitude, comp.frequency, comp.phase, *comp.band)] == [float] * 5
    scen = sc.Scenario(components=(comp,), noise_level=1, n_samples=64)
    assert type(scen.noise_level) is float


def test_scenario_validates_envelopes():
    ones = np.ones(64)
    comp = dataclasses.replace(_tone(n_samples=64), amplitude_envelope=ones)
    scen = sc.Scenario(components=(comp,), noise_level=1.0, n_samples=64)
    env = scen.components[0].amplitude_envelope
    assert isinstance(env, np.ndarray) and env.dtype == float
    assert not env.flags.writeable
    assert not np.shares_memory(env, ones)
    bad = (
        # a list of the wrong length
        (dataclasses.replace(_tone(n_samples=64), amplitude_envelope=[1.0] * 63), 64),
        # 2-d with its first axis equal to n_samples
        (dataclasses.replace(_tone(n_samples=2), phase_envelope=np.zeros((2, 8))), 2),
        (dataclasses.replace(_tone(n_samples=64), phase_envelope=["a"] * 64), 64),
        # non-finite samples, which used to reach synthesize as NaN samples
        (dataclasses.replace(_tone(n_samples=64), amplitude_envelope=[1.0] * 63 + [np.nan]), 64),
        (dataclasses.replace(_tone(n_samples=64), phase_envelope=[0.0, np.inf] + [0.0] * 62), 64),
    )
    for comp, n_samples in bad:
        with pytest.raises(ValidationError):
            sc.Scenario(components=(comp,), noise_level=1.0, n_samples=n_samples)
    extra = sc.CandidateTemplate(frequency=1.2, band=(1.1, 1.3),
                                 amplitude_envelope=[1.0] * 10)
    with pytest.raises(ValidationError):
        sc.Scenario(components=(_tone(n_samples=64),), noise_level=1.0,
                    n_samples=64, extra_candidates=(extra,))
    with pytest.raises(ValidationError):
        sc.Scenario(components=(_tone(n_samples=64),), noise_level=1.0,
                    n_samples=64, extra_candidates=(_tone(1.0, 1.2),))


def test_signal_gram_near_orthogonal(scen_m4):
    gram = signal_gram(scen_m4)
    assert max_offdiag_ratio(gram) < 0.05
    # diagonal holds the signal energies, about a^2 N/2 for plain tones
    a = scen_m4.components[0].amplitude
    assert gram[0, 0] == pytest.approx(a * a * 32.0, rel=0.05)
