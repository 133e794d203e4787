"""Amplitude and phase envelopes f(t), Psi(t) against hand-written formulas.

Every waveform the package builds is f(t) trig(w t - phi + Psi(t)); these
tests pin the envelope handling of synthesis, the ML grid statistic and
the ML-mode increment laws on one modulated scenario.
"""

import math

import numpy as np
import pytest

import sincount as sc
from sincount import likelihood
from sincount.likelihood import FrequencyPlan

N = 64
T = np.arange(1, N + 1, dtype=float)
AMP_ENV = 1.0 + 0.3 * np.cos(2 * math.pi * T / N)
PHASE_ENV = 0.4 * np.sin(2 * math.pi * 3 * T / N)
FREQS = tuple(2 * math.pi * (0.1 + 6 * i / N) for i in range(3))
PHASES = (0.7, 2.1)


@pytest.fixture(scope="module")
def scen():
    comps = tuple(
        sc.SinusoidComponent(amplitude=1.3, frequency=FREQS[i], phase=PHASES[i],
                             band=sc.default_band(FREQS[i], N),
                             amplitude_envelope=AMP_ENV, phase_envelope=PHASE_ENV)
        for i in range(2))
    extra = sc.CandidateTemplate(frequency=FREQS[2],
                                 band=sc.default_band(FREQS[2], N),
                                 amplitude_envelope=AMP_ENV,
                                 phase_envelope=PHASE_ENV)
    return sc.Scenario(components=comps, noise_level=0.8, n_samples=N,
                       max_order=3, extra_candidates=(extra,))


def test_noiseless_synthesis_is_modulated_cosine(scen):
    quiet = sc.scenario_from_dict({**sc.scenario_to_dict(scen), "noise_level": 0.0})
    expect = sum(c.amplitude * AMP_ENV * np.cos(c.frequency * T - c.phase + PHASE_ENV)
                 for c in scen.components)
    np.testing.assert_allclose(sc.synthesize(quiet, 3).samples, expect,
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("fitted", [False, True], ids=["empty-fit", "fitted"])
def test_grid_statistic_is_plan_increment(scen, fitted):
    # with nothing fitted each trial's single row takes its own product; with
    # slot 1 fitted at a fixed frequency the block's rows take one product
    x = sc.synthesize(scen, 5).samples
    slots = scen.candidate_slots()
    fit = [scen.all_frequencies[0]] if fitted else []
    q_basis = np.zeros((1, 0, N))
    for slot, w in zip(slots, fit):
        q_basis, ok = likelihood._extend_bases(q_basis, slot, np.array([w]), N)
        assert ok.all()
    table = likelihood._SlotGrid.build(slots[len(fit)], 9, N)
    grid = likelihood._grid_quadrature_increment(
        x[None, :], table, table.grid, q_basis, scen.noise_level**2)[0]
    plan_v = [FrequencyPlan.build(scen, fit + [w]).increments_batch(x)[0, len(fit)]
              for w in table.grid]
    np.testing.assert_allclose(grid, plan_v, rtol=1e-9)


def test_ml_laws_use_the_modulated_xi(scen):
    dists = sc.component_dists(scen, mode="ml")
    means, _ = sc.residual_means(scen, scen.all_frequencies)
    xs = np.linspace(0.0, 80.0, 161)
    for i, (lo, hi) in enumerate(scen.bands):
        present = i < scen.nu0
        phase = PHASES[i] if present else 0.0
        arg = FREQS[i] * T + PHASE_ENV
        energy = np.sum((AMP_ENV * np.cos(arg - phase)) ** 2)
        # the cosine component's xi takes the sine integrand and vice versa
        xi_c = (hi - lo) * math.sqrt(np.sum((T * AMP_ENV * np.sin(arg)) ** 2) / energy)
        xi_s = (hi - lo) * math.sqrt(np.sum((T * AMP_ENV * np.cos(arg)) ** 2) / energy)
        d_s_sq = 1.0 + means[2 * i] ** 2 if present else None
        d_c_sq = 1.0 + means[2 * i + 1] ** 2 if present else None
        expect = sc.convolve_cdfs(sc.ml_component_cdf(d_c_sq, xi_c, present),
                                  sc.ml_component_cdf(d_s_sq, xi_s, present))
        np.testing.assert_allclose(dists.dists[i].cdf(xs), expect.cdf(xs),
                                   rtol=1e-9, atol=1e-12)
