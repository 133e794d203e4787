import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

import sincount as sc
from oracles import amp_phase, golden_refine
from sincount import likelihood
from sincount.errors import DegenerateStatsError, ValidationError
from sincount.likelihood import FrequencyPlan
from sincount.signal_model import clean_signal

# Fourier frequency: sin/cos sums vanish exactly, so closed forms are exact
W13 = 2 * math.pi * 13 / 64


def one_tone_scenario(phase=0.0, amplitude=1.0, extra=1):
    comp = sc.SinusoidComponent(amplitude=amplitude, frequency=W13,
                                phase=phase, band=sc.default_band(W13, 64))
    extras = tuple(
        sc.CandidateTemplate(frequency=W13 + 2 * math.pi * (k + 2) / 64,
                             band=sc.default_band(
                                 W13 + 2 * math.pi * (k + 2) / 64, 64))
        for k in range(extra))
    return sc.Scenario(components=(comp,), noise_level=1.0, n_samples=64,
                       extra_candidates=extras)


def test_basis_ordering_sine_before_cosine():
    scen = one_tone_scenario(phase=0.0, extra=0)
    basis = FrequencyPlan.build(scen, [W13]).basis
    x_vec = clean_signal(scen) @ basis
    # cos tone: the sine projection (first slot coordinate) vanishes,
    # the cosine projection equals N_s/2
    assert x_vec[0] == pytest.approx(0.0, abs=1e-9)
    assert x_vec[1] == pytest.approx(32.0, rel=1e-12)
    np.testing.assert_allclose(basis.T @ basis, 32.0 * np.eye(2), atol=1e-9)


def test_amp_phase_mle_recovers_parameters():
    scen = one_tone_scenario(phase=1.25, amplitude=1.7, extra=0)
    plan = FrequencyPlan.build(scen, [W13])
    _, amps, phases = amp_phase(plan, clean_signal(scen))
    assert amps[0] == pytest.approx(1.7, rel=1e-10)
    assert phases[0] == pytest.approx(1.25, abs=1e-10)
    # a batch of rows gives the same estimates row by row
    q_batch, amps_batch, _ = amp_phase(plan, np.stack([clean_signal(scen)] * 2))
    assert q_batch.shape == (2, 2)
    np.testing.assert_allclose(amps_batch[1], amps, rtol=1e-12)


def test_profile_loglik_noise_scaling():
    # statistics are over sigma0, so they depend on a scenario only through
    # its SNR: the same experiment in another noise unit gives the same
    # ladders and laws, bit for bit at a power-of-two sigma0, which scales
    # samples and statistics exactly
    for noise_level, rtol in ((2.0, 0.0), (3.0, 1e-9)):
        for snr in (-4.0, 4.0):
            unit = sc.standard_scenario(snr)
            other = sc.standard_scenario(snr, noise_level=noise_level)
            for approach, trials in ((sc.KNOWN_FREQ, 600), (sc.Ml(grid_points=64), 60)):
                ref = sc.collect_logliks(unit, approach, trials, 5)
                got = sc.collect_logliks(other, approach, trials, 5)
                np.testing.assert_allclose(got, ref, rtol=rtol, atol=0)
            for delta in (0.0, 0.004):
                bl = sc.Bl(delta_omega=delta)
                ref = sc.component_dists(unit, frequencies=sc.approach_frequencies(unit, bl))
                got = sc.component_dists(other,
                                         frequencies=sc.approach_frequencies(other, bl))
                np.testing.assert_allclose(got.lambdas, ref.lambdas, rtol=rtol, atol=0)


def test_increments_telescope_to_profile(scen_m4):
    obs = sc.synthesize(scen_m4, 17)
    plan = FrequencyPlan.build(scen_m4, scen_m4.all_frequencies)
    l = plan.residuals_batch(obs.samples)[0]
    v = plan.increments_batch(obs.samples)[0]
    assert l.shape == (10,)
    np.testing.assert_allclose(v, l[0::2] ** 2 + l[1::2] ** 2, rtol=1e-12)
    # leading partial sums equal the lower-order profile likelihoods
    # X^T C^{-1} X / (2 sigma0^2), each solved on its own sub-basis
    for nu in range(1, 6):
        basis = sc.basis_matrix(scen_m4, scen_m4.all_frequencies[:nu])
        x_vec = basis.T @ obs.samples
        profile = x_vec @ np.linalg.solve(basis.T @ basis, x_vec) / 2.0
        assert 0.5 * np.sum(v[:nu]) == pytest.approx(profile, rel=1e-9)


def test_frequency_plan_matches_stats_path(scen_m4):
    # a batch of rows gives the per-observation ladders row by row
    plan = FrequencyPlan.build(scen_m4, scen_m4.all_frequencies)
    rows = np.stack([sc.synthesize(scen_m4, s).samples for s in range(8)])
    batch = plan.logliks_batch(rows)
    for k in range(8):
        obs = sc.Observation(samples=rows[k], seed=k)
        lls, _, _ = sc.observation_logliks(obs, scen_m4, sc.KNOWN_FREQ)
        np.testing.assert_allclose(batch[k], lls, rtol=1e-9)


def test_degenerate_frequencies_raise():
    comp = sc.SinusoidComponent(amplitude=1.0, frequency=W13, phase=0.0,
                                band=(W13 - 0.3, W13 + 0.3))
    extra = sc.CandidateTemplate(frequency=W13 + 0.1,
                                 band=(W13 - 0.3, W13 + 0.3))
    scen = sc.Scenario(components=(comp,), noise_level=1.0, n_samples=64,
                       extra_candidates=(extra,))
    obs = sc.synthesize(scen, 1)
    with pytest.raises(DegenerateStatsError) as info:
        FrequencyPlan.build(scen, [W13, W13 + 1e-12])
    assert info.value.pair == (1, 2)


def test_out_of_band_frequency_rejected(scen_m4):
    freqs = np.array(scen_m4.all_frequencies)
    freqs[2] += 1.0
    with pytest.raises(ValidationError):
        FrequencyPlan.build(scen_m4, freqs)
    with pytest.raises(ValidationError):
        # one frequency more than the scenario has order slots
        FrequencyPlan.build(scen_m4, np.append(scen_m4.all_frequencies, 1.0))


def test_bl_frequency_rules(scen_m4):
    centers = [(lo + hi) / 2 for lo, hi in scen_m4.bands]
    np.testing.assert_allclose(
        sc.approach_frequencies(scen_m4, sc.Bl(frequencies=tuple(centers))), centers,
        rtol=1e-12)
    nominal = np.array(scen_m4.all_frequencies)
    offset = sc.approach_frequencies(scen_m4, sc.Bl(delta_omega=1e-3))
    np.testing.assert_allclose(offset, nominal + 1e-3, rtol=1e-12)
    fixed = sc.approach_frequencies(scen_m4, sc.Bl(frequencies=tuple(nominal)))
    np.testing.assert_allclose(fixed, nominal, rtol=1e-12)
    # out of band, explicit or offset: FrequencyPlan.build rejects them on
    # every path that consumes the frequencies
    x = sc.synthesize(scen_m4, 1)
    for approach in (sc.Bl(frequencies=tuple(nominal + 1.0)), sc.Bl(delta_omega=1.0)):
        freqs = sc.approach_frequencies(scen_m4, approach)
        for consume in (lambda: sc.observation_logliks(x, scen_m4, approach),
                        lambda: sc.collect_logliks(scen_m4, approach, 10, 1),
                        lambda: sc.component_dists(scen_m4, frequencies=freqs)):
            with pytest.raises(ValidationError, match="outside band"):
                consume()
    for wrong in (nominal[:-1], np.append(nominal, nominal[-1])):
        with pytest.raises(ValidationError, match="explicit frequencies"):
            sc.approach_frequencies(scen_m4, sc.Bl(frequencies=tuple(wrong)))


def test_ml_approach_has_no_fixed_frequencies(scen_m4):
    # the closed-form laws need fixed frequencies; the ML search finds each
    # trial's own
    with pytest.raises(ValidationError, match="ml approach has no fixed frequencies"):
        sc.approach_frequencies(scen_m4, sc.Ml())


def test_ml_search_finds_strong_tone():
    scen = one_tone_scenario(amplitude=20.0, extra=1)
    obs = sc.synthesize(scen, 5)
    freqs, increments = (a[0] for a in sc.likelihood.ml_search_increments(
        obs.samples[None], scen, sc.Ml()))
    assert abs(freqs[0] - W13) < 1e-3
    assert increments[0] > increments[1]
    # found increments are at least the nominal-frequency ones
    plan = FrequencyPlan.build(scen, scen.all_frequencies)
    v_nominal = plan.increments_batch(obs.samples)[0]
    assert increments[0] >= v_nominal[0] - 1e-9


@pytest.mark.parametrize("kwargs", [
    {"grid_points": 0}, {"grid_points": 1}, {"grid_points": 64.0},
    {"refine_tol": 0.0}, {"refine_tol": -1e-6}, {"refine_tol": math.inf},
    {"refine_tol": "1e-6"}, {"refine_tol": True}, {"grid_points": 2}])
def test_ml_rejects_invalid_search_settings(kwargs):
    with pytest.raises(ValidationError):
        sc.Ml(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"delta_omega": "0.001"}, {"delta_omega": math.nan}, {"delta_omega": True},
    {"frequencies": (1.0, "x")}, {"frequencies": (1.0, math.inf)},
    {"frequencies": 1.0}, {"frequencies": "12"},
    {"delta_omega": 0.001, "frequencies": (1.0, 1.1)}])
def test_bl_rejects_invalid_settings(kwargs):
    with pytest.raises(ValidationError):
        sc.Bl(**kwargs)


def test_bl_stores_frequencies_as_float_tuple():
    approach = sc.Bl(frequencies=np.array([1, 2.5]))
    assert approach.frequencies == (1.0, 2.5)
    assert all(type(w) is float for w in approach.frequencies)
    assert hash(approach) == hash(sc.Bl(frequencies=[1.0, 2.5]))


def test_approach_labels_and_frequencies(scen_m4):
    assert sc.KNOWN_FREQ.label == "known"
    assert sc.Bl(0.001).label == "bl(0.001)"
    assert sc.Ml().label == "ml"
    assert sc.Ml().params_per_signal == 3
    assert sc.Bl(0.0).params_per_signal == 2
    np.testing.assert_allclose(
        sc.approach_frequencies(scen_m4, sc.Bl(0.002)),
        np.asarray(scen_m4.all_frequencies) + 0.002, rtol=1e-12)


def test_observation_logliks_known_equals_plan(scen_m4):
    obs = sc.synthesize(scen_m4, 23)
    lls, incs, freqs = sc.observation_logliks(obs, scen_m4, sc.KNOWN_FREQ)
    plan = FrequencyPlan.build(scen_m4, scen_m4.all_frequencies)
    np.testing.assert_allclose(lls, plan.logliks_batch(obs.samples)[0],
                               rtol=1e-12)
    np.testing.assert_allclose(freqs, scen_m4.all_frequencies, rtol=1e-12)
    # a bare sample row is accepted in place of an Observation
    np.testing.assert_array_equal(
        sc.observation_logliks(obs.samples, scen_m4, sc.KNOWN_FREQ)[0], lls)


@pytest.mark.parametrize("approach", [sc.KNOWN_FREQ, sc.Ml(grid_points=16)])
def test_observation_length_mismatch_is_validation_error(scen_m4, approach):
    short = sc.Observation(samples=np.zeros(scen_m4.n_samples - 1), seed=0)
    with pytest.raises(ValidationError, match="expected"):
        sc.observation_logliks(short, scen_m4, approach)
    if isinstance(approach, sc.Ml):
        # the batched search checks its rows itself
        with pytest.raises(ValidationError, match="expected"):
            likelihood.ml_search_increments(short.samples[None], scen_m4, approach)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_increment_properties(seed):
    scen = sc.standard_scenario(0.0)
    obs = sc.synthesize(scen, seed)
    lls, incs, _ = sc.observation_logliks(obs, scen, sc.KNOWN_FREQ)
    assert np.all(incs >= 0)
    assert np.all(np.diff(lls) >= -1e-9)
    assert lls[0] >= -1e-9


# the per-observation greedy search that the batched one replaced, kept as
# its oracle: explicit residual vectors, classical Gram-Schmidt, and scipy's
# bounded Brent refinement of the grid argmax
def _oracle_increment(x, slot, omegas, q_basis, sigma_sq):
    cosines, sines = sc.signal_model.modulated_pair(slot, omegas, x.shape[0])
    if q_basis.shape[1]:
        sines = sines - (sines @ q_basis) @ q_basis.T
        cosines = cosines - (cosines @ q_basis) @ q_basis.T
    g11 = np.einsum("ij,ij->i", sines, sines)
    g22 = np.einsum("ij,ij->i", cosines, cosines)
    g12 = np.einsum("ij,ij->i", sines, cosines)
    p1, p2 = sines @ x, cosines @ x
    det = np.maximum(g11 * g22 - g12**2, 1e-30)
    return (g22 * p1**2 - 2.0 * g12 * p1 * p2 + g11 * p2**2) / det / sigma_sq


def _oracle_extend(q_basis, slot, omega, n_samples):
    c, s = sc.signal_model.modulated_pair(slot, float(omega), n_samples)
    cols = []
    for vec in (s, c):
        v = vec.copy()
        if q_basis.shape[1]:
            v = v - q_basis @ (q_basis.T @ v)
        for prev in cols:
            v = v - prev * (prev @ v)
        norm = np.linalg.norm(v)
        if norm < 1e-9 * np.linalg.norm(vec):
            raise DegenerateStatsError(f"candidate at {omega} depends on the fit")
        cols.append(v / norm)
    return np.column_stack([q_basis] + [c[:, None] for c in cols])


def oracle_ml_search(x, order, scenario, grid_points=256, refine_tol=1e-6):
    slots = scenario.candidate_slots()
    sigma_sq = scenario.noise_level**2
    q_basis = np.zeros((scenario.n_samples, 0))
    freqs, incs = np.zeros(order), np.zeros(order)
    for i, slot in enumerate(slots[:order]):
        lo, hi = slot.band
        pad = (hi - lo) * 1e-9
        grid = np.linspace(lo + pad, hi - pad, grid_points)
        vals = _oracle_increment(x, slot, grid, q_basis, sigma_sq)
        j = int(np.argmax(vals))
        res = minimize_scalar(
            lambda w: -_oracle_increment(x, slot, np.array([w]), q_basis, sigma_sq)[0],
            bounds=(grid[max(j - 1, 0)], grid[min(j + 1, grid_points - 1)]),
            method="bounded", options={"xatol": refine_tol})
        if res.fun <= -vals[j]:
            freqs[i], incs[i] = res.x, -res.fun
        else:
            freqs[i], incs[i] = grid[j], vals[j]
        q_basis = _oracle_extend(q_basis, slot, freqs[i], scenario.n_samples)
    return freqs, incs


@pytest.mark.parametrize("snr, seed", [(0.0, 7), (-4.0, 5)])
def test_ml_search_matches_per_trial_oracle(snr, seed):
    # at 0 dB, seed 7, trials 31 and 62 fit slot 4 at the band edge it shares
    # with slot 5; next to that frequency the Gram identity cancels to
    # rounding noise and the search must fall back to explicit residuals
    scen = sc.standard_scenario(snr)
    rows = sc.batch_samples(scen, seed, 0, 64)
    freqs, incs = sc.likelihood.ml_search_increments(rows, scen, sc.Ml())
    expect = [oracle_ml_search(row, scen.max_order, scen) for row in rows]
    o_freqs = np.array([f for f, _ in expect])
    o_incs = np.array([v for _, v in expect])
    nu0 = scen.nu0
    np.testing.assert_allclose(freqs[:, :nu0], o_freqs[:, :nu0], rtol=0, atol=1e-6)
    ladders, o_ladders = 0.5 * np.cumsum(incs, axis=1), 0.5 * np.cumsum(o_incs, axis=1)
    np.testing.assert_allclose(ladders, o_ladders, rtol=1e-5)
    for spec in (sc.Gic(), sc.Eef(), sc.PmepIr(0.25), sc.PmepI(3.0)):
        np.testing.assert_array_equal(
            sc.argmin_order(sc.decision_values(spec, ladders, params_per_signal=3)),
            sc.argmin_order(sc.decision_values(spec, o_ladders, params_per_signal=3)))


def _one_band_scenario(max_order):
    """A tone at W13 and max_order - 1 extra candidates, all on one band."""
    band = (W13 - 0.3, W13 + 0.3)
    return sc.Scenario(
        components=(sc.SinusoidComponent(amplitude=1.0, frequency=W13, phase=0.0, band=band),),
        noise_level=1.0, n_samples=64,
        extra_candidates=tuple(sc.CandidateTemplate(frequency=W13 + 0.1 * k, band=band)
                               for k in (1, -1)[:max_order - 1]))


@pytest.mark.one_blas_thread
def test_degenerate_trial_is_nan_row_and_leaves_its_block_unchanged():
    # both slots search one band; on a zero row V vanishes on both grids, so
    # both refine to the same frequency and the second pair depends on the first
    scen = _one_band_scenario(max_order=2)
    rows = np.stack([sc.synthesize(scen, s).samples for s in range(6)])
    rows[3] = 0.0
    freqs, incs = sc.likelihood.ml_search_increments(rows, scen, sc.Ml(grid_points=64))
    assert np.isnan(freqs[3]).all() and np.isnan(incs[3]).all()
    for k in (0, 1, 2, 4, 5):
        alone = [a[0] for a in sc.likelihood.ml_search_increments(
            rows[k:k + 1], scen, sc.Ml(grid_points=64))]
        assert np.isfinite(alone[1]).all()
        np.testing.assert_array_equal(freqs[k], alone[0])
        np.testing.assert_array_equal(incs[k], alone[1])
    with pytest.raises(DegenerateStatsError):
        sc.observation_logliks(rows[3], scen, sc.Ml(grid_points=64))


@pytest.mark.one_blas_thread
def test_degenerate_rows_in_a_multi_piece_block_leave_the_others_unchanged():
    # one search block of three grid pieces, with a zero row in the first and
    # the third; those rows drop after slot 2, so slot 3's grid pieces
    # regroup the rows that remain, and each still equals its batch of one
    scen = _one_band_scenario(max_order=3)
    piece = likelihood._GRID_ROWS
    rows = sc.batch_samples(scen, 3, 0, 2 * piece + 22)
    assert len(rows) <= likelihood._ML_BLOCK
    zero = [3, 2 * piece + 12]
    rows[zero] = 0.0
    freqs, incs = likelihood.ml_search_increments(rows, scen, sc.Ml(grid_points=64))
    assert np.isnan(freqs[zero]).all() and np.isnan(incs[zero]).all()
    for k in sorted(set(range(len(rows))) - set(zero)):
        alone = [a[0] for a in likelihood.ml_search_increments(
            rows[k:k + 1], scen, sc.Ml(grid_points=64))]
        assert np.isfinite(alone[1]).all()
        np.testing.assert_array_equal(freqs[k], alone[0])
        np.testing.assert_array_equal(incs[k], alone[1])


def _search_beside_golden(rows, scenario, approach):
    """The ML search of rows: its ladders, the refinement rounds of each
    _refine call, and for every slot of every block the refiner's and the
    golden rule's (frequency, V) on the same x, fitted basis and grid
    values, with those grid values."""
    refine, evaluate = likelihood._refine, likelihood._grid_quadrature_increment
    rounds, calls = [], []

    def counted(x, table, omegas, q_basis, sigma_sq):
        if omegas.ndim == 2:
            rounds[-1] += 1
        return evaluate(x, table, omegas, q_basis, sigma_sq)

    def watched(*args):
        rounds.append(0)
        found = refine(*args)
        calls.append((found, args))
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(likelihood, "_refine", watched)
        patch.setattr(likelihood, "_grid_quadrature_increment", counted)
        logliks = likelihood.ladder_function(scenario, approach)(rows)[0]
    # the golden rule's own grid evaluations are not rounds of the refiner
    seen = [(found, golden_refine(*args), args[4]) for found, args in calls]
    return logliks, rounds, seen


@pytest.fixture(scope="module")
def default_search():
    """snr -> _search_beside_golden of the seed-111, 2000-trial rows of
    standard_scenario(snr) at the default Ml(), searched once per module."""
    searches = {}

    def search(snr):
        if snr not in searches:
            scen = sc.standard_scenario(snr)
            searches[snr] = _search_beside_golden(sc.batch_samples(scen, 111, 0, 2000), scen,
                                                  sc.Ml())
        return searches[snr]

    return search


def _assert_near_golden(seen, refine_tol, v_rtol=1e-9):
    for (w, v), (golden_w, golden_v), vals in seen:
        assert np.all(np.abs(w - golden_w) <= refine_tol)
        assert np.all(v >= golden_v - v_rtol * np.abs(golden_v))
        # refinement never ends below the grid maximum
        assert np.all(v >= vals.max(axis=1))


@pytest.mark.parametrize("snr", [-4.0, 0.0])
def test_parabolic_refinement_matches_golden_rule(monkeypatch, default_search, snr):
    # slot by slot, on identical inputs: V at least the golden rule's less
    # 1e-9 relative, frequencies within refine_tol.  End to end, a frequency
    # difference below refine_tol in one slot moves V of the next by up to
    # about 2e-6 relative either way, so the ladders are held to 1e-5 and the
    # decisions must not change
    scen = sc.standard_scenario(snr)
    rows = sc.batch_samples(scen, 111, 0, 2000)
    logliks, _, seen = default_search(snr)
    _assert_near_golden(seen, 1e-6)
    with monkeypatch.context() as patch:
        patch.setattr(likelihood, "_refine", golden_refine)
        golden = likelihood.ladder_function(scen, sc.Ml())(rows)[0]
    np.testing.assert_allclose(logliks, golden, rtol=1e-5)
    for spec in (sc.Gic(), sc.Eef(), sc.PmepIr(0.25), sc.PmepI(3.0)):
        np.testing.assert_array_equal(
            sc.argmin_order(sc.decision_values(spec, logliks, params_per_signal=3)),
            sc.argmin_order(sc.decision_values(spec, golden, params_per_signal=3)))


@pytest.mark.parametrize("approach", [sc.Ml(grid_points=3),
                                      sc.Ml(grid_points=64, refine_tol=1e-4)])
def test_refinement_with_coarse_grid_or_tolerance(approach):
    # three grid points, the fewest, make each bracket half the band or all
    # of it;
    # refine_tol 1e-4 is coarser than a 64-point grid step.  Near a
    # peak V falls by about (N^2 / 12) d^2 relative at an offset d, so two
    # points within refine_tol / 2 of it differ by at most that at d =
    # refine_tol / 2
    scen = sc.standard_scenario(0.0)
    rows = sc.batch_samples(scen, 111, 0, 128)
    _, _, seen = _search_beside_golden(rows, scen, approach)
    v_rtol = max(scen.n_samples**2 / 12 * (approach.refine_tol / 2) ** 2, 1e-9)
    _assert_near_golden(seen, approach.refine_tol, v_rtol)


def _refine_on_slot(x, band, refine_tol=1e-6):
    """Grid maximum index, the refiner's and the golden rule's (frequency, V)
    on the search's 256-point grid over band, with nothing fitted yet."""
    slot = sc.CandidateTemplate(frequency=sum(band) / 2, band=band)
    table = likelihood._SlotGrid.build(slot, 256, x.shape[1])
    q_basis = np.zeros((len(x), 0, x.shape[1]))
    vals = likelihood._grid_quadrature_increment(x, table, table.grid, q_basis, 1.0)
    args = (x, table, q_basis, 1.0, vals, refine_tol)
    return np.argmax(vals, axis=1), likelihood._refine(*args), golden_refine(*args)


@pytest.mark.parametrize("edge", ["low", "high"])
@pytest.mark.parametrize("inside", [False, True])
def test_refinement_next_to_a_band_edge(edge, inside):
    # a noise-free tone at W13 fits exactly, so V peaks there.  The band
    # starts (or ends) 0.01 rad past the tone, or 0.3 grid steps short of it:
    # either way the grid maximum is the edge point, and the maximum is the
    # edge itself or lies inside its bracket
    width = 2 * math.pi / 64
    gap = -0.3 * width / 255 if inside else 0.01
    band = (W13 + gap, W13 + gap + width) if edge == "low" else (W13 - gap - width, W13 - gap)
    t = sc.signal_model.time_grid(64)
    x = np.stack([np.cos(W13 * t - phase) for phase in (0.0, 1.0, 2.5)])
    j, (w, v), (golden_w, golden_v) = _refine_on_slot(x, band)
    assert np.all(j == (0 if edge == "low" else 255))
    peak = W13 if inside else band[0 if edge == "low" else 1]
    assert np.all(np.abs(w - peak) <= 0.5e-6)
    assert np.all(np.abs(w - golden_w) <= 1e-6)
    assert np.all(v >= golden_v * (1 - 1e-9))


def test_refinement_of_flat_statistic_warns_nothing():
    # on a zero row V vanishes on the whole grid: every parabola is 0/0
    band = (W13 - 0.3, W13 + 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        j, (w, v), (golden_w, golden_v) = _refine_on_slot(np.zeros((1, 64)), band)
    assert j[0] == 0 and w[0] == likelihood._SlotGrid.build(
        sc.CandidateTemplate(frequency=W13, band=band), 256, 64).grid[0]
    assert v[0] == golden_v[0] == 0.0


def test_refinement_cost_on_signal_slots(monkeypatch):
    # each refinement round is one call over the rows it steps or checks: a
    # row takes a parabolic step or two at most, then its certificate sides.
    # 256 rows are one search block.  The search covers every slot; with
    # max_order = nu0 = 3 it covers the signal slots alone, with the rows and
    # slots 1-3 of standard_scenario(0.0)
    scen = sc.standard_scenario(0.0, max_order=3)
    rows = sc.batch_samples(scen, 111, 0, 256)
    assert len(rows) <= likelihood._ML_BLOCK
    evaluate, calls, points = likelihood._grid_quadrature_increment, Counter(), Counter()

    def counted(x, table, omegas, q_basis, sigma_sq):
        if omegas.ndim == 2:
            calls[q_basis.shape[1] // 2] += 1
            points[q_basis.shape[1] // 2] += len(x)
        return evaluate(x, table, omegas, q_basis, sigma_sq)

    monkeypatch.setattr(likelihood, "_grid_quadrature_increment", counted)
    likelihood.ml_search_increments(rows, scen, sc.Ml())
    assert sorted(calls) == list(range(scen.nu0))
    assert max(calls.values()) <= 4
    # under four evaluations per trial and slot, against sixteen for the
    # golden rule
    assert sum(points.values()) <= 4.0 * len(rows) * scen.nu0


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("grid_points, most_below_golden", [(256, (0, 0)), (3, (6, 3)),
                                                             (4, (1, 1))])
def test_refinement_ends_before_its_round_cap_and_above_the_grid(default_search, grid_points,
                                                                  most_below_golden):
    # each refinement round is one call, and on this data no slot's
    # refinement of a search block reaches _REFINE_ROUNDS; no refined V is
    # below its grid maximum.  On a 3- or 4-point grid a bracket spans up to
    # the whole band or two thirds of it, and a few slot-rows land on a lower
    # local maximum than the golden rule's, more than refine_tol from it;
    # their count, 6 and 3 at -4 and 0 dB on 3 points, 1 and 1 on 4, is
    # that of the parabolic steps with a golden fallback before them
    approach = sc.Ml(grid_points=grid_points)
    for snr, most_below in zip((-4.0, 0.0), most_below_golden):
        if approach == sc.Ml():
            _, rounds, seen = default_search(snr)
        else:
            scen = sc.standard_scenario(snr)
            _, rounds, seen = _search_beside_golden(sc.batch_samples(scen, 111, 0, 2000), scen,
                                                    approach)
        assert len(rounds) == len(seen) and max(rounds) < likelihood._REFINE_ROUNDS
        below = 0
        for (w, v), (golden_w, golden_v), vals in seen:
            assert np.all(v >= vals.max(axis=1))
            low = v < golden_v - 1e-9 * np.abs(golden_v)
            assert np.all(np.abs(w - golden_w)[low] > approach.refine_tol)
            below += int(low.sum())
        assert below <= most_below


def test_grid_waveforms_are_built_once_per_call(monkeypatch):
    # with search blocks of 64 rows, 140 rows are three blocks; the grid
    # waveforms are the calls with a 1-d frequency array, and every block
    # shares each slot's
    monkeypatch.setattr(likelihood, "_ML_BLOCK", 64)
    scen = sc.standard_scenario(0.0)
    pair, grids = likelihood.modulated_pair, []

    def counted(slot, omegas, *args):
        if np.ndim(omegas) == 1:
            grids.append(slot)
        return pair(slot, omegas, *args)

    monkeypatch.setattr(likelihood, "modulated_pair", counted)
    likelihood.ladder_function(scen, sc.Ml())(sc.batch_samples(scen, 111, 0, 140))
    assert grids == list(scen.candidate_slots())


@pytest.mark.one_blas_thread
def test_search_refines_and_extends_each_slot_once_per_block(monkeypatch):
    # 400 rows are one search block: each slot is refined and its bases
    # extended once over all of them, and its grid values come in
    # ceil(400 / _GRID_ROWS) pieces.  The result equals the concatenated
    # searches of 64-row slices, bit for bit
    scen = sc.standard_scenario(0.0)
    rows = sc.batch_samples(scen, 111, 0, 400)
    assert len(rows) <= likelihood._ML_BLOCK
    expect = [np.concatenate(parts) for parts in zip(*(
        likelihood.ml_search_increments(rows[start:start + 64], scen, sc.Ml())
        for start in range(0, len(rows), 64)))]
    calls = Counter()

    def counting(name, slot_of):
        inner = getattr(likelihood, name)

        def counted(*args):
            slot = slot_of(*args)
            if slot is not None:
                calls[name, slot] += 1
            return inner(*args)
        monkeypatch.setattr(likelihood, name, counted)

    counting("_refine", lambda x, table, q_basis, *rest: q_basis.shape[1] // 2)
    counting("_extend_bases", lambda q_basis, *rest: q_basis.shape[1] // 2)
    counting("_grid_quadrature_increment", lambda x, table, omegas, q_basis, sigma_sq:
             q_basis.shape[1] // 2 if omegas.ndim == 1 else None)
    freqs, incs = likelihood.ml_search_increments(rows, scen, sc.Ml())
    pieces = math.ceil(len(rows) / likelihood._GRID_ROWS)
    assert calls == Counter({(name, slot): count for slot in range(scen.max_order)
                             for name, count in (("_refine", 1), ("_extend_bases", 1),
                                                 ("_grid_quadrature_increment", pieces))})
    np.testing.assert_array_equal(freqs, expect[0])
    np.testing.assert_array_equal(incs, expect[1])


def test_ml_ladders_of_zero_rows_are_empty(scen_0):
    for approach in (sc.KNOWN_FREQ, sc.Ml()):
        for part in likelihood.ladder_function(scen_0, approach)(np.zeros((0, scen_0.n_samples))):
            assert part.shape == (0, scen_0.max_order)


@pytest.mark.parametrize("approach", [sc.KNOWN_FREQ, sc.Ml(grid_points=16)])
def test_non_finite_observation_is_validation_error(scen_0, approach):
    for bad in (np.nan, np.inf):
        row = np.zeros(scen_0.n_samples)
        row[5] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            sc.observation_logliks(row, scen_0, approach)
    rows = np.zeros((3, scen_0.n_samples))
    rows[2, 7] = -np.inf
    with pytest.raises(ValidationError, match="row 2 has a non-finite"):
        likelihood.ml_search_increments(rows, scen_0, sc.Ml())
