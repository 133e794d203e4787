"""Profile log-likelihoods per candidate order.

For a candidate order nu the model is linear in the quadrature amplitudes
once frequencies are fixed: the statistics are the projections X of the
data onto the 2*nu basis functions f_i(t){sin,cos}(w_i t + Psi_i(t)) and
their Gram matrix C.  Columns interleave as (sin_1, cos_1, sin_2, cos_2,
...), matching the odd/sine, even/cosine convention of the quadrature
amplitude vector.

One Cholesky factorization C = L L^T whitens the basis (the non-iterative
Gram-Schmidt): the forward solve l = L^{-1} X gives per-index statistics
whose squares sum pairwise to the likelihood increments V_i, so every
candidate order's profile log-likelihood X^T C^{-1} X / 2 (in units of
sigma0^2 when the noise level is known) comes from one full-order
factorization: L_nu = sum_{i<=nu} V_i / 2.  FrequencyPlan holds that
factorization for fixed frequencies; the greedy ML search grows one
orthonormal basis per trial, one slot at a time, for a block of trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg import cholesky as _cholesky

from .errors import DegenerateStatsError, ValidationError, finite_float, nonneg_int
from .signal_model import modulated_pair

_COND_LIMIT = 1e12
# trials per ML search call.  Rows are searched independently, so the size
# never changes a result, only cost: per-trial time falls and the search's
# peak memory grows with it (16 trials: 1.1-1.3 ms per trial, 1.4 MiB; 64:
# 0.6-0.8 ms, 4.1 MiB; 400: 0.45-0.6 ms, 22 MiB on 2 shared Xeon cores)
_ML_BLOCK = 64
# a candidate whose residual energy is below this fraction of its own energy
# sits next to an already-fitted frequency; there the Gram identity cancels
# to rounding noise, so its statistics come from explicit residual vectors
_IDENTITY_MIN_RESIDUAL = 1e-4
# a found frequency whose new basis column keeps less than this fraction of
# its norm after residualization is linearly dependent on the fit
_DEPENDENT_RESIDUAL = 1e-9
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def basis_matrix(scenario, frequencies):
    """Design matrix (N_s x 2*nu) with interleaved sine/cosine columns."""
    slots = scenario.candidate_slots()
    if len(frequencies) > len(slots):
        raise ValidationError(
            f"{len(frequencies)} frequencies exceed max_order {scenario.max_order}")
    cols = []
    for i, freq in enumerate(frequencies):
        c, s = modulated_pair(slots[i], float(freq), scenario.n_samples)
        cols += [s, c]
    return np.column_stack(cols)


def _check_in_band(scenario, frequencies):
    for i, (freq, (lo, hi)) in enumerate(zip(frequencies, scenario.bands)):
        if not (lo < freq < hi):
            raise ValidationError(
                f"frequency {freq} for order slot {i + 1} outside band ({lo}, {hi})")


def _chol_or_degenerate(gram, frequencies):
    try:
        chol = _cholesky(gram, lower=True)
    except np.linalg.LinAlgError:
        chol = None
    if chol is not None:
        diag = np.diag(chol)
        if diag.min() > 0 and (diag.max() / diag.min()) ** 2 < _COND_LIMIT:
            return chol
    freqs = np.asarray(frequencies, dtype=float)
    pair = None
    if freqs.size >= 2:
        ii, jj = np.triu_indices(freqs.size, k=1)
        k = int(np.argmin(np.abs(freqs[ii] - freqs[jj])))
        pair = (int(ii[k]) + 1, int(jj[k]) + 1)
    raise DegenerateStatsError(
        f"covariance is numerically singular; closest frequency pair: {pair}",
        pair=pair)


@dataclass(frozen=True)
class FrequencyPlan:
    """Precomputed design for fixed frequencies, for batched evaluation."""

    scenario: object
    frequencies: np.ndarray
    basis: np.ndarray
    chol: np.ndarray

    @classmethod
    def build(cls, scenario, frequencies):
        frequencies = np.asarray(frequencies, dtype=float)
        _check_in_band(scenario, frequencies)
        basis = basis_matrix(scenario, frequencies)
        chol = _chol_or_degenerate(basis.T @ basis, frequencies)
        return cls(scenario=scenario, frequencies=frequencies, basis=basis,
                   chol=chol)

    def residuals_batch(self, samples):
        """l statistics for a batch of observations (rows)."""
        arr = np.atleast_2d(np.asarray(samples, dtype=float))
        x = arr @ self.basis
        l = solve_triangular(self.chol, x.T, lower=True).T
        scale = self.scenario.noise_level if self.scenario.noise_known else 1.0
        if scale > 0:
            l = l / scale
        return l

    def increments_batch(self, samples):
        """V_i for a batch: shape (n_trials, max order of the plan)."""
        l = self.residuals_batch(samples)
        return l[:, 0::2] ** 2 + l[:, 1::2] ** 2

    def logliks_batch(self, samples):
        """L_nu for nu = 1..order, per trial: half the running sum of V."""
        return 0.5 * np.cumsum(self.increments_batch(samples), axis=1)

    def amp_phase(self, samples):
        """Quadrature-amplitude MLE Q = C^{-1} X and per-signal (a, phi).

        samples is one observation row or a batch of rows; returns
        (q_hat, amplitudes, phases) with a leading trial axis for a batch and
        phases mapped to [0, 2*pi).
        """
        x = np.asarray(samples, dtype=float) @ self.basis
        q_hat = cho_solve((self.chol, True), x.T).T
        q_sin = q_hat[..., 0::2]
        q_cos = q_hat[..., 1::2]
        amps = np.hypot(q_sin, q_cos)
        phases = np.mod(np.arctan2(q_sin, q_cos), 2.0 * math.pi)
        return q_hat, amps, phases


def _quadratic_form(g11, g22, g12, p1, p2):
    """p^T G^{-1} p for the 2x2 residual Gram G and projections p."""
    det = np.maximum(g11 * g22 - g12**2, 1e-30)
    return (g22 * p1**2 - 2.0 * g12 * p1 * p2 + g11 * p2**2) / det


def _residualize(vecs, q_basis):
    """Rows vecs (T, m, N) minus their projections on each trial's fitted
    orthonormal rows q_basis (T, 2k, N)."""
    if not q_basis.shape[1]:
        return vecs
    return vecs - (vecs @ q_basis.transpose(0, 2, 1)) @ q_basis


def _explicit_increment(x, pairs, q_basis):
    """Unscaled V of one (sin, cos) pair per trial, pairs (T, 2, N), from
    explicit residual vectors."""
    resid = _residualize(pairs, q_basis)
    gram = resid @ resid.transpose(0, 2, 1)
    proj = (resid @ x[:, :, None])[:, :, 0]
    return _quadratic_form(gram[:, 0, 0], gram[:, 1, 1], gram[:, 0, 1],
                           proj[:, 0], proj[:, 1])


def _grid_quadrature_increment(x, slot, omegas, q_basis, sigma_sq):
    """Incremental statistic V for a block of trials.

    x holds one observation per row (T, N) and q_basis each trial's
    orthonormal fitted rows (T, 2k, N).  omegas is either a grid (G,)
    shared by every trial, giving V of shape (T, G), or a column (T, 1) of
    one frequency per trial, giving (T, 1).  The candidate (sin, cos) pair is
    residualized against the fit and V is the 2x2-solved quadratic form,
    divided by sigma_sq.  On a shared grid the waveforms W (N, 2G) are built
    once, one stacked product per trial [Q_t; x_t - Q_t^T Q_t x_t] W gives
    the projections, and g11, g22, g12 follow from the Gram identity
    (e.g. g11 = |s|^2 - |Q_t s|^2).  Every product is stacked per trial, so
    a row's value does not depend on the other rows.
    """
    cosines, sines = modulated_pair(slot, omegas, x.shape[1])
    if omegas.ndim == 2:
        return _explicit_increment(x, np.concatenate([sines, cosines], axis=1),
                                   q_basis)[:, None] / sigma_sq
    n_grid = omegas.shape[0]
    waves = np.ascontiguousarray(np.concatenate([sines, cosines]).T)
    fit = q_basis.shape[1]
    x_resid = _residualize(x[:, None, :], q_basis)
    prods = np.concatenate([q_basis, x_resid], axis=1) @ waves
    proj, q_s, q_c = prods[:, fit], prods[:, :fit, :n_grid], prods[:, :fit, n_grid:]
    e11, e22 = (sines * sines).sum(-1), (cosines * cosines).sum(-1)
    g11 = e11 - np.einsum("tkg,tkg->tg", q_s, q_s)
    g22 = e22 - np.einsum("tkg,tkg->tg", q_c, q_c)
    g12 = (sines * cosines).sum(-1) - np.einsum("tkg,tkg->tg", q_s, q_c)
    v = _quadratic_form(g11, g22, g12, proj[:, :n_grid], proj[:, n_grid:])
    if fit:
        rows, cols = np.nonzero((g11 < _IDENTITY_MIN_RESIDUAL * e11)
                                | (g22 < _IDENTITY_MIN_RESIDUAL * e22))
        if rows.size:
            v[rows, cols] = _explicit_increment(
                x[rows], np.stack([sines[cols], cosines[cols]], axis=1), q_basis[rows])
    return v / sigma_sq


def _golden_refine(x, slot, q_basis, sigma_sq, lo, hi, steps):
    """Golden-section maximization of V on each trial's bracket [lo, hi].

    The bracket keeps its best point; each step evaluates the point mirrored
    about the bracket's centre, one frequency per trial, and cuts the bracket
    at the worse of the two.  After steps + 1 cuts the bracket is
    _INV_PHI**(steps + 1) of its width; returns each trial's best point and
    its V.
    """
    def value(omegas):
        return _grid_quadrature_increment(x, slot, omegas[:, None], q_basis, sigma_sq)[:, 0]

    best = lo + _INV_PHI * (hi - lo)
    f_best = value(best)
    for _ in range(steps + 1):
        other = lo + hi - best
        f_other = value(other)
        take = f_other >= f_best
        cut = np.where(take, best, other)
        # the cut ends the bracket above when the kept point lies below it
        upper = take == (other < best)
        lo, hi = np.where(upper, lo, cut), np.where(upper, cut, hi)
        best, f_best = np.where(take, other, best), np.where(take, f_other, f_best)
    return best, f_best


def _extend_bases(q_basis, slot, omegas, n_samples):
    """Append each trial's (sin, cos) pair at its found frequency to its
    orthonormal rows.

    The residual pair [r_s, r_c] is whitened by the 2x2 Cholesky factor L of
    its Gram matrix; l22 is the norm of r_c minus its projection on the new
    sine row, so a column counts as dependent on the fit when its pivot is
    below _DEPENDENT_RESIDUAL of its own norm.  Returns the extended rows and
    a mask of the trials whose pair was independent.
    """
    cosines, sines = modulated_pair(slot, omegas[:, None], n_samples)
    pairs = np.concatenate([sines, cosines], axis=1)
    norms = np.sqrt((pairs * pairs).sum(-1))
    r_s, r_c = np.moveaxis(_residualize(pairs, q_basis), 1, 0)
    l11 = np.sqrt((r_s * r_s).sum(-1))
    ok = l11 >= _DEPENDENT_RESIDUAL * norms[:, 0]
    q_s = r_s / np.where(ok, l11, 1.0)[:, None]
    u = r_c - (q_s * r_c).sum(-1)[:, None] * q_s
    l22 = np.sqrt((u * u).sum(-1))
    ok &= l22 >= _DEPENDENT_RESIDUAL * norms[:, 1]
    q_c = u / np.where(ok, l22, 1.0)[:, None]
    return np.concatenate([q_basis, q_s[:, None], q_c[:, None]], axis=1), ok


def ml_search_increments(rows, order, scenario, grid_points=256, refine_tol=1e-6):
    """Greedy sequential ML frequency search for a block of observations.

    For each slot in turn the incremental statistic V is maximized over a
    grid in the slot's band and refined by golden section to refine_tol (a
    trial keeps its grid point when refinement does not reach its value);
    previously found frequencies stay fixed.  rows holds one observation
    per row (T, N).  Returns (frequencies, increments), each (T, order); a
    trial whose found frequency is linearly dependent on its fit gets NaN
    rows.  Rows are computed independently: a block's row equals the search
    of that observation alone (a block of one), bit for bit.
    """
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    slots = scenario.candidate_slots()
    if order > len(slots):
        raise ValidationError(f"order {order} exceeds max_order {len(slots)}")
    x = np.asarray(rows, dtype=float)
    n = scenario.n_samples
    if x.ndim != 2 or x.shape[1] != n:
        raise ValidationError(f"observations have shape {x.shape}, expected (trials, {n})")
    x = np.ascontiguousarray(x)
    sigma_sq = scenario.noise_level**2 if (scenario.noise_known and scenario.noise_level > 0) else 1.0
    freqs = np.full((x.shape[0], order), np.nan)
    incs = np.full((x.shape[0], order), np.nan)
    live = np.arange(x.shape[0])
    q_basis = np.zeros((x.shape[0], 0, n))
    for i, slot in enumerate(slots[:order]):
        lo, hi = slot.band
        pad = (hi - lo) * 1e-9
        grid = np.linspace(lo + pad, hi - pad, grid_points)
        # golden steps that shrink the widest bracket, two grid steps, to
        # refine_tol, counted so that they do not depend on the trials
        steps = max(0, math.ceil(math.log(refine_tol / (2.0 * (grid[1] - grid[0])))
                                 / math.log(_INV_PHI)))
        vals = _grid_quadrature_increment(x, slot, grid, q_basis, sigma_sq)
        j = np.argmax(vals, axis=1)
        grid_v = vals[np.arange(j.size), j]
        ref_w, ref_v = _golden_refine(x, slot, q_basis, sigma_sq,
                                      grid[np.maximum(j - 1, 0)],
                                      grid[np.minimum(j + 1, grid_points - 1)], steps)
        refined = ref_v >= grid_v
        found = np.where(refined, ref_w, grid[j])
        freqs[live, i] = found
        incs[live, i] = np.where(refined, ref_v, grid_v)
        q_basis, ok = _extend_bases(q_basis, slot, found, n)
        if not ok.all():
            freqs[live[~ok]] = incs[live[~ok]] = np.nan
            x, q_basis, live = x[ok], q_basis[ok], live[ok]
    return freqs, incs


@dataclass(frozen=True)
class Ml:
    """Maximum-likelihood approach: per-order greedy frequency search."""

    grid_points: int = 256
    refine_tol: float = 1e-6

    def __post_init__(self):
        if nonneg_int(self.grid_points, "grid_points") < 2:
            raise ValidationError(f"grid_points must be >= 2, got {self.grid_points}")
        object.__setattr__(self, "refine_tol", finite_float(self.refine_tol, "refine_tol"))
        if not self.refine_tol > 0:
            raise ValidationError(f"refine_tol must be > 0, got {self.refine_tol}")

    @property
    def label(self):
        return "ml"

    @property
    def params_per_signal(self):
        return 3


@dataclass(frozen=True)
class Bl:
    """Blind/quasilikelihood approach: fixed frequencies.

    delta_omega offsets the nominal candidate frequencies (0 = known
    frequencies); explicit frequencies override the offset rule.
    """

    delta_omega: float = 0.0
    frequencies: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "delta_omega", finite_float(self.delta_omega, "delta_omega"))
        if self.frequencies is None:
            return
        if self.delta_omega != 0.0:
            raise ValidationError("delta_omega must be 0: explicit frequencies replace it")
        if not isinstance(self.frequencies, (list, tuple, np.ndarray)):
            raise ValidationError(f"frequencies must be a sequence, got {self.frequencies!r}")
        object.__setattr__(self, "frequencies", tuple(
            finite_float(w, f"frequencies[{j}]") for j, w in enumerate(self.frequencies)))

    @property
    def label(self):
        if self.frequencies is not None:
            return "bl-fixed"
        return "known" if self.delta_omega == 0.0 else f"bl({self.delta_omega:g})"

    @property
    def params_per_signal(self):
        return 2


KNOWN_FREQ = Bl(delta_omega=0.0)


def approach_frequencies(scenario, approach):
    """Candidate frequencies of a Bl approach for all slots: its explicit
    frequencies, or the nominal ones offset by delta_omega.  FrequencyPlan.build
    checks them against the bands."""
    if approach.frequencies is None:
        return scenario.all_frequencies + float(approach.delta_omega)
    freqs = np.asarray(approach.frequencies, dtype=float)
    if freqs.shape != (scenario.max_order,):
        raise ValidationError(
            f"{freqs.size} explicit frequencies for {scenario.max_order} order slots")
    return freqs


def ladders(rows, scenario, approach):
    """Likelihood ladders of a block of observations (T, N) under the approach.

    Returns (logliks, increments, frequencies), each (T, max_order), with
    L_nu half the running sum of the increments V.  Bl whitens every row
    with one FrequencyPlan; Ml runs the greedy search on blocks of
    _ML_BLOCK rows, and a trial whose statistics degenerate gets NaN rows.
    Rows are independent: a row's ladder does not depend on the others.
    """
    if isinstance(approach, Bl):
        freqs = approach_frequencies(scenario, approach)
        incs = FrequencyPlan.build(scenario, freqs).increments_batch(rows)
        freqs = np.broadcast_to(freqs, incs.shape)
    elif isinstance(approach, Ml):
        blocks = [ml_search_increments(rows[start:start + _ML_BLOCK], scenario.max_order,
                                       scenario, grid_points=approach.grid_points,
                                       refine_tol=approach.refine_tol)
                  for start in range(0, len(rows), _ML_BLOCK)]
        freqs, incs = (np.concatenate(parts) for parts in zip(*blocks))
    else:
        raise ValidationError("approach must be an Ml or Bl instance")
    return 0.5 * np.cumsum(incs, axis=1), incs, freqs


def observation_logliks(observation, scenario, approach):
    """Profile log-likelihoods L_1..L_maxorder under the given approach.

    observation is an Observation or a bare 1-d sample row.  Returns
    (logliks, increments, frequencies): the ladders of a batch of one, so
    equal bit for bit to that row of collect_logliks, and a
    DegenerateStatsError where collect_logliks gives a NaN row.
    """
    x = np.asarray(getattr(observation, "samples", observation), dtype=float)
    if x.shape != (scenario.n_samples,):
        raise ValidationError(
            f"observation has shape {x.shape}, expected ({scenario.n_samples},)")
    logliks, incs, freqs = ladders(x[None], scenario, approach)
    if np.isnan(incs[0, 0]):
        raise DegenerateStatsError(
            "ML search: a found frequency is linearly dependent on the fit")
    return logliks[0], incs[0], freqs[0]
