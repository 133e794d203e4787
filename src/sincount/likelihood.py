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
factorization for fixed frequencies; the greedy ML search grows an
orthonormal basis one slot at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg import cholesky as _cholesky
from scipy.optimize import minimize_scalar

from .errors import DegenerateStatsError, ValidationError, nonneg_int
from .signal_model import modulated_pair

_COND_LIMIT = 1e12


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
    bands = scenario.bands
    for i, freq in enumerate(frequencies):
        lo, hi = bands[i]
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


def noise_level_mle(observation, fitted_signal):
    """Residual-power statistic (sum (x - s)^2 / 2) / (N_s / (4 pi)).

    The unusual normalization makes the value concentrate near 2 pi sigma0^2
    for pure noise; downstream likelihoods are invariant to it, so it is
    reported as-is and never used as a calibrated variance.
    """
    x = np.asarray(observation.samples, dtype=float)
    s = np.asarray(fitted_signal, dtype=float)
    if x.shape != s.shape:
        raise ValidationError("fitted signal length does not match observation")
    n = x.shape[0]
    return float((np.sum((x - s) ** 2) / 2.0) / (n / (4.0 * math.pi)))


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


def bl_frequencies(bands, rule, values=None, delta=None, nominal=None):
    """Blind (a priori) frequency choices for the quasilikelihood approach.

    rule = "center": band midpoints; "fixed": the given values;
    "offset": nominal + delta per slot (robustness sweeps).
    """
    bands = list(bands)
    if rule == "center":
        out = np.array([(lo + hi) / 2.0 for lo, hi in bands])
    elif rule == "fixed":
        if values is None:
            raise ValidationError("rule 'fixed' needs values")
        out = np.asarray(values, dtype=float)
        if out.shape[0] != len(bands):
            raise ValidationError("values length does not match bands")
    elif rule == "offset":
        if nominal is None or delta is None:
            raise ValidationError("rule 'offset' needs nominal frequencies and delta")
        out = np.asarray(nominal, dtype=float) + float(delta)
    else:
        raise ValidationError(f"unknown rule {rule!r}")
    for freq, (lo, hi) in zip(out, bands):
        if not (lo < freq < hi):
            raise ValidationError(f"frequency {freq} outside band ({lo}, {hi})")
    return out


def _grid_quadrature_increment(x, slot, omegas, q_basis, sigma_sq):
    """Incremental statistic V(omega) over an array of frequencies.

    q_basis holds orthonormal columns of the already-fitted subspace; the
    candidate (sin, cos) pair is residualized against it and V is the
    2x2-solved quadratic form, scaled by sigma_sq when the noise is known.
    """
    cosines, sines = modulated_pair(slot, omegas, x.shape[0])
    if q_basis.shape[1]:
        sines = sines - (sines @ q_basis) @ q_basis.T
        cosines = cosines - (cosines @ q_basis) @ q_basis.T
    g11 = np.einsum("ij,ij->i", sines, sines)
    g22 = np.einsum("ij,ij->i", cosines, cosines)
    g12 = np.einsum("ij,ij->i", sines, cosines)
    p1 = sines @ x
    p2 = cosines @ x
    det = g11 * g22 - g12**2
    det = np.maximum(det, 1e-30)
    quad = (g22 * p1**2 - 2.0 * g12 * p1 * p2 + g11 * p2**2) / det
    return quad / sigma_sq


def _orthonormal_extend(q_basis, slot, omega, n_samples):
    c, s = modulated_pair(slot, float(omega), n_samples)
    cols = []
    for vec in (s, c):
        v = vec.copy()
        if q_basis.shape[1]:
            v = v - q_basis @ (q_basis.T @ v)
        for prev in cols:
            v = v - prev * (prev @ v)
        norm = np.linalg.norm(v)
        if norm < 1e-9 * np.linalg.norm(vec):
            raise DegenerateStatsError(
                f"candidate at frequency {omega} is linearly dependent on the fit")
        cols.append(v / norm)
    return np.column_stack([q_basis] + [c[:, None] for c in cols])


def ml_search_increments(observation, order, scenario, grid_points=256,
                         refine_tol=1e-6):
    """Greedy sequential ML frequency search.

    For each slot in turn the incremental statistic V is maximized over a
    grid in the slot's band and refined to refine_tol; previously found
    frequencies stay fixed.  Returns (frequencies, increments).
    """
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    slots = scenario.candidate_slots()
    if order > len(slots):
        raise ValidationError(f"order {order} exceeds max_order {len(slots)}")
    x = np.asarray(getattr(observation, "samples", observation), dtype=float)
    sigma_sq = scenario.noise_level**2 if (scenario.noise_known and scenario.noise_level > 0) else 1.0
    q_basis = np.zeros((scenario.n_samples, 0))
    freqs = np.zeros(order)
    incs = np.zeros(order)
    for i in range(order):
        lo, hi = slots[i].band
        pad = (hi - lo) * 1e-9
        grid = np.linspace(lo + pad, hi - pad, grid_points)
        vals = _grid_quadrature_increment(x, slots[i], grid, q_basis, sigma_sq)
        j = int(np.argmax(vals))
        blo = grid[max(j - 1, 0)]
        bhi = grid[min(j + 1, grid_points - 1)]

        def neg_v(w, _slot=slots[i]):
            return -_grid_quadrature_increment(
                x, _slot, np.array([w]), q_basis, sigma_sq)[0]

        res = minimize_scalar(neg_v, bounds=(blo, bhi), method="bounded",
                              options={"xatol": refine_tol})
        if res.fun <= -vals[j]:
            freqs[i], incs[i] = float(res.x), float(-res.fun)
        else:
            freqs[i], incs[i] = float(grid[j]), float(vals[j])
        q_basis = _orthonormal_extend(q_basis, slots[i], freqs[i], scenario.n_samples)
    return freqs, incs


@dataclass(frozen=True)
class Ml:
    """Maximum-likelihood approach: per-order greedy frequency search."""

    grid_points: int = 256
    refine_tol: float = 1e-6

    def __post_init__(self):
        if nonneg_int(self.grid_points, "grid_points") < 2:
            raise ValidationError(f"grid_points must be >= 2, got {self.grid_points}")
        if not (math.isfinite(self.refine_tol) and self.refine_tol > 0):
            raise ValidationError(f"refine_tol must be finite and > 0, got {self.refine_tol}")

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
    """Candidate frequencies of a Bl approach for all slots."""
    if approach.frequencies is not None:
        return bl_frequencies(scenario.bands, "fixed", values=approach.frequencies)
    return bl_frequencies(scenario.bands, "offset",
                          nominal=scenario.all_frequencies,
                          delta=approach.delta_omega)


def observation_logliks(observation, scenario, approach):
    """Profile log-likelihoods L_1..L_maxorder under the given approach.

    observation is an Observation or a bare 1-d sample row.  Returns
    (logliks, increments, frequencies).
    """
    x = np.asarray(getattr(observation, "samples", observation), dtype=float)
    if x.shape != (scenario.n_samples,):
        raise ValidationError(
            f"observation has shape {x.shape}, expected ({scenario.n_samples},)")
    if isinstance(approach, Ml):
        freqs, incs = ml_search_increments(
            x, scenario.max_order, scenario,
            grid_points=approach.grid_points, refine_tol=approach.refine_tol)
    else:
        freqs = approach_frequencies(scenario, approach)
        incs = FrequencyPlan.build(scenario, freqs).increments_batch(x)[0]
    return 0.5 * np.cumsum(incs), incs, freqs
