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
sigma0^2) comes from one full-order
factorization: L_nu = sum_{i<=nu} V_i / 2.  FrequencyPlan holds that
factorization for fixed frequencies and the whitened basis L^{-1} B^T, so
l is one product per observation; the greedy ML search grows one
orthonormal basis per trial, one slot at a time, for a block of trials,
and refines each slot's grid maximum by parabolic steps that stop on a
bracketing certificate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateStatsError, ValidationError, finite_float, finite_floats,
                     nonneg_int)
from .signal_model import modulated_pair

_COND_LIMIT = 1e12
# rows per block of the ML search, and live rows per piece of a block's grid
# products.  Rows are searched independently, so neither size changes a
# result, only cost.  Refinement and basis growth run once per slot over a
# whole block, and their per-call overhead falls with its size; the grid
# product of a piece, (rows (fit + 1)) x 2G, and its temporaries grow with
# _GRID_ROWS, which caps them.  A 4096-row search of standard_scenario at
# 0 dB on 2 shared Xeon cores with _GRID_ROWS 64, time per trial (best of
# three, over three runs) and traced peak memory of one block: blocks of 64
# 0.23-0.29 ms, 5.2 MiB; 256: 0.20-0.23 ms, 6.3 MiB; 512: 0.19-0.26 ms,
# 9.2 MiB; 1024: 0.22-0.24 ms, 17 MiB.  The time levels off from 256 rows;
# 512 searches a 400-trial estimate() call as one block
_ML_BLOCK = 512
_GRID_ROWS = 64
# a candidate whose residual energy is below this fraction of its own energy
# sits next to an already-fitted frequency; there the Gram identity cancels
# to rounding noise, so its statistics come from explicit residual vectors
_IDENTITY_MIN_RESIDUAL = 1e-4
# a found frequency whose new basis column keeps less than this fraction of
# its norm after residualization is linearly dependent on the fit
_DEPENDENT_RESIDUAL = 1e-9
# rounds of refine_maxima, once per slot in the ML search; a row still
# refining after them keeps its best point.  Searches of 2000 trials of
# standard_scenario at -4 and 0 dB take at most 4 rounds on the default
# 256-point grid and 33 on a 3- or 4-point one
_REFINE_ROUNDS = 64


def basis_matrix(scenario, frequencies):
    """Design matrix (N_s x 2*nu) with interleaved sine/cosine columns.  An
    (M, nu) array of M frequency sets gives the M matrices, (M, N_s, 2*nu),
    each that of its set bit for bit."""
    frequencies = np.asarray(frequencies, dtype=float)
    slots = scenario.candidate_slots()
    if frequencies.shape[-1] > len(slots):
        raise ValidationError(
            f"{frequencies.shape[-1]} frequencies exceed max_order {scenario.max_order}")
    cols = []
    for i, slot in enumerate(slots[:frequencies.shape[-1]]):
        c, s = modulated_pair(slot, frequencies[..., i], scenario.n_samples)
        cols += [s, c]
    return np.stack(cols, axis=-1)


def _check_finite(x):
    """Reject an observation (1-d) or a block of them (2-d) with a NaN or inf."""
    if not np.isfinite(x).all():
        row = "" if x.ndim == 1 else f" row {np.argmin(np.isfinite(x).all(axis=1))}"
        raise ValidationError(f"observation{row} has a non-finite (NaN or inf) sample")


def _check_in_band(scenario, frequencies):
    for i, (freq, (lo, hi)) in enumerate(zip(frequencies, scenario.bands)):
        if not (lo < freq < hi):
            raise ValidationError(
                f"frequency {freq} for order slot {i + 1} outside band ({lo}, {hi})")


def _chol_or_degenerate(gram, frequencies):
    try:
        chol = np.linalg.cholesky(gram)
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


def _factored_bases(scenario, frequency_sets):
    """Design matrices (M, N_s, 2*nu) of an (M, nu) array of M frequency
    sets and the Cholesky factors (M, 2*nu, 2*nu) of their Gram matrices:
    every set's bands are checked, then one basis_matrix call builds all M
    matrices, then each set's Gram matrix is factored.  Each set's pair is
    the one it gets alone, bit for bit."""
    for freqs in frequency_sets:
        _check_in_band(scenario, freqs)
    bases = basis_matrix(scenario, frequency_sets)
    chols = np.array([_chol_or_degenerate(basis.T @ basis, freqs)
                      for freqs, basis in zip(frequency_sets, bases)])
    return bases, chols


@dataclass(frozen=True)
class FrequencyPlan:
    """Precomputed design for fixed frequencies, for batched evaluation."""

    scenario: object
    frequencies: np.ndarray
    basis: np.ndarray
    chol: np.ndarray

    @classmethod
    def build(cls, scenario, frequencies):
        frequencies = finite_floats(frequencies, "frequencies")
        bases, chols = _factored_bases(scenario, frequencies[None])
        return cls(scenario=scenario, frequencies=frequencies, basis=bases[0],
                   chol=chols[0])

    @functools.cached_property
    def whitened(self):
        """The whitened basis W = L^{-1} B^T (2 nu x N_s), whose rows are
        orthonormal, derived once per plan by numpy's solve."""
        return np.linalg.solve(self.chol, self.basis.T)

    def residuals_batch(self, samples):
        """l statistics for a batch of observations (rows) over sigma0: one
        product with the whitened basis.  einsum sums each row's products in
        its own loop, without BLAS, so a row's statistics do not depend on
        the other rows or on how many there are, and no BLAS worker thread
        wakes.  Rows are taken C-contiguous, the layout the sum order is
        fixed for."""
        arr = np.ascontiguousarray(np.atleast_2d(samples), dtype=float)
        return np.einsum("tn,kn->tk", arr, self.whitened) / self.scenario.noise_level

    def increments_batch(self, samples):
        """V_i for a batch: shape (n_trials, max order of the plan)."""
        l = self.residuals_batch(samples)
        return l[:, 0::2] ** 2 + l[:, 1::2] ** 2

    def logliks_batch(self, samples):
        """L_nu for nu = 1..order, per trial: half the running sum of V."""
        return 0.5 * np.cumsum(self.increments_batch(samples), axis=1)


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


@dataclass(frozen=True)
class _SlotGrid:
    """A slot's search grid and its waveforms, built once per search and
    shared by all its blocks: waves (N, 2G) holds the grid's sines, then its
    cosines, as columns, and e11, e22, e12 are their energies |s|^2, |c|^2
    and s.c per grid point."""

    slot: object
    grid: np.ndarray
    waves: np.ndarray
    e11: np.ndarray
    e22: np.ndarray
    e12: np.ndarray

    @classmethod
    def build(cls, slot, grid_points, n_samples):
        lo, hi = slot.band
        # an edge point this far inside the band stays clear of a frequency
        # fitted at the shared edge of the slot before, where V rounds low
        pad = (hi - lo) * 1e-6
        grid = np.linspace(lo + pad, hi - pad, grid_points)
        cosines, sines = modulated_pair(slot, grid, n_samples)
        return cls(slot, grid, np.ascontiguousarray(np.concatenate([sines, cosines]).T),
                   (sines * sines).sum(-1), (cosines * cosines).sum(-1),
                   (sines * cosines).sum(-1))


def _grid_quadrature_increment(x, table, omegas, q_basis, sigma_sq):
    """Incremental statistic V for a block of trials.

    x holds one observation per row (T, N) and q_basis each trial's
    orthonormal fitted rows (T, 2k, N).  omegas is either the table's grid
    (G,) shared by every trial, giving V of shape (T, G), or a column (T, 1)
    of one frequency per trial in the table's slot, giving (T, 1).  The
    candidate (sin, cos) pair is residualized against the fit and V is the
    2x2-solved quadratic form, divided by sigma_sq.  On the grid the
    products [Q_t; x_t - Q_t^T Q_t x_t] W with the table's waveforms W give
    the projections, and g11, g22, g12 follow from the Gram identity
    (e.g. g11 = |s|^2 - |Q_t s|^2).  With a fit every trial's rows go
    through one product; with none each trial's single row keeps its own,
    because a one-row product rounds unlike a row of a larger one.  Either
    way a row's value does not depend on the other rows.
    """
    if omegas.ndim == 2:
        cosines, sines = modulated_pair(table.slot, omegas, x.shape[1])
        return _explicit_increment(x, np.concatenate([sines, cosines], axis=1),
                                   q_basis)[:, None] / sigma_sq
    waves = table.waves
    n_trials, fit = q_basis.shape[:2]
    n_grid = omegas.shape[0]
    stacked = np.concatenate([q_basis, _residualize(x[:, None, :], q_basis)], axis=1)
    if fit:
        prods = (stacked.reshape(-1, x.shape[1]) @ waves).reshape(
            n_trials, fit + 1, 2 * n_grid)
    else:
        prods = stacked @ waves
    proj, q_s, q_c = prods[:, fit], prods[:, :fit, :n_grid], prods[:, :fit, n_grid:]
    g11 = table.e11 - np.einsum("tkg,tkg->tg", q_s, q_s)
    g22 = table.e22 - np.einsum("tkg,tkg->tg", q_c, q_c)
    g12 = table.e12 - np.einsum("tkg,tkg->tg", q_s, q_c)
    v = _quadratic_form(g11, g22, g12, proj[:, :n_grid], proj[:, n_grid:])
    if fit:
        rows, cols = np.nonzero((g11 < _IDENTITY_MIN_RESIDUAL * table.e11)
                                | (g22 < _IDENTITY_MIN_RESIDUAL * table.e22))
        if rows.size:
            sines, cosines = waves.T.reshape(2, n_grid, -1)
            v[rows, cols] = _explicit_increment(
                x[rows], np.stack([sines[cols], cosines[cols]], axis=1), q_basis[rows])
    return v / sigma_sq


def _parabola_vertex(pts, fpts, best, lo, hi):
    """Vertex of each row's parabola through three sorted points, clipped
    to [lo, hi]; the best point where the parabola is not concave."""
    a, m, c = pts.T
    fa, fm, fc = fpts.T
    num = (m - a) ** 2 * (fm - fc) - (m - c) ** 2 * (fm - fa)
    den = (m - a) * (fm - fc) - (m - c) * (fm - fa)
    # a concave parabola through distinct sorted points has den > 0; a flat
    # function makes both terms zero, and then no step is taken
    concave = den > 0
    vertex = m - 0.5 * num / np.where(concave, den, 1.0)
    return np.where(concave, np.clip(vertex, lo, hi), best)


def refine_maxima(evaluate, grid, vals, refine_tol):
    """Maximize each row's function f near its maximum j on the grid (G >= 3
    sorted points, values vals (T, G)); returns each row's (point, value).

    evaluate(rows, points) gives row rows[k]'s f at points[k].  Successive
    parabolic interpolation (Brent 1973, ch. 5) that stops on a bracketing
    certificate.  The first parabola runs through three grid points: j and
    its two neighbours, or the next two inward at a grid end.  Each round
    takes, for every row still refining, the vertex u of its parabola
    clipped to the bracket [grid[j - 1], grid[j + 1]].  If u lies at least
    refine_tol / 2 from the best point b, u is evaluated.  Otherwise the
    certificate sides b +- refine_tol / 2 that lie in the bracket are
    evaluated, and if neither beats f(b) the row is done: the maximum of an
    f unimodal in the bracket lies within refine_tol / 2 of b.  Every
    evaluated point joins the row's points, and the three consecutive points
    centred on the best are kept.  A row still refining after _REFINE_ROUNDS
    rounds keeps its best point, so no row ends below its grid maximum.
    Each round is one evaluate call over the rows it steps or checks, and
    each row's arithmetic is its own, so a row's result does not depend on
    the other rows.
    """
    n_grid = grid.size
    j = np.argmax(vals, axis=1)
    lo, hi = grid[np.maximum(j - 1, 0)], grid[np.minimum(j + 1, n_grid - 1)]
    window = np.clip(j, 1, n_grid - 2)[:, None] + np.arange(-1, 2)
    pts, fpts = grid[window], np.take_along_axis(vals, window, axis=1)
    best, f_best = grid[j], vals[np.arange(j.size), j]
    half = 0.5 * refine_tol
    live = np.arange(j.size)
    for _ in range(_REFINE_ROUNDS):
        b, f_b = best[live], f_best[live]
        u = _parabola_vertex(pts[live], fpts[live], b, lo[live], hi[live])
        steps = np.abs(u - b) >= half
        # per row the vertex, or the certificate sides inside its bracket
        new = np.column_stack([u, b - half, b + half])
        used = np.column_stack([steps, ~steps & (lo[live] <= new[:, 1]),
                                ~steps & (new[:, 2] <= hi[live])])
        at, col = np.nonzero(used)
        f_new = np.full(new.shape, -np.inf)
        if at.size:
            f_new[at, col] = evaluate(live[at], new[at, col])
        # a certificate side that ties the value at b keeps b
        moves = steps | (f_new[:, 1:] > f_b[:, None]).any(axis=1)
        live, new, f_new, used = live[moves], new[moves], f_new[moves], used[moves]
        if not live.size:
            break
        # merge the evaluated points into the sorted ones, unused sides
        # sorting last as NaN, and keep the three consecutive points centred
        # on the best
        at = np.arange(live.size)[:, None]
        p = np.column_stack([pts[live], np.where(used, new, np.nan)])
        f = np.column_stack([fpts[live], f_new])
        order = np.argsort(p, axis=1)
        p, f = p[at, order], f[at, order]
        top = np.argmax(f, axis=1)
        keep = np.clip(top, 1, 1 + used.sum(axis=1))[:, None] + np.arange(-1, 2)
        pts[live], fpts[live] = p[at, keep], f[at, keep]
        best[live], f_best[live] = p[at[:, 0], top], f[at[:, 0], top]
    return best, f_best


def _slot_values(x, table, q_basis, sigma_sq, rows, omegas):
    """V of row x[rows[k]] at omegas[k]: refine_maxima's evaluate, per slot."""
    return _grid_quadrature_increment(x[rows], table, omegas[:, None], q_basis[rows],
                                      sigma_sq)[:, 0]


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


def _search_block(x, tables, sigma_sq, refine_tol):
    """The greedy search of ml_search_increments on one block of rows x,
    one slot per table.  A slot's grid values come in pieces of _GRID_ROWS
    live rows; its refinement and basis growth take all live rows at once."""
    n_rows, n = x.shape
    freqs = np.full((n_rows, len(tables)), np.nan)
    incs = np.full((n_rows, len(tables)), np.nan)
    live = np.arange(n_rows)
    q_basis = np.zeros((n_rows, 0, n))
    for i, table in enumerate(tables):
        vals = np.empty((live.size, table.grid.size))
        for start in range(0, live.size, _GRID_ROWS):
            piece = slice(start, start + _GRID_ROWS)
            vals[piece] = _grid_quadrature_increment(x[piece], table, table.grid,
                                                     q_basis[piece], sigma_sq)
        evaluate = functools.partial(_slot_values, x, table, q_basis, sigma_sq)
        found, incs[live, i] = refine_maxima(evaluate, table.grid, vals, refine_tol)
        freqs[live, i] = found
        q_basis, ok = _extend_bases(q_basis, table.slot, found, n)
        if not ok.all():
            freqs[live[~ok]] = incs[live[~ok]] = np.nan
            x, q_basis, live = x[ok], q_basis[ok], live[ok]
    return freqs, incs


def ml_search_increments(rows, scenario, approach):
    """Greedy sequential ML frequency search for observations (T, N) over
    every candidate slot of the scenario, configured by the Ml approach.

    For each slot in turn the incremental statistic V is maximized over a
    grid of approach.grid_points in the slot's band and refined to
    approach.refine_tol next to the grid maximum (refine_maxima: parabolic
    steps from the grid values until a bracketing certificate holds);
    previously found frequencies stay fixed.  rows holds one finite
    observation per row.  Each slot's grid waveforms are built once, and the
    rows are searched in blocks of _ML_BLOCK: per slot, the grid stage takes
    a block's live rows in pieces of _GRID_ROWS, and the refinement and
    basis growth take them all at once.  Returns (frequencies, increments),
    each (T, max_order); a trial whose found frequency is linearly dependent
    on its fit gets NaN rows.
    Rows are computed independently: a row equals the search of that
    observation alone (a batch of one), bit for bit.
    """
    x = np.asarray(rows, dtype=float)
    n = scenario.n_samples
    if x.ndim != 2 or x.shape[1] != n:
        raise ValidationError(f"observations have shape {x.shape}, expected (trials, {n})")
    _check_finite(x)
    x = np.ascontiguousarray(x)
    sigma_sq = scenario.noise_level**2
    tables = [_SlotGrid.build(slot, approach.grid_points, n)
              for slot in scenario.candidate_slots()]
    freqs = np.full((x.shape[0], len(tables)), np.nan)
    incs = np.full((x.shape[0], len(tables)), np.nan)
    for start in range(0, x.shape[0], _ML_BLOCK):
        block = slice(start, start + _ML_BLOCK)
        freqs[block], incs[block] = _search_block(x[block], tables, sigma_sq,
                                                  approach.refine_tol)
    return freqs, incs


@dataclass(frozen=True)
class Ml:
    """Maximum-likelihood approach: per-order greedy frequency search."""

    grid_points: int = 256
    refine_tol: float = 1e-6

    label = "ml"
    params_per_signal = 3

    def __post_init__(self):
        # the first parabola of the refinement runs through three grid points
        if nonneg_int(self.grid_points, "grid_points") < 3:
            raise ValidationError(f"grid_points must be >= 3, got {self.grid_points}")
        object.__setattr__(self, "refine_tol", finite_float(self.refine_tol, "refine_tol"))
        if not self.refine_tol > 0:
            raise ValidationError(f"refine_tol must be > 0, got {self.refine_tol}")


@dataclass(frozen=True)
class Bl:
    """Blind/quasilikelihood approach: fixed frequencies.

    delta_omega offsets the nominal candidate frequencies (0 = known
    frequencies); explicit frequencies override the offset rule.
    """

    delta_omega: float = 0.0
    frequencies: tuple | None = None

    params_per_signal = 2

    def __post_init__(self):
        object.__setattr__(self, "delta_omega", finite_float(self.delta_omega, "delta_omega"))
        if self.frequencies is None:
            return
        if self.delta_omega != 0.0:
            raise ValidationError("delta_omega must be 0: explicit frequencies replace it")
        object.__setattr__(self, "frequencies",
                           tuple(finite_floats(self.frequencies, "frequencies").tolist()))

    @property
    def label(self):
        if self.frequencies is not None:
            return "bl-fixed"
        return "known" if self.delta_omega == 0.0 else f"bl({self.delta_omega:g})"


KNOWN_FREQ = Bl(delta_omega=0.0)


def approach_frequencies(scenario, approach):
    """Candidate frequencies of a Bl approach for all slots: its explicit
    frequencies, or the nominal ones offset by delta_omega.  FrequencyPlan.build
    checks them against the bands.  An Ml approach has none, as its search
    finds each trial's own: a ValidationError."""
    if isinstance(approach, Ml):
        raise ValidationError(
            "the ml approach has no fixed frequencies; use known/bl frequencies, "
            "or Monte Carlo (mc, or the monte_carlo objective of tune)")
    if approach.frequencies is None:
        return scenario.all_frequencies + float(approach.delta_omega)
    freqs = np.array(approach.frequencies)  # Bl has read them as floats
    if freqs.size != scenario.max_order:
        raise ValidationError(
            f"explicit frequencies must hold {scenario.max_order} numbers, got {freqs.size}")
    return freqs


def ladder_function(scenario, approach):
    """The function that maps a block of observations (T, N) to their
    likelihood ladders under the approach, for any number of blocks.

    It returns (logliks, increments, frequencies), each (T, max_order), with
    L_nu half the running sum of the increments V.  For Bl every block goes
    through one FrequencyPlan, built here; for Ml each block is one greedy
    search, and a trial whose statistics degenerate gets NaN rows.  Rows are
    independent: a row's ladder does not depend on the others or on how
    many there are, bit for bit.
    """
    if isinstance(approach, Bl):
        freqs = approach_frequencies(scenario, approach)
        plan = FrequencyPlan.build(scenario, freqs)

        def increments(rows):
            incs = plan.increments_batch(rows)
            return incs, np.broadcast_to(freqs, incs.shape)
    elif isinstance(approach, Ml):
        def increments(rows):
            freqs, incs = ml_search_increments(rows, scenario, approach)
            return incs, freqs
    else:
        raise ValidationError("approach must be an Ml or Bl instance")

    def block_ladders(rows):
        incs, freqs = increments(rows)
        return 0.5 * np.cumsum(incs, axis=1), incs, freqs

    return block_ladders


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
    _check_finite(x)
    logliks, incs, freqs = ladder_function(scenario, approach)(x[None])
    if np.isnan(incs[0, 0]):
        raise DegenerateStatsError(
            "ML search: a found frequency is linearly dependent on the fit")
    return logliks[0], incs[0], freqs[0]
