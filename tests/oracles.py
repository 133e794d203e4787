"""Oracles that the closed-form increment laws, abridged errors and the ML
search's refinement are checked against."""

import math

import numpy as np

import sincount as sc
from sincount import likelihood

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def sample_increments(dist_set, rng, size):
    """Independent draws of the QL increments (V_1..V_N), shape (size, N).

    Column i is a chi-square with 2 dof, central where lambda_i = 0 and
    otherwise with noncentrality lambda_i; the columns are drawn in order.
    """
    return np.column_stack([
        rng.chisquare(2, size) if lam == 0 else rng.noncentral_chisquare(2, lam, size)
        for lam in dist_set.lambdas])


def _panel_rule(n_nodes, n_panels):
    """Gauss-Legendre nodes and weights on [0, 1] split into equal panels."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    starts = np.arange(n_panels)[:, None] / n_panels
    return ((starts + 0.5 * (nodes + 1.0) / n_panels).ravel(),
            np.tile(0.5 * weights / n_panels, n_panels))


def pmep_i_interior_oracle(dist_set, kappa_i, n_nodes=64, n_panels=8):
    """Abridged PMEP-I error of an interior true order (1 < nu0 < N) of QL laws,
    with the double integral taken in the other order: x = V_nu0 outermost.

    Correct selection is {y/B - x <= S < x/A} with y = V_nu0+1 and S the lower
    partial sum; for given x it needs y < x/r, r = A / (B (A + 1)), and below
    y = B x the lower bound on S is void.  So
    P = int W_lo(x) [F_S(x/A) F_up(x/r) - int_{Bx}^{x/r} W_up(y) F_S(y/B - x) dy] dx,
    with both integrals on n_panels equal panels of n_nodes Gauss nodes over
    the laws' windows.
    """
    nu0 = dist_set.nu0
    kap = float(kappa_i)
    a_coef = (nu0 / (nu0 - 1.0)) ** (1.0 / kap) - 1.0
    b_coef = ((nu0 + 1.0) / nu0) ** (1.0 / kap) - 1.0
    x_over_r = b_coef * (a_coef + 1.0) / a_coef
    lo, up = dist_set.dists[nu0 - 1], dist_set.dists[nu0]
    f_sum = sc.nc_chisq2_sum(nu0 - 1, float(np.sum(dist_set.lambdas[:nu0 - 1]))).cdf
    nodes, weights = _panel_rule(n_nodes, n_panels)
    xs = lo.support_lo + (lo.support_hint - lo.support_lo) * nodes
    y_lo = np.maximum(b_coef * xs, up.support_lo)
    y_span = np.maximum(np.minimum(x_over_r * xs, up.support_hint) - y_lo, 0.0)
    inner = np.zeros(xs.size)
    live = y_span > 0
    ys = y_lo[live, None] + y_span[live, None] * nodes
    inner[live] = y_span[live] * np.sum(
        up.pdf(ys) * f_sum(ys / b_coef - xs[live, None]) * weights, axis=1)
    outer = f_sum(xs / a_coef) * up.cdf(x_over_r * xs) - inner
    return 1.0 - (lo.support_hint - lo.support_lo) * float(np.sum(weights * lo.pdf(xs) * outer))


def golden_refine(x, table, q_basis, sigma_sq, vals, refine_tol):
    """Golden-section maximization of V between each trial's grid neighbours,
    with the arguments and result of likelihood._refine.

    The bracket [grid[j - 1], grid[j + 1]] around the grid maximum j keeps
    its best point; each step evaluates the point mirrored about the
    bracket's centre, one frequency per trial, and cuts the bracket at the
    worse of the two.  The step count shrinks the widest bracket, two grid
    steps, to refine_tol and does not depend on the trials.  A trial keeps
    its grid point when refinement does not reach its value; returns each
    trial's (frequency, V).
    """
    def value(omegas):
        return likelihood._grid_quadrature_increment(
            x, table, omegas[:, None], q_basis, sigma_sq)[:, 0]

    grid = table.grid
    j = np.argmax(vals, axis=1)
    grid_w, grid_v = grid[j], vals[np.arange(j.size), j]
    lo, hi = grid[np.maximum(j - 1, 0)], grid[np.minimum(j + 1, grid.size - 1)]
    steps = max(0, math.ceil(math.log(refine_tol / (2.0 * (grid[1] - grid[0])))
                             / math.log(_INV_PHI)))
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
    refined = f_best >= grid_v
    return np.where(refined, best, grid_w), np.where(refined, f_best, grid_v)
