"""Oracles that the closed-form increment laws and abridged errors are checked against."""

import numpy as np

import sincount as sc


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
