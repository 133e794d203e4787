"""Distributions of likelihood increments and the quadrature helpers.

The central objects are Dist records holding a CDF/PDF pair on [0, inf).
Likelihood increments under fixed frequencies follow noncentral chi-square
laws with 2 degrees of freedom; sums of increments follow the even-dof
family; the maximum-over-band increments of the ML approach follow an
extreme-value-type closed form with an atom at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chndtr, gammainc, gammaln, i0e, ive, ndtr

from .errors import QuadratureError, ValidationError


@dataclass(frozen=True)
class Dist:
    """A distribution on [0, inf): vectorized cdf/pdf callables, the window
    [support_lo, support_hint] outside which cdf and 1 - cdf are below 1e-12
    (for a convolution, below the sum of its parts' bounds), and the
    probability mass sitting exactly at zero (nonzero only for the truncated
    ML-approach laws, whose window therefore starts at zero)."""

    cdf: object
    pdf: object
    support_hint: float
    atom0: float = 0.0
    support_lo: float = 0.0


# upper-tail mass below which the ncx2 CDF reads exactly 1
_NCX2_TAIL = 1e-13


def _ncx2_cdf(x, m, lam):
    """CDF of noncentral chi-square with 2m dof, noncentrality lam.

    The central law (every noise-only index) is the regularized lower
    incomplete gamma function; otherwise the compiled cephes kernel.  Values
    within _NCX2_TAIL of 1 read 1: out there the kernel wobbles by an ulp or
    two of 1 while the true increments are smaller, so it steps backwards
    (seen up to 1 - cdf = 9.4e-15 over 6000 random grids); the clamp keeps
    the CDF nondecreasing at an absolute cost below _NCX2_TAIL.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    pos = x > 0
    vals = gammainc(m, x[pos] / 2.0) if lam <= 1e-300 else chndtr(x[pos], 2 * m, lam)
    out[pos] = np.where(vals > 1.0 - _NCX2_TAIL, 1.0, vals)
    return out


def _ncx2_pdf(x, m, lam):
    """PDF companion of _ncx2_cdf (2m dof):
    (x/lam)^((m-1)/2) exp(-(x + lam)/2) I_{m-1}(sqrt(lam x)) / 2."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    if m == 1:
        out[x == 0] = 0.5 * math.exp(-lam / 2.0)
    s = np.sqrt(lam * np.maximum(x, 0.0))
    # below s = 1e-8 the leading term of the Bessel series is exact in double
    # precision (up to 66 dof); it covers lam = 0, and ive would underflow there
    head = (x > 0) & (s < 1e-8)
    xh = x[head]
    out[head] = np.exp((m - 1) * np.log(xh) - (xh + lam) / 2.0 - m * math.log(2.0) - gammaln(m))
    body = s >= 1e-8
    xb = x[body]
    # -(x + lam)/2 + sqrt(lam x), written without the cancellation at large lam
    log_kernel = -0.5 * (np.sqrt(xb) - math.sqrt(lam)) ** 2
    if m == 1:
        # the prefactor (x/lam)^0 drops out; i0e is ive(0, .) at a sixth of its cost
        out[body] = 0.5 * np.exp(log_kernel) * i0e(s[body])
    else:
        log_pref = 0.5 * (m - 1) * np.log(xb / lam)
        out[body] = 0.5 * np.exp(log_pref + log_kernel) * ive(m - 1, s[body])
    return out


def _ncx2_window(m, lam):
    """(lo, hi) = mean -/+ (12 sd + 20), each widened (lo down to 0) until
    cdf(lo) < 1e-12 and 1 - cdf(hi) < 1e-12; a ValidationError naming lam where
    the cdf at the mean or a point tried is not finite (NaN past chndtr's range)."""

    def cdf_at(x):
        value = _ncx2_cdf(np.array([x]), m, lam)[0]
        if not math.isfinite(value):
            raise ValidationError(f"noncentrality {lam} is past the range of the ncx2 kernel")
        return value

    mean = 2 * m + lam
    cdf_at(mean)
    spread = 12.0 * math.sqrt(2.0 * (2 * m + 2.0 * lam)) + 20.0
    lo = max(mean - spread, 0.0)
    while lo > 0.0 and cdf_at(lo) >= 1e-12:
        lo = max(mean - 1.5 * (mean - lo), 0.0)
    hi = mean + spread
    while cdf_at(hi) < 1.0 - 1e-12:
        hi *= 1.5
    return float(lo), float(hi)


def nc_chisq2(lam):
    """Noncentral chi-square law with 2 dof: the fixed-frequency increment V_i.

    cdf(x) = 1 - MarcumQ_1(sqrt(lam), sqrt(x)); pdf(x) = exp(-(x+lam)/2) I_0(sqrt(lam x))/2.
    """
    return nc_chisq2_sum(1, lam)


def nc_chisq2_sum(n_terms, lam):
    """Law of the sum of n_terms independent 2-dof increments with total
    noncentrality lam (noncentral chi-square, 2*n_terms dof)."""
    if lam < 0 or not math.isfinite(lam):
        raise ValidationError(f"noncentrality must be finite and >= 0, got {lam}")
    if n_terms < 1:
        raise ValidationError(f"n_terms must be >= 1, got {n_terms}")
    m = int(n_terms)
    lam = float(lam)

    def cdf(x):
        return _ncx2_cdf(x, m, lam)

    def pdf(x):
        return _ncx2_pdf(x, m, lam)

    lo, hi = _ncx2_window(m, lam)
    return Dist(cdf=cdf, pdf=pdf, support_hint=hi, support_lo=lo)


def ml_component_cdf(dbar_sq, xi):
    """Law of one squared max-over-band residual under the ML approach.

    For a signal index the CDF is Phi((x - d2)/(2 d2)) * exp(-(xi/pi) exp(-x/2)),
    d2 = dbar_sq; for a noise index, dbar_sq = None, the Gaussian factor is
    dropped.  The closed form is truncated at zero, which leaves an atom there
    of size cdf(0+).
    """
    if not (xi > 0) or not math.isfinite(xi):
        raise ValidationError(f"xi must be positive and finite, got {xi}")
    c = xi / math.pi

    def gumbel(e):
        """The Gumbel factor exp(-c e) at e = exp(-x/2)."""
        return np.exp(-c * e)

    if dbar_sq is not None:
        if not math.isfinite(dbar_sq) or dbar_sq <= 0:
            raise ValidationError(f"dbar_sq must be finite and > 0, got {dbar_sq}")
        d2 = float(dbar_sq)
        denom = 2.0 * dbar_sq

        def cdf(x):
            x = np.asarray(x, dtype=float)
            val = ndtr((x - d2) / denom) * gumbel(np.exp(-x / 2.0))
            return np.where(x < 0, 0.0, val)

        def pdf(x):
            x = np.asarray(x, dtype=float)
            u = (x - d2) / denom
            phi = np.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)
            e = np.exp(-x / 2.0)
            val = gumbel(e) * (phi / denom + ndtr(u) * 0.5 * c * e)
            return np.where(x < 0, 0.0, val)

        atom = float(ndtr(-d2 / denom) * math.exp(-c))
        tail = max(d2 + 7.5 * denom, 2.0 * math.log(c / 5e-13) if c > 5e-13 else 1.0)
    else:

        def cdf(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < 0, 0.0, gumbel(np.exp(-x / 2.0)))

        def pdf(x):
            x = np.asarray(x, dtype=float)
            e = np.exp(-x / 2.0)
            return np.where(x < 0, 0.0, gumbel(e) * 0.5 * c * e)

        atom = float(math.exp(-c))
        tail = 2.0 * math.log(c / 5e-13) if c > 5e-13 else 1.0
    t = max(tail, 1.0)
    while cdf(np.array([t]))[0] < 1.0 - 1e-12:
        t *= 1.5
    # below lo the Gumbel factor, which bounds the cdf, is under exp(-28)
    lo = 2.0 * math.log(c / 28.0) if c > 28.0 else 0.0
    return Dist(cdf=cdf, pdf=pdf, support_hint=float(t), atom0=atom, support_lo=lo)


def _panel_nodes(n_nodes, n_panels):
    """Gauss-Legendre nodes/weights on [0, 1] split into equal panels."""
    xn, wn = np.polynomial.legendre.leggauss(n_nodes)
    starts = np.arange(n_panels) / n_panels
    width = 1.0 / n_panels
    nodes = (starts[:, None] + width * 0.5 * (xn[None, :] + 1.0)).ravel()
    weights = np.tile(width * 0.5 * wn, n_panels)
    return nodes, weights


_CONV_GRID = 4096
_CONV_NODES, _CONV_WEIGHTS = _panel_nodes(32, 2)


def _pchip(xs, ys):
    """Fritsch & Carlson's monotone cubic through (xs, ys), xs increasing
    (SIAM J. Numer. Anal. 17(2), 1980): a vectorized evaluator on
    [xs[0], xs[-1]], where NaN stays NaN.

    The knot slopes, the cubic coefficients and the evaluation order are
    those of scipy.interpolate.PchipInterpolator, so the values are its bits:
    a slope is the weighted harmonic mean of the neighbouring secants, 0
    where they change sign or one is 0, and at the ends Moler's one-sided
    three-point rule (0 where its sign differs from the end secant's,
    3 times that secant where the secants change sign and it exceeds 3 times
    the secant in size).  A point takes the interval [xs[i], xs[i+1]) that
    holds it, the last interval at xs[-1], and the cubic in s = x - xs[i]
    summed from its constant term up.
    """
    h = np.diff(xs)
    m = np.diff(ys) / h
    sign = np.sign(m)
    flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        inner = np.where(flat, 0.0, 1.0 / whmean)

    def end_slope(h0, h1, m0, m1):
        d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
            return 3.0 * m0
        return d

    slopes = np.concatenate([[end_slope(h[0], h[1], m[0], m[1])], inner,
                             [end_slope(h[-1], h[-2], m[-1], m[-2])]])
    t = (slopes[:-1] + slopes[1:] - 2 * m) / h
    c3 = t / h
    c2 = (m - slopes[:-1]) / h - t
    c1 = slopes[:-1]
    # scipy's sum starts from 0.0, which turns a -0.0 constant term into 0.0
    c0 = 0.0 + ys[:-1]
    last = xs.size - 2

    def evaluate(x):
        i = np.minimum(np.searchsorted(xs, x, "right") - 1, last)
        s = x - xs[i]
        s2 = s * s
        return ((c0[i] + c1[i] * s) + c2[i] * s2) + c3[i] * (s2 * s)

    return evaluate


def convolve_cdfs(a, b):
    """Law of the sum of independent variables with laws a and b.

    cdf(x) = b.atom0 * a.cdf(x) + integral a.cdf(x - y) b.pdf(y) dy over
    y in [b.support_lo, min(x - a.support_lo, b.support_hint)], evaluated by
    panelled Gauss-Legendre quadrature on a dense grid over the window
    [a.support_lo + b.support_lo, a.support_hint + b.support_hint] and
    interpolated monotonically (_pchip).  The grid rows whose y range is cut
    at b.support_hint have the same nodes, so b.pdf is evaluated on the
    other rows and one of those.
    """
    if b.atom0 >= 1.0 - 1e-12 or b.support_hint <= 1e-12:
        return a
    if a.atom0 >= 1.0 - 1e-12 or a.support_hint <= 1e-12:
        return b
    lo = a.support_lo + b.support_lo
    hi = a.support_hint + b.support_hint
    xs = np.linspace(lo, hi, _CONV_GRID + 1)
    y_lo = b.support_lo
    y_span = np.clip(xs - a.support_lo, y_lo, b.support_hint) - y_lo
    ys = y_lo + y_span[:, None] * _CONV_NODES[None, :]
    wts = y_span[:, None] * _CONV_WEIGHTS[None, :]
    # the rows before the first cut one, and that one
    rows = min(int(np.count_nonzero(xs - a.support_lo < b.support_hint)) + 1, xs.size)
    bp = np.empty(ys.shape)
    bp[:rows] = b.pdf(ys[:rows])
    bp[rows:] = bp[rows - 1]
    diffs = xs[:, None] - ys
    cdf_vals = b.atom0 * a.cdf(xs) + np.sum(a.cdf(diffs) * bp * wts, axis=1)
    pdf_vals = (b.atom0 * a.pdf(xs) + a.atom0 * b.pdf(xs)
                + np.sum(a.pdf(diffs) * bp * wts, axis=1))
    cdf_vals = np.minimum(np.maximum.accumulate(np.clip(cdf_vals, 0.0, 1.0)), 1.0)
    atom = a.atom0 * b.atom0
    cdf_vals[0] = atom
    cdf_interp = _pchip(xs, cdf_vals)
    pdf_interp = _pchip(xs, np.maximum(pdf_vals, 0.0))
    top = float(cdf_vals[-1])

    def cdf(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        below = x < lo
        above = x > hi
        mid = ~(below | above)
        out[below] = 0.0
        out[above] = max(top, 1.0 - 1e-15)
        out[mid] = cdf_interp(x[mid])
        return out

    def pdf(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        mid = (x >= lo) & (x <= hi)
        out[mid] = pdf_interp(x[mid])
        return out

    return Dist(cdf=cdf, pdf=pdf, support_hint=hi, atom0=atom, support_lo=lo)


_QUAD_SEEDS = 8         # equal panels the first level compares with their halves
_QUAD_LEVELS = 25       # levels before giving up
_QUAD_MAX_ACTIVE = 8192  # panels refined at once before giving up
_QUAD_NODES = 16        # Gauss-Legendre nodes of each panel's rule
_HALF_NODES, _HALF_WEIGHTS = _panel_nodes(_QUAD_NODES, 2)
_SEED_NODES, _SEED_WEIGHTS = _panel_nodes(_QUAD_NODES, 1)
# the first level's nodes: each seed panel's own rule, then its halves'
_FIRST_NODES = np.concatenate([_SEED_NODES, _HALF_NODES])
_FIRST_WEIGHTS = np.concatenate([_SEED_WEIGHTS, _HALF_WEIGHTS])


@dataclass(frozen=True)
class Quadrature:
    """An integral with its achieved error estimate and the number of
    integrand points evaluated."""

    value: float
    error: float
    evaluations: int


def integrate(f, lo, hi, tol):
    """Integral of f over the window [lo, hi] (e.g. a Dist's [support_lo,
    support_hint]) by panelled Gauss-Legendre quadrature with local halving.

    Each panel's rule is compared with the same rule on its two halves,
    from the first level on, where the panels are _QUAD_SEEDS equal seeds.
    A panel whose difference is within its width's share of tol keeps the
    halves' value; the others are halved again.  The new nodes of a level
    (on the first, the seeds' and their halves') go to f in one array call,
    and evaluations counts them all.  Returns a Quadrature whose error is
    the sum of the differences; raises QuadratureError when the sum stays
    above tol.
    """
    if not hi > lo:
        raise ValidationError(f"integration window [{lo}, {hi}] is empty")
    span = hi - lo
    width = np.full(_QUAD_SEEDS, span / _QUAD_SEEDS)
    starts = lo + width * np.arange(_QUAD_SEEDS)
    nodes, weights = _FIRST_NODES, _FIRST_WEIGHTS
    coarse = None
    value = err = 0.0
    evaluations = 0
    for _ in range(_QUAD_LEVELS):
        xs = starts[:, None] + width[:, None] * nodes
        vals = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
        evaluations += vals.size
        rules = (vals * weights * width[:, None]).reshape(width.size, -1, _QUAD_NODES).sum(axis=2)
        if coarse is None:
            coarse = rules[:, 0]
        halves = rules[:, -2:]
        fine = halves.sum(axis=1)
        diff = np.abs(fine - coarse)
        if err + diff.sum() <= tol:
            return Quadrature(value + float(fine.sum()), err + float(diff.sum()), evaluations)
        done = diff <= tol * width / span
        value += float(fine[done].sum())
        err += float(diff[done].sum())
        redo = ~done
        if 2 * np.count_nonzero(redo) > _QUAD_MAX_ACTIVE:
            break
        width = np.repeat(width[redo] / 2.0, 2)
        starts = np.column_stack([starts[redo], starts[redo] + width[::2]]).ravel()
        coarse = halves[redo].ravel()
        nodes, weights = _HALF_NODES, _HALF_WEIGHTS
    estimate = value + float(fine[redo].sum())
    achieved = err + float(diff[redo].sum())
    raise QuadratureError(
        f"quadrature error {achieved:.2e} exceeds tolerance {tol:.2e}",
        estimate=estimate, achieved_error=achieved)
