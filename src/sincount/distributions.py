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

from .errors import QuadratureError, ValidationError, finite_float, nonneg_int


@dataclass(frozen=True)
class Dist:
    """A distribution on [0, inf): vectorized cdf/pdf callables, the window
    [support_lo, support_hint] outside which cdf and 1 - cdf are below 1e-12
    (for a convolution, below the sum of its parts' bounds), and the
    probability mass sitting exactly at zero (nonzero only for the truncated
    ML-approach laws, whose window therefore starts at zero).  cdf_pdf(x)
    returns (cdf(x), pdf(x)) from one evaluation; a law built without one
    gets the two separate calls.  A noncentral chi-square law's cdf also
    holds a third window end, top >= support_hint (_ncx2_window), from which
    it reads exactly 1.0 without calling the kernel."""

    cdf: object
    pdf: object
    support_hint: float
    atom0: float = 0.0
    support_lo: float = 0.0
    cdf_pdf: object = None

    def __post_init__(self):
        if self.cdf_pdf is None:
            cdf, pdf = self.cdf, self.pdf
            object.__setattr__(self, "cdf_pdf", lambda x: (cdf(x), pdf(x)))


# upper-tail mass below which the ncx2 CDF reads exactly 1
_NCX2_TAIL = 1e-13


def _ncx2_kernel(x, m, lam):
    """The raw ncx2 kernel at x > 0 (2m dof, noncentrality lam): the
    regularized lower incomplete gamma function for the central law (every
    noise-only index), otherwise the compiled cephes kernel."""
    return gammainc(m, x / 2.0) if lam <= 1e-300 else chndtr(x, 2 * m, lam)


def _ncx2_cdf(x, m, lam, top=math.inf):
    """CDF of noncentral chi-square with 2m dof, noncentrality lam.

    Values of _ncx2_kernel within _NCX2_TAIL of 1 read 1: out there the
    kernel wobbles by an ulp or two of 1 while the true increments are
    smaller, so it steps backwards (seen up to 1 - cdf = 9.4e-15 over 6000
    random grids); the clamp keeps the CDF nondecreasing at an absolute cost
    below _NCX2_TAIL.  Points x >= top read 1.0 without calling the kernel:
    a law passes its window's top, above which the kernel reads within 1e-14
    of 1, so the clamp would give 1.0 there too.  Without top every point
    x > 0 goes to the kernel.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    pos = x > 0
    if top < math.inf:
        out[x >= top] = 1.0
        pos &= x < top
    vals = _ncx2_kernel(x[pos], m, lam)
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
    """(lo, hi, top): lo and hi = mean -/+ (12 sd + 20), each widened (lo down
    to 0) until cdf(lo) < 1e-12 and 1 - cdf(hi) < 1e-12; a ValidationError
    naming lam where the cdf at the mean or a point tried is not finite (NaN
    past chndtr's range).  top continues hi's x1.5 walk until the raw kernel
    (not the clamped cdf, which would stop as soon as the clamp fires) is
    within 1e-14 of 1, ten times inside _NCX2_TAIL; it is inf, which cuts
    nothing, where a value met is not finite."""

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
    top = hi
    raw = _ncx2_kernel(top, m, lam)
    while raw < 1.0 - 1e-14 and top < math.inf:
        top *= 1.5
        raw = _ncx2_kernel(top, m, lam)
    return float(lo), float(hi), float(top) if math.isfinite(raw) else math.inf


def nc_chisq2(lam):
    """Noncentral chi-square law with 2 dof: the fixed-frequency increment V_i.

    cdf(x) = 1 - MarcumQ_1(sqrt(lam), sqrt(x)); pdf(x) = exp(-(x+lam)/2) I_0(sqrt(lam x))/2.
    """
    return nc_chisq2_sum(1, lam)


def nc_chisq2_sum(n_terms, lam):
    """Law of the sum of n_terms independent 2-dof increments with total
    noncentrality lam (noncentral chi-square, 2*n_terms dof)."""
    lam = finite_float(lam, "noncentrality")
    if lam < 0:
        raise ValidationError(f"noncentrality must be finite and >= 0, got {lam}")
    m = nonneg_int(n_terms, "n_terms")
    if m < 1:
        raise ValidationError(f"n_terms must be >= 1, got {m}")
    lo, hi, top = _ncx2_window(m, lam)

    def cdf(x):
        return _ncx2_cdf(x, m, lam, top)

    def pdf(x):
        return _ncx2_pdf(x, m, lam)

    return Dist(cdf=cdf, pdf=pdf, support_hint=hi, support_lo=lo)


def ml_component_cdf(dbar_sq, xi):
    """Law of one squared max-over-band residual under the ML approach.

    For a signal index the CDF is Phi((x - d2)/(2 d2)) * exp(-(xi/pi) exp(-x/2)),
    d2 = dbar_sq; for a noise index, dbar_sq = None, the Gaussian factor is
    dropped.  The closed form is truncated at zero, which leaves an atom there
    of size cdf(0+).  The law's cdf and pdf are the two outputs of one body,
    its cdf_pdf.
    """
    if not (xi > 0) or not math.isfinite(xi):
        raise ValidationError(f"xi must be positive and finite, got {xi}")
    c = xi / math.pi
    if dbar_sq is not None:
        if not math.isfinite(dbar_sq) or dbar_sq <= 0:
            raise ValidationError(f"dbar_sq must be finite and > 0, got {dbar_sq}")
        d2 = float(dbar_sq)
        denom = 2.0 * dbar_sq

    def cdf_pdf(x):
        x = np.asarray(x, dtype=float)
        e = np.exp(-x / 2.0)
        gumbel = np.exp(-c * e)
        if dbar_sq is None:
            cdf, pdf = gumbel, gumbel * 0.5 * c * e
        else:
            # in place where it can be, so that few temporaries live at once
            u = (x - d2) / denom
            cdf = ndtr(u)
            pdf = np.exp(-0.5 * u * u) / math.sqrt(2 * math.pi) / denom
            del u
            pdf += cdf * 0.5 * c * e
            pdf *= gumbel
            cdf *= gumbel
        del e, gumbel
        neg = x < 0
        return np.where(neg, 0.0, cdf), np.where(neg, 0.0, pdf)

    def cdf(x):
        return cdf_pdf(x)[0]

    def pdf(x):
        return cdf_pdf(x)[1]

    if dbar_sq is not None:
        atom = float(ndtr(-d2 / denom) * math.exp(-c))
        tail = max(d2 + 7.5 * denom, 2.0 * math.log(c / 5e-13) if c > 5e-13 else 1.0)
    else:
        atom = float(math.exp(-c))
        tail = 2.0 * math.log(c / 5e-13) if c > 5e-13 else 1.0
    t = max(tail, 1.0)
    while cdf(np.array([t]))[0] < 1.0 - 1e-12:
        t *= 1.5
    # below lo the Gumbel factor, which bounds the cdf, is under exp(-28)
    lo = 2.0 * math.log(c / 28.0) if c > 28.0 else 0.0
    return Dist(cdf=cdf, pdf=pdf, support_hint=float(t), atom0=atom, support_lo=lo,
                cdf_pdf=cdf_pdf)


def _panel_nodes(n_nodes, n_panels):
    """Gauss-Legendre nodes/weights on [0, 1] split into equal panels."""
    xn, wn = np.polynomial.legendre.leggauss(n_nodes)
    starts = np.arange(n_panels) / n_panels
    width = 1.0 / n_panels
    nodes = (starts[:, None] + width * 0.5 * (xn[None, :] + 1.0)).ravel()
    weights = np.tile(width * 0.5 * wn, n_panels)
    return nodes, weights


_CONV_GRID = 4096
_CONV_BLOCK = 128  # grid rows whose quadrature is formed at once: 64 KB per temporary
_CONV_NODES, _CONV_WEIGHTS = _panel_nodes(32, 2)


def _monotone_cubic(xs, ys):
    """Fritsch & Carlson's monotone cubic through (xs, ys) on the uniform
    grid xs (SIAM J. Numer. Anal. 17(2), 1980): a vectorized evaluator on
    [xs[0], xs[-1]].

    An interior knot's slope is the harmonic mean of the neighbouring
    secants, 0 where they change sign or one is 0; an end slope is Moler's
    one-sided three-point rule, 0 where its sign differs from the end
    secant's and 3 times that secant where the secants change sign and it
    exceeds 3 times the secant in size.  A point x lies in the interval
    i = (x - xs[0]) // step, the last one at xs[-1], and takes the cubic in
    s = x - xs[i] by Horner's rule.  The secants and the cubic take each
    interval's own width, which differs from step by the rounding of xs,
    so that each piece meets both its knots.
    """
    step = (xs[-1] - xs[0]) / (xs.size - 1)
    h = np.diff(xs)
    m = np.diff(ys) / h
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.where(flat, 0.0, 2.0 / (1.0 / m[:-1] + 1.0 / m[1:]))

    def end_slope(m0, m1):
        d = 1.5 * m0 - 0.5 * m1
        if np.sign(d) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
            return 3.0 * m0
        return d

    slopes = np.concatenate([[end_slope(m[0], m[1])], inner, [end_slope(m[-1], m[-2])]])
    c1 = slopes[:-1]
    t = (c1 + slopes[1:] - 2 * m) / h
    c2 = (m - c1) / h - t
    c3 = t / h
    c0 = ys[:-1]

    def evaluate(x):
        i = np.minimum(((x - xs[0]) / step).astype(np.intp), m.size - 1)
        s = x - xs[i]
        return c0[i] + s * (c1[i] + s * (c2[i] + s * c3[i]))

    return evaluate


def convolve_cdfs(a, b):
    """Law of the sum of independent variables with laws a and b.

    cdf(x) = b.atom0 * a.cdf(x) + integral a.cdf(x - y) b.pdf(y) dy over
    y in [b.support_lo, min(x - a.support_lo, b.support_hint)], evaluated by
    panelled Gauss-Legendre quadrature on a dense grid over the window
    [a.support_lo + b.support_lo, a.support_hint + b.support_hint] and
    interpolated monotonically (_monotone_cubic).  The grid rows whose y
    range is cut at b.support_hint have the same nodes, so they share one
    evaluation of b.pdf; a.cdf_pdf gives a's cdf and pdf at the x - y
    points in one evaluation.  The quadrature runs over _CONV_BLOCK grid
    rows at a time, so that no temporary outgrows a block; each value is
    the same elementwise, and each row's sum its own, as on the whole grid.
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
    # the first cut row, whose b.pdf the later rows share
    cut = min(int(np.count_nonzero(xs - a.support_lo < b.support_hint)), xs.size - 1)
    cut_bp = b.pdf(y_lo + y_span[cut] * _CONV_NODES)
    cdf_sums = np.empty(xs.size)
    pdf_sums = np.empty(xs.size)
    for start in range(0, xs.size, _CONV_BLOCK):
        rows = slice(start, start + _CONV_BLOCK)
        ys = y_lo + y_span[rows, None] * _CONV_NODES[None, :]
        bp = np.empty(ys.shape)
        own = min(max(cut - start, 0), bp.shape[0])
        if own:
            bp[:own] = b.pdf(ys[:own])
        bp[own:] = cut_bp
        a_cdf, a_pdf = a.cdf_pdf(xs[rows, None] - ys)
        wts = y_span[rows, None] * _CONV_WEIGHTS[None, :]
        cdf_sums[rows] = np.sum(a_cdf * bp * wts, axis=1)
        pdf_sums[rows] = np.sum(a_pdf * bp * wts, axis=1)
    a_cdf, a_pdf = a.cdf_pdf(xs)
    cdf_vals = b.atom0 * a_cdf + cdf_sums
    pdf_vals = b.atom0 * a_pdf + a.atom0 * b.pdf(xs) + pdf_sums
    cdf_vals = np.minimum(np.maximum.accumulate(np.clip(cdf_vals, 0.0, 1.0)), 1.0)
    atom = a.atom0 * b.atom0
    cdf_vals[0] = atom
    cdf_interp = _monotone_cubic(xs, cdf_vals)
    pdf_interp = _monotone_cubic(xs, np.maximum(pdf_vals, 0.0))
    top = max(float(cdf_vals[-1]), 1.0 - 1e-15)

    def on_grid(x):
        """x as floats, the mask of its points in [lo, hi] and those points."""
        x = np.asarray(x, dtype=float)
        mid = (x >= lo) & (x <= hi)
        return x, mid, x[mid]

    def tails(x):
        """The cdf off [lo, hi]: 0 below, top above; NaN stays NaN."""
        return np.where(x < lo, 0.0, np.where(x > hi, top, x))

    def cdf(x):
        x, mid, xm = on_grid(x)
        out = tails(x)
        out[mid] = cdf_interp(xm)
        return out

    def pdf(x):
        x, mid, xm = on_grid(x)
        out = np.zeros(x.shape)
        out[mid] = pdf_interp(xm)
        return out

    def cdf_pdf(x):
        x, mid, xm = on_grid(x)
        cdf_out, pdf_out = tails(x), np.zeros(x.shape)
        cdf_out[mid] = cdf_interp(xm)
        pdf_out[mid] = pdf_interp(xm)
        return cdf_out, pdf_out

    return Dist(cdf=cdf, pdf=pdf, support_hint=hi, atom0=atom, support_lo=lo,
                cdf_pdf=cdf_pdf)


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
    integrand points evaluated.  For a member-wise integrand (integrate)
    value and error are float arrays, one entry per member, and evaluations
    counts the shared nodes once."""

    value: float
    error: float
    evaluations: int


def integrate(f, lo, hi, tol):
    """Integral of f over the window [lo, hi] (e.g. a Dist's [support_lo,
    support_hint]) by panelled Gauss-Legendre quadrature with local halving.

    f maps an array of n nodes to n values, or to an (m, n) array: one row
    per member of a batch of m integrals on the same nodes.  Each panel's
    rule is compared with the same rule on its two halves, from the first
    level on, where the panels are _QUAD_SEEDS equal seeds.  A panel whose
    difference is within its width's share of tol, for every member, keeps
    the halves' values; the others are halved again.  The new nodes of a
    level (on the first, the seeds' and their halves') go to f in one array
    call, and evaluations counts them all, each once however many members
    share it.  Each member's arithmetic is that of its own scalar integral
    on the panels the batch refines, so a batch of one is the scalar call
    bit for bit.  Returns a Quadrature whose error is the sum of the
    differences: floats for a 1-d f, arrays with one entry per member for a
    batch.  Raises QuadratureError when a member's sum stays above tol; its
    estimate and achieved_error take the same form (arrays for a batch,
    whose message names the largest error).
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
        vals = np.asarray(f(xs.ravel()), dtype=float)
        if coarse is None:
            batch = vals.ndim == 2
        if vals.ndim != 1 + batch or vals.shape[-1] != xs.size:
            raise ValidationError(
                f"integrand returned shape {vals.shape} for {xs.size} nodes")
        # (members, panels, nodes): a 1-d integrand is a batch of one
        vals = vals.reshape(-1, *xs.shape)
        evaluations += xs.size
        rules = (vals * weights * width[:, None]).reshape(
            vals.shape[0], width.size, -1, _QUAD_NODES).sum(axis=3)
        if coarse is None:
            coarse = rules[:, :, 0]
        halves = rules[:, :, -2:]
        fine = halves.sum(axis=2)
        diff = np.abs(fine - coarse)
        total = err + _row_sums(diff)
        if np.all(total <= tol):
            return _quadrature(value + _row_sums(fine), total, evaluations, batch)
        done = np.all(diff <= tol * width / span, axis=0)
        value = value + _row_sums(fine[:, done])
        err = err + _row_sums(diff[:, done])
        redo = ~done
        if 2 * np.count_nonzero(redo) > _QUAD_MAX_ACTIVE:
            break
        width = np.repeat(width[redo] / 2.0, 2)
        starts = np.column_stack([starts[redo], starts[redo] + width[::2]]).ravel()
        coarse = halves[:, redo].reshape(vals.shape[0], -1)
        nodes, weights = _HALF_NODES, _HALF_WEIGHTS
    estimate = value + _row_sums(fine[:, redo])
    achieved = err + _row_sums(diff[:, redo])
    failed = _quadrature(estimate, achieved, evaluations, batch)
    raise QuadratureError(
        f"quadrature error {achieved.max():.2e} exceeds tolerance {tol:.2e}",
        estimate=failed.value, achieved_error=failed.error)


def _row_sums(a):
    """Each row's sum as the sum of that row alone: a 2-d sum along rows
    may add in another order, where a row is not contiguous."""
    return np.array([row.sum() for row in a])


def _quadrature(value, error, evaluations, batch):
    """Quadrature of per-member arrays: as they are for a batch, the one
    member's Python floats for a 1-d integrand."""
    if batch:
        return Quadrature(value, error, evaluations)
    return Quadrature(float(value[0]), float(error[0]), evaluations)
