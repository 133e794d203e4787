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

from .errors import QuadratureError, ValidationError, finite_float, finite_floats, nonneg_int


@dataclass(frozen=True)
class Dist:
    """A distribution on [0, inf): vectorized cdf/pdf callables, the window
    [support_lo, support_hint] outside which cdf and 1 - cdf are below 1e-12
    (for a convolution, below the sum of its parts' bounds), and the
    probability mass sitting exactly at zero (nonzero only for the truncated
    ML-approach laws; it counts in the cdf below support_lo, so their window
    starts above zero where the atom is under 1e-12, as for the noise law at
    xi = 100: atom0 1.5e-14, support_lo 0.256).  A noncentral
    chi-square law's cdf also holds a third window end, top >= support_hint
    (_ncx2_window), from which it reads exactly 1.0 without calling the
    kernel.

    A stacked law (nc_chisq2_sum over an array of M noncentralities) holds
    M members in one record: cdf and pdf take x broadcast against the (M, 1)
    column of the noncentralities, so 1-d points give one row per member
    and an (M, n) array gives member r's row under member r's law, and
    support_lo and support_hint are (M, 1) columns of the members' own
    windows, whose union is [min support_lo, max support_hint]."""

    cdf: object
    pdf: object
    support_hint: float
    atom0: float = 0.0
    support_lo: float = 0.0


# upper-tail mass below which the ncx2 CDF reads exactly 1
_NCX2_TAIL = 1e-13


def _ncx2_kernel(x, m, lam):
    """The raw ncx2 kernel at points x > 0 (2m dof) under noncentralities
    lam, an array of x's shape: the regularized lower incomplete gamma
    function for the central law (every noise-only index), otherwise the
    compiled cephes kernel, each called once on its points."""
    central = lam <= 1e-300
    n_central = np.count_nonzero(central)
    if n_central == 0:
        return chndtr(x, 2 * m, lam)
    if n_central == central.size:
        return gammainc(m, x / 2.0)
    out = np.empty(x.shape)
    out[central] = gammainc(m, x[central] / 2.0)
    out[~central] = chndtr(x[~central], 2 * m, lam[~central])
    return out


def _on_one_grid(x, lam):
    """x and lam as float arrays of their broadcast shape: x's own for a
    number lam, (M, n) for an (M, 1) column and n points.  Filling two new
    arrays costs a third of np.broadcast_arrays' views at a few points."""
    shape = np.broadcast(x, lam).shape
    x_grid, lam_grid = np.empty(shape), np.empty(shape)
    x_grid[...], lam_grid[...] = x, lam
    return x_grid, lam_grid


def _ncx2_cdf(x, m, lam, top=math.inf):
    """CDF of noncentral chi-square with 2m dof, noncentrality lam: a number,
    or a stacked law's (M, 1) column broadcast against x, with top a number
    or a column alike.

    Values of _ncx2_kernel within _NCX2_TAIL of 1 read 1: out there the
    kernel wobbles by an ulp or two of 1 while the true increments are
    smaller, so it steps backwards (seen up to 1 - cdf = 9.4e-15 over 6000
    random grids); the clamp keeps the CDF nondecreasing at an absolute cost
    below _NCX2_TAIL.  Points x >= top read 1.0 without calling the kernel:
    a law passes its window's top, above which the kernel reads within 1e-14
    of 1, so the clamp would give 1.0 there too.  Without top every point
    x > 0 below +inf goes to the kernel, and so does NaN, neither <= 0 nor
    >= top, where the kernel reads NaN.
    """
    x, lam = _on_one_grid(x, lam)
    out = np.zeros(x.shape)
    above = x >= top
    out[above] = 1.0
    pos = ~(above | (x <= 0))
    vals = _ncx2_kernel(x[pos], m, lam[pos])
    vals[vals > 1.0 - _NCX2_TAIL] = 1.0
    out[pos] = vals
    return out


def _ncx2_pdf(x, m, lam):
    """PDF companion of _ncx2_cdf (2m dof):
    (x/lam)^((m-1)/2) exp(-(x + lam)/2) I_{m-1}(sqrt(lam x)) / 2, and 0 at
    x = +inf."""
    x, lam = _on_one_grid(x, lam)
    out = np.zeros(x.shape)
    if m == 1:
        zero = x == 0
        if np.count_nonzero(zero):
            out[zero] = [0.5 * math.exp(-v / 2.0) for v in lam[zero]]
    inside = (x > 0) & (x < math.inf)
    xi, lam = x[inside], lam[inside]
    s = np.sqrt(lam * xi)
    # below s = 1e-8 the leading term of the Bessel series is exact in double
    # precision (up to 66 dof); it covers lam = 0, and ive would underflow there
    head, body = s < 1e-8, s >= 1e-8
    xh, lam_h = xi[head], lam[head]
    vals = np.empty(s.shape)
    vals[head] = np.exp((m - 1) * np.log(xh) - (xh + lam_h) / 2.0 - m * math.log(2.0)
                        - gammaln(m))
    xb, lam_b = xi[body], lam[body]
    # -(x + lam)/2 + sqrt(lam x), written without the cancellation at large lam
    log_kernel = -0.5 * (np.sqrt(xb) - np.sqrt(lam_b)) ** 2
    if m == 1:
        # the prefactor (x/lam)^0 drops out; i0e is ive(0, .) at a sixth of its cost
        vals[body] = 0.5 * np.exp(log_kernel) * i0e(s[body])
    else:
        log_pref = 0.5 * (m - 1) * np.log(xb / lam_b)
        vals[body] = 0.5 * np.exp(log_pref + log_kernel) * ive(m - 1, s[body])
    out[inside] = vals
    return out


def _ncx2_window(m, lam):
    """(lo, hi, top) arrays of lam's shape, for each of its noncentralities:
    lo and hi = mean -/+ (12 sd + 20), each widened (lo down to 0) until
    cdf(lo) < 1e-12 and 1 - cdf(hi) < 1e-12; a ValidationError naming a
    noncentrality whose cdf at the mean or a point tried is not finite (NaN
    past chndtr's range).  top continues hi's x1.5 walk until the raw kernel
    (not the clamped cdf, which would stop as soon as the clamp fires) is
    within 1e-14 of 1, ten times inside _NCX2_TAIL; it is inf, which cuts
    nothing, where a value met is not finite.  All members walk at once:
    the first kernel call takes every member's mean and first lo and hi,
    and each later step one call at the points of the walks still going,
    so each member's ends are those of its own walk bit for bit; top's walk
    starts from the value at hi without calling the kernel again."""
    lam = np.asarray(lam, dtype=float)
    flat = lam.ravel()
    n = flat.size

    def checked(values, lams):
        finite = np.isfinite(values)
        if np.count_nonzero(finite) < finite.size:
            raise ValidationError(f"noncentrality {float(lams[~finite][0])} is past the "
                                  f"range of the ncx2 kernel")
        return values

    mean = 2 * m + flat
    spread = 12.0 * np.sqrt(2.0 * (2 * m + 2.0 * flat)) + 20.0
    lo = np.maximum(mean - spread, 0.0)
    hi = mean + spread
    # the first call: each member's mean, lo (its mean again where lo is 0)
    # and hi
    lams = np.concatenate([flat, flat, flat])
    first = checked(_ncx2_kernel(np.concatenate([mean, np.where(lo > 0.0, lo, mean), hi]), m,
                                 lams), lams)
    with np.errstate(over="ignore"):
        walk = ((lo > 0.0) & (first[n:2 * n] >= 1e-12)).nonzero()[0]
        while walk.size:
            lo[walk] = np.maximum(mean[walk] - 1.5 * (mean[walk] - lo[walk]), 0.0)
            walk = walk[lo[walk] > 0.0]
            walk = walk[checked(_ncx2_kernel(lo[walk], m, flat[walk]), flat[walk]) >= 1e-12]
        raw = first[2 * n:]
        walk = (raw < 1.0 - 1e-12).nonzero()[0]
        while walk.size:
            hi[walk] *= 1.5
            raw[walk] = checked(_ncx2_kernel(hi[walk], m, flat[walk]), flat[walk])
            walk = walk[raw[walk] < 1.0 - 1e-12]
        top = hi.copy()
        walk = ((raw < 1.0 - 1e-14) & (top < math.inf)).nonzero()[0]
        while walk.size:
            top[walk] *= 1.5
            raw[walk] = _ncx2_kernel(top[walk], m, flat[walk])
            walk = walk[(raw[walk] < 1.0 - 1e-14) & (top[walk] < math.inf)]
    top[~np.isfinite(raw)] = math.inf
    return lo.reshape(lam.shape), hi.reshape(lam.shape), top.reshape(lam.shape)


def nc_chisq2(lam):
    """Noncentral chi-square law with 2 dof: the fixed-frequency increment V_i.

    cdf(x) = 1 - MarcumQ_1(sqrt(lam), sqrt(x)); pdf(x) = exp(-(x+lam)/2) I_0(sqrt(lam x))/2.
    lam is a number, or a 1-d array of them for a stacked law (Dist).
    """
    return nc_chisq2_sum(1, lam)


def nc_chisq2_sum(n_terms, lam):
    """Law of the sum of n_terms independent 2-dof increments with total
    noncentrality lam (noncentral chi-square, 2*n_terms dof).  lam is a
    number, or a nonempty 1-d array of them: a stacked law with one member
    per entry (Dist), whose members' windows come from one array walk and
    whose cdf and pdf call the kernel once for all members' points.  A
    member's values and window are those of its own law bit for bit."""
    stacked = isinstance(lam, (list, tuple, np.ndarray))
    lam = finite_floats(lam, "noncentrality") if stacked else finite_float(lam, "noncentrality")
    if (np.min(lam) if stacked else lam) < 0:
        raise ValidationError(
            f"noncentrality must be finite and >= 0, got {float(np.min(lam))}")
    m = nonneg_int(n_terms, "n_terms")
    if m < 1:
        raise ValidationError(f"n_terms must be >= 1, got {m}")
    return _ncx2_laws(m, [lam])[0]


def _ncx2_laws(m, lams):
    """nc_chisq2_sum's law (2m dof) for each entry of lams, unchecked: numbers
    >= 0, or rows of them of one length for stacked laws, with every
    window from one walk (_ncx2_window)."""
    lams = np.asarray(lams, dtype=float)
    ends = _ncx2_window(m, lams)
    if lams.ndim == 1:
        return tuple(_ncx2_law(m, *map(float, row)) for row in zip(lams, *ends))
    return tuple(_ncx2_law(m, *(v[:, None] for v in row)) for row in zip(lams, *ends))


def _ncx2_law(m, lam, lo, hi, top):
    """The law of _ncx2_cdf and _ncx2_pdf under lam on the window [lo, hi]
    with top: numbers, or (M, 1) columns for a stacked law."""
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
    of size cdf(0+).
    """
    xi = finite_float(xi, "xi")
    if xi <= 0:
        raise ValidationError(f"xi must be positive and finite, got {xi}")
    c = xi / math.pi
    if dbar_sq is not None:
        d2 = finite_float(dbar_sq, "dbar_sq")
        if d2 <= 0:
            raise ValidationError(f"dbar_sq must be finite and > 0, got {d2}")
        denom = 2.0 * d2

    def cdf(x):
        x = np.asarray(x, dtype=float)
        out = np.exp(-c * np.exp(-x / 2.0))
        if dbar_sq is not None:
            out = ndtr((x - d2) / denom) * out
        return np.where(x < 0, 0.0, out)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        e = np.exp(-x / 2.0)
        gumbel = np.exp(-c * e)
        if dbar_sq is None:
            out = gumbel * 0.5 * c * e
        else:
            u = (x - d2) / denom
            out = np.exp(-0.5 * u * u) / math.sqrt(2 * math.pi) / denom
            out += ndtr(u) * 0.5 * c * e
            out *= gumbel
        return np.where(x < 0, 0.0, out)

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
    return Dist(cdf=cdf, pdf=pdf, support_hint=float(t), atom0=atom, support_lo=lo)


def _panel_nodes(n_nodes, n_panels):
    """Gauss-Legendre nodes/weights on [0, 1] split into equal panels."""
    xn, wn = np.polynomial.legendre.leggauss(n_nodes)
    starts = np.arange(n_panels) / n_panels
    width = 1.0 / n_panels
    nodes = (starts[:, None] + width * 0.5 * (xn[None, :] + 1.0)).ravel()
    weights = np.tile(width * 0.5 * wn, n_panels)
    return nodes, weights


_CONV_GRID = 4096  # grid steps over a convolution's window


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

    cdf(x) = b.atom0 * a.cdf(x) + integral a.cdf(x - y) dB(y) and pdf(x) =
    b.atom0 * a.pdf(x) + a.atom0 * b.pdf(x) + integral a.pdf(x - y) dB(y),
    B = b.cdf, over y in (b.support_lo, min(x - a.support_lo,
    b.support_hint)], on _CONV_GRID steps h over the window [a.support_lo +
    b.support_lo, a.support_hint + b.support_hint], interpolated
    monotonically (_monotone_cubic).  b's grid runs from b.support_lo by
    steps h to the first step past b.support_hint, where B is within 1e-12
    of its top, so every knot's y range ends on b's grid, and x - y falls
    on a's grid from a.support_lo at h/2.  Each integral is the trapezoid
    sums at steps h and h/2, each step's mass of B split between its two
    ends, combined by one Richardson step.  A point's weight depends on where the
    range ends only at that end, so all knots' sums are the even entries of
    one discrete convolution (by FFT) of a.cdf and a.pdf on a's grid with the
    weights on b's, less one end term: a is evaluated at 2 * _CONV_GRID + 1
    points and B at about half as many.  Weighting by B's steps keeps all of
    its mass, which a sum of b.pdf values misses by up to 4e-7 where b is a
    convolution too, whose cubic pdf bends within a step.
    """
    if b.atom0 >= 1.0 - 1e-12 or b.support_hint <= 1e-12:
        return a
    if a.atom0 >= 1.0 - 1e-12 or a.support_hint <= 1e-12:
        return b
    lo = a.support_lo + b.support_lo
    hi = a.support_hint + b.support_hint
    n = _CONV_GRID
    xs = np.linspace(lo, hi, n + 1)
    h = (hi - lo) / n
    n_steps = min(math.ceil((b.support_hint - b.support_lo) / h), n)
    # a's cdf and pdf (one row each) on its grid at h/2, B on b's
    a_grid = a.support_lo + 0.5 * h * np.arange(2 * n + 1)
    a_vals = np.array([a.cdf(a_grid), a.pdf(a_grid)])
    b_cdf = b.cdf(b.support_lo + 0.5 * h * np.arange(2 * n_steps + 1))
    # B's mass on each step at h/2 and at h, and 0 past the top
    half = np.append(np.diff(b_cdf), 0.0)
    whole = np.append(b_cdf[2::2] - b_cdf[:-2:2], 0.0)
    # a trapezoid sum gives each point half the mass of the steps on either
    # side; (4 T_h/2 - T_h) / 3, where T_h has the even points only
    weights = 2.0 * (half + np.append(0.0, half[:-1]))
    weights[::2] -= 0.5 * (whole + np.append(0.0, whole[:-1]))
    weights /= 3.0
    size = 1 << (2 * n + 2 * n_steps).bit_length()
    full = np.fft.irfft(np.fft.rfft(a_vals, size) * np.fft.rfft(weights, size), size)
    # knot r's range ends at b's point 2m, m = min(r, n_steps), whose weight
    # counts the steps above it, which lie past the end: less them
    r = np.arange(n + 1)
    m = np.minimum(r, n_steps)
    sums = (full[:, :2 * n + 1:2]
            - a_vals[:, 2 * (r - m)] * (2.0 * half[2 * m] - 0.5 * whole[m]) / 3.0)
    cdf_vals = b.atom0 * a.cdf(xs) + sums[0]
    pdf_vals = b.atom0 * a.pdf(xs) + a.atom0 * b.pdf(xs) + sums[1]
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
