import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats
from scipy.interpolate import PchipInterpolator
from scipy.special import gammainc, gammaln, ive, logsumexp, xlogy

import sincount as sc
from sincount import distributions, theory
from sincount.distributions import (Dist, _ncx2_pdf, convolve_cdfs, integrate, ml_component_cdf,
                                    nc_chisq2, nc_chisq2_sum)
from sincount.errors import QuadratureError, ValidationError
from sincount.theory import ComponentDistSet

from oracles import convolve_cdfs_dense, sample_increments, traced_peak_mb

GRID = np.linspace(0.0, 40.0, 401)


def series_cdf(x, m, lam):
    """Oracle: noncentral chi-square CDF (2m dof) as the Poisson mixture of
    central gamma CDFs, sum_j pois(j; lam/2) P(m + j, x/2).

    The weights are normalized to sum to one: at large lam the rounding of
    j*log(lam/2) - gammaln(j + 1) otherwise biases every weight alike.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    pos = x > 0
    xp, h = x[pos] / 2.0, lam / 2.0
    if h == 0:
        out[pos] = gammainc(m, xp)
        return out
    spread = int(10.0 * math.sqrt(h) + 40.0)
    js = np.arange(max(0, int(h) - spread), int(h) + spread + 1)
    logw = js * math.log(h) - gammaln(js + 1)
    w = np.exp(logw - logw.max())
    keep = w > 1e-14
    js, w = js[keep], w[keep] / w[keep].sum()
    acc = np.zeros(xp.shape)
    # chunked so the (terms, points) intermediate stays small
    for start in range(0, js.size, 64):
        acc += w[start:start + 64] @ gammainc(m + js[start:start + 64, None], xp[None, :])
    out[pos] = np.minimum(acc, 1.0)
    return out


def log_poisson(k, mu):
    """log pois(k; mu) for a scalar mu.  Where k and mu exceed 30 it takes
    the saddle-point form of Loader (2000), -stirlerr(k) - bd0(k, mu) -
    log(2 pi k)/2, which keeps its relative accuracy when k and mu are in
    the millions."""
    k = np.asarray(k, dtype=float)
    direct = xlogy(k, mu) - mu - gammaln(k + 1)
    if mu <= 30:
        return direct
    kb = np.maximum(k, 31.0)
    k2 = kb * kb
    stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * k2)) / k2) / k2) / kb
    e = (kb - mu) / mu
    bd0 = mu * ((1 + e) * np.log1p(e) - e)
    return np.where(k > 30, -stirlerr - bd0 - 0.5 * np.log(2 * math.pi * kb), direct)


def mixture_pdf(x, m, lam):
    """Oracle: noncentral chi-square PDF (2m dof) as the Poisson mixture of
    central densities, chi2_pdf(x; 2n) = pois(n - 1; x/2)/2, over the terms
    around both the prior and the posterior mode of the mixing index."""
    out = []
    for xv in np.atleast_1d(x):
        h, jpost = lam / 2.0, math.sqrt(lam * xv) / 2.0
        pad = 12.0 * math.sqrt(max(h, jpost)) + 40.0
        js = np.arange(max(0, int(min(h, jpost) - pad)), int(max(h, jpost) + pad) + 1)
        terms = log_poisson(m + js - 1, xv / 2.0) + log_poisson(js, h)
        out.append(0.5 * math.exp(logsumexp(terms)))
    return np.array(out)


def law_points(m, lam, z_max, n):
    mean, sd = 2.0 * m + lam, math.sqrt(4.0 * m + 4.0 * lam)
    return np.maximum(mean + sd * np.linspace(-z_max, z_max, n), 1e-3)


def test_central_cdf_closed_form():
    d = nc_chisq2(0.0)
    expect = 1.0 - np.exp(-GRID / 2.0)
    got = np.array([d.cdf(x) for x in GRID])
    assert np.max(np.abs(got - expect)) < 1e-12


@pytest.mark.parametrize("lam", [0.5, 3.0, 12.0, 25.344, 120.0])
def test_noncentral_cdf_against_scipy(lam):
    d = nc_chisq2(lam)
    xs = np.linspace(0.0, lam + 60.0, 200)
    got = np.array([d.cdf(x) for x in xs])
    np.testing.assert_allclose(got, stats.ncx2.cdf(xs, 2, lam), atol=1e-10)


@pytest.mark.parametrize("n_terms,lam", [(1, 4.0), (2, 10.0), (4, 73.96)])
def test_sum_law_against_scipy(n_terms, lam):
    d = nc_chisq2_sum(n_terms, lam)
    xs = np.linspace(0.0, lam + 80.0, 150)
    got_cdf = np.array([d.cdf(x) for x in xs])
    np.testing.assert_allclose(got_cdf, stats.ncx2.cdf(xs, 2 * n_terms, lam),
                               atol=1e-10)
    # skip x = 0: scipy zeroes the boundary value where the true 2-dof
    # density limit is exp(-lam/2)/2
    got_pdf = np.array([d.pdf(x) for x in xs[1:]])
    np.testing.assert_allclose(got_pdf, stats.ncx2.pdf(xs[1:], 2 * n_terms, lam),
                               atol=1e-9)


def test_noncentrality_validation():
    with pytest.raises(ValidationError):
        nc_chisq2(-1.0)
    with pytest.raises(ValidationError):
        nc_chisq2_sum(0, 1.0)


@pytest.mark.parametrize("n_terms", [1.5, 2.7, True])
def test_sum_law_needs_an_integer_term_count(n_terms):
    # 1.5 and True used to build the 2-dof law, 2.7 the 4-dof one
    with pytest.raises(ValidationError, match="n_terms must be a nonnegative integer"):
        nc_chisq2_sum(n_terms, 1.0)


@pytest.mark.parametrize("law", [nc_chisq2, lambda lam: nc_chisq2_sum(2, lam)],
                         ids=["nc_chisq2", "nc_chisq2_sum"])
@pytest.mark.parametrize("lam", ["1.0", True, math.nan])
def test_noncentrality_must_be_a_finite_number(law, lam):
    # "1.0" raised TypeError, True built the law of 1.0, NaN said "finite and >= 0"
    with pytest.raises(ValidationError, match="noncentrality must be a finite number"):
        law(lam)


def test_sampler_matches_law():
    rng = np.random.default_rng(5)
    d = nc_chisq2(7.5)
    one = ComponentDistSet(dists=(d,), lambdas=np.array([7.5]), mode="ql", nu0=1)
    draws = sample_increments(one, rng, 200000)[:, 0]
    assert draws.mean() == pytest.approx(2 + 7.5, rel=0.01)
    assert draws.var() == pytest.approx(4 + 4 * 7.5, rel=0.03)
    for q in (5.0, 10.0, 20.0):
        assert float(np.mean(draws <= q)) == pytest.approx(d.cdf(q), abs=0.01)


def test_convolution_of_central_pair_closed_form():
    # sum of two 2-dof central components is chi-square with 4 dof:
    # F(x) = 1 - exp(-x/2) (1 + x/2)
    d = convolve_cdfs(nc_chisq2(0.0), nc_chisq2(0.0))
    xs = np.linspace(0.0, 50.0, 300)
    expect = 1.0 - np.exp(-xs / 2.0) * (1.0 + xs / 2.0)
    got = np.array([d.cdf(x) for x in xs])
    assert np.max(np.abs(got - expect)) < 1e-6


def test_convolution_matches_scipy_noncentral():
    d = convolve_cdfs(nc_chisq2(3.0), nc_chisq2(5.0))
    xs = np.linspace(0.0, 60.0, 200)
    got = np.array([d.cdf(x) for x in xs])
    np.testing.assert_allclose(got, stats.ncx2.cdf(xs, 4, 8.0), atol=1e-6)


def test_convolution_with_a_point_mass_at_zero_is_the_other_law():
    law = nc_chisq2(4.0)
    for point in (Dist(cdf=np.ones_like, pdf=np.zeros_like, support_hint=1.0,
                       atom0=1.0 - 1e-13),
                  Dist(cdf=np.ones_like, pdf=np.zeros_like, support_hint=1e-13, atom0=0.5)):
        assert convolve_cdfs(law, point) is law
        assert convolve_cdfs(point, law) is law


def test_convolution_commutes():
    a = nc_chisq2(2.0)
    b = nc_chisq2(9.0)
    ab = convolve_cdfs(a, b)
    ba = convolve_cdfs(b, a)
    xs = np.linspace(0.0, 60.0, 100)
    np.testing.assert_allclose([ab.cdf(x) for x in xs],
                               [ba.cdf(x) for x in xs], atol=2e-6)


def _cubic_tables():
    """(xs, ys) tables on a uniform grid: a cdf with flat runs at 0 and 1;
    pdfs with zeros whose secants change sign, with both ends in each branch
    of the end rule; and a signed zero."""
    rng = np.random.default_rng(11)
    xs = np.linspace(0.3, 40.0, 401)
    cdf = np.clip(1.3 * stats.norm.cdf(xs, 20.0, 4.0) - 0.15, 0.0, 1.0)
    ragged = np.maximum(rng.normal(size=xs.size), 0.0)
    # at each end: 3 times the end secant (secants 0.1 then -0.6), then 0 (0.1 then 0.9)
    clip_ends = np.concatenate([[0.5, 0.6, 0.0], ragged[3:-3], [0.0, 0.6, 0.5]])
    zero_ends = np.concatenate([[0.0, 0.1, 1.0], ragged[3:-3], [1.0, 0.1, 0.0]])
    # a falling cubic through a knot at -0.0
    t = np.linspace(-1.0, 1.0, xs.size)
    signed_zero = -(t + t * t + t**3)
    signed_zero[xs.size // 2] = -0.0
    return {"cdf": (xs, cdf), "pdf": (xs, ragged), "pdf_end_clip": (xs, clip_ends),
            "pdf_end_zero": (xs, zero_ends), "signed_zero": (xs, signed_zero)}


def _cubic_points(xs):
    """The knots, 20000 uniform points and the interval midpoints, sorted."""
    rng = np.random.default_rng(7)
    return np.sort(np.concatenate([xs, rng.uniform(xs[0], xs[-1], 20000),
                                   0.5 * (xs[1:] + xs[:-1])]))


@pytest.mark.floor_kernel
@pytest.mark.parametrize("table", list(_cubic_tables()))
def test_monotone_cubic_is_pchip_on_a_uniform_grid(table):
    xs, ys = _cubic_tables()[table]
    want = PchipInterpolator(xs, ys, extrapolate=False)
    ends = want.derivative()(xs[[0, -1]])
    secants = (ys[[1, -1]] - ys[[0, -2]]) / (xs[[1, -1]] - xs[[0, -2]])
    if table == "cdf":
        assert ys[0] == 0.0 and ys[1] == 0.0 and ys[-2] == 1.0 and ys[-1] == 1.0
    if table == "pdf_end_clip":
        np.testing.assert_array_equal(ends, 3.0 * secants)
    if table == "pdf_end_zero":
        assert np.all(ends == 0.0) and np.all(secants != 0.0)
    x = _cubic_points(xs)
    got = distributions._monotone_cubic(xs, ys)(x)
    assert np.max(np.abs(got - want(x))) <= 1e-15 * np.max(np.abs(ys))


@pytest.mark.floor_kernel
@pytest.mark.parametrize("table", ["cdf", "pdf", "pdf_end_clip", "pdf_end_zero"])
def test_monotone_cubic_keeps_monotone_and_nonnegative_data_so(table):
    xs, ys = _cubic_tables()[table]
    x = _cubic_points(xs)
    # a point on a knot may fall in the interval before it, whose cubic meets
    # the knot's value up to a rounding of the table's values
    on_knot = np.isin(x, xs)
    # the pdf tables summed are nondecreasing, with flat runs
    for data, monotone in ((ys, table == "cdf"), (np.cumsum(ys), True)):
        got = distributions._monotone_cubic(xs, data)(x)
        assert np.all(got[~on_knot] >= 0.0)
        assert np.all(got[on_knot] >= -np.finfo(float).eps * np.max(data))
        if monotone:
            assert np.all(np.diff(got) >= 0.0)


def _assert_same_law(got, want):
    # the window, the grid knots, random points inside and one point either side
    assert ((got.support_lo, got.support_hint, got.atom0)
            == (want.support_lo, want.support_hint, want.atom0))
    lo, hi = want.support_lo, want.support_hint
    x = np.concatenate([np.linspace(lo, hi, distributions._CONV_GRID + 1),
                        np.random.default_rng(0).uniform(lo, hi, 20000), [lo - 1.0, hi + 1.0]])
    assert np.array_equal(got.cdf(x), want.cdf(x))
    assert np.array_equal(got.pdf(x), want.pdf(x))


def _first_cut_row(a, b):
    """Index of convolve_cdfs' first grid row whose y range is cut at b.support_hint."""
    xs = np.linspace(a.support_lo + b.support_lo, a.support_hint + b.support_hint,
                     distributions._CONV_GRID + 1)
    return int(np.count_nonzero(xs - a.support_lo < b.support_hint))


def _cut_share(a, b):
    """Share of convolve_cdfs' grid rows whose y range is cut at b.support_hint."""
    return 1.0 - _first_cut_row(a, b) / (distributions._CONV_GRID + 1)


@pytest.mark.parametrize("snr", [-4.0, 0.0, 20.0])
def test_ml_laws_equal_the_dense_convolution(snr, monkeypatch):
    # every slot's law and the partial-sum law V_1 + V_2 of PMEP-I's interior case
    scenario = sc.standard_scenario(snr)
    got = sc.component_dists(scenario, mode="ml")
    got_laws = got.dists + (theory._lower_sum_dist(got, 3),)
    monkeypatch.setattr(theory, "convolve_cdfs", convolve_cdfs_dense)
    want = sc.component_dists(scenario, mode="ml")
    want_laws = want.dists + (theory._lower_sum_dist(want, 3),)
    for g, w in zip(got_laws, want_laws):
        _assert_same_law(g, w)


# an ML noise part whose window starts above zero (xi / pi > 28)
_NOISE_ABOVE_ZERO = ml_component_cdf(None, 300.0)


@pytest.mark.parametrize("a, b, cut", [
    # b's window wider than a's: only the top few rows are cut
    (nc_chisq2(0.0), nc_chisq2(400.0), (0.05, 0.1)),
    (nc_chisq2(30.0), nc_chisq2(2000.0), (0.05, 0.1)),
    # narrower: most rows are cut
    (nc_chisq2(400.0), nc_chisq2(2.0), (0.85, 0.95)),
    (nc_chisq2(2000.0), nc_chisq2(30.0), (0.85, 0.95)),
    # that noise part as b and as a beside an ML signal part, and as both
    (ml_component_cdf(30.0, 20.0), _NOISE_ABOVE_ZERO, (0.85, 0.9)),
    (_NOISE_ABOVE_ZERO, ml_component_cdf(30.0, 20.0), (0.1, 0.15)),
    (_NOISE_ABOVE_ZERO, _NOISE_ABOVE_ZERO, (0.45, 0.55)),
], ids=["ql_wide_0_400", "ql_wide_30_2000", "ql_narrow_400_2", "ql_narrow_2000_30",
        "ml_noise_lo_as_b", "ml_noise_lo_as_a", "ml_noise_lo_both"])
def test_convolution_equals_the_dense_convolution(a, b, cut):
    assert cut[0] <= _cut_share(a, b) <= cut[1]
    assert _NOISE_ABOVE_ZERO.support_lo > 2.0
    _assert_same_law(convolve_cdfs(a, b), convolve_cdfs_dense(a, b))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.floor_kernel
@pytest.mark.parametrize("a, b, cut", [
    (nc_chisq2(400.0), nc_chisq2(2.0), 403),
    (ml_component_cdf(30.0, 20.0), _NOISE_ABOVE_ZERO, 478),
    # a window narrower than a grid step: the top row is the only one cut
    (nc_chisq2(0.0), nc_chisq2(1e8), distributions._CONV_GRID),
], ids=["ql_narrow_400_2", "ml_noise_lo_as_b", "ql_cut_top_row_only"])
def test_convolution_is_the_dense_one_bit_for_bit_at_any_block_size(a, b, cut, monkeypatch):
    # blocks of one row, of a size that divides nothing, ending at the first
    # cut row and just past it, the whole grid in one, and more than the grid
    assert _first_cut_row(a, b) == cut
    want = convolve_cdfs_dense(a, b)
    lo, hi = want.support_lo, want.support_hint
    x = np.concatenate([np.linspace(lo, hi, distributions._CONV_GRID + 1),
                        np.random.default_rng(0).uniform(lo, hi, 20000), [lo - 1.0, hi + 1.0]])
    want_cdf, want_pdf = _bits(want.cdf(x)), _bits(want.pdf(x))
    for block in sorted({1, 7, cut, cut + 1, distributions._CONV_GRID + 1, 5000}):
        monkeypatch.setattr(distributions, "_CONV_BLOCK", block)
        got = convolve_cdfs(a, b)
        assert (got.support_lo, got.support_hint, got.atom0) == (lo, hi, want.atom0)
        assert np.array_equal(_bits(got.cdf(x)), want_cdf), block
        assert np.array_equal(_bits(got.pdf(x)), want_pdf), block


def test_convolution_temporaries_stay_within_a_row_block():
    # formed on the whole 4097 x 64 grid at once, these peaked at 16.8 MB and,
    # for PMEP-I's lower sum V_1 + V_2, 19.8 MB
    a, b = ml_component_cdf(30.0, 20.0), ml_component_cdf(None, 20.0)
    assert traced_peak_mb(convolve_cdfs, a, b) < 2.0
    laws = sc.component_dists(sc.standard_scenario(-4.0), mode="ml")
    assert traced_peak_mb(theory._lower_sum_dist, laws, 3) < 2.0


@pytest.mark.floor_kernel
@pytest.mark.parametrize("law", [
    ml_component_cdf(30.0, 20.0),
    ml_component_cdf(None, 20.0),
    _NOISE_ABOVE_ZERO,
    convolve_cdfs(ml_component_cdf(30.0, 20.0), ml_component_cdf(None, 20.0)),
    convolve_cdfs(_NOISE_ABOVE_ZERO, _NOISE_ABOVE_ZERO),
    # no cdf_pdf of its own: the separate calls
    nc_chisq2(30.0),
], ids=["ml_signal", "ml_noise", "ml_noise_lo", "convolved", "convolved_lo", "ql_no_cdf_pdf"])
def test_cdf_pdf_equals_the_separate_calls_bit_for_bit(law):
    lo, hi = law.support_lo, law.support_hint
    knots = np.linspace(lo, hi, distributions._CONV_GRID + 1)
    between = np.random.default_rng(3).uniform(knots[:-1], knots[1:])
    x = np.concatenate([[lo - 1.0, np.nextafter(lo, -np.inf), -3.0, -0.0, 0.0, hi,
                         np.nextafter(hi, np.inf), hi + 1.0, np.inf, np.nan], knots, between])
    for points in (x, x[:x.size // 2 * 2].reshape(-1, 2)):
        cdf, pdf = law.cdf_pdf(points)
        assert cdf.shape == pdf.shape == points.shape
        assert np.array_equal(_bits(cdf), _bits(law.cdf(points)))
        assert np.array_equal(_bits(pdf), _bits(law.pdf(points)))


@pytest.mark.parametrize("signal_present", [True, False])
def test_ml_component_cdf_shape(signal_present):
    # a noise slot is the one without a noncentrality
    d = ml_component_cdf(dbar_sq=4.0 if signal_present else None, xi=20.0)
    xs = np.linspace(0.0, 80.0, 200)
    vals = np.array([d.cdf(x) for x in xs])
    assert np.all(np.diff(vals) >= -1e-12)
    assert 0.0 <= vals[0] <= vals[-1] <= 1.0
    assert vals[-1] > 0.999
    assert d.atom0 == pytest.approx(d.cdf(0.0), abs=1e-12)


def test_ml_noise_index_stochastically_larger_with_xi():
    # wider search band (larger xi) pushes the max statistic upward
    narrow = ml_component_cdf(dbar_sq=None, xi=2.0)
    wide = ml_component_cdf(dbar_sq=None, xi=40.0)
    for x in (2.0, 5.0, 10.0, 20.0):
        assert wide.cdf(x) <= narrow.cdf(x) + 1e-12


@pytest.mark.parametrize("dbar_sq, xi, key", [
    (None, 0.0, "xi"),
    (4.0, math.inf, "xi"),
    (math.nan, 20.0, "dbar_sq"),
    (0.0, 20.0, "dbar_sq"),
    (-1.0, 20.0, "dbar_sq"),
], ids=["xi_zero", "xi_inf", "dbar_sq_nan", "dbar_sq_zero", "dbar_sq_negative"])
def test_ml_component_cdf_rejects_bad_parameters(dbar_sq, xi, key):
    with pytest.raises(ValidationError, match=key):
        ml_component_cdf(dbar_sq, xi)


LAMBDAS = st.floats(min_value=0.0, max_value=5e6)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 2, 4]), LAMBDAS)
@example(1, 5e4)
@example(4, 5e6)
def test_ncx2_cdf_matches_poisson_series(m, lam):
    xs = law_points(m, lam, 8.0, 9)
    got = nc_chisq2_sum(m, lam).cdf(xs)
    tol = 1e-12 if lam <= 5e4 else 1e-8
    assert np.max(np.abs(got - series_cdf(xs, m, lam))) <= tol


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 2, 4]), LAMBDAS)
@example(1, 5e6)
@example(1, 2.2250738585072014e-308)
@example(4, 8.1e-202)  # ive(3, sqrt(lam x)) underflows here
def test_ncx2_pdf_matches_poisson_mixture(m, lam):
    xs = law_points(m, lam, 6.0, 9)
    np.testing.assert_allclose(nc_chisq2_sum(m, lam).pdf(xs),
                               mixture_pdf(xs, m, lam), rtol=1e-8, atol=0.0)


def ive_pdf_2dof(x, lam):
    """Oracle: the 2-dof pdf as the general 2m-dof form at m = 1,
    (x/lam)^0 exp(-(sqrt(x) - sqrt(lam))^2/2) ive(0, sqrt(lam x))/2, with
    the leading series term exp(-(x + lam)/2)/2 below s = sqrt(lam x) = 1e-8."""
    x = np.asarray(x, dtype=float)
    s = np.sqrt(lam * x)
    with np.errstate(all="ignore"):
        body = 0.5 * np.exp(0.0 * np.log(x / lam) - 0.5 * (np.sqrt(x) - math.sqrt(lam)) ** 2) * ive(0, s)
    return np.where(s >= 1e-8, body, 0.5 * np.exp(-(x + lam) / 2.0))


@pytest.mark.floor_kernel
@pytest.mark.parametrize("s, ratio", [(s, r) for s in np.logspace(-8.0, 7.0, 31)
                                      for r in (1.0, 4.0, 0.25, 1.0 + 1e-6)])
def test_ncx2_pdf_2dof_matches_the_ive_form(s, ratio):
    # x = s * ratio and lam = s / ratio put sqrt(lam x) at s
    x, lam = s * ratio, s / ratio
    np.testing.assert_allclose(_ncx2_pdf(np.array([x]), 1, lam), ive_pdf_2dof(x, lam),
                               rtol=1e-14, atol=0.0)


@pytest.mark.floor_kernel
@pytest.mark.parametrize("x, lam", [
    # x = 0 and lam = 0
    (0.0, 0.0), (0.0, 1e-300), (0.0, 1.0), (0.0, 30.0), (1e-12, 0.0), (1.0, 0.0), (40.0, 0.0),
    # either side of the series switch at s = sqrt(lam x) = 1e-8
    (1e-8 * (1 - 1e-6), 1e-8), (1e-8 * (1 + 1e-6), 1e-8),
    (1.0, 1e-16 * (1 - 1e-6)), (1.0, 1e-16 * (1 + 1e-6)),
    (30.0, 1e-16 / 30.0 * (1 - 1e-6)), (30.0, 1e-16 / 30.0 * (1 + 1e-6)),
])
def test_ncx2_pdf_2dof_matches_the_ive_form_at_zero_and_the_series_switch(x, lam):
    np.testing.assert_allclose(_ncx2_pdf(np.array([x]), 1, lam), ive_pdf_2dof(x, lam),
                               rtol=1e-14, atol=0.0)


def _lambda_at_80_db():
    """The largest noncentrality of standard_scenario at 80 dB, about 6.4e9."""
    scenario = sc.standard_scenario(80.0)
    return float(theory.residual_means(scenario, scenario.all_frequencies)[1].max())


@pytest.mark.floor_kernel
@pytest.mark.parametrize("lam", [0.0, 1e-3, 1.0, 25.0, 64.0, 160.0, 1e3, 1e5, "80 dB"])
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_ncx2_law_skips_the_kernel_only_where_it_reads_one(m, lam):
    # the law's cdf writes 1.0 from its window's top without calling the
    # kernel; the uncut kernel must read exactly 1.0 there, so the cut
    # changes no value
    lam = _lambda_at_80_db() if lam == "80 dB" else lam
    lo, hi, top = distributions._ncx2_window(m, lam)
    assert hi <= top < math.inf
    above = np.concatenate([np.linspace(top, 4.0 * top, 20001), [1e300, np.inf]])
    assert np.all(distributions._ncx2_cdf(above, m, lam) == 1.0)
    law = nc_chisq2_sum(m, lam)
    x = np.concatenate([np.linspace(-1.0, 2.0 * top, 20001), np.linspace(lo, hi, 101),
                        [0.0, -0.0, np.nextafter(top, 0.0), top, np.nan, np.inf, -np.inf]])
    assert np.array_equal(_bits(law.cdf(x)), _bits(distributions._ncx2_cdf(x, m, lam)))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 2, 4]), LAMBDAS)
@example(1, 5e6)
def test_ncx2_cdf_monotone_in_unit_interval(m, lam):
    d = nc_chisq2_sum(m, lam)
    vals = d.cdf(np.linspace(0.0, d.support_hint, 2049))
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[0] == 0.0 and vals[-1] <= 1.0


def test_integrate_semiinfinite_evaluates_arrays():
    sizes = []

    def integrand(x):
        sizes.append(x.size)
        return np.exp(-x)

    res = integrate(integrand, 0.0, 60.0, tol=1e-10)
    assert res.value == pytest.approx(1.0, abs=1e-10)
    assert res.error <= 1e-10
    assert min(sizes) >= 32 and len(sizes) <= 4
    assert res.evaluations == sum(sizes)


@pytest.mark.floor_kernel
def test_smooth_integrand_returns_after_the_first_level():
    # the 8 seed panels' rules against their halves: 128 + 256 points, one call
    sizes = []

    def integrand(x):
        sizes.append(x.size)
        return np.exp(-x)

    res = integrate(integrand, 0.0, 60.0, tol=1e-10)
    assert sizes == [384] and res.evaluations == 384
    assert res.value == pytest.approx(1.0, abs=1e-10)
    assert res.error <= 1e-10


def test_peaked_integrand_on_wide_support_stays_cheap():
    # +-6 sd of this density cover 0.3% of a support four times its own
    d = nc_chisq2(5e6)
    res = integrate(d.pdf, 0.0, 4 * d.support_hint, tol=1e-9)
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.error <= 1e-9
    assert res.evaluations < 2000


def test_quadrature_error_when_refinement_cannot_converge():
    # a unit step at a non-dyadic point needs panels narrower than the level cap allows
    with pytest.raises(QuadratureError) as info:
        integrate(lambda x: (x < 1.0 / 3.0).astype(float), 0.0, 1.0, tol=1e-12)
    assert info.value.estimate == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert info.value.achieved_error > 1e-12


def test_quadrature_error_when_too_many_panels_need_halving():
    # an oscillation no panel resolves: every panel fails, so the active set
    # passes _QUAD_MAX_ACTIVE long before the level cap
    levels = []

    def wave(x):
        levels.append(x.size)
        return np.sin(1e6 * x)

    with pytest.raises(QuadratureError):
        integrate(wave, 0.0, 1.0, tol=1e-12)
    assert len(levels) < distributions._QUAD_LEVELS
    # the last level's panels, each evaluated on its halves' nodes
    assert 2 * (levels[-1] // distributions._HALF_NODES.size) > distributions._QUAD_MAX_ACTIVE


def _gamma_tail(x):
    return x * np.exp(-x / 2.0) / 4.0


@pytest.mark.floor_kernel
@pytest.mark.parametrize("f, hi", [(np.exp, 1.0), (_gamma_tail, 64.0),
                                   (nc_chisq2(5e6).pdf, 4 * nc_chisq2(5e6).support_hint)],
                         ids=["exp", "gamma_tail", "peaked"])
@pytest.mark.parametrize("members", [1, 3])
def test_batch_of_identical_members_is_the_scalar_call_bit_for_bit(f, hi, members):
    scalar = integrate(f, 0.0, hi, tol=1e-10)
    assert type(scalar.value) is float and type(scalar.error) is float
    batch = integrate(lambda x: np.tile(f(x), (members, 1)), 0.0, hi, tol=1e-10)
    assert batch.value.shape == batch.error.shape == (members,)
    assert np.all(batch.value == scalar.value) and np.all(batch.error == scalar.error)
    assert batch.evaluations == scalar.evaluations


def test_batch_members_refined_as_the_others_need_each_within_tol_of_its_own():
    # the exponential density of mean 1e5 ends at the first level on its
    # own, the peaked one needs panels halved near 5e6: the batch halves a
    # panel that either member needs, and counts each shared node once
    law = nc_chisq2(5e6)
    hi, tol = 4 * law.support_hint, 1e-9
    members = (lambda x: np.exp(-x / 1e5) / 1e5, law.pdf)
    sizes = []

    def both(x):
        sizes.append(x.size)
        return np.stack([f(x) for f in members])

    batch = integrate(both, 0.0, hi, tol=tol)
    own = [integrate(f, 0.0, hi, tol=tol) for f in members]
    assert batch.evaluations == sum(sizes) == max(q.evaluations for q in own)
    assert own[0].evaluations < own[1].evaluations
    for j, q in enumerate(own):
        assert abs(batch.value[j] - q.value) <= tol
        assert batch.error[j] <= tol
    assert batch.value == pytest.approx([1.0, 1.0], abs=1e-9)


def test_quadrature_error_of_a_batch_holds_one_entry_per_member():
    # the step member cannot converge; the smooth one has, and the error
    # carries both members' estimates and errors, its message the largest
    def members(x):
        return np.stack([np.exp(-x), (x < 1.0 / 3.0).astype(float)])

    with pytest.raises(QuadratureError) as info:
        integrate(members, 0.0, 1.0, tol=1e-12)
    estimate, achieved = info.value.estimate, info.value.achieved_error
    assert estimate.shape == achieved.shape == (2,)
    assert estimate == pytest.approx([1.0 - math.exp(-1.0), 1.0 / 3.0], abs=1e-6)
    assert achieved[0] <= 1e-12 < achieved[1]
    assert f"{achieved[1]:.2e}" in str(info.value)


@pytest.mark.parametrize("shape", [(2, 3), (4,)], ids=["three_dims", "short_rows"])
def test_integrand_must_return_a_row_per_member(shape):
    with pytest.raises(ValidationError, match="integrand returned shape"):
        integrate(lambda x: np.zeros(shape + (x.size,))[..., :x.size - 1], 0.0, 1.0, tol=1e-8)


def test_integrate_semiinfinite_exponential():
    res = integrate(lambda x: np.exp(-x), 0.0, 60.0, tol=1e-8)
    assert res.value == pytest.approx(1.0, abs=1e-9)
    # a shorter support: e^-32 is below the tolerance
    res = integrate(lambda x: np.exp(-x), 0.0, 32.0, tol=1e-8)
    assert res.value == pytest.approx(1.0, abs=1e-8)
    assert res.error < 1e-6
    # a density on [2, inf): the window is integrated as given, not from zero
    res = integrate(lambda x: np.exp(2.0 - x), 2.0, 62.0, tol=1e-8)
    assert res.value == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, 1.0), (0.0, math.nan)])
def test_integrate_rejects_empty_window(lo, hi):
    with pytest.raises(ValidationError, match="empty"):
        integrate(np.exp, lo, hi, tol=1e-8)


def test_integrate_semiinfinite_gamma_tail():
    # integral of x e^{-x/2} / 4 over [0, inf) = 1 (Erlang-2 density)
    res = integrate(lambda x: x * np.exp(-x / 2.0) / 4.0, 0.0, 64.0, tol=1e-8)
    assert res.value == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.0, max_value=50.0))
def test_cdf_bounds_property(lam):
    d = nc_chisq2(lam)
    assert d.cdf(0.0) == pytest.approx(math.exp(-lam / 2.0) * 0.0, abs=1e-12)
    assert d.cdf(-1.0) == 0.0
    big = d.cdf(lam + 200.0)
    assert 1.0 - big < 1e-10
