"""The production whitening against Gram-Schmidt and quadratic-form oracles.

FrequencyPlan factors the Gram matrix of its basis once, C = L L^T
(likelihood._chol_or_degenerate), and residuals_batch whitens observations
with one product with the whitened basis W = L^{-1} B^T, derived from that
factor.  That one factorization is the
non-iterative Gram-Schmidt and the telescoping split of the quadratic form
x^T C^{-1} x; the reference loops here check it on random bases.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sincount as sc
from sincount.errors import DegenerateStatsError
from sincount.likelihood import FrequencyPlan, _chol_or_degenerate

rng = np.random.default_rng(2024)

# noise level 1, known: residuals_batch returns the unscaled L^{-1} x
UNIT_NOISE = sc.standard_scenario(0.0)


def random_pd_vectors(dim, n_extra=3):
    # rows span a PD Gram matrix almost surely
    return rng.standard_normal((dim, dim + n_extra))


def plan_over(vectors):
    """Plan whose basis columns are the rows A_1..A_n of `vectors`."""
    freqs = np.arange(vectors.shape[0], dtype=float)
    return FrequencyPlan(scenario=UNIT_NOISE, frequencies=freqs, basis=vectors.T,
                         chol=_chol_or_degenerate(vectors @ vectors.T, freqs))


def whitened(vectors):
    """Orthonormal rows B = L^{-1} A: the plan's residuals of the unit samples."""
    return plan_over(vectors).residuals_batch(np.eye(vectors.shape[1])).T


def classical_gram_schmidt(vectors):
    """Iterative reference: orthonormalize the rows one at a time."""
    basis = np.zeros_like(vectors)
    for m in range(vectors.shape[0]):
        acc = vectors[m] - basis[:m].T @ (basis[:m] @ vectors[m])
        basis[m] = acc / np.linalg.norm(acc)
    return basis


def telescoping_residuals(x, cov):
    """Reference recursion: residual of x_n after projecting out x_1..x_{n-1},
    scaled by the Schur complement S_n = C_nn - c_n^T C_{n-1}^{-1} c_n."""
    out = np.zeros(x.shape[0])
    for m in range(x.shape[0]):
        beta = np.linalg.solve(cov[:m, :m], cov[:m, m]) if m else np.zeros(0)
        schur = cov[m, m] - cov[:m, m] @ beta
        out[m] = (x[m] - x[:m] @ beta) / np.sqrt(schur)
    return out


CASES = [random_pd_vectors(int(d)) for d in rng.integers(2, 11, size=100)]


@pytest.mark.parametrize("vectors", CASES)
def test_noniterative_matches_classical(vectors):
    assert np.max(np.abs(whitened(vectors) - classical_gram_schmidt(vectors))) < 1e-9


def test_coefficients_whiten_the_gram():
    b = whitened(random_pd_vectors(6))
    np.testing.assert_allclose(b @ b.T, np.eye(6), atol=1e-9)


def test_schur_complement_is_det_ratio():
    g = random_pd_vectors(7)
    diag_sq = np.diag(plan_over(g).chol) ** 2
    g = g @ g.T
    for n in range(2, 8):
        expect = np.linalg.det(g[:n, :n]) / np.linalg.det(g[:n - 1, :n - 1])
        assert diag_sq[n - 1] == pytest.approx(expect, rel=1e-8)
    assert diag_sq[0] == pytest.approx(g[0, 0], rel=1e-12)


def test_not_positive_definite_gram_is_degenerate():
    g = np.eye(4)
    g[2, 2] = 0.0
    with pytest.raises(DegenerateStatsError) as info:
        _chol_or_degenerate(g, [0.1, 0.5, 0.55, 0.9])
    assert info.value.pair == (2, 3)


@pytest.mark.parametrize("dim", list(rng.integers(2, 13, size=100)))
def test_quadratic_form_telescopes(dim):
    vectors = random_pd_vectors(int(dim))
    cov = vectors @ vectors.T
    samples = rng.standard_normal(vectors.shape[1])
    x = vectors @ samples
    increments = plan_over(vectors).residuals_batch(samples)[0] ** 2
    total = x @ np.linalg.solve(cov, x)
    assert np.sum(increments) == pytest.approx(total, rel=1e-9)
    # leading partial sums telescope: order-n total from the first n terms
    for n in range(1, int(dim) + 1):
        part = x[:n] @ np.linalg.solve(cov[:n, :n], x[:n])
        assert np.sum(increments[:n]) == pytest.approx(part, rel=1e-9,
                                                       abs=1e-12)


def test_cholesky_residuals_match_recursion():
    vectors = random_pd_vectors(8)
    plan = plan_over(vectors)
    samples = rng.standard_normal(vectors.shape[1])
    np.testing.assert_allclose(
        plan.residuals_batch(samples)[0],
        telescoping_residuals(vectors @ samples, vectors @ vectors.T),
        rtol=1e-9, atol=1e-12)
    # batched rows give the same answer rowwise
    batch = rng.standard_normal((5, vectors.shape[1]))
    out = plan.residuals_batch(batch)
    for k in range(5):
        np.testing.assert_allclose(out[k], plan.residuals_batch(batch[k])[0],
                                   rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
def test_whitening_property(dim, seed):
    local = np.random.default_rng(seed)
    b = whitened(local.standard_normal((dim, dim + 3)))
    np.testing.assert_allclose(b @ b.T, np.eye(dim), atol=1e-8)
