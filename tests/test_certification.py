"""SPD certification at the SpdMatrix boundary, and one factorization per matrix."""

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import spdcone.core
from spdcone import (
    EigenOptions,
    MeanProblem,
    SpdMatrix,
    extreme_pair,
    inductive_mean,
    random_sparse_spd,
    random_spd,
)
from spdcone.errors import InvalidMatrix, NotPositiveDefinite, NumericalBreakdown, SpdConeError

from conftest import sparse_pair, spd_pair


def _sparse(A):
    return sp.coo_matrix(np.asarray(A, dtype=float))


class TestCertificationHoles:
    @pytest.mark.parametrize("make", [np.asarray, _sparse])
    def test_zero_diagonal_rejected(self, make):
        # eigenvalues -1 and 1; SuperLU would swap the rows and certify
        with pytest.raises(NotPositiveDefinite) as exc:
            SpdMatrix(make([[0.0, 1.0], [1.0, 0.0]]))
        assert exc.value.pivot_index == 1

    def test_row_swap_is_not_spd(self):
        # a positive diagonal, but the second elimination step meets a zero
        # pivot; with rows swapped every pivot comes out positive
        A = np.array([[2.0, -1.0, -2.0], [-1.0, 2.0, 2.0], [-2.0, 2.0, 2.0]])
        assert np.linalg.eigvalsh(A)[0] < 0
        with pytest.raises(NotPositiveDefinite):
            SpdMatrix(_sparse(A))

    @pytest.mark.parametrize("make", [np.asarray, _sparse])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, make, value):
        with pytest.raises(InvalidMatrix):
            SpdMatrix(make([[value]]))
        A = np.eye(3)
        A[2, 1] = A[1, 2] = value
        with pytest.raises(InvalidMatrix):
            SpdMatrix(make(A))

    @pytest.mark.parametrize("make", [np.asarray, _sparse])
    def test_empty_rejected(self, make):
        with pytest.raises(InvalidMatrix):
            SpdMatrix(make(np.zeros((0, 0))))

    def test_singular_below_rounding_rejected(self):
        # lambda_min of the stored floats is about -6e-18 (50-digit mpmath):
        # indefinite, yet every Cholesky pivot clears 1e-14; only the
        # smallest-eigenvalue estimate sees it
        Q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((5, 5)))
        A = (Q * [-1e-17, 1e-9, 1.0, 1.0, 1.0]) @ Q.T
        with pytest.raises(NumericalBreakdown):
            SpdMatrix(np.tril(A) + np.tril(A, -1).T)

    def test_unchecked_wrap_certifies_on_use(self):
        X = SpdMatrix(np.diag([1.0, -2.0]), _certify=False)
        assert not X.certified
        with pytest.raises(NotPositiveDefinite) as exc:
            X.chol()
        assert exc.value.pivot_index == 2


class TestOneFactorization:
    def test_splu_once_per_matrix_and_never_in_a_solve(self, rng, monkeypatch):
        calls = []
        original = spdcone.core.splu

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(spdcone.core, "splu", counting)
        X, Y = sparse_pair(rng, 300, density=0.01)
        assert len(calls) == 2
        e = extreme_pair(X, Y, EigenOptions(backend="iterative", seed=1))
        assert len(calls) == 2
        assert max(e.residuals) <= 1e-10

    def test_near_identity_pencil(self, rng):
        # every eigenvalue within 1e-8 of one, so b = |w|_X is far below |h|
        for X, E in [sparse_pair(rng, 300, density=0.02),
                     (random_sparse_spd(50, 1.0, rng), random_sparse_spd(50, 1.0, rng))]:
            Y = SpdMatrix(X.raw() + 1e-9 * E.raw())
            e = extreme_pair(X, Y, EigenOptions(backend="iterative", seed=2, tol=1e-10))
            assert max(e.residuals) <= 1e-10
            assert 1.0 <= e.alpha <= e.beta <= 1.0 + 1e-8


class TestScaleSafeCertificates:
    """Residual certificates of certified inputs at any representable scale."""

    @pytest.mark.parametrize("backend", ["dense", "iterative"])
    @pytest.mark.parametrize("scale", [1e-200, 1e200, 1e300])
    def test_pair_residuals_scale_free(self, rng, backend, scale):
        X, Y = spd_pair(rng, 6)
        opts = EigenOptions(backend=backend)
        ref = extreme_pair(X, Y, opts)
        e = extreme_pair(SpdMatrix(X.raw() * scale), SpdMatrix(Y.raw() * scale), opts)
        # an underflowed denominator once read as a zero residual
        assert 0.0 < min(e.residuals) and max(e.residuals) <= opts.tol
        np.testing.assert_allclose(e.residuals, ref.residuals, rtol=0, atol=1e-15)
        assert (e.alpha, e.beta) == pytest.approx((ref.alpha, ref.beta), rel=1e-13)

    @pytest.mark.parametrize("backend", ["dense", "iterative"])
    def test_huge_textbook_pencil(self, backend):
        A = SpdMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]) * 1e300)
        e = extreme_pair(A, A, EigenOptions(backend=backend))
        assert 0.0 < min(e.residuals) and max(e.residuals) <= 1e-10
        assert (e.alpha, e.beta) == pytest.approx((1.0, 1.0), rel=1e-14)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_mean_of_scaled_family(self, rng, scale):
        pts = [random_spd(6, rng) for _ in range(3)]
        ref = inductive_mean(MeanProblem(pts))
        res = inductive_mean(MeanProblem([SpdMatrix(p.raw() * scale) for p in pts]))
        assert res.certified and ref.certified
        assert res.residual_norm == pytest.approx(ref.residual_norm, rel=0, abs=1e-14)
        M, M1 = res.mean.dense() / scale, ref.mean.dense()
        assert np.linalg.norm(M - M1) <= 1e-12 * np.linalg.norm(M1)


def _exact_lambda_min(A):
    """Smallest eigenvalue of the stored floats, to 50 digits.

    eigvalsh errs by about eps |A|, which hides the sign of a certified
    matrix's smallest eigenvalue below that; every float is exact in mpmath.
    """
    with mpmath.workdps(50):
        return min(mpmath.eigsy(mpmath.matrix(A.tolist()), eigvals_only=True))


@st.composite
def symmetric_inputs(draw):
    """Small symmetric matrices: positive definite, indefinite, singular,
    zero-diagonal, non-finite, empty, and of tiny or huge scale."""
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["positive spectrum", "any spectrum", "entries"]))
    if kind == "entries":
        A = draw(arrays(float, (n, n), elements=st.floats(-4.0, 4.0, allow_subnormal=False)))
    else:
        values = [1e-17, 1e-9, 1.0, 3.0, 1e8] + ([-1.0, -1e-17, 0.0] if kind == "any spectrum" else [])
        eig = draw(arrays(float, n, elements=st.sampled_from(values)))
        Q, _ = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
                            .standard_normal((n, n)))
        A = (Q * eig) @ Q.T
    A = np.tril(A) + np.tril(A, -1).T
    defect = draw(st.sampled_from([None, None, "zero diagonal", "non-finite"]))
    if n and defect == "zero diagonal":
        i = draw(st.integers(0, n - 1))
        A[i, i] = 0.0
    if n and defect == "non-finite":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        A[i, j] = A[j, i] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with np.errstate(over="ignore"):  # an overflow to inf is one more non-finite input
        A = A * 10.0 ** draw(st.one_of(st.sampled_from([-320, -300, -160, 0, 160, 300, 308]),
                                       st.integers(-320, 308)))
    return _sparse(A) if draw(st.booleans()) else A


@settings(max_examples=300, deadline=None, derandomize=True)
@given(symmetric_inputs())
def test_certified_or_rejected(A):
    try:
        X = SpdMatrix(A)
    except SpdConeError:
        return
    assert np.linalg.eigvalsh(X.dense())[0] > 0
    assert _exact_lambda_min(X.dense()) > 0
    assert X.chol().reconstruction_error(X.raw()) <= 1e-12
