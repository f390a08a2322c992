"""Matrix types, factorization, and the dense spectrum oracle."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh

from spdcone import (
    EigenOptions,
    SpdMatrix,
    combine,
    random_sparse_spd,
    random_spd,
    spectrum_dense,
)
from spdcone.core import _factor, _reduce
from spdcone.errors import (
    AsymmetricInput,
    DenseLimitExceeded,
    InvalidMatrix,
    NotPositiveDefinite,
    NumericalBreakdown,
    SpdConeError,
)

from conftest import factor_error, sparse_pair, spd_pair


class TestMakeSpd:
    def test_identity(self):
        X = SpdMatrix(np.eye(3))
        assert X.n == 3 and X.certified
        np.testing.assert_array_equal(X.dense(), np.eye(3))

    def test_indefinite_reports_pivot(self):
        with pytest.raises(NotPositiveDefinite) as exc:
            SpdMatrix(np.diag([1.0, -1.0]))
        assert exc.value.pivot_index == 2

    def test_2x2_spd(self):
        # eigenvalues of [[2,1],[1,2]] from the characteristic polynomial
        # l^2 - 4l + 3 = 0 are {1, 3}, both positive
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        roots = np.roots([1.0, -(A[0, 0] + A[1, 1]), A[0, 0] * A[1, 1] - A[0, 1] ** 2])
        assert all(r > 0 for r in roots)
        X = SpdMatrix(A)
        np.testing.assert_allclose(sorted(np.linalg.eigvalsh(X.dense())), sorted(roots))

    def test_asymmetric_rejected(self):
        A = np.eye(3)
        A[0, 1] = 1e-6
        # dense and sparse storage take one path and report the same deviation
        devs = []
        for make in (np.asarray, sp.csr_matrix):
            with pytest.raises(AsymmetricInput) as exc:
                SpdMatrix(make(A))
            devs.append(exc.value.max_dev)
        assert devs == [1e-6, 1e-6]

    def test_symmetry_is_exact_after_mirroring(self, rng):
        A = random_spd(7, rng).dense().copy()
        A += rng.uniform(-1, 1, (7, 7)) * 1e-14  # below tolerance, breaks symmetry
        for make in (np.asarray, sp.coo_matrix):
            X = SpdMatrix(make(A))
            assert np.array_equal(X.dense(), X.dense().T)
            np.testing.assert_array_equal(X.dense(), np.tril(A) + np.tril(A, -1).T)

    def test_sparse_duplicates_summed(self):
        # duplicate (1, 0) entries sum to 1.0 and match the (0, 1) entry
        A = sp.coo_matrix(
            ([2.0, 0.5, 0.5, 1.0, 2.0], ([0, 1, 1, 0, 1], [0, 0, 0, 1, 1])), shape=(2, 2)
        )
        X = SpdMatrix(A)
        np.testing.assert_array_equal(X.dense(), [[2.0, 1.0], [1.0, 2.0]])
        # summed duplicates that disagree across the diagonal are rejected
        bad = sp.coo_matrix(
            ([2.0, 0.4, 0.2, 1.0, 2.0], ([0, 1, 1, 0, 1], [0, 0, 0, 1, 1])), shape=(2, 2)
        )
        with pytest.raises(AsymmetricInput):
            SpdMatrix(bad)

    def test_near_singular_breakdown(self):
        A = np.diag([1.0, 1e-16])
        with pytest.raises(NumericalBreakdown):
            SpdMatrix(A)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_largest_float_certifies_without_overflow(self, n, sparse):
        # the lambda_min estimate is scale / |x| with |x| a hair below 1
        # here; it must be compared without that overflowing division
        big = np.finfo(float).max
        A = sp.diags([big] * n) if sparse else np.diag([big] * n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert SpdMatrix(A).certified


def _storage_forms():
    """One symmetric 3 x 3 matrix as a dense array and in three sparse forms."""
    dense = np.array([[4.0, 1.0, 0.0], [1.0, 5.0, 2.0], [0.0, 2.0, 6.0]])
    # (1, 0) split into two entries, an explicit zero at (2, 0), rows unordered
    coo = sp.coo_matrix(
        ([2.0, 0.5, 0.5, 1.0, 5.0, 2.0, 0.0, 6.0, 4.0],
         ([2, 1, 1, 0, 1, 1, 2, 2, 0], [1, 0, 0, 1, 1, 2, 0, 2, 0])),
        shape=(3, 3),
    )
    # column indices unsorted within each row
    csr = sp.csr_matrix(
        (np.array([1.0, 4.0, 2.0, 1.0, 5.0, 6.0, 2.0]),
         np.array([1, 0, 2, 0, 1, 2, 1]), np.array([0, 2, 5, 7])),
        shape=(3, 3),
    )
    assert not csr.has_sorted_indices
    return dense, [coo, csr, sp.csc_matrix(dense)]


class TestOnePath:
    def test_sparse_forms_store_the_same_sorted_csr(self):
        dense, forms = _storage_forms()
        ref = SpdMatrix(dense).raw()
        raws = [SpdMatrix(f).raw() for f in forms]
        for R in raws:
            assert isinstance(R, sp.csr_matrix) and R.has_sorted_indices
            assert (R != R.T).nnz == 0
            np.testing.assert_array_equal(R.toarray(), ref)
            for name in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(R, name), getattr(raws[0], name))
        assert raws[0].nnz == 7  # the explicit zero is not stored

    def test_caller_arrays_unchanged(self):
        _, forms = _storage_forms()
        names = ("data", "indices", "indptr", "row", "col")
        before = [{k: getattr(f, k).copy() for k in names if hasattr(f, k)} for f in forms]
        for f, arrays in zip(forms, before):
            SpdMatrix(f)
            for k, v in arrays.items():
                np.testing.assert_array_equal(getattr(f, k), v)
        assert not forms[1].has_sorted_indices


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(SpdMatrix(np.eye(4)).chol().L, np.eye(4))

    def test_diagonal_square_roots(self):
        f = SpdMatrix(np.diag([4.0, 9.0])).chol()
        np.testing.assert_allclose(f.L, np.diag([2.0, 3.0]))

    def test_hand_cholesky_2x2(self):
        # [[4,2],[2,5]]: l11 = 2, l21 = 2/2 = 1, l22 = sqrt(5 - 1) = 2
        X = SpdMatrix(np.array([[4.0, 2.0], [2.0, 5.0]]))
        L = X.chol().L
        np.testing.assert_allclose(L, np.array([[2.0, 0.0], [1.0, 2.0]]))
        np.testing.assert_allclose(L @ L.T, X.dense())

    def test_round_trip_seeded(self, rng):
        # reconstruction error within 1e-12 relative over many seeded sizes
        for _ in range(1000):
            n = int(rng.integers(2, 51))
            X = random_spd(n, rng, spread=rng.uniform(0.2, 3.0))
            err = factor_error(X)
            assert err <= 1e-12

    def test_sparse_records_permutation(self, rng):
        from spdcone import random_sparse_spd

        X = random_sparse_spd(80, 0.05, rng)
        f = X.chol()
        assert f.perm is not None
        assert factor_error(X) <= 1e-12
        # L is genuinely lower triangular with positive diagonal
        assert (sp.triu(f.L, k=1).nnz == 0) and np.all(f.L.diagonal() > 0)


class TestSpectrumDense:
    def test_diagonal(self):
        s = spectrum_dense(SpdMatrix(np.eye(3)), SpdMatrix(np.diag([9.0, 4.0, 1.0])))
        np.testing.assert_allclose(s, [1.0, 4.0, 9.0])

    def test_self_pencil_all_ones(self, rng):
        X = random_spd(6, rng)
        s = spectrum_dense(X, X)
        np.testing.assert_allclose(s, np.ones(6), atol=1e-12)

    def test_reciprocal_spectrum(self):
        # X = [[2,1],[1,2]] has eigenvalues {1, 3}; pencil (I, X) has {1/3, 1}
        X = SpdMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        s = spectrum_dense(X, SpdMatrix(np.eye(2)))
        np.testing.assert_allclose(s, [1.0 / 3.0, 1.0])

    def test_ceiling(self, rng):
        X, Y = spd_pair(rng, 8)
        with pytest.raises(DenseLimitExceeded):
            spectrum_dense(X, Y, EigenOptions(dense_ceiling=4))

    def test_congruence_isospectral(self, rng):
        X, Y = spd_pair(rng, 9)
        A = rng.standard_normal((9, 9))
        AX = SpdMatrix(A @ X.dense() @ A.T)
        AY = SpdMatrix(A @ Y.dense() @ A.T)
        s0 = spectrum_dense(X, Y)
        s1 = spectrum_dense(AX, AY)
        np.testing.assert_allclose(s1, s0, rtol=1e-9)

    @pytest.mark.parametrize("stored", ["dense", "sparse"])
    def test_bit_identical_to_generalized_eigh(self, rng, stored):
        # one reduction with X's factor and one dsyevd: the eigenvalues of
        # the generalized eigh, bit for bit, whether X lends its held dense
        # factor or a sparse-stored X takes one potrf of its dense copy
        X, Y = spd_pair(rng, 48) if stored == "dense" else sparse_pair(rng, 120)
        assert X.is_sparse == (stored == "sparse")
        np.testing.assert_array_equal(
            spectrum_dense(X, Y), eigh(Y.dense(), X.dense(), eigvals_only=True))

    @pytest.mark.parametrize("held", [True, False])
    def test_sparse_b_lends_a_held_dense_factor_and_runs_no_superlu(self, rng, held,
                                                                     factor_calls):
        # the inductive mean's iterates hold a dense factor on sparse
        # storage; a sparse B holding none takes one potrf of its dense copy
        X, Y = sparse_pair(rng, 120)
        B = SpdMatrix._canonical(X.raw(), _factor(X.raw(), dense=True) if held else None)
        factor_calls.clear()
        C, L = _reduce(Y, B)
        assert factor_calls == ([] if held else ["dpotrf"]) and B.certified == held
        if held:
            assert L is B.chol().L
        # the same potrf of the same dense copy as for X, which holds SuperLU's factor
        np.testing.assert_array_equal(C, _reduce(Y, X)[0])


class TestSparseDenseAgreement:
    def test_operations_agree(self, rng):
        from spdcone import random_sparse_spd, thompson_distance, star_geodesic

        Xs = random_sparse_spd(40, 0.1, rng)
        Ys = random_sparse_spd(40, 0.1, rng)
        Xd = SpdMatrix(Xs.dense())
        Yd = SpdMatrix(Ys.dense())
        s_sparse = spectrum_dense(Xs, Ys)
        s_dense = spectrum_dense(Xd, Yd)
        np.testing.assert_allclose(s_sparse, s_dense, rtol=1e-12)
        d_sparse = thompson_distance(Xs, Ys)
        d_dense = thompson_distance(Xd, Yd)
        assert abs(d_sparse - d_dense) <= 1e-12 * max(1.0, abs(d_dense))
        g_sparse = star_geodesic(Xs, Ys, 0.37)
        g_dense = star_geodesic(Xd, Yd, 0.37)
        np.testing.assert_allclose(g_sparse.dense(), g_dense.dense(), rtol=1e-12, atol=1e-14)


class TestImmutability:
    def test_dense_backing_readonly(self, rng):
        X = random_spd(4, rng)
        with pytest.raises(ValueError):
            X.dense()[0, 0] = 5.0

    def test_scaled(self, rng):
        X = random_spd(4, rng)
        np.testing.assert_allclose(X.scaled(2.5).dense(), 2.5 * X.dense())
        with pytest.raises(ValueError) as exc:
            X.scaled(-1.0)
        assert isinstance(exc.value, SpdConeError)

    def test_empty_combination(self):
        with pytest.raises(ValueError) as exc:
            combine([])
        assert isinstance(exc.value, SpdConeError)


class TestCertified:
    # certified says that the matrix holds its certifying factorization
    @pytest.mark.parametrize("sparse", [False, True])
    def test_scaled_certifies_on_first_chol(self, rng, sparse):
        X = sparse_pair(rng, 30)[0] if sparse else random_spd(5, rng)
        S = X.scaled(2.0)
        assert X.certified and not S.certified
        S.chol()
        assert S.certified

    @pytest.mark.parametrize("sparse", [False, True])
    def test_scaled_below_the_breakdown_threshold(self, rng, sparse):
        # every pivot of 1e-310 X is subnormal: X's certificate cannot carry
        # over, and SuperLU's taking such a pivot for zero is no exception
        X = random_sparse_spd(30, 0.1, rng) if sparse else random_spd(5, rng)
        S = X.scaled(1e-310)
        assert not S.certified
        with pytest.raises(NumericalBreakdown):
            S.chol()
        assert not S.certified

    def test_read_only(self, rng):
        X = random_spd(3, rng)
        with pytest.raises(AttributeError):
            X.certified = False


class TestCanonicalResults:
    # combine and scaled skip the canonicalization, so what they build
    # must already be what SpdMatrix stores
    @pytest.mark.parametrize("case", ["combine", "cancelling combine", "scaled",
                                      "underflowing scaled"])
    def test_sparse_results_are_canonical(self, rng, case):
        X, Y = sparse_pair(rng, 60, density=0.08)
        make = {
            "combine": lambda: combine([(0.3, X), (0.7, Y)]),
            # Y's entries outside X's pattern cancel exactly
            "cancelling combine": lambda: combine([(1.0, X), (1.0, Y), (-1.0, Y)],
                                                  certify=False),
            "scaled": lambda: X.scaled(2.5),
            "underflowing scaled": lambda: X.scaled(5e-324),
        }
        R = make[case]().raw()
        assert sp.isspmatrix_csr(R) and R.has_sorted_indices and R.has_canonical_format
        assert R.data.all()
        assert (R != R.T).nnz == 0

    def test_non_finite_results_rejected(self, rng):
        X, Y = sparse_pair(rng, 30, density=0.1)
        with np.errstate(over="ignore"):
            with pytest.raises(InvalidMatrix):
                X.scaled(1e308)
            with pytest.raises(InvalidMatrix):
                combine([(1e308, X), (1e308, Y)])
