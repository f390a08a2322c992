"""Matrix types, factorization, and the dense spectrum oracle."""

import numpy as np
import pytest
import scipy.sparse as sp

from spdcone import (
    SpdMatrix,
    cholesky,
    combine,
    make_spd,
    random_spd,
    spectrum_dense,
    whiten,
)
from spdcone.errors import (
    AsymmetricInput,
    DenseLimitExceeded,
    DimensionMismatch,
    NotPositiveDefinite,
    NumericalBreakdown,
    SpdConeError,
)

from conftest import spd_pair


class TestMakeSpd:
    def test_identity(self):
        X = make_spd(np.eye(3))
        assert X.n == 3 and X.certified
        np.testing.assert_array_equal(X.dense(), np.eye(3))

    def test_indefinite_reports_pivot(self):
        with pytest.raises(NotPositiveDefinite) as exc:
            make_spd(np.diag([1.0, -1.0]))
        assert exc.value.pivot_index == 2

    def test_2x2_spd(self):
        # eigenvalues of [[2,1],[1,2]] from the characteristic polynomial
        # l^2 - 4l + 3 = 0 are {1, 3}, both positive
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        roots = np.roots([1.0, -(A[0, 0] + A[1, 1]), A[0, 0] * A[1, 1] - A[0, 1] ** 2])
        assert all(r > 0 for r in roots)
        X = make_spd(A)
        np.testing.assert_allclose(sorted(np.linalg.eigvalsh(X.dense())), sorted(roots))

    def test_asymmetric_rejected(self):
        A = np.eye(3)
        A[0, 1] = 1e-6
        with pytest.raises(AsymmetricInput):
            make_spd(A)

    def test_symmetry_is_exact_after_mirroring(self, rng):
        A = random_spd(7, rng).dense().copy()
        A += rng.uniform(-1, 1, (7, 7)) * 1e-14  # below tolerance, breaks symmetry
        X = make_spd(A)
        assert np.array_equal(X.dense(), X.dense().T)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            make_spd(np.eye(3), n=4)

    def test_sparse_duplicates_summed(self):
        # duplicate (1, 0) entries sum to 1.0 and match the (0, 1) entry
        A = sp.coo_matrix(
            ([2.0, 0.5, 0.5, 1.0, 2.0], ([0, 1, 1, 0, 1], [0, 0, 0, 1, 1])), shape=(2, 2)
        )
        X = make_spd(A)
        np.testing.assert_array_equal(X.dense(), [[2.0, 1.0], [1.0, 2.0]])
        # summed duplicates that disagree across the diagonal are rejected
        bad = sp.coo_matrix(
            ([2.0, 0.4, 0.2, 1.0, 2.0], ([0, 1, 1, 0, 1], [0, 0, 0, 1, 1])), shape=(2, 2)
        )
        with pytest.raises(AsymmetricInput):
            make_spd(bad)
        B = sp.coo_matrix(([2.0, 0.5, 0.5, 2.0], ([0, 1, 1, 1], [0, 0, 0, 1])), shape=(2, 2))
        X2 = SpdMatrix.from_lower_sparse(B)
        np.testing.assert_array_equal(X2.dense(), [[2.0, 1.0], [1.0, 2.0]])

    def test_near_singular_breakdown(self):
        A = np.diag([1.0, 1e-16])
        with pytest.raises(NumericalBreakdown):
            make_spd(A)


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky(make_spd(np.eye(4))).L, np.eye(4))

    def test_diagonal_square_roots(self):
        f = cholesky(make_spd(np.diag([4.0, 9.0])))
        np.testing.assert_allclose(f.L, np.diag([2.0, 3.0]))

    def test_hand_cholesky_2x2(self):
        # [[4,2],[2,5]]: l11 = 2, l21 = 2/2 = 1, l22 = sqrt(5 - 1) = 2
        X = make_spd(np.array([[4.0, 2.0], [2.0, 5.0]]))
        L = cholesky(X).L
        np.testing.assert_allclose(L, np.array([[2.0, 0.0], [1.0, 2.0]]))
        np.testing.assert_allclose(L @ L.T, X.dense())

    def test_round_trip_seeded(self, rng):
        # reconstruction error within 1e-12 relative over many seeded sizes
        for _ in range(1000):
            n = int(rng.integers(2, 51))
            X = random_spd(n, rng, spread=rng.uniform(0.2, 3.0))
            err = cholesky(X).reconstruction_error(X.raw())
            assert err <= 1e-12

    def test_sparse_records_permutation(self, rng):
        from spdcone import random_sparse_spd

        X = random_sparse_spd(80, 0.05, rng)
        f = cholesky(X)
        assert f.perm is not None
        assert f.reconstruction_error(X.raw()) <= 1e-12
        # L is genuinely lower triangular with positive diagonal
        assert (sp.triu(f.L, k=1).nnz == 0) and np.all(f.L.diagonal() > 0)


class TestWhiten:
    def test_identity_base(self, rng):
        X = make_spd(np.eye(5))
        Y = random_spd(5, rng)
        np.testing.assert_allclose(whiten(X, Y), Y.dense(), atol=1e-14)

    def test_diagonal_ratio(self):
        X = make_spd(np.diag([4.0, 1.0]))
        Y = make_spd(np.diag([8.0, 3.0]))
        np.testing.assert_allclose(whiten(X, Y), np.diag([2.0, 3.0]), atol=1e-14)

    def test_spectrum_matches_nonsymmetric_oracle(self, rng):
        # oracle: general (non-symmetric) eigensolve of Y X^-1
        X, Y = spd_pair(rng, 5)
        oracle = np.sort(np.linalg.eigvals(Y.dense() @ np.linalg.inv(X.dense())).real)
        ours = np.sort(np.linalg.eigvalsh(whiten(X, Y)))
        np.testing.assert_allclose(ours, oracle, rtol=1e-10)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            whiten(random_spd(3, rng), random_spd(4, rng))

    def test_sparse_matches_dense(self, rng):
        from spdcone import random_sparse_spd

        X, Y = random_sparse_spd(30, 0.1, rng), random_sparse_spd(30, 0.1, rng)
        sparse = np.linalg.eigvalsh(whiten(X, Y))
        dense = np.linalg.eigvalsh(whiten(make_spd(X.dense()), make_spd(Y.dense())))
        np.testing.assert_allclose(sparse, dense, rtol=1e-12)


class TestSpectrumDense:
    def test_diagonal(self):
        s = spectrum_dense(make_spd(np.eye(3)), make_spd(np.diag([9.0, 4.0, 1.0])))
        np.testing.assert_allclose(s.eigenvalues, [1.0, 4.0, 9.0])

    def test_self_pencil_all_ones(self, rng):
        X = random_spd(6, rng)
        s = spectrum_dense(X, X)
        np.testing.assert_allclose(s.eigenvalues, np.ones(6), atol=1e-12)

    def test_reciprocal_spectrum(self):
        # X = [[2,1],[1,2]] has eigenvalues {1, 3}; pencil (I, X) has {1/3, 1}
        X = make_spd(np.array([[2.0, 1.0], [1.0, 2.0]]))
        s = spectrum_dense(X, make_spd(np.eye(2)))
        np.testing.assert_allclose(s.eigenvalues, [1.0 / 3.0, 1.0])

    def test_ceiling(self, rng):
        X, Y = spd_pair(rng, 8)
        with pytest.raises(DenseLimitExceeded):
            spectrum_dense(X, Y, dense_ceiling=4)

    def test_congruence_isospectral(self, rng):
        X, Y = spd_pair(rng, 9)
        A = rng.standard_normal((9, 9))
        AX = make_spd(A @ X.dense() @ A.T)
        AY = make_spd(A @ Y.dense() @ A.T)
        s0 = spectrum_dense(X, Y).eigenvalues
        s1 = spectrum_dense(AX, AY).eigenvalues
        np.testing.assert_allclose(s1, s0, rtol=1e-9)


class TestSparseDenseAgreement:
    def test_operations_agree(self, rng):
        from spdcone import random_sparse_spd, thompson_distance, star_geodesic

        Xs = random_sparse_spd(40, 0.1, rng)
        Ys = random_sparse_spd(40, 0.1, rng)
        Xd = make_spd(Xs.dense())
        Yd = make_spd(Ys.dense())
        s_sparse = spectrum_dense(Xs, Ys).eigenvalues
        s_dense = spectrum_dense(Xd, Yd).eigenvalues
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
