"""Extreme generalized eigenvalue solver against the dense oracle."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh

from spdcone import (
    CholeskyFactor,
    EigenOptions,
    SpdMatrix,
    EigenStats,
    extreme_pair,
    random_sparse_spd,
    random_spd,
    spectrum_dense,
)
from spdcone.errors import DimensionMismatch, InvalidOption, NoConvergence

from conftest import sparse_pair, spd_pair


def iter_opts(seed=0, tol=1e-10):
    return EigenOptions(backend="iterative", seed=seed, tol=tol)


class TestLambdaMax:
    def test_diagonal(self):
        Y = SpdMatrix(np.diag([9.0, 4.0, 1.0]))
        X = SpdMatrix(np.eye(3))
        e = extreme_pair(X, Y)
        assert e.beta == pytest.approx(9.0, abs=1e-12)
        assert e.residuals[1] <= 1e-10

    def test_scalar_pencil(self, rng):
        X = random_spd(10, rng)
        Y = X.scaled(3.25)
        for backend in ("dense", "iterative"):
            e = extreme_pair(X, Y, EigenOptions(backend=backend, seed=4))
            assert e.beta == pytest.approx(3.25, rel=1e-10)

    def test_sparse_matches_dense_oracle(self, rng):
        X = random_sparse_spd(200, 0.03, rng)
        Y = random_sparse_spd(200, 0.03, rng)
        e = extreme_pair(X, Y, iter_opts(seed=1))
        oracle = spectrum_dense(X, Y)[-1]
        assert e.backend == "iterative"
        assert e.beta == pytest.approx(oracle, rel=1e-8)

    def test_vector_satisfies_pencil(self, rng):
        X, Y = spd_pair(rng, 30)
        e = extreme_pair(X, Y, iter_opts(seed=2))
        lam, v = e.beta, e.vectors[1]
        r = np.linalg.norm(Y.dense() @ v - lam * (X.dense() @ v))
        assert r <= 1e-9 * np.linalg.norm(Y.dense() @ v)


class TestLambdaMin:
    def test_diagonal(self):
        Y = SpdMatrix(np.diag([9.0, 4.0, 1.0]))
        X = SpdMatrix(np.eye(3))
        e = extreme_pair(X, Y)
        assert e.alpha == pytest.approx(1.0, abs=1e-12)
        assert e.residuals[0] <= 1e-10

    def test_scalar_pencil(self, rng):
        X = random_spd(7, rng)
        e = extreme_pair(X, X.scaled(0.4), iter_opts(seed=3))
        assert e.alpha == pytest.approx(0.4, rel=1e-10)

    def test_sparse_matches_dense_oracle(self, rng):
        X = random_sparse_spd(200, 0.03, rng)
        Y = random_sparse_spd(200, 0.03, rng)
        e = extreme_pair(X, Y, iter_opts(seed=5))
        assert e.alpha == pytest.approx(spectrum_dense(X, Y)[0], rel=1e-8)


class TestExtremePair:
    def test_examples(self, rng):
        X = SpdMatrix(np.eye(3))
        Y = SpdMatrix(np.diag([9.0, 4.0, 1.0]))
        e = extreme_pair(X, Y)
        assert (e.alpha, e.beta) == (pytest.approx(1.0), pytest.approx(9.0))
        Z = random_spd(5, rng)
        e2 = extreme_pair(Z, Z)
        assert e2.alpha == pytest.approx(1.0, abs=1e-12)
        assert e2.beta == pytest.approx(1.0, abs=1e-12)
        # spectrum of [[2,1],[1,2]] is {1,3}; pencil (I, X) inverts it
        W = SpdMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        e3 = extreme_pair(W, SpdMatrix(np.eye(2)))
        assert e3.alpha == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert e3.beta == pytest.approx(1.0, rel=1e-12)

    def test_inversion_duality(self, rng):
        for seed in range(10):
            X, Y = spd_pair(rng, 12, spread=2.0)
            a = extreme_pair(X, Y, iter_opts(seed=seed)).alpha
            b = extreme_pair(Y, X, iter_opts(seed=seed + 100)).beta
            assert a * b == pytest.approx(1.0, abs=1e-9)

    def test_congruence_invariance(self, rng):
        X, Y = spd_pair(rng, 10)
        A = rng.standard_normal((10, 10))
        e0 = extreme_pair(X, Y)
        e1 = extreme_pair(SpdMatrix(A @ X.dense() @ A.T), SpdMatrix(A @ Y.dense() @ A.T))
        assert e1.alpha == pytest.approx(e0.alpha, rel=1e-8)
        assert e1.beta == pytest.approx(e0.beta, rel=1e-8)

    def test_iterative_matches_dense(self, rng):
        for seed in range(25):
            n = int(rng.integers(2, 65))
            X, Y = spd_pair(rng, n, spread=rng.uniform(0.3, 4.0))
            ed = extreme_pair(X, Y, EigenOptions(backend="dense"))
            ei = extreme_pair(X, Y, iter_opts(seed=seed))
            assert ei.alpha == pytest.approx(ed.alpha, rel=1e-8)
            assert ei.beta == pytest.approx(ed.beta, rel=1e-8)

    def test_monotonicity(self, rng):
        # if Y <= c X in the Loewner order then beta <= c
        X, Y = spd_pair(rng, 8)
        c = spectrum_dense(X, Y)[-1] * 1.000001
        assert np.all(np.linalg.eigvalsh(c * X.dense() - Y.dense()) >= -1e-9)
        assert extreme_pair(X, Y).beta <= c + 1e-9

    def test_auto_backend_selection(self, rng):
        Xs = random_sparse_spd(120, 0.02, rng)
        Ys = random_sparse_spd(120, 0.02, rng)
        assert extreme_pair(Xs, Ys, EigenOptions(seed=1)).backend == "iterative"
        Xd, Yd = spd_pair(rng, 16)
        assert extreme_pair(Xd, Yd).backend == "dense"

    def test_clustered_extreme_accepted(self, rng):
        # a nearly multiple top eigenvalue: only the value matters, so the
        # residual test decides and no deflation is attempted
        X = random_spd(12, rng)
        w, V = np.linalg.eigh(X.dense())
        Xh = (V * np.sqrt(w)) @ V.T
        Q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        d = np.ones(12)
        d[:2] = [3.0, 3.0 * (1 + 1e-10)]
        D = (Q * d) @ Q.T
        Y = SpdMatrix(Xh @ D @ Xh)
        e = extreme_pair(X, Y, iter_opts(seed=9))
        assert e.beta == pytest.approx(3.0, rel=1e-8)
        assert max(e.residuals) <= 1e-10

    def test_dense_matches_full_spectrum(self, rng):
        for n in (5, 11, 48, 130):
            X, Y = spd_pair(rng, n)
            w = spectrum_dense(X, Y)
            e = extreme_pair(X, Y, EigenOptions(backend="dense"))
            assert e.beta == pytest.approx(w[-1], rel=1e-13)
            assert e.alpha == pytest.approx(w[0], rel=1e-13)
            # a top eigenvalue of multiplicity n: LAPACK's index subset can
            # come back empty here, and the full decomposition takes over
            s = extreme_pair(X, X.scaled(2.0), EigenOptions(backend="dense"))
            assert (s.alpha, s.beta) == (pytest.approx(2.0), pytest.approx(2.0))

    def test_alpha_le_beta(self, rng):
        for seed in range(5):
            X = random_spd(6, rng)
            e = extreme_pair(X, X.scaled(1.7), iter_opts(seed=seed))
            assert 0 < e.alpha <= e.beta

    def test_determinism(self, rng):
        X = random_sparse_spd(150, 0.03, rng)
        Y = random_sparse_spd(150, 0.03, rng)
        e1 = extreme_pair(X, Y, iter_opts(seed=11))
        e2 = extreme_pair(X, Y, iter_opts(seed=11))
        assert e1 == e2
        # the eigenvectors ride along but take no part in comparison
        assert e1 == dataclasses.replace(e1, vectors=(None, None))

    def test_stats_accumulate(self, rng):
        stats = EigenStats()
        X, Y = spd_pair(rng, 20)
        extreme_pair(X, Y, EigenOptions(backend="iterative", seed=0, stats=stats))
        assert stats.solves == 2 and stats.iterations > 0

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            extreme_pair(random_spd(3, rng), random_spd(5, rng))

    def test_no_convergence_payload(self, rng):
        X, Y = spd_pair(rng, 40, spread=3.0)
        with pytest.raises(NoConvergence) as exc:
            # the beta solve runs first, and it is the one that fails
            extreme_pair(X, Y, EigenOptions(backend="iterative", tol=1e-16, seed=0))
        assert exc.value.best is not None
        lam, v = exc.value.best
        # the best estimate is still an excellent eigenvalue approximation
        assert lam == pytest.approx(spectrum_dense(X, Y)[-1], rel=1e-9)
        assert exc.value.residual > 1e-16


class TestOptionsValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            EigenOptions(tol=0.0)
        for tol in (float("nan"), float("inf")):
            with pytest.raises(InvalidOption):
                EigenOptions(tol=tol)
        with pytest.raises(ValueError):
            EigenOptions(max_iter=0)
        with pytest.raises(ValueError):
            EigenOptions(backend="gpu")
        for max_iter in (float("nan"), 2.5, -3):
            with pytest.raises(InvalidOption, match="max_iter"):
                EigenOptions(max_iter=max_iter)
        for seed in (-1, 1.5, float("nan"), "0"):
            with pytest.raises(InvalidOption, match="seed"):
                EigenOptions(seed=seed)
        for ceiling in (float("nan"), -1, 2.5):
            with pytest.raises(InvalidOption, match="dense_ceiling"):
                EigenOptions(dense_ceiling=ceiling)
        # integers of either kind pass
        EigenOptions(seed=np.int64(7), max_iter=np.int32(10))

    def test_frozen(self):
        # validated once: no later assignment can skip the checks
        opts = EigenOptions()
        for name, value in (("tol", float("nan")), ("dense_ceiling", -5)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(opts, name, value)


class TestConcurrentInvocation:
    def test_shared_inputs_thread_safe(self, rng):
        from concurrent.futures import ThreadPoolExecutor

        from spdcone import thompson_distance

        X = random_sparse_spd(100, 0.05, rng)
        Y = random_sparse_spd(100, 0.05, rng)
        opts = iter_opts(seed=5)
        reference = thompson_distance(X, Y, opts)
        with ThreadPoolExecutor(max_workers=8) as pool:
            values = list(pool.map(lambda _: thompson_distance(X, Y, opts), range(16)))
        assert all(v == reference for v in values)


class TestResidualDefinition:
    def test_residual_reported_below_tol(self, rng):
        X = random_sparse_spd(300, 0.02, rng)
        Y = random_sparse_spd(300, 0.02, rng)
        e = extreme_pair(X, Y, EigenOptions(seed=3, tol=1e-10))
        assert max(e.residuals) <= 1e-10
        assert e.iterations[0] > 0 and e.iterations[1] > 0


def grid_laplacian(m):
    T = sp.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
    I = sp.identity(m)
    return (sp.kron(I, T) + sp.kron(T, I)).tocsr()


def banded_toeplitz(n, coeffs, margin):
    c = np.asarray(coeffs)
    k = np.arange(1, len(c) + 1)
    diagonals = [np.full(n - j, v) for j, v in zip(k, c)]
    c0 = 2.0 * np.abs(c).sum() + margin
    return sp.diags(diagonals * 2 + [np.full(n, c0)], list(-k) + list(k) + [0]).tocoo()


class TestClusteredExtremes:
    def test_grid_pencil_closed_form(self):
        # (L + 0.1 I, L + I) on a 64 x 64 grid: both extremes sit in
        # clusters of Laplacian eigenvalues, 1e-4 apart relative at the
        # low end; a restart that drops the Krylov basis stalls here
        m = 64
        L = grid_laplacian(m)
        I = sp.identity(m * m)
        X, Y = SpdMatrix(L + 0.1 * I), SpdMatrix(L + I)
        e = extreme_pair(X, Y, iter_opts())
        s = 4.0 * np.sin(np.arange(1, m + 1) * np.pi / (2 * (m + 1))) ** 2
        lo, hi = 2 * s[0], 2 * s[-1]
        assert e.beta == pytest.approx((lo + 1.0) / (lo + 0.1), rel=1e-8)
        assert e.alpha == pytest.approx((hi + 1.0) / (hi + 0.1), rel=1e-8)
        assert max(e.residuals) <= 1e-10

    def test_banded_toeplitz_pair(self):
        X = SpdMatrix(banded_toeplitz(1000, [-0.6, 0.25, -0.1, 0.05, -0.02], 0.2))
        Y = SpdMatrix(banded_toeplitz(1000, [0.4, -0.3, 0.2, -0.1, 0.05], 0.5))
        e = extreme_pair(X, Y, iter_opts())
        w = eigh(Y.dense(), X.dense(), eigvals_only=True)
        assert e.alpha == pytest.approx(w[0], rel=1e-8)
        assert e.beta == pytest.approx(w[-1], rel=1e-8)
        assert max(e.residuals) <= 1e-10


class TestWorkAndStarts:
    def test_iterations_count_operator_applies(self, rng, monkeypatch):
        # each apply of q -> X^-1 (Y q) is one solve with X's factorization
        X, Y = sparse_pair(rng, 300, density=0.01)
        applies = []
        original = CholeskyFactor.solve

        def counting(self, b):
            applies.append(1)
            return original(self, b)

        monkeypatch.setattr(CholeskyFactor, "solve", counting)
        e = extreme_pair(X, Y, iter_opts(seed=2))
        assert sum(e.iterations) == len(applies)

    def test_easy_pencil_stops_when_converged(self):
        X = random_sparse_spd(1000, 0.003, np.random.default_rng(1))
        Y = random_sparse_spd(1000, 0.003, np.random.default_rng(2))
        e = extreme_pair(X, Y, iter_opts())
        # the guard's eight applies included
        assert max(e.iterations) <= 48
        assert max(e.residuals) <= 1e-10

    def test_warm_start_from_own_vectors(self, rng):
        X, Y = sparse_pair(rng, 400, density=0.01)
        cold = extreme_pair(X, Y, iter_opts(seed=3))
        warm = extreme_pair(X, Y, iter_opts(seed=3), start=cold.vectors)
        assert warm.alpha == pytest.approx(cold.alpha, rel=1e-10)
        assert warm.beta == pytest.approx(cold.beta, rel=1e-10)
        assert max(warm.residuals) <= 1e-10
        assert max(warm.iterations) < min(cold.iterations)

    def test_start_deficient_in_top_eigenspace(self, rng):
        # the second eigenvector of the pencil is exactly X-orthogonal to
        # the first: a Krylov space grown from it alone never sees beta
        X, Y = sparse_pair(rng, 200, density=0.03)
        w, V = eigh(Y.dense(), X.dense())
        assert w[-1] > w[-2] * (1.0 + 1e-3)
        for lo in (None, V[:, 1]):
            e = extreme_pair(X, Y, iter_opts(seed=4), start=(lo, V[:, -2]))
            assert e.beta == pytest.approx(w[-1], rel=1e-10)
            assert e.alpha == pytest.approx(w[0], rel=1e-10)

    def test_start_of_wrong_shape_rejected(self, rng):
        X, Y = sparse_pair(rng, 50)
        for start in [(None, np.ones(7)), (np.ones((50, 1)), None)]:
            with pytest.raises(DimensionMismatch):
                extreme_pair(X, Y, iter_opts(), start=start)
