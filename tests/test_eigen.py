"""Extreme generalized eigenvalue solver against the dense oracle."""

import dataclasses
import math
import multiprocessing
import sys
import threading
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh, eigh_tridiagonal

from spdcone import (
    CholeskyFactor,
    EigenOptions,
    SpdMatrix,
    EigenStats,
    diamond_geodesic,
    extreme_pair,
    hilbert_distance,
    random_sparse_spd,
    random_spd,
    residual,
    spectrum_dense,
    star_geodesic,
    thompson_distance,
)
import spdcone.core as core
import spdcone.eigen as eigen
from spdcone.core import _factor_in
from spdcone.eigen import _bounded, _top_ritz
from spdcone.errors import DimensionMismatch, InvalidOption, NoConvergence, NotPositiveDefinite

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
        # small pencils go dense whatever their storage, larger sparse ones
        # iterative, and none above the dense ceiling goes dense
        Xs = random_sparse_spd(120, 0.02, rng)
        Ys = random_sparse_spd(120, 0.02, rng)
        assert extreme_pair(Xs, Ys, EigenOptions(seed=1)).backend == "dense"
        assert extreme_pair(Xs, Ys, EigenOptions(dense_ceiling=119)).backend == "iterative"
        n = eigen._SMALL + 1
        Xl = random_sparse_spd(n, 0.02, rng)
        Yl = random_sparse_spd(n, 0.02, rng)
        assert extreme_pair(Xl, Yl, EigenOptions(seed=1)).backend == "iterative"
        Xd, Yd = spd_pair(rng, 16)
        assert extreme_pair(Xd, Yd).backend == "dense"
        assert extreme_pair(Xd, Yd, EigenOptions(dense_ceiling=15)).backend == "iterative"

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

    def test_pencil_above_the_work_count(self, monkeypatch):
        # each caller's pair runs on a worker of its own, and every one
        # gets the serial value
        from concurrent.futures import ThreadPoolExecutor

        from spdcone import thompson_distance

        monkeypatch.setattr(eigen, "_one_cpu", lambda: False)
        X, Y = random_4000_pair()
        assert eigen._apply_work(X, Y) > eigen._CONCURRENT_WORK
        reference = thompson_distance(X, Y)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to expose races
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                values = list(pool.map(lambda _: thompson_distance(X, Y), range(16)))
        finally:
            sys.setswitchinterval(interval)
        assert values == [reference] * 16


def random_4000_pair():
    rng = np.random.default_rng(2)
    return random_sparse_spd(4000, 3.0 / 4000, rng), random_sparse_spd(4000, 3.0 / 4000, rng)


@pytest.fixture
def sides(monkeypatch):
    """Run extreme_pair with both sides at once (threaded=True) or one
    after the other, whatever the work count; threaded alpha solves must
    run on the worker."""
    monkeypatch.setattr(eigen, "_one_cpu", lambda: False)
    threads = []
    smallest = eigen._smallest

    def recording(*args):
        threads.append(threading.current_thread())
        return smallest(*args)

    monkeypatch.setattr(eigen, "_smallest", recording)

    def run(threaded, *args, **kwargs):
        monkeypatch.setattr(eigen, "_CONCURRENT_WORK", -1 if threaded else math.inf)
        del threads[:]
        try:
            return extreme_pair(*args, **kwargs)
        finally:
            assert threads or not threaded
            assert all((t is not threading.current_thread()) == threaded for t in threads)

    return run


def assert_identical(e, f):
    assert (e.alpha, e.beta, e.iterations, e.residuals, e.backend, e.proven) == (
        f.alpha, f.beta, f.iterations, f.residuals, f.backend, f.proven)
    for u, v in zip(e.vectors, f.vectors):
        np.testing.assert_array_equal(u, v)


class TestConcurrentSides:
    def test_random_pair_bit_identical(self, sides):
        X, Y = random_4000_pair()
        assert_identical(sides(True, X, Y), sides(False, X, Y))

    def test_shift_invert_finish_bit_identical(self, sides):
        # the m = 64 grid pencil's slow alpha side is finished by shift-invert
        m = 64
        L, I = grid_laplacian(m), sp.identity(m * m)
        X, Y = SpdMatrix(L + 0.1 * I), SpdMatrix(L + I)
        threaded = sides(True, X, Y, iter_opts())
        assert threaded.proven[0]
        assert_identical(threaded, sides(False, X, Y, iter_opts()))

    @pytest.mark.parametrize("max_iter, swap, failing", [(5, False, "beta"), (40, True, "alpha")])
    def test_serial_error_order(self, sides, max_iter, swap, failing):
        # (X, Y) at 5 applies: both sides fail, and beta's error is raised;
        # (Y, X) at 40: only the alpha side, which needs about 50, fails
        X, Y = random_4000_pair()
        if swap:
            X, Y = Y, X
        opts = EigenOptions(max_iter=max_iter)
        errors = []
        for threaded in (True, False):
            with pytest.raises(NoConvergence) as exc:
                sides(threaded, X, Y, opts)
            errors.append(exc.value)
        # beta is near 6.2 for (X, Y) and 8.3 for (Y, X), alpha near 0.12 and 0.16
        assert (errors[0].best[0] > 1.0) == (failing == "beta")
        assert (errors[0].best[0], errors[0].residual, errors[0].iterations) == (
            errors[1].best[0], errors[1].residual, errors[1].iterations)

    def test_no_thread_outlives_its_pair(self, sides, rng):
        X, Y = sparse_pair(rng, 200, density=0.02)
        before = threading.active_count()
        for seed in range(20):
            sides(True, X, Y, iter_opts(seed=seed))
        assert threading.active_count() == before
        assert not [t for t in threading.enumerate() if t.name.startswith("spdcone-alpha")]

    def test_stats_totals_match_serial(self, sides, rng):
        X, Y = sparse_pair(rng, 300, density=0.01)
        totals = []
        for threaded in (True, False):
            stats = EigenStats()
            for seed in range(3):
                sides(threaded, X, Y, EigenOptions(backend="iterative", seed=seed, stats=stats))
            totals.append((stats.iterations, stats.solves))
        assert totals[0] == totals[1] and totals[0][1] == 6

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork on this platform")
    def test_forked_child_runs_its_own_pair(self, sides, rng):
        # a forked child inherits no thread of the parent; a regression
        # hangs the child, so it is joined with a timeout
        X, Y = sparse_pair(rng, 200, density=0.02)
        reference = sides(True, X, Y, iter_opts())

        def child():
            assert_identical(sides(True, X, Y, iter_opts()), reference)

        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        process.join(60)
        if process.is_alive():
            process.kill()
            process.join()
            pytest.fail("forked child hung on a threaded pair")
        assert process.exitcode == 0


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


def banded(n, bandwidth, rng):
    G = sp.diags([rng.uniform(-1.0, 1.0, n - k) for k in range(1, bandwidth + 1)],
                 [-k for k in range(1, bandwidth + 1)], shape=(n, n))
    G = (G + G.T).tocsr()
    row_weight = np.asarray(abs(G).sum(axis=1)).ravel()
    return SpdMatrix(G + sp.diags(row_weight + rng.uniform(0.5, 1.5, n)))


class TestClusteredExtremes:
    @pytest.mark.parametrize("m", [64, 128])
    def test_grid_pencil_closed_form(self, m):
        # (L + 0.1 I, L + I) on an m x m grid: both extremes sit in
        # clusters of Laplacian eigenvalues, 1e-4 apart relative at the
        # low end at m = 64; a restart that drops the Krylov basis stalls
        # here, and the slow alpha side is finished by shift-invert
        L = grid_laplacian(m)
        I = sp.identity(m * m)
        X, Y = SpdMatrix(L + 0.1 * I), SpdMatrix(L + I)
        e = extreme_pair(X, Y, iter_opts())
        s = 4.0 * np.sin(np.arange(1, m + 1) * np.pi / (2 * (m + 1))) ** 2
        lo, hi = 2 * s[0], 2 * s[-1]
        assert e.beta == pytest.approx((lo + 1.0) / (lo + 0.1), rel=1e-8)
        assert e.alpha == pytest.approx((hi + 1.0) / (hi + 0.1), rel=1e-8)
        assert max(e.residuals) <= 1e-10
        assert e.proven[0]

    def test_grid_pencil_stored_dense(self):
        # a dense factorization is weighed at its flop cost, n / 18 applies,
        # so the dense copy of the m = 32 grid pencil is finished by
        # shift-invert and proven as the sparse one is
        L = grid_laplacian(32)
        I = sp.identity(32 * 32)
        X, Y = SpdMatrix(L + 0.1 * I), SpdMatrix(L + I)
        e = extreme_pair(X, Y, iter_opts())
        d = extreme_pair(SpdMatrix(X.dense()), SpdMatrix(Y.dense()), iter_opts())
        assert d.proven[0] and d.iterations[0] < 200
        assert d.alpha == pytest.approx(e.alpha, rel=1e-12)
        assert d.beta == pytest.approx(e.beta, rel=1e-12)

    def test_finish_factors_in_the_held_order(self, monkeypatch):
        # the shift and the proof of a shift-invert finish factor in the
        # elimination order of the pencil's own factor: once X and Y are
        # certified, no splu of the guarded solve chooses an order
        L = grid_laplacian(32)
        I = sp.identity(32 * 32)
        X, Y = SpdMatrix(L + 0.1 * I), SpdMatrix(L + I)
        specs = []
        original = core.splu

        def counting(*args, **kwargs):
            specs.append(kwargs["permc_spec"])
            return original(*args, **kwargs)

        monkeypatch.setattr(core, "splu", counting)
        e = extreme_pair(X, Y, iter_opts())
        assert e.proven[0] and len(specs) >= 2
        assert set(specs) == {"NATURAL"}

    def test_banded_toeplitz_pair(self):
        X = SpdMatrix(banded_toeplitz(1000, [-0.6, 0.25, -0.1, 0.05, -0.02], 0.2))
        Y = SpdMatrix(banded_toeplitz(1000, [0.4, -0.3, 0.2, -0.1, 0.05], 0.5))
        e = extreme_pair(X, Y, iter_opts())
        w = eigh(Y.dense(), X.dense(), eigvals_only=True)
        assert e.alpha == pytest.approx(w[0], rel=1e-8)
        assert e.beta == pytest.approx(w[-1], rel=1e-8)
        assert max(e.residuals) <= 1e-10
        assert e.proven == (True, True)

    @pytest.mark.parametrize("failing", ["shift", "proof"])
    def test_failed_finish_iterates_on(self, monkeypatch, failing):
        # a shift below lambda_max, or a proof that does not certify,
        # leaves the plain iteration to converge under its guard
        if failing == "shift":
            def fail(M, q=None):
                raise NotPositiveDefinite(pivot_index=1)
            monkeypatch.setattr(eigen, "_factor_in", fail)
        else:
            monkeypatch.setattr(eigen, "_bounded", lambda *args: False)
        X = SpdMatrix(banded_toeplitz(1000, [-0.6, 0.25, -0.1, 0.05, -0.02], 0.2))
        Y = SpdMatrix(banded_toeplitz(1000, [0.4, -0.3, 0.2, -0.1, 0.05], 0.5))
        e = extreme_pair(X, Y, iter_opts())
        w = eigh(Y.dense(), X.dense(), eigvals_only=True)
        assert e.alpha == pytest.approx(w[0], rel=1e-8)
        assert e.beta == pytest.approx(w[-1], rel=1e-8)
        assert e.proven == (False, False)

    def test_failed_shift_waits_to_pay_again(self, monkeypatch):
        # a shift that never certifies: each side tries again only once it
        # has spent the finish's cost again since its last try, cluster or not
        def fail(M, q=None):
            raise NotPositiveDefinite(pivot_index=1)

        tries = {}
        original = eigen._shift_invert

        def spy(Y_, X_, theta, u, opts, rng, applies, prove):
            cost = 2 * 2.0 * X_.chol().nnz / X_.n + eigen._RUN
            tries.setdefault(id(X_), []).append((applies, cost))
            return original(Y_, X_, theta, u, opts, rng, applies, prove)

        monkeypatch.setattr(eigen, "_factor_in", fail)
        monkeypatch.setattr(eigen, "_shift_invert", spy)
        X = SpdMatrix(banded_toeplitz(1000, [-0.6, 0.25, -0.1, 0.05, -0.02], 0.2))
        Y = SpdMatrix(banded_toeplitz(1000, [0.4, -0.3, 0.2, -0.1, 0.05], 0.5))
        e = extreme_pair(X, Y, iter_opts())
        assert e.proven == (False, False) and len(tries) == 2
        for side in tries.values():
            assert len(side) >= 2
            for (before, cost), (after, _) in zip(side, side[1:]):
                assert after - before >= cost

    def test_toeplitz_300_finishes_before_it_has_paid(self, monkeypatch):
        # the benchmark's Toeplitz symbols at n = 300: the three leading
        # Ritz values of the beta side cluster before the plain iteration
        # has spent what a proven finish costs, and the finish starts there
        starts = []
        original = eigen._shift_invert

        def spy(Y_, X_, theta, u, opts, rng, applies, prove):
            starts.append((applies, 2 * 2.0 * X_.chol().nnz / X_.n + eigen._RUN))
            return original(Y_, X_, theta, u, opts, rng, applies, prove)

        monkeypatch.setattr(eigen, "_shift_invert", spy)
        X = SpdMatrix(banded_toeplitz(300, [-0.6, 0.25, -0.1, 0.05, -0.02], 0.2))
        Y = SpdMatrix(banded_toeplitz(300, [0.4, -0.3, 0.2, -0.1, 0.05], 0.5))
        e = extreme_pair(X, Y, iter_opts())
        w = eigh(Y.dense(), X.dense(), eigvals_only=True)
        assert e.alpha == pytest.approx(w[0], rel=1e-8)
        assert e.beta == pytest.approx(w[-1], rel=1e-8)
        assert len(starts) == 1 and starts[0][0] < starts[0][1]
        assert e.proven[1]

    def test_pattern_within(self):
        L = grid_laplacian(8)
        I = sp.identity(64)
        wide, narrow = SpdMatrix(L @ L + 0.1 * I), SpdMatrix(L + I)
        assert eigen._within(narrow, wide) and not eigen._within(wide, narrow)
        assert eigen._within(wide, SpdMatrix(L @ L + I))
        dense = SpdMatrix(wide.dense())
        assert eigen._within(narrow, dense) and not eigen._within(dense, narrow)

    def test_non_dominant_grid_pencil(self, monkeypatch):
        # (L^2 + 0.1 I, L + I) on a 48 x 48 grid: L^2 is not diagonally
        # dominant, and the extremes are those of (mu + 1) / (mu^2 + 0.1)
        # over the Laplacian's eigenvalues mu, beta among interior ones
        m = 48
        L = grid_laplacian(m)
        I = sp.identity(m * m)
        X, Y = SpdMatrix(L @ L + 0.1 * I), SpdMatrix(L + I)
        s = 4.0 * np.sin(np.arange(1, m + 1) * np.pi / (2 * (m + 1))) ** 2
        mu = (s[:, None] + s[None, :]).ravel()
        f = (mu + 1.0) / (mu ** 2 + 0.1)
        starts = []
        original = eigen._shift_invert

        def spy(Y_, X_, theta, u, opts, rng, applies, prove):
            starts.append((X_ is X, applies, 2 * 2.0 * X_.chol().nnz / X_.n + eigen._RUN))
            return original(Y_, X_, theta, u, opts, rng, applies, prove)

        monkeypatch.setattr(eigen, "_shift_invert", spy)
        e = extreme_pair(X, Y, iter_opts())
        monkeypatch.undo()
        assert e.alpha == pytest.approx(f.min(), rel=1e-8)
        assert e.beta == pytest.approx(f.max(), rel=1e-8)
        # the beta side's shift sigma X - (L + I) has X's pattern, so its
        # cost is counted, and the cluster of values near beta switches it
        # long before the plain iteration has paid for the finish
        assert len(starts) == 1 and starts[0][0] and starts[0][1] < 0.5 * starts[0][2]
        assert e.proven[1]
        # the alpha side's shift sigma (L + I) - X has X's wider pattern:
        # it is ordered on that pattern, not in Y's order, and its proof is
        # factored in the shift's order
        specs = []
        splu = core.splu

        def counting(*args, **kwargs):
            specs.append(kwargs["permc_spec"])
            return splu(*args, **kwargs)

        loose = extreme_pair(X, Y, iter_opts(tol=1e-4))
        monkeypatch.setattr(core, "splu", counting)
        done, _ = eigen._shift_invert(X, Y, 1.0 / loose.alpha, loose.vectors[0], iter_opts(),
                                      np.random.default_rng(0), 0, True)
        assert specs == ["MMD_AT_PLUS_A", "NATURAL"]
        assert done is not None and done[4]
        assert 1.0 / done[0] == pytest.approx(f.min(), rel=1e-8)

    def test_bound_fails_below_lambda_max(self, rng):
        # the inertia proof of a shift-invert finish, in X's order
        X, Y = sparse_pair(rng, 200, density=0.03)
        lam = spectrum_dense(X, Y)[-1]
        factor = partial(_factor_in, q=X.chol().perm)
        assert _bounded(factor, lam, Y.raw(), X.raw(), 1e-10)
        assert not _bounded(factor, lam * (1.0 - 1e-6), Y.raw(), X.raw(), 1e-10)
        # the swapped pencil bounds lambda_min from below
        low = spectrum_dense(X, Y)[0]
        assert _bounded(factor, 1.0 / low, X.raw(), Y.raw(), 1e-10)
        assert not _bounded(factor, (1.0 - 1e-6) / low, X.raw(), Y.raw(), 1e-10)

    def test_fast_pencils_keep_the_plain_iteration(self, monkeypatch):
        # a random and a banded pair whose solves pass a thick restart but
        # converge soon after: the finish never starts, so these stay
        # bit for bit what the plain iteration returns, and within 8 ulps
        # of what it returned with two full orthogonalization passes a step
        def no_finish(*args):
            raise AssertionError("shift-invert finish started")

        def pinned(e, alpha, beta, two_pass):
            assert (e.alpha.hex(), e.beta.hex()) == (alpha, beta)
            for value, old in zip((e.alpha, e.beta), two_pass):
                assert abs(value - float.fromhex(old)) <= 8 * math.ulp(value)

        monkeypatch.setattr(eigen, "_shift_invert", no_finish)
        X, Y = random_4000_pair()
        e = extreme_pair(X, Y)
        pinned(e, "0x1.ed2b4786a2c92p-4", "0x1.8f43892001693p+2",
               ("0x1.ed2b4786a2c96p-4", "0x1.8f43892001694p+2"))
        assert e.iterations == (32, 49) and e.proven == (False, False)
        rng = np.random.default_rng(3)
        X, Y = banded(8000, 5, rng), banded(8000, 5, rng)
        e = extreme_pair(X, Y)
        pinned(e, "0x1.2f4000f2dbed1p-2", "0x1.b931829c0ee28p+1",
               ("0x1.2f4000f2dbecdp-2", "0x1.b931829c0ee2cp+1"))
        assert e.iterations == (69, 70) and e.proven == (False, False)

    def test_restarts_keep_the_basis_orthonormal(self, monkeypatch):
        # the three-term step and one full pass keep Q X Q^T = I to rounding
        # through every thick restart of a slow plain iteration: the grid
        # pencil's swapped side in Y's inner product, the Toeplitz pair's
        # beta side in X's, with the shift-invert finish turned off
        restart = eigen._thick_restart
        checks = []

        def spy(Q, d, e, m, keep):
            G = Q[:m] @ inner.matvec(Q[:m].T)
            checks.append(np.abs(G - np.eye(m)).max())
            assert checks[-1] <= 1e-13
            return restart(Q, d, e, m, keep)

        monkeypatch.setattr(eigen, "_thick_restart", spy)
        monkeypatch.setattr(eigen, "_shift_invert", lambda *a: (None, a[6]))
        L = grid_laplacian(32)
        I = sp.identity(32 * 32)
        X, Y = SpdMatrix(L + 0.1 * I), SpdMatrix(L + I)
        inner = Y
        eigen._largest(X, Y, iter_opts(), 0, None, True)
        grid_restarts = len(checks)
        X = SpdMatrix(banded_toeplitz(1000, [-0.6, 0.25, -0.1, 0.05, -0.02], 0.2))
        Y = SpdMatrix(banded_toeplitz(1000, [0.4, -0.3, 0.2, -0.1, 0.05], 0.5))
        inner = X
        eigen._largest(Y, X, iter_opts(), 0, None, True)
        assert grid_restarts >= 10 and len(checks) - grid_restarts >= 10


DENSE = EigenOptions(backend="dense")


def wide_pencil(rng, n, spread):
    """(X, Y) whose pencil has eigenvalues geometrically from 1 to ``spread``."""
    X = random_spd(n, rng)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Lx = np.linalg.cholesky(X.dense())
    Y = Lx @ (Q * np.geomspace(1.0, spread, n)) @ Q.T @ Lx.T
    return X, SpdMatrix((Y + Y.T) / 2.0)


@pytest.fixture
def lapack_calls(monkeypatch):
    """counted(*args) runs extreme_pair(*args) and returns its result with
    the counts of dense factorizations and tridiagonalizations it made."""
    counts = {"potrf": 0, "sytrd": 0}

    def counting(name, owner, attr):
        original = getattr(owner, attr)

        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, call)

    # a dense matrix's certifying factor, or a sparse-stored one's dense copy's
    counting("potrf", core, "_factor_dense")
    counting("sytrd", eigen, "_sytrd")

    def counted(*args):
        counts.update(potrf=0, sytrd=0)
        return extreme_pair(*args), dict(counts)

    return counted


class TestDenseReduction:
    @pytest.mark.parametrize("n", [1, 2, 3, 48, 256])
    def test_ends_of_the_full_spectrum(self, n):
        X, Y = spd_pair(np.random.default_rng(n), n)
        w = spectrum_dense(X, Y)
        e = extreme_pair(X, Y, DENSE)
        assert (e.alpha, e.beta) == (pytest.approx(w[0], rel=1e-13),
                                     pytest.approx(w[-1], rel=1e-13))
        assert e.iterations == (0, 0) and e.proven == (True, True)
        assert max(e.residuals) <= 1e-13
        for v in e.vectors:
            assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-15)

    def test_scalar_pencils(self):
        # the reduction's rounding leaves C = c I with ulp-sized noise, and
        # both ends come back c to that rounding, alpha <= beta
        rng = np.random.default_rng(8)
        for n in range(1, 9):
            for c in (0.4, 1.0, 3.25):
                e = extreme_pair(X := random_spd(n, rng), X.scaled(c), DENSE)
                assert e.alpha <= e.beta
                assert (e.alpha, e.beta) == (pytest.approx(c, rel=1e-14),
                                             pytest.approx(c, rel=1e-14))

    def test_bisection_miss_takes_the_full_decomposition(self):
        # a tridiagonal within a few ulps of I whose top LAPACK's bisection
        # misses; with X = I the reduction keeps it as it stands
        eps = np.finfo(float).eps
        d = 1.0 + eps * np.array([-2.0, 2.0, 2.0, 2.0, -2.0, -2.0])
        off = eps * np.array([1.0, -1.0, 2.0, 0.0, 1.0])
        assert eigen._tridiagonal_eig(d, off, 6) is None
        X, Y = SpdMatrix(np.eye(6)), SpdMatrix(np.diag(d) + np.diag(off, 1) + np.diag(off, -1))
        e = extreme_pair(X, Y, DENSE)
        w = spectrum_dense(X, Y)
        assert (e.alpha, e.beta) == (pytest.approx(w[0], rel=1e-15),
                                     pytest.approx(w[-1], rel=1e-15))
        assert max(e.residuals) <= 1e-15

    def test_wide_pencil_takes_the_swapped_reduction(self, lapack_calls):
        # at spread 1e8 the stored Y fixes alpha only to about 1e-8: the
        # reference is the swapped pencil's own dense top
        X, Y = wide_pencil(np.random.default_rng(1), 20, 1e8)
        e, calls = lapack_calls(X, Y, DENSE)
        assert calls == {"potrf": 0, "sytrd": 2}
        assert e.alpha == pytest.approx(1.0 / eigh(X.dense(), Y.dense(), eigvals_only=True)[-1],
                                        rel=1e-13)
        assert e.beta == pytest.approx(eigh(Y.dense(), X.dense(), eigvals_only=True)[-1],
                                       rel=1e-13)
        assert e.residuals[1] <= 1e-13 and e.proven == (True, True)

    def test_spread_bound(self, lapack_calls):
        # at spread 30 the alpha of the shared reduction stands; at 34 the
        # swapped pencil is reduced too
        for spread, reductions in ((30.0, 1), (34.0, 2)):
            X, Y = wide_pencil(np.random.default_rng(2), 12, spread)
            e, calls = lapack_calls(X, Y, DENSE)
            assert e.alpha == pytest.approx(spectrum_dense(X, Y)[0], rel=1e-13)
            assert calls == {"potrf": 0, "sytrd": reductions}

    def test_one_reduction_with_the_held_factor(self, lapack_calls):
        # two certified dense matrices: no factorization, one tridiagonalization
        X, Y = spd_pair(np.random.default_rng(3), 48, spread=0.5)
        stats = EigenStats()
        _, calls = lapack_calls(X, Y, EigenOptions(backend="dense", stats=stats))
        assert calls == {"potrf": 0, "sytrd": 1}
        assert (stats.solves, stats.iterations) == (2, 0)
        # a sparse-stored X holds SuperLU's factor: its dense copy takes one potrf
        Xs, Ys = sparse_pair(np.random.default_rng(4), 60, density=0.3)
        e, calls = lapack_calls(Xs, Ys, DENSE)
        assert calls == {"potrf": 1, "sytrd": 1}
        assert e.alpha == pytest.approx(spectrum_dense(Xs, Ys)[0], rel=1e-13)


@pytest.fixture
def vector_work(monkeypatch):
    """Counts of the dense backend's calls that only vectors and residuals
    need (inverse iteration, back-transformation, triangular solve, pencil
    residuals) and of its full decompositions, reset by each call of
    ``values_only(X, Y, opts)``, which checks that a values-only call
    returns the default call's alpha and beta to the bit and returns both
    results."""
    counts = dict.fromkeys(("_stein", "_ormqr", "_trtrs", "pencil_residual", "eigh"), 0)
    for attr in counts:
        def call(*args, _attr=attr, _original=getattr(eigen, attr), **kwargs):
            counts[_attr] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(eigen, attr, call)

    def values_only(X, Y, opts):
        full = extreme_pair(X, Y, opts)
        assert counts["pencil_residual"] == 2 and counts["_trtrs"] >= 1  # the spies see
        counts.update(dict.fromkeys(counts, 0))
        lean = extreme_pair(X, Y, opts, _vectors=False)
        assert (lean.alpha.hex(), lean.beta.hex()) == (full.alpha.hex(), full.beta.hex())
        return full, lean

    return values_only, counts


class TestValuesOnly:
    def check_dense(self, full, lean, counts, full_decompositions=0):
        assert lean.vectors == (None, None) and all(map(math.isnan, lean.residuals))
        assert (lean.backend, lean.iterations, lean.proven) == ("dense", (0, 0), (True, True))
        assert all(v is not None for v in full.vectors)
        assert counts == {"_stein": 0, "_ormqr": 0, "_trtrs": 0, "pencil_residual": 0,
                          "eigh": full_decompositions}

    @pytest.mark.parametrize("n", [1, 2, 48, 256])
    def test_dense_values_of_the_default_call(self, n, vector_work):
        values_only, counts = vector_work
        X, Y = spd_pair(np.random.default_rng(n), n)
        self.check_dense(*values_only(X, Y, DENSE), counts)

    def test_swapped_reduction(self, vector_work):
        values_only, counts = vector_work
        X, Y = wide_pencil(np.random.default_rng(1), 20, 1e8)
        full, lean = values_only(X, Y, DENSE)
        assert lean.beta > eigen._SPREAD * lean.alpha
        self.check_dense(full, lean, counts)

    def test_bisection_miss_keeps_the_full_decomposition(self, vector_work):
        # the scalar pencil of TestDenseReduction whose top bisection misses
        values_only, counts = vector_work
        eps = np.finfo(float).eps
        d = 1.0 + eps * np.array([-2.0, 2.0, 2.0, 2.0, -2.0, -2.0])
        off = eps * np.array([1.0, -1.0, 2.0, 0.0, 1.0])
        assert eigen._tridiagonal_eig(d, off, 6, False) is None
        X, Y = SpdMatrix(np.eye(6)), SpdMatrix(np.diag(d) + np.diag(off, 1) + np.diag(off, -1))
        self.check_dense(*values_only(X, Y, DENSE), counts, full_decompositions=1)

    def test_sparse_stored_pair_on_the_dense_backend(self, vector_work):
        values_only, counts = vector_work
        X, Y = sparse_pair(np.random.default_rng(4), 60, density=0.3)
        self.check_dense(*values_only(X, Y, DENSE), counts)

    @pytest.mark.parametrize("pencil", ["narrow", "wide"])
    def test_vectors_without_residuals(self, pencil, vector_work):
        # the inductive mean's call: the default call's values and vectors
        _, counts = vector_work
        rng = np.random.default_rng(2)
        X, Y = spd_pair(rng, 48) if pencil == "narrow" else wide_pencil(rng, 20, 1e8)
        full = extreme_pair(X, Y, DENSE)
        counts.update(dict.fromkeys(counts, 0))
        bare = extreme_pair(X, Y, DENSE, _residuals=False)
        assert counts["pencil_residual"] == 0 and all(map(math.isnan, bare.residuals))
        assert (bare.alpha, bare.beta, bare.proven) == (full.alpha, full.beta, (True, True))
        assert all(np.array_equal(a, b) for a, b in zip(bare.vectors, full.vectors))

    @pytest.mark.parametrize("call", [
        thompson_distance, hilbert_distance, partial(star_geodesic, t=0.5),
        partial(diamond_geodesic, t=0.5), lambda X, Y: residual([Y], X),
    ], ids=["thompson", "hilbert", "star", "diamond", "mean residual"])
    def test_callers_of_the_values_ask_for_no_vectors(self, call, vector_work):
        _, counts = vector_work
        X, Y = spd_pair(np.random.default_rng(5), 48)
        call(X, Y)
        assert counts == dict.fromkeys(counts, 0)

    def test_iterative_backend_ignores_it(self, rng):
        X, Y = sparse_pair(rng, 300, density=0.01)
        full = extreme_pair(X, Y, iter_opts(seed=6))
        lean = extreme_pair(X, Y, iter_opts(seed=6), _vectors=False)
        assert lean == full and lean.backend == "iterative"
        assert all(np.array_equal(a, b) for a, b in zip(lean.vectors, full.vectors))


class TestRitz:
    def test_top_ritz_matches_eigh_tridiagonal(self, rng):
        for _ in range(5):
            d, e = rng.standard_normal(40), rng.standard_normal(39)
            for j in range(1, 41):
                theta, s = _top_ritz(d[:j], e[: j - 1])
                w, S = eigh_tridiagonal(d[:j], e[: j - 1], select="i",
                                        select_range=(j - 1, j - 1))
                assert theta == w[0] and np.array_equal(s, S[:, 0])


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

    def test_guard_off_returns_the_candidate(self, rng):
        # the private guard-off path returns the pair the guard would have
        # checked, without its eight applies; public calls always guard
        X, Y = sparse_pair(rng, 300, density=0.01)
        guarded = extreme_pair(X, Y, iter_opts(seed=5))
        bare = extreme_pair(X, Y, iter_opts(seed=5), _guard=False)
        assert (bare.alpha, bare.beta, bare.residuals) == (
            guarded.alpha, guarded.beta, guarded.residuals)
        assert bare.iterations == tuple(i - 8 for i in guarded.iterations)

    def test_start_of_wrong_shape_rejected(self, rng):
        X, Y = sparse_pair(rng, 50)
        for start in [(None, np.ones(7)), (np.ones((50, 1)), None)]:
            with pytest.raises(DimensionMismatch):
                extreme_pair(X, Y, iter_opts(), start=start)
