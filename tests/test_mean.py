"""Inductive Thompson mean: steps, residual certificate, the F iteration."""

import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from spdcone import (
    EigenOptions,
    EigenStats,
    MeanOptions,
    MeanProblem,
    SpdMatrix,
    combine,
    contraction_factor,
    extreme_pair,
    hilbert_distance,
    inductive_mean,
    inductive_step,
    random_sparse_spd,
    random_spd,
    residual,
    star_geodesic,
    thompson_distance,
)
import spdcone.core
import spdcone.eigen
import spdcone.mean
from spdcone.core import _reduce
from spdcone.errors import (
    DimensionMismatch,
    FixedPointStalled,
    InvalidOption,
    NonPositiveR,
    NotPositiveDefinite,
    NumericalBreakdown,
    SpdConeError,
)
from spdcone.geodesics import BRANCH_TOL, coefficient_derivatives
from spdcone.mean import _fixed_point, _jacobian, _m_partials, _Stack, _trusted

from conftest import factor_error, spd_pair


def points(rng, k, n, spread=1.5):
    return [random_spd(n, rng, spread) for _ in range(k)]


# the iterative mean, for tests whose subject is its loose rounds, brackets
# or warm starts: auto solves small sparse families like these dense
ITERATIVE = MeanOptions(eigen=EigenOptions(backend="iterative"))


def random_family(seed, k=5, n=100):
    rng = np.random.default_rng(seed)
    return [random_sparse_spd(n, 0.03, rng) for _ in range(k)]


def banded_spd(n, bandwidth, rng):
    """Random symmetric banded matrix, strictly diagonally dominant."""
    offsets = range(1, bandwidth + 1)
    G = sp.diags([rng.uniform(-1.0, 1.0, n - d) for d in offsets], [-d for d in offsets],
                 shape=(n, n))
    G = (G + G.T).tocsr()
    margin = np.asarray(abs(G).sum(axis=1)).ravel() + rng.uniform(0.5, 1.5, n)
    return SpdMatrix(G + sp.diags(margin))


def toeplitz_family(seed, k=5, n=300):
    """k banded Toeplitz points on the two symbols of a pencil with
    clustered extremes, each coefficient jittered by at most 2%."""
    rng = np.random.default_rng(seed)
    symbols = (([-0.6, 0.25, -0.1, 0.05, -0.02], 0.2), ([0.4, -0.3, 0.2, -0.1, 0.05], 0.5))
    pts = []
    for j in range(k):
        coeffs, margin = symbols[j % 2]
        c = np.array(coeffs) * (1.0 + 0.02 * rng.uniform(-1.0, 1.0, len(coeffs)))
        d = np.arange(1, len(c) + 1)
        pts.append(SpdMatrix(sp.diags([np.full(n - i, v) for i, v in zip(d, c)] * 2
                                      + [np.full(n, 2.0 * np.abs(c).sum() + margin)],
                                      list(-d) + list(d) + [0])))
    return pts


def grid_laplacian(m):
    T = sp.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
    I = sp.identity(m)
    return (sp.kron(I, T) + sp.kron(T, I)).tocsr()


def lower_union(pts):
    """Boolean CSR of the union of the points' lower patterns."""
    n = pts[0].n
    U = sp.csr_matrix((n, n), dtype=bool)
    for p in pts:
        r, c = p.lower_pattern()
        U = U + sp.csr_matrix((np.ones(len(r), dtype=bool), (r, c)), shape=(n, n))
    return U


def inside(M, U):
    r, c = M.lower_pattern()
    return bool(np.all(np.asarray(U[r, c]).ravel()))


def spy_solves(monkeypatch):
    """List that gains (X, Y, tol, guard, cold) per pencil solve of the
    mean, cold when neither side has a start."""
    seen = []
    solve = spdcone.mean.extreme_pair

    def spy(X, Y, opts, start, **kwargs):
        cold = all(s is None for s in start)
        seen.append((X, Y, opts.tol, kwargs.get("_guard", True), cold))
        return solve(X, Y, opts, start, **kwargs)

    monkeypatch.setattr(spdcone.mean, "extreme_pair", spy)
    return seen


class TestInductiveStep:
    def test_fixed_point_of_equal(self, rng):
        X = random_spd(5, rng)
        np.testing.assert_allclose(inductive_step(X, X, 3).dense(), X.dense(), rtol=1e-12)

    def test_first_step_is_midpoint(self):
        X = SpdMatrix(np.eye(3))
        Y = SpdMatrix(np.diag([9.0, 4.0, 1.0]))
        np.testing.assert_allclose(
            np.diag(inductive_step(X, Y, 1).dense()), [3.0, 7.0 / 4.0, 1.0], rtol=1e-14
        )

    def test_scalar_scaling_identity(self, rng):
        # scaling the input scales the step by c^(i/(i+1))
        X, Y = spd_pair(rng, 6)
        c = 3.0
        for i in (1, 2, 7):
            lhs = inductive_step(X.scaled(c), Y, i).dense()
            rhs = c ** (i / (i + 1.0)) * inductive_step(X, Y, i).dense()
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9)

    def test_rejects_bad_index(self, rng):
        X, Y = spd_pair(rng, 3)
        with pytest.raises(ValueError) as exc:
            inductive_step(X, Y, 0)
        assert isinstance(exc.value, SpdConeError)


class TestResidual:
    def test_single_point_at_itself(self, rng):
        Y = random_spd(4, rng)
        _, rn = residual([Y], Y)
        assert rn <= 1e-12

    def test_two_point_mean_is_root(self, rng):
        Y1, Y2 = spd_pair(rng, 7)
        M = star_geodesic(Y1, Y2, 0.5)
        _, rn = residual([Y1, Y2], M)
        assert rn <= 1e-8

    def test_far_point_rejected(self, rng):
        Y1, Y2 = spd_pair(rng, 5)
        _, rn = residual([Y1, Y2], Y1.scaled(100.0))
        assert rn > 0.01

    def test_sparse_residual_stays_sparse(self, rng):
        pts = [random_sparse_spd(40, 0.08, rng) for _ in range(3)]
        E, rn = residual(pts, pts[0])
        assert sp.issparse(E)


class TestFixedPointInit:
    # F from its own start, the arithmetic mean; inductive_mean never
    # runs it on a single point
    def test_single_point(self, rng):
        Y = random_spd(5, rng)
        X = _fixed_point([Y], None, EigenOptions())[0]
        np.testing.assert_allclose(X.dense(), Y.dense(), rtol=1e-10)

    def test_all_equal(self, rng):
        Y = random_spd(6, rng)
        X = _fixed_point([Y, Y, Y], None, EigenOptions())[0]
        np.testing.assert_allclose(X.dense(), Y.dense(), rtol=1e-10)

    def test_pair_residual(self, rng):
        Y1, Y2 = spd_pair(rng, 8)
        X = _fixed_point([Y1, Y2], None, EigenOptions())[0]
        _, rn = residual([Y1, Y2], X)
        assert rn <= 1e-6


class TestInductiveMean:
    def test_single_point(self, rng, monkeypatch):
        # the pencil (Y, Y) has alpha = beta = 1, so m = 1, o = -1 and E(Y) = 0
        Y = random_spd(4, rng)
        seen = spy_solves(monkeypatch)
        res = inductive_mean(MeanProblem([Y]))
        assert res.mean is Y and res.certified
        assert res.residual_norm == 0.0 and res.rounds == 0 and seen == []

    def test_single_point_is_certified_first(self, rng):
        # alpha = beta = 1 holds only for a Y that certifies, so an
        # uncertified point that does not raises instead of a zero residual
        with pytest.raises(NotPositiveDefinite):
            inductive_mean(MeanProblem([SpdMatrix._canonical(np.diag([1.0, -2.0]))]))
        with pytest.raises(NumericalBreakdown):
            inductive_mean(MeanProblem([random_spd(5, rng).scaled(1e-310)]))
        # SuperLU reports the underflowed pivot of a sparse point as singular
        with pytest.raises((NumericalBreakdown, NotPositiveDefinite)):
            inductive_mean(MeanProblem([random_sparse_spd(30, 0.1, rng).scaled(1e-310)]))
        Y = random_spd(4, rng).scaled(2.0)
        assert inductive_mean(MeanProblem([Y])).mean is Y and Y.certified

    @pytest.mark.parametrize("k", [1, 2])
    def test_init_of_another_dimension_rejected(self, rng, k):
        with pytest.raises(DimensionMismatch):
            inductive_mean(MeanProblem(points(rng, k, 50), init=random_spd(6, rng)))

    def test_two_points_closed_form(self, rng):
        Y1, Y2 = spd_pair(rng, 9)
        res = inductive_mean(MeanProblem([Y1, Y2]))
        assert res.certified
        assert thompson_distance(res.mean, star_geodesic(Y1, Y2, 0.5)) <= 1e-8

    def test_weighted_repetition(self, rng):
        Y1, Y2 = spd_pair(rng, 6)
        res = inductive_mean(MeanProblem([Y1, Y1, Y2]))
        assert thompson_distance(res.mean, star_geodesic(Y1, Y2, 1.0 / 3.0)) <= 1e-8

    def test_initialization_independence(self, rng):
        pts = points(rng, 3, 8)
        inits = [None, pts[0], SpdMatrix(3.0 * np.eye(8))]
        results = [inductive_mean(MeanProblem(pts, init=i)) for i in inits]
        for a in results:
            for b in results:
                assert thompson_distance(a.mean, b.mean) <= 1e-9

    def test_permutation_invariance(self, rng):
        pts = points(rng, 4, 6)
        r1 = inductive_mean(MeanProblem(pts))
        r2 = inductive_mean(MeanProblem([pts[2], pts[0], pts[3], pts[1]]))
        assert thompson_distance(r1.mean, r2.mean) <= 1e-9

    def test_affine_equivariance(self, rng):
        pts = points(rng, 3, 5)
        A = rng.standard_normal((5, 5))
        mapped = [SpdMatrix(A @ p.dense() @ A.T) for p in pts]
        lhs = inductive_mean(MeanProblem(mapped)).mean.dense()
        M = inductive_mean(MeanProblem(pts)).mean.dense()
        rhs = A @ M @ A.T
        assert np.linalg.norm(lhs - rhs) <= 1e-7 * np.linalg.norm(rhs)

    def test_joint_homogeneity(self, rng):
        pts = points(rng, 3, 5)
        cs = [0.5, 2.0, 8.0]
        lhs = inductive_mean(MeanProblem([p.scaled(c) for p, c in zip(pts, cs)])).mean.dense()
        rhs = float(np.prod(cs)) ** (1.0 / 3.0) * inductive_mean(MeanProblem(pts)).mean.dense()
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)

    def test_continuity_probe(self, rng):
        pts = points(rng, 3, 6)
        base = inductive_mean(MeanProblem(pts)).mean
        perturbed = []
        for p in pts:
            S = rng.standard_normal((6, 6))
            S = (S + S.T) / (2.0 * np.linalg.norm(S))
            perturbed.append(SpdMatrix(p.dense() + 1e-6 * np.linalg.norm(p.dense()) * S))
        moved = inductive_mean(MeanProblem(perturbed)).mean
        assert thompson_distance(base, moved) <= 1e-3

    def test_recurrence_agrees(self, rng):
        # F's root is the limit of the defining recurrence: 50 cycles of
        # harmonic steps from the arithmetic mean come close, at the 1/p
        # rate, on non-diagonal inputs
        pts = points(rng, 3, 7)
        res = inductive_mean(MeanProblem(pts))
        assert res.rounds > 0 and res.cycles_used == 0
        assert 0.0 <= res.final_displacement < math.inf
        X = combine([(1.0 / len(pts), p) for p in pts])
        assert thompson_distance(res.mean, X) > 0.1
        i = 1
        for _ in range(50):
            for Yj in pts:
                X = inductive_step(X, Yj, i)
                i += 1
        assert thompson_distance(res.mean, X) <= 0.1
        assert residual(pts, X)[1] < 0.1

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError) as exc:
            inductive_mean(MeanProblem([]))
        assert isinstance(exc.value, SpdConeError)

    def test_certificate_soundness(self, rng):
        pts = points(rng, 4, 6)
        opts = MeanOptions(eigen=EigenOptions(tol=1e-10))
        res = inductive_mean(MeanProblem(pts, opts=opts))
        assert res.certified
        _, rn_tight = residual(pts, res.mean, EigenOptions(tol=5e-11))
        assert rn_tight <= 2.0 * opts.residual_tol

    def test_certificate_from_homogeneity(self, rng):
        # the reported residual reuses the radial correction's solves at X
        # for c X; fresh solves at the returned mean must agree
        pts = [random_sparse_spd(150, 0.03, rng) for _ in range(4)]
        res = inductive_mean(MeanProblem(pts))
        _, fresh = residual(pts, res.mean)
        assert res.certified and fresh <= MeanOptions().residual_tol
        assert res.residual_norm == pytest.approx(fresh, abs=1e-10)

    def test_structure_preservation_toeplitz(self, rng):
        def toeplitz_spd(n):
            c = np.zeros(n)
            c[0] = n
            c[1:] = rng.uniform(-0.8, 0.8, n - 1)
            from scipy.linalg import toeplitz

            return SpdMatrix(toeplitz(c))

        pts = [toeplitz_spd(8) for _ in range(3)]
        M = inductive_mean(MeanProblem(pts)).mean.dense()
        for off in range(1, 8):
            diag = np.diagonal(M, offset=off)
            assert np.max(np.abs(diag - diag[0])) <= 1e-9

    def test_sparsity_preservation(self, rng):
        pts = [random_sparse_spd(60, 0.05, rng) for _ in range(3)]
        res = inductive_mean(MeanProblem(pts))
        assert res.mean.is_sparse
        union = ((pts[0].raw() != 0) + (pts[1].raw() != 0) + (pts[2].raw() != 0)).astype(bool)
        assert (res.mean.raw().astype(bool) > union).nnz == 0

    def test_monotone_contraction_diagnostics(self, rng):
        # two runs of the recurrence contract toward each other at least
        # as fast as the product of per-step Hilbert factors predicts
        pts = points(rng, 3, 5, spread=1.0)
        X = SpdMatrix(np.eye(5))
        Xp = pts[0]
        i = 1
        for cycle in range(6):
            dh_before = hilbert_distance(X, Xp)
            factor = 1.0
            for j in range(3):
                R = max(hilbert_distance(pts[j], X), hilbert_distance(pts[j], Xp))
                t = 1.0 / (i + 1.0)
                factor *= contraction_factor(max(R, 1e-9), t)
                X = inductive_step(X, pts[j], i)
                Xp = inductive_step(Xp, pts[j], i)
                i += 1
            dh_after = hilbert_distance(X, Xp)
            assert dh_after <= factor * dh_before + 1e-6


class TestMeanOptions:
    @pytest.mark.parametrize("value", [0.0, -1e-8, math.nan, math.inf])
    def test_residual_tol_positive_finite(self, value):
        with pytest.raises(InvalidOption):
            MeanOptions(residual_tol=value)

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            MeanOptions().residual_tol = 1.0

    def test_certificate_no_finer_than_solves(self, rng):
        # a residual from solves at eigen.tol cannot vouch for less
        with pytest.raises(InvalidOption):
            MeanOptions(eigen=EigenOptions(tol=1e-6))
        pts = [random_spd(8, rng) for _ in range(3)]
        loose = MeanOptions(residual_tol=1e-6, eigen=EigenOptions(tol=1e-6))
        res = inductive_mean(MeanProblem(pts, opts=loose))
        assert res.certified and res.residual_norm <= 1e-6
        assert res.rounds <= 10


class TestFixedPointRounds:
    @pytest.mark.parametrize("family, max_rounds", [("random sparse", 9), ("dense", 7)])
    def test_rounds_solve_only_input_pencils(self, family, max_rounds, monkeypatch):
        # the certificate at c X comes from the round's own k solves, so
        # no other pencil is ever solved; Newton steps keep rounds few
        if family == "dense":
            rng = np.random.default_rng(0)
            pts = [random_spd(48, rng) for _ in range(3)]
        else:
            pts = random_family(0)
        seen = spy_solves(monkeypatch)
        res = inductive_mean(MeanProblem(pts))
        assert res.certified and res.cycles_used == 0
        if family == "dense":
            assert all(any(Y is p for p in pts) for _, Y, *_ in seen)
        else:
            # a small sparse family is solved dense: each point as one
            # dense-stored view of its values, the same in every round
            for j, p in enumerate(pts):
                Y, = {id(Y): Y for _, Y, *_ in seen[j::len(pts)]}.values()
                assert not Y.is_sparse and np.array_equal(Y.raw(), p.dense())
        assert len(seen) == len(pts) * res.rounds
        assert res.rounds <= max_rounds

    def test_loose_rounds_halve_the_applies(self):
        # the family above took 1,847 applies in 8 rounds when every round
        # solved at eigen.tol with the guard, and 634 when the certifying
        # round still swept its warm solves with the guard
        stats = EigenStats()
        opts = MeanOptions(eigen=EigenOptions(backend="iterative", stats=stats))
        res = inductive_mean(MeanProblem(random_family(0), opts=opts))
        assert res.certified and stats.solves == 2 * 5 * res.rounds
        assert stats.iterations <= 600

    def test_clustered_family_finishes_early(self):
        # n = 300 Toeplitz pencils with clustered extremes: a finish weighed
        # at every Ritz check, its loose rounds counted at one
        # factorization, certifies in no more rounds than a finish weighed
        # at thick restarts only, charged for two factorizations and a
        # 40-vector basis, which took 6 rounds and 2,677 applies here
        stats = EigenStats()
        opts = MeanOptions(eigen=EigenOptions(stats=stats))
        res = inductive_mean(MeanProblem(toeplitz_family(1), opts=opts))
        assert res.certified and res.rounds <= 6
        assert stats.iterations <= 0.6 * 2677

    def test_non_dominant_grid_family(self, monkeypatch):
        # {L^2 + 0.1 I, L + I, L + 2 I} on a 16 x 16 grid (n = 256): the
        # iterative backend certifies the mean, as close to the dense
        # backend's as the certificate allows
        m = 16
        L = grid_laplacian(m)
        I = sp.identity(m * m)
        pts = [SpdMatrix(L @ L + 0.1 * I), SpdMatrix(L + I), SpdMatrix(L + 2.0 * I)]
        stats = EigenStats()
        res = inductive_mean(MeanProblem(pts, opts=MeanOptions(eigen=EigenOptions(stats=stats))))
        assert res.certified and stats.iterations > 0
        dense = MeanOptions(eigen=EigenOptions(backend="dense"))
        ref = inductive_mean(MeanProblem(pts, opts=dense))
        assert ref.certified and thompson_distance(res.mean, ref.mean) <= 1e-7
        # an alpha side finish against the mean, sigma (L + I) - M, has the
        # mean's pattern, the union, wider than L + I's: it is ordered on
        # that pattern and proven in the shift's order
        M, Yj = res.mean, pts[1]
        specs = []
        splu = spdcone.core.splu

        def counting(A, **kwargs):
            specs.append((kwargs["permc_spec"], A.nnz))
            return splu(A, **kwargs)

        loose = extreme_pair(M, Yj, EigenOptions(backend="iterative", tol=1e-4))
        monkeypatch.setattr(spdcone.core, "splu", counting)
        done, _ = spdcone.eigen._shift_invert(M, Yj, 1.0 / loose.alpha, loose.vectors[0],
                                              EigenOptions(), np.random.default_rng(0), 0, True)
        assert specs == [("MMD_AT_PLUS_A", M.nnz), ("NATURAL", M.nnz)]
        assert done is not None and done[4]
        w = eigh(Yj.dense(), M.dense(), eigvals_only=True)
        assert 1.0 / done[0] == pytest.approx(w[0], rel=1e-8)

    def test_dense_rounds_are_exact(self, monkeypatch):
        # the dense backend ignores tol, so no round repeats
        rng = np.random.default_rng(0)
        pts = [random_spd(48, rng) for _ in range(3)]
        seen = spy_solves(monkeypatch)
        res = inductive_mean(MeanProblem(pts))
        assert res.certified and res.rounds == 4
        assert len({id(X) for X, *_ in seen}) == res.rounds

    @pytest.mark.parametrize("family, most", [("random sparse", 5), ("dense", 4)])
    def test_newton_rounds(self, family, most):
        # Newton steps converge fast: at most 4 rounds on every seed here
        for seed in range(8):
            if family == "dense":
                rng = np.random.default_rng(seed)
                pts = [random_spd(48, rng) for _ in range(3)]
            else:
                pts = random_family(seed)
            res = inductive_mean(MeanProblem(pts))
            assert res.certified and res.rounds <= most, seed

    @pytest.mark.parametrize("family", ["random", "banded"])
    def test_small_sparse_rounds_are_dense_and_exact(self, family, monkeypatch):
        # auto solves a small sparse family dense: exact, proven extremes,
        # so no round repeats and no inertia bracket is needed
        if family == "banded":
            rng = np.random.default_rng(0)
            pts = [banded_spd(100, 5, rng) for _ in range(5)]
        else:
            pts = random_family(1)  # its first certifying round is loose
        seen = spy_solves(monkeypatch)
        backends = []
        solve = spdcone.mean.extreme_pair

        def logged(*args, **kwargs):
            e = solve(*args, **kwargs)
            backends.append(e.backend)
            return e

        def no_bracket(*args):
            raise AssertionError("inertia bracket")

        monkeypatch.setattr(spdcone.mean, "extreme_pair", logged)
        monkeypatch.setattr(spdcone.mean, "_bounded", no_bracket)
        res = inductive_mean(MeanProblem(pts))
        assert res.certified and set(backends) == {"dense"}
        assert len(seen) == len(pts) * res.rounds
        assert len({id(X) for X, *_ in seen}) == res.rounds
        assert res.mean.is_sparse and inside(res.mean, lower_union(pts))
        ref = inductive_mean(MeanProblem(pts, opts=MeanOptions(
            eigen=EigenOptions(backend="dense"))))
        assert (res.rounds, res.residual_norm) == (ref.rounds, ref.residual_norm)
        assert np.array_equal(res.mean.raw().toarray(), ref.mean.raw().toarray())

    def test_one_coefficient_pass_per_round(self, monkeypatch):
        # the radial scale and the certificate come from the same k pairs
        rng = np.random.default_rng(0)
        pts = [random_spd(48, rng) for _ in range(3)]
        calls = []
        derivatives = spdcone.mean.coefficient_derivatives

        def spy(*args):
            calls.append(args)
            return derivatives(*args)

        monkeypatch.setattr(spdcone.mean, "coefficient_derivatives", spy)
        res = inductive_mean(MeanProblem(pts))
        assert res.certified and len(calls) == len(pts) * res.rounds


class TestStack:
    @pytest.mark.parametrize("family", ["sparse", "dense", "mixed"])
    def test_iterates_are_the_combinations(self, family):
        # the first matrix fixes the order, the second is factored in it
        rng = np.random.default_rng(4)
        pts = [random_sparse_spd(80, 0.05, rng) for _ in range(3)]
        if family != "sparse":
            pts[1] = random_spd(80, rng)
        if family == "dense":
            pts = [SpdMatrix(p.dense()) for p in pts]
        stack = _Stack(pts)
        for w in ([0.2, 0.5, 0.3], [0.6, 0.1, 0.3]):
            X = stack.matrix(stack.combination(np.array(w)))
            ref = combine(list(zip(w, pts)))
            assert X.certified and X.is_sparse == ref.is_sparse == (family == "sparse")
            scale = np.abs(ref.dense()).max()
            np.testing.assert_allclose(X.dense(), ref.dense(), rtol=0, atol=1e-15 * scale)
            b = rng.standard_normal(80)
            np.testing.assert_allclose(X.matvec(X.chol().solve(b)), b, rtol=0, atol=1e-12)
            assert factor_error(X) <= 1e-14
        assert (stack.q is not None) == (family == "sparse")

    def test_mixed_family_mean_stays_inside_the_union(self, rng):
        pts = [random_sparse_spd(40, 0.1, rng), random_sparse_spd(40, 0.1, rng),
               SpdMatrix(np.diag(rng.uniform(1.0, 2.0, 40)))]
        res = inductive_mean(MeanProblem(pts))
        assert res.certified and not res.mean.is_sparse
        assert inside(res.mean, lower_union(pts))

    @pytest.mark.parametrize("storage", ["sparse", "dense"])
    def test_init_off_the_union_leaves_no_trace(self, rng, storage):
        # the init's own entries are part of the first round only, and a
        # dense init does not make the mean of sparse points dense
        pts = [random_sparse_spd(60, 0.05, rng) for _ in range(3)]
        U = lower_union(pts)
        tridiagonal = sp.diags([-0.5, 2.0, -0.5], [-1, 0, 1], shape=(60, 60))
        init = SpdMatrix(tridiagonal if storage == "sparse" else tridiagonal.toarray())
        assert not inside(init, U)
        res = inductive_mean(MeanProblem(pts, init=init))
        assert res.certified and res.mean.is_sparse and inside(res.mean, U)
        assert thompson_distance(res.mean, inductive_mean(MeanProblem(pts)).mean) <= 1e-9

    def test_reused_order_brackets_reject_a_wrong_extreme(self):
        pts = random_family(0)
        stack = _Stack(pts)
        x = stack.combination(np.full(5, 0.2))
        X = stack.matrix(x)
        assert stack.q is not None
        exts = [extreme_pair(X, Y, ITERATIVE.eigen) for Y in pts]
        warm = [e.vectors for e in exts]
        tol = EigenOptions().tol
        assert all(_trusted(stack, x, Y, e, start, tol)
                   for Y, e, start in zip(stack.values, exts, warm))
        for side in ("beta", "alpha"):
            # an extreme 1e-3 inside the spectrum leaves an eigenvalue outside
            e = exts[2]
            wrong = replace(e, **{side: getattr(e, side) * (1.0 - 1e-3 if side == "beta"
                                                           else 1.0 + 1e-3)})
            assert not _trusted(stack, x, stack.values[2], wrong, warm[2], tol)
            # a cold solve ran the guard, and a proven extreme needs no bound
            assert _trusted(stack, x, stack.values[2], wrong, (None, None), tol)
            assert _trusted(stack, x, stack.values[2], replace(wrong, proven=(True, True)),
                            warm[2], tol)
        with pytest.raises((NotPositiveDefinite, NumericalBreakdown)):
            stack.factor(exts[2].beta * (1.0 - 1e-3) * x - stack.values[2])

    def test_one_ordering_and_no_extra_factorization(self, monkeypatch):
        # one splu per iterate and per bracket matrix, as when each was
        # built by combine: 14 on this family at 5 rounds; only the first
        # chooses an order
        pts = random_family(0)
        specs = []
        original = spdcone.core.splu

        def counting(*args, **kwargs):
            specs.append(kwargs["permc_spec"])
            return original(*args, **kwargs)

        monkeypatch.setattr(spdcone.core, "splu", counting)
        res = inductive_mean(MeanProblem(pts, opts=ITERATIVE))
        assert res.certified and res.rounds == 5
        assert specs == ["MMD_AT_PLUS_A"] + ["NATURAL"] * 13


    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["random", "banded"]), seed=st.integers(0, 2**16),
           scale=st.sampled_from([1.0, 2.0 ** -1000, 2.0 ** 1000]),
           raw=st.lists(st.floats(1e-3, 1.0), min_size=5, max_size=5))
    def test_every_combination_is_exactly_symmetric(self, kind, seed, scale, raw):
        # the stack sums its rows entry by entry, as combine sums matrices:
        # every combination is what scipy's sum of the points gives, bit for
        # bit, so it is exactly symmetric, and stays finite near the largest
        # float
        rng = np.random.default_rng(seed)
        if kind == "random":
            pts = [random_sparse_spd(100, 0.03, rng) for _ in range(5)]
        else:
            pts = [banded_spd(100, 5, rng) for _ in range(5)]
        pts = [SpdMatrix(p.raw() * scale) for p in pts]
        w = np.array(raw) / sum(raw)
        stack = _Stack(pts)
        for c in (w, w[:3], -w):
            A = stack.raw(stack.combination(c))
            assert np.isfinite(A.data).all() and (A != A.T).nnz == 0
            ref = sum(cj * p.raw() for cj, p in zip(c, pts))
            np.testing.assert_array_equal(A.toarray(), ref.toarray())


class TestOneDenseFactorPerIterate:
    """A family whose pencils all resolve dense is solved as a dense one:
    each iterate is certified once, by a dense factor that all k
    reductions of its round borrow."""

    @pytest.mark.parametrize("backend", ["auto", "iterative"])
    def test_factorizations_per_mean(self, backend, factor_calls):
        # auto took one splu per iterate and one potrf per reduction,
        # 4 + 20 in these 4 rounds, before the reductions borrowed the
        # iterate's dense factor
        pts = random_family(0)
        factor_calls.clear()
        res = inductive_mean(MeanProblem(pts, opts=MeanOptions(
            eigen=EigenOptions(backend=backend))))
        assert res.certified and res.rounds == (4 if backend == "auto" else 5)
        if backend == "auto":
            assert factor_calls == ["_factor_dense"] * 4
        else:  # Lanczos solves with SuperLU's factors, in the stack's order
            assert set(factor_calls) == {"splu"}

    @pytest.mark.parametrize("dominant", [True, False])
    def test_iterates_are_certified_as_superlu_would_be(self, dominant, monkeypatch):
        # Gershgorin proves a dominant iterate; any other goes through its
        # pivots and the inverse-iteration estimate
        if dominant:
            pts = random_family(2, k=3, n=60)
        else:
            T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(60, 60))
            pts = [SpdMatrix(a * (T @ T) + c * sp.identity(60))
                   for a, c in ((1.0, 0.01), (1.0, 0.5), (2.0, 0.1))]
        checks = []
        original = spdcone.core._check_breakdown

        def counting(*args):
            checks.append(args)
            return original(*args)

        monkeypatch.setattr(spdcone.core, "_check_breakdown", counting)
        seen = spy_solves(monkeypatch)
        res = inductive_mean(MeanProblem(pts))
        assert res.certified and len(checks) == (0 if dominant else res.rounds)
        iterates = {id(X): X for X, *_ in seen}.values()
        assert len(iterates) == res.rounds
        for X in iterates:
            assert not X.is_sparse and not X.chol().is_sparse
            assert spdcone.core._gershgorin_proves(X.raw()) == dominant
            assert factor_error(X) <= 1e-14


    def test_a_wide_pencil_factors_its_point_once(self, factor_calls, monkeypatch):
        # a pencil wider than _SPREAD takes alpha from the swapped pencil,
        # reduced with Y_j's factor; a sparse point ran an uncertified potrf
        # of its dense copy for it every round, 20 in these 7 rounds. Now
        # each point is solved as a dense view of its values, which
        # certifies one factor at its first reduction for every later round
        rng = np.random.default_rng(0)
        pts = [random_sparse_spd(100, 0.03, rng) for _ in range(3)]
        pts[2] = SpdMatrix(pts[2].raw() + sp.diags(np.geomspace(1.0, 1e4, 100)))
        seen = spy_solves(monkeypatch)
        factor_calls.clear()
        res = inductive_mean(MeanProblem(pts))
        assert res.certified and res.rounds == 7
        assert factor_calls.count("dpotrf") == 0
        # one certifying factor per iterate, and one per point's view
        assert factor_calls.count("_factor_dense") == res.rounds + len(pts)
        for j, p in enumerate(pts):
            Y, = {id(Y): Y for _, Y, *_ in seen[j::len(pts)]}.values()
            assert not Y.is_sparse and np.array_equal(Y.raw(), p.dense())
        # the caller's points keep their own factors
        assert all(p.chol().is_sparse for p in pts)

    def test_a_sparse_init_enters_as_its_dense_row(self, factor_calls):
        # a sparse-stored init ran an uncertified potrf of its dense copy in
        # each of round 1's k reductions: 5 here, with 4 certifying factors
        rng = np.random.default_rng(0)
        pts = [random_sparse_spd(100, 0.03, rng) for _ in range(5)]
        init = random_sparse_spd(100, 0.03, rng)
        factor_calls.clear()
        res = inductive_mean(MeanProblem(pts, init=init))
        assert res.certified and res.rounds == 5
        assert factor_calls == ["_factor_dense"] * res.rounds
        assert res.mean.is_sparse and inside(res.mean, lower_union(pts))

    def test_a_point_lends_the_factor_of_its_dense_copy(self, rng):
        # the same potrf of the same dense copy as the uncertified one
        X, Y = random_sparse_spd(60, 0.05, rng), random_sparse_spd(60, 0.05, rng)
        twin = SpdMatrix._canonical(Y.dense())
        C, L = _reduce(X, twin)
        assert twin.certified and L is twin.chol().L
        C0, L0 = _reduce(X, Y)
        assert np.array_equal(C, C0) and np.array_equal(L, L0)


class TestWarmStartBracket:
    @pytest.mark.parametrize("k, n", [(4, 150), (5, 100)])
    def test_interior_lock_on_is_caught(self, k, n):
        # from round 2 on, a warm-started beta solve of one pencil returns an
        # interior eigenpair that passes the residual test and the guard; the
        # mean certified on it had a true residual near 1e-3
        rng = np.random.default_rng(3)
        pts = [random_sparse_spd(n, 0.03, rng) for _ in range(k)]
        opts = ITERATIVE
        res = inductive_mean(MeanProblem(pts, opts=opts))
        assert res.certified
        _, rn = residual(pts, res.mean, EigenOptions(backend="dense"))
        assert rn <= opts.residual_tol


class TestLooseRounds:
    def test_certifying_round_is_exact_and_proven(self, monkeypatch):
        # in this family a loose round certifies first, so the mean solves
        # that round again at eigen.tol at the same X, warm-started and so
        # without the guard; each extreme is then proven by its solve or
        # by an inertia bracket
        pts = random_family(1)
        k, tol = len(pts), MeanOptions().eigen.tol
        seen = spy_solves(monkeypatch)
        log = []  # the mean's solve results and bracket verdicts, in order
        for name in ("extreme_pair", "_bounded"):
            def logged(*args, _f=getattr(spdcone.mean, name), **kwargs):
                log.append(_f(*args, **kwargs))
                return log[-1]
            monkeypatch.setattr(spdcone.mean, name, logged)
        res = inductive_mean(MeanProblem(pts, opts=ITERATIVE))
        assert res.certified and len(seen) == k * res.rounds
        assert all(t == tol and not guard and not cold for _, _, t, guard, cold in seen[-k:])
        assert all(t >= tol for _, _, t, *_ in seen)
        loose = seen[-2 * k]
        assert loose[0] is seen[-k][0] and loose[2] > tol and not loose[3]
        last = [i for i, e in enumerate(log) if not isinstance(e, bool)][-k]
        finals, brackets = log[last:last + k], log[last + k:]
        unproven = sum(not p for e in finals for p in e.proven)
        assert unproven > 0 and brackets == [True] * unproven

    def test_round_tol_follows_the_residual(self, monkeypatch):
        # round r + 1 solves at max(eigen.tol, min(LOOSEST_TOL, ETA r_r)),
        # r_r the residual of round r; every pencil of a round shares it
        pts = random_family(0)
        k, tol = len(pts), MeanOptions().eigen.tol
        seen = spy_solves(monkeypatch)
        rnorms = []
        field = spdcone.mean._residual_field

        def spy(*args):
            out = field(*args)
            rnorms.append(out[1])
            return out

        monkeypatch.setattr(spdcone.mean, "_residual_field", spy)
        res = inductive_mean(MeanProblem(pts, opts=ITERATIVE))
        rounds = [seen[i:i + k] for i in range(0, len(seen), k)]
        assert res.certified and len(rounds) == res.rounds == len(rnorms)
        assert all(len({t for _, _, t, *_ in r}) == 1 for r in rounds)
        expected = [max(tol, min(spdcone.mean.LOOSEST_TOL, spdcone.mean.ETA * r))
                    for r in [math.inf] + rnorms[:-1]]
        assert [r[0][2] for r in rounds] == expected
        # the guard runs exactly on the tight cold solves
        assert all(cold for *_, cold in rounds[0])
        assert all(g == (t == tol and cold) for _, _, t, g, cold in seen)

    @pytest.mark.parametrize("family", ["dense", "random sparse"])
    def test_skipped_residuals_and_unguarded_warm_solves_keep_the_mean(self, family,
                                                                        monkeypatch):
        # a mean whose solves all return residuals, and whose tight rounds
        # all run the guard, is the same to the bit
        if family == "dense":
            rng = np.random.default_rng(0)
            pts, opts = [random_spd(48, rng) for _ in range(3)], MeanOptions()
        else:
            pts, opts = random_family(0), ITERATIVE
        lean = inductive_mean(MeanProblem(pts, opts=opts))
        tol = MeanOptions().eigen.tol
        solve = spdcone.mean.extreme_pair

        def full(X, Y, opts, start, **_):
            return solve(X, Y, opts, start, _guard=opts.tol == tol, _vectors=True)

        monkeypatch.setattr(spdcone.mean, "extreme_pair", full)
        ref = inductive_mean(MeanProblem(pts, opts=opts))
        assert (lean.rounds, lean.residual_norm, lean.final_displacement) == (
            ref.rounds, ref.residual_norm, ref.final_displacement)
        assert lean.mean.is_sparse == ref.mean.is_sparse == (family != "dense")
        assert np.array_equal(lean.mean.dense(), ref.mean.dense())

    @pytest.mark.parametrize("family", [f"random-{s}" for s in range(6)] + ["banded"])
    def test_dense_oracle_certifies_every_mean(self, family):
        if family == "banded":
            rng = np.random.default_rng(0)
            pts = [banded_spd(100, 5, rng) for _ in range(5)]
        else:
            pts = random_family(int(family.split("-")[1]))
        opts = ITERATIVE
        res = inductive_mean(MeanProblem(pts, opts=opts))
        assert res.certified
        _, rn = residual(pts, res.mean, EigenOptions(backend="dense"))
        assert rn <= opts.residual_tol


def jacobian_case(kind):
    """(pts, F, w, exts, m) for a k = 4 family: F(w) maps weights to
    (F weights, extremes, m) by fresh solves, and w, exts and m are one
    interior point's."""
    rng = np.random.default_rng(1)
    if kind == "dense":
        pts, opts = [random_spd(30, rng) for _ in range(4)], EigenOptions()
    elif kind == "sparse":  # auto solves it dense, on a sparse stack
        pts, opts = [random_sparse_spd(100, 0.03, rng) for _ in range(4)], EigenOptions()
    elif kind == "mixed":  # a dense stack, and forms of both storages
        pts = [random_sparse_spd(100, 0.03, rng) for _ in range(4)]
        pts[2], opts = random_spd(100, rng), EigenOptions()
    else:
        pts = [random_sparse_spd(300, 0.02, rng) for _ in range(4)]
        opts = EigenOptions(backend="iterative", tol=1e-13)
    stack = _Stack(pts)

    def F(w):
        X = stack.matrix(stack.combination(w))
        exts = [extreme_pair(X, Y, opts, _residuals=False) for Y in pts]
        assert all(e.backend == ("iterative" if kind == "iterative" else "dense")
                   for e in exts)
        m = np.array([coefficient_derivatives(e.alpha, e.beta)[0] for e in exts])
        return m / m.sum(), exts, m

    w = rng.uniform(0.5, 1.5, 4)
    w /= w.sum()
    return (pts, F, w) + F(w)[1:]


class TestNewton:
    @pytest.mark.parametrize("kind", ["dense", "sparse", "mixed", "iterative"])
    def test_jacobian_matches_central_differences(self, kind):
        pts, F, w, exts, m = jacobian_case(kind)
        J = _jacobian(pts, w, exts, m)
        h = 1e-6
        diffs = np.column_stack([(F(w + h * e)[0] - F(w - h * e)[0]) / (2 * h)
                                 for e in np.eye(len(w))])
        assert np.abs(J - diffs).max() <= 1e-8 * np.abs(J).max()

    @pytest.mark.parametrize("kind", ["dense", "sparse", "mixed", "iterative"])
    def test_jacobian_annihilates_the_weights(self, kind):
        # F is homogeneous of degree 0, and its weights always sum to 1
        pts, _, w, exts, m = jacobian_case(kind)
        J = _jacobian(pts, w, exts, m)
        scale = np.abs(J).max()
        assert np.abs(J @ w).max() <= 1e-14 * scale
        assert np.abs(J.sum(axis=0)).max() <= 1e-14 * scale

    @pytest.mark.parametrize("alpha", [1e-3, 0.7, 1.0, 5e4])
    def test_m_partials_continuous_across_the_branch(self, alpha):
        inner = _m_partials(alpha, alpha * math.exp(BRANCH_TOL * (1 - 1e-6)), 1.0 / alpha)
        beta = alpha * math.exp(BRANCH_TOL * (1 + 1e-6))
        outer = _m_partials(alpha, beta, coefficient_derivatives(alpha, beta)[0])
        assert inner == (-0.5 / alpha / alpha,) * 2
        assert outer == pytest.approx(inner, rel=1e-6)

    def test_m_partials_match_central_differences(self):
        alpha, beta, h = 0.8, 1.9, 1e-6

        def m(a, b):
            return coefficient_derivatives(a, b)[0]

        partials = _m_partials(alpha, beta, m(alpha, beta))
        diffs = ((m(alpha + h, beta) - m(alpha - h, beta)) / (2 * h),
                 (m(alpha, beta + h) - m(alpha, beta - h)) / (2 * h))
        assert partials == pytest.approx(diffs, rel=1e-8)

    @pytest.mark.parametrize("jacobian", ["leaves the simplex", "singular", "not finite"])
    def test_failed_step_takes_plain_weights(self, jacobian, monkeypatch):
        # every step falls back, so the mean runs plain F and still certifies
        # J_F - I = 2^-52 I: the step is 2^52 (w - F(w))
        bad = {"leaves the simplex": lambda k: (1.0 + 2.0**-52) * np.eye(k),
               "singular": np.eye,
               "not finite": lambda k: np.full((k, k), np.nan)}[jacobian]
        monkeypatch.setattr(spdcone.mean, "_jacobian", lambda points, w, exts, m: bad(len(m)))
        steps = []
        newton = spdcone.mean._newton

        def spy(points, w, exts, m):
            steps.append((m, newton(points, w, exts, m)))
            return steps[-1][1]

        monkeypatch.setattr(spdcone.mean, "_newton", spy)
        rng = np.random.default_rng(0)
        res = inductive_mean(MeanProblem([random_spd(48, rng) for _ in range(3)]))
        assert res.certified and steps
        assert all(np.array_equal(w, m / m.sum()) for m, w in steps)

    def test_first_round_after_an_init_takes_plain_weights(self, monkeypatch):
        # a given init is no combination of the points: F weights leave it
        rng = np.random.default_rng(0)
        pts = [random_spd(48, rng) for _ in range(3)]
        seen = []
        solve = spdcone.mean.extreme_pair

        def spy_solve(*args, **kwargs):
            seen.append(solve(*args, **kwargs))
            return seen[-1]

        starts = []
        newton = spdcone.mean._newton

        def spy_newton(points, w, exts, m):
            starts.append((len(seen), w))
            return newton(points, w, exts, m)

        monkeypatch.setattr(spdcone.mean, "extreme_pair", spy_solve)
        monkeypatch.setattr(spdcone.mean, "_newton", spy_newton)
        res = inductive_mean(MeanProblem(pts, init=random_spd(48, rng)))
        assert res.certified and res.final_displacement < math.inf
        m = np.array([coefficient_derivatives(e.alpha, e.beta)[0] for e in seen[:3]])
        assert starts[0][0] == 6 and np.array_equal(starts[0][1], m / m.sum())
        assert len(starts) == res.rounds - 2


UNATTAINABLE = MeanOptions(residual_tol=1e-30, eigen=EigenOptions(tol=1e-30))


class TestFailurePayloads:
    def test_fixed_point_stalled_payload(self, rng):
        pts = points(rng, 3, 5)
        # an unattainable residual target forces a stall after 200 rounds
        with pytest.raises(FixedPointStalled) as exc:
            inductive_mean(MeanProblem(pts, opts=UNATTAINABLE))
        assert isinstance(exc.value.best, SpdMatrix)
        assert exc.value.iterations == 200
        # the stalled payload is still an excellent iterate
        _, rn = residual(pts, exc.value.best)
        assert rn <= 1e-8

    def test_stalled_payload_carries_its_residual(self, rng):
        pts = points(rng, 3, 5)
        with pytest.raises(FixedPointStalled) as exc:
            inductive_mean(MeanProblem(pts, opts=UNATTAINABLE))
        _, rn = residual(pts, exc.value.best)
        assert exc.value.residual == pytest.approx(rn, abs=1e-12)

    def test_stalled_displacement_belongs_to_best(self, rng):
        # one round: the best is the arithmetic-mean start, reached by no
        # step, although a step was taken after it
        pts = points(rng, 3, 5)
        _, rounds, displacement, _ = _fixed_point(pts, None, EigenOptions(tol=1e-30), max_rounds=1)
        assert (rounds, displacement) == (1, 0.0)

    def test_hybrid_recovers_from_stall(self, rng):
        # residual target 1e-30 is unattainable, so F stalls; its best
        # iterate still meets residual_tol and is returned
        pts = points(rng, 3, 5)
        opts = MeanOptions(eigen=EigenOptions(tol=1e-30))
        res = inductive_mean(MeanProblem(pts, opts=opts))
        assert res.certified

    def test_two_point_residual_is_measured_not_predicted(self, rng):
        # the residual of the stored iterate never reaches 1e-30; a residual
        # taken from the weights alone would, and would certify
        pts = list(spd_pair(rng, 5))
        with pytest.raises(FixedPointStalled):
            inductive_mean(MeanProblem(pts, opts=UNATTAINABLE))

    def test_stalled_iterate_needs_a_cold_residual(self, rng, monkeypatch):
        # F's best iterate comes from warm solves; the cold residual there decides
        pts = points(rng, 3, 5)
        opts = MeanOptions(eigen=EigenOptions(tol=1e-30))
        monkeypatch.setattr(spdcone.mean, "residual", lambda *args: (None, 1.0))
        with pytest.raises(FixedPointStalled) as exc:
            inductive_mean(MeanProblem(pts, opts=opts))
        assert exc.value.residual == 1.0


class TestContractionFactor:
    def test_endpoints(self):
        assert contraction_factor(2.0, 0.0) == pytest.approx(1.0)
        assert contraction_factor(2.0, 1.0) == pytest.approx(0.0)

    def test_direct_value(self):
        expected = (1 - math.exp(-0.5)) / (1 - math.exp(-1.0))
        assert contraction_factor(1.0, 0.5) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.6225, abs=5e-5)

    def test_nonpositive_r(self):
        with pytest.raises(NonPositiveR):
            contraction_factor(0.0, 0.5)

    @given(st.floats(1e-6, 50.0), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_tangent_line_bound(self, R, t):
        g = contraction_factor(R, t)
        assert 0.0 <= g <= 1.0
        tangent = 1.0 - t * R * math.exp(-R) / (1.0 - math.exp(-R))
        assert g <= tangent + 1e-12


class TestMixedStorage:
    def test_sparse_dense_mix(self, rng):
        Xs = random_sparse_spd(20, 0.15, rng)
        Yd = random_spd(20, rng)
        res = inductive_mean(MeanProblem([Xs, Yd]))
        assert res.certified
        ref = inductive_mean(MeanProblem([SpdMatrix(Xs.dense()), Yd]))
        assert thompson_distance(res.mean, ref.mean) <= 1e-9
