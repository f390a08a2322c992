"""Inductive Thompson mean: steps, residual certificate, the F iteration."""

import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from spdcone import (
    EigenOptions,
    MeanOptions,
    MeanProblem,
    SpdMatrix,
    contraction_factor,
    hilbert_distance,
    inductive_mean,
    inductive_step,
    random_sparse_spd,
    random_spd,
    residual,
    star_geodesic,
    thompson_distance,
)
import spdcone.mean
from spdcone.core import arithmetic_mean
from spdcone.errors import FixedPointStalled, InvalidOption, NonPositiveR, SpdConeError
from spdcone.mean import _anderson, _fixed_point

from conftest import spd_pair


def points(rng, k, n, spread=1.5):
    return [random_spd(n, rng, spread) for _ in range(k)]


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
    def test_single_point(self, rng):
        Y = random_spd(4, rng)
        res = inductive_mean(MeanProblem([Y]))
        assert res.mean is Y and res.certified
        assert res.residual_norm <= 1e-12

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
        X = arithmetic_mean(pts)
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
        # no other pencil is ever solved; Anderson mixing keeps rounds few
        rng = np.random.default_rng(0)
        if family == "dense":
            pts = [random_spd(48, rng) for _ in range(3)]
        else:
            pts = [random_sparse_spd(100, 0.03, rng) for _ in range(5)]
        seen = []
        solve = spdcone.mean.extreme_pair

        def spy(X, Y, *args):
            seen.append(Y)
            return solve(X, Y, *args)

        monkeypatch.setattr(spdcone.mean, "extreme_pair", spy)
        res = inductive_mean(MeanProblem(pts))
        assert res.certified and res.cycles_used == 0
        assert all(any(Y is p for p in pts) for Y in seen)
        assert len(seen) == len(pts) * res.rounds
        assert res.rounds <= max_rounds

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


class TestWarmStartBracket:
    @pytest.mark.parametrize("k, n", [(4, 150), (5, 100)])
    def test_interior_lock_on_is_caught(self, k, n):
        # from round 2 on, a warm-started beta solve of one pencil returns an
        # interior eigenpair that passes the residual test and the guard; the
        # mean certified on it had a true residual near 1e-3
        rng = np.random.default_rng(3)
        pts = [random_sparse_spd(n, 0.03, rng) for _ in range(k)]
        opts = MeanOptions()
        res = inductive_mean(MeanProblem(pts, opts=opts))
        assert res.certified
        _, rn = residual(pts, res.mean, EigenOptions(backend="dense"))
        assert rn <= opts.residual_tol


class TestAnderson:
    def test_extrapolation_outside_simplex_gives_plain_weights(self):
        ws = [np.array([0.5, 0.5]), np.array([0.4, 0.6])]
        gs = [np.array([0.4, 0.6]), np.array([0.31, 0.69])]
        # the secant through these residuals extrapolates to (-0.5, 1.5)
        w, mixed = _anderson(ws, gs)
        assert not mixed and w is gs[-1]

    def test_affine_map_solved_from_k_iterates(self):
        # depth k - 1 spans the simplex: k iterates of an affine F whose
        # fixed point p is interior determine p
        k = 3
        p = np.array([0.2, 0.3, 0.5])
        C = np.random.default_rng(1).uniform(-0.3, 0.3, (k, k))
        B = (np.eye(k) - 1.0 / k) @ C  # columns sum to zero: F keeps sum w = 1

        def F(w):
            return p + B @ (w - p)

        ws = [np.full(k, 1.0 / k)]
        for _ in range(k - 1):
            ws.append(F(ws[-1]))
        w, mixed = _anderson(ws, [F(x) for x in ws])
        assert mixed
        np.testing.assert_allclose(w, p, rtol=0, atol=1e-12)


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
