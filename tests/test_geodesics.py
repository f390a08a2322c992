"""Geodesic families, coefficient functions, and their invariants."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdcone import (
    EigenOptions,
    SpdMatrix,
    coefficient_derivatives,
    diamond_geodesic,
    extreme_pair,
    geodesic_coefficients,
    random_sparse_spd,
    random_spd,
    riemannian_geodesic,
    star_geodesic,
    thompson_distance,
)
from spdcone.errors import (
    DegeneratePencil,
    DenseLimitExceeded,
    InvalidArgument,
    NonPositiveAlpha,
    NotPositiveDefinite,
    OrderViolation,
)

from conftest import spd_pair


def mp_phi_psi(a, b, t):
    """50-digit oracle for the raw coefficient expressions."""
    with mp.workdps(50):
        a, b, t = mp.mpf(a), mp.mpf(b), mp.mpf(t)
        if a == b:
            return float(t * a ** (t - 1)), float((1 - t) * a ** t)
        phi = (b ** t - a ** t) / (b - a)
        psi = (b * a ** t - a * b ** t) / (b - a)
        return float(phi), float(psi)


def mp_m_o(a, b):
    with mp.workdps(50):
        a, b = mp.mpf(a), mp.mpf(b)
        if a == b:
            return float(1 / a), float(mp.log(a) - 1)
        m = (mp.log(b) - mp.log(a)) / (b - a)
        o = (b * mp.log(a) - a * mp.log(b)) / (b - a)
        return float(m), float(o)


class TestCoefficients:
    def test_hand_values(self):
        phi, psi = geodesic_coefficients(1.0, 9.0, 0.5)
        assert phi == pytest.approx(0.25, rel=1e-15)  # (3-1)/8
        assert psi == pytest.approx(0.75, rel=1e-15)  # (9-3)/8

    def test_equal_branch(self):
        phi, psi = geodesic_coefficients(4.0, 4.0, 0.5)
        assert phi == pytest.approx(0.25)  # 0.5 * 4^(-1/2)
        assert psi == pytest.approx(1.0)   # 0.5 * 4^(1/2)

    def test_endpoints_exact(self):
        for a, b in [(1.0, 9.0), (0.3, 0.7), (2.0, 2.0)]:
            assert geodesic_coefficients(a, b, 0.0) == (0.0, 1.0)
            assert geodesic_coefficients(a, b, 1.0) == (1.0, 0.0)

    def test_against_extended_precision_boundary_grid(self):
        # spread straddling the branch switch, where the naive formulas
        # lose all digits; below the switch the equal branch carries an
        # intentional O(gap) bias, already far below anything downstream
        for eps in (1e-12, 1e-10, 1e-9, 1e-8, 1e-6, 1e-4):
            rel = 1e-13 if eps > 1.1e-8 else max(2.0 * eps, 1e-13)
            for a in (0.2, 1.0, 7.3):
                b = a * (1.0 + eps)
                for t in (0.1, 0.37, 0.5, 0.93):
                    phi, psi = geodesic_coefficients(a, b, t)
                    phi0, psi0 = mp_phi_psi(a, b, t)
                    assert phi == pytest.approx(phi0, rel=rel)
                    assert psi == pytest.approx(psi0, rel=rel)
                    m, o = coefficient_derivatives(a, b)
                    m0, o0 = mp_m_o(a, b)
                    assert m == pytest.approx(m0, rel=rel)
                    assert o == pytest.approx(o0, rel=rel, abs=1e-13)

    def test_derivative_examples(self):
        m, o = coefficient_derivatives(1.0, 1.0)
        assert (m, o) == (1.0, -1.0)
        m, o = coefficient_derivatives(1.0, math.e)
        assert m == pytest.approx(1.0 / (math.e - 1.0), rel=1e-14)
        assert o == pytest.approx(-1.0 / (math.e - 1.0), rel=1e-14)
        m, o = coefficient_derivatives(4.0, 4.0)
        assert m == pytest.approx(0.25)
        assert o == pytest.approx(math.log(4.0) - 1.0)

    def test_errors(self):
        with pytest.raises(NonPositiveAlpha):
            geodesic_coefficients(0.0, 1.0, 0.5)
        with pytest.raises(OrderViolation):
            geodesic_coefficients(2.0, 1.0, 0.5)
        with pytest.raises(InvalidArgument, match="t = 800.0"):
            geodesic_coefficients(1.0, 3.0, 800.0)

    @given(
        st.floats(1e-4, 1e4),
        st.floats(1.0, 1e6),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_properties_on_unit_interval(self, alpha, ratio, t):
        phi, psi = geodesic_coefficients(alpha, alpha * ratio, t)
        assert phi >= 0.0
        assert psi >= -1e-300
        assert phi + psi > 0.0
        assert coefficient_derivatives(alpha, alpha * ratio)[0] > 0.0

    @given(st.floats(1e-3, 1e3), st.floats(1e-12, 5e-8))
    @settings(max_examples=200, deadline=None)
    def test_branch_continuity(self, alpha, rel_gap):
        # generic and equal branches agree across the switching threshold
        beta = alpha * (1.0 + rel_gap)
        m_generic, o_generic = mp_m_o(alpha, beta)
        m_equal, o_equal = 1.0 / alpha, math.log(alpha) - 1.0
        assert m_equal == pytest.approx(m_generic, rel=1e-6)
        assert o_equal == pytest.approx(o_generic, rel=1e-6, abs=1e-7)
        m, o = coefficient_derivatives(alpha, beta)
        assert m == pytest.approx(m_generic, rel=1e-7)


class TestStarGeodesic:
    def test_diagonal_example(self):
        X = SpdMatrix(np.eye(3))
        Y = SpdMatrix(np.diag([9.0, 4.0, 1.0]))
        G = star_geodesic(X, Y, 0.5)
        np.testing.assert_allclose(np.diag(G.dense()), [3.0, 7.0 / 4.0, 1.0], rtol=1e-14)

    def test_endpoints_bit_exact(self, rng):
        X, Y = spd_pair(rng, 6)
        assert np.array_equal(star_geodesic(X, Y, 0.0).dense(), X.dense())
        assert np.array_equal(star_geodesic(X, Y, 1.0).dense(), Y.dense())

    def test_scalar_geometric_mean(self):
        X = SpdMatrix(np.array([[2.0]]))
        Y = SpdMatrix(np.array([[8.0]]))
        G = star_geodesic(X, Y, 0.5)
        assert G.dense()[0, 0] == pytest.approx(4.0, rel=1e-14)

    def test_sparse_pattern_within_union(self, rng):
        X = random_sparse_spd(50, 0.04, rng)
        Y = random_sparse_spd(50, 0.04, rng)
        G = star_geodesic(X, Y, 0.3)
        assert G.is_sparse
        union = ((X.raw() != 0) + (Y.raw() != 0)).astype(bool)
        outside = G.raw().astype(bool) > union
        assert outside.nnz == 0

    def test_extrapolation_flag(self, rng):
        X, Y = spd_pair(rng, 4, spread=0.5)
        with pytest.warns(RuntimeWarning):
            G = star_geodesic(X, Y, 1.8)
        assert not G.certified
        inside = star_geodesic(X, Y, 0.7)
        assert inside.certified

    def test_extrapolation_certify_can_fail(self):
        # far extrapolation drives the smallest pencil eigenvalue to
        # alpha^t, numerically indistinguishable from a singular matrix;
        # certifying the point there must fail loudly
        from spdcone.errors import NumericalBreakdown

        X = SpdMatrix(np.diag([1.0, 1.0]))
        Y = SpdMatrix(np.diag([100.0, 1e-4]))
        with pytest.warns(RuntimeWarning):
            G = star_geodesic(X, Y, 3.5)
        with pytest.raises((NotPositiveDefinite, NumericalBreakdown)):
            G.chol()

    def test_pencil_propagation(self, rng):
        # lambda_max((X *_t Y) X^-1) = beta^t and lambda_min = alpha^t
        X, Y = spd_pair(rng, 12, spread=1.2)
        base = extreme_pair(X, Y)
        for t in (0.25, 0.5, 0.9):
            G = star_geodesic(X, Y, t)
            prop = extreme_pair(X, G)
            assert prop.beta == pytest.approx(base.beta ** t, rel=1e-8)
            assert prop.alpha == pytest.approx(base.alpha ** t, rel=1e-8)

    def test_geodesic_consistency(self, rng):
        X, Y = spd_pair(rng, 9)
        s, t = 0.4, 0.65
        lhs = star_geodesic(X, Y, t).dense()
        rhs = star_geodesic(Y, X, 1.0 - t).dense()
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9)
        lhs = star_geodesic(X, star_geodesic(X, Y, t), s).dense()
        rhs = star_geodesic(X, Y, s * t).dense()
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-9 * np.linalg.norm(rhs))
        lhs = star_geodesic(star_geodesic(X, Y, s), Y, t).dense()
        rhs = star_geodesic(X, Y, s + t - s * t).dense()
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-9 * np.linalg.norm(rhs))

    def test_affine_equivariance(self, rng):
        X, Y = spd_pair(rng, 8)
        A = rng.standard_normal((8, 8))
        lhs = star_geodesic(
            SpdMatrix(A @ X.dense() @ A.T), SpdMatrix(A @ Y.dense() @ A.T), 0.4
        ).dense()
        rhs = A @ star_geodesic(X, Y, 0.4).dense() @ A.T
        np.testing.assert_allclose(lhs, rhs, atol=1e-8 * np.linalg.norm(rhs))

    def test_joint_homogeneity(self, rng):
        X, Y = spd_pair(rng, 7)
        t = 0.3
        lhs = star_geodesic(X.scaled(2.0), Y.scaled(5.0), t).dense()
        rhs = 2.0 ** (1 - t) * 5.0 ** t * star_geodesic(X, Y, t).dense()
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9)

    def test_path_property(self, rng):
        X, Y = spd_pair(rng, 10)
        d = thompson_distance(X, Y)
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        pts = {t: star_geodesic(X, Y, t) for t in grid}
        for s in grid:
            for t in grid:
                dd = thompson_distance(pts[s], pts[t])
                assert dd == pytest.approx(abs(s - t) * d, abs=1e-8)


class TestRiemannianGeodesic:
    def test_matrix_square_root(self):
        X = SpdMatrix(np.eye(3))
        Y = SpdMatrix(np.diag([9.0, 4.0, 1.0]))
        G = riemannian_geodesic(X, Y, 0.5)
        np.testing.assert_allclose(G.dense(), np.diag([3.0, 2.0, 1.0]), atol=1e-13)

    def test_endpoints(self, rng):
        X, Y = spd_pair(rng, 5)
        np.testing.assert_allclose(riemannian_geodesic(X, Y, 0.0).dense(), X.dense(), atol=1e-13)
        np.testing.assert_allclose(riemannian_geodesic(X, Y, 1.0).dense(), Y.dense(), atol=1e-12)

    def test_2x2_coincides_with_star(self, rng):
        for _ in range(50):
            X, Y = spd_pair(rng, 2, spread=2.0)
            for t in (0.25, 0.5, 0.75):
                R = riemannian_geodesic(X, Y, t).dense()
                S = star_geodesic(X, Y, t).dense()
                assert np.linalg.norm(R - S) <= 1e-9 * np.linalg.norm(R)

    def test_two_eigenvalue_coincidence(self, rng):
        # Y = X^(1/2) D X^(1/2) with D carrying two distinct eigenvalues
        X = random_spd(5, rng)
        w, V = np.linalg.eigh(X.dense())
        Xh = (V * np.sqrt(w)) @ V.T
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        D = (Q * np.array([2.0, 2.0, 0.5, 0.5, 0.5])) @ Q.T
        Y = SpdMatrix(Xh @ D @ Xh)
        for t in (0.3, 0.5, 0.8):
            R = riemannian_geodesic(X, Y, t).dense()
            S = star_geodesic(X, Y, t).dense()
            assert np.linalg.norm(R - S) <= 1e-9 * np.linalg.norm(R)

    def test_ceiling(self, rng):
        X, Y = spd_pair(rng, 6)
        with pytest.raises(DenseLimitExceeded):
            riemannian_geodesic(X, Y, 0.5, EigenOptions(dense_ceiling=4))


class TestDiamondGeodesic:
    def test_hand_example(self):
        X = SpdMatrix(np.eye(3))
        Y = SpdMatrix(np.diag([9.0, 4.0, 1.0]))
        G = diamond_geodesic(X, Y, 0.5)
        np.testing.assert_allclose(np.diag(G.dense()), [3.0, 1.5, 0.6], rtol=1e-14)

    def test_endpoints(self, rng):
        X, Y = spd_pair(rng, 5)
        assert np.array_equal(diamond_geodesic(X, Y, 0.0).dense(), X.dense())
        assert np.array_equal(diamond_geodesic(X, Y, 1.0).dense(), Y.dense())

    def test_degenerate_pencil(self, rng):
        X = random_spd(4, rng)
        with pytest.raises(DegeneratePencil):
            diamond_geodesic(X, X.scaled(2.0), 0.5)

    def test_low_branch(self, rng):
        # alpha * beta < 1 exercises the lambda_min branch
        X = SpdMatrix(np.eye(2))
        Y = SpdMatrix(np.diag([0.5, 0.1]))
        G = diamond_geodesic(X, Y, 0.5)
        lam = 0.1  # alpha branch: alpha = 0.1, beta = 0.5, alpha*beta < 1
        a = (lam ** 0.5 - lam ** -0.5) / (lam - 1.0 / lam)
        b = (lam ** 0.5 - lam ** -0.5) / (lam - 1.0 / lam)
        np.testing.assert_allclose(
            np.diag(G.dense()), [a * 0.5 + b, a * 0.1 + b], rtol=1e-12
        )

    def test_path_property(self, rng):
        for _ in range(10):
            X, Y = spd_pair(rng, 8)
            d = thompson_distance(X, Y)
            grid = [0.0, 0.25, 0.5, 0.75, 1.0]
            pts = {t: diamond_geodesic(X, Y, t) for t in grid}
            for s in grid:
                for t in grid:
                    dd = thompson_distance(pts[s], pts[t])
                    assert dd == pytest.approx(abs(s - t) * d, abs=1e-8)


def same_matrix(A, B):
    return A.is_sparse == B.is_sparse and np.array_equal(A.dense(), B.dense())


class TestPaths:
    """A sequence of t samples one path; its pencil work is done once."""

    TS = [0.0, 0.25, 0.5, 0.75, 1.0]

    @pytest.mark.parametrize("family", [star_geodesic, diamond_geodesic, riemannian_geodesic])
    def test_sequence_equals_pointwise(self, rng, family):
        for X, Y in (spd_pair(rng, 7), (random_sparse_spd(60, 0.05, rng),
                                        random_sparse_spd(60, 0.05, rng))):
            path = family(X, Y, self.TS)
            assert isinstance(path, list) and len(path) == len(self.TS)
            for t, G in zip(self.TS, path):
                point = family(X, Y, t)
                assert same_matrix(G, point) and G.certified == point.certified
            # any sequence type, numpy scalars included
            assert all(map(same_matrix, family(X, Y, np.array(self.TS)), path))
            assert family(X, Y, ()) == []

    @pytest.mark.parametrize("family", [star_geodesic, diamond_geodesic])
    def test_one_solve_per_path(self, rng, family, extreme_pair_calls):
        X, Y = spd_pair(rng, 6)
        family(X, Y, self.TS)
        assert len(extreme_pair_calls) == 1

    @pytest.mark.parametrize("family", [star_geodesic, diamond_geodesic])
    def test_outside_unit_interval_warns(self, rng, family):
        X, Y = spd_pair(rng, 4, spread=0.5)
        with pytest.warns(RuntimeWarning) as record:
            path = family(X, Y, [0.5, 1.8])
        assert [G.certified for G in path] == [True, False]
        assert len(record) == 1 and record[0].filename == __file__
        with pytest.warns(RuntimeWarning) as record:
            family(X, Y, 1.8)
        assert record[0].filename == __file__

    def test_degenerate_pencil(self, rng):
        X = random_spd(4, rng)
        with pytest.raises(DegeneratePencil):
            diamond_geodesic(X, X.scaled(2.0), [0.25, 0.5])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("family", [star_geodesic, diamond_geodesic, riemannian_geodesic])
    @pytest.mark.parametrize("t", [800.0, -800.0])
    def test_unrepresentable_coefficients_name_t(self, family, t):
        # (alpha, beta) = (1/4, 4): 4^801 or sinh(800 log 4) is no float, which
        # math.expm1, ** and math.sinh report as OverflowError, and numpy's
        # 4.0 ** 800 is inf; no RuntimeWarning escapes on the way
        X, Y = SpdMatrix(np.eye(2)), SpdMatrix(np.diag([4.0, 0.25]))
        with pytest.raises(InvalidArgument, match=f"t = {t}"):
            family(X, Y, [0.5, t])


class TestGeodesicContraction:
    def test_bounds_hold(self, rng):
        from spdcone import hilbert_distance

        for trial in range(20):
            R = [0.5, 1.0, 2.0][trial % 3]
            U = random_spd(6, rng)
            Zx, Zy = spd_pair(rng, 6, spread=2.0)
            dx = hilbert_distance(U, Zx)
            dy = hilbert_distance(U, Zy)
            Xm = star_geodesic(U, Zx, min(1.0, 0.95 * R / dx) * rng.uniform(0.3, 1.0))
            Ym = star_geodesic(U, Zy, min(1.0, 0.95 * R / dy) * rng.uniform(0.3, 1.0))
            assert hilbert_distance(U, Xm) <= R and hilbert_distance(U, Ym) <= R
            for s in (0.25, 0.5, 0.75):
                Gx = star_geodesic(U, Xm, s)
                Gy = star_geodesic(U, Ym, s)
                factor_h = (1 - math.exp(-R * s)) / (1 - math.exp(-R))
                assert hilbert_distance(Gx, Gy) <= factor_h * hilbert_distance(Xm, Ym) + 1e-8
                factor_t = 2 * factor_h - s
                assert thompson_distance(Gx, Gy) <= factor_t * thompson_distance(Xm, Ym) + 1e-8
