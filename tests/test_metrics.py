"""Distance functions and their invariances."""

import math

import numpy as np
import pytest

from spdcone import (
    EigenOptions,
    GaugeParameter,
    SpdMatrix,
    hilbert_distance,
    phi_distance,
    random_spd,
    riemannian_distance,
    thompson_distance,
)
from spdcone.errors import DenseLimitExceeded, InvalidGauge, InvalidOption

from conftest import spd_pair


class TestThompson:
    def test_diag_example(self):
        d = thompson_distance(SpdMatrix(np.eye(2)), SpdMatrix(np.diag([4.0, 1.0])))
        assert d == pytest.approx(math.log(4.0), abs=1e-12)

    def test_zero_at_equal(self, rng):
        X = random_spd(5, rng)
        assert thompson_distance(X, X) <= 1e-10

    def test_scalar_pencil(self):
        X = SpdMatrix(2.0 * np.eye(3))
        Y = SpdMatrix(np.eye(3))
        assert thompson_distance(X, Y) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_iterative_agrees_with_dense(self, rng):
        for seed in range(12):
            n = int(rng.integers(4, 65))
            X, Y = spd_pair(rng, n)
            dd = thompson_distance(X, Y, EigenOptions(backend="dense"))
            di = thompson_distance(X, Y, EigenOptions(backend="iterative", seed=seed))
            assert di == pytest.approx(dd, abs=1e-8)


class TestHilbert:
    def test_diag_example(self):
        d = hilbert_distance(SpdMatrix(np.eye(3)), SpdMatrix(np.diag([9.0, 4.0, 1.0])))
        assert d == pytest.approx(math.log(9.0), abs=1e-12)

    def test_projective_degeneracy(self, rng):
        X = random_spd(6, rng)
        for c in (1e-3, 1.0, 1e3):
            assert hilbert_distance(X, X.scaled(c)) <= 1e-9

    def test_inverse_spectrum_example(self):
        X = SpdMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert hilbert_distance(X, SpdMatrix(np.eye(2))) == pytest.approx(math.log(3.0), abs=1e-12)


class TestRiemannian:
    def test_symmetric_logs(self):
        Y = SpdMatrix(np.diag([math.e ** 2, math.e ** -2]))
        d = riemannian_distance(SpdMatrix(np.eye(2)), Y)
        assert d == pytest.approx(math.sqrt(8.0), rel=1e-12)

    def test_zero(self, rng):
        X = random_spd(4, rng)
        assert riemannian_distance(X, X) <= 1e-12

    def test_direct_evaluation(self):
        d = riemannian_distance(SpdMatrix(np.eye(3)), SpdMatrix(np.diag([9.0, 4.0, 1.0])))
        assert d == pytest.approx(math.hypot(math.log(9.0), math.log(4.0)), rel=1e-12)

    def test_ceiling(self, rng):
        X, Y = spd_pair(rng, 8)
        with pytest.raises(DenseLimitExceeded):
            riemannian_distance(X, Y, dense_ceiling=4)

    def test_nan_ceiling_rejected(self, rng):
        # n > nan is False, so an unchecked nan ceiling would densify at any n
        X, Y = spd_pair(rng, 8)
        with pytest.raises(InvalidOption, match="dense_ceiling"):
            riemannian_distance(X, Y, dense_ceiling=float("nan"))


class TestPhiFamily:
    def test_p_inf_is_thompson(self):
        X, Y = SpdMatrix(np.eye(2)), SpdMatrix(np.diag([4.0, 1.0]))
        assert phi_distance(X, Y, math.inf) == pytest.approx(math.log(4.0), rel=1e-12)

    def test_p1_sum_of_logs(self):
        Y = SpdMatrix(np.diag([math.e, 1.0 / math.e, 1.0]))
        assert phi_distance(SpdMatrix(np.eye(3)), Y, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_p2_is_riemannian(self, rng):
        X, Y = spd_pair(rng, 9)
        assert phi_distance(X, Y, 2.0) == pytest.approx(riemannian_distance(X, Y), abs=1e-12)

    def test_invalid_gauge(self, rng):
        X, Y = spd_pair(rng, 3)
        with pytest.raises(InvalidGauge):
            phi_distance(X, Y, 0.5)
        with pytest.raises(InvalidGauge):
            GaugeParameter(0.99)


class TestMetricAxioms:
    def metrics(self):
        return [
            thompson_distance,
            riemannian_distance,
            lambda X, Y: phi_distance(X, Y, 1.0),
            lambda X, Y: phi_distance(X, Y, 3.0),
        ]

    def test_symmetry_and_triangle(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 31))
            X, Y = spd_pair(rng, n)
            Z = random_spd(n, rng)
            for d in self.metrics():
                assert d(X, Y) == pytest.approx(d(Y, X), abs=1e-9)
                assert d(X, Z) <= d(X, Y) + d(Y, Z) + 1e-9

    def test_affine_invariance(self, rng):
        X, Y = spd_pair(rng, 7)
        A = rng.standard_normal((7, 7))
        AX = SpdMatrix(A @ X.dense() @ A.T)
        AY = SpdMatrix(A @ Y.dense() @ A.T)
        for d in self.metrics() + [hilbert_distance]:
            assert d(AX, AY) == pytest.approx(d(X, Y), abs=1e-8)

    def test_inversion_invariance(self, rng):
        X, Y = spd_pair(rng, 6)
        Xi = SpdMatrix(np.linalg.inv(X.dense()))
        Yi = SpdMatrix(np.linalg.inv(Y.dense()))
        assert thompson_distance(Xi, Yi) == pytest.approx(thompson_distance(X, Y), abs=1e-8)
        assert riemannian_distance(Xi, Yi) == pytest.approx(riemannian_distance(X, Y), abs=1e-8)

    def test_hilbert_thompson_ordering(self, rng):
        for _ in range(20):
            X, Y = spd_pair(rng, int(rng.integers(2, 12)))
            assert hilbert_distance(X, Y) <= 2.0 * thompson_distance(X, Y) + 1e-9
