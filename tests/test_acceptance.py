"""Acceptance suite: one test and one printed pass line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance below is fixed, not calibrated.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import toeplitz

from spdcone import (
    EigenOptions,
    MeanOptions,
    MeanProblem,
    SpdMatrix,
    extreme_pair,
    hilbert_distance,
    inductive_mean,
    phi_distance,
    random_sparse_spd,
    random_spd,
    riemannian_distance,
    riemannian_geodesic,
    star_geodesic,
    diamond_geodesic,
    thompson_distance,
)


def report(criterion, label, detail):
    print(f"ACCEPTANCE {criterion:>2} [{label}]: PASS ({detail})")


def spd_family(rng, k, n, spread=1.5):
    return [random_spd(n, rng, spread) for _ in range(k)]


def test_criterion_01_two_point_mean_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 31))
        Y1, Y2 = spd_family(rng, 2, n)
        res = inductive_mean(MeanProblem([Y1, Y2]))
        err = thompson_distance(res.mean, star_geodesic(Y1, Y2, 0.5))
        worst = max(worst, err)
    assert worst <= 1e-7
    report(1, "two-point mean identity", f"max dT error {worst:.2e} <= 1e-7")


def test_criterion_02_weighted_reduction():
    rng = np.random.default_rng(102)
    worst = 0.0
    for k in (3, 4, 5):
        for l in range(0, k + 1):
            for _ in range(20):
                n = int(rng.integers(2, 13))
                Y1, Y2 = spd_family(rng, 2, n)
                pts = [Y1] * (k - l) + [Y2] * l
                res = inductive_mean(MeanProblem(pts))
                err = thompson_distance(res.mean, star_geodesic(Y1, Y2, l / k))
                worst = max(worst, err)
    assert worst <= 1e-6
    report(2, "weighted reduction", f"max dT error {worst:.2e} <= 1e-6")


def test_criterion_03_initialization_independence():
    rng = np.random.default_rng(103)
    worst_pair = 0.0
    worst_resid = 0.0
    for trial in range(50):
        k = 3 if trial % 2 == 0 else 5
        n = int(rng.integers(3, 21))
        pts = spd_family(rng, k, n)
        inits = [None, pts[0], SpdMatrix(float(rng.uniform(0.5, 3.0)) * np.eye(n))]
        results = [inductive_mean(MeanProblem(pts, init=i)) for i in inits]
        for r in results:
            worst_resid = max(worst_resid, r.residual_norm)
        for a in results:
            for b in results:
                worst_pair = max(worst_pair, thompson_distance(a.mean, b.mean))
    assert worst_pair <= 1e-6
    assert worst_resid <= 1e-8
    report(3, "initialization independence",
           f"max pairwise dT {worst_pair:.2e} <= 1e-6, max residual {worst_resid:.2e} <= 1e-8")


def test_criterion_04_mean_property_suite():
    rng = np.random.default_rng(104)
    worst_perm = worst_affine = worst_homog = 0.0
    for trial in range(50):
        k = int(rng.integers(3, 6))
        n = int(rng.integers(2, 11))
        pts = spd_family(rng, k, n)
        M = inductive_mean(MeanProblem(pts)).mean

        perm = rng.permutation(k)
        Mp = inductive_mean(MeanProblem([pts[j] for j in perm])).mean
        worst_perm = max(worst_perm, thompson_distance(M, Mp))

        # congruence transform with condition <= 100
        Q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        Q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = Q1 @ np.diag(10.0 ** rng.uniform(-1, 1, n)) @ Q2
        Ma = inductive_mean(MeanProblem([SpdMatrix(A @ p.dense() @ A.T) for p in pts])).mean
        ref = A @ M.dense() @ A.T
        worst_affine = max(
            worst_affine, np.linalg.norm(Ma.dense() - ref) / np.linalg.norm(ref)
        )

        cs = rng.uniform(0.2, 5.0, k)
        Mh = inductive_mean(MeanProblem([p.scaled(float(c)) for p, c in zip(pts, cs)])).mean
        ref_h = float(np.prod(cs)) ** (1.0 / k) * M.dense()
        worst_homog = max(
            worst_homog, np.linalg.norm(Mh.dense() - ref_h) / np.linalg.norm(ref_h)
        )
    assert worst_perm <= 1e-6
    assert worst_affine <= 1e-7
    assert worst_homog <= 1e-8
    report(4, "mean property suite",
           f"permutation {worst_perm:.2e} <= 1e-6, affine {worst_affine:.2e} <= 1e-7, "
           f"homogeneity {worst_homog:.2e} <= 1e-8")


def test_criterion_05_riemannian_star_coincidence():
    rng = np.random.default_rng(105)
    ts = [round(0.1 * j, 1) for j in range(1, 10)]
    worst = 0.0
    for _ in range(500):
        X, Y = spd_family(rng, 2, 2, spread=2.0)
        for t in ts:
            R = riemannian_geodesic(X, Y, t).dense()
            S = star_geodesic(X, Y, t).dense()
            worst = max(worst, np.linalg.norm(R - S) / np.linalg.norm(R))
    assert worst <= 1e-9
    # two-distinct-eigenvalue family in n = 5
    worst5 = 0.0
    for _ in range(50):
        X = random_spd(5, rng)
        w, V = np.linalg.eigh(X.dense())
        Xh = (V * np.sqrt(w)) @ V.T
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        lo, hi = np.exp(rng.uniform(-1.5, 0)), np.exp(rng.uniform(0, 1.5))
        D = (Q * np.array([hi, hi, lo, lo, lo])) @ Q.T
        Y = SpdMatrix(Xh @ D @ Xh)
        for t in (0.25, 0.5, 0.75):
            R = riemannian_geodesic(X, Y, t).dense()
            S = star_geodesic(X, Y, t).dense()
            worst5 = max(worst5, np.linalg.norm(R - S) / np.linalg.norm(R))
    assert worst5 <= 1e-9
    report(5, "2x2 and two-eigenvalue coincidence",
           f"2x2 rel dev {worst:.2e} <= 1e-9, n=5 family {worst5:.2e} <= 1e-9")


def test_criterion_06_geodesic_axioms():
    rng = np.random.default_rng(106)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    worst_path = 0.0
    worst_prop = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        X, Y = spd_family(rng, 2, n)
        d = thompson_distance(X, Y)
        base = extreme_pair(X, Y)
        for family in (star_geodesic, diamond_geodesic):
            pts = {t: family(X, Y, t) for t in grid}
            for a in range(len(grid)):
                for b in range(a + 1, len(grid)):
                    s, t = grid[a], grid[b]
                    dd = thompson_distance(pts[s], pts[t])
                    worst_path = max(worst_path, abs(dd - (t - s) * d))
        for t in (0.25, 0.5, 0.75):
            prop = extreme_pair(X, star_geodesic(X, Y, t))
            worst_prop = max(
                worst_prop,
                abs(prop.beta - base.beta ** t) / base.beta ** t,
                abs(prop.alpha - base.alpha ** t) / base.alpha ** t,
            )
    assert worst_path <= 1e-8
    assert worst_prop <= 1e-8
    report(6, "geodesic axioms",
           f"path property {worst_path:.2e} <= 1e-8, pencil propagation {worst_prop:.2e} <= 1e-8")


def test_criterion_07_contraction_inequalities():
    rng = np.random.default_rng(107)
    worst_h = worst_t = -math.inf
    for trial in range(200):
        R = (0.5, 1.0, 2.0)[trial % 3]
        n = int(rng.integers(2, 13))
        U = random_spd(n, rng)
        Zx, Zy = spd_family(rng, 2, n, spread=2.0)
        tx = min(1.0, 0.95 * R / max(hilbert_distance(U, Zx), 1e-12)) * rng.uniform(0.2, 1.0)
        ty = min(1.0, 0.95 * R / max(hilbert_distance(U, Zy), 1e-12)) * rng.uniform(0.2, 1.0)
        Xm = star_geodesic(U, Zx, tx)
        Ym = star_geodesic(U, Zy, ty)
        assert hilbert_distance(U, Xm) <= R + 1e-9
        assert hilbert_distance(U, Ym) <= R + 1e-9
        dH = hilbert_distance(Xm, Ym)
        dT = thompson_distance(Xm, Ym)
        for s in (0.25, 0.5, 0.75):
            Gx = star_geodesic(U, Xm, s)
            Gy = star_geodesic(U, Ym, s)
            fac = (1 - math.exp(-R * s)) / (1 - math.exp(-R))
            gap_h = hilbert_distance(Gx, Gy) - fac * dH
            gap_t = thompson_distance(Gx, Gy) - (2 * fac - s) * dT
            worst_h = max(worst_h, gap_h)
            worst_t = max(worst_t, gap_t)
    assert worst_h <= 1e-8
    assert worst_t <= 1e-8
    report(7, "contraction inequalities",
           f"max Hilbert-bound gap {worst_h:.2e} <= 1e-8, max Thompson-bound gap {worst_t:.2e} <= 1e-8")


def test_criterion_08_eigensolver_oracle_equivalence():
    rng = np.random.default_rng(108)
    worst = 0.0
    for trial in range(500):
        n = int(rng.integers(2, 65))
        spread = float(rng.uniform(0.3, 9.21))  # matrix condition up to ~1e8
        X, Y = spd_family(rng, 2, n, spread=spread)
        tol = 1e-10 if spread <= 6.0 else 1e-9  # rounding floor rises with conditioning
        ed = extreme_pair(X, Y, EigenOptions(backend="dense", tol=tol))
        ei = extreme_pair(X, Y, EigenOptions(backend="iterative", seed=trial, tol=tol))
        worst = max(
            worst,
            abs(ei.alpha - ed.alpha) / ed.alpha,
            abs(ei.beta - ed.beta) / ed.beta,
        )
    assert worst <= 1e-8

    # large sparse smoke: residual certified, no dense n x n allocation
    n = 2000
    Xs = random_sparse_spd(n, 0.01, rng)
    Ys = random_sparse_spd(n, 0.01, rng)
    tracemalloc.start()
    e = extreme_pair(Xs, Ys, EigenOptions(seed=7, tol=1e-10))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    dense_bytes = n * n * 8
    assert e.backend == "iterative"
    assert max(e.residuals) <= 1e-10
    assert peak < 0.8 * dense_bytes
    report(8, "eigensolver oracle equivalence",
           f"max rel deviation {worst:.2e} <= 1e-8 over 500 pairs; n=2000 smoke residual "
           f"{max(e.residuals):.1e} <= 1e-10 with peak {peak / 1e6:.1f}MB < dense 32MB")


def _random_tridiagonal_spd(rng, n):
    off = rng.uniform(-0.9, 0.9, n - 1)
    diag = np.abs(np.r_[off, 0]) + np.abs(np.r_[0, off]) + rng.uniform(0.5, 1.5, n)
    return SpdMatrix(sp.diags([off, diag, off], [-1, 0, 1]).tocoo())


def _connected_sparse_spd(rng, n, extra):
    """Sparse SPD whose off-diagonal graph is one ring plus a few chords."""
    rows = list(range(1, n)) + [n - 1]
    cols = list(range(0, n - 1)) + [0]
    have = set(zip(rows, cols))
    while len(have) < n + extra:
        i = int(rng.integers(2, n))
        j = int(rng.integers(0, i - 1))
        if (i, j) not in have and (i, j) not in ((n - 1, 0),):
            have.add((i, j))
            rows.append(i)
            cols.append(j)
    vals = rng.uniform(0.2, 1.0, len(rows)) * rng.choice([-1.0, 1.0], len(rows))
    G = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    G = (G + G.T).tocsr()
    weights = np.asarray(np.abs(G).sum(axis=1)).ravel()
    return SpdMatrix((G + sp.diags(weights + rng.uniform(0.3, 0.8, n))).tocoo())


def test_criterion_09_sparsity_and_structure():
    rng = np.random.default_rng(109)
    # mean of 5 tridiagonal 50 x 50 inputs: pattern exactly tridiagonal
    pts = [_random_tridiagonal_spd(rng, 50) for _ in range(5)]
    M = inductive_mean(MeanProblem(pts)).mean
    assert M.is_sparse
    r, c = M.lower_pattern()
    assert np.all((r - c >= 0) & (r - c <= 1))
    expect = 50 + 49  # full diagonal and subdiagonal present
    assert len(r) == expect
    # mean of 4 Toeplitz inputs: Toeplitz within 1e-9 entrywise
    toe = []
    for _ in range(4):
        col = np.zeros(20)
        col[0] = 20.0
        col[1:] = rng.uniform(-0.8, 0.8, 19)
        toe.append(SpdMatrix(toeplitz(col)))
    Mt = inductive_mean(MeanProblem(toe)).mean.dense()
    worst_toe = 0.0
    for off in range(1, 20):
        diag = np.diagonal(Mt, offset=off)
        worst_toe = max(worst_toe, float(np.max(np.abs(diag - diag[0]))))
    assert worst_toe <= 1e-9
    # star geodesic outputs never exceed the union pattern (structural)
    for _ in range(20):
        X = random_sparse_spd(40, 0.06, rng)
        Y = random_sparse_spd(40, 0.06, rng)
        union = ((X.raw() != 0) + (Y.raw() != 0)).astype(bool)
        for t in (0.2, 0.5, 0.8):
            G = star_geodesic(X, Y, t)
            assert (G.raw().astype(bool) > union).nnz == 0
    # Riemannian interpolation of a connected sparse pair fills in
    # (20 x 20 with 68 stored nonzeros; fill-in needs a connected graph)
    Xf = _connected_sparse_spd(rng, 20, extra=4)
    Yf = _connected_sparse_spd(rng, 20, extra=4)
    assert Xf.nnz == 68
    R = riemannian_geodesic(Xf, Yf, 0.5)
    S = star_geodesic(Xf, Yf, 0.5)
    assert R.nnz > 0.5 * 20 * 20
    assert S.nnz <= ((Xf.raw() != 0) + (Yf.raw() != 0)).nnz
    report(9, "sparsity and structure",
           f"tridiagonal exact, Toeplitz dev {worst_toe:.2e} <= 1e-9, star within union, "
           f"riemannian fill {R.nnz}/{20 * 20} vs star {S.nnz}")


def test_criterion_10_metric_invariances():
    rng = np.random.default_rng(110)
    worst_aff = worst_inv = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 11))
        X, Y = spd_family(rng, 2, n)
        A = rng.standard_normal((n, n))
        AX, AY = SpdMatrix(A @ X.dense() @ A.T), SpdMatrix(A @ Y.dense() @ A.T)
        Xi, Yi = SpdMatrix(np.linalg.inv(X.dense())), SpdMatrix(np.linalg.inv(Y.dense()))
        for dist in (thompson_distance, riemannian_distance):
            worst_aff = max(worst_aff, abs(dist(AX, AY) - dist(X, Y)))
            worst_inv = max(worst_inv, abs(dist(Xi, Yi) - dist(X, Y)))
    assert worst_aff <= 1e-8
    assert worst_inv <= 1e-8
    worst_proj = 0.0
    for _ in range(10):
        X = random_spd(int(rng.integers(2, 9)), rng)
        for cc in (1e-3, 1.0, 1e3):
            worst_proj = max(worst_proj, hilbert_distance(X, X.scaled(cc)))
    assert worst_proj <= 1e-9
    worst_tri = -math.inf
    metrics = [
        thompson_distance,
        riemannian_distance,
        lambda a, b: phi_distance(a, b, 1.0),
        lambda a, b: phi_distance(a, b, 3.0),
    ]
    for _ in range(500):
        n = int(rng.integers(2, 9))
        X, Y = spd_family(rng, 2, n)
        Z = random_spd(n, rng)
        for dist in metrics:
            worst_tri = max(worst_tri, dist(X, Z) - dist(X, Y) - dist(Y, Z))
    assert worst_tri <= 1e-9
    report(10, "metric invariances",
           f"affine {worst_aff:.2e}, inversion {worst_inv:.2e} <= 1e-8, projective "
           f"{worst_proj:.2e} <= 1e-9, triangle violation {worst_tri:.2e} <= 1e-9")


# -- independent scalar-orthant implementation (criterion 11 oracle) ---------
# The positive orthant with entrywise ratios is the one-dimensional-cone
# analogue of the SPD cone: alpha and beta are the min and max ratios.
# Everything below is pure Python floats and shares no code with spdcone.


def _orthant_m_o(a, b):
    d = math.log(b) - math.log(a)
    if d <= 1e-12:
        return 1.0 / a, math.log(a) - 1.0
    em = math.expm1(d)
    return d / (a * em), math.log(a) - d / em


def _orthant_extremes(y, x):
    ratios = [yi / xi for yi, xi in zip(y, x)]
    return min(ratios), max(ratios)


def _orthant_star(x, y, t):
    a, b = _orthant_extremes(y, x)
    d = math.log(b) - math.log(a)
    if d <= 1e-12:
        phi, psi = t * a ** (t - 1.0), (1.0 - t) * a ** t
    else:
        em = math.expm1(d)
        phi = a ** (t - 1.0) * math.expm1(t * d) / em
        psi = -b * a ** (t - 1.0) * math.expm1((t - 1.0) * d) / em
    return [phi * yi + psi * xi for xi, yi in zip(x, y)]


def _orthant_algorithm1(vectors, cycles):
    k = len(vectors)
    n = len(vectors[0])
    x = [sum(v[i] for v in vectors) / k for i in range(n)]
    i = 1
    for _ in range(cycles):
        for v in vectors:
            x = _orthant_star(x, v, 1.0 / (i + 1.0))
            i += 1
    return x


def _orthant_mean(vectors, tol=1e-14, rounds=500):
    """Limit of the orthant inductive sequence via its root equation."""
    k = len(vectors)
    n = len(vectors[0])
    x = [sum(v[i] for v in vectors) / k for i in range(n)]
    for _ in range(rounds):
        ms = []
        for v in vectors:
            a, b = _orthant_extremes(v, x)
            ms.append(_orthant_m_o(a, b)[0])
        tot = sum(ms)
        xn = [sum(m * v[i] for m, v in zip(ms, vectors)) / tot for i in range(n)]
        ratios = [xn_i / x_i for xn_i, x_i in zip(xn, x)]
        x = xn
        if math.log(max(ratios) / min(ratios)) < tol:
            break
    msum = osum = 0.0
    for v in vectors:
        a, b = _orthant_extremes(v, x)
        m, o = _orthant_m_o(a, b)
        msum += m
        osum += o
    c = math.exp((msum + osum) / k)
    return [c * xi for xi in x]


def test_criterion_11_diagonal_orthant_oracle():
    rng = np.random.default_rng(111)
    # the oracle's own limit agrees with a long raw run of the recurrence
    vecs = [[2.0, 0.5, 1.0], [1.0, 3.0, 0.25], [0.5, 1.0, 4.0]]
    ref = _orthant_mean(vecs)
    raw = _orthant_algorithm1(vecs, 4000)
    assert max(abs(a - b) / b for a, b in zip(raw, ref)) <= 2e-3

    tight = MeanOptions(eigen=EigenOptions(tol=1e-12))
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(2, 21))
        vectors = [list(np.exp(rng.uniform(-1.5, 1.5, n))) for _ in range(k)]
        pts = [SpdMatrix(np.diag(v)) for v in vectors]
        M = inductive_mean(MeanProblem(pts, opts=tight)).mean.dense()
        oracle = _orthant_mean(vectors)
        err = max(abs(M[i, i] - oracle[i]) / oracle[i] for i in range(n))
        worst = max(worst, err)
    assert worst <= 1e-10
    report(11, "diagonal orthant oracle",
           f"max per-entry rel deviation {worst:.2e} <= 1e-10 over 50 instances")
