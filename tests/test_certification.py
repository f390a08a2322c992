"""SPD certification at the SpdMatrix boundary, and one factorization per matrix."""

import gc
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import spdcone.core
import spdcone.eigen
from spdcone import (
    EigenOptions,
    MeanProblem,
    SpdMatrix,
    extreme_pair,
    inductive_mean,
    random_sparse_spd,
    random_spd,
    riemannian_geodesic,
    thompson_distance,
)
from spdcone.errors import InvalidMatrix, NotPositiveDefinite, NumericalBreakdown, SpdConeError
from spdcone.mean import _Stack

from conftest import factor_error, sparse_pair, spd_pair


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

    @pytest.mark.parametrize("matrix", [
        # Hermitian with eigenvalues 1 and 3: a float cast keeps 2 I and certifies it
        np.array([[2.0, 1j], [-1j, 2.0]]),
        sp.csr_matrix(np.array([[2.0, 1j], [-1j, 2.0]])),
        "abc",
        [["1", "0"], ["0", "1"]],
        np.eye(2, dtype=object),
    ], ids=["complex", "complex-sparse", "string", "strings", "object"])
    def test_non_real_dtype_rejected(self, matrix):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before numpy's ComplexWarning
            with pytest.raises(InvalidMatrix, match="is not bool, integer or float"):
                SpdMatrix(matrix)

    @pytest.mark.parametrize("make", [np.asarray, _sparse])
    def test_empty_rejected(self, make):
        with pytest.raises(InvalidMatrix):
            SpdMatrix(make(np.zeros((0, 0))))

    def test_singular_below_rounding_rejected(self):
        # lambda_min of the stored floats is about -6e-18 (50-digit mpmath):
        # indefinite, yet every Cholesky pivot clears 1e-14; only the
        # smallest-eigenvalue estimate sees it
        with pytest.raises(NumericalBreakdown):
            SpdMatrix(_below_rounding())

    def test_fewer_entries_than_rows_rejected_before_building(self):
        # 1e14 rows and no entry: n + 1 CSR row pointers would take 728 TiB
        tracemalloc.start()
        try:
            with pytest.raises(NotPositiveDefinite) as exc:
                SpdMatrix(sp.coo_matrix((10**14, 10**14)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert exc.value.pivot_index == 1 and "diagonal entry" in str(exc.value)
        # the pivot is the one the check of the built matrix reports: the
        # first summed stored diagonal entry that is not > 0
        for rows, values, pivot in [([0, 1, 1], [1.0, 0.5, -0.5], 2),
                                    ([2, 0, 3], [1.0, 1.0, 1.0], 2),
                                    ([1, 0, 2], [1.0, 1.0, 1.0], 4),
                                    ([0, 0, 1], [-1.0, 2.0, 1.0], 3)]:
            A = sp.coo_matrix((values, (rows, rows)), shape=(5, 5))
            with pytest.raises(NotPositiveDefinite) as exc:
                SpdMatrix(A)
            with pytest.raises(NotPositiveDefinite) as built:
                SpdMatrix._canonical(A.tocsr()).chol()
            assert exc.value.pivot_index == built.value.pivot_index == pivot

    def test_unchecked_wrap_certifies_on_use(self):
        X = SpdMatrix._canonical(np.diag([1.0, -2.0]))
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

    def test_superlu_reads_the_stored_arrays(self, rng, monkeypatch):
        # an exactly symmetric CSR matrix, read as CSC, is the same matrix:
        # SuperLU gets the stored arrays themselves, and leaves them as they
        # were, for a stored matrix and for a mean's first iterate alike
        Y = random_sparse_spd(300, 0.02, rng)
        stack = _Stack([random_sparse_spd(300, 0.02, rng) for _ in range(3)])
        seen = []
        original = spdcone.core._factor_sparse

        def spy(A, q=None):
            seen.append(A)
            return original(A, q)

        monkeypatch.setattr(spdcone.core, "_factor_sparse", spy)
        X = SpdMatrix._canonical(Y.raw())
        M = stack.matrix(stack.combination(np.full(3, 1.0 / 3.0)))
        stored = [(m.raw(), m.raw().data.copy()) for m in (X, M)]
        X.chol()
        assert len(seen) == 2 and M.certified and X.certified
        for A, (S, data) in zip(seen[::-1], stored):
            assert A.format == "csc"
            assert np.shares_memory(A.data, S.data) and np.shares_memory(A.indices, S.indices)
            np.testing.assert_array_equal(S.data, data)

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

    @pytest.mark.filterwarnings("error")
    def test_largest_float_sparse_certifies_like_dense(self, breakdown_checks):
        # max/2 (I + J): lambda_min = max/2, and every row sum overflows, so
        # no Gershgorin proof; the inverse-iteration check once solved for a
        # right-hand side of norm max, which overflowed SuperLU's solve to
        # inf and read as lambda_min = 0
        A = np.full((4, 4), _BIG / 2) + np.diag([_BIG / 2] * 4)
        assert _verdict(sp.csr_matrix(A)) == _verdict(A) == "certified"
        assert len(breakdown_checks) == 2

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
    assert factor_error(X) <= 1e-12


_BIG = np.finfo(float).max
_TOEPLITZ = {"X": ([-0.6, 0.25, -0.1, 0.05, -0.02], 0.2), "Y": ([0.4, -0.3, 0.2, -0.1, 0.05], 0.5)}


def _tridiagonal(n, off, diagonal):
    return sp.diags([[off] * (n - 1), [diagonal] * n, [off] * (n - 1)], [-1, 0, 1])


def _banded(n, bandwidth, rng):
    """Random symmetric banded matrix made strictly diagonally dominant."""
    G = sp.diags([rng.uniform(-1.0, 1.0, n - k) for k in range(1, bandwidth + 1)],
                 list(range(-1, -bandwidth - 1, -1)), shape=(n, n))
    G = G + G.T
    return G + sp.diags(np.asarray(abs(G).sum(axis=1)).ravel() + rng.uniform(0.5, 1.5, n))


def _grid(m, shift):
    """L + shift I, L the 5-point Dirichlet Laplacian on an m x m grid."""
    T = _tridiagonal(m, -1.0, 2.0)
    return sp.kronsum(T, T) + shift * sp.identity(m * m)


def _toeplitz(n, side):
    """Banded Toeplitz matrix whose symbol is bounded below by its margin;
    of order n < 6, its leading n x n block."""
    coeffs, margin = _TOEPLITZ[side]
    k = list(range(1, min(len(coeffs), n - 1) + 1))
    return sp.diags([2.0 * np.abs(coeffs).sum() + margin] + coeffs[:len(k)] * 2,
                    [0] + k + [-j for j in k], shape=(n, n))


def _below_rounding():
    """A symmetric 5 x 5 matrix with lambda_min about -6e-18."""
    Q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((5, 5)))
    A = (Q * [-1e-17, 1e-9, 1.0, 1.0, 1.0]) @ Q.T
    return np.tril(A) + np.tril(A, -1).T


# name: (matrix from a generator, whether Gershgorin proves it)
CORPUS = {
    "random": (lambda rng: random_sparse_spd(300, 0.02, rng).raw(), True),
    "banded": (lambda rng: _banded(500, 5, rng), True),
    "grid L + 0.1 I": (lambda rng: _grid(16, 0.1), True),
    "grid L + I": (lambda rng: _grid(16, 1.0), True),
    "Toeplitz X": (lambda rng: _toeplitz(200, "X"), True),
    "Toeplitz Y": (lambda rng: _toeplitz(200, "Y"), True),
    "largest diagonal, coupled": (lambda rng: _tridiagonal(6, _BIG / 4, _BIG), True),
    "subnormal couplings at 1e-300": (lambda rng: _tridiagonal(6, 5e-324, 1e-300), True),
    "not dominant": (lambda rng: _tridiagonal(40, -1.0, 2.0) @ _tridiagonal(40, -1.0, 2.0)
                     + 0.01 * sp.identity(40), False),
    "indefinite": (lambda rng: _tridiagonal(40, -1.0, 1.5), False),
    "row swap": (lambda rng: [[2.0, -1.0, -2.0], [-1.0, 2.0, 2.0], [-2.0, 2.0, 2.0]], False),
    "below rounding": (lambda rng: _below_rounding(), False),
    "scaled(1e-310)": (lambda rng: random_sparse_spd(30, 0.1, rng).scaled(1e-310).raw(), False),
    # a margin of 0 against a threshold of tiny: the pivots decide
    "smallest normal diagonal": (lambda rng: _tridiagonal(6, 5e-324, np.finfo(float).tiny),
                                 False),
    # every row sum overflows to inf
    "largest off-diagonals": (lambda rng: np.full((4, 4), _BIG / 2) + np.diag([_BIG / 2] * 4),
                              False),
}


def _verdict(A):
    try:
        SpdMatrix(A)
    except (NotPositiveDefinite, NumericalBreakdown) as exc:
        return type(exc), exc.pivot_index
    return "certified"


def _pivot_path(monkeypatch):
    """Certify every sparse matrix by its pivots, as if no Gershgorin test ran."""
    monkeypatch.setattr(spdcone.core, "_gershgorin_proves", lambda A: False)


@pytest.fixture
def breakdown_checks(monkeypatch):
    """List that gains one entry per core._check_breakdown call."""
    calls = []
    original = spdcone.core._check_breakdown

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(spdcone.core, "_check_breakdown", counting)
    return calls


class TestGershgorinCertificate:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("storage", ["sparse", "dense"])
    @pytest.mark.parametrize("name", CORPUS)
    def test_same_verdict_as_the_pivot_path(self, name, storage, breakdown_checks, monkeypatch):
        # float-range extremes included: no numpy warning on either path;
        # one proof rule in core._factor serves both storages
        make, proven = CORPUS[name]
        A = sp.csr_matrix(make(np.random.default_rng(5)))
        if storage == "dense":
            A = A.toarray()
        verdict = _verdict(A)
        checks = len(breakdown_checks)
        breakdown_checks.clear()
        _pivot_path(monkeypatch)
        assert _verdict(A) == verdict
        if proven:
            assert verdict == "certified" and checks == 0 and breakdown_checks
        else:
            assert checks == len(breakdown_checks)
        if name == "not dominant":
            assert verdict == "certified" and checks

    @pytest.mark.parametrize("pencil", [("random", "random"), ("banded", "banded"),
                                        ("grid L + 0.1 I", "grid L + I"),
                                        ("Toeplitz X", "Toeplitz Y")])
    def test_pencils_bit_identical_on_the_pivot_path(self, pencil, monkeypatch):
        # the same SuperLU factor either way, so the same solves
        rng = np.random.default_rng(6)
        raws = [CORPUS[name][0](rng) for name in pencil]
        opts = EigenOptions(backend="iterative", seed=3)
        e = extreme_pair(*map(SpdMatrix, raws), opts)
        _pivot_path(monkeypatch)
        ref = extreme_pair(*map(SpdMatrix, raws), opts)
        assert e == ref
        for v, w in zip(e.vectors, ref.vectors):
            np.testing.assert_array_equal(v, w)

    def test_dominant_factor_caches_no_csc_copies(self, rng):
        # reading the pivots through lu.U caches CSC copies of L and U on
        # the held factor, about 5 MB here
        A = random_sparse_spd(4000, 3 / 4000, rng).raw()
        gc.collect()
        tracemalloc.start()
        try:
            X = SpdMatrix._canonical(A)
            X.chol()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert X.certified and retained < 1_000_000


class TestDenseGershgorin:
    @pytest.mark.parametrize("zeros", [False, True])
    def test_a_dense_proof_is_a_sparse_one(self, zeros):
        # the dense branch sums each column as the sparse one does, with a
        # slack (n + 2) eps no smaller than (m_i + 2) eps: what it proves,
        # the sparse branch proves, and away from the boundary they agree
        rng = np.random.default_rng(9)
        proofs = 0
        for n in (1, 2, 5, 30, 120):
            for near in (-1e-6, -1e-13, 0.0, 1e-13, 1e-6, 0.5):
                off = rng.uniform(-1.0, 1.0, (n, n))
                if zeros:
                    off[rng.random((n, n)) < 0.7] = 0.0
                off = np.tril(off, -1)
                off = off + off.T
                s = np.abs(off).sum(axis=1)
                scale = max(s.max(), 1.0)
                d = rng.uniform(0.01, 1.0, n) * scale
                d[rng.integers(n)] = near * scale
                A = off + np.diag(s + d)
                dense = spdcone.core._gershgorin_proves(A)
                sparse = spdcone.core._gershgorin_proves(sp.csc_matrix(A))
                assert sparse or not dense
                t = spdcone.core._breakdown_threshold(A.diagonal())
                if abs((np.diag(A) - s - t).min()) > 1e-10 * np.abs(np.diag(A)).max():
                    assert dense == sparse, (n, near)
                proofs += dense
        assert proofs >= 10

    def test_an_overflowing_row_sum_declines_without_a_warning(self):
        every_row_overflows = np.full((4, 4), _BIG / 2) + np.diag([_BIG / 2] * 4)
        largest_diagonal = _tridiagonal(6, _BIG / 4, _BIG).toarray()
        with np.errstate(all="raise"):
            assert not spdcone.core._gershgorin_proves(every_row_overflows)
            assert spdcone.core._gershgorin_proves(largest_diagonal)

    def test_a_dominant_dense_matrix_needs_no_pivot_path(self, breakdown_checks):
        rng = np.random.default_rng(7)
        G = np.tril(rng.uniform(-1.0, 1.0, (48, 48)), -1)
        G = G + G.T
        X = SpdMatrix(G + np.diag(np.abs(G).sum(axis=1) + 0.5))
        assert X.certified and not breakdown_checks
        random_spd(48, rng)
        assert len(breakdown_checks) == 1


def _small_pencil(kind, n, rng):
    """Sparse (X, Y) of order n >= 1: random, banded or Toeplitz."""
    if kind == "random":
        return random_sparse_spd(n, 0.05, rng).raw(), random_sparse_spd(n, 0.05, rng).raw()
    if kind == "Toeplitz":
        return _toeplitz(n, "X"), _toeplitz(n, "Y")
    if n == 1:  # a banded matrix of order 1 is its diagonal
        return tuple(sp.csr_matrix(rng.uniform(0.5, 1.5, (1, 1))) for _ in "XY")
    return _banded(n, min(5, n - 1), rng), _banded(n, min(5, n - 1), rng)


def _small_sparse_pencils():
    """(name, X raw, Y raw): random, banded and Toeplitz pencils of order 1
    to eigen._SMALL, as drawn and scaled by 1e150 and 1e-150, and each
    sparse corpus member of that order against its own scaled diagonal,
    either side."""
    rng = np.random.default_rng(8)
    for kind in ("random", "banded", "Toeplitz"):
        for n in (1, 2, 3, 7, 40, 120, spdcone.eigen._SMALL):
            X, Y = _small_pencil(kind, n, rng)
            for scale in (1.0, 1e150, 1e-150):
                yield f"{kind} n={n} x{scale:g}", X * scale, Y * scale
    for name, (make, _) in CORPUS.items():
        A = make(rng)
        if not sp.issparse(A) or A.shape[0] > spdcone.eigen._SMALL:
            continue
        D = sp.diags(A.diagonal() * rng.uniform(0.5, 1.0, A.shape[0]))
        yield f"{name} / diagonal", A, D
        yield f"diagonal / {name}", D, A


def _outcome(X, Y, backend):
    try:
        return extreme_pair(X, Y, EigenOptions(backend=backend))
    except SpdConeError as exc:
        return type(exc)


class TestSmallSparsePencilsDense:
    @pytest.mark.filterwarnings("error")
    def test_auto_is_dense_and_agrees_with_iterative(self):
        # auto reduces these sparse pencils densely, re-factoring X by
        # potrf: every certified X factors there too, and auto raises
        # only what the iterative backend raises
        seen = 0
        for name, X, Y in _small_sparse_pencils():
            try:
                X, Y = SpdMatrix(X), SpdMatrix(Y)
            except SpdConeError:
                continue  # rejected before any pencil exists
            assert X.is_sparse and Y.is_sparse, name
            auto = _outcome(X, Y, "auto")
            ref = _outcome(X, Y, "iterative")
            if isinstance(auto, type):
                assert auto is ref, name
                continue
            assert (auto.backend, auto.proven, auto.iterations) == (
                "dense", (True, True), (0, 0)), name
            if isinstance(ref, type):
                # the pencil scaled by a power of two has the same spectrum
                Xd, Yd = X.dense(), Y.dense()
                shift = -np.frexp(max(abs(Xd).max(), abs(Yd).max()))[1]
                w = eigh(np.ldexp(Yd, shift), np.ldexp(Xd, shift), eigvals_only=True)
                expect = w[0], w[-1]
            else:
                seen += 1
                expect = ref.alpha, ref.beta
            assert (auto.alpha, auto.beta) == pytest.approx(expect, rel=1e-8), name
        assert seen == 73  # every pencil, those at the largest float too


class TestLargestFloatPencils:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1.0, 0.75, 0.5])
    @pytest.mark.parametrize("storage", ["sparse", "dense"])
    def test_against_its_own_diagonal(self, storage, scale):
        # at scale 1 dsygst overflowed on Y's entries, and extreme_pair gave
        # alpha = beta = 0 as proven; at every scale the residual products of
        # a unit vector overflowed to inf
        A = CORPUS["largest diagonal, coupled"][0](None)
        X = SpdMatrix(A if storage == "sparse" else A.toarray())
        Y = SpdMatrix(np.diag(A.diagonal() * scale))
        e = extreme_pair(X, Y)
        w = eigh(np.ldexp(Y.dense(), -600), np.ldexp(X.dense(), -600), eigvals_only=True)
        assert (e.alpha, e.beta) == pytest.approx((w[0], w[-1]), rel=1e-14)
        assert e.proven == (True, True) and max(e.residuals) <= 1e-15
        assert thompson_distance(X, Y) == pytest.approx(max(np.log(w[-1]), -np.log(w[0])),
                                                        rel=1e-14)
        # the reduction scales its copies only: X's factor comes back as is
        C, L = spdcone.core._reduce(Y, X)
        half = np.ldexp(L, -511)
        np.testing.assert_allclose(half @ half.T, np.ldexp(X.dense(), -1022), rtol=0,
                                   atol=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1.0, 0.75, 0.5])
    @pytest.mark.parametrize("storage", ["sparse", "dense"])
    def test_iterative_against_its_own_diagonal(self, storage, scale):
        # the X-norm q . X q of a start vector overflowed to inf, and the
        # solve raised NoConvergence after numpy's overflow warning
        A = CORPUS["largest diagonal, coupled"][0](None)
        X = SpdMatrix(A if storage == "sparse" else A.toarray())
        Y = SpdMatrix(np.diag(A.diagonal() * scale))
        w = eigh(np.ldexp(Y.dense(), -600), np.ldexp(X.dense(), -600), eigvals_only=True)
        for P, Q, ends in ((X, Y, (w[0], w[-1])), (Y, X, (1 / w[-1], 1 / w[0]))):
            e = extreme_pair(P, Q, EigenOptions(backend="iterative"))
            assert (e.alpha, e.beta) == pytest.approx(ends, rel=1e-14)
            assert max(e.residuals) <= 1e-15

    @pytest.mark.filterwarnings("error")
    def test_riemannian_midpoint_against_its_own_diagonal(self):
        # R + R^T overflowed although the midpoint is finite
        A = CORPUS["largest diagonal, coupled"][0](None)
        X, D = SpdMatrix(A), SpdMatrix(np.diag(A.diagonal()))
        M = riemannian_geodesic(X, D, 0.5).dense()
        assert 1.7e308 < np.abs(M).max() < np.inf
        # the geometric mean: M X^-1 M = D, at a scale where the products are finite
        Mh, Xh, Dh = (np.ldexp(a, -1000) for a in (M, X.dense(), D.dense()))
        assert np.linalg.norm(Mh @ np.linalg.solve(Xh, Mh) - Dh) <= 1e-14 * np.linalg.norm(Dh)


def _near_boundary(off, ks):
    """CSC matrix with the symmetric off-diagonal part ``off`` and diagonal
    entries (s_i + t)(1 + k_i 2^-52), rounded once: s_i the exact sum of
    |off| in row i, t the breakdown threshold of the largest s_i."""
    s = [sum(map(Fraction, np.abs(row))) for row in off]
    t = Fraction(spdcone.core._breakdown_threshold(np.array([float(max(s))])))
    diagonal = [float((si + t) * (1 + Fraction(k, 2**52))) for si, k in zip(s, ks)]
    return sp.csc_matrix(off + np.diag(diagonal))


def _summed_below(scale):
    # row 0 sums scale + 6 * (7/16 ulp) to scale in floats, so its margin
    # is short of t by about an ulp; the other rows clear theirs by far
    off = np.zeros((8, 8))
    off[1:, 0] = off[0, 1:] = [scale] + [7 / 16 * np.spacing(scale)] * 6
    return _near_boundary(off, [-1] + [1 << 20] * 7)


@st.composite
def near_gershgorin_boundary(draw):
    """Sparse symmetric matrices with one diagonal entry a few units in the
    last place from the exact Gershgorin boundary s_i + t, at tiny, unit
    and huge scale, with terms whose float sums round either way: a term
    under half an ulp of the sum before it is lost."""
    n = draw(st.integers(1, 7))
    scale = draw(st.sampled_from([1e-300, 1.0, 1e300]))
    terms = st.one_of(st.just(0.0),
                      st.sampled_from([1.0, -1.0, 0.1, 1 / 3]).map(lambda c: c * scale),
                      st.sampled_from([7 / 16, -7 / 16, 3 / 4]).map(
                          lambda c: c * np.spacing(scale)))
    off = np.zeros((n, n))
    for i in range(n):
        for j in range(i):
            off[i, j] = off[j, i] = draw(terms)
    # one row near its boundary, the others far above theirs
    ks = [1 << 20] * n
    ks[draw(st.integers(0, n - 1))] = draw(st.integers(-4, 16))
    return _near_boundary(off, ks)


def _exact_margin(A):
    """min_i (a_ii - sum_{j != i} |a_ij|) of the stored floats, exactly."""
    return min(Fraction(row[i]) - sum(Fraction(abs(a)) for j, a in enumerate(row) if j != i)
               for i, row in enumerate(A.toarray()))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(near_gershgorin_boundary())
@example(_summed_below(1e-300)).via("a rounded-down sum")
@example(_summed_below(1.0)).via("a rounded-down sum")
@example(_summed_below(1e300)).via("a rounded-down sum")
def test_gershgorin_certificate_is_sound(A):
    # Gershgorin's bound, exact on the stored floats, clears the threshold
    if spdcone.core._gershgorin_proves(A):
        assert _exact_margin(A) > Fraction(spdcone.core._breakdown_threshold(A.diagonal()))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(near_gershgorin_boundary())
@example(_summed_below(1e-300)).via("a rounded-down sum")
@example(_summed_below(1.0)).via("a rounded-down sum")
@example(_summed_below(1e300)).via("a rounded-down sum")
def test_dense_gershgorin_certificate_is_sound(A):
    # the dense copy of a matrix is proven only where the stored floats are
    if spdcone.core._gershgorin_proves(A.toarray()):
        assert spdcone.core._gershgorin_proves(A)
        assert _exact_margin(A) > Fraction(spdcone.core._breakdown_threshold(A.diagonal()))
