"""Symmetric positive definite matrix types and dense-spectrum oracle.

An :class:`SpdMatrix` is immutable and certified positive definite at
construction: the Cholesky factorization that performs the certification
is cached on the instance and reused by every downstream pencil solve.
Dense and sparse input take one path: duplicates summed (sparse), the
lower triangle mirrored exactly and checked against the input, then
factored. Dense matrices are stored as full symmetric arrays, sparse ones
as full CSR matrices with sorted indices whose lower triangle is the
canonical pattern.
"""

from __future__ import annotations

from functools import reduce
from operator import iadd
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh, get_lapack_funcs, norm, solve_triangular
from scipy.linalg.lapack import dpotrs
from scipy.sparse.linalg import splu, spsolve_triangular

from .errors import (
    AsymmetricInput,
    DenseLimitExceeded,
    DimensionMismatch,
    InvalidArgument,
    InvalidMatrix,
    NotPositiveDefinite,
    NumericalBreakdown,
)

if TYPE_CHECKING:  # eigen imports core; the options class is only named here
    from .eigen import EigenOptions

DEFAULT_DENSE_CEILING = 2048

SYMMETRY_RTOL = 1e-12
BREAKDOWN_RTOL = 1e-14


def fro_norm(a):
    """Frobenius norm of an array or sparse matrix (2-norm of a vector).

    Taken in one BLAS ``nrm2`` pass, which scales as it sums, so the
    result neither overflows nor underflows to 0 when the norm itself is
    in range.
    """
    if sp.issparse(a):
        a = a.tocsr()
        if not a.has_canonical_format:
            a = a.copy()
            a.sum_duplicates()
        a = a.data
    return float(norm(np.ravel(a), check_finite=False))


class CholeskyFactor:
    """Certifying Cholesky factorization of an SPD matrix X.

    Dense: ``X = L @ L.T`` with ``perm is None``.
    Sparse: ``X[perm][:, perm] = L @ L.T`` where ``perm`` is the
    fill-reducing permutation chosen by the factorization, whose SuperLU
    object is kept: :meth:`solve` reuses it, so X is factored once.
    """

    def __init__(self, L=None, perm=None, lu=None):
        self._L = L
        self.perm = perm
        self._lu = lu
        self.is_sparse = lu is not None

    @property
    def L(self):
        """The lower-triangular factor; sparse: built from the SuperLU factors
        on each access, since no solve needs it."""
        if self.is_sparse:
            # U = diag(U) @ L.T up to roundoff in symmetric mode
            return (self._lu.L @ sp.diags(np.sqrt(self._lu.U.diagonal()))).tocsc()
        return self._L

    def solve(self, b):
        """Solve X y = b in original coordinates."""
        if self.is_sparse:
            return self._lu.solve(np.asarray(b, dtype=float))
        return dpotrs(self.L, b, lower=1)[0]

    def solve_lower(self, b):
        """Solve L y = b (b in permuted coordinates for sparse)."""
        if self.is_sparse:
            return spsolve_triangular(self.L.tocsr(), b, lower=True)
        return solve_triangular(self.L, b, lower=True)

    def solve_lower_t(self, b):
        """Solve L^T y = b (permuted coordinates for sparse)."""
        if self.is_sparse:
            return spsolve_triangular(self.L.T.tocsr(), b, lower=False)
        return solve_triangular(self.L, b, lower=True, trans="T")

    def reconstruction_error(self, X):
        """Relative Frobenius error of L L^T against (permuted) X.

        The norms are taken by :func:`fro_norm`, so they neither overflow
        nor underflow at any scale.
        """
        if self.is_sparse:
            X = X.tocsr()[self.perm][:, self.perm]
        L = self.L
        return fro_norm(L @ L.T - X) / fro_norm(X)


def _check_breakdown(f, pivots, diagonal):
    """Raise NumericalBreakdown on a near-singular matrix.

    The threshold is relative to the largest diagonal entry and never
    subnormal. Every pivot must clear it, and so must lambda_min: a pivot
    only bounds it from above, so a matrix indefinite below the rounding
    of the factorization can pass every pivot. Two steps of inverse
    iteration from a fixed vector bound lambda_min from above.
    """
    threshold = max(BREAKDOWN_RTOL * diagonal.max(), np.finfo(float).tiny)
    small = np.nonzero(pivots < threshold)[0]
    if small.size:
        i = int(small[0])
        raise NumericalBreakdown(i + 1, float(pivots[i]), float(threshold))
    scale = diagonal.max()
    x = np.cos(np.arange(diagonal.size))  # a fixed start spread over [-1, 1]
    for _ in range(2):
        # (X / scale)^-1 of a unit vector: in range at any scale X certifies at
        x = f.solve(x / np.linalg.norm(x) * scale)
        estimate = scale / np.linalg.norm(x)
        if not estimate >= threshold:
            raise NumericalBreakdown(-1, float(estimate), float(threshold))


def _factor_dense(A):
    """Certifying dense Cholesky. Returns CholeskyFactor or raises."""
    potrf, = get_lapack_funcs(("potrf",), (A,))
    L, info = potrf(A, lower=1, clean=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefinite(pivot_index=int(info))
    if info < 0:
        raise ValueError(f"internal LAPACK error in potrf: info={info}")
    f = CholeskyFactor(L)
    _check_breakdown(f, np.diag(L) ** 2, np.diag(A))
    return f


def _factor_sparse(A_csc):
    """Certifying sparse Cholesky via SuperLU in symmetric mode.

    With the diagonal pivot threshold at zero and symmetric mode on,
    SuperLU performs the elimination in a fill-reducing symmetric
    ordering and U equals diag(U) @ L.T up to roundoff, so
    L @ sqrt(diag(U)) is a genuine Cholesky factor of the permuted matrix.
    """
    try:
        lu = splu(
            A_csc,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:  # exactly singular
        raise NotPositiveDefinite(pivot_index=-1, detail=str(exc)) from exc
    # q[k] is the row and column eliminated at step k; SuperLU swaps rows
    # only on a zero pivot, which an SPD matrix never has
    q = np.argsort(lu.perm_c)
    swapped = np.nonzero(np.argsort(lu.perm_r) != q)[0]
    if swapped.size:
        raise NotPositiveDefinite(pivot_index=int(swapped[0]) + 1, detail="zero pivot")
    pivots = lu.U.diagonal()
    bad = np.nonzero(~(pivots > 0))[0]
    if bad.size:
        raise NotPositiveDefinite(pivot_index=int(bad[0]) + 1)
    # scipy convention: Pr @ X @ Pc = L @ U with perm_r == perm_c here,
    # which reads X[q][:, q] = L @ L.T
    f = CholeskyFactor(perm=q, lu=lu)
    _check_breakdown(f, pivots, A_csc.diagonal())
    return f


def _first_nonpositive_diagonal(A):
    """0-based index of the first summed stored diagonal entry of sparse A
    that is not > 0 (an entry not stored is 0), in O(nnz)."""
    A = A.tocoo()
    on = A.row == A.col
    index, where = np.unique(A.row[on], return_inverse=True)
    positive = index[np.bincount(where, A.data[on]) > 0]
    gaps = np.flatnonzero(positive != np.arange(positive.size))
    return int(gaps[0]) if gaps.size else positive.size


class SpdMatrix:
    """Certified symmetric positive definite matrix, dense or sparse.

    Accepts an array-like or a scipy sparse matrix in any format, of a
    bool, integer or float dtype, with duplicate entries summed. The lower
    triangle is the source of truth: it is mirrored into the stored
    matrix, which must match the input to 1e-12 relative to its largest
    entry (else :class:`AsymmetricInput`), and a Cholesky factorization
    certifies it. An empty matrix, a non-finite entry or any other dtype
    (complex, string, object) raises :class:`InvalidMatrix`; a failed
    certification raises :class:`NotPositiveDefinite` or
    :class:`NumericalBreakdown` rather than producing an invalid instance.
    Instances are immutable.
    """

    __slots__ = ("_full", "_is_sparse", "_factor", "certified")

    def __init__(self, matrix, *, _certify=True):
        sparse = sp.issparse(matrix)
        A = matrix if sparse else np.asarray(matrix)
        if A.dtype.kind not in "biuf":  # the float cast would drop imaginary parts or raise
            raise InvalidMatrix(f"dtype {A.dtype} is not bool, integer or float")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(A.shape[0] if A.ndim else 0, A.shape[-1] if A.ndim else 0)
        if A.shape[0] == 0:
            raise InvalidMatrix("empty (0 x 0)")
        if sparse:
            if _certify and A.nnz < A.shape[0]:
                # some diagonal entry is not stored; found before anything of size n is built
                raise NotPositiveDefinite(_first_nonpositive_diagonal(A) + 1,
                                          detail="diagonal entry")
            # a copy: sum_duplicates sorts in place, and the caller's arrays stay as given
            A = sp.csr_matrix(A, dtype=float, copy=True)
            A.sum_duplicates()
            tril, entries = sp.tril, A.data
        else:
            A = A.astype(float, copy=False)
            tril, entries = np.tril, A
        if not np.isfinite(entries).all():
            raise InvalidMatrix("non-finite entry (nan or inf)")
        full = tril(A) + tril(A, -1).T
        # full - A is A^T - A above the diagonal and zero elsewhere
        dev, scale = abs(full - A).max(), abs(A).max()
        if dev > SYMMETRY_RTOL * max(scale, 1e-300):
            raise AsymmetricInput(dev, scale)
        (full.data if sparse else full).setflags(write=False)
        self._full = full
        self._is_sparse = sparse
        self._factor = None
        self.certified = False
        if _certify:
            self._certify()

    def _certify(self):
        if self._factor is None:
            bad = np.nonzero(~(self._full.diagonal() > 0))[0]
            if bad.size:
                raise NotPositiveDefinite(pivot_index=int(bad[0]) + 1, detail="diagonal entry")
            if self._is_sparse:
                self._factor = _factor_sparse(self._full.tocsc())
            else:
                self._factor = _factor_dense(self._full)
        self.certified = True

    # -- basic queries ---------------------------------------------------------

    @property
    def n(self):
        return self._full.shape[0]

    @property
    def is_sparse(self):
        return self._is_sparse

    @property
    def nnz(self):
        """Stored nonzeros of the full symmetric representation."""
        if self._is_sparse:
            return int(self._full.nnz)
        return int(np.count_nonzero(self._full))

    def dense(self):
        """Full symmetric ndarray (copy for sparse storage)."""
        if self._is_sparse:
            return self._full.toarray()
        return self._full

    def raw(self):
        """The internal full representation: ndarray or CSR matrix."""
        return self._full

    def lower_pattern(self):
        """Canonical lower-triangle pattern as (rows, cols) index arrays."""
        if self._is_sparse:
            lower = sp.tril(self._full, format="coo")
            return lower.row, lower.col
        r, c = np.nonzero(np.tril(self._full))
        return r, c

    def matvec(self, v):
        return self._full @ v

    def norm_fro(self):
        return fro_norm(self._full)

    def chol(self):
        """Certifying Cholesky factor (cached)."""
        self._certify()
        return self._factor

    def scaled(self, c):
        """c * X for c > 0 (certification carries over structurally)."""
        if c <= 0:
            raise InvalidArgument("scale must be positive to stay in the cone")
        out = SpdMatrix(self._full * c, _certify=False)
        out.certified = self.certified
        return out

    def __repr__(self):
        kind = "sparse" if self._is_sparse else "dense"
        return f"SpdMatrix(n={self.n}, {kind}, nnz={self.nnz})"


def _check_dims(X: SpdMatrix, Y: SpdMatrix):
    if X.n != Y.n:
        raise DimensionMismatch(X.n, Y.n)


def _check_dense_ceiling(n, opts):
    """Refuse a dense-only operation at n above ``opts.dense_ceiling``, which
    ``EigenOptions`` validated when it was set; None: the default ceiling."""
    ceiling = DEFAULT_DENSE_CEILING if opts is None else opts.dense_ceiling
    if n > ceiling:
        raise DenseLimitExceeded(n, ceiling)


def whiten(X: SpdMatrix, Y: SpdMatrix) -> np.ndarray:
    """Congruence transform L^-1 Y L^-T with X = L L^T.

    The result is symmetric and isospectral with the pencil Y X^-1.
    Materializes a dense n x n matrix; intended for dense-scale use.
    """
    _check_dims(X, Y)
    f = X.chol()
    Yp = Y.dense() if f.perm is None else Y.dense()[np.ix_(f.perm, f.perm)]
    Z = f.solve_lower(Yp)
    W = f.solve_lower(Z.T)
    return (W + W.T) / 2.0


def spectrum_dense(
    X: SpdMatrix, Y: SpdMatrix, opts: EigenOptions | None = None
) -> np.ndarray:
    """Full spectrum of the pencil Y X^-1, sorted ascending, via a dense solve.

    This is the full-spectrum oracle; it refuses to run above the dense
    ceiling ``opts.dense_ceiling`` (None: ``DEFAULT_DENSE_CEILING``), so
    that callers cannot mistake it for a scalable path.
    """
    _check_dims(X, Y)
    _check_dense_ceiling(X.n, opts)
    return eigh(Y.dense(), X.dense(), eigvals_only=True)


def random_spd(n, rng, spread=1.0):
    """Random dense SPD matrix Q diag(exp(u)) Q^T with u ~ U[-spread, spread].

    Q is the QR factor of a Gaussian matrix with the sign convention fixed,
    so results are reproducible under a seeded generator. The condition
    number is about exp(2 * spread).
    """
    A = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(R))
    u = rng.uniform(-spread, spread, n)
    M = (Q * np.exp(u)) @ Q.T
    return SpdMatrix((M + M.T) / 2.0)


def random_sparse_spd(n, density, rng, shift=0.5):
    """Random sparse SPD matrix with roughly the requested off-diagonal density.

    A symmetric sparse G with entries in [-1, 1] is made strictly
    diagonally dominant: X = G + diag(|G| 1 + s), s ~ U[shift, shift + 1].
    """
    m = int(density * n * (n - 1) / 2)
    i = rng.integers(1, n, size=2 * m)
    j = (rng.random(2 * m) * i).astype(np.int64)  # j < i uniformly
    keep = np.unique(np.stack([i, j], axis=1), axis=0)
    keep = keep[:m]
    vals = rng.uniform(-1.0, 1.0, keep.shape[0])
    G = sp.coo_matrix((vals, (keep[:, 0], keep[:, 1])), shape=(n, n))
    G = (G + G.T).tocsr()
    row_weight = np.asarray(np.abs(G).sum(axis=1)).ravel()
    diag = row_weight + rng.uniform(shift, shift + 1.0, n)
    X = (G + sp.diags(diag)).tocoo()
    return SpdMatrix(X)


def _raw_sum(coeff_pairs):
    """sum(c * M.raw()) over (c, M) pairs, added in the given order.

    Sparse when every M is, with its pattern inside the union of theirs;
    dense otherwise.
    """
    sparse = all(m.is_sparse for _, m in coeff_pairs)
    # each term is a new matrix, so adding into the first is safe; sparse += adds out of place
    return reduce(iadd, ((m.raw() if sparse else m.dense()) * c for c, m in coeff_pairs))


def combine(coeff_pairs, *, certify=True):
    """Linear combination sum(c_i * M_i) of SpdMatrix values.

    Sparse inputs yield a sparse result whose pattern is contained in
    the union of the input patterns; any dense input makes the result
    dense. With ``certify=False`` the result is left uncertified.
    """
    mats = [m for _, m in coeff_pairs]
    if not mats:
        raise InvalidArgument("empty combination")
    for m in mats[1:]:
        _check_dims(mats[0], m)
    return SpdMatrix(_raw_sum(coeff_pairs), _certify=certify)


def arithmetic_mean(points):
    """Entrywise average of SPD matrices (SPD by convexity of the cone)."""
    k = len(points)
    return combine([(1.0 / k, p) for p in points])
