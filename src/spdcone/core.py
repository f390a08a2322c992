"""Symmetric positive definite matrix types and dense-spectrum oracle.

An :class:`SpdMatrix` built from a matrix is certified positive definite
at construction: the Cholesky factorization that performs the certification
is cached on the instance and reused by every downstream pencil solve.
A strictly diagonally dominant sparse matrix is proven positive definite
by Gershgorin's theorem in O(nnz), which bounds lambda_min from below;
any other matrix is certified by its pivots and an inverse-iteration
estimate, which bound lambda_min from above. Both are factored all the same.
A scaled matrix, or a combination built without certification, holds no
factorization until its first ``chol()``; ``certified`` says which.
Dense and sparse input take one path: duplicates summed (sparse), the
lower triangle mirrored exactly and checked against the input, then
factored. Dense matrices are stored as full symmetric arrays, sparse ones
as full CSR matrices with sorted indices whose lower triangle is the
canonical pattern. A linear combination of stored matrices (``combine``,
``SpdMatrix.scaled``, the inductive mean's iterates) is already in that
form, exactly symmetric, and skips the canonicalization.
"""

from __future__ import annotations

from functools import reduce
from operator import iadd
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp
from numpy.linalg import LinAlgError
from scipy.linalg import get_lapack_funcs, norm, solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs, dsyevd, dsygst
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
# largest diagonal entry of a factor L that _reduce uses unscaled: dsygst
# overflowed at n = 6 and 60 once B's entries reached 2^1023, where L's
# diagonal is near 2^511.5
_REDUCE_SCALE = 2.0 ** 480

SYMMETRY_RTOL = 1e-12
BREAKDOWN_RTOL = 1e-14


def fro_norm(a):
    """Frobenius norm of an array (2-norm of a vector).

    Taken in one BLAS ``nrm2`` pass, which scales as it sums, so the
    result neither overflows nor underflows to 0 when the norm itself is
    in range.
    """
    return float(norm(np.ravel(a), check_finite=False))


class CholeskyFactor:
    """Certifying Cholesky factorization of an SPD matrix X.

    Dense: ``X = L @ L.T`` with ``perm is None``, whether X is stored
    dense or, for an inductive mean's iterate, sparse.
    Sparse: ``X[perm][:, perm] = L @ L.T`` where ``perm`` is the
    fill-reducing elimination order, whose SuperLU object is kept:
    :meth:`solve` reuses it, so X is factored once. SuperLU either chose
    the order itself or was given X[q][:, q] for an order ``q`` fixed
    beforehand, which :meth:`solve` then applies around it.
    """

    def __init__(self, L=None, perm=None, lu=None, q=None):
        self._L = L
        self.perm = perm
        self._lu = lu
        self._q = q
        self.is_sparse = lu is not None

    @property
    def L(self):
        """The lower-triangular factor; sparse: built from the SuperLU factors
        on each access, since no solve needs it.

        Reading L of a sparse factor makes scipy cache CSC copies of
        SuperLU's L and U on the held SuperLU object, about 24 bytes per
        entry of L, for the factor's life. No library path reads it.
        """
        if self.is_sparse:
            # U = diag(U) @ L.T up to roundoff in symmetric mode
            return (self._lu.L @ sp.diags(np.sqrt(self._lu.U.diagonal()))).tocsc()
        return self._L

    @property
    def nnz(self):
        """Entries a solve runs through: SuperLU's L and U, or the n x n
        array of a dense factor, read as L and L^T."""
        return self._lu.nnz if self.is_sparse else self._L.size

    def solve(self, b):
        """Solve X y = b in original coordinates."""
        if not self.is_sparse:
            return dpotrs(self.L, b, lower=1)[0]
        b = np.asarray(b, dtype=float)
        if self._q is None:
            return self._lu.solve(b)
        y = np.empty_like(b)
        y[self._q] = self._lu.solve(b[self._q])
        return y

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


def _breakdown_threshold(diagonal):
    """Smallest pivot a certificate accepts: 1e-14 times the largest
    diagonal entry, and never subnormal."""
    return max(BREAKDOWN_RTOL * diagonal.max(), np.finfo(float).tiny)


def _gershgorin_proves(A_csc):
    """Whether Gershgorin's theorem proves lambda_min of the full symmetric
    CSC matrix above the breakdown threshold t, in O(nnz).

    lambda_min >= min_i (a_ii - s_i) with s_i = sum_{j != i} |a_ij|. Each
    s_i is summed without a_ii (a total minus a_ii would cancel); a sum of
    m nonnegative terms, in any order, is at most gamma_{m-1} s_i below the
    exact one (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., 2002, §3.1). The test passes when
    ``(a_ii - t) / (1 + (m_i + 2) eps) > s_i + tiny`` for every i, m_i the
    entries stored in column i: the factor covers the rounding of the sum,
    of a_ii - t, of s_i + tiny, of the factor itself and of the quotient,
    and ``tiny`` the quotient's absolute error when it underflows.
    Dividing, not multiplying, keeps every step finite, and a row sum that
    overflows to inf declines.
    """
    data, rows, indptr = A_csc.data, A_csc.indices, A_csc.indptr
    n = indptr.size - 1
    counts = np.diff(indptr)
    cols = np.repeat(np.arange(n), counts)
    on = rows == cols
    diagonal = np.zeros(n)
    diagonal[cols[on]] = data[on]
    # bincount adds in order and, unlike a ufunc, overflows to inf without a warning
    off = np.bincount(cols, np.where(on, 0.0, np.abs(data)), n)
    slack = 1.0 + (counts + 2) * np.finfo(float).eps
    margin = (diagonal - _breakdown_threshold(diagonal)) / slack
    return bool(np.all(margin > off + np.finfo(float).tiny))


def _check_breakdown(f, pivots, diagonal):
    """Raise NumericalBreakdown on a near-singular matrix.

    The threshold is relative to the largest diagonal entry and never
    subnormal. Every pivot must clear it, and so must lambda_min: a pivot
    only bounds it from above, so a matrix indefinite below the rounding
    of the factorization can pass every pivot. Two steps of inverse
    iteration from a fixed vector bound lambda_min from above.

    Each step solves for a right-hand side of norm sqrt(scale), scale the
    largest diagonal entry: the solution, about sqrt(scale) / lambda_min,
    stays in range at any scale X certifies at, and so do the
    intermediates of a sparse solve, which a right-hand side of norm
    scale overflows near the largest float.
    """
    threshold = _breakdown_threshold(diagonal)
    small = np.nonzero(pivots < threshold)[0]
    if small.size:
        i = int(small[0])
        raise NumericalBreakdown(i + 1, float(pivots[i]), float(threshold))
    root = np.sqrt(diagonal.max())
    x = np.cos(np.arange(diagonal.size))  # a fixed start spread over [-1, 1]
    for _ in range(2):
        x = f.solve(x / np.linalg.norm(x) * root)
        size = np.linalg.norm(x)
        # the estimate root / size, compared without dividing: near the
        # largest float, the quotient can overflow
        if not size * threshold <= root:
            raise NumericalBreakdown(-1, float(root / size), float(threshold))


def _factor_dense(A):
    """Certifying dense Cholesky of an ndarray, or of a full symmetric
    sparse matrix's dense copy. Returns CholeskyFactor or raises.

    The factor of a sparse matrix is certified as :func:`_factor_sparse`
    certifies SuperLU's: by :func:`_gershgorin_proves`, in O(nnz), when it
    proves the matrix (whose CSR arrays read as CSC hold the same matrix),
    else by its pivots and :func:`_check_breakdown`.
    """
    sparse = sp.issparse(A)
    dense = A.toarray() if sparse else A
    potrf, = get_lapack_funcs(("potrf",), (dense,))
    L, info = potrf(dense, lower=1, clean=1, overwrite_a=sparse)
    if info > 0:
        raise NotPositiveDefinite(pivot_index=int(info))
    if info < 0:
        raise ValueError(f"internal LAPACK error in potrf: info={info}")
    f = CholeskyFactor(L)
    if not (sparse and _gershgorin_proves(A)):
        _check_breakdown(f, np.diag(L) ** 2, A.diagonal())
    return f


def _factor_sparse(A_csc, q=None):
    """Certifying sparse Cholesky via SuperLU in symmetric mode.

    With the diagonal pivot threshold at zero and symmetric mode on,
    SuperLU performs the elimination in a fill-reducing symmetric
    ordering and U equals diag(U) @ L.T up to roundoff, so
    L @ sqrt(diag(U)) is a genuine Cholesky factor of the permuted matrix.
    Given an order ``q``, A_csc is X[q][:, q], already in a fill-reducing
    order, and SuperLU keeps it as it stands (it only postorders the
    elimination tree); the factor is then one of X.

    Every matrix is factored, and a row swap rejects it. A matrix that
    :func:`_gershgorin_proves` is then certified; any other is certified by
    its pivots and :func:`_check_breakdown`. Only that second path reads
    the pivots through ``lu.U``, which caches CSC copies of L and U on the
    held factor (see :attr:`CholeskyFactor.L`).
    """
    try:
        lu = splu(
            A_csc,
            permc_spec="MMD_AT_PLUS_A" if q is None else "NATURAL",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:  # exactly singular
        # SuperLU takes a subnormal pivot for zero. Any diagonal entry bounds
        # lambda_min from above, so one below the threshold is a breakdown,
        # as the dense factorization reports it.
        diagonal = A_csc.diagonal()
        threshold = _breakdown_threshold(diagonal)
        if diagonal.min() < threshold:
            raise NumericalBreakdown(-1, float(diagonal.min()), float(threshold)) from exc
        raise NotPositiveDefinite(pivot_index=-1, detail=str(exc)) from exc
    # order[k] is the row and column of A_csc eliminated at step k; SuperLU
    # swaps rows only on a zero pivot, which an SPD matrix never has
    order = np.argsort(lu.perm_c)
    swapped = np.nonzero(np.argsort(lu.perm_r) != order)[0]
    if swapped.size:
        raise NotPositiveDefinite(pivot_index=int(swapped[0]) + 1, detail="zero pivot")
    # scipy convention: Pr @ A @ Pc = L @ U with perm_r == perm_c here,
    # which reads A[order][:, order] = L @ L.T
    f = CholeskyFactor(perm=order if q is None else q[order], lu=lu, q=q)
    if not _gershgorin_proves(A_csc):
        pivots = lu.U.diagonal()
        bad = np.nonzero(~(pivots > 0))[0]
        if bad.size:
            raise NotPositiveDefinite(pivot_index=int(bad[0]) + 1)
        _check_breakdown(f, pivots, A_csc.diagonal())
    return f


def _factor(A, q=None, dense=False):
    """Certifying factorization of a full symmetric matrix: an ndarray, or
    a CSC matrix, X[q][:, q] when an order ``q`` is given (see
    :func:`_factor_sparse`). With ``dense``, a sparse matrix, CSC or CSR,
    is factored dense (see :func:`_factor_dense`), a factor the dense
    backend's reductions can borrow. A diagonal entry that is not
    positive is rejected before anything is factored."""
    bad = np.nonzero(~(A.diagonal() > 0))[0]
    if bad.size:
        raise NotPositiveDefinite(pivot_index=int(bad[0]) + 1, detail="diagonal entry")
    return _factor_sparse(A, q) if sp.issparse(A) and not dense else _factor_dense(A)


def _require_finite(entries):
    if not np.isfinite(entries).all():
        raise InvalidMatrix("non-finite entry (nan or inf)")


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
    Instances are immutable, apart from the factorization they cache.
    """

    __slots__ = ("_full", "_is_sparse", "_factor")

    def __init__(self, matrix):
        sparse = sp.issparse(matrix)
        A = matrix if sparse else np.asarray(matrix)
        if A.dtype.kind not in "biuf":  # the float cast would drop imaginary parts or raise
            raise InvalidMatrix(f"dtype {A.dtype} is not bool, integer or float")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(A.shape[0] if A.ndim else 0, A.shape[-1] if A.ndim else 0)
        if A.shape[0] == 0:
            raise InvalidMatrix("empty (0 x 0)")
        if sparse:
            if A.nnz < A.shape[0]:
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
        _require_finite(entries)
        full = tril(A) + tril(A, -1).T
        # full - A is A^T - A above the diagonal and zero elsewhere
        dev, scale = abs(full - A).max(), abs(A).max()
        if dev > SYMMETRY_RTOL * max(scale, 1e-300):
            raise AsymmetricInput(dev, scale)
        self._set(full, sparse, None)
        self.chol()

    @classmethod
    def _canonical(cls, full, factor=None):
        """An SpdMatrix of ``full`` as it stands, without canonicalization.

        ``full`` must already be what ``__init__`` stores: an exactly
        symmetric ndarray, or a CSR matrix with sorted indices and no
        duplicates, such as a linear combination of stored matrices on
        their own patterns. It is still rejected when not finite, and an
        explicit zero is dropped. ``factor``, when given, is the certifying
        factorization of ``full``; otherwise the result is uncertified.
        """
        sparse = sp.issparse(full)
        _require_finite(full.data if sparse else full)
        if sparse and not full.data.all():
            full = full.copy()  # the index arrays may be shared
            full.eliminate_zeros()
        out = cls.__new__(cls)
        out._set(full, sparse, factor)
        return out

    def _set(self, full, sparse, factor):
        (full.data if sparse else full).setflags(write=False)
        self._full = full
        self._is_sparse = sparse
        self._factor = factor

    # -- basic queries ---------------------------------------------------------

    @property
    def certified(self):
        """Whether the matrix holds its certifying factorization."""
        return self._factor is not None

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

    def chol(self):
        """Certifying Cholesky factor, computed on first use and cached;
        NotPositiveDefinite or NumericalBreakdown if the matrix fails."""
        if self._factor is None:
            self._factor = _factor(self._full.tocsc() if self._is_sparse else self._full)
        return self._factor

    def scaled(self, c):
        """c * X for c > 0, uncertified until its first ``chol()``."""
        if c <= 0:
            raise InvalidArgument("scale must be positive to stay in the cone")
        return SpdMatrix._canonical(self._full * c)

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


def _reduce(A: SpdMatrix, B: SpdMatrix):
    """(C, L) for the pencil (A, B): L the lower Cholesky factor of B as an
    array, C = L^-1 A L^-T in its lower triangle (LAPACK dsygst, itype 1).

    C has the pencil's eigenvalues, and its eigenvector z gives the
    pencil's L^-T z. A B that holds a dense factor lends it, however B is
    stored: the potrf that a generalized ``eigh`` would run. A dense-stored
    B holds one once ``chol()`` has certified it, first if need be; a
    sparse-stored B holds one when the inductive mean certified it so
    (``mean._Stack.matrix``). SuperLU's factor of any other sparse-stored
    B is not one L, and such a B is not factored by SuperLU here: B.dense()
    takes one potrf.

    dsygst's sums overflow on entries near the largest float, so when L's
    largest diagonal entry passes ``_REDUCE_SCALE`` C is formed, exactly,
    from A 2^(-2s) and L 2^(-s), 2^s that entry's binade; L comes back
    unscaled.
    """
    f = B._factor if B.is_sparse else B.chol()
    if f is None or f.is_sparse:
        L, info = dpotrf(B.dense(), lower=1, clean=1, overwrite_a=1)
        if info > 0:
            raise NotPositiveDefinite(pivot_index=int(info))
    else:
        L = f.L
    top = L.diagonal().max()
    if top > _REDUCE_SCALE:
        s = int(np.frexp(top)[1])
        C, info = dsygst(np.ldexp(A.dense(), -2 * s), np.ldexp(L, -s), itype=1, lower=1)
    else:
        C, info = dsygst(A.dense(), L, itype=1, lower=1)
    if info != 0:
        raise ValueError(f"internal LAPACK error in sygst: info={info}")
    return C, L


def spectrum_dense(
    X: SpdMatrix, Y: SpdMatrix, opts: EigenOptions | None = None
) -> np.ndarray:
    """Full spectrum of the pencil Y X^-1, sorted ascending, via a dense solve.

    This is the full-spectrum oracle; it refuses to run above the dense
    ceiling ``opts.dense_ceiling`` (None: ``DEFAULT_DENSE_CEILING``), so
    that callers cannot mistake it for a scalable path. One reduction
    with X's factor (:func:`_reduce`) and one dsyevd: the eigenvalues of
    ``scipy.linalg.eigh(Y, X, eigvals_only=True)``, bit for bit.
    """
    _check_dims(X, Y)
    _check_dense_ceiling(X.n, opts)
    w, _, info = dsyevd(_reduce(Y, X)[0], compute_v=0, lower=1, overwrite_a=1)
    if info != 0:
        raise LinAlgError(f"symmetric eigensolver failed: info={info}")
    return w


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


def combine(coeff_pairs, *, certify=True):
    """Linear combination sum(c_i * M_i) of SpdMatrix values.

    Sparse inputs yield a sparse result whose pattern is contained in
    the union of the input patterns; any dense input makes the result
    dense. With ``certify=False`` the result is left uncertified. A sum
    of exactly symmetric stored matrices is exactly symmetric, and
    scipy's sum of sorted CSR matrices is sorted and stores no zero, so
    the result is not canonicalized again.
    """
    mats = [m for _, m in coeff_pairs]
    if not mats:
        raise InvalidArgument("empty combination")
    for m in mats[1:]:
        _check_dims(mats[0], m)
    sparse = all(m.is_sparse for m in mats)
    # each term is a new matrix, so adding into the first is safe; sparse += adds out of place
    out = SpdMatrix._canonical(
        reduce(iadd, ((m.raw() if sparse else m.dense()) * c for c, m in coeff_pairs)))
    if certify:
        out.chol()
    return out
