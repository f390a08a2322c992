"""Extreme generalized eigenvalues of SPD pencils.

Everything downstream (distances, geodesics, the inductive mean) consumes
only the smallest and largest eigenvalues (alpha, beta) of a pencil
Y X^-1. Two backends compute them:

* ``dense`` - what ``auto`` picks for a pencil of order at most
  ``_SMALL``, whatever its storage, and for a larger one with a side
  denser than a quarter: one reduction C = L^-1 Y L^-T with X's factor
  X = L L^T (Martin & Wilkinson, Numer. Math. 11, 1968), held by a
  dense-stored X and by a sparse inductive mean iterate, else one potrf
  of a sparse-stored X's dense copy, one
  tridiagonalization of C, and bisection for both of its ends, with
  inverse iteration for their vectors and residuals unless the caller
  reads only the values. Its alpha errs by about
  eps beta / alpha, so above a spread beta / alpha of ``_SPREAD`` alpha
  comes from the swapped pencil X Y^-1 reduced with Y's factor.
* ``iterative`` - thick-restart Lanczos with full reorthogonalization on
  the operator q -> X^-1 (Y q), self-adjoint in the X inner product,
  applied through one product with Y, one with X and one solve with the
  certifying factorization of X per step; the pencil Y X^-1 is never
  formed and Y is never copied. A restart keeps the leading Ritz vectors, so a
  clustered top of the spectrum keeps its Krylov information.

The iterative backend computes the smallest eigenvalue as the reciprocal
of the largest eigenvalue of the swapped pencil X Y^-1, so the Krylov
iteration only ever chases a largest eigenvalue, where its convergence is
robust.
The iteration stops once the cheap Ritz estimate |b_m s_m| says the top
pair has converged. The only acceptance test is the backward-error style
residual ``|Y v - lam X v| / (|Y v| + |lam| |X v|)`` of the pencil
solved (for alpha the swapped one, whose residual is the original's), and
a few steps from a fresh direction must then find no larger Ritz value.
A solve may start from a given vector, e.g. an eigenvector of a nearby
pencil; ``max_iter`` and iteration counts are operator applies.

A slow solve is finished by shift-invert. At a thick restart, once the
solve has spent as many applies as the finish costs (two factorizations,
each counted as nnz(factor) / n applies, and one Krylov basis of steps)
and the decay of the Ritz estimate predicts as many again, the leading
Ritz pair (theta, v) gives the shift sigma = theta (1 + resid). If
sigma X - Y certifies positive definite, in X's elimination order, the
same Lanczos loop runs on (sigma X - Y)^-1 X, whose top eigenvalue
1 / (sigma - beta) stands far apart from the rest, and returns the
Rayleigh quotient rho <= beta of its Ritz vector. If
rho (1 + 10 tol) X - Y certifies too, Sylvester's law of inertia proves
that no eigenvalue lies above the bracket, and that proof replaces the
guard (``PencilExtremes.proven``). A factorization that fails means an
eigenvalue lies above its shift: the plain iteration goes on and tries
again at its next restart. A solve that converges before it has spent
the finish's cost never factors anything.

The two solves of a pair share nothing, and SuperLU's solves and numpy's
basis products release the GIL. So when the estimated GIL-free work of
one apply exceeds ``_CONCURRENT_WORK``, the alpha solve runs on a
worker thread of the pair's own while the calling thread runs the beta
solve. Dense pencils (LAPACK holds the GIL here) and processes that may
run on one CPU only stay serial. Each solve keeps its own seed, and the
results are combined in the order (beta, alpha), so outputs do not
depend on thread timing; a threaded pair gains one thread, joined before
it returns.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sp
from numpy.linalg import LinAlgError
from scipy.linalg import eigh, eigh_tridiagonal, get_lapack_funcs, hessenberg

from .core import DEFAULT_DENSE_CEILING, SpdMatrix, _check_dims, _factor, _reduce, fro_norm
from .errors import (
    DimensionMismatch,
    InvalidOption,
    NoConvergence,
    NotPositiveDefinite,
    NumericalBreakdown,
    require_integer,
    require_positive_finite,
)

_BASIS = 40  # Krylov basis length that triggers a thick restart
_KEEP = 20  # leading Ritz vectors kept across a restart
_CHECK = 4  # steps between Ritz-estimate checks without a decay rate
_WAIT_MAX = 16  # most steps between Ritz-estimate checks
_GUARD = 8  # steps from a fresh direction before accepting a pair
# estimated GIL-free work of one apply (see _apply_work) above which the
# two sides of a pair run at once: measured on 2 CPUs, threads lost below
# about 330k (Toeplitz n = 1000, grids m <= 64) and won 1.5x near 600k
# (banded n = 8000, random n = 4000)
_CONCURRENT_WORK = 400_000
# largest order that auto solves dense whatever the storage: one reduction
# (a potrf of a sparse X's dense copy, dsygst, dsytrd, bisection) against
# thick-restart Lanczos, whose 50-140 applies per pair each pay Python and
# scipy dispatch. Measured with one BLAS thread on 2 CPUs, median pair times over
# 5 pencils of each kind, values only / with vectors: dense won on random
# (density 0.03), banded (bandwidth 5) and Toeplitz pencils at every
# n <= 200 (n = 200: dense 3.3-4.0 / 3.8-5.0 ms, iterative 5.7-15.5 /
# 5.3-15.7 ms) and lost random pencils from n = 225 (6.8 against 6.5 ms
# with vectors)
_SMALL = 200

# widest beta / alpha whose alpha the dense backend takes from the reduction
# that gives beta: that alpha errs by about eps beta / alpha, so by at most
# 32 ulps (measured: 100 broke the scale-free residual test at n = 6)
_SPREAD = 32.0

_stebz, _stein, _sytrd, _sytrd_lwork, _ormqr, _trtrs = get_lapack_funcs(
    ("stebz", "stein", "sytrd", "sytrd_lwork", "ormqr", "trtrs"), (np.empty(0),))


@dataclass
class EigenStats:
    """Mutable accumulator for solver work, shared via EigenOptions."""

    iterations: int = 0  # operator applications
    solves: int = 0


@dataclass(frozen=True)
class EigenOptions:
    """Eigensolver options, validated at construction and frozen after it.

    ``stats``, when given, is the one mutable part: an accumulator of the
    work of every solve made with these options.
    """

    tol: float = 1e-10
    max_iter: int = 5000  # operator applications per extreme; a started guard finishes
    backend: str = "auto"  # auto | dense | iterative
    seed: int = 0
    dense_ceiling: int = DEFAULT_DENSE_CEILING
    stats: EigenStats | None = None

    def __post_init__(self):
        require_positive_finite("tol", self.tol)
        require_integer("max_iter", self.max_iter, 1)
        require_integer("seed", self.seed, 0)
        require_integer("dense_ceiling", self.dense_ceiling, 0)
        if self.backend not in ("auto", "dense", "iterative"):
            raise InvalidOption("backend", self.backend, "is not auto, dense or iterative")


@dataclass(frozen=True)
class PencilExtremes:
    """(alpha, beta) = (lambda_min, lambda_max) of Y X^-1 with certificates.

    ``iterations``, ``residuals`` and ``proven`` are ordered (alpha solve,
    beta solve); ``iterations`` counts operator applications, and the
    dense backend reports zero. ``proven`` says whether Sylvester's law of
    inertia proves the extreme to within 10 tol: true for the dense
    backend and for a solve finished by shift-invert. ``vectors`` holds
    the matching generalized eigenvectors, a start for a nearby pencil;
    they take no part in comparison. A dense solve asked for values only
    holds no vectors and nan residuals (not computed), and one asked for
    no residuals holds nan residuals.
    """

    alpha: float
    beta: float
    iterations: tuple
    residuals: tuple
    backend: str
    proven: tuple = (False, False)
    vectors: tuple = field(default=(None, None), compare=False, repr=False)


def _density(M: SpdMatrix) -> float:
    if not M.is_sparse:
        return 1.0
    return M.nnz / float(M.n * M.n)


def _resolve_backend(Y: SpdMatrix, X: SpdMatrix, opts: EigenOptions) -> str:
    """``auto``'s choice: dense up to ``opts.dense_ceiling`` for a pencil
    of order at most ``_SMALL``, whatever its storage, or with a side
    denser than a quarter; iterative otherwise."""
    if opts.backend != "auto":
        return opts.backend
    n = X.n
    if n <= opts.dense_ceiling and (n <= _SMALL or max(_density(X), _density(Y)) > 0.25):
        return "dense"
    return "iterative"


def pencil_residual(Y: SpdMatrix, X: SpdMatrix, lam: float, v: np.ndarray) -> float:
    """Relative backward-error residual of (lam, v) for the pencil (Y, X).

    The norms are scale-safe, and the ratio does not depend on the scale
    of v, so where a product or norm overflows it is taken again on
    v 2^-8. A zero or non-finite denominator gives inf, which fails every
    acceptance test.
    """
    def products(u):
        yv, xv = Y.matvec(u), X.matvec(u)
        return yv, xv, fro_norm(yv) + abs(lam) * fro_norm(xv)

    with np.errstate(over="ignore", invalid="ignore"):
        yv, xv, den = products(v)
        if not den < math.inf:
            yv, xv, den = products(np.ldexp(v, -8))
        return fro_norm(yv - lam * xv) / den if 0.0 < den < math.inf else math.inf


def _x_norm(X, q):
    """X-norm sqrt(q . X q), clipped at zero against rounding.

    Near the largest float q . X q can overflow although its root is in
    range; it is then taken again on q 2^-600 and the root scaled back.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        form = q @ X.matvec(q)
        if not abs(form) < math.inf:
            small = np.ldexp(q, -600)
            return float(np.ldexp(math.sqrt(max(small @ X.matvec(small), 0.0)), 600))
    return math.sqrt(max(form, 0.0))


def _fresh(rng, X, B):
    """Seeded random vector of unit X-norm, X-orthogonal to the rows of B, or None if they span."""
    q = rng.uniform(-1.0, 1.0, X.n)
    size = _x_norm(X, q)
    for _ in range(2):  # second pass: robust orthogonality
        q -= (B @ X.matvec(q)) @ B
    nq = _x_norm(X, q)
    return q / nq if nq > 1e-8 * size else None


def _tridiagonal_eig(d, e, i, vector=True):
    """Eigenpair i (1 = smallest) (theta, s) of the symmetric tridiagonal
    matrix with diagonal d and off-diagonal e, or None when LAPACK's
    bisection misses it (the top of a scalar pencil can hide so). Without
    ``vector``, s is None and inverse iteration is skipped.

    LAPACK bisection (stebz) and inverse iteration (stein), called as
    ``eigh_tridiagonal(d, e, select="i")`` calls them, with its quick
    exit for one row, but without its argument checks, which cost more
    than the solve at these sizes.
    """
    if d.size == 1:
        return float(d[0]), np.ones(1)
    m, w, iblock, isplit, info = _stebz(d, e, 2, 0.0, 1.0, i, i, 0.0, "B")
    if info == 0 and m == 1:
        if not vector:
            return float(w[0]), None
        s, info = _stein(d, e, w[:1], iblock, isplit)
        if info == 0:
            return float(w[0]), s[:, 0]
    return None


def _top_ritz(d, e):
    """Largest eigenpair (theta, s) of the symmetric tridiagonal matrix
    with diagonal d and off-diagonal e."""
    pair = _tridiagonal_eig(d, e, d.size)
    if pair is None:
        raise LinAlgError("tridiagonal eigensolver failed")
    return pair


def _lanczos(Y, X, op, opts, rng, start, guard, applies, finish):
    """Thick-restart Lanczos for the largest eigenvalue of the pencil (Y, X).
    Returns (lam, v, applies, resid, proven).

    ``op`` is (step, value): ``step(q)`` returns (w, X w) for w = A q, A
    an operator self-adjoint in the X inner product whose largest
    eigenvalue belongs to lambda_max; ``value(theta, v)`` maps a Ritz pair
    to its eigenvalue of (Y, X), None when it is theta (the only case
    that runs the guard, which compares Ritz values with it).
    The basis Q (one vector per row, Q X Q^T = I) and the tridiagonal
    T = (d, e) satisfy A Q[:j].T = Q[:j].T T + e[j-1] Q[j] e_j^T at every
    step, and Ritz vectors are generalized eigenvectors of (Y, X) as they
    stand. A full basis is cut back to its ``_KEEP`` leading Ritz vectors,
    rotated so that T stays tridiagonal with the continuation coupled to
    the last one. A candidate pair that passes the residual test is kept
    alone while ``_GUARD`` steps from a seeded fresh direction look for a
    larger Ritz value; the candidate is returned only if none shows up.
    Without ``guard`` the first pair that passes the residual test is
    returned as it stands. ``applies`` counts on from the given number.

    ``finish``, the cost in applies of a shift-invert finish (inf: never
    finish so), is weighed at every restart: once the solve has spent
    that much and the decay of the Ritz estimate since its last check
    predicts more than that still to go, ``_shift_invert`` finishes it
    from the leading Ritz pair, so a wrong switch at most doubles the
    cost. When the finish fails, the iteration goes on as before.
    """
    step, value = op
    n = X.n
    m = min(_BASIS, n)
    keep = min(_KEEP, m - 1)
    Q = np.empty((m + 1, n))
    d = np.empty(m)
    e = np.zeros(m)  # e[i] couples basis rows i and i + 1
    nq = 0.0 if start is None else _x_norm(X, start)
    Q[0] = start / nq if nq > 0 else _fresh(rng, X, Q[:0])
    j = 0  # basis length
    ritz_tol = opts.tol  # Ritz-estimate threshold relative to the Ritz value
    wait = _CHECK if start is None else 1  # steps to the next Ritz-estimate check
    last = None  # (applies, estimate) at the previous check
    due = math.inf  # applies by which the Ritz estimate is predicted to meet its target
    candidate = None  # (lam, v, resid) waiting for the guard's verdict
    best = None  # (resid, lam, v)
    scale = 0.0  # largest Rayleigh quotient seen, for the breakdown test
    while True:
        if j == m:
            if finish <= applies and finish < due - applies:
                theta, s = _top_ritz(d, e[: m - 1])
                done, applies = _shift_invert(Y, X, theta, s @ Q[:m], opts, rng, applies,
                                              guard)
                if done is not None:
                    return done
            j = _thick_restart(Q, d, e, m, keep)
        w, xw = step(Q[j])
        applies += 1
        h = Q[: j + 1] @ xw  # X inner products with w
        d[j] = h[j]
        scale = max(scale, abs(d[j]))
        w -= h @ Q[: j + 1]
        # X w afresh, not w . X w - |h|^2, which cancels on near-identity
        # pencils; the second pass only moves w by rounding, so b stays exact
        xw = X.matvec(w)
        w -= (Q[: j + 1] @ xw) @ Q[: j + 1]  # second pass: robust orthogonality
        b = math.sqrt(max(w @ xw, 0.0))
        j += 1
        if b > 1e-13 * scale:
            e[j - 1], Q[j] = b, w / b
        else:  # invariant subspace: continue from a fresh direction
            w, e[j - 1] = _fresh(rng, X, Q[:j]), 0.0
            if w is not None:
                Q[j] = w
        exhausted = w is None
        wait -= 1
        spent = applies >= opts.max_iter and candidate is None  # a guard runs to its end
        if wait > 0 and not (exhausted or spent):
            continue
        theta, s = _top_ritz(d[:j], e[: j - 1])
        if candidate is not None:
            lam, v, resid = candidate
            if theta <= lam * (1.0 + 10.0 * opts.tol) + 10.0 * opts.tol:
                return lam, v, applies, resid, False
            candidate = None  # the guard found a larger Ritz value: iterate on
        est = abs(e[j - 1] * s[-1])
        if est <= ritz_tol * abs(theta) or exhausted or spent:
            u = s @ Q[:j]
            v = u / np.linalg.norm(u)
            lam = theta if value is None else value(theta, v)
            resid = pencil_residual(Y, X, lam, v)
            if best is None or resid < best[0]:
                best = (resid, lam, v)
            if resid <= opts.tol:
                if exhausted or not guard:  # exhausted: the basis spans everything
                    return lam, v, applies, resid, False
                # keep the pair alone and restart from a fresh direction
                candidate = (lam, v, resid)
                Q[0] = u / _x_norm(X, u)
                d[0], e[0] = theta, 0.0
                Q[1] = _fresh(rng, X, Q[:1])
                j, wait = 1, min(_GUARD, n - 1)
                continue
            if exhausted or spent or est <= np.finfo(float).eps * abs(theta):
                break  # out of budget, or converged to working precision
            ritz_tol = 0.1 * est / abs(theta)
        need = _remaining(est, ritz_tol * abs(theta), applies, last)
        due = applies + need
        wait = _CHECK if need == math.inf else int(min(max(0.5 * need, 1), _WAIT_MAX))
        last = (applies, est)
    resid, lam, v = best
    raise NoConvergence(
        f"extreme eigenvalue iteration stopped after {applies} operator applications "
        f"with residual {resid:.3e} > tol {opts.tol:.3e}",
        best=(lam, v), residual=resid, iterations=applies)


def _remaining(est, target, applies, last):
    """Applies until the Ritz estimate meets its target at the geometric
    decay rate since the last check (Paige), inf without a decay.

    The next check comes after half of them, at most ``_WAIT_MAX``: a
    slow solve is checked rarely, a fast one again on the step it is
    predicted to converge.
    """
    if last is None or not 0 < est < last[1]:
        return math.inf
    rate = math.log(est / last[1]) / (applies - last[0])
    return math.log(target / est) / rate


def _shift_invert(Y, X, theta, u, opts, rng, applies, prove):
    """Finish lambda_max(Y X^-1) from the Ritz pair (theta, u) by
    shift-invert Lanczos, and prove it by inertia.

    The shift is sigma = theta (1 + resid), resid the pair's residual. If
    sigma X - Y certifies, in X's elimination order, every eigenvalue lies
    below sigma (Sylvester's law of inertia), and the operator
    (sigma X - Y)^-1 X, self-adjoint in the X inner product, maps
    lambda_max to its largest eigenvalue 1 / (sigma - lambda_max), far
    above the images of the rest when sigma is close (Ericsson & Ruhe,
    Math. Comp. 35, 1980; Grimes, Lewis & Simon, SIMAX 15(1), 1994). Its
    Lanczos run returns the Rayleigh quotient rho <= lambda_max of the
    Ritz vector, so rho (1 + 10 tol) X - Y certifying proves
    lambda_max <= rho (1 + 10 tol); that proof stands in for the guard,
    and like the guard it runs only when asked to ``prove``.
    Returns (result, applies), with result (rho, v, applies, resid, prove),
    or None when sigma X - Y or the proof does not certify.
    """
    f = X.chol()
    v = u / np.linalg.norm(u)
    sigma = theta * (1.0 + pencil_residual(Y, X, theta, v))
    try:
        F = _factor_like(f, sigma * X.raw() - Y.raw())
    except (NotPositiveDefinite, NumericalBreakdown):
        return None, applies  # an eigenvalue lies above sigma

    def step(q):
        w = F.solve(X.matvec(q))
        return w, X.matvec(w)

    def rayleigh(theta, v):
        return float(v @ Y.matvec(v)) / float(v @ X.matvec(v))

    lam, v, applies, resid, _ = _lanczos(Y, X, (step, rayleigh), opts, rng, u, False,
                                         applies, math.inf)
    if prove and not _bounded(partial(_factor_like, f), lam, Y.raw(), X.raw(), opts.tol):
        return None, applies
    return (lam, v, applies, resid, prove), applies


def _factor_like(f, M):
    """Certifying factorization of the full symmetric M, a CSR matrix on
    any pattern in the elimination order of the factor f, else dense."""
    if not sp.issparse(M):  # a dense matrix combined with a dense or sparse one
        return _factor(np.asarray(M))
    return _factor(M[f.perm][:, f.perm].tocsc(), f.perm)


def _bounded(factor, top, A, B, tol):
    """Whether every eigenvalue of the pencil (A, B) lies below
    top (1 + 10 tol): whether ``factor`` certifies top (1 + 10 tol) B - A.

    By Sylvester's law of inertia, top (1 + 10 tol) B - A is positive
    definite exactly when every eigenvalue of A B^-1 lies below
    top (1 + 10 tol). ``factor`` takes what ``top * B - A`` gives: a
    matrix, or the values of one on a fixed pattern.
    """
    try:
        factor(top * (1.0 + 10.0 * tol) * B - A)
    except (NotPositiveDefinite, NumericalBreakdown):
        return False
    return True


def _thick_restart(Q, d, e, m, keep):
    """Cut a full basis back to its ``keep`` leading Ritz vectors, in place.

    The kept Ritz vectors couple to the continuation Q[m] through
    b = e[m-1] S[m-1, :]. Reducing the arrowhead [[0, b^T], [b, diag(theta)]]
    to tridiagonal form, the continuation fixed, rotates them so that T is
    tridiagonal again with only the last coupled to the continuation.
    """
    # all pairs: faster than a subset of half of them
    theta, S = eigh_tridiagonal(d[:m], e[: m - 1], check_finite=False)
    theta, S = theta[-keep:], S[:, -keep:]
    arrow = np.diag(np.concatenate(([0.0], theta[::-1])))
    arrow[0, 1:] = arrow[1:, 0] = e[m - 1] * S[-1, ::-1]
    H, P = hessenberg(arrow, calc_q=True, check_finite=False)
    # new basis row t is the reduction's vector keep - t
    rot = S[:, ::-1] @ P[1:, :0:-1]
    Q[:keep] = rot.T @ Q[:m]
    Q[keep] = Q[m]
    d[:keep] = np.diag(H)[:0:-1]
    e[: keep - 1] = np.diag(H, -1)[:0:-1]
    e[keep - 1] = H[1, 0]
    return keep


def _dense_ends(Y, X, both, vectors):
    """The top eigenpair of the pencil (Y, X), and with ``both`` the
    bottom one first, from one reduction with X's dense factor: a list of
    (lam, v), v of unit norm, or None without ``vectors``.

    C = L^-1 Y L^-T (:func:`core._reduce`) is tridiagonalized once
    (dsytrd, at its optimal work size: the unblocked code runs 1.4x
    longer at n = 512) and its ends found by bisection. With ``vectors``,
    inverse iteration gives their vectors, taken back through the
    reflectors (dormqr on the trailing block, as dormtr does) and L^T.
    Where bisection misses an end, the full decomposition of C gives
    both.
    """
    C, L = _reduce(Y, X)
    n = X.n
    picks = (1, n) if both else (n,)
    if n == 1:
        lams, Z = [float(C[0, 0])] * len(picks), np.ones((1, len(picks)))
    else:
        lwork = int(_sytrd_lwork(n, lower=1)[0])
        T, d, e, tau, _ = _sytrd(C, lower=1, lwork=lwork)
        ends = [_tridiagonal_eig(d, e, i, vectors) for i in picks]
        if None in ends:
            w, U = eigh(C, lower=True, check_finite=False)
            lams, Z = [float(w[i - 1]) for i in picks], U[:, [i - 1 for i in picks]]
        else:
            lams = [lam for lam, _ in ends]
            if vectors:
                Z = np.column_stack([s for _, s in ends])
                Z[1:] = _ormqr("L", "N", T[1:, :-1], tau, Z[1:], len(picks))[0]
    if not vectors:
        return [(lam, None) for lam in lams]
    V, _ = _trtrs(L, Z, lower=1, trans=1)
    V /= np.linalg.norm(V, axis=0)
    return [(lam, V[:, j]) for j, lam in enumerate(lams)]


def _dense_pair(Y, X, vectors, residuals):
    """Both extremes of the pencil (Y, X) on the dense backend, as
    ((beta, vb, 0, rb, True), (alpha, va, 0, ra, True)); without
    ``vectors``, every v is None, and without ``vectors`` or
    ``residuals`` every r is nan.

    One reduction gives both ends. Bisection errs by about eps beta, so
    its alpha is relatively accurate only on a narrow pencil: above
    ``_SPREAD``, alpha is the reciprocal of the top of the swapped
    pencil (X, Y), reduced with Y's factor, whose residual is the
    original's as in :func:`_smallest`.
    """
    (alpha, va), (beta, vb) = _dense_ends(Y, X, True, vectors)
    alpha_pencil = (Y, X, alpha)
    if beta > _SPREAD * alpha:
        (mu, va), = _dense_ends(X, Y, False, vectors)
        alpha, alpha_pencil = 1.0 / mu, (X, Y, mu)
    if not (vectors and residuals):
        return (beta, vb, 0, math.nan, True), (alpha, va, 0, math.nan, True)
    return ((beta, vb, 0, pencil_residual(Y, X, beta, vb), True),
            (alpha, va, 0, pencil_residual(*alpha_pencil, va), True))


def _largest(Y, X, opts, seed, start, guard):
    """lambda_max of (Y, X) by Lanczos: (lam, v, iters, resid, proven).

    Lanczos runs on X^-1 Y, one product with Y and one solve with the
    certifying factorization of X per apply, and weighs a shift-invert
    finish that costs two factorizations of X's size, each counted as
    nnz(factor) / n applies, and one basis of steps.
    A dense factorization counts n / 18 applies: n^3 / 3 flops against
    about 6 n^2 for an apply (a dpotrs and two gemvs).
    """
    f = X.chol()

    def step(q):
        y = Y.matvec(q)
        return f.solve(y), y  # X (X^-1 y) = y

    factor_cost = f.nnz / X.n if f.is_sparse else X.n / 18.0
    return _lanczos(Y, X, (step, None), opts, np.random.default_rng(seed), start, guard, 0,
                    2.0 * factor_cost + _BASIS)


def _smallest(Y, X, opts, seed, start, guard):
    """lambda_min of (Y, X) by Lanczos, as 1 / lambda_max(X Y^-1):
    (lam, v, iters, resid, proven).

    The iteration only ever chases a largest eigenvalue, and the swapped
    formulation keeps lambda_min relatively accurate for wide-spread
    pencils. The residual is the swapped solve's: times mu over mu, it is
    that of (1/mu, v) for (Y, X).
    """
    try:
        mu, v, iters, resid, proven = _largest(X, Y, opts, seed, start, guard)
    except NoConvergence as exc:
        mu, v = exc.best
        raise NoConvergence(str(exc), best=(1.0 / mu, v), residual=exc.residual,
                            iterations=exc.iterations) from exc
    return 1.0 / mu, v, iters, resid, proven


def _one_cpu():
    """Whether this process may run on one CPU only."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) <= 1
    return (os.cpu_count() or 1) <= 1


def _apply_work(X, Y):
    """Estimated GIL-free work of one apply of the pencil (Y, X): the
    smaller factor's entries, both matrices' and one Krylov basis row.

    Factors X and then Y, as the serial solves would, so a failed
    certification raises before any thread is involved.
    """
    fx, fy = X.chol(), Y.chol()
    return min(fx.nnz, fy.nnz) + X.nnz + Y.nnz + _BASIS * X.n


def _concurrent(X, Y):
    """Whether the two sides of an iterative pair should run at once."""
    return (X.is_sparse and Y.is_sparse and not _one_cpu()
            and _apply_work(X, Y) > _CONCURRENT_WORK)


def _both(beta_side, alpha_side, concurrent):
    """(beta_side(), alpha_side()), alpha on a worker thread of this pair's
    own when ``concurrent``, else inline after beta.

    Both sides run to their end; beta's error is raised before alpha's,
    as in the serial order. The worker is joined before this returns.
    """
    if not concurrent:
        return beta_side(), alpha_side()
    with ThreadPoolExecutor(1, thread_name_prefix="spdcone-alpha") as worker:
        alpha = worker.submit(alpha_side)
        beta = beta_side()
    return beta, alpha.result()


def extreme_pair(
    X: SpdMatrix, Y: SpdMatrix, opts: EigenOptions | None = None, start=(None, None),
    *, _guard: bool = True, _vectors: bool = True, _residuals: bool = True,
) -> PencilExtremes:
    """(alpha, beta) = extreme eigenvalues of Y X^-1 with residual certificates.

    The iterative backend computes both extremes as largest-eigenvalue
    problems (beta from the pencil (Y, X), alpha as the reciprocal of the
    swapped pencil's maximum). The dense backend takes both from one
    reduction with X's factor while beta / alpha is at most ``_SPREAD``,
    and otherwise alpha as the iterative backend does, so the two agree
    to rounding even on very wide pencils. Iterative per-solve seeds
    derive from ``opts.seed``. ``auto`` takes the dense backend, up to
    ``opts.dense_ceiling``, for a pencil of order at most ``_SMALL``
    whatever its storage (there one reduction costs less than the
    iterative backend's applies) or with a side denser than a quarter,
    and the iterative backend otherwise.
    Public calls always run the guard: an iterative extreme that passes
    the residual test is returned only after the guard sweep finds no
    larger Ritz value, or, for a solve finished by shift-invert, after
    the inertia proof. ``_guard`` is private to the inductive mean, whose
    loose rounds skip sweep and proof because their extremes only steer it.
    ``start`` optionally gives (alpha, beta) start vectors in the original
    coordinates, e.g. the ``vectors`` of a nearby pencil's result; the
    dense backend ignores it. A given start not of shape (n,) raises
    DimensionMismatch. A warm start is not a proof of extremality: from a
    start close to an interior eigenvector, the iteration can return that
    eigenpair, which passes the residual test, and the guard's few steps
    from a fresh direction can miss the larger one. ``proven`` says, per
    extreme, whether an inertia proof backs it: every dense extreme, and
    every iterative one finished by shift-invert under the guard. A caller
    that needs the others proven bounds them by inertia too, as the
    inductive mean does with ``_bounded``.
    ``_vectors=False`` is private to callers that read only alpha and
    beta: the dense backend then stops after bisection, skipping inverse
    iteration, the back-transformation and the residuals, and returns the
    same alpha and beta (unless inverse iteration would have failed and
    sent the default call to the full decomposition) with ``vectors``
    (None, None) and ``residuals`` (nan, nan), not computed.
    ``_residuals=False`` is private to the inductive mean, which reads
    the values and the vectors, from which it takes F's Jacobian: the
    dense backend then returns the default call's alpha, beta and vectors
    with ``residuals`` (nan, nan), skipping the two residual products.
    The iterative backend ignores both.

    Above a work count of one apply, a sparse pencil's alpha solve runs
    on a worker thread of the pair's own while the calling thread runs
    the beta solve; dense pencils and processes that may run on one CPU
    only stay serial. The result, every count in ``opts.stats`` and the
    error raised (beta's before alpha's) do not depend on thread timing;
    a threaded pair gains one thread, joined before it returns.
    """
    opts = opts or EigenOptions()
    _check_dims(X, Y)
    for v in start:
        if v is not None and np.shape(v) != (X.n,):
            raise DimensionMismatch(X.n, np.shape(v))
    backend = _resolve_backend(Y, X, opts)
    if backend == "dense":
        sides = _dense_pair(Y, X, _vectors, _residuals)
    else:
        seed_b, seed_a = (int(s) for s in np.random.SeedSequence(opts.seed).generate_state(2))
        sides = _both(partial(_largest, Y, X, opts, seed_b, start[1], _guard),
                      partial(_smallest, Y, X, opts, seed_a, start[0], _guard),
                      _concurrent(X, Y))
    (beta, vb, it_b, rb, pb), (alpha, va, it_a, ra, pa) = sides
    if opts.stats is not None:
        opts.stats.iterations += it_a + it_b
        opts.stats.solves += 2
    # solver noise can invert a scalar pencil's extremes by an ulp
    if alpha > beta:
        alpha = beta = (alpha + beta) / 2.0
    return PencilExtremes(alpha, beta, (it_a, it_b), (ra, rb), backend, (pa, pb), (va, vb))
