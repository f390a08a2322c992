"""Extreme generalized eigenvalues of SPD pencils.

Everything downstream (distances, geodesics, the inductive mean) consumes
only the smallest and largest eigenvalues (alpha, beta) of a pencil
Y X^-1. Two backends compute them:

* ``dense``   - the top eigenpair of the generalized problem (LAPACK), the oracle.
* ``iterative`` - thick-restart Lanczos with full reorthogonalization on
  the operator q -> X^-1 (Y q), self-adjoint in the X inner product,
  applied through one product with Y, one with X and one solve with the
  certifying factorization of X per step; the pencil Y X^-1 is never
  formed and Y is never copied. A restart keeps the leading Ritz vectors, so a
  clustered top of the spectrum keeps its Krylov information.

The smallest eigenvalue is always computed as the reciprocal of the
largest eigenvalue of the swapped pencil X Y^-1, so the Krylov iteration
only ever chases a largest eigenvalue, where its convergence is robust.
The iteration stops once the cheap Ritz estimate |b_m s_m| says the top
pair has converged. The only acceptance test is the backward-error style
residual ``|Y v - lam X v| / (|Y v| + |lam| |X v|)`` of the pencil
solved (for alpha the swapped one, whose residual is the original's), and
a few steps from a fresh direction must then find no larger Ritz value.
A solve may start from a given vector, e.g. an eigenvector of a nearby
pencil; ``max_iter`` and iteration counts are operator applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal, hessenberg

from .core import DEFAULT_DENSE_CEILING, SpdMatrix, _check_dims, fro_norm
from .errors import (
    DimensionMismatch,
    InvalidOption,
    NoConvergence,
    require_integer,
    require_positive_finite,
)

_BASIS = 40  # Krylov basis length that triggers a thick restart
_KEEP = 20  # leading Ritz vectors kept across a restart
_CHECK = 4  # steps between Ritz-estimate checks without a decay rate
_WAIT_MAX = 16  # most steps between Ritz-estimate checks
_GUARD = 8  # steps from a fresh direction before accepting a pair


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

    ``iterations`` and ``residuals`` are ordered (alpha solve, beta solve);
    ``iterations`` counts operator applications, and the dense backend
    reports zero. ``vectors`` holds the matching generalized eigenvectors,
    a start for a nearby pencil; they take no part in comparison.
    """

    alpha: float
    beta: float
    iterations: tuple
    residuals: tuple
    backend: str
    vectors: tuple = field(default=(None, None), compare=False, repr=False)


def _density(M: SpdMatrix) -> float:
    if not M.is_sparse:
        return 1.0
    return M.nnz / float(M.n * M.n)


def _resolve_backend(Y: SpdMatrix, X: SpdMatrix, opts: EigenOptions) -> str:
    if opts.backend != "auto":
        return opts.backend
    n = X.n
    if n <= opts.dense_ceiling and max(_density(X), _density(Y)) > 0.25:
        return "dense"
    return "iterative"


def pencil_residual(Y: SpdMatrix, X: SpdMatrix, lam: float, v: np.ndarray) -> float:
    """Relative backward-error residual of (lam, v) for the pencil (Y, X).

    The norms are scale-safe; a zero or non-finite denominator gives inf,
    which fails every acceptance test.
    """
    yv = Y.matvec(v)
    xv = X.matvec(v)
    den = fro_norm(yv) + abs(lam) * fro_norm(xv)
    return fro_norm(yv - lam * xv) / den if 0.0 < den < math.inf else math.inf


def _x_norm(X, q):
    """X-norm sqrt(q . X q), clipped at zero against rounding."""
    return math.sqrt(max(q @ X.matvec(q), 0.0))


def _fresh(rng, X, B):
    """Seeded random vector of unit X-norm, X-orthogonal to the rows of B, or None if they span."""
    q = rng.uniform(-1.0, 1.0, X.n)
    size = _x_norm(X, q)
    for _ in range(2):  # second pass: robust orthogonality
        q -= (B @ X.matvec(q)) @ B
    nq = _x_norm(X, q)
    return q / nq if nq > 1e-8 * size else None


def _lanczos_largest(Y, X, opts, seed, start, guard):
    """Thick-restart Lanczos for lambda_max(Y X^-1). Returns (lam, v, applies, resid).

    The operator A = X^-1 Y is self-adjoint in the X inner product. The
    basis Q (one vector per row, Q X Q^T = I) and the tridiagonal
    T = (d, e) satisfy A Q[:j].T = Q[:j].T T + e[j-1] Q[j] e_j^T at every
    step, and Ritz vectors are generalized eigenvectors of (Y, X) as they
    stand. A full basis is cut back to its ``_KEEP`` leading Ritz vectors,
    rotated so that T stays tridiagonal with the continuation coupled to
    the last one. A candidate pair that passes the residual test is kept
    alone while ``_GUARD`` steps from a seeded fresh direction look for a
    larger Ritz value; the candidate is returned only if none shows up.
    Without ``guard`` the first pair that passes the residual test is
    returned as it stands.
    """
    f = X.chol()
    n = X.n
    rng = np.random.default_rng(seed)
    m = min(_BASIS, n)
    keep = min(_KEEP, m - 1)
    Q = np.empty((m + 1, n))
    d = np.empty(m)
    e = np.zeros(m)  # e[i] couples basis rows i and i + 1
    nq = 0.0 if start is None else _x_norm(X, start)
    Q[0] = start / nq if nq > 0 else _fresh(rng, X, Q[:0])
    j = 0  # basis length
    ritz_tol = opts.tol  # Ritz-estimate threshold relative to the Ritz value
    applies = 0
    wait = _CHECK if start is None else 1  # steps to the next Ritz-estimate check
    last = None  # (applies, estimate) at the previous check
    candidate = None  # (lam, v, resid) waiting for the guard's verdict
    best = None  # (resid, lam, v)
    scale = 0.0  # largest Rayleigh quotient seen, for the breakdown test
    while True:
        if j == m:
            j = _thick_restart(Q, d, e, m, keep)
        y = Y.matvec(Q[j])
        w = f.solve(y)
        applies += 1
        h = Q[: j + 1] @ y  # X inner products with w = X^-1 y
        d[j] = h[j]
        scale = max(scale, abs(d[j]))
        w -= h @ Q[: j + 1]
        # X w afresh, not w . y - |h|^2, which cancels on near-identity
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
        theta, s = eigh_tridiagonal(d[:j], e[: j - 1], select="i", select_range=(j - 1, j - 1),
                                    check_finite=False)
        theta, s = float(theta[0]), s[:, 0]
        if candidate is not None:
            lam, v, resid = candidate
            if theta <= lam * (1.0 + 10.0 * opts.tol) + 10.0 * opts.tol:
                return lam, v, applies, resid
            candidate = None  # the guard found a larger Ritz value: iterate on
        est = abs(e[j - 1] * s[-1])
        if est <= ritz_tol * abs(theta) or exhausted or spent:
            u = s @ Q[:j]
            v = u / np.linalg.norm(u)
            resid = pencil_residual(Y, X, theta, v)
            if best is None or resid < best[0]:
                best = (resid, theta, v)
            if resid <= opts.tol:
                if exhausted or not guard:  # exhausted: the basis spans everything
                    return theta, v, applies, resid
                # keep the pair alone and restart from a fresh direction
                candidate = (theta, v, resid)
                Q[0] = u / _x_norm(X, u)
                d[0], e[0] = theta, 0.0
                Q[1] = _fresh(rng, X, Q[:1])
                j, wait = 1, min(_GUARD, n - 1)
                continue
            if exhausted or spent or est <= np.finfo(float).eps * abs(theta):
                break  # out of budget, or converged to working precision
            ritz_tol = 0.1 * est / abs(theta)
        wait = _next_check(est, ritz_tol * abs(theta), applies, last)
        last = (applies, est)
    resid, lam, v = best
    raise NoConvergence(
        f"extreme eigenvalue iteration stopped after {applies} operator applications "
        f"with residual {resid:.3e} > tol {opts.tol:.3e}",
        best=(lam, v), residual=resid, iterations=applies)


def _next_check(est, target, applies, last):
    """Steps to the next Ritz-estimate check, in [1, _WAIT_MAX].

    Half the number of steps in which the geometric decay since the last
    check would take the estimate to its target: a slow solve is checked
    rarely, a fast one again on the step it is predicted to converge.
    """
    if last is None or not 0 < est < last[1]:
        return _CHECK
    rate = math.log(est / last[1]) / (applies - last[0])
    return int(min(max(0.5 * math.log(target / est) / rate, 1), _WAIT_MAX))


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


def _dense_largest(Y, X):
    n = X.n
    w, U = eigh(Y.dense(), X.dense(), subset_by_index=[n - 1, n - 1])
    if w.size == 0:
        # LAPACK's bisection can miss a top eigenvalue of high multiplicity
        # (a scalar pencil); the full decomposition cannot
        w, U = eigh(Y.dense(), X.dense())
    lam, v = float(w[-1]), U[:, -1] / np.linalg.norm(U[:, -1])
    return lam, v, 0, pencil_residual(Y, X, lam, v)


def _largest(Y, X, backend, opts, seed, start, guard):
    """lambda_max of (Y, X) on the given backend: (lam, v, iters, resid)."""
    if backend == "dense":
        return _dense_largest(Y, X)
    return _lanczos_largest(Y, X, opts, seed, start, guard)


def _smallest(Y, X, backend, opts, seed, start, guard):
    """lambda_min of (Y, X) as 1 / lambda_max(X Y^-1): (lam, v, iters, resid).

    The swapped formulation keeps lambda_min relatively accurate for
    wide-spread pencils, where the low end of one dense decomposition only
    has absolute accuracy on the lambda_max scale. The residual is the
    swapped solve's: times mu over mu, it is that of (1/mu, v) for (Y, X).
    """
    try:
        mu, v, iters, resid = _largest(X, Y, backend, opts, seed, start, guard)
    except NoConvergence as exc:
        mu, v = exc.best
        raise NoConvergence(str(exc), best=(1.0 / mu, v), residual=exc.residual,
                            iterations=exc.iterations) from exc
    return 1.0 / mu, v, iters, resid


def extreme_pair(
    X: SpdMatrix, Y: SpdMatrix, opts: EigenOptions | None = None, start=(None, None),
    *, _guard: bool = True,
) -> PencilExtremes:
    """(alpha, beta) = extreme eigenvalues of Y X^-1 with residual certificates.

    Both backends compute both extremes as largest-eigenvalue problems
    (beta from the pencil (Y, X), alpha as the reciprocal of the swapped
    pencil's maximum), so the two routes agree to rounding even on very
    wide pencils. Iterative per-solve seeds derive from ``opts.seed``.
    Public calls always run the guard: an iterative extreme that passes
    the residual test is returned only after the guard sweep finds no
    larger Ritz value. ``_guard`` is private to the inductive mean, whose
    loose rounds skip the sweep because their extremes only steer it.
    ``start`` optionally gives (alpha, beta) start vectors in the original
    coordinates, e.g. the ``vectors`` of a nearby pencil's result; the
    dense backend ignores it. A given start not of shape (n,) raises
    DimensionMismatch. A warm start is not a proof of extremality: from a
    start close to an interior eigenvector, the iteration can return that
    eigenpair, which passes the residual test, and the guard's few steps
    from a fresh direction can miss the larger one. A caller that needs
    the extremes proven brackets them by inertia, as the inductive mean
    does.
    """
    opts = opts or EigenOptions()
    _check_dims(X, Y)
    for v in start:
        if v is not None and np.shape(v) != (X.n,):
            raise DimensionMismatch(X.n, np.shape(v))
    backend = _resolve_backend(Y, X, opts)
    seed_b, seed_a = (int(s) for s in np.random.SeedSequence(opts.seed).generate_state(2))
    beta, vb, it_b, rb = _largest(Y, X, backend, opts, seed_b, start[1], _guard)
    alpha, va, it_a, ra = _smallest(Y, X, backend, opts, seed_a, start[0], _guard)
    if opts.stats is not None:
        opts.stats.iterations += it_a + it_b
        opts.stats.solves += 2
    # solver noise can invert a scalar pencil's extremes by an ulp
    if alpha > beta:
        alpha = beta = (alpha + beta) / 2.0
    return PencilExtremes(alpha, beta, (it_a, it_b), (ra, rb), backend, (va, vb))
