"""Reference values the benchmark checks every operation against.

Computed by the benchmark itself with scipy, outside the timed loop and
outside ``setup_s``:

* extremes (alpha, beta) of Y X^-1: closed form for grid pencils, dense
  ``scipy.linalg.eigh(..., subset_by_index=...)`` for n <= 2048, and
  ARPACK ``eigsh`` in generalized (M-inner-product) mode above that;
* the Riemannian distance from the full dense generalized spectrum.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.linalg import LinearOperator, eigsh, splu

# Criterion-8 bound: (alpha, beta) agree with the oracle to this relative error.
REL_TOL = 1e-8
DENSE_ORACLE_MAX = 2048


def _dense(A):
    return A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)


def _largest_generalized(A, B):
    """Largest lambda of A v = lambda B v for sparse SPD A, B."""
    lu = splu(sp.csc_matrix(B), permc_spec="MMD_AT_PLUS_A")
    Binv = LinearOperator(B.shape, matvec=lu.solve, dtype=float)
    return float(eigsh(sp.csr_matrix(A), k=1, M=sp.csr_matrix(B), Minv=Binv,
                       which="LA", tol=0, return_eigenvectors=False)[0])


def extremes(X, Y):
    """(alpha, beta) = extreme eigenvalues of the pencil Y X^-1."""
    n = X.shape[0]
    if n <= DENSE_ORACLE_MAX:
        Xd, Yd = _dense(X), _dense(Y)
        alpha = eigh(Yd, Xd, eigvals_only=True, subset_by_index=[0, 0])[0]
        beta = eigh(Yd, Xd, eigvals_only=True, subset_by_index=[n - 1, n - 1])[0]
        return float(alpha), float(beta)
    return 1.0 / _largest_generalized(X, Y), _largest_generalized(Y, X)


def grid_extremes(m, a, b):
    """Extremes of (L + b I)(L + a I)^-1 for the m x m grid Laplacian, b > a.

    L has eigenvalues 4 - 2 cos(i pi/(m+1)) - 2 cos(j pi/(m+1)); the
    pencil maps lambda to (lambda + b)/(lambda + a), which decreases in
    lambda, so beta comes from the smallest and alpha from the largest.
    """
    h = math.pi / (2.0 * (m + 1))
    lam_min = 8.0 * math.sin(h) ** 2
    lam_max = 8.0 * math.cos(h) ** 2
    return (lam_max + b) / (lam_max + a), (lam_min + b) / (lam_min + a)


def riemannian(X, Y):
    w = eigh(_dense(Y), _dense(X), eigvals_only=True)
    return float(np.sqrt(np.sum(np.log(w) ** 2)))


def thompson(alpha, beta):
    return max(math.log(beta), -math.log(alpha))


def hilbert(alpha, beta):
    return math.log(beta) - math.log(alpha)


def close_rel(value, ref, tol=REL_TOL):
    return abs(value - ref) <= tol * abs(ref)


def close_log(value, ref):
    """Distances are logs of (alpha, beta): a relative error of REL_TOL in
    each extreme moves the Hilbert distance by at most 2 REL_TOL."""
    return abs(value - ref) <= 2.0 * REL_TOL
