"""Seeded generators for the structured benchmark inputs.

Every generator returns a plain scipy sparse matrix (COO, exactly
symmetric); the workloads certify it with ``SpdMatrix`` during set-up and
hand the raw matrix to the oracle. The random families reuse
``spdcone.random_sparse_spd`` and ``spdcone.random_spd``.

The random pencils (random sparse, banded) draw all their values from
the seed. The grid and Toeplitz pencils keep a fixed shape and let the
seed perturb their parameters by at most 2%: their difficulty for the
Krylov solver is a property of the shape (clustered extremes), and a
perturbation that small keeps it, so every seed measures the same
workload while still changing the inputs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

# Two banded Toeplitz symbols whose pencil has clustered extremes.
TOEPLITZ_X = np.array([-0.6, 0.25, -0.1, 0.05, -0.02])
TOEPLITZ_Y = np.array([0.4, -0.3, 0.2, -0.1, 0.05])
PERTURB = 0.02


def _jitter(value, rng):
    return value * (1.0 + PERTURB * rng.uniform(-1.0, 1.0, np.shape(value)))


def grid_laplacian(m):
    """5-point Dirichlet Laplacian on an m x m grid (n = m^2)."""
    T = sp.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
    I = sp.identity(m)
    return (sp.kron(I, T) + sp.kron(T, I)).tocoo()


def grid_pencil(m, rng):
    """(X, Y, a, b) with X = L + a I, Y = L + b I, a ~ 0.1 and b ~ 1.

    The pencil's extremes are known in closed form; see
    ``oracle.grid_extremes``.
    """
    a = float(_jitter(0.1, rng))
    b = float(_jitter(1.0, rng))
    L = grid_laplacian(m)
    I = sp.identity(m * m)
    return (L + a * I).tocoo(), (L + b * I).tocoo(), a, b


def banded(n, bandwidth, rng):
    """Random symmetric banded matrix made strictly diagonally dominant."""
    offsets = range(1, bandwidth + 1)
    G = sp.diags([rng.uniform(-1.0, 1.0, n - k) for k in offsets],
                 [-k for k in offsets], shape=(n, n))
    G = (G + G.T).tocsr()
    row_weight = np.asarray(abs(G).sum(axis=1)).ravel()
    return (G + sp.diags(row_weight + rng.uniform(0.5, 1.5, n))).tocoo()


def toeplitz(n, coeffs, margin, rng):
    """Symmetric banded Toeplitz matrix from jittered off-diagonal coefficients.

    The diagonal is 2 sum |c_k| + margin, so the symbol is bounded below
    by ``margin`` and the matrix is SPD.
    """
    c = _jitter(np.asarray(coeffs, dtype=float), rng)
    c0 = 2.0 * np.abs(c).sum() + margin
    k = np.arange(1, len(c) + 1)
    diagonals = [np.full(n - j, v) for j, v in zip(k, c)]
    return sp.diags(diagonals * 2 + [np.full(n, c0)],
                    list(-k) + list(k) + [0], shape=(n, n)).tocoo()


def toeplitz_pair(n, rng):
    return toeplitz(n, TOEPLITZ_X, 0.2, rng), toeplitz(n, TOEPLITZ_Y, 0.5, rng)
