import numpy as np
import pytest
import scipy.sparse as sp

from spdcone import random_spd, random_sparse_spd
from spdcone.core import fro_norm


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def extreme_pair_calls(monkeypatch):
    """List that gains one entry per extreme_pair call made by the geodesics."""
    import spdcone.geodesics

    calls = []
    original = spdcone.geodesics.extreme_pair

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(spdcone.geodesics, "extreme_pair", counting)
    return calls


@pytest.fixture
def factor_calls(monkeypatch):
    """List that gains, per factorization spdcone.core runs, "splu" for
    SuperLU, "_factor_dense" for a certifying dense Cholesky (one potrf)
    and "dpotrf" for the uncertified potrf a reduction may run."""
    import spdcone.core

    calls = []
    for name in ("splu", "_factor_dense", "dpotrf"):
        def counting(*args, _name=name, _original=getattr(spdcone.core, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(spdcone.core, name, counting)
    return calls


def spd_pair(rng, n, spread=1.5):
    return random_spd(n, rng, spread), random_spd(n, rng, spread)


def sparse_pair(rng, n, density=0.05):
    return random_sparse_spd(n, density, rng), random_sparse_spd(n, density, rng)


def _fro(A):
    """Frobenius norm of an array or sparse matrix, scale-safe (fro_norm)."""
    if sp.issparse(A):
        A = A.tocsr(copy=True)
        A.sum_duplicates()
        A = A.data
    return fro_norm(A)


def factor_error(X):
    """Relative Frobenius error of L L^T against X, permuted into the
    factor's elimination order when sparse; at any scale, since the norms
    neither overflow nor underflow."""
    f = X.chol()
    A = X.raw() if f.perm is None else X.raw()[f.perm][:, f.perm]
    return _fro(f.L @ f.L.T - A) / _fro(A)
