import numpy as np
import pytest

from spdcone import random_spd, random_sparse_spd


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


def spd_pair(rng, n, spread=1.5):
    return random_spd(n, rng, spread), random_spd(n, rng, spread)


def sparse_pair(rng, n, density=0.05):
    return random_sparse_spd(n, density, rng), random_sparse_spd(n, density, rng)
