"""Machine-speed probe: report op times at a fixed reference speed.

The benchmark runs on shared hosts whose speed changes by up to a factor
of two over tens of seconds (other tenants contend for cores and caches),
which is as long as a run. So the timed loop runs a short, fixed probe
after every op, and divides each op's wall time by the median probe
ratio over the ops around it, where the probe ratio is how much longer
the probe took than on the reference machine.

The probe touches no spdcone code, so a change to the library moves the
op times and never the probe. It has one part for each kind of work the
library does: interpreted Python, small LAPACK calls, a dense product, a
sparse product, and a product with a 6 MB Krylov-like basis. Its ratio
is the geometric mean of the parts' ratios. The parts swing by different
amounts as the host's load changes (Python and small LAPACK calls more
than the ops do, dense products less), and by how much depends on the
kind of load; on the reference machine, 20-op stretches of each workload
varied as the geometric mean to the power 1.02 (mean-families), 0.97
(pencils-sparse) and 1.10 (cli-files). On a machine as fast as the
reference one the scaled times equal the wall times; run.py prints both.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np
import scipy.linalg
import scipy.sparse as sp

# Median time of each part of the probe on the reference machine (2
# vCPUs of an Intel Xeon, one BLAS thread; see baseline.json).
REFERENCE_S = {
    "python": 0.00046,
    "lapack": 0.00125,
    "dense": 0.00043,
    "sparse": 0.00059,
    "basis": 0.00176,
}
# An op's speed is the median probe ratio over the WINDOW ops on each side.
WINDOW = 10
# set-up is timed between this many probes before and after it
SETUP_PROBES = 20


def _parts():
    rng = np.random.default_rng(0)
    B = rng.random((48, 48))
    spd = B @ B.T + 48.0 * np.eye(48)
    small = rng.random((120, 120))
    n = 20000
    sparse = sp.csr_matrix((rng.random(4 * n), rng.integers(0, n, 4 * n),
                            np.arange(0, 4 * n + 1, 4)), shape=(n, n))
    x = np.ones(n)
    basis = rng.random((8000, 96))
    coeffs, vec = rng.random(96), rng.random(8000)

    def step(i):
        return i + 1

    def python():
        total = 0
        for i in range(3000):
            total += step(i)

    def lapack():
        for _ in range(20):
            np.dot(spd, spd)
            scipy.linalg.cholesky(spd)

    def dense():
        for _ in range(3):
            small @ small

    def sparse_product():
        for _ in range(3):
            sparse @ x

    def basis_product():
        for _ in range(2):
            basis @ coeffs
            basis.T @ vec

    return {"python": python, "lapack": lapack, "dense": dense,
            "sparse": sparse_product, "basis": basis_product}


_parts_cache = None


def probe():
    """Run the probe once; returns its time over the reference machine's."""
    global _parts_cache
    if _parts_cache is None:
        _parts_cache = _parts()
        for part in _parts_cache.values():
            part()  # the first call pays for imports and page faults
    logs = []
    for name, part in _parts_cache.items():
        t0 = perf_counter()
        part()
        logs.append(math.log((perf_counter() - t0) / REFERENCE_S[name]))
    return math.exp(statistics.fmean(logs))


def scale_results(results):
    """Set each result's ``scale`` from the probes run around it."""
    ratios = [r.probe for r in results]
    for i, res in enumerate(results):
        res.scale = 1.0 / statistics.median(ratios[max(0, i - WINDOW):i + WINDOW + 1])


def between_probes(fn):
    """Run ``fn()`` between probes; returns (its value, its scale to reference speed)."""
    around = [probe() for _ in range(SETUP_PROBES)]
    value = fn()
    around += [probe() for _ in range(SETUP_PROBES)]
    return value, 1.0 / statistics.median(around)
