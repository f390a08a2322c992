"""Distances on the SPD cone.

The Thompson and Hilbert distances read off the extreme eigenvalues
(alpha, beta) of the pencil Y X^-1 and therefore scale to large sparse
matrices; the Riemannian distance and the general Schatten-type family
need the full generalized spectrum and are deliberately dense-only, so
that no dense solve can hide inside a nominally scalable call.
"""

from __future__ import annotations

import math
import numpy as np

from .core import SpdMatrix, spectrum_dense
from .eigen import EigenOptions, extreme_pair
from .errors import InvalidGauge


def thompson_distance(
    X: SpdMatrix, Y: SpdMatrix, opts: EigenOptions | None = None
) -> float:
    """Thompson part metric max(log beta, -log alpha).

    Uses only the two extreme eigenvalues of Y X^-1, never the full
    spectrum, so it runs matrix-free on large sparse pairs.
    """
    ext = extreme_pair(X, Y, opts, _vectors=False)
    return max(math.log(ext.beta), -math.log(ext.alpha))


def hilbert_distance(
    X: SpdMatrix, Y: SpdMatrix, opts: EigenOptions | None = None
) -> float:
    """Hilbert projective metric log(beta / alpha).

    A pseudo-metric: it vanishes exactly on rays Y = c X, c > 0.
    """
    ext = extreme_pair(X, Y, opts, _vectors=False)
    return math.log(ext.beta) - math.log(ext.alpha)


def riemannian_distance(
    X: SpdMatrix, Y: SpdMatrix, opts: EigenOptions | None = None
) -> float:
    """Affine-invariant Riemannian distance sqrt(sum_i log^2 lambda_i(Y X^-1)).

    Needs the full spectrum: raises DenseLimitExceeded above
    ``opts.dense_ceiling``.
    """
    logs = np.log(spectrum_dense(X, Y, opts))
    return float(np.sqrt(np.sum(logs * logs)))


def phi_distance(
    X: SpdMatrix,
    Y: SpdMatrix,
    p: float,
    opts: EigenOptions | None = None,
) -> float:
    """l_p gauge distance: the p-norm of the log generalized spectrum.

    p >= 1 (else InvalidGauge), p = inf allowed. p = 2 reproduces the
    Riemannian distance and p = inf the Thompson distance (through the
    dense path, so above ``opts.dense_ceiling`` it raises
    DenseLimitExceeded).
    """
    p = float(p)
    if not p >= 1.0:
        raise InvalidGauge(p)
    logs = np.abs(np.log(spectrum_dense(X, Y, opts)))
    if math.isinf(p):
        return float(np.max(logs))
    return float(np.sum(logs ** p) ** (1.0 / p))
