"""Geodesic families on the SPD cone and their coefficient functions.

Three interpolation paths between SPD matrices X and Y are provided:

* ``star_geodesic``  - the distinguished Thompson-metric geodesic, a
  linear combination phi * Y + psi * X whose coefficients depend only on
  the extreme eigenvalues (alpha, beta) of Y X^-1 and on t. It is the
  scalable path: sparse in, sparse out.
* ``riemannian_geodesic`` - the affine-invariant Riemannian geodesic
  X^(1/2) (X^(-1/2) Y X^(-1/2))^t X^(1/2), dense by nature.
* ``diamond_geodesic`` - an alternative Thompson-metric geodesic whose
  branch follows the sign of log(alpha * beta).

Each takes t as one float, returning one point, or as a sequence of
floats, returning the list of points; the pencil work (one extreme pair,
or the two eigendecompositions) is done once per call. The star and
diamond points are both combinations c_Y * Y + c_X * X, sampled by one
helper that certifies them on [0, 1] and warns outside. A t so far out
that a point is no finite float raises InvalidArgument naming t, on
every family.

``geodesic_coefficients`` gives the star pair (phi, psi) at t, and
``coefficient_derivatives`` their t = 0 derivatives (m, o), the building
blocks of the inductive mean's fixed-point equation.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from functools import partial

import numpy as np
from scipy.linalg import eigh

from .core import SpdMatrix, _check_dense_ceiling, _check_dims, combine
from .eigen import EigenOptions, extreme_pair
from .errors import (
    DegeneratePencil,
    InvalidArgument,
    NonPositiveAlpha,
    OrderViolation,
)

# below this log-spread the generic formulas switch to the equal branch
BRANCH_TOL = 1e-8
# relative slack before beta < alpha counts as an ordering violation
ORDER_RTOL = 1e-9


def _validate_pair(alpha: float, beta: float) -> float:
    if not alpha > 0:
        raise NonPositiveAlpha(alpha)
    if beta < alpha * (1.0 - ORDER_RTOL):
        raise OrderViolation(alpha, beta)
    return max(beta, alpha)


def coefficient_derivatives(alpha: float, beta: float):
    """Derivatives (m, o) of (phi, psi) at t = 0.

    Generic branch: m = (log b - log a)/(b - a), o = (b log a - a log b)/(b - a),
    evaluated through expm1 so the beta -> alpha limit is seamless;
    equal branch: m = 1/a, o = log a - 1.
    """
    beta = _validate_pair(alpha, beta)
    delta = math.log(beta) - math.log(alpha)
    if delta <= BRANCH_TOL:
        return 1.0 / alpha, math.log(alpha) - 1.0
    em = math.expm1(delta)
    m = delta / (alpha * em)
    o = math.log(alpha) - delta / em
    return m, o


def geodesic_coefficients(alpha: float, beta: float, t: float) -> tuple[float, float]:
    """Interpolation coefficients (phi, psi) at t for pencil extremes (alpha, beta).

    The generic expressions (b^t - a^t)/(b - a) and (b a^t - a b^t)/(b - a)
    cancel catastrophically as beta -> alpha, so they are evaluated as

        phi = a^(t-1) expm1(t d) / expm1(d),
        psi = -b a^(t-1) expm1((t-1) d) / expm1(d),   d = log(b/a),

    which stay at full precision across the branch boundary. t may lie
    anywhere in R; outside [0, 1] phi or psi can be negative. Far outside,
    where phi or psi is no finite float, InvalidArgument names t.
    """
    beta = _validate_pair(alpha, beta)
    t = float(t)
    delta = math.log(beta) - math.log(alpha)
    try:
        if delta <= BRANCH_TOL:
            at = alpha ** t
            phi, psi = t * at / alpha, (1.0 - t) * at
        elif t == 0.0 or t == 1.0:
            # the endpoint values are identities of the formulas; pinning them
            # exactly keeps t=0 and t=1 outputs bit-identical to the inputs
            phi, psi = (0.0, 1.0) if t == 0.0 else (1.0, 0.0)
        else:
            em = math.expm1(delta)
            atm1 = alpha ** (t - 1.0)
            phi = atm1 * math.expm1(t * delta) / em
            psi = -beta * atm1 * math.expm1((t - 1.0) * delta) / em
    except OverflowError:
        phi = psi = math.inf
    _require_finite(t, (phi, psi))
    return phi, psi


def _require_finite(t, values):
    """Raise InvalidArgument naming t unless every value is a finite float."""
    if not np.isfinite(values).all():
        raise InvalidArgument(
            f"geodesic at t = {t} is not finite in floating point; take t nearer [0, 1]"
        )


def _path(t, point):
    """point(t) for one parameter t, or [point(s) for s in t] for a sequence.

    ``map`` keeps the call depth of point the same on both routes, so the
    warning's stacklevel names the caller either way.
    """
    return point(t) if np.ndim(t) == 0 else list(map(point, t))


def _combination_path(X, Y, t, coefficients):
    """c_Y Y + c_X X with (c_Y, c_X) = coefficients(s), at t or along a sequence t.

    A point with s in [0, 1] is certified. Outside, it may leave the cone:
    it comes back uncertified, with a RuntimeWarning attributed to the
    geodesic's caller.
    """

    def point(s):
        c_y, c_x = coefficients(s)
        inside = 0.0 <= s <= 1.0
        out = combine([(c_y, Y), (c_x, X)], certify=inside)
        if not inside:
            warnings.warn(
                f"geodesic evaluated at t={s} outside [0, 1]: result returned "
                "without positive-definiteness certification",
                RuntimeWarning,
                stacklevel=5,  # through _path, this helper and the geodesic to its caller
            )
        return out

    return _path(t, point)


def star_geodesic(
    X: SpdMatrix,
    Y: SpdMatrix,
    t: float | Sequence[float],
    opts: EigenOptions | None = None,
) -> SpdMatrix | list[SpdMatrix]:
    """Point at parameter t on the distinguished Thompson geodesic from X to Y.

    Computes phi * Y + psi * X from the extreme eigenvalues of Y X^-1
    only; never touches the interior spectrum. Sparse inputs give a
    sparse result whose pattern is contained in the union of the input
    patterns.

    Parameters
    ----------
    X, Y : SpdMatrix
        Endpoints, same dimension.
    t : float or sequence of float
        Position on the path; t = 0 gives X and t = 1 gives Y exactly.
        Values outside [0, 1] extrapolate. A sequence samples the path
        with one extreme-eigenvalue solve for all its points.
    opts : EigenOptions, optional
        Extreme-eigenvalue solver options.

    Returns
    -------
    SpdMatrix, or a list of them in the order of t
        The interpolation point, certified for t in [0, 1]. Outside, it
        may leave the cone: it comes back uncertified with a
        RuntimeWarning, and its ``chol()`` certifies it or raises.
    """
    ext = extreme_pair(X, Y, opts)
    return _combination_path(X, Y, t, partial(geodesic_coefficients, ext.alpha, ext.beta))


def riemannian_geodesic(
    X: SpdMatrix,
    Y: SpdMatrix,
    t: float | Sequence[float],
    opts: EigenOptions | None = None,
) -> SpdMatrix | list[SpdMatrix]:
    """Affine-invariant Riemannian geodesic X^(1/2)(X^(-1/2) Y X^(-1/2))^t X^(1/2).

    Requires two full eigendecompositions, so it raises
    DenseLimitExceeded above ``opts.dense_ceiling``; a sequence of t
    shares them. The result is SPD for every real t at which it is a
    finite float; where it is not, InvalidArgument names t.
    """
    _check_dims(X, Y)
    _check_dense_ceiling(X.n, opts)
    w, V = eigh(X.dense())
    sqrt_w = w ** 0.5
    Xh = (V * sqrt_w) @ V.T
    Xmh = (V / sqrt_w) @ V.T
    M = Xmh @ Y.dense() @ Xmh
    M = (M + M.T) / 2.0
    wm, Vm = eigh(M)

    def point(s):
        # far from [0, 1] wm ** s overflows: reported below as the t it came
        # from, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            R = Xh @ ((Vm * wm ** s) @ Vm.T) @ Xh
            R = (R + R.T) / 2.0
        _require_finite(s, R)
        return SpdMatrix(R)

    return _path(t, point)


def diamond_geodesic(
    X: SpdMatrix,
    Y: SpdMatrix,
    t: float | Sequence[float],
    opts: EigenOptions | None = None,
) -> SpdMatrix | list[SpdMatrix]:
    """Point at parameter t on the diamond Thompson geodesic from X to Y.

    Uses the lambda_max branch when alpha * beta >= 1 and the lambda_min
    branch otherwise (the branches agree at alpha * beta = 1). Undefined
    when the extremes coincide; raises DegeneratePencil there, in which
    case the star geodesic is the drop-in replacement. t may be a
    sequence, as for ``star_geodesic``.
    """
    ext = extreme_pair(X, Y, opts)
    alpha, beta = ext.alpha, ext.beta
    if math.log(beta) - math.log(alpha) <= BRANCH_TOL:
        raise DegeneratePencil(alpha, beta)
    lam = beta if alpha * beta >= 1.0 else alpha
    ell = math.log(lam)

    def coefficients(s):
        # (lam^s - lam^-s) / (lam - lam^-1) = sinh(s ell) / sinh(ell), which is
        # cancellation-free for lam near 1
        try:
            c = math.sinh(s * ell) / math.sinh(ell), math.sinh((1.0 - s) * ell) / math.sinh(ell)
        except OverflowError:
            c = math.inf, math.inf
        _require_finite(s, c)
        return c

    return _combination_path(X, Y, t, coefficients)
