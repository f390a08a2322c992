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
or one reduction with X's factor and one eigendecomposition) is done once
per call, and t = 0 and t = 1 give the inputs X and Y themselves, in
their own storage, even where the points between are stored otherwise
(dense Riemannian points of sparse inputs, dense star points of a sparse
and a dense input).
The other star and diamond points are combinations c_Y * Y + c_X * X,
sampled by one helper that certifies them on [0, 1] and warns outside.
A t so far out that a point is no finite float raises InvalidArgument
naming t, on every family.

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

from .core import SpdMatrix, _check_dense_ceiling, _check_dims, _reduce, combine
from .eigen import EigenOptions, extreme_pair
from .errors import (
    DegeneratePencil,
    InvalidArgument,
    InvalidMatrix,
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
            # the endpoint values are identities of the formulas, pinned
            # exactly rather than left to rounding
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


def _not_finite(t):
    return InvalidArgument(
        f"geodesic at t = {t} is not finite in floating point; take t nearer [0, 1]"
    )


def _require_finite(t, values):
    """Raise InvalidArgument naming t unless every value is a finite float."""
    if not np.isfinite(values).all():
        raise _not_finite(t)


def _path(X, Y, t, point):
    """point(t) for one parameter t, or [point(s) for s in t] for a sequence,
    except that t = 0 gives X and t = 1 gives Y as they stand, certified.

    point is called from this frame on both routes, so the warning's
    stacklevel names the caller either way.
    """
    scalar = np.ndim(t) == 0
    points = []
    for s in [t] if scalar else t:
        if s == 0 or s == 1:
            end = X if s == 0 else Y
            end.chol()  # held already unless the input is uncertified
            points.append(end)
        else:
            points.append(point(s))
    return points[0] if scalar else points


def _combination_path(X, Y, t, coefficients):
    """c_Y Y + c_X X with (c_Y, c_X) = coefficients(s), at t or along a sequence t.

    A point with s in [0, 1] is certified. Outside, it may leave the cone:
    it comes back uncertified, with a RuntimeWarning attributed to the
    geodesic's caller. A point that is no finite float raises
    InvalidArgument naming s.
    """

    def point(s):
        c_y, c_x = coefficients(s)
        inside = 0.0 <= s <= 1.0
        # far from [0, 1], c * Y can overflow although c is finite. A
        # combination of two certified matrices is otherwise a valid matrix,
        # so InvalidMatrix means a non-finite entry: reported as the t it
        # came from, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                out = combine([(c_y, Y), (c_x, X)], certify=inside)
            except InvalidMatrix as exc:
                raise _not_finite(s) from exc
        if not inside:
            warnings.warn(
                f"geodesic evaluated at t={s} outside [0, 1]: result returned "
                "without positive-definiteness certification",
                RuntimeWarning,
                stacklevel=5,  # through _path, this helper and the geodesic to its caller
            )
        return out

    return _path(X, Y, t, point)


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
        Position on the path; t = 0 gives X and t = 1 gives Y themselves.
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
    ext = extreme_pair(X, Y, opts, _vectors=False)
    return _combination_path(X, Y, t, partial(geodesic_coefficients, ext.alpha, ext.beta))


def riemannian_geodesic(
    X: SpdMatrix,
    Y: SpdMatrix,
    t: float | Sequence[float],
    opts: EigenOptions | None = None,
) -> SpdMatrix | list[SpdMatrix]:
    """Affine-invariant Riemannian geodesic X^(1/2)(X^(-1/2) Y X^(-1/2))^t X^(1/2).

    Computed as L (L^-1 Y L^-T)^t L^T with X's Cholesky factor X = L L^T,
    the same point for any factor of X: one reduction with X's held
    factor and one full eigendecomposition, so it raises
    DenseLimitExceeded above ``opts.dense_ceiling``; a sequence of t
    shares them. The result is SPD for every real t at which it is a
    finite float; where it is not, InvalidArgument names t.
    """
    _check_dims(X, Y)
    _check_dense_ceiling(X.n, opts)
    C, L = _reduce(Y, X)
    w, V = eigh(C, lower=True, check_finite=False)
    LV = L @ V

    def point(s):
        # far from [0, 1] w ** s overflows: reported below as the t it came
        # from, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            R = (LV * w ** s) @ LV.T
            R = R / 2.0 + R.T / 2.0  # halved first: R + R.T overflows near the largest float
        _require_finite(s, R)
        return SpdMatrix(R)

    return _path(X, Y, t, point)


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
    ext = extreme_pair(X, Y, opts, _vectors=False)
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
