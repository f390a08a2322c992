"""Inductive Thompson mean of a finite family of SPD matrices.

The mean of (Y_1, ..., Y_k) is the limit of the harmonic-step recurrence

    X_{i+1} = X_i *_{1/(i+1)} Y_j,    j cycling through 1..k.

The limit exists and is unique, so it is the unique SPD root of the
residual field

    E(X) = sum_j m_j(X) Y_j + (sum_j o_j(X)) X,

where (m_j, o_j) are the t = 0 derivatives of the geodesic coefficients
for the pencil (Y_j, X). The recurrence (``inductive_step``) converges
like 1/p in the cycle count p, far too slowly to reach tight
tolerances, so ``inductive_mean`` finds that root with the fixed-point
map

    F(X) = (sum_j m_j(X) Y_j) / (sum_j m_j(X)).

Every F iterate is a convex combination sum_j w_j Y_j, so F acts on the
k weights, and Anderson mixing of the weights (Walker & Ni, SINUM 49(4),
2011) makes it converge superlinearly. By homogeneity, each round's k
pencil solves, through one evaluation of their (m_j, o_j), also give the
exponential radial correction c that makes the residual vanish on the
iterate's ray, and the residual there,

    E(c X) = c (sum_j m_j Y_j - (sum_j m_j) X),

whose normalized norm does not depend on c. F stops when that
certificate is met and returns c X; the certificate is the only
stopping rule. The solves are warm-started from the previous round, and
a warm start proves nothing about extremality, so a certifying round is
trusted only once an inertia bracket confirms each warm solve's
extremes; a pencil whose bracket fails is solved again cold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import SpdMatrix, _raw_sum, arithmetic_mean, combine, fro_norm
from .eigen import EigenOptions, extreme_pair
from .errors import (
    FixedPointStalled,
    InvalidArgument,
    InvalidOption,
    NonPositiveR,
    NotPositiveDefinite,
    NumericalBreakdown,
    require_positive_finite,
)
from .geodesics import coefficient_derivatives, star_geodesic

_FP_MAX_ROUNDS = 200


@dataclass(frozen=True)
class MeanOptions:
    """Options of ``inductive_mean``.

    ``residual_tol`` is the certificate threshold on |E|_F / (k |X|_F).
    F stops when its certificate is at most ``eigen.tol``, the pencil
    solves' residual target, so ``residual_tol`` may not be below it: a
    residual computed from solves at ``eigen.tol`` cannot vouch for less.
    The options are validated at construction and frozen after it.
    """

    residual_tol: float = 1e-8
    eigen: EigenOptions = field(default_factory=EigenOptions)

    def __post_init__(self):
        require_positive_finite("residual_tol", self.residual_tol)
        if self.residual_tol < self.eigen.tol:
            raise InvalidOption(
                "residual_tol", self.residual_tol,
                f"is below the eigensolver tol {self.eigen.tol!r}, "
                "which bounds what the certificate can vouch for",
            )


@dataclass
class MeanProblem:
    points: list
    init: SpdMatrix | None = None
    opts: MeanOptions = field(default_factory=MeanOptions)


@dataclass(frozen=True)
class MeanResult:
    """A mean with its work counts and certificate.

    ``rounds`` counts F rounds; each solves k pencils. ``cycles_used`` is
    always 0: no inductive cycle runs, and the field stays for readers
    that count cycles. ``final_displacement`` is log(max_j(w'_j/w_j) /
    min_j(w'_j/w_j)) over the weights w -> w' of the F step into the
    returned mean: by the Loewner sandwich min(w'/w) X <= X' <= max(w'/w) X,
    an upper bound on that step's Hilbert displacement that needs no
    solve. ``residual_norm`` is |E|_F / (k |X|_F) at the mean and
    ``certified`` says it is at most ``residual_tol``; ``inductive_mean``
    returns a mean of two or more points only when it is.
    """

    mean: SpdMatrix
    cycles_used: int
    final_displacement: float
    residual_norm: float
    certified: bool
    rounds: int = 0


def contraction_factor(R: float, t: float) -> float:
    """Hilbert contraction factor (1 - e^(-R(1-t))) / (1 - e^(-R)).

    Predicts the per-step Hilbert contraction of a geodesic step of size
    t within a region of Hilbert diameter R; equals 1 at t = 0 and 0 at
    t = 1, and is bounded by the tangent line 1 - t R e^(-R)/(1 - e^(-R)).
    """
    if not R > 0:
        raise NonPositiveR(R)
    return -math.expm1(-R * (1.0 - t)) / (-math.expm1(-R))


def inductive_step(
    X: SpdMatrix, Yj: SpdMatrix, i: int, opts: EigenOptions | None = None
) -> SpdMatrix:
    """One recurrence step: X *_{1/(i+1)} Yj for global step index i >= 1."""
    if i < 1:
        raise InvalidArgument("step index i must be at least 1")
    return star_geodesic(X, Yj, 1.0 / (i + 1.0), opts)


def _solve_all(points, X, opts, starts=None):
    """extreme_pair for every pencil (Y_j, X), each optionally warm-started.

    ``starts`` are the ``vectors`` of a previous call at a nearby X, passed
    explicitly so that nothing outlives one mean computation.
    """
    starts = starts or [(None, None)] * len(points)
    return [extreme_pair(X, Yj, opts, s) for Yj, s in zip(points, starts)]


def _derivative_sums(extremes):
    """Per-pencil derivative pairs (m_j, o_j) of the pencils' extremes."""
    return [coefficient_derivatives(e.alpha, e.beta) for e in extremes]


def _residual_field(points, X, ms, osum):
    """osum X + sum_j m_j Y_j and its Frobenius norm over k |X|_F."""
    E = _raw_sum([(osum, X)] + list(zip(ms, points)))
    return E, fro_norm(E) / (len(points) * X.norm_fro())


def residual(points, X: SpdMatrix, opts: EigenOptions | None = None):
    """Residual field E(X) and its normalized Frobenius norm.

    E(X) = sum_j m_j Y_j + (sum_j o_j) X vanishes exactly at the mean;
    the returned norm is |E|_F / (k |X|_F). The matrix comes back raw
    (ndarray or sparse): it is a tangent-space object, not SPD. Every
    pencil is solved cold.
    """
    pairs = _derivative_sums(_solve_all(points, X, opts or EigenOptions()))
    return _residual_field(points, X, [m for m, _ in pairs], sum(o for _, o in pairs))


def _unbracketed(points, X, exts, starts, tol):
    """Indices j of the warm-started iterative solves that the inertia
    bracket does not confirm.

    A warm start can converge to an interior eigenpair that passes the
    residual test. If beta (1 + 10 tol) X - Y_j and Y_j - alpha (1 - 10 tol) X
    both certify positive definite, Sylvester's law of inertia puts the
    whole spectrum of Y_j X^-1 inside [alpha (1 - 10 tol), beta (1 + 10 tol)]
    (Ericsson & Ruhe, Math. Comp. 35, 1980).
    """
    wrong = []
    for j, (Yj, e, start) in enumerate(zip(points, exts, starts)):
        if e.backend != "iterative" or start[1] is None:
            continue
        try:
            combine([(e.beta * (1.0 + 10.0 * tol), X), (-1.0, Yj)])
            combine([(1.0, Yj), (-e.alpha * (1.0 - 10.0 * tol), X)])
        except (NotPositiveDefinite, NumericalBreakdown):
            wrong.append(j)
    return wrong


def _anderson(ws, gs):
    """Type-II Anderson step on the weights (Walker & Ni, SINUM 49(4), 2011).

    ``ws`` are iterate weights and ``gs`` their F weights, oldest first;
    all lie in the open simplex. Returns ``(w, mixed)``: the weights whose
    residual g - w the history extrapolates to zero, or the plain F
    weights ``gs[-1]`` with ``mixed`` False when there is no history yet
    or an extrapolated entry is not positive.
    """
    if len(ws) < 2:
        return gs[-1], False
    G = np.asarray(gs)
    F = G - np.asarray(ws)
    dF, dG = np.diff(F, axis=0), np.diff(G, axis=0)
    gamma = np.linalg.lstsq(dF.T, F[-1], rcond=None)[0]
    w = G[-1] - gamma @ dG
    if np.all(w > 0):
        return w / w.sum(), True
    return gs[-1], False


def _fixed_point(points, init, opts, max_rounds=_FP_MAX_ROUNDS):
    """Iterate F until the radially corrected iterate certifies.

    Every iterate after ``init`` (the arithmetic mean when None) is
    sum_j w_j Y_j with w in the open simplex, and F maps it to the
    weights g = m / sum m. Each round solves the k pencils (Y_j, X) once,
    warm-started from the previous round's eigenvectors. By homogeneity
    that one pass gives the scale c = exp(sum_j (m_j + o_j) / k) and the
    residual E(c X) = c (sum_j m_j Y_j - (sum_j m_j) X), whose norm over
    k |c X|_F does not depend on c. A round whose residual is at most
    ``opts.tol`` certifies once every warm-started iterative solve passes
    the inertia bracket of ``_unbracketed``; a pencil that fails it is
    solved again cold, in a repeat of the round at the same X. Otherwise
    the next weights are the Anderson mix of the last k weight pairs
    (depth k - 1, the dimension of the simplex), or plain F weights with
    the history restarted when the mix leaves the simplex; either way the
    iterate stays SPD by convexity and inside the union pattern.

    Returns (c X, rounds, displacement, residual norm at c X), where the
    displacement bounds the Hilbert distance of the last step by the
    Loewner sandwich: log(max_j(w'_j/w_j) / min_j(w'_j/w_j)); it is 0 if
    no step was taken and inf if the only step left a given ``init``.
    After ``max_rounds`` rounds without a certificate it returns the
    best corrected iterate, its residual (above ``opts.tol``) and the
    displacement of the step into it.
    """
    k = len(points)
    if init is None:
        w = np.full(k, 1.0 / k)
        X = arithmetic_mean(points)
    else:
        w, X = None, init
    ws, gs = [], []
    vectors = [(None, None)] * k
    disp = 0.0
    best = (math.inf, 1.0, X, disp)
    for rounds in range(1, max_rounds + 1):
        exts = _solve_all(points, X, opts, vectors)
        pairs = _derivative_sums(exts)
        ms = [m for m, _ in pairs]
        c = math.exp(sum(m + o for m, o in pairs) / k)
        rnorm = _residual_field(points, X, ms, -sum(ms))[1]
        if rnorm <= opts.tol:
            wrong = _unbracketed(points, X, exts, vectors, opts.tol)
            if not wrong:
                return X.scaled(c), rounds, disp, rnorm
            vectors = [(None, None) if j in wrong else e.vectors for j, e in enumerate(exts)]
            continue
        vectors = [e.vectors for e in exts]
        if rnorm < best[0]:
            best = (rnorm, c, X, disp)
        m = np.array(ms)
        g = m / m.sum()
        if w is None:
            w_next, disp = g, math.inf
        else:
            ws, gs = (ws + [w])[-k:], (gs + [g])[-k:]
            w_next, mixed = _anderson(ws, gs)
            if not mixed:
                ws, gs = ws[-1:], gs[-1:]
            ratio = w_next / w
            disp = math.log(ratio.max() / ratio.min())
        w = w_next
        X = combine(list(zip(w, points)))
    rnorm, c, X, disp = best
    return X.scaled(c), max_rounds, disp, rnorm


def inductive_mean(problem: MeanProblem) -> MeanResult:
    """Inductive Thompson mean of the problem's points.

    Iterates F with Anderson mixing from ``problem.init`` (the arithmetic
    mean of the points when None; any initialization converges to the
    same limit) until the radially corrected iterate's residual is at
    most ``eigen.tol``. If F stalls, its best iterate is returned when
    a cold ``residual`` there is at most ``residual_tol``.

    Parameters
    ----------
    problem : MeanProblem
        Points (k >= 1, equal dimensions), optional initialization, and
        MeanOptions (certificate threshold, eigensolver options).

    Returns
    -------
    MeanResult
        The certified mean with its F-round count, the displacement of
        the step into it, the normalized residual norm, and the
        ``certified`` verdict (residual_norm <= residual_tol).

    Raises
    ------
    FixedPointStalled
        F did not certify within 200 rounds and its best iterate does not
        meet ``residual_tol``; the payload carries that radially
        corrected iterate, its residual (the cold one when F's own met
        ``residual_tol``) and displacement. A pencil solve's own failure
        propagates unchanged.
    """
    points = list(problem.points)
    if not points:
        raise InvalidArgument("mean of an empty family is undefined")
    opts = problem.opts
    eigen = opts.eigen

    if len(points) == 1:
        _, rnorm = residual(points, points[0], eigen)
        return MeanResult(
            mean=points[0],
            cycles_used=0,
            final_displacement=0.0,
            residual_norm=rnorm,
            certified=rnorm <= opts.residual_tol,
        )

    X, rounds, disp, rnorm = _fixed_point(points, problem.init, eigen)
    if rnorm > eigen.tol:
        # F stalled: its best iterate came from warm solves, so only a cold
        # residual there may vouch for it
        if rnorm <= opts.residual_tol:
            rnorm = residual(points, X, eigen)[1]
        if not rnorm <= opts.residual_tol:
            raise FixedPointStalled(best=X, displacement=disp, iterations=rounds, residual=rnorm)
    return MeanResult(X, 0, disp, rnorm, True, rounds)
