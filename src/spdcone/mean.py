"""Inductive Thompson mean of a finite family of SPD matrices.

The mean of (Y_1, ..., Y_k) is the limit of the harmonic-step recurrence

    X_{i+1} = X_i *_{1/(i+1)} Y_j,    j cycling through 1..k,

and is equivalently characterized as the unique SPD root of the residual
field

    E(X) = sum_j m_j(X) Y_j + (sum_j o_j(X)) X,

where (m_j, o_j) are the t = 0 derivatives of the geodesic coefficients
for the pencil (Y_j, X). The raw recurrence converges like 1/p in the
cycle count p, far too slowly to reach tight tolerances on its own, so
the default strategy first iterates the fixed-point map

    F(X) = (sum_j m_j(X) Y_j) / (sum_j m_j(X)).

Every F iterate is a convex combination sum_j w_j Y_j, so F acts on the
k weights, and Anderson mixing of the weights (Walker & Ni, SINUM 49(4),
2011) makes it converge superlinearly. By homogeneity, each round's k
pencil solves also give the exponential radial correction c that makes
the residual vanish on the iterate's ray, and the residual at c X; F
stops when that certificate is met and returns c X. Certified
inductive cycles follow only if the certificate stays above
``residual_tol``. The certificate is the only stopping rule of F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import SpdMatrix, arithmetic_mean, combine, fro_norm
from .eigen import EigenOptions, extreme_pair
from .errors import FixedPointStalled, NoConvergence, NonPositiveR
from .geodesics import coefficient_derivatives, star_geodesic
from .metrics import thompson_distance

_FP_MAX_ROUNDS = 200
_PROGRESS_WINDOW = 10_000  # cycles between displacement progress checks


@dataclass
class MeanOptions:
    tol: float = 1e-10            # per-cycle Thompson displacement target
    residual_tol: float = 1e-8    # certificate threshold on |E|_F / (k |X|_F)
    max_cycles: int = 10 ** 6
    eigen: EigenOptions = field(default_factory=EigenOptions)
    strategy: str = "hybrid"      # inductive | fixed-point | hybrid

    def __post_init__(self):
        if self.tol <= 0 or self.residual_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.strategy not in ("inductive", "fixed-point", "hybrid"):
            raise ValueError(f"unknown strategy {self.strategy!r}")


@dataclass
class MeanProblem:
    points: list
    init: SpdMatrix | None = None
    opts: MeanOptions = field(default_factory=MeanOptions)


@dataclass(frozen=True)
class MeanResult:
    """A mean with its work counts and certificate.

    ``cycles_used`` counts inductive cycles and ``rounds`` F rounds (0
    under the ``inductive`` strategy); each F round solves k pencils.
    ``final_displacement`` is the last inductive cycle's Thompson
    displacement, or, when F's iterate is returned, log(max_j(w'_j/w_j) /
    min_j(w'_j/w_j)) over the weights w -> w' of the F step into it: by the
    Loewner sandwich min(w'/w) X <= X' <= max(w'/w) X, an upper bound on
    that step's Hilbert displacement that needs no solve.
    ``residual_norm`` is |E|_F / (k |X|_F) at the mean and ``certified``
    says it is at most ``residual_tol``.
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
        raise ValueError("step index i must be at least 1")
    return star_geodesic(X, Yj, 1.0 / (i + 1.0), opts)


def _solve_all(points, X, opts, starts=None):
    """extreme_pair for every pencil (Y_j, X), each optionally warm-started.

    ``starts`` are the ``vectors`` of a previous call at a nearby X, passed
    explicitly so that nothing outlives one mean computation.
    """
    starts = starts or [(None, None)] * len(points)
    return [extreme_pair(X, Yj, opts, s) for Yj, s in zip(points, starts)]


def _derivative_sums(extremes, c=1.0):
    """Per-point (m_j, o_j) derivative pairs for the pencils (Y_j, c X).

    ``extremes`` are the pencils' results at X: by homogeneity, (Y_j, c X)
    has the extremes of (Y_j, X) divided by c, with the same eigenvectors
    and backward errors, so no new solve is needed for c X.
    """
    return [coefficient_derivatives(e.alpha / c, e.beta / c) for e in extremes]


def _residual_field(points, X, pairs, c=1.0):
    """E(c X) and |E|_F / (k |c X|_F) from the derivative pairs at c X."""
    osum = c * sum(o for _, o in pairs)
    if all(p.is_sparse for p in points) and X.is_sparse:
        E = osum * X.raw()
        for (m, _), Yj in zip(pairs, points):
            E = E + m * Yj.raw()
    else:
        E = osum * X.dense()
        for (m, _), Yj in zip(pairs, points):
            E = E + m * Yj.dense()
    return E, fro_norm(E) / (len(points) * c * X.norm_fro())


def residual(points, X: SpdMatrix, opts: EigenOptions | None = None):
    """Residual field E(X) and its normalized Frobenius norm.

    E(X) = sum_j m_j Y_j + (sum_j o_j) X vanishes exactly at the mean;
    the returned norm is |E|_F / (k |X|_F). The matrix comes back raw
    (ndarray or sparse): it is a tangent-space object, not SPD.
    """
    exts = _solve_all(points, X, opts or EigenOptions())
    return _residual_field(points, X, _derivative_sums(exts))


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


def _fixed_point(points, init, opts, tol, max_rounds=_FP_MAX_ROUNDS):
    """Iterate F until the radially corrected iterate certifies.

    Every iterate after ``init`` (the arithmetic mean when None) is
    sum_j w_j Y_j with w in the open simplex, and F maps it to the
    weights g = m / sum m. Each round solves the k pencils (Y_j, X),
    warm-started from the previous round's eigenvectors; by homogeneity
    they give the scale c and the residual at c X, which stops the
    iteration at ``tol``. Otherwise the next weights are the Anderson
    mix of the last k weight pairs (depth k - 1, the dimension of the
    simplex), or plain F weights with the history restarted when the mix
    leaves the simplex; either way the iterate stays SPD by convexity and
    inside the union pattern.

    Returns (c X, rounds, displacement, residual norm at c X), where the
    displacement bounds the Hilbert distance of the last step by the
    Loewner sandwich: log(max_j(w'_j/w_j) / min_j(w'_j/w_j)); it is 0 if
    no step was taken and inf if the only step left a given ``init``.
    Raises FixedPointStalled with the best corrected iterate, its
    residual and the displacement of the step into it, after
    ``max_rounds`` rounds.
    """
    k = len(points)
    if init is None:
        w = np.full(k, 1.0 / k)
        X = arithmetic_mean(points)
    else:
        w, X = None, init
    ws, gs = [], []
    vectors = None
    disp = 0.0
    best = (math.inf, 1.0, X, disp)
    for rounds in range(1, max_rounds + 1):
        exts = _solve_all(points, X, opts, vectors)
        vectors = [e.vectors for e in exts]
        pairs = _derivative_sums(exts)
        # the radial correction: E(c X) = c (sum m) (F(X) - X)
        c = math.exp(sum(m + o for m, o in pairs) / k)
        rnorm = _residual_field(points, X, _derivative_sums(exts, c), c)[1]
        if rnorm <= tol:
            return X.scaled(c), rounds, disp, rnorm
        if rnorm < best[0]:
            best = (rnorm, c, X, disp)
        m = np.array([m for m, _ in pairs])
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
    raise FixedPointStalled(
        best=X.scaled(c), displacement=disp, iterations=max_rounds, residual=rnorm
    )


def fixed_point_init(points, opts: EigenOptions | None = None) -> SpdMatrix:
    """Brouwer-style initialization: F-iteration from the arithmetic mean.

    Iterates F with Anderson mixing on the weights of the inputs until
    the radially corrected iterate's residual certificate drops to
    ``opts.tol`` (or 200 rounds, raising FixedPointStalled with the best
    corrected iterate), and returns that corrected iterate. Serves as a
    warm start for the inductive cycles, or as the full fixed-point
    strategy when its residual certifies.
    """
    opts = opts or EigenOptions()
    X, _, _, _ = _fixed_point(points, None, opts, opts.tol)
    return X


def _diameter_estimate(points, opts):
    """Thompson-diameter estimate of the inputs (exact pairwise for small k)."""
    k = len(points)
    if k <= 1:
        return 0.0
    if k <= 12:
        return max(
            thompson_distance(points[a], points[b], opts)
            for a in range(k)
            for b in range(a + 1, k)
        )
    reach = max(thompson_distance(points[0], p, opts) for p in points[1:])
    return 2.0 * reach


def _run_cycles(points, X, opts: MeanOptions, scale, check_certificate):
    """Inductive cycles with displacement, certificate, and progress rules.

    Returns (X, cycles_used, displacement, residual_norm, certified).
    """
    k = len(points)
    eigen = opts.eigen
    i = 1
    displacement = math.inf
    window_best = math.inf
    rnorm = math.inf
    for p in range(opts.max_cycles):
        X_prev = X
        for j in range(k):
            X = star_geodesic(X, points[j], 1.0 / (i + 1.0), eigen)
            i += 1
        displacement = thompson_distance(X_prev, X, eigen)
        if check_certificate:
            _, rnorm = residual(points, X, eigen)
            if rnorm <= opts.residual_tol:
                return X, p + 1, displacement, rnorm, True
        if displacement <= opts.tol * scale:
            _, rnorm = residual(points, X, eigen)
            return X, p + 1, displacement, rnorm, rnorm <= opts.residual_tol
        # harmonic steps shrink like 1/i; if the displacement has stopped
        # halving across a long window, the certificate decides
        window_best = min(window_best, displacement)
        if (p + 1) % _PROGRESS_WINDOW == 0:
            _, rnorm = residual(points, X, eigen)
            if displacement > 0.5 * window_best and rnorm <= 10.0 * opts.residual_tol:
                return X, p + 1, displacement, rnorm, rnorm <= opts.residual_tol
            window_best = math.inf
    _, rnorm = residual(points, X, eigen)
    if rnorm <= opts.residual_tol:
        return X, opts.max_cycles, displacement, rnorm, True
    raise NoConvergence(
        f"inductive mean hit max_cycles={opts.max_cycles} with cycle "
        f"displacement {displacement:.3e} and residual {rnorm:.3e}",
        best=X,
        residual=rnorm,
        iterations=opts.max_cycles,
    )


def inductive_mean(problem: MeanProblem) -> MeanResult:
    """Inductive Thompson mean of the problem's points.

    Strategies:

    * ``inductive``   - the plain harmonic-step recurrence with the
      per-cycle displacement stopping rule; honest but slow near tight
      tolerances.
    * ``fixed-point`` - the F-map iteration with radial correction.
    * ``hybrid`` (default) - fixed-point warm start, accepted if the
      residual certificate holds, otherwise refined by certified
      inductive cycles.

    Any initialization converges to the same limit; ``problem.init``
    defaults to the arithmetic mean of the points.

    Parameters
    ----------
    problem : MeanProblem
        Points (k >= 1, equal dimensions), optional initialization, and
        MeanOptions (tolerances, cycle cap, eigensolver options, strategy).

    Returns
    -------
    MeanResult
        Converged mean with cycle and F-round counts, final
        displacement, the normalized residual norm, and the
        ``certified`` verdict (residual_norm <= residual_tol).

    Raises
    ------
    NoConvergence
        Cycle cap reached with the stopping rules unmet; the payload
        carries the last iterate, displacement, and residual.
    FixedPointStalled
        Only under ``strategy="fixed-point"`` when the F-iteration fails
        to settle; the payload carries the radially corrected best iterate.
    """
    points = list(problem.points)
    if not points:
        raise ValueError("mean of an empty family is undefined")
    opts = problem.opts
    eigen = opts.eigen
    k = len(points)

    if k == 1:
        _, rnorm = residual(points, points[0], eigen)
        return MeanResult(
            mean=points[0],
            cycles_used=0,
            final_displacement=0.0,
            residual_norm=rnorm,
            certified=rnorm <= opts.residual_tol,
        )

    if opts.strategy == "inductive":
        start = problem.init if problem.init is not None else arithmetic_mean(points)
        scale = max(1.0, _diameter_estimate(points, eigen))
        X, cycles, disp, rnorm, certified = _run_cycles(
            points, start, opts, scale, check_certificate=False
        )
        return MeanResult(X, cycles, disp, rnorm, certified)

    if opts.strategy == "fixed-point":
        X, rounds, disp, rnorm = _fixed_point(points, problem.init, eigen, eigen.tol)
        return MeanResult(X, 0, disp, rnorm, rnorm <= opts.residual_tol, rounds)

    # hybrid
    try:
        X, rounds, disp, rnorm = _fixed_point(points, problem.init, eigen, eigen.tol)
    except FixedPointStalled as stalled:
        X, rounds = stalled.best, stalled.iterations
        disp, rnorm = stalled.displacement, stalled.residual
    if rnorm <= opts.residual_tol:
        return MeanResult(X, 0, disp, rnorm, True, rounds)
    scale = max(1.0, _diameter_estimate(points, eigen))
    X, cycles, disp, rnorm, certified = _run_cycles(
        points, X, opts, scale, check_certificate=True
    )
    return MeanResult(X, cycles, disp, rnorm, certified, rounds)
