"""Inductive Thompson mean of a finite family of SPD matrices.

The mean of (Y_1, ..., Y_k) is the limit of the harmonic-step recurrence

    X_{i+1} = X_i *_{1/(i+1)} Y_j,    j cycling through 1..k,

and is equivalently characterized as the unique SPD root of the residual
field

    E(X) = sum_j m_j(X) Y_j + (sum_j o_j(X)) X,

where (m_j, o_j) are the t = 0 derivatives of the geodesic coefficients
for the pencil (Y_j, X). The raw recurrence converges like 1/p in the
cycle count p, far too slowly to reach tight tolerances on its own, so
the default strategy first drives a fast fixed-point map

    F(X) = (sum_j m_j(X) Y_j) / (sum_j m_j(X))

to convergence, applies the exponential radial correction that makes the
residual vanish on the ray of the fixed point, and only then falls back
to certified inductive cycles if the residual certificate is not met.
The certificate, not the displacement, is ground truth throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .core import SpdMatrix, arithmetic_mean, combine
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
    mean: SpdMatrix
    cycles_used: int
    final_displacement: float
    residual_norm: float
    certified: bool


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


def _residual_field(points, X, pairs):
    """E(X) and |E|_F / (k |X|_F) from the derivative pairs at X."""
    osum = sum(o for _, o in pairs)
    if all(p.is_sparse for p in points) and X.is_sparse:
        E = osum * X.raw()
        for (m, _), Yj in zip(pairs, points):
            E = E + m * Yj.raw()
        norm = sp.linalg.norm(E)
    else:
        E = osum * X.dense()
        for (m, _), Yj in zip(pairs, points):
            E = E + m * Yj.dense()
        norm = float(np.linalg.norm(E))
    return E, norm / (len(points) * X.norm_fro())


def residual(points, X: SpdMatrix, opts: EigenOptions | None = None):
    """Residual field E(X) and its normalized Frobenius norm.

    E(X) = sum_j m_j Y_j + (sum_j o_j) X vanishes exactly at the mean;
    the returned norm is |E|_F / (k |X|_F). The matrix comes back raw
    (ndarray or sparse): it is a tangent-space object, not SPD.
    """
    exts = _solve_all(points, X, opts or EigenOptions())
    return _residual_field(points, X, _derivative_sums(exts))


def _hilbert_displacement(A, B, opts, start=(None, None)):
    """Hilbert distance of A and B, and the pencil's eigenvectors."""
    ext = extreme_pair(A, B, opts, start)
    return math.log(ext.beta) - math.log(ext.alpha), ext.vectors


def _radial_correction(points, X, opts, starts=None):
    """Scale X so the residual vanishes along its ray: c = exp((sum m + sum o)/k).

    Returns (c X, residual norm at c X); the certificate reuses the solves
    at X.
    """
    exts = _solve_all(points, X, opts, starts)
    c = math.exp(sum(m + o for m, o in _derivative_sums(exts)) / len(points))
    Xc = X.scaled(c)
    return Xc, _residual_field(points, Xc, _derivative_sums(exts, c))[1]


def _fixed_point(points, start, opts, displacement_tol, max_rounds=_FP_MAX_ROUNDS):
    """Iterate F to projective convergence, then radially correct.

    F is scale-invariant, so progress is measured in the Hilbert
    (projective) metric. Each round's solves start from the previous
    round's eigenvectors. Returns (corrected point, rounds, last
    displacement, residual norm at the corrected point); raises
    FixedPointStalled if the displacement target is not met within
    max_rounds.
    """
    X = start
    disp = math.inf
    vectors, disp_vectors = None, (None, None)
    for rounds in range(1, max_rounds + 1):
        exts = _solve_all(points, X, opts, vectors)
        vectors = [e.vectors for e in exts]
        pairs = _derivative_sums(exts)
        msum = sum(m for m, _ in pairs)
        Xn = combine([(m / msum, Yj) for (m, _), Yj in zip(pairs, points)])
        disp, disp_vectors = _hilbert_displacement(X, Xn, opts, disp_vectors)
        X = Xn
        if disp < displacement_tol:
            X, rnorm = _radial_correction(points, X, opts, vectors)
            return X, rounds, disp, rnorm
    raise FixedPointStalled(
        best=_radial_correction(points, X, opts, vectors)[0],
        displacement=disp,
        iterations=max_rounds,
    )


def fixed_point_init(points, opts: EigenOptions | None = None) -> SpdMatrix:
    """Brouwer-style initialization: F-iteration from the arithmetic mean.

    Iterates X <- F(X) until the Hilbert displacement drops below
    ``opts.tol`` (or 200 rounds, raising FixedPointStalled with the best
    iterate), then applies the radial correction. Serves as a warm start
    for the inductive cycles, or as the full fixed-point strategy when
    its residual certifies.
    """
    opts = opts or EigenOptions()
    X, _, _, _ = _fixed_point(points, arithmetic_mean(points), opts, opts.tol)
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
        Converged mean with cycle count, final displacement, the
        normalized residual norm, and the ``certified`` verdict
        (residual_norm <= residual_tol).

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

    start = problem.init if problem.init is not None else arithmetic_mean(points)

    if opts.strategy == "inductive":
        scale = max(1.0, _diameter_estimate(points, eigen))
        X, cycles, disp, rnorm, certified = _run_cycles(
            points, start, opts, scale, check_certificate=False
        )
        return MeanResult(X, cycles, disp, rnorm, certified)

    if opts.strategy == "fixed-point":
        X, _, disp, rnorm = _fixed_point(points, start, eigen, eigen.tol)
        return MeanResult(X, 0, disp, rnorm, rnorm <= opts.residual_tol)

    # hybrid
    try:
        X, _, disp, rnorm = _fixed_point(points, start, eigen, eigen.tol)
    except FixedPointStalled as stalled:
        X, disp = stalled.best, stalled.displacement
        _, rnorm = residual(points, X, eigen)
    if rnorm <= opts.residual_tol:
        return MeanResult(X, 0, disp, rnorm, True)
    scale = max(1.0, _diameter_estimate(points, eigen))
    X, cycles, disp, rnorm, certified = _run_cycles(
        points, X, opts, scale, check_certificate=True
    )
    return MeanResult(X, cycles, disp, rnorm, certified)
