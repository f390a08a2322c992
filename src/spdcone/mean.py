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
k weights, and Newton's method on G(w) = F(w) - w makes it converge
quadratically. F's Jacobian is exact and cheap: m_j depends on w only
through the extremes (alpha_j, beta_j) of (Y_j, X), and a simple extreme
lam with eigenvector v moves as d lam / d w_i = -lam v.Y_i v / v.X v
(Lancaster, Numer. Math. 6, 1964), so the vectors each round's solves
return give it in one product of each point with them. By homogeneity,
each round's k pencil solves, through one evaluation of their (m_j, o_j),
also give the exponential radial correction c that makes the residual
vanish on the iterate's ray, and the residual there,

    E(c X) = c (sum_j m_j Y_j - (sum_j m_j) X),

whose normalized norm does not depend on c. F stops when that
certificate is met and returns c X; the certificate is the only
stopping rule.

Only the round whose residual is returned vouches for the mean, so the
rounds before it are inexact: round r solves its pencils to the forcing
term max(eigen.tol, min(LOOSEST_TOL, ETA r_{r-1})), r_{r-1} the previous
round's residual (Eisenstat & Walker, SISC 17(1), 1996), and skips the
eigensolver's guard sweep. A loose extreme and its vector only steer
F: an inexact Newton step converges as long as its errors shrink with
the residual (Dembo, Eisenstat & Steihaug, SINUM 19(2), 1982), and a
wrong one can slow F, never certify. A loose round whose residual meets
eigen.tol is solved again at eigen.tol at the same X, warm-started from
its own vectors. Dense solves are exact whatever the tolerance, so a
dense round never repeats, nor does any round of a family whose pencils
``auto`` solves dense, as it does every small sparse one. The solves are
warm-started from the previous round, and a warm start proves nothing
about extremality, which the guard's few steps cannot repair either, so
a round at eigen.tol guards only its cold solves, and certifies only
once each extreme of a warm iterative solve is proven. A dense solve is, and so is one that the
eigensolver finished by shift-invert (``PencilExtremes.proven``); any
other is proven here by the same inertia bound: beta (1 + 10 tol) X - Y_j,
or (1 + 10 tol) Y_j / alpha - X, must certify (Sylvester's law of
inertia; Ericsson & Ruhe, Math. Comp. 35, 1980). A pencil with an
extreme left unproven is solved again cold, under the guard. Every
returned mean is thus certified by a round solved at eigen.tol whose
every extreme is proven by inertia or comes from a cold guarded solve.
The mean reads alpha, beta and the vectors, never the residuals, so its
dense solves skip those.

Every iterate, residual field and bracket matrix is a combination of the
points, so it lies on the union of their patterns. The points' values are
aligned on that pattern once per mean, one row each (``_Stack``), and
each of those matrices is combined from the rows entry by entry, as
``combine`` combines matrices (``core._combination``): an iterate
sum_j w_j D_j, a residual sum_j m_j D_j - (sum m) x, a bracket
beta (1 + 10 tol) x - D_j, where x are the iterate's stored values (not
its weights, whose exact combination the stored iterate only rounds).
Each is exactly symmetric, and skips canonicalization. When every
pencil of a family resolves to the dense backend, whatever the iterate
(``eigen._resolve_backend``; ``auto`` does so at order at most
``eigen._SMALL``), the family is solved as a dense one: the stack holds
dense rows, a sparse point is solved as a dense-stored view
of its row, and each iterate is dense-stored and certified once by a
dense factor that all k reductions of its round borrow (``core._reduce``).
Only the returned mean of sparse points goes back to CSR. Otherwise a
fill-reducing order depends only on the pattern (George & Liu, 1981), so
the mean's first sparse factorization picks it and every later one
factors the matrix permuted into it (``core._factor_in``), with no
ordering step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs

from .core import SpdMatrix, _check_dims, _combination, _factor_in, fro_norm
from .eigen import EigenOptions, _bounded, _resolve_backend, extreme_pair
from .errors import (
    FixedPointStalled,
    InvalidArgument,
    InvalidOption,
    NonPositiveR,
    require_positive_finite,
)
from .geodesics import BRANCH_TOL, coefficient_derivatives, star_geodesic

_FP_MAX_ROUNDS = 200
# forcing term: a round solves its pencils to ETA times the previous
# round's residual, never looser than LOOSEST_TOL (the first round's
# tolerance) and never tighter than eigen.tol
ETA = 0.1
LOOSEST_TOL = 1e-3

_gesv, = get_lapack_funcs(("gesv",), (np.empty(0),))


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


class _Stack:
    """The values of SpdMatrix members, one row each, on one pattern.

    When every member is sparse and ``dense`` is false, ``values`` is a
    members x nnz array over the union of their patterns, in sorted CSR
    order (``indices``, ``indptr``). Otherwise the stack is dense:
    ``values`` is the list of the members' full arrays, the stored ones of
    dense members, so no dense value is copied. Either way a combination
    of members is summed entry by entry (``core._combination``), lies on
    the stack's pattern and is exactly symmetric, so it needs no
    canonicalization. Every factorization goes through
    ``core._factor_in``: the first sparse one hands SuperLU the
    combination's own arrays and picks the fill-reducing order q, which
    depends only on the pattern; every later one factors X[q][:, q] in
    that order, with no ordering step.
    """

    def __init__(self, members, dense=False):
        for m in members[1:]:
            _check_dims(members[0], m)
        self.n = n = members[0].n
        self.q = None
        if dense or not all(m.is_sparse for m in members):
            self.values, self.indptr = [m.dense() for m in members], None
            return
        mats = [m.raw() for m in members]
        # row-major keys i n + j sort in CSR order
        keys = [np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(M.indptr)) + M.indices
                for M in mats]
        union = np.unique(np.concatenate(keys))
        self.values = np.zeros((len(mats), union.size))
        for row, key, M in zip(self.values, keys, mats):
            row[np.searchsorted(union, key)] = M.data
        index = np.int32 if union.size < 2**31 else np.int64
        self.indices = (union % n).astype(index)
        self.indptr = np.searchsorted(union, np.arange(n + 1, dtype=np.int64) * n).astype(index)

    def combination(self, c):
        """Values of sum_j c_j M_j over the first len(c) members."""
        return _combination(zip(c, self.values))

    def raw(self, x):
        """The matrix with values x: an ndarray, or a CSR matrix on the pattern."""
        if self.indptr is None:
            return x
        return sp.csr_matrix((x, self.indices, self.indptr), shape=(self.n, self.n))

    def factor(self, x):
        """Certifying factorization of the matrix with values x: the first
        sparse one picks the order q, and every later one factors in it."""
        f = _factor_in(self.raw(x), self.q)
        if self.q is None:
            self.q = f.perm
        return f

    def matrix(self, x):
        """The certified SpdMatrix with values x."""
        return SpdMatrix._canonical(self.raw(x), self.factor(x))


def _residual_field(stack, x, ms, osum):
    """Values of osum X + sum_j m_j Y_j, for the points Y_j leading the stack
    and X the matrix with values x, and its Frobenius norm over k |X|_F."""
    E = stack.combination(ms) + osum * x
    return E, fro_norm(E) / (len(ms) * fro_norm(x))


def residual(points, X: SpdMatrix, opts: EigenOptions | None = None):
    """Residual field E(X) and its normalized Frobenius norm.

    E(X) = sum_j m_j Y_j + (sum_j o_j) X vanishes exactly at the mean;
    the returned norm is |E|_F / (k |X|_F). The matrix comes back raw
    (ndarray or sparse): it is a tangent-space object, not SPD. Every
    pencil is solved cold.
    """
    stack = _Stack([*points, X])
    opts = opts or EigenOptions()
    exts = [extreme_pair(X, Yj, opts, (None, None), _vectors=False) for Yj in points]
    ms, os = zip(*(coefficient_derivatives(e.alpha, e.beta) for e in exts))
    E, rnorm = _residual_field(stack, stack.values[-1], ms, sum(os))
    return stack.raw(E), rnorm


def _trusted(stack, x, Yj, ext, start, tol):
    """Whether a certifying round may trust both extremes of the pencil
    (Y_j, X), X with values x: each was proven by its solve, or solved
    from a cold start under the guard, or is proven here by inertia
    (``eigen._bounded``) in the stack's order, beta first."""
    sides = ((ext.proven[1], start[1], ext.beta, Yj, x),
             (ext.proven[0], start[0], 1.0 / ext.alpha, x, Yj))
    return all(proven or s is None or _bounded(stack.factor, top, A, B, tol)
               for proven, s, top, A, B in sides)


def _m_partials(alpha, beta, m):
    """(dm/dalpha, dm/dbeta) of m = (log beta - log alpha) / (beta - alpha),
    m its value at (alpha, beta): (m - 1/alpha) / (beta - alpha) and
    (1/beta - m) / (beta - alpha), both -1 / (2 alpha^2) on the equal
    branch of ``coefficient_derivatives``."""
    if math.log(beta) - math.log(alpha) <= BRANCH_TOL:
        return (-0.5 / alpha / alpha,) * 2
    return (m - 1.0 / alpha) / (beta - alpha), (1.0 / beta - m) / (beta - alpha)


def _jacobian(points, w, exts, m):
    """J_F at the iterate with weights w of the points as solved, from its
    pencils' extremes ``exts`` (values and vectors) and m, their m_j.

    A simple extreme lam of (Y_j, X), X = sum_i w_i Y_i, with vector v
    moves as d lam / d w_i = -lam v.Y_i v / v.X v (Lancaster, Numer. Math.
    6, 1964); the forms v.Y_i v of the 2k vectors are one product of the
    vectors with each point, and v.X v = sum_i w_i v.Y_i v. Chained
    through ``_m_partials`` they give M = dm/dw, and F = m / sum m has
    J_F = (M - F 1^T M) / sum m, so 1^T J_F = 0, and J_F w = 0 because F
    is homogeneous of degree 0.
    """
    k = len(m)
    V = np.array([v for e in exts for v in e.vectors])
    forms = np.array([np.einsum("ij,ij->i", V @ P.raw(), V) for P in points])
    lams = np.array([(e.alpha, e.beta) for e in exts])
    dm = np.array([_m_partials(e.alpha, e.beta, mj) for e, mj in zip(exts, m)])
    # forms[i, l] d m / d lam_l scaled by -lam_l / v_l.X v_l, l = 2 j + (0 alpha, 1 beta)
    M = (forms * (-(dm * lams).ravel() / (w @ forms))).reshape(k, k, 2).sum(axis=2).T
    total = m.sum()
    return (M - np.outer(m / total, M.sum(axis=0))) / total


def _newton(points, w, exts, m):
    """Weights of one Newton step on G(w) = F(w) - w from w, or the plain
    F weights m / sum m when the step is singular, not finite or leaves
    the open simplex.

    The step delta solves (J_F - I) delta = w - F(w), J_F from
    ``_jacobian``; its entries sum to 0, since 1^T J_F = 0 and both w and
    F(w) sum to 1.
    """
    g = m / m.sum()
    with np.errstate(all="ignore"):  # a non-finite step falls back below
        delta, info = _gesv(_jacobian(points, w, exts, m) - np.eye(len(m)), w - g)[2:]
        step = w + delta
    if info == 0 and np.all(step > 0) and np.all(np.isfinite(step)):
        return step / step.sum()
    return g


def _fixed_point(points, init, opts, max_rounds=_FP_MAX_ROUNDS):
    """Iterate F until the radially corrected iterate certifies.

    Every iterate after ``init`` (the arithmetic mean when None) is
    sum_j w_j Y_j with w in the open simplex, and F maps it to the
    weights g = m / sum m. Each round solves the k pencils (Y_j, X) once,
    warm-started from the previous round's eigenvectors. By homogeneity
    that one pass gives the scale c = exp(sum_j (m_j + o_j) / k) and the
    residual E(c X) = c (sum_j m_j Y_j - (sum_j m_j) X), whose norm over
    k |c X|_F does not depend on c.

    The iterates, the residuals and the bracket matrices are
    combinations of the rows of one ``_Stack`` of the points and
    ``init`` (its entries outside the points' union only its own round
    sees), and they read the stored values x of the iterate, never its
    weights; only Newton's Jacobian, which steers and certifies nothing,
    takes v.X v as sum_i w_i v.Y_i v. When every Y_j alone makes its
    pencil resolve dense (so it does whatever the iterate), the stack is
    dense, and a sparse point or ``init`` enters as a dense view of its
    row; otherwise a dense ``init`` of sparse points enters by its
    nonzeros, and the stack's first sparse factorization fixes the order
    of every later one.

    Round r solves at max(opts.tol, min(LOOSEST_TOL, ETA r_{r-1})), with
    r_0 = inf. A round looser than ``opts.tol`` runs without the guard
    sweep, and its residual only steers: if it is at most ``opts.tol``
    and any solve was iterative, the round is repeated at the same X at
    ``opts.tol``, warm-started from its own vectors. A round at
    ``opts.tol`` runs the guard on its cold solves only. Such a round (or
    a loose round whose solves were all dense, hence exact) whose
    residual is at most ``opts.tol`` certifies once every extreme of a
    warm-started solve is proven (``_trusted``); a pencil with one that
    is not is solved again cold and guarded, in a repeat of the round at
    the same X. ``rounds`` counts repeats. Every solve returns its
    vectors but no residuals (``_residuals=False``). Otherwise the next
    weights take one Newton step on G(w) = F(w) - w (``_newton``) with
    the exact Jacobian from those vectors (``_jacobian``), or are the
    plain F weights m / sum m after an ``init``, which has no weights,
    and when the step is singular, not finite or leaves the open simplex;
    either way the iterate stays SPD by convexity and inside the union
    pattern. Newton only picks the weights: what certifies is decided as
    above.

    Returns (c X, rounds, displacement, residual norm at c X), where the
    displacement bounds the Hilbert distance of the last step by the
    Loewner sandwich: log(max_j(w'_j/w_j) / min_j(w'_j/w_j)); it is 0 if
    no step was taken and inf if the only step left a given ``init``.
    After ``max_rounds`` rounds without a certificate it returns the
    best corrected iterate, its residual (above ``opts.tol``, and from
    loose solves if its round was loose) and the displacement of the
    step into it.
    """
    k = len(points)
    # a pencil that Y_j alone resolves dense resolves dense whatever the
    # iterate: then the family is solved as a dense one
    dense = all(_resolve_backend(Yj, Yj, opts) == "dense" for Yj in points)
    row = init
    if init is not None and not init.is_sparse and not dense and all(p.is_sparse for p in points):
        # sparse points keep sparse iterates: a dense init enters by its nonzeros
        row = SpdMatrix._canonical(sp.csr_matrix(init.dense()))
    stack = _Stack(points if init is None else points + [row], dense)
    if dense:
        points = [SpdMatrix._canonical(v) if Yj.is_sparse else Yj
                  for Yj, v in zip(points, stack.values)]
    if init is None:
        w = np.full(k, 1.0 / k)
        x = stack.combination(w)
        X = stack.matrix(x)
    else:
        w, x = None, stack.values[k]
        X = SpdMatrix._canonical(x) if dense and init.is_sparse else init
    vectors = [(None, None)] * k
    disp = 0.0
    best = (math.inf, 1.0, X, disp)
    rnorm = math.inf
    for rounds in range(1, max_rounds + 1):
        tol = max(opts.tol, min(LOOSEST_TOL, ETA * rnorm))
        tight = tol == opts.tol
        round_opts = replace(opts, tol=tol)
        # a tight round guards its cold solves only: _trusted proves the warm ones
        exts = [extreme_pair(X, Yj, round_opts, start, _residuals=False,
                             _guard=tight and any(s is None for s in start))
                for Yj, start in zip(points, vectors)]
        exact = tight or all(e.backend == "dense" for e in exts)
        pairs = [coefficient_derivatives(e.alpha, e.beta) for e in exts]
        ms = [m for m, _ in pairs]
        c = math.exp(sum(m + o for m, o in pairs) / k)
        rnorm = _residual_field(stack, x, ms, -sum(ms))[1]
        if rnorm <= opts.tol:
            # a loose round only says that X, solved again at opts.tol, may
            # certify
            wrong = [j for j, (Yj, e, start) in enumerate(zip(stack.values, exts, vectors))
                     if exact and not _trusted(stack, x, Yj, e, start, opts.tol)]
            if exact and not wrong:
                return X.scaled(c), rounds, disp, rnorm
            vectors = [(None, None) if j in wrong else e.vectors for j, e in enumerate(exts)]
            continue
        vectors = [e.vectors for e in exts]
        if rnorm < best[0]:
            best = (rnorm, c, X, disp)
        m = np.array(ms)
        if w is None:
            w_next, disp = m / m.sum(), math.inf
        else:
            w_next = _newton(points, w, exts, m)
            ratio = w_next / w
            disp = math.log(ratio.max() / ratio.min())
        w = w_next
        x = stack.combination(w)
        X = stack.matrix(x)
    rnorm, c, X, disp = best
    return X.scaled(c), max_rounds, disp, rnorm


def inductive_mean(problem: MeanProblem) -> MeanResult:
    """Inductive Thompson mean of the problem's points.

    Iterates F with Newton steps from ``problem.init`` (the arithmetic
    mean of the points when None; any initialization converges to the
    same limit) until the radially corrected iterate's residual is at
    most ``eigen.tol``. If F stalls, its best iterate is returned when
    a cold ``residual`` there is at most ``residual_tol``. The mean of one
    point is that point, certified by its ``chol()`` and then with
    residual 0 and no solve. The mean of more
    points is an iterate scaled by its radial correction, sparse-stored
    when every point is, so it holds no factorization until its first
    ``chol()``.

    Parameters
    ----------
    problem : MeanProblem
        Points (k >= 1, equal dimensions), optional initialization of
        their dimension (else DimensionMismatch), and MeanOptions
        (certificate threshold, eigensolver options).

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
    if problem.init is not None:
        _check_dims(points[0], problem.init)
    opts = problem.opts
    eigen = opts.eigen
    if len(points) == 1:
        # once Y certifies, the pencil (Y, Y) has alpha = beta = 1, so m = 1,
        # o = -1 and E = 0 exactly; chol() raises for a Y that does not
        points[0].chol()
        return MeanResult(points[0], 0, 0.0, 0.0, True)

    X, rounds, disp, rnorm = _fixed_point(points, problem.init, eigen)
    # the mean of sparse points is sparse-stored, on the union of their patterns
    if not X.is_sparse and all(p.is_sparse for p in points):
        X = SpdMatrix._canonical(sp.csr_matrix(X.raw()))
    if rnorm > eigen.tol:
        # F stalled: its best iterate came from warm, perhaps loose, solves,
        # so only a cold residual there may vouch for it
        if rnorm <= opts.residual_tol:
            rnorm = residual(points, X, eigen)[1]
        if not rnorm <= opts.residual_tol:
            raise FixedPointStalled(best=X, displacement=disp, iterations=rounds, residual=rnorm)
    return MeanResult(X, 0, disp, rnorm, True, rounds)
