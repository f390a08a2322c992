"""Exception hierarchy for spdcone.

Input problems (bad files, shapes, parameters) and numerical failures
(indefinite matrices, non-convergence) are kept in distinct branches so
the CLI can map them to distinct exit codes.
"""

import math
import numbers


class SpdConeError(Exception):
    """Base class for all spdcone errors."""


class InputError(SpdConeError):
    """Invalid user input: shapes, parameters, files."""


class NumericalError(SpdConeError):
    """Numerically meaningful failure on valid input."""


class InvalidOption(InputError, ValueError):
    """An option value outside its domain, rejected where it is set."""

    def __init__(self, name, value, requirement):
        self.name = name
        self.value = value
        super().__init__(f"option {name} = {value!r} {requirement}")


class InvalidArgument(InputError, ValueError):
    """An argument a public function cannot act on, e.g. an empty family."""


def require_positive_finite(name, value):
    """Raise InvalidOption unless value is a real number with 0 < value < inf;
    nan fails that test too."""
    if not (isinstance(value, numbers.Real) and 0.0 < value < math.inf):
        raise InvalidOption(name, value, "must be finite and positive")


def require_integer(name, value, least):
    """Raise InvalidOption unless value is a Python or NumPy integer >= least."""
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise InvalidOption(name, value, f"must be an integer >= {least}")


class DimensionMismatch(InputError):
    def __init__(self, n_left, n_right):
        self.n_left = n_left
        self.n_right = n_right
        super().__init__(f"dimension mismatch: {n_left} vs {n_right}")


class AsymmetricInput(InputError):
    def __init__(self, max_dev, scale):
        self.max_dev = max_dev
        super().__init__(
            f"input matrix is not symmetric: max |A - A^T| = {max_dev:.3e} "
            f"exceeds 1e-12 relative to max |A| = {scale:.3e}"
        )


class InvalidMatrix(InputError):
    """Input matrix that no SPD matrix can be: empty, or with a non-finite entry."""

    def __init__(self, reason):
        super().__init__(f"invalid matrix: {reason}")


class NotPositiveDefinite(NumericalError):
    """Cholesky certification failed: a pivot was not positive.

    ``pivot_index`` is the 1-based elimination step at which the failure
    occurred (in the fill-reducing permuted order for sparse input), or
    the 1-based index of the first nonpositive diagonal entry, which no
    elimination order can accept; -1 when the factorization aborted
    before reporting a pivot.
    """

    def __init__(self, pivot_index, detail=""):
        self.pivot_index = pivot_index
        msg = f"matrix is not positive definite (pivot {pivot_index} <= 0)"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NumericalBreakdown(NumericalError):
    """A Cholesky pivot, or (``pivot_index`` -1) the estimated smallest
    eigenvalue, fell below 1e-14 * max diagonal or into the subnormal
    range: near-singular input, or too small a scale to certify."""

    def __init__(self, pivot_index, pivot, threshold):
        self.pivot_index = pivot_index
        self.pivot = pivot
        what = f"pivot {pivot_index}" if pivot_index > 0 else "smallest eigenvalue at most"
        super().__init__(
            f"near-singular matrix: {what} = {pivot:.3e} "
            f"below breakdown threshold {threshold:.3e}"
        )


class DenseLimitExceeded(InputError):
    def __init__(self, n, ceiling):
        self.n = n
        self.ceiling = ceiling
        super().__init__(
            f"dense-only operation requested at n = {n}, above the dense "
            f"ceiling {ceiling}; use the iterative/extreme-eigenvalue path"
        )


class NoConvergence(NumericalError):
    """Iteration cap reached. Carries the best estimate found so far."""

    def __init__(self, message, best=None, residual=None, iterations=None):
        self.best = best
        self.residual = residual
        self.iterations = iterations
        super().__init__(message)


class InvalidGauge(InputError):
    def __init__(self, p):
        self.p = p
        super().__init__(f"gauge parameter p = {p} is invalid: require p >= 1")


class NonPositiveAlpha(InputError):
    def __init__(self, alpha):
        self.alpha = alpha
        super().__init__(f"alpha = {alpha} must be strictly positive")


class OrderViolation(InputError):
    def __init__(self, alpha, beta):
        self.alpha = alpha
        self.beta = beta
        super().__init__(f"beta = {beta} is below alpha = {alpha} beyond tolerance")


class DegeneratePencil(NumericalError):
    """Extreme eigenvalues coincide; the diamond geodesic is undefined."""

    def __init__(self, alpha, beta):
        self.alpha = alpha
        self.beta = beta
        super().__init__(
            f"pencil extremes coincide (alpha = {alpha}, beta = {beta}); "
            "the diamond geodesic is undefined, use the star geodesic"
        )


class FixedPointStalled(NumericalError):
    """The mean's F iteration did not certify. Carries the best iterate,
    its residual norm and the displacement of the step into it."""

    def __init__(self, best, displacement, iterations, residual):
        self.best = best
        self.displacement = displacement
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"fixed-point iteration stalled after {iterations} steps "
            f"(best residual {residual:.3e})"
        )


class NonPositiveR(InputError):
    def __init__(self, R):
        self.R = R
        super().__init__(f"contraction radius R = {R} must be strictly positive")


class ParseError(InputError):
    """Matrix Market parsing failure, with 1-based line number."""

    def __init__(self, path, line_no, reason):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {reason}")
