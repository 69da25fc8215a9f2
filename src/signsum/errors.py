"""Exception types shared across the package.

Every error that a caller is expected to branch on gets its own class;
plain programmer mistakes (bad argument types, out-of-contract parameters
that no operation promises to detect) raise ValueError.
"""


class SignsumError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(SignsumError):
    """Vectors (or signs/coefficients) of inconsistent length."""


class NormViolation(SignsumError):
    """A vector fails the norm requirement of its validation mode."""

    def __init__(self, index: int, norm: float, message: str | None = None):
        self.index = index
        self.norm = norm
        super().__init__(message or f"vector {index} has norm {norm!r}")


class TooLarge(SignsumError):
    """The number of vectors exceeds the exhaustive-enumeration cap."""


class AmbiguousClassification(SignsumError):
    """Interval mode: a sum's norm^2 lies within the rounding bound of the threshold."""


class PrecisionInsufficient(SignsumError):
    """The working precision cannot separate the data it is asked to produce."""


class EvenN(SignsumError):
    """An operation defined only for an odd number of vectors got an even one."""


class OutOfRange(SignsumError):
    """A scalar argument lies outside its documented domain."""


class NotAlmostOrthogonal(SignsumError):
    """Some pair of input vectors exceeds the stated inner-product bound."""

    def __init__(self, i: int, j: int, inner: float):
        self.pair = (i, j)
        self.inner = inner
        super().__init__(f"|<x_{i}, x_{j}>| = {abs(inner):.6g} exceeds the stated bound")


class SingularInput(SignsumError):
    """A matrix that must be full-rank is numerically rank-deficient."""


class DegeneratePlane(SignsumError):
    """Plane basis vectors are (numerically) parallel."""


class NotOrthogonal(SignsumError):
    """Vectors required to be orthogonal are not."""


class DegenerateFamily(SignsumError):
    """A generated configuration fails its defining extremality check."""

    def __init__(self, achieved: float, expected: float):
        self.achieved = achieved
        self.expected = expected
        super().__init__(
            f"configuration is degenerate: min signed-sum norm {achieved:.12g}, "
            f"expected {expected:.12g}"
        )


class ObliquePairPresent(SignsumError):
    """Clustering requires that no pair be oblique, but one is."""

    def __init__(self, i: int, j: int, inner: float):
        self.pair = (i, j)
        self.inner = inner
        super().__init__(f"pair ({i}, {j}) is oblique: |inner| = {abs(inner):.6g}")


class TransitivityViolation(SignsumError):
    """The near-parallel relation failed to be an equivalence on this input."""


class TooManyClusters(SignsumError):
    """More clusters than the ambient dimension: precondition was broken."""


class ParityMismatch(SignsumError):
    """n and d have the same parity where opposite parity is required."""


class NumericalNullspaceFailure(SignsumError):
    """Computed null combination has residual too large to trust."""


class ProjectionTooLong(SignsumError):
    """A vector's in-plane projection exceeds the admissible bound."""

    def __init__(self, index: int, length: float, bound: float):
        self.index = index
        self.length = length
        self.bound = bound
        super().__init__(
            f"vector {index} projects onto the plane with norm {length:.6g} > {bound:.6g}"
        )


class NotOblique(SignsumError):
    """The designated pair is not oblique at the requested threshold."""
