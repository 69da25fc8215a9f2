"""Domain types, validation, and the exact enumeration engine.

The engine is a meet-in-the-middle split (Horowitz & Sahni, JACM 1974): the
first and last halves of the vectors each get a table of all their partial
signed sums, and every signed sum is one head entry plus one tail entry,
formed in fixed-size numpy chunks in lexicographic order of the signs.
Since ||-s|| = ||s||, only the half with eta_1 = +1 is formed and every
count is doubled.  The precision policy supplies the array type and the
chunk-level classification, so one kernel serves double, extended and
interval arithmetic, and every field of the result depends only on the
input.

Classification at radius r is closed-ball with a tolerance band: an
assignment is a hit when norm^2 <= r^2 + tol.  Assignments whose norm^2 lies
within tol of r^2 sit exactly on the decision boundary as far as the policy
can tell; the report's ``margin`` field is the smallest gap |norm^2 - r^2|
over all assignments outside that band (0.0 if every assignment is inside),
so callers can judge how trustworthy the hit count is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, NormViolation, OutOfRange, TooLarge
from .precision import PrecisionPolicy

ENUMERATION_CAP = 30

# Sums per chunk of the split-table kernel.  Small on purpose: extended and
# interval chunks are object arrays of mpmath scalars.
_CHUNK = 1 << 10

_MODES = ("strict", "beck")


@dataclass(frozen=True)
class SignAssignment:
    """One sign per vector, each -1 or +1."""

    signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.signs) == 0:
            raise ValueError("empty sign assignment")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be -1 or +1")

    def __len__(self):
        return len(self.signs)

    def __iter__(self):
        return iter(self.signs)

    def lex_key(self) -> tuple[int, ...]:
        """Lexicographic rank with +1 ordered before -1."""
        return tuple(0 if s > 0 else 1 for s in self.signs)

    def negated(self) -> "SignAssignment":
        return SignAssignment(tuple(-s for s in self.signs))


@dataclass(frozen=True)
class CoefficientVector:
    """Relaxed coefficients, each in [-1, +1]."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        for i, c in enumerate(self.coefficients):
            if not -1.0 <= c <= 1.0:
                raise OutOfRange(f"coefficient {i} = {c!r} outside [-1, 1]")

    def __len__(self):
        return len(self.coefficients)

    def __iter__(self):
        return iter(self.coefficients)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coefficients, dtype=float)


@dataclass(frozen=True)
class VectorConfig:
    """An ordered sequence of n vectors in R^d with unit-norm metadata.

    ``strict`` mode requires every norm to lie within ``norm_tolerance`` of 1;
    ``beck`` mode only requires norms <= 1 + norm_tolerance.  Entries may be
    floats or mpmath scalars (extended-precision constructions); validation
    measures norms in double, which is far below the default tolerance.
    """

    dim: int
    vectors: tuple[tuple, ...]
    mode: str = "strict"
    norm_tolerance: float = 1e-9

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.vectors) < 1:
            raise ValueError("configuration must contain at least one vector")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if not 0 <= self.norm_tolerance < math.inf:
            raise ValueError("norm tolerance must be finite and nonnegative")
        for i, row in enumerate(self.vectors):
            if len(row) != self.dim:
                raise DimensionMismatch(
                    f"vector {i} has dimension {len(row)}, expected {self.dim}"
                )
            norm = float(sum(float(x) * float(x) for x in row)) ** 0.5
            if self.mode == "strict":
                if not abs(norm - 1.0) <= self.norm_tolerance:
                    raise NormViolation(i, norm)
            else:
                if not norm <= 1.0 + self.norm_tolerance:
                    raise NormViolation(i, norm, f"vector {i} has norm {norm!r} > 1")

    @property
    def n(self) -> int:
        return len(self.vectors)

    def as_array(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.vectors], dtype=float)

    def replaced(self, index: int, vector) -> "VectorConfig":
        rows = list(self.vectors)
        rows[index] = tuple(vector)
        return VectorConfig(self.dim, tuple(rows), self.mode, self.norm_tolerance)


@dataclass(frozen=True)
class EnumerationReport:
    """Exact census of the 2^n signed sums against a radius."""

    total: int
    hits: int
    radius: object
    probability: Fraction
    min_norm: object
    argmin: SignAssignment
    margin: float

    def __post_init__(self):
        if not 0 <= self.hits <= self.total:
            raise ValueError("hit count outside [0, total]")
        if self.probability != Fraction(self.hits, self.total):
            raise ValueError("probability must be exactly hits/total")


def validate_config(raw_vectors, mode: str = "strict", tolerance: float = 1e-9) -> VectorConfig:
    """Validate raw vectors into a VectorConfig; never silently renormalizes.

    Entries that are Python/numpy numbers are normalised to float; other
    scalar types (mpmath mpf) are kept as given.
    """
    rows = [tuple(_coerce_entry(x) for x in row) for row in raw_vectors]
    if not rows:
        raise ValueError("configuration must contain at least one vector")
    dim = len(rows[0])
    return VectorConfig(dim=dim, vectors=tuple(rows), mode=mode, norm_tolerance=tolerance)


def _coerce_entry(x):
    if isinstance(x, (int, float, np.integer, np.floating)):
        return float(x)
    return x


def signed_sum(config: VectorConfig, signs: SignAssignment, policy: PrecisionPolicy | None = None):
    """Return sum_i eta_i v_i as a tuple of scalars in the policy's arithmetic."""
    if len(signs) != config.n:
        raise DimensionMismatch(
            f"{len(signs)} signs for {config.n} vectors"
        )
    policy = policy or PrecisionPolicy.double()
    ctx = policy.context()
    with ctx.active():
        rows = [[ctx.scalar(x) for x in row] for row in config.vectors]
        acc = list(rows[0]) if signs.signs[0] > 0 else [-x for x in rows[0]]
        for eta, row in zip(signs.signs[1:], rows[1:]):
            if eta > 0:
                for k in range(config.dim):
                    acc[k] = acc[k] + row[k]
            else:
                for k in range(config.dim):
                    acc[k] = acc[k] - row[k]
        return tuple(acc)


def sign_table(rows: np.ndarray) -> np.ndarray:
    """All 2^k signed sums of the k rows, built by doubling.

    Row m of the result has eta_i = -1 iff bit k-1-i of m is set, so
    ascending m is lexicographic order with +1 before -1.
    """
    table = np.zeros((1, rows.shape[1]), dtype=rows.dtype)
    for row in rows[::-1]:
        table = np.concatenate([table + row, table - row])
    return table


def combine(head: np.ndarray, tail: np.ndarray):
    """Yield the norm^2 of every head[a] + tail[b] in ascending index
    a * len(tail) + b, in chunks of _CHUNK sums.

    Both lengths must be powers of two, as sign_table makes them; then every
    chunk is full unless it is the only one.
    """
    per_chunk = max(1, _CHUNK // len(tail))
    width = min(len(tail), _CHUNK)
    # Component-major copies keep numpy's inner loops long and contiguous.
    head, tail = head.T.copy(), tail.T.copy()
    for a in range(0, head.shape[1], per_chunk):
        for b in range(0, tail.shape[1], width):
            sums = head[:, a : a + per_chunk, None] + tail[:, None, b : b + width]
            yield (sums * sums).sum(axis=0).ravel()


def _walk(config: VectorConfig, policy: PrecisionPolicy, radius, cap: int):
    n = config.n
    if n > cap:
        raise TooLarge(f"n = {n} exceeds the enumeration cap {cap}")
    ctx = policy.context()
    with ctx.active():
        rows = ctx.array(config.vectors)
        # ||-s|| = ||s||: enumerate only eta_1 = +1, the lexicographically
        # first half, and count every sum twice.
        split = (n + 1) // 2
        head = rows[0] + sign_table(rows[1:split])
        tail = sign_table(rows[split:])
        if radius is not None:
            r = ctx.scalar(radius)
            radius_sq = r * r
            tol = ctx.scalar(policy.classification_tolerance)
        hits = 0
        margin = None
        best_key = best_ns = best_index = None
        for chunk, norm_sq in enumerate(combine(head, tail)):
            if radius is not None:
                hits += 2 * int(np.count_nonzero(ctx.classify_hits(norm_sq, radius_sq, tol)))
                gaps = ctx.gaps(norm_sq, radius_sq)
                gaps = gaps[gaps > policy.classification_tolerance]
                if gaps.size and (margin is None or gaps.min() < margin):
                    margin = float(gaps.min())
            keys = ctx.order_keys(norm_sq)
            i = int(np.argmin(keys))
            # Strict < keeps the earliest, hence lexicographically first, minimiser.
            if best_key is None or keys[i] < best_key:
                best_key, best_ns, best_index = keys[i], norm_sq[i], chunk * _CHUNK + i
        signs = tuple(-1 if (best_index >> (n - 1 - i)) & 1 else 1 for i in range(n))
        return hits, margin, ctx.sqrt(best_ns), SignAssignment(signs), ctx


def enumerate_signed_sums(
    config: VectorConfig,
    radius,
    policy: PrecisionPolicy | None = None,
    workers: int = 1,
    cap: int = ENUMERATION_CAP,
) -> EnumerationReport:
    """Count, exactly, the sign assignments whose signed sum lies in the
    closed ball of the given radius.

    Raises OutOfRange for a negative or NaN radius, TooLarge past the cap,
    and AmbiguousClassification in interval mode when some assignment cannot
    be classified at the policy tolerance.  ``workers`` is accepted and
    ignored; enumeration runs in the calling thread.
    """
    policy = policy or PrecisionPolicy.double()
    if not float(radius) >= 0:
        raise OutOfRange("radius must be nonnegative")
    hits, margin, min_norm, argmin, _ = _walk(config, policy, radius, cap)
    total = 1 << config.n
    return EnumerationReport(
        total=total,
        hits=hits,
        radius=radius,
        probability=Fraction(hits, total),
        min_norm=min_norm,
        argmin=argmin,
        margin=0.0 if margin is None else margin,
    )


def min_signed_norm(
    config: VectorConfig,
    policy: PrecisionPolicy | None = None,
    workers: int = 1,
    cap: int = ENUMERATION_CAP,
) -> tuple[float, SignAssignment]:
    """Exact minimiser of ||sum eta_i v_i|| over all 2^n assignments.

    Ties break toward the lexicographically smallest sign sequence with +1
    ordered before -1, so results are reproducible across runs.
    ``workers`` is accepted and ignored.
    """
    policy = policy or PrecisionPolicy.double()
    _, _, min_norm, argmin, ctx = _walk(config, policy, None, cap)
    return ctx.to_float(min_norm), argmin
