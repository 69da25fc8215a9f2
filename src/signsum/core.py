"""Domain types, validation, and the exact enumeration engine.

The engine is a meet-in-the-middle split (Horowitz & Sahni, JACM 1974): the
first and last halves of the vectors each get a table of all their partial
signed sums, and every signed sum is one head entry plus one tail entry,
formed in fixed-size numpy chunks in lexicographic order of the signs.
Since ||-s|| = ||s||, only the half with eta_1 = +1 is formed and every
count is doubled.  The kernel is float64 in every mode, on float(entry)
rows, and every field of the result depends only on the input.

Classification at radius r is closed-ball with a tolerance band: an
assignment is a hit when norm^2 <= r^2 + tol, and ``band_count`` counts the
hits with r^2 < norm^2.  The report's ``margin`` field is the smallest gap
|norm^2 - r^2| over all assignments outside the band |norm^2 - r^2| <= tol
(0.0 if every assignment is inside), so callers can judge how trustworthy
the hit count is.

Double mode decides on the float norms^2.  Extended and interval modes
decide exactly for their B-bit inputs: a floating filter places every sum
that lies further than ``rounding_bound`` from each decision point, and the
rest are recomputed in integers at one common power-of-two scale (the
adaptive-predicate pattern, Shewchuk, DCG 18, 1997).  Interval mode also
raises AmbiguousClassification when some sum's exact norm^2 lies within
``rounding_bound(rows, bits, r, tol)`` of the B-bit threshold r^2 + tol.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AmbiguousClassification, DimensionMismatch, NormViolation, OutOfRange, TooLarge
from .precision import PrecisionPolicy

ENUMERATION_CAP = 30
# Byte budget for one call's tables over the signed sums, such as the
# falsifier's and the search's, counted by the caller and checked by
# ``check_enumerable`` before any table is built.
TABLE_BYTES = 1 << 28

_FLOAT_MAX = Fraction(sys.float_info.max)

# Sums per chunk of the split-table kernel.  A chunk, its term buffer, masks
# and exact rechecks are the only buffers that grow with the 2^n sums; at 2^11
# the per-chunk numpy calls are a small share of the arithmetic, and the
# buffers stay in cache and cap what one chunk of exact ties can cost.
_CHUNK = 1 << 11

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
    floats or mpmath scalars; validation measures norms in double, far below the
    default tolerance.  The read-only float rows for the kernel and the first
    double-mode ``min_signed_norm`` are kept on the config, not as fields.
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
        good = next((i for i, row in enumerate(self.vectors) if len(row) != self.dim), self.n)
        entries = map(float, itertools.chain.from_iterable(self.vectors[:good]))
        floats = np.fromiter(entries, float, good * self.dim).reshape(good, self.dim)
        # Python's sum and ** 0.5 (np.sqrt is an ulp off at times) keep a per-row loop's norms.
        for i, norm in enumerate(sq ** 0.5 for sq in map(sum, (floats * floats).tolist())):
            if self.mode == "strict" and not abs(norm - 1.0) <= self.norm_tolerance:
                raise NormViolation(i, norm)
            if self.mode == "beck" and not norm <= 1.0 + self.norm_tolerance:
                raise NormViolation(i, norm, f"vector {i} has norm {norm!r} > 1")
        if good < self.n:
            row = self.vectors[good]
            raise DimensionMismatch(f"vector {good} has dimension {len(row)}, expected {self.dim}")
        object.__setattr__(self, "_floats", floats)
        self._floats.flags.writeable = False

    def __reduce__(self):  # unpickling validates again, rebuilds _floats, drops _minimiser
        return VectorConfig, (self.dim, self.vectors, self.mode, self.norm_tolerance)

    @property
    def n(self) -> int:
        return len(self.vectors)

    def as_array(self) -> np.ndarray:
        return self._floats.copy()  # a fresh, writable copy

    def replaced(self, index: int, vector) -> "VectorConfig":
        rows = list(self.vectors)
        rows[index] = tuple(vector)
        return VectorConfig(self.dim, tuple(rows), self.mode, self.norm_tolerance)


@dataclass(frozen=True)
class EnumerationReport:
    """Exact census of the 2^n signed sums against a radius.

    ``band_count`` counts the hits inside the tolerance band,
    r^2 < norm^2 <= r^2 + tol.
    """

    total: int
    hits: int
    band_count: int
    radius: object
    probability: Fraction
    min_norm: object
    argmin: SignAssignment
    margin: float

    def __post_init__(self):
        if not 0 <= self.hits <= self.total:
            raise ValueError("hit count outside [0, total]")
        if not 0 <= self.band_count <= self.hits:
            raise ValueError("band count outside [0, hits]")
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
    with policy.active():
        rows = [[policy.scalar(x) for x in row] for row in config.vectors]
        acc = [signs.signs[0] * x for x in rows[0]]
        for eta, row in zip(signs.signs[1:], rows[1:]):
            acc = [a + eta * x for a, x in zip(acc, row)]
        return tuple(acc)


@functools.cache
def _sign_matrix(k: int) -> np.ndarray:
    """(k, 2^k) int8 signs in the doubling's order: [t, m] is -1 iff bit t of m is set."""
    signs = (1 - 2 * (np.arange(1 << k) >> np.arange(k)[:, None] & 1)).astype(np.int8)
    signs.flags.writeable = False  # one array for every caller
    return signs


def sign_columns(rows: np.ndarray) -> np.ndarray:
    """All 2^k signed sums of the k rows, a new component-major (d, 2^k) array
    of ``rows.dtype`` (exact on Python ints): column m has eta_i = -1 iff bit
    k-1-i of m is set.  One add.reduce over the outer axis of cached int8
    signs times the first min(k, 6) rows, last row first, adds them to the
    zero row in the doubling's order (six bound its transient), and the other
    rows double in place.  eta * v is exact, x + (-v) is x - v, and starting
    from the zero row turns an all-(-0.0) sum into +0.0: the doubling's bits."""
    k, d = rows.shape
    j = min(k, 6)
    terms = _sign_matrix(j)[:, None, :] * rows[::-1][:j, :, None]
    table = np.empty((d, 1 << k), dtype=rows.dtype)
    size = 1 << j
    np.add.reduce(terms, axis=0, initial=0, out=table[:, :size])
    for row in rows[: k - j][::-1, :, None]:
        np.subtract(table[:, :size], row, out=table[:, size : 2 * size])
        table[:, :size] += row
        size *= 2
    return table


def half_norms_sq(rows: np.ndarray):
    """Chunks of _CHUNK norms^2 of every signed sum with eta_1 = +1 (the
    first half) in lexicographic order: head v_1 + ``sign_columns`` of the
    rows up to the split, tail ``sign_columns`` of the rest, and each chunk
    of head[:, a] + tail[:, b] in ascending a * 2^k + b.  A chunk is built
    one component at a time: head + tail into one reused term buffer, squared
    there, and added into a fresh chunk in index order: the doubling's bits
    at every n, with no (d, a, b) block of sums or squares."""
    split = (len(rows) + 1) // 2
    head, tail = sign_columns(rows[1:split]) + rows[0][:, None], sign_columns(rows[split:])
    # Every chunk is full unless it is the only one, so one term buffer serves them all.
    p, w = min(head.shape[1], max(1, _CHUNK // tail.shape[1])), min(tail.shape[1], _CHUNK)
    term = np.empty((p, w), dtype=head.dtype)
    for a in range(0, head.shape[1], p):
        for b in range(0, tail.shape[1], w):
            h, t = head[:, a : a + p, None], tail[:, None, b : b + w]
            norm_sq = np.square(np.add(h[0], t[0], out=term))  # the fresh chunk
            for j in range(1, len(h)):
                norm_sq += np.square(np.add(h[j], t[j], out=term), out=term)
            yield norm_sq.ravel()
            del norm_sq  # the caller alone decides when the chunk is freed


def check_enumerable(n: int, table_bytes: int = 0):
    """Raise TooLarge when n is past ENUMERATION_CAP or a call's tables of
    ``table_bytes`` would pass TABLE_BYTES, both read at call time."""
    if n > ENUMERATION_CAP:
        raise TooLarge(f"n = {n} exceeds the enumeration cap {ENUMERATION_CAP}")
    if table_bytes > TABLE_BYTES:
        raise TooLarge(f"the tables for n = {n} take {table_bytes} bytes, "
                       f"past TABLE_BYTES = {TABLE_BYTES}")


def rounding_bound(rows, bits: int, radius=0, tolerance=0.0) -> float:
    """A float no smaller than the kernel's largest error in
    norm^2 - (r^2 + tol) over the signed sums of ``rows``, when the kernel
    runs at unit roundoff u = 2^-bits, round-to-nearest, on the entries
    converted to ``bits``-bit numbers (binary64 when bits = 53, underflow
    included).

    With gamma_k = k*u / (1 - k*u) (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., Lemma 3.1) and S_j = sum_i |v_ij|:

    * Converting an entry x errs by at most one ulp, 2u*|x|, which covers
      rounding to nearest and toward zero, or by 2^-1074 where binary64
      underflows.  Each term of a coordinate then meets at most n - 1
      additions in ``sign_columns`` (in the doubling's order) and head +
      tail, adding to +0.0 being exact, and (1 + 2u)(1 + gamma_{n-1}) <= 1 + gamma_{n+1}.
      So the computed coordinate is off by at most
      e_j = gamma_{n+1} * S_j + 2n * 2^-1074.
    * The exact squares of the computed coordinates then sum to within
      sum_j (2 S_j e_j + e_j^2) of norm^2, and squaring and summing them, a
      d-term dot product, errs by at most gamma_d * sum_j (S_j + e_j)^2
      (Higham (3.5)) plus d * 2^-1074 for squares that underflow.
    * With a = gamma_{n+1}, t = 2n * 2^-1074, P = sum_j S_j and
      Q = sum_j S_j^2, those two sums are
      (2a + a^2 + gamma_d (1 + a)^2) Q + (1 + gamma_d)(2t(1 + a) P + d t^2),
      and a, gamma_d <= 1, t^2 <= 2^-1074 bound the second part by
      (16 n P + 2d) * 2^-1074.
    * r*r + tol takes two roundings after r and tol are converted:
      gamma_4 * (r^2 + tol).

    Each gamma_k is taken as its upper bound k*u + 2(k*u)^2 (k*u <= 1/2),
    so every term is a dyadic rational: they are summed exactly as integers
    and rounded up to a float (inf past the float range).
    """
    n, d = len(rows), len(rows[0])
    ints, low = _scaled(rows)
    sums = [sum(abs(row[j]) for row in ints) for j in range(d)]  # S_j = sums[j] * 2^low
    p, q = sum(sums), sum(s * s for s in sums)  # P = p * 2^low, Q = q * 2^(2 low)

    def gamma(k):  # in units of u^2 = 2^(-2 bits)
        return (k << bits) + 2 * k * k

    a = gamma(n + 1)
    # 2a + a^2 + gamma_d (1 + a)^2, in units of u^6.
    c = (2 * a << 4 * bits) + (a * a << 2 * bits) + gamma(d) * ((1 << 2 * bits) + a) ** 2
    [[r, tol]], low_r = _scaled([[radius, tolerance]])
    terms = [(c * q, 2 * low - 6 * bits),
             (16 * n * p + (3 * d << -low), low - 1074),
             (gamma(4) * (r * r + (tol << -low_r)), 2 * low_r - 2 * bits)]
    e = min(x for _, x in terms)
    try:
        return math.nextafter(sum(m << (x - e) for m, x in terms) / (1 << -e), math.inf)
    except OverflowError:  # past the float range, as r^2 is for a huge radius
        return math.inf


def least_window(least, shift, margin=0.0):
    """A norm^2 past which no sum can become the least after a move of at
    most ``shift``: with L the least computed norm^2 and ``least`` its
    computed square root, the float (elementwise on arrays)

        B = (least + 2 shift + margin)^2 (1 + 2^-20) + 2^-1022.

    Let every sum s, a float d-vector whose computed norm^2 N(s) adds its
    squares in component order, move to fl(s + delta_s), each delta_s a
    float vector with ||delta_s|| <= shift, and let N'(s) be the computed
    norm^2 of the moved sum.  Let a attain L.

    * Triangle inequality: ||s + delta_s|| >= ||s|| - shift and
      ||a + delta_a|| <= ||a|| + shift, so in exact arithmetic a sum with
      ||s|| > ||a|| + 2 shift ends strictly longer than a.
    * Rounding, with u = 2^-53 and gamma_k = k u / (1 - k u): a coordinate
      of fl(s + delta) is within u of the exact one, and a norm^2 summed in
      component order is within gamma_d of the exact one (Higham, *Accuracy
      and Stability of Numerical Algorithms*, 2nd ed., (3.5)), both
      relative, plus d * 2^-1075 for squares that underflow.  So, leaving
      underflow aside, N'(s) > N'(a) whenever
      sqrt(N(s)) > (sqrt(L) + 2 shift)(1 + 3 gamma_(d+2)).
    * B's own roundings, the rounding of ``least``, and a ``shift`` computed
      with rounding from the float deltas cost a few u more, and
      (1 + 2^-20) covers all of these together for d < 2^30; 2^-1022 covers
      the underflow terms, at most 4d * 2^-1075 in all.

    Every sum with N(s) > B therefore ends with N'(s) > N'(a), strictly
    longer than a after the move, while a itself has N(a) = L <= B: the
    least N' over the sums with N <= B is the least over all of them, to
    the bit.  ``margin`` widens the window by a length that covers norms^2
    maintained apart from the vectors they stand for, as the falsifier's are
    (its docstring bounds that drift).
    """
    return (least + 2.0 * shift + margin) ** 2 * (1.0 + 2.0**-20) + 2.0**-1022


def _dyadic(x) -> tuple[int, int]:
    """(m, e) with x = m * 2^e exactly, for an int, a float or an mpf."""
    if hasattr(x, "_mpf_"):
        sign, man, exp, _ = x._mpf_  # mpmath's raw (sign, mantissa, exponent, bits)
        return -man if sign else man, exp
    num, den = x.as_integer_ratio()
    if den & (den - 1):
        raise ValueError(f"{x!r} is not a dyadic rational")
    return num, 1 - den.bit_length()


def _scaled(rows) -> tuple[list[list[int]], int]:
    """The entries as integers m with x = m * 2^low, for one common low <= 0."""
    pairs = [[_dyadic(x) for x in row] for row in rows]
    low = min(0, *(e for row in pairs for _, e in row))
    return [[m << (e - low) for m, e in row] for row in pairs], low


def _exact(x) -> Fraction:
    """The exact value of an int, a float or an mpf."""
    [[m]], low = _scaled([[x]])
    return Fraction(m, 1 << -low)


class _ExactSums:
    """Exact norm^2 of the sums of the eta_1 = +1 half, by index.

    Every entry is a dyadic rational, an integer times one common 2^low.
    Each sum is then one head plus one tail of ``sign_columns`` tables on
    object arrays of those integers (2^(n/2) columns each, like the float
    kernel's), and its norm^2 an integer times ``unit`` = 2^(2 low).
    """

    def __init__(self, inputs):
        ints, low = _scaled(inputs)
        self.unit = Fraction(1, 1 << -2 * low)
        rows, split = np.array(ints, dtype=object), (len(ints) + 1) // 2
        self.head = sign_columns(rows[1:split]) + rows[0][:, None]
        self.tail = sign_columns(rows[split:])

    def norms_sq(self, offset: int, indices: list[int]) -> list[int]:
        """The norms^2 of the sums at offset + k for each k of ``indices``."""
        a, b = np.divmod(np.asarray(indices, dtype=np.intp) + offset, self.tail.shape[1])
        sums = self.head[:, a] + self.tail[:, b]
        return (sums * sums).sum(axis=0).tolist()

    def floor(self, q: Fraction) -> int:
        """The largest integer norm^2 that is <= q."""
        return math.floor(q / self.unit)


def _window(point: Fraction, width: float) -> tuple[float, float]:
    """Floats bracketing [point - width, point + width]: float() of the
    (range-clamped) point and the float subtraction and addition each round
    to nearest, and one step outward after each covers that."""
    f = float(max(-_FLOAT_MAX, min(point, _FLOAT_MAX)))
    return (math.nextafter(math.nextafter(f, -math.inf) - width, -math.inf),
            math.nextafter(math.nextafter(f, math.inf) + width, math.inf))


@dataclass
class _Least:
    """The exact least of sign * norm^2 over the sums with
    sign * norm^2 > ``floor`` (integer units), kept across chunks.

    [lo, hi] is the float window of the class's bound: the float kernel puts
    a sum above hi in the class for certain, and one in [lo, hi] perhaps.
    """

    sign: int
    lo: float
    hi: float
    floor: float
    value: int | None = None
    index: int | None = None
    cap: float = math.inf  # no sum whose float lies above this can beat value

    def candidates(self, norm_sq: np.ndarray, fb: float) -> np.ndarray:
        """Mask of the chunk's sums that may hold the class's least: it is
        within fb of the least certain float, so it and all its ties lie
        within 2 fb of that float."""
        keys = self.sign * norm_sq
        sure = keys[keys > self.hi]
        cut = math.nextafter(float(sure.min()) + 2 * fb, math.inf) if sure.size else self.hi
        return (keys >= self.lo) & (keys <= min(cut, self.cap))

    def update(self, offset: int, picked: list[int], values: list[int], unit: Fraction,
               fb: float):
        """Take the first least of the exact values; later chunks only
        replace it when strictly smaller."""
        value = self.value
        for k, v in zip(picked, values):
            key = self.sign * v
            if key > self.floor and (self.value is None or key < self.value):
                self.value, self.index = key, offset + k
        if self.value != value:
            self.cap = _window(self.value * unit, fb)[1]


def _walk_float(rows: np.ndarray, radius, tolerance: float):
    """Every decision on the float64 norms^2 (double mode)."""
    hits = band = 0
    margin = best = index = None
    if radius is not None:
        r = float(radius)
        radius_sq = r * r
        threshold = radius_sq + tolerance
        # A sum in the band has |norm^2 - r^2| <= threshold - r^2, rounding
        # being monotone; most chunks have none and skip both scans.
        width = threshold - radius_sq
    gaps = None  # one buffer for every chunk's |norm^2 - r^2|
    for chunk, norm_sq in enumerate(half_norms_sq(rows)):
        if radius is not None:
            hits += 2 * int(np.count_nonzero(norm_sq <= threshold))
            gaps = np.abs(np.subtract(norm_sq, radius_sq, out=gaps), out=gaps)
            least = gaps.min()
            if least <= width:
                band += 2 * int(np.count_nonzero((norm_sq > radius_sq) & (norm_sq <= threshold)))
            if least <= tolerance:
                outside = gaps[gaps > tolerance]
                least = outside.min() if outside.size else None
            if least is not None and (margin is None or least < margin):
                margin = float(least)
        i = int(np.argmin(norm_sq))
        # Strict < keeps the earliest, hence lexicographically first, minimiser.
        if best is None or norm_sq[i] < best:
            best, index = norm_sq[i], chunk * _CHUNK + i
        del norm_sq  # before the next chunk is formed
    return hits, band, margin, math.sqrt(best), index


def _walk_exact(inputs, policy: PrecisionPolicy, radius):
    """Every decision exact for the B-bit ``inputs`` (extended, interval).

    The float64 kernel runs on float(entry) rows, and the filter bound
    fb = ``rounding_bound(inputs, 53)`` places every sum whose float norm^2
    lies further than fb from each decision point: r^2 + tol (hits), r^2
    (the band), r^2 +- tol (which sums set the margin) and the least norm^2
    so far.  Each chunk's other sums are recomputed exactly, so hits,
    band_count, margin, the argmin and min_norm are exact.  Interval mode
    refuses when some exact norm^2 lies within ``rounding_bound`` of the
    threshold.
    """
    sums = _ExactSums(inputs)
    unit = sums.unit
    fb = rounding_bound(inputs, 53)
    least = _Least(1, -math.inf, -math.inf, -math.inf)
    trackers = [least]
    if radius is not None:
        r = policy.scalar(radius)
        radius_sq = r * r
        threshold = radius_sq + policy.scalar(policy.classification_tolerance)
        big_r, big_t = _exact(radius_sq), _exact(threshold)
        tol = Fraction(policy.classification_tolerance)
        # The margin's classes: norm^2 > r^2 + tol, and -norm^2 > tol - r^2.
        trackers += [_Least(1, *_window(big_r + tol, fb), sums.floor(big_r + tol)),
                     _Least(-1, *_window(tol - big_r, fb), sums.floor(tol - big_r))]
        # Interval mode refuses exact norms^2 in [threshold - bound, threshold + bound].
        bound = 0.0
        if policy.mode == "interval":
            bound = rounding_bound(inputs, policy.bits, r, policy.classification_tolerance)
        refused = ((-math.inf, math.inf) if bound == math.inf else
                   (-sums.floor(Fraction(bound) - big_t), sums.floor(big_t + Fraction(bound))))
        lo_t, hi_t = _window(big_t, math.nextafter(fb + bound, math.inf))
        lo_r, hi_r = _window(big_r, fb)
        limit, r_limit = sums.floor(big_t), sums.floor(big_r)
    hits = at_most_r = 0
    for chunk, norm_sq in enumerate(half_norms_sq(np.array(inputs, dtype=float))):
        candidates = np.zeros(len(norm_sq), dtype=bool)
        if radius is not None:
            candidates |= (norm_sq >= lo_t) & (norm_sq <= hi_t)
            candidates |= (norm_sq >= lo_r) & (norm_sq <= hi_r)
        for tracker in trackers:
            candidates |= tracker.candidates(norm_sq, fb)
        picked = np.flatnonzero(candidates).tolist()
        values = sums.norms_sq(chunk * _CHUNK, picked)
        if radius is not None:
            if bound and any(refused[0] <= v <= refused[1] for v in values):
                raise AmbiguousClassification(
                    f"a norm^2 lies within the rounding bound {bound:.3g} of the "
                    f"threshold r^2 + tol = {policy.decimal(threshold)}")
            rest = norm_sq[~candidates]
            hits += int(np.count_nonzero(rest < lo_t)) + sum(v <= limit for v in values)
            at_most_r += int(np.count_nonzero(rest < lo_r)) + sum(v <= r_limit for v in values)
        for tracker in trackers:
            tracker.update(chunk * _CHUNK, picked, values, unit, fb)
    margin = None
    if radius is not None:
        gaps = [t.value * unit - t.sign * big_r for t in trackers[1:] if t.value is not None]
        if gaps:  # a gap past the float range reads inf, as in double
            margin = float(min(gaps)) if min(gaps) <= _FLOAT_MAX else math.inf
    return 2 * hits, 2 * (hits - at_most_r), margin, policy.sqrt(least.value * unit), least.index


def _walk(config: VectorConfig, policy: PrecisionPolicy, radius):
    """(hits, band_count, margin, min_norm, argmin) of the census."""
    n = config.n
    check_enumerable(n)
    if policy.mode == "double":  # policy.scalar is float() in double mode
        *census, index = _walk_float(config._floats, radius, policy.classification_tolerance)
    else:
        with policy.active():
            inputs = [[policy.scalar(x) for x in row] for row in config.vectors]
            *census, index = _walk_exact(inputs, policy, radius)
    signs = tuple(-1 if (index >> (n - 1 - i)) & 1 else 1 for i in range(n))
    return (*census, SignAssignment(signs))


def enumerate_signed_sums(
    config: VectorConfig,
    radius,
    policy: PrecisionPolicy | None = None,
    workers: int = 1,
) -> EnumerationReport:
    """Count, exactly, the sign assignments whose signed sum lies in the
    closed ball of the given radius.

    Raises OutOfRange for a negative or non-finite radius, TooLarge past the
    cap, and AmbiguousClassification in interval mode when some sum's exact
    norm^2 lies within ``rounding_bound`` of r^2 + tol.  ``workers`` is
    accepted and ignored, since enumeration runs in the calling thread; it
    stays because the benchmark harness (``perfbench/workloads.py``) passes
    ``workers=1``.
    """
    policy = policy or PrecisionPolicy.double()
    if not 0 <= float(radius) < math.inf:
        raise OutOfRange("radius must be finite and nonnegative")
    hits, band, margin, min_norm, argmin = _walk(config, policy, radius)
    total = 1 << config.n
    return EnumerationReport(
        total=total,
        hits=hits,
        band_count=band,
        radius=radius,
        probability=Fraction(hits, total),
        min_norm=min_norm,
        argmin=argmin,
        margin=0.0 if margin is None else margin,
    )


def min_signed_norm(
    config: VectorConfig, policy: PrecisionPolicy | None = None
) -> tuple[float, SignAssignment]:
    """Exact minimiser of ||sum eta_i v_i|| over all 2^n assignments.

    Ties break toward the lexicographically smallest sign sequence with +1
    ordered before -1, so results are reproducible across runs.  No library
    caller passes ``policy``; ``perfbench/tracing.py`` passes it positionally.
    The double-mode answer is kept on the config: a later call, such as a check
    after parity_balance, does not enumerate again.  Other modes ignore it.
    """
    policy = policy or PrecisionPolicy.double()
    check_enumerable(config.n)  # the cap is read at call time, kept answer or not
    if policy.mode == "double" and hasattr(config, "_minimiser"):
        return config._minimiser
    *_, min_norm, argmin = _walk(config, policy, None)
    if policy.mode == "double":
        object.__setattr__(config, "_minimiser", (float(min_norm), argmin))
    return float(min_norm), argmin
