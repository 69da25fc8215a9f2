"""Independent references the benchmark checks signsum's outputs against.

None of these call signsum.  They run after the timed passes, and each keeps
its working set to a few thousand rows so that the reported peak memory is
the program's, not the checker's.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Sums whose float norm^2 lies this close to the threshold are ambiguous for a
# float64 reference; the chunked brute force does not count them either way.
AMBIGUOUS_BAND = 1e-9

_CHUNK_BITS = 12


def exact_census(rows, radius, tolerance) -> tuple[int, Fraction]:
    """Hits (norm^2 <= r^2 + tol) and the minimum norm^2 over all 2^n signed
    sums, in exact rational arithmetic.

    Float entries are dyadic rationals, so scaling by the largest denominator
    (a power of two) turns every vector into integers and the Gray walk
    below is exact.
    """
    fractions = [[Fraction(float(x)) for x in row] for row in rows]
    scale = max(f.denominator for row in fractions for f in row)
    ints = [[int(f * scale) for f in row] for row in fractions]
    threshold = (Fraction(radius) ** 2 + Fraction(tolerance)) * scale * scale
    limit = threshold.numerator // threshold.denominator

    n, d = len(ints), len(ints[0])
    signs = [1] * n
    s = [sum(row[k] for row in ints) for k in range(d)]
    hits = 0
    best = None
    for t in range(1 << n):
        if t:
            j = (t & -t).bit_length() - 1
            row = ints[j]
            if signs[j] > 0:
                for k in range(d):
                    s[k] -= 2 * row[k]
            else:
                for k in range(d):
                    s[k] += 2 * row[k]
            signs[j] = -signs[j]
        ns = sum(x * x for x in s)
        if ns <= limit:
            hits += 1
        if best is None or ns < best:
            best = ns
    return hits, Fraction(best, scale * scale)


def exact_norm_sq(rows, signs) -> Fraction:
    acc = [Fraction(0)] * len(rows[0])
    for eta, row in zip(signs, rows):
        for k, x in enumerate(row):
            acc[k] += eta * Fraction(float(x))
    return sum(x * x for x in acc)


def _sign_table(bits: int) -> np.ndarray:
    return (1 - 2 * ((np.arange(1 << bits)[:, None] >> np.arange(bits)) & 1)).astype(float)


def chunked_census(rows: np.ndarray, threshold: float, offset=None):
    """Float64 brute force over all 2^n sums of offset + sum eta_i v_i, in
    chunks of 2^12 rows.

    Returns (certain hits, ambiguous count, minimum norm^2): a sum is a
    certain hit when its norm^2 is below threshold - AMBIGUOUS_BAND and
    ambiguous within the band.
    """
    n, d = rows.shape
    lo = min(n, _CHUNK_BITS)
    base = _sign_table(lo) @ rows[:lo]
    if offset is not None:
        base = base + offset
    high_rows = rows[lo:]
    high_bits = np.arange(n - lo)
    certain = ambiguous = 0
    best = np.inf
    for h in range(1 << (n - lo)):
        sums = base + (1 - 2 * ((h >> high_bits) & 1)) @ high_rows
        ns = np.einsum("ij,ij->i", sums, sums)
        certain += int(np.count_nonzero(ns < threshold - AMBIGUOUS_BAND))
        ambiguous += int(np.count_nonzero(np.abs(ns - threshold) <= AMBIGUOUS_BAND))
        best = min(best, float(ns.min()))
    return certain, ambiguous, best
