"""Numeric precision policies and the scalar backends they select.

Three modes:

* ``double``   -- plain Python floats (IEEE binary64).
* ``extended`` -- mpmath arbitrary-precision floats at a configurable
  bit count (>= 64).
* ``interval`` -- mpmath interval arithmetic; classification refuses to
  answer when an interval straddles the decision threshold.

A policy also carries the classification tolerance: a signed sum counts as a
hit at radius r when ``norm**2 <= r**2 + tolerance``.  The double-mode
default is 1e-12; extended/interval defaults scale with the working
precision so that the tolerance band never swallows structure the extra
bits were requested to resolve.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import mpmath
import numpy as np
from mpmath import iv, mp

from .errors import AmbiguousClassification

DOUBLE_TOLERANCE = 1e-12

# Extended/interval tolerance: ~24 bits of slack above the rounding floor.
_TOLERANCE_SLACK_BITS = 24


def default_tolerance(mode: str, bits: int) -> float:
    if mode == "double":
        return DOUBLE_TOLERANCE
    return 2.0 ** (_TOLERANCE_SLACK_BITS - bits)


@dataclass(frozen=True)
class PrecisionPolicy:
    """How enumeration arithmetic is performed and hits are classified."""

    mode: str = "double"
    bits: int = 53
    classification_tolerance: float = DOUBLE_TOLERANCE

    def __post_init__(self):
        if self.mode not in ("double", "extended", "interval"):
            raise ValueError(f"unknown precision mode {self.mode!r}")
        if self.mode == "double" and self.bits != 53:
            raise ValueError("double mode is fixed at 53 bits")
        if self.mode == "extended" and self.bits < 64:
            raise ValueError("extended mode requires at least 64 bits")
        if self.mode == "interval" and self.bits < 53:
            raise ValueError("interval mode requires at least 53 bits")
        if self.classification_tolerance < 0:
            raise ValueError("classification tolerance must be nonnegative")

    @classmethod
    def double(cls, tolerance: float = DOUBLE_TOLERANCE) -> "PrecisionPolicy":
        return cls("double", 53, tolerance)

    @classmethod
    def extended(cls, bits: int = 256, tolerance: float | None = None) -> "PrecisionPolicy":
        if tolerance is None:
            tolerance = default_tolerance("extended", bits)
        return cls("extended", bits, tolerance)

    @classmethod
    def interval(cls, bits: int = 256, tolerance: float | None = None) -> "PrecisionPolicy":
        if tolerance is None:
            tolerance = default_tolerance("interval", bits)
        return cls("interval", bits, tolerance)

    @classmethod
    def parse(cls, text: str) -> "PrecisionPolicy":
        """Parse CLI-style specs: ``double``, ``ext:<bits>``, ``interval[:<bits>]``."""
        parts = text.split(":")
        if parts[0] == "double" and len(parts) == 1:
            return cls.double()
        if parts[0] in ("ext", "extended"):
            bits = int(parts[1]) if len(parts) > 1 else 256
            return cls.extended(bits)
        if parts[0] == "interval":
            bits = int(parts[1]) if len(parts) > 1 else 256
            return cls.interval(bits)
        raise ValueError(f"cannot parse precision spec {text!r}")

    def spec_string(self) -> str:
        if self.mode == "double":
            return "double"
        if self.mode == "extended":
            return f"ext:{self.bits}"
        return f"interval:{self.bits}"

    def context(self) -> "ScalarContext":
        if self.mode == "double":
            return _DoubleContext(self)
        if self.mode == "extended":
            return _ExtendedContext(self)
        return _IntervalContext(self)


class ScalarContext:
    """Arithmetic backend chosen by a policy.

    All enumeration arithmetic must happen inside ``with ctx.active():`` so
    that mpmath's working precision is pinned for the duration.  Scalars
    support the ordinary operators, and ``array`` packs them into numpy
    arrays (float64, or object arrays of mpmath scalars) that the
    enumeration kernel adds and multiplies chunk by chunk.  The chunk-level
    methods below default to the real-valued backends; interval mode
    overrides them.
    """

    dtype = object

    def __init__(self, policy: PrecisionPolicy):
        self.policy = policy

    def active(self):
        return contextlib.nullcontext()

    def scalar(self, x):
        raise NotImplementedError

    def array(self, rows) -> np.ndarray:
        """Rows of scalars as a 2-D array of this context's scalars."""
        return np.array([[self.scalar(x) for x in row] for row in rows], dtype=self.dtype)

    def sqrt(self, x):
        raise NotImplementedError

    def to_float(self, x) -> float:
        raise NotImplementedError

    def decimal(self, x) -> str:
        """Decimal string that round-trips at this context's precision."""
        raise NotImplementedError

    def classify_hits(self, norm_sq, radius_sq, tolerance) -> np.ndarray:
        """Boolean array: which entries of a norm^2 chunk are hits,
        norm^2 <= r^2 + tol."""
        return norm_sq <= radius_sq + tolerance

    def gaps(self, norm_sq, radius_sq) -> np.ndarray:
        """|norm^2 - r^2| for a norm^2 chunk as floats, for margin bookkeeping."""
        return np.abs(norm_sq - radius_sq).astype(float)

    def order_keys(self, norm_sq) -> np.ndarray:
        """Values whose order ranks a norm^2 chunk for minimum tracking."""
        return norm_sq


class _DoubleContext(ScalarContext):
    dtype = float

    def scalar(self, x):
        return float(x)

    def sqrt(self, x):
        return float(x) ** 0.5

    def to_float(self, x):
        return float(x)

    def decimal(self, x):
        return repr(float(x))


class _ExtendedContext(ScalarContext):
    def active(self):
        return mp.workprec(self.policy.bits)

    def scalar(self, x):
        return mp.mpf(x)

    def sqrt(self, x):
        return mp.sqrt(x)

    def to_float(self, x):
        return float(x)

    def decimal(self, x):
        digits = int(self.policy.bits * 0.30103) + 3
        return mpmath.nstr(mp.mpf(x), digits)


class _IntervalContext(ScalarContext):
    """Interval backend.

    Classification is three-valued: certain hit, certain miss, or refusal
    (AmbiguousClassification).  Ordering used for minima falls back to
    interval midpoints, which is the honest best-effort answer; the mode's
    contract is about classification, where no guessing happens.
    """

    def active(self):
        return _iv_workprec(self.policy.bits)

    def scalar(self, x):
        return iv.mpf(x)

    def sqrt(self, x):
        return iv.sqrt(x)

    def to_float(self, x):
        return float(mpmath.mpf(x.mid)) if hasattr(x, "mid") else float(x)

    def decimal(self, x):
        digits = int(self.policy.bits * 0.30103) + 3
        mid = x.mid if hasattr(x, "mid") else x
        return mpmath.nstr(mpmath.mpf(mid), digits)

    def classify_hits(self, norm_sq, radius_sq, tolerance):
        threshold = radius_sq + tolerance
        return np.array([_certain_hit(x, threshold) for x in norm_sq], dtype=bool)

    def gaps(self, norm_sq, radius_sq):
        return np.abs(self.order_keys(norm_sq) - self.to_float(radius_sq))

    def order_keys(self, norm_sq):
        return np.array([self.to_float(x) for x in norm_sq])


def _certain_hit(norm_sq, threshold) -> bool:
    if norm_sq.b <= threshold.a:
        return True
    if norm_sq.a > threshold.b:
        return False
    raise AmbiguousClassification(
        f"norm-squared interval [{norm_sq.a}, {norm_sq.b}] straddles the "
        f"radius threshold [{threshold.a}, {threshold.b}]"
    )


@contextlib.contextmanager
def _iv_workprec(bits: int):
    # mpmath's iv context has no workprec() helper; save/restore by hand.
    old = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = old
