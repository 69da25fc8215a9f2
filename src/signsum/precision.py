"""Numeric precision policies: how signsum computes and classifies.

Three modes:

* ``double``   -- plain Python floats (IEEE binary64); enumeration decides
  on float64 norms^2.
* ``extended`` -- mpmath arbitrary-precision floats (mpf) at 64 to 1098 bits.
  Inputs are built and read at B bits, and enumeration is exact for those
  B-bit inputs: the float64 kernel filters, and every sum it cannot place is
  recomputed in integers.
* ``interval`` -- the same at 53 to 1098 bits, plus a refusal: enumeration
  raises AmbiguousClassification when some sum's exact norm^2 lies within
  the rounding bound ``core.rounding_bound`` of the threshold.  Every result
  it does return equals extended mode's at the same bits.

The enumeration kernel is float64 in every mode; mpf survives in
construction, JSON and the exact recheck's inputs.  The policy's methods
are the only code in signsum that picks float or mpf, and only their
extended and interval branches import mpmath, so double-mode work never
loads it.

A policy also carries the classification tolerance: a signed sum counts as a
hit at radius r when ``norm**2 <= r**2 + tolerance``.  The double-mode
default is 1e-12; extended/interval defaults scale with the working
precision so that the tolerance band never swallows structure the extra
bits were requested to resolve.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from fractions import Fraction

DOUBLE_TOLERANCE = 1e-12

# Extended/interval tolerance: ~24 bits of slack above the rounding floor.
_TOLERANCE_SLACK_BITS = 24


def default_tolerance(mode: str, bits: int) -> float:
    if mode == "double":
        return DOUBLE_TOLERANCE
    return 2.0 ** (_TOLERANCE_SLACK_BITS - bits)


@dataclass(frozen=True)
class PrecisionPolicy:
    """How arithmetic is performed and hits are classified."""

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
        # Past 1098 bits the default tolerance 2^(24 - bits) underflows to 0.
        if self.mode != "double" and self.bits > 1098:
            raise ValueError(f"{self.mode} mode takes at most 1098 bits")
        if not (0 <= self.classification_tolerance < math.inf):
            raise ValueError("classification tolerance must be finite and nonnegative")

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
        mode, *rest = text.split(":")
        if mode == "double" and not rest:
            return cls.double()
        if mode in ("ext", "extended", "interval") and len(rest) <= 1:
            bits = int(rest[0]) if rest else 256
            return cls.interval(bits) if mode == "interval" else cls.extended(bits)
        raise ValueError(f"cannot parse precision spec {text!r}")

    def spec_string(self) -> str:
        if self.mode == "double":
            return "double"
        if self.mode == "extended":
            return f"ext:{self.bits}"
        return f"interval:{self.bits}"

    def active(self):
        """Arithmetic on the policy's scalars runs inside ``with policy.active():``."""
        if self.mode == "double":
            return contextlib.nullcontext()
        from mpmath import mp

        return mp.workprec(self.bits)

    def scalar(self, x):
        """x (a number, string, Fraction or mpf) as a float, or an mpf at the active bits."""
        if self.mode == "double":
            return float(x)
        from mpmath import mp

        if isinstance(x, Fraction):
            return mp.mpf(x.numerator) / mp.mpf(x.denominator)
        return mp.mpf(x)

    def sqrt(self, x):
        """Correctly rounded square root in the policy's arithmetic; in
        extended and interval modes x may be a dyadic Fraction, taken exactly."""
        if self.mode == "double":
            return math.sqrt(x)
        from mpmath import mp
        from mpmath.libmp import from_man_exp

        if isinstance(x, Fraction):
            x = mp.make_mpf(from_man_exp(x.numerator, 1 - x.denominator.bit_length()))
        return mp.sqrt(x)

    def decimal(self, x) -> str:
        """A decimal string that round-trips at the policy's precision."""
        if self.mode == "double":
            return repr(float(x))
        from mpmath import mp, nstr

        return nstr(mp.mpf(x), int(self.bits * 0.30103) + 3)
