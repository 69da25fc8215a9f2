"""Generators for the concrete vector families used throughout: the planar
duplicated-pair family with geometrically decaying elevations, orthonormal
bases with multiplicities, the d=3 tight four-vector family, and seeded
random unit configurations for property tests."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import SignAssignment, VectorConfig, min_signed_norm
from .errors import DegenerateFamily, EvenN, NotOrthogonal, PrecisionInsufficient
from .precision import PrecisionPolicy

DEFAULT_DECAY = Fraction(1, 20)

_KINDS = ("exponential", "orthonormal_multiplicity", "tight_family", "random_unit")
# The most ':'-separated parts of each CLI spec, its kind included.
_PARTS = dict(exponential=3, orthomult=3, orthonormal_multiplicity=3, tight=1, tight_family=1,
              random=3, random_unit=3)


@dataclass(frozen=True)
class ConstructionSpec:
    """Declarative recipe for a generator, buildable and CLI-parseable.

    Exactly the fields the chosen kind needs are required: ``exponential``
    takes odd n (and optionally the decay c), ``orthonormal_multiplicity``
    takes d and the multiplicities, ``tight_family`` is parameter-free in
    its canonical form, ``random_unit`` takes d, n and a seed.
    """

    kind: str
    n: int | None = None
    c: Fraction | float | None = None
    d: int | None = None
    multiplicities: tuple[int, ...] | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown construction kind {self.kind!r}")
        required = {
            "exponential": ("n",),
            "orthonormal_multiplicity": ("d", "multiplicities"),
            "tight_family": (),
            "random_unit": ("d", "n", "seed"),
        }[self.kind]
        for field_name in required:
            if getattr(self, field_name) is None:
                raise ValueError(f"{self.kind} construction requires {field_name}")

    @classmethod
    def from_string(cls, text: str, seed: int = 0):
        """Parse CLI specs: ``exponential:N[:c]``, ``orthomult:D:m1,m2,...``,
        ``tight``, ``random:D:N``; a missing or an extra field is malformed."""
        parts = text.split(":")
        head = parts[0]
        try:
            if len(parts) > _PARTS.get(head, len(parts)):
                raise IndexError  # an extra field, refused as a missing one is
            if head == "exponential":
                c = Fraction(parts[2]) if len(parts) > 2 else DEFAULT_DECAY
                return cls("exponential", n=int(parts[1]), c=c)
            if head in ("orthomult", "orthonormal_multiplicity"):
                mults = tuple(int(x) for x in parts[2].split(","))
                return cls("orthonormal_multiplicity", d=int(parts[1]), multiplicities=mults)
            if head in ("tight", "tight_family"):
                return cls("tight_family")
            if head in ("random", "random_unit"):
                return cls("random_unit", d=int(parts[1]), n=int(parts[2]), seed=seed)
        except (IndexError, ZeroDivisionError):  # a missing field, or c = x/0
            raise ValueError(
                f"malformed construction spec {text!r}; expected exponential:N[:c], "
                "orthomult:D:m1,m2,..., tight or random:D:N"
            ) from None
        raise ValueError(f"unknown construction kind {head!r}")

    def build(self, policy: PrecisionPolicy | None = None) -> VectorConfig:
        if self.kind == "exponential":
            c = self.c if self.c is not None else DEFAULT_DECAY
            return construct_exponential(self.n, c, policy)
        if self.kind == "orthonormal_multiplicity":
            return construct_orthonormal_multiplicity(self.d, self.multiplicities)
        if self.kind == "tight_family":
            return construct_tight_family()
        return random_unit_config(self.d, self.n, self.seed)

# Refuse to build the duplicated-pair family when the classification margin
# sits within 2^10 of the rounding floor of the working precision: silent
# misclassification downstream is worse than refusal.  With x = c^(2k),
# k = floor(n/2), the exact margin is 4x / (1 + sqrt(1 - x)), between 2x and
# 3x for x <= 8/9; the gate compares the upper bound 3x, so it passes
# margins up to 0.585 bits lower than it assumes.
_GATE_SLACK_BITS = 10


def _margin_gate(n: int, c: float, bits: int):
    k = n // 2
    if k < 1:
        return
    # log-space comparison of the upper bound 3c^(2k); the margins
    # themselves may underflow double.
    margin_log2 = math.log2(3.0) + 2 * k * math.log2(c)
    floor_log2 = _GATE_SLACK_BITS + 1 - bits
    if margin_log2 <= floor_log2:
        raise PrecisionInsufficient(
            f"classification margin, at most 3*c^{2 * k} = 2^{margin_log2:.1f}, is not "
            f"representable above the rounding floor of {bits}-bit arithmetic; "
            f"select extended precision"
        )


def construct_exponential(
    n: int,
    c: Fraction | float = DEFAULT_DECAY,
    policy: PrecisionPolicy | None = None,
) -> VectorConfig:
    """Planar family of n unit vectors: (n-1)/2 duplicated pairs at
    elevations sin(theta_i) = c^i plus a final (1, 0).

    Exactly 2^ceil(n/2) of the 2^n signed sums lie in the closed unit ball:
    the ones whose duplicated pairs carry opposite signs.  The x-coordinate
    of each pair vector is computed as sqrt(1 - c^(2i)) rather than through
    arcsin/cos, so sin(theta_i) = c^i holds exactly in working precision.
    """
    if n < 1 or n % 2 == 0:
        raise EvenN(f"family is defined for odd n >= 1, got {n}")
    c_frac = Fraction(c)
    if not 0 < c_frac < 1:
        raise ValueError(f"decay must satisfy 0 < c < 1, got {c}")
    policy = policy or PrecisionPolicy.double()
    _margin_gate(n, float(c_frac), policy.bits)

    rows = []
    with policy.active():
        cw, one = policy.scalar(c_frac), policy.scalar(1)
        t = one
        for _ in range(n // 2):
            t = t * cw
            x = policy.sqrt(one - t * t)
            rows += [(x, t), (x, t)]
        rows.append((one, policy.scalar(0)))
    return VectorConfig(dim=2, vectors=tuple(rows))


def pair_anti_aligned(signs: SignAssignment) -> bool:
    """True iff every duplicated pair carries opposite signs:
    eta_{2i-1} = -eta_{2i} for all i <= floor(n/2)."""
    seq = tuple(signs)
    n = len(seq)
    if n % 2 == 0:
        raise EvenN(f"predicate is defined for odd n, got {n}")
    return all(seq[2 * i] == -seq[2 * i + 1] for i in range(n // 2))


def construct_orthonormal_multiplicity(d: int, multiplicities) -> VectorConfig:
    """m_i copies of each standard basis vector e_i.

    With every m_i odd, each signed sum has all-odd integer coordinates, so
    the minimum signed-sum norm is exactly sqrt(d).
    """
    mults = [int(m) for m in multiplicities]
    if len(mults) != d:
        raise ValueError(f"expected {d} multiplicities, got {len(mults)}")
    if any(m < 0 for m in mults) or sum(mults) < 1:
        raise ValueError("multiplicities must be nonnegative and sum to n >= 1")
    rows = []
    for axis, m in enumerate(mults):
        e = tuple(1.0 if j == axis else 0.0 for j in range(d))
        rows.extend([e] * m)
    return VectorConfig(dim=d, vectors=tuple(rows))


def balanced_odd_multiplicities(d: int, n: int) -> list[int] | None:
    """All-odd multiplicities summing to n, as equal as possible, or None
    when the parity makes that impossible."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if n < d or (n - d) % 2 != 0:
        return None
    pairs, extra = divmod((n - d) // 2, d)  # the first ``extra`` take one pair more
    return [1 + 2 * (pairs + (i < extra)) for i in range(d)]


def construct_tight_family(
    v1=None,
    v3=None,
    v4=None,
    extra_pairs=(),
) -> VectorConfig:
    """The d=3 extremal family: v1 = v2 a unit vector, v3 orthogonal to v4.

    Whenever v1 + v2 cannot be approximated within sqrt(2) by +/-v3 +/-v4,
    the minimum signed-sum norm is exactly sqrt(2); there is no clean
    analytic description of the admissible placements, so the generator
    verifies each instance by exhaustive enumeration and rejects degenerate
    ones.  ``extra_pairs`` appends duplicated pairs v = v_j (j in 0..3),
    which preserves the minimum.
    """
    v1 = tuple(float(x) for x in (v1 if v1 is not None else (1.0, 0.0, 0.0)))
    v3 = tuple(float(x) for x in (v3 if v3 is not None else (0.0, 1.0, 0.0)))
    v4 = tuple(float(x) for x in (v4 if v4 is not None else (0.0, 0.0, 1.0)))
    if len(v1) != 3 or len(v3) != 3 or len(v4) != 3:
        raise ValueError("the family lives in R^3")
    inner34 = float(np.dot(v3, v4))
    if abs(inner34) > 1e-10:
        raise NotOrthogonal(f"<v3, v4> = {inner34!r}, expected 0 within 1e-10")
    rows = [v1, v1, v3, v4]
    base = (v1, v1, v3, v4)
    for j in extra_pairs:
        rows.extend([base[j], base[j]])
    config = VectorConfig(dim=3, vectors=tuple(rows))
    achieved, _ = min_signed_norm(config)
    if abs(achieved - math.sqrt(2)) > 1e-9:
        raise DegenerateFamily(achieved, math.sqrt(2))
    return config


def random_unit_config(d: int, n: int, seed: int) -> VectorConfig:
    """n independent uniform unit vectors in R^d (Gaussian normalisation),
    deterministic per seed."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d))
    norms = np.linalg.norm(rows, axis=1)
    while np.any(norms < 1e-12):  # astronomically unlikely; resample defensively
        bad = norms < 1e-12
        rows[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(rows, axis=1)
    rows /= norms[:, None]
    return VectorConfig(dim=d, vectors=tuple(tuple(map(float, r)) for r in rows))
