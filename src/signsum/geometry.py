"""Small geometric primitives: the inner-product/distance correspondence for
unit vectors, chord lengths of off-centre secants, plane projections, and the
nearest orthonormal basis to an almost-orthonormal family."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneratePlane,
    NotAlmostOrthogonal,
    NormViolation,
    OutOfRange,
    SingularInput,
)


def inner_to_distance(delta: float) -> float:
    """Distance between unit vectors whose inner product is 1 - delta.

    For unit x, y: <x, y> = 1 - delta  iff  ||x - y|| = sqrt(2*delta).
    """
    if not 0.0 <= delta <= 2.0:
        raise OutOfRange(f"delta = {delta!r} outside [0, 2]")
    return math.sqrt(2.0 * delta)


def distance_to_inner(dist: float) -> float:
    """Inverse of inner_to_distance: returns delta = dist^2 / 2."""
    if not 0.0 <= dist <= 2.0:
        raise OutOfRange(f"distance = {dist!r} outside [0, 2]")
    return dist * dist / 2.0


@dataclass(frozen=True)
class ChordQuery:
    """A circle of radius r, a secant line through the point at distance
    sqrt(r^2 - a^2) from the centre, tilted by theta from the tangential
    direction at that point."""

    r: float
    a: float
    theta: float

    def __post_init__(self):
        if not 0.0 < self.a < self.r:
            raise OutOfRange(f"need 0 < a < r, got a={self.a!r}, r={self.r!r}")
        if not -math.pi / 2 <= self.theta <= math.pi / 2:
            raise OutOfRange(f"theta = {self.theta!r} outside [-pi/2, pi/2]")


def chord_length(q: ChordQuery) -> float:
    """Length of the chord cut by the query's secant line.

    Equals 2*sqrt(r^2 sin^2(theta) + a^2 cos^2(theta)); always >= 2a, with
    equality exactly at theta = 0.
    """
    return 2.0 * math.hypot(q.r * math.sin(q.theta), q.a * math.cos(q.theta))


def is_unit(v) -> bool:
    """Whether ||v|| lies within 1e-9 of 1, the premise of PlaneBasis."""
    return abs(math.sqrt(sum(float(x) * float(x) for x in v)) - 1.0) <= 1e-9


@dataclass(frozen=True)
class PlaneBasis:
    """Two linearly independent unit vectors spanning a plane through 0."""

    u: tuple[float, ...]
    w: tuple[float, ...]
    gram: float

    def __post_init__(self):
        for index, (name, v) in enumerate((("u", self.u), ("w", self.w))):
            if not is_unit(v):
                norm = math.sqrt(sum(x * x for x in v))
                raise NormViolation(index, norm, f"basis vector {name} has norm {norm!r}")
        if abs(self.gram) >= 1.0:
            raise DegeneratePlane(f"|<u, w>| = {abs(self.gram)!r} >= 1")

    @classmethod
    def from_vectors(cls, u, w) -> "PlaneBasis":
        u = tuple(float(x) for x in u)
        w = tuple(float(x) for x in w)
        gram = float(np.dot(u, w))
        return cls(u, w, gram)


def project_onto_plane(y, basis: PlaneBasis) -> tuple[np.ndarray, np.ndarray]:
    """Split y = z_in + z_perp, z_in in span{u, w} and z_perp orthogonal to
    both, by the 2x2 normal equations; a stack splits each row as on its own."""
    g = basis.gram
    det = 1.0 - g * g
    if abs(g) >= 1.0 - 1e-12:
        raise DegeneratePlane(f"plane basis nearly parallel: |gram| = {abs(g)!r}")
    y = np.asarray(y, dtype=float)
    u = np.asarray(basis.u)
    w = np.asarray(basis.w)
    yu = np.vecdot(y, u)[..., None]
    yw = np.vecdot(y, w)[..., None]
    alpha = (yu - g * yw) / det
    beta = (yw - g * yu) / det
    z_in = alpha * u + beta * w
    return z_in, y - z_in


def nearest_orthonormal(columns, delta: float) -> np.ndarray:
    """Orthonormal basis nearest (in Frobenius norm) to d given unit columns.

    Requires all pairwise |<x_i, x_j>| <= delta; the result via the polar
    factor of the column matrix then satisfies ||x_i - e_i|| <= 3*sqrt(delta)*d
    column by column.  Columns are not reordered or sign-flipped.
    """
    X = np.asarray(columns, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError("expected a square matrix of d column vectors in R^d")
    d = X.shape[0]
    norms = np.linalg.norm(X, axis=0)
    for i, nrm in enumerate(norms):
        if abs(nrm - 1.0) > 1e-9:
            raise NormViolation(i, float(nrm), f"column {i} has norm {nrm!r}")
    gram = X.T @ X
    for i in range(d):
        for j in range(i + 1, d):
            if abs(gram[i, j]) > delta + 1e-12:
                raise NotAlmostOrthogonal(i, j, float(gram[i, j]))
    # Polar factor via SVD: X = U S Vt  =>  nearest orthogonal is U Vt.
    U, S, Vt = np.linalg.svd(X)
    if S[-1] <= 1e-12:
        raise SingularInput(f"column matrix numerically singular: sigma_min = {S[-1]!r}")
    Q = U @ Vt
    Q.flags.writeable = False
    return Q
