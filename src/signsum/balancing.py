"""Constructive sign-selection algorithms.

The toolbox, roughly in order of sophistication:

* ``greedy_signs``       -- process vectors in order, always taking the sign
  that keeps the running sum shortest; by the prefix law the running
  squared norm never exceeds the sum of the squared norms processed.  One
  numpy kernel runs a batch of orders step by step, a single order being a
  batch of one.
* ``eliminate``          -- round relaxed coefficients to +/-1 along
  nullspace directions, preserving the weighted sum, until at most k
  fractional coefficients remain; each round pivots on a basis inverse
  carried in Python floats, as in the revised simplex method.
* ``approximate_point``  -- eliminate to <= d fractional coordinates, then
  greedy on the survivors: squared error <= d for any number of vectors of
  norm <= 1.
* ``cluster_vectors`` / ``cluster_and_pair`` -- when every pair is nearly
  parallel or nearly orthogonal, pair near-parallel vectors with opposite
  signs and balance the leftovers.
* ``projection_split``   -- when an oblique pair u, w exists and the other
  vectors barely touch the plane spanned by u and w, balance the plane and
  its orthogonal complement separately.
* ``parity_balance``     -- the combined dispatcher: one table of named
  certificates, the least of their bounds sets the guarantee and the report
  names it; the answer is the exact minimiser up to n =
  EXHAUSTIVE_FALLBACK_CAP in every branch and the best of the branch's
  heuristic portfolio above it.
* ``approximation_falsifier`` -- adversarial coordinate ascent looking for a
  zonotope point whose best sign approximation is worse than a target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from operator import itemgetter, mul

import numpy as np

from .core import (
    CoefficientVector,
    SignAssignment,
    VectorConfig,
    check_enumerable,
    min_signed_norm,
    sign_columns,
)
from .errors import (
    DegeneratePlane,
    DimensionMismatch,
    NotOblique,
    NumericalNullspaceFailure,
    ObliquePairPresent,
    OutOfRange,
    ParityMismatch,
    ProjectionTooLong,
    TooLarge,
    TooManyClusters,
    TransitivityViolation,
)
from .geometry import PlaneBasis, is_unit, project_onto_plane

REPORT_SLACK = 1e-9

# Largest n at which parity_balance enumerates all 2^n assignments and answers
# with the exact minimiser; above it the branch's portfolio answers.
EXHAUSTIVE_FALLBACK_CAP = 12

# Greedy passes in the oblique portfolio: the pair-first order, then random ones.
GREEDY_ORDERS = 32


@dataclass(frozen=True)
class BalanceReport:
    """Outcome of one balancing algorithm, with the bound it must meet.
    ``certificate`` names the certificate that set the guarantee; only
    parity_balance sets it."""

    algorithm: str
    signs: SignAssignment
    achieved_norm: float
    guarantee: float
    case_taken: str | None = None
    certificate: str | None = None

    def __post_init__(self):
        if not self.achieved_norm <= self.guarantee + REPORT_SLACK:
            raise ValueError(
                f"{self.algorithm}: achieved {self.achieved_norm!r} exceeds "
                f"guarantee {self.guarantee!r}"
            )


@dataclass(frozen=True)
class EliminationResult:
    """Rounded coefficients with at most k fractional entries left."""

    coefficients: CoefficientVector
    fixed_mask: tuple[bool, ...]
    residual_indices: tuple[int, ...]


@dataclass(frozen=True)
class Clustering:
    """Partition of indices into near-parallel clusters.

    ``orientation`` holds per-index sign flips such that flipped vectors
    within one cluster have pairwise inner products >= 1 - zeta^(1/4).
    """

    clusters: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    orientation: tuple[int, ...]


@dataclass(frozen=True)
class FalsifierResult:
    """Best adversarial coefficients found, and a witness if one was found."""

    best_value: float
    best_coefficients: CoefficientVector
    witness: CoefficientVector | None
    best_start: int


def default_zeta(d: int) -> float:
    """Dispatch threshold for near-orthogonal/near-parallel structure.

    Small enough that the near-parallel relation is transitive (zeta <=
    0.0016) and that the clustered bound sqrt(d - 1 + 2*d*zeta^(1/4)) beats
    sqrt(d); scales like 1/d^4 so both properties hold in every dimension.
    """
    return min(0.0016, 1.0 / (32.0 * d**4))


def _zeta(d: int, zeta: float | None) -> float:
    """The caller's zeta, checked before any zeta**0.25, else default_zeta(d)."""
    if zeta is None:
        return default_zeta(d)
    if not 0.0 < zeta < math.inf:
        raise ValueError(f"zeta must lie in (0, inf), got {zeta!r}")
    return zeta


def _as_lambda(config: VectorConfig, lam) -> np.ndarray:
    if lam is None:
        return np.zeros(config.n)
    if isinstance(lam, CoefficientVector):
        values = lam.as_array()
    else:
        values = np.asarray(lam, dtype=float)
    if values.shape != (config.n,):
        raise DimensionMismatch(
            f"{values.size} coefficients for {config.n} vectors"
        )
    if not np.all(np.abs(values) <= 1.0):
        CoefficientVector(tuple(values.tolist()))  # raises OutOfRange with the index
    return values


def _prefix_bound(rows: np.ndarray) -> float:
    """The prefix law's bound on every greedy pass over ``rows``: each step
    adds at most (1 - lam_i^2) ||v_i||^2 to the running squared norm, so
    ||s_m||^2 <= sum_{i<=m} ||v_i||^2, which is m for unit vectors."""
    return math.sqrt(float(np.vecdot(rows, rows).sum()))


def _report(algorithm: str, rows: np.ndarray, lam, signs: np.ndarray, guarantee: float,
            case_taken: str | None = None) -> BalanceReport:
    """The report of integer ``signs``, measuring ||sum (lam_i + eta_i) v_i||."""
    return BalanceReport(algorithm, SignAssignment(tuple(signs.tolist())),
                         float(np.linalg.norm((lam + signs) @ rows)), guarantee, case_taken)


_PLUS_MINUS = np.array([1.0, -1.0])[:, None, None]


def _greedy_rows(rows: np.ndarray, lam: np.ndarray, orders) -> tuple[np.ndarray, np.ndarray]:
    """Greedy (ties to +1) over a (k, m) array of orders, one step per column.

    Returns (k, n) signs by original index (0 where an order skips an index)
    and the (k, d) final sums.  ``np.vecdot`` is the BLAS dot of ``v @ v``,
    so each pass is bitwise the one-vector-at-a-time greedy over its order.
    """
    orders = np.asarray(orders, dtype=np.intp)
    # moves[j] is (2, k, d): every pass's (lam + 1) v and (lam - 1) v at step j.
    moves = (lam[orders.T][:, None, :, None] + _PLUS_MINUS) * rows[orders.T][:, None]
    s = np.zeros((len(orders), rows.shape[1]))
    take = np.empty(orders.T.shape, dtype=bool)
    for j, move in enumerate(moves):
        cand = s + move
        sq = np.vecdot(cand, cand)
        take[j] = sq[0] <= sq[1]
        s = np.where(take[j][:, None], cand[0], cand[1])
    signs = np.zeros((len(orders), len(rows)), dtype=int)
    signs[np.arange(len(orders))[:, None], orders] = np.where(take.T, 1, -1)
    return signs, s


def greedy_signs(config: VectorConfig, lam=None) -> BalanceReport:
    """One pass over the vectors, each sign chosen to keep the running sum
    shortest (ties to +1).

    The running sum obeys the prefix law ||s_m||^2 <= sum_{i<=m} ||v_i||^2
    at every step, so the result is guaranteed no worse than
    sqrt(sum ||v_i||^2): sqrt(n) for unit vectors, more for beck-mode
    vectors longer than 1.
    """
    rows = config.as_array()
    lam_arr = _as_lambda(config, lam)
    (signs,), _ = _greedy_rows(rows, lam_arr, [range(config.n)])
    return _report("greedy", rows, lam_arr, signs, _prefix_bound(rows))


_FRACTIONAL_SNAP = 5e-13


def _gauss_jordan(columns: list) -> tuple[list[float], list | None]:
    """A round's null vector from scratch: Gauss-Jordan with partial pivoting
    on [B | a | I], where ``columns[t]`` holds component t of the subset's d+1
    vectors and B is the first d.  Returns beta, +1 at the first column that
    takes no pivot (a pivot at most 1e-12 times the column's largest entry
    counts as none), and -B^-1 when that column is a, else None."""
    # Row t of m holds, past the columns already pivoted, component t of the
    # remaining vectors and then of the identity.
    d = len(columns)
    m = [list(comp) + [float(t == j) for j in range(d)] for t, comp in enumerate(columns)]
    for c in range(d):
        p = max(range(c, d), key=lambda t: abs(m[t][0]))
        if not abs(m[p][0]) > 1e-12 * max(abs(comp[c]) for comp in columns):  # NaN too
            return [-m[t][0] for t in range(c)] + [1.0] + [0.0] * (d - c), None
        m[c], m[p] = m[p], m[c]
        pivot = m[c][0]
        m[c] = row = [x / pivot for x in m[c][1:]]
        for t in range(d):
            if t != c:
                f = m[t][0]
                m[t] = [x - f * y for x, y in zip(m[t][1:], row)]
    return [-r[0] for r in m] + [1.0], [[-x for x in r[1:]] for r in m]


def _orthogonal_null_vector(vecs: list) -> list[float]:
    """The null vector of the subset's vectors by Gram-Schmidt, twice per
    vector, in index order: +1 on the first vector whose distance from the
    span of the ones before it is at most 1e-13 of its norm, minus its
    coefficients on those (by back substitution), 0 past it.  Backward
    stable when the vectors are nearly dependent, where the inverse that
    Gauss-Jordan makes is not."""
    basis, heads, pivots = [], [], []  # orthonormal q_j; R's columns; their vectors
    for c, vec in enumerate(vecs):
        v, coeffs = list(vec), [0.0] * len(basis)
        for _ in range(2):
            h = [fsum(map(mul, q, v)) for q in basis]
            v = [x - fsum(map(mul, h, qt)) for x, qt in zip(v, zip(*basis))] if basis else v
            coeffs = [x + y for x, y in zip(coeffs, h)]
        norm = math.sqrt(fsum(map(mul, v, v)))
        if not norm > 1e-13 * math.sqrt(fsum(map(mul, vec, vec))):  # NaN too
            x = [0.0] * len(pivots)
            for i in reversed(range(len(x))):  # R x = coeffs
                later = fsum(heads[j][i] * x[j] for j in range(i + 1, len(x)))
                x[i] = (coeffs[i] - later) / heads[i][i]
            beta = [0.0] * len(vecs)
            beta[c] = 1.0
            for p, xi in zip(pivots, x):
                beta[p] = -xi
            return beta
        basis.append([x / norm for x in v])
        heads.append(coeffs + [norm])
        pivots.append(c)
    raise AssertionError("d+1 vectors in dimension d are dependent")


def _residual(beta: list, columns: list) -> tuple[list[float], float, float]:
    """A beta for the subset's matrix A, its L1 norm (NaN when it is) and ||beta||_inf."""
    residual = [fsum(map(mul, beta, comp)) for comp in columns]
    return residual, fsum(map(abs, residual)), max(map(abs, beta))


def _null_vector(vectors: list, components: list, subset: list, inverse: list | None):
    """beta with A beta = 0 for the matrix A of the subset's d+1 vectors, the
    -B^-1 of its first d to carry on (None when it is not known), and
    ||beta||_inf.  beta from the carried -B^-1, else from a fresh
    Gauss-Jordan, is taken when its residual A beta is within 1e-14
    ||beta||_inf, after one step of iterative refinement through -B^-1 if
    needed; otherwise Gram-Schmidt gives beta, within 1e-8 ||beta||_inf, or
    NumericalNullspaceFailure is raised."""
    column = itemgetter(*subset)
    columns = [column(comp) for comp in components]  # component t of the subset's vectors
    for fresh in ((False, True) if inverse is not None else (True,)):
        if fresh:
            beta, inverse = _gauss_jordan(columns)
        else:
            a = vectors[subset[-1]]
            beta = [fsum(map(mul, row, a)) for row in inverse]
            beta.append(1.0)
        residual, error, scale = _residual(beta, columns)
        if not error <= 1e-14 * scale and inverse is not None:
            refined = [b + fsum(map(mul, row, residual)) for b, row in zip(beta, inverse)]
            refined.append(1.0)
            _, refined_error, refined_scale = _residual(refined, columns)
            if refined_error < error:
                beta, error, scale = refined, refined_error, refined_scale
        if error <= 1e-14 * scale:
            return beta, inverse, scale
    beta = _orthogonal_null_vector([vectors[i] for i in subset])
    _, error, scale = _residual(beta, columns)
    if error <= 1e-8 * scale:
        return beta, None, scale
    raise NumericalNullspaceFailure(f"null combination residual {error!r} over indices {subset}")


def _eliminate_rows(rows: np.ndarray, values, k: int) -> tuple[np.ndarray, list[int]]:
    """Elimination on raw (n, d) rows; returns the rounded coefficients (a
    new array) and the indices still fractional, at most k of them.  The
    coefficients are Python floats, and a round clips only the d+1 it moves.

    The round's subset is the d+1 lowest-index fractional coordinates, its
    first d vectors the basis B and its last the entering vector a.  -B^-1
    is carried from round to round as Python lists: when one basis
    coordinate binds, a rank-one (eta) update swaps a in for it; when a
    binds, B stays; anything else (two coordinates land on +/-1, a pivot
    below 1e-12 ||beta||_inf, a singular B) refactors it next round.
    _null_vector says how each beta is found and checked."""
    d = rows.shape[1]
    vectors, components = rows.tolist(), rows.T.tolist()
    values = np.asarray(values, dtype=float).tolist()
    fractional = [i for i, x in enumerate(values) if abs(x) < 1.0]
    subset, inverse = fractional[: d + 1], None
    cursor = len(subset)  # fractional[cursor:] has not entered a subset yet

    while len(subset) + len(fractional) - cursor > k:
        beta, inverse, scale = _null_vector(vectors, components, subset, inverse)

        # Feasible scaling range [lo, hi] keeps every |lam + gamma*beta| <= 1;
        # at each end some coordinate binds at +/-1.
        tiny = 1e-14 * scale
        hi, hi_local, lo, lo_local = math.inf, -1, -math.inf, -1
        for loc, b in enumerate(beta):
            if abs(b) >= tiny:
                x = values[subset[loc]]
                up, down = (1.0 - x) / b, (-1.0 - x) / b
                if b < 0.0:
                    up, down = down, up
                if up < hi:
                    hi, hi_local = up, loc
                if down > lo:
                    lo, lo_local = down, loc
        # Ties to the side where beta's free coordinate grows.
        gamma, binding_local = (hi, hi_local) if hi <= -lo else (lo, lo_local)

        # Clip to [-1, 1] and snap within _FRACTIONAL_SNAP of +/-1 (for |x| <= 1,
        # 1 - |x| is |(|x| - 1)| exactly, and past +/-1 it is negative); the
        # binding coordinate lands within rounding of its bound.
        bound, kept = [], []
        for loc, (i, b) in enumerate(zip(subset, beta)):
            x = values[i] + gamma * b
            if loc == binding_local or 1.0 - abs(x) < _FRACTIONAL_SNAP:
                values[i] = math.copysign(1.0, x)
                bound.append(loc)
            else:
                values[i] = x
                kept.append(i)

        if bound != [d]:  # when a binds alone, B stays
            p = bound[0]
            if len(bound) == 1 and inverse is not None and abs(beta[p]) > 1e-12 * scale:
                q = -beta[p]
                row = [x / q for x in inverse[p]]
                del inverse[p], beta[p]
                inverse = [[x + b * y for x, y in zip(r, row)] for r, b in zip(inverse, beta)]
                inverse.append(row)
            else:
                inverse = None
        subset = kept + fractional[cursor: cursor + d + 1 - len(kept)]
        cursor += len(subset) - len(kept)
    return np.array(values), subset + fractional[cursor:]


def eliminate(config: VectorConfig, lam, k: int) -> EliminationResult:
    """Drive coefficients to +/-1 along nullspace directions until at most k
    fractional coordinates remain, preserving the weighted sum throughout.

    Each round takes the d+1 lowest-index fractional coordinates and moves
    them along the null combination beta of their vectors that has +1 on
    the last of them: beta = (-B^-1 a, 1) for the first d vectors B and the
    last a, or, when B is singular, +1 on the first vector that depends on
    the ones before it and 0 past it.  The move goes just far enough that
    some coefficient lands exactly on +/-1; the smallest |scale| wins, and a
    tie goes to the positive scale, on which beta's +1 coefficient grows.
    B^-1 is carried between rounds by rank-one updates in Python floats and
    checked by the residual of every beta; nearly dependent vectors fall
    back to Gram-Schmidt.  No LAPACK call is made, and the result does not
    depend on the BLAS kernel.
    """
    if k < config.dim:
        raise ValueError(f"k = {k} must be at least the dimension {config.dim}")
    values, fractional = _eliminate_rows(config.as_array(), _as_lambda(config, lam), k)
    return EliminationResult(
        coefficients=CoefficientVector(tuple(values.tolist())),
        fixed_mask=tuple((np.abs(values) == 1.0).tolist()),
        residual_indices=tuple(fractional),
    )


def _approximate_rows(rows: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Eliminate-then-greedy on raw rows; returns the integer signs."""
    values, residual = _eliminate_rows(rows, lam, rows.shape[1])
    # Largest fractional coordinate first: if some |lam| > delta survives,
    # the first step already banks a (1-delta)^2 <= 1-delta start.
    residual.sort(key=lambda i: (-abs(values[i]), i))
    (greedy,), _ = _greedy_rows(rows, values, [residual])
    # Fixed coordinates (exactly +/-1) take the opposite sign: exact
    # cancellation.  astype truncates the fractional ones to 0, and the
    # greedy signs are 0 everywhere else.
    return greedy - values.astype(int)


def _approximation_bound(rows: np.ndarray) -> float:
    """The prefix law over the d longest rows, squared: elimination leaves at
    most d fractional coordinates, and greedy adds at most (1 - lam_i^2)
    ||v_i||^2 for each of them; d for unit vectors."""
    return sum(sorted(np.vecdot(rows, rows).tolist())[-rows.shape[1]:])


def approximate_point(config: VectorConfig, lam=None) -> BalanceReport:
    """Signs eta with ||sum (lam_i + eta_i) v_i||^2 <= d for any number of
    vectors of norm <= 1, and at most the sum of the d largest ||v_i||^2 in
    beck mode: eliminate down to <= d fractional coordinates (their
    cancelled partners contribute exactly zero), then greedy over the
    fractional survivors in decreasing |lam| order."""
    rows = config.as_array()
    lam_arr = _as_lambda(config, lam)
    return _report("approximate_point", rows, lam_arr, _approximate_rows(rows, lam_arr),
                   math.sqrt(_approximation_bound(rows)))


def _oblique_pair(gram: np.ndarray, alpha: float):
    """First (lexicographic) pair with alpha < |gram[i, j]| < 1 - alpha, or None.
    The loop exits at the first hit; a vectorised triangle scan cannot."""
    n = len(gram)
    for i in range(n):
        for j in range(i + 1, n):
            if alpha < abs(gram[i, j]) < 1.0 - alpha:
                return (i, j)
    return None


def detect_oblique(config: VectorConfig, alpha: float):
    """First (lexicographic) pair of indices whose inner product lies
    strictly inside (alpha, 1 - alpha) in absolute value, or None."""
    return _oblique_scan(config, alpha)[1]


def _oblique_scan(config: VectorConfig, alpha: float):
    """The Gram matrix and detect_oblique's pair on it."""
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must be in (0, 1/2), got {alpha!r}")
    rows = config.as_array()
    gram = rows @ rows.T
    return gram, _oblique_pair(gram, alpha)


def cluster_vectors(config: VectorConfig, zeta: float) -> Clustering:
    """Partition into near-parallel clusters under |<x, y>| >= 1 - zeta^(1/4).

    Requires zeta <= 0.0016 (else the relation need not be transitive) and
    that no pair be zeta^(1/4)-oblique.  Each index's cluster is named by its
    lowest near-parallel index; that the relation is an equivalence is
    verified on the actual input, not assumed.
    """
    _check_cluster_zeta(zeta)
    alpha = zeta**0.25
    gram, pair = _oblique_scan(config, alpha)
    if pair is not None:
        i, j = pair
        rows = config.as_array()
        raise ObliquePairPresent(i, j, float(rows[i] @ rows[j]))
    return _clusters(config, gram, alpha)


def _check_cluster_zeta(zeta: float):
    if not 0.0 < zeta <= 0.0016:
        raise ValueError(f"zeta = {zeta!r} outside (0, 0.0016]")


def _clusters(config: VectorConfig, gram: np.ndarray, alpha: float) -> Clustering:
    """cluster_vectors past its oblique scan, on the Gram matrix it scanned."""
    near = np.abs(gram) >= 1.0 - alpha
    np.fill_diagonal(near, True)
    rep = near.argmax(axis=1)
    same = rep[:, None] == rep
    if not (near == same).all():
        a, b = np.argwhere(near != same)[0]
        raise TransitivityViolation(
            f"near-parallel is not transitive: |<v_{a}, v_{b}>| = {abs(gram[a, b]):.6g} "
            f"{'>=' if near[a, b] else '<'} {1.0 - alpha:.6g}, but their lowest "
            f"near-parallel indices are {rep[a]} and {rep[b]}")
    named = list(enumerate(rep.tolist()))
    representatives = tuple(i for i, r in named if i == r)
    if len(representatives) > config.dim:
        raise TooManyClusters(f"{len(representatives)} clusters in dimension {config.dim}: "
                              "the no-oblique precondition must have been broken")

    clusters = tuple(tuple(i for i, r in named if r == c) for c in representatives)
    orientation = np.where(gram[rep, np.arange(config.n)] >= 0, 1, -1)
    oriented = orientation[:, None] * orientation * gram
    bad = same & (oriented < 1.0 - alpha - 1e-12)
    np.fill_diagonal(bad, False)  # beck-mode norms below 1 would fail on the diagonal
    if bad.any():
        a, b = np.argwhere(bad)[0]  # a < b, as bad is symmetric
        raise TransitivityViolation(f"oriented pair ({a}, {b}) has inner product "
                                    f"{oriented[a, b]:.6g} < {1.0 - alpha:.6g}")
    return Clustering(clusters, representatives, tuple(orientation.tolist()))


def _cluster_bound(d: int, zeta: float) -> float:
    """cluster_and_pair's bound on the squared norm."""
    return d - 1 + 2.0 * d * zeta**0.25


def cluster_and_pair(config: VectorConfig, zeta: float | None = None) -> BalanceReport:
    """Balance a configuration with no oblique pair and n, d of opposite
    parity: near-parallel vectors are paired with opposite signs (their
    differences are short), the one leftover per odd cluster is balanced by
    greedy, and the two partial sums are combined with the sign that makes
    their cross term nonpositive.

    Opposite parity caps the number of odd clusters at d - 1, whence the
    guarantee sqrt(d - 1 + 2*d*zeta^(1/4)).
    """
    d = config.dim
    zeta = _zeta(d, zeta)
    if config.n % 2 == d % 2:
        raise ParityMismatch(
            f"n = {config.n} and d = {d} have equal parity; no improvement over sqrt(d)"
        )
    clustering = cluster_vectors(config, zeta)
    rows = config.as_array()
    orientation = np.array(clustering.orientation)
    oriented = rows * orientation[:, None]
    # Each cluster pairs (c[0], c[1]), (c[2], c[3]), ...; an odd one leaves c[-1].
    firsts = [i for c in clustering.clusters for i in c[:len(c) - 1:2]]
    seconds = [i for c in clustering.clusters for i in c[1::2]]
    leftovers = [c[-1] for c in clustering.clusters if len(c) % 2]
    assert len(leftovers) <= d - 1, "parity bound on odd clusters violated"

    signs = np.zeros(config.n, dtype=int)
    (long_signs,), (x_long,) = _greedy_rows(oriented[leftovers], np.zeros(len(leftovers)),
                                            [range(len(leftovers))])
    signs[leftovers] = long_signs

    if firsts:
        shorts = oriented[seconds] - oriented[firsts]
        scale = float(np.max(np.linalg.norm(shorts, axis=1)))
        if scale > 1e-15:
            units = shorts / scale
            pair_signs = _approximate_rows(units, np.zeros(len(firsts)))
            x_short = (pair_signs @ units) * scale
        else:
            pair_signs = np.ones(len(firsts), dtype=int)
            x_short = shorts.sum(axis=0)
        flip = -1 if float(x_long @ x_short) > 0.0 else 1
        signs[seconds] = flip * pair_signs
        signs[firsts] = -flip * pair_signs
    return _report("cluster_pair", rows, 0.0, signs * orientation,
                   math.sqrt(_cluster_bound(d, zeta)), "clustered")


def projection_split(
    config: VectorConfig,
    lam=None,
    pair: tuple[int, int] | None = None,
    zeta: float | None = None,
) -> BalanceReport:
    """Split balancing across an oblique pair's plane and its complement.

    The pair (u, w) must be zeta^(1/4)-oblique and every other vector's
    projection onto their plane P must have norm <= 2*zeta^(3/4); the others
    are projected in one stacked pass, and the first too long raises
    ProjectionTooLong.  The complement part is approximated by the projected
    remainder (squared error <= d - 2); the plane part by the best of the
    four sign choices on u, w against the accumulated in-plane residue.
    """
    d = config.dim
    if d < 3:
        raise ValueError("projection split needs d >= 3")
    zeta = _zeta(d, zeta)
    alpha = zeta**0.25
    rows = config.as_array()
    lam_arr = _as_lambda(config, lam)

    if pair is None:
        pair = detect_oblique(config, alpha)
        if pair is None:
            raise NotOblique(f"no pair with |inner| in ({alpha:.6g}, {1 - alpha:.6g})")
    iu, iw = pair
    inner = float(rows[iu] @ rows[iw])
    if not alpha < abs(inner) < 1.0 - alpha:
        raise NotOblique(
            f"pair ({iu}, {iw}) has |inner| = {abs(inner):.6g}, "
            f"outside ({alpha:.6g}, {1 - alpha:.6g})"
        )

    basis = PlaneBasis.from_vectors(rows[iu], rows[iw])
    others = [i for i in range(config.n) if i not in (iu, iw)]
    bound = 2.0 * zeta**0.75
    in_plane, perp = project_onto_plane(rows[others], basis)
    lengths = np.sqrt(np.vecdot(in_plane, in_plane))
    if (too_long := np.flatnonzero(lengths > bound + 1e-12)).size:
        k = too_long[0]
        raise ProjectionTooLong(others[k], float(lengths[k]), bound)

    # Orthonormal coordinates for the complement of P: a stack of
    # matrix-vector products rounds each row as alone; perp @ Q[:, 2:] does not.
    Q, _ = np.linalg.qr(np.column_stack([rows[iu], rows[iw]]), mode="complete")
    signs = np.zeros(config.n, dtype=int)
    signs[others] = _approximate_rows((Q[:, 2:].T @ perp[:, :, None])[:, :, 0], lam_arr[others])
    # Summed row by row in the order of others.
    residue = ((lam_arr[others] + signs[others])[:, None] * in_plane).sum(axis=0)

    def plane_sq(eu: int, ew: int) -> float:
        cand = (lam_arr[iu] + eu) * rows[iu] + (lam_arr[iw] + ew) * rows[iw] + residue
        return float(cand @ cand)

    # min keeps the first of equal values, as a strict < scan would.
    signs[[iu, iw]] = min(((1, 1), (1, -1), (-1, 1), (-1, -1)), key=lambda e: plane_sq(*e))

    return _report("projection_split", rows, lam_arr, signs, _split_guarantee(d, config.n, zeta),
                   "oblique")


def _split_guarantee(d: int, n: int, zeta: float) -> float:
    """projection_split's bound: the complement's d - 2 plus the plane's
    (sqrt(2 - sqrt(zeta)) + 4 (n - 2) zeta^(3/4))^2, so d - g^2 <= sqrt(zeta)."""
    plane_budget = math.sqrt(2.0 - math.sqrt(zeta)) + 4.0 * (n - 2) * zeta**0.75
    return math.sqrt(d - 2 + plane_budget**2)


# Worst-case guarantee for unit vectors regardless of structure; far from
# optimal but dimension-dependent and strictly positive.
def paper_epsilon(d: int) -> float:
    return 2.0**-100 * float(d) ** -80


def parity_balance(config: VectorConfig, zeta: float | None = None, seed: int = 0) -> BalanceReport:
    """Combined sign balancer.  Each certificate bounds the least squared
    norm; the guarantee is the root of the least bound, and ``certificate``
    names it, the first of equal bounds in this order winning:

    * "prefix law": approximate_point's sum of the d largest ||v_i||^2, at
      matched parity (where nothing beats sqrt(d) in general) and on any
      input that is not all unit vectors;
    * "floor": d - paper_epsilon(d), on unit inputs at mismatched parity;
    * "cluster": cluster_and_pair's d - 1 + 2 d zeta^(1/4), on unit inputs
      with no oblique pair; the clustering still raises when its
      preconditions fail;
    * "pair-first": with an oblique pair u, w, greedy visiting u and w first
      reaches ||u||^2 + ||w||^2 - 2|<u, w>| exactly, and each later step adds
      at most ||v_i||^2: n - 2|<u, w>| on unit inputs, sum ||v_i||^2 -
      2|<u, w>| otherwise;
    * "projection split": projection_split's bound, tried only when it is
      below every bound before it, on a unit pair with no vector longer than 1.

    Unit inputs have squared norms within 1 +/- 2e-9.  case_taken names the
    branch: "fallback" at matched parity, else "clustered" or "oblique" as
    there is no zeta^(1/4)-oblique pair or one.

    The answer is the exact minimiser from min_signed_norm when n <=
    EXHAUSTIVE_FALLBACK_CAP, and above it the first best of the branch's
    portfolio (eliminate+greedy; clustered on unit vectors: cluster-and-pair
    first; oblique: then pair-first greedy, the projection split where its
    certificate was taken and randomly ordered greedy passes, all greedy
    orders in one batched pass).
    """
    d, n = config.dim, config.n
    zeta = _zeta(d, zeta)
    rows = config.as_array()
    squares = np.vecdot(rows, rows).tolist()
    unit = max(squares) <= 1.0 + 2e-9 and min(squares) >= 1.0 - 2e-9
    gram, pair = (None, None) if n % 2 == d % 2 else _oblique_scan(config, zeta**0.25)
    case = "fallback" if gram is None else "clustered" if pair is None else "oblique"
    bounds = {}  # certificate -> its bound on the least squared norm, in the tie order
    if case == "fallback" or not unit:
        bounds["prefix law"] = _approximation_bound(rows)
    else:
        bounds["floor"] = d - paper_epsilon(d)
    if case == "clustered" and unit:
        # Closed form, but the clustering still raises when its preconditions fail.
        _check_cluster_zeta(zeta)
        _clusters(config, gram, zeta**0.25)
        bounds["cluster"] = _cluster_bound(d, zeta)
    splits = []
    if case == "oblique":
        iu, iw = pair
        inner = abs(float(rows[iu] @ rows[iw]))
        bounds["pair-first"] = (n if unit else float(np.sum(squares))) - 2.0 * inner
        if (d >= 3 and max(squares) <= 1.0 + 2e-9
                and _split_guarantee(d, n, zeta)**2 < min(bounds.values())
                and is_unit(rows[iu]) and is_unit(rows[iw])):
            try:
                splits.append(projection_split(config, pair=pair, zeta=zeta))
                bounds["projection split"] = splits[0].guarantee**2
            except (ProjectionTooLong, NotOblique, DegeneratePlane):
                pass  # the split is an optional certificate
    certificate = min(bounds, key=bounds.get)

    if n <= EXHAUSTIVE_FALLBACK_CAP:
        achieved, signs = min_signed_norm(config)
    else:
        portfolio = [cluster_and_pair(config, zeta)] if "cluster" in bounds else []
        portfolio.append(approximate_point(config))
        if case == "oblique":
            # The pair-first order runs in one batched pass with the random
            # orders; a repeated sign row cannot win.
            bound = _prefix_bound(rows)
            rng = np.random.default_rng([seed, 1])
            orders = [[iu, iw] + [i for i in range(n) if i not in (iu, iw)]]
            orders += [rng.permutation(n) for _ in range(GREEDY_ORDERS - 1)]
            distinct = {s.tobytes(): s for s in _greedy_rows(rows, np.zeros(n), orders)[0]}
            greedy = [_report("greedy", rows, 0.0, s, bound) for s in distinct.values()]
            portfolio += [greedy[0], *splits, *greedy[1:]]
        # min keeps the first of equal norms, as a strict < scan would.
        best = min(portfolio, key=lambda report: report.achieved_norm)
        achieved, signs = best.achieved_norm, best.signs
    return BalanceReport("parity_balance", signs, achieved, math.sqrt(bounds[certificate]),
                         case, certificate)


_ASCENT_LADDER = (0.5, 0.25, 0.12, 0.06, 0.03, 0.015, 0.008, 0.004, 0.002, 0.001)
_MAX_SWEEPS_PER_STEP = 8
# Byte budget 2^n * (n + d) * 8 for the falsifier's tables: the n inner
# products and the d coordinates of every signed sum.  Keeps n <= 20 at d <= 12.
FALSIFIER_BYTES = 1 << 28


def approximation_falsifier(
    config: VectorConfig,
    r: float,
    budget: int = 100,
    seed: int = 0,
) -> FalsifierResult:
    """Hunt for coefficients lam whose best sign approximation is bad:
    maximise g(lam) = min_eta ||sum (lam_i + eta_i) v_i||^2 by coordinate
    ascent from seeded starts, and report a witness if g exceeds r.

    Each start builds the (d, 2^n) table of every (eta + lam) V as head +
    lam V + tail of ``sign_columns`` split tables, and keeps each sum's
    norm^2 (summed over the components in index order) and inner products
    with each v_i.  A move lam_i += t then scores min(norms + 2t inner_i) +
    t^2 ||v_i||^2, one pass over the 2^n sums, and an accepted move updates
    both arrays.  Those updates drift, so each start's value is settled on
    the table rebuilt at its final lam: reported g values are exact over all
    2^n assignments, and absence of a witness is evidence, not proof.  Start
    points mix the zonotope centre, uniform coefficients, and points inside
    random d-dimensional sub-parallelotopes (the regions that cover the zonotope).
    Raises TooLarge when the tables would pass FALSIFIER_BYTES.
    """
    n, d = config.n, config.dim
    check_enumerable(n)
    if (size := (n + d) * 8 << n) > FALSIFIER_BYTES:  # before any table is built
        raise TooLarge(f"the falsifier's tables for n = {n}, d = {d} take {size} bytes, "
                       f"past FALSIFIER_BYTES = {FALSIFIER_BYTES}")
    if not (-math.inf < r < math.inf):
        raise OutOfRange(f"r must be finite, got {r!r}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rows = config.as_array()

    split = (n + 1) // 2
    head, tail = sign_columns(rows[:split]), sign_columns(rows[split:])

    def table(lam: np.ndarray) -> np.ndarray:  # (d, 2^n): every signed sum plus lam V
        return ((head + (lam @ rows)[:, None])[:, :, None] + tail[:, None, :]).reshape(d, -1)

    gram = rows @ rows.T
    columns = gram[:, :, None]  # columns[i] is <v_i, v_j> as an (n, 1) column
    diagonal = gram.diagonal().tolist()
    rng = np.random.default_rng(seed)
    best_val = -1.0
    best_lam = None
    best_start = -1
    for start in range(budget):
        if start == 0:
            lam = np.zeros(n)
        elif start % 2 == 1:
            lam = rng.uniform(-1.0, 1.0, n)
        else:
            lam = (2.0 * rng.integers(0, 2, n) - 1.0).astype(float)
            free = rng.choice(n, size=min(d, n), replace=False)
            lam[free] = rng.uniform(-1.0, 1.0, len(free))
        shifted = table(lam)
        inner = rows @ shifted  # inner[i] holds <v_i, s> for every sum s
        norms = np.square(shifted, out=shifted).sum(axis=0)  # over components in index order
        value = float(norms.min())
        del shifted
        scored, kept = np.empty_like(norms), np.empty_like(norms)
        for step in _ASCENT_LADDER:
            for _ in range(_MAX_SWEEPS_PER_STEP):
                improved = False
                for i in range(n):
                    # Both candidates are scored on the table at lam[i], and
                    # the table moves once, to the one taken.  At the centre
                    # start the table is then exactly symmetric under
                    # lam -> -lam, as g is, so +step and -step tie exactly.
                    origin = base = float(lam[i])
                    for cand in (base + step, base - step):
                        cand = min(1.0, max(-1.0, cand))
                        if cand == base:
                            continue
                        t = cand - origin
                        np.multiply(inner[i], 2.0 * t, out=scored)
                        scored += norms
                        val = float(scored.min()) + t * t * diagonal[i]
                        if val > value:
                            value = val
                            base = cand
                            improved = True
                            scored, kept = kept, scored
                    if base != origin:
                        t = base - origin
                        np.add(kept, t * t * diagonal[i], out=norms)
                        inner += t * columns[i]
                        lam[i] = base
                if not improved:
                    break
        del norms, inner, scored, kept  # they drift; settle the start on a rebuilt table
        value = float((table(lam) ** 2).sum(axis=0).min())
        if value > best_val:
            best_val = value
            best_lam = lam.copy()
            best_start = start

    coeffs = CoefficientVector(tuple(float(x) for x in best_lam))
    witness = coeffs if best_val > r else None
    return FalsifierResult(
        best_value=best_val,
        best_coefficients=coeffs,
        witness=witness,
        best_start=best_start,
    )
