"""Constructive sign-selection algorithms.

The toolbox, roughly in order of sophistication:

* ``greedy_signs``       -- process vectors in order, always taking the sign
  that keeps the running sum shortest; the running squared norm never
  exceeds the number of vectors processed.  One numpy kernel runs a batch
  of orders step by step, a single order being a batch of one.
* ``eliminate``          -- round relaxed coefficients to +/-1 along
  nullspace directions, preserving the weighted sum, until at most k
  fractional coefficients remain.
* ``approximate_point``  -- eliminate to <= d fractional coordinates, then
  greedy on the survivors: squared error <= d for any number of vectors of
  norm <= 1.
* ``cluster_vectors`` / ``cluster_and_pair`` -- when every pair is nearly
  parallel or nearly orthogonal, pair near-parallel vectors with opposite
  signs and balance the leftovers.
* ``projection_split``   -- when an oblique pair u, w exists and the other
  vectors barely touch the plane spanned by u and w, balance the plane and
  its orthogonal complement separately.
* ``parity_balance``     -- the combined dispatcher: with an oblique pair it
  answers with the exact minimiser up to n = EXHAUSTIVE_FALLBACK_CAP and
  with the best of a heuristic portfolio above it.
* ``approximation_falsifier`` -- adversarial coordinate ascent looking for a
  zonotope point whose best sign approximation is worse than a target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ENUMERATION_CAP,
    CoefficientVector,
    SignAssignment,
    VectorConfig,
    combine,
    min_signed_norm,
    sign_table,
)
from .errors import (
    DimensionMismatch,
    NotOblique,
    NumericalNullspaceFailure,
    ObliquePairPresent,
    ParityMismatch,
    ProjectionTooLong,
    TooLarge,
    TooManyClusters,
    TransitivityViolation,
)
from .geometry import PlaneBasis, project_onto_plane

REPORT_SLACK = 1e-9

# Largest n at which the dispatcher's oblique branch enumerates all 2^n
# assignments and answers with the exact minimiser instead of a portfolio.
EXHAUSTIVE_FALLBACK_CAP = 12


@dataclass(frozen=True)
class BalanceReport:
    """Outcome of one balancing algorithm, with the bound it must meet."""

    algorithm: str
    signs: SignAssignment
    achieved_norm: float
    guarantee: float
    case_taken: str | None = None

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
        CoefficientVector(tuple(values))  # raises OutOfRange with the index
    return values


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


def greedy_signs(config: VectorConfig, lam=None, order=None) -> BalanceReport:
    """One pass over the vectors, each sign chosen to keep the running sum
    shortest (ties to +1).

    The running sum obeys ||s_m||^2 <= m at every step, so the result is
    guaranteed no worse than sqrt(n).
    """
    rows = config.as_array()
    lam_arr = _as_lambda(config, lam)
    idx = list(range(config.n)) if order is None else list(order)
    if sorted(idx) != list(range(config.n)):
        raise ValueError("order must be a permutation of range(n)")
    (signs,), _ = _greedy_rows(rows, lam_arr, [idx])
    achieved = float(np.linalg.norm((lam_arr + signs) @ rows))
    return BalanceReport(
        algorithm="greedy",
        signs=SignAssignment(tuple(signs.tolist())),
        achieved_norm=achieved,
        guarantee=math.sqrt(config.n),
    )


_FRACTIONAL_SNAP = 5e-13


def _eliminate_rows(rows: np.ndarray, values: np.ndarray, k: int) -> tuple[np.ndarray, list[int]]:
    """Elimination on raw (n, d) rows; returns the rounded coefficients (a
    new array) and the indices still fractional, at most k of them."""
    d = rows.shape[1]
    values = np.array(values, dtype=float)
    fractional = [i for i in range(len(values)) if abs(values[i]) < 1.0]

    while len(fractional) > k:
        subset = fractional[: d + 1]
        A = rows[subset].T  # d x (d+1): always has a nontrivial null vector
        _, _, Vt = np.linalg.svd(A)
        beta = Vt[-1]
        residual = float(np.max(np.abs(A @ beta)))
        if residual > 1e-8:
            raise NumericalNullspaceFailure(
                f"null combination residual {residual!r} over indices {subset}"
            )

        # Feasible scaling range [lo, hi] keeps every |lam + gamma*beta| <= 1;
        # at each end some coordinate binds at +/-1.
        hi, hi_local, hi_target = math.inf, -1, 0
        lo, lo_local, lo_target = -math.inf, -1, 0
        for loc, i in enumerate(subset):
            b = beta[loc]
            if abs(b) < 1e-14:
                continue
            room_up = (1.0 - values[i]) / b
            room_down = (-1.0 - values[i]) / b
            pos, pos_target = (room_up, 1) if b > 0 else (room_down, -1)
            neg, neg_target = (room_down, -1) if b > 0 else (room_up, 1)
            if pos < hi:
                hi, hi_local, hi_target = pos, loc, pos_target
            if neg > lo:
                lo, lo_local, lo_target = neg, loc, neg_target

        if hi <= -lo:  # ties to the positive side
            gamma, binding_local, target = hi, hi_local, hi_target
        else:
            gamma, binding_local, target = lo, lo_local, lo_target

        for loc, i in enumerate(subset):
            values[i] += gamma * beta[loc]
        np.clip(values, -1.0, 1.0, out=values)
        values[subset[binding_local]] = float(target)
        for i in subset:
            if abs(abs(values[i]) - 1.0) < _FRACTIONAL_SNAP:
                values[i] = math.copysign(1.0, values[i])
        fractional = [i for i in fractional if abs(values[i]) < 1.0]
    return values, fractional


def eliminate(config: VectorConfig, lam, k: int) -> EliminationResult:
    """Drive coefficients to +/-1 along nullspace directions until at most k
    fractional coordinates remain, preserving the weighted sum throughout.

    Each round takes the d+1 lowest-index fractional coordinates, finds a
    nontrivial null combination of their vectors, and scales it just far
    enough that some coefficient lands exactly on +/-1 (smallest |scale|
    wins, ties to the positive side).
    """
    if k < config.dim:
        raise ValueError(f"k = {k} must be at least the dimension {config.dim}")
    values, fractional = _eliminate_rows(config.as_array(), _as_lambda(config, lam), k)
    return EliminationResult(
        coefficients=CoefficientVector(tuple(values.tolist())),
        fixed_mask=tuple((np.abs(values) == 1.0).tolist()),
        residual_indices=tuple(fractional),
    )


def _approximate_rows(rows: np.ndarray, lam: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Eliminate-then-greedy on raw rows; returns signs and the achieved sum
    vector sum_i (lam_i + eta_i) v_i."""
    n, d = rows.shape
    if n == 0:
        return [], np.zeros(d)
    values, residual = _eliminate_rows(rows, lam, d)
    # Fixed coordinates take the opposite sign: exact cancellation.
    signs = [0 if abs(v) < 1.0 else -int(v) for v in values.tolist()]
    # Largest fractional coordinate first: if some |lam| > delta survives,
    # the first step already banks a (1-delta)^2 <= 1-delta start.
    residual.sort(key=lambda i: (-abs(values[i]), i))
    (greedy,), _ = _greedy_rows(rows, values, [residual])
    for i in residual:
        signs[i] = int(greedy[i])
    total = (lam + signs) @ rows
    return signs, total


def approximate_point(config: VectorConfig, lam=None) -> BalanceReport:
    """Signs eta with ||sum (lam_i + eta_i) v_i||^2 <= d for any number of
    vectors of norm <= 1: eliminate down to <= d fractional coordinates
    (their cancelled partners contribute exactly zero), then greedy over the
    fractional survivors in decreasing |lam| order."""
    rows = config.as_array()
    lam_arr = _as_lambda(config, lam)
    signs, total = _approximate_rows(rows, lam_arr)
    achieved = float(np.linalg.norm(total))
    return BalanceReport(
        algorithm="approximate_point",
        signs=SignAssignment(tuple(signs)),
        achieved_norm=achieved,
        guarantee=math.sqrt(config.dim),
    )


def detect_oblique(config: VectorConfig, alpha: float):
    """First (lexicographic) pair of indices whose inner product lies
    strictly inside (alpha, 1 - alpha) in absolute value, or None."""
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must be in (0, 1/2), got {alpha!r}")
    rows = config.as_array()
    gram = rows @ rows.T
    n = config.n
    for i in range(n):
        for j in range(i + 1, n):
            if alpha < abs(gram[i, j]) < 1.0 - alpha:
                return (i, j)
    return None


def cluster_vectors(config: VectorConfig, zeta: float) -> Clustering:
    """Partition into near-parallel clusters under |<x, y>| >= 1 - zeta^(1/4).

    Requires zeta <= 0.0016 (else the relation need not be transitive) and
    that no pair be zeta^(1/4)-oblique.  Transitivity is verified on the
    actual input, not assumed.
    """
    if not 0.0 < zeta <= 0.0016:
        raise ValueError(f"zeta = {zeta!r} outside (0, 0.0016]")
    alpha = zeta**0.25
    pair = detect_oblique(config, alpha)
    if pair is not None:
        rows = config.as_array()
        i, j = pair
        raise ObliquePairPresent(i, j, float(rows[i] @ rows[j]))

    rows = config.as_array()
    gram = rows @ rows.T
    n = config.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if abs(gram[i, j]) >= 1.0 - alpha:
                parent[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=min))
    if len(clusters) > config.dim:
        raise TooManyClusters(
            f"{len(clusters)} clusters in dimension {config.dim}: "
            "the no-oblique precondition must have been broken"
        )

    representatives = tuple(c[0] for c in clusters)
    orientation = [1] * n
    for cluster, rep in zip(clusters, representatives):
        for i in cluster:
            if i == rep:
                continue
            if abs(gram[rep, i]) < 1.0 - alpha:
                raise TransitivityViolation(
                    f"indices {rep} and {i} share a cluster via a chain but "
                    f"|<v_{rep}, v_{i}>| = {abs(gram[rep, i]):.6g} < {1.0 - alpha:.6g}"
                )
            orientation[i] = 1 if gram[rep, i] >= 0 else -1
        for a in cluster:
            for b in cluster:
                if a < b and orientation[a] * orientation[b] * gram[a, b] < 1.0 - alpha - 1e-12:
                    raise TransitivityViolation(
                        f"oriented pair ({a}, {b}) has inner product "
                        f"{orientation[a] * orientation[b] * gram[a, b]:.6g} < {1.0 - alpha:.6g}"
                    )
    return Clustering(clusters, representatives, tuple(orientation))


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
    zeta = default_zeta(d) if zeta is None else zeta
    if config.n % 2 == d % 2:
        raise ParityMismatch(
            f"n = {config.n} and d = {d} have equal parity; no improvement over sqrt(d)"
        )
    clustering = cluster_vectors(config, zeta)
    rows = config.as_array()
    oriented = rows * np.array(clustering.orientation)[:, None]

    short_vecs: list[np.ndarray] = []
    short_pairs: list[tuple[int, int]] = []
    leftovers: list[int] = []
    for cluster in clustering.clusters:
        for t in range(len(cluster) // 2):
            a, b = cluster[2 * t], cluster[2 * t + 1]
            short_vecs.append(oriented[b] - oriented[a])
            short_pairs.append((a, b))
        if len(cluster) % 2 == 1:
            leftovers.append(cluster[-1])
    assert len(leftovers) <= d - 1, "parity bound on odd clusters violated"

    signs = [0] * config.n
    if leftovers:
        long_rows = oriented[leftovers]
        (long_signs,), (x_long,) = _greedy_rows(long_rows, np.zeros(len(leftovers)),
                                                [range(len(leftovers))])
        for pos, i in enumerate(leftovers):
            signs[i] = int(long_signs[pos]) * clustering.orientation[i]
    else:
        x_long = np.zeros(d)

    if short_pairs:
        shorts = np.array(short_vecs)
        scale = float(np.max(np.linalg.norm(shorts, axis=1)))
        if scale > 1e-15:
            pair_signs, x_short = _approximate_rows(shorts / scale,
                                                    np.zeros(len(short_pairs)))
            x_short = x_short * scale
        else:
            pair_signs = [1] * len(short_pairs)
            x_short = shorts.sum(axis=0)
        flip = -1 if float(x_long @ x_short) > 0.0 else 1
        for t, (a, b) in enumerate(short_pairs):
            eta = flip * pair_signs[t]
            signs[b] = eta * clustering.orientation[b]
            signs[a] = -eta * clustering.orientation[a]

    achieved = float(np.linalg.norm(np.array(signs) @ rows))
    guarantee = math.sqrt(d - 1 + 2.0 * d * zeta**0.25)
    return BalanceReport(
        algorithm="cluster_pair",
        signs=SignAssignment(tuple(signs)),
        achieved_norm=achieved,
        guarantee=guarantee,
        case_taken="clustered",
    )


def projection_split(
    config: VectorConfig,
    lam=None,
    pair: tuple[int, int] | None = None,
    zeta: float | None = None,
) -> BalanceReport:
    """Split balancing across an oblique pair's plane and its complement.

    The pair (u, w) must be zeta^(1/4)-oblique and every other vector's
    projection onto their plane P must have norm <= 2*zeta^(3/4).  The
    complement part is approximated by the projected remainder (squared
    error <= d - 2); the plane part by the best of the four sign choices on
    u, w against the accumulated in-plane residue.
    """
    d = config.dim
    if d < 3:
        raise ValueError("projection split needs d >= 3")
    zeta = default_zeta(d) if zeta is None else zeta
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
    in_plane = {}
    perp = {}
    for i in others:
        z_in, z_perp = project_onto_plane(rows[i], basis)
        length = float(np.linalg.norm(z_in))
        if length > bound + 1e-12:
            raise ProjectionTooLong(i, length, bound)
        in_plane[i] = z_in
        perp[i] = z_perp

    # Orthonormal coordinates for the complement of P.
    Q, _ = np.linalg.qr(np.column_stack([rows[iu], rows[iw]]), mode="complete")
    comp = Q[:, 2:]  # d x (d-2)
    perp_coords = np.array([comp.T @ perp[i] for i in others]).reshape(len(others), d - 2)
    signs = [0] * config.n
    sub_lam = np.array([lam_arr[i] for i in others])
    perp_signs, _ = _approximate_rows(perp_coords, sub_lam)
    for pos, i in enumerate(others):
        signs[i] = perp_signs[pos]

    residue = np.zeros(d)
    for pos, i in enumerate(others):
        residue += (lam_arr[i] + signs[i]) * in_plane[i]

    best = None
    for eu in (1, -1):
        for ew in (1, -1):
            cand = (lam_arr[iu] + eu) * rows[iu] + (lam_arr[iw] + ew) * rows[iw] + residue
            val = float(cand @ cand)
            if best is None or val < best[0]:
                best = (val, eu, ew)
    signs[iu], signs[iw] = best[1], best[2]

    achieved = float(np.linalg.norm((lam_arr + signs) @ rows))
    plane_budget = math.sqrt(2.0 - math.sqrt(zeta)) + 4.0 * len(others) * zeta**0.75
    guarantee = math.sqrt(d - 2 + plane_budget**2)
    return BalanceReport(
        algorithm="projection_split",
        signs=SignAssignment(tuple(signs)),
        achieved_norm=achieved,
        guarantee=guarantee,
        case_taken="oblique",
    )


# Worst-case guarantee for unit vectors regardless of structure; far from
# optimal but dimension-dependent and strictly positive.
def paper_epsilon(d: int) -> float:
    return 2.0**-100 * float(d) ** -80


def parity_balance(
    config: VectorConfig,
    zeta: float | None = None,
    seed: int = 0,
    greedy_orders: int = 32,
    exhaustive_cap: int = EXHAUSTIVE_FALLBACK_CAP,
) -> BalanceReport:
    """Combined sign balancer for unit vectors.

    With n and d of equal parity nothing beats sqrt(d) in general, so the
    eliminate+greedy bound is returned with the parity flagged.  Otherwise
    the structure dichotomy dispatches: no oblique pair -> cluster-and-pair;
    oblique pair present -> the exact minimiser from min_signed_norm when
    n <= exhaustive_cap, else the best of a portfolio (eliminate+greedy,
    pair-first greedy, projection split when its preconditions hold, and a
    bundle of randomly ordered greedy passes; all greedy orders run as one
    batched numpy pass).
    The reported guarantee is sqrt(d - eps) with eps the strongest bound
    certified by the pair-first greedy bound, the projection split when it
    runs, or the cluster bound (never weaker than the theoretical floor
    paper_epsilon(d)); it does not depend on which answer was returned.
    """
    d = config.dim
    n = config.n
    zeta = default_zeta(d) if zeta is None else zeta
    eps_floor = paper_epsilon(d)

    if n % 2 == d % 2:
        inner = approximate_point(config)
        return BalanceReport(
            algorithm="parity_balance",
            signs=inner.signs,
            achieved_norm=inner.achieved_norm,
            guarantee=math.sqrt(d),
            case_taken="fallback",
        )

    alpha = zeta**0.25
    pair = detect_oblique(config, alpha)
    if pair is None:
        clustered = cluster_and_pair(config, zeta)
        fallback = approximate_point(config)
        best = clustered if clustered.achieved_norm <= fallback.achieved_norm else fallback
        # The best of the two meets the cluster certificate (the clustered
        # run never exceeds its own guarantee), so the dispatch-level bound
        # stays sound even when a caller-chosen zeta weakens it past sqrt(d).
        eps = max(eps_floor, d - clustered.guarantee**2)
        return BalanceReport(
            algorithm="parity_balance",
            signs=best.signs,
            achieved_norm=best.achieved_norm,
            guarantee=math.sqrt(d - eps),
            case_taken="clustered",
        )

    # Pair-first greedy: the second step achieves 2 - 2|<u, w>| exactly,
    # each later step adds at most 1 to the squared norm; the exact
    # minimiser can only do better.
    rows = config.as_array()
    iu, iw = pair
    certificates = [eps_floor]
    pair_bound_sq = n - 2.0 * abs(float(rows[iu] @ rows[iw]))
    if pair_bound_sq < d:
        certificates.append(d - pair_bound_sq)
    split = None
    if d >= 3:
        try:
            split = projection_split(config, pair=pair, zeta=zeta)
            eps_ps = d - split.guarantee**2
            if eps_ps > 0:
                certificates.append(eps_ps)
        except (ProjectionTooLong, NotOblique):
            pass

    if n <= exhaustive_cap:
        best_norm, best = min_signed_norm(config)
    else:
        # The pair-first order runs in one batched pass with the random
        # orders; a repeated sign row cannot win.
        rng = np.random.default_rng([seed, 1])
        orders = [[iu, iw] + [i for i in range(n) if i not in (iu, iw)]]
        orders += [rng.permutation(n) for _ in range(greedy_orders - 1)]
        distinct = dict.fromkeys(map(tuple, _greedy_rows(rows, np.zeros(n), orders)[0].tolist()))
        greedy = [(float(np.linalg.norm(np.array(sgn, dtype=float) @ rows)), sgn)
                  for sgn in distinct]
        inner = approximate_point(config)
        candidates = [(inner.achieved_norm, inner.signs.signs), greedy[0]]
        if split is not None:
            candidates.append((split.achieved_norm, split.signs.signs))
        # min keeps the first of equal norms, as a strict < scan would.
        best_norm, best_signs = min(candidates + greedy[1:], key=lambda c: c[0])
        best = SignAssignment(best_signs)
    return BalanceReport(
        algorithm="parity_balance",
        signs=best,
        achieved_norm=best_norm,
        guarantee=math.sqrt(d - max(certificates)),
        case_taken="oblique",
    )


_ASCENT_LADDER = (0.5, 0.25, 0.12, 0.06, 0.03, 0.015, 0.008, 0.004, 0.002, 0.001)
_MAX_SWEEPS_PER_STEP = 8


def approximation_falsifier(
    config: VectorConfig,
    r: float,
    budget: int = 100,
    seed: int = 0,
    cap: int = ENUMERATION_CAP,
) -> FalsifierResult:
    """Hunt for coefficients lam whose best sign approximation is bad:
    maximise g(lam) = min_eta ||sum (lam_i + eta_i) v_i||^2 by coordinate
    ascent from seeded starts, and report a witness if g exceeds r.

    The inner minimum is brute-forced over all 2^n assignments, so g values
    are exact; absence of a witness is evidence, not proof.  Start points
    mix the zonotope centre, uniform coefficients, and points inside random
    d-dimensional sub-parallelotopes (the regions that cover the zonotope).
    """
    n, d = config.n, config.dim
    if n > cap:
        raise TooLarge(f"n = {n} exceeds the enumeration cap {cap}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rows = config.as_array()

    split = (n + 1) // 2
    head, tail = sign_table(rows[:split]), sign_table(rows[split:])

    def g(lam: np.ndarray) -> float:
        return min(float(ns.min()) for ns in combine(head + lam @ rows, tail))

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
        value = g(lam)
        for step in _ASCENT_LADDER:
            for _ in range(_MAX_SWEEPS_PER_STEP):
                improved = False
                for i in range(n):
                    base = lam[i]
                    for cand in (base + step, base - step):
                        cand = min(1.0, max(-1.0, cand))
                        if cand == base:
                            continue
                        lam[i] = cand
                        val = g(lam)
                        if val > value:
                            value = val
                            base = cand
                            improved = True
                        lam[i] = base
                if not improved:
                    break
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
