"""Independent oracles used to cross-check the library.

Everything here deliberately avoids the library's own code paths: the census
and the minimum walk assignments with itertools.product and sum vectors
directly (no partial-sum tables, no incremental updates), the exact census
does so in Fraction arithmetic with no floating filter, the chord oracle solves the
circle-line intersection quadratic, the polar oracle goes through an
eigenvalue square root instead of the SVD, the greedy oracle takes one
vector at a time instead of one step of a batch of orders, the search
oracle climbs one restart and one step at a time on the full sign table
and sums each norm^2 component by component, the split oracle tries
projection_split wherever its premises hold and runs each greedy order on
its own, the exact elimination oracle runs the elimination rule in
Fraction arithmetic with no clipping, snapping or carried inverse, and the
falsifier oracle scores every candidate from scratch.  Its g adds its own
doubled head and tail tables and sums each norm^2 over the components in
index order, as the library does when it settles each start, so that equal
ascents give bitwise equal values.

The bit-level oracles keep earlier forms of library kernels whose bits the
library must still produce: ``doubling_sign_table`` and
``doubling_half_norms_sq`` build every table by concatenated doubling,
``scalar_eliminate_rows`` runs elimination on numpy scalars with explicit
loops, one full-row Gaussian elimination with back substitution for each
fresh null vector and clipping every coefficient each round,
``loop_validation`` checks a configuration's rows one at a time, and
``loop_projection_split`` projects, checks and accumulates the split's
other vectors one at a time.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from signsum import balancing
from signsum.core import SignAssignment, min_signed_norm
from signsum.errors import (
    DegeneratePlane,
    DimensionMismatch,
    NormViolation,
    NotOblique,
    ProjectionTooLong,
)
from signsum.geometry import is_unit

_CHUNK = 1 << 11  # the kernel's chunk size, restated so that no oracle calls core


def loop_validation(vectors, dim, mode, tolerance):
    """VectorConfig's dimension and norm checks as a per-row loop: the first
    bad row in index order raises, its norm Python's sum of float(x) * float(x)
    in component order, then ** 0.5."""
    for i, row in enumerate(vectors):
        if len(row) != dim:
            raise DimensionMismatch(
                f"vector {i} has dimension {len(row)}, expected {dim}"
            )
        norm = float(sum(float(x) * float(x) for x in row)) ** 0.5
        if mode == "strict":
            if not abs(norm - 1.0) <= tolerance:
                raise NormViolation(i, norm)
        else:
            if not norm <= 1.0 + tolerance:
                raise NormViolation(i, norm, f"vector {i} has norm {norm!r} > 1")


def doubling_sign_table(rows):
    """All 2^k signed sums of the k rows by doubling from a zero row, the
    last row first: row m has eta_i = -1 iff bit k-1-i of m is set."""
    table = np.zeros((1, rows.shape[1]), dtype=rows.dtype)
    for row in rows[::-1]:
        table = np.concatenate([table + row, table - row])
    return table


def doubling_half_norms_sq(rows):
    """Chunks of _CHUNK norms^2 of the eta_1 = +1 half in lexicographic
    order: v_1 plus a doubled head, a doubled tail, both transposed to
    component-major copies, and each chunk's squares added one component at
    a time in index order (a sum over axis 0 is pairwise when it is the only
    axis longer than 1, as at n = 1)."""
    split = (len(rows) + 1) // 2
    head = (rows[0] + doubling_sign_table(rows[1:split])).T.copy()
    tail = doubling_sign_table(rows[split:]).T.copy()
    per_chunk = max(1, _CHUNK // tail.shape[1])
    width = min(tail.shape[1], _CHUNK)
    for a in range(0, head.shape[1], per_chunk):
        for b in range(0, tail.shape[1], width):
            sums = head[:, a : a + per_chunk, None] + tail[:, None, b : b + width]
            norm_sq = sums[0] * sums[0]
            for component in sums[1:]:
                norm_sq = norm_sq + component * component
            yield norm_sq.ravel()


def _scalar_residual(A, beta):
    d, cols = A.shape
    residual = [math.fsum([beta[j] * A[t, j] for j in range(cols)]) for t in range(d)]
    return math.fsum([abs(r) for r in residual]), max(abs(b) for b in beta)


def _scalar_factor(A):
    """Gaussian elimination with partial pivoting on [B | a | I] over full
    rows (a zero multiplier leaves its row alone), then back substitution
    solving U z = -y: +1 at the first column whose pivot is at most 1e-14
    of the column's largest entry, and -B^-1 when B has full rank."""
    d = A.shape[0]
    m = np.hstack([A, np.eye(d)])
    rank = d
    for c in range(d):
        p = c
        for t in range(c + 1, d):
            if abs(m[t, c]) > abs(m[p, c]):
                p = t
        colmax = np.float64(0.0)
        for t in range(d):
            colmax = max(colmax, abs(A[t, c]))
        if not abs(m[p, c]) > 1e-14 * colmax:
            rank = c
            break
        m[[c, p]] = m[[p, c]]
        for t in range(c + 1, d):
            f = m[t, c] / m[c, c]
            if f != 0.0:
                for j in range(c + 1, 2 * d + 1):
                    m[t, j] = m[t, j] - f * m[c, j]
    # Right-hand sides: the free column, and the identity's columns too at full rank.
    sides = list(range(d, 2 * d + 1)) if rank == d else [rank]
    z = np.zeros((rank, len(sides)))
    for r in reversed(range(rank)):
        for k, j in enumerate(sides):
            acc = -m[r, j]
            for s in range(r + 1, rank):
                acc = acc - m[r, s] * z[s, k]
            z[r, k] = acc / m[r, r]
    beta = np.zeros(d + 1)
    beta[:rank] = z[:, 0]
    beta[rank] = 1.0
    return beta, (z[:, 1:] if rank == d else None)


def _scalar_null_vector(A, inverse):
    """The library's null vector of the d x (d+1) subset matrix A on numpy
    scalars: from the carried -B^-1 ``inverse`` (a (d, d) array) when its
    residual is within 1e-14 ||beta||_inf, else from a fresh factorization,
    within 1e-8 ||beta||_inf.  Every sum of products is math.fsum of the
    products, each rounded first, as the library's fsum of map(mul).
    Returns beta, the inverse to carry (None when there is none) and
    max |beta_j|."""
    d = A.shape[0]
    if inverse is not None:
        beta = np.ones(d + 1)
        for j in range(d):
            beta[j] = math.fsum([inverse[j, t] * A[t, d] for t in range(d)])
        error, scale = _scalar_residual(A, beta)
        if error <= 1e-14 * scale:
            return beta, inverse, scale
    beta, inverse = _scalar_factor(A)
    error, scale = _scalar_residual(A, beta)
    assert error <= 1e-8 * scale, f"null combination residual {error!r}"
    return beta, inverse, scale


def scalar_eliminate_rows(rows, values, k, snap=5e-13):
    """Elimination on numpy scalars: each round takes the d+1 lowest-index
    fractional coefficients, moves them along the null vector with +1 on the
    last of them (its first d vectors' -B^-1 carried from the round before,
    or made afresh) until one binds at +/-1 (smallest |scale|, ties to the
    positive side), clips every coefficient to [-1, 1] and snaps those
    within ``snap`` of +/-1.  -B^-1 is carried on when one basis coordinate
    binds (a rank-one update, its row moved last) or the last one binds
    alone, and dropped otherwise.  Returns the coefficients and the indices
    still fractional."""
    d = rows.shape[1]
    values = np.array(values, dtype=float)
    fractional = [i for i in range(len(values)) if abs(values[i]) < 1.0]
    inverse = None
    while len(fractional) > k:
        subset = fractional[: d + 1]
        beta, inverse, scale = _scalar_null_vector(rows[subset].T, inverse)
        hi, hi_local, hi_target = math.inf, -1, 0
        lo, lo_local, lo_target = -math.inf, -1, 0
        for loc, i in enumerate(subset):
            b = beta[loc]
            if abs(b) < 1e-14 * scale:
                continue
            room_up = (1.0 - values[i]) / b
            room_down = (-1.0 - values[i]) / b
            pos, pos_target = (room_up, 1) if b > 0 else (room_down, -1)
            neg, neg_target = (room_down, -1) if b > 0 else (room_up, 1)
            if pos < hi:
                hi, hi_local, hi_target = pos, loc, pos_target
            if neg > lo:
                lo, lo_local, lo_target = neg, loc, neg_target
        if hi <= -lo:
            gamma, binding_local, target = hi, hi_local, hi_target
        else:
            gamma, binding_local, target = lo, lo_local, lo_target
        for loc, i in enumerate(subset):
            values[i] += gamma * beta[loc]
        np.clip(values, -1.0, 1.0, out=values)
        values[subset[binding_local]] = float(target)
        for i in subset:
            if abs(abs(values[i]) - 1.0) < snap:
                values[i] = math.copysign(1.0, values[i])
        bound = [loc for loc, i in enumerate(subset) if abs(values[i]) == 1.0]
        if bound != [d]:
            p = bound[0]
            if len(bound) == 1 and inverse is not None and abs(beta[p]) > 1e-12 * scale:
                row = np.empty(d)
                for t in range(d):
                    row[t] = inverse[p, t] / -beta[p]
                updated = np.empty((d, d))
                for j in range(d):
                    for t in range(d):
                        updated[j, t] = inverse[j, t] + beta[j] * row[t]
                updated[p] = row
                inverse = updated[[j for j in range(d) if j != p] + [p]]
            else:
                inverse = None
        fractional = [i for i in fractional if abs(values[i]) < 1.0]
    return values, fractional


def _exact_null_vector(columns):
    """The null vector of d+1 exact vectors with +1 at the first column that
    is a combination of the ones before it and 0 past it, by Gauss-Jordan in
    Fraction arithmetic, and the smallest |pivot| relative to its column's
    largest entry."""
    d = len(columns[0])
    m = [[col[t] for col in columns] for t in range(d)]
    pivots, least = [], math.inf
    for c, col in enumerate(columns):
        r = len(pivots)
        p = next((t for t in range(r, d) if m[t][c] != 0), None)
        if p is None:
            beta = [Fraction(0)] * len(columns)
            beta[c] = Fraction(1)
            for row, pc in enumerate(pivots):
                beta[pc] = -m[row][c]
            return beta, least
        least = min(least, abs(m[p][c]) / max(abs(x) for x in col))
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for t in range(d):
            if t != r and m[t][c] != 0:
                f = m[t][c]
                m[t] = [x - f * y for x, y in zip(m[t], m[r])]
        pivots.append(c)
    raise AssertionError("d vectors in dimension d leave no free column among d+1")


def exact_eliminate_rows(rows, values, k):
    """The elimination rule in Fraction arithmetic on the exact values of the
    float inputs: each round takes the d+1 lowest-index fractional
    coefficients, moves them along the null vector with +1 at its free
    column until the first binds at +/-1 (ties to the positive side), with
    no clipping or snapping.  Returns the exact coefficients, the indices
    still fractional and ``margin``: the least relative gap, over all rounds,
    between the two smallest ratios on the side taken, between the two
    sides, of a moved coefficient to +/-1 or of a beta entry to 0, and the
    least relative pivot.  A float run can decide otherwise only where the
    margin is near rounding."""
    d = rows.shape[1]
    vectors = [[Fraction(x) for x in row] for row in rows.tolist()]
    values = [Fraction(float(x)) for x in values]
    fractional = [i for i, x in enumerate(values) if abs(x) < 1]
    margin = math.inf
    while len(fractional) > k:
        subset = fractional[: d + 1]
        beta, least_pivot = _exact_null_vector([vectors[i] for i in subset])
        scale = max(abs(b) for b in beta)
        ups, downs = [], []
        for loc, (i, b) in enumerate(zip(subset, beta)):
            if b != 0:
                margin = min(margin, abs(b) / scale)
                up, down = (1 - values[i]) / b, (-1 - values[i]) / b
                ups.append((down, loc) if b < 0 else (up, loc))
                downs.append((-up, loc) if b < 0 else (-down, loc))
        ups.sort()
        downs.sort()
        hi, lo = ups[0][0], -downs[0][0]
        side = ups if hi <= -lo else downs
        gamma, binding = (hi, ups[0][1]) if hi <= -lo else (lo, downs[0][1])
        gaps = [abs(hi + lo) / (hi - lo), least_pivot]
        if len(side) > 1:
            gaps.append((side[1][0] - side[0][0]) / (abs(side[1][0]) + abs(side[0][0])))
        for loc, (i, b) in enumerate(zip(subset, beta)):
            values[i] += gamma * b
            if loc != binding:
                gaps.append(1 - abs(values[i]))
        margin = min(margin, *gaps)
        fractional = [i for i in fractional if abs(values[i]) < 1]
    return values, fractional, float(margin)


def census(config, radius, tol=1e-12):
    """All-assignments census: returns (hit_set, min_norm, argmin_signs,
    norms). Hits use the same closed-ball rule norm^2 <= r^2 + tol."""
    rows = [list(map(float, row)) for row in config.vectors]
    d = config.dim
    rsq = float(radius) * float(radius)
    hits = set()
    norms = {}
    best = None
    for signs in itertools.product((1, -1), repeat=config.n):
        total = [0.0] * d
        for eta, row in zip(signs, rows):
            for k in range(d):
                total[k] += eta * row[k]
        ns = sum(x * x for x in total)
        norms[signs] = math.sqrt(ns)
        if ns <= rsq + tol:
            hits.add(signs)
        key = (ns, tuple(0 if s > 0 else 1 for s in signs))
        if best is None or key < best[0]:
            best = (key, signs)
    return hits, math.sqrt(best[0][0]), best[1], norms


def brute_min(config, chunk=1 << 12):
    """Minimum signed-sum norm by direct evaluation: itertools.product sign
    rows, one matmul per chunk of them, and the first minimum in product
    order, which is lexicographic with +1 before -1."""
    rows = np.array([[float(x) for x in row] for row in config.vectors])
    assignments = itertools.product((1, -1), repeat=config.n)
    best_sq = signs = None
    while block := list(itertools.islice(assignments, chunk)):
        sums = np.array(block, dtype=float) @ rows
        norms_sq = np.einsum("ij,ij->i", sums, sums)
        i = int(np.argmin(norms_sq))
        if best_sq is None or norms_sq[i] < best_sq:
            best_sq, signs = float(norms_sq[i]), block[i]
    return math.sqrt(best_sq), signs


def greedy_pass(rows, lam, order):
    """One greedy pass over ``order`` with the sign that keeps the running
    sum shortest, ties to +1: returns signs by index (0 if unvisited) and
    the final sum."""
    signs = [0] * len(rows)
    s = np.zeros(rows.shape[1])
    for i in order:
        plus = s + (lam[i] + 1.0) * rows[i]
        minus = s + (lam[i] - 1.0) * rows[i]
        signs[i] = 1 if float(plus @ plus) <= float(minus @ minus) else -1
        s = plus if signs[i] == 1 else minus
    return signs, s


def split_always_balance(config, zeta=None, seed=0):
    """parity_balance on unit vectors with an oblique pair, trying
    projection_split wherever its premises hold (d >= 3 and a unit pair;
    no vector is longer than 1 + 2e-9) whether or not it can set the guarantee:
    the root of the least of the floor, pair-first and split bounds on the
    squared norm, the first of equal bounds named, and the exact minimiser up to
    EXHAUSTIVE_FALLBACK_CAP, above it the first best of approximate_point,
    the pair-first greedy pass, the split and GREEDY_ORDERS - 1 random
    greedy passes."""
    d, n = config.dim, config.n
    zeta = balancing.default_zeta(d) if zeta is None else zeta
    rows = config.as_array()
    assert all(abs(float(row @ row) - 1.0) <= 2e-9 for row in rows), "unit vectors only"
    iu, iw = balancing.detect_oblique(config, zeta**0.25)
    bounds = {"floor": d - balancing.paper_epsilon(d),
              "pair-first": n - 2.0 * abs(float(rows[iu] @ rows[iw]))}
    splits = []
    if d >= 3 and is_unit(rows[iu]) and is_unit(rows[iw]):
        try:
            split = balancing.projection_split(config, pair=(iu, iw), zeta=zeta)
        except (ProjectionTooLong, NotOblique, DegeneratePlane):
            pass
        else:
            bounds["projection split"] = split.guarantee**2
            splits.append((split.achieved_norm, split.signs.signs))
    certificate = min(bounds, key=bounds.get)
    if n <= balancing.EXHAUSTIVE_FALLBACK_CAP:
        achieved, signs = min_signed_norm(config)
    else:
        rng = np.random.default_rng([seed, 1])
        orders = [[iu, iw] + [i for i in range(n) if i not in (iu, iw)]]
        orders += [rng.permutation(n) for _ in range(balancing.GREEDY_ORDERS - 1)]
        greedy = []
        for order in orders:
            signs = greedy_pass(rows, np.zeros(n), order)[0]
            greedy.append((float(np.linalg.norm((0.0 + np.array(signs)) @ rows)), tuple(signs)))
        approx = balancing.approximate_point(config)
        candidates = [(approx.achieved_norm, approx.signs.signs), greedy[0], *splits, *greedy[1:]]
        achieved, signs = min(candidates, key=lambda c: c[0])  # the first of equal norms
        signs = SignAssignment(signs)
    return balancing.BalanceReport("parity_balance", signs, achieved,
                                   math.sqrt(bounds[certificate]), "oblique", certificate)


def loop_projection_split(config, lam, pair, zeta):
    """projection_split on a given pair, one vector at a time: each other
    vector's projection by its own 2x2 normal equations (scalar products
    ``y @ u``, ``y @ w``) and length check in index order, its complement
    coordinates by one matrix-vector product, and the in-plane residue
    accumulated vector by vector."""
    d = config.dim
    rows = config.as_array()
    lam_arr = np.zeros(config.n) if lam is None else np.asarray(lam, dtype=float)
    iu, iw = pair
    u, w = rows[iu], rows[iw]
    g = float(np.dot(tuple(u.tolist()), tuple(w.tolist())))
    if abs(g) >= 1.0 - 1e-12:
        raise DegeneratePlane(f"|gram| = {abs(g)!r}")
    others = [i for i in range(config.n) if i not in (iu, iw)]
    bound = 2.0 * zeta**0.75
    in_plane, perp = [], []
    for i in others:
        yu, yw = float(rows[i] @ u), float(rows[i] @ w)
        z_in = (yu - g * yw) / (1.0 - g * g) * u + (yw - g * yu) / (1.0 - g * g) * w
        length = float(np.linalg.norm(z_in))
        if length > bound + 1e-12:
            raise ProjectionTooLong(i, length, bound)
        in_plane.append(z_in)
        perp.append(rows[i] - z_in)
    Q, _ = np.linalg.qr(np.column_stack([u, w]), mode="complete")
    comp = Q[:, 2:]
    perp_coords = np.array([comp.T @ z for z in perp]).reshape(len(others), d - 2)
    signs = np.zeros(config.n, dtype=int)
    signs[others] = balancing._approximate_rows(perp_coords, lam_arr[others])
    residue = np.zeros(d)
    for i, z_in in zip(others, in_plane):
        residue += (lam_arr[i] + signs[i]) * z_in

    def plane_sq(eu, ew):
        cand = (lam_arr[iu] + eu) * u + (lam_arr[iw] + ew) * w + residue
        return float(cand @ cand)

    signs[[iu, iw]] = min(((1, 1), (1, -1), (-1, 1), (-1, -1)), key=lambda e: plane_sq(*e))
    achieved = float(np.linalg.norm((lam_arr + signs) @ rows))
    return achieved, tuple(signs.tolist())


def min_approx_error_sq(config, lam):
    """min over eta of ||sum (lam_i + eta_i) v_i||^2 by direct evaluation."""
    rows = np.asarray([[float(x) for x in row] for row in config.vectors])
    offset = np.asarray(lam, dtype=float) @ rows
    best = math.inf
    for signs in itertools.product((1, -1), repeat=config.n):
        total = offset + np.asarray(signs, dtype=float) @ rows
        best = min(best, float(total @ total))
    return best


def chord_by_intersection(r, a, theta):
    """Chord length via explicit circle-line intersection.

    Places the secant's anchor point at (sqrt(r^2 - a^2), 0), builds the line
    tilted by theta from the tangential direction, and solves |P + t*dir| = r
    for the two crossing parameters.
    """
    p = math.sqrt(r * r - a * a)
    anchor = np.array([p, 0.0])
    direction = np.array([-math.sin(theta), math.cos(theta)])
    # |anchor + t*direction|^2 = r^2  ->  t^2 + 2 t <anchor, dir> + p^2 - r^2 = 0
    b = 2.0 * float(anchor @ direction)
    c = p * p - r * r
    roots = np.roots([1.0, b, c])
    assert np.all(np.isreal(roots)), "secant must cross the circle twice"
    t1, t2 = np.real(roots)
    return abs(t1 - t2)


def polar_by_eigh(X):
    """Nearest orthogonal matrix via X (X^T X)^(-1/2), eigendecomposition
    route (independent of the SVD route used by the library)."""
    X = np.asarray(X, dtype=float)
    gram = X.T @ X
    w, V = np.linalg.eigh(gram)
    inv_sqrt = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
    return X @ inv_sqrt


def uniform_sphere_abs_inner(d, pairs, seed):
    """Monte Carlo estimate of E|<u, v>| for independent uniform unit vectors."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((pairs, d))
    v = rng.standard_normal((pairs, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return float(np.mean(np.abs(np.einsum("ij,ij->i", u, v))))


def _least_norm(sums):
    """The least row norm of (m, d) sums, each norm^2 summed in component order."""
    total = sums[:, 0] * sums[:, 0]
    for k in range(1, sums.shape[1]):
        total = total + sums[:, k] * sums[:, k]
    return math.sqrt(float(total.min()))


def serial_search(spec):
    """The hill climb of search.maximize_min_norm, one restart and one step
    at a time on the full 2^n sign table: returns (best_rows, best_value,
    history, exceeded_target).  best_value is the climb's settled value, not
    an exact re-enumeration.  Each restart draws from default_rng([seed, r]):
    its rows, then per window of search.WINDOW steps the picks, the noise
    and one coin per step, read only on an exact tie."""
    from signsum import search

    combos = np.array(list(itertools.product((1.0, -1.0), repeat=spec.n)))
    best_value, best_rows, history, exceeded = -1.0, None, [], False
    for restart in range(spec.restarts):
        rng = np.random.default_rng([spec.seed, restart])
        rows = rng.standard_normal((spec.n, spec.d))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        sums = combos @ rows
        value = _least_norm(sums)
        trace = [value]
        step = spec.step_init
        for t in range(spec.steps):
            j = t % search.WINDOW
            if j == 0:
                width = min(search.WINDOW, spec.steps - t)
                picks = rng.integers(spec.n, size=width)
                noise = rng.standard_normal((width, spec.d))
                coins = rng.random(width)
            i = int(picks[j])
            moved = rows[i] + step * noise[j]
            moved /= np.sqrt(np.vecdot(moved, moved))
            new_sums = sums + np.outer(combos[:, i], moved - rows[i])
            new_value = _least_norm(new_sums)
            if new_value > value or (new_value == value and coins[j] < 0.5):
                rows = rows.copy()
                rows[i] = moved
                sums = new_sums
                if new_value > value:
                    trace.append(new_value)
                value = new_value
            step *= spec.step_decay
        value = _least_norm(combos @ rows)
        history.append(tuple(trace))
        if value > best_value:
            best_value, best_rows = value, rows
        if spec.target is not None and best_value > spec.target:
            exceeded = True
            break
    return best_rows, best_value, tuple(history), exceeded


def serial_falsifier(config, r, budget, seed):
    """The coordinate ascent of balancing.approximation_falsifier, on the
    library's ladder, with every candidate scored by a fresh
    meet-in-the-middle g(lam): returns (best_value, best_coefficients,
    witness, best_start), the coefficients as a tuple and the witness as a
    tuple or None."""
    from signsum.balancing import _ASCENT_LADDER, _MAX_SWEEPS_PER_STEP

    n, d = config.n, config.dim
    rows = config.as_array()

    split = (n + 1) // 2
    head, tail = doubling_sign_table(rows[:split]), doubling_sign_table(rows[split:])

    def g(lam: np.ndarray) -> float:
        sums = (head + lam @ rows).T[:, :, None] + tail.T[:, None, :]
        return float((sums * sums).sum(axis=0).min())

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

    coeffs = tuple(float(x) for x in best_lam)
    return best_val, coeffs, coeffs if best_val > r else None, best_start


def exact_census(rows, radius_sq, threshold, tol):
    """Census of exact rows (Fractions) in Fraction arithmetic: hits
    (norm^2 <= threshold), the band (radius_sq < norm^2 <= threshold), the
    margin (least |norm^2 - radius_sq| above tol, or None), the least
    norm^2 and its first assignment in product order, and every norm^2.
    Walks the eta_1 = +1 half; its negation has the same norms."""
    norms = []
    for tail in itertools.product((1, -1), repeat=len(rows) - 1):
        signs = (1, *tail)
        total = [sum(eta * row[k] for eta, row in zip(signs, rows)) for k in range(len(rows[0]))]
        norms.append((sum(x * x for x in total), signs))
    gaps = [abs(ns - radius_sq) for ns, _ in norms if abs(ns - radius_sq) > tol]
    least = min(norms, key=lambda item: item[0])  # the first of equal norms
    return {
        "hits": 2 * sum(ns <= threshold for ns, _ in norms),
        "band": 2 * sum(radius_sq < ns <= threshold for ns, _ in norms),
        "margin": min(gaps) if gaps else None,
        "least": least[0],
        "argmin": least[1],
        "norms": [ns for ns, _ in norms],
    }
