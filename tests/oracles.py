"""Independent oracles used to cross-check the library.

Everything here deliberately avoids the library's own code paths: the census
walks assignments with itertools.product and sums vectors directly (no
partial-sum tables, no incremental updates), the chord oracle solves the
circle-line intersection quadratic, the polar oracle goes through an
eigenvalue square root instead of the SVD, and the greedy oracle takes one
vector at a time instead of one step of a batch of orders.
"""

import itertools
import math

import numpy as np


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


def brute_min(config):
    """Minimum signed-sum norm by direct evaluation."""
    _, value, signs, _ = census(config, 0.0)
    return value, signs


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
