"""Adversarial configuration search: maximise f(V) = min over signs of
||sum eta_i v_i|| across unit-vector configurations.

The objective is a minimum over 2^n smooth functions, hence piecewise smooth
with flat ridges, so the search is a gradient-free hill climb on the product
of spheres: perturb one vector at a time (only the 2^n partial sums touching
that vector change), accept improvements, accept sideways moves with
probability 1/2 to walk along ridges, and decay the perturbation scale
geometrically.  Negation is exact, so the climb keeps only the eta_1 = +1
half of the sign table, component-major, and sums each norm^2 over the
components in index order.  Each restart's seeded generator draws its rows,
then per WINDOW steps the picks, the noise and a tie coin per step.  A
rejected proposal changes nothing, so a block's restarts climb in
speculative rounds: each scores its next K proposals in one (R, K, d,
2^(n-1)) array and jumps past the first one accepted.  K falls as the
table grows and R restarts fit their sums and window draws in
LOCKSTEP_BYTES; no result depends on either.  Restarts merge
deterministically; the best value is re-verified by exact enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import VectorConfig, check_enumerable, min_signed_norm, sign_columns

COUNTEREXAMPLE_MARGIN = 1e-6
# Byte budget for a block of R restarts: a round's R * K * d * 2^(n-1) * 8
# bytes of sums, K proposals each, plus every restart's window draws.
LOCKSTEP_BYTES = 1 << 20
# Steps whose picks, noise and coins a restart draws at once.
WINDOW = 256


@dataclass(frozen=True)
class SearchSpec:
    """Search budget and schedule; fully determines the result."""

    d: int
    n: int
    restarts: int = 20
    steps: int = 2000
    step_init: float = 0.25
    step_decay: float = 0.998
    seed: int = 0
    target: float | None = None

    def __post_init__(self):
        if self.d < 1 or self.n < 1:
            raise ValueError("need d >= 1 and n >= 1")
        if self.restarts < 1 or self.steps < 1:
            raise ValueError("restarts and steps must be >= 1")
        if not (0 < self.step_init < math.inf) or not 0 < self.step_decay <= 1:
            raise ValueError("step sizes must be positive and decay in (0, 1]")
        if self.target is not None and not (-math.inf < self.target < math.inf):
            raise ValueError(f"target must be finite, got {self.target!r}")


@dataclass(frozen=True)
class SearchResult:
    """Best configuration found; best_value is the exact enumerated minimum
    of the best configuration, not the search's own bookkeeping."""

    spec: SearchSpec
    best_config: VectorConfig
    best_value: float
    history: tuple[tuple[float, ...], ...]
    exceeded_target: bool
    counterexample_candidate: bool


def maximize_min_norm(spec: SearchSpec) -> SearchResult:
    """Random-restart hill climbing over n unit vectors in R^d.

    Deterministic for a fixed spec: restart r draws from default_rng([seed,
    r]), whatever block and K it climbs with, and the merge takes the
    maximum, ties to the lowest restart index.  A configuration beating
    sqrt(d-1) at mismatched parity is flagged as a counterexample candidate.
    """
    check_enumerable(spec.n)  # before the 2^n sign table is built
    best_value = -1.0
    best_rows = None
    history: list[tuple[float, ...]] = []
    exceeded = False

    for rows, trace, value in _restarts(spec):
        history.append(tuple(trace))
        if value > best_value:
            best_value = value
            best_rows = rows
        if spec.target is not None and best_value > spec.target:
            exceeded = True
            break

    config = VectorConfig(
        dim=spec.d,
        vectors=tuple(tuple(map(float, r)) for r in best_rows),
    )
    exact_value, _ = min_signed_norm(config)
    if abs(exact_value - best_value) > 1e-9:
        raise AssertionError(
            f"search bookkeeping drifted from the oracle: {best_value!r} vs {exact_value!r}"
        )
    counterexample = (
        spec.n % 2 != spec.d % 2
        and exact_value > math.sqrt(spec.d - 1) + COUNTEREXAMPLE_MARGIN
    )
    return SearchResult(
        spec=spec,
        best_config=config,
        best_value=exact_value,
        history=tuple(history),
        exceeded_target=exceeded,
        counterexample_candidate=counterexample,
    )


def _min_norms(sums: np.ndarray) -> np.ndarray:
    """Least norm over the last axis of sums (..., d, m), each norm^2 summed in
    component order (add.reduce is not sequential at m = 1, d >= 8)."""
    squares = sums * sums
    total = squares[..., 0, :]
    for k in range(1, sums.shape[-2]):
        total = total + squares[..., k, :]
    return np.sqrt(total.min(axis=-1))


def _restarts(spec: SearchSpec):
    """Yield each restart's (rows, trace, settled value) in restart order,
    climbing one block of restarts at a time."""
    # C-contiguous (2^(n-1), n): BLAS's half @ rows may round by layout.
    half = np.ascontiguousarray(sign_columns(np.eye(spec.n))[:, : 1 << (spec.n - 1)].T)
    proposal = half.shape[0] * spec.d * 8
    ahead = min(_proposals(half.shape[0]), max(1, LOCKSTEP_BYTES // proposal))
    # A restart's window holds 8 + 8d + 1 bytes of picks, noise and coins per
    # step, twice while they are stacked, and 8d bytes of kicks.
    window = WINDOW * (18 + 24 * spec.d)
    block = max(1, LOCKSTEP_BYTES // (ahead * proposal + window))
    for first in range(0, spec.restarts, block):
        yield from zip(*_climb(spec, half, range(first, min(first + block, spec.restarts)), ahead))


def _proposals(sums: int) -> int:
    """K for a half table of ``sums`` sums: a proposal past the accepted one
    is a wasted pass over the table, so K = sqrt(2^16 / sums) within [6, 32]."""
    return min(32, max(6, math.isqrt(65536 // sums)))


def _climb(spec: SearchSpec, half: np.ndarray, restarts: range, ahead: int):
    """Run the given restarts together on one (R, d, 2^(n-1)) sum table, in
    rounds of ``ahead`` proposals each; return each restart's rows, trace
    and settled value."""
    rngs = [np.random.default_rng([spec.seed, r]) for r in restarts]
    rows = np.array([rng.standard_normal((spec.n, spec.d)) for rng in rngs])
    rows /= np.linalg.norm(rows, axis=2, keepdims=True)
    sums = (half @ rows).transpose(0, 2, 1).copy()
    values = _min_norms(sums)
    traces = [[v] for v in values.tolist()]
    columns = half.T.copy()  # row i holds the half table's signs of vector i
    offsets = np.arange(ahead)
    step = spec.step_init
    for start in range(0, spec.steps, WINDOW):
        width = min(WINDOW, spec.steps - start)
        draws = [(rng.integers(spec.n, size=width), rng.standard_normal((width, spec.d)),
                  rng.random(width) < 0.5) for rng in rngs]  # a sideways move needs heads
        picks, noise, heads = map(np.array, zip(*draws))
        sizes = np.multiply.accumulate(np.r_[step, np.full(width - 1, spec.step_decay)])
        step, kicks = sizes[-1] * spec.step_decay, sizes[:, None] * noise
        live, cursor = np.arange(len(rngs)), np.zeros(len(rngs), dtype=np.intp)
        while live.size:
            who, at = live[:, None], cursor[:, None] + offsets
            valid = at < width
            at = np.minimum(at, width - 1)
            picked = picks[who, at]
            old = rows[who, picked]
            moved = old + kicks[who, at]
            # vecdot rounds as the 1-D norm does; norm(axis=-1) and einsum do not.
            moved /= np.sqrt(np.vecdot(moved, moved))[..., None]
            new_sums = sums[who] + columns[picked][:, :, None, :] * (moved - old)[..., None]
            new = _min_norms(new_sums)
            current = values[who]
            accept = valid & ((new > current) | ((new == current) & heads[who, at]))
            taken, first = accept.any(axis=1), accept.argmax(axis=1)
            cursor += np.where(taken, first + 1, ahead)
            won, first = live[taken], first[taken]
            gained = new[taken, first]
            better = gained > values[won]
            for r, v in zip(won[better].tolist(), gained[better].tolist()):
                traces[r].append(v)
            rows[won, picked[taken, first]] = moved[taken, first]
            sums[won] = new_sums[taken, first]
            values[won] = gained
            live, cursor = live[cursor < width], cursor[cursor < width]
    # Incremental updates drift; settle each restart's value from scratch
    # (the trace keeps the incremental values so it stays nondecreasing).
    return rows, traces, _min_norms((half @ rows).transpose(0, 2, 1)).tolist()


def _balanced_odd_multiplicities(d: int, n: int) -> list[int] | None:
    """All-odd multiplicities summing to n, as equal as possible, or None
    when the parity makes that impossible."""
    if n < d or (n - d) % 2 != 0:
        return None
    mults = [1] * d
    spare = (n - d) // 2
    for i in range(spare):
        mults[i % d] += 2
    return mults


def parity_sweep(
    d_max: int,
    n_max: int,
    seed: int = 0,
    restarts: int = 12,
    steps: int = 1500,
) -> list[dict]:
    """Best-known min signed-sum norm for every (d, n) grid point.

    Combines hill-climb search with the structured candidate (odd
    multiplicities of an orthonormal basis) whenever parity admits one; the
    expected pattern is ~sqrt(d) at matched parity and strictly smaller
    otherwise.
    """
    from .constructions import construct_orthonormal_multiplicity

    table = []
    for d in range(1, d_max + 1):
        for n in range(1, n_max + 1):
            result = maximize_min_norm(
                SearchSpec(d=d, n=n, restarts=restarts, steps=steps, seed=seed)
            )
            best = result.best_value
            source = "search"
            mults = _balanced_odd_multiplicities(d, n)
            if mults is not None:
                structured = construct_orthonormal_multiplicity(d, mults)
                value, _ = min_signed_norm(structured)
                if value > best:
                    best = value
                    source = "orthonormal-multiplicity"
            table.append(
                {
                    "d": d,
                    "n": n,
                    "parity": "matched" if n % 2 == d % 2 else "mismatched",
                    "best_value": best,
                    "source": source,
                }
            )
    return table
