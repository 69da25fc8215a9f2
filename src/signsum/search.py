"""Adversarial configuration search: maximise f(V) = min over signs of
||sum eta_i v_i|| across unit-vector configurations.

The objective is a minimum over 2^n smooth functions, hence piecewise smooth
with flat ridges, so the search is a gradient-free hill climb on the product
of spheres: perturb one vector at a time (only the 2^n partial sums touching
that vector change), accept improvements, accept sideways moves with
probability 1/2 to walk along ridges, and decay the perturbation scale
geometrically.  Restarts are seeded independently and merged
deterministically; the reported best value is re-verified by exact
enumeration before returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ENUMERATION_CAP, VectorConfig, min_signed_norm, sign_table
from .errors import TooLarge

COUNTEREXAMPLE_MARGIN = 1e-6


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


def maximize_min_norm(spec: SearchSpec, cap: int = ENUMERATION_CAP) -> SearchResult:
    """Random-restart hill climbing over n unit vectors in R^d.

    Deterministic for a fixed spec: restart r draws from default_rng([seed,
    r]) and the merge takes the maximum, ties to the lowest restart index.
    A configuration beating sqrt(d-1) at mismatched parity is flagged as a
    counterexample candidate.
    """
    if spec.n > cap:
        raise TooLarge(f"n = {spec.n} exceeds the enumeration cap {cap}")
    combos = sign_table(np.eye(spec.n))
    best_value = -1.0
    best_rows = None
    history: list[tuple[float, ...]] = []
    exceeded = False

    for restart in range(spec.restarts):
        rng = np.random.default_rng([spec.seed, restart])
        rows = rng.standard_normal((spec.n, spec.d))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        sums = combos @ rows
        value = math.sqrt(float(np.min(np.einsum("ij,ij->i", sums, sums))))
        trace = [value]
        step = spec.step_init
        for _ in range(spec.steps):
            i = int(rng.integers(spec.n))
            moved = rows[i] + step * rng.standard_normal(spec.d)
            moved /= np.linalg.norm(moved)
            new_sums = sums + np.outer(combos[:, i], moved - rows[i])
            new_value = math.sqrt(float(np.min(np.einsum("ij,ij->i", new_sums, new_sums))))
            if new_value > value or (new_value == value and rng.random() < 0.5):
                rows = rows.copy()
                rows[i] = moved
                sums = new_sums
                if new_value > value:
                    trace.append(new_value)
                value = new_value
            step *= spec.step_decay
        # Incremental updates drift; settle the restart's value from scratch
        # (the trace keeps the incremental values so it stays nondecreasing).
        sums = combos @ rows
        value = math.sqrt(float(np.min(np.einsum("ij,ij->i", sums, sums))))
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
