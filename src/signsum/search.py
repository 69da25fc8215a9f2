"""Adversarial configuration search: maximise f(V) = min over signs of
||sum eta_i v_i|| across unit-vector configurations.

The objective is a minimum over 2^n smooth functions, hence piecewise smooth
with flat ridges, so the search is a gradient-free hill climb on the product
of spheres: perturb one vector at a time (only the 2^n partial sums touching
that vector change), accept improvements, accept sideways moves with
probability 1/2 to walk along ridges, and decay the perturbation scale
geometrically.  Negation is exact, so the climb keeps only the eta_1 = +1
half of the sign table, one (n, 2^(n-1)) +-1 table, tabulates rows as
columns.T @ rows, and sums each norm^2 over the components in index order.
Each restart's seeded generator draws its rows, then per WINDOW steps the
picks, the noise and a tie coin per step.  A rejected proposal changes
nothing, so a block's restarts climb in speculative rounds: each scores its
next K proposals in one (d, R, K, 2^(n-1)) array, then settles every
restart on Python floats, writing back the first proposal it accepts and
jumping past it.  Picks and noise are padded by K zero steps, so a round
reads past the window's end without clipping.  K falls as the table grows
and R restarts fit their sums, squares and padded window draws in
LOCKSTEP_BYTES; no result depends on either.  From WINDOWED_SUMS sums up, a
round scores its proposals only on the sums within ``least_window`` of some
live restart's least norm: by the triangle inequality no other sum can
become the least after a move, so trajectories and values keep their bits.
A search whose table and one restart's arrays at K = 1 pass
``core.TABLE_BYTES`` is refused before any table is built.  Restarts merge
deterministically; the best value is re-verified by exact enumeration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constructions import balanced_odd_multiplicities, construct_orthonormal_multiplicity
from .core import VectorConfig, check_enumerable, least_window, min_signed_norm, sign_columns

COUNTEREXAMPLE_MARGIN = 1e-6
# Byte budget for a block of R restarts: a round's R * K * d * 2^(n-1) * 8
# bytes of sums, K proposals each, and as many of squares, plus every
# restart's window draws.
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
    check_enumerable(spec.n, _table_bytes(spec.d, spec.n))
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

    config = VectorConfig(spec.d, tuple(tuple(map(float, r)) for r in best_rows))
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


def _table_bytes(d: int, n: int) -> int:
    """Bytes one restart holds at K = 1, at most: rows of 2^(n-1) floats for
    the +-1 table (n), its sums and their norms^2 (d + 1), and then either a
    round's sums and squares, which take in its gathered signs and sums, or
    the settle's sums, squares and a running norm^2 (2d + 1); and its
    window of draws."""
    return ((n + 3 * d + 2) * 8 << (n - 1)) + WINDOW * (18 + 24 * d)


def _norms_sq(sums: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Norms^2 (...) of sums (d, ...), summed in component order (add.reduce
    is not sequential for one sum at d >= 8) into the first slab of their
    squares (``out`` if given): in place, with no copy when they are C-contiguous."""
    squares = np.multiply(sums, sums, out=out)
    total = squares[0]
    for square in squares[1:]:
        total += square
    return total


def _least(norms_sq: np.ndarray) -> np.ndarray:
    """Least norm over the last axis of norms^2 (..., m)."""
    return np.sqrt(norms_sq.min(axis=-1))


@functools.lru_cache(maxsize=4)
def _half_table(n: int) -> np.ndarray:
    """The eta_1 = +1 half of the n-vector sign table, read-only: (n, 2^(n-1))
    +-1 ``columns``, row i the signs of vector i, 2^(n-1) * n * 8 bytes.
    ``_restarts`` keeps the last four sizes within LOCKSTEP_BYTES (n <= 14)
    cached and builds a larger one per call through ``__wrapped__``."""
    eye = np.eye(n)
    columns = sign_columns(eye[1:])
    columns += eye[0][:, None]
    columns.flags.writeable = False
    return columns


def _restarts(spec: SearchSpec):
    """Yield each restart's (rows, trace, settled value) in restart order,
    climbing one block of restarts at a time.  A block's size counts, per
    restart, K proposals of sums and squares, a window of draws with its K
    steps of padding, and on a windowed table its sums' norms^2."""
    sums = 1 << (spec.n - 1)
    small = spec.n * 8 * sums <= LOCKSTEP_BYTES
    columns = (_half_table if small else _half_table.__wrapped__)(spec.n)
    proposal = 2 * sums * spec.d * 8  # its sums and their squares
    ahead = min(_proposals(sums), max(1, LOCKSTEP_BYTES // proposal))
    # A restart's window holds 8 + 8d bytes of picks and kicks for each of
    # its width + K steps, the K <= width last ones the zero padding a round
    # may read past the window's end, and a coin byte per step, all drawn
    # into place: at most 17 + 16d bytes a step.  The rest of 18 + 24d is
    # left to a round's (R, K, d) arrays and the restart's own sums.
    window = WINDOW * (18 + 24 * spec.d)
    norms = 8 * sums if sums >= WINDOWED_SUMS else 0
    block = max(1, LOCKSTEP_BYTES // (ahead * proposal + window + norms))
    for first in range(0, spec.restarts, block):
        chunk = range(first, min(first + block, spec.restarts))
        yield from zip(*_climb(spec, columns, chunk, ahead))


def _proposals(sums: int) -> int:
    """K for a half table of ``sums`` sums: a proposal past the accepted one
    is a wasted pass over the table, so K = sqrt(2^16 / sums) within [6, 32]."""
    return min(32, max(6, math.isqrt(65536 // sums)))


# Half tables of at least this many sums score a round's proposals on the
# sums that can become the least (``least_window``), and keep each sum's
# norm^2 to find them.  At d = 3 the window's own cost per round, a pass
# over the norms^2 and two gathers, made a search 2-10 % slower at 2^6 sums
# (n = 7) and paid from 2^7 up: 3 % less time at n = 8, 11 % at n = 9 and
# 40 % at n = 11.
WINDOWED_SUMS = 1 << 7
# A round whose window keeps more than this share of the sums scores them
# all, as gathering them costs more than the window saves.  Sums crowd
# towards the least as d grows: at n = 11 the window kept 19 % of them at
# d = 3, 37 % at d = 8, 80 % at d = 16 and all at d = 32.
WINDOW_SHARE = 0.5


def _climb(spec: SearchSpec, columns: np.ndarray, restarts: range, ahead: int):
    """Run the given restarts together on one (R, d, 2^(n-1)) sum table, in
    rounds of K = ``ahead`` proposals (fewer in a shorter window), with the
    ``_half_table(n)`` signs ``columns``; return each restart's rows, trace
    and settled value.  A round settles each restart on Python floats: the
    first proposal that beats its value, or ties it on heads, is written
    back and its cursor jumps past it, else past all K.  The scan stops at
    the window's end, where K zero steps of padding keep the round's reads
    in bounds; sums are gathered by restart only once some restart has left
    the window.

    On a table of WINDOWED_SUMS or more sums, each restart keeps its sums'
    norms^2, and a round scores its proposals only on the sums that some
    live restart's ``least_window`` keeps for the round's longest move,
    unless they are more than WINDOW_SHARE of the table: the least over them
    is the least over the whole table, to the bit.  A proposal accepted in
    a windowed round is added to the restart's full row, whose norms^2 are
    summed afresh, so the stored sums keep the bits of the full update."""
    rngs = [np.random.default_rng([spec.seed, r]) for r in restarts]
    count, n, d = len(rngs), spec.n, spec.d
    rows = np.array([rng.standard_normal((n, d)) for rng in rngs])
    rows /= np.linalg.norm(rows, axis=2, keepdims=True)
    vectors = rows.reshape(-1, d)  # row r * n + i is vector i of restart r
    sums = (columns.T @ rows).transpose(0, 2, 1).copy()
    totals = _norms_sq(sums.transpose(1, 0, 2))
    values = _least(totals).tolist()
    windowed = sums.shape[2] >= WINDOWED_SUMS
    norms = totals.copy() if windowed else None
    del totals
    traces = [[v] for v in values]
    everyone = np.arange(count)[:, None]
    step = spec.step_init
    for start in range(0, spec.steps, WINDOW):
        width = min(WINDOW, spec.steps - start)
        k = min(ahead, width)
        span = width + k  # step t of restart r is entry r * span + t of picks and kicks
        picks = np.zeros(count * span, dtype=np.intp)
        kicks = np.zeros((count * span, d))
        heads = np.empty((count, width), dtype=bool)  # a sideways move needs heads
        for r, rng in enumerate(rngs):
            drawn = slice(r * span, r * span + width)
            picks[drawn] = rng.integers(n, size=width)
            rng.standard_normal(out=kicks[drawn])
            heads[r] = rng.random(width) < 0.5
        sizes = np.full(width, spec.step_decay)
        sizes[0] = step
        step = np.multiply.accumulate(sizes, out=sizes)[-1] * spec.step_decay
        kicks.reshape(count, span, d)[:, :width] *= sizes[:, None]
        offsets = np.arange(k)
        # A round's sums and squares: arrays that size made and freed every
        # round were faulted in afresh and made a search up to twice as slow.
        buffers = np.empty((2, count * k * d * sums.shape[2]))
        cursor = [0] * count
        live = list(range(count))
        while live:
            who = everyone if len(live) == count else np.array(live)[:, None]
            at = np.array([r * span + cursor[r] for r in live])[:, None] + offsets
            picked = picks.take(at)
            old = vectors.take(picked + who * n, axis=0)
            moved = old + kicks.take(at, axis=0)
            # vecdot rounds as the serial climb's 1-D vecdot does on OpenBLAS's
            # SkylakeX kernel, not on Prescott (ROADMAP item 15); norm(axis=-1)
            # and einsum differ even there.
            moved /= np.sqrt(np.vecdot(moved, moved))[..., None]
            update = moved - old
            near = None
            if windowed:
                shifts = np.sqrt(np.vecdot(update, update)).max(axis=1).tolist()
                within = np.zeros(sums.shape[2], dtype=bool)
                for r, shift in zip(live, shifts):
                    within |= norms[r] <= least_window(values[r], shift)
                kept = within.nonzero()[0]
                near = kept if kept.size <= WINDOW_SHARE * within.size else None
            # The picked vectors' signs go to the squares' buffer (mode="clip":
            # no copy); on a window, as whole rows to the sums' buffer first.
            whole = buffers[int(near is None), : picked.size * columns.shape[1]]
            signs = columns.take(picked.ravel(), axis=0, mode="clip",
                                 out=whole.reshape(picked.size, -1))
            if near is not None:
                signs = signs.take(near, axis=1, mode="clip", out=buffers[
                    1, : picked.size * near.size].reshape(picked.size, -1))
            # (d, R, K, sums), component-major for _norms_sq.
            new_sums = np.multiply(update.reshape(-1, d).T[:, :, None], signs,
                                   out=buffers[0, : d * signs.size].reshape(d, picked.size, -1))
            new_sums = new_sums.reshape(d, len(live), k, -1)
            # The signs are spent: a window's sums go to the squares' buffer.
            base = sums if near is None else sums.take(near, axis=2, mode="clip", out=buffers[
                1, : count * d * near.size].reshape(count, d, -1))
            # + commutes: the bits of sums + update.
            new_sums += (base[:, None] if who is everyone else base[who]).transpose(2, 0, 1, 3)
            totals = _norms_sq(new_sums, buffers[1, : new_sums.size].reshape(new_sums.shape))
            for j, (r, new) in enumerate(zip(live, _least(totals).tolist())):
                place, current = cursor[r], values[r]
                for i, value in enumerate(new[: width - place]):
                    if value >= current and (value > current or heads[r, place + i]):
                        rows[r, picked[j, i]] = moved[j, i]
                        if near is None:
                            sums[r] = new_sums[:, j, i]
                            if windowed:
                                norms[r] = totals[j, i]
                        else:
                            # The buffers, read no more this round, hold the update.
                            one = slice(sums[r].size)
                            sums[r] += np.multiply(columns[picked[j, i]], update[j, i, :, None],
                                                   out=buffers[0, one].reshape(d, -1))
                            norms[r] = _norms_sq(sums[r], buffers[1, one].reshape(d, -1))
                        values[r] = value
                        if value > current:
                            traces[r].append(value)
                        place += i + 1
                        break
                else:
                    place += k
                cursor[r] = place
            live = [r for r in live if cursor[r] < width]
        # The window, and the round arrays that view its buffers, go before the next is drawn.
        del picks, kicks, heads, buffers, whole, signs, base, new_sums, totals
    # Incremental updates drift; settle each restart's value from scratch
    # (the trace keeps the incremental values so it stays nondecreasing).
    return rows, traces, _least(_norms_sq((columns.T @ rows).transpose(2, 0, 1))).tolist()


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
    if d_max < 1 or n_max < 1:
        raise ValueError(f"need d_max >= 1 and n_max >= 1, got {d_max} and {n_max}")
    check_enumerable(n_max, _table_bytes(d_max, n_max))  # before the first search of the grid
    table = []
    for d in range(1, d_max + 1):
        for n in range(1, n_max + 1):
            spec = SearchSpec(d=d, n=n, restarts=restarts, steps=steps, seed=seed)
            best, source = maximize_min_norm(spec).best_value, "search"
            mults = balanced_odd_multiplicities(d, n)
            if mults is not None:
                value, _ = min_signed_norm(construct_orthonormal_multiplicity(d, mults))
                if value > best:
                    best, source = value, "orthonormal-multiplicity"
            table.append({"d": d, "n": n, "parity": "matched" if n % 2 == d % 2 else "mismatched",
                          "best_value": best, "source": source})
    return table
