import math
import tracemalloc

import pytest

from signsum import core, search
from signsum.core import min_signed_norm
from signsum.errors import TooLarge
from signsum.search import (
    SearchSpec,
    _balanced_odd_multiplicities,
    maximize_min_norm,
    parity_sweep,
)

from oracles import serial_search


def _lockstep_bytes(per_block, d, n, ahead):
    """The LOCKSTEP_BYTES that fits per_block restarts climbing with K = ahead:
    each restart's share of a round's sums and of their squares, plus its
    window's picks, noise and coins (twice while stacked) and kicks."""
    return per_block * (2 * ahead * d * 2 ** (n - 1) * 8 + search.WINDOW * (18 + 24 * d))


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpec(d=0, n=2)
        with pytest.raises(ValueError):
            SearchSpec(d=2, n=2, restarts=0)
        with pytest.raises(ValueError):
            SearchSpec(d=2, n=2, step_init=0.0)
        with pytest.raises(ValueError):
            SearchSpec(d=2, n=2, step_decay=1.5)
        for target in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                SearchSpec(d=2, n=2, target=target)

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(core, "ENUMERATION_CAP", 6)
        with pytest.raises(TooLarge):
            maximize_min_norm(SearchSpec(d=2, n=8))


class TestOptima:
    def test_orthogonal_pair_is_optimal(self):
        """One angle variable; the analytic optimum min(||u+w||, ||u-w||)
        = sqrt(2 - 2|<u,w>|) is maximised at a right angle."""
        result = maximize_min_norm(
            SearchSpec(d=2, n=2, restarts=8, steps=3000, step_decay=0.997, seed=3)
        )
        assert abs(result.best_value - math.sqrt(2)) < 1e-6
        u, w = result.best_config.as_array()
        assert abs(float(u @ w)) < 2e-6

    def test_three_planar_vectors_reach_one(self):
        result = maximize_min_norm(SearchSpec(d=2, n=3, restarts=8, steps=3000, seed=3))
        assert abs(result.best_value - 1.0) < 1e-6

    def test_three_dim_quadruple_reaches_sqrt2(self):
        result = maximize_min_norm(SearchSpec(d=3, n=4, restarts=24, steps=5000, seed=11))
        assert math.sqrt(2) - 1e-4 <= result.best_value <= math.sqrt(2) + 1e-6
        assert not result.counterexample_candidate


class TestInvariants:
    def test_best_value_reverified_by_enumeration(self):
        result = maximize_min_norm(SearchSpec(d=2, n=4, restarts=4, steps=600, seed=5))
        exact, _ = min_signed_norm(result.best_config)
        assert abs(result.best_value - exact) <= 1e-12

    def test_history_monotone_per_restart(self):
        result = maximize_min_norm(SearchSpec(d=3, n=5, restarts=6, steps=800, seed=2))
        assert len(result.history) == 6
        for trace in result.history:
            assert all(a <= b for a, b in zip(trace, trace[1:]))

    def test_deterministic(self):
        spec = SearchSpec(d=3, n=4, restarts=5, steps=700, seed=21)
        a = maximize_min_norm(spec)
        b = maximize_min_norm(spec)
        assert a.best_value == b.best_value
        assert a.best_config.vectors == b.best_config.vectors
        assert a.history == b.history

    @pytest.mark.parametrize("seed", range(6))
    def test_upper_bound_sanity(self, seed):
        spec = SearchSpec(d=2 + seed % 3, n=3 + seed % 4, restarts=3, steps=400, seed=seed)
        result = maximize_min_norm(spec)
        assert result.best_value <= math.sqrt(spec.d) + 1e-9

    def test_target_early_exit(self):
        spec = SearchSpec(d=2, n=2, restarts=50, steps=1500, seed=3, target=1.3)
        result = maximize_min_norm(spec)
        assert result.exceeded_target
        assert len(result.history) < 50


def _lockstep_specs():
    specs = [SearchSpec(d=1 + k % 5, n=1 + (3 * k) % 10, restarts=1 + k % 4,
                        steps=(1, 9, 40, 120)[k % 4], seed=100 + k)
             for k in range(44)]
    specs += [
        SearchSpec(d=1, n=1, restarts=3, steps=30, seed=7),
        SearchSpec(d=1, n=2, restarts=5, steps=60, seed=8),
        SearchSpec(d=2, n=1, restarts=2, steps=20, seed=9),
        SearchSpec(d=3, n=6, restarts=3, steps=80, step_init=1.5, step_decay=1.0, seed=10),
        SearchSpec(d=2, n=2, restarts=20, steps=300, seed=3, target=1.414),
        SearchSpec(d=3, n=4, restarts=8, steps=100, seed=8, target=1.39),
        SearchSpec(d=3, n=4, restarts=8, steps=100, seed=8, target=1.4),
        SearchSpec(d=1, n=3, restarts=4, steps=20, seed=2, target=0.5),
        SearchSpec(d=3, n=4, restarts=4, steps=50, seed=9, target=5.0),
    ]
    return specs


class TestLockstep:
    """The lockstep climb on the half table matches the serial climb on the
    full table field for field."""

    @staticmethod
    def _assert_matches(spec):
        result = maximize_min_norm(spec)
        rows, value, history, exceeded = serial_search(spec)
        assert result.best_config.vectors == tuple(tuple(map(float, r)) for r in rows)
        assert result.best_value == pytest.approx(value, abs=1e-12)
        assert result.history == history
        assert result.exceeded_target == exceeded
        return result

    @pytest.mark.parametrize("spec", _lockstep_specs(), ids=repr)
    def test_matches_serial_climb(self, spec):
        self._assert_matches(spec)

    def test_target_hits_are_covered(self):
        hits = [maximize_min_norm(s) for s in _lockstep_specs() if s.target is not None]
        assert sum(r.exceeded_target and len(r.history) > 1 for r in hits) >= 2

    @pytest.mark.parametrize("per_block", [0, 1, 3])
    def test_restarts_span_several_blocks(self, monkeypatch, per_block):
        d, n = 3, 5
        monkeypatch.setattr(search, "LOCKSTEP_BYTES",
                            _lockstep_bytes(per_block, d, n, search._proposals(2 ** (n - 1))))
        self._assert_matches(SearchSpec(d=d, n=n, restarts=8, steps=60, seed=12))
        # A target first beaten by restart 3, the first of the second block of 3.
        result = self._assert_matches(
            SearchSpec(d=d, n=n, restarts=8, steps=60, seed=12, target=1.336))
        assert result.exceeded_target and 1 < len(result.history) < 8

    def test_block_memory_within_lockstep_budget(self):
        """A block's restarts share LOCKSTEP_BYTES between their round's sums
        and their window draws.  A round scores its sums through two more
        arrays as large, the update's product and the squares, so the peak
        stays within 3 * LOCKSTEP_BYTES however many restarts run.  Here the
        sums alone would fit 170 restarts of d = 3, n = 4 in a block, and
        their windows would hold another 3.7 MiB."""
        maximize_min_norm(SearchSpec(d=3, n=4, restarts=1, steps=1))  # caches fill outside
        tracemalloc.start()
        try:
            maximize_min_norm(SearchSpec(d=3, n=4, restarts=455, steps=300))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * search.LOCKSTEP_BYTES

    def test_block_peak_within_lockstep_bytes(self):
        """A block's transient memory fits LOCKSTEP_BYTES.  The block size
        counts the two (R, K, d, 2^(n-1)) arrays a round builds, its sums (the
        update is added in place) and their squares, and 18 + 24d bytes a step
        of each restart's window: its picks, noise and coins take 2 (9 + 8d)
        while each restart's and the stacked copy coexist, then the kicks
        overwrite the noise, so while rounds run the window holds 9 + 8d and
        leaves 9 + 16d bytes a step (R * 14592 here) for the round's
        (R, K, 2^(n-1)) and (R, K, d) arrays.  The previous window is freed
        before the next is drawn.  The allowance is what the call leaves
        allocated, the result with its 455 traces, which grows with the
        restarts and not with a block."""
        maximize_min_norm(SearchSpec(d=3, n=4, restarts=1, steps=1))  # caches fill outside
        tracemalloc.start()
        try:
            result = maximize_min_norm(SearchSpec(d=3, n=4, restarts=455, steps=300))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.history) == 455
        assert peak <= search.LOCKSTEP_BYTES + kept


class TestSpeculation:
    """A round scores K proposals per restart and takes the first accepted;
    the results equal the serial climb's for every K and block size."""

    SPECS = (
        # Ties: d = 1 rows are +-1 and every value is 1; a step of 4 flips signs.
        SearchSpec(d=1, n=3, restarts=5, steps=40, step_init=4.0, step_decay=1.0, seed=31),
        SearchSpec(d=1, n=1, restarts=3, steps=20, step_init=4.0, step_decay=1.0, seed=33),
        SearchSpec(d=2, n=1, restarts=4, steps=37, seed=32),  # ties: values 1 to an ulp
        SearchSpec(d=3, n=5, restarts=7, steps=70, seed=34),
        SearchSpec(d=4, n=6, restarts=4, steps=50, step_init=1.0, step_decay=1.0, seed=35),
    )

    @pytest.mark.parametrize("per_block", [0, 1, 3])
    @pytest.mark.parametrize("ahead", [1, 2, 5, 64])
    def test_independent_of_proposals_and_block(self, monkeypatch, ahead, per_block):
        monkeypatch.setattr(search, "WINDOW", 16)  # every spec spans several windows
        expected = [maximize_min_norm(spec) for spec in self.SPECS]
        climbs = []
        climb = search._climb
        monkeypatch.setattr(search, "_climb", lambda spec, half, restarts, k: (
            climbs.append((len(restarts), k)) or climb(spec, half, restarts, k)))
        monkeypatch.setattr(search, "_proposals", lambda sums: ahead)
        for spec, want in zip(self.SPECS, expected):
            monkeypatch.setattr(search, "LOCKSTEP_BYTES",
                                _lockstep_bytes(per_block, spec.d, spec.n, ahead))
            climbs.clear()
            assert maximize_min_norm(spec) == want
            TestLockstep._assert_matches(spec)
            block = max(1, per_block)
            assert climbs[0] == (min(block, spec.restarts), ahead if per_block else 1)

    @pytest.mark.parametrize("n, ahead", [(1, 32), (4, 32), (8, 22), (9, 16), (11, 8), (12, 6)])
    def test_proposals_fall_with_table_size(self, monkeypatch, n, ahead):
        climbs = []
        climb = search._climb
        monkeypatch.setattr(search, "_climb", lambda spec, half, restarts, k: (
            climbs.append(k) or climb(spec, half, restarts, k)))
        maximize_min_norm(SearchSpec(d=3, n=n, restarts=1, steps=3, seed=36))
        assert climbs == [ahead]


class TestParitySweep:
    def test_expected_pattern(self):
        table = {(row["d"], row["n"]): row for row in parity_sweep(2, 4, seed=5, restarts=6, steps=1200)}
        assert table[(2, 4)]["best_value"] == pytest.approx(math.sqrt(2), abs=1e-12)
        assert table[(2, 4)]["parity"] == "matched"
        assert table[(2, 3)]["best_value"] == pytest.approx(1.0, abs=1e-5)
        assert table[(2, 3)]["parity"] == "mismatched"
        assert table[(1, 2)]["best_value"] == pytest.approx(0.0, abs=1e-12)
        assert table[(1, 3)]["best_value"] == pytest.approx(1.0, abs=1e-12)

    def test_odd_multiplicity_helper(self):
        assert _balanced_odd_multiplicities(2, 6) == [3, 3]
        assert _balanced_odd_multiplicities(3, 4) is None
        assert _balanced_odd_multiplicities(2, 1) is None
        assert _balanced_odd_multiplicities(3, 9) == [3, 3, 3]
