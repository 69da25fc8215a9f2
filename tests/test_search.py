import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signsum import core, search
from signsum.constructions import balanced_odd_multiplicities
from signsum.core import min_signed_norm
from signsum.errors import TooLarge
from signsum.search import SearchSpec, maximize_min_norm, parity_sweep

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


@st.composite
def _round_cases(draw):
    """A spec (at d = 1, possibly with step_init = 4 flipping signs, so that
    values tie), a K, restarts per block and a window: blocks run partly
    live, and windows can be shorter than K."""
    d = draw(st.integers(1, 5))
    ties = d == 1 and draw(st.booleans())
    spec = SearchSpec(d=d, n=draw(st.integers(1, 9)), restarts=draw(st.integers(1, 6)),
                      steps=draw(st.integers(1, 300)), seed=draw(st.integers(0, 2**16)),
                      **(dict(step_init=4.0, step_decay=1.0) if ties else {}))
    return spec, draw(st.integers(1, 40)), draw(st.integers(0, 4)), draw(st.integers(1, 300))


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

    @staticmethod
    def _traced(spec):
        """The search traced: its result, what it leaves allocated, and its
        peak.  The caches fill outside."""
        maximize_min_norm(SearchSpec(d=spec.d, n=spec.n, restarts=1, steps=1))
        tracemalloc.start()
        try:
            result = maximize_min_norm(spec)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, kept, peak

    @pytest.fixture(scope="class")
    def traced_search(self):
        """One d = 3, n = 4 search of 455 restarts, traced."""
        return self._traced(SearchSpec(d=3, n=4, restarts=455, steps=300))

    def test_block_memory_within_lockstep_budget(self, traced_search):
        """A block's restarts share LOCKSTEP_BYTES between their round's sums
        and their window draws.  A round scores its sums through two more
        arrays as large, the update's product and the squares, so the peak
        stays within 3 * LOCKSTEP_BYTES however many restarts run.  Here the
        sums alone would fit 170 restarts of d = 3, n = 4 in a block, and
        their windows would hold another 3.7 MiB."""
        _, _, peak = traced_search
        assert peak <= 3 * search.LOCKSTEP_BYTES

    def test_block_peak_within_lockstep_bytes(self, traced_search):
        """A block's transient memory fits LOCKSTEP_BYTES.  The block size
        counts a round's two buffers of R * K * d * 2^(n-1) floats, its sums
        (the update is added in place) and their squares, which hold the
        gathered signs first, and 18 + 24d bytes a step of each restart's
        window: its picks, noise and coins take 2 (9 + 8d) while each
        restart's and the stacked copy coexist, then the kicks overwrite the
        noise, so while rounds run the window holds 9 + 8d and leaves 9 + 16d
        bytes a step (R * 14592 here) for the round's (R, K, d) arrays.  The
        previous window is freed before the next is drawn.  The allowance is
        what the call leaves allocated, the result with its 455 traces, which
        grows with the restarts and not with a block.  On windowed tables,
        d = 1, n = 13 (a restart a block) and d = 3, n = 8 (blocks of 6), K
        and the block also count each restart's sums, their norms^2 and what
        a windowed round gathers."""
        result, kept, peak = traced_search
        assert len(result.history) == 455
        assert peak <= search.LOCKSTEP_BYTES + kept
        for spec in (SearchSpec(d=1, n=13, restarts=2, steps=300),
                     SearchSpec(d=3, n=8, restarts=12, steps=300)):
            result, kept, peak = self._traced(spec)
            assert len(result.history) == spec.restarts
            assert peak <= search.LOCKSTEP_BYTES + kept, spec

    def test_only_half_tables_within_lockstep_bytes_stay_cached(self):
        """The n = 14 half table (0.88 MiB) stays cached for the next search;
        the n = 15 table (1.88 MiB) is freed with its call."""
        search._half_table.cache_clear()
        maximize_min_norm(SearchSpec(d=1, n=15, restarts=1, steps=1))
        assert search._half_table.cache_info().currsize == 0
        maximize_min_norm(SearchSpec(d=1, n=14, restarts=1, steps=1))
        assert search._half_table.cache_info().currsize == 1


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

    @settings(max_examples=40, deadline=None)
    @given(_round_cases())
    def test_rounds_match_serial_climb(self, case):
        spec, ahead, per_block, window = case
        with pytest.MonkeyPatch.context() as m:
            m.setattr(search, "WINDOW", window)
            m.setattr(search, "_proposals", lambda sums: ahead)
            m.setattr(search, "LOCKSTEP_BYTES",
                      _lockstep_bytes(per_block, spec.d, spec.n, ahead))
            TestLockstep._assert_matches(spec)

    @pytest.mark.parametrize("n, ahead", [(1, 32), (4, 32), (8, 22), (9, 16), (11, 8), (12, 6)])
    def test_proposals_fall_with_table_size(self, monkeypatch, n, ahead):
        climbs = []
        climb = search._climb
        monkeypatch.setattr(search, "_climb", lambda spec, half, restarts, k: (
            climbs.append(k) or climb(spec, half, restarts, k)))
        maximize_min_norm(SearchSpec(d=3, n=n, restarts=1, steps=3, seed=36))
        assert climbs == [ahead]


@st.composite
def _window_cases(draw):
    """A spec with d 1-8 and n 1-14 (at d = 1, possibly with step_init = 4
    flipping signs, so that values tie)."""
    d = draw(st.integers(1, 8))
    ties = d == 1 and draw(st.booleans())
    return SearchSpec(d=d, n=draw(st.integers(1, 14)), restarts=draw(st.integers(1, 4)),
                      steps=draw(st.integers(1, 80)), seed=draw(st.integers(0, 2**16)),
                      **(dict(step_init=4.0, step_decay=1.0) if ties else {}))


class TestWindow:
    """A windowed round scores its proposals on the sums within least_window
    of each live restart's least, and gets the whole table's least norms."""

    @staticmethod
    def _scored(spec, share, whole):
        """The result and every least-norm array the search computes, with
        every table windowed and WINDOW_SHARE = ``share``; ``whole`` widens
        each window to the whole table."""
        scored = []
        least = search._least
        with pytest.MonkeyPatch.context() as m:
            m.setattr(search, "WINDOWED_SUMS", 1)
            m.setattr(search, "WINDOW_SHARE", share)
            m.setattr(search, "_least", lambda norms_sq: scored.append(least(norms_sq)) or scored[-1])
            if whole:
                m.setattr(search, "least_window", lambda least, shift: math.inf)
            return maximize_min_norm(spec), scored

    @pytest.mark.parametrize("share", [0.5, 1.0])
    @settings(max_examples=100, deadline=None)
    @given(spec=_window_cases())
    def test_window_keeps_the_least_of_every_proposal(self, share, spec):
        """At share 1 every round scores its window, against the whole table
        gathered; at share 0.5 wide windows score the whole table in place."""
        result, windowed = self._scored(spec, share, whole=False)
        reference, whole = self._scored(spec, share, whole=True)
        assert [a.tobytes() for a in windowed] == [a.tobytes() for a in whole]
        assert result == reference

    def test_window_drops_most_sums_of_a_wide_table(self):
        """The window is no wider than it must be: at n = 12 a round scores
        under a fifth of the half table."""
        widths = []
        least = search._least
        with pytest.MonkeyPatch.context() as m:
            m.setattr(search, "_least", lambda norms_sq: widths.append(norms_sq.shape) or
                      least(norms_sq))
            maximize_min_norm(SearchSpec(d=3, n=12, restarts=2, steps=150, seed=4))
        rounds = [shape[-1] for shape in widths if len(shape) == 3]  # (R, K, sums) a round
        assert len(rounds) > 20 and sum(rounds) < len(rounds) * 2**11 / 5

    @pytest.mark.parametrize("n, windowed", [(4, False), (7, False), (8, True), (11, True)])
    def test_windowed_from_windowed_sums(self, monkeypatch, n, windowed):
        """Tables of WINDOWED_SUMS or more sums (n >= 8) are windowed; smaller
        ones score every sum as before."""
        calls = []
        window = search.least_window
        monkeypatch.setattr(search, "least_window", lambda *args: calls.append(args) or window(*args))
        maximize_min_norm(SearchSpec(d=3, n=n, restarts=1, steps=20, seed=5))
        assert bool(calls) == windowed


def _no_table(rows):
    raise AssertionError("a table was built before the refusal")


class TestTableBytes:
    """Search refuses, before building any table, a +-1 table and one
    restart's arrays at K = 1 past the byte budget in core."""

    def test_byte_bound_refuses_before_any_table(self, monkeypatch):
        # Rows of 2^7 floats for the table, a restart's sums and norms^2, and
        # the settle's sums, squares and running norm^2; and a window of draws.
        size = ((8 + 2 + 1 + 2 * 2 + 1) * 8 << 7) + search.WINDOW * (18 + 24 * 2)
        monkeypatch.setattr(core, "TABLE_BYTES", size)
        maximize_min_norm(SearchSpec(d=2, n=8, restarts=1, steps=1))  # exactly at the bound
        parity_sweep(2, 8, restarts=1, steps=1)

        search._half_table.cache_clear()
        monkeypatch.setattr(core, "TABLE_BYTES", size - 1)
        monkeypatch.setattr(search, "sign_columns", _no_table)
        with pytest.raises(TooLarge, match="TABLE_BYTES"):
            maximize_min_norm(SearchSpec(d=2, n=8, restarts=1, steps=1))
        with pytest.raises(TooLarge, match="TABLE_BYTES"):
            parity_sweep(2, 8, restarts=1, steps=1)

    def test_byte_count_includes_d(self, monkeypatch):
        """A wide search is refused on its sums, not only its sign table: at
        d = 4096, n = 20 one restart's sums alone would take 16 GiB."""
        search._half_table.cache_clear()
        monkeypatch.setattr(search, "sign_columns", _no_table)
        with pytest.raises(TooLarge, match="TABLE_BYTES"):
            maximize_min_norm(SearchSpec(d=4096, n=20, restarts=1, steps=1))
        with pytest.raises(TooLarge, match="TABLE_BYTES"):
            parity_sweep(4096, 20)

    @pytest.mark.parametrize("d, n, fits", [(3, 20, True), (3, 21, False)])
    def test_limit_at_small_d(self, d, n, fits):
        """At d = 3 the limit stays n <= 20."""
        assert (search._table_bytes(d, n) <= core.TABLE_BYTES) == fits

    def test_sweep_refuses_its_largest_n_before_any_search(self, monkeypatch):
        monkeypatch.setattr(search, "maximize_min_norm", lambda spec: pytest.fail("searched"))
        with pytest.raises(TooLarge):
            parity_sweep(2, 30)

    @pytest.mark.parametrize("d_max, n_max", [(0, 2), (2, 0), (-1, 3)])
    def test_sweep_refuses_an_empty_grid(self, d_max, n_max):
        with pytest.raises(ValueError, match="d_max >= 1 and n_max >= 1"):
            parity_sweep(d_max, n_max)


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
        assert balanced_odd_multiplicities(2, 6) == [3, 3]
        assert balanced_odd_multiplicities(3, 4) is None
        assert balanced_odd_multiplicities(2, 1) is None
        assert balanced_odd_multiplicities(3, 9) == [3, 3, 3]

    @pytest.mark.parametrize("d", [0, -1])
    def test_odd_multiplicity_helper_refuses_no_dimension(self, d):
        with pytest.raises(ValueError, match="need d >= 1"):
            balanced_odd_multiplicities(d, 5)
