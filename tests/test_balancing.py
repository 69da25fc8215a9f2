import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from signsum import balancing, core
from signsum.balancing import (
    BalanceReport,
    _greedy_rows,
    approximate_point,
    approximation_falsifier,
    cluster_and_pair,
    cluster_vectors,
    default_zeta,
    detect_oblique,
    eliminate,
    greedy_signs,
    paper_epsilon,
    parity_balance,
    projection_split,
)
from signsum.constructions import (
    construct_exponential,
    construct_orthonormal_multiplicity,
    construct_tight_family,
    random_unit_config,
)
from signsum.core import SignAssignment, min_signed_norm, validate_config
from signsum.errors import (
    DegeneratePlane,
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

from oracles import (
    brute_min,
    exact_eliminate_rows,
    greedy_pass,
    loop_projection_split,
    min_approx_error_sq,
    scalar_eliminate_rows,
    serial_falsifier,
    split_always_balance,
)


def _short_vector_config(d, n, seed):
    rng = np.random.default_rng(seed)
    rows = random_unit_config(d, n, seed=seed).as_array()
    rows *= rng.uniform(0.2, 1.0, size=(n, 1))
    return validate_config(rows, mode="beck")


class TestGreedy:
    def test_parallel_pair_cancels(self):
        report = greedy_signs(validate_config([(1, 0), (1, 0)]))
        assert report.signs.signs == (1, -1)
        assert report.achieved_norm == 0.0

    def test_orthonormal_pair(self):
        report = greedy_signs(validate_config([(1, 0), (0, 1)]))
        assert report.achieved_norm == pytest.approx(math.sqrt(2), abs=1e-15)
        assert report.guarantee == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_oblique_pair_beats_stability_bound(self):
        config = validate_config([(1, 0), (0.5, math.sqrt(0.75))])
        report = greedy_signs(config)
        assert report.achieved_norm**2 <= 2 - 0.5**2 + 1e-12

    def test_tie_goes_to_plus_one(self):
        report = greedy_signs(validate_config([(1, 0), (0, 1)]))
        assert report.signs.signs[0] == 1

    @pytest.mark.parametrize("seed", range(30))
    def test_prefix_law(self, seed):
        rng = np.random.default_rng(seed)
        config = _short_vector_config(int(rng.integers(1, 5)), int(rng.integers(1, 12)), seed)
        lam = rng.uniform(-1, 1, config.n)
        report = greedy_signs(config, lam)
        rows = config.as_array()
        acc = np.zeros(config.dim)
        for m, (eta, lam_i, row) in enumerate(zip(report.signs.signs, lam, rows), start=1):
            acc = acc + (lam_i + eta) * row
            assert float(acc @ acc) <= m + 1e-9

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_lambda_rejected(self, bad):
        config = validate_config([(1, 0), (0, 1)])
        for balancer in (greedy_signs, approximate_point):
            with pytest.raises(OutOfRange, match=r"coefficient 0 = (nan|inf) outside"):
                balancer(config, [bad, 0.0])

    def test_guarantee_is_the_prefix_law_beyond_unit_norm(self):
        """Orthogonal beck-mode vectors of norm 1.05 end exactly at the
        prefix law's sqrt(sum ||v_i||^2), which sqrt(n) undercuts."""
        config = validate_config([(1.05, 0), (0, 1.05)], mode="beck", tolerance=0.1)
        report = greedy_signs(config)
        assert report.guarantee == math.sqrt(2 * 1.05**2)
        assert report.achieved_norm == pytest.approx(report.guarantee, abs=1e-15)

    @pytest.mark.parametrize("seed", range(40))
    def test_batched_orders_match_single_orders(self, seed):
        """Each pass of a batch is bitwise the pass run alone, and that is
        the one-vector-at-a-time greedy."""
        rng = np.random.default_rng([seed, 77])
        d, n, k = int(rng.integers(2, 6)), int(rng.integers(1, 13)), int(rng.integers(1, 9))
        config = _short_vector_config(d, n, seed + 6000) if seed % 2 else random_unit_config(d, n, seed + 6000)
        rows = config.as_array()
        lam = rng.uniform(-1, 1, n)
        orders = np.array([rng.permutation(n) for _ in range(k)])
        signs, sums = _greedy_rows(rows, lam, orders)
        assert signs.shape == (k, n) and sums.shape == (k, d)
        for j, order in enumerate(orders):
            one_signs, one_sums = _greedy_rows(rows, lam, [order])
            assert signs[j].tolist() == one_signs[0].tolist()
            assert sums[j].tobytes() == one_sums[0].tobytes()
            ref_signs, ref_sum = greedy_pass(rows, lam, order)
            assert signs[j].tolist() == ref_signs
            assert sums[j].tobytes() == ref_sum.tobytes()

    def test_partial_order_leaves_unvisited_signs_zero(self):
        rows = validate_config([(1, 0), (0, 1), (1, 0)]).as_array()
        signs, sums = _greedy_rows(rows, np.zeros(3), [[2, 0]])
        assert signs.tolist() == [[-1, 0, 1]]
        assert sums.tolist() == [[0.0, 0.0]]


class TestEliminate:
    def test_three_vectors_two_dimensions(self):
        config = validate_config([(1, 0), (0, 1), (1, 0)])
        result = eliminate(config, None, k=2)
        assert result.coefficients.coefficients in ((1.0, 0.0, -1.0), (-1.0, 0.0, 1.0))
        assert result.residual_indices == (1,)
        rows = config.as_array()
        assert np.linalg.norm(result.coefficients.as_array() @ rows) < 1e-12

    def test_identity_when_already_small(self):
        config = validate_config([(1, 0), (0, 1)])
        lam = [0.25, -0.75]
        result = eliminate(config, lam, k=2)
        assert result.coefficients.coefficients == (0.25, -0.75)
        assert result.residual_indices == (0, 1)

    def test_one_dimensional(self):
        config = validate_config([(1,), (1,), (1,)])
        result = eliminate(config, None, k=1)
        values = result.coefficients.coefficients
        assert sorted(values) == [-1.0, 0.0, 1.0]
        assert sum(values) == 0.0
        assert len(result.residual_indices) == 1

    def test_fixed_mask_holds_bools(self):
        config = random_unit_config(3, 9, seed=2)
        result = eliminate(config, np.linspace(-0.9, 0.9, 9), k=3)
        assert any(result.fixed_mask) and not all(result.fixed_mask)
        assert all(type(fixed) is bool for fixed in result.fixed_mask)

    def test_k_below_dimension_rejected(self):
        config = validate_config([(1, 0), (0, 1)])
        with pytest.raises(ValueError):
            eliminate(config, None, k=1)

    @pytest.mark.parametrize("seed", range(40))
    def test_contract_sweep(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        n = int(rng.integers(d + 1, 18))
        config = random_unit_config(d, n, seed=seed + 3000)
        lam = rng.uniform(-1, 1, n)
        k = d + int(rng.integers(0, 3))
        result = eliminate(config, lam, k=k)
        values = result.coefficients.as_array()
        rows = config.as_array()
        assert np.linalg.norm(values @ rows - lam @ rows) <= 1e-10 * n
        assert len(result.residual_indices) <= k
        assert np.all(np.abs(values) <= 1.0)
        for i, fixed in enumerate(result.fixed_mask):
            assert fixed == (abs(values[i]) == 1.0)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


class TestEliminateBits:
    """Elimination on Python floats returns the numpy-scalar oracle's bits."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 48), st.integers(0, 10**6),
           st.sampled_from(["zeros", "uniform", "units", "mixed", "halves"]), st.integers(0, 2))
    def test_equals_scalar_oracle(self, d, n, seed, kind, extra):
        rng = np.random.default_rng(seed)
        rows = random_unit_config(d, n, seed=seed).as_array()
        # zeros tie hi == -lo in every first round; halves on a line tie again.
        lam = {"zeros": np.zeros(n),
               "uniform": rng.uniform(-1, 1, n),
               "units": rng.choice([-1.0, 1.0, 0.0, -0.0], n),
               "mixed": np.where(rng.random(n) < 0.6, rng.choice([-1.0, 1.0], n),
                                 rng.uniform(-1, 1, n)),
               "halves": rng.choice([-0.5, 0.5, 0.25, -0.25], n)}[kind]
        k = d + extra
        values, fractional = balancing._eliminate_rows(rows, lam, k)
        want_values, want_fractional = scalar_eliminate_rows(rows, lam, k)
        assert _bits(values) == _bits(want_values)
        assert fractional == want_fractional

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 48), st.integers(0, 10**6), st.floats(-15, -4))
    def test_equals_scalar_oracle_on_nearly_dependent_rows(self, d, n, seed, noise):
        # Copies of fewer than d directions plus noise at 10^noise: the
        # carried inverse, the fresh Gauss-Jordan and Gram-Schmidt all serve.
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, d))
        base = random_unit_config(d, rank, seed=seed).as_array()
        rows = base[rng.integers(0, rank, n)] * rng.choice([-1.0, 1.0], (n, 1))
        rows += 10.0**noise * rng.standard_normal(rows.shape)
        lam = rng.uniform(-1, 1, n)
        values, fractional = balancing._eliminate_rows(rows, lam, d)
        want_values, want_fractional = scalar_eliminate_rows(rows, lam, d)
        assert _bits(values) == _bits(want_values)
        assert fractional == want_fractional

    def test_ties_on_parallel_rows(self):
        # Parallel rows make the basis singular: the null vector takes +1 at
        # the first dependent column.  lam = 0 ties hi == -lo, and the second
        # lam starts half the subset on +-1/2.
        rows = np.array([[1.0, 0.0]] * 4 + [[0.0, 1.0]] * 3)
        for lam in (np.zeros(7), np.array([0.5, -0.5, 0.5, -0.5, 0.0, 0.0, 1.0])):
            values, fractional = balancing._eliminate_rows(rows, lam, 2)
            want_values, want_fractional = scalar_eliminate_rows(rows, lam, 2)
            assert _bits(values) == _bits(want_values) and fractional == want_fractional

    def test_zero_row_in_beck_mode(self):
        # A zero vector is a dependent column wherever it sits: the null
        # vector is +1 on it alone, so it moves to +-1 and nothing else moves.
        rng = np.random.default_rng(3)
        rows = random_unit_config(3, 9, seed=3).as_array() * 0.9
        rows[[1, 5]] = 0.0
        config = validate_config(rows, mode="beck")
        for lam in (np.zeros(9), rng.uniform(-1, 1, 9)):
            values, fractional = balancing._eliminate_rows(rows, lam, 3)
            want_values, want_fractional = scalar_eliminate_rows(rows, lam, 3)
            assert _bits(values) == _bits(want_values) and fractional == want_fractional
            assert np.linalg.norm(values @ rows - lam @ rows) <= 1e-12 * 9
            assert len(fractional) <= 3 and np.all(np.abs(values) <= 1.0)
            report = approximate_point(config, lam)
            assert report.achieved_norm <= report.guarantee
        assert balancing._eliminate_rows(rows, np.zeros(9), 3)[0][1] == 1.0

    def test_nan_residual_is_refused(self):
        rows = random_unit_config(2, 5, seed=1).as_array()
        rows[3, 1] = math.nan
        with pytest.raises(NumericalNullspaceFailure, match="nan"):
            balancing._eliminate_rows(rows, np.zeros(5), 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 48), st.integers(0, 10**6))
    def test_agrees_with_the_exact_rule(self, d, n, seed):
        """The same rule in Fraction arithmetic fixes the same coefficients
        to the same signs and leaves the same indices, wherever no ratio,
        side or coefficient comes within 1e-9 of a tie."""
        rng = np.random.default_rng(seed)
        rows = random_unit_config(d, n, seed=seed).as_array()
        lam = rng.uniform(-1, 1, n)
        exact, exact_fractional, margin = exact_eliminate_rows(rows, lam, d)
        assume(margin > 1e-9)
        values, fractional = balancing._eliminate_rows(rows, lam, d)
        assert fractional == exact_fractional
        fixed = [(i, x) for i, x in enumerate(exact) if abs(x) == 1]
        assert all(values[i] == x for i, x in fixed)
        assert np.max(np.abs(values @ rows - lam @ rows), initial=0.0) <= 1e-12 * n

    @pytest.mark.parametrize("noise", [1e-13, 1e-12, 1e-11, 1e-10])
    def test_nearly_dependent_subsets(self, noise):
        """Copies of two directions in R^6 plus noise near the 1e-12 pivot
        tolerance: Gauss-Jordan's inverse is too inexact to refine, and the
        Gram-Schmidt null vector keeps the weighted sum within 1e-12 n."""
        for seed in range(12):
            rng = np.random.default_rng(seed)
            base = random_unit_config(6, 2, seed=seed).as_array()
            rows = base[rng.integers(0, 2, 40)] + noise * rng.standard_normal((40, 6))
            lam = rng.uniform(-1, 1, 40)
            values, fractional = balancing._eliminate_rows(rows, lam, 6)
            assert np.max(np.abs(values @ rows - lam @ rows)) <= 1e-12 * 40
            assert len(fractional) <= 6 and np.all(np.abs(values) <= 1.0)

    @pytest.mark.parametrize("sigma", [1e-4, 1e-6, 1e-8])
    def test_near_parallel_clusters(self, sigma):
        """Three clusters of ten near-parallel unit vectors make every basis
        ill-conditioned: the A8 contract holds, and refinement keeps the
        weighted sum within 1e-12 n."""
        for seed in range(12):
            rng = np.random.default_rng(seed)
            rows = np.repeat(np.eye(3), 10, axis=0) + sigma * rng.standard_normal((30, 3))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            if seed % 2:
                rows = rows[rng.permutation(30)]
            lam = rng.uniform(-1, 1, 30)
            for k in (3, 5):
                result = eliminate(validate_config(rows), lam, k)
                values = result.coefficients.as_array()
                assert np.max(np.abs(values @ rows - lam @ rows)) <= 1e-12 * 30
                assert len(result.residual_indices) <= k
                assert np.all(np.abs(values) <= 1.0)


class TestApproximatePoint:
    def test_integral_coefficients_cancel_exactly(self):
        config = validate_config([(1, 0), (1, 0), (0, 1), (0, 1), (0, 1)])
        report = approximate_point(config, [1, -1, 1, 1, -1])
        assert report.achieved_norm == 0.0

    def test_accepts_coefficient_vector_type(self):
        from signsum.core import CoefficientVector

        config = validate_config([(1, 0), (0, 1)])
        lam = CoefficientVector((0.5, -0.25))
        assert approximate_point(config, lam).achieved_norm <= math.sqrt(2) + 1e-9
        assert greedy_signs(config, lam).achieved_norm <= math.sqrt(2) + 1e-9

    def test_multiplicity_example(self):
        config = validate_config([(1, 0), (1, 0), (0, 1), (0, 1), (0, 1)])
        report = approximate_point(config)
        assert report.achieved_norm <= math.sqrt(2) + 1e-9

    def test_fixed_coordinates_keep_forced_signs(self):
        config = validate_config([(1, 0), (0, 1), (1, 0), (0, 1), (1, 0)])
        elim = eliminate(config, None, k=2)
        report = approximate_point(config)
        for i, fixed in enumerate(elim.fixed_mask):
            if fixed:
                assert report.signs.signs[i] == -int(elim.coefficients.coefficients[i])

    def test_guarantee_is_the_prefix_law_over_the_d_longest(self):
        """Beck-mode vectors of norm 1.05 can end above sqrt(d); the bound
        sums the d largest ||v_i||^2, which the short middle vector is not
        among."""
        config = validate_config([(1.05, 0), (0.3, 0.2), (0, 1.05)], mode="beck", tolerance=0.1)
        assert approximate_point(config).guarantee == math.sqrt(2 * 1.05**2)
        assert approximate_point(config, [0.5, -0.5, 0.25]).guarantee == math.sqrt(2 * 1.05**2)

    @pytest.mark.parametrize("seed", range(60))
    def test_dimension_bound_sweep(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 13))
        config = _short_vector_config(d, n, seed + 4000) if seed % 2 else random_unit_config(d, n, seed + 4000)
        lam = rng.uniform(-1, 1, n) if seed % 3 else None
        report = approximate_point(config, lam)
        assert report.achieved_norm**2 <= d + 1e-9

    @pytest.mark.parametrize("delta", [0.2, 0.5, 0.8])
    def test_stability_refinement_large_coefficient(self, delta):
        """Some |lam_i| > delta on exactly d unit vectors: squared error is
        at most d - delta because that coordinate is processed first."""
        for seed in range(25):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 6))
            config = random_unit_config(d, d, seed=seed + 5000)
            lam = rng.uniform(-delta / 2, delta / 2, d)
            hot = int(rng.integers(d))
            lam[hot] = math.copysign(rng.uniform(delta + 1e-6, 1.0), rng.uniform(-1, 1))
            report = approximate_point(config, lam)
            assert report.achieved_norm**2 <= d - delta + 1e-9


class TestDetectOblique:
    def test_orthonormal_none(self):
        assert detect_oblique(validate_config([(1, 0), (0, 1)]), 0.1) is None

    def test_diagonal_pair(self):
        config = validate_config([(1, 0), (math.sqrt(2) / 2, math.sqrt(2) / 2)])
        assert detect_oblique(config, 0.1) == (0, 1)

    def test_exponential_family_none(self):
        assert detect_oblique(construct_exponential(5), 0.01) is None

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            detect_oblique(validate_config([(1, 0)]), 0.7)


class TestClustering:
    def test_parallel_pair_plus_orthogonal(self):
        clustering = cluster_vectors(validate_config([(1, 0), (1, 0), (0, 1)]), 1e-3)
        assert clustering.clusters == ((0, 1), (2,))
        assert clustering.orientation == (1, 1, 1)
        assert clustering.representatives == (0, 2)

    def test_antiparallel_orientation_flip(self):
        clustering = cluster_vectors(validate_config([(1, 0), (-1, 0), (0, 1)]), 1e-3)
        assert clustering.clusters == ((0, 1), (2,))
        assert clustering.orientation == (1, -1, 1)

    def test_exponential_family_single_cluster(self):
        clustering = cluster_vectors(construct_exponential(5), 1e-3)
        assert clustering.clusters == ((0, 1, 2, 3, 4),)

    def test_oblique_pair_rejected(self):
        config = validate_config([(1, 0), (math.sqrt(2) / 2, math.sqrt(2) / 2)])
        with pytest.raises(ObliquePairPresent):
            cluster_vectors(config, 1e-3)

    def test_zeta_bound(self):
        with pytest.raises(ValueError):
            cluster_vectors(validate_config([(1, 0)]), 0.01)

    def test_too_many_clusters(self):
        """The 7 unit vertices of a regular simplex in R^6 meet pairwise at
        -1/6: at alpha = 0.2 no pair is oblique and none near-parallel, so
        there are 7 singleton clusters in dimension 6."""
        centred = np.eye(7) - 1.0 / 7
        rows = centred @ np.linalg.svd(centred)[2][:6].T
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        config = validate_config(rows)
        assert np.allclose(config.as_array() @ config.as_array().T, 7 / 6 * np.eye(7) - 1 / 6)
        with pytest.raises(TooManyClusters):
            cluster_vectors(config, 0.0016)

    def test_transitivity_violation(self):
        """Vectors of norm 1.1 at 0, 45 and 90 degrees: v0 ~ v1 ~ v2 at
        alpha = 0.2 (inner product 0.856 >= 0.8), yet <v0, v2> = 0."""
        s = 1.1 / math.sqrt(2)
        config = validate_config([(1.1, 0), (s, s), (0, 1.1)], mode="beck", tolerance=0.2)
        with pytest.raises(TransitivityViolation):
            cluster_vectors(config, 0.0016)


class TestClusterAndPair:
    def test_two_dimensional_example(self):
        report = cluster_and_pair(validate_config([(1, 0), (1, 0), (0, 1)]), 1e-3)
        assert report.achieved_norm == pytest.approx(1.0, abs=1e-12)
        assert report.guarantee == pytest.approx(math.sqrt(1 + 4 * 1e-3**0.25), abs=1e-12)

    def test_three_dimensional_example(self):
        config = validate_config([(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        report = cluster_and_pair(config)
        assert report.achieved_norm == pytest.approx(math.sqrt(2), abs=1e-12)
        assert report.achieved_norm <= report.guarantee

    def test_pairing_arithmetic_closed_form(self):
        theta = 0.01
        config = validate_config([(1, 0), (math.cos(theta), math.sin(theta)), (0, 1)])
        report = cluster_and_pair(config, 1e-3)
        expected = math.sqrt(3 - 2 * math.cos(theta) - 2 * math.sin(theta))
        assert report.achieved_norm == pytest.approx(expected, abs=1e-12)

    def test_parity_mismatch_rejected(self):
        config = validate_config([(1, 0), (1, 0), (0, 1), (0, 1)])
        with pytest.raises(ParityMismatch):
            cluster_and_pair(config, 1e-3)

    @pytest.mark.parametrize("seed", range(25))
    def test_soundness_on_structured_configs(self, seed):
        """Randomly rotated odd-multiplicity configurations with small
        jitter stay inside the no-oblique regime; the guarantee must hold."""
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        mults = [1 + 2 * int(rng.integers(0, 3)) for _ in range(d)]
        n = sum(mults)
        if n % 2 == d % 2:
            mults[0] += 1  # break parity with one even multiplicity
            n += 1
        rows = []
        for axis, m in enumerate(mults):
            for _ in range(m):
                v = Q[:, axis] + 1e-4 * rng.standard_normal(d)
                rows.append(v / np.linalg.norm(v))
        config = validate_config(rows)
        report = cluster_and_pair(config)
        assert report.achieved_norm == float(np.linalg.norm(
            (np.zeros(n) + np.array(report.signs.signs)) @ config.as_array()))
        assert report.achieved_norm <= report.guarantee + 1e-9
        assert report.achieved_norm >= brute_min(config)[0] - 1e-12


class TestProjectionSplit:
    def test_reference_instance(self):
        u = (1.0, 0.0, 0.0)
        w = (1 / math.sqrt(2), 1 / math.sqrt(2), 0.0)
        config = validate_config([u, w, (0, 0, 1), (0, 0, 1), (0, 0, 1)])
        report = projection_split(config, zeta=1e-3)
        assert report.achieved_norm**2 == pytest.approx(3 - math.sqrt(2), abs=1e-12)

    def test_orthogonal_remainder_splits_exactly(self):
        u = (1.0, 0.0, 0.0, 0.0)
        w = (0.5, math.sqrt(0.75), 0.0, 0.0)
        config = validate_config([u, w, (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 0)])
        report = projection_split(config, zeta=1e-3)
        rows = config.as_array()
        total = np.array(report.signs.signs, dtype=float) @ rows
        in_plane = total[:2]
        perp = total[2:]
        assert float(total @ total) == pytest.approx(
            float(in_plane @ in_plane) + float(perp @ perp), abs=1e-12
        )

    def test_projection_too_long(self):
        u = (1.0, 0.0, 0.0)
        w = (0.5, math.sqrt(0.75), 0.0)
        config = validate_config([u, w, (0.9, 0.0, math.sqrt(1 - 0.81))])
        with pytest.raises(ProjectionTooLong):
            projection_split(config, zeta=1e-3)

    def test_not_oblique(self):
        config = validate_config([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        with pytest.raises(NotOblique):
            projection_split(config, zeta=1e-3)
        with pytest.raises(NotOblique):
            projection_split(config, pair=(0, 1), zeta=1e-3)

    @pytest.mark.parametrize("seed", range(200))
    def test_soundness_on_admissible_instances(self, seed):
        """Seeded admissible instances: oblique pair in the (e1, e2)-plane,
        remainder nearly orthogonal to it; achieved <= guarantee is enforced
        by construction of the report, re-checked here explicitly."""
        rng = np.random.default_rng(seed)
        d = int(rng.integers(3, 6))
        zeta = default_zeta(d)
        inner = rng.uniform(zeta**0.25 * 1.5, 1 - zeta**0.25 * 1.5)
        u = np.zeros(d)
        u[0] = 1.0
        w = np.zeros(d)
        w[0], w[1] = inner, math.sqrt(1 - inner * inner)
        rows = [u, w]
        budget = 2.0 * zeta**0.75
        for _ in range(d):
            tail = rng.standard_normal(d - 2)
            tail /= np.linalg.norm(tail)
            head = rng.uniform(-budget / 4, budget / 4, 2)
            v = np.concatenate([head, math.sqrt(max(0.0, 1 - float(head @ head))) * tail])
            rows.append(v / np.linalg.norm(v))
        config = validate_config(rows)
        lam = rng.uniform(-1, 1, config.n) if seed % 2 else None
        report = projection_split(config, lam, pair=(0, 1), zeta=zeta)
        lam = np.zeros(config.n) if lam is None else lam
        assert report.achieved_norm == float(np.linalg.norm(
            (lam + np.array(report.signs.signs)) @ config.as_array()))
        assert report.achieved_norm <= report.guarantee + 1e-9

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(3, 6), n=st.integers(2, 14), seed=st.integers(0, 2**32 - 1),
           zeta=st.sampled_from([None, 1e-3, 1e-6, 1e-10]), scale=st.sampled_from([0.5, 1.2, 3.0]),
           with_lam=st.booleans())
    @example(d=3, n=2, seed=0, zeta=None, scale=0.5, with_lam=False)
    @example(d=5, n=2, seed=1, zeta=1e-6, scale=0.5, with_lam=True)
    @example(d=3, n=8, seed=8, zeta=1e-6, scale=0.5, with_lam=False)  # coordinates +/-1 tie
    def test_equals_the_per_vector_reference(self, d, n, seed, zeta, scale, with_lam):
        """Near-plane inputs, n = 2 (no other vectors) included: the report's
        achieved norm and signs equal oracles.loop_projection_split's to the
        bit, or both raise ProjectionTooLong with the same index and length."""
        z = default_zeta(d) if zeta is None else zeta
        rng = np.random.default_rng(seed)
        cos = float(rng.uniform(0.25, 0.75) * rng.choice([-1.0, 1.0]))
        lengths = (2.0 * z**0.75 * rng.choice([0.2, 1.0, scale], n - 2)).tolist()
        config = _near_plane_config(d, cos, lengths, seed)
        lam = rng.uniform(-1.0, 1.0, n) if with_lam else None
        try:
            achieved, signs = loop_projection_split(config, lam, (0, 1), z)
        except ProjectionTooLong as expected:
            with pytest.raises(ProjectionTooLong) as info:
                projection_split(config, lam, pair=(0, 1), zeta=zeta)
            assert info.value.index == expected.index
            assert info.value.length.hex() == expected.length.hex()
            return
        report = projection_split(config, lam, pair=(0, 1), zeta=zeta)
        assert report.achieved_norm.hex() == achieved.hex()
        assert report.signs.signs == signs


class TestParityBalance:
    def test_two_dimensional_example(self):
        report = parity_balance(validate_config([(1, 0), (1, 0), (0, 1)]))
        assert report.achieved_norm == pytest.approx(1.0, abs=1e-12)
        assert report.achieved_norm <= math.sqrt(2 - 2**-100 * 2.0**-80)
        assert report.case_taken == "clustered"

    def test_clustered_branch_scans_once(self, monkeypatch):
        """The dispatch and the clustering share one Gram matrix and one
        oblique scan; the report is unchanged."""
        calls = []
        scan = balancing._oblique_pair
        monkeypatch.setattr(balancing, "_oblique_pair", lambda *args: calls.append(args) or scan(*args))
        report = parity_balance(construct_orthonormal_multiplicity(3, [2, 1, 1]))
        assert len(calls) == 1
        assert report == BalanceReport(algorithm="parity_balance",
                                       signs=SignAssignment((1, -1, 1, 1)),
                                       achieved_norm=1.4142135623730951,
                                       guarantee=1.6854958959468618, case_taken="clustered",
                                       certificate="cluster")

    def test_tight_family_is_matched_exactly(self):
        report = parity_balance(construct_tight_family())
        assert report.achieved_norm == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_matched_parity_falls_back_to_sqrt_d(self):
        config = construct_orthonormal_multiplicity(3, (1, 1, 1))
        report = parity_balance(config)
        assert report.case_taken == "fallback"
        assert report.guarantee == math.sqrt(3)
        assert report.achieved_norm == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_fallback_beyond_unit_norm(self):
        """Two orthogonal beck-mode vectors of norm 1.05: every sign choice
        ends at 1.05 * sqrt(2), which the fallback certifies."""
        config = validate_config([(1.05, 0), (0, 1.05)], mode="beck", tolerance=0.1)
        report = parity_balance(config)
        assert report.case_taken == "fallback"
        assert report.guarantee == math.sqrt(2 * 1.05**2)
        assert report.achieved_norm == pytest.approx(report.guarantee, abs=1e-15)

    def test_oblique_beyond_unit_norm_skips_the_split(self):
        """d = 3, an oblique pair of norm 1.05: projection_split's unit
        plane basis does not exist, so its certificate is not taken."""
        config = validate_config([(1.05, 0, 0), (0.525, 0.9093266739736605, 0),
                                  (0, 0, 1.05), (0, 1.05, 0)], mode="beck", tolerance=0.1)
        report = parity_balance(config)
        assert report.case_taken == "oblique"
        assert report.achieved_norm <= report.guarantee
        # Pair-first and the prefix law over the 3 longest both give
        # 3 * 1.05^2; the unit-vector formula's 1.7022 is unproven here.
        assert report.guarantee == pytest.approx(math.sqrt(3 * 1.05**2), abs=1e-15)

    def test_degenerate_split_plane_skips_the_split(self):
        """At zeta = 1e-52 a pair with |<u, w>| = 1 - 5e-13 is oblique
        (zeta^(1/4) = 1e-13) but too parallel for projection_split's plane
        basis, which raises DegeneratePlane; parity_balance answers without
        that optional certificate."""
        g = 1 - 5e-13
        config = validate_config([(1, 0, 0), (g, math.sqrt(1 - g * g), 0),
                                  (0, 0, 1), (0, 0, -1)])
        with pytest.raises(DegeneratePlane):
            projection_split(config, pair=(0, 1), zeta=1e-52)
        report = parity_balance(config, zeta=1e-52)
        assert report.case_taken == "oblique"
        assert report.achieved_norm == min_signed_norm(config)[0] == 1.0000444493034251e-06
        assert report.guarantee == pytest.approx(math.sqrt(2), abs=1e-11)

    @pytest.mark.parametrize("seed", range(40))
    def test_oblique_certificates_at_the_given_norms(self, seed):
        """Beck inputs with norms in [0.5, 1.1] that take the oblique branch
        certify what their norms prove: the guarantee is the lesser of the
        pair-first sum ||u||^2 + ||w||^2 - 2|<u, w>| + sum_others ||v_i||^2
        and the prefix law over the d longest vectors, recomputed here."""
        rng = np.random.default_rng(seed)
        d = int(rng.integers(3, 5))
        n = d + int(rng.choice([1, 3]))
        rows = random_unit_config(d, n, seed=seed).as_array()
        rows *= rng.uniform(0.5, 1.1, size=(n, 1))
        config = validate_config(rows, mode="beck", tolerance=0.1)
        report = parity_balance(config)
        assert report.case_taken == "oblique"
        iu, iw = detect_oblique(config, default_zeta(d) ** 0.25)
        squares = [float(row @ row) for row in rows]
        pair_first = sum(squares) - 2 * abs(float(rows[iu] @ rows[iw]))
        prefix = sum(sorted(squares)[-d:])
        assert report.guarantee == pytest.approx(math.sqrt(min(pair_first, prefix)), rel=1e-12)
        assert report.achieved_norm <= report.guarantee

    def test_beck_sweep_beyond_unit_norm(self):
        """200 random mismatched-parity configurations (d 2-3, n = d + 1 or
        d + 3) scaled to norm 1.09: each answers within its guarantee.  Off
        unit vectors the clustered branch certifies the prefix law and runs
        no transitivity check, whose thresholds are stated for unit vectors,
        so none is refused."""
        refused = {}
        for seed in range(200):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 4))
            n = d + int(rng.choice([1, 3]))
            rows = 1.09 * random_unit_config(d, n, seed=seed).as_array()
            config = validate_config(rows, mode="beck", tolerance=0.1)
            try:
                report = parity_balance(config)
            except TransitivityViolation:
                refused[seed] = d
                continue
            assert report.achieved_norm <= report.guarantee
        assert refused == {}

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(2, 4), extra=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
           clustered=st.booleans(), scales=st.lists(st.floats(0.5, 1.1), min_size=10, max_size=10))
    @example(d=2, extra=0, seed=2153, clustered=False, scales=[1.0, 1.0, 1.1] + [1.0] * 7)
    @example(d=4, extra=1, seed=66549, clustered=False, scales=[1.0] * 5 + [1.1] + [1.0] * 4)
    def test_beck_certificates_recomputed(self, d, extra, seed, clustered, scales):
        """Beck inputs with norms in [0.5, 1.1] at mismatched parity, n <= 10:
        the branch and its guarantee recomputed here from the given norms
        (the cluster bound or the floor and the pair-first bound on unit
        vectors; otherwise the prefix law over the d longest vectors, or the
        lesser of it and the pair-first sum), and achieved <= guarantee.
        A unit row scaled by 1.1 can round to 1.1000000000000003, so the
        config admits norms up to 1.11."""
        n = d + 1 + 2 * min(extra, (9 - d) // 2)
        rng = np.random.default_rng(seed)
        if clustered:  # near-orthonormal clusters, norms in [0.9, 1.02]
            mults = np.bincount(rng.integers(0, d, n - d), minlength=d) + 1
            rows = np.repeat(np.eye(d), mults, axis=0) + 1e-3 * rng.standard_normal((n, d))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            lengths = [1.0 + 0.2 * (s - 1.0) for s in scales[:n]]
        else:
            rows = random_unit_config(d, n, seed=seed).as_array()
            lengths = scales[:n]
        rows = rows * np.array(lengths)[:, None]
        config = validate_config(rows, mode="beck", tolerance=0.11)
        report = parity_balance(config)

        alpha = default_zeta(d) ** 0.25
        squares = [float(row @ row) for row in rows]
        unit = all(abs(q - 1.0) <= 2e-9 for q in squares)
        prefix = sum(sorted(squares)[-d:])
        pairs = [(i, j) for i, j in itertools.combinations(range(n), 2)
                 if alpha < abs(float(rows[i] @ rows[j])) < 1.0 - alpha]
        if not pairs:
            assert report.case_taken == "clustered"
            expected = d - 1 + 2 * d * alpha if unit else prefix
            name = "cluster" if unit else "prefix law"
        else:
            assert report.case_taken == "oblique"
            i, j = pairs[0]
            pair_first = sum(squares) - 2 * abs(float(rows[i] @ rows[j]))
            expected = min(pair_first, d if unit else prefix)
            name = ("pair-first" if pair_first < (d if unit else prefix)
                    else "floor" if unit else "prefix law")
        assert report.guarantee == pytest.approx(math.sqrt(expected), rel=1e-12)
        assert report.certificate == name
        assert report.achieved_norm <= report.guarantee
        assert report.achieved_norm == min_signed_norm(config)[0]

    @pytest.mark.parametrize("seed", range(150))
    def test_random_three_dimensional_quadruples(self, seed):
        config = random_unit_config(3, 4, seed=seed)
        report = parity_balance(config)
        assert report.achieved_norm <= math.sqrt(3 - 2.0**-100 * 3.0**-80) + 1e-9
        assert report.achieved_norm <= report.guarantee + 1e-9
        exact, _ = min_signed_norm(config)
        assert report.achieved_norm == pytest.approx(exact, abs=1e-9)
        assert report.achieved_norm <= math.sqrt(2) + 1e-6  # open-question evidence

    # (d, n, config seed, balance seed, exhaustive cap) -> signs, achieved norm.
    # Every winner here is one of the randomly ordered greedy passes.
    PINNED = [
        ((3, 14, 1, 0, 12), (-1, 1, 1, 1, -1, 1, 1, -1, -1, 1, 1, -1, -1, 1), "0.215039874964249"),
        ((4, 13, 3, 1, 12), (1, 1, 1, 1, 1, -1, 1, 1, 1, 1, -1, 1, 1), "0.5105154272375967"),
        ((4, 9, 4, 2, 0), (-1, -1, 1, 1, 1, 1, 1, -1, -1), "0.770899105897851"),
        ((5, 8, 5, 3, 0), (-1, 1, 1, -1, 1, 1, 1, -1), "0.9603408943053618"),
        ((3, 10, 6, 4, 0), (-1, -1, 1, 1, 1, 1, -1, -1, 1, 1), "0.14348283040158677"),
    ]

    @pytest.mark.parametrize("spec, signs, achieved", PINNED)
    def test_pinned_oblique_reports(self, spec, signs, achieved, monkeypatch):
        d, n, config_seed, seed, cap = spec
        monkeypatch.setattr(balancing, "EXHAUSTIVE_FALLBACK_CAP", cap)
        report = parity_balance(random_unit_config(d, n, seed=config_seed), seed=seed)
        assert report.case_taken == "oblique"
        assert report.signs.signs == signs
        assert repr(report.achieved_norm) == achieved

    @pytest.mark.parametrize("spec, signs, achieved", [
        ((4, 9, 4), (1, 1, -1, 1, -1, 1, -1, -1, -1), "0.890419777527455"),
        ((3, 14, 1), (1, -1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1), "0.4162849020565966"),
    ])
    def test_pair_first_greedy_only(self, spec, signs, achieved, monkeypatch):
        d, n, config_seed = spec
        config = random_unit_config(d, n, seed=config_seed)
        monkeypatch.setattr(balancing, "GREEDY_ORDERS", 1)
        monkeypatch.setattr(balancing, "EXHAUSTIVE_FALLBACK_CAP", 0)
        report = parity_balance(config)
        assert report.case_taken == "oblique"
        assert report.signs.signs == signs
        assert repr(report.achieved_norm) == achieved
        assert report.achieved_norm <= report.guarantee + 1e-9
        rows = config.as_array()
        assert report.achieved_norm == float(np.linalg.norm(np.array(signs, dtype=float) @ rows))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_oblique_below_cap_is_exact_minimiser(self, d):
        """At n <= EXHAUSTIVE_FALLBACK_CAP every branch answers with
        min_signed_norm itself: the same signs and the same norm, bit for
        bit, under the branch's certified guarantee.  The inputs are random
        configurations of mismatched parity (mostly oblique), of matched
        parity (fallback) and orthonormal multiplicities of mismatched
        parity (clustered), perturbed as in the balance benchmark but by
        sigma = 0.01: at 0.02 some d = 4, 5 inputs hold an oblique pair."""
        rng = np.random.default_rng(d)
        cases = {"oblique": 0, "fallback": 0, "clustered": 0}
        for seed in range(60):
            n = int(rng.integers(2, 13))
            if n % 2 == d % 2:
                n = n - 1 if n == 12 else n + 1
            jitter = np.random.default_rng([d, seed])
            rows = np.repeat(np.eye(d), jitter.multinomial(n, [1.0 / d] * d), axis=0)
            rows += 0.01 * jitter.standard_normal(rows.shape)
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            inputs = [
                (random_unit_config(d, n, seed=1000 * d + seed), None),
                (random_unit_config(d, n - 1, seed=2000 * d + seed), "fallback"),
                (validate_config(rows[jitter.permutation(n)]), "clustered"),
            ]
            for config, case in inputs:
                report = parity_balance(config, seed=seed)
                exact, argmin = min_signed_norm(config)
                assert report.signs == argmin
                assert report.achieved_norm == exact
                assert report.achieved_norm <= report.guarantee + 1e-9
                if case is not None:
                    assert report.case_taken == case
                if report.case_taken == "fallback":
                    # approximate_point's bound: sqrt(min(n, d)) up to the
                    # rounding of the squared norms.
                    assert report.guarantee == approximate_point(config).guarantee
                    assert report.guarantee == pytest.approx(math.sqrt(min(config.n, d)),
                                                             abs=1e-15)
                else:
                    assert report.guarantee <= math.sqrt(d - paper_epsilon(d))
                cases[report.case_taken] += 1
        assert cases["oblique"] >= 50
        assert cases["fallback"] == 60 and cases["clustered"] >= 60

    @pytest.mark.parametrize("d,n", [(2, 13), (3, 14), (4, 15)])
    def test_clustered_above_cap_answers_with_the_portfolio(self, d, n):
        """Above the cap the clustered branch answers with the first best of
        cluster_and_pair and approximate_point, under the cluster bound."""
        jitter = np.random.default_rng([d, n])
        rows = np.repeat(np.eye(d), jitter.multinomial(n, [1.0 / d] * d), axis=0)
        rows += 0.01 * jitter.standard_normal(rows.shape)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        config = validate_config(rows[jitter.permutation(n)])
        assert n > balancing.EXHAUSTIVE_FALLBACK_CAP
        report = parity_balance(config)
        assert report.case_taken == "clustered"
        best = min([cluster_and_pair(config), approximate_point(config)],
                   key=lambda member: member.achieved_norm)
        assert (report.signs, report.achieved_norm) == (best.signs, best.achieved_norm)
        assert report.achieved_norm <= report.guarantee

    def test_greedy_members_bounded_by_the_prefix_law(self):
        """Beck-mode norms of 1.05, each vector after the oblique pair
        orthogonal to the pair-first greedy sum: that pass ends above sqrt(n),
        within the prefix law's sqrt(sum ||v_i||^2), and loses the portfolio."""
        rows = [1.05 * np.array([1.0, 0.0]), 1.05 * np.array([math.cos(1.2), math.sin(1.2)])]
        s = min(rows[0] + rows[1], rows[0] - rows[1], key=lambda x: x @ x)
        for _ in range(11):
            rows.append(1.05 * np.array([-s[1], s[0]]) / np.linalg.norm(s))
            s = min(s + rows[-1], s - rows[-1], key=lambda x: x @ x)
        config = validate_config(rows, mode="beck", tolerance=0.1)
        pair_first = greedy_pass(config.as_array(), np.zeros(13), range(13))[1]
        assert np.linalg.norm(pair_first) > math.sqrt(13)
        report = parity_balance(config)
        assert report.case_taken == "oblique"
        assert report.achieved_norm <= report.guarantee

    def test_case_tag_for_oblique(self):
        config = random_unit_config(3, 4, seed=0)
        report = parity_balance(config)
        assert report.case_taken == "oblique"

    def test_caller_supplied_zeta_stays_sound(self):
        """zeta large enough that the cluster certificate is weaker than
        sqrt(d): the dispatcher must still meet its reported guarantee."""
        config = validate_config([(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        report = parity_balance(config, zeta=0.0016)
        assert report.achieved_norm <= report.guarantee + 1e-9
        assert report.achieved_norm == pytest.approx(math.sqrt(2), abs=1e-12)


class TestZetaRange:
    """A caller's zeta must lie in (0, inf), checked before zeta**0.25 (a
    negative zeta made it complex and ended in a TypeError)."""

    @pytest.mark.parametrize("zeta", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("balance,config", [
        (parity_balance, construct_orthonormal_multiplicity(2, [1, 2])),
        (parity_balance, random_unit_config(3, 4, seed=0)),
        (cluster_and_pair, construct_orthonormal_multiplicity(2, [1, 2])),
        (projection_split, validate_config([(1, 0, 0), (0.5, math.sqrt(0.75), 0), (0, 0, 1)])),
    ])
    def test_out_of_range_raises_value_error(self, balance, config, zeta):
        with pytest.raises(ValueError, match="zeta must lie in"):
            balance(config, zeta=zeta)


class TestFalsifier:
    def test_orthonormal_square_center(self):
        config = validate_config([(1, 0), (0, 1)])
        result = approximation_falsifier(config, 2.0, budget=20, seed=1)
        assert result.witness is None
        assert result.best_value == pytest.approx(2.0, abs=1e-12)
        assert result.best_coefficients.coefficients == (0.0, 0.0)

    def test_witness_below_threshold(self):
        config = validate_config([(1, 0), (0, 1)])
        result = approximation_falsifier(config, 1.9, budget=20, seed=1)
        assert result.witness is not None
        assert result.best_value > 1.9

    def test_oblique_pair_respects_stability_bound(self):
        delta = 0.3
        config = validate_config([(1.0, 0.0), (delta, math.sqrt(1 - delta * delta))])
        result = approximation_falsifier(config, 2 - delta * delta, budget=60, seed=2)
        assert result.witness is None

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_non_finite_r_rejected(self, r):
        with pytest.raises(OutOfRange):
            approximation_falsifier(validate_config([(1, 0), (0, 1)]), r, budget=1)

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(core, "ENUMERATION_CAP", 6)
        with pytest.raises(TooLarge):
            approximation_falsifier(random_unit_config(2, 8, seed=0), 1.0, budget=1)

    def test_found_values_are_true_g_values(self):
        config = random_unit_config(2, 4, seed=8)
        result = approximation_falsifier(config, 10.0, budget=5, seed=8)
        brute = min_approx_error_sq(config, result.best_coefficients.coefficients)
        assert result.best_value == pytest.approx(brute, abs=1e-12)

    def test_g_values_exact_across_chunks(self):
        config = random_unit_config(3, 13, seed=4)
        result = approximation_falsifier(config, 10.0, budget=1, seed=4)
        brute = min_approx_error_sq(config, result.best_coefficients.coefficients)
        assert result.best_value == pytest.approx(brute, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_dichotomy_oblique_tuples_stay_approximable(self, seed):
        """(d+1)-tuples containing an oblique pair never certify
        g > d - 1e-4 (structure dichotomy probed at desk scale)."""
        d = 3
        rng = np.random.default_rng(seed)
        rows = [None] * (d + 1)
        inner = rng.uniform(0.25, 0.75)
        u = np.zeros(d)
        u[0] = 1.0
        w = rng.standard_normal(d)
        w -= (w @ u) * u
        w = inner * u + math.sqrt(1 - inner * inner) * w / np.linalg.norm(w)
        rows[0], rows[1] = u, w
        for i in range(2, d + 1):
            v = rng.standard_normal(d)
            rows[i] = v / np.linalg.norm(v)
        config = validate_config(rows)
        result = approximation_falsifier(config, d - 1e-4, budget=12, seed=seed)
        assert result.witness is None


def _fields(result):
    witness = result.witness
    return (result.best_value, result.best_coefficients.coefficients,
            None if witness is None else witness.coefficients, result.best_start)


def _a4_pair(tenth):
    delta = tenth / 10.0
    return validate_config([(1.0, 0.0), (delta, math.sqrt(1.0 - delta * delta))]), delta


class TestMaintainedTable:
    """The ascent on the maintained table takes the steps that the ascent
    scoring every candidate from scratch takes, and reports its values."""

    @pytest.mark.parametrize("seed", range(24))
    def test_equals_serial_oracle(self, seed):
        rng = np.random.default_rng([seed, 14])
        d = 2 + seed % 4
        n = int(rng.integers(2, 13))
        # Budgets 1-40, fewer starts where each costs more.
        budget = int(rng.integers(1, min(40, 1 << (14 - n)) + 1))
        config = random_unit_config(d, n, seed=seed + 7000)
        r = float(rng.uniform(0.5, d))
        assert _fields(approximation_falsifier(config, r, budget=budget, seed=seed)) == \
            serial_falsifier(config, r, budget, seed)

    @pytest.mark.parametrize("tenth", range(1, 10))
    def test_equals_serial_oracle_on_a4_pairs(self, tenth):
        config, delta = _a4_pair(tenth)
        r = 2 - delta * delta
        assert _fields(approximation_falsifier(config, r, budget=200, seed=tenth)) == \
            serial_falsifier(config, r, 200, tenth)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 8), st.integers(1, 4), st.integers(0, 10**6))
    def test_best_value_is_g_at_best_coefficients(self, d, n, budget, seed):
        config = random_unit_config(d, n, seed=seed)
        result = approximation_falsifier(config, float(d), budget=budget, seed=seed)
        brute = min_approx_error_sq(config, result.best_coefficients.coefficients)
        assert abs(result.best_value - brute) <= 1e-12

    def test_byte_bound_refuses_before_any_table(self, monkeypatch):
        config = random_unit_config(2, 8, seed=0)
        size = (8 + 2) * 8 << 8
        monkeypatch.setattr(balancing, "FALSIFIER_BYTES", size)
        approximation_falsifier(config, 1.0, budget=1)  # exactly at the bound

        def no_table(rows):
            raise AssertionError("a table was built before the refusal")

        monkeypatch.setattr(balancing, "FALSIFIER_BYTES", size - 1)
        monkeypatch.setattr(balancing, "sign_columns", no_table)
        with pytest.raises(TooLarge, match="FALSIFIER_BYTES"):
            approximation_falsifier(config, 1.0, budget=1)


    def test_peak_memory(self):
        """The tables of one start and its settle stay within (n + d + 4)
        arrays of 2^n floats: the n inner products, the d coordinates, the
        norms and the two score buffers, with one to spare."""
        n, d = 14, 3
        config = random_unit_config(d, n, seed=1)
        tracemalloc.start()
        try:
            approximation_falsifier(config, 1.0, budget=2, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (n + d + 4) * 8 << n


class TestSoundnessAgainstOracle:
    @pytest.mark.parametrize("seed", range(15))
    def test_balancers_bracketed_by_oracle_and_guarantee(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 10))
        config = random_unit_config(d, n, seed=seed + 6000)
        exact, _ = brute_min(config)
        lam = np.zeros(n)
        for report in (greedy_signs(config), approximate_point(config)):
            assert report.achieved_norm == float(np.linalg.norm(
                (lam + np.array(report.signs.signs)) @ config.as_array()))
            assert report.achieved_norm >= exact - 1e-12
            assert report.achieved_norm <= report.guarantee + 1e-9
        if n % 2 != d % 2:
            report = parity_balance(config)
            assert report.achieved_norm >= exact - 1e-12
            assert report.achieved_norm <= report.guarantee + 1e-9

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError):
            BalanceReport("bogus", SignAssignment((1,)), achieved_norm=2.0, guarantee=1.0)

    def test_report_invariant_rejects_nan(self):
        with pytest.raises(ValueError):
            BalanceReport("bogus", SignAssignment((1,)), achieved_norm=math.nan, guarantee=1.0)


def _near_plane_config(d, cos, lengths, seed, scales=(1.0, 1.0)):
    """Unit u, w with <u, w> = cos, then one unit vector per length t whose
    projection onto span{u, w} has norm t up to rounding: along u for every
    third one, in a random direction of the plane otherwise.  ``scales``
    stretch u and w, within is_unit's 1e-9."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((d, d)))[0].T
    plane, normal = basis[:2], basis[2:]
    rows = [plane[0], cos * plane[0] + math.sqrt(1 - cos * cos) * plane[1]]
    for k, t in enumerate(lengths):
        phi = 0.0 if k % 3 == 0 else rng.uniform(0.0, 2 * math.pi)
        q = rng.standard_normal(d - 2) @ normal
        rows.append(t * (math.cos(phi) * plane[0] + math.sin(phi) * plane[1])
                    + math.sqrt(1 - t * t) * q / np.linalg.norm(q))
    rows = [r / np.linalg.norm(r) for r in rows]
    rows[0], rows[1] = rows[0] * scales[0], rows[1] * scales[1]
    return validate_config([tuple(r.tolist()) for r in rows])


class TestSplitPrecheck:
    """On both sides of the cap parity_balance tries projection_split only
    where its closed-form guarantee beats the other certificates; every
    report equals the one with the split tried wherever its premises hold."""

    @staticmethod
    def _lengths(d):
        # Lengths on both sides of the split's bound 2 zeta^(3/4) and of
        # that bound plus a rounding margin.
        zeta = default_zeta(d)
        bound = 2.0 * zeta**0.75
        alpha = zeta**0.25
        limit = bound + 1e-12 + (1e-8 + 3e-15 * d) / (1.0 - (1.0 - alpha) ** 2) ** 2
        odd = [[0.5 * bound], [bound - 1e-12], [bound], [bound + 1e-12], [bound + 2e-12],
               [limit - 1e-12], [limit], [limit + 1e-12], [0.4]]
        even = [[0.3 * bound, bound - 1e-12], [bound + 1e-12, bound - 2e-12],
                [bound, 0.1 * bound], [limit + 1e-12, 0.2 * bound], [limit - 1e-12, limit],
                [0.9 * bound, 0.4], [limit, bound]]
        return even if d % 2 else odd  # n = len + 2 has the other parity

    def _cases(self):
        for d in (3, 4, 5):
            for lengths in self._lengths(d):
                for seed, cos in enumerate((0.3, -0.6, 0.8)):
                    yield d, _near_plane_config(d, cos, lengths, seed)
        # u and w at is_unit's edge, where the split's in-plane lengths and
        # |<v, u>| differ by about |a| (||u||^2 - 1), past 1e-12.
        bound = 2.0 * default_zeta(3) ** 0.75
        for cos, su, sw, k in itertools.product((0.3, 0.6), (1 + 0.99e-9, 1 - 0.99e-9),
                                                (1 + 0.99e-9, 1 - 0.99e-9), range(0, 60, 4)):
            lengths = [bound + 1e-12 + k * 2e-13, 0.1 * bound]
            yield 3, _near_plane_config(3, cos, lengths, 1, (su, sw))

    @staticmethod
    def _winning_cases():
        """n = d + 1 with |<u, w>| < 1/2 at small zeta, where the split's
        certificate, about sqrt(zeta), beats the pair-first one."""
        for d, zeta in itertools.product((3, 4, 5), (1e-6, 1e-8, 1e-10, 1e-12, 1e-14)):
            bound = 2.0 * zeta**0.75
            for seed, cos in enumerate((0.3, -0.2, 0.45)):
                for scale in (0.2, 0.9, 1.5):
                    lengths = [scale * bound * (k + 1) / d for k in range(d - 1)]
                    yield d, zeta, _near_plane_config(d, cos, lengths, seed)

    @staticmethod
    def _above_the_cap():
        """n = 13-17 at the default zeta, where the split never sets the
        guarantee and so is never tried."""
        for d, n, seed in itertools.product((3, 4), (13, 14, 15, 17), range(2)):
            if n % 2 != d % 2:
                bound = 2.0 * default_zeta(d) ** 0.75
                lengths = [bound * (0.3 + 0.7 * (k % 3) / 2) for k in range(n - 2)]
                for cos in (0.2, 0.7):
                    yield d, None, _near_plane_config(d, cos, lengths, seed)
                yield d, None, random_unit_config(d, n, seed=seed)

    @staticmethod
    def _small_zeta_above_the_cap():
        """n = 13-18 at zeta 1e-10 to 1e-14 with every in-plane length within
        the split's bound, where the split sets the guarantee and its signs
        join the portfolio."""
        for k, (d, zeta) in enumerate(itertools.product((3, 4, 5), (1e-10, 1e-12, 1e-14))):
            bound = 2.0 * zeta**0.75
            for j, cos in enumerate((0.25, -0.4, 0.6)):
                n = 13 + 2 * j + d % 2
                lengths = [bound * (0.2 + 0.7 * ((i + j) % 4) / 3) for i in range(n - 2)]
                yield d, zeta, _near_plane_config(d, cos, lengths, 30 + k)

    def test_reports_equal_the_split_always_oracle(self, monkeypatch):
        """Reports, guarantees to the bit and signs equal the oracle's, which
        always tries the split.  On both sides of the cap the split is called
        exactly where its certificate passes the floor and the pair-first
        one, so never at the default zeta."""
        calls = []
        split = balancing.projection_split
        monkeypatch.setattr(balancing, "projection_split",
                            lambda *args, **kw: calls.append(1) or split(*args, **kw))
        cases = [(d, zeta, config) for zeta in (None, 1e-3, 1e-6) for d, config in self._cases()]
        cases += [*self._winning_cases(), *self._above_the_cap()]
        above = list(self._small_zeta_above_the_cap())
        wins = above_wins = 0
        for d, zeta, config in cases + above:
            calls.clear()
            report = parity_balance(config, zeta=zeta)
            called = len(calls)
            assert report.case_taken == "oblique"
            expected = split_always_balance(config, zeta=zeta)
            assert report == expected
            assert report.guarantee.hex() == expected.guarantee.hex()
            rows = config.as_array()
            zeta = zeta or default_zeta(d)
            iu, iw = detect_oblique(config, zeta**0.25)
            pair_bound = config.n - 2.0 * abs(float(rows[iu] @ rows[iw]))
            pair_first = d - pair_bound
            others = max(paper_epsilon(d), pair_first)
            assert called == (d - balancing._split_guarantee(d, config.n, zeta)**2 > others)
            if zeta == default_zeta(d):
                assert not called
            # The guarantee is the root of the least bound, taken once.
            won = report.guarantee < math.sqrt(min(d - paper_epsilon(d), pair_bound))
            assert (report.certificate == "projection split") == won
            wins += won
            above_wins += won and config.n > balancing.EXHAUSTIVE_FALLBACK_CAP
        assert wins >= 60 + len(above) and above_wins == len(above) == 27

    def test_split_never_beats_the_pair_first_bound_at_the_default_zeta(self):
        """An oblique pair has |<u, w>| > zeta^(1/4), so at default_zeta(d)
        the split's certificate d - g^2 never passes the floor or the
        pair-first certificate d - n + 2|<u, w>|: on unit inputs up to the
        cap parity_balance never calls projection_split."""
        for d in range(3, 200):
            zeta = default_zeta(d)
            for n in range(3 - d % 2, 31, 2):
                g = balancing._split_guarantee(d, n, zeta)
                assert d - g * g <= max(paper_epsilon(d), d - n + 2.0 * zeta**0.25), (d, n)

    def test_random_oblique_configs_skip_the_split(self, monkeypatch):
        """The benchmark's oblique jobs: random unit vectors, whose others
        lie far from the pair's plane, never reach projection_split."""
        calls = []
        monkeypatch.setattr(balancing, "projection_split",
                            lambda *args, **kw: calls.append(1))
        for seed in range(30):
            d = 3 + seed % 2
            config = random_unit_config(d, 2 * (seed % 4) + 4 + (d == 4), seed=seed)
            assert parity_balance(config).case_taken == "oblique"
        assert calls == []


class TestCertificateTable:
    """parity_balance's guarantee is the root of its named certificate's
    bound on the squared norm, so where a balancer proves that certificate
    for its own signs, the guarantee is that balancer's own, bit for bit."""

    @staticmethod
    def _clustered_cases():
        """Unit orthonormal multiplicities of mismatched parity, jittered by
        1e-4 and with random signs: clustered at every zeta used here."""
        for zeta in (1e-6, 1e-10):
            yield validate_config([(1,), (-1,)]), zeta
        for d, seed, zeta in itertools.product(range(1, 6), range(4), (None, 1e-6, 1e-10)):
            rng = np.random.default_rng([d, seed])
            n = d + 1 + 2 * seed
            rows = np.repeat(np.eye(d), rng.multinomial(n, [1.0 / d] * d), axis=0)
            rows += 1e-4 * rng.standard_normal(rows.shape)
            rows *= rng.choice([-1.0, 1.0], (n, 1)) / np.linalg.norm(rows, axis=1, keepdims=True)
            yield validate_config(rows), zeta

    def test_cluster_is_cluster_and_pairs_guarantee(self):
        for config, zeta in self._clustered_cases():
            report = parity_balance(config, zeta=zeta)
            assert (report.case_taken, report.certificate) == ("clustered", "cluster")
            assert report.guarantee == cluster_and_pair(config, zeta).guarantee
        # The single rounding of sqrt(2 zeta^(1/4)); taking it as
        # sqrt(1 - (1 - 2 zeta^(1/4))) gave 0.07952707287670477.
        pair = validate_config([(1,), (-1,)])
        assert parity_balance(pair, zeta=1e-10).guarantee == 0.07952707287670507

    def test_projection_split_is_the_splits_guarantee(self):
        wins = 0
        for d, zeta, config in TestSplitPrecheck._winning_cases():
            report = parity_balance(config, zeta=zeta)
            if report.certificate == "projection split":
                split = projection_split(config, pair=detect_oblique(config, zeta**0.25),
                                         zeta=zeta)
                assert report.guarantee == split.guarantee
                wins += 1
        assert wins >= 60

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_prefix_law_at_matched_parity_is_approximate_points_guarantee(self, d):
        for n, scale in itertools.product(range(2 - d % 2, 17, 2), (1.0, 0.7, 1.05)):
            config = validate_config(scale * random_unit_config(d, n, seed=n).as_array(),
                                     mode="beck", tolerance=0.1)
            report = parity_balance(config)
            assert (report.case_taken, report.certificate) == ("fallback", "prefix law")
            assert report.guarantee == approximate_point(config).guarantee

    def test_floor_is_sqrt_d(self):
        """Random unit inputs with n >= d + 3, where the pair-first bound
        passes d, and a clustered input whose cluster bound does at zeta =
        0.0016."""
        cases = [(random_unit_config(d, n, seed=n), None)
                 for d in range(2, 6) for n in range(d + 3, d + 12, 2)]
        cases.append((validate_config([(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]), 0.0016))
        for config, zeta in cases:
            report = parity_balance(config, zeta=zeta)
            assert report.certificate == "floor"
            assert report.guarantee == math.sqrt(config.dim)

    def test_ties_go_to_the_earlier_certificate(self):
        """b3.json: the pair-first bound and the prefix law over the 3
        longest vectors are equal to the bit, and the prefix law comes first."""
        config = validate_config([(1.05, 0, 0), (0.525, 0.9093266739736605, 0),
                                  (0, 0, 1.05), (0, 1.05, 0)], mode="beck", tolerance=0.1)
        rows = config.as_array()
        squares = np.vecdot(rows, rows).tolist()
        pair_first = float(np.sum(squares)) - 2.0 * abs(float(rows[0] @ rows[1]))
        assert pair_first == sum(sorted(squares)[-3:])
        report = parity_balance(config)
        assert (report.case_taken, report.certificate) == ("oblique", "prefix law")
        assert report.guarantee == math.sqrt(pair_first) == 1.8186533479473213

    def test_only_parity_balance_names_a_certificate(self):
        config = random_unit_config(3, 4, seed=0)
        assert greedy_signs(config).certificate is None
        assert approximate_point(config).certificate is None
        assert parity_balance(config).certificate is not None
