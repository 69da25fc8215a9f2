import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signsum.core import (
    SignAssignment,
    VectorConfig,
    enumerate_signed_sums,
    min_signed_norm,
    signed_sum,
    validate_config,
)
from signsum.constructions import random_unit_config
from signsum.errors import DimensionMismatch, NormViolation, OutOfRange, TooLarge

from oracles import census


class TestValidation:
    def test_exact_unit_vectors(self):
        config = validate_config([(1, 0), (0, 1)], "strict", 1e-9)
        assert config.dim == 2 and config.n == 2

    def test_strict_rejects_short_vector(self):
        with pytest.raises(NormViolation) as exc:
            validate_config([(0.5, 0)], "strict", 1e-9)
        assert exc.value.index == 0
        assert exc.value.norm == pytest.approx(0.5)

    def test_beck_allows_short_vector(self):
        config = validate_config([(0.5, 0)], "beck", 1e-9)
        assert config.mode == "beck"

    def test_beck_rejects_long_vector(self):
        with pytest.raises(NormViolation):
            validate_config([(1.5, 0)], "beck", 1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_config([(1, 0), (0, 0, 1)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            validate_config([])

    @pytest.mark.parametrize("mode", ["strict", "beck"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vector_rejected(self, mode, bad):
        with pytest.raises(NormViolation) as exc:
            validate_config([(1, 0), (bad, 0)], mode)
        assert exc.value.index == 1

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1e-9])
    def test_bad_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError):
            validate_config([(1, 0)], "beck", tolerance)

    def test_never_renormalizes(self):
        config = validate_config([(0.6, 0.8)])
        assert config.vectors[0] == (0.6, 0.8)


class TestSignedSum:
    def test_orthonormal(self):
        config = validate_config([(1, 0), (0, 1)])
        assert signed_sum(config, SignAssignment((1, -1))) == (1.0, -1.0)

    def test_parallel_cancellation(self):
        config = validate_config([(1, 0), (1, 0)])
        assert signed_sum(config, SignAssignment((1, -1))) == (0.0, 0.0)

    def test_length_mismatch(self):
        config = validate_config([(1, 0), (0, 1)])
        with pytest.raises(DimensionMismatch):
            signed_sum(config, SignAssignment((1, -1, 1)))


class TestEnumerate:
    def test_parallel_pair(self):
        config = validate_config([(1, 0), (1, 0)])
        report = enumerate_signed_sums(config, 1.0)
        assert report.hits == 2 and report.total == 4
        assert report.probability == Fraction(1, 2)
        assert report.min_norm == 0.0

    def test_orthonormal_boundary(self):
        config = validate_config([(1, 0), (0, 1)])
        report = enumerate_signed_sums(config, math.sqrt(2))
        assert report.hits == 4
        assert report.min_norm == pytest.approx(math.sqrt(2), abs=1e-15)
        # every assignment sits on the boundary: nothing outside the band
        assert report.margin == 0.0

    def test_argmin_tie_breaks_lexicographically(self):
        config = validate_config([(1, 0), (0, 1)])
        report = enumerate_signed_sums(config, math.sqrt(2))
        assert report.argmin.signs == (1, 1)

    def test_negative_radius_rejected(self):
        config = validate_config([(1, 0)])
        with pytest.raises(OutOfRange):
            enumerate_signed_sums(config, -0.5)

    def test_nan_radius_rejected(self):
        config = validate_config([(1, 0)])
        with pytest.raises(OutOfRange):
            enumerate_signed_sums(config, math.nan)

    def test_cap(self):
        config = random_unit_config(2, 8, seed=0)
        with pytest.raises(TooLarge):
            enumerate_signed_sums(config, 1.0, cap=6)
        with pytest.raises(TooLarge):
            min_signed_norm(config, cap=6)


class TestMinSignedNorm:
    def test_odd_parallel_triple(self):
        config = validate_config([(1,), (1,), (1,)])
        value, signs = min_signed_norm(config)
        assert value == 1.0
        assert signs.signs == (1, 1, -1)

    def test_parallel_plus_orthogonal(self):
        config = validate_config([(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        value, _ = min_signed_norm(config)
        assert value == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_orthonormal_basis(self):
        config = validate_config([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        value, _ = min_signed_norm(config)
        assert value == pytest.approx(math.sqrt(3), abs=1e-15)


def _cross_check(config, radius):
    report = enumerate_signed_sums(config, radius)
    hits, min_norm, argmin, norms = census(config, radius)
    assert report.hits == len(hits)
    assert float(report.min_norm) == pytest.approx(min_norm, abs=1e-12)
    assert norms[report.argmin.signs] == pytest.approx(min_norm, abs=1e-12)
    assert report.argmin.lex_key() <= report.argmin.negated().lex_key()
    value, signs = min_signed_norm(config)
    assert value == pytest.approx(min_norm, abs=1e-12)
    assert signs == report.argmin
    return report, argmin


@pytest.mark.parametrize("seed", range(12))
def test_census_cross_check(seed):
    """Enumeration kernel against the itertools oracle: hit count, minimum
    and the argmin's achieved norm must agree; the argmin itself must be the
    lex-smaller of its antipodal twins."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    n = int(rng.integers(1, 10))
    config = random_unit_config(d, n, seed=seed + 500)
    _cross_check(config, float(rng.uniform(0.2, d + 1)))


@pytest.mark.parametrize("n", [12, 13, 14])
@pytest.mark.parametrize("seed", range(2))
def test_census_cross_check_across_chunks(n, seed):
    """As above at sizes whose 2^(n-1) kernel sums span several chunks."""
    rng = np.random.default_rng([seed, n])
    d = int(rng.integers(2, 5))
    config = random_unit_config(d, n, seed=seed + 900)
    _cross_check(config, float(rng.uniform(0.5, 2.0)))


@pytest.mark.parametrize(
    "rows",
    [
        # first minimiser in the first chunk, exact ties in every later one
        [(1.0, 0.0)] * 7 + [(0.0, 1.0)] * 7,
        # eta_2 = -1 is forced, so the first minimiser sits in the second chunk
        [(1.0, 0.0)] * 2 + [(0.0, 1.0)] * 10,
    ],
    ids=["7x(1,0)+7x(0,1)", "2x(1,0)+10x(0,1)"],
)
def test_exact_ties_across_chunks(rows):
    """Integer sums tie exactly, so the lexicographically first minimiser
    must win outright, whichever chunk the ties fall in."""
    report, argmin = _cross_check(validate_config(rows), math.sqrt(2))
    assert report.argmin.signs == argmin


@pytest.mark.parametrize("seed", range(8))
def test_count_conservation(seed):
    config = random_unit_config(3, 8, seed=seed)
    radii = [0.0, 0.5, 1.0, 1.7, 2.4, 3.5, 8.0 + 1]
    hits = [enumerate_signed_sums(config, r).hits for r in radii]
    assert hits == sorted(hits)
    assert hits[-1] == 2**8


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 7), st.data())
def test_negation_symmetry(seed, n, data):
    """Flipping any v_i permutes the assignments (eta_i -> -eta_i), so the
    census is unchanged: identical hits at a gap-safe radius, and the same
    minimum up to rounding-path differences."""
    config = random_unit_config(2, n, seed=seed)
    i = data.draw(st.integers(0, n - 1))
    flipped = config.replaced(i, tuple(-x for x in config.vectors[i]))
    values = sorted(set(census(config, 1.0)[3].values()))
    norms = [values[0]]
    for v in values[1:]:  # collapse near-ties so midpoints are gap-safe
        if v - norms[-1] > 1e-9:
            norms.append(v)
    cut = data.draw(st.integers(0, len(norms) - 1))
    # radius strictly between achieved norms (or beyond them all)
    r = (norms[cut] + norms[cut + 1]) / 2 if cut + 1 < len(norms) else norms[-1] + 1.0
    a = enumerate_signed_sums(config, r)
    b = enumerate_signed_sums(flipped, r)
    assert a.hits == b.hits
    assert float(a.min_norm) == pytest.approx(float(b.min_norm), abs=1e-12)
    assert a.margin == pytest.approx(b.margin, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_rotation_invariance(seed):
    config = random_unit_config(3, 7, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated = validate_config((config.as_array() @ Q.T), tolerance=1e-9)
    # pick a radius comfortably between two distinct achieved norms
    _, _, _, norms = census(config, 1.0)
    values = sorted(set(round(v, 9) for v in norms.values()))
    mid = (values[len(values) // 2] + values[len(values) // 2 - 1]) / 2
    a = enumerate_signed_sums(config, mid)
    b = enumerate_signed_sums(rotated, mid)
    assert a.hits == b.hits
    assert float(a.min_norm) == pytest.approx(float(b.min_norm), abs=1e-10)


@pytest.mark.parametrize("seed", range(10))
def test_antipodal_pairing_even_hits(seed):
    rng = np.random.default_rng(seed + 77)
    config = random_unit_config(int(rng.integers(1, 5)), int(rng.integers(1, 9)), seed=seed)
    report = enumerate_signed_sums(config, float(rng.uniform(0.3, 2.5)))
    assert report.hits % 2 == 0


@pytest.mark.parametrize("seed", range(5))
def test_oracle_self_consistency(seed):
    config = random_unit_config(3, 9, seed=seed)
    report = enumerate_signed_sums(config, 1.3)
    value, signs = min_signed_norm(config)
    assert value == float(report.min_norm)
    assert signs == report.argmin


def test_worker_count_invariance():
    config = random_unit_config(3, 16, seed=5)
    serial = enumerate_signed_sums(config, 1.8, workers=1)
    parallel = enumerate_signed_sums(config, 1.8, workers=4)
    assert serial.hits == parallel.hits
    assert serial.min_norm == parallel.min_norm  # bitwise
    assert serial.argmin == parallel.argmin
    assert serial.margin == parallel.margin


def test_sign_assignment_validation():
    with pytest.raises(ValueError):
        SignAssignment((1, 0, -1))
    with pytest.raises(ValueError):
        SignAssignment(())


def test_report_probability_exactness():
    config = random_unit_config(2, 5, seed=9)
    report = enumerate_signed_sums(config, 1.0)
    assert report.probability == Fraction(report.hits, 32)
