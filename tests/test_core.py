import copy
import dataclasses
import importlib.util
import itertools
import math
import pathlib
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signsum import core
from signsum.core import (
    SignAssignment,
    VectorConfig,
    enumerate_signed_sums,
    min_signed_norm,
    signed_sum,
    validate_config,
)
from signsum.balancing import parity_balance
from signsum.constructions import (
    ConstructionSpec,
    construct_orthonormal_multiplicity,
    random_unit_config,
)
from signsum.errors import DimensionMismatch, NormViolation, OutOfRange, TooLarge
from signsum.precision import PrecisionPolicy

import oracles
from oracles import census, doubling_half_norms_sq, doubling_sign_table


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

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_nan_radius_rejected(self, radius):
        config = validate_config([(1, 0)])
        with pytest.raises(OutOfRange):
            enumerate_signed_sums(config, radius)

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(core, "ENUMERATION_CAP", 6)
        config = random_unit_config(2, 8, seed=0)
        with pytest.raises(TooLarge):
            enumerate_signed_sums(config, 1.0)
        with pytest.raises(TooLarge):
            min_signed_norm(config)


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

    def test_double_norm_is_the_correctly_rounded_root(self):
        # float ** 0.5 gives 0.482862194463511 here, one ulp below the root.
        config = random_unit_config(2, 5, seed=1393)
        norm_sq = min(chunk.min() for chunk in core.half_norms_sq(config.as_array()))
        assert norm_sq == 0.23315589884211751
        value, _ = min_signed_norm(config)
        assert value == math.sqrt(norm_sq) == 0.48286219446351103
        assert enumerate_signed_sums(config, 1.0).min_norm == value


@pytest.mark.parametrize("d", range(8, 30))
def test_single_vector_norm_sq_in_component_order(d):
    """At n = 1 each norm^2 adds the squares in component order, as the
    Python loop does, not pairwise as a sum over the length-d axis would."""
    vectors = np.random.default_rng(d).standard_normal((20, d))
    for row in vectors / np.linalg.norm(vectors, axis=1)[:, None]:
        expected = 0.0
        for x in row.tolist():
            expected += x * x
        assert [c.tolist() for c in core.half_norms_sq(row[None, :])] == [[expected]]
        assert min_signed_norm(validate_config([row.tolist()]))[0] == math.sqrt(expected)


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


# log2 of the kernel's chunk: 2^(n-1) kernel sums fill 2^(n - 1 - _CHUNK_BITS) chunks.
_CHUNK_BITS = core._CHUNK.bit_length() - 1


def test_oracle_chunk_is_the_kernels():
    assert oracles._CHUNK == core._CHUNK


@pytest.mark.parametrize("n", range(12, _CHUNK_BITS + 5))
@pytest.mark.parametrize("seed", range(2))
def test_census_cross_check_across_chunks(n, seed):
    """As above at sizes up to 2^(n-1) kernel sums in 8 chunks, with 2 and
    4 chunks among them."""
    rng = np.random.default_rng([seed, n])
    d = int(rng.integers(2, 5))
    config = random_unit_config(d, n, seed=seed + 900)
    _cross_check(config, float(rng.uniform(0.5, 2.0)))


@pytest.mark.parametrize(
    "rows",
    [
        # first minimiser in the first chunk, exact ties in every later one
        [(1.0, 0.0)] * 7 + [(0.0, 1.0)] * 7,
        # eta_2 = -1 is forced, so the first minimiser is sum 2^(n-2): in the
        # second chunk of 2^10, and of _CHUNK when n = 2 + _CHUNK_BITS
        [(1.0, 0.0)] * 2 + [(0.0, 1.0)] * 10,
        [(1.0, 0.0)] * 2 + [(0.0, 1.0)] * _CHUNK_BITS,
    ],
    ids=["7x(1,0)+7x(0,1)", "2x(1,0)+10x(0,1)", f"2x(1,0)+{_CHUNK_BITS}x(0,1)"],
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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 12), st.integers(0, 4095),
       st.sampled_from([0.0, 1e-12, 1e-9]), st.integers(-4, 4))
def test_double_band_count_is_the_float_band(seed, n, pick, tolerance, ulps):
    """In double, band_count counts the float norms^2 in (r^2, r^2 + tol]
    and margin is the least float gap outside [-tol, tol], whichever chunks
    the band and the gaps fall in; the radius is an achieved norm moved by
    a few ulps."""
    config = random_unit_config(3, n, seed=seed)
    norms_sq = np.concatenate(list(core.half_norms_sq(config.as_array())))
    radius = math.sqrt(float(norms_sq[pick % len(norms_sq)]))
    for _ in range(abs(ulps)):
        radius = math.nextafter(radius, math.inf if ulps > 0 else 0.0)
    policy = PrecisionPolicy.double(tolerance)
    report = enumerate_signed_sums(config, radius, policy=policy)
    radius_sq = radius * radius
    threshold = radius_sq + tolerance
    assert report.hits == 2 * int(np.count_nonzero(norms_sq <= threshold))
    assert report.band_count == 2 * int(np.count_nonzero(
        (norms_sq > radius_sq) & (norms_sq <= threshold)))
    gaps = np.abs(norms_sq - radius_sq)
    gaps = gaps[gaps > tolerance]
    assert report.margin == (float(gaps.min()) if gaps.size else 0.0)


# Entries for the bit-level tests: signed zeros, subnormals, and normal
# magnitudes from 1e-300 to 1e300, whose sums of up to 14 stay finite.
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, -1e-310]),
    st.floats(-1e-300, 1e-300).filter(lambda x: x == 0 or abs(x) < 2.2250738585072014e-308),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-9.99, 9.99), st.integers(-300, 299)),
)


@st.composite
def _bit_rows(draw):
    """(k, d) rows, k <= 14 and d <= 9, some columns all +-0.0."""
    k, d = draw(st.integers(0, 14)), draw(st.integers(1, 9))
    rows = np.array(draw(st.lists(_ENTRIES, min_size=k * d, max_size=k * d)), dtype=float)
    rows = rows.reshape(k, d)
    for j in draw(st.sets(st.integers(0, d - 1), max_size=d)):
        rows[:, j] = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=k, max_size=k))
    return rows


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestSignTableBits:
    """The cached-matrix kernel gives the doubling's bits, signed zeros and
    subnormals included; np.array_equal would miss a -0.0."""

    @settings(max_examples=150, deadline=None)
    @given(_bit_rows())
    def test_sign_columns_equal_doubling(self, rows):
        table = core.sign_columns(rows)
        assert table.shape == (rows.shape[1], 2 ** len(rows))
        assert np.array_equal(_bits(table.T), _bits(doubling_sign_table(rows)))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda d: st.lists(
        st.lists(st.one_of(st.integers(-9, 9), st.integers(-2**256, 2**256)),
                 min_size=d, max_size=d), max_size=9)).filter(len))
    @example([[2**255 + 1, -2**256 + 3], [7, -(2**200)], [0, 2**256 - 1]])
    def test_integer_sign_columns_are_exact_ints(self, ints):
        """On an object array of Python ints the table is exact ints: a float
        initial or a float sign matrix would turn it into floats."""
        rows = np.array(ints, dtype=object)
        table = core.sign_columns(rows)
        assert all(type(x) is int for x in table.ravel())
        assert table.T.tolist() == doubling_sign_table(rows).tolist()

    @settings(max_examples=150, deadline=None)
    @given(_bit_rows().filter(len))
    @example(np.full((1, 9), 0.3))  # n = 1: a pairwise sum of the squares is an ulp higher
    def test_half_norms_sq_chunks_equal_doubling(self, rows):
        with np.errstate(over="ignore"):  # squares past 1e154 are inf in both
            ours, theirs = list(core.half_norms_sq(rows)), list(doubling_half_norms_sq(rows))
        assert len(ours) == len(theirs)
        assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(ours, theirs))

    @pytest.mark.parametrize("k", range(0, 15))
    def test_every_size_with_zero_columns(self, k):
        rng = np.random.default_rng(k)
        rows = rng.standard_normal((k, 4))
        rows[:, 1], rows[:, 3] = 0.0, -0.0
        assert np.array_equal(_bits(core.sign_columns(rows).T), _bits(doubling_sign_table(rows)))
        if k:
            for a, b in zip(core.half_norms_sq(rows), doubling_half_norms_sq(rows)):
                assert np.array_equal(_bits(a), _bits(b))


class TestConfigArray:
    """VectorConfig keeps one read-only float array; as_array hands out copies."""

    def test_as_array_is_a_fresh_writable_copy(self):
        config = random_unit_config(3, 9, seed=4)
        expected = min_signed_norm(config)
        first = config.as_array()
        assert first.flags.writeable and first is not config.as_array()
        first[:] = 0.0
        assert np.array_equal(config.as_array(), np.array(config.vectors))
        assert min_signed_norm(config) == expected

    @pytest.mark.parametrize("spec, precision", [("exponential:9", "ext:256"),
                                                 ("exponential:15", "ext:256"), ("tight", "ext:128"),
                                                 ("random:4:7", "double")])
    def test_kept_rows_are_float_of_each_entry(self, spec, precision):
        config = ConstructionSpec.from_string(spec, seed=2).build(PrecisionPolicy.parse(precision))
        want = np.array([[float(x) for x in row] for row in config.vectors])
        assert np.array_equal(_bits(config.as_array()), _bits(want))
        assert np.array_equal(_bits(config._floats), _bits(np.array(config.vectors, dtype=float)))

    def test_kept_array_is_read_only(self):
        config = random_unit_config(2, 3, seed=5)
        with pytest.raises(ValueError):
            config._floats[0, 0] = 0.0

    def test_equality_hash_repr_and_pickle(self):
        a = random_unit_config(3, 5, seed=6)
        b = VectorConfig(a.dim, a.vectors, a.mode, a.norm_tolerance)
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((a.dim, a.vectors, a.mode, a.norm_tolerance))
        assert "_floats" not in repr(a)
        assert a != a.replaced(0, (0.0, 0.0, 1.0))
        clone = pickle.loads(pickle.dumps(a))
        assert clone == a and hash(clone) == hash(a)
        assert np.array_equal(clone.as_array(), a.as_array())
        assert not clone._floats.flags.writeable


def _outcome(build):
    """None if build() accepts, else the raised error's type, message, index and norm bits."""
    try:
        build()
    except (DimensionMismatch, NormViolation) as exc:
        norm = repr(getattr(exc, "norm", None))  # repr keeps nan comparable
        return type(exc), str(exc), getattr(exc, "index", None), norm
    return None


@st.composite
def _validation_cases(draw):
    """Rows near or off unit norm, some of them mpf, a tolerance at some row's
    distance from the bound, +-1 ulp, and perhaps a row of another dimension
    before or after a bad norm."""
    mode = draw(st.sampled_from(["strict", "beck"]))
    dim, n = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    rows = []
    for _ in range(n):
        row = draw(st.lists(st.floats(-1.5, 1.5, allow_nan=False), min_size=dim, max_size=dim))
        scale = math.sqrt(sum(x * x for x in row))
        if scale > 0 and draw(st.booleans()):
            row = [x / scale for x in row]  # within a few ulps of 1
        rows.append(row)
    k = draw(st.integers(0, n - 1))
    norm = float(sum(x * x for x in rows[k])) ** 0.5
    gap = abs(norm - 1.0) if mode == "strict" else norm - 1.0
    tolerance = draw(st.sampled_from([gap, math.nextafter(gap, math.inf),
                                      math.nextafter(gap, -math.inf), 1e-9, 0.0, 0.3]))
    tolerance = max(0.0, tolerance)
    if draw(st.booleans()):  # mpf entries: float(x) rounds them
        import mpmath
        with mpmath.mp.workprec(128):
            rows = [[mpmath.mpf(x) * (1 + mpmath.mpf(2) ** -60) if draw(st.booleans())
                     else x for x in row] for row in rows]
    if draw(st.booleans()):  # a bad norm, then a row of another dimension, or the reverse
        bad = draw(st.integers(0, n))
        rows.insert(bad, [2.0] + [0.0] * (dim - 1))
        rows.insert(draw(st.integers(0, n + 1)), [0.5] * (dim + draw(st.sampled_from([-1, 1]))))
    return mode, dim, tuple(map(tuple, rows)), tolerance


class TestValidationMatchesLoop:
    """VectorConfig's one pass over its float rows decides, raises and reports
    exactly as the per-row loop in oracles.loop_validation."""

    @settings(max_examples=400, deadline=None)
    @given(_validation_cases())
    @example(("strict", 2, ((2.0, 0.0), (1.0,)), 1e-9))
    @example(("strict", 2, ((1.0,), (2.0, 0.0)), 1e-9))
    @example(("beck", 2, ((0.6, 0.8), (2.0, 0.0), (1.0, 0.0, 0.0)), 1e-9))
    @example(("beck", 2, ((0.6, 0.8), (1.0, 0.0, 0.0), (2.0, 0.0)), 1e-9))
    @example(("strict", 3, ((math.nan, 0.0, 0.0), (1.0, 0.0, 0.0)), 1e-9))
    @example(("beck", 1, ((), (1.0,)), 0.0))
    def test_same_decision_error_and_message(self, case):
        mode, dim, rows, tolerance = case
        want = _outcome(lambda: oracles.loop_validation(rows, dim, mode, tolerance))
        assert _outcome(lambda: VectorConfig(dim, rows, mode, tolerance)) == want

    def test_norm_is_a_power_not_a_sqrt(self):
        """Rows whose squared norm s has s ** 0.5 != sqrt(s), about one in 1200
        here: every error reports the loop's norm, and sqrt's would differ."""
        rng = np.random.default_rng(22)
        rows = rng.standard_normal((40000, 3)) * rng.uniform(0.4, 0.8, (40000, 1))
        picked = [row for row in map(tuple, rows.tolist())
                  if (s := sum(x * x for x in row)) ** 0.5 != math.sqrt(s)][:24]
        assert len(picked) >= 8
        for row, mode in itertools.product(picked, ("strict", "beck")):
            rows = ((0.0, 1.0, 0.0), row)
            want = _outcome(lambda: oracles.loop_validation(rows, 3, mode, 0.0))
            assert want is not None or mode == "beck"
            assert _outcome(lambda: VectorConfig(3, rows, mode, 0.0)) == want

    @pytest.mark.parametrize("mode", ["strict", "beck"])
    def test_tolerance_at_each_ulp(self, mode):
        rng = np.random.default_rng(21)
        for _ in range(300):
            row = rng.standard_normal(5)
            row = tuple((row / np.linalg.norm(row) * rng.uniform(0.9, 1.1)).tolist())
            norm = float(sum(x * x for x in row)) ** 0.5
            gap = abs(norm - 1.0) if mode == "strict" else max(0.0, norm - 1.0)
            for tolerance in (math.nextafter(gap, -math.inf), gap, math.nextafter(gap, math.inf)):
                tolerance = max(0.0, tolerance)
                rows = ((1.0, 0.0, 0.0, 0.0, 0.0), row)
                want = _outcome(lambda: oracles.loop_validation(rows, 5, mode, tolerance))
                assert _outcome(lambda: VectorConfig(5, rows, mode, tolerance)) == want


class TestKeptMinimiser:
    """min_signed_norm keeps its double-mode answer on the config."""

    @staticmethod
    def _count_walks(monkeypatch):
        modes, walk = [], core._walk
        monkeypatch.setattr(core, "_walk", lambda config, policy, radius: (
            modes.append(policy.mode) or walk(config, policy, radius)))
        return modes

    @pytest.mark.parametrize("d, n", [(3, 8), (4, 8), (3, 5), (3, 12)])  # oblique, fallback
    def test_parity_balance_then_check_walks_once(self, monkeypatch, d, n):
        config = random_unit_config(d, n, seed=40 + n)
        modes = self._count_walks(monkeypatch)
        report = parity_balance(config)
        value, signs = min_signed_norm(config)
        assert modes == ["double"]
        assert (report.achieved_norm, report.signs) == (value, signs)

    def test_clustered_branch_walks_once(self, monkeypatch):
        config = construct_orthonormal_multiplicity(3, [2, 1, 1])
        modes = self._count_walks(monkeypatch)
        assert parity_balance(config).case_taken == "clustered"
        min_signed_norm(config)
        assert modes == ["double"]

    @pytest.mark.parametrize("policy", [PrecisionPolicy.extended(128),
                                        PrecisionPolicy.interval(64)])
    def test_other_modes_neither_read_nor_keep(self, monkeypatch, policy):
        config = random_unit_config(3, 6, seed=41)
        modes = self._count_walks(monkeypatch)
        first = min_signed_norm(config, policy)
        assert min_signed_norm(config, policy) == first
        assert not hasattr(config, "_minimiser")
        min_signed_norm(config)
        min_signed_norm(config, policy)
        assert modes == [policy.mode, policy.mode, "double", policy.mode]

    def test_copies_walk_afresh(self, monkeypatch):
        config = random_unit_config(3, 7, seed=42)
        kept = min_signed_norm(config)
        copies = [config.replaced(0, config.vectors[0]), dataclasses.replace(config),
                  pickle.loads(pickle.dumps(config)), copy.copy(config), copy.deepcopy(config)]
        modes = self._count_walks(monkeypatch)
        for clone in copies:
            assert clone == config and not hasattr(clone, "_minimiser")
            assert min_signed_norm(clone) == kept
        assert modes == ["double"] * len(copies)
        assert "_minimiser" not in repr(config) and hash(config) == hash(copies[0])

    @pytest.mark.parametrize("seed", range(12))
    def test_kept_answer_is_a_fresh_walk_bit_for_bit(self, seed):
        config = random_unit_config(1 + seed % 4, 2 + seed, seed=seed)
        value, signs = min_signed_norm(config)
        kept_value, kept_signs = min_signed_norm(config)
        *_, fresh_value, fresh_signs = core._walk(config, PrecisionPolicy.double(), None)
        assert kept_value.hex() == value.hex() == float(fresh_value).hex()
        assert kept_signs == signs == fresh_signs

    def test_positional_none_policy_hits(self, monkeypatch):
        """perfbench/tracing.py wraps the min_signed_norm that balancing
        imported and calls it with policy=None positionally."""
        spec = importlib.util.spec_from_file_location(
            "tracing", pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py")
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        config = random_unit_config(3, 8, seed=43)
        modes = self._count_walks(monkeypatch)
        with tracing.core_boundary_spans(tracer):
            parity_balance(config)
        assert min_signed_norm(config, None) == min_signed_norm(config)
        assert modes == ["double"]
        assert [s[tracing.NAME] for s in tracer.spans] == ["core"]

    def test_cap_is_read_at_call_time(self, monkeypatch):
        config = random_unit_config(3, 5, seed=44)
        min_signed_norm(config)
        monkeypatch.setattr(core, "ENUMERATION_CAP", 4)
        with pytest.raises(TooLarge):
            min_signed_norm(config)
