import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from oracles import exact_census
from signsum.constructions import (
    ConstructionSpec,
    construct_exponential,
    construct_orthonormal_multiplicity,
    random_unit_config,
)
from signsum.core import enumerate_signed_sums, half_norms_sq, rounding_bound, validate_config
from signsum.errors import AmbiguousClassification
from signsum.jsonio import report_to_obj
from signsum.precision import PrecisionPolicy, default_tolerance


class TestPolicy:
    def test_double_work_leaves_mpmath_unloaded(self):
        """Only the extended and interval branches import mpmath."""
        import signsum

        code = (
            "import sys, signsum\n"
            "from signsum.balancing import parity_balance\n"
            "from signsum.search import SearchSpec, maximize_min_norm\n"
            "config = signsum.validate_config([(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])\n"
            "signsum.min_signed_norm(config)\n"
            "maximize_min_norm(SearchSpec(d=3, n=4, restarts=2, steps=20))\n"
            "parity_balance(config)\n"
            "assert 'mpmath' not in sys.modules, sorted(sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(signsum.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_parse_round_trip(self):
        for text in ("double", "ext:128", "ext:256", "interval:64", "interval:256"):
            policy = PrecisionPolicy.parse(text)
            assert policy.spec_string() == text
        assert PrecisionPolicy.parse("interval").bits == 256
        assert PrecisionPolicy.parse("extended:100").bits == 100

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            PrecisionPolicy.parse("quad")
        with pytest.raises(ValueError):
            PrecisionPolicy("extended", 32)
        with pytest.raises(ValueError):
            PrecisionPolicy("double", 64)
        with pytest.raises(ValueError):
            PrecisionPolicy("double", 53, -1e-9)
        with pytest.raises(ValueError, match="unknown precision mode 'quad'"):
            PrecisionPolicy("quad")
        with pytest.raises(ValueError, match="at least 53 bits"):
            PrecisionPolicy("interval", 52)

    @pytest.mark.parametrize("text", ["ext:128:junk", "interval:64:x", "extended:70:1"])
    def test_rejects_trailing_fields(self, text):
        with pytest.raises(ValueError, match="cannot parse precision spec"):
            PrecisionPolicy.parse(text)

    def test_tolerance_scales_with_precision(self):
        assert default_tolerance("double", 53) == 1e-12
        assert default_tolerance("extended", 256) == 2.0 ** (24 - 256)
        assert PrecisionPolicy.extended(256).classification_tolerance == 2.0 ** (24 - 256)

    def test_bits_stop_where_the_default_tolerance_underflows(self):
        assert PrecisionPolicy.parse("ext:1098").classification_tolerance == 5e-324
        assert PrecisionPolicy.parse("interval:1098").classification_tolerance == 5e-324
        for text in ("ext:1099", "interval:1099", "interval:1200"):
            with pytest.raises(ValueError, match="at most 1098 bits"):
                PrecisionPolicy.parse(text)
        with pytest.raises(ValueError):  # an explicit tolerance does not lift the cap
            PrecisionPolicy.extended(1099, tolerance=1e-300)


class TestExtended:
    def test_counts_beyond_double(self):
        """At n = 13 the miss margin ~4.9e-16 drowns in double's tolerance
        band; 256-bit arithmetic resolves it exactly."""
        policy = PrecisionPolicy.extended(256)
        config = construct_exponential(13, policy=policy)
        report = enumerate_signed_sums(config, 1, policy=policy)
        assert report.hits == 2**7
        assert report.probability == Fraction(1, 2**6)
        assert 0 < report.margin < 1e-15

    def test_agrees_with_double_on_benign_input(self):
        config = validate_config([(0.6, 0.8), (0.8, -0.6), (1.0, 0.0)])
        double = enumerate_signed_sums(config, 1.5)
        extended = enumerate_signed_sums(config, 1.5, policy=PrecisionPolicy.extended(128))
        assert double.hits == extended.hits
        assert float(extended.min_norm) == pytest.approx(float(double.min_norm), abs=1e-12)


class TestInterval:
    def test_certain_classification(self):
        config = validate_config([(1, 0), (0, 1)])
        report = enumerate_signed_sums(config, 2.0, policy=PrecisionPolicy.interval(64))
        assert report.hits == 4

    def test_resolves_counts_double_band_swallows(self):
        """At n = 11 the duplicated-pair family's miss margin (~2e-13) sits
        inside double's 1e-12 band (96 apparent hits); 256-bit arithmetic
        certifies the true 64 with no ambiguity."""
        assert enumerate_signed_sums(construct_exponential(11), 1.0).hits == 96
        policy = PrecisionPolicy.interval(256)
        config = construct_exponential(11, policy=policy)
        report = enumerate_signed_sums(config, 1, policy=policy)
        assert report.hits == 64

    def test_resolves_near_boundary_when_intervals_allow(self):
        """(0.6, 0.8) has true norm^2 about 1 + 4.4e-17 (double rounding),
        and the 64-bit rounding bound, about 5e-19, certifies the miss."""
        config = validate_config([(0.6, 0.8)])
        policy = PrecisionPolicy.interval(64, tolerance=0.0)
        report = enumerate_signed_sums(config, 1.0, policy=policy)
        assert report.hits == 0

    def test_refuses_straddling_interval(self):
        """Radius placed exactly at an achieved norm of an inexact random
        configuration: that norm^2 lies within the 53-bit rounding bound
        (about 5e-14) of a zero-width band."""
        config = random_unit_config(2, 6, seed=0)
        policy = PrecisionPolicy.interval(53, tolerance=0.0)
        with pytest.raises(AmbiguousClassification):
            enumerate_signed_sums(config, 0.28234820914785475, policy=policy)

    def test_tolerance_band_restores_classification(self):
        config = random_unit_config(2, 6, seed=0)
        policy = PrecisionPolicy.interval(53)  # default band ~6e-9 at 53 bits
        report = enumerate_signed_sums(config, 0.28234820914785475, policy=policy)
        assert report.hits >= 2

    @pytest.mark.parametrize("n", [11, 13, 15])
    def test_reports_what_extended_reports(self, n):
        """Interval mode once ranked minima and margins by 53-bit midpoints:
        at n = 15 it reported min_norm 1.0000000000000000006 with an argmin
        that is not anti-aligned, and margin 4.4e-16 for 1.22e-18."""
        reports = {}
        for policy in (PrecisionPolicy.interval(256), PrecisionPolicy.extended(256)):
            config = construct_exponential(n, policy=policy)
            report = enumerate_signed_sums(config, 1, policy=policy)
            reports[policy.mode] = report_to_obj(report, policy)
        assert reports["interval"] == reports["extended"]


def _exact(x) -> Fraction:
    if isinstance(x, float):
        return Fraction(x)
    return (1 if x >= 0 else -1) * x.man * Fraction(2) ** x.exp  # mpf; man is unsigned


def _exact_half_norms_sq(config):
    """Exact norm^2 of every sum with eta_1 = +1, in lexicographic order."""
    rows = [[_exact(x) for x in row] for row in config.vectors]
    out = []
    for tail in itertools.product((1, -1), repeat=config.n - 1):
        total = [sum(eta * row[j] for eta, row in zip((1, *tail), rows))
                 for j in range(config.dim)]
        out.append(sum(x * x for x in total))
    return out


def _at_bits(config, bits):
    """The configuration renormalised in mpf at ``bits``: entries that are
    B-bit numbers, not floats (53 bits keeps the floats)."""
    if bits == 53:
        return config
    with mp.workprec(bits):
        rows = [[mp.mpf(x) for x in row] for row in config.vectors]
        rows = [[x / mp.sqrt(sum(y * y for y in row)) for x in row] for row in rows]
    return validate_config(rows)


@st.composite
def _unit_configs(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 10))
    entries = st.floats(-1, 1, allow_nan=False, allow_subnormal=False)
    rows = np.array(draw(st.lists(st.lists(entries, min_size=d, max_size=d),
                                  min_size=n, max_size=n)))
    rows[np.linalg.norm(rows, axis=1) < 1e-3] = np.eye(d)[0]  # no zero rows
    return validate_config(rows / np.linalg.norm(rows, axis=1)[:, None])


class TestRoundingBound:
    @settings(max_examples=60, deadline=None)
    @given(_unit_configs(), st.sampled_from([53, 64, 256]))
    def test_covers_the_kernel_error(self, config, bits):
        """No float64 norm^2 of the kernel, which every mode runs on
        float(entry) rows, is further from the exact norm^2 of the B-bit
        inputs than the filter bound rounding_bound(inputs, 53)."""
        config = _at_bits(config, bits)
        rows = np.array([[float(x) for x in row] for row in config.vectors])
        computed = np.concatenate(list(half_norms_sq(rows)))
        worst = max(abs(Fraction(c) - e)
                    for c, e in zip(computed, _exact_half_norms_sq(config)))
        assert worst <= Fraction(rounding_bound(config.vectors, 53))

    @settings(max_examples=60, deadline=None)
    @given(_unit_configs(), st.sampled_from([53, 64]), st.integers(0, 511),
           st.integers(-3, 3))
    def test_interval_counts_are_exact_or_refused(self, config, bits, pick, ulps):
        """At tolerance 0 and a radius within a few ulps of an achieved
        norm, interval mode returns the exact census's count, or refuses
        only when some exact norm^2 lies within twice the bound of r^2."""
        exact = _exact_half_norms_sq(config)
        radius = math.sqrt(float(exact[pick % len(exact)]))
        for _ in range(abs(ulps)):
            radius = math.nextafter(radius, math.inf if ulps > 0 else 0.0)
        policy = PrecisionPolicy.interval(bits, tolerance=0.0)
        r_sq = Fraction(radius) ** 2
        try:
            report = enumerate_signed_sums(config, radius, policy=policy)
        except AmbiguousClassification:
            bound = Fraction(rounding_bound(config.vectors, bits, radius))
            assert any(abs(e - r_sq) <= 2 * bound for e in exact)
        else:
            assert report.hits == 2 * sum(e <= r_sq for e in exact)


@st.composite
def _census_cases(draw):
    """(config, policy, radius): B-bit inputs, random or the exponential
    family, and a radius within a few B-bit ulps of an achieved norm."""
    bits = draw(st.sampled_from([64, 256]))
    tolerance = draw(st.sampled_from([0.0, None]))
    policy = draw(st.sampled_from([PrecisionPolicy.extended, PrecisionPolicy.interval]))
    policy = policy(bits, tolerance=tolerance)
    if draw(st.booleans()):
        config = _at_bits(draw(_unit_configs()), bits)
    else:
        config = construct_exponential(draw(st.sampled_from([1, 3, 5, 7, 9])), policy=policy)
    norms = _exact_half_norms_sq(config)
    target = norms[draw(st.integers(0, len(norms) - 1))]
    ulps = draw(st.integers(-3, 3))
    with mp.workprec(bits):
        radius = mp.sqrt(mp.mpf(target.numerator) / target.denominator)
        step = mp.ldexp(1, (mp.frexp(radius)[1] if radius else 0) - bits)
        radius = abs(radius + ulps * step)
    return config, policy, radius


class TestExactRecheck:
    """Extended and interval modes against a Fraction census of the same
    B-bit inputs and the same B-bit r^2 and r^2 + tol."""

    @settings(max_examples=120, deadline=None)
    @given(_census_cases())
    def test_matches_the_fraction_census(self, case):
        config, policy, radius = case
        with policy.active():
            radius_sq = mp.mpf(radius) * mp.mpf(radius)
            threshold = radius_sq + mp.mpf(policy.classification_tolerance)
        rows = [[_exact(x) for x in row] for row in config.vectors]
        oracle = exact_census(rows, _exact(radius_sq), _exact(threshold),
                              Fraction(policy.classification_tolerance))
        bound = Fraction(rounding_bound(config.vectors, policy.bits, radius,
                                        policy.classification_tolerance))
        straddles = any(abs(ns - _exact(threshold)) <= bound for ns in oracle["norms"])
        try:
            report = enumerate_signed_sums(config, radius, policy=policy)
        except AmbiguousClassification:
            assert policy.mode == "interval" and straddles
            return
        assert not (policy.mode == "interval" and straddles)
        assert (report.hits, report.band_count) == (oracle["hits"], oracle["band"])
        assert report.margin == (0.0 if oracle["margin"] is None else float(oracle["margin"]))
        assert report.argmin.signs == oracle["argmin"]
        # min_norm is the B-bit number nearest sqrt(least): within half an ulp.
        min_norm = report.min_norm
        bits = min_norm.man.bit_length()  # mpf keeps an odd mantissa
        assert bits <= policy.bits
        half_ulp = Fraction(2) ** (min_norm.exp + bits - policy.bits - 1) if min_norm else 0
        root = _exact(min_norm)
        assert (root - half_ulp) ** 2 <= oracle["least"] <= (root + half_ulp) ** 2

    def test_exact_ties_resolve_to_the_first_minimiser(self):
        """Every anti-aligned sum of exponential:9 has norm^2 exactly 1;
        256-bit arithmetic rounded some below 1 and ranked a later one
        first."""
        policy = PrecisionPolicy.extended(256)
        report = enumerate_signed_sums(construct_exponential(9, policy=policy), 1, policy=policy)
        assert report.min_norm == 1
        assert report.argmin.signs == (1, -1, 1, -1, 1, -1, 1, -1, 1)

    def test_radius_past_the_float_range(self):
        """r^2 = 1e400 exceeds every float: extended reports every sum and
        margin inf, as double does, and interval's bound is inf, so it
        refuses instead of raising OverflowError."""
        config = random_unit_config(2, 5, seed=1)
        for policy in (PrecisionPolicy.double(), PrecisionPolicy.extended(64)):
            report = enumerate_signed_sums(config, 1e200, policy=policy)
            assert (report.hits, report.margin) == (32, math.inf)
        with pytest.raises(AmbiguousClassification, match="rounding bound inf"):
            enumerate_signed_sums(config, 1e200, policy=PrecisionPolicy.interval(64))

    def test_ties_beyond_one_chunk(self):
        """orthomult:2:7,7 at ext:256: 2 * C(7,3)^2 sums tie at the minimum
        norm^2 2 (the odd multiplicities forbid 0), spread over all
        2^13 / core._CHUNK chunks of the kernel (4 of 2^11)."""
        policy = PrecisionPolicy.extended(256)
        config = construct_orthonormal_multiplicity(2, (7, 7))
        report = enumerate_signed_sums(config, math.sqrt(2), policy=policy)
        with policy.active():
            assert report.min_norm == mp.sqrt(2)
        assert report.argmin.signs == 2 * ((1,) * 4 + (-1,) * 3)
        assert report.hits == (2 * math.comb(7, 3)) ** 2


class TestMemory:
    """tracemalloc peaks of one call, against the object-array kernel's:
    1 612 780 bytes on ext:256 exponential:15 and 130 480 on double
    random:3:20 (measured at the parent of the float64 kernel), and against
    the 2^10-sum chunks' 164 064 on double random:4:16, whose chunks hold
    several head columns (measured at the parent of the 2^11-sum chunks)."""

    @pytest.mark.parametrize("spec, precision, bound", [
        ("exponential:15", "ext:256", 400_000),  # a quarter of the old peak
        ("random:3:20", "double", 163_100),  # the old peak plus 25 %
        ("random:4:16", "double", 164_100),  # the old peak
    ])
    def test_peak_allocation(self, spec, precision, bound):
        policy = PrecisionPolicy.parse(precision)
        config = ConstructionSpec.from_string(spec, seed=1).build(policy)
        tracemalloc.start()
        try:
            enumerate_signed_sums(config, 1.0, policy=policy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestMarginSemantics:
    def test_boundary_assignments_do_not_set_margin(self):
        config = validate_config([(1, 0), (0, 1)])
        report = enumerate_signed_sums(config, math.sqrt(2))
        assert report.margin == 0.0  # everything is pinned to the boundary

    def test_margin_measures_nearest_off_boundary_assignment(self):
        config = validate_config([(1, 0), (1, 0)])
        report = enumerate_signed_sums(config, 1.0)
        # norms^2 are {0, 0, 4, 4}: nearest gap to r^2 = 1 is 1
        assert report.margin == 1.0
