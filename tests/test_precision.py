import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signsum.constructions import construct_exponential, random_unit_config
from signsum.core import enumerate_signed_sums, half_norms_sq, rounding_bound, validate_config
from signsum.errors import AmbiguousClassification
from signsum.jsonio import report_to_obj
from signsum.precision import PrecisionPolicy, default_tolerance


class TestPolicy:
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
    rows = [[Fraction(x) for x in row] for row in config.vectors]
    out = []
    for tail in itertools.product((1, -1), repeat=config.n - 1):
        total = [sum(eta * row[j] for eta, row in zip((1, *tail), rows))
                 for j in range(config.dim)]
        out.append(sum(x * x for x in total))
    return out


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
    @given(_unit_configs(), st.sampled_from(["double", "interval:53", "interval:64"]))
    def test_covers_the_kernel_error(self, config, spec):
        """No computed norm^2 is further from the exact one than the bound."""
        policy = PrecisionPolicy.parse(spec)
        with policy.active():
            computed = np.concatenate(list(half_norms_sq(policy.array(config.vectors))))
        worst = max(abs(_exact(c) - e)
                    for c, e in zip(computed, _exact_half_norms_sq(config)))
        assert worst <= Fraction(rounding_bound(config.vectors, policy.bits))

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
