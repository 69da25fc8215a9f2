import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from signsum.constructions import (
    construct_exponential,
    construct_orthonormal_multiplicity,
    construct_tight_family,
    pair_anti_aligned,
    random_unit_config,
)
from signsum.core import SignAssignment, enumerate_signed_sums, min_signed_norm
from signsum.errors import (
    DegenerateFamily,
    EvenN,
    NotOrthogonal,
    PrecisionInsufficient,
)
from signsum.precision import PrecisionPolicy

from oracles import census, uniform_sphere_abs_inner


class TestExponentialFamily:
    def test_single_vector(self):
        config = construct_exponential(1)
        assert config.vectors == ((1.0, 0.0),)

    def test_n3_entries(self):
        config = construct_exponential(3)
        x, y = config.vectors[0]
        assert y == 0.05  # sin(theta_1) = c exactly
        assert x == pytest.approx(math.sqrt(399) / 20, abs=1e-15)
        assert config.vectors[0] == config.vectors[1]
        assert config.vectors[2] == (1.0, 0.0)

    def test_anti_aligned_pair_cancels_bitwise(self):
        from signsum.core import signed_sum

        config = construct_exponential(3)
        assert signed_sum(config, SignAssignment((1, -1, 1))) == (1.0, 0.0)

    def test_even_n_rejected(self):
        with pytest.raises(EvenN):
            construct_exponential(4)

    def test_decay_out_of_range(self):
        with pytest.raises(ValueError):
            construct_exponential(3, c=1.5)

    def test_double_gate(self):
        construct_exponential(11)  # margin 2e-13 still clears the band floor
        with pytest.raises(PrecisionInsufficient):
            construct_exponential(13)
        construct_exponential(13, policy=PrecisionPolicy.extended(256))

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_count_law_double(self, n):
        config = construct_exponential(n)
        report = enumerate_signed_sums(config, 1.0)
        assert report.hits == 2 ** ((n + 1) // 2)
        assert report.probability == Fraction(1, 2 ** (n // 2))

    def test_hit_set_equals_anti_aligned_set(self):
        config = construct_exponential(5)
        hits, _, _, _ = census(config, 1.0)
        for signs in itertools.product((1, -1), repeat=5):
            assert (signs in hits) == pair_anti_aligned(SignAssignment(signs))

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_margin_law_sharp(self, n):
        """The minimum excess over radius 1 among non-qualifying assignments
        is 4*(1 - sqrt(1 - c^(2k))), k = floor(n/2), which sits just above
        2*c^(2k); in double mode the comparison carries the ~1e-14
        accumulated-rounding floor."""
        report = enumerate_signed_sums(construct_exponential(n), 1.0)
        k = n // 2
        closed_form = 4.0 * (1.0 - math.sqrt(1.0 - 0.05 ** (2 * k)))
        assert report.margin == pytest.approx(closed_form, rel=1e-6, abs=1e-13)
        assert report.margin > 1.9 * 0.05 ** (2 * k)


class TestAntiAlignedPredicate:
    def test_basic(self):
        assert pair_anti_aligned(SignAssignment((1, -1, 1)))
        assert not pair_anti_aligned(SignAssignment((1, 1, -1)))

    def test_even_rejected(self):
        with pytest.raises(EvenN):
            pair_anti_aligned(SignAssignment((1, -1)))


class TestOrthonormalMultiplicity:
    def test_basis_pair(self):
        config = construct_orthonormal_multiplicity(2, (1, 1))
        assert min_signed_norm(config)[0] == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_all_odd_gives_sqrt_d(self):
        config = construct_orthonormal_multiplicity(3, (3, 1, 1))
        assert min_signed_norm(config)[0] == pytest.approx(math.sqrt(3), abs=1e-15)

    def test_even_multiplicity_cancels(self):
        config = construct_orthonormal_multiplicity(2, (2, 1))
        assert min_signed_norm(config)[0] == 1.0

    @pytest.mark.parametrize("mults", [(1,), (3, 3), (1, 3, 5), (3, 1, 1, 1)])
    def test_all_odd_coordinates_are_odd_integers(self, mults):
        d = len(mults)
        config = construct_orthonormal_multiplicity(d, mults)
        _, _, _, norms = census(config, 1.0)
        rows = config.as_array()
        for signs in itertools.product((1, -1), repeat=config.n):
            total = np.asarray(signs, dtype=float) @ rows
            assert all(abs(c) % 2 == 1 for c in total.astype(int))
            assert abs(float(total @ total)) >= d

    def test_multiplicity_validation(self):
        with pytest.raises(ValueError):
            construct_orthonormal_multiplicity(2, (1, 1, 1))
        with pytest.raises(ValueError):
            construct_orthonormal_multiplicity(2, (0, 0))


class TestTightFamily:
    def test_canonical_instance(self):
        config = construct_tight_family()
        assert config.n == 4
        assert min_signed_norm(config)[0] == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_degenerate_placement_rejected(self):
        v1 = (0.0, 1 / math.sqrt(2), 1 / math.sqrt(2))  # 2*v1 = v3 + v4
        with pytest.raises(DegenerateFamily) as exc:
            construct_tight_family(v1=v1)
        assert exc.value.achieved < math.sqrt(2) - 1e-9

    def test_duplicated_pair_preserves_minimum(self):
        config = construct_tight_family(extra_pairs=[0])
        assert config.n == 6
        assert min_signed_norm(config)[0] == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_orthogonality_enforced(self):
        with pytest.raises(NotOrthogonal):
            construct_tight_family(v3=(0, 1, 0), v4=(0, 0.8, 0.6))

    @pytest.mark.parametrize("placement", [{"v1": (1.0, 0.0)}, {"v3": (0, 1, 0, 0)},
                                           {"v4": (0.0, 0.0, 1.0, 0.0)}])
    def test_family_lives_in_r3(self, placement):
        with pytest.raises(ValueError, match="the family lives in R"):
            construct_tight_family(**placement)


class TestConstructionSpec:
    def test_builds_match_direct_calls(self):
        from signsum.constructions import ConstructionSpec

        assert (ConstructionSpec.from_string("exponential:9").build().vectors
                == construct_exponential(9).vectors)
        assert (ConstructionSpec.from_string("orthomult:3:3,1,1").build().vectors
                == construct_orthonormal_multiplicity(3, (3, 1, 1)).vectors)
        assert ConstructionSpec.from_string("tight").build().n == 4
        assert (ConstructionSpec.from_string("random:3:6", seed=5).build().vectors
                == random_unit_config(3, 6, seed=5).vectors)

    def test_validation(self):
        from signsum.constructions import ConstructionSpec

        with pytest.raises(ValueError):
            ConstructionSpec("exponential")  # n missing
        with pytest.raises(ValueError):
            ConstructionSpec("hexagonal", n=3)
        with pytest.raises(ValueError):
            ConstructionSpec.from_string("hexagonal:3")


class TestRandomUnitConfig:
    def test_deterministic(self):
        a = random_unit_config(3, 5, seed=42)
        b = random_unit_config(3, 5, seed=42)
        assert a.vectors == b.vectors

    def test_unit_norms(self):
        config = random_unit_config(4, 20, seed=1)
        for row in config.as_array():
            assert float(row @ row) == pytest.approx(1.0, abs=1e-12)

    def test_one_dimensional_signs(self):
        config = random_unit_config(1, 8, seed=7)
        assert all(row[0] in (-1.0, 1.0) for row in config.vectors)

    def test_mean_absolute_inner_product(self):
        """At d = 3 the inner product of independent uniform unit vectors is
        uniform on [-1, 1], so E|<u, v>| = 1/2; check within 20%."""
        estimate = uniform_sphere_abs_inner(3, 10000, seed=99)
        assert abs(estimate - 0.5) < 0.1
        config = random_unit_config(3, 144, seed=5)
        rows = config.as_array()
        gram = rows @ rows.T
        pairs = np.abs(gram[np.triu_indices(144, k=1)])
        assert abs(float(np.mean(pairs)) - 0.5) < 0.1
