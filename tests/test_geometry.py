import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signsum.errors import (
    DegeneratePlane,
    NotAlmostOrthogonal,
    NormViolation,
    OutOfRange,
    SingularInput,
)
from signsum.geometry import (
    ChordQuery,
    PlaneBasis,
    chord_length,
    distance_to_inner,
    inner_to_distance,
    nearest_orthonormal,
    project_onto_plane,
)

from oracles import chord_by_intersection, polar_by_eigh


class TestInnerDistance:
    @pytest.mark.parametrize(
        "delta,expected",
        [(0.0, 0.0), (1.0, math.sqrt(2)), (2.0, 2.0)],
    )
    def test_reference_points(self, delta, expected):
        assert inner_to_distance(delta) == pytest.approx(expected, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            inner_to_distance(-0.1)
        with pytest.raises(OutOfRange):
            inner_to_distance(2.1)
        with pytest.raises(OutOfRange):
            distance_to_inner(2.5)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 2.0, allow_nan=False))
    def test_round_trip(self, delta):
        assert distance_to_inner(inner_to_distance(delta)) == pytest.approx(delta, abs=1e-12)


class TestChord:
    def test_tangential_line_gives_2a(self):
        assert chord_length(ChordQuery(2.0, 1.0, 0.0)) == pytest.approx(2.0, abs=1e-15)

    def test_radial_line_gives_diameter(self):
        assert chord_length(ChordQuery(2.0, 1.0, math.pi / 2)) == pytest.approx(4.0, abs=1e-12)

    def test_oblique_secant_matches_intersection_oracle(self):
        value = chord_length(ChordQuery(2.0, 1.0, math.pi / 6))
        assert value == pytest.approx(2.6457513110645907, abs=1e-12)  # oracle-computed
        assert value == pytest.approx(chord_by_intersection(2.0, 1.0, math.pi / 6), abs=1e-12)
        assert value == pytest.approx(2 * math.sqrt(1.75), abs=1e-12)

    def test_lower_bound_tight_only_at_zero(self):
        r, a = 3.0, 1.2
        for k in range(-500, 501):
            theta = k * math.pi / 1000
            chord = chord_length(ChordQuery(r, a, theta))
            assert chord >= 2 * a - 1e-12
            if abs(chord - 2 * a) < 1e-12:
                assert abs(theta) < 1e-6

    def test_query_validation(self):
        with pytest.raises(OutOfRange):
            ChordQuery(1.0, 1.0, 0.0)
        with pytest.raises(OutOfRange):
            ChordQuery(1.0, 0.0, 0.0)
        with pytest.raises(OutOfRange):
            ChordQuery(2.0, 1.0, 2.0)


class TestNearestOrthonormal:
    @pytest.mark.parametrize("columns", [np.ones((2, 3)), np.ones(3), np.ones((1, 2, 2))])
    def test_non_square_rejected(self, columns):
        with pytest.raises(ValueError, match="square matrix"):
            nearest_orthonormal(columns, 0.1)

    def test_orthonormal_input_is_fixed_point(self):
        eye = np.eye(4)
        out = nearest_orthonormal(eye, 0.0)
        assert np.max(np.abs(out - eye)) == 0.0

    def test_two_dimensional_example(self):
        """x1 = (1, 0), x2 = (0.1, sqrt(0.99)); the eigendecomposition oracle
        gives max column distance 0.05007847620819409 (bound 1.897)."""
        X = np.array([[1.0, 0.1], [0.0, math.sqrt(0.99)]])
        out = nearest_orthonormal(X, 0.1)
        oracle = polar_by_eigh(X)
        assert np.max(np.abs(out - oracle)) < 1e-12
        dist = float(np.max(np.linalg.norm(X - out, axis=0)))
        assert dist == pytest.approx(0.05007847620819409, abs=1e-12)
        assert dist <= 3 * math.sqrt(0.1) * 2

    @pytest.mark.parametrize("seed", range(40))
    def test_random_nearly_orthonormal(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        X = Q + 0.004 * rng.standard_normal((d, d))
        X /= np.linalg.norm(X, axis=0)
        gram = X.T @ X
        delta = max(0.01, float(np.max(np.abs(gram - np.diag(np.diag(gram))))))
        out = nearest_orthonormal(X, delta)
        assert np.max(np.abs(out.T @ out - np.eye(d))) < 1e-10
        assert np.max(np.linalg.norm(X - out, axis=0)) <= 3 * math.sqrt(delta) * d
        assert np.max(np.abs(out - polar_by_eigh(X))) < 1e-9

    def test_equivariance_and_idempotence(self):
        rng = np.random.default_rng(7)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        X = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        X = X + 0.002 * rng.standard_normal((4, 4))
        X /= np.linalg.norm(X, axis=0)
        base = nearest_orthonormal(X, 0.05)
        rotated = nearest_orthonormal(Q @ X, 0.05)
        assert np.max(np.abs(rotated - Q @ base)) < 1e-9
        again = nearest_orthonormal(base, 1e-9)
        assert np.max(np.abs(again - base)) < 1e-9

    def test_rejects_oblique_pair(self):
        X = np.array([[1.0, 0.5], [0.0, math.sqrt(0.75)]])
        with pytest.raises(NotAlmostOrthogonal) as exc:
            nearest_orthonormal(X, 0.1)
        assert exc.value.pair == (0, 1)

    def test_rejects_non_unit_columns(self):
        with pytest.raises(NormViolation):
            nearest_orthonormal(np.eye(3) * 1.1, 0.0)

    def test_singular_input(self):
        X = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(SingularInput):
            nearest_orthonormal(X, 1.0)


class TestPlaneProjection:
    def test_in_plane_vector_has_zero_perp(self):
        basis = PlaneBasis.from_vectors((1, 0, 0), (0, 1, 0))
        z_in, z_perp = project_onto_plane((0.3, -0.7, 0.0), basis)
        assert np.linalg.norm(z_perp) < 1e-12
        assert np.allclose(z_in, (0.3, -0.7, 0.0))

    def test_orthogonal_vector_projects_to_zero(self):
        basis = PlaneBasis.from_vectors((1, 0, 0), (0, 1, 0))
        z_in, z_perp = project_onto_plane((0, 0, 1), basis)
        assert np.linalg.norm(z_in) == 0.0
        assert tuple(z_perp) == (0.0, 0.0, 1.0)

    def test_positive_coefficient_bound(self):
        """For y = a*u + b*w + c*(perp) with a, b >= 0, the in-plane norm is
        at most (<y,u> + <y,w>) / (1 + <u,w>)."""
        u = np.array([1.0, 0.0, 0.0])
        w = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        basis = PlaneBasis.from_vectors(u, w)
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = rng.uniform(0, 0.02, 2)
            c = rng.uniform(-1, 1)
            y = a * u + b * w + c * np.array([0.0, 0.0, 1.0])
            z_in, z_perp = project_onto_plane(y, basis)
            bound = (float(y @ u) + float(y @ w)) / (1.0 + basis.gram)
            assert np.linalg.norm(z_in) <= bound + 1e-12
            # exact split and orthogonality
            assert np.linalg.norm(y - z_in - z_perp) < 1e-12
            assert abs(float(z_perp @ u)) < 1e-10 and abs(float(z_perp @ w)) < 1e-10

    @pytest.mark.parametrize("seed", range(20))
    def test_pythagoras(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        w = rng.standard_normal(4)
        w -= 0.9 * (w @ u) * u  # keep them independent
        w /= np.linalg.norm(w)
        basis = PlaneBasis.from_vectors(u, w)
        y = rng.standard_normal(4)
        z_in, z_perp = project_onto_plane(y, basis)
        assert float(y @ y) == pytest.approx(
            float(z_in @ z_in) + float(z_perp @ z_perp), abs=1e-10
        )

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(2, 40), m=st.integers(0, 12), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-9, 1e-3, 1.0, 1e3]))
    def test_stacked_rows_split_as_single_vectors(self, d, m, seed, scale):
        """Each row of a stacked call equals the single-vector call bit for
        bit, whether the stack is an array or (m >= 1) nested lists."""
        rng = np.random.default_rng(seed)
        u, w = rng.standard_normal((2, d))
        basis = PlaneBasis.from_vectors(u / np.linalg.norm(u), w / np.linalg.norm(w))
        ys = scale * rng.standard_normal((m, d))
        z_in, z_perp = project_onto_plane(ys, basis)
        assert z_in.shape == z_perp.shape == (m, d)
        if m:  # an empty list carries no dimension
            listed = project_onto_plane(ys.tolist(), basis)
            assert listed[0].tobytes() == z_in.tobytes()
            assert listed[1].tobytes() == z_perp.tobytes()
        for y, row_in, row_perp in zip(ys, z_in, z_perp):
            one_in, one_perp = project_onto_plane(y, basis)
            assert one_in.tobytes() == row_in.tobytes()
            assert one_perp.tobytes() == row_perp.tobytes()

    def test_degenerate_plane(self):
        with pytest.raises(DegeneratePlane):
            PlaneBasis.from_vectors((1, 0), (1, 0))
        basis = PlaneBasis((1.0, 0.0), (0.0, 1.0), 1.0 - 1e-13)  # forged gram
        with pytest.raises(DegeneratePlane):
            project_onto_plane((1.0, 1.0), basis)

    def test_basis_validation(self):
        with pytest.raises(NormViolation):
            PlaneBasis.from_vectors((2, 0), (0, 1))
