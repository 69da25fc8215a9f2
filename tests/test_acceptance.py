"""Acceptance gate.

Each test runs one criterion at its stated tolerance and prints a single
pass/fail line (run with ``pytest -s`` to see them inline).  Budgets are
asserted, not just reported.

The A1 margin clause (``test_a1_margin_threshold``) asserts the
duplicated-pair family's exact separation.  Every hit has norm exactly 1 and
the nearest non-hit is 2*v_k - (1, 0), whose excess norm^2 - 1 is
4*(1 - sqrt(1 - t)) = 4t/(1 + sqrt(1 - t)) with t = c^(2*floor(n/2)).  That
lies in [2t, 3t) whenever sqrt(1 - t) > 1/3, i.e. t < 8/9, and here
t <= 1/400; so the margin is checked against this closed form to rounding,
and against the floor 2*c^(2k) that the family attains, not against a
3*c^(2k) floor that no correct enumeration can reach.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from signsum.balancing import (
    approximate_point,
    approximation_falsifier,
    eliminate,
    greedy_signs,
    parity_balance,
)
from signsum.constructions import (
    construct_exponential,
    construct_orthonormal_multiplicity,
    construct_tight_family,
    pair_anti_aligned,
    random_unit_config,
)
from signsum.core import (
    SignAssignment,
    enumerate_signed_sums,
    min_signed_norm,
    signed_sum,
    validate_config,
)
from signsum.geometry import ChordQuery, chord_length, nearest_orthonormal
from signsum.precision import PrecisionPolicy

from oracles import census, chord_by_intersection


@contextmanager
def criterion(label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"{label} exceeded its {budget_s}s budget: {elapsed:.2f}s"


def _anti_aligned_assignments(n: int):
    k = n // 2
    for pair_signs in itertools.product((1, -1), repeat=k):
        for last in (1, -1):
            signs = []
            for s in pair_signs:
                signs.extend((s, -s))
            signs.append(last)
            yield tuple(signs)


def test_a1_exponential_counts():
    """A1: exact unit-ball counts 2^ceil(n/2) for the duplicated-pair family,
    hit set == anti-aligned set, margin positive in working precision."""
    with criterion("A1 exponential-family exact counts", 5.0):
        for n in (3, 5, 7, 9):
            config = construct_exponential(n)
            report = enumerate_signed_sums(config, 1.0)
            assert report.hits == 2 ** ((n + 1) // 2)
            assert report.probability == Fraction(1, 2 ** (n // 2))
            assert report.margin > 0.0
            hits, _, _, _ = census(config, 1.0)
            predicate = {s for s in itertools.product((1, -1), repeat=n)
                         if pair_anti_aligned(SignAssignment(s))}
            assert hits == predicate

        policy = PrecisionPolicy.extended(256)
        for n in (11, 13, 15):
            config = construct_exponential(n, policy=policy)
            report = enumerate_signed_sums(config, 1, policy=policy)
            assert report.hits == 2 ** ((n + 1) // 2)
            assert report.probability == Fraction(1, 2 ** (n // 2))
            assert report.margin > 0.0
            # every anti-aligned assignment is a hit; equal counts force set
            # equality without walking all 2^n assignments again
            anti = list(_anti_aligned_assignments(n))
            assert len(anti) == report.hits
            for signs in anti:
                total = signed_sum(config, SignAssignment(signs), policy)
                with policy.active():
                    norm_sq = total[0] * total[0] + total[1] * total[1]
                    assert norm_sq <= 1 + policy.classification_tolerance


def _exact_separation(k: int) -> tuple[Fraction, Fraction]:
    """(S, t) for the duplicated-pair family with t = c^(2k), c = 1/20:
    S = 4t/(1 + sqrt(1 - t)), the cancellation-free form of
    4*(1 - sqrt(1 - t)), with the root taken as a 512-bit integer square
    root, so S is within 2^-512 of the exact value."""
    t = Fraction(1, 20) ** (2 * k)
    scale = 1 << 512
    root = Fraction(math.isqrt(math.floor((1 - t) * scale * scale)), scale)
    return 4 * t / (1 + root), t


def test_a1_margin_threshold():
    """A1 (margin clause): the classification margin is the family's exact
    separation S = 4t/(1 + sqrt(1 - t)), t = (1/20)^(2*floor(n/2)), up to
    rounding, and so at least 2t.

    The allowance is rounding only: 1e-13 absolute in double (accumulated
    input and kernel rounding), and 4*2^-52*S at 256 bits, where the margin
    is exact to far below the float it is reported in."""
    with criterion("A1 margin = exact separation 4t/(1+sqrt(1-t)) >= 2*c^(2k)", 5.0):
        cases = [(n, PrecisionPolicy.double()) for n in (3, 5, 7, 9)]
        cases += [(n, PrecisionPolicy.extended(256)) for n in (11, 13, 15)]
        for n, policy in cases:
            config = construct_exponential(n, policy=policy)
            report = enumerate_signed_sums(config, 1, policy=policy)
            k = n // 2
            separation, t = _exact_separation(k)
            if policy.mode == "double":
                allowance = Fraction(1e-13)
            else:
                allowance = 4 * Fraction(2) ** -52 * separation
            margin = Fraction(report.margin)
            assert abs(margin - separation) <= allowance, (
                f"n={n} ({policy.mode}): margin {report.margin:.15e} differs from "
                f"the exact separation 4t/(1+sqrt(1-t)) = {float(separation):.15e} "
                f"(t = c^{2 * k}) by more than {float(allowance):.1e}"
            )
            assert margin >= 2 * t - allowance, (
                f"n={n} ({policy.mode}): margin {report.margin:.15e} below "
                f"2*c^{2 * k} = {float(2 * t):.15e}"
            )


def test_a2_parity_obstruction():
    """A2: all-odd multiplicities of an orthonormal basis force
    min = sqrt(d) exactly and zero probability below it."""
    with criterion("A2 parity obstruction", 5.0):
        families = {
            1: [(1,), (3,), (13,)],
            2: [(1, 1), (3, 1), (5, 3), (7, 5), (11, 1)],
            3: [(1, 1, 1), (3, 1, 1), (5, 3, 1), (3, 3, 3), (5, 5, 3)],
            4: [(1, 1, 1, 1), (3, 3, 1, 1), (5, 3, 3, 1), (3, 3, 3, 3)],
        }
        for d, mult_list in families.items():
            for mults in mult_list:
                config = construct_orthonormal_multiplicity(d, mults)
                assert config.n <= 13
                value, _ = min_signed_norm(config)
                assert value == math.sqrt(d)  # exact: all-odd-integer coordinates
                report = enumerate_signed_sums(config, math.sqrt(d - 1e-6))
                assert report.hits == 0
                assert report.probability == 0


def test_a3_dimension_bound_guarantee():
    """A3: eliminate+greedy achieves squared error <= d and the greedy
    running sum obeys ||s_m||^2 <= m at every step, over 1000 seeded
    configurations (unit and length-<=1 vectors, zero and random lam)."""
    with criterion("A3 squared-error <= d guarantee (1000 configs)", 60.0):
        master = np.random.default_rng(20250810)
        for trial in range(1000):
            d = int(master.integers(1, 6))
            n = int(master.integers(1, 15))
            seed = int(master.integers(2**32))
            config = random_unit_config(d, n, seed=seed)
            if trial % 2:
                rows = config.as_array() * master.uniform(0.2, 1.0, size=(n, 1))
                config = validate_config(rows, mode="beck")
            lam = master.uniform(-1, 1, n) if trial % 3 else np.zeros(n)

            report = approximate_point(config, lam)
            assert report.achieved_norm**2 <= d + 1e-9

            greedy = greedy_signs(config, lam)
            rows = config.as_array()
            acc = np.zeros(d)
            for m, (eta, lam_i, row) in enumerate(
                zip(greedy.signs.signs, lam, rows), start=1
            ):
                acc = acc + (lam_i + eta) * row
                assert float(acc @ acc) <= m + 1e-9


def test_a4_stability_refinements():
    """A4: the falsifier never beats the pair stability bound 2 - delta^2
    (budget 200), and a coefficient above delta improves the guarantee to
    d - delta."""
    with criterion("A4 stability refinements", 60.0):
        for tenth in range(1, 10):
            delta = tenth / 10.0
            config = validate_config(
                [(1.0, 0.0), (delta, math.sqrt(1.0 - delta * delta))]
            )
            result = approximation_falsifier(config, 2 - delta * delta,
                                             budget=200, seed=tenth)
            assert result.best_value <= 2 - delta * delta + 1e-6
            assert result.witness is None

        master = np.random.default_rng(41)
        for tenth in range(1, 10):
            delta = tenth / 10.0
            for _ in range(30):
                d = int(master.integers(2, 6))
                config = random_unit_config(d, d, seed=int(master.integers(2**32)))
                lam = master.uniform(-delta / 2, delta / 2, d)
                hot = int(master.integers(d))
                lam[hot] = math.copysign(
                    master.uniform(min(delta + 1e-9, 1.0), 1.0), master.uniform(-1, 1)
                )
                report = approximate_point(config, lam)
                assert report.achieved_norm**2 <= d - delta + 1e-9


def test_a5_parity_balancing_desk_scale():
    """A5: 2000 seeded mismatched-parity configurations (d in {3,4}):
    exhaustive minimum strictly below sqrt(d), balancer meets its reported
    guarantee; the stronger sqrt(d-1) bound is logged, not asserted."""
    with criterion("A5 parity balancing desk scale (2000 configs)", 300.0):
        master = np.random.default_rng(1729)
        stronger_violations = 0
        worst_ratio = 0.0
        for trial in range(2000):
            d = 3 if trial % 2 == 0 else 4
            choices = [n for n in range(1, 13) if n % 2 != d % 2]
            n = int(choices[int(master.integers(len(choices)))])
            config = random_unit_config(d, n, seed=int(master.integers(2**32)))

            exact, _ = min_signed_norm(config)
            assert exact < math.sqrt(d)  # strictly below in every trial
            assert exact <= math.sqrt(d - 2.0**-100 * float(d) ** -80) + 1e-12

            report = parity_balance(config)
            assert report.achieved_norm <= report.guarantee + 1e-9
            assert report.achieved_norm >= exact - 1e-12

            worst_ratio = max(worst_ratio, exact / math.sqrt(d - 1))
            if exact > math.sqrt(d - 1) + 1e-9:
                stronger_violations += 1
        print(
            f"  [log] sqrt(d-1) bound: {stronger_violations} violations in 2000 "
            f"trials; max min/sqrt(d-1) = {worst_ratio:.6f}"
        )


def test_a6_tight_family_reproduction():
    """A6: 200-restart search at d=3, n=4 lands on sqrt(2) within
    [-1e-4, +1e-6], and the canonical tight family enumerates to exactly
    sqrt(2)."""
    from signsum.search import SearchSpec, maximize_min_norm

    with criterion("A6 d=3 n=4 search reproduction", 120.0):
        config = construct_tight_family()
        value, _ = min_signed_norm(config)
        assert value == math.sqrt(2)  # exact: squared minimum is the integer 2

        result = maximize_min_norm(
            SearchSpec(d=3, n=4, restarts=200, steps=5000, seed=2024)
        )
        assert math.sqrt(2) - 1e-4 <= result.best_value <= math.sqrt(2) + 1e-6
        assert not result.counterexample_candidate


def test_a7_geometry_oracles():
    """A7: chord lengths match the circle-line intersection oracle to 1e-12
    on a 10^4 grid; polar orthonormalisation meets the 3*sqrt(delta)*d bound
    with orthonormality residual <= 1e-10 on 1000 seeded inputs."""
    with criterion("A7 geometry oracles", 30.0):
        checked = 0
        for i in range(10):
            r = 0.5 + 0.45 * (i + 1)
            for j in range(32):
                a = r * (j + 1) / 33.0
                for k in range(32):
                    theta = -math.pi / 2 + math.pi * k / 31.0
                    value = chord_length(ChordQuery(r, a, theta))
                    assert abs(value - chord_by_intersection(r, a, theta)) <= 1e-12
                    checked += 1
        assert checked >= 10_000

        master = np.random.default_rng(77)
        for trial in range(1000):
            d = int(master.integers(2, 7))
            Q, _ = np.linalg.qr(master.standard_normal((d, d)))
            X = Q + master.uniform(0.0, 0.004) * master.standard_normal((d, d))
            X /= np.linalg.norm(X, axis=0)
            gram = X.T @ X
            delta = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
            delta = max(delta, 1e-6)
            assert delta <= 0.05
            basis = nearest_orthonormal(X, delta)
            assert np.max(np.abs(basis.T @ basis - np.eye(d))) <= 1e-10
            assert np.max(np.linalg.norm(X - basis, axis=0)) <= 3 * math.sqrt(delta) * d


def test_a8_elimination_contract():
    """A8: 1000 seeded eliminations preserve the weighted sum to 1e-10*n,
    leave at most k fractional coordinates, and respect the box."""
    with criterion("A8 elimination contract (1000 instances)", 30.0):
        master = np.random.default_rng(8128)
        for trial in range(1000):
            d = int(master.integers(1, 6))
            n = int(master.integers(d + 1, 21))
            k = d if trial % 2 == 0 else d + 2
            config = random_unit_config(d, n, seed=int(master.integers(2**32)))
            lam = master.uniform(-1, 1, n)
            result = eliminate(config, lam, k=k)
            values = result.coefficients.as_array()
            rows = config.as_array()
            assert np.linalg.norm(values @ rows - lam @ rows) <= 1e-10 * n
            assert len(result.residual_indices) <= k
            assert np.all(np.abs(values) <= 1.0)
