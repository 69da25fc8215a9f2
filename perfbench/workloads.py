"""The benchmark's three workloads and the checks on their outputs.

Every job does what the matching ``signsum`` subcommand does: it constructs
or loads its input, calls the library once per step of the command, and
serialises the result to JSON text.  The job list is a fixed table of
(group, size, count); the seed draws only the vectors, radii, lambdas and
search seeds, so the work a pass does barely depends on the seed.

* ``census``  -- ``enumerate``/``decay``/``construct``: ``core`` in all three
  precision modes, with and without sums inside the 1e-12 tolerance band.
* ``balance`` -- an A5-style stream of ``parity_balance`` + ``min_signed_norm``
  over all three dispatch branches, plus ``approximate_point`` at larger n.
* ``search``  -- ``maximize_min_norm`` at n=4 (per-step overhead) and
  n=9..11 (sign-table size), and ``approximation_falsifier``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from signsum import PrecisionPolicy, enumerate_signed_sums, jsonio, min_signed_norm
from signsum.balancing import (
    REPORT_SLACK,
    approximate_point,
    approximation_falsifier,
    default_zeta,
    parity_balance,
)
from signsum.constructions import DEFAULT_DECAY, ConstructionSpec, random_unit_config
from signsum.errors import AmbiguousClassification, PrecisionInsufficient
from signsum.search import SearchSpec, maximize_min_norm

import reference
from tracing import mode_label

WORKLOADS = ("census", "balance", "search")

SQRT2 = math.sqrt(2.0)


class CheckFailed(Exception):
    """A job's output disagrees with the reference."""


def expect(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    group: str
    n: int
    run: Callable  # (tracer) -> (output text, detail kept for the check)
    check: Callable  # (output text, detail) -> facts dict; raises CheckFailed
    refusal: type | None = None  # the exception the job must raise instead


@dataclass
class Workload:
    jobs: list[Job]
    warmups: list[Job]
    summarise: Callable  # (list of facts dicts) -> outcome metrics


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    jobs, summarise = {"census": _census, "balance": _balance, "search": _search}[name](rng, tiny)
    # One warm-up job per kind of work: the smallest job of each group.
    smallest: dict[str, Job] = {}
    for job in jobs:
        if job.group not in smallest or job.n < smallest[job.group].n:
            smallest[job.group] = job
    order = rng.permutation(len(jobs))
    return Workload([jobs[i] for i in order], list(smallest.values()), summarise)


def _seed(rng) -> int:
    return int(rng.integers(2**31))


# --------------------------------------------------------------------- census


def _census(rng, tiny):
    # (d, n, count): many small and a few large; n=20 has a 2^20 x 3 sum
    # table (24 MiB) that no longer fits in L2.  Counts are chosen so that
    # job_p50_ms falls inside the n=12, d=4 group and job_p90_ms inside the
    # n=15 group, away from a group boundary.
    random_sizes = [(3, 12, 30), (4, 12, 30), (3, 13, 10), (4, 13, 6), (3, 14, 16),
                    (4, 15, 10), (3, 16, 1), (4, 16, 1), (4, 17, 1), (3, 18, 1),
                    (4, 19, 1), (3, 20, 1)]
    ext_n, interval_n, double_n = range(1, 16, 2), (9, 11), range(1, 12, 2)
    if tiny:
        random_sizes = [(3, 8, 2), (4, 12, 1), (3, 13, 1)]
        ext_n, interval_n, double_n = (3, 5), (5,), (3, 5)

    double = PrecisionPolicy.double()
    jobs = []
    for d, n, count in random_sizes:
        check = _check_exact_census if n <= 12 else _check_chunked_census
        for _ in range(count):
            radius = float(rng.uniform(1.0, 2.0))
            jobs.append(_census_job("random", n, f"random:{d}:{n}", radius,
                                    double, check, seed=_seed(rng)))
    families = [(double, double_n), (PrecisionPolicy.extended(256), ext_n),
                (PrecisionPolicy.interval(256), interval_n)]
    for policy, ns in families:
        for n in ns:
            jobs.append(_census_job(f"exponential.{mode_label(policy)}", n, f"exponential:{n}",
                                    1.0, policy, _check_exponential))
    for d, mults in [(2, (1, 3)), (3, (3, 3, 3)), (4, (1, 1, 1, 3)), (3, (5, 3, 3))]:
        spec = f"orthomult:{d}:{','.join(map(str, mults))}"
        jobs.append(_census_job("orthomult", sum(mults), spec, math.sqrt(d), double,
                                _closed_form_min(math.sqrt(d))))
    jobs.append(_census_job("tight", 4, "tight", SQRT2, double, _closed_form_min(SQRT2)))
    # Expected refusals: construction in double below the margin gate, and
    # an interval norm that straddles a zero-width band (the radius is an
    # achieved norm of this configuration).
    jobs.append(_census_job("refusal.margin", 13, "exponential:13", 1.0, double, None,
                            refusal=PrecisionInsufficient))
    jobs.append(_census_job("refusal.interval", 6, "random:2:6", 0.28234820914785475,
                            PrecisionPolicy.interval(53, tolerance=0.0), None, seed=0,
                            refusal=AmbiguousClassification))
    return jobs, lambda facts: {"quality_ratio": 1.0}


def _census_job(group, n, spec, radius, policy, check, seed=0, refusal=None):
    def run(tr):
        with tr.span("constructions"):
            config = ConstructionSpec.from_string(spec, seed=seed).build(policy)
        with tr.span("core", n=config.n, mode=mode_label(policy)):
            report = enumerate_signed_sums(config, radius, policy=policy, workers=1)
        with tr.span("jsonio"):
            obj = jsonio.report_to_obj(report, policy)
        return json.dumps(obj), config

    def checked(text, config):
        obj = json.loads(text)
        expect(obj["total"] == 1 << config.n, f"total {obj['total']} for n={config.n}")
        p = Fraction(obj["hits"], obj["total"])
        expect(obj["probability"] == f"{p.numerator}/{p.denominator}", "probability")
        check(obj, config, radius, policy.classification_tolerance)
        return {}

    return Job(group, n, run, checked, refusal)


def _check_exact_census(obj, config, radius, tolerance):
    rows = config.vectors
    hits, min_sq = reference.exact_census(rows, radius, tolerance)
    expect(obj["hits"] == hits, f"hits {obj['hits']}, exact census {hits}")
    expect(abs(float(obj["min_norm"]) - math.sqrt(min_sq)) <= 1e-12,
           f"min_norm {obj['min_norm']}, exact {math.sqrt(min_sq)!r}")
    expect(reference.exact_norm_sq(rows, obj["argmin"]) - min_sq <= 1e-12, "argmin is not minimal")


def _check_chunked_census(obj, config, radius, tolerance):
    rows = config.as_array()
    certain, ambiguous, best = reference.chunked_census(rows, radius * radius + tolerance)
    expect(certain <= obj["hits"] <= certain + ambiguous,
           f"hits {obj['hits']} outside reference [{certain}, {certain + ambiguous}]")
    expect(abs(float(obj["min_norm"]) ** 2 - best) <= 1e-9, f"min_norm {obj['min_norm']}")
    s = np.asarray(obj["argmin"], dtype=float) @ rows
    expect(float(s @ s) <= best + 1e-9, "argmin is not minimal")


def _check_exponential(obj, config, radius, tolerance):
    # The closed form counts the closed unit ball.  Its nearest outside sums
    # sit 4(1 - sqrt(1 - c^2k)) ~ 2c^2k above r^2 = 1; once that falls inside
    # the tolerance band (double, n=11) they count as hits too, and only the
    # exact census of the same double inputs is a reference.
    k = config.n // 2
    if 4.0 * (1.0 - math.sqrt(1.0 - float(DEFAULT_DECAY) ** (2 * k))) > tolerance:
        expected = 1 << (k + 1)
        expect(obj["hits"] == expected, f"hits {obj['hits']}, closed form {expected}")
    if all(isinstance(x, float) for row in config.vectors for x in row):
        _check_exact_census(obj, config, radius, tolerance)


def _closed_form_min(value):
    def check(obj, config, radius, tolerance):
        expect(abs(float(obj["min_norm"]) - value) <= 1e-12,
               f"min_norm {obj['min_norm']}, closed form {value!r}")
        _check_exact_census(obj, config, radius, tolerance)

    return check


# -------------------------------------------------------------------- balance


def _balance(rng, tiny):
    # Each (d, n) group of the three parity_balance branches, and the count
    # per group.  Matched parity takes `fallback`; random mismatched parity
    # has an oblique pair and takes `oblique`; orthonormal multiplicities
    # perturbed by sigma = 0.02 have none and take `clustered`.
    mismatched = [(3, n) for n in (4, 6, 8, 10, 12)] + [(4, n) for n in (5, 7, 9, 11)]
    matched = [(3, n) for n in (5, 7, 9, 11)] + [(4, n) for n in (4, 6, 8, 10, 12)]
    clustered = [(3, 2, 1), (4, 3, 3), (3, 2, 1, 1), (2, 2, 2, 1)]
    approx = [(d, n) for d in (3, 4) for n in (24, 32, 40, 48)]
    per_oblique, per_fallback, per_clustered, per_approx = 48, 20, 24, 6
    if tiny:
        mismatched, matched, clustered, approx = mismatched[:2], matched[:2], clustered[:1], approx[:1]
        per_oblique = per_fallback = per_clustered = per_approx = 2

    jobs = []
    for groups, count, branch in ((mismatched, per_oblique, "oblique"),
                                  (matched, per_fallback, "fallback")):
        for d, n in groups:
            for _ in range(count):
                config = random_unit_config(d, n, seed=_seed(rng))
                jobs.append(_parity_job(f"parity.{branch}", jsonio.config_to_obj(config), _seed(rng)))
    for mults in clustered:
        d = len(mults)
        for _ in range(per_clustered):
            rows = np.repeat(np.eye(d), mults, axis=0)
            rows += 0.02 * rng.standard_normal(rows.shape)
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            rows = rows[rng.permutation(len(rows))]
            obj = {"dim": d, "vectors": rows.tolist(), "mode": "strict", "norm_tolerance": 1e-9}
            jobs.append(_parity_job("parity.clustered", obj, _seed(rng)))
    for d, n in approx:
        for _ in range(per_approx):
            config = random_unit_config(d, n, seed=_seed(rng))
            lam = rng.uniform(-1.0, 1.0, n).tolist()
            jobs.append(_approximate_job(jsonio.config_to_obj(config), lam))
    return jobs, _summarise_balance


def _parity_job(group, obj, seed):
    def run(tr):
        with tr.span("jsonio"):
            config = jsonio.config_from_obj(obj)
        with tr.span("balancing.parity") as attrs:
            report = parity_balance(config, seed=seed)
            attrs["branch"] = report.case_taken
        with tr.span("core", n=config.n, mode="double"):
            exact, argmin = min_signed_norm(config)
        with tr.span("jsonio"):
            out = {"balance": jsonio.balance_to_obj(report), "min_norm": repr(exact),
                   "argmin": list(argmin.signs)}
        return json.dumps(out), config

    return Job(group, len(obj["vectors"]), run, _check_parity)


def _expected_branch(rows: np.ndarray) -> str:
    n, d = rows.shape
    if n % 2 == d % 2:
        return "fallback"
    alpha = default_zeta(d) ** 0.25
    inner = np.abs(rows @ rows.T)[np.triu_indices(n, 1)]
    return "oblique" if np.any((inner > alpha) & (inner < 1.0 - alpha)) else "clustered"


def _check_signs(signs, n):
    expect(len(signs) == n and all(s in (-1, 1) for s in signs), "signs are not n values of +-1")


def _check_parity(text, config):
    out = json.loads(text)
    rows = config.as_array()
    _, min_sq = reference.exact_census(config.vectors, 0.0, 0.0)
    exact = math.sqrt(min_sq)
    expect(abs(float(out["min_norm"]) - exact) <= 1e-12,
           f"min_signed_norm {out['min_norm']}, exact {exact!r}")
    expect(reference.exact_norm_sq(config.vectors, out["argmin"]) - min_sq <= 1e-12,
           "argmin is not minimal")
    bal = out["balance"]
    _check_signs(bal["signs"], config.n)
    achieved, guarantee = float(bal["achieved_norm"]), float(bal["guarantee"])
    expect(abs(achieved - float(np.linalg.norm(np.asarray(bal["signs"]) @ rows))) <= 1e-9,
           "achieved_norm does not match the signs")
    expect(achieved <= guarantee + REPORT_SLACK, f"achieved {achieved!r} > guarantee {guarantee!r}")
    expect(achieved >= exact - 1e-12, f"achieved {achieved!r} below the exact minimum {exact!r}")
    branch = _expected_branch(rows)
    expect(bal["case_taken"] == branch, f"branch {bal['case_taken']}, expected {branch}")
    return {"achieved": achieved, "exact": exact}


def _approximate_job(obj, lam):
    def run(tr):
        with tr.span("jsonio"):
            config = jsonio.config_from_obj(obj)
        with tr.span("balancing.approximate_point"):
            report = approximate_point(config, lam)
        with tr.span("jsonio"):
            out = jsonio.balance_to_obj(report)
        return json.dumps(out), config

    def check(text, config):
        out = json.loads(text)
        _check_signs(out["signs"], config.n)
        achieved = float(out["achieved_norm"])
        total = (np.asarray(lam) + np.asarray(out["signs"])) @ config.as_array()
        expect(abs(achieved - float(np.linalg.norm(total))) <= 1e-9,
               "achieved_norm does not match the signs")
        expect(achieved <= math.sqrt(config.dim) + REPORT_SLACK,
               f"achieved {achieved!r} > sqrt(d)")
        return {}

    return Job("approximate", len(obj["vectors"]), run, check)


def _summarise_balance(facts):
    parity = [f for f in facts if "exact" in f]
    achieved = sum(f["achieved"] for f in parity)
    exact = sum(f["exact"] for f in parity)
    optimal = sum(f["achieved"] <= f["exact"] + 1e-12 for f in parity)
    return {
        # 1 + the exact-weighted mean relative shortfall sum(a - e) / sum(e);
        # weighting keeps near-zero exact minima from dominating the mean.
        "quality_ratio": achieved / exact,
        "balancing.optimal_share": optimal / len(parity),
    }


# --------------------------------------------------------------------- search


def _search(rng, tiny):
    # n=11 has the most wide jobs and every falsifier job is slower than
    # them, so job_p90_ms falls inside the n=11 group; job_p50_ms falls
    # inside the n=4 group.
    tight = (96, 2, 200)
    wide = [(9, 5, 1, 150), (10, 5, 1, 150), (11, 30, 1, 150)]
    falsify = (range(8, 13), 2, 4)
    if tiny:
        tight, wide, falsify = (3, 1, 20), [(9, 1, 1, 20)], ((8,), 1, 1)

    jobs = []
    count, restarts, steps = tight
    for _ in range(count):
        jobs.append(_search_job("tight", SearchSpec(d=3, n=4, restarts=restarts, steps=steps,
                                                    seed=_seed(rng))))
    for n, count, restarts, steps in wide:
        for _ in range(count):
            jobs.append(_search_job("wide", SearchSpec(d=3, n=n, restarts=restarts, steps=steps,
                                                       seed=_seed(rng))))
    sizes, count, budget = falsify
    for n in sizes:
        for _ in range(count):
            config = random_unit_config(3, n, seed=_seed(rng))
            jobs.append(_falsifier_job(jsonio.config_to_obj(config), budget, _seed(rng)))
    return jobs, _summarise_search


def _search_job(group, spec):
    def run(tr):
        with tr.span("search", n=spec.n, steps=spec.restarts * spec.steps):
            result = maximize_min_norm(spec)
        with tr.span("jsonio"):
            out = jsonio.search_to_obj(result)
        return json.dumps(out), result

    def check(text, result):
        out = json.loads(text)
        rows = out["best_config"]["vectors"]
        norms = np.linalg.norm(np.asarray(rows), axis=1)
        expect(np.all(np.abs(norms - 1.0) <= 1e-9), "best_config is not unit vectors")
        _, min_sq = reference.exact_census(rows, 0.0, 0.0)
        best = float(out["best_value"])
        expect(abs(best - math.sqrt(min_sq)) <= 1e-12,
               f"best_value {best!r}, exact re-enumeration {math.sqrt(min_sq)!r}")
        expect(len(result.history) == spec.restarts, "one trace per restart")
        expect(all(list(t) == sorted(t) for t in result.history), "a trace decreases")
        facts = {"improvements": sum(len(t) - 1 for t in result.history),
                 "steps": spec.restarts * spec.steps}
        if spec.n == 4:
            facts["gap"] = (SQRT2 - best) / SQRT2
        return facts

    return Job(f"search.{group}", spec.n, run, check)


_FALSIFIER_R = 3.0  # squared target; approximate_point guarantees g <= d = 3


def _falsifier_job(obj, budget, seed):
    def run(tr):
        with tr.span("jsonio"):
            config = jsonio.config_from_obj(obj)
        with tr.span("balancing.falsifier", starts=budget):
            result = approximation_falsifier(config, _FALSIFIER_R, budget=budget, seed=seed)
        with tr.span("jsonio"):
            out = jsonio.falsifier_to_obj(result)
        return json.dumps(out), config

    def check(text, config):
        out = json.loads(text)
        lam = np.asarray(out["best_coefficients"], dtype=float)
        expect(len(lam) == config.n and np.all(np.abs(lam) <= 1.0), "coefficients outside [-1, 1]")
        rows = config.as_array()
        _, _, g = reference.chunked_census(rows, 0.0, offset=lam @ rows)
        best = float(out["best_value"])
        expect(abs(best - g) <= 1e-9, f"best_value {best!r}, brute force g = {g!r}")
        expect((out["witness"] is not None) == (best > _FALSIFIER_R), "witness disagrees with r")
        expect(0 <= out["best_start"] < budget, "best_start outside the budget")
        return {}

    return Job("falsifier", len(obj["vectors"]), run, check)


def _summarise_search(facts):
    gaps = [f["gap"] for f in facts if "gap" in f]
    searched = [f for f in facts if "steps" in f]
    return {
        # 1 + mean relative shortfall from sqrt(2), the d=3, n=4 maximum.
        "quality_ratio": 1.0 + sum(gaps) / len(gaps),
        "search.improvement_rate": sum(f["improvements"] for f in searched)
        / sum(f["steps"] for f in searched),
    }
