"""JSON (de)serialisation for configurations and result records.

Vector entries are plain JSON numbers in double mode and decimal strings in
extended/interval modes (doubles would truncate them on round-trip).  Norm
fields of reports are always decimal strings; hit counts are exact integers
and probabilities exact fraction strings.
"""

from __future__ import annotations

import json
from fractions import Fraction

from mpmath import mp

from .balancing import BalanceReport, FalsifierResult
from .core import EnumerationReport, VectorConfig
from .precision import PrecisionPolicy
from .search import SearchResult


def config_to_obj(config: VectorConfig, policy: PrecisionPolicy | None = None) -> dict:
    policy = policy or PrecisionPolicy.double()
    ctx = policy.context()
    if policy.mode == "double":
        rows = [[float(x) for x in row] for row in config.vectors]
    else:
        with ctx.active():
            rows = [[ctx.decimal(ctx.scalar(x)) for x in row] for row in config.vectors]
    return {
        "dim": config.dim,
        "vectors": rows,
        "mode": config.mode,
        "norm_tolerance": config.norm_tolerance,
    }


def config_from_obj(obj: dict, policy: PrecisionPolicy | None = None) -> VectorConfig:
    policy = policy or PrecisionPolicy.double()
    rows = []
    for row in obj["vectors"]:
        if policy.mode == "double":
            rows.append(tuple(float(x) for x in row))
        else:
            with mp.workprec(policy.bits):
                rows.append(tuple(mp.mpf(x) for x in row))
    return VectorConfig(
        dim=int(obj["dim"]),
        vectors=tuple(rows),
        mode=obj.get("mode", "strict"),
        norm_tolerance=float(obj.get("norm_tolerance", 1e-9)),
    )


def load_config(path: str, policy: PrecisionPolicy | None = None) -> VectorConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_obj(json.load(fh), policy)


def save_config(config: VectorConfig, path: str, policy: PrecisionPolicy | None = None):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_obj(config, policy), fh, indent=2)
        fh.write("\n")


def _decimal(value, policy: PrecisionPolicy) -> str:
    ctx = policy.context()
    with ctx.active():
        return ctx.decimal(value)


def report_to_obj(report: EnumerationReport, policy: PrecisionPolicy | None = None) -> dict:
    policy = policy or PrecisionPolicy.double()
    return {
        "total": report.total,
        "hits": report.hits,
        "probability": f"{report.probability.numerator}/{report.probability.denominator}",
        "radius": _decimal(report.radius, policy),
        "min_norm": _decimal(report.min_norm, policy),
        "argmin": list(report.argmin.signs),
        "margin": repr(report.margin),
    }


def probability_from_string(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or "1"))


def balance_to_obj(report: BalanceReport) -> dict:
    return {
        "algorithm": report.algorithm,
        "signs": list(report.signs.signs),
        "achieved_norm": repr(report.achieved_norm),
        "guarantee": repr(report.guarantee),
        "case_taken": report.case_taken,
    }


def falsifier_to_obj(result: FalsifierResult) -> dict:
    return {
        "witness": None if result.witness is None else list(result.witness.coefficients),
        "best_value": repr(result.best_value),
        "best_coefficients": list(result.best_coefficients.coefficients),
        "best_start": result.best_start,
    }


def search_to_obj(result: SearchResult) -> dict:
    return {
        "d": result.spec.d,
        "n": result.spec.n,
        "restarts": result.spec.restarts,
        "steps": result.spec.steps,
        "step_init": result.spec.step_init,
        "step_decay": result.spec.step_decay,
        "seed": result.spec.seed,
        "target": result.spec.target,
        "best_value": repr(result.best_value),
        "best_config": config_to_obj(result.best_config),
        "restart_bests": [repr(trace[-1]) for trace in result.history],
        "exceeded_target": result.exceeded_target,
        "counterexample_candidate": result.counterexample_candidate,
    }
