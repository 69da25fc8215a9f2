"""JSON (de)serialisation for configurations and result records.

Vector entries are plain JSON numbers in double mode and decimal strings in
extended/interval modes (doubles would truncate them on round-trip).  Norm
fields of reports are always decimal strings; hit counts are exact integers
and probabilities exact fraction strings.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .balancing import BalanceReport, FalsifierResult
from .core import EnumerationReport, VectorConfig
from .precision import PrecisionPolicy
from .search import SearchResult


def config_to_obj(config: VectorConfig, policy: PrecisionPolicy | None = None) -> dict:
    policy = policy or PrecisionPolicy.double()
    if policy.mode == "double":
        rows = [[float(x) for x in row] for row in config.vectors]
    else:
        with policy.active():
            rows = [[policy.decimal(x) for x in row] for row in config.vectors]
    return {
        "dim": config.dim,
        "vectors": rows,
        "mode": config.mode,
        "norm_tolerance": config.norm_tolerance,
    }


def config_from_obj(obj: dict, policy: PrecisionPolicy | None = None) -> VectorConfig:
    """Inverse of config_to_obj; raises ValueError when obj lacks its shape."""
    policy = policy or PrecisionPolicy.double()
    # policy.scalar is float in double mode, but tests the mode on each call.
    scalar = float if policy.mode == "double" else policy.scalar
    try:
        rows = []
        with policy.active():
            for row in obj["vectors"]:
                # A string would pass as its characters, and true as 1.0.
                if not isinstance(row, list) or bool in map(type, row):
                    raise TypeError
                rows.append(tuple(map(scalar, row)))
        dim, tolerance = obj["dim"], obj.get("norm_tolerance", 1e-9)
        if type(dim) is not int or type(tolerance) is bool:  # int(2.7) would read as 2
            raise TypeError
        tolerance = float(tolerance)
    except (TypeError, KeyError):  # obj, a row or an entry of the wrong JSON type, or no key
        raise ValueError('a configuration is a JSON object with an integer "dim" and '
                         '"vectors", a list of lists of numbers') from None
    except OverflowError:  # an integer past the float range (load_json refuses it in a file)
        raise ValueError("a configuration entry overflows a float") from None
    return VectorConfig(
        dim=dim,
        vectors=tuple(rows),
        mode=obj.get("mode", "strict"),
        norm_tolerance=tolerance,
    )


def reject_constant(name: str):
    """``parse_constant`` for json.load: JSON's NaN, Infinity and -Infinity
    are refused where the file is read, naming the constant."""
    raise ValueError(f"non-finite JSON constant {name} is not a number")


def _within_floats(parse):
    """``parse_float`` or ``parse_int`` for json.load: a literal past the
    float range, such as 1e999 (which float() reads as inf) or a 400-digit
    integer, is refused where the file is read, naming the literal."""
    def parse_finite(literal: str):
        value = parse(literal)
        if not abs(value) <= sys.float_info.max:
            raise ValueError(f"JSON number {literal} overflows a float")
        return value

    return parse_finite


def load_json(fh):
    """json.load refusing every non-finite number where the file is read."""
    return json.load(fh, parse_constant=reject_constant, parse_float=_within_floats(float),
                     parse_int=_within_floats(int))


def load_config(path: str, policy: PrecisionPolicy | None = None) -> VectorConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_obj(load_json(fh), policy)


def write_json(obj, path: str | None = None):
    """Write obj as JSON indented by 2 with a trailing newline, to path or,
    without one, to stdout: the one writer of every file signsum emits."""
    text = json.dumps(obj, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def save_config(config: VectorConfig, path: str, policy: PrecisionPolicy | None = None):
    write_json(config_to_obj(config, policy), path)


def report_to_obj(report: EnumerationReport, policy: PrecisionPolicy | None = None) -> dict:
    policy = policy or PrecisionPolicy.double()
    with policy.active():
        radius, min_norm = policy.decimal(report.radius), policy.decimal(report.min_norm)
    return {
        "total": report.total,
        "hits": report.hits,
        "band_count": report.band_count,
        "probability": f"{report.probability.numerator}/{report.probability.denominator}",
        "radius": radius,
        "min_norm": min_norm,
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
