"""Command-line front end.

Subcommands: enumerate, construct, balance, falsify, search, sweep, decay,
selftest.  Every emitted result file embeds a run manifest (command line,
seed, precision, library version, timestamp, input hash) so runs can be
reproduced; integer outputs reproduce exactly and real-valued outputs within
1e-12.

Exit codes: 0 success, 2 validation error, 3 precision refusal.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import hashlib
import json
import math
import sys
from fractions import Fraction

from . import __version__, balancing, constructions, jsonio, search as search_mod
from .constructions import ConstructionSpec
from .core import enumerate_signed_sums, min_signed_norm
from .errors import AmbiguousClassification, OutOfRange, PrecisionInsufficient, SignsumError
from .precision import PrecisionPolicy

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PRECISION = 3


_SHARED_FLAGS = {
    "precision": dict(default="double", help="double | ext:<bits> | interval[:<bits>]; "
                      "balance and falsify only build or read their input with it "
                      "and compute in float64"),
    "tolerance": dict(type=float, default=None, help="classification tolerance override"),
    "seed": dict(type=int, default=0),
    "out": dict(default=None, help="output file (default: stdout)"),
    "format": dict(choices=("json", "csv"), default="json"),
}


def _shared_flags(parser: argparse.ArgumentParser, *names: str):
    """Add the shared flags a subcommand reads; it gets no others."""
    for name in names:
        parser.add_argument(f"--{name}", **_SHARED_FLAGS[name])


def _policy(args) -> PrecisionPolicy:
    """The subcommand's arithmetic; one without --precision computes in double."""
    policy = PrecisionPolicy.parse(getattr(args, "precision", "double"))
    tolerance = getattr(args, "tolerance", None)
    if tolerance is not None:
        policy = dataclasses.replace(policy, classification_tolerance=tolerance)
    return policy


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest(args, argv, input_path: str | None = None) -> dict:
    """Reproducibility record embedded in every emitted result file.

    Rerunning the recorded command reproduces integer outputs exactly and
    real-valued outputs within 1e-12 (the timestamp is metadata, not input).
    """
    return {
        "command": ["signsum", *argv],
        "seed": getattr(args, "seed", None),
        "precision": _policy(args).spec_string(),
        "version": __version__,
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0)
        .isoformat(),
        "input_sha256": _sha256(input_path) if input_path else None,
    }


def _emit_result(args, argv, result: dict, input_path: str | None = None):
    """Write {"manifest", "result"} to --out, or to stdout without it."""
    jsonio.write_json({"manifest": _manifest(args, argv, input_path), "result": result},
                      args.out)


def _emit_rows(args, header: list[str], rows: list[list]):
    if args.format == "csv":
        target = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
        try:
            writer = csv.writer(target)
            writer.writerow(header)
            writer.writerows(rows)
        finally:
            if args.out:
                target.close()
    else:
        jsonio.write_json({"columns": header, "rows": rows}, args.out)


def _load_input(args, policy: PrecisionPolicy):
    if getattr(args, "config", None):
        return jsonio.load_config(args.config, policy), args.config
    if getattr(args, "construct", None):
        return ConstructionSpec.from_string(args.construct, seed=args.seed).build(policy), None
    raise ValueError("provide --config FILE or --construct SPEC")


def cmd_enumerate(args, argv) -> int:
    policy = _policy(args)
    config, input_path = _load_input(args, policy)
    report = enumerate_signed_sums(config, args.r, policy=policy)
    _emit_result(args, argv, jsonio.report_to_obj(report, policy), input_path)
    print(
        f"hits {report.hits}/{report.total}  probability {report.probability}  "
        f"min_norm {float(report.min_norm):.12g}  margin {report.margin:.6g}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_construct(args, argv) -> int:
    policy = _policy(args)
    config = ConstructionSpec.from_string(args.kind, seed=args.seed).build(policy)
    jsonio.write_json(jsonio.config_to_obj(config, policy), args.out)
    return EXIT_OK


def _load_lambda(spec: str | None, n: int):
    if spec in (None, "zeros"):
        return None
    with open(spec, "r", encoding="utf-8") as fh:
        values = jsonio.load_json(fh)
    if not isinstance(values, list) or not all(type(v) in (int, float, str) for v in values):
        raise ValueError(f"lambda file {spec} must hold a JSON list of numbers")
    if len(values) != n:
        raise ValueError(f"lambda file holds {len(values)} values for n = {n}")
    return [float(v) for v in values]


_LAMBDA_ALGOS = ("greedy", "eliminate")


def cmd_balance(args, argv) -> int:
    algo = args.algo
    # Refuse a flag the chosen algorithm would ignore.
    if args.lam is not None and algo not in _LAMBDA_ALGOS:
        raise ValueError(f"--lambda applies only to --algo greedy or eliminate, not {algo}")
    if args.zeta is not None and algo in _LAMBDA_ALGOS:
        raise ValueError(f"--zeta applies only to --algo cluster, parity or auto, not {algo}")
    policy = _policy(args)
    config, input_path = _load_input(args, policy)
    lam = _load_lambda(args.lam, config.n)
    if algo == "greedy":
        report = balancing.greedy_signs(config, lam)
    elif algo == "eliminate":
        report = balancing.approximate_point(config, lam)
    elif algo == "cluster":
        report = balancing.cluster_and_pair(config, zeta=args.zeta)
    else:  # parity, auto
        report = balancing.parity_balance(config, zeta=args.zeta, seed=args.seed)
    _emit_result(args, argv, jsonio.balance_to_obj(report), input_path)
    certificate = f", certificate {report.certificate}" if report.certificate else ""
    print(
        f"{report.algorithm}: achieved {report.achieved_norm:.12g} "
        f"(guarantee {report.guarantee:.12g}{certificate})",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_falsify(args, argv) -> int:
    policy = _policy(args)
    config, input_path = _load_input(args, policy)
    result = balancing.approximation_falsifier(
        config, args.r, budget=args.budget, seed=args.seed
    )
    _emit_result(args, argv, jsonio.falsifier_to_obj(result), input_path)
    verdict = "witness" if result.witness is not None else "none"
    print(f"falsifier: {verdict} (best g = {result.best_value:.12g})", file=sys.stderr)
    return EXIT_OK


def cmd_search(args, argv) -> int:
    spec = search_mod.SearchSpec(
        d=args.d,
        n=args.n,
        restarts=args.restarts,
        steps=args.steps,
        step_init=args.step_init,
        step_decay=args.step_decay,
        seed=args.seed,
        target=args.target,
    )
    result = search_mod.maximize_min_norm(spec)
    _emit_result(args, argv, jsonio.search_to_obj(result))
    if result.counterexample_candidate:
        path = (args.out or "search") + ".counterexample.json"
        radius = math.sqrt(spec.d - 1) + search_mod.COUNTEREXAMPLE_MARGIN
        report = enumerate_signed_sums(result.best_config, radius)
        jsonio.write_json({
            "manifest": _manifest(args, argv),
            "config": jsonio.config_to_obj(result.best_config),
            "enumeration_radius": radius,
            "enumeration": jsonio.report_to_obj(report),
        }, path)
        print(f"COUNTEREXAMPLE-CANDIDATE written to {path}", file=sys.stderr)
    print(f"search best_value {result.best_value:.12g}", file=sys.stderr)
    return EXIT_OK


def cmd_sweep(args, argv) -> int:
    table = search_mod.parity_sweep(
        args.dmax, args.nmax, seed=args.seed, restarts=args.restarts, steps=args.steps
    )
    rows = [
        [row["d"], row["n"], row["parity"], f"{row['best_value']:.12g}", row["source"]]
        for row in table
    ]
    _emit_rows(args, ["d", "n", "parity", "best_value", "source"], rows)
    return EXIT_OK


def cmd_decay(args, argv) -> int:
    if not 0 <= args.r < math.inf:  # before the loop, which may skip every n
        raise OutOfRange(f"radius must be finite and nonnegative, got {args.r!r}")
    policy = _policy(args)
    families = args.families.split(",")
    n_list = [int(x) for x in args.n_list.split(",")]
    rows = []
    for family in families:
        for n in n_list:
            if family == "exponential":
                if n % 2 == 0:
                    continue
                config = constructions.construct_exponential(n, policy=policy)
            elif family == "orthomult":
                mults = constructions.balanced_odd_multiplicities(args.d, n)
                if mults is None:
                    continue
                config = constructions.construct_orthonormal_multiplicity(args.d, mults)
            elif family == "random":
                config = constructions.random_unit_config(args.d, n, args.seed + n)
            else:
                raise ValueError(f"unknown family {family!r}")
            report = enumerate_signed_sums(config, args.r, policy=policy)
            rows.append(
                [family, n, report.hits,
                 f"{report.probability.numerator}/{report.probability.denominator}"]
            )
    _emit_rows(args, ["family", "n", "hits", "probability"], rows)
    return EXIT_OK


def _selftest_checks(seed: int):
    import numpy as np

    from .geometry import ChordQuery, chord_length, distance_to_inner, inner_to_distance

    def check_exponential():
        config = constructions.construct_exponential(5)
        report = enumerate_signed_sums(config, 1.0)
        assert report.hits == 8, report.hits
        assert report.probability == Fraction(1, 4)

    def check_parity_obstruction():
        config = constructions.construct_orthonormal_multiplicity(3, (3, 1, 1))
        value, _ = min_signed_norm(config)
        assert abs(value - math.sqrt(3)) < 1e-12

    def check_chord():
        for k in range(200):
            r = 1.0 + (k % 17) * 0.25
            a = r * (0.05 + 0.9 * ((k * 7) % 19) / 19)
            theta = -math.pi / 2 + math.pi * ((k * 13) % 23) / 23
            q = ChordQuery(r, a, theta)
            assert chord_length(q) >= 2 * a - 1e-12

    def check_round_trip():
        for k in range(50):
            delta = 2.0 * k / 49
            assert abs(distance_to_inner(inner_to_distance(delta)) - delta) < 1e-12

    def check_greedy_prefix():
        for s in range(20):
            config = constructions.random_unit_config(4, 11, seed=seed + s)
            report = balancing.greedy_signs(config)
            rows = config.as_array()
            acc = np.zeros(4)
            for m, (eta, row) in enumerate(zip(report.signs.signs, rows), start=1):
                acc = acc + eta * row
                assert float(acc @ acc) <= m + 1e-9

    def check_eliminate():
        for s in range(20):
            config = constructions.random_unit_config(3, 12, seed=seed + 100 + s)
            rng = np.random.default_rng(seed + 100 + s)
            lam = rng.uniform(-1, 1, 12)
            res = balancing.eliminate(config, lam, k=3)
            rows = config.as_array()
            drift = np.linalg.norm(res.coefficients.as_array() @ rows - lam @ rows)
            assert drift <= 1e-10 * 12
            assert len(res.residual_indices) <= 3

    def check_anti_alignment():
        config = constructions.construct_exponential(5)
        report = enumerate_signed_sums(config, 1.0)
        assert constructions.pair_anti_aligned(report.argmin)

    def check_search():
        result = search_mod.maximize_min_norm(
            search_mod.SearchSpec(d=2, n=2, restarts=4, steps=1200, seed=seed)
        )
        assert result.best_value > math.sqrt(2) - 1e-4

    return [
        ("exponential-family counts", check_exponential),
        ("parity obstruction", check_parity_obstruction),
        ("chord lower bound", check_chord),
        ("inner/distance round trip", check_round_trip),
        ("greedy prefix law", check_greedy_prefix),
        ("elimination contract", check_eliminate),
        ("anti-aligned argmin", check_anti_alignment),
        ("search d=2 n=2", check_search),
    ]


def cmd_selftest(args, argv) -> int:
    failures = 0
    for name, fn in _selftest_checks(args.seed):
        try:
            fn()
        except Exception as exc:  # report every check, do not stop early
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    return EXIT_OK if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signsum",
        description="Exact enumeration, balancing and adversarial search for "
        "signed sums of unit vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="census of signed sums against a radius")
    p.add_argument("--config", default=None)
    p.add_argument("--construct", default=None, help="e.g. exponential:9, orthomult:2:1,3")
    p.add_argument("--r", type=float, required=True)
    _shared_flags(p, "precision", "tolerance", "seed", "out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("construct", help="write a configuration file")
    p.add_argument("kind", help="exponential:N[:c], orthomult:D:m1,m2..., tight, random:D:N")
    _shared_flags(p, "precision", "seed", "out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("balance", help="run a sign balancer")
    p.add_argument("--config", default=None)
    p.add_argument("--construct", default=None)
    p.add_argument("--algo", choices=("greedy", "eliminate", "cluster", "parity", "auto"),
                   default="auto")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="JSON file of coefficients, or 'zeros' (greedy, eliminate)")
    p.add_argument("--zeta", type=float, default=None, help="(cluster, parity, auto)")
    _shared_flags(p, "precision", "seed", "out")
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("falsify", help="search for a badly approximable zonotope point")
    p.add_argument("--config", default=None)
    p.add_argument("--construct", default=None)
    p.add_argument("--r", type=float, required=True, help="squared-distance target")
    p.add_argument("--budget", type=int, default=100)
    _shared_flags(p, "precision", "seed", "out")
    p.set_defaults(func=cmd_falsify)

    p = sub.add_parser("search", help="maximise the minimum signed-sum norm")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--step-init", type=float, default=0.25)
    p.add_argument("--step-decay", type=float, default=0.998)
    p.add_argument("--target", type=float, default=None)
    _shared_flags(p, "seed", "out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sweep", help="parity table over a (d, n) grid")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--restarts", type=int, default=12)
    p.add_argument("--steps", type=int, default=1500)
    _shared_flags(p, "seed", "out", "format")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("decay", help="hit probabilities per family and n")
    p.add_argument("--families", default="exponential")
    p.add_argument("--n-list", default="3,5,7,9")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--d", type=int, default=2)
    _shared_flags(p, *_SHARED_FLAGS)
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser("selftest", help="quick library self-checks")
    _shared_flags(p, "seed")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except (PrecisionInsufficient, AmbiguousClassification) as exc:
        print(f"precision refusal: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (SignsumError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
