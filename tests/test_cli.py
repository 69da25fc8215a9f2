import argparse
import csv
import json
import math
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from signsum import search as search_mod
from signsum.cli import build_parser, main
from signsum.jsonio import (
    config_from_obj,
    config_to_obj,
    load_config,
    load_json,
    probability_from_string,
)
from signsum.constructions import random_unit_config
from signsum.core import VectorConfig
from signsum.errors import SignsumError
from signsum.precision import PrecisionPolicy


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestConfigRoundTrip:
    def test_double_identity(self):
        config = random_unit_config(3, 6, seed=4)
        back = config_from_obj(config_to_obj(config))
        assert back == config

    def test_extended_identity(self):
        policy = PrecisionPolicy.extended(256)
        from signsum.constructions import construct_exponential

        config = construct_exponential(13, policy=policy)
        back = config_from_obj(config_to_obj(config, policy), policy)
        assert back.vectors == config.vectors  # decimal strings are exact

    def test_interval_identity(self):
        policy = PrecisionPolicy.interval(256)
        from signsum.constructions import construct_exponential

        config = construct_exponential(13, policy=policy)
        back = config_from_obj(config_to_obj(config, policy), policy)
        assert back.vectors == config.vectors

    def test_interval_decimals_carry_the_working_precision(self):
        from mpmath import mp

        from signsum.constructions import construct_tight_family
        from signsum.core import enumerate_signed_sums
        from signsum.jsonio import report_to_obj

        config = construct_tight_family()
        digits = {}
        for policy in (PrecisionPolicy.interval(256), PrecisionPolicy.extended(256)):
            report = enumerate_signed_sums(config, 1.0, policy)
            digits[policy.mode] = report_to_obj(report, policy)["min_norm"]
        with mp.workprec(256):
            interval, extended = mp.mpf(digits["interval"]), mp.mpf(digits["extended"])
            assert abs(interval - extended) <= 2**-250 * extended
            assert abs(interval - mp.sqrt(2)) <= 2**-250

    def test_file_round_trip(self, workdir):
        config = random_unit_config(2, 4, seed=1)
        from signsum.jsonio import save_config

        save_config(config, "c.json")
        assert load_config("c.json") == config


class TestExitCodes:
    def test_success(self, workdir):
        assert main(["construct", "exponential:5", "--out", "c.json"]) == 0
        assert main(["enumerate", "--config", "c.json", "--r", "1", "--out", "r.json"]) == 0

    def test_validation_error(self, workdir):
        json.dump({"dim": 2, "vectors": [[0.5, 0.0]], "mode": "strict"}, open("bad.json", "w"))
        assert main(["enumerate", "--config", "bad.json", "--r", "1"]) == 2

    @pytest.mark.parametrize("obj", [
        {"dim": 2, "vectors": [[math.nan, 0.0], [1.0, 0.0]], "mode": "strict"},
        {"dim": 2, "vectors": [[math.nan, 0.0], [1.0, 0.0]], "mode": "beck"},
        {"dim": 2, "vectors": [[1.0, 0.0]], "mode": "strict", "norm_tolerance": math.inf},
    ])
    def test_non_finite_config_is_validation(self, workdir, capsys, obj):
        json.dump(obj, open("nan.json", "w"))  # the json module writes NaN/Infinity
        assert main(["enumerate", "--config", "nan.json", "--r", "1"]) == 2
        assert "min_norm" not in capsys.readouterr().out

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_is_refused_when_config_is_read(self, workdir, capsys, constant):
        Path("c.json").write_text(f'{{"dim": 2, "vectors": [[{constant}, 0.0], [0.0, 1.0]]}}')
        with pytest.raises(ValueError, match=f"non-finite JSON constant {constant} is not"):
            load_config("c.json")
        assert main(["enumerate", "--config", "c.json", "--r", "1"]) == 2
        assert f"non-finite JSON constant {constant}" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["1e999", "-1e999", "1" + "0" * 400])
    def test_overflowing_number_is_refused_when_config_is_read(self, workdir, capsys, literal):
        """A literal past the float range would parse to inf and be refused
        only later, as a norm."""
        Path("big.json").write_text(f'{{"dim": 2, "vectors": [[{literal}, 0], [0, 1]]}}')
        with pytest.raises(ValueError, match=f"JSON number {literal} overflows a float"):
            load_config("big.json")
        assert main(["enumerate", "--config", "big.json", "--r", "1"]) == 2
        assert f"JSON number {literal} overflows" in capsys.readouterr().err

    def test_missing_input(self, workdir):
        assert main(["enumerate", "--r", "1"]) == 2

    def test_precision_refusal(self, workdir):
        assert main(["enumerate", "--construct", "exponential:13", "--r", "1"]) == 3

    def test_interval_refusal(self, workdir):
        """An achieved norm as the radius, at tolerance 0 and 53 bits."""
        assert main(["construct", "random:2:6", "--seed", "0", "--out", "r26.json"]) == 0
        assert main(["enumerate", "--config", "r26.json", "--r", "0.28234820914785475",
                     "--precision", "interval:53", "--tolerance", "0"]) == 3

    def test_trailing_precision_field_is_validation(self, workdir, capsys):
        """The spec used to parse as ext:128, and the manifest recorded that."""
        assert main(["enumerate", "--construct", "exponential:5", "--r", "1",
                     "--precision", "ext:128:junk"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "ext:128:junk" in err

    @pytest.mark.parametrize("spec", ["random:3:5:junk", "tight:extra", "orthomult:2:1,1:9",
                                      "exponential:5:0.5:7"])
    def test_trailing_construction_field_is_validation(self, workdir, capsys, spec):
        """These specs used to build, and the manifest recorded the junk."""
        assert main(["enumerate", "--construct", spec, "--r", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and spec in err

    def test_too_large_is_validation(self, workdir):
        assert main(["falsify", "--construct", "random:2:40", "--r", "1", "--budget", "1"]) == 2

    def test_nan_radius_is_validation(self, workdir):
        assert main(["enumerate", "--construct", "exponential:5", "--r", "nan"]) == 2

    @pytest.mark.parametrize("tolerance", ["nan", "inf"])
    def test_non_finite_tolerance_is_validation(self, workdir, capsys, tolerance):
        assert main(["enumerate", "--construct", "exponential:5", "--r", "1",
                     "--tolerance", tolerance]) == 2
        assert "hits" not in capsys.readouterr().err

    def test_nan_step_init_is_validation(self, workdir, capsys):
        assert main(["search", "--d", "2", "--n", "2", "--restarts", "1", "--steps", "5",
                     "--step-init", "nan"]) == 2
        assert "best_value" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["falsify", "--construct", "random:2:3", "--r", "nan"],
        ["falsify", "--construct", "random:2:3", "--r", "inf"],
        ["search", "--d", "2", "--n", "2", "--restarts", "1", "--steps", "5", "--target", "nan"],
        ["enumerate", "--construct", "exponential:5", "--r", "inf"],
        ["decay", "--n-list", "3", "--r", "inf"],
    ])
    def test_non_finite_threshold_is_validation(self, workdir, capsys, argv):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "falsifier:" not in err and "best_value" not in err and "hits" not in err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--dmax", "0", "--nmax", "2"],
        ["sweep", "--dmax", "2", "--nmax", "0"],
        ["sweep", "--dmax", "1", "--nmax", "30"],
        ["decay", "--d", "2", "--n-list", "4", "--r", "nan"],
        ["decay", "--d", "2", "--n-list", "4", "--r", "-1"],
        ["search", "--d", "3", "--n", "30", "--restarts", "1", "--steps", "1"],
    ])
    def test_empty_or_unbuildable_work_is_validation(self, workdir, capsys, argv):
        """An empty grid, a radius that no listed n would reach the check for,
        and sign tables past the byte budget exit 2 before any output."""
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")


# The shared flags each subcommand reads; it must accept no other of them.
SHARED_FLAGS = {
    "--precision": "ext:256", "--tolerance": "1e-3", "--seed": "1", "--out": "x.json",
    "--format": "csv",
}
KEPT_SHARED = {
    "enumerate": {"--precision", "--tolerance", "--seed", "--out"},
    "construct": {"--precision", "--seed", "--out"},
    "balance": {"--precision", "--seed", "--out"},
    "falsify": {"--precision", "--seed", "--out"},
    "search": {"--seed", "--out"},
    "sweep": {"--seed", "--out", "--format"},
    "decay": set(SHARED_FLAGS),
    "selftest": {"--seed"},
}
VALID_BASE = {
    "enumerate": ["enumerate", "--construct", "exponential:5", "--r", "1"],
    "construct": ["construct", "exponential:5"],
    "balance": ["balance", "--construct", "exponential:5"],
    "falsify": ["falsify", "--construct", "exponential:5", "--r", "1", "--budget", "1"],
    "search": ["search", "--d", "2", "--n", "2", "--restarts", "1", "--steps", "5"],
    "sweep": ["sweep", "--dmax", "1", "--nmax", "1", "--restarts", "1", "--steps", "5"],
    "decay": ["decay", "--n-list", "3"],
    "selftest": ["selftest"],
}
REMOVED = [(command, flag) for command, kept in KEPT_SHARED.items()
           for flag in SHARED_FLAGS if flag not in kept]


class TestFlags:
    def test_each_subcommand_has_only_the_shared_flags_it_reads(self):
        (subparsers,) = [a for a in build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction)]
        assert set(subparsers.choices) == set(KEPT_SHARED)
        for name, sub in subparsers.choices.items():
            options = {o for action in sub._actions for o in action.option_strings}
            assert options & set(SHARED_FLAGS) == KEPT_SHARED[name], name
        assert sum(map(len, KEPT_SHARED.values())) == 24 and len(REMOVED) == 16

    @pytest.mark.parametrize("command,flag", REMOVED)
    def test_removed_flag_exits_2(self, workdir, capsys, command, flag):
        build_parser().parse_args(VALID_BASE[command])  # valid without the flag
        with pytest.raises(SystemExit) as exc:
            main(VALID_BASE[command] + [flag, SHARED_FLAGS[flag]])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and flag in err
        assert not (workdir / "x.json").exists()

    @pytest.mark.parametrize("algo,flag,value", [
        ("auto", "--lambda", "lam.json"),
        ("parity", "--lambda", "lam.json"),
        ("cluster", "--lambda", "lam.json"),
        ("greedy", "--zeta", "0.001"),
        ("eliminate", "--zeta", "0.001"),
    ])
    def test_balance_flag_the_algorithm_ignores_exits_2(self, workdir, capsys, algo, flag, value):
        json.dump([0.5, -0.5, 0.0], open("lam.json", "w"))
        argv = ["balance", "--construct", "orthomult:2:1,2", "--algo", algo]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + [flag, value]) == 2
        out, err = capsys.readouterr()
        assert out == "" and flag in err

    @pytest.mark.parametrize("algo,flag,value", [
        ("greedy", "--lambda", "lam.json"),
        ("eliminate", "--lambda", "lam.json"),
        ("cluster", "--zeta", "0.001"),
        ("parity", "--zeta", "0.001"),
        ("auto", "--zeta", "0.001"),
    ])
    def test_balance_flag_the_algorithm_reads_is_accepted(self, workdir, algo, flag, value):
        json.dump([0.5, -0.5, 0.0], open("lam.json", "w"))
        assert main(["balance", "--construct", "orthomult:2:1,2", "--algo", algo,
                     flag, value, "--out", "b.json"]) == 0

    @pytest.mark.parametrize("files,argv", [
        ({"lam.json": 3}, ["balance", "--construct", "orthomult:2:1,2", "--algo", "greedy",
                           "--lambda", "lam.json"]),
        ({"lam.json": [[1], 0, 0]}, ["balance", "--construct", "orthomult:2:1,2",
                                     "--algo", "greedy", "--lambda", "lam.json"]),
        ({"c.json": {"dim": 2, "vectors": 5}}, ["enumerate", "--config", "c.json", "--r", "1"]),
        ({"c.json": [1, 2]}, ["enumerate", "--config", "c.json", "--r", "1"]),
        ({"c.json": {"dim": 2, "vectors": [[None, 0.0]]}},
         ["enumerate", "--config", "c.json", "--r", "1"]),
        ({}, ["construct", "random:2"]),
        ({}, ["enumerate", "--construct", "orthomult:2", "--r", "1"]),
        ({}, ["construct", "exponential:9:1/0"]),
        ({}, ["enumerate", "--construct", "exponential:9", "--r", "1",
              "--precision", "interval:1200"]),
        # JSON's true is not the number 1, and a dimension is an integer.
        ({"c.json": {"dim": 2.7, "vectors": [[1.0, 0.0], [0.0, 1.0]]}},
         ["enumerate", "--config", "c.json", "--r", "1"]),
        ({"c.json": {"dim": 2, "vectors": [[True, 0.0], [0.0, 1.0]]}},
         ["enumerate", "--config", "c.json", "--r", "1"]),
        ({"c.json": {"dim": 2, "vectors": [[True, 0.0], [0.0, 1.0]]}},
         ["enumerate", "--config", "c.json", "--r", "1", "--precision", "ext:128"]),
        ({"c.json": {"dim": 2, "vectors": [[1.0, 0.0]], "norm_tolerance": True}},
         ["enumerate", "--config", "c.json", "--r", "1"]),
        ({"c.json": {"dim": 2, "vectors": [[1, 0]], "mode": "loose"}},
         ["enumerate", "--config", "c.json", "--r", "1"]),
        ({"lam.json": [True, 0, 0]}, ["balance", "--construct", "orthomult:2:1,2",
                                      "--algo", "greedy", "--lambda", "lam.json"]),
    ])
    def test_malformed_input_exits_2(self, workdir, capsys, files, argv):
        for name, obj in files.items():
            json.dump(obj, open(name, "w"))
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("algo", ["parity", "cluster"])
    @pytest.mark.parametrize("zeta", ["-1", "nan", "inf"])
    def test_zeta_out_of_range_exits_2(self, workdir, capsys, algo, zeta):
        assert main(["balance", "--construct", "orthomult:2:1,2", "--algo", algo,
                     "--zeta", zeta]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: zeta must lie in")

    def test_balance_with_a_degenerate_split_plane_exits_0(self, workdir):
        """An oblique pair too parallel for the projection split's plane
        basis at --zeta 1e-52: the split is skipped, not an error."""
        g = 1 - 5e-13
        json.dump({"dim": 3, "vectors": [[1, 0, 0], [g, math.sqrt(1 - g * g), 0],
                                         [0, 0, 1], [0, 0, -1]]}, open("c.json", "w"))
        assert main(["balance", "--config", "c.json", "--zeta", "1e-52", "--out", "b.json"]) == 0
        assert json.load(open("b.json"))["result"]["case_taken"] == "oblique"

    def test_string_rows_are_refused(self, workdir, capsys):
        json.dump({"dim": 2, "vectors": ["10", "01"]}, open("c.json", "w"))
        assert main(["enumerate", "--config", "c.json", "--r", "1.5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        with pytest.raises(ValueError):
            config_from_obj({"dim": 2, "vectors": ["10", "01"]})

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("signsum ")]
        assert len(lines) >= 10
        for line in lines:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])

    def test_readme_quick_start_prints_its_comments(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Library quick start", 1)[1].split("```python", 1)[1]
        exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})
        hits, probability, margin, extended, balance = capsys.readouterr().out.splitlines()
        assert (hits, probability, extended) == ("32 512", "1/16", "256")
        assert float(margin) == pytest.approx(7.8e-11, rel=1e-2)
        achieved, _, guarantee = balance.split()
        assert float(achieved) <= float(guarantee)


class TestEnumerateCommand:
    def test_orthonormal_probability_one(self, workdir):
        json.dump(
            {"dim": 2, "vectors": [[1.0, 0.0], [0.0, 1.0]], "mode": "strict"},
            open("ortho2.json", "w"),
        )
        assert main(["enumerate", "--config", "ortho2.json", "--r", "1.4142135624",
                     "--out", "rep.json"]) == 0
        result = json.load(open("rep.json"))["result"]
        assert probability_from_string(result["probability"]) == 1

    def test_exponential_nine(self, workdir):
        assert main(["enumerate", "--construct", "exponential:9", "--r", "1",
                     "--precision", "double", "--out", "rep.json"]) == 0
        result = json.load(open("rep.json"))["result"]
        assert result["hits"] == 32
        assert probability_from_string(result["probability"]) == Fraction(1, 16)

    def test_band_count_beside_hits(self, workdir, capsys):
        """Double's 1e-12 band holds the 32 near misses of exponential:11,
        so 96 hits with 32 in the band; 256 bits separate them exactly."""
        assert main(["enumerate", "--construct", "exponential:11", "--r", "1",
                     "--out", "e11.json"]) == 0
        result = json.load(open("e11.json"))["result"]
        assert (result["hits"], result["band_count"]) == (96, 32)
        assert '"band_count": 32' in Path("e11.json").read_text()
        assert capsys.readouterr().err.startswith("hits 96/2048  probability 3/64  min_norm 1  ")
        assert main(["enumerate", "--construct", "exponential:11", "--r", "1",
                     "--precision", "ext:256", "--out", "e11x.json"]) == 0
        result = json.load(open("e11x.json"))["result"]
        assert (result["hits"], result["band_count"]) == (64, 0)

    def test_manifest_embedded_and_reproducible(self, workdir):
        args = ["enumerate", "--construct", "random:3:6", "--r", "1.5", "--seed", "9"]
        assert main(args + ["--out", "a.json"]) == 0
        assert main(args + ["--out", "b.json"]) == 0
        a = json.load(open("a.json"))
        b = json.load(open("b.json"))
        assert a["result"] == b["result"]
        for key in ("seed", "precision", "version", "input_sha256"):
            assert a["manifest"][key] == b["manifest"][key]
        assert a["manifest"]["command"][:-1] == b["manifest"]["command"][:-1]

    def test_input_hash_present(self, workdir):
        assert main(["construct", "random:2:3", "--out", "c.json"]) == 0
        assert main(["enumerate", "--config", "c.json", "--r", "1", "--out", "r.json"]) == 0
        manifest = json.load(open("r.json"))["manifest"]
        assert len(manifest["input_sha256"]) == 64

    def test_manifest_type_fields(self):
        from signsum.cli import _manifest, build_parser

        args = build_parser().parse_args(["enumerate", "--construct", "random:2:3",
                                          "--r", "1", "--seed", "4"])
        manifest = _manifest(args, ["enumerate", "--r", "1"])
        assert list(manifest) == ["command", "seed", "precision", "version",
                                  "timestamp_utc", "input_sha256"]
        assert manifest["command"] == ["signsum", "enumerate", "--r", "1"]
        assert manifest["seed"] == 4
        assert manifest["precision"] == "double"
        assert manifest["input_sha256"] is None

    def test_interval_summary_exits_0(self, workdir, capsys):
        """The stderr summary formats interval mode's min_norm, an mpf,
        with float()."""
        argv = ["enumerate", "--construct", "exponential:13", "--r", "1",
                "--precision", "interval:256"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        result = json.loads(out)["result"]
        assert result["hits"] == 128
        assert err.startswith("hits 128/8192") and "min_norm 1 " in err

    def test_worker_flag_is_rejected(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--construct", "random:3:4", "--r", "1.8", "--workers", "4"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestBalanceCommand:
    def test_algorithms(self, workdir):
        assert main(["construct", "orthomult:2:1,2", "--out", "c.json"]) == 0
        for algo in ("greedy", "eliminate", "parity", "auto"):
            assert main(["balance", "--config", "c.json", "--algo", algo,
                         "--out", f"{algo}.json"]) == 0
        parity = json.load(open("parity.json"))["result"]
        assert float(parity["achieved_norm"]) == pytest.approx(1.0)
        assert parity["case_taken"] == "clustered"

    def test_lambda_file(self, workdir):
        assert main(["construct", "orthomult:2:1,1", "--out", "c.json"]) == 0
        json.dump([0.5, -0.5], open("lam.json", "w"))
        assert main(["balance", "--config", "c.json", "--algo", "greedy",
                     "--lambda", "lam.json", "--out", "b.json"]) == 0
        result = json.load(open("b.json"))["result"]
        assert float(result["achieved_norm"]) <= math.sqrt(2) + 1e-9

    @pytest.mark.parametrize("algo", ["greedy", "eliminate", "parity", "auto"])
    def test_beyond_unit_norm(self, workdir, algo):
        """Every sign choice ends at 1.05 * sqrt(2) here, above sqrt(d) but
        within the prefix law, which greedy takes over all n vectors and the
        eliminate bound and the parity fallback over the d longest."""
        json.dump({"dim": 2, "vectors": [[1.05, 0], [0, 1.05]], "mode": "beck",
                   "norm_tolerance": 0.1}, open("b2.json", "w"))
        assert main(["balance", "--config", "b2.json", "--algo", algo, "--out", "b.json"]) == 0
        result = json.load(open("b.json"))["result"]
        assert float(result["achieved_norm"]) == pytest.approx(1.05 * math.sqrt(2))
        assert float(result["guarantee"]) == math.sqrt(2 * 1.05**2)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_lambda_constant_is_refused_when_read(self, workdir, capsys, constant):
        json.dump({"dim": 2, "vectors": [[1.0, 0.0], [0.0, 1.0]]}, open("c.json", "w"))
        Path("lam.json").write_text(f"[{constant}, 0.0]")
        assert main(["balance", "--config", "c.json", "--algo", "greedy",
                     "--lambda", "lam.json"]) == 2
        assert f"non-finite JSON constant {constant} is not a number" in capsys.readouterr().err


    def test_overflowing_lambda_number_is_refused_when_read(self, workdir, capsys):
        json.dump({"dim": 2, "vectors": [[1.0, 0.0], [0.0, 1.0]]}, open("c.json", "w"))
        Path("lam.json").write_text("[1e999, 0.0]")
        assert main(["balance", "--config", "c.json", "--algo", "greedy",
                     "--lambda", "lam.json"]) == 2
        assert "JSON number 1e999 overflows a float" in capsys.readouterr().err

    def test_beck_oblique_pair_beyond_unit_norm(self, workdir):
        """d = 3 with an oblique pair of norm 1.05: the projection split's
        unit basis does not exist, so its certificate is not taken."""
        json.dump({"dim": 3, "vectors": [[1.05, 0, 0], [0.525, 0.9093266739736605, 0],
                                         [0, 0, 1.05], [0, 1.05, 0]],
                   "mode": "beck", "norm_tolerance": 0.1}, open("b3.json", "w"))
        assert main(["balance", "--config", "b3.json", "--algo", "auto", "--out", "b.json"]) == 0
        result = json.load(open("b.json"))["result"]
        assert result["case_taken"] == "oblique"
        assert float(result["achieved_norm"]) <= float(result["guarantee"])

    def test_summary_names_the_certificate(self, workdir, capsys):
        """parity and auto name the certificate that set the guarantee on
        stderr; the JSON result has no such key."""
        assert main(["construct", "random:3:4", "--seed", "0", "--out", "c.json"]) == 0
        for algo in ("parity", "auto"):
            capsys.readouterr()
            assert main(["balance", "--config", "c.json", "--algo", algo, "--out", "b.json"]) == 0
            err = capsys.readouterr().err
            assert err.startswith("parity_balance: achieved ")
            assert err.endswith(", certificate pair-first)\n")
            assert "certificate" not in json.load(open("b.json"))["result"]
        assert main(["balance", "--config", "c.json", "--algo", "greedy"]) == 0
        assert "certificate" not in capsys.readouterr().err


class TestFalsifyCommand:
    def test_witness_emitted(self, workdir):
        json.dump({"dim": 2, "vectors": [[1.0, 0.0], [0.0, 1.0]]}, open("c.json", "w"))
        assert main(["falsify", "--config", "c.json", "--r", "1.9",
                     "--budget", "10", "--out", "f.json"]) == 0
        result = json.load(open("f.json"))["result"]
        assert result["witness"] == [0.0, 0.0]

    def test_no_witness(self, workdir):
        json.dump({"dim": 2, "vectors": [[1.0, 0.0], [0.0, 1.0]]}, open("c.json", "w"))
        assert main(["falsify", "--config", "c.json", "--r", "2.0",
                     "--budget", "10", "--out", "f.json"]) == 0
        assert json.load(open("f.json"))["result"]["witness"] is None


class TestSearchAndSweep:
    def test_search_json(self, workdir):
        assert main(["search", "--d", "2", "--n", "2", "--restarts", "4",
                     "--steps", "800", "--out", "s.json"]) == 0
        result = json.load(open("s.json"))["result"]
        assert float(result["best_value"]) <= math.sqrt(2) + 1e-9
        assert not result["counterexample_candidate"]
        assert len(result["restart_bests"]) == 4

    def test_counterexample_artifact(self, workdir, monkeypatch):
        """A margin below zero makes a single unit vector (min norm 1 > 1 - 0.5)
        a candidate; the artifact re-enumerates it at radius 0.5."""
        monkeypatch.setattr(search_mod, "COUNTEREXAMPLE_MARGIN", -0.5)
        assert main(["search", "--d", "2", "--n", "1", "--restarts", "1",
                     "--steps", "5", "--out", "s.json"]) == 0
        assert json.load(open("s.json"))["result"]["counterexample_candidate"]
        artifact = json.load(open("s.json.counterexample.json"))
        assert artifact["manifest"]["command"][:2] == ["signsum", "search"]
        assert artifact["config"]["dim"] == 2 and len(artifact["config"]["vectors"]) == 1
        assert artifact["enumeration_radius"] == 0.5
        assert artifact["enumeration"]["total"] == 2
        assert artifact["enumeration"]["hits"] == 0

    def test_sweep_csv(self, workdir):
        assert main(["sweep", "--dmax", "2", "--nmax", "3", "--restarts", "3",
                     "--steps", "300", "--format", "csv", "--out", "sweep.csv"]) == 0
        rows = list(csv.reader(open("sweep.csv")))
        assert rows[0] == ["d", "n", "parity", "best_value", "source"]
        assert len(rows) == 1 + 6


class TestDecayCommand:
    def test_exponential_probabilities_exact(self, workdir):
        assert main(["decay", "--families", "exponential", "--n-list", "3,5,7,9",
                     "--r", "1", "--format", "csv", "--out", "decay.csv"]) == 0
        rows = list(csv.reader(open("decay.csv")))
        probabilities = [probability_from_string(row[3]) for row in rows[1:]]
        assert probabilities == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]

    def test_orthomult_zero_probability_below_sqrt_d(self, workdir):
        radius = repr(math.sqrt(2 - 1e-6))
        assert main(["decay", "--families", "orthomult", "--n-list", "2,4,6",
                     "--d", "2", "--r", radius, "--format", "csv",
                     "--out", "decay.csv"]) == 0
        rows = list(csv.reader(open("decay.csv")))
        assert [row[2] for row in rows[1:]] == ["0", "0", "0"]

    def test_default_json_skips_parities_without_a_member(self, workdir, capsys):
        """Exponential skips even n; orthomult at d = 2 skips odd n."""
        assert main(["decay", "--families", "exponential,orthomult", "--n-list", "3,4,5",
                     "--d", "2", "--r", "1"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {
            "columns": ["family", "n", "hits", "probability"],
            "rows": [["exponential", 3, 4, "1/2"], ["exponential", 5, 8, "1/4"],
                     ["orthomult", 4, 0, "0/1"]],
        }

    def test_random_family_positive_and_decreasing_trend(self, workdir):
        assert main(["decay", "--families", "random", "--n-list", "3,5,7,9,11",
                     "--d", "2", "--r", "1", "--seed", "17", "--format", "csv",
                     "--out", "decay.csv"]) == 0
        rows = list(csv.reader(open("decay.csv")))
        values = [probability_from_string(row[3]) for row in rows[1:]]
        assert all(v > 0 for v in values)  # planar odd-n families always hit

    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_orthomult_without_a_dimension_exits_2(self, workdir, capsys, d):
        assert main(["decay", "--families", "orthomult", "--n-list", "2,5", "--d", d]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: need d >= 1")


class TestSelftest:
    def test_passes(self, workdir, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 8


# Token pools for the fuzzed command lines.  Every construction has n <= 9
# and d <= 4, and every budget is at most 2, so no call builds a large table.
_NUMBERS = ["nan", "inf", "-inf", "1e400", "1/0", "-1", "0", "0.5", "1", "2", "1e-300", ""]
_SPECS = ["exponential:5", "exponential:9", "exponential:4", "exponential:0", "exponential:-1",
          "exponential:nan", "exponential:5:0.5", "exponential:5:1", "exponential:5:1e400",
          "exponential", "orthomult:2:1,3", "orthomult:4:3,3,1,1", "orthomult:2:",
          "orthomult:2:1,x", "orthomult:0:1", "orthomult:-1:1", "orthomult:2:-1,1", "tight",
          "tight:3", "random:3:6", "random:4:9", "random:2:7", "random:0:3", "random:3:0",
          "random:3:-1", "random:3", "random:3:5:1", "random:nan:3", "", "junk"]
_PRECISIONS = ["double", "ext:64", "ext:256", "interval:53", "interval:128", "ext:0", "ext:-1",
               "ext:nan", "ext:1e400", "ext", "interval:", "", "junk"]
_CONFIGS = ['{"dim": 2, "vectors": [[1, 0], [0, 1], [0.6, 0.8]]}',
            '{"dim": 3, "vectors": [[1, 0, 0], [0.3, 0.9539392014169457, 0], [0, 0, 1], [0, 0, 1]]}',
            '{"dim": 2, "vectors": [[1.05, 0], [0, 1.05]], "mode": "beck", "norm_tolerance": 0.1}',
            '{"dim": 2, "vectors": [[NaN, 0], [0, 1]]}', '{"dim": 2, "vectors": [[1e999, 0]]}',
            '{"dim": 2, "vectors": [[true, 0]]}', '{"dim": 2, "vectors": ["10", "01"]}',
            '{"dim": 2}', '{"vectors": [[1, 0]]}', '{"dim": 0, "vectors": []}',
            '{"dim": 2, "vectors": [[1, 0, 0]]}', '{"dim": 2.5, "vectors": [[1, 0]]}',
            '{"dim": 1, "vectors": [[1]], "mode": "weird"}',
            '{"dim": 1, "vectors": [[1]], "norm_tolerance": -1}',
            '{"dim": 1, "vectors": [["1"]], "norm_tolerance": "x"}', '[1, 2]', 'null', '', '{']
_LAMBDAS = ["[0, 0, 0]", "[2, 0]", "[NaN]", "[true]", "{}", "[0.5, -0.5, 0.1, 0.2]", "", "[1e999]"]
_FILES = ["c.json", "lam.json", "missing.json", ".", ""]
_SHARED = [("--precision", _PRECISIONS), ("--seed", ["0", "1", "-1", "nan", "1e400", ""]),
           ("--out", ["out.json", ".", "no/such/dir.json", ""])]
_COMMANDS = {
    "enumerate": [("--r", _NUMBERS), ("--tolerance", _NUMBERS), ("--construct", _SPECS),
                  ("--config", _FILES)],
    "construct": [(None, _SPECS)],
    "balance": [("--algo", ["greedy", "eliminate", "cluster", "parity", "auto", "junk"]),
                ("--zeta", _NUMBERS), ("--lambda", ["zeros", "lam.json", "missing.json", ""]),
                ("--construct", _SPECS), ("--config", _FILES)],
    "falsify": [("--r", _NUMBERS), ("--budget", ["0", "1", "2", "-1", "nan", ""]),
                ("--construct", _SPECS), ("--config", _FILES)],
    "decay": [("--families", ["exponential", "orthomult", "random", "exponential,orthomult",
                              "random,orthomult", "junk", ""]),
              ("--n-list", ["2,5", "4", "3", "9", "1,3,5", "", "x", "-1", "0", "2,nan", "3,,5"]),
              ("--r", _NUMBERS), ("--d", ["0", "-1", "1", "2", "4", "nan", ""]),
              ("--format", ["csv", "json", "xml"])],
}
# 40 examples for each of the five commands, 200 calls in all.
_FUZZ = settings(max_examples=40, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _command_line(command):
    """argv for ``command``: each of its flags and the shared ones left out
    or given one token of its pool; a flag of None is the positional one."""
    flags = _COMMANDS[command] + _SHARED
    return st.tuples(*(st.none() | st.sampled_from(tokens) for _, tokens in flags)).map(
        lambda drawn: [command] + [word for (flag, _), token in zip(flags, drawn)
                                   if token is not None
                                   for word in ([token] if flag is None else [flag, token])])


class TestFuzzedArguments:
    """Command lines built from a fixed pool of malformed and valid tokens:
    every call answers (0), refuses (2, or 3 for precision) or exits 2
    through argparse, and none raises."""

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    @_FUZZ
    @given(data=st.data(), config=st.sampled_from(_CONFIGS), lam=st.sampled_from(_LAMBDAS))
    def test_never_raises(self, workdir, command, data, config, lam):
        Path("c.json").write_text(config)
        Path("lam.json").write_text(lam)
        argv = data.draw(_command_line(command))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: a missing or malformed argument
            code = exc.code
            assert code == 2, argv
        assert code in (0, 2, 3), argv

    _LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4))
    _JSON = st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=3)
                         | st.dictionaries(st.text(max_size=3), inner, max_size=2), max_leaves=6)

    @settings(max_examples=200, deadline=None)
    @given(obj=st.fixed_dictionaries({}, optional={
        "dim": st.integers(-1, 4) | _JSON,
        "vectors": st.lists(st.lists(st.floats() | st.integers() | _LEAVES, max_size=4),
                            max_size=9) | _JSON,
        "mode": st.sampled_from(["strict", "beck"]) | _JSON,
        "norm_tolerance": st.floats() | _JSON,
    }) | _JSON)
    def test_config_from_obj_returns_or_refuses(self, obj):
        try:
            assert isinstance(config_from_obj(obj), VectorConfig)
        except (ValueError, SignsumError):
            pass

    @pytest.mark.parametrize("obj", [{"dim": 2}, {"vectors": [[1.0]]},
                                     {"dim": 1, "vectors": [[10**400]]},
                                     {"dim": 1, "vectors": [[1.0]], "norm_tolerance": 10**400}])
    def test_config_from_obj_refuses_missing_keys_and_huge_integers(self, obj):
        with pytest.raises(ValueError):
            config_from_obj(obj)



# JSON-like number tokens, valid or not: constants json accepts but load_json
# refuses, literals past the float range, and non-numbers.
_NUMBER = st.sampled_from(["0", "1", "-1", "0.6", "0.8", "-0.0", "1e-400", "NaN", "Infinity",
                           "-Infinity", "1e999", "-1e999", "9" * 400, "-" + "9" * 400, "true",
                           "false", "null", '"1"', '"x"', "1.5e", "--1"])


def _listed(items):
    return items.map(lambda texts: "[" + ", ".join(texts) + "]")


_NESTED = st.recursive(_NUMBER, lambda inner: _listed(st.lists(inner, max_size=4)), max_leaves=8)
# Unit rows of d = 2, and coefficients in [-1, 1] for n = 4, make some
# drawn inputs valid.
_CONFIG_TEXT = st.builds('{{"dim": 2, "vectors": {}}}'.format, _listed(
    st.lists(st.sampled_from(["[1, 0]", "[0, -1]", "[0.6, 0.8]"]), min_size=1, max_size=9)))
_CONFIG_TEXT |= st.builds('{{"dim": {}, "vectors": {}}}'.format, _NUMBER, _listed(
    st.lists(_listed(st.lists(_NUMBER, max_size=3)) | _NUMBER, max_size=9))) | _NESTED
_LAMBDA_TEXT = (_listed(st.lists(st.sampled_from(["0", "0.5", "-1"]), min_size=4, max_size=4))
                | _listed(st.lists(_NUMBER, min_size=4, max_size=4)) | _NESTED)


def _truncated(texts):
    """Each text whole, or cut after a drawn number of characters."""
    return st.tuples(texts, st.none() | st.integers(0, 500)).map(lambda pair: pair[0][:pair[1]])


_JSON_FUZZ = settings(max_examples=100, deadline=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])


def _readable(path):
    """Whether load_json reads the file at ``path``; any exception but
    ValueError (json.JSONDecodeError is one) propagates."""
    with open(path, encoding="utf-8") as fh:
        try:
            load_json(fh)
        except ValueError:
            return False
    return True


class TestFuzzedJson:
    """Files of JSON-like text, truncated or not, with NaN, Infinity, 1e999,
    400-digit integers, nested lists, booleans and strings: load_json returns
    or raises ValueError, and the commands that read such a file exit 0, 2
    or 3, never with a traceback; an answer (exit 0) is a file that
    load_json reads back."""

    @_JSON_FUZZ
    @given(text=_truncated(_CONFIG_TEXT))
    def test_enumerate_config(self, workdir, text):
        Path("c.json").write_text(text)
        Path("out.json").unlink(missing_ok=True)
        readable = _readable("c.json")
        code = main(["enumerate", "--config", "c.json", "--r", "1", "--out", "out.json"])
        assert code in (0, 2, 3), text
        assert code == 2 or readable
        assert code != 0 or _readable("out.json")

    @_JSON_FUZZ
    @given(text=_truncated(_LAMBDA_TEXT), algo=st.sampled_from(["greedy", "eliminate"]))
    def test_balance_lambda(self, workdir, text, algo):
        Path("lam.json").write_text(text)
        Path("out.json").unlink(missing_ok=True)
        readable = _readable("lam.json")
        code = main(["balance", "--construct", "random:3:4", "--algo", algo,
                     "--lambda", "lam.json", "--out", "out.json"])
        assert code in (0, 2, 3), text
        assert code == 2 or readable
        assert code != 0 or _readable("out.json")
