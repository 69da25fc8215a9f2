import argparse
import csv
import json
import math
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from signsum import search as search_mod
from signsum.cli import build_parser, main
from signsum.jsonio import (
    config_from_obj,
    config_to_obj,
    load_config,
    probability_from_string,
)
from signsum.constructions import random_unit_config
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
        from signsum.cli import RunManifest, build_parser

        args = build_parser().parse_args(["enumerate", "--construct", "random:2:3",
                                          "--r", "1", "--seed", "4"])
        manifest = RunManifest.capture(args, ["enumerate", "--r", "1"])
        assert manifest.command == ("signsum", "enumerate", "--r", "1")
        assert manifest.seed == 4
        assert manifest.precision == "double"
        assert manifest.input_sha256 is None
        obj = manifest.to_obj()
        assert sorted(obj) == ["command", "input_sha256", "precision", "seed",
                               "timestamp_utc", "version"]

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


class TestSelftest:
    def test_passes(self, workdir, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 8
