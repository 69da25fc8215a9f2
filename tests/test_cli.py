import csv
import json
import math
from fractions import Fraction

import pytest

from signsum.cli import main
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

    def test_missing_input(self, workdir):
        assert main(["enumerate", "--r", "1"]) == 2

    def test_precision_refusal(self, workdir):
        assert main(["enumerate", "--construct", "exponential:13", "--r", "1"]) == 3

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

    def test_worker_flag_changes_nothing(self, workdir):
        base = ["enumerate", "--construct", "random:3:16", "--r", "1.8", "--seed", "3"]
        assert main(base + ["--out", "w1.json"]) == 0
        assert main(base + ["--workers", "4", "--out", "w4.json"]) == 0
        assert json.load(open("w1.json"))["result"] == json.load(open("w4.json"))["result"]


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
