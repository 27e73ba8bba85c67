"""End-to-end command tests: config in, report + exit code out."""

import csv
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import soladic.cli as cli
from soladic import (
    ConfigError,
    PreconditionViolated,
    SoundnessError,
    TermBudgetExceeded,
    UndecomposedSolution,
    _kernels,
    scenarios,
    serialize,
)
from soladic.charfun import Decomposition, EquationCheck
from soladic.cli import main
from soladic.sampler import SampleBatch, empirical_cf, kuiper_two_sample
from soladic.serialize import rational_from_json, spec_from_json


FIXTURES = Path(__file__).parent / "fixtures"


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def flat_rows(obj, key=""):
    """The ``key,value`` rows that ``--format csv`` prints for a JSON report, by a plain walk."""
    if isinstance(obj, dict):
        return [row for k, v in obj.items() for row in flat_rows(v, f"{key}.{k}" if key else k)]
    if isinstance(obj, list):
        return [row for i, v in enumerate(obj) for row in flat_rows(v, f"{key}[{i}]")]
    return [[key, "" if obj is None else str(obj)]]


def assert_csv_matches_json(capsys, *argv):
    """Run one command in both formats: its CSV rows are its JSON report, flattened in key order."""
    code, json_out, _ = run_cli(capsys, *argv)
    csv_code, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert csv_code == code
    assert list(csv.reader(io.StringIO(csv_out))) == [["key", "value"], *flat_rows(json.loads(json_out))]


def pinned_config(name):
    """The config of a pinned run, ``fixtures/<name>.json``, beside its pinned stdout; CI runs the same file."""
    return json.loads((FIXTURES / f"{name}.json").read_text())


GAUSS_HOLDS = pinned_config("simulate_gaussian")

CIRCLE_POINT = pinned_config("check_circle")


class TestClassify:
    @pytest.mark.parametrize(
        "table,kind",
        [
            ({"2": "inf"}, "unique_infinite_prime"),
            ({}, "no_infinite_prime"),
            ({"2": "inf", "3": "inf"}, "multiple_infinite_primes"),
        ],
    )
    def test_classes(self, tmp_path, capsys, table, kind):
        path = write_config(tmp_path, {"solenoid": table})
        code, out, _ = run_cli(capsys, "classify", path)
        assert code == 0
        assert json.loads(out)["class"] == kind

    def test_unknown_key_is_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"solenoid": {}, "oops": 1})
        code, _, err = run_cli(capsys, "classify", path)
        assert code == 2
        assert "unknown keys" in err

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "classify", tmp_path / "absent.json")
        assert code == 2
        assert "cannot read" in err

    def test_huge_prime_key_is_decided(self, tmp_path, capsys):
        path = write_config(tmp_path, {"solenoid": {"1000000000000000003": 1}})
        code, out, _ = run_cli(capsys, "classify", path)
        assert code == 0
        assert json.loads(out)["class"] == "no_infinite_prime"

    def test_key_beyond_the_primality_bound_is_exit_2(self, tmp_path, capsys):
        # the smallest strong pseudoprime to the first 13 prime bases
        path = write_config(tmp_path, {"solenoid": {"3317044064679887385961981": 1}})
        code, out, err = run_cli(capsys, "classify", path)
        assert code == 2 and out == ""
        assert "too large to test for primality" in err

    def test_invalid_json_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        code, _, _ = run_cli(capsys, "classify", path)
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        ['{"solenoid": {"2": ' + "1" * 5000 + "}}", "[" * 100_000],
        ids=["5000-digit-integer", "deep-nesting"],
    )
    def test_unparseable_json_is_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "run.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "classify", path)
        assert code == 2 and out == ""
        assert "not valid JSON" in err

    def test_utf8_bom_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"solenoid": {}}).encode())
        code, out, err = run_cli(capsys, "classify", path)
        assert code == 2 and out == ""
        assert "not valid JSON: Unexpected UTF-8 BOM" in err

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"solenoid": {"2": 1, "02": "inf"}}', "02"),
            ('{"solenoid": {"1_1": "inf"}}', "1_1"),
            ('{"solenoid": {" 2": 1}}', " 2"),
            ('{"solenoid": {"+2": 1}}', "+2"),
        ],
    )
    def test_prime_keys_are_read_exactly(self, tmp_path, capsys, text, key):
        path = tmp_path / "run.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "classify", path)
        assert code == 2 and out == ""
        assert f"solenoid key {key!r} is not a prime" in err

    @pytest.mark.parametrize(
        "text",
        ['{"solenoid": {"2": 1, "2": "inf"}}', '{"solenoid": {"2": 1}, "solenoid": {"3": 1}}'],
    )
    def test_duplicate_keys_are_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "run.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "classify", path)
        assert code == 2 and out == ""
        assert "repeats the key" in err


class TestCheck:
    def test_holds_exits_0(self, tmp_path, capsys):
        path = write_config(tmp_path, GAUSS_HOLDS)
        code, out, _ = run_cli(capsys, "check", path)
        doc = json.loads(out)
        assert code == 0
        assert doc["equation"]["verdict"] == "holds"
        assert doc["decomposition"]["kind"] == "gaussian_haar"

    def test_fails_exits_1_with_witness(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(GAUSS_HOLDS, coefficients=["1/2"] * 3))
        code, out, _ = run_cli(capsys, "check", path)
        doc = json.loads(out)
        assert code == 1
        assert doc["equation"]["verdict"] == "fails"
        assert doc["equation"]["witness"] is not None

    def test_two_gaussian_mixture_is_not_of_form(self, tmp_path, capsys):
        # gaussians of sigma 1 and 2, mixed half and half; CI runs the same file
        path = write_config(tmp_path, pinned_config("twogauss"))
        code, out, _ = run_cli(capsys, "check", path)
        doc = json.loads(out)
        assert code == 1
        assert doc["equation"]["witness"] == "1"
        assert doc["decomposition"]["kind"] == "not_of_form"
        assert "is not one gaussian: its terms have decays 1, 2" in doc["decomposition"]["reason"]

    def test_decomposition_prints_the_support_pair(self, tmp_path, capsys):
        # 1 on v_2 = 0 and at zero: 1 + 1 = 2 leaves the support, and the pair is
        # printed as a list of two characters, as the pinned reports print one
        cf = [_piece([_v2("=", 0)], ONE), _piece([], ONE, only_zero=True)]
        code, out, _ = run_cli(capsys, "check", write_config(tmp_path, dict(GAUSS_HOLDS, distribution={"cf": cf})))
        dec = json.loads(out)["decomposition"]
        assert code == 1
        assert (dec["kind"], dec["witness"]) == ("not_of_form", ["1", "1"])

    def test_explicit_cf_distribution(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "solenoid": {"2": "inf", "3": "inf"},
                "coefficients": ["2/3", "2/3", "1/3"],
                "distribution": {
                    "cf": [{"stratum": [{"prime": 2, "op": ">=", "k": -1}], "terms": [{"c": "1"}]}]
                },
            },
        )
        code, out, _ = run_cli(capsys, "check", path)
        doc = json.loads(out)
        assert code == 0
        assert doc["decomposition"]["kind"] == "gaussian_haar"
        assert doc["decomposition"]["subgroup"] == {"2": -1}

    def test_recut_haar_decomposes_like_the_haar_law(self, tmp_path, capsys):
        # haar(v_3 >= 0) written as two pieces; the v_2 >= 5 piece carries the
        # shift 1/32, which every character of that piece pairs to 1
        floor3 = {"prime": 3, "op": ">=", "k": 0}
        cut = {
            "solenoid": {"2": "inf", "3": 1},
            "coefficients": ["1/2", "1/2", "1/2", "1/2"],
            "distribution": {"cf": [
                {"stratum": [{"prime": 2, "op": ">=", "k": 5}, floor3], "terms": [{"c": 1, "shift": "1/32"}]},
                {"stratum": [{"prime": 2, "op": "<=", "k": 4}, floor3], "terms": [{"c": 1}]},
            ]},
        }
        law = dict(cut, distribution={"law": {"kind": "haar", "subgroup": {"3": 0}}})
        decompositions = []
        for name, doc in (("cut.json", cut), ("law.json", law)):
            code, out, _ = run_cli(capsys, "check", write_config(tmp_path, doc, name))
            assert code == 0
            decompositions.append(json.loads(out)["decomposition"])
        assert decompositions[0] == decompositions[1]
        assert decompositions[0]["kind"] == "gaussian_haar"

    def test_circle_run_matches_pinned_fixture(self, tmp_path, capsys):
        # the point at 1/3 on the circle under (1, 1, -1): a shift of haar on the whole
        # circle's dual; the CI console-script step compares its output with the same fixture
        code, out, _ = run_cli(capsys, "check", write_config(tmp_path, CIRCLE_POINT, "circle.json"))
        assert code == 0
        assert out == (FIXTURES / "check_circle.stdout").read_text()

    @pytest.mark.parametrize("name, witness", [("check_many", "1/3"), ("check_interleaved", "1")])
    def test_many_coefficient_run_matches_pinned_fixture(self, tmp_path, capsys, name, witness):
        # check_many is the (3,5) system without its last term 1/125: 1,736 copies of 3/125,
        # whose squares sum below one; the CI console-script step compares both outputs with
        # the same fixtures. check_interleaved writes 1/2 as "1/2", "2/4" and "+1/2", and 1
        # as 1 and "1", between other values: the report keeps the config's order, and
        # prints each entry in lowest terms
        code, out, _ = run_cli(capsys, "check", write_config(tmp_path, pinned_config(name)))
        assert code == 1
        assert json.loads(out)["equation"]["witness"] == witness
        assert out == (FIXTURES / f"{name}.stdout").read_text()

    def test_undecidable_exits_3(self, tmp_path, capsys):
        # a pure character whose phase denominator, the prime 4099, exceeds the
        # exact-arithmetic working cap of 4096 at every character of {2: inf}:
        # the two sides differ formally but no probe can prove it
        path = write_config(
            tmp_path,
            {
                "solenoid": {"2": "inf"},
                "coefficients": ["1/2", "1/2", "1/2"],
                "distribution": {
                    "cf": [{"stratum": [], "terms": [{"c": "1", "shift": "1/4099"}]}]
                },
            },
        )
        code, out, _ = run_cli(capsys, "check", path)
        assert code == 3
        assert json.loads(out)["equation"]["verdict"] == "unknown"

    def test_one_term_past_the_order_cap_is_decided(self, tmp_path, capsys):
        # a gaussian of mean 1/4099 under three halves: its squares sum to 3/4, so
        # the equation fails; at y = 1 each side is one term whose phase order 4099
        # exceeds the cap, and one nonzero term never vanishes, so 1 is a witness
        law = {"kind": "gaussian", "sigma": 1, "mean": "1/4099"}
        path = write_config(
            tmp_path, {"solenoid": {"2": "inf"}, "coefficients": ["1/2"] * 3, "distribution": {"law": law}}
        )
        code, out, _ = run_cli(capsys, "check", path)
        assert code == 1
        assert json.loads(out)["equation"]["witness"] == "1"

    @pytest.mark.parametrize(
        "cfg, witness",
        [
            (
                {
                    "solenoid": {"2": "inf"},
                    "coefficients": ["1/2"] * 3,
                    "distribution": {"cf": [{"stratum": [], "terms": [{"c": "1", "shift": f"1/{2**40}"}]}]},
                },
                str(2**40),
            ),
            (pinned_config("atfour"), "1/16"),
        ],
        ids=["shift-2^-40", "point-4"],
    )
    def test_single_term_cells_get_a_closed_form_witness(self, tmp_path, capsys, cfg, witness):
        # each side is one character on the whole dual group, and no probe of
        # its list tells them apart: the shift 1/2^40 made every probe's phase
        # too fine to decide, and the point with real value 4 (depth 3, 1/2 over
        # {2: inf}, under two halves and eight quarters) first differs from the
        # right side at 1/16; both exited 3 with "unknown"
        code, out, _ = run_cli(capsys, "check", write_config(tmp_path, cfg))
        assert code == 1
        assert json.loads(out)["equation"] == {"degenerate": False, "note": "", "verdict": "fails", "witness": witness}

    def test_point_one_level_below_the_integral_probes_fails(self, tmp_path, capsys):
        # the point with real value 3/2 (depth 1, 1/2 over {3: inf}) under nine thirds
        # differs from the right side first at 1/9
        code, out, _ = run_cli(capsys, "check", write_config(tmp_path, pinned_config("point")))
        assert code == 1
        assert json.loads(out)["equation"] == {"degenerate": False, "note": "", "verdict": "fails", "witness": "1/9"}

    def test_overlapping_strata_name_their_cells(self, tmp_path, capsys):
        pieces = [
            {"stratum": [{"prime": 2, "op": ">=", "k": 0}], "terms": [{"c": "1"}]},
            {"stratum": [{"prime": 2, "op": "=", "k": 1}], "terms": [{"c": "1"}]},
        ]
        path = write_config(tmp_path, dict(GAUSS_HOLDS, distribution={"cf": pieces}))
        code, out, err = run_cli(capsys, "check", path)
        assert code == 2 and out == ""
        assert "distribution.cf[0] and distribution.cf[1] overlap on v_2=1" in err
        # a minus_zero piece's cell is the whole group too: the indices tell the pieces apart
        pieces = [
            {"stratum": [], "terms": [{"c": 1}]},
            {"stratum": [], "terms": [{"c": 1, "sigma": 1}], "minus_zero": True},
        ]
        path = write_config(tmp_path, dict(GAUSS_HOLDS, distribution={"cf": pieces}))
        code, out, err = run_cli(capsys, "check", path)
        assert code == 2 and out == ""
        assert "distribution.cf[0] and distribution.cf[1] overlap on whole dual group" in err

    def test_huge_prime_coefficient_is_not_an_automorphism(self, tmp_path, capsys):
        cfg = dict(GAUSS_HOLDS, coefficients=["1/1000000000000000003"])
        code, out, _ = run_cli(capsys, "check", write_config(tmp_path, cfg))
        doc = json.loads(out)
        assert code == 2 and doc["coefficients_valid"] is False
        assert "1/1000000000000000003 are not automorphisms" in doc["conclusion"]

    @pytest.mark.parametrize("depth", [20_000, 3_000_000])
    def test_unprintably_deep_point_is_exit_2(self, tmp_path, capsys, depth):
        # coord * level(depth) has thousands of digits: a config error naming
        # the depth, refused before the level of a deep tower is built
        law = {"kind": "degenerate", "point": {"depth": depth, "coord": "1/3"}}
        path = write_config(tmp_path, dict(GAUSS_HOLDS, distribution={"law": law}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "check", path)
        assert time.perf_counter() - start < 5.0
        assert code == 2 and out == ""
        assert f"point.depth {depth}" in err and "digits" in err

    def test_long_but_printable_point_still_runs(self, tmp_path, capsys):
        # 2^14000 / 3 has 4,214 digits, within the integer-string limit
        law = {"kind": "degenerate", "point": {"depth": 14_000, "coord": "1/3"}}
        path = write_config(tmp_path, dict(GAUSS_HOLDS, distribution={"law": law}))
        code, out, _ = run_cli(capsys, "check", path)
        assert code == 1 and json.loads(out)["equation"]["verdict"] == "fails"

    def test_csv_format(self, tmp_path, capsys):
        path = write_config(tmp_path, GAUSS_HOLDS)
        code, out, _ = run_cli(capsys, "check", path, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("equation.verdict,holds") for line in lines)

    @pytest.mark.parametrize("flag", [["--n", "5"], ["--depth", "3"], ["--alpha", "0.1"]])
    def test_simulation_flags_belong_to_simulate(self, tmp_path, capsys, flag):
        path = write_config(tmp_path, GAUSS_HOLDS)
        with pytest.raises(SystemExit) as exit_:
            main(["check", str(path), *flag])
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSimulate:
    CONFIG = {
        "solenoid": {"2": "inf"},
        "coefficients": ["1/2", "1/2", "1/2", "1/2"],
        "distribution": {"law": {"kind": "haar", "subgroup": "zero"}},
        "simulation": {"n": 3000, "depth": 2, "seed": 5},
    }

    def test_consistent_run_writes_artifacts(self, tmp_path, capsys):
        path = write_config(tmp_path, self.CONFIG)
        code, out, _ = run_cli(capsys, "simulate", path)
        doc = json.loads(out)
        assert code == 0
        assert doc["verdict"] == "consistent"
        ref = (tmp_path / doc["artifacts"]["reference"]).read_text()
        comb = (tmp_path / doc["artifacts"]["combined"]).read_text()
        for text in (ref, comb):
            lines = text.splitlines()
            assert lines[0] == "depth,coord"
            assert len(lines) == 3001

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {
                "solenoid": {"2": "inf", "3": "inf"},
                "coefficients": ["2/3", "2/3", "1/3"],
                "distribution": {"law": {"kind": "mixture", "weights": ["1/2", "1/2"], "parts": [
                    {"kind": "haar", "subgroup": {"2": -1}},
                    {"kind": "haar", "subgroup": {"2": 0}},
                ]}},
                "simulation": {"n": 2000, "depth": 3, "seed": 2},
            },
        ],
        ids=["continuous", "lattice"],
    )
    def test_artifacts_are_the_reported_draws(self, tmp_path, capsys, overrides):
        doc_in = dict(self.CONFIG, **overrides)
        path = write_config(tmp_path, doc_in)
        _, out, _ = run_cli(capsys, "simulate", path)
        doc = json.loads(out)
        spec = spec_from_json(doc_in["solenoid"])
        chars = [rational_from_json(row["char"]) for row in doc["character_rows"]]
        batches = {}
        for side in ("reference", "combined"):
            with open(tmp_path / doc["artifacts"][side], newline="") as f:
                rows = list(csv.DictReader(f))
            assert {int(r["depth"]) for r in rows} == {doc["depth"]}
            coords = np.array([float(r["coord"]) for r in rows])
            batch = batches[side] = SampleBatch(spec, doc["depth"], coords, "csv")
            estimates = empirical_cf(batch, chars).estimates
            for row, est in zip(doc["character_rows"], estimates):
                assert row[side] == {"re": est.real, "im": est.imag}
        # the Kuiper rows too, each at its own depth, bit for bit
        assert doc["kuiper_rows"]
        for row in doc["kuiper_rows"]:
            v, p = kuiper_two_sample(batches["reference"], batches["combined"], row["depth"])
            assert (row["statistic"], row["p_value"]) == (v, p)

    @pytest.mark.parametrize("side", ["reference", "combined"])
    def test_unwritable_artifact_is_exit_2(self, tmp_path, capsys, side):
        # a directory where a CSV goes: a config error naming the path, not a traceback with exit 1
        path = write_config(tmp_path, self.CONFIG)
        blocked = path.with_suffix(f".{side}.csv")
        blocked.mkdir()
        code, out, err = run_cli(capsys, "simulate", path)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: cannot write artifact {blocked}: ")
        # and no artifact of the failed run is left behind
        assert sorted(tmp_path.iterdir()) == sorted([path, blocked])

    @pytest.mark.parametrize("side", ["reference", "combined"])
    def test_artifact_write_failing_partway_leaves_no_artifact(self, tmp_path, capsys, monkeypatch, side):
        # an earlier run's CSVs are there; this run's disk fills after the first piece of one CSV
        path = write_config(tmp_path, self.CONFIG)
        assert run_cli(capsys, "simulate", path)[0] == 0
        chunks, calls = serialize._csv_chunks, []

        def failing_chunks(batch):
            calls.append(batch)
            pieces = chunks(batch)
            yield next(pieces)
            if len(calls) == ("reference", "combined").index(side) + 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            yield from pieces

        monkeypatch.setattr(serialize, "_csv_chunks", failing_chunks)
        code, out, err = run_cli(capsys, "simulate", path)
        assert code == 2 and out == ""
        assert err.startswith(f"config error: cannot write artifact {path.with_suffix(f'.{side}.csv')}: ")
        assert list(tmp_path.iterdir()) == [path]

    def test_csv_format(self, tmp_path, capsys):
        assert_csv_matches_json(capsys, "simulate", write_config(tmp_path, self.CONFIG))

    def test_report_is_byte_stable(self, tmp_path, capsys):
        path = write_config(tmp_path, self.CONFIG)
        _, first, _ = run_cli(capsys, "simulate", path)
        _, second, _ = run_cli(capsys, "simulate", path)
        assert first == second

    def test_gaussian_run_matches_pinned_fixture(self, tmp_path, capsys, monkeypatch):
        # a continuous run, whose cf sums, Kuiper scan and CSV rows take the per-draw paths;
        # the CI determinism step compares its gaussian.stdout with the same fixture
        monkeypatch.delenv("SOLADIC_SEED", raising=False)
        path = write_config(tmp_path, GAUSS_HOLDS, "gaussian.json")
        code, out, _ = run_cli(capsys, "simulate", path, "--n", 100_000, "--seed", 0)
        assert code == 0
        assert out == (FIXTURES / "simulate_gaussian.stdout").read_text()
        digests = {
            "reference": "0e5e2019ca335ef07c873475be1f018666b865955c8a606f5efc8239e9dafa79",
            "combined": "29f3ad78534c78d90237e7c16a9915d2d5ddf468276c0775520c6af3407092c8",
        }
        for side, digest in digests.items():
            assert hashlib.sha256((tmp_path / f"gaussian.{side}.csv").read_bytes()).hexdigest() == digest

    # the CI determinism step's lattice and shifted configs: mixture draws, a
    # nonzero-mean gaussian and a shifted point, whose exact shifts take array
    # counts; the sha256 of their reference and combined CSVs
    PINNED_MIXTURES = {
        "lattice": (
            "0c8f8321b3d81710956f877867be6e4ed21c9d92082e8808f1df1ed785d443c4",
            "cfe9c86866dd78c0c101a86c7eda52e5cfeeac8388e590a427111c28429a8a59",
        ),
        "shifted": (
            "41238edd390db59fa019135fc437abc6d18e2e62368c1b03f1b99e09350a1ccf",
            "c813e9df0b2e458b1dcd392ab59d58f605647f7234d3a4295e7074f4646e6e4e",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_MIXTURES))
    def test_mixture_run_matches_pinned_fixture(self, tmp_path, capsys, monkeypatch, name):
        monkeypatch.delenv("SOLADIC_SEED", raising=False)
        reference, combined = self.PINNED_MIXTURES[name]
        path = write_config(tmp_path, pinned_config(f"simulate_{name}"), f"{name}.json")
        code, out, _ = run_cli(capsys, "simulate", path)
        assert code == 0
        assert out == (FIXTURES / f"simulate_{name}.stdout").read_text()
        for side, digest in (("reference", reference), ("combined", combined)):
            assert hashlib.sha256((tmp_path / f"{name}.{side}.csv").read_bytes()).hexdigest() == digest

    def test_parts_run_matches_pinned_fixture(self, tmp_path, capsys, monkeypatch):
        # the shifted law under two distinct coefficients of two copies each, at
        # three blocks of draws (the last one ragged): the linear form adds each
        # part's rows into its sum, part by part; the squares sum to 5/8, so
        # the run is rightly inconsistent
        monkeypatch.delenv("SOLADIC_SEED", raising=False)
        path = write_config(tmp_path, pinned_config("simulate_parts"), "parts.json")
        code, out, _ = run_cli(capsys, "simulate", path)
        assert code == 1
        assert json.loads(out)["verdict"] == "inconsistent"
        assert out == (FIXTURES / "simulate_parts.stdout").read_text()
        digests = {
            "reference": "f1a3617a7729c76b35de1c141521cffd7192fc66b01023a42d36d6148e3c1e57",
            "combined": "b5663c74fb8da9f3cfd98ff2bd8f705c85d08c68402c1cf43818756d1ee2290a",
        }
        for side, digest in digests.items():
            assert hashlib.sha256((tmp_path / f"parts.{side}.csv").read_bytes()).hexdigest() == digest

    def test_negative_run_matches_pinned_fixture(self, tmp_path, capsys, monkeypatch):
        # a gaussian of mean -1/3 under [-1/2, 1/2, 1/2, 1/2], over two blocks of draws:
        # the only pinned run whose linear form sums below zero before it is taken mod 1;
        # the squares sum to 1 and the coefficients to 1, so the equation holds
        monkeypatch.delenv("SOLADIC_SEED", raising=False)
        path = write_config(tmp_path, pinned_config("simulate_negative"), "negative.json")
        code, out, _ = run_cli(capsys, "simulate", path)
        assert code == 0
        assert out == (FIXTURES / "simulate_negative.stdout").read_text()
        digests = {
            "reference": "3f6414487d4e43fb1081e74c018e4145ec937949271a938dcbe0053da5e3d21d",
            "combined": "bd3196bb311064ed2c31a3b0e07f4acca50c8877e446ab08e76a22c756583f28",
        }
        for side, digest in digests.items():
            assert hashlib.sha256((tmp_path / f"negative.{side}.csv").read_bytes()).hexdigest() == digest

    def test_fallback_run_matches_pinned_fixture(self, tmp_path, capsys, monkeypatch):
        # haar(v_2 >= 13) has 131,072 atoms at depth 4: both batches pass the atom cutoff in
        # their second block of draws (82,735 and 103,213 distinct values there), so each
        # falls back from atoms to draws after some of its rows have been read
        monkeypatch.delenv("SOLADIC_SEED", raising=False)
        path = write_config(tmp_path, pinned_config("simulate_fallback"), "fallback.json")
        code, out, _ = run_cli(capsys, "simulate", path)
        assert code == 0
        assert out == (FIXTURES / "simulate_fallback.stdout").read_text()
        digests = {
            "reference": "8b018242b5b9795ff381fb7aa4b9f6a7b6ac7681577a21b1200ab8d7e844da70",
            "combined": "a328e76f42f7428997b71632175f00f3aebfe0ec49f0930d10a7068e81d20e40",
        }
        for side, digest in digests.items():
            assert hashlib.sha256((tmp_path / f"fallback.{side}.csv").read_bytes()).hexdigest() == digest

    def test_inconsistent_exits_1(self, tmp_path, capsys):
        broken = dict(
            self.CONFIG,
            distribution={"law": {"kind": "gaussian", "sigma": 1, "mean": "1/8"}},
            simulation={"n": 20000, "depth": 3, "seed": 1},
        )
        path = write_config(tmp_path, broken)
        code, out, _ = run_cli(capsys, "simulate", path)
        assert code == 1
        assert json.loads(out)["verdict"] == "inconsistent"

    LATTICE = {
        "solenoid": {"2": "inf", "3": "inf"},
        "coefficients": ["2/3", "2/3", "1/3"],
        "distribution": {"law": {"kind": "mixture", "weights": ["1/2", "1/2"], "parts": [
            {"kind": "haar", "subgroup": {"2": -1}},
            {"kind": "haar", "subgroup": {"2": 0}},
        ]}},
        "simulation": {"n": 5000, "depth": 4, "seed": 3},
    }

    @pytest.mark.parametrize("lattice", [True, False], ids=["lattice", "continuous"])
    def test_each_batch_finds_its_atoms_once(self, tmp_path, capsys, monkeypatch, lattice):
        # each batch is formed once, its rows sorted once as they arrive; the cf sums,
        # the Kuiper tower and both CSVs read what it was formed as
        formed, sorted_sizes = [], []
        build_batch = _kernels.build_batch

        def counting_build_batch(n, blocks):
            formed.append(n)
            return build_batch(n, blocks)

        monkeypatch.setattr(_kernels, "build_batch", counting_build_batch)
        for name in ("sort", "argsort"):

            def counting(a, *args, sort=getattr(np, name), **kwargs):
                sorted_sizes.append(np.size(a))
                return sort(a, *args, **kwargs)

            monkeypatch.setattr(np, name, counting)
        config = self.LATTICE if lattice else self.CONFIG
        path = write_config(tmp_path, config)
        code, _, _ = run_cli(capsys, "simulate", path)
        assert code == 0
        n = config["simulation"]["n"]
        assert formed == [n, n]
        assert sorted_sizes.count(n) == 2 and all(size < n // 2 for size in sorted_sizes if size != n)

    def test_lattice_run_sorts_each_batch_once(self, tmp_path, capsys, monkeypatch):
        # the Kuiper tower sorts atoms, not draws
        n = self.LATTICE["simulation"]["n"]
        sizes = []
        sort = np.sort

        def counting_sort(a, *args, **kwargs):
            sizes.append(np.size(a))
            return sort(a, *args, **kwargs)

        monkeypatch.setattr(np, "sort", counting_sort)
        path = write_config(tmp_path, self.LATTICE)
        code, _, _ = run_cli(capsys, "simulate", path)
        assert code == 0
        assert sizes == [n, n]

    def test_seed_precedence(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, self.CONFIG)
        monkeypatch.setenv("SOLADIC_SEED", "7")
        _, out, _ = run_cli(capsys, "simulate", path, "--seed", "9")
        assert json.loads(out)["seed"] == 9
        _, out, _ = run_cli(capsys, "simulate", path)
        assert json.loads(out)["seed"] == 7
        monkeypatch.delenv("SOLADIC_SEED")
        _, out, _ = run_cli(capsys, "simulate", path)
        assert json.loads(out)["seed"] == 5

    def test_negative_seed_flag_is_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, self.CONFIG)
        code, out, err = run_cli(capsys, "simulate", path, "--seed", "-1")
        assert code == 2 and out == ""
        assert "--seed" in err and "-1" in err

    def test_negative_seed_env_is_exit_2(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, self.CONFIG)
        monkeypatch.setenv("SOLADIC_SEED", "-5")
        code, out, err = run_cli(capsys, "simulate", path)
        assert code == 2 and out == ""
        assert "SOLADIC_SEED" in err and "-5" in err

    def test_negative_seed_in_config_is_exit_2(self, tmp_path, capsys):
        cfg = dict(self.CONFIG, simulation={**self.CONFIG["simulation"], "seed": -3})
        path = write_config(tmp_path, cfg)
        code, out, err = run_cli(capsys, "simulate", path)
        assert code == 2 and out == ""
        assert "config.simulation.seed" in err and "-3" in err

    def test_flags_override_config(self, tmp_path, capsys):
        path = write_config(tmp_path, self.CONFIG)
        _, out, _ = run_cli(capsys, "simulate", path, "--n", "1000", "--depth", "1", "--alpha", "0.05")
        doc = json.loads(out)
        assert doc["n"] == 1000 and doc["depth"] == 1 and doc["alpha"] == 0.05

    def test_cf_distribution_is_rejected(self, tmp_path, capsys):
        bad = dict(self.CONFIG, distribution={"cf": [{"stratum": [], "terms": [{"c": "1"}]}]})
        path = write_config(tmp_path, bad)
        code, _, err = run_cli(capsys, "simulate", path)
        assert code == 2
        assert "sampling law" in err

    def test_depth_beyond_int64_is_exit_2(self, tmp_path, capsys):
        law = {"kind": "gaussian", "sigma": 1}
        cfg = dict(self.CONFIG, distribution={"law": law}, simulation={"n": 50, "depth": 1100})
        code, out, err = run_cli(capsys, "simulate", write_config(tmp_path, cfg))
        assert code == 2 and out == ""
        assert "DepthInsufficient" in err and "int64" in err

    def test_huge_depth_is_refused_at_once(self, tmp_path, capsys):
        # level(d) >= 2^d, so depth 10^6 is refused before any level is built
        path = write_config(tmp_path, dict(GAUSS_HOLDS, simulation={"n": 50}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "simulate", path, "--depth", "1000000")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "DepthInsufficient" in err and "depth 1000000 exceeds int64" in err

    def test_coefficient_numerator_beyond_float_resolution_is_exit_2(self, tmp_path, capsys):
        # check decides full Haar with the single coefficient 2^100 exactly;
        # simulate cannot apply it to a float coordinate
        cfg = {
            "solenoid": {"2": "inf"},
            "coefficients": [str(2**100)],
            "distribution": {"law": {"kind": "haar", "subgroup": "zero"}},
        }
        path = write_config(tmp_path, cfg)
        code, out, _ = run_cli(capsys, "check", path)
        assert code == 0 and json.loads(out)["equation"]["verdict"] == "holds"
        code, out, err = run_cli(capsys, "simulate", path, "--n", "200", "--depth", "2")
        assert code == 2 and out == ""
        assert f"coefficient {2**100} has a numerator beyond 2^53" in err

    @pytest.mark.parametrize("param, check_code", [("sigma", 0)])
    def test_gaussian_beyond_the_float_range_is_exit_2(self, tmp_path, capsys, param, check_code):
        law = {"kind": "gaussian", "sigma": 1, param: "1" + "0" * 400}
        path = write_config(tmp_path, dict(GAUSS_HOLDS, distribution={"law": law}))
        code, _, _ = run_cli(capsys, "check", path)
        assert code == check_code  # the exact layer still decides
        code, out, err = run_cli(capsys, "simulate", path, "--n", "200", "--depth", "2")
        assert code == 2 and out == ""
        assert "gaussian draws leave the float range" in err

    def test_gaussian_mean_beyond_the_float_range_is_simulated(self, tmp_path, capsys):
        law = {"kind": "gaussian", "sigma": 1, "mean": "1" + "0" * 400}
        path = write_config(tmp_path, dict(GAUSS_HOLDS, distribution={"law": law}))
        code, out, _ = run_cli(capsys, "check", path)
        # the shifts differ by 10^400, so the exact layer's witness is 1/2^401
        assert code == 1 and json.loads(out)["equation"]["witness"] == f"1/{2**401}"
        code, out, _ = run_cli(capsys, "simulate", path, "--n", "200", "--depth", "2")
        assert code == 0 and json.loads(out)["verdict"] == "consistent"

    def test_huge_gaussian_mean_keeps_its_fraction(self, tmp_path, capsys):
        # mean 10^20 + 1/2 breaks the identity, and the draws see its half
        law = {"kind": "gaussian", "sigma": "1/100", "mean": f"{2 * 10**20 + 1}/2"}
        path = write_config(tmp_path, dict(GAUSS_HOLDS, distribution={"law": law}))
        code, out, _ = run_cli(capsys, "check", path)
        assert code == 1 and json.loads(out)["equation"]["verdict"] == "fails"
        code, out, _ = run_cli(capsys, "simulate", path, "--n", "20000")
        assert code == 1 and json.loads(out)["verdict"] == "inconsistent"

    def test_depth_past_the_tie_grid_is_exit_2(self, tmp_path, capsys):
        # 3^25 < 2^40 < 3^26: the identity holds, and depth 25 still samples
        cfg = {
            "solenoid": {"3": "inf"},
            "coefficients": ["1/3"] * 9,
            "distribution": {"law": {"kind": "gaussian", "sigma": "1/100"}},
        }
        path = write_config(tmp_path, cfg)
        assert run_cli(capsys, "check", path)[0] == 0
        for depth in (26, 28):
            code, out, err = run_cli(capsys, "simulate", path, "--n", "20000", "--depth", str(depth))
            assert code == 2 and out == ""
            assert "DepthInsufficient" in err and f"depth {depth} exceeds 2^40" in err
        code, out, _ = run_cli(capsys, "simulate", path, "--n", "20000", "--depth", "25")
        assert code == 0 and json.loads(out)["verdict"] == "consistent"

    @pytest.mark.parametrize("alpha", ["-1.0", "1.0", "nan", "inf"])
    def test_alpha_outside_the_open_unit_interval_is_exit_2(self, tmp_path, capsys, alpha):
        path = write_config(tmp_path, self.CONFIG)
        code, out, err = run_cli(capsys, "simulate", path, "--alpha", alpha)
        assert code == 2 and out == ""
        assert "alpha must lie strictly between 0 and 1" in err

    @pytest.mark.parametrize("alpha", ["1" + "0" * 400, "NaN", "-Infinity", "0"])
    def test_alpha_in_config_outside_the_open_unit_interval_is_exit_2(self, tmp_path, capsys, alpha):
        # JSON numbers reach the check unconverted: a 401-digit integer does
        # not overflow a float on the way
        path = tmp_path / "run.json"
        path.write_text(json.dumps(self.CONFIG).replace('"seed": 5', f'"seed": 5, "alpha": {alpha}'))
        code, out, err = run_cli(capsys, "simulate", path)
        assert code == 2 and out == ""
        assert "alpha must lie strictly between 0 and 1" in err

    @pytest.mark.parametrize("char", ["9007199254740993", "12157665459056928801"])
    def test_character_beyond_float_resolution_is_exit_2(self, tmp_path, capsys, char):
        # |y * level| > 2^53 leaves m*t no fractional bits: the estimate
        # would be noise (|.| of 0.50 and 0.994 where the exact cf is 0)
        law = {"kind": "gaussian", "sigma": "1/100"}
        sim = {"n": 20_000, "seed": 0, "charset": [char]}
        cfg = dict(GAUSS_HOLDS, distribution={"law": law}, simulation=sim)
        code, out, err = run_cli(capsys, "simulate", write_config(tmp_path, cfg))
        assert code == 2 and out == ""
        assert "CharacterTooDeep" in err and f"character {char} " in err

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({}, "Unable to allocate"),  # 10^17 draws are 711 PiB, beyond any address space
            ({"simulation": {"n": 10**17, "charset": ["1/3"]}}, "CharacterOutsideGroup"),
            ({"coefficients": ["1/1152921504606846976"]}, "depth 64 exceeds int64"),  # 1/2^60
            # a haar fiber that fits int64 at depth 4 but not at the sampling depth 5
            ({"distribution": {"law": {"kind": "haar", "subgroup": {"2": 59}}}}, "at depth 5 has an order beyond int64"),
            # a mixture whose gaussian part has sigma 10^324, past the float range
            (pinned_config("hugesigma"), "gaussian draws leave the float range"),
        ],
    )
    def test_refusals_at_a_sample_size_beyond_memory_are_exit_2(self, tmp_path, capsys, patch, message):
        # every refusal but the allocation's own comes before the first draw
        cfg = {**GAUSS_HOLDS, "simulation": {"n": 10**17}, **patch}
        code, out, err = run_cli(capsys, "simulate", write_config(tmp_path, cfg))
        assert code == 2 and out == ""
        assert message in err

    def test_non_automorphism_coefficient_is_exit_2(self, tmp_path, capsys):
        cfg = dict(self.CONFIG, coefficients=["1/2", "1/3"])
        code, out, err = run_cli(capsys, "simulate", write_config(tmp_path, cfg))
        assert code == 2 and out == ""
        assert "coefficient 1/3 is not an automorphism" in err

    def test_bad_simulation_numbers(self, tmp_path, capsys):
        for patch in ({"n": 0}, {"depth": -1}, {"alpha": 2}):
            cfg = dict(self.CONFIG, simulation={**self.CONFIG["simulation"], **patch})
            path = write_config(tmp_path, cfg)
            code, _, _ = run_cli(capsys, "simulate", path)
            assert code == 2


class TestSolveCoeffs:
    def test_depth_two_table(self, tmp_path, capsys):
        path = write_config(tmp_path, {"p": 2, "l": 2})
        code, out, _ = run_cli(capsys, "solve-coeffs", path)
        doc = json.loads(out)
        assert code == 0
        assert doc["count"] == 5
        assert doc["solutions"] == [[0, 16], [1, 12], [2, 8], [3, 4], [4, 0]]

    def test_depth_one_is_singleton(self, tmp_path, capsys):
        path = write_config(tmp_path, {"p": 3, "l": 1})
        _, out, _ = run_cli(capsys, "solve-coeffs", path)
        assert json.loads(out)["solutions"] == [[9]]

    def test_composite_p_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"p": 4, "l": 1})
        code, _, _ = run_cli(capsys, "solve-coeffs", path)
        assert code == 2

    def test_largest_listed_table(self, tmp_path, capsys):
        path = write_config(tmp_path, {"p": 2, "l": 5})
        code, out, _ = run_cli(capsys, "solve-coeffs", path)
        assert code == 0 and json.loads(out)["count"] == 79_325

    def test_oversized_table_is_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"p": 2, "l": 7})
        code, out, err = run_cli(capsys, "solve-coeffs", path)
        assert code == 2 and out == ""
        assert "TermBudgetExceeded" in err and "more than 1000000 solutions" in err


class TestCounterexample:
    def test_bundle_file_and_report(self, tmp_path, capsys):
        path = write_config(tmp_path, {"p": 2, "q": 3, "c": "1/2"})
        code, out, _ = run_cli(capsys, "counterexample", path)
        doc = json.loads(out)
        assert code == 0
        assert doc["coefficients"] == ["2/3", "2/3", "1/3"]
        assert doc["equation"]["verdict"] == "holds"
        assert doc["decomposition"]["kind"] == "not_of_form"
        bundle = json.loads((tmp_path / doc["bundle"]).read_text())
        assert bundle["law"]["kind"] == "mixture"
        assert bundle["mixing_weight"] == "1/2"

    def test_blurred_variant(self, tmp_path, capsys):
        path = write_config(tmp_path, {"p": 2, "q": 3, "c": "1/4", "sigma": "1"})
        code, out, _ = run_cli(capsys, "counterexample", path)
        doc = json.loads(out)
        assert code == 0
        assert doc["law"]["kind"] == "convolution"
        assert doc["sigma"] == "1"

    @pytest.mark.parametrize("name", ["blurred", "sharp", "many"])
    def test_report_matches_pinned_fixture(self, tmp_path, capsys, name):
        # stdout and bundle byte for byte: no figure in them depends on BLAS; "many" is
        # the blurred (3,5) counterexample, whose system lists 1,736 copies of 3/125 and 1/125;
        # the CI console-script step compares all three with the same fixtures
        path = write_config(tmp_path, pinned_config(f"counterexample_{name}"), f"{name}.json")
        code, out, _ = run_cli(capsys, "counterexample", path, "--seed", 0)
        assert code == 0
        pairs = [
            (out, f"counterexample_{name}.stdout"),
            ((tmp_path / f"{name}.bundle.json").read_text(), f"counterexample_{name}.bundle.json"),
        ]
        for got, fixture in pairs:
            assert got == (FIXTURES / fixture).read_text()

    def test_unwritable_bundle_is_exit_2(self, tmp_path, capsys):
        # a directory where the bundle goes: a config error naming the path, not a traceback with exit 1
        path = write_config(tmp_path, {"p": 2, "q": 3, "c": "1/2"})
        blocked = path.with_suffix(".bundle.json")
        blocked.mkdir()
        code, out, err = run_cli(capsys, "counterexample", path)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: cannot write artifact {blocked}: ")

    def test_bundle_write_failing_partway_leaves_no_bundle(self, tmp_path, capsys, monkeypatch):
        # the disk fills halfway through the bundle: the part-written file goes
        path = write_config(tmp_path, {"p": 2, "q": 3, "c": "1/2"})

        def write_half(self, text, *args, **kwargs):
            with open(self, "w") as out:
                out.write(text[: len(text) // 2])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(type(path), "write_text", write_half)
        code, out, err = run_cli(capsys, "counterexample", path)
        assert code == 2 and out == ""
        assert err.startswith(f"config error: cannot write artifact {path.with_suffix('.bundle.json')}: ")
        assert list(tmp_path.iterdir()) == [path]

    def test_csv_format(self, tmp_path, capsys):
        path = write_config(tmp_path, {"p": 2, "q": 3, "c": "1/4", "sigma": "1"})
        assert_csv_matches_json(capsys, "counterexample", path)

    def test_out_of_range_weight_is_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"p": 2, "q": 3, "c": "3/2"})
        code, _, _ = run_cli(capsys, "counterexample", path)
        assert code == 2

    def test_composite_prime_is_exit_2(self, tmp_path, capsys):
        # the default solenoid {p: inf, q: inf} cannot be built from p = 4
        path = write_config(tmp_path, {"p": 4, "q": 3, "c": "1/2"})
        code, out, err = run_cli(capsys, "counterexample", path)
        assert code == 2 and out == ""
        assert "4 is not prime" in err

    def test_equal_primes_is_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"p": 3, "q": 3, "c": "1/2"})
        code, _, _ = run_cli(capsys, "counterexample", path)
        assert code == 2

    def test_oversized_system_is_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"p": 100003, "q": 2, "c": "1/2"})
        code, out, err = run_cli(capsys, "counterexample", path)
        assert code == 2 and out == ""
        assert "TermBudgetExceeded" in err and "more than" in err


SRC = Path(__file__).resolve().parents[1] / "src"

# Each script runs in a new interpreter, where no test has imported numpy yet,
# and prints one JSON line; "numpy._core" is in sys.modules once numpy has run.
RUN_MAIN = """
import contextlib, io, json, sys, threading
import soladic.cli as cli
on_import = {"futures": "concurrent.futures" in sys.modules, "threads": threading.active_count()}
reports = []
monte_carlo_equidist = cli.monte_carlo_equidist
def spy(*args, **kwargs):
    reports.append(monte_carlo_equidist(*args, **kwargs))
    return reports[-1]
cli.monte_carlo_equidist = spy
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({
    "code": code,
    "numpy": "numpy._core" in sys.modules,
    "coords": [type(b.coords).__module__ + "." + type(b.coords).__name__
               for r in reports for b in (r.reference, r.combined)],
    "on_import": on_import,
    "futures": "concurrent.futures" in sys.modules,
    "threads": threading.active_count(),
}))
"""

SAMPLE = """
import json, sys
from fractions import Fraction
import soladic
on_import = "numpy._core" in sys.modules
law = soladic.GaussianLine(soladic.SteinitzSpec.of({2: soladic.INFINITE}), Fraction(1))
coords = soladic.sample(law, 2, 100, 0).coords
print(json.dumps({
    "on_import": on_import,
    "numpy": "numpy._core" in sys.modules,
    "coords": type(coords).__module__ + "." + type(coords).__name__,
}))
"""


def fresh_interpreter(tmp_path, script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


NO_POOL = {"on_import": {"futures": False, "threads": 1}, "futures": False, "threads": 1}


class TestNumpyOnFirstUse:
    @pytest.mark.parametrize(
        "command, doc",
        [
            ("classify", {"solenoid": {"2": "inf"}}),
            ("check", GAUSS_HOLDS),
            ("check", {
                "solenoid": {"2": "inf", "3": "inf"},
                "coefficients": ["2/3", "2/3", "1/3"],
                "distribution": {"cf": [{"stratum": [{"prime": 2, "op": ">=", "k": -1}], "terms": [{"c": "1"}]}]},
            }),
            ("solve-coeffs", {"p": 2, "l": 2}),
            ("counterexample", {"p": 2, "q": 3, "c": "1/3"}),
            ("counterexample", {"p": 2, "q": 3, "c": "1/4", "sigma": "1"}),
        ],
        ids=["classify", "check-law", "check-cf", "solve-coeffs", "counterexample-sharp", "counterexample-blurred"],
    )
    def test_exact_commands_never_load_numpy(self, tmp_path, command, doc):
        # nor the block loops' thread pool: no concurrent.futures, no thread but the main one
        path = write_config(tmp_path, doc)
        got = fresh_interpreter(tmp_path, RUN_MAIN, command, path)
        assert got == {"code": 0, "numpy": False, "coords": [], **NO_POOL}

    def test_simulate_loads_numpy(self, tmp_path):
        # one block of draws runs on the calling thread, so even simulate builds no pool here
        path = write_config(tmp_path, GAUSS_HOLDS)
        got = fresh_interpreter(tmp_path, RUN_MAIN, "simulate", path, "--n", 100)
        assert got == {"code": 0, "numpy": True, "coords": ["numpy.ndarray"] * 2, **NO_POOL}

    def test_sample_loads_numpy_on_first_use(self, tmp_path):
        got = fresh_interpreter(tmp_path, SAMPLE)
        assert got == {"on_import": False, "numpy": True, "coords": "numpy.ndarray"}


def _law(law):
    return dict(GAUSS_HOLDS, distribution={"law": law})


def _cf(constraint):
    return dict(GAUSS_HOLDS, distribution={"cf": [{"stratum": [constraint], "terms": [{"c": 1}]}]})


def _piece(stratum, *terms, **flags):
    return {"stratum": stratum, "terms": list(terms), **flags}


def _v2(op, k):
    return {"prime": 2, "op": op, "k": k}


ONE, GAUSS = {"c": 1}, {"c": 1, "sigma": 1}
NOT_ONE_AT_ZERO = "a characteristic function must equal 1 at the zero character"
FIRST_TWO_OVERLAP = "distribution.cf[0] and distribution.cf[1] overlap on "


# field -> (command, config holding the value v, the path the error names)
READ_FIELDS = {
    "solenoid multiplicity": ("classify", lambda v: {"solenoid": {"2": v}}, "solenoid[2]"),
    "point depth": (
        "check",
        lambda v: _law({"kind": "degenerate", "point": {"depth": v, "coord": "1/2"}}),
        "distribution.law.point.depth",
    ),
    "subgroup threshold": (
        "check",
        lambda v: _law({"kind": "haar", "subgroup": {"2": v}}),
        "distribution.law.subgroup[2]",
    ),
    "stratum prime": ("check", lambda v: _cf({"prime": v, "op": ">=", "k": 0}), "distribution.cf[0].stratum[0].prime"),
    "stratum k": ("check", lambda v: _cf({"prime": 2, "op": ">=", "k": v}), "distribution.cf[0].stratum[0].k"),
    "simulation n": ("simulate", lambda v: dict(GAUSS_HOLDS, simulation={"n": v}), "simulation n"),
    "simulation depth": ("simulate", lambda v: dict(GAUSS_HOLDS, simulation={"n": 10, "depth": v}), "simulation depth"),
    "simulation seed": (
        "simulate",
        lambda v: dict(GAUSS_HOLDS, simulation={"n": 10, "seed": v}),
        "config.simulation.seed",
    ),
    "simulation charset": (
        "simulate",
        lambda v: dict(GAUSS_HOLDS, simulation={"n": 10, "charset": v}),
        "simulation.charset",
    ),
    "coefficients": ("check", lambda v: dict(GAUSS_HOLDS, coefficients=v), "config.coefficients"),
    "mixture weights": (
        "check",
        lambda v: _law({"kind": "mixture", "weights": v, "parts": [{"kind": "gaussian", "sigma": 1}]}),
        "distribution.law.weights",
    ),
    "counterexample p": ("counterexample", lambda v: {"p": v, "q": 3, "c": "1/2"}, "config.p"),
    "counterexample q": ("counterexample", lambda v: {"p": 2, "q": v, "c": "1/2"}, "config.q"),
    "solve-coeffs p": ("solve-coeffs", lambda v: {"p": v, "l": 2}, "config.p"),
    "solve-coeffs l": ("solve-coeffs", lambda v: {"p": 2, "l": v}, "config.l"),
}


# The CLI in a new interpreter whose address space is capped at 1 GiB, so
# that a command that tries to build a huge integer fails instead of
# exhausting the machine's memory.
CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
from soladic.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestConfigReaders:
    @pytest.mark.parametrize("command", ["classify", "check", "simulate", "solve-coeffs", "counterexample"])
    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys, command):
        # the fixture's note holds the byte 0xff, which no UTF-8 text holds
        path = tmp_path / "notutf8.json"
        path.write_bytes((FIXTURES / "notutf8.json").read_bytes())
        code, out, err = run_cli(capsys, command, path)
        assert code == 2 and out == ""
        assert err.startswith(f"config error: config {path} is not valid JSON: 'utf-8' codec can't decode byte 0xff")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [True, 1.5, "7", {}], ids=["true", "1.5", "string", "object"])
    @pytest.mark.parametrize("field", sorted(READ_FIELDS))
    def test_wrong_type_is_a_config_error(self, tmp_path, capsys, monkeypatch, field, value):
        # each field is read as an integer, a prime or a nonempty list of rationals
        monkeypatch.delenv("SOLADIC_SEED", raising=False)
        command, config, where = READ_FIELDS[field]
        code, out, err = run_cli(capsys, command, write_config(tmp_path, config(value)))
        assert code == 2 and out == ""
        assert err.startswith("config error:") and where in err

    @pytest.mark.parametrize(
        "doc, named",
        [
            (pinned_config("four"), "distribution.law.subgroup key '4': 4 is not prime"),
            (_cf({"prime": 4, "op": ">=", "k": 0}), "distribution.cf[0].stratum[0].prime: 4 is not prime"),
            (_cf({"prime": 0, "op": ">=", "k": 0}), "distribution.cf[0].stratum[0].prime: 0 is not prime"),
        ],
        ids=["subgroup-4", "stratum-4", "stratum-0"],
    )
    def test_non_prime_is_a_config_error(self, tmp_path, capsys, doc, named):
        # v_4 was read as a prime constraint: "holds" and gaussian_haar on
        # {"4": 1}, though f(4) = 1 and f(2)^4 = 0; prime 0 divided by zero
        code, out, err = run_cli(capsys, "check", write_config(tmp_path, doc))
        assert code == 2 and out == ""
        assert err == f"config error: {named}\n"

    @pytest.mark.parametrize(
        "doc",
        [_law({"kind": "haar", "subgroup": {"7": 1}}), _cf({"prime": 7, "op": ">=", "k": 1})],
        ids=["subgroup", "stratum"],
    )
    def test_prime_outside_the_table_is_valid(self, tmp_path, capsys, doc):
        code, out, _ = run_cli(capsys, "check", write_config(tmp_path, doc))
        report = json.loads(out)
        assert code == 0 and report["equation"]["verdict"] == "holds"
        assert report["decomposition"]["subgroup"] == {"7": 1}

    @pytest.mark.parametrize("only_zero, minus_zero, named", [
        ("false", "no", "distribution.cf[0].only_zero"),
        (True, "no", "distribution.cf[1].minus_zero"),
        ("false", True, "distribution.cf[0].only_zero"),
        (True, 1, "distribution.cf[1].minus_zero"),
        (None, True, "distribution.cf[0].only_zero"),
    ], ids=["both-strings", "no-string", "false-string", "one", "null"])
    def test_piece_flags_must_be_json_booleans(self, tmp_path, capsys, only_zero, minus_zero, named):
        # read with bool(), "false" and "no" counted as true: the first case was the gaussian
        # split at zero, and check exited 0 with "holds"
        cf = [
            {"stratum": [], "terms": [{"c": 1}], "only_zero": only_zero},
            {"stratum": [], "terms": [{"c": 1, "sigma": 1}], "minus_zero": minus_zero},
        ]
        code, out, err = run_cli(capsys, "check", write_config(tmp_path, dict(GAUSS_HOLDS, distribution={"cf": cf})))
        assert code == 2 and out == ""
        assert err.startswith("config error:") and f"{named} must be true or false" in err

    def test_piece_flags_read_json_booleans(self, tmp_path, capsys):
        # the gaussian split at zero: an only_zero piece of 1 and a minus_zero gaussian
        code, out, _ = run_cli(capsys, "check", write_config(tmp_path, pinned_config("split")))
        assert code == 0
        assert json.loads(out)["equation"]["verdict"] == "holds"

    @pytest.mark.parametrize(
        "cf, code, named",
        [
            ([_piece([], {"c": "1/2"})], 2, NOT_ONE_AT_ZERO),
            ([_piece([], ONE, only_zero=True), _piece([], GAUSS, minus_zero=True)], 0, ("holds", None, "gaussian_haar")),
            (
                [_piece([], ONE, only_zero=True), _piece([], {"c": "1/2", "sigma": 1}, minus_zero=True)],
                1,
                ("fails", "1", "not_of_form"),
            ),
            ([_piece([], ONE, only_zero=True), _piece([], GAUSS)], 2, FIRST_TWO_OVERLAP + "{0}"),
            ([_piece([], {"c": "1/2"}, only_zero=True)] * 2, 2, FIRST_TWO_OVERLAP + "{0}"),
            ([_piece([], {"c": 0}, only_zero=True)], 2, NOT_ONE_AT_ZERO),
            ([_piece([], {"c": 2}, {"c": -1, "shift": "1/2"}, only_zero=True)], 2, "term weights must be nonnegative"),
            ([_piece([], {"c": 1, "sigma": -1}, only_zero=True)], 2, "decay parameters must be nonnegative"),
            ([_piece([_v2(">=", 0)], ONE, only_zero=True)], 2, "[0].stratum: an only_zero stratum takes no constraints"),
            ([_piece([], ONE, only_zero=True)], 0, ("holds", None, "gaussian_haar")),
            ([_piece([_v2("<=", 0)], ONE)], 2, NOT_ONE_AT_ZERO),
            ([_piece([_v2(">=", 0)], ONE)], 1, ("fails", "1", "gaussian_haar")),
            ([_piece([_v2(">=", 0)], ONE), _piece([_v2("=", 1)], ONE)], 2, FIRST_TWO_OVERLAP + "v_2=1"),
            (
                [_piece([_v2("<=", 0)], ONE, minus_zero=True), _piece([_v2(">=", 1)], ONE)],
                0,
                ("holds", None, "gaussian_haar"),
            ),
            (
                [_piece([_v2(">=", 0)], {"c": "1/3"}, minus_zero=True), _piece([], ONE, only_zero=True)],
                1,
                ("fails", "2", "not_of_form"),
            ),
        ],
        ids=[
            "whole-half", "split-gaussian", "split-gaussian-half", "zero-and-whole-gaussian", "two-zero-halves",
            "zero-c0", "zero-negative-weight", "zero-negative-sigma", "zero-constrained", "zero-alone",
            "v2<=0", "v2>=0", "v2>=0-and-v2=1", "v2<=0-minus-zero-and-v2>=1", "v2>=0-third-and-zero",
        ],
    )
    def test_the_reader_states_f_of_zero(self, tmp_path, capsys, cf, code, named):
        # no cell holds zero: cf_from_json reads the only_zero and minus_zero
        # flags, refuses a config whose pieces do not give f(0) = 1, and names
        # the same faults as when every cell could hold zero
        got, out, err = run_cli(capsys, "check", write_config(tmp_path, dict(GAUSS_HOLDS, distribution={"cf": cf})))
        assert got == code
        if code == 2:
            assert out == "" and err.startswith("config error: distribution.cf") and err.endswith(f"{named}\n")
        else:
            report = json.loads(out)
            assert (report["equation"]["verdict"], report["equation"]["witness"], report["decomposition"]["kind"]) == named

    def test_non_positive_definite_cf_is_a_config_error(self, tmp_path, capsys):
        # 1 on v_7>=1 and exp(-y^2) elsewhere solves the equation, yet is no
        # gaussian times a haar indicator: f(7) = 1 but f(8) != f(1).  The
        # theorem guard ended check in a SoundnessError traceback
        code, out, err = run_cli(capsys, "check", write_config(tmp_path, pinned_config("notpd")))
        assert code == 2 and out == ""
        assert err.startswith("config error: distribution.cf is not positive definite")

    def test_theorem_guard_on_a_law_stays_a_traceback(self, tmp_path, capsys, monkeypatch):
        # a law's own cf is positive definite, so the guard firing is a defect of the package
        monkeypatch.setattr(scenarios, "decompose_gaussian_haar", lambda f: Decomposition("not_of_form"))
        code, out, err = run_cli(capsys, "check", write_config(tmp_path, GAUSS_HOLDS))
        assert code == 4 and out == ""
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.splitlines()[-1].startswith(f"{UndecomposedSolution.__module__}.UndecomposedSolution: the equation holds")

    def test_circle_guard_on_a_law_stays_a_traceback(self, tmp_path, capsys, monkeypatch):
        # on the circle a holding equation forces |f| = 1 on every piece; a gaussian of
        # sigma 1 breaks that, so an equation checker that says "holds" is a defect
        monkeypatch.setattr(scenarios, "check_equidistribution", lambda f, coeffs: EquationCheck("holds", None, False))
        doc = {"solenoid": {}, "coefficients": ["1", "1"], "distribution": {"law": {"kind": "gaussian", "sigma": 1}}}
        code, out, err = run_cli(capsys, "check", write_config(tmp_path, doc))
        assert code == 4 and out == ""
        assert err.startswith("Traceback (most recent call last):\n")
        last = err.splitlines()[-1]
        assert last.startswith(f"{SoundnessError.__module__}.SoundnessError: ") and "the equation checker is defective" in last

    def test_mixture_weights_must_be_a_list(self, tmp_path, capsys):
        # the string "10" was read character by character as the weights (1, 0)
        law = {"kind": "mixture", "weights": "10",
               "parts": [{"kind": "gaussian", "sigma": 1}, {"kind": "haar", "subgroup": {"2": 0}}]}
        code, out, err = run_cli(capsys, "check", write_config(tmp_path, _law(law)))
        assert code == 2 and out == ""
        assert err == "config error: distribution.law.weights must be a nonempty list of rationals\n"

    def test_unprintable_threshold_is_a_config_error(self, tmp_path, capsys):
        # 2^20000 has 6,021 digits: check found "fails", then raised while printing the witness
        doc = _law({"kind": "haar", "subgroup": {"2": 20000}})
        code, out, err = run_cli(capsys, "check", write_config(tmp_path, doc))
        assert code == 2 and out == ""
        assert err.startswith("config error: distribution.law.subgroup[2] 20000 makes 2^20000 longer than")

    def test_unprintable_report_value_is_a_config_error(self, tmp_path, capsys):
        # 2^7000 and 3^5000 each print, but a witness built from both does not
        doc = {
            "solenoid": {"2": "inf", "3": "inf"},
            "coefficients": ["2/3", "2/3", "1/3"],
            "distribution": {"law": {"kind": "haar", "subgroup": {"2": 7000, "3": 5000}}},
        }
        code, out, err = run_cli(capsys, "check", write_config(tmp_path, doc))
        assert code == 2 and out == ""
        assert err.startswith("config error: a report value is longer than")

    def test_unprintable_decomposition_shift_is_a_config_error(self, tmp_path, capsys):
        # the gaussians' means 1/3^4600 and 1/5^3100 each print, but the shift of their
        # convolution, their sum, does not: the conclusion printed it with str(), and
        # check exited 1 with a ValueError traceback
        code, out, err = run_cli(capsys, "check", FIXTURES / "bigshift.json")
        assert code == 2 and out == ""
        assert err == "config error: a report value is longer than 4300 digits, which no report can print\n"

    @pytest.mark.parametrize(
        "command, doc, named",
        [
            ("check", _law({"kind": "haar", "subgroup": {"1": 1}}), "subgroup key '1': 1 is not prime"),
            ("check", _cf({"prime": 1, "op": ">=", "k": 0}), "stratum[0].prime: 1 is not prime"),
            ("simulate", _law({"kind": "haar", "subgroup": {"2": 10**12}}), "subgroup[2] 1000000000000 makes"),
        ],
        ids=["subgroup-1", "stratum-1", "threshold-10^12"],
    )
    def test_endless_runs_end_in_a_config_error(self, tmp_path, command, doc, named):
        # valuation(y, 1) looped forever; simulate built 2^(10^12) before its int64 check
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", CAPPED_MAIN, command, str(write_config(tmp_path, doc))],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=10,
        )
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("config error:") and named in done.stderr


# one library call of each command, by the name cli calls it under, and a config that reaches it
LIBRARY_CALLS = {
    "classify": ("classify_solenoid", {"solenoid": {"2": "inf"}}),
    "check": ("classify_and_conclude", GAUSS_HOLDS),
    "simulate": ("monte_carlo_equidist", GAUSS_HOLDS),
    "solve-coeffs": ("solve_multiplicities", {"p": 2, "l": 2}),
    "counterexample": ("two_prime_counterexample", {"p": 2, "q": 3, "c": "1/3"}),
}

# each row of main's table: the class raised, the exit code, and the one stderr line, or
# for a defect the last line of its traceback
EXIT_TABLE = [
    (ConfigError, 2, "config error: refused"),
    (PreconditionViolated, 2, "config error: refused"),
    (ValueError, 2, "config error: refused"),
    (MemoryError, 2, "config error: refused"),
    (TermBudgetExceeded, 2, "error: TermBudgetExceeded: refused"),
    (SoundnessError, 4, f"{SoundnessError.__module__}.SoundnessError: refused"),
    (RuntimeError, 4, "RuntimeError: refused"),
]


@pytest.mark.parametrize("raised, code, line", EXIT_TABLE, ids=[row[0].__name__ for row in EXIT_TABLE])
@pytest.mark.parametrize("command", sorted(LIBRARY_CALLS))
def test_one_exit_code_per_exception_class(tmp_path, capsys, monkeypatch, command, raised, code, line):
    # every command goes through main's one table; exit 1 is left to a negative verdict
    monkeypatch.delenv("SOLADIC_SEED", raising=False)
    name, doc = LIBRARY_CALLS[command]

    def refuse(*args, **kwargs):
        raise raised("refused")

    monkeypatch.setattr(cli, name, refuse)
    got, out, err = run_cli(capsys, command, write_config(tmp_path, doc))
    assert (got, out) == (code, "")
    if code == 2:
        assert err == line + "\n"
    else:
        assert err.startswith("Traceback (most recent call last):\n") and err.splitlines()[-1] == line
