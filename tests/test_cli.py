"""End-to-end command tests: config in, report + exit code out."""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from soladic import _kernels, serialize
from soladic.cli import main
from soladic.sampler import SampleBatch, empirical_cf
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


GAUSS_HOLDS = {
    "solenoid": {"2": "inf"},
    "coefficients": ["1/2", "1/2", "1/2", "1/2"],
    "distribution": {"law": {"kind": "gaussian", "sigma": 1}},
}


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

    def test_undecidable_exits_3(self, tmp_path, capsys):
        # a pure character whose phase denominator exceeds the exact-arithmetic
        # working cap: the two sides differ formally but no probe can prove it
        path = write_config(
            tmp_path,
            {
                "solenoid": {"2": "inf"},
                "coefficients": ["1/2", "1/2", "1/2"],
                "distribution": {
                    "cf": [{"stratum": [], "terms": [{"c": "1", "shift": f"1/{2**40}"}]}]
                },
            },
        )
        code, out, _ = run_cli(capsys, "check", path)
        assert code == 3
        assert json.loads(out)["equation"]["verdict"] == "unknown"

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
        for side in ("reference", "combined"):
            with open(tmp_path / doc["artifacts"][side], newline="") as f:
                rows = list(csv.DictReader(f))
            assert {int(r["depth"]) for r in rows} == {doc["depth"]}
            coords = np.array([float(r["coord"]) for r in rows])
            batch = SampleBatch(spec, doc["depth"], coords, "csv")
            estimates = empirical_cf(batch, chars).estimates
            for row, est in zip(doc["character_rows"], estimates):
                assert row[side] == {"re": est.real, "im": est.imag}

    def test_report_is_byte_stable(self, tmp_path, capsys):
        path = write_config(tmp_path, self.CONFIG)
        _, first, _ = run_cli(capsys, "simulate", path)
        _, second, _ = run_cli(capsys, "simulate", path)
        assert first == second

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
        # the cf sums, the Kuiper tower and both CSVs read one atom_keys per batch
        calls = []
        atom_keys = _kernels.atom_keys

        def counting_atom_keys(coords):
            calls.append(id(coords))
            return atom_keys(coords)

        for module in (_kernels, serialize):  # wherever a module may hold the name
            monkeypatch.setattr(module, "atom_keys", counting_atom_keys, raising=False)
        path = write_config(tmp_path, self.LATTICE if lattice else self.CONFIG)
        code, _, _ = run_cli(capsys, "simulate", path)
        assert code == 0
        assert len(calls) == len(set(calls)) == 2

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

    @pytest.mark.parametrize("param, check_code", [("sigma", 0), ("mean", 3)])
    def test_gaussian_beyond_the_float_range_is_exit_2(self, tmp_path, capsys, param, check_code):
        law = {"kind": "gaussian", "sigma": 1, param: "1" + "0" * 400}
        path = write_config(tmp_path, dict(GAUSS_HOLDS, distribution={"law": law}))
        code, _, _ = run_cli(capsys, "check", path)
        assert code == check_code  # the exact layer still decides, or says unknown
        code, out, err = run_cli(capsys, "simulate", path, "--n", "200", "--depth", "2")
        assert code == 2 and out == ""
        assert "gaussian draws leave the float range" in err

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

    @pytest.mark.parametrize(
        "name, doc",
        [
            ("blurred", {"p": 2, "q": 3, "c": "1/4", "sigma": "1"}),
            ("sharp", {"p": 2, "q": 3, "c": "1/3"}),
        ],
    )
    def test_report_matches_pinned_fixture(self, tmp_path, capsys, name, doc):
        # stdout and bundle byte for byte: no figure in them depends on BLAS
        path = write_config(tmp_path, doc, f"{name}.json")
        code, out, _ = run_cli(capsys, "counterexample", path, "--seed", 0)
        assert code == 0
        pairs = [
            (out, f"counterexample_{name}.stdout"),
            ((tmp_path / f"{name}.bundle.json").read_text(), f"counterexample_{name}.bundle.json"),
        ]
        for got, fixture in pairs:
            assert got == (FIXTURES / fixture).read_text()

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
