import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from soladic import (
    ConfigError,
    ConvolutionOf,
    Degenerate,
    GaussianLine,
    HaarAnnihilator,
    Mixture,
    SampleBatch,
    Shifted,
    SolenoidPoint,
    SteinitzSpec,
    Stratum,
    SubgroupSpec,
    Term,
    build_cf,
    compare,
    gaussian_cf,
    haar_cf,
    linear_form,
    monte_carlo_equidist,
    sample,
)
from soladic.charfun import NEG_INF, POS_INF
from soladic.serialize import (
    batch_to_csv,
    cf_from_json,
    cf_to_json,
    dump_stable,
    equidist_report_to_json,
    law_from_json,
    law_to_json,
    point_from_json,
    point_to_json,
    rational_from_json,
    rational_to_json,
    spec_from_json,
    spec_to_json,
    stratum_from_json,
    stratum_to_json,
    subgroup_from_json,
    subgroup_to_json,
)
from soladic.scenarios import two_prime_counterexample

DYADIC = SteinitzSpec.of({2: math.inf})
TWO_THREE = SteinitzSpec.of({2: math.inf, 3: math.inf})
MIXED = SteinitzSpec.of({2: math.inf, 3: 1})

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=97
)


class TestScalars:
    def test_spec_round_trip(self):
        for table in ({"2": "inf"}, {"2": "inf", "3": 1}, {}, {"5": 3, "7": "inf"}):
            spec = spec_from_json(table)
            assert spec_to_json(spec) == table
            assert spec_from_json(spec_to_json(spec)) == spec

    def test_spec_rejects_garbage(self):
        for bad in ({"4": 1}, {"2": 0}, {"2": 1.5}, {"x": 1}, {"2": True}, [2], "2"):
            with pytest.raises(ConfigError):
                spec_from_json(bad)

    @pytest.mark.parametrize("key", ["02", "1_1", " 2", "2 ", "+2", "-2", "0", "２", "1" * 5000])
    def test_prime_keys_are_plain_decimal_digits(self, key):
        # int() would read each of these, so two spellings of one prime
        # could stand in one table; the 5000-digit key is past int()'s limit
        with pytest.raises(ConfigError, match="is not a prime"):
            spec_from_json({key: 1})
        with pytest.raises(ConfigError, match="is not a prime"):
            subgroup_from_json(DYADIC, {key: 0})

    @given(rationals)
    def test_rational_round_trip(self, x):
        assert rational_from_json(rational_to_json(x)) == x

    def test_rational_accepts_ints_and_strings(self):
        assert rational_from_json(5) == F(5)
        assert rational_from_json("-3/9") == F(-1, 3)

    def test_rational_rejects_floats_and_junk(self):
        for bad in (0.5, True, "1/0", "a/b", None, [1], "0.5", "1e100000000"):
            with pytest.raises(ConfigError):
                rational_from_json(bad)

    def test_point_round_trip(self):
        x = SolenoidPoint(MIXED, 3, F(5, 7))
        doc = point_to_json(x)
        assert doc == {"depth": 3, "coord": "5/7"}
        back = point_from_json(MIXED, doc)
        assert (back.depth, back.coord) == (x.depth, x.coord)

    def test_point_too_long_to_print_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"point\.depth 20000 .* digits"):
            point_from_json(DYADIC, {"depth": 20_000, "coord": "1/3"})
        # the zero point embeds 0 at any depth
        assert point_from_json(DYADIC, {"depth": 20_000, "coord": "0"}).real_value == 0

    def test_point_rejects_extra_keys_and_bad_depth(self):
        with pytest.raises(ConfigError):
            point_from_json(DYADIC, {"depth": 1, "coord": "1/2", "x": 0})
        with pytest.raises(ConfigError):
            point_from_json(DYADIC, {"depth": "1", "coord": "1/2"})
        with pytest.raises(ConfigError):
            point_from_json(DYADIC, {"coord": "1/2"})


class TestSubgroupsAndStrata:
    def test_subgroup_round_trip(self):
        for table in ({2: -1}, {2: 0, 3: 2}, {}):
            sub = SubgroupSpec.of(TWO_THREE, table)
            assert subgroup_from_json(TWO_THREE, subgroup_to_json(sub)) == sub

    def test_trivial_subgroup_is_the_string_zero(self):
        z = SubgroupSpec.zero(DYADIC)
        assert subgroup_to_json(z) == "zero"
        assert subgroup_from_json(DYADIC, "zero").trivial

    def test_subgroup_rejects_bad_thresholds(self):
        with pytest.raises(ConfigError):
            subgroup_from_json(DYADIC, {"2": "deep"})
        with pytest.raises(ConfigError):
            subgroup_from_json(DYADIC, 7)

    def test_stratum_emits_two_sided_windows(self):
        s = Stratum.of({2: (-1, 3), 3: (0, 0)})
        doc = stratum_to_json(s)
        assert {"prime": 2, "op": ">=", "k": -1} in doc
        assert {"prime": 2, "op": "<=", "k": 3} in doc
        assert {"prime": 3, "op": "=", "k": 0} in doc
        assert stratum_from_json(doc, False, False, "t") == s

    def test_stratum_accepts_unicode_ops(self):
        doc = [{"prime": 2, "op": "≥", "k": 0}, {"prime": 3, "op": "≤", "k": 1}]
        s = stratum_from_json(doc, False, False, "t")
        assert {p: (lo, hi) for p, lo, hi in s.bounds} == {2: (0, POS_INF), 3: (NEG_INF, 1)}

    def test_stratum_rejects_bad_op(self):
        with pytest.raises(ConfigError):
            stratum_from_json([{"prime": 2, "op": ">", "k": 0}], False, False, "t")


class TestCharacteristicFunctions:
    def test_counterexample_cf_round_trip(self):
        bundle = two_prime_counterexample(TWO_THREE, 2, 3, F(1, 2))
        doc = cf_to_json(bundle.cf)
        assert compare(cf_from_json(TWO_THREE, doc), bundle.cf).verdict == "equal"

    def test_gaussian_with_shift_round_trip(self):
        g = gaussian_cf(MIXED, F(7, 3), F(5, 8))
        assert compare(cf_from_json(MIXED, cf_to_json(g)), g).verdict == "equal"

    def test_partition_flags_survive(self):
        f = build_cf(
            DYADIC,
            [
                (Stratum.zero_only(), [Term(F(1), F(0), F(0))]),
                (Stratum.of({2: (0, POS_INF)}, minus_zero=True), [Term(F(1, 3), F(0), F(0))]),
            ],
        )
        doc = cf_to_json(f)
        flags = {(p.get("only_zero", False), p.get("minus_zero", False)) for p in doc}
        assert flags == {(True, False), (False, True)}
        assert compare(cf_from_json(DYADIC, doc), f).verdict == "equal"

    def test_terms_default_sigma_and_shift(self):
        doc = [{"stratum": [], "terms": [{"c": "1"}]}]
        f = cf_from_json(DYADIC, doc)
        ((_, terms),) = f.pieces
        assert terms[0].weight == 1 and terms[0].decay == 0 and terms[0].shift == 0

    def test_bad_documents_raise_config_error(self):
        bads = [
            "x",
            [{"terms": [{"c": 1}]}],
            [{"stratum": [], "terms": []}],
            [{"stratum": [], "terms": [{"c": 1}], "weird": True}],
            [{"stratum": [{"prime": 2, "op": "!", "k": 0}], "terms": [{"c": 1}]}],
            [{"stratum": [], "terms": [{"c": 0.5}]}],
            [{"stratum": [], "terms": [{"c": 1, "extra": 2}]}],
        ]
        for bad in bads:
            with pytest.raises(ConfigError):
                cf_from_json(DYADIC, bad)

    def test_invalid_cf_semantics_become_config_errors(self):
        # overlapping pieces are a build error, surfaced as ConfigError
        doc = [
            {"stratum": [], "terms": [{"c": 1}]},
            {"stratum": [{"prime": 2, "op": ">=", "k": 0}], "terms": [{"c": "1/2"}]},
        ]
        with pytest.raises(ConfigError):
            cf_from_json(DYADIC, doc)


class TestLaws:
    def law_cases(self):
        pt = SolenoidPoint(TWO_THREE, 1, F(1, 2))
        outer = HaarAnnihilator(SubgroupSpec.of(TWO_THREE, {2: -1}))
        inner = HaarAnnihilator(SubgroupSpec.of(TWO_THREE, {2: 0}))
        return [
            Degenerate(pt),
            outer,
            GaussianLine(TWO_THREE, F(7, 3), F(1, 8)),
            Mixture((F(1, 4), F(3, 4)), (outer, inner)),
            Shifted(pt, inner),
            ConvolutionOf((GaussianLine(TWO_THREE, F(1)), Mixture((F(1, 2), F(1, 2)), (outer, inner)))),
        ]

    def test_every_variant_round_trips(self):
        for law in self.law_cases():
            doc = law_to_json(law)
            assert law_to_json(law_from_json(TWO_THREE, doc)) == doc

    def test_kind_tags(self):
        kinds = [law_to_json(l)["kind"] for l in self.law_cases()]
        assert kinds == ["degenerate", "haar", "gaussian", "mixture", "shifted", "convolution"]

    def test_gaussian_mean_defaults_to_zero(self):
        law = law_from_json(DYADIC, {"kind": "gaussian", "sigma": "1/2"})
        assert law.mean == 0

    def test_bad_laws(self):
        bads = [
            {"kind": "nope"},
            {"kind": "gaussian"},
            {"kind": "gaussian", "sigma": 0.5},
            {"kind": "gaussian", "sigma": "-1"},
            {"kind": "haar", "subgroup": "zero", "extra": 1},
            {"kind": "mixture", "weights": ["1/2"], "parts": []},
            "gaussian",
        ]
        for bad in bads:
            with pytest.raises(ConfigError):
                law_from_json(DYADIC, bad)


class TestBatchesAndReports:
    def test_batch_csv_shape(self):
        pt = SolenoidPoint(DYADIC, 1, F(1, 2))
        batch = sample(Degenerate(pt), 1, 3, 0)
        text = batch_to_csv(batch)
        lines = text.splitlines()
        assert lines[0] == "depth,coord"
        assert lines[1:] == ["1,0.5"] * 3
        assert text.endswith("\n")

    @pytest.mark.parametrize("n", [1, 65_535, 65_536, 65_537, 200_001])
    def test_batch_csv_matches_one_repr_per_row(self, n):
        # rows are built in chunks of 65,536, and a lattice batch's from one
        # repr per atom; the text must depend on neither
        haar = HaarAnnihilator(SubgroupSpec.of(TWO_THREE, {2: 0}))
        # -0.0 and 0.0 are equal but print differently, so they must stay apart
        atoms = np.array([0.0, -0.0, 1e-05, 0.9999999999999996])
        batches = [
            sample(GaussianLine(DYADIC, F(1, 3), mean=F(1, 5)), 3, n, 7),
            sample(HaarAnnihilator(SubgroupSpec.of(DYADIC, {2: 0})), 3, n, 7),
            # atoms one ulp apart, as a linear form of draws leaves them
            linear_form([sample(haar, 3, n, 7), sample(haar, 3, n, 8)], [F(2, 3), F(1, 3)]),
            SampleBatch(DYADIC, 3, np.random.default_rng(n).choice(atoms, n), "hand built"),
        ]
        for batch in batches:
            reference = "depth,coord\n" + "".join(f"{batch.depth},{c!r}\n" for c in batch.coords.tolist())
            # compared as lists of lines, so a failure names the first bad row instead of diffing the text
            assert batch_to_csv(batch).split("\n") == reference.split("\n")

    def test_report_json_is_byte_stable(self):
        law = HaarAnnihilator(SubgroupSpec.zero(DYADIC))
        coeffs = [F(1, 2)] * 4
        a = dump_stable(equidist_report_to_json(monte_carlo_equidist(law, coeffs, n=2000, depth=2, seed=3)))
        b = dump_stable(equidist_report_to_json(monte_carlo_equidist(law, coeffs, n=2000, depth=2, seed=3)))
        assert a == b

    def test_report_json_carries_all_testimony(self):
        law = HaarAnnihilator(SubgroupSpec.zero(DYADIC))
        rep = monte_carlo_equidist(law, [F(1, 2)] * 4, n=1000, depth=2, seed=0)
        doc = equidist_report_to_json(rep)
        assert doc["verdict"] == rep.verdict
        assert doc["seed"] == 0 and doc["law"]["kind"] == "haar"
        assert doc["coefficients"] == ["1/2"] * 4
        row = doc["character_rows"][0]
        assert set(row) == {"adjusted_p", "char", "combined", "gap", "p_value", "reference"}
        assert set(row["combined"]) == {"re", "im"}
        assert all(set(r) == {"adjusted_p", "depth", "p_value", "statistic"} for r in doc["kuiper_rows"])

    def test_dump_stable_sorts_keys(self):
        assert dump_stable({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}\n'
        assert json.loads(dump_stable({"a": [1, 2]})) == {"a": [1, 2]}
