"""Exact JSON-style serialization of the domain objects, plus CSV batches.

Grammar conventions, kept strict in both directions:

* multiplicity tables: ``{"2": "inf", "3": 1}``
* rationals: ``"num/den"`` strings in lowest terms (plain integers and
  signed ``"num"`` or unreduced ``"num/den"`` strings allowed on input;
  floats, decimals and exponents are rejected because they are not exact)
* points: ``{"depth": N, "coord": "num/den"}``
* subgroups: mapping prime -> threshold, or the string ``"zero"``
* characteristic functions: list of pieces
  ``{"stratum": [{"prime": p, "op": ">="|"="|"<=", "k": t}], "terms":
  [{"c": w, "sigma": d, "shift": s}]}`` with optional boolean piece keys
  ``"only_zero"`` and ``"minus_zero"`` for the two partition flags
* sampling laws: tagged unions on a ``"kind"`` key

Unknown keys are rejected everywhere, so a config either round-trips
exactly or fails loudly before anything runs.  ``dump_stable`` fixes key
order and spacing, which is what makes reports byte-stable for fixed seeds.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from typing import Any, Mapping

import numpy as np

from .charfun import NEG_INF, POS_INF, StratifiedCF, Stratum, SubgroupSpec, Term, build_cf
from .errors import ConfigError
from .sampler import (
    ConvolutionOf,
    Degenerate,
    EquidistReport,
    GaussianLine,
    HaarAnnihilator,
    Mixture,
    SampleBatch,
    SamplerSpec,
    Shifted,
)
from .steinitz import SteinitzSpec
from .tower import SolenoidPoint


def _require_keys(obj: Mapping, required: set, optional: set, where: str) -> None:
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{where} must be an object, got {type(obj).__name__}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{where} is missing keys {sorted(missing)}")
    unknown = set(obj) - required - optional
    if unknown:
        raise ConfigError(f"{where} has unknown keys {sorted(unknown)}")


# ---------------------------------------------------------------------------
# scalars


def rational_to_json(x) -> str:
    x = Fraction(x)
    return str(x)  # "num/den" in lowest terms, "num" when the denominator is 1


def rational_from_json(obj, where: str = "rational") -> Fraction:
    """An int, or a string of an optional sign, digits and an optional /digits."""
    if isinstance(obj, bool) or isinstance(obj, float):
        raise ConfigError(f"{where} must be exact: write it as an integer or 'num/den' string")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", obj):
            raise ConfigError(f"{where} is not a rational: {obj!r} (expected 'num' or 'num/den')")
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as err:
            raise ConfigError(f"{where} is not a rational: {obj!r} ({err})") from None
    raise ConfigError(f"{where} must be an integer or 'num/den' string, got {obj!r}")


def _prime_key(key, where: str) -> int:
    """A prime-table key: decimal digits without sign, spaces, underscores or leading zeros.

    Only that form is read, so two spellings of one prime cannot both stand
    in a table.
    """
    if not isinstance(key, str) or not re.fullmatch(r"[1-9][0-9]*", key):
        raise ConfigError(f"{where} key {key!r} is not a prime written as plain decimal digits")
    try:
        return int(key)
    except ValueError as err:  # longer than the int conversion limit
        raise ConfigError(f"{where} key is not a prime: {err}") from None


def spec_to_json(spec: SteinitzSpec) -> dict:
    return {
        str(p): ("inf" if spec.multiplicity(p) == math.inf else int(spec.multiplicity(p)))
        for p in spec.primes
    }


def spec_from_json(obj, where: str = "solenoid") -> SteinitzSpec:
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{where} must be a multiplicity table object")
    table = {}
    for key, value in obj.items():
        p = _prime_key(key, where)
        if value == "inf":
            table[p] = math.inf
        elif isinstance(value, int) and not isinstance(value, bool):
            table[p] = value
        else:
            raise ConfigError(f"{where}[{key}] must be a positive integer or 'inf'")
    try:
        return SteinitzSpec.of(table)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from None


def point_to_json(x: SolenoidPoint) -> dict:
    return {"depth": x.depth, "coord": rational_to_json(x.coord)}


def point_from_json(spec: SteinitzSpec, obj, where: str = "point") -> SolenoidPoint:
    _require_keys(obj, {"depth", "coord"}, set(), where)
    if not isinstance(obj["depth"], int) or isinstance(obj["depth"], bool):
        raise ConfigError(f"{where}.depth must be an integer")
    coord = rational_from_json(obj["coord"], f"{where}.coord")
    try:
        x = SolenoidPoint(spec, obj["depth"], coord)
    except Exception as err:
        raise ConfigError(f"{where}: {err}") from None
    _require_printable_real_value(x, where)
    return x


def _require_printable_real_value(x: SolenoidPoint, where: str) -> None:
    """Refuse a point whose real value coord * level(depth) is too long to print.

    Reports print that value as a shift, and str() refuses an integer longer
    than sys.get_int_max_str_digits().  The numerator is at least
    2^depth / den(coord), so a deep point is refused before its level is built.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if not limit or x.coord == 0:
        return
    bound = 10**limit
    if 1 << x.depth >= bound * x.coord.denominator or x.real_value.numerator >= bound:
        raise ConfigError(
            f"{where}.depth {x.depth} makes the point's real value coord * level({x.depth}) "
            f"longer than {limit} digits, which no report can print"
        )


# ---------------------------------------------------------------------------
# subgroups, strata, characteristic functions


def subgroup_to_json(sub: SubgroupSpec):
    if sub.trivial:
        return "zero"
    return {str(p): t for p, t in sub.thresholds}


def subgroup_from_json(spec: SteinitzSpec, obj, where: str = "subgroup") -> SubgroupSpec:
    if obj == "zero":
        return SubgroupSpec.zero(spec)
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{where} must be a threshold table or the string 'zero'")
    table = {}
    for key, value in obj.items():
        p = _prime_key(key, where)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{where}[{key}] must be an integer threshold")
        table[p] = value
    return SubgroupSpec.of(spec, table)


def stratum_to_json(s: Stratum) -> list[dict]:
    out = []
    for p, lo, hi in s.bounds:
        if lo == hi:
            out.append({"prime": p, "op": "=", "k": int(lo)})
            continue
        if lo != NEG_INF:
            out.append({"prime": p, "op": ">=", "k": int(lo)})
        if hi != POS_INF:
            out.append({"prime": p, "op": "<=", "k": int(hi)})
    return out


_OPS = {">=": ">=", "=": "=", "<=": "<=", "≥": ">=", "≤": "<="}


def stratum_from_json(obj, only_zero: bool, minus_zero: bool, where: str) -> Stratum:
    if only_zero:
        if obj:
            raise ConfigError(f"{where}: an only_zero stratum takes no constraints")
        return Stratum.zero_only()
    if not isinstance(obj, list):
        raise ConfigError(f"{where} must be a list of constraints")
    windows: dict[int, tuple] = {}
    for i, entry in enumerate(obj):
        _require_keys(entry, {"prime", "op", "k"}, set(), f"{where}[{i}]")
        p, op, k = entry["prime"], entry["op"], entry["k"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise ConfigError(f"{where}[{i}].prime must be an integer")
        if not isinstance(k, int) or isinstance(k, bool):
            raise ConfigError(f"{where}[{i}].k must be an integer")
        if op not in _OPS:
            raise ConfigError(f"{where}[{i}].op must be one of >=, =, <=")
        lo, hi = windows.get(p, (NEG_INF, POS_INF))
        op = _OPS[op]
        if op in (">=", "="):
            lo = max(lo, k)
        if op in ("<=", "="):
            hi = min(hi, k)
        windows[p] = (lo, hi)
    try:
        return Stratum.of(windows, minus_zero=minus_zero)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from None


def cf_to_json(f: StratifiedCF) -> list[dict]:
    pieces = []
    for stratum, terms in f.pieces:
        piece: dict[str, Any] = {
            "stratum": stratum_to_json(stratum),
            "terms": [
                {
                    "c": rational_to_json(t.weight),
                    "sigma": rational_to_json(t.decay),
                    "shift": rational_to_json(t.shift),
                }
                for t in terms
            ],
        }
        if stratum.only_zero:
            piece["only_zero"] = True
        if stratum.minus_zero:
            piece["minus_zero"] = True
        pieces.append(piece)
    return pieces


def cf_from_json(spec: SteinitzSpec, obj, where: str = "cf") -> StratifiedCF:
    if not isinstance(obj, list):
        raise ConfigError(f"{where} must be a list of pieces")
    pieces = []
    for i, entry in enumerate(obj):
        here = f"{where}[{i}]"
        _require_keys(entry, {"stratum", "terms"}, {"only_zero", "minus_zero"}, here)
        stratum = stratum_from_json(
            entry["stratum"],
            bool(entry.get("only_zero", False)),
            bool(entry.get("minus_zero", False)),
            f"{here}.stratum",
        )
        if not isinstance(entry["terms"], list) or not entry["terms"]:
            raise ConfigError(f"{here}.terms must be a nonempty list")
        terms = []
        for j, t in enumerate(entry["terms"]):
            _require_keys(t, {"c"}, {"sigma", "shift"}, f"{here}.terms[{j}]")
            terms.append(
                Term(
                    rational_from_json(t["c"], f"{here}.terms[{j}].c"),
                    rational_from_json(t.get("sigma", 0), f"{here}.terms[{j}].sigma"),
                    rational_from_json(t.get("shift", 0), f"{here}.terms[{j}].shift"),
                )
            )
        pieces.append((stratum, terms))
    try:
        return build_cf(spec, pieces)
    except Exception as err:
        raise ConfigError(f"{where}: {err}") from None


# ---------------------------------------------------------------------------
# sampling laws


def law_to_json(law: SamplerSpec) -> dict:
    if isinstance(law, Degenerate):
        return {"kind": "degenerate", "point": point_to_json(law.x)}
    if isinstance(law, HaarAnnihilator):
        return {"kind": "haar", "subgroup": subgroup_to_json(law.E)}
    if isinstance(law, GaussianLine):
        return {
            "kind": "gaussian",
            "sigma": rational_to_json(law.sigma),
            "mean": rational_to_json(law.mean),
        }
    if isinstance(law, Mixture):
        return {
            "kind": "mixture",
            "weights": [rational_to_json(w) for w in law.weights],
            "parts": [law_to_json(p) for p in law.parts],
        }
    if isinstance(law, Shifted):
        return {"kind": "shifted", "point": point_to_json(law.x), "law": law_to_json(law.law)}
    if isinstance(law, ConvolutionOf):
        return {"kind": "convolution", "parts": [law_to_json(p) for p in law.parts]}
    raise ConfigError(f"cannot serialize sampling law {law!r}")


def law_from_json(spec: SteinitzSpec, obj, where: str = "law") -> SamplerSpec:
    if not isinstance(obj, Mapping) or "kind" not in obj:
        raise ConfigError(f"{where} must be an object with a 'kind' key")
    kind = obj["kind"]
    try:
        if kind == "degenerate":
            _require_keys(obj, {"kind", "point"}, set(), where)
            return Degenerate(point_from_json(spec, obj["point"], f"{where}.point"))
        if kind == "haar":
            _require_keys(obj, {"kind", "subgroup"}, set(), where)
            return HaarAnnihilator(subgroup_from_json(spec, obj["subgroup"], f"{where}.subgroup"))
        if kind == "gaussian":
            _require_keys(obj, {"kind", "sigma"}, {"mean"}, where)
            return GaussianLine(
                spec,
                rational_from_json(obj["sigma"], f"{where}.sigma"),
                rational_from_json(obj.get("mean", 0), f"{where}.mean"),
            )
        if kind == "mixture":
            _require_keys(obj, {"kind", "weights", "parts"}, set(), where)
            weights = [rational_from_json(w, f"{where}.weights") for w in obj["weights"]]
            parts = [
                law_from_json(spec, p, f"{where}.parts[{i}]") for i, p in enumerate(obj["parts"])
            ]
            return Mixture(tuple(weights), tuple(parts))
        if kind == "shifted":
            _require_keys(obj, {"kind", "point", "law"}, set(), where)
            return Shifted(
                point_from_json(spec, obj["point"], f"{where}.point"),
                law_from_json(spec, obj["law"], f"{where}.law"),
            )
        if kind == "convolution":
            _require_keys(obj, {"kind", "parts"}, set(), where)
            parts = [
                law_from_json(spec, p, f"{where}.parts[{i}]") for i, p in enumerate(obj["parts"])
            ]
            return ConvolutionOf(tuple(parts))
    except ConfigError:
        raise
    except Exception as err:
        raise ConfigError(f"{where}: {err}") from None
    raise ConfigError(f"{where}.kind must be one of degenerate, haar, gaussian, "
                      f"mixture, shifted, convolution; got {kind!r}")


# ---------------------------------------------------------------------------
# batches and reports


#: rows converted to Python floats and strings at a time by batch_to_csv
CSV_CHUNK_ROWS = 65_536


def batch_to_csv(batch: SampleBatch) -> str:
    """The batch as ``depth,coord`` rows, coordinates in shortest round-trip repr.

    Rows are built a chunk at a time, so the per-row Python floats and
    strings of one chunk are alive at once, not those of the whole batch.
    A lattice batch repeats a few atoms, so each of the batch's atoms is
    turned into text once and each chunk gathers its rows from those
    strings; the text is the same byte for byte as one ``repr`` per row.
    """
    coords = np.asarray(batch.coords, dtype=np.float64)
    atoms = batch._atoms
    if atoms is not None:
        keys = atoms[0]
        texts = np.array([repr(x) for x in keys.view(np.float64).tolist()], dtype=object)
    sep = f"\n{batch.depth},"
    chunks = ["depth,coord"]
    for i in range(0, batch.n, CSV_CHUNK_ROWS):
        block = coords[i : i + CSV_CHUNK_ROWS]
        if atoms is None:
            rows = map(repr, block.tolist())
        else:
            rows = texts[np.searchsorted(keys, block.view(np.uint64))].tolist()
        chunks.append(sep.join(rows))
    return sep.join(chunks) + "\n"


def _complex_to_json(z: complex) -> dict:
    return {"im": z.imag, "re": z.real}


def equidist_report_to_json(report: EquidistReport) -> dict:
    return {
        "alpha": report.alpha,
        "bit_generator": report.bit_generator,
        "character_rows": [
            {
                "adjusted_p": row.adjusted_p,
                "char": rational_to_json(row.char),
                "combined": _complex_to_json(row.combined),
                "gap": row.gap,
                "p_value": row.p_value,
                "reference": _complex_to_json(row.reference),
            }
            for row in report.character_rows
        ],
        "coefficients": [rational_to_json(c) for c in report.coeffs],
        "depth": report.depth,
        "kuiper_rows": [
            {
                "adjusted_p": row.adjusted_p,
                "depth": row.depth,
                "p_value": row.p_value,
                "statistic": row.statistic,
            }
            for row in report.kuiper_rows
        ],
        "law": law_to_json(report.law),
        "n": report.n,
        "seed": report.seed,
        "verdict": report.verdict,
    }


def dump_stable(obj) -> str:
    """Canonical JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
