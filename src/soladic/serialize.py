"""The exact JSON form of every domain object a command reads, prints or writes, plus CSV batches.

Grammar conventions, kept strict in both directions:

* multiplicity tables: ``{"2": "inf", "3": 1}``
* integers are JSON integers, never ``true`` or ``1.5``; a prime is a table
  or subgroup key of plain decimal digits, or a stratum's integer
  ``"prime"``, and must be prime, in the table or not
* rationals: ``"num/den"`` strings in lowest terms (plain integers and
  signed ``"num"`` or unreduced ``"num/den"`` strings allowed on input;
  floats, decimals and exponents are rejected because they are not exact)
* points: ``{"depth": N, "coord": "num/den"}``
* subgroups: mapping prime -> threshold, or the string ``"zero"``
* characteristic functions: list of pieces
  ``{"stratum": [{"prime": p, "op": ">="|"="|"<=", "k": t}], "terms":
  [{"c": w, "sigma": d, "shift": s}]}`` with optional piece keys
  ``"only_zero"`` and ``"minus_zero"``, each JSON ``true`` or ``false``;
  a piece holds the nonzero characters of its stratum, and the flags place
  f(0) = 1 (see ``cf_from_json``)
* sampling laws: tagged unions on a ``"kind"`` key

Unknown keys are rejected everywhere, so a config either round-trips
exactly or fails loudly before anything runs.  ``dump_stable`` fixes key
order and spacing, which is what makes reports byte-stable for fixed seeds.
``cli`` writes a run's documents and batches as artifacts, all or none.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from typing import Iterator, Mapping

from . import _kernels
from ._numpy import np
from .charfun import NEG_INF, POS_INF, StratifiedCF, Stratum, SubgroupSpec, Term, _first_overlap, build_cf
from .errors import ConfigError
from .laws import ConvolutionOf, Degenerate, GaussianLine, HaarAnnihilator, Mixture, SamplerSpec, Shifted
from .sampler import EquidistReport, SampleBatch
from .scenarios import CounterexampleBundle, ScenarioVerdict
from .steinitz import SteinitzSpec, _require_prime
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


def _print_limit() -> int:
    """sys.get_int_max_str_digits(): str() refuses an integer with more digits; 0 is no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def rational_to_json(x) -> str:
    x = Fraction(x)
    try:
        return str(x)  # "num/den" in lowest terms, "num" when the denominator is 1
    except ValueError:  # an integer longer than the print limit
        raise ConfigError(f"a report value is longer than {_print_limit()} digits, which no report can print") from None


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


def _int_from_json(obj, where: str, what: str = "an integer", least: int | None = None) -> int:
    """A JSON integer, at least ``least`` when that is given; true and false are not integers."""
    if not isinstance(obj, int) or isinstance(obj, bool) or (least is not None and obj < least):
        raise ConfigError(f"{where} must be {what}")
    return obj


def _bool_from_json(obj, where: str) -> bool:
    """A JSON true or false; a string, a number or null is not a boolean."""
    if not isinstance(obj, bool):
        raise ConfigError(f"{where} must be true or false")
    return obj


def _prime_from_json(obj, where: str, *, key: bool = False) -> int:
    """A prime, in the solenoid's table or not: a JSON integer, or a table key.

    A key is read only as decimal digits without sign, spaces, underscores or
    leading zeros, so two spellings of one prime cannot both stand in a table.
    """
    if key:
        if not isinstance(obj, str) or not re.fullmatch(r"[1-9][0-9]*", obj):
            raise ConfigError(f"{where} key {obj!r} is not a prime written as plain decimal digits")
        try:
            p = int(obj)
        except ValueError as err:  # longer than the int conversion limit
            raise ConfigError(f"{where} key is not a prime: {err}") from None
        where = f"{where} key {obj!r}"
    else:
        p = _int_from_json(obj, where)
    try:
        _require_prime(p)
    except ValueError as err:  # not prime, or past the primality test's proven range
        raise ConfigError(f"{where}: {err}") from None
    return p


def _rationals_from_json(obj, where: str) -> list[Fraction]:
    """A nonempty JSON list, each entry read by rational_from_json; a string is not a list."""
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"{where} must be a nonempty list of rationals")
    return [rational_from_json(x, f"{where}[{i}]") for i, x in enumerate(obj)]


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
        p = _prime_from_json(key, where, key=True)
        if value == "inf":
            table[p] = math.inf
        else:
            table[p] = _int_from_json(value, f"{where}[{key}]", "a positive integer or 'inf'")
    try:
        return SteinitzSpec.of(table)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from None


def point_to_json(x: SolenoidPoint) -> dict:
    return {"depth": x.depth, "coord": rational_to_json(x.coord)}


def point_from_json(spec: SteinitzSpec, obj, where: str = "point") -> SolenoidPoint:
    _require_keys(obj, {"depth", "coord"}, set(), where)
    depth = _int_from_json(obj["depth"], f"{where}.depth")
    coord = rational_from_json(obj["coord"], f"{where}.coord")
    try:
        x = SolenoidPoint(spec, depth, coord)
    except Exception as err:
        raise ConfigError(f"{where}: {err}") from None
    _require_printable_real_value(x, where)
    return x


def _require_printable_real_value(x: SolenoidPoint, where: str) -> None:
    """Refuse a point whose real value coord * level(depth) is too long to print.

    Reports print that value as a shift.  The numerator is at least
    2^depth / den(coord), so a deep point is refused by the bit length of
    10^limit * den(coord), before anything of its depth's size is built.
    """
    limit = _print_limit()
    if not limit or x.coord == 0:
        return
    bound = 10**limit
    if x.depth >= (bound * x.coord.denominator - 1).bit_length() or x.real_value.numerator >= bound:
        raise ConfigError(
            f"{where}.depth {x.depth} makes the point's real value coord * level({x.depth}) "
            f"longer than {limit} digits, which no report can print"
        )


def _require_printable_power(p: int, e: int, where: str) -> None:
    """Refuse an exponent whose prime power p^|e| is too long to print, as a point's depth is.

    p^|e| >= 2^(|e| (bits(p) - 1)) and 2^4 > 10, so a power is built only
    when it has fewer than 8 * limit bits.
    """
    limit = _print_limit()
    if limit and (abs(e) * (p.bit_length() - 1) >= 4 * limit or p ** abs(e) >= 10**limit):
        raise ConfigError(
            f"{where} {e} makes {p}^{abs(e)} longer than {limit} digits, which no report can print"
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
        p = _prime_from_json(key, where, key=True)
        table[p] = _int_from_json(value, f"{where}[{key}]", "an integer threshold")
        _require_printable_power(p, table[p], f"{where}[{key}]")
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


def stratum_from_json(obj, only_zero: bool, where: str) -> Stratum | None:
    """A cell from its constraint list, or None for an ``only_zero`` piece: no cell holds zero."""
    if only_zero:
        if obj:
            raise ConfigError(f"{where}: an only_zero stratum takes no constraints")
        return None
    if not isinstance(obj, list):
        raise ConfigError(f"{where} must be a list of constraints")
    windows: dict[int, tuple] = {}
    for i, entry in enumerate(obj):
        _require_keys(entry, {"prime", "op", "k"}, set(), f"{where}[{i}]")
        p = _prime_from_json(entry["prime"], f"{where}[{i}].prime")
        k = _int_from_json(entry["k"], f"{where}[{i}].k")
        _require_printable_power(p, k, f"{where}[{i}].k")
        if entry["op"] not in _OPS:
            raise ConfigError(f"{where}[{i}].op must be one of >=, =, <=")
        lo, hi = windows.get(p, (NEG_INF, POS_INF))
        op = _OPS[entry["op"]]
        if op in (">=", "="):
            lo = max(lo, k)
        if op in ("<=", "="):
            hi = min(hi, k)
        windows[p] = (lo, hi)
    try:
        return Stratum.of(windows)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from None


def _around_zero(s: Stratum) -> bool:
    """Whether zero is a limit of the cell: no window is bounded above."""
    return all(hi == POS_INF for _, _, hi in s.bounds)


def _term_to_json(t: Term) -> dict:
    return {"c": rational_to_json(t.weight), "sigma": rational_to_json(t.decay), "shift": rational_to_json(t.shift)}


def cf_to_json(f: StratifiedCF) -> list[dict]:
    """The pieces of f, flag-free when the piece around zero sums to 1 there.

    Otherwise that piece is marked ``minus_zero`` and an ``only_zero`` piece
    of weight 1 follows, so that the list states f(0) = 1 as configs do.
    """
    pieces = [{"stratum": stratum_to_json(s), "terms": [_term_to_json(t) for t in terms]} for s, terms in f.pieces]
    around = [(piece, terms) for piece, (s, terms) in zip(pieces, f.pieces) if _around_zero(s)]
    if sum(t.weight for _, terms in around for t in terms) != 1:
        for piece, _ in around:
            piece["minus_zero"] = True
        pieces.append({"stratum": [], "terms": [_term_to_json(Term(1, 0, 0))], "only_zero": True})
    return pieces


def cf_from_json(spec: SteinitzSpec, obj, where: str = "cf") -> StratifiedCF:
    """The cf of a piece list; f(0) = 1 is checked here, as the config states it.

    The value at zero is carried by the ``only_zero`` pieces and by an
    unflagged piece around zero: there must be one such piece, summing to 1.
    Two pieces that overlap are named by their indices and the shared cell.
    """
    if not isinstance(obj, list):
        raise ConfigError(f"{where} must be a list of pieces")
    read = []
    for i, entry in enumerate(obj):
        here = f"{where}[{i}]"
        _require_keys(entry, {"stratum", "terms"}, {"only_zero", "minus_zero"}, here)
        only_zero = _bool_from_json(entry.get("only_zero", False), f"{here}.only_zero")
        minus_zero = _bool_from_json(entry.get("minus_zero", False), f"{here}.minus_zero")
        stratum = stratum_from_json(entry["stratum"], only_zero, f"{here}.stratum")
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
        read.append((stratum, minus_zero, terms))
    cells, at_zero = [], []
    try:
        for i, (stratum, minus_zero, terms) in enumerate(read):
            # each piece's own checks first, in order; an only_zero piece's as a whole cell's
            kept = build_cf(spec, [(Stratum.whole() if stratum is None else stratum, terms)]).pieces
            if stratum is not None and kept:
                cells.append((i, stratum, terms))
            if kept and (stratum is None or (not minus_zero and _around_zero(stratum))):
                at_zero.append((i, kept[0][1]))
    except Exception as err:
        raise ConfigError(f"{where}: {err}") from None
    overlap = _first_overlap(spec, [s for _, s, _ in cells])
    if overlap is not None:
        i, j, shared = overlap
        raise ConfigError(f"{where}[{cells[i][0]}] and {where}[{cells[j][0]}] overlap on {shared}")
    if len(at_zero) > 1:  # two cells around zero already overlap above
        raise ConfigError(f"{where}[{at_zero[0][0]}] and {where}[{at_zero[1][0]}] overlap on {{0}}")
    if sum(t.weight for _, terms in at_zero for t in terms) != 1:
        raise ConfigError(f"{where}: a characteristic function must equal 1 at the zero character")
    return build_cf(spec, [(s, terms) for _, s, terms in cells])


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
            weights = _rationals_from_json(obj["weights"], f"{where}.weights")
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


def equation_from_json(doc: Mapping, optional: set = frozenset()) -> tuple:
    """A config's solenoid, coefficients and distribution, read in that order, as (spec, coefficients, cf or law).

    ``optional`` names the config's other allowed keys.  The distribution is
    ``{"cf": [...]}`` or ``{"law": {...}}``.
    """
    _require_keys(doc, {"solenoid", "coefficients", "distribution"}, optional, "config")
    spec = spec_from_json(doc["solenoid"])
    coeffs = _rationals_from_json(doc["coefficients"], "config.coefficients")
    dist = doc["distribution"]
    if not isinstance(dist, dict) or len(dist) != 1 or next(iter(dist)) not in ("cf", "law"):
        raise ConfigError("config.distribution must be {'cf': [...]} or {'law': {...}}")
    if "cf" in dist:
        return spec, coeffs, cf_from_json(spec, dist["cf"], "distribution.cf")
    return spec, coeffs, law_from_json(spec, dist["law"], "distribution.law")


# ---------------------------------------------------------------------------
# batches and reports


def _csv_chunks(batch: SampleBatch) -> Iterator[bytes | np.ndarray]:
    """The batch's CSV bytes in bytes-like pieces: the header, then one piece per block of rows.

    Rows are ``depth,coord``, coordinates in shortest round-trip repr, each
    ending in a newline.  A lattice batch's lines are built once per atom by
    ``repr``, and each block joins its rows' lines from those.  A continuous
    batch's are built a block at a time from ``_kernels.repr_matrix``, the
    same byte for byte as one ``repr`` per row, its NUL bytes dropped.  Only
    one block's lines are alive at a time.
    """
    coords = np.asarray(batch.coords, dtype=np.float64)
    atoms = batch._atoms
    if atoms is not None:
        atom_lines = np.array([f"{batch.depth},{v!r}\n" for v in atoms[0].tolist()], dtype=object)
    prefix = np.frombuffer(f"{batch.depth},".encode(), dtype=np.uint8)
    yield b"depth,coord\n"
    for rows in _kernels.row_blocks(batch.n):
        block = coords[rows]
        if atoms is not None:  # str.join: bytes.join would hold a buffer record per row
            yield "".join(atom_lines[_kernels.atom_rows(atoms[0], block)].tolist()).encode()
            continue
        text = _kernels.repr_matrix(block)
        lines = np.empty((text.shape[0], prefix.size + text.shape[1] + 1), dtype=np.uint8)
        lines[:, : prefix.size] = prefix
        lines[:, prefix.size : -1] = text
        lines[:, -1] = ord("\n")
        yield lines[lines != 0]


def batch_to_csv(batch: SampleBatch) -> str:
    """The batch as CSV text: a ``depth,coord`` header and one row per draw.

    The text is the join of ``_csv_chunks``; ``write_batch_csv`` writes the
    same bytes to a file without holding the whole text.
    """
    return b"".join(_csv_chunks(batch)).decode("ascii")


def write_batch_csv(batch: SampleBatch, path) -> None:
    """Write the bytes of ``batch_to_csv(batch)`` to path a block of rows at a time.

    Each block is written as it is built, so memory stays at one block's
    rows whatever the batch size, and the file is the same byte for byte.
    """
    with open(path, "wb") as out:
        out.writelines(_csv_chunks(batch))


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


def _maybe_rational(x) -> "str | list[str] | None":
    """None, a rational, or a pair of rationals (a support's witness) as a list."""
    if isinstance(x, tuple):
        return [rational_to_json(y) for y in x]
    return None if x is None else rational_to_json(x)


def verdict_to_json(v: ScenarioVerdict) -> dict:
    eq = v.equation
    dec = v.decomposition
    return {
        "scenario": v.scenario,
        "class": {
            "kind": v.solenoid.kind,
            "infinite_primes": list(v.solenoid.infinite_primes),
            "automorphisms": v.solenoid.automorphism_note,
        },
        "coefficients": [rational_to_json(c) for c in v.coefficients],
        "coefficients_valid": v.coefficients_valid,
        "equation": None if eq is None else {
            "verdict": eq.verdict,
            "witness": _maybe_rational(eq.witness),
            "degenerate": eq.degenerate,
            "note": eq.note,
        },
        "decomposition": None if dec is None else {
            "kind": dec.kind,
            "shift": _maybe_rational(dec.shift),
            "sigma": _maybe_rational(dec.sigma),
            "subgroup": None if dec.subgroup is None else subgroup_to_json(dec.subgroup),
            "p_invariant": dec.p_invariant,
            "reason": dec.reason,
            "witness": _maybe_rational(dec.witness),
        },
        "conclusion": v.conclusion,
    }


def bundle_to_json(bundle: CounterexampleBundle, spec: SteinitzSpec) -> dict:
    """The bundle over the solenoid it was built on: its law, cf and verdict."""
    return {
        "base_prime": bundle.base_prime,
        "partner_prime": bundle.partner_prime,
        "mixing_weight": rational_to_json(bundle.mixing_weight),
        "sigma": rational_to_json(bundle.sigma),
        "solenoid": spec_to_json(spec),
        "cf": cf_to_json(bundle.cf),
        "law": law_to_json(bundle.sampler),
        **verdict_to_json(bundle.verdict),
    }


def dump_stable(obj) -> str:
    """Canonical JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
