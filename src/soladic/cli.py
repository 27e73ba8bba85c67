"""Config-driven command line: classify, check, simulate, solve-coeffs, counterexample.

Each command takes one JSON config file as a positional argument, prints a
canonical report to stdout, and signals its verdict through the exit code:

* 0 - success (equation holds, simulation consistent, or nothing to decide)
* 1 - verdict-negative: the equation fails or the simulation is inconsistent
* 2 - usage or config error, including a coefficient that is not an
  automorphism of the solenoid (``check`` still prints its report first)
  and a ``cf`` that the paper's theorem shows is not positive definite
* 3 - the checker could not decide (verdict unknown)

``--seed`` beats the SOLADIC_SEED environment variable, which beats the
config file.  ``simulate`` alone takes ``--n``, ``--depth`` and ``--alpha``,
which override the config's simulation block.  Artifacts are written next
to the config file, named after it: ``simulate`` writes the two sampled
batches behind its report as CSV, ``<name>.reference.csv`` and
``<name>.combined.csv``, and ``counterexample`` writes its bundle as JSON,
``<name>.bundle.json``.  A config that is not JSON, or whose integers are
too long or whose nesting is too deep to parse, or that repeats a key
within one object, is a config error (exit 2), and so is an artifact that
cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

from .charfun import StratifiedCF
from .errors import ConfigError, PreconditionViolated, SoladicError, SoundnessError, UndecomposedSolution
from .laws import SamplerSpec
from .sampler import monte_carlo_equidist
from .scenarios import ScenarioVerdict, blurred_counterexample, classify_and_conclude, two_prime_counterexample
from .serialize import (
    _int_from_json,
    _rationals_from_json,
    _require_keys,
    cf_from_json,
    cf_to_json,
    dump_stable,
    equidist_report_to_json,
    law_from_json,
    law_to_json,
    rational_from_json,
    rational_to_json,
    spec_from_json,
    spec_to_json,
    subgroup_to_json,
    write_batch_csv,
)
from .steinitz import SteinitzSpec, classify_solenoid, solve_multiplicities

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_CONFIG = 2
EXIT_UNKNOWN = 3


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its key-value pairs, refusing a key given twice."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"config repeats the key {key!r}")
        doc[key] = value
    return doc


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as err:  # bad syntax, huge integers, deep nesting
        raise ConfigError(f"config {path} is not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return doc


def _distribution(spec: SteinitzSpec, doc: dict) -> "StratifiedCF | SamplerSpec":
    dist = doc.get("distribution")
    if not isinstance(dist, dict) or len(dist) != 1 or next(iter(dist)) not in ("cf", "law"):
        raise ConfigError("config.distribution must be {'cf': [...]} or {'law': {...}}")
    if "cf" in dist:
        return cf_from_json(spec, dist["cf"], "distribution.cf")
    return law_from_json(spec, dist["law"], "distribution.law")


def _simulation_block(doc: dict) -> dict:
    sim = doc.get("simulation", {})
    if not isinstance(sim, dict):
        raise ConfigError("config.simulation must be an object")
    _require_keys(sim, set(), {"n", "depth", "charset", "seed", "alpha"}, "config.simulation")
    return sim


def _resolve_seed(args, sim: dict) -> int:
    env = os.environ.get("SOLADIC_SEED")
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    elif env is not None:
        try:
            seed, source = int(env), "SOLADIC_SEED"
        except ValueError:
            raise ConfigError(f"SOLADIC_SEED must be an integer, got {env!r}") from None
    elif "seed" in sim:
        seed, source = _int_from_json(sim["seed"], "config.simulation.seed"), "config.simulation.seed"
    else:
        return 0
    if seed < 0:
        raise ConfigError(f"{source} must be a nonnegative integer, got seed {seed}")
    return seed


def _maybe_rational(x) -> "str | list[str] | None":
    """None, a rational, or a pair of rationals (a support's witness) as a list."""
    if isinstance(x, tuple):
        return [rational_to_json(y) for y in x]
    return None if x is None else rational_to_json(x)


def _verdict_to_json(v: ScenarioVerdict) -> dict:
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


def _flatten(prefix: str, obj, rows: list) -> None:
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], rows)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, "" if obj is None else obj))


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(dump_stable(report))
        return
    rows: list = []
    _flatten("", report, rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


# ---------------------------------------------------------------------------
# commands


def cmd_classify(args) -> int:
    doc = _load_config(args.config)
    _require_keys(doc, {"solenoid"}, set(), "config")
    spec = spec_from_json(doc["solenoid"])
    klass = classify_solenoid(spec)
    _emit(
        {
            "command": "classify",
            "solenoid": spec_to_json(spec),
            "class": klass.kind,
            "infinite_primes": list(klass.infinite_primes),
            "automorphisms": klass.automorphism_note,
        },
        args.format,
    )
    return EXIT_OK


def cmd_check(args) -> int:
    doc = _load_config(args.config)
    _require_keys(doc, {"solenoid", "coefficients", "distribution"}, set(), "config")
    spec = spec_from_json(doc["solenoid"])
    coeffs = _rationals_from_json(doc["coefficients"], "config.coefficients")
    dist = _distribution(spec, doc)
    f = dist if isinstance(dist, StratifiedCF) else dist.exact_cf()
    try:
        verdict = classify_and_conclude(spec, coeffs, f)
    except UndecomposedSolution:
        if f is not dist:
            raise  # a law's own cf: a defect of this package, reported with its traceback
        raise ConfigError(
            "distribution.cf is not positive definite: it satisfies the equation under a "
            "unit-square system over a solenoid with at most one unbounded prime, where every "
            "characteristic function that does is a gaussian times a haar indicator, and it is not one"
        ) from None
    report = {"command": "check", "solenoid": spec_to_json(spec), **_verdict_to_json(verdict)}
    _emit(report, args.format)
    if not verdict.coefficients_valid:  # an input error, whatever else was decided
        return EXIT_CONFIG
    if verdict.equation is None or verdict.equation.verdict == "unknown":
        return EXIT_UNKNOWN
    return EXIT_OK if verdict.equation.verdict == "holds" else EXIT_NEGATIVE


def cmd_simulate(args) -> int:
    doc = _load_config(args.config)
    _require_keys(doc, {"solenoid", "coefficients", "distribution"}, {"simulation"}, "config")
    spec = spec_from_json(doc["solenoid"])
    coeffs = _rationals_from_json(doc["coefficients"], "config.coefficients")
    dist = _distribution(spec, doc)
    if isinstance(dist, StratifiedCF):
        raise ConfigError("simulate needs a sampling law; give distribution.law, not distribution.cf")
    sim = _simulation_block(doc)
    n = args.n if args.n is not None else sim.get("n", 100_000)
    n = _int_from_json(n, "simulation n", "a positive integer", least=1)
    depth = args.depth if args.depth is not None else sim.get("depth", 4)
    depth = _int_from_json(depth, "simulation depth", "a nonnegative integer", least=0)
    alpha = args.alpha if args.alpha is not None else sim.get("alpha", 0.01)
    if not isinstance(alpha, (int, float)) or isinstance(alpha, bool):
        raise ConfigError(
            "simulation alpha must be a JSON number, e.g. 0.01; "
            "the significance level is approximate, not an exact rational"
        )
    charset = sim.get("charset")
    if charset is not None:
        charset = _rationals_from_json(charset, "simulation.charset")
    seed = _resolve_seed(args, sim)

    try:
        report = monte_carlo_equidist(dist, coeffs, n=n, depth=depth, charset=charset, seed=seed, alpha=alpha)
    except (ValueError, MemoryError) as err:  # alpha, the coefficients or the law out of range, or n beyond memory
        raise ConfigError(str(err)) from None

    # Drop the batches behind the report beside the config, so the CSVs hold
    # the very draws the printed statistics were computed on; a run that
    # cannot write them all leaves none of them behind.
    base = Path(args.config)
    ref_path = base.with_suffix(".reference.csv")
    comb_path = base.with_suffix(".combined.csv")
    written = []
    for path, batch in ((ref_path, report.reference), (comb_path, report.combined)):
        try:
            write_batch_csv(batch, path)
        except OSError as err:
            for done in written:
                done.unlink(missing_ok=True)
            raise ConfigError(f"cannot write artifact {path}: {err}") from None
        written.append(path)

    out = {
        "command": "simulate",
        "solenoid": spec_to_json(spec),
        "artifacts": {"reference": ref_path.name, "combined": comb_path.name},
        **equidist_report_to_json(report),
    }
    _emit(out, args.format)
    return EXIT_OK if report.verdict == "consistent" else EXIT_NEGATIVE


def cmd_solve_coeffs(args) -> int:
    doc = _load_config(args.config)
    _require_keys(doc, {"p", "l"}, set(), "config")
    p = _int_from_json(doc["p"], "config.p")
    length = _int_from_json(doc["l"], "config.l")
    try:
        table = solve_multiplicities(p, length)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    _emit(
        {
            "command": "solve-coeffs",
            "p": p,
            "l": length,
            "count": len(table),
            "solutions": [list(k) for k in table],
        },
        args.format,
    )
    return EXIT_OK


def cmd_counterexample(args) -> int:
    doc = _load_config(args.config)
    _require_keys(doc, {"p", "q", "c"}, {"sigma", "solenoid"}, "config")
    p = _int_from_json(doc["p"], "config.p")
    q = _int_from_json(doc["q"], "config.q")
    c = rational_from_json(doc["c"], "config.c")
    sigma = rational_from_json(doc.get("sigma", 0), "config.sigma")
    try:
        if "solenoid" in doc:
            spec = spec_from_json(doc["solenoid"])
        else:
            spec = SteinitzSpec.of({p: float("inf"), q: float("inf")})
        if sigma:
            bundle = blurred_counterexample(spec, p, q, c, sigma)
        else:
            bundle = two_prime_counterexample(spec, p, q, c)
    except (PreconditionViolated, ValueError) as err:
        raise ConfigError(str(err)) from None

    bundle_doc = {
        "base_prime": bundle.base_prime,
        "partner_prime": bundle.partner_prime,
        "mixing_weight": rational_to_json(bundle.mixing_weight),
        "sigma": rational_to_json(bundle.sigma),
        "solenoid": spec_to_json(spec),
        "cf": cf_to_json(bundle.cf),
        "law": law_to_json(bundle.sampler),
        **_verdict_to_json(bundle.verdict),
    }
    bundle_path = Path(args.config).with_suffix(".bundle.json")
    try:
        bundle_path.write_text(dump_stable(bundle_doc))
    except OSError as err:
        raise ConfigError(f"cannot write artifact {bundle_path}: {err}") from None
    _emit({"command": "counterexample", "bundle": bundle_path.name, **bundle_doc}, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soladic",
        description="Exact and Monte Carlo equidistribution checks for laws on a-adic solenoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "classify": (cmd_classify, "Print the solenoid class and its automorphism group."),
        "check": (cmd_check, "Exact functional-equation verdict plus gaussian-times-haar decomposition."),
        "simulate": (cmd_simulate, "Monte Carlo comparison of a law against its coefficient combination."),
        "solve-coeffs": (cmd_solve_coeffs, "Enumerate exponent vectors whose squared coefficients sum to one."),
        "counterexample": (cmd_counterexample, "Build the two-prime mixture bundle and verify it end to end."),
    }
    for name, (fn, help_text) in handlers.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="path to a JSON config file")
        cmd.add_argument("--seed", type=int, default=None, help="RNG seed (beats SOLADIC_SEED and the config)")
        if name == "simulate":
            cmd.add_argument("--n", type=int, default=None, help="sample size override")
            cmd.add_argument("--depth", type=int, default=None, help="tower depth override")
            cmd.add_argument("--alpha", type=float, default=None, help="significance level override")
        cmd.add_argument("--format", choices=("json", "csv"), default="json", help="stdout report format")
        cmd.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SoundnessError:
        raise  # an internal invariant broke; a traceback is the honest report
    except SoladicError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
