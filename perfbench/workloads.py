"""The benchmark's five workloads: generated CLI configs and their exact verdicts.

Each workload drives one CLI command on a config that is generated at run
time.  Two halves of the system are covered:

* the seeded Monte Carlo layer (``simulate``), on an atom-valued law, a
  continuous law, and a law with a 1,737-term coefficient system;
* the exact ``Fraction`` layer (``counterexample`` and ``check``), which
  does no sampling.

The config and the expected verdict of every workload come from the
library, in set-up, by running this file in a child process:

    python3 perfbench/workloads.py NAME CONFIG_PATH [N]

which writes the config to CONFIG_PATH (N overrides the draws per batch)
and prints the exact verdict ``check_equidistribution(law.exact_cf(),
coeffs)``, its witness, the size of the coefficient system, the lattice
order and where soladic and numpy were imported from.  Importing this
module imports no part of soladic, so the benchmark's own process stays
small.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    n: int | None  # Monte Carlo draws per batch; None for the exact workloads
    smoke_n: int | None


# the reason for each workload is its "why" in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc_lattice", "simulate", 1_000_000, 2_000),
        Workload("mc_continuous", "simulate", 1_000_000, 2_000),
        Workload("mc_many_coeffs", "simulate", 10_000, 500),
        Workload("exact_two_prime", "counterexample", None, None),
        Workload("exact_fails", "check", None, None),
    )
}

DEPTH = 4


def _haar_mixture(p: int) -> dict:
    """1/2 haar(v_p >= -1) + 1/2 haar(v_p >= 0): the two-level lattice law."""
    return {
        "kind": "mixture",
        "weights": ["1/2", "1/2"],
        "parts": [
            {"kind": "haar", "subgroup": {str(p): -1}},
            {"kind": "haar", "subgroup": {str(p): 0}},
        ],
    }


def two_prime_system(p: int, q: int) -> list[str]:
    """The library's unit-square coefficient system over the (p, q) solenoid."""
    from soladic.serialize import rational_to_json
    from soladic.steinitz import two_prime_coefficients

    return [rational_to_json(c) for c in two_prime_coefficients(p, q).coefficients]


def config(workload: Workload, n: int | None) -> dict:
    """The CLI config of a workload; n overrides the draws per batch."""
    sim = {"n": n, "depth": DEPTH}
    if workload.name == "mc_lattice":
        return {
            "solenoid": {"2": "inf", "3": "inf"},
            "coefficients": ["2/3", "2/3", "1/3"],
            "distribution": {"law": _haar_mixture(2)},
            "simulation": sim,
        }
    if workload.name == "mc_continuous":
        return {
            "solenoid": {"2": "inf"},
            "coefficients": ["1/2"] * 4,
            "distribution": {"law": {"kind": "gaussian", "sigma": 1}},
            "simulation": sim,
        }
    if workload.name == "mc_many_coeffs":
        return {
            "solenoid": {"3": "inf", "5": "inf"},
            "coefficients": two_prime_system(3, 5),
            "distribution": {"law": _haar_mixture(3)},
            "simulation": sim,
        }
    if workload.name == "exact_two_prime":
        return {"p": 3, "q": 5, "c": "1/2", "sigma": "1/10"}
    if workload.name == "exact_fails":
        # without its last term 1/5^a the system's squares sum below one,
        # so the identity fails and compare probes for a witness
        return {
            "solenoid": {"3": "inf", "5": "inf"},
            "coefficients": two_prime_system(3, 5)[:-1],
            "distribution": {"law": _haar_mixture(3)},
        }
    raise KeyError(workload.name)


def law_and_coefficients(workload: Workload, doc: dict):
    """(sampling law, coefficients) the workload's command works on."""
    from soladic.serialize import law_from_json, rational_from_json, spec_from_json
    from soladic.steinitz import two_prime_coefficients

    if workload.command in ("simulate", "check"):
        spec = spec_from_json(doc["solenoid"])
        law = law_from_json(spec, doc["distribution"]["law"])
        return law, [rational_from_json(c) for c in doc["coefficients"]]
    p, q = doc["p"], doc["q"]
    spec = spec_from_json({str(p): "inf", str(q): "inf"})
    sharp = _haar_mixture(p)
    sharp["weights"] = [doc["c"], str(1 - Fraction(doc["c"]))]
    blurred = {"kind": "convolution", "parts": [{"kind": "gaussian", "sigma": doc["sigma"]}, sharp]}
    law = law_from_json(spec, blurred)
    return law, list(two_prime_coefficients(p, q).coefficients)


def exact_facts(workload: Workload, doc: dict) -> dict:
    """What the gate checks against: the exact layer's verdict ('holds' |
    'fails' | 'unknown'), its witness, and the size of the coefficient system."""
    from soladic.charfun import check_equidistribution
    from soladic.serialize import rational_to_json

    law, coeffs = law_and_coefficients(workload, doc)
    check = check_equidistribution(law.exact_cf(), coeffs)
    witness = None if check.witness is None else rational_to_json(check.witness)
    return {"exact": check.verdict, "witness": witness, "system_size": len(coeffs)}


def lattice_order(workload: Workload, doc: dict) -> int | None:
    """Atoms of the law's depth-DEPTH marginal when it is a Haar mixture, else None.

    The union of the nested Haar fibers is a cyclic group whose order is the
    lcm of the fiber orders.
    """
    from soladic.sampler import HaarAnnihilator, Mixture, fiber_order

    if workload.command != "simulate":
        return None
    law, _ = law_and_coefficients(workload, doc)
    if not isinstance(law, Mixture) or not all(
        isinstance(part, HaarAnnihilator) and not part.E.trivial for part in law.parts
    ):
        return None
    return math.lcm(*(fiber_order(part.E, DEPTH) for part in law.parts))


def main(argv: list[str]) -> int:
    import numpy
    import soladic

    name, path, *n = argv
    workload = WORKLOADS[name]
    doc = config(workload, int(n[0]) if n else None)
    with open(path, "w") as f:
        json.dump(doc, f)
    print(json.dumps({
        **exact_facts(workload, doc),
        "lattice_order": lattice_order(workload, doc),
        "soladic": soladic.__file__,
        "numpy": numpy.__version__,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
