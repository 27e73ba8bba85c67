"""soladic benchmark: CLI wall time, peak RSS and a verdict gate, plus a traced run per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --smoke

Each workload (see ``workloads.py``) runs the real CLI, ``python -m soladic``,
in a subprocess, one invocation at a time: a closed loop with one client.
Invocations repeat until ``--seconds`` have passed (at least one runs), all
with the same ``--seed``, which the CLI also receives.

``--trace 0`` reports the end-to-end metrics from untraced invocations:

* ``wall_s``: median wall time of one invocation, spawn to exit;
* ``peak_rss_mb``: median peak resident memory of the child, read with
  ``os.wait4`` on its pid so no earlier child's peak carries over;
* ``setup_s``: median time of interpreter start plus ``import soladic.cli``,
  which every invocation pays before doing any work.

``--trace 1`` runs one untraced invocation, then traced ones until the time
is up, each in a fresh interpreter that calls ``soladic.cli.main`` in process
with the wrappers of ``traced.py``; it reports per-layer medians.

Every invocation passes through the gate before its numbers count.  It fails
when its exit code, reported verdict or witness disagrees with the exact
layer (``check_equidistribution``, computed once in set-up), when it
crashes or exceeds ``LIMIT_S``, when its artifacts are incomplete (a CSV
without n rows, a bundle or report without the full coefficient system),
or when its stdout differs from the first stdout of the run, which used
the same seed.  Artifacts are checked whatever the verdict.  ``failed``
counts every failed invocation and ``failed_share`` = failed / attempted is
printed on the line before the result.  ``correct`` is false when any
invocation fails for a reason other than its verdict; a wrong verdict alone
leaves it true and shows in ``failed`` only, so that ``mc_many_coeffs``,
whose Monte Carlo verdict is wrong today, is reported rather than hidden.

Configs and the artifacts the CLI writes beside them live in a temporary
directory inside the checkout, removed on exit.  The last stdout line is the
JSON result; the line before it holds the samples, failure reasons and
machine facts.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

LIMIT_S = 60.0  # per-invocation time limit
SETUP_REPEATS = 7
SMOKE_SETUP_REPEATS = 3

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

# per-layer time metric -> span name; inclusive time of the outermost calls
TIMED = {
    "sampler.sample_s": "sampler.sample",
    "sampler.linear_form_s": "sampler.linear_form",
    "sampler.project_s": "sampler.project",
    "sampler.empirical_cf_s": "sampler.empirical_cf",
    "sampler.kuiper_s": "sampler.kuiper",
    "kernels.cf_sums_s": "kernels.cf_sums",
    "kernels.kuiper_deltas_s": "kernels.kuiper_deltas",
    "serialize.batch_to_csv_s": "serialize.batch_to_csv",
    "serialize.dump_stable_s": "serialize.dump_stable",
    "charfun.precompose_s": "charfun.precompose",
    "charfun.mul_s": "charfun.mul",
    "charfun.build_cf_s": "charfun.build_cf",
    "charfun.compare_s": "charfun.compare",
    "charfun.check_equidistribution_s": "charfun.check_equidistribution",
    "charfun.decompose_s": "charfun.decompose",
    "charfun.positivity_s": "charfun.positivity",
    "cyclotomic.phase_sum_is_zero_s": "cyclotomic.phase_sum_is_zero",
    "steinitz.two_prime_coefficients_s": "steinitz.two_prime_coefficients",
}
# per-layer self time metric -> layer: span durations minus child spans
SELF = {"scenarios.self_s": "scenarios", "cli.self_s": "cli"}
COUNTS = {
    "sampler.sample_calls": "count",
    "sampler.draws": "count",
    "sampler.batch_bytes_peak": "bytes",
    "kernels.cf_sums_ops": "count",
    "kernels.kuiper_points": "count",
    "serialize.csv_bytes": "bytes",
    "charfun.precompose_calls": "count",
    "charfun.distinct_alphas": "count",
    "cyclotomic.calls": "count",
}
PER_LAYER = {
    **{name: "s" for name in TIMED},
    **{name: "s" for name in SELF},
    **COUNTS,
    # distinct combined atoms / atoms of the law; 0 where the workload
    # samples no lattice law
    "sampler.atom_split": "ratio",
    "trace.main_s": "s",  # traced cli.main, in process
    "trace.overhead_s": "s",  # trace.main_s - (untraced wall_s - setup_s)
}


def _require_sources() -> None:
    if not (SRC / "soladic" / "cli.py").is_file():
        sys.exit(f"perfbench: no soladic sources under {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("SOLADIC_SEED", None)
    return env


@dataclass
class Outcome:
    wall_s: float
    rss_mib: float
    exit_code: int | None  # None when killed at the time limit
    stdout: bytes


def spawn(argv: list[str], out_dir: Path, limit: float = LIMIT_S) -> Outcome:
    """Run one child to completion; wall time from spawn to exit, its own peak RSS."""
    out_path, err_path = out_dir / "stdout", out_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env())
        pidfd = os.pidfd_open(proc.pid)
        status = None
        try:
            ready, _, _ = select.select([pidfd], [], [], limit)
            if not ready:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            if status is None:  # interrupted: leave no child behind
                os.kill(proc.pid, signal.SIGKILL)
                os.waitpid(proc.pid, 0)
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(wall, usage.ru_maxrss / 1024, proc.returncode if ready else None, out_path.read_bytes())


def measure_setup(tmp: Path, repeats: int) -> list[float]:
    """Interpreter start plus import of the CLI, after one untimed warm-up."""
    argv = [sys.executable, "-c", "import soladic.cli"]
    times = []
    for i in range(repeats + 1):
        got = spawn(argv, tmp)
        if got.exit_code != 0:
            sys.exit(f"perfbench: `import soladic.cli` failed:\n{(tmp / 'stderr').read_text()}")
        if i:
            times.append(got.wall_s)
    return times


def machine_facts(numpy_version: str) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def count_lines(path: Path) -> int:
    """Newlines in a file, read in blocks so this process stays small."""
    lines = 0
    with open(path, "rb") as f:
        while block := f.read(1 << 20):
            lines += block.count(b"\n")
    return lines


# ---------------------------------------------------------------------------
# the gate


class Session:
    """One workload's config, expected verdict and gate state, in a temp directory.

    This process never imports soladic or numpy: on Linux a child's peak RSS
    includes the peak of the process that spawned it, so the spawner must
    stay smaller than any child it measures.  The exact verdict comes from
    ``workloads.py`` run as a child.
    """

    def __init__(self, workload, seed: int, n: int | None, tmp: Path, flip: bool = False):
        self.workload, self.seed, self.n, self.tmp = workload, seed, n, tmp
        self.config = tmp / f"{workload.name}.json"
        expect = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), workload.name, str(self.config)]
            + ([] if n is None else [str(n)]),
            env=child_env(), capture_output=True, text=True, timeout=LIMIT_S,
        )
        if expect.returncode != 0:
            sys.exit(f"perfbench: exact verdict of {workload.name} failed:\n{expect.stderr}")
        facts = json.loads(expect.stdout)
        self.doc = json.loads(self.config.read_text())
        if not Path(facts["soladic"]).resolve().is_relative_to(SRC):
            sys.exit(f"perfbench: imported soladic from {facts['soladic']}, not {SRC}")
        self.numpy_version = facts["numpy"]
        self.lattice_order = facts["lattice_order"]
        exact = facts["exact"]
        if exact == "unknown":
            sys.exit(f"perfbench: the exact layer cannot decide {workload.name}; nothing to gate against")
        if flip:  # smoke check: the gate must count a flipped expectation as failures
            exact = "fails" if exact == "holds" else "holds"
        self.exact = exact
        self.witness = facts["witness"]
        self.system_size = facts["system_size"]
        self.first_stdout: bytes | None = None
        self.failures: dict[str, int] = {}  # reason -> invocations failing for it
        self.failed = 0  # invocations failing for any reason
        self.outcomes: list[Outcome] = []

    @property
    def cli_args(self) -> list[str]:
        return [self.workload.command, str(self.config), "--seed", str(self.seed)]

    def artifacts(self) -> list[Path]:
        if self.workload.command == "simulate":
            return [self.config.with_suffix(".reference.csv"), self.config.with_suffix(".combined.csv")]
        if self.workload.command == "counterexample":
            return [self.config.with_suffix(".bundle.json")]
        return []

    def invoke(self, argv_prefix: list[str]) -> Outcome:
        for path in self.artifacts():
            path.unlink(missing_ok=True)
        got = spawn(argv_prefix + self.cli_args, self.tmp)
        reasons = self.check(got)
        for reason in reasons:
            self.failures[reason] = self.failures.get(reason, 0) + 1
        self.failed += bool(reasons)
        self.outcomes.append(got)
        return got

    def check(self, got: Outcome) -> list[str]:
        """Failure reasons for one invocation; empty when it passes."""
        if got.exit_code is None:
            return ["timeout"]
        try:
            report = json.loads(got.stdout)
        except ValueError:
            report = None
        if not isinstance(report, dict):
            return ["crash"]
        reasons = []
        if self.first_stdout is None:
            self.first_stdout = got.stdout
        elif got.stdout != self.first_stdout:
            reasons.append("unstable")
        if not self.artifacts_complete(report):
            reasons.append("artifacts")
        if not self.verdict_agrees(report, got.exit_code):
            reasons.append("verdict")
        return reasons

    def artifacts_complete(self, report: dict) -> bool:
        if self.workload.command == "simulate":
            # header + n rows in each CSV
            return all(path.is_file() and count_lines(path) == self.n + 1 for path in self.artifacts())
        if self.workload.command == "counterexample":
            try:
                report = json.loads(self.artifacts()[0].read_text())
            except (OSError, ValueError):
                return False
        return len(report.get("coefficients", ())) == self.system_size

    def verdict_agrees(self, report: dict, exit_code: int) -> bool:
        if self.workload.command == "simulate":
            expected = "consistent" if self.exact == "holds" else "inconsistent"
            return report.get("verdict") == expected and exit_code == (0 if expected == "consistent" else 1)
        equation = report.get("equation") or {}
        if self.workload.command == "check":  # exit code 0 when the identity holds, 1 when it fails
            expected_exit = 0 if self.exact == "holds" else 1
        else:  # counterexample exits 0 once its bundle is written
            expected_exit = 0
        return (equation.get("verdict"), equation.get("witness"), exit_code) == (
            self.exact, self.witness, expected_exit
        )

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def correct(self) -> bool:
        return set(self.failures) <= {"verdict"}


# ---------------------------------------------------------------------------
# per-layer metrics from one trace


def layer_metrics(trace: dict, lattice_order: int | None) -> dict[str, float]:
    spans = trace["spans"]
    duration = [end - start for _, _, start, end in spans]
    covered = [0.0] * len(spans)
    for i, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += duration[i]
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for i, (name, parent, _, _) in enumerate(spans):
        layer = name.split(".")[0]
        self_time[layer] = self_time.get(layer, 0.0) + duration[i] - covered[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][1]
        if parent < 0:  # outermost call of this function
            inclusive[name] = inclusive.get(name, 0.0) + duration[i]
    out = {metric: inclusive.get(span, 0.0) for metric, span in TIMED.items()}
    out.update({metric: self_time.get(layer, 0.0) for metric, layer in SELF.items()})
    out.update({name: trace["counts"][name] for name in COUNTS})
    distinct = trace["distinct_combined"]
    out["sampler.atom_split"] = distinct / lattice_order if lattice_order and distinct else 0.0
    out["trace.main_s"] = trace["main_s"]
    return out


# ---------------------------------------------------------------------------
# one run of one workload


def repeat_until(deadline: float, step) -> None:
    """Closed loop: run step, then again while time is left; at least once."""
    step()
    while time.perf_counter() < deadline:
        step()


def run_workload(workload, seed: int, seconds: float, trace: bool, n: int | None,
                 setup_repeats: int = SETUP_REPEATS, flip: bool = False) -> tuple[dict, dict]:
    """(result, details) for one run; result is the contract's JSON object."""
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        session = Session(workload, seed, n, tmp, flip)
        setup = measure_setup(tmp, setup_repeats)
        setup_s = statistics.median(setup)
        cli = [sys.executable, "-m", "soladic"]
        deadline = time.perf_counter() + seconds
        samples: dict[str, list[float]] = {"setup_s": setup}
        if not trace:
            repeat_until(deadline, lambda: session.invoke(cli))
            samples["wall_s"] = [o.wall_s for o in session.outcomes]
            samples["peak_rss_mb"] = [o.rss_mib for o in session.outcomes]
            values = {
                "wall_s": statistics.median(samples["wall_s"]),
                "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
                "setup_s": setup_s,
            }
            units = END_TO_END
        else:
            untraced = session.invoke(cli)
            trace_path = tmp / "trace.json"
            traced = [sys.executable, str(HERE / "traced.py"), str(trace_path)]
            if session.lattice_order:
                traced += ["--distinct-depth", str(session.doc["simulation"]["depth"])]
            per_trace = []

            def traced_invocation() -> None:
                trace_path.unlink(missing_ok=True)
                session.invoke(traced + ["--"])
                if trace_path.is_file():
                    per_trace.append(layer_metrics(json.loads(trace_path.read_text()), session.lattice_order))

            repeat_until(deadline, traced_invocation)
            if not per_trace:
                sys.exit(f"perfbench: no traced invocation of {workload.name} wrote a trace")
            values = {
                name: (statistics.median_low if name in COUNTS else statistics.median)([t[name] for t in per_trace])
                for name in PER_LAYER
                if name != "trace.overhead_s"
            }
            values["trace.overhead_s"] = values["trace.main_s"] - (untraced.wall_s - setup_s)
            samples["wall_s"] = [untraced.wall_s]
            samples["trace.main_s"] = [t["trace.main_s"] for t in per_trace]
            units = PER_LAYER
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = {
        "correct": session.correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    details = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "n": n,
        "exact_verdict": session.exact,
        "failed_share": {"value": session.failed / session.attempted, "unit": "share"},
        "failures": session.failures,
        "samples": samples,
        "machine": machine_facts(session.numpy_version),
        "benchmark_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return result, details


# ---------------------------------------------------------------------------
# smoke mode


def smoke(workloads: dict) -> int:
    """Tiny n, every workload once per mode: metrics and units, and the gate itself."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in workloads.values():
        for trace in (False, True):
            result, details = run_workload(workload, 0, 0, trace, workload.smoke_n, SMOKE_SETUP_REPEATS)
            print(json.dumps(details))
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{workload.name} trace={int(trace)}: metrics {got} != {wanted[trace]}")
            if not result["correct"]:
                problems.append(f"{workload.name} trace={int(trace)}: malformed output {details['failures']}")
    workload = workloads["mc_lattice"]
    result, details = run_workload(workload, 0, 0, False, workload.smoke_n, SMOKE_SETUP_REPEATS, flip=True)
    if details["failures"] != {"verdict": result["attempted"]} or not result["correct"]:
        problems.append(f"flipped expectation not counted as failures: {details['failures']}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        session = Session(workload, 0, workload.smoke_n, Path(tmp))
        session.invoke([sys.executable, "-c", "pass"])  # exits 0 without a report
        if session.failures != {"crash": 1} or session.correct:
            problems.append(f"a child without a report is not counted as a crash: {session.failures}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny-n self check of metrics and gate")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup in finally blocks
    _require_sources()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.smoke:
        return smoke(WORKLOADS)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    results = []
    for name in names:
        workload = WORKLOADS[name]
        result, details = run_workload(workload, args.seed, args.seconds, bool(args.trace), workload.n)
        print(json.dumps(details))
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{name}.{k}": m for name, r in results for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
