"""Run one CLI invocation in process with a span around each layer's public functions.

Usage: python3 traced.py TRACE_OUT [--distinct-depth D] -- CLI_ARGS...

The wrappers live here, not in the library: each named function is
replaced by a wrapper in every ``soladic`` module that holds a reference to
it (``cli``, ``scenarios``, ``charfun`` and ``sampler`` import by name), and
``StratifiedCF`` / ``SampleBatch`` methods are wrapped on their classes.
Hot leaf helpers such as ``valuation`` are left alone, so their cost lands
in the calling span's self time.  Spans (name, parent, start, end) and
counts stay in memory and are written to TRACE_OUT as JSON when the
command returns; the command's stdout is left untouched.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from fractions import Fraction

import numpy as np

# (span name, module, attribute path).  The span name's first part is the
# layer; "cli.main" and the scenario entry points are the spans whose self
# time the cli and scenarios layers report.
TARGETS = (
    ("cli.main", "soladic.cli", "main"),
    ("scenarios.two_prime_counterexample", "soladic.scenarios", "two_prime_counterexample"),
    ("scenarios.blurred_counterexample", "soladic.scenarios", "blurred_counterexample"),
    ("steinitz.two_prime_coefficients", "soladic.steinitz", "two_prime_coefficients"),
    ("sampler.sample", "soladic.sampler", "sample"),
    ("sampler.linear_form", "soladic.sampler", "linear_form"),
    ("sampler.project", "soladic.sampler", "SampleBatch.project"),
    ("sampler.empirical_cf", "soladic.sampler", "empirical_cf"),
    ("sampler.kuiper", "soladic.sampler", "kuiper_two_sample"),
    ("kernels.cf_sums", "soladic._kernels", "cf_sums"),
    ("kernels.kuiper_deltas", "soladic._kernels", "kuiper_deltas"),
    ("serialize.batch_to_csv", "soladic.serialize", "batch_to_csv"),
    ("serialize.dump_stable", "soladic.serialize", "dump_stable"),
    ("charfun.precompose", "soladic.charfun", "StratifiedCF.precompose"),
    ("charfun.mul", "soladic.charfun", "StratifiedCF.__mul__"),
    ("charfun.build_cf", "soladic.charfun", "build_cf"),
    ("charfun.compare", "soladic.charfun", "compare"),
    ("charfun.check_equidistribution", "soladic.charfun", "check_equidistribution"),
    ("charfun.decompose", "soladic.charfun", "decompose_gaussian_haar"),
    ("charfun.positivity", "soladic.charfun", "positivity_report"),
    ("cyclotomic.phase_sum_is_zero", "soladic.cyclotomic", "phase_sum_is_zero"),
)

class Tracer:
    """Span and count recorder; one per traced invocation."""

    def __init__(self, distinct_depth: int | None):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.counts = {
            "sampler.sample_calls": 0,
            "sampler.draws": 0,
            "sampler.batch_bytes_peak": 0,
            "kernels.cf_sums_ops": 0,
            "kernels.kuiper_points": 0,
            "serialize.csv_bytes": 0,
            "charfun.precompose_calls": 0,
            "cyclotomic.calls": 0,
        }
        self.alphas: set[Fraction] = set()
        self.live: dict[int, int] = {}  # id(batch) -> bytes, while the batch is alive
        self.live_bytes = 0
        self.distinct_depth = distinct_depth
        self.combined: np.ndarray | None = None  # first combined batch at that depth

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(index)
            spans[index][2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][3] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    # -- counters, run after the span has closed ---------------------------

    def _track(self, batch) -> None:
        """Add a batch to the live set: 8*n bytes until it is garbage."""
        key = id(batch)
        if key in self.live:
            return
        self.live[key] = 8 * batch.n
        self.live_bytes += self.live[key]
        weakref.finalize(batch, self._release, key)
        peak = self.counts["sampler.batch_bytes_peak"]
        self.counts["sampler.batch_bytes_peak"] = max(peak, self.live_bytes)

    def _release(self, key: int) -> None:
        self.live_bytes -= self.live.pop(key)

    def count_sample(self, args, kwargs, batch) -> None:
        self.counts["sampler.sample_calls"] += 1
        self.counts["sampler.draws"] += batch.n
        self._track(batch)

    def count_linear_form(self, args, kwargs, batch) -> None:
        self._track(batch)
        if self.combined is None and batch.depth == self.distinct_depth:
            self.combined = np.array(batch.coords)  # atoms are counted after the command

    def distinct_combined(self) -> int | None:
        """Distinct atoms of the combined batch, on the grid the Kuiper test snaps ties to."""
        from soladic.sampler import _snap

        if self.combined is None:
            return None
        return int(np.unique(_snap(self.combined)).size)

    def count_project(self, args, kwargs, batch) -> None:
        self._track(batch)

    def count_cf_sums(self, args, kwargs, result) -> None:
        self.counts["kernels.cf_sums_ops"] += len(args[0]) * len(args[1])

    def count_kuiper_deltas(self, args, kwargs, result) -> None:
        self.counts["kernels.kuiper_points"] += len(args[0]) + len(args[1])

    def count_csv(self, args, kwargs, text) -> None:
        self.counts["serialize.csv_bytes"] += len(text)

    def count_precompose(self, args, kwargs, result) -> None:
        self.counts["charfun.precompose_calls"] += 1
        self.alphas.add(Fraction(args[1] if len(args) > 1 else kwargs["alpha"]))

    def count_phase_sum(self, args, kwargs, result) -> None:
        self.counts["cyclotomic.calls"] += 1

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind it wherever a soladic module holds it."""
        counters = {
            "sampler.sample": self.count_sample,
            "sampler.linear_form": self.count_linear_form,
            "sampler.project": self.count_project,
            "kernels.cf_sums": self.count_cf_sums,
            "kernels.kuiper_deltas": self.count_kuiper_deltas,
            "serialize.batch_to_csv": self.count_csv,
            "charfun.precompose": self.count_precompose,
            "cyclotomic.phase_sum_is_zero": self.count_phase_sum,
        }
        import soladic.cli  # noqa: F401  (loads every module the CLI uses)

        modules = [m for k, m in sys.modules.items() if k == "soladic" or k.startswith("soladic.")]
        for name, module_name, path in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, counters.get(name))
            if outer:  # a method: the class is the only holder
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self, path: str, main_s: float) -> None:
        doc = {
            "main_s": main_s,
            "spans": self.spans,
            "counts": {**self.counts, "charfun.distinct_alphas": len(self.alphas)},
            "distinct_combined": self.distinct_combined(),
        }
        with open(path, "w") as out:
            json.dump(doc, out)


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1 :]
    trace_out = own[0]
    depth = int(own[own.index("--distinct-depth") + 1]) if "--distinct-depth" in own else None
    tracer = Tracer(depth)
    tracer.install()
    import soladic.cli

    start = time.perf_counter()
    try:
        return soladic.cli.main(cli_args)
    finally:
        main_s = time.perf_counter() - start
        sys.stdout.flush()
        tracer.dump(trace_out, main_s)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
