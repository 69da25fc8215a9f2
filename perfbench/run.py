"""Run one signsum benchmark workload and print its metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a signsum checkout; the library is imported from
``src/`` there.  The workload's fixed job list (see workloads.py) is run in
passes, one job at a time in this one process, until ``--seconds`` have
passed.  Every job's output is then checked against an independent
reference, outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics taken from the
spans of the traced passes, and writes those spans to
``perfbench/out/trace-<workload>.jsonl``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import tracing

# One client, one job at a time, no extra threads: keep BLAS on this thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60

END_TO_END = {
    "wall_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms", "setup_s": "s",
    "peak_rss_mb": "MB", "quality_ratio": "ratio",
}
PER_LAYER = {
    "core.double.sums_per_s": "1/s", "core.ext256.sums_per_s": "1/s",
    "core.interval256.sums_per_s": "1/s", "core.small_call_ms": "ms",
    "core.busy_s": "s", "core.calls": "count", "core.sums": "count", "core.refusals": "count",
    "constructions.busy_s": "s", "constructions.calls": "count",
    "constructions.refusals": "count",
    "jsonio.busy_s": "s", "jsonio.calls": "count",
    "balancing.busy_s": "s",
    "balancing.parity.fallback_ms": "ms", "balancing.parity.clustered_ms": "ms",
    "balancing.parity.oblique_ms": "ms", "balancing.parity.fallback.calls": "count",
    "balancing.parity.clustered.calls": "count", "balancing.parity.oblique.calls": "count",
    "balancing.approximate_point_ms": "ms", "balancing.optimal_share": "share",
    "balancing.falsifier.starts_per_s": "1/s",
    "search.busy_s": "s", "search.tight.steps_per_s": "1/s", "search.wide.steps_per_s": "1/s",
    "search.improvement_rate": "1/step",
    "bench.busy_s": "s", "bench.check_s": "s", "trace.overhead_s": "s",
}


def import_signsum():
    """Put the checkout's src/ first on the path; fail if it has no signsum."""
    src = ROOT / "src"
    if not (src / "signsum" / "__init__.py").is_file():
        sys.exit(f"perfbench: no signsum package under {src}; run from a signsum checkout")
    sys.path.insert(0, str(src))
    import signsum

    if Path(signsum.__file__).resolve().parent != src / "signsum":
        sys.exit(f"perfbench: imported signsum from {signsum.__file__}, not from {src}")


def set_up(name: str, seed: int, tiny: bool):
    """Build the workload's inputs from the seed and run one warm-up job per
    group.  The warm-up outputs are discarded."""
    import workloads

    workload = workloads.build(name, seed, tiny)
    for job in workload.warmups:
        with contextlib.suppress(*((job.refusal,) if job.refusal else ())):
            job.run(tracing.NullTracer())
    return workload


def setup_seconds(name: str, seed: int, tiny: bool) -> float:
    """Median wall time of fresh processes that start Python, import signsum,
    build the inputs and run the warm-ups.

    The child prints perf_counter() when its set-up is done; the clock is
    system-wide, so the difference to the parent's start is the set-up time
    (timing the parent's wait would add its polling interval)."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
            "--setup-only"] + (["--tiny"] if tiny else [])
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        child = subprocess.run(argv, check=True, capture_output=True, text=True,
                               timeout=SETUP_TIMEOUT_S)
        samples.append(float(child.stdout) - start)
    return statistics.median(samples)


def _attempt(job, tracer):
    """(output text, detail) of one job, or (None, error message)."""
    try:
        return job.run(tracer)
    except (job.refusal or ()) as exc:
        return f"refused {type(exc).__name__}", None
    except Exception as exc:  # a failed job is counted, the run goes on
        return None, f"{type(exc).__name__}: {exc}"


class Measurement:
    """Timings, outputs and failures of the passes over one job list."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.first = [None] * len(jobs)  # (text, detail) of the first good run
        self.runs = [0] * len(jobs)
        self.bad = [0] * len(jobs)
        self.errors: dict[int, str] = {}
        self.latencies: list[float] = []
        self.walls = {False: [], True: []}
        self.spans: list[list] = []  # one span list per traced pass
        self.check_s = 0.0
        self.facts: list[dict] = []

    def run_pass(self, traced: bool):
        tracer = tracing.Tracer() if traced else tracing.NullTracer()
        outputs = [None] * len(self.jobs)
        times = [0.0] * len(self.jobs)
        boundary = tracing.core_boundary_spans(tracer) if traced else contextlib.nullcontext()
        with boundary:
            start = perf_counter()
            for i, job in enumerate(self.jobs):
                t0 = perf_counter()
                with tracer.job(i):
                    outputs[i] = _attempt(job, tracer)
                times[i] = perf_counter() - t0
            self.walls[traced].append(perf_counter() - start)
        if traced:
            self.spans.append(tracer.spans)
        else:
            self.latencies.extend(times)
        for i, (text, detail) in enumerate(outputs):
            self.runs[i] += 1
            if text is None:
                self._fail(i, 1, detail)
            elif self.first[i] is None:
                self.first[i] = (text, detail)
            elif text != self.first[i][0]:
                self._fail(i, 1, "output differs between passes")

    def _fail(self, i: int, count: int, message: str):
        self.bad[i] += count
        self.errors.setdefault(i, f"{self.jobs[i].group} n={self.jobs[i].n}: {message}")

    def check(self):
        """Check each job's output once; a wrong output fails all its runs."""
        import workloads

        start = perf_counter()
        for i, job in enumerate(self.jobs):
            if self.first[i] is None:
                continue
            text, detail = self.first[i]
            try:
                if job.refusal is not None:
                    workloads.expect(text == f"refused {job.refusal.__name__}",
                                     f"expected {job.refusal.__name__}")
                else:
                    self.facts.append(job.check(text, detail))
            except Exception as exc:  # any error in checking an output fails it
                self._fail(i, self.runs[i] - self.bad[i], f"{type(exc).__name__}: {exc}")
        self.check_s = perf_counter() - start


def measure(workload, seconds: float, trace: bool) -> Measurement:
    """Untraced passes; with ``trace`` every second pass is traced."""
    m = Measurement(workload.jobs)
    start = perf_counter()
    number = 0
    # Start another pass only if a pass of median length still fits.
    while number < (2 if trace else 1) or (
        perf_counter() + statistics.median(m.walls[False] + m.walls[True]) <= start + seconds
    ):
        m.run_pass(traced=trace and number % 2 == 1)
        number += 1
    m.check()
    return m


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(m: Measurement, outcome: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the traced passes, and each layer's share of
    the total self time."""
    busy = defaultdict(float)  # self time by layer
    calls, refusals = defaultdict(int), defaultdict(int)  # by span name, by layer
    sums, core_s = defaultdict(int), defaultdict(float)  # by precision mode
    steps, search_s = defaultdict(int), defaultdict(float)  # tight / wide
    parity = {"fallback": [], "clustered": [], "oblique": []}
    small_core, approx = [], []
    starts = falsifier_s = 0.0
    for spans in m.spans:
        for s, own in zip(spans, tracing.self_times(spans)):
            name, attrs = s[tracing.NAME], s[tracing.ATTRS]
            duration = s[tracing.END] - s[tracing.START]
            layer = tracing.layer_of(name)
            busy[layer] += own
            calls[name] += 1
            if "error" in attrs:
                refusals[layer] += 1
            elif name == "core":
                sums[attrs["mode"]] += 1 << attrs["n"]
                core_s[attrs["mode"]] += duration
                if attrs["n"] <= 12:
                    small_core.append(duration)
            elif name == "balancing.parity":
                parity[attrs["branch"]].append(duration)
            elif name == "balancing.approximate_point":
                approx.append(duration)
            elif name == "balancing.falsifier":
                starts += attrs["starts"]
                falsifier_s += duration
            elif name == "search":
                kind = "tight" if attrs["n"] == 4 else "wide"
                steps[kind] += attrs["steps"]
                search_s[kind] += own

    passes = len(m.spans)
    metrics = {
        "core.small_call_ms": 1e3 * _median(small_core),
        "core.sums": sum(sums.values()) / passes,
        "balancing.approximate_point_ms": 1e3 * _median(approx),
        "balancing.falsifier.starts_per_s": _ratio(starts, falsifier_s),
        "bench.check_s": m.check_s,
        "trace.overhead_s": _median(m.walls[True]) - _median(m.walls[False]),
        "balancing.optimal_share": outcome.get("balancing.optimal_share", 0.0),
        "search.improvement_rate": outcome.get("search.improvement_rate", 0.0),
    }
    for mode in ("double", "ext256", "interval256"):
        metrics[f"core.{mode}.sums_per_s"] = _ratio(sums[mode], core_s[mode])
    for kind in ("tight", "wide"):
        metrics[f"search.{kind}.steps_per_s"] = _ratio(steps[kind], search_s[kind])
    for layer in ("core", "constructions", "jsonio", "balancing", "search", "bench"):
        metrics[f"{layer}.busy_s"] = busy[layer] / passes
    for name in ("core", "constructions", "jsonio"):
        metrics[f"{name}.calls"] = calls[name] / passes
    for layer in ("core", "constructions"):
        metrics[f"{layer}.refusals"] = refusals[layer] / passes
    for branch, durations in parity.items():
        metrics[f"balancing.parity.{branch}_ms"] = 1e3 * _median(durations)
        metrics[f"balancing.parity.{branch}.calls"] = len(durations) / passes
    shares = {layer: t / sum(busy.values()) for layer, t in sorted(busy.items())}
    return metrics, shares


def end_to_end_metrics(m: Measurement, setup_s: float, outcome: dict) -> dict:
    deciles = statistics.quantiles(m.latencies, n=10)
    return {
        "wall_s": statistics.median(m.walls[False]),
        "job_p50_ms": 1e3 * statistics.median(m.latencies),
        "job_p90_ms": 1e3 * deciles[8],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality_ratio": outcome["quality_ratio"],
    }


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(args, workload) -> dict:
    import mpmath
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    sizes = sorted(job.n for job in workload.jobs)
    groups: dict[str, int] = {}
    for job in workload.jobs:
        groups[job.group] = groups.get(job.group, 0) + 1
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "mpmath": mpmath.__version__, "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "size": {"jobs": len(workload.jobs), "n_min": sizes[0], "n_max": sizes[-1],
                 "total_sums": sum(1 << n for n in sizes), "groups": groups},
    }


def run(args) -> dict:
    """Set up, measure and check one workload; returns the result object
    and prints the run's metadata and metrics before it."""
    setup_s = 0.0 if args.trace else setup_seconds(args.workload, args.seed, args.tiny)
    workload = set_up(args.workload, args.seed, args.tiny)
    m = measure(workload, args.seconds, bool(args.trace))
    outcome = workload.summarise(m.facts)
    attempted, failed = sum(m.runs), sum(m.bad)
    meta = run_metadata(args, workload)
    meta.update({
        "pass_s": {"untraced": m.walls[False], "traced": m.walls[True]},
        "job_samples": len(m.latencies), "fail_ratio": failed / attempted,
        "quality_gap": outcome["quality_ratio"] - 1.0,
    })
    if args.trace:
        values, meta["self_share"] = layer_metrics(m, outcome)
        units = PER_LAYER
        tracing.write_spans(BENCH / "out" / f"trace-{args.workload}.jsonl", m.spans)
    else:
        values, units = end_to_end_metrics(m, setup_s, outcome), END_TO_END
    print("meta " + json.dumps(meta))
    for i, message in sorted(m.errors.items()):
        print(f"FAILED job {i}: {message}")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("census", "balance", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small jobs per group (for selfcheck.py)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and exit; used to time set-up in a fresh process")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_signsum()
    if args.setup_only:
        set_up(args.workload, args.seed, args.tiny)
        print(repr(perf_counter()))
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
