"""Quick self-check of the benchmark at tiny sizes (well under a minute).

    python3 perfbench/selfcheck.py

From the root of a signsum checkout it asserts that

* every workload in BENCHMARK.json runs, is correct, and prints as its last
  line exactly the declared metrics with their declared units (end-to-end
  with --trace 0, per-layer with --trace 1);
* a deliberately wrong reference is counted as failed jobs, so the checker
  itself can fail;
* without ``src/signsum`` next to it the benchmark exits non-zero and
  prints no result.

Exits 0 when all hold; raises SelfCheckFailed otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


class SelfCheckFailed(Exception):
    pass


def require(condition: bool, message: str):
    if not condition:
        raise SelfCheckFailed(message)


def _run(cwd: Path, workload: str, trace: int):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_declared_metrics(declared: dict):
    for workload in (w["name"] for w in declared["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            require(proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            require(set(result) == {"correct", "attempted", "failed", "metrics"},
                    f"{workload}: result keys {sorted(result)}")
            require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                    f"{workload} trace={trace}: {proc.stdout}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expected = {m["name"]: m["unit"] for m in declared[kind]}
            require(units == expected, f"{workload} trace={trace}: metrics {units} != {expected}")
            for name, m in result["metrics"].items():
                value = m["value"]
                require(isinstance(value, (int, float)) and math.isfinite(value),
                        f"{workload}: {name} = {value!r}")
            print(f"ok  {workload} trace={trace}: {len(units)} {kind} metrics with units")


def check_wrong_reference_fails():
    """Off-by-one exact census: every job checked against it must fail."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import reference
    import run
    import workloads

    def off_by_one(rows, radius, tolerance):
        hits, min_sq = exact(rows, radius, tolerance)
        return hits + 1, min_sq

    exact = reference.exact_census
    reference.exact_census = off_by_one
    try:
        workload = workloads.build("census", 7, tiny=True)
        m = run.measure(workload, seconds=0.0, trace=False)
    finally:
        reference.exact_census = exact
    failed = sum(m.bad)
    exact_checked = sum(job.n <= 12 and job.group in ("random", "orthomult", "tight")
                        for job in workload.jobs)
    require(failed >= exact_checked > 0,
            f"wrong reference: {failed} failed jobs, expected at least {exact_checked}")
    print(f"ok  wrong reference counted: fail_ratio {failed}/{sum(m.runs)}")


def check_bare_directory_refuses():
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(bare, "census", 0)
    require(proc.returncode != 0 and not proc.stdout.strip(),
            f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok  bare directory: exit {proc.returncode}, no result")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_declared_metrics(declared)
    check_wrong_reference_fails()
    check_bare_directory_refuses()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
