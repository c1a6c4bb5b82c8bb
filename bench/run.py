"""Benchmark of the lieboxford batch verifier.

    python3 bench/run.py --workload verify_suite --seed 20240801 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 7

Runs one workload (or ``all`` three in turn) from a source checkout: no
install, the package is imported from ``src/``.  A pass is one process of
``bench/workload.py``, with BLAS/OpenMP threads pinned to 1 and ``--jobs 1``,
as a user runs the CLI; passes repeat until ``--seconds`` have elapsed.
Every pass of a run works on the same inputs, made from the seed, and must
write the same report bytes as the first.  Set-up (interpreter start and
package import) is timed from here, for every pass and for SETUP_PROBES
more processes that stop after set-up; ``setup_s`` is the median.  ``wall_s`` is the median pass time,
``items_per_s`` the items of all passes over their time, ``peak_rss_mb`` the
median peak resident memory of a pass process.

With ``--trace 0`` the result carries the end-to-end metrics listed in
BENCHMARK.json; with ``--trace 1`` the per-layer metrics of a traced run.
Every metric is printed with its unit, then the run's environment as one
JSON line, then the result as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``failed / attempted`` is the workload's fail fraction: non-zero exit codes,
crashed commands (NonConvergence included), violated proven verdicts and
outputs that differ from the committed reference.  The exit code is 0 when
every output was correct, 1 otherwise, 2 when the checkout holds no
``src/lieboxford`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import DEFAULT_SEED, WORKLOADS, diff_lines, report_names

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 2
TIMEOUT_S = 170.0  # per workload; a run must end within 180 s
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class BenchError(RuntimeError):
    pass


def _child(args: list[str], deadline: float, env: dict) -> tuple[float, dict]:
    """Run one workload.py process; returns (its set-up seconds, its result)."""
    cmd = [sys.executable, str(BENCH / "workload.py")] + args
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process timed out: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}: {' '.join(args)}")
    result = json.loads(out.strip().splitlines()[-1])
    return result["setup_end"] - start, result


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """Set-up probes, then passes until ``seconds`` have elapsed; returns the result."""
    deadline = time.monotonic() + TIMEOUT_S
    env = dict(os.environ, **THREAD_PINS)
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed), "--size", size, "--work", str(work)]
    setups, passes, problems = [], [], []
    try:
        for _ in range(0 if trace else SETUP_PROBES):  # a traced run reports no setup_s
            setups.append(_child(common, deadline, env)[0])
        first = work / "pass0"
        start = time.monotonic()
        while True:
            k = len(passes)
            out = work / f"pass{k}"
            args = common + ["--out", str(out)]
            if trace and k % 2 == 1:  # traced passes alternate with untraced ones
                args.append("--traced")
            setup, result = _child(args, deadline, env)
            setups.append(setup)
            problems += result.pop("problems")
            if k > 0:  # traced or not, every pass must write the first pass's bytes
                names = sorted(set(report_names(first)) | set(report_names(out)))
                drift = diff_lines(first, out, names)
                if drift:
                    problems.append(f"pass {k} reports differ from pass 0 on {drift} lines")
                    result["failed"] += drift
            passes.append(result)
            if time.monotonic() - start >= seconds and (not trace or len(passes) % 2 == 0):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    if trace:
        layers = [p["layers"] for p in passes if p["traced"]]
        metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        metrics["trace.wall_s"] = statistics.median(p["wall_s"] for p in passes if p["traced"])
        # each traced pass against the untraced pass just before it
        metrics["trace.overhead_frac"] = statistics.median(
            t["wall_s"] / u["wall_s"] - 1.0 for u, t in zip(passes[::2], passes[1::2])
        )
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "items_per_s": sum(p["items"] for p in plain) / sum(p["wall_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    env_record = dict(passes[0]["env"], git_sha=_git_sha(), workload=workload, seed=seed)
    return {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": problems,
        "metrics": metrics,
        "env": env_record,
        "setup_samples_s": setups,
        "pass_wall_s": [p["wall_s"] for p in passes],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lieboxford benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test inputs")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lieboxford" / "__init__.py").is_file():
        print(f"error: no src/lieboxford under {ROOT} to benchmark", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds, args.trace, args.size)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload, result in results.items():
        if set(result["metrics"]) != set(units):
            print(f"error: {workload} metrics differ from BENCHMARK.json", file=sys.stderr)
            return 1
        prefix = f"{workload}." if len(results) > 1 else ""
        for name, value in result["metrics"].items():
            print(f"{workload} {name} = {value:.6g} {units[name]}")
            metrics[prefix + name] = {"value": value, "unit": units[name]}
        share = result["failed"] / result["attempted"] if result["attempted"] else 1.0
        print(f"{workload} fail_fraction = {result['failed']}/{result['attempted']} = {share:.6g}")
        for problem in result["problems"]:
            print(f"{workload} MISMATCH {problem}")
        correct = correct and result["failed"] == 0 and result["attempted"] > 0 and not result["problems"]
        attempted += result["attempted"]
        failed += result["failed"]
        print(json.dumps({k: result[k] for k in ("env", "setup_samples_s", "pass_wall_s")}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
