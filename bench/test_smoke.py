"""Smoke tests of the benchmark itself: every workload at a tiny size.

    python3 -m pytest -q bench/test_smoke.py

They check the result contract (last line of standard output), that every
metric name is well formed and listed in BENCHMARK.json with the printed
unit, that the tracer rebinds by-name imports, and that the benchmark fails
without printing a result when the checkout holds no package.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload(workload, trace):
    done = _run("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == listed
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0
    if trace and workload == "certify_batteries":
        assert result["metrics"]["energies.calls"]["value"] == 0


def test_tracer_rebinds_by_name_imports():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        from lieboxford import bounds, energies, explore, numerics
        from tracer import Tracer

        originals = {
            (bounds, "interaction_energies"): energies.interaction_energies,
            (explore, "indirect_energy"): energies.indirect_energy,
            (explore, "verify_bound"): bounds.verify_bound,
            (energies, "integrate_1d"): numerics.integrate_1d,
            (explore, "integrate_1d"): numerics.integrate_1d,
        }
        with Tracer():
            for (module, name), original in originals.items():
                assert getattr(module, name) is not original
                assert getattr(module, name).__wrapped__ is original
        for (module, name), original in originals.items():
            assert getattr(module, name) is original
    finally:
        del sys.path[:2]


def test_fails_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
