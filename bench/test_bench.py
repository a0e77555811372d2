"""Self-test of the benchmark: every workload at a tiny size, both modes.

    python3 -m pytest -q bench/test_bench.py

Checks that each run passes its correctness gates and prints every
metric that BENCHMARK.json names, with its unit; that the gates reject
broken outputs; and that the command fails cleanly without the package.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    for name, v in result["metrics"].items():
        assert math.isfinite(v["value"]), name
        if not trace:
            assert v["value"] > 0, name


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "sessions", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def dq():
    return run.load_package()


def test_sweep_gate_rejects_reordered_schemes(dq, tmp_path):
    w = workloads.Sweep(dq, 1, tmp_path)
    inp = w.canonical_input()
    curves = w.run(inp[1])
    reference = workloads.load_reference()["sweep"]
    assert w.check(inp, curves, reference) == []
    swapped = [curves[0], curves[1], curves[3], curves[2], *curves[4:]]
    assert w.check(inp, swapped, reference)
    bumped = [dataclasses.replace(curves[0], rate=tuple(r * (1 + 1e-6) for r in curves[0].rate)), *curves[1:]]
    assert any("reference" in p for p in w.check(inp, bumped, reference))


def test_session_gate_rejects_wrong_secure_bits(dq, tmp_path):
    w = workloads.Sessions(dq, 1, tmp_path)
    inp = w.canonical_input()
    result = w.run(inp[1])
    reference = workloads.load_reference()["sessions"]
    assert w.check(inp, result, reference) == []
    key = dataclasses.replace(result.key, secure_bits=result.key.secure_bits + 1)
    assert w.check(inp, dataclasses.replace(result, key=key), reference)


def test_cli_gate_rejects_bad_output():
    assert workloads.check_cli_output("session", b"{}")
    assert workloads.check_cli_output("infer", b"not json")
    assert workloads.check_cli_output("curve", b"loss_db,a\n0,1\n")


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
