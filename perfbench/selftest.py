"""Tests of the benchmark itself (not of pdmorse); not collected by a bare ``pytest``.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

Each workload runs at its smoke size: ``--seconds 1`` is one warm-up op plus
one timed block, and one traced block: one op, or one block of models or
levels for asym-sweep and oracle-certify.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(cwd: Path, workload: str, seed: int, trace: int) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def check_schema(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def counters(result: dict) -> dict:
    """Metrics that count work, which must repeat exactly for one seed."""
    exact = (".calls", ".unsupported", ".g_evals", ".matrix_bytes", ".csv_bytes", "supported_frac")
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if name.endswith(exact) or name.startswith("spectrum.roots.")
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    proc, result = bench(ROOT, workload, seed=3, trace=0)
    assert proc.returncode == 0, proc.stderr
    check_schema(result, BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat(workload):
    runs = [bench(ROOT, workload, seed=3, trace=1) for _ in range(2)]
    for proc, result in runs:
        assert proc.returncode == 0, proc.stderr
        check_schema(result, BENCHMARK["per_layer"])
    first, second = (counters(result) for _, result in runs)
    assert first == second
    assert any(v > 0 for v in first.values())


def test_seed_changes_inputs():
    from workloads import draw_asymmetric_model

    assert draw_asymmetric_model(1, 0) == draw_asymmetric_model(1, 0)
    assert draw_asymmetric_model(1, 0) != draw_asymmetric_model(2, 0)
    assert draw_asymmetric_model(1, 0) != draw_asymmetric_model(1, 1)
    a = counters(bench(ROOT, "asym-sweep", seed=3, trace=1)[1])
    b = counters(bench(ROOT, "asym-sweep", seed=4, trace=1)[1])
    assert a != b


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(40)]
    value, label = run.tail(samples)
    assert value == 29.0 and sum(s > value for s in samples) == 10
    assert label.startswith("p75.0")
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench(tmp_path, "asym-sweep", seed=1, trace=0)
    assert proc.returncode != 0
    assert result is None
