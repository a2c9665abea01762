"""The benchmark's own test: the schema of BENCHMARK.json and of the
result it prints and records, and a smoke run of every workload at the
selftest's scale. Run from the checkout root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
ENV_KEYS = {"python", "numpy", "blas", "thread_env", "cpu_count", "affinity", "cpu_model", "platform"}


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"][0] == "python3" and len(SPEC["command"]) <= 32
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    named = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in named]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def check_result(result: dict, metrics: list):
    """The last stdout line: exactly these keys, every listed metric."""
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert list(result["metrics"]) == [m["name"] for m in metrics]
    for m in metrics:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)


def check_record(record: dict, workload: str, seed: int, trace: int, result: dict):
    """The results file written next to every printed result."""
    assert record["schema"] == "perfbench-result/1"
    assert (record["workload"], record["seed"], record["trace"]) == (workload, seed, trace)
    assert set(record["environment"]) == ENV_KEYS
    assert bool(record["setup_samples_s"]) != bool(trace)  # untraced runs time set-up
    assert all(s > 0 for s in record["setup_samples_s"])
    assert len(record["repetitions"]) == result["attempted"]
    for rep in record["repetitions"]:
        assert {"traced", "wall_s", "steps", "rank1", "digest", "errors"} <= set(rep)
    assert record["missing_boundaries"] == []
    assert record["result"] == result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    seed = 3
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check_result(result, SPEC["per_layer"] if trace else SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] >= (3 if trace else 2)
    path = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    check_record(json.loads(path.read_text(encoding="utf-8")), workload, seed, trace, result)
    if trace:
        spans = ROOT / ".perfbench" / "traces" / f"{workload}-seed{seed}-trace1.jsonl.gz"
        assert spans.stat().st_size > 0


def test_fails_without_the_package(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    cmd = [sys.executable, "perfbench/run.py", "--workload", "recipe", "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_missing_boundary_is_null_not_zero(tmp_path, monkeypatch):
    """A package without the traced functions yields missing metrics."""
    pkg = tmp_path / "hollowpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    for module in {m for m, _, _ in tracing.BOUNDARIES}:
        (pkg / f"{module}.py").write_text("")
    monkeypatch.syspath_prepend(str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install(package="hollowpkg")
    tracer.uninstall()
    assert len(tracer.missing) == len(tracing.BOUNDARIES)
    row = tracing.layer_metrics(tracer, workloads.Outcome(wall_s=1.0, runs=1, distinct_runs=1))
    assert row["numerics.Rng.calls"] is None and row["augment.augment_image.share"] is None
    assert row["train.train_step.p99_ms"] is None and row["analyze.evals_per_module"] is None
    assert row["losses.busy_s"] is None and row["losses.share"] is None
    assert tracing.setup_metrics(tracer)["data.generate_toy.busy_s"] is None


def test_self_time_subtracts_children():
    spans = [("a", 0.0, 10.0, -1, 0, -1), ("b", 1.0, 4.0, 0, 0, -1), ("b", 5.0, 6.0, 0, 0, -1),
             ("a", 2.0, 3.0, 1, 0, -1)]
    stats = tracing.summarize(spans)
    assert stats["a"] == {"calls": 2, "busy_s": 10.0, "self_s": 6.0 + 1.0}
    assert stats["b"] == {"calls": 2, "busy_s": 4.0, "self_s": 2.0 + 1.0}
    assert tracing.group_busy(spans, "b") == 4.0
    assert tracing.count_under(spans, "a", "b") == 1
