"""Smoke test for benchmarks/bench_streaming.py: the bench must run its
CI-sized stream, pass its own memory-bound, bit-equality, row-parity and
shard-identity gates, and emit a well-formed BENCH_streaming.json (the
gates are correctness claims, so unlike the perf numbers they are
asserted even at smoke size; only the row *speedup* gates are
full-run-only)."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH = REPO_ROOT / "benchmarks" / "bench_streaming.py"


def _bench_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO_ROOT / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    env.update(extra)
    return env


def _check(path, env=None):
    return subprocess.run(
        [sys.executable, str(BENCH), "--check", str(path)],
        capture_output=True, text=True, env=env or _bench_env(),
        timeout=60)


def test_smoke_emits_well_formed_json(tmp_path):
    out = tmp_path / "BENCH_streaming.json"
    run = subprocess.run(
        [sys.executable, str(BENCH), "--smoke", "--out", str(out)],
        capture_output=True, text=True, env=_bench_env(), timeout=300)
    assert run.returncode == 0, run.stderr

    payload = json.loads(out.read_text())
    assert payload["benchmark"] == "bench_streaming"
    assert payload["schema_version"] == 4
    assert payload["smoke"] is True
    assert set(payload["host"]) == {"cpu_count", "cpu_model", "python",
                                    "platform"}
    workload = payload["workload"]
    assert workload["duration"] == 2000
    assert workload["window"] == 64
    memory = payload["memory"]
    assert 0 < memory["retained_levels_max"] <= 64
    assert 0 < memory["frontier_states_max"] <= memory["frontier_states_gate"]
    assert memory["checkpoint_bytes"] > 0
    parity = payload["parity"]
    assert parity["filtered_bit_equal"] is True
    assert parity["resume_bit_equal"] is True
    assert parity["finalize_bit_equal"] is True
    assert payload["throughput"]["readings_per_second"] > 0.0

    rows = payload["rows"]
    streams = ["synthetic"]
    try:
        importlib.import_module("numpy")
    except ImportError:
        # The SYN1 stream is simulated, which needs numpy.
        assert rows["syn1"] is None
    else:
        streams.append("syn1")
        assert rows["syn1"]["objects"] == 3
    for name in streams:
        assert rows[name]["estimates_equal"] is True
        assert rows[name]["speedup"] > 0.0
    assert rows["synthetic"]["readings"] == 2000

    shard = payload["shard"]
    assert shard["shards"] == 2
    assert shard["merged_identical"] is True
    assert shard["spawn_seconds"] > 0.0
    assert shard["pool_per_reading_ms"] > 0.0

    # The bench's own --check mode agrees.
    check = _check(out)
    assert check.returncode == 0, check.stderr


def test_rows_run_with_numpy_disabled(tmp_path):
    # The rows need no numpy: with REPRO_NO_NUMPY the whole bench —
    # rows and shard identity included — runs and passes --check.
    out = tmp_path / "BENCH_nonp.json"
    env = _bench_env(REPRO_NO_NUMPY="1")
    run = subprocess.run(
        [sys.executable, str(BENCH), "--smoke", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    payload = json.loads(out.read_text())
    rows = payload["rows"]
    assert rows["numpy_available"] is False
    assert rows["synthetic"]["estimates_equal"] is True
    assert payload["shard"]["merged_identical"] is True
    assert _check(out, env=env).returncode == 0


def _rows_stream(speedup):
    return {"readings": 300, "python_seconds": 0.1, "rows_seconds": 0.01,
            "readings_per_second": 30000.0, "speedup": speedup,
            "estimates_equal": True, "cached_rows": 28}


def _valid_payload():
    return {
        "benchmark": "bench_streaming", "schema_version": 4,
        "host": {"cpu_count": None, "cpu_model": None, "python": "3.12.0",
                 "platform": None},
        "smoke": True,
        "workload": {"duration": 300, "window": 16},
        "memory": {"retained_levels_max": 16, "frontier_states_max": 5,
                   "frontier_states_gate": 240, "checkpoint_bytes": 1},
        "parity": {"filtered_bit_equal": True, "resume_bit_equal": True,
                   "finalize_bit_equal": True},
        "throughput": {"ingest_seconds": 0.1,
                       "readings_per_second": 3000.0},
        "rows": {"numpy_available": True,
                 "synthetic": _rows_stream(10.0),
                 "syn1": dict(_rows_stream(1.7), objects=3)},
        "shard": {"shards": 2, "objects": 4, "readings": 300,
                  "merged_identical": True, "single_seconds": 0.1,
                  "single_per_reading_ms": 0.3, "spawn_seconds": 0.5,
                  "serve_seconds": 0.1, "pool_per_reading_ms": 0.3,
                  "close_seconds": 0.05},
    }


def test_check_rejects_divergence(tmp_path):
    bad = tmp_path / "bad.json"
    payload = _valid_payload()
    payload["memory"]["retained_levels_max"] = 17
    payload["parity"]["resume_bit_equal"] = False
    payload["rows"]["syn1"]["estimates_equal"] = False
    payload["shard"]["merged_identical"] = False
    bad.write_text(json.dumps(payload))
    check = _check(bad)
    assert check.returncode == 1
    assert "retained levels" in check.stderr
    assert "resume_bit_equal" in check.stderr
    assert "rows.syn1.estimates_equal" in check.stderr
    assert "merged_identical" in check.stderr


def test_check_gates_speedup_on_full_runs_only(tmp_path):
    slow = _valid_payload()
    slow["rows"]["synthetic"]["speedup"] = 3.0
    slow["rows"]["syn1"]["speedup"] = 1.1
    path = tmp_path / "slow_smoke.json"
    path.write_text(json.dumps(slow))
    # Smoke runs report the speedups but do not gate them...
    assert _check(path).returncode == 0
    # ...full runs gate them at 4x (synthetic) and 1.3x (SYN1).
    slow["smoke"] = False
    path.write_text(json.dumps(slow))
    check = _check(path)
    assert check.returncode == 1
    assert "rows.synthetic.speedup 3.00x is below the 4.0x gate" \
        in check.stderr
    assert "rows.syn1.speedup 1.10x is below the 1.3x gate" in check.stderr


def test_check_needs_the_syn1_stream_on_full_runs(tmp_path):
    partial = _valid_payload()
    partial["rows"]["syn1"] = None
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(partial))
    assert _check(path).returncode == 0
    partial["smoke"] = False
    path.write_text(json.dumps(partial))
    check = _check(path)
    assert check.returncode == 1
    assert "rows.syn1 is null" in check.stderr
