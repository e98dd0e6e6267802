"""Smoke test for benchmarks/bench_kernels.py: a CI-sized run must hold
both numpy kernels to the python oracle and write a record its own
--check accepts; --check must reject a diverged kernel, a full run under
the speedup gate and a record that does not name its host."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH = REPO_ROOT / "benchmarks" / "bench_kernels.py"


def _run(*args, **env):
    environ = dict(os.environ)
    environ["PYTHONPATH"] = (str(REPO_ROOT / "src") + os.pathsep
                             + environ.get("PYTHONPATH", ""))
    environ.update(env)
    return subprocess.run([sys.executable, str(BENCH), *map(str, args)],
                          capture_output=True, text=True, env=environ,
                          timeout=300)


@pytest.fixture(scope="module")
def smoke_record(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_kernels") / "BENCH_kernels.json"
    run = _run("--smoke", "--out", out)
    assert run.returncode == 0, run.stderr
    return json.loads(out.read_text())


def _check(tmp_path, record):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    return _run("--check", path)


def test_smoke_emits_well_formed_json(tmp_path, smoke_record):
    assert smoke_record["benchmark"] == "bench_kernels"
    assert smoke_record["smoke"] is True
    assert smoke_record["workload"]["width"] == 96
    assert smoke_record["host"]["cpu_count"] == os.cpu_count()
    for name in ("sweep", "session"):
        assert smoke_record[name]["parity"] is True
        assert smoke_record[name]["speedup"] > 0.0
    check = _check(tmp_path, smoke_record)
    assert check.returncode == 0, check.stderr


def test_check_rejects_parity_failure(tmp_path, smoke_record):
    for name in ("sweep", "session"):
        record = json.loads(json.dumps(smoke_record))
        record[name]["parity"] = False
        check = _check(tmp_path, record)
        assert check.returncode == 1
        assert f"{name}.parity must be true" in check.stderr


def test_check_gates_speedup_on_full_runs_only(tmp_path, smoke_record):
    record = json.loads(json.dumps(smoke_record))
    record["session"]["speedup"] = 2.5
    assert _check(tmp_path, record).returncode == 0
    record["smoke"] = False
    check = _check(tmp_path, record)
    assert check.returncode == 1
    assert "session.speedup 2.50x is below the 3.0x gate" in check.stderr


def test_check_rejects_malformed_payload(tmp_path, smoke_record):
    record = dict(smoke_record)
    del record["host"]
    check = _check(tmp_path, record)
    assert check.returncode == 1
    assert "host block missing" in check.stderr
    check = _check(tmp_path, {"benchmark": "bench_kernels"})
    assert check.returncode == 1
    assert "sweep block missing" in check.stderr
    check = _check(tmp_path, [smoke_record])
    assert check.returncode == 1
    assert "must be a JSON object" in check.stderr


def test_says_so_in_one_line_without_numpy(tmp_path):
    run = _run("--smoke", "--out", tmp_path / "never.json",
               REPRO_NO_NUMPY="1")
    assert run.returncode == 1
    assert run.stderr.count("\n") == 1
    assert "numpy" in run.stderr
    assert not (tmp_path / "never.json").exists()
