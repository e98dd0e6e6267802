"""Self-tests of the benchmark at smoke size.

    python3 e2ebench/selftest.py

Checks that:

* spans nest, each op's self times add up to its wall time, and a span
  closed out of order is refused (``spans.py``, on synthetic calls);
* an op is scaled by the host-speed probes around it (``pace.py``);
* every workload, untraced and traced, prints every metric that
  ``BENCHMARK.json`` names, with its unit, and its outputs pass
  verification;
* a deliberately corrupted output (``--corrupt``) is caught: the run
  reports it as a failed op and ``correct: false``;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  files, the benchmark exits non-zero without printing a result.

Exits 1 when any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FAILURES = []


def check(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def bench(*args: str, cwd: Path = ROOT):
    """``run.py`` with ``args``; ``(exit code, last stdout line)``."""
    done = subprocess.run(
        [sys.executable, str(cwd / "e2ebench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else ""


def test_spans() -> None:
    recorder = spans.SpanRecorder()
    leaf = recorder.wrap("leaf", lambda: sum(range(1000)))

    def middle():
        leaf()
        leaf()
        return sum(range(5000))

    middle = recorder.wrap("middle", middle)
    for op in range(3):
        span = recorder.begin_op(op)
        middle()
        leaf()
        recorder.end_op(span)
    check(spans.check_nesting(recorder) == [],
          "spans nest and self times add up to each op's wall time")
    table = dict((name, total)
                 for name, _, total in spans.self_time_table(recorder))
    wall = sum(end - start for name, start, end in zip(
        recorder.names, recorder.starts, recorder.ends) if name == spans.OP)
    check(abs(sum(table.values()) - wall) < 1e-9,
          "the self-time table sums to the ops' wall time")
    recorder.ends[1] = recorder.ends[0] + 1.0   # a child outliving its op
    check(spans.check_nesting(recorder) != [],
          "a child span outside its parent is reported")
    outer = recorder.open("outer")
    recorder.open("inner")
    try:
        recorder.close(outer)
        refused = False
    except RuntimeError:
        refused = True
    check(refused, "closing a span out of order is refused")


def test_pace() -> None:
    import pace

    clock = pace.Pace()
    # Probes at 0.1 ms/unit around t = 1 s, and a slow stretch at 2x
    # around t = 5 s: an op at 5 s is scaled by the slow probes only.
    for mid in (0.980, 0.990, 0.995, 1.010, 1.020):
        clock.mids.append(mid)
        clock.unit_s.append(pace.NOMINAL_UNIT_S)
    for mid in (4.980, 4.990, 5.010, 5.020):
        clock.mids.append(mid)
        clock.unit_s.append(2 * pace.NOMINAL_UNIT_S)
    check(clock.scale(1.0, 1.001) == 1.0 and clock.scale(5.0, 5.001) == 0.5,
          "an op is scaled by the host speed of the probes around it")
    start, end = clock.probe(3)
    check(clock.mids[-1] == 0.5 * (start + end) and clock.spent == end - start,
          "a probe records its time and is counted as probing")


def test_workload(name: str, spec: dict) -> None:
    smoke = ["--workload", name, "--seed", "1", "--seconds", "2", "--smoke"]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, line = bench(*smoke, "--trace", str(trace))
        result = json.loads(line) if code == 0 else {}
        metrics = result.get("metrics", {})
        check(code == 0 and set(metrics) == {m["name"] for m in spec[key]}
              and all(metrics[m["name"]]["unit"] == m["unit"]
                      for m in spec[key]),
              f"{name} --trace {trace}: every {key} metric, with its unit")
        check(result.get("correct") is True and result.get("failed") == 0
              and result.get("attempted", 0) >= 1,
              f"{name} --trace {trace}: outputs pass verification")
    code, line = bench(*smoke, "--trace", "0", "--corrupt")
    result = json.loads(line) if code == 0 else {}
    check(result.get("correct") is False and result.get("failed", 0) >= 1,
          f"{name}: a corrupted output is counted as a failure")


def test_bare_directory() -> None:
    bare = ROOT / ".bench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, line = bench("--workload", "serve-floor1", "--seed", "1",
                           "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and not line.startswith("{"),
          "without the program's sources it exits non-zero, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    test_spans()
    test_pace()
    test_bare_directory()
    for workload in spec["workloads"]:
        test_workload(workload["name"], spec)
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
