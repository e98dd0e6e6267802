"""The end-to-end benchmark: one workload, one seed, one run.

    python3 e2ebench/run.py --workload serve-floor1 --seed 3 --seconds 10 --trace 0

The workloads, and why each exists, are described in ``workloads.py``.

Every measurement runs in a fresh interpreter (this script with
``--child``) under a fixed ``PYTHONHASHSEED`` and ``PYTHONPATH=src``, so
the run's peak RSS, hash order and caches are its own.  ``--trace 0``
starts ``SETUP_SAMPLES - 1`` interpreters that only set up, then the
measured one; ``setup_s`` (process start to the first timed op) is the
median of all their set-up times.  ``--trace 1`` runs the workload
twice, untraced and then traced (``spans.py``), and reports the
per-layer metrics, the span coverage of op wall time and the tracing
overhead (untraced over traced ``ops_per_s``, minus one).  Outputs are
checked against the python oracle after the timed window; a mismatch is
a failed op.  The last stdout line is the JSON result; per-run detail
(host fingerprint, sample counts, verification) goes to ``.bench_out/``
and scratch stores and checkpoints to ``.bench_tmp/``, deleted after
each run.

Every timing metric is taken over the whole window: ``ops_per_s`` is
ops over summed busy time, and latency is the nearest-rank p50 and p90
of every op.  p90 rather than p99 on every workload: batch-syn1 and
query-syn1 complete a few hundred ops per run, too few for a p99 with
ten samples beyond it.  ``error_rate`` (failed over attempted ops) is
printed, and carried by the result's ``attempted``/``failed``.

Every timing -- set-up, latency, busy time -- is in reference-speed
seconds: scaled by host-speed probes run next to it in the same process
(``pace.py``), because the shared host's own speed moves by more than
any bound the benchmark may set.  The unscaled figures and the probes'
unit-time quartiles are printed and kept in the detail file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 3
#: Set-up probes (``pace.py``): every 20 ms, 5 reference units (~0.5 ms).
SETUP_PROBE = (0.02, 5)
#: Fewest samples a reported percentile must have beyond it.
MIN_BEYOND = 10
#: Every run must end within 180 s; the children share this budget.
BUDGET_S = 170.0


class BenchError(Exception):
    """A run that cannot produce a result."""


def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def beyond(count: int, q: float) -> int:
    """Samples above the nearest-rank ``q`` percentile of ``count``."""
    return count - math.ceil(q / 100.0 * count)


# ----------------------------------------------------------------------
# the measured child
# ----------------------------------------------------------------------
def child_main(args) -> dict:
    from pace import NOMINAL_UNIT_S, Pace
    from workloads import WORKLOADS

    pace = Pace()
    pace.start_timer(*SETUP_PROBE)
    recorder = spans = None
    if args.trace:
        import spans

        recorder = spans.SpanRecorder()
        spans.install(recorder)
    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, tmp)
        ready = time.monotonic()
        pace.stop_timer()
        setup_raw_s = ready - args.started - pace.spent
        setup_s = setup_raw_s * NOMINAL_UNIT_S / statistics.fmean(pace.unit_s)
        if args.mode == "setup":
            return {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
        if recorder:
            recorder.start_gc_timer()
        cpu, probing = time.process_time(), pace.spent
        window = workload.run(args.seconds, recorder, pace)
        cpu = time.process_time() - cpu - (pace.spent - probing)
        peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       * 1024 / 1e6)
        latencies, busy = window.scaled()
        ordered = sorted(latencies)
        raw = sorted(op[2] for op in window.ops)
        raw_busy_s = sum(op[3] for op in window.ops)
        result = {"setup_s": setup_s, "setup_raw_s": setup_raw_s,
                  "ops": len(ordered), "busy_s": sum(busy),
                  "ops_per_s": len(ordered) / sum(busy), "cpu_s": cpu,
                  "p50_s": percentile(ordered, 50),
                  "p90_s": percentile(ordered, 90),
                  "raw": {"busy_s": raw_busy_s,
                          "ops_per_s": len(raw) / raw_busy_s,
                          "p50_s": percentile(raw, 50),
                          "p90_s": percentile(raw, 90),
                          "probe_s": pace.spent,
                          "unit_us_quartiles": [
                              1e6 * q for q in statistics.quantiles(
                                  pace.unit_s, n=4)]},
                  "peak_rss_mb": peak_rss_mb, "loop": window.loop}
        if recorder:
            recorder.stop_gc_timer()
            result["layers"] = spans.layer_metrics(recorder)
            result["nesting_problems"] = spans.check_nesting(recorder)[:5]
            result["self_times"] = spans.self_time_table(recorder)
            recorder.dump(str(OUT / f"spans-{args.workload}"
                                    f"-seed{args.seed}.json"))
        checked, mismatched = workload.verify(args.corrupt)
    finally:
        pace.stop_timer()
        shutil.rmtree(tmp, ignore_errors=True)
    result.update(checked=checked, mismatched=mismatched,
                  failed=window.failed + mismatched)
    return result


# ----------------------------------------------------------------------
# the driver-facing parent
# ----------------------------------------------------------------------
def spawn(args, mode: str, trace: int, deadline: float) -> dict:
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}-{mode}{trace}"
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               "--mode", mode, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(trace), "--tmp", str(tmp)]
    command += ["--smoke"] * args.smoke + ["--corrupt"] * args.corrupt
    command += ["--started", repr(time.monotonic())]
    try:
        done = subprocess.run(command, env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(5.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"the {mode} run overran the time budget") from None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"the {mode} run exited with code "
                         f"{done.returncode}")
    return json.loads(lines[-1])


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host() -> dict:
    """Where the run ran: cores, CPU model, versions and commit."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": commit()}


def summarize(args, run: dict) -> None:
    ops = run["ops"]
    print(f"{args.workload} seed {args.seed}: {ops} ops, "
          f"{run['busy_s']:.3f} s busy, ops_per_s {run['ops_per_s']:.2f}, "
          f"failed {run['failed']} (error_rate {run['failed'] / ops:.4f})")
    print(f"latency p50 {1e3 * run['p50_s']:.4f} ms, p90 "
          f"{1e3 * run['p90_s']:.4f} ms ({beyond(ops, 90)} beyond) over "
          f"{ops} samples")
    raw = run["raw"]
    print(f"unscaled: ops_per_s {raw['ops_per_s']:.2f}, p50 "
          f"{1e3 * raw['p50_s']:.4f} ms, p90 {1e3 * raw['p90_s']:.4f} ms; "
          f"probes {raw['probe_s']:.3f} s, unit quartiles "
          f"{[round(q, 1) for q in raw['unit_us_quartiles']]} us")
    print(f"verification: {run['checked']} outputs checked against the "
          f"python oracle, {run['mismatched']} mismatched")
    if beyond(ops, 90) < MIN_BEYOND:
        print(f"WARNING: p90 rests on {beyond(ops, 90)} samples beyond it")


def parent_main(args) -> dict:
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no program sources under {ROOT / 'src'}")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; expected one "
                         f"of {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + BUDGET_S
    print(f"host: {json.dumps(host())}")
    if args.trace:
        plain = spawn(args, "measure", 0, deadline)
        traced = spawn(args, "measure", 1, deadline)
        summarize(args, plain)
        runs = [plain, traced]
        if traced["nesting_problems"]:
            raise BenchError(f"inconsistent span tree: "
                             f"{traced['nesting_problems']}")
        values = dict(traced["layers"])
        values.update(plain["loop"])
        values["proc.cpu_s"] = plain["cpu_s"]
        values["trace.overhead_ratio"] = (plain["ops_per_s"]
                                          / traced["ops_per_s"] - 1.0)
        print("self time inside ops, by span (traced run):")
        wall = sum(total for _, _, total in traced["self_times"])
        for name, calls, total in traced["self_times"]:
            print(f"  {name:<20} {calls:>8} calls {1e3 * total:>12.3f} ms "
                  f"{100 * total / wall:6.2f}%")
        print(f"span coverage of op wall time: "
              f"{100 * values['trace.span_coverage']:.2f}%; tracing "
              f"overhead: {100 * values['trace.overhead_ratio']:.2f}%")
        wanted = spec["per_layer"]
    else:
        samples = 1 if args.smoke else SETUP_SAMPLES
        setups = [spawn(args, "setup", 0, deadline)["setup_s"]
                  for _ in range(samples - 1)]
        run = spawn(args, "measure", 0, deadline)
        setups.append(run["setup_s"])
        summarize(args, run)
        print(f"setup_s: median of {[round(s, 4) for s in setups]}")
        runs = [run]
        values = {"setup_s": statistics.median(setups),
                  "ops_per_s": run["ops_per_s"],
                  "p50_ms": 1e3 * run["p50_s"], "p90_ms": 1e3 * run["p90_s"],
                  "peak_rss_mb": run["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    OUT.mkdir(exist_ok=True)
    detail = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({"host": host(), "runs": runs}, indent=1))
    return {"correct": all(r["mismatched"] == 0 and r["failed"] == 0
                           for r in runs),
            "attempted": sum(r["ops"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in wanted}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and one set-up sample")
    parser.add_argument("--corrupt", action="store_true",
                        help="perturb one output before verification")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--mode", default="measure", help=argparse.SUPPRESS)
    parser.add_argument("--tmp", help=argparse.SUPPRESS)
    parser.add_argument("--started", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child_main(args)))
        return 0
    try:
        result = parent_main(args)
    except BenchError as error:
        print(f"e2ebench: {error}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
