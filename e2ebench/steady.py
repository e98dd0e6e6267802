"""Steadiness report: repeat workloads with different seeds and show spread.

    python3 e2ebench/steady.py --runs 10                  # every workload
    python3 e2ebench/steady.py --workload serve-floor1 --runs 5 --first-seed 11

Each run is ``run.py --workload W --seed S --seconds N --trace 0`` with
seeds ``first-seed .. first-seed + runs - 1``.  For every end-to-end
metric it prints the median and quartiles (``statistics.quantiles(n=4)``)
and the spread, the quartile distance as a share of the median.  A
spread above the metric's bound in ``BENCHMARK.json`` is flagged FAIL,
one above a third of the bound WARN.  Exits 1 on
any FAIL or any incorrect run.  The raw results go to
``.bench_out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=240)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def report(workload: str, results, spec) -> bool:
    """Print the workload's table; True when nothing FAILs."""
    ok = all(r["correct"] and r["failed"] == 0 for r in results)
    print(f"{workload}: {len(results)} runs, "
          f"{'all correct' if ok else 'INCORRECT RUNS'}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        flag = ""
        if spread > bound:
            flag, ok = "FAIL", False
        elif spread > bound / 3:
            flag = "WARN"
        print(f"  {name:<12} median {median:12.4f} {metric['unit']:<4} "
              f"q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:7.4f} "
              f"(bound {bound}) {flag}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    ok = True
    for workload in workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"  seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4f}"
                for k, v in results[-1]["metrics"].items()), flush=True)
        (out / f"steady-{workload}.json").write_text(json.dumps(results))
        ok = report(workload, results, spec) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
