"""The one harness of the JSON benches: bench_store and bench_streaming.

A bench hands :func:`main` three functions (``run``, ``validate``,
``summary``) and its docstring, and gets the rest: the command line
(``--out/--smoke/--check``), the fields every record carries
(bench name, schema version, creation time, the :func:`host` it ran on,
whether it was a smoke run), a check of the record before it is written,
and the exit code.  Every bench runs the same loop::

    run(args) -> record -> check -> write it (or print the problems, exit 1)

``--check FILE`` runs the same check on a committed record.  Correctness
gates (parity, identity, memory bounds) hold on every record; speed gates
hold on full runs only, because smoke workloads are too small for stable
ratios.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from typing import Callable, Dict, Optional, Sequence

Record = Dict[str, object]


def best_of(repeats: int, call: Callable[[], object]) -> float:
    """The fastest of ``repeats`` calls, in wall-clock seconds."""
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return best


def host() -> Dict[str, object]:
    """The machine a record was measured on; a field is None when unknown."""
    model = None
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_count": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(),
            "platform": platform.platform() or None}


class Problems(list):
    """The failed checks of one record, in order; empty when it passes."""

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.append(message)

    def block(self, record: Record, name: str,
              positive: Sequence[str] = ()) -> Optional[dict]:
        """``record[name]`` when it is a mapping whose ``positive`` fields
        are positive floats; otherwise None, with the problem noted."""
        block = record.get(name)
        if not isinstance(block, dict):
            self.append(f"{name} block missing")
            return None
        bad = [field for field in positive
               if not (isinstance(block.get(field), float)
                       and block[field] > 0.0)]
        if bad:
            self.append(f"{name}: {', '.join(bad)} must be positive floats")
            return None
        return block


def check(record: Record, name: str, schema_version: int,
          validate: Callable[[Record, Problems], None]) -> Problems:
    """The common fields of a record, then the bench's own gates."""
    problems = Problems()
    if not isinstance(record, dict):
        problems.append("a record must be a JSON object")
        return problems
    problems.expect(record.get("benchmark") == f"bench_{name}",
                    f"benchmark must be 'bench_{name}'")
    problems.expect(record.get("schema_version") == schema_version,
                    f"schema_version must be {schema_version}")
    problems.expect(isinstance(record.get("smoke"), bool),
                    "smoke must be a bool")
    problems.expect(_host_ok(record.get("host")),
                    "host block missing or malformed: it needs cpu_count, "
                    "cpu_model, python and platform (null when unknown)")
    validate(record, problems)
    return problems


def _host_ok(machine: object) -> bool:
    if not (isinstance(machine, dict)
            and set(machine) == {"cpu_count", "cpu_model", "python",
                                 "platform"}):
        return False
    count = machine["cpu_count"]
    return ((count is None or (isinstance(count, int) and count > 0))
            and all(machine[key] is None or isinstance(machine[key], str)
                    for key in ("cpu_model", "python", "platform")))


def main(name: str, schema_version: int,
         run: Callable[[argparse.Namespace], Record],
         validate: Callable[[Record, Problems], None],
         summary: Callable[[Record], str], description: str) -> int:
    """Check a record (``--check``), or run the bench, check the record
    and write it.  Exit code 1 when any check fails, else 0.
    ``description`` is the bench's docstring; its first line heads
    ``--help``."""
    cli = argparse.ArgumentParser(description=description.splitlines()[0])
    cli.add_argument("--out", help="where to write the record "
                     "(default BENCH_<name>.json)")
    cli.add_argument("--smoke", action="store_true",
                     help="CI-sized workload: correctness gates only")
    cli.add_argument("--check", metavar="FILE",
                     help="check an existing record and exit")
    args = cli.parse_args()
    if args.check:
        with open(args.check) as handle:
            record = json.load(handle)
        problems = check(record, name, schema_version, validate)
        for problem in problems:
            print(f"{args.check}: {problem}", file=sys.stderr)
        if not problems:
            print(f"{args.check}: ok ({summary(record)})")
        return 1 if problems else 0

    record = {"benchmark": f"bench_{name}", "schema_version": schema_version,
              "created_unix": time.time(), "host": host(),
              "smoke": args.smoke}
    record.update(run(args))
    problems = check(record, name, schema_version, validate)
    for problem in problems:
        print(f"SELF-CHECK: {problem}", file=sys.stderr)
    if problems:
        return 1
    out = args.out or f"BENCH_{name}.json"
    with open(out, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(summary(record))
    print(f"wrote {out}")
    return 0
