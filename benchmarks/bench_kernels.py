"""The numpy level-sweep kernels against the python oracle, on one wide graph.

``repro.core.kernels`` is a second implementation of two sweeps, kept
because it wins on wide graphs: ``backend="auto"`` sends a build or a
query session to numpy from ``KERNEL_MIN_LEVEL_EDGES`` edges a level.
This bench is the measurement behind keeping it.  The workload has
``WIDTH`` candidate locations at every step, so each edge level carries
thousands of edges (~9.2k at full size):

* **sweep** -- the compact engine's backward survival sweep, python vs
  numpy, timed by ``CleaningStats.sweep_seconds`` (the slice the kernel
  replaces; tuple materialisation is the same python on both sides).
  The two flat graphs must be ``==``, stats counters included.
* **session** -- a six-query bundle (entropy profile, expected visits, a
  marginal, visit and span probabilities, the max-product suffix pass)
  on a python ``QuerySession`` vs a numpy one over the same warm
  ``GraphViews``.  The answers must agree under the tolerance gate of
  ``docs/perf.md``.  Building the views is timed apart, because a session
  builds them once and serves every later query from them.

Parity is gated on every run; full runs also gate both speedups at
``SPEEDUP_GATE``.  Needs numpy (the ``repro[numpy]`` extra)::

    python benchmarks/bench_kernels.py                 # full run
    python benchmarks/bench_kernels.py --smoke         # CI-sized
    python benchmarks/bench_kernels.py --check BENCH_kernels.json
"""

from __future__ import annotations

import sys
import time

import harness
from repro.core import kernels
from repro.core.algorithm import CleaningOptions, build_ct_graph
from repro.core.constraints import ConstraintSet, Unreachable
from repro.core.lsequence import LSequence
from repro.queries.session import QuerySession

SCHEMA_VERSION = 1

WIDTH = 96
DURATION, SMOKE_DURATION = 1600, 96
REPEATS, SMOKE_REPEATS = 3, 2

#: Full runs fail when either kernel is less than this many times faster
#: than the python sweep it replaces.
SPEEDUP_GATE = 3.0


def make_wide_instance(duration: int, width: int = WIDTH):
    """``(l-sequence, constraints, location names)``: wide levels, mild
    pruning.  Weights vary with position and time, so no level is
    uniform; the two DU constraints prune without narrowing a level."""
    names = [f"L{i:02d}" for i in range(width)]
    rows = []
    for tau in range(duration):
        weights = [1.0 + ((i * 7 + tau * 3) % 13) / 13.0
                   for i in range(width)]
        total = sum(weights)
        rows.append({name: w / total for name, w in zip(names, weights)})
    constraints = ConstraintSet([Unreachable(names[0], names[1]),
                                 Unreachable(names[2], names[3])])
    return LSequence(rows), constraints, names


def session_bundle(session: QuerySession, names, duration: int):
    """Every sweep the session kernels replace, once.  The suffix pass is
    asked for directly: ``top_k_trajectories`` would add a heap search
    that is python on both backends.  One suffix row pins the pass, which
    is bit-exact."""
    mid = duration // 2
    return {
        "entropy": session.entropy_profile(),
        "expected": session.expected_visit_counts(),
        "marginal": session.location_marginal(mid),
        "visit": session.visit_probability(names[5]),
        "span": session.span_probability(
            names[7], mid, min(mid + 40, duration - 1)),
        "suffix_head": list(session._best_suffixes()[0]),
    }


def run(args):
    if not kernels.numpy_available():
        raise SystemExit("bench_kernels: numpy is missing or disabled by "
                         "REPRO_NO_NUMPY; install the repro[numpy] extra")
    duration = SMOKE_DURATION if args.smoke else DURATION
    repeats = SMOKE_REPEATS if args.smoke else REPEATS
    lsequence, constraints, names = make_wide_instance(duration)

    def sweep(backend):
        options = CleaningOptions(engine="compact", materialize="flat",
                                  backend=backend)
        return harness.best_of(
            repeats, lambda: build_ct_graph(lsequence, constraints, options),
            seconds=lambda graph: graph.stats.sweep_seconds)

    sweep_python, oracle = sweep("python")
    sweep_numpy, vectorized = sweep("numpy")

    started = time.perf_counter()
    views = kernels.GraphViews(oracle)
    for tau in range(duration - 1):
        views.edge_level(tau)
    for tau in range(duration):
        views.level_lids(tau)
    views.source
    view_build_seconds = time.perf_counter() - started

    def numpy_session():
        session = QuerySession(oracle, backend="numpy")
        session._views = views
        return session_bundle(session, names, duration)

    session_python, expected = harness.best_of(
        repeats, lambda: session_bundle(QuerySession(oracle, backend="python"),
                                        names, duration))
    session_numpy, answers = harness.best_of(repeats, numpy_session)
    return {
        "workload": {"width": WIDTH, "duration": duration,
                     "repeats": repeats, "edges": oracle.num_edges,
                     "edges_per_level": oracle.num_edges / (duration - 1)},
        "sweep": {"python_seconds": sweep_python,
                  "numpy_seconds": sweep_numpy,
                  "speedup": sweep_python / sweep_numpy,
                  "parity": (vectorized == oracle
                             and vectorized.stats == oracle.stats)},
        "session": {"python_seconds": session_python,
                    "numpy_seconds": session_numpy,
                    "view_build_seconds": view_build_seconds,
                    "speedup": session_python / session_numpy,
                    "parity": all(harness.agree(expected[key], answers[key],
                                                exact=False)
                                  for key in expected)},
    }


def validate(record, problems):
    workload = record.get("workload")
    problems.expect(isinstance(workload, dict)
                    and all(isinstance(workload.get(key), int)
                            and workload[key] > 0
                            for key in ("width", "duration", "edges"))
                    and isinstance(workload.get("edges_per_level"), float),
                    "workload must record width, duration and edges")
    for name in ("sweep", "session"):
        block = problems.block(record, name, ("python_seconds",
                                              "numpy_seconds", "speedup"))
        if block is None:
            continue
        problems.expect(block.get("parity") is True,
                        f"{name}.parity must be true: the numpy {name} "
                        "diverged from the python oracle")
        if record.get("smoke") is False:
            problems.expect(block["speedup"] >= SPEEDUP_GATE,
                            f"{name}.speedup {block['speedup']:.2f}x is "
                            f"below the {SPEEDUP_GATE}x gate")


def summary(record):
    workload = record["workload"]
    return (f"{workload['width']} locations x {workload['duration']} steps, "
            f"{workload['edges_per_level']:.0f} edges a level; " + "; ".join(
                f"{name} {record[name]['python_seconds'] * 1e3:.1f} -> "
                f"{record[name]['numpy_seconds'] * 1e3:.1f} ms "
                f"({record[name]['speedup']:.2f}x, parity ok)"
                for name in ("sweep", "session")))


if __name__ == "__main__":
    sys.exit(harness.main("kernels", SCHEMA_VERSION, run, validate, summary,
                          harness.parser(__doc__)))
