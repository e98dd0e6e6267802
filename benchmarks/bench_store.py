"""The binary graph store vs pickle: write, cold load, warm queries.

Three claims about the ``.ctg`` format (``repro.store``) are measured
and, on full runs, gated, on ``bench_kernels``' wide workload (96
locations a level, thousands of edges a level):

* **write** -- the compact engine's direct store sink
  (``CleaningOptions(output=...)``: the backward sweep's ndarrays are
  written straight into the ``.ctg`` layout) must beat the conventional
  persistence pipeline end to end (engine -> flat tuple materialisation
  -> ``pickle.dump`` -> file);
* **cold load** -- ``load_ctg(path, mmap=True)`` serves a query-ready
  graph view from a cold start at least ``COLD_LOAD_GATE`` times faster
  than unpickling the equivalent ``FlatCTGraph`` (the mmap load is
  O(header + section table); unpickling is O(nodes + edges) tuple
  construction);
* **warm queries** -- a ``QuerySession`` over the mmap-backed view must
  answer a six-query analysis bundle *identically* to one over the
  in-memory graph (``==`` on the python backend, floats within 1e-12
  relative on the numpy backend), at comparable latency:
  ``mmap_query_penalty`` must stay at most ``MMAP_QUERY_PENALTY_GATE``
  on full numpy-backend runs.  Each of ``PAIRED_REPEATS`` repeats times
  both bundles back to back, the arms alternating which goes first, and
  the penalty is the median of the repeats' mmap-over-memory ratios: a
  paired measure, so a shared host's drift between repeats moves both
  arms of a ratio alike, and one slow bundle moves the median of seven
  by one rank only.

``--backend`` picks the cleaning and query backend of both sides: the
python backend holds the mmap answers to ``==``, the numpy backend is
the one the penalty gate is about.  Usage::

    python benchmarks/bench_store.py --backend numpy      # full run
    python benchmarks/bench_store.py --smoke              # CI-sized
    python benchmarks/bench_store.py --check BENCH_store.json

Parity is gated on every record; the write and cold-load gates on full
records only, the penalty gate on full numpy-backend records only.
"""

from __future__ import annotations

import os
import pickle
import statistics
import sys
import tempfile
import time
from typing import List

import harness
from bench_kernels import WIDTH, make_wide_instance
from repro.core.algorithm import BACKENDS, CleaningOptions, build_ct_graph
from repro.queries.session import QuerySession
from repro.store import load_ctg

SCHEMA_VERSION = 3

DURATION, SMOKE_DURATION = 1600, 96
REPEATS, SMOKE_REPEATS = 3, 2
#: Paired repeats of the warm-query bundles, whose median ratio is gated.
PAIRED_REPEATS, SMOKE_PAIRED_REPEATS = 7, 2

#: The full-run gate: a cold mmap load must be at least this much
#: faster than ``pickle.loads`` of the equivalent flat graph.
COLD_LOAD_GATE = 5.0

#: The full numpy-backend gate: warm queries over the mmap view may take
#: at most this multiple of the in-memory graph's time.
MMAP_QUERY_PENALTY_GATE = 1.2


def _bundle(session: QuerySession, names, duration: int):
    """The six-query warm analysis bundle."""
    mid = duration // 2
    return {
        "entropy": session.entropy_profile(),
        "expected": session.expected_visit_counts(),
        "marginal": session.location_marginal(mid),
        "visit": session.visit_probability(names[5]),
        "span": session.span_probability(
            names[7], mid, min(mid + 40, duration - 1)),
        "first": session.first_visit_distribution(names[3]),
    }


def run(args):
    """Execute the comparison; returns the record's own fields."""
    duration = SMOKE_DURATION if args.smoke else DURATION
    repeats = SMOKE_REPEATS if args.smoke else REPEATS
    paired_repeats = SMOKE_PAIRED_REPEATS if args.smoke else PAIRED_REPEATS
    backend = args.backend
    lsequence, constraints, names = make_wide_instance(duration)
    with tempfile.TemporaryDirectory(prefix="bench_store_") as root:
        ctg_path = os.path.join(root, "graph.ctg")
        pickle_path = os.path.join(root, "graph.pickle")

        # -- write: engine -> tuples -> pickle  vs  engine -> .ctg ------
        def pickle_pipeline():
            graph = build_ct_graph(
                lsequence, constraints,
                CleaningOptions(engine="compact", materialize="flat",
                                backend=backend))
            with open(pickle_path, "wb") as handle:
                pickle.dump(graph, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            return graph

        def store_pipeline():
            view = build_ct_graph(
                lsequence, constraints,
                CleaningOptions(engine="compact", backend=backend,
                                output=ctg_path))
            view.close()

        flat = pickle_pipeline()
        store_pipeline()
        pickle_write_seconds, _ = harness.best_of(repeats, pickle_pipeline)
        store_write_seconds, _ = harness.best_of(repeats, store_pipeline)
        pickle_bytes = os.path.getsize(pickle_path)
        ctg_bytes = os.path.getsize(ctg_path)

        # -- cold load: pickle.loads  vs  load_ctg(mmap=True) -----------
        with open(pickle_path, "rb") as handle:
            blob = handle.read()
        pickle_load_seconds, _ = harness.best_of(
            repeats, lambda: pickle.loads(blob))
        cold_views: List[object] = []

        def mmap_load():
            view = load_ctg(ctg_path, mmap=True)
            cold_views.append(view)  # keep alive; closed after timing
            return view

        mmap_load_seconds, _ = harness.best_of(repeats, mmap_load)

        # -- warm queries off the mmap: parity + paired latency ----------
        view = load_ctg(ctg_path, mmap=True)
        graphs = {"memory": flat, "mmap": view}
        seconds = {"memory": [], "mmap": []}
        bundles = {}
        for repeat in range(paired_repeats):
            arms = ("memory", "mmap") if repeat % 2 == 0 else ("mmap",
                                                                "memory")
            for arm in arms:
                started = time.perf_counter()
                bundles[arm] = _bundle(
                    QuerySession(graphs[arm], backend=backend), names,
                    duration)
                seconds[arm].append(time.perf_counter() - started)
        memory_bundle, mapped_bundle = bundles["memory"], bundles["mmap"]
        penalties = [mapped / memory for mapped, memory
                     in zip(seconds["mmap"], seconds["memory"])]
        parity = (view.materialize() == flat
                  and all(harness.agree(memory_bundle[key],
                                        mapped_bundle[key],
                                        exact=backend == "python")
                          for key in memory_bundle))
        view.close()
        for cold in cold_views:
            cold.close()

    return {
        "repeats": repeats,
        "backend": backend,
        "workload": {
            "generator": "bench_kernels wide workload",
            "width": WIDTH,
            "duration": duration,
            "nodes": flat.num_nodes,
            "edges": flat.num_edges,
        },
        "sizes": {
            "ctg_bytes": ctg_bytes,
            "pickle_bytes": pickle_bytes,
            "flat_estimate_bytes": flat.estimate_size_bytes(),
        },
        "write": {
            "pickle_seconds": pickle_write_seconds,
            "store_seconds": store_write_seconds,
            "speedup": pickle_write_seconds / store_write_seconds,
        },
        "cold_load": {
            "pickle_seconds": pickle_load_seconds,
            "mmap_seconds": mmap_load_seconds,
            "speedup": pickle_load_seconds / mmap_load_seconds,
        },
        "warm_queries": {
            "memory_seconds": min(seconds["memory"]),
            "mmap_seconds": min(seconds["mmap"]),
            "penalties": penalties,
            "mmap_query_penalty": statistics.median(penalties),
        },
        "parity": parity,
    }


def validate(record, problems):
    """The store record's schema and gates."""
    problems.expect(record.get("backend") in BACKENDS,
                    f"backend must be one of {BACKENDS}")
    workload = record.get("workload")
    problems.expect(isinstance(workload, dict)
                    and all(isinstance(workload.get(key), int)
                            and workload[key] > 0
                            for key in ("width", "duration", "nodes",
                                        "edges")),
                    "workload must describe width/duration/nodes/edges")
    sizes = record.get("sizes")
    problems.expect(isinstance(sizes, dict)
                    and all(isinstance(sizes.get(key), int)
                            and sizes[key] > 0
                            for key in ("ctg_bytes", "pickle_bytes")),
                    "sizes must record positive ctg_bytes/pickle_bytes")
    write = problems.block(record, "write", ("pickle_seconds",
                                             "store_seconds", "speedup"))
    cold = problems.block(record, "cold_load", ("pickle_seconds",
                                                "mmap_seconds", "speedup"))
    warm = problems.block(record, "warm_queries", ("memory_seconds",
                                                   "mmap_seconds",
                                                   "mmap_query_penalty"))
    problems.expect(warm is None or (
        isinstance(warm.get("penalties"), list) and warm["penalties"]
        and all(isinstance(value, float) and value > 0.0
                for value in warm["penalties"])),
                    "warm_queries.penalties must list each repeat's "
                    "positive mmap-over-memory ratio")
    problems.expect(record.get("parity") is True,
                    "parity must be true: the mmap-served QuerySession "
                    "diverged from the in-memory answers")
    if record.get("smoke") is not False:
        return
    if cold is not None:
        problems.expect(cold["speedup"] >= COLD_LOAD_GATE,
                        f"cold mmap load must be >= {COLD_LOAD_GATE}x "
                        "faster than unpickling (measured "
                        f"{cold['speedup']:.2f}x)")
    if write is not None:
        problems.expect(write["speedup"] > 1.0,
                        "the engine's direct .ctg write must beat the "
                        "engine -> tuples -> pickle pipeline end to end "
                        f"(measured {write['speedup']:.2f}x)")
    if warm is not None and record.get("backend") == "numpy":
        problems.expect(warm["mmap_query_penalty"]
                        <= MMAP_QUERY_PENALTY_GATE,
                        "warm queries over the mmap view must take at most "
                        f"{MMAP_QUERY_PENALTY_GATE}x the in-memory time "
                        f"(measured {warm['mmap_query_penalty']:.2f}x)")


def summary(record):
    workload, sizes = record["workload"], record["sizes"]
    write, cold = record["write"], record["cold_load"]
    warm = record["warm_queries"]
    return (f"{workload['duration']} steps x {workload['width']} locations, "
            f"{workload['edges']} edges, backend {record['backend']}; "
            f".ctg {sizes['ctg_bytes']} B vs pickle {sizes['pickle_bytes']} "
            f"B; write {write['pickle_seconds'] * 1e3:.1f} -> "
            f"{write['store_seconds'] * 1e3:.1f} ms "
            f"({write['speedup']:.2f}x); cold load "
            f"{cold['pickle_seconds'] * 1e3:.1f} -> "
            f"{cold['mmap_seconds'] * 1e3:.2f} ms ({cold['speedup']:.2f}x); "
            f"warm bundle {warm['memory_seconds'] * 1e3:.1f} ms in memory, "
            f"{warm['mmap_seconds'] * 1e3:.1f} ms mapped (penalty, median "
            f"of {len(warm['penalties'])} paired repeats, "
            f"{warm['mmap_query_penalty']:.2f}x), parity ok")


if __name__ == "__main__":
    cli = harness.parser(__doc__)
    cli.add_argument("--backend", choices=BACKENDS, default="python",
                     help="cleaning and query backend of both sides")
    sys.exit(harness.main("store", SCHEMA_VERSION, run, validate, summary,
                          cli))
