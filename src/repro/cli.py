"""Command-line driver: generate data, clean it, query it, run experiments.

Examples::

    rfid-ctg info --dataset syn1 --scale tiny
    rfid-ctg clean --dataset syn1 --scale tiny --constraints DU,LT
    rfid-ctg clean-many --dataset syn1 --scale tiny --workers 4
    rfid-ctg query --dataset syn1 --scale tiny --pattern "? F0_R1[3] ?"
    rfid-ctg experiment --name fig9a --dataset syn1 --scale tiny

The CLI works on the synthetic SYN1/SYN2 datasets (regenerated
deterministically from the seed) — it exists to make the reproduction
explorable without writing Python.

Each command imports the layers it runs when it runs: ``serve --shards N``
starts its workers by re-importing this module, and ``--help`` needs none
of them.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

__all__ = ["main", "build_parser"]

#: The synthetic datasets, named after their builders in
#: :mod:`repro.simulation.datasets`.
_DATASETS = ("syn1", "syn2")


def build_parser() -> argparse.ArgumentParser:
    from repro.core.algorithm import BACKENDS, ENGINES
    from repro.simulation.scales import SCALES

    parser = argparse.ArgumentParser(
        prog="rfid-ctg",
        description="Clean RFID trajectory data by conditioning under "
                    "integrity constraints (EDBT 2014 reproduction).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", choices=_DATASETS, default="syn1",
                       help="synthetic dataset to (re)generate")
        p.add_argument("--scale", choices=sorted(SCALES), default="tiny",
                       help="dataset scale (durations x trajectories)")
        p.add_argument("--seed", type=int, default=17,
                       help="generator seed (datasets are deterministic)")

    info = sub.add_parser("info", help="describe a dataset")
    add_common(info)

    clean = sub.add_parser("clean", help="clean one trajectory and report stats")
    add_common(clean)
    clean.add_argument("--constraints", default="DU,LT,TT",
                       help="comma-separated subset of DU,LT,TT")
    clean.add_argument("--index", type=int, default=0,
                       help="which trajectory of the dataset to clean")
    clean.add_argument("--engine", choices=ENGINES, default="compact",
                       help="cleaning engine: reference is the test "
                            "oracle (both are bit-identical)")
    clean.add_argument("--backend", choices=BACKENDS, default="python",
                       help="sweep backend; builds run the python sweep "
                            "for every value")
    clean.add_argument("--stats", action="store_true",
                       help="also print the construction counters and "
                            "per-phase timings")
    clean.add_argument("--output", default=None, metavar="PATH",
                       help="write the cleaned graph as a binary .ctg "
                            "file (the engine streams its columns "
                            "straight to disk and the reported graph is "
                            "an mmap-backed view of the file)")

    clean_many_cmd = sub.add_parser(
        "clean-many", help="clean a batch of trajectories, optionally in "
                           "parallel worker processes")
    add_common(clean_many_cmd)
    clean_many_cmd.add_argument("--constraints", default="DU,LT,TT",
                                help="comma-separated subset of DU,LT,TT")
    clean_many_cmd.add_argument("--workers", type=int, default=None,
                                help="worker processes (default: CPU count; "
                                     "1 = in-process)")
    clean_many_cmd.add_argument("--chunk-size", type=int, default=None,
                                help="objects per worker task (default: "
                                     "auto)")
    clean_many_cmd.add_argument("--limit", type=int, default=None,
                                help="clean only the first N trajectories")
    clean_many_cmd.add_argument("--engine", choices=ENGINES,
                                default="compact",
                                help="cleaning engine used by the workers")
    clean_many_cmd.add_argument("--backend", choices=BACKENDS,
                                default="python",
                                help="sweep backend; builds run the "
                                     "python sweep for every value")
    clean_many_cmd.add_argument("--timeout", type=float, default=None,
                                metavar="SECONDS",
                                help="per-object wall-clock budget; an "
                                     "object over budget fails with "
                                     "CleaningTimeoutError while its "
                                     "siblings are unaffected (implies "
                                     "per-object tasks)")
    clean_many_cmd.add_argument("--max-retries", type=int, default=1,
                                help="how often an object whose worker "
                                     "crashed is re-attempted before it "
                                     "is quarantined as WorkerCrashError "
                                     "(default: 1)")
    clean_many_cmd.add_argument("--json", dest="json_out", default=None,
                                help="also write a machine-readable summary "
                                     "to this path")

    store_cmd = sub.add_parser(
        "store", help="batch-clean a dataset into a content-addressed "
                      ".ctg graph store (repeat runs are cache hits)")
    add_common(store_cmd)
    store_cmd.add_argument("--root", required=True, metavar="DIR",
                           help="store directory (created if missing)")
    store_cmd.add_argument("--constraints", default="DU,LT,TT",
                           help="comma-separated subset of DU,LT,TT")
    store_cmd.add_argument("--workers", type=int, default=1,
                           help="worker processes (1 = in-process); "
                                "workers write .ctg entries and only "
                                "paths cross the pipe")
    store_cmd.add_argument("--limit", type=int, default=None,
                           help="clean only the first N trajectories")
    store_cmd.add_argument("--engine", choices=ENGINES, default="compact",
                           help="cleaning engine used on cache misses")
    store_cmd.add_argument("--backend", choices=BACKENDS, default="python",
                           help="sweep backend; builds run the python "
                                "sweep for every value")
    store_cmd.add_argument("--list", dest="list_only", action="store_true",
                           help="list the store's entries and exit "
                                "(no cleaning)")

    query = sub.add_parser("query", help="run a stay or trajectory query")
    add_common(query)
    query.add_argument("--constraints", default="DU,LT,TT")
    query.add_argument("--index", type=int, default=0)
    query.add_argument("--pattern", help="trajectory pattern, e.g. '? F0_R1[3] ?'")
    query.add_argument("--at", type=int, help="timestep for a stay query")
    query.add_argument("--engine", choices=ENGINES, default="compact",
                       help="cleaning engine feeding the query (results "
                            "are bit-identical)")
    query.add_argument("--backend", choices=BACKENDS, default="python",
                       help="sweep backend; cleaning and queries run the "
                            "python sweep for every value")
    query.add_argument("--stats", action="store_true",
                       help="print cleaning and query timings")

    experiment = sub.add_parser("experiment", help="run a paper experiment")
    add_common(experiment)
    experiment.add_argument(
        "--name", required=True,
        choices=["fig8a", "fig8b", "fig8c", "fig9a", "fig9b", "fig9c", "size"],
        help="which figure/table of the paper to regenerate")

    analytics = sub.add_parser(
        "analytics", help="MAP route, top-k, uncertainty and visit stats")
    add_common(analytics)
    analytics.add_argument("--constraints", default="DU,LT,TT")
    analytics.add_argument("--index", type=int, default=0)
    analytics.add_argument("--top", type=int, default=3,
                           help="how many most-likely routes to print")

    export = sub.add_parser(
        "export", help="write building / constraints / cleaned graph to disk")
    add_common(export)
    export.add_argument("--constraints", default="DU,LT,TT")
    export.add_argument("--index", type=int, default=0)
    export.add_argument("--out", required=True,
                        help="output directory (created if missing)")

    report = sub.add_parser(
        "report", help="run the full Section 6 evaluation and write a "
                       "Markdown report")
    add_common(report)
    report.add_argument("--out", default="evaluation_report.md",
                        help="where to write the report")
    report.add_argument("--both", action="store_true",
                        help="run SYN1 and SYN2 (default: --dataset only)")

    ql = sub.add_parser(
        "ql", help="run mini-query-language statements on a cleaned graph")
    add_common(ql)
    ql.add_argument("--constraints", default="DU,LT,TT")
    ql.add_argument("--index", type=int, default=0)
    ql.add_argument("--engine", choices=ENGINES, default="compact",
                    help="cleaning engine feeding the statements")
    ql.add_argument("--backend", choices=BACKENDS, default="python",
                    help="sweep backend; cleaning and queries run the "
                         "python sweep for every value")
    ql.add_argument("--stats", action="store_true",
                    help="print the engine and timings")
    ql.add_argument("statements", nargs="+",
                    help="statements like 'STAY 10', 'MATCH ? F0_R1 ?', "
                         "'TOP 3', 'ENTROPY'")

    analyze_cmd = sub.add_parser(
        "analyze", help="pre-flight analysis of constraints and map, and "
                        "with --index exact facts from one build of a "
                        "trajectory's readings")
    add_common(analyze_cmd)
    analyze_cmd.add_argument("--constraints", default="DU,LT,TT",
                             help="comma-separated subset of DU,LT,TT "
                                  "(dataset mode)")
    analyze_cmd.add_argument("--constraints-file",
                             help="analyze a constraints JSON file instead "
                                  "of a dataset's inferred constraints")
    analyze_cmd.add_argument("--building-file",
                             help="optional building JSON accompanying "
                                  "--constraints-file (fixes the location "
                                  "universe)")
    analyze_cmd.add_argument("--index", type=int,
                             help="also analyze the readings of this "
                                  "dataset trajectory (rules C005, C006 "
                                  "and C008; dataset mode)")
    analyze_cmd.add_argument("--strict", action="store_true",
                             help="exit with code 1 when any ERROR "
                                  "diagnostic is present")
    analyze_cmd.add_argument("--advise", action="store_true",
                             help="also run the advisory rule C010 (the "
                                  "materialisation hint; needs --index)")
    analyze_cmd.add_argument("--format", choices=["text", "json"],
                             default="text", help="report rendering")

    lint_cmd = sub.add_parser(
        "lint", help="run the engine-invariant linter (repro.lint, rules "
                     "L001-L009) over source paths")
    lint_cmd.add_argument("paths", nargs="*",
                          help="files or directories to lint (recursively)")
    lint_cmd.add_argument("--format", choices=["text", "json"],
                          default="text", help="report format")
    lint_cmd.add_argument("--select", metavar="CODES",
                          help="comma-separated rule codes to run "
                               "(default: all)")
    lint_cmd.add_argument("--list-rules", action="store_true",
                          help="print the registered rules and exit")

    serve = sub.add_parser(
        "serve", help="long-lived streaming service: ingest line-delimited "
                      "JSON readings for many objects, emit live filtered "
                      "estimates, checkpoint periodically, resume after a "
                      "kill")
    serve.add_argument("--constraints-file", required=True, metavar="PATH",
                       help="constraints JSON (rfid-ctg/constraints@1, as "
                            "written by `rfid-ctg export`)")
    serve.add_argument("--input", default="-", metavar="PATH",
                       help="readings source: a file of JSON lines like "
                            '{"object": "tag1", "candidates": {"A": 0.7, '
                            '"B": 0.3}}, or - for stdin (default)')
    serve.add_argument("--window", type=int, default=64,
                       help="retained-window length per object; older "
                            "levels are evicted into the exact entry "
                            "summary (default: 64)")
    serve.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="directory for per-object .ckpt files "
                            "(enables checkpointing)")
    serve.add_argument("--checkpoint-every", type=int, default=0,
                       metavar="N",
                       help="checkpoint each object every N ingested "
                            "readings (0: only at exit)")
    serve.add_argument("--resume", action="store_true",
                       help="restore every session found in "
                            "--checkpoint-dir before ingesting; already-"
                            "checkpointed readings in the input are "
                            "skipped instead of reingested")
    serve.add_argument("--max-readings", type=int, default=None, metavar="N",
                       help="stop after ingesting N readings (kill "
                            "simulation / smoke tests)")
    serve.add_argument("--no-final-checkpoint", action="store_true",
                       help="skip the exit checkpoint (simulates an "
                            "abrupt kill after the last periodic one)")
    serve.add_argument("--estimate-every", type=int, default=0, metavar="N",
                       help="emit a live estimate line every N readings "
                            "per object (0: only the final lines)")
    serve.add_argument("--stats-every", type=int, default=0, metavar="N",
                       help="emit a throughput/frontier/checkpoint-lag "
                            "stats line on stderr every N ingested "
                            "readings per object, plus per-shard "
                            "summaries and a stats block in the final "
                            "lines (0: off)")
    serve.add_argument("--shards", type=int, default=1, metavar="N",
                       help="partition objects by id hash across N "
                            "worker processes, each with its own "
                            "sessions and shard-NN checkpoint "
                            "subdirectory; stdout is merged in input "
                            "order, byte-identical to --shards 1 "
                            "(default: 1, single process)")
    serve.add_argument("--backend", choices=["auto", "python", "numpy"],
                       default="auto",
                       help="frontier-advance backend: 'auto' and 'numpy' "
                            "run the compact engine's memoised successor "
                            "rows, shared by the fleet (default: auto); "
                            "'python' runs the reference recursion, the "
                            "parity oracle.  Every choice prints the same "
                            "bytes")
    serve.add_argument("--follow", action="store_true",
                       help="tail the --input file for appended lines "
                            "instead of stopping at EOF")
    serve.add_argument("--idle-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="with --follow: exit once no new line arrived "
                            "for this long (default: follow forever)")

    map_cmd = sub.add_parser(
        "map", help="render a floor plan (optionally with a position estimate)")
    add_common(map_cmd)
    map_cmd.add_argument("--floor", type=int, default=0)
    map_cmd.add_argument("--render-scale", type=float, default=1.0,
                         help="metres per character")
    map_cmd.add_argument("--at", type=int,
                         help="also shade the cleaned position at this "
                              "timestep (cleans trajectory --index)")
    map_cmd.add_argument("--constraints", default="DU,LT,TT")
    map_cmd.add_argument("--index", type=int, default=0)
    return parser


def _load_dataset(args: argparse.Namespace, name: Optional[str] = None):
    from repro.simulation.datasets import syn1_dataset, syn2_dataset

    builders = {"syn1": syn1_dataset, "syn2": syn2_dataset}
    return builders[name or args.dataset](scale=args.scale, seed=args.seed)


def _parse_kinds(text: str) -> List[str]:
    kinds = [token.strip().upper() for token in text.split(",") if token.strip()]
    return kinds


def _inferred_constraints(dataset, kinds: Sequence[str]):
    from repro.inference import MotilityProfile, infer_constraints

    return infer_constraints(dataset.building, MotilityProfile(),
                             kinds=kinds, distances=dataset.distances)


def _cleaned_graph(dataset, args, materialize: str = "auto"):
    from repro.core.algorithm import CleaningOptions, build_ct_graph
    from repro.core.lsequence import LSequence

    trajectories = dataset.all_trajectories()
    if not 0 <= args.index < len(trajectories):
        raise SystemExit(f"--index must be in [0, {len(trajectories)})")
    trajectory = trajectories[args.index]
    constraints = _inferred_constraints(dataset,
                                        _parse_kinds(args.constraints))
    lsequence = LSequence.from_readings(trajectory.readings, dataset.prior)
    # Commands without --engine/--backend funnel through here with the
    # defaults (compact engine, python backend); commands that only query
    # clean straight to the flat form.
    options = CleaningOptions(
        engine=getattr(args, "engine", "compact"),
        backend=getattr(args, "backend", "python"),
        materialize=materialize,
        output=getattr(args, "output", None))
    return trajectory, lsequence, build_ct_graph(lsequence, constraints,
                                                 options)


def _command_info(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    building = dataset.building
    print(dataset)
    print(f"building: {building}")
    print(f"grid cells: {dataset.grid.num_cells} "
          f"(cell size {dataset.grid.cell_size} m)")
    print(f"readers: {len(dataset.readers)}")
    for duration in dataset.durations:
        print(f"  duration {duration}: "
              f"{len(dataset.trajectories[duration])} trajectories")
    return 0


def _command_clean(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    trajectory, lsequence, graph = _cleaned_graph(dataset, args)
    print(f"trajectory: duration={trajectory.duration}, ground truth visits "
          f"{len(trajectory.truth.visited_locations())} locations")
    print(f"l-sequence: {lsequence}")
    print(f"ct-graph:  {graph}")
    print(f"valid trajectories represented: {graph.num_valid_trajectories()}")
    print(f"estimated size: {graph.estimate_size_bytes() / 1024:.0f} kB")
    if args.output:
        import os as _os
        print(f"wrote {args.output} "
              f"({_os.path.getsize(args.output)} bytes, mmap-served)")
    truth = tuple(trajectory.truth.locations)
    print(f"conditioned P(ground truth) = "
          f"{graph.trajectory_probability(truth):.3e}")
    if args.stats and graph.stats is not None:
        stats = graph.stats
        print(f"stats: {stats.nodes_kept} nodes / {stats.edges_kept} edges "
              f"kept (of {stats.nodes_created} / {stats.edges_created} "
              "created)")
        print(f"timings: forward {stats.forward_seconds:.4f} s, "
              f"backward {stats.backward_seconds:.4f} s "
              f"(engine: {args.engine})")
    return 0


def _command_clean_many(args: argparse.Namespace) -> int:
    from repro.core.algorithm import CleaningOptions
    from repro.runtime import clean_many

    dataset = _load_dataset(args)
    trajectories = dataset.all_trajectories()
    if args.limit is not None:
        trajectories = trajectories[:max(0, args.limit)]
    if not trajectories:
        print("nothing to clean", file=sys.stderr)
        return 2
    kinds = _parse_kinds(args.constraints)
    constraints = _inferred_constraints(dataset, kinds)
    # Raw readings go in; the workers interpret them through the prior.
    result = clean_many([t.readings for t in trajectories], constraints,
                        options=CleaningOptions(engine=args.engine,
                                                backend=args.backend),
                        workers=args.workers, chunk_size=args.chunk_size,
                        prior=dataset.prior, timeout_seconds=args.timeout,
                        max_retries=args.max_retries)

    print(f"{'#':>4}  {'duration':>8}  {'nodes':>7}  {'edges':>8}  "
          f"{'seconds':>8}  status")
    for trajectory, outcome in zip(trajectories, result):
        if outcome.ok:
            print(f"{outcome.index:>4}  {trajectory.duration:>8}  "
                  f"{outcome.graph.num_nodes:>7}  "
                  f"{outcome.graph.num_edges:>8}  "
                  f"{outcome.seconds:>8.3f}  ok")
        else:
            print(f"{outcome.index:>4}  {trajectory.duration:>8}  "
                  f"{'-':>7}  {'-':>8}  {outcome.seconds:>8.3f}  "
                  f"FAILED ({outcome.error_type})")
    stats = result.aggregate_stats()
    print(f"\nobjects: {len(result)}  cleaned: {result.cleaned}  "
          f"failed: {len(result.failures)}")
    print(f"workers: {result.workers}  chunk size: {result.chunk_size}"
          + (f"  pool respawns: {result.respawns}" if result.respawns
             else ""))
    print(f"wall-clock: {result.wall_seconds:.3f} s  "
          f"summed compute: {result.compute_seconds:.3f} s")
    print(f"aggregate: {stats.nodes_kept} nodes / {stats.edges_kept} edges "
          f"kept (of {stats.nodes_created} / {stats.edges_created} created)")

    if args.json_out:
        import json

        payload = {
            "dataset": dataset.name,
            "scale": args.scale,
            "constraints": kinds,
            "workers": result.workers,
            "chunk_size": result.chunk_size,
            "respawns": result.respawns,
            "objects": len(result),
            "cleaned": result.cleaned,
            "failed": len(result.failures),
            "wall_seconds": result.wall_seconds,
            "compute_seconds": result.compute_seconds,
            "outcomes": [
                {"index": o.index, "ok": o.ok, "seconds": o.seconds,
                 "nodes": o.graph.num_nodes if o.ok else None,
                 "edges": o.graph.num_edges if o.ok else None,
                 "error_type": o.error_type, "error": o.error}
                for o in result],
        }
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json_out}")
    return 0 if not result.failures else 1


def _command_store(args: argparse.Namespace) -> int:
    from repro.core.algorithm import CleaningOptions
    from repro.runtime import clean_many
    from repro.store import GraphStore

    store = GraphStore(args.root)
    if args.list_only:
        for key in store.keys():
            path = store.path_for(key)
            with store.load(key) as view:
                print(f"{key[:16]}…  {path.stat().st_size:>10} B  {view}")
        print(store)
        return 0
    dataset = _load_dataset(args)
    trajectories = dataset.all_trajectories()
    if args.limit is not None:
        trajectories = trajectories[:max(0, args.limit)]
    if not trajectories:
        print("nothing to clean", file=sys.stderr)
        return 2
    constraints = _inferred_constraints(dataset,
                                        _parse_kinds(args.constraints))
    result = clean_many([t.readings for t in trajectories], constraints,
                        options=CleaningOptions(engine=args.engine,
                                                backend=args.backend),
                        workers=args.workers, prior=dataset.prior,
                        store=store)
    hits = sum(1 for o in result if o.cache_hit)
    for outcome in result:
        if outcome.ok:
            status = "hit " if outcome.cache_hit else "miss"
            print(f"{outcome.index:>4}  {status}  {outcome.ctg_path}")
            outcome.graph.close()
        else:
            print(f"{outcome.index:>4}  FAILED ({outcome.error_type}): "
                  f"{outcome.error}")
    print(f"\nobjects: {len(result)}  cleaned: {result.cleaned}  "
          f"failed: {len(result.failures)}")
    print(f"cache: {hits} hit(s), {len(result) - hits} miss(es)")
    print(store)
    return 0 if not result.failures else 1


def _command_query(args: argparse.Namespace) -> int:
    from repro.queries.session import QuerySession
    from repro.queries.trajectory import TrajectoryQuery

    dataset = _load_dataset(args)
    clean_started = time.perf_counter()
    trajectory, lsequence, graph = _cleaned_graph(dataset, args, "flat")
    clean_seconds = time.perf_counter() - clean_started
    session = QuerySession(graph, backend=args.backend)
    truth = tuple(trajectory.truth.locations)
    did_something = False
    query_started = time.perf_counter()
    if args.at is not None:
        answer = session.location_marginal(args.at)
        print(f"stay query at {args.at} (truth: {truth[args.at]}):")
        for location, probability in sorted(answer.items(),
                                            key=lambda kv: -kv[1])[:5]:
            print(f"  {location}: {probability:.3f}")
        did_something = True
    if args.pattern:
        query = TrajectoryQuery(args.pattern)
        probability = session.match_probability(query)
        print(f"trajectory query {args.pattern!r}: "
              f"yes with p={probability:.3f} "
              f"(ground truth: {query.matches(truth)})")
        did_something = True
    if not did_something:
        print("nothing to do: pass --at and/or --pattern", file=sys.stderr)
        return 2
    if args.stats:
        print(f"stats: engine={args.engine}")
        print(f"timings: clean {clean_seconds:.4f} s, "
              f"queries {time.perf_counter() - query_started:.4f} s")
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.harness import (
        run_cleaning_experiment,
        run_query_time_experiment,
        run_stay_accuracy_experiment,
        run_trajectory_accuracy_experiment,
    )
    from repro.experiments.report import (
        accuracy_table,
        cleaning_table,
        query_time_table,
    )

    dataset = _load_dataset(args)
    name = args.name
    if name in ("fig8a", "fig8b", "size"):
        measurements = run_cleaning_experiment(dataset)
        print(cleaning_table(measurements))
    elif name == "fig8c":
        measurements = run_query_time_experiment(dataset)
        print(query_time_table(measurements))
    elif name == "fig9a":
        measurements = run_stay_accuracy_experiment(dataset)
        print(accuracy_table(measurements))
    elif name == "fig9b":
        measurements = run_trajectory_accuracy_experiment(dataset)
        print(accuracy_table(measurements))
    elif name == "fig9c":
        measurements = run_trajectory_accuracy_experiment(
            dataset, by_query_length=True)
        print(accuracy_table(measurements))
    return 0


def _command_analytics(args: argparse.Namespace) -> int:
    from repro.queries.analytics import (
        expected_visit_counts,
        top_k_trajectories,
        uncertainty_reduction,
    )

    dataset = _load_dataset(args)
    trajectory, lsequence, graph = _cleaned_graph(dataset, args)
    truth = tuple(trajectory.truth.locations)

    print(f"uncertainty reduction: "
          f"{uncertainty_reduction(lsequence, graph):.3f} bits/step")

    print(f"\ntop {args.top} most likely routes:")
    for rank, (route, probability) in enumerate(
            top_k_trajectories(graph, args.top), start=1):
        compact = [route[0]]
        for location in route[1:]:
            if location != compact[-1]:
                compact.append(location)
        marker = " (= ground truth)" if route == truth else ""
        print(f"  #{rank} p={probability:.3e}: "
              f"{' -> '.join(compact)}{marker}")

    print("\nexpected time per location (top 5):")
    totals = expected_visit_counts(graph)
    for location, steps in sorted(totals.items(), key=lambda kv: -kv[1])[:5]:
        print(f"  {location:16s} {steps:8.1f} steps")
    return 0


def _command_export(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.io.graphs import save_ctgraph
    from repro.io.jsonio import (
        save_building,
        save_constraints,
        save_readings,
        save_trajectory,
    )
    from repro.io.matrices import save_matrix

    dataset = _load_dataset(args)
    trajectory, lsequence, graph = _cleaned_graph(dataset, args)
    constraints = _inferred_constraints(dataset,
                                        _parse_kinds(args.constraints))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_building(dataset.building, out / "building.json")
    save_constraints(constraints, out / "constraints.json")
    save_matrix(dataset.calibrated_matrix, out / "matrix.npz")
    save_readings(trajectory.readings, out / "readings.json")
    save_trajectory(trajectory.truth, out / "ground_truth.json")
    save_ctgraph(graph, out / "ctgraph.json")
    for name in ("building.json", "constraints.json", "matrix.npz",
                 "readings.json", "ground_truth.json", "ctgraph.json"):
        print(f"wrote {out / name}")
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.suite import render_report, run_full_suite

    if args.both:
        datasets = [_load_dataset(args, name) for name in _DATASETS]
    else:
        datasets = [_load_dataset(args)]
    result = run_full_suite(datasets, scale=args.scale, progress=print)
    Path(args.out).write_text(render_report(result))
    print(f"wrote {args.out}")
    return 0


def _command_ql(args: argparse.Namespace) -> int:
    from repro.queries.ql import execute
    from repro.queries.session import QuerySession

    dataset = _load_dataset(args)
    clean_started = time.perf_counter()
    _, _, graph = _cleaned_graph(dataset, args, "flat")
    clean_seconds = time.perf_counter() - clean_started
    session = QuerySession(graph, backend=args.backend)
    query_started = time.perf_counter()
    for statement in args.statements:
        result = execute(session, statement)
        print(f"> {statement}")
        print(result.format())
        print()
    if args.stats:
        print(f"stats: engine={args.engine}")
        print(f"timings: clean {clean_seconds:.4f} s, "
              f"queries {time.perf_counter() - query_started:.4f} s")
    return 0


def _command_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import analyze

    if args.index is not None and args.constraints_file:
        raise SystemExit("--index reads a dataset trajectory; it cannot be "
                         "combined with --constraints-file")
    if args.advise and args.index is None:
        raise SystemExit("--advise needs readings: pass --index")
    if args.constraints_file:
        from repro.io.jsonio import load_building, load_constraints

        constraints = load_constraints(args.constraints_file)
        building = (load_building(args.building_file)
                    if args.building_file else None)
        report = analyze(constraints, map_model=building)
    else:
        dataset = _load_dataset(args)
        constraints = _inferred_constraints(dataset,
                                            _parse_kinds(args.constraints))
        readings = None
        if args.index is not None:
            trajectories = dataset.all_trajectories()
            if not 0 <= args.index < len(trajectories):
                raise SystemExit(
                    f"--index must be in [0, {len(trajectories)})")
            readings = trajectories[args.index].readings
        report = analyze(constraints, map_model=dataset.building,
                         prior=dataset.prior, readings=readings,
                         advise=args.advise)
    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    return report.exit_code(strict=args.strict)


def _command_lint(args: argparse.Namespace) -> int:
    from repro.lint import main as lint_main

    lint_args = list(args.paths)
    if args.list_rules:
        lint_args.append("--list-rules")
    if args.select:
        lint_args.extend(["--select", args.select])
    lint_args.extend(["--format", args.format])
    return lint_main(lint_args)


def _serve_lines(args: argparse.Namespace):
    """The input lines of `serve`: stdin, a file, or a followed file."""
    if args.input == "-":
        for line in sys.stdin:
            yield line
        return
    if not args.follow:
        with open(args.input, "r", encoding="utf-8") as handle:
            for line in handle:
                yield line
        return
    idle = 0.0
    poll = 0.2
    with open(args.input, "r", encoding="utf-8") as handle:
        while True:
            line = handle.readline()
            if line:
                # A line without its newline is still being appended;
                # wait for the writer to finish it.
                if not line.endswith("\n"):
                    handle.seek(handle.tell() - len(line))
                    time.sleep(poll)
                    continue
                idle = 0.0
                yield line
                continue
            if args.idle_timeout is not None and idle >= args.idle_timeout:
                return
            time.sleep(poll)
            idle += poll


def _command_serve(args: argparse.Namespace) -> int:
    from repro.errors import StoreFormatError

    if args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    if args.checkpoint_dir:
        from repro.store.format import ensure_shard_manifest

        try:
            ensure_shard_manifest(args.checkpoint_dir, args.shards)
        except StoreFormatError as error:
            raise SystemExit(f"serve: {error}")
    if args.shards == 1:
        return _serve_single(args)
    return _serve_sharded(args)


def _serve_single(args: argparse.Namespace) -> int:
    from repro.core.algorithm import CleaningOptions
    from repro.io.jsonio import load_constraints
    from repro.runtime.sessions import StreamSessionManager
    from repro.runtime.shards import ServeEngine, parse_reading

    constraints = load_constraints(args.constraints_file)
    manager = StreamSessionManager(
        constraints, window=args.window,
        options=CleaningOptions(backend=args.backend),
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=(args.checkpoint_every
                          if args.checkpoint_dir else 0),
        resume=args.resume)
    # Readings already covered by a resumed checkpoint are *skipped* (in
    # the engine), so feeding the same input file again continues where
    # the kill struck.
    engine = ServeEngine(manager, estimate_every=args.estimate_every,
                         stats_every=args.stats_every)
    iterator = iter(_serve_lines(args))
    while True:
        if args.max_readings is not None and \
                engine.ingested >= args.max_readings:
            break
        raw = next(iterator, None)
        if raw is None:
            break
        line = raw.strip()
        if not line:
            continue
        reading = parse_reading(line)
        if reading is None:
            print(f"serve: skipping malformed line: {line[:120]}",
                  file=sys.stderr)
            continue
        object_id, candidates = reading
        _, out_lines, err_lines = engine.process(object_id, candidates)
        for out_line in out_lines:
            print(out_line, flush=True)
        for err_line in err_lines:
            print(err_line, file=sys.stderr)
    for _object_id, final_line in engine.final_entries():
        print(final_line, flush=True)
    if args.stats_every:
        print(engine.summary_line("fleet"), file=sys.stderr)
    if args.checkpoint_dir and not args.no_final_checkpoint:
        for object_id, path in engine.checkpoint_entries():
            print(f"serve: checkpointed {object_id!r} -> {path}",
                  file=sys.stderr)
    return 0


def _serve_sharded(args: argparse.Namespace) -> int:
    from repro.runtime.shards import StreamShardPool

    pool = StreamShardPool(
        args.shards, constraints_file=args.constraints_file,
        window=args.window, checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=(args.checkpoint_every
                          if args.checkpoint_dir else 0),
        resume=args.resume, estimate_every=args.estimate_every,
        stats_every=args.stats_every, backend=args.backend)
    with pool:
        pool.serve(_serve_lines(args), sys.stdout, sys.stderr,
                   max_readings=args.max_readings)
        pool.finish(sys.stdout, sys.stderr,
                    final_checkpoint=not args.no_final_checkpoint)
    return 0


def _command_map(args: argparse.Namespace) -> int:
    from repro.viz import render_floor, render_marginal

    dataset = _load_dataset(args)
    if args.floor not in dataset.building.floors:
        raise SystemExit(
            f"--floor must be one of {list(dataset.building.floors)}")
    print(render_floor(dataset.building, args.floor,
                       readers=dataset.readers, scale=args.render_scale))
    if args.at is not None:
        trajectory, _, graph = _cleaned_graph(dataset, args)
        if not 0 <= args.at < graph.duration:
            raise SystemExit(f"--at must be in [0, {graph.duration})")
        truth = trajectory.truth.locations[args.at]
        print(f"\ncleaned position estimate at t={args.at} "
              f"(ground truth: {truth}):")
        print(render_marginal(dataset.building, args.floor,
                              graph.location_marginal(args.at),
                              scale=args.render_scale))
    return 0


_COMMANDS = {
    "info": _command_info,
    "clean": _command_clean,
    "clean-many": _command_clean_many,
    "store": _command_store,
    "query": _command_query,
    "experiment": _command_experiment,
    "analytics": _command_analytics,
    "export": _command_export,
    "report": _command_report,
    "ql": _command_ql,
    "analyze": _command_analyze,
    "lint": _command_lint,
    "serve": _command_serve,
    "map": _command_map,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """The console entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Output piped into e.g. `head`: exit quietly, and point stdout at
        # devnull so the interpreter's final flush cannot raise again
        # (the pattern recommended by the Python docs).
        import os
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
