"""Experiment runners for the paper's evaluation (Section 6).

Every figure of the paper maps to one runner here:

* Fig. 8(a,b) — :func:`run_cleaning_experiment`: average ct-graph
  construction time per trajectory duration and constraint configuration
  (plus node/edge/size statistics, which also covers the Section 6.7
  graph-size discussion);
* Fig. 8(c) — :func:`run_query_time_experiment`: average query execution
  time over the cleaned graphs;
* Fig. 9(a) — :func:`run_stay_accuracy_experiment`;
* Fig. 9(b,c) — :func:`run_trajectory_accuracy_experiment` (overall and
  bucketed by query length).

All runners are deterministic given their ``seed`` and return flat lists of
measurement dataclasses; :mod:`repro.experiments.report` renders them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - no-numpy environments
    from repro.optional import missing_dependency

    np = missing_dependency("numpy", "repro[numpy]")  # type: ignore[assignment]

from repro.core.algorithm import CleaningOptions, build_ct_graph
from repro.core.ctgraph import CTGraph
from repro.core.lsequence import LSequence
from repro.inference import MotilityProfile, infer_constraints
from repro.queries.session import QuerySession
from repro.queries.stay import stay_query, stay_query_prior
from repro.queries.trajectory import TrajectoryQuery
from repro.queries.accuracy import stay_accuracy, trajectory_query_accuracy
from repro.simulation.datasets import Dataset, GeneratedTrajectory
from repro.experiments.workloads import (
    STAY_QUERIES_PER_TRAJECTORY,
    TRAJECTORY_QUERIES_PER_TRAJECTORY,
    random_stay_queries,
    random_trajectory_queries,
)

__all__ = [
    "CONSTRAINT_CONFIGS",
    "RAW_CONFIG",
    "BatchCleaningMeasurement",
    "CleaningMeasurement",
    "QueryTimeMeasurement",
    "AccuracyMeasurement",
    "clean_trajectory",
    "run_batch",
    "run_cleaning_experiment",
    "run_query_time_experiment",
    "run_stay_accuracy_experiment",
    "run_trajectory_accuracy_experiment",
]

#: The paper's three cleaning configurations (Fig. 8/9 legend).
CONSTRAINT_CONFIGS: Dict[str, Tuple[str, ...]] = {
    "CTG(DU)": ("DU",),
    "CTG(DU,LT)": ("DU", "LT"),
    "CTG(DU,LT,TT)": ("DU", "LT", "TT"),
}

#: The no-cleaning baseline label (raw a-priori interpretation).
RAW_CONFIG = "RAW"


@dataclass(frozen=True)
class CleaningMeasurement:
    """One (dataset, configuration, duration) cleaning aggregate."""

    dataset: str
    config: str
    duration: int
    trajectories: int
    mean_seconds: float
    mean_nodes: float
    mean_edges: float
    mean_bytes: float


@dataclass(frozen=True)
class BatchCleaningMeasurement:
    """One (dataset, configuration, duration) batch-cleaning aggregate.

    The batch counterpart of :class:`CleaningMeasurement`: the same
    node/edge means plus the runtime's wall-clock (what an operator waits
    for) next to the summed per-object compute (what the hardware paid).
    """

    dataset: str
    config: str
    duration: int
    trajectories: int
    workers: int
    chunk_size: int
    wall_seconds: float
    mean_seconds: float
    failures: int
    mean_nodes: float
    mean_edges: float


@dataclass(frozen=True)
class QueryTimeMeasurement:
    """One (dataset, configuration, duration) query-time aggregate."""

    dataset: str
    config: str
    duration: int
    queries: int
    mean_stay_seconds: float
    mean_trajectory_seconds: float

    @property
    def mean_seconds(self) -> float:
        """The blended per-query average (the paper reports one curve)."""
        return (self.mean_stay_seconds + self.mean_trajectory_seconds) / 2.0


@dataclass(frozen=True)
class AccuracyMeasurement:
    """One (dataset, configuration[, query length]) accuracy aggregate."""

    dataset: str
    config: str
    kind: str                       # "stay" | "trajectory"
    accuracy: float
    queries: int
    duration: Optional[int] = None
    query_length: Optional[int] = None


def _configured_constraints(dataset: Dataset, kinds: Sequence[str],
                            profile: MotilityProfile):
    return infer_constraints(dataset.building, profile, kinds=kinds,
                             distances=dataset.distances)


def clean_trajectory(dataset: Dataset, trajectory: GeneratedTrajectory,
                     kinds: Sequence[str],
                     profile: MotilityProfile = MotilityProfile(),
                     options: CleaningOptions = CleaningOptions(),
                     ) -> Tuple[CTGraph, LSequence, float]:
    """Clean one trajectory; returns (graph, l-sequence, build seconds)."""
    constraints = _configured_constraints(dataset, kinds, profile)
    lsequence = LSequence.from_readings(trajectory.readings, dataset.prior)
    started = time.perf_counter()
    graph = build_ct_graph(lsequence, constraints, options)
    elapsed = time.perf_counter() - started
    return graph, lsequence, elapsed


def run_cleaning_experiment(dataset: Dataset,
                            configs: Dict[str, Tuple[str, ...]] = CONSTRAINT_CONFIGS,
                            profile: MotilityProfile = MotilityProfile(),
                            durations: Optional[Sequence[int]] = None,
                            ) -> List[CleaningMeasurement]:
    """Fig. 8(a)/8(b): average cleaning cost per duration and configuration."""
    results: List[CleaningMeasurement] = []
    chosen = tuple(durations) if durations is not None else dataset.durations
    for config_name, kinds in configs.items():
        constraints = _configured_constraints(dataset, kinds, profile)
        for duration in chosen:
            group = dataset.trajectories[duration]
            seconds: List[float] = []
            nodes: List[int] = []
            edges: List[int] = []
            sizes: List[int] = []
            for trajectory in group:
                lsequence = LSequence.from_readings(trajectory.readings,
                                                    dataset.prior)
                started = time.perf_counter()
                graph = build_ct_graph(lsequence, constraints)
                seconds.append(time.perf_counter() - started)
                nodes.append(graph.num_nodes)
                edges.append(graph.num_edges)
                sizes.append(graph.estimate_size_bytes())
            results.append(CleaningMeasurement(
                dataset=dataset.name, config=config_name, duration=duration,
                trajectories=len(group),
                mean_seconds=float(np.mean(seconds)),
                mean_nodes=float(np.mean(nodes)),
                mean_edges=float(np.mean(edges)),
                mean_bytes=float(np.mean(sizes))))
    return results


def run_batch(dataset: Dataset,
              configs: Dict[str, Tuple[str, ...]] = CONSTRAINT_CONFIGS,
              profile: MotilityProfile = MotilityProfile(),
              durations: Optional[Sequence[int]] = None,
              workers: Optional[int] = 1,
              chunk_size: Optional[int] = None,
              options: CleaningOptions = CleaningOptions(),
              ) -> List[BatchCleaningMeasurement]:
    """Fig. 8(a)/8(b)-style cleaning sweep through the batch runtime.

    Covers the same (configuration, duration) grid as
    :func:`run_cleaning_experiment` but cleans each group with
    :func:`repro.runtime.clean_many`, so many-core machines pay one group's
    wall-clock instead of the summed per-object cost.  Per-object failures
    (zero-mass inputs) are counted, not fatal — exactly the semantics a
    server-side cleaning service needs.
    """
    from repro.runtime import clean_many

    results: List[BatchCleaningMeasurement] = []
    chosen = tuple(durations) if durations is not None else dataset.durations
    for config_name, kinds in configs.items():
        constraints = _configured_constraints(dataset, kinds, profile)
        for duration in chosen:
            group = dataset.trajectories[duration]
            lsequences = [LSequence.from_readings(t.readings, dataset.prior)
                          for t in group]
            batch = clean_many(lsequences, constraints, options=options,
                               workers=workers, chunk_size=chunk_size)
            graphs = [o.graph for o in batch if o.ok]
            results.append(BatchCleaningMeasurement(
                dataset=dataset.name, config=config_name, duration=duration,
                trajectories=len(group), workers=batch.workers,
                chunk_size=batch.chunk_size,
                wall_seconds=batch.wall_seconds,
                mean_seconds=float(np.mean([o.seconds for o in batch])),
                failures=len(batch.failures),
                mean_nodes=(float(np.mean([g.num_nodes for g in graphs]))
                            if graphs else 0.0),
                mean_edges=(float(np.mean([g.num_edges for g in graphs]))
                            if graphs else 0.0)))
    return results


def run_query_time_experiment(dataset: Dataset,
                              configs: Dict[str, Tuple[str, ...]] = CONSTRAINT_CONFIGS,
                              profile: MotilityProfile = MotilityProfile(),
                              durations: Optional[Sequence[int]] = None,
                              stay_queries: int = 20,
                              trajectory_queries: int = 10,
                              seed: int = 101,
                              ) -> List[QueryTimeMeasurement]:
    """Fig. 8(c): average query execution time over cleaned graphs."""
    rng = np.random.default_rng(seed)
    results: List[QueryTimeMeasurement] = []
    chosen = tuple(durations) if durations is not None else dataset.durations
    for config_name, kinds in configs.items():
        constraints = _configured_constraints(dataset, kinds, profile)
        for duration in chosen:
            stay_times: List[float] = []
            trajectory_times: List[float] = []
            total_queries = 0
            for trajectory in dataset.trajectories[duration]:
                lsequence = LSequence.from_readings(trajectory.readings,
                                                    dataset.prior)
                flat = build_ct_graph(lsequence, constraints).to_flat()
                for tau in random_stay_queries(duration, stay_queries, rng):
                    # A fresh session per query: each pays its forward pass.
                    started = time.perf_counter()
                    QuerySession(flat).location_marginal(tau)
                    stay_times.append(time.perf_counter() - started)
                patterns = random_trajectory_queries(
                    dataset.building, trajectory_queries, rng)
                for pattern in patterns:
                    query = TrajectoryQuery(pattern)
                    started = time.perf_counter()
                    query.probability(flat)
                    trajectory_times.append(time.perf_counter() - started)
                total_queries += stay_queries + trajectory_queries
            results.append(QueryTimeMeasurement(
                dataset=dataset.name, config=config_name, duration=duration,
                queries=total_queries,
                mean_stay_seconds=float(np.mean(stay_times)),
                mean_trajectory_seconds=float(np.mean(trajectory_times))))
    return results


def run_stay_accuracy_experiment(dataset: Dataset,
                                 configs: Dict[str, Tuple[str, ...]] = CONSTRAINT_CONFIGS,
                                 profile: MotilityProfile = MotilityProfile(),
                                 durations: Optional[Sequence[int]] = None,
                                 queries_per_trajectory: int = STAY_QUERIES_PER_TRAJECTORY,
                                 include_raw: bool = True,
                                 seed: int = 202,
                                 ) -> List[AccuracyMeasurement]:
    """Fig. 9(a): average stay-query accuracy per configuration.

    ``include_raw`` adds the uncleaned a-priori baseline as config ``RAW``.
    """
    rng = np.random.default_rng(seed)
    chosen = tuple(durations) if durations is not None else dataset.durations
    per_config: Dict[str, List[float]] = {name: [] for name in configs}
    raw_scores: List[float] = []
    for duration in chosen:
        for trajectory in dataset.trajectories[duration]:
            truth = trajectory.truth.locations
            lsequence = LSequence.from_readings(trajectory.readings,
                                                dataset.prior)
            taus = random_stay_queries(duration, queries_per_trajectory, rng)
            if include_raw:
                raw_scores.extend(
                    stay_accuracy(stay_query_prior(lsequence, tau), truth[tau])
                    for tau in taus)
            for config_name, kinds in configs.items():
                constraints = _configured_constraints(dataset, kinds, profile)
                graph = build_ct_graph(lsequence, constraints)
                per_config[config_name].extend(
                    stay_accuracy(stay_query(graph, tau), truth[tau])
                    for tau in taus)
    results: List[AccuracyMeasurement] = []
    if include_raw and raw_scores:
        results.append(AccuracyMeasurement(
            dataset=dataset.name, config=RAW_CONFIG, kind="stay",
            accuracy=float(np.mean(raw_scores)), queries=len(raw_scores)))
    for config_name, scores in per_config.items():
        results.append(AccuracyMeasurement(
            dataset=dataset.name, config=config_name, kind="stay",
            accuracy=float(np.mean(scores)), queries=len(scores)))
    return results


def run_trajectory_accuracy_experiment(
        dataset: Dataset,
        configs: Dict[str, Tuple[str, ...]] = CONSTRAINT_CONFIGS,
        profile: MotilityProfile = MotilityProfile(),
        durations: Optional[Sequence[int]] = None,
        queries_per_trajectory: int = TRAJECTORY_QUERIES_PER_TRAJECTORY,
        include_raw: bool = True,
        by_query_length: bool = False,
        visited_bias: float = 0.0,
        seed: int = 303,
        ) -> List[AccuracyMeasurement]:
    """Fig. 9(b) (and 9(c) with ``by_query_length=True``).

    With ``by_query_length``, queries are generated with pinned lengths
    {2, 3, 4} and one measurement is emitted per (config, length) pair.
    ``visited_bias`` > 0 makes the workload harder (see
    :func:`repro.experiments.workloads.random_trajectory_query`); the
    paper's workload is 0.
    """
    rng = np.random.default_rng(seed)
    chosen = tuple(durations) if durations is not None else dataset.durations
    lengths: Tuple[Optional[int], ...] = (2, 3, 4) if by_query_length else (None,)
    scores: Dict[Tuple[str, Optional[int]], List[float]] = {}

    for duration in chosen:
        for trajectory in dataset.trajectories[duration]:
            truth = tuple(trajectory.truth.locations)
            lsequence = LSequence.from_readings(trajectory.readings,
                                                dataset.prior)
            graphs = {
                name: build_ct_graph(
                    lsequence, _configured_constraints(dataset, kinds, profile))
                for name, kinds in configs.items()}
            for length in lengths:
                count = (queries_per_trajectory if length is None
                         else max(1, queries_per_trajectory // len(lengths)))
                patterns = random_trajectory_queries(
                    dataset.building, count, rng, num_locations=length,
                    visited=trajectory.truth.visited_locations(),
                    visited_bias=visited_bias)
                for pattern in patterns:
                    query = TrajectoryQuery(pattern)
                    truth_matches = query.matches(truth)
                    if include_raw:
                        p = query.probability_prior(lsequence)
                        scores.setdefault((RAW_CONFIG, length), []).append(
                            trajectory_query_accuracy(p, truth_matches))
                    for name, graph in graphs.items():
                        p = query.probability(graph)
                        scores.setdefault((name, length), []).append(
                            trajectory_query_accuracy(p, truth_matches))

    order = ([RAW_CONFIG] if include_raw else []) + list(configs)
    results: List[AccuracyMeasurement] = []
    for name in order:
        for length in lengths:
            values = scores.get((name, length))
            if values:
                results.append(AccuracyMeasurement(
                    dataset=dataset.name, config=name, kind="trajectory",
                    accuracy=float(np.mean(values)), queries=len(values),
                    query_length=length))
    return results
