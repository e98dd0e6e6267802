"""Ablation F: streaming vs batch cleaning.

The online cleaner (``StreamingCleaner(window=None)``, which keeps the
whole stream) pays two costs for liveness: per-reading frontier
maintenance (no lookahead ``TL`` pruning) and a full backward sweep at
``finalize``.  This ablation measures the total streaming cost against a
single batch run on the same readings, plus the live frontier size.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.algorithm import build_ct_graph
from repro.core.lsequence import LSequence
from repro.experiments.report import format_table
from repro.inference import infer_constraints
from repro.streaming import StreamingCleaner


@pytest.fixture(scope="module")
def case(syn1, profile):
    constraints = infer_constraints(syn1.building, profile,
                                    kinds=("DU", "LT"),
                                    distances=syn1.distances)
    trajectory = syn1.all_trajectories()[0]
    return syn1, constraints, trajectory


def test_batch_cleaning(benchmark, case):
    dataset, constraints, trajectory = case
    lsequence = LSequence.from_readings(trajectory.readings, dataset.prior)
    benchmark.pedantic(build_ct_graph, args=(lsequence, constraints),
                       rounds=3, iterations=1, warmup_rounds=0)


def test_streaming_cleaning(benchmark, case):
    dataset, constraints, trajectory = case

    def run():
        cleaner = StreamingCleaner(constraints, window=None,
                                   prior=dataset.prior)
        for reading in trajectory.readings:
            cleaner.extend_reading(reading.readers)
        return cleaner.finalize()

    graph = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    benchmark.extra_info["nodes"] = graph.num_nodes


def test_streaming_report(benchmark, case, capsys):
    dataset, constraints, trajectory = case
    lsequence = LSequence.from_readings(trajectory.readings, dataset.prior)

    def run():
        started = time.perf_counter()
        batch = build_ct_graph(lsequence, constraints)
        batch_seconds = time.perf_counter() - started

        cleaner = StreamingCleaner(constraints, window=None,
                                   prior=dataset.prior)
        frontier_sizes = []
        started = time.perf_counter()
        for reading in trajectory.readings:
            cleaner.extend_reading(reading.readers)
            frontier_sizes.append(cleaner.frontier_size())
        extend_seconds = time.perf_counter() - started
        started = time.perf_counter()
        streamed = cleaner.finalize()
        finalize_seconds = time.perf_counter() - started
        return (batch, streamed, batch_seconds, extend_seconds,
                finalize_seconds, frontier_sizes)

    (batch, streamed, batch_seconds, extend_seconds, finalize_seconds,
     frontier_sizes) = benchmark.pedantic(run, rounds=1, iterations=1,
                                          warmup_rounds=0)
    rows = [
        ("batch", f"{batch_seconds * 1000:.1f}", "-", batch.num_nodes),
        ("streaming", f"{extend_seconds * 1000:.1f}",
         f"{finalize_seconds * 1000:.1f}", streamed.num_nodes),
    ]
    with capsys.disabled():
        print()
        print("=== Ablation F: streaming vs batch (SYN1, DU+LT) ===")
        print(format_table(["mode", "forward_ms", "finalize_ms", "nodes"],
                           rows))
        print(f"live frontier: mean={np.mean(frontier_sizes):.1f} states, "
              f"max={max(frontier_sizes)}")

    # Same conditioned distribution either way.
    assert streamed.num_valid_trajectories() == batch.num_valid_trajectories()
    for tau in range(0, batch.duration, max(1, batch.duration // 10)):
        expected = batch.location_marginal(tau)
        got = streamed.location_marginal(tau)
        for location, probability in expected.items():
            assert abs(got.get(location, 0.0) - probability) < 1e-9