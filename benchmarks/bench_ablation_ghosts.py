"""Ablation G: robustness to false positives (ghost reads).

The paper's noise model has only false negatives.  Real deployments also
see spurious detections (multipath, cross-talk).  This ablation re-reads
the SYN1 ground truth through generators with increasing ghost-read rates
and measures how stay-query accuracy degrades, for the raw prior and for
full cleaning — cleaning should degrade more gracefully, because ghosts
produce physically impossible interpretations that the constraints
discard.
"""

from __future__ import annotations

import numpy as np

from repro.core.algorithm import build_ct_graph
from repro.core.lsequence import LSequence
from repro.errors import InconsistentReadingsError
from repro.experiments.report import format_table
from repro.inference import infer_constraints
from repro.queries.accuracy import stay_accuracy
from repro.queries.stay import stay_query, stay_query_prior
from repro.rfid.priors import PriorModel
from repro.simulation.readings import ReadingGenerator

GHOST_RATES = (0.0, 0.02, 0.05)


def _score(truths, readings_per_truth, prior, constraints):
    raw_scores, cleaned_scores, failures = [], [], 0
    for truth, readings in zip(truths, readings_per_truth):
        lsequence = LSequence.from_readings(readings, prior)
        for tau in range(0, truth.duration, 3):
            raw_scores.append(stay_accuracy(
                stay_query_prior(lsequence, tau), truth.locations[tau]))
        try:
            graph = build_ct_graph(lsequence, constraints)
        except InconsistentReadingsError:
            failures += 1
            continue
        for tau in range(0, truth.duration, 3):
            cleaned_scores.append(stay_accuracy(
                stay_query(graph, tau), truth.locations[tau]))
    return (float(np.mean(raw_scores)),
            float(np.mean(cleaned_scores)) if cleaned_scores else float("nan"),
            failures)


def test_ghost_read_robustness(benchmark, syn1, profile, capsys):
    constraints = infer_constraints(syn1.building, profile,
                                    kinds=("DU", "LT"),
                                    distances=syn1.distances)
    truths = [t.truth for t in syn1.all_trajectories()[:4]]

    def run():
        rows = []
        for rate in GHOST_RATES:
            rng = np.random.default_rng(404)
            generator = ReadingGenerator(syn1.true_matrix, rng,
                                         ghost_read_rate=rate)
            readings = [generator.generate(truth) for truth in truths]
            # The paper's prior (assumes no false positives)...
            naive_raw, naive_cleaned, naive_failures = _score(
                truths, readings, syn1.prior, constraints)
            # ... vs a noise-aware prior that models the ghost rate.
            aware_prior = PriorModel(syn1.calibrated_matrix,
                                     ghost_read_rate=max(rate, 1e-6))
            aware_raw, aware_cleaned, aware_failures = _score(
                truths, readings, aware_prior, constraints)
            rows.append((rate, naive_raw, naive_cleaned, naive_failures,
                         aware_raw, aware_cleaned, aware_failures))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    rendered = [
        (f"{rate:.2f}", f"{nr:.3f}", f"{nc:.3f}", nf,
         f"{ar:.3f}", f"{ac:.3f}", af)
        for rate, nr, nc, nf, ar, ac, af in rows
    ]
    with capsys.disabled():
        print()
        print("=== Ablation G: ghost-read robustness "
              "(stay accuracy, SYN1, CTG(DU,LT)) ===")
        print(format_table(
            ["ghost_rate", "paper_raw", "paper_cleaned", "fail",
             "aware_raw", "aware_cleaned", "fail"], rendered))

    for rate, nr, nc, nf, ar, ac, af in rows:
        benchmark.extra_info[f"rate_{rate}"] = (nr, nc, ar, ac)
        # The noise-aware prior must hold up under noise...
        if rate > 0:
            assert ac > nc or np.isnan(nc), f"rate {rate}"
        # ...and cleaning must keep its edge whenever it runs.
        if not np.isnan(ac):
            assert ac >= ar - 0.05, f"rate {rate}"