"""Ablation A: the paper's prior formula vs full negative evidence.

Section 6.2's ``p*(l | R)`` uses only the readers *in* ``R``; the exact
"all and only" likelihood would also multiply ``(1 - F[r, c])`` for the
readers outside ``R``.  This ablation measures what that choice costs: the
stay accuracy of the RAW interpretation and of full cleaning under both
prior variants.
"""

from __future__ import annotations

import numpy as np

from repro.core.algorithm import build_ct_graph
from repro.core.lsequence import LSequence
from repro.experiments.report import format_table
from repro.inference import infer_constraints
from repro.queries.accuracy import stay_accuracy
from repro.queries.stay import stay_query, stay_query_prior
from repro.rfid.priors import PriorModel


def _mean_accuracy(dataset, prior, constraints) -> tuple:
    raw_scores, cleaned_scores = [], []
    for trajectory in dataset.all_trajectories():
        truth = trajectory.truth.locations
        lsequence = LSequence.from_readings(trajectory.readings, prior)
        graph = build_ct_graph(lsequence, constraints)
        for tau in range(0, trajectory.duration, 2):
            raw_scores.append(stay_accuracy(
                stay_query_prior(lsequence, tau), truth[tau]))
            cleaned_scores.append(stay_accuracy(
                stay_query(graph, tau), truth[tau]))
    return float(np.mean(raw_scores)), float(np.mean(cleaned_scores))


def test_negative_evidence_ablation(benchmark, syn1, profile, capsys):
    constraints = infer_constraints(syn1.building, profile,
                                    kinds=("DU", "LT"),
                                    distances=syn1.distances)
    paper_prior = syn1.prior
    negative_prior = PriorModel(syn1.calibrated_matrix,
                                negative_evidence=True)

    def run():
        return {
            "paper": _mean_accuracy(syn1, paper_prior, constraints),
            "negative": _mean_accuracy(syn1, negative_prior, constraints),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1,
                                 warmup_rounds=0)
    rows = [(variant, f"{raw:.3f}", f"{cleaned:.3f}")
            for variant, (raw, cleaned) in results.items()]
    with capsys.disabled():
        print()
        print("=== Ablation A: prior formula (stay accuracy, SYN1, "
              "CTG(DU,LT)) ===")
        print(format_table(["prior", "raw_accuracy", "cleaned_accuracy"],
                           rows))

    for variant, (raw, cleaned) in results.items():
        benchmark.extra_info[f"{variant}_raw"] = raw
        benchmark.extra_info[f"{variant}_cleaned"] = cleaned
        # Cleaning should help (or at worst be neutral) under both priors.
        assert cleaned >= raw - 0.02, variant
