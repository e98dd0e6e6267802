"""Ablation E: quantifying the title claim — uncertainty reduction.

The paper's goal is "reducing the inherent uncertainty of trajectory data".
This ablation measures it directly: the average per-timestep Shannon
entropy of the position marginal, before cleaning and after cleaning under
each constraint configuration.
"""

from __future__ import annotations

import numpy as np

from repro.core.algorithm import build_ct_graph
from repro.core.lsequence import LSequence
from repro.experiments.harness import CONSTRAINT_CONFIGS
from repro.experiments.report import format_table
from repro.queries.analytics import entropy_profile, entropy_profile_prior


def test_uncertainty_reduction(benchmark, syn1, constraint_cache, capsys):
    def run():
        raw_entropy = []
        per_config = {name: [] for name in CONSTRAINT_CONFIGS}
        for trajectory in syn1.all_trajectories():
            lsequence = LSequence.from_readings(trajectory.readings,
                                                syn1.prior)
            raw_entropy.extend(entropy_profile_prior(lsequence))
            for name, kinds in CONSTRAINT_CONFIGS.items():
                graph = build_ct_graph(lsequence,
                                       constraint_cache(syn1, kinds))
                per_config[name].extend(entropy_profile(graph))
        return float(np.mean(raw_entropy)), {
            name: float(np.mean(values))
            for name, values in per_config.items()}

    raw, cleaned = benchmark.pedantic(run, rounds=1, iterations=1,
                                      warmup_rounds=0)
    rows = [("RAW", f"{raw:.3f}", "-")]
    for name, value in cleaned.items():
        rows.append((name, f"{value:.3f}", f"{raw - value:+.3f}"))
    with capsys.disabled():
        print()
        print("=== Ablation E: mean position entropy (bits/step), SYN1 ===")
        print(format_table(["config", "entropy", "reduction"], rows))

    benchmark.extra_info["raw_entropy"] = raw
    benchmark.extra_info.update(cleaned)
    # Conditioning can only concentrate the marginal given more structure:
    # every configuration should reduce average entropy, monotonically with
    # richer constraint sets (up to sampling noise).
    assert cleaned["CTG(DU)"] <= raw + 1e-9
    assert cleaned["CTG(DU,LT)"] <= cleaned["CTG(DU)"] + 0.02
    assert cleaned["CTG(DU,LT,TT)"] <= cleaned["CTG(DU,LT)"] + 0.02