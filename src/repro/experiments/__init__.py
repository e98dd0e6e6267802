"""The experiment harness: the paper's evaluation, reproducible end to end.

* :mod:`repro.experiments.workloads` — the Section 6.6 query workloads
  (100 random stay queries and 50 random pattern queries per trajectory);
* :mod:`repro.experiments.harness` — cleaning/query/accuracy/size runs over
  datasets, per constraint configuration;
* :mod:`repro.experiments.report` — plain-text tables for the figures.

Each benchmark under ``benchmarks/`` wires one figure or table of the paper
to these functions; ``EXPERIMENTS.md`` records the measured outcomes.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.experiments.harness import (
        CONSTRAINT_CONFIGS,
        AccuracyMeasurement,
        CleaningMeasurement,
        QueryTimeMeasurement,
        clean_trajectory,
        run_cleaning_experiment,
        run_query_time_experiment,
        run_stay_accuracy_experiment,
        run_trajectory_accuracy_experiment,
    )
    from repro.experiments.report import format_table
    from repro.experiments.workloads import (
        random_stay_queries,
        random_trajectory_queries,
    )

__all__ = [
    "CONSTRAINT_CONFIGS",
    "CleaningMeasurement",
    "AccuracyMeasurement",
    "QueryTimeMeasurement",
    "clean_trajectory",
    "run_cleaning_experiment",
    "run_query_time_experiment",
    "run_stay_accuracy_experiment",
    "run_trajectory_accuracy_experiment",
    "random_stay_queries",
    "random_trajectory_queries",
    "format_table",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.experiments.harness": (
        "CONSTRAINT_CONFIGS", "AccuracyMeasurement", "CleaningMeasurement",
        "QueryTimeMeasurement", "clean_trajectory", "run_cleaning_experiment",
        "run_query_time_experiment", "run_stay_accuracy_experiment",
        "run_trajectory_accuracy_experiment",
    ),
    "repro.experiments.report": ("format_table",),
    "repro.experiments.workloads": (
        "random_stay_queries", "random_trajectory_queries",
    ),
})
