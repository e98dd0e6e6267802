"""rfid-ctg: cleaning RFID trajectory data by conditioning under constraints.

A faithful reproduction of Fazzinga, Flesca, Furfaro and Parisi,
*"Cleaning trajectory data of RFID-monitored objects through conditioning
under integrity constraints"*, EDBT 2014.

Quickstart::

    from repro import (
        two_room_map, infer_constraints,
        LSequence, build_ct_graph, stay_query,
    )

    building = two_room_map()
    constraints = infer_constraints(building)
    lsequence = LSequence([{"A": 0.5, "B": 0.5}, {"A": 1.0}])
    graph = build_ct_graph(lsequence, constraints)
    print(stay_query(graph, 0))

See ``examples/`` for end-to-end scenarios and ``DESIGN.md`` for the system
inventory.
"""

from repro.analysis import AnalysisReport, Diagnostic, Severity, analyze
from repro.core.algorithm import CleaningOptions, CleaningStats, build_ct_graph, clean
from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.baselines import BeamCleaner, ParticleFilter, SmoothingFilter
from repro.core.ctgraph import CTGraph, CTNode
from repro.core.flatgraph import FlatCTGraph
from repro.core.diagnostics import InconsistencyReport, diagnose
from repro.core.groups import JointGraph, condition_group, condition_on_meeting
from repro.core.lsequence import LSequence, Reading, ReadingSequence
from repro.core.naive import NaiveConditioner
from repro.core.sampling import TrajectorySampler, rejection_sample
from repro.core.validity import is_valid_trajectory, violations
from repro.errors import (
    ConstraintError,
    GraphExportError,
    GraphInvariantError,
    InconsistentReadingsError,
    MapModelError,
    PatternSyntaxError,
    QueryError,
    ReadingSequenceError,
    ReproError,
    StoreChecksumError,
    StoreError,
    StoreFormatError,
    ZeroMassError,
)
from repro.runtime import (
    BatchCleaner,
    BatchOutcome,
    BatchResult,
    QueryPlan,
    SharedCleaningPlan,
    StreamSessionManager,
    clean_many,
)
from repro.streaming import StreamingCleaner
from repro.geometry import Point, Rect, Segment
from repro.inference import (
    MotilityProfile,
    infer_constraints,
    infer_du_constraints,
    infer_lt_constraints,
    infer_tt_constraints,
)
from repro.mapmodel import (
    Building,
    Cell,
    Door,
    Grid,
    Location,
    WalkingDistances,
    corridor_map,
    multi_floor_building,
    paper_floor,
    syn1_building,
    syn2_building,
    two_room_map,
)
from repro.markov import MarkovianStream
from repro.queries import (
    Pattern,
    PatternAtom,
    QuerySession,
    TrajectoryQuery,
    colocation_profile,
    entropy_profile,
    entropy_profile_prior,
    expected_visit_counts,
    first_visit_distribution,
    meeting_probability,
    meeting_time_distribution,
    most_likely_trajectory,
    span_probability,
    stay_accuracy,
    stay_query,
    stay_query_prior,
    time_at_location_distribution,
    top_k_trajectories,
    trajectory_query_accuracy,
    uncertainty_reduction,
    visit_probability,
)
from repro.store import (
    GraphStore,
    MappedCTGraph,
    content_key,
    load_ctg,
    save_ctg,
    write_ctg,
)
from repro.rfid import (
    DetectionMatrix,
    PriorModel,
    Reader,
    ReaderModel,
    calibrate,
    exact_matrix,
    place_default_readers,
)
from repro.simulation import (
    Dataset,
    GeneratedTrajectory,
    GroundTruthTrajectory,
    MovementParameters,
    ReadingGenerator,
    TrajectoryGenerator,
    build_dataset,
    syn1_dataset,
    syn2_dataset,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError", "MapModelError", "ConstraintError", "ReadingSequenceError",
    "InconsistentReadingsError", "ZeroMassError", "PatternSyntaxError",
    "QueryError", "StoreError", "StoreFormatError", "StoreChecksumError",
    "GraphExportError",
    # static analysis
    "AnalysisReport", "Diagnostic", "Severity", "analyze",
    # geometry + map
    "Point", "Rect", "Segment",
    "Building", "Location", "Door", "Grid", "Cell", "WalkingDistances",
    "two_room_map", "corridor_map", "paper_floor", "multi_floor_building",
    "syn1_building", "syn2_building",
    # rfid substrate
    "Reader", "ReaderModel", "place_default_readers",
    "DetectionMatrix", "calibrate", "exact_matrix", "PriorModel",
    # constraints + inference
    "Unreachable", "TravelingTime", "Latency", "ConstraintSet",
    "MotilityProfile", "infer_constraints", "infer_du_constraints",
    "infer_tt_constraints", "infer_lt_constraints",
    # core cleaning
    "Reading", "ReadingSequence", "LSequence",
    "CTGraph", "CTNode", "FlatCTGraph", "CleaningOptions", "CleaningStats",
    "build_ct_graph", "clean", "NaiveConditioner",
    "TrajectorySampler", "rejection_sample",
    "is_valid_trajectory", "violations",
    "JointGraph", "condition_on_meeting",
    "condition_group",
    # streaming
    "StreamingCleaner", "StreamSessionManager",
    "MarkovianStream",
    "SmoothingFilter", "ParticleFilter", "BeamCleaner",
    "diagnose", "InconsistencyReport",
    # binary store
    "GraphStore", "MappedCTGraph", "content_key",
    "load_ctg", "save_ctg", "write_ctg",
    # queries
    "Pattern", "PatternAtom", "TrajectoryQuery", "QuerySession",
    "stay_query", "stay_query_prior",
    "stay_accuracy", "trajectory_query_accuracy",
    "most_likely_trajectory", "top_k_trajectories",
    "entropy_profile", "entropy_profile_prior", "uncertainty_reduction",
    "expected_visit_counts", "visit_probability",
    "span_probability", "time_at_location_distribution",
    "first_visit_distribution",
    "meeting_probability", "meeting_time_distribution",
    "colocation_profile",
    # simulation
    "MovementParameters", "TrajectoryGenerator", "GroundTruthTrajectory",
    "ReadingGenerator", "GeneratedTrajectory", "Dataset",
    "build_dataset", "syn1_dataset", "syn2_dataset",
    "__version__",
]
