#!/usr/bin/env python
"""Warehouse scenario: auditing item flow through processing stations.

Tagged pallets move through a warehouse: storage bays along a central
aisle.  Every pallet that enters a station is processed for at least a
known latency (scanning, weighing, wrapping), which the cleaning framework
encodes as LT constraints; the aisle geometry yields DU/TT constraints.

The audit questions compare each pallet's *cleaned* route to the intended
process sequence, and export the cleaned data as a Markovian stream —
the paper's Section 5 remark — for downstream warehousing tools.

Run:  python examples/warehouse_audit.py
"""

from repro import (
    ConstraintSet,
    Latency,
    LSequence,
    MovementParameters,
    TrajectoryQuery,
    build_ct_graph,
    build_dataset,
    corridor_map,
)
from repro.inference import MotilityProfile, infer_du_constraints, \
    infer_tt_constraints
from repro.markov.stream import MarkovianStream

#: The intended process: receiving -> scanning -> wrapping -> shipping.
PROCESS = ("room1", "room2", "room3", "room4")
STATION_NAMES = {
    "room1": "receiving",
    "room2": "scanning",
    "room3": "wrapping",
    "room4": "shipping",
    "corridor": "aisle",
}
#: Minimum processing time (seconds) at each station.
STATION_LATENCY = 20


def main() -> None:
    warehouse = corridor_map(num_rooms=4, room_size=6.0)
    profile = MotilityProfile(max_speed=1.5, min_stay=STATION_LATENCY)

    # Domain-specific constraints: map-implied DU/TT plus per-station
    # processing latencies (stronger than a generic min_stay would be).
    constraints = ConstraintSet(
        infer_du_constraints(warehouse)
        + infer_tt_constraints(warehouse, profile.max_speed)
        + [Latency(station, STATION_LATENCY) for station in PROCESS])

    # Simulate three pallets; forklifts dwell 20-45 s at stations.
    dataset = build_dataset(
        warehouse, durations=(300,), per_duration=3, seed=99,
        movement=MovementParameters(velocity_range=(0.8, 1.5),
                                    room_rest_range=(25, 45),
                                    transit_rest_range=(0, 4)))

    process_query = TrajectoryQuery(
        " ".join(["?"] + [f"{station}[{STATION_LATENCY}] ?"
                          for station in PROCESS]))
    print(f"warehouse: {warehouse}")
    print(f"audit pattern: {process_query.pattern}\n")

    for index, pallet in enumerate(dataset.trajectories[300], start=1):
        truth = tuple(pallet.truth.locations)
        lsequence = LSequence.from_readings(pallet.readings, dataset.prior)
        graph = build_ct_graph(lsequence, constraints)

        route = [STATION_NAMES[loc] for loc, _ in pallet.truth.stay_sequence()]
        followed = process_query.matches(truth)
        p_followed = process_query.probability(graph)
        print(f"pallet #{index}: actual route {' -> '.join(route)}")
        print(f"  followed full process? truth="
              f"{'yes' if followed else 'no'}  "
              f"P(cleaned)={p_followed:.3f}  "
              f"P(raw)={process_query.probability_prior(lsequence):.3f}")

        # Per-station audit: how long was the pallet processed?
        for station in PROCESS:
            query = TrajectoryQuery(f"? {station}[{STATION_LATENCY}] ?")
            print(f"    {STATION_NAMES[station]:10s} "
                  f"P(processed >= {STATION_LATENCY}s) = "
                  f"{query.probability(graph):.3f}")

        # Export for the warehouse's Markovian-stream tooling.
        stream = MarkovianStream.from_ct_graph(graph)
        start = max(stream.initial, key=stream.initial.get)
        print(f"  exported {stream}; most likely start: "
              f"{STATION_NAMES[start]}\n")


if __name__ == "__main__":
    main()
