#!/usr/bin/env python
"""Supply-chain scenario: group correlations and live tracking.

The paper's Section 8 names its future work: correlations in "groups of
objects moving together, which typically characterize supply-chain
scenarios".  This example exercises exactly that extension:

* a pallet and the forklift carrying it are tagged separately and produce
  *independent* noisy readings of the same physical route;
* each stream is cleaned on its own, then the two cleaned distributions are
  conditioned on the event "same location at every timestep"
  (:func:`repro.core.groups.condition_on_meeting`) — pooling the evidence
  sharpens both;
* meanwhile the forklift stream is also consumed *online* through
  :class:`repro.streaming.StreamingCleaner` (``window=None``: keep the
  whole stream), the way a live dashboard would.

Run:  python examples/supply_chain_group.py
"""

import numpy as np

from repro import (
    LSequence,
    StreamingCleaner,
    build_ct_graph,
    condition_on_meeting,
    corridor_map,
    infer_constraints,
    stay_query,
    uncertainty_reduction,
)
from repro.inference import MotilityProfile
from repro.mapmodel.grid import Grid
from repro.rfid.calibration import calibrate, exact_matrix
from repro.rfid.priors import PriorModel
from repro.rfid.readers import place_default_readers
from repro.simulation.readings import ReadingGenerator
from repro.simulation.trajectories import (
    MovementParameters,
    TrajectoryGenerator,
)


def main() -> None:
    warehouse = corridor_map(num_rooms=4, room_size=6.0)
    profile = MotilityProfile(max_speed=1.5, min_stay=5)
    constraints = infer_constraints(warehouse, profile)

    rng = np.random.default_rng(11)
    grid = Grid(warehouse)
    readers = place_default_readers(warehouse)
    truth_matrix = exact_matrix(readers, grid)
    prior = PriorModel(calibrate(readers, grid, rng=rng,
                                 expected=truth_matrix))

    # One physical route, two independent tag streams.
    movement = MovementParameters(velocity_range=(0.8, 1.5),
                                  room_rest_range=(20, 40),
                                  transit_rest_range=(0, 4))
    route = TrajectoryGenerator(warehouse, movement, rng).generate(240)
    reading_generator = ReadingGenerator(truth_matrix, rng)
    pallet_readings = reading_generator.generate(route)
    forklift_readings = reading_generator.generate(route)

    pallet_ls = LSequence.from_readings(pallet_readings, prior)
    forklift_ls = LSequence.from_readings(forklift_readings, prior)
    pallet = build_ct_graph(pallet_ls, constraints)
    forklift = build_ct_graph(forklift_ls, constraints)
    together = condition_on_meeting(pallet, forklift)

    print(f"route truth: "
          f"{' -> '.join(loc for loc, _ in route.stay_sequence())}")
    print(f"pallet graph:   {pallet}")
    print(f"forklift graph: {forklift}")
    print(f"joint graph:    {together}\n")

    # --- pooling evidence sharpens position estimates --------------------
    print("per-step accuracy of the position estimate (truth probability):")
    singles, joints = [], []
    for tau in range(route.duration):
        truth = route.locations[tau]
        singles.append(stay_query(pallet, tau).get(truth, 0.0))
        joints.append(together.location_marginal(tau).get(truth, 0.0))
    print(f"  pallet alone : {np.mean(singles):.3f}")
    print(f"  group-pooled : {np.mean(joints):.3f}")
    print(f"  (uncertainty reduction of cleaning alone: "
          f"{uncertainty_reduction(pallet_ls, pallet):.3f} bits/step)\n")

    # --- live tracking of the forklift stream ----------------------------
    print("live tracking (filtered estimate every 40 s):")
    live = StreamingCleaner(constraints, window=None, prior=prior)
    for tau, reading in enumerate(forklift_readings):
        live.extend_reading(reading.readers)
        if (tau + 1) % 40 == 0:
            estimate = live.filtered_distribution()
            best = max(estimate, key=estimate.get)
            marker = "+" if best == route.locations[tau] else "-"
            print(f"  t={tau:3d}  guess={best:10s} "
                  f"p={estimate[best]:.2f}  truth={route.locations[tau]:10s} "
                  f"{marker}  (frontier: {live.frontier_size()} states)")

    final = live.finalize()
    print(f"\nfinalized online graph equals batch: "
          f"{abs(final.num_valid_trajectories() - forklift.num_valid_trajectories()) == 0}")


if __name__ == "__main__":
    main()
