#!/usr/bin/env python
"""Contact tracing: did two independently tracked people meet?

Two people wear RFID badges in the same building; one later turns out to
be a disease carrier (or a security risk).  Each badge produced its own
noisy reading stream.  The question — *did they meet, and when?* — is a
joint query over the two cleaned trajectory distributions:

* :func:`repro.queries.meeting.meeting_probability` — P(ever co-located);
* :func:`repro.queries.meeting.meeting_time_distribution` — when the first
  contact happened;
* :func:`repro.queries.meeting.colocation_profile` — the contact window.

All three meeting queries accept prebuilt
:class:`~repro.queries.session.QuerySession`s, so the per-person sweeps
are computed once and shared across every joint query (and any
single-object questions asked along the way).

The example also renders the cleaned position estimates as ASCII heatmaps
(:mod:`repro.viz`) at the most likely contact moment.

Run:  python examples/contact_tracing.py
"""

import numpy as np

from repro import (
    LSequence,
    QuerySession,
    build_ct_graph,
    infer_constraints,
    meeting_probability,
    meeting_time_distribution,
    colocation_profile,
    multi_floor_building,
)
from repro.inference import MotilityProfile
from repro.mapmodel.grid import Grid
from repro.rfid.calibration import calibrate, exact_matrix
from repro.rfid.priors import PriorModel
from repro.rfid.readers import place_default_readers
from repro.simulation.readings import ReadingGenerator
from repro.simulation.trajectories import TrajectoryGenerator
from repro.viz import render_marginal


def main() -> None:
    building = multi_floor_building(1, name="clinic")
    profile = MotilityProfile()
    constraints = infer_constraints(building, profile)

    rng = np.random.default_rng(5)
    grid = Grid(building)
    readers = place_default_readers(building)
    truth_matrix = exact_matrix(readers, grid)
    prior = PriorModel(calibrate(readers, grid, rng=rng,
                                 expected=truth_matrix))

    generator = TrajectoryGenerator(building, rng=rng)
    reading_generator = ReadingGenerator(truth_matrix, rng)

    carrier_truth = generator.generate(420)
    visitor_truth = generator.generate(420)
    carrier = build_ct_graph(
        LSequence.from_readings(reading_generator.generate(carrier_truth),
                                prior), constraints)
    visitor = build_ct_graph(
        LSequence.from_readings(reading_generator.generate(visitor_truth),
                                prior), constraints)

    # Ground truth for reference.
    actual_meetings = [tau for tau in range(420)
                       if carrier_truth.locations[tau]
                       == visitor_truth.locations[tau]]
    if actual_meetings:
        print(f"ground truth: first contact at t={actual_meetings[0]} in "
              f"{carrier_truth.locations[actual_meetings[0]]} "
              f"({len(actual_meetings)} co-located seconds total)")
    else:
        print("ground truth: the two never met")

    # One session per person: the forward sweeps behind the meeting
    # queries (and the marginals below) are computed once and reused.
    carrier_session = QuerySession(carrier)
    visitor_session = QuerySession(visitor)

    p_meet = meeting_probability(carrier_session, visitor_session)
    print(f"\nP(contact at some point) = {p_meet:.3f}")

    first = meeting_time_distribution(carrier_session, visitor_session)
    if first:
        top = sorted(first.items(), key=lambda kv: -kv[1])[:5]
        print("most likely first-contact times:")
        for tau, probability in top:
            print(f"  t={tau:3d}  p={probability:.3f}")

    profile_values = colocation_profile(carrier_session, visitor_session)
    hot = int(np.argmax(profile_values))
    print(f"\nhighest co-location probability at t={hot} "
          f"(p={profile_values[hot]:.3f})")

    print("\ncarrier position estimate at that moment:")
    print(render_marginal(building, 0,
                          carrier_session.location_marginal(hot)))
    print("\nvisitor position estimate at that moment:")
    print(render_marginal(building, 0,
                          visitor_session.location_marginal(hot)))


if __name__ == "__main__":
    main()
