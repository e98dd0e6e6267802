"""Every query against brute-force enumeration, on every flat route.

The one query engine is :class:`~repro.queries.session.QuerySession`
over a graph's flat form.  This suite checks its answers against
:class:`~repro.core.naive.NaiveConditioner` — the conditioned
distribution obtained by enumerating every trajectory — on random
instances, for each route a flat graph arrives by:

* ``CTGraph.to_flat()`` of the reference builder's node graph,
* engine-native flat builds (``CleaningOptions(materialize="flat")``)
  from the reference and from the compact engine,
* a ``.ctg`` file served back by ``load_ctg(mmap=True)``.

Per route it checks every location marginal, the entropy profile,
expected visit counts, visit/first-visit/span/dwell for every location
(plus one the graph never mentions), pattern matching, the MAP
trajectory and top-k lists.  The first three routes must also be one
value structurally.  A ``JointGraph`` runs through its flat form the same
way.  Deterministic tie-breaking (lexicographic, per the
``most_likely_trajectory`` contract) gets its own regression tests on
hand-built tied graphs, where exact ties exist.
"""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.algorithm import CleaningOptions, build_ct_graph
from repro.core.constraints import ConstraintSet, Latency, Unreachable
from repro.core.flatgraph import FlatCTGraph
from repro.core.groups import condition_on_meeting
from repro.core.lsequence import LSequence
from repro.core.naive import NaiveConditioner
from repro.errors import InconsistentReadingsError, QueryError
from repro.queries import (
    most_likely_trajectory,
    stay_query,
    top_k_trajectories,
)
from repro.queries.pattern import Pattern, PatternAtom
from repro.queries.session import QuerySession
from repro.queries.trajectory import TrajectoryQuery
from repro.store import load_ctg, save_ctg

from tests.test_algorithm_vs_naive import tt_du_heavy_instances
from tests.test_engine_vs_reference import (
    LOCATIONS,
    constraint_sets,
    lsequences,
    tt_heavy_constraint_sets,
)
from tests.test_groups import joint_by_enumeration

#: "E" appears only in the TT+DU-heavy family's graphs, "Z" in none.
QUERY_LOCATIONS = LOCATIONS + ("E", "Z")


def approx(value):
    """Enumeration sums trajectory probabilities in another order than
    the DPs, so answers agree to rounding, not bitwise."""
    return pytest.approx(value, rel=1e-9, abs=1e-12)


def _flat_routes(lsequence, constraints):
    """``to_flat()`` of the node graph and the engine-native flat builds,
    or None when the instance has no valid trajectory (every route and
    the enumeration must then fail alike)."""
    try:
        nodes = build_ct_graph(lsequence, constraints,
                               CleaningOptions(engine="reference"))
    except InconsistentReadingsError as error:
        for engine in ("reference", "compact"):
            with pytest.raises(type(error)):
                build_ct_graph(lsequence, constraints,
                               CleaningOptions(engine=engine,
                                               materialize="flat"))
        with pytest.raises(InconsistentReadingsError):
            NaiveConditioner(lsequence, constraints).conditioned_distribution()
        return None
    return [nodes.to_flat()] + [
        build_ct_graph(lsequence, constraints,
                       CleaningOptions(engine=engine, materialize="flat"))
        for engine in ("reference", "compact")]


def _patterns(duration):
    """Patterns for a graph of ``duration`` steps.  The last three reach
    the match DP's pruning paths: a location no instance draws (the start
    state is dead), an end-anchored pattern whose accepting state is not
    absorbing, and a run longer than the graph."""
    return ["? B[1] ?" if duration >= 3 else "B[1]", "? A ? C[2] ?", "D ?",
            "? A ? Z[2] ?", "? C", f"? B[{duration + 1}] ?"]


def _assert_matches_enumeration(graph, distribution):
    """Every query over ``graph`` (any form) equals its value computed
    from the enumerated conditioned ``distribution``."""
    session = QuerySession(graph)
    duration = session.duration
    assert graph.num_valid_trajectories() == len(distribution)

    marginals = [{} for _ in range(duration)]
    for trajectory, probability in distribution.items():
        for tau, location in enumerate(trajectory):
            marginals[tau][location] = (marginals[tau].get(location, 0.0)
                                        + probability)
    for tau in range(duration):
        assert session.location_marginal(tau) == approx(marginals[tau])
    assert session.entropy_profile() == approx(
        [-sum(p * math.log2(p) for p in marginal.values())
         for marginal in marginals])
    expected = {}
    for marginal in marginals:
        for location, probability in marginal.items():
            expected[location] = expected.get(location, 0.0) + probability
    assert session.expected_visit_counts() == approx(expected)

    end = min(duration - 1, 3)
    for location in QUERY_LOCATIONS:
        visit, span, first, dwell = 0.0, 0.0, {}, {}
        for trajectory, probability in distribution.items():
            if location in trajectory:
                visit += probability
                tau = trajectory.index(location)
                first[tau] = first.get(tau, 0.0) + probability
            if all(step == location for step in trajectory[:end + 1]):
                span += probability
            count = trajectory.count(location)
            dwell[count] = dwell.get(count, 0.0) + probability
        assert session.visit_probability(location) == approx(visit)
        assert session.span_probability(location, 0, end) == approx(span)
        assert session.first_visit_distribution(location) == approx(first)
        assert (session.time_at_location_distribution(location)
                == approx(dwell))

    for text in _patterns(duration):
        query = TrajectoryQuery(text)
        assert session.match_probability(text) == approx(
            sum(p for t, p in distribution.items() if query.matches(t)))

    trajectory, probability = session.most_likely_trajectory()
    assert probability == approx(distribution[trajectory])
    assert probability == approx(max(distribution.values()))
    for k in (1, 3, 10_000):
        top = session.top_k_trajectories(k)
        assert len(top) == min(k, len(distribution))
        assert len({t for t, _ in top}) == len(top)
        for trajectory, probability in top:
            assert probability == approx(distribution[trajectory])
        probabilities = [p for _, p in top]
        assert probabilities == sorted(probabilities, reverse=True)
        chosen = {t for t, _ in top}
        assert all(p <= top[-1][1] * (1 + 1e-9)
                   for t, p in distribution.items() if t not in chosen)


def _check_all_routes(lsequence, constraints):
    routes = _flat_routes(lsequence, constraints)
    if routes is None:
        return
    # All flat forms are one value: to_flat == engine-native (both engines).
    assert routes[0] == routes[1] == routes[2]
    routes[0].validate()
    distribution = NaiveConditioner(
        lsequence, constraints).conditioned_distribution()
    for flat in routes:
        _assert_matches_enumeration(flat, distribution)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.ctg"
        save_ctg(routes[2], path)
        with load_ctg(path, mmap=True) as view:
            _assert_matches_enumeration(view, distribution)


#: An instance whose top-k bounds pop two paths one ulp out of order
#: (``AABAAA`` at 0.00793178663493952 just before ``AACAAB`` at
#: 0.007931786634939523) unless the results are sorted before returning.
ULP_TOP_K = LSequence([
    {"A": 1.0}, {"A": 1.0},
    {"A": 0.48780487804878053, "B": 0.48780487804878053,
     "C": 0.02439024390243903},
    {"A": 1.0}, {"A": 0.6666666666666666, "B": 0.3333333333333333},
    {"A": 0.02439024390243903, "B": 0.48780487804878053,
     "C": 0.48780487804878053}])


@settings(max_examples=150, deadline=None)
@given(lsequences(), constraint_sets())
@example(lsequence=ULP_TOP_K, constraints=ConstraintSet())
def test_query_parity_on_random_instances(lsequence, constraints):
    _check_all_routes(lsequence, constraints)


@settings(max_examples=100, deadline=None)
@given(lsequences(max_duration=12), tt_heavy_constraint_sets())
def test_query_parity_on_tt_heavy_instances(lsequence, constraints):
    """TT constraints prune mid-sequence levels — the zero-mass-pruned
    node/edge paths the flat emission must drop identically."""
    _check_all_routes(lsequence, constraints)


@settings(max_examples=150, deadline=None)
@given(tt_du_heavy_instances())
def test_query_parity_on_tt_du_heavy_instances(instance):
    """DU pairs that leave supported TT destinations unreachable: the
    departure filter drops most ``TL`` entries before expansion, and
    every query must still see the enumerated distribution."""
    _check_all_routes(*instance)


def test_joint_graph_queries_run_on_its_flat_form():
    constraints = ConstraintSet([Unreachable("A", "C"), Latency("B", 2)])
    ls_a = LSequence([{"A": 0.5, "B": 0.5}, {"B": 0.7, "C": 0.3},
                      {"B": 0.5, "C": 0.5}, {"B": 0.4, "C": 0.6}])
    ls_b = LSequence([{"A": 0.2, "B": 0.8}, {"B": 0.4, "C": 0.6},
                      {"B": 0.9, "C": 0.1}, {"B": 0.3, "C": 0.7}])
    joint = condition_on_meeting(build_ct_graph(ls_a, constraints),
                                 build_ct_graph(ls_b, constraints))
    flat = joint.to_flat()
    flat.validate()
    assert all(stay is None for level in flat.stays for stay in level)
    assert QuerySession.ensure(joint).graph == flat
    distribution = joint_by_enumeration(ls_a, ls_b, constraints)
    for tau in range(joint.duration):
        marginal = {}
        for trajectory, probability in distribution.items():
            marginal[trajectory[tau]] = (marginal.get(trajectory[tau], 0.0)
                                         + probability)
        assert joint.location_marginal(tau) == approx(marginal)
    for text in ("? B ?", "? C[2] ?", "A B ?"):
        query = TrajectoryQuery(text)
        assert query.probability(joint) == approx(
            sum(p for t, p in distribution.items() if query.matches(t)))


def test_match_probability_is_always_a_float(tmp_path):
    """Every answer path returns a float: a dead start state, a live
    pattern no run accepts, and accepted runs — also off a mapped
    ``.ctg``, whose columns are memoryviews."""
    flat = build_ct_graph(LSequence([{"A": 0.5, "B": 0.5}, {"B": 1.0}]),
                          ConstraintSet(),
                          CleaningOptions(materialize="flat"))
    path = tmp_path / "graph.ctg"
    save_ctg(flat, path)
    with load_ctg(path) as view:
        for graph in (flat, view):
            answers = {text: TrajectoryQuery(text).probability(graph)
                       for text in ("? Z ?", "? B[3] ?", "? A ?", "B ?")}
            assert answers == {"? Z ?": 0.0, "? B[3] ?": 0.0,
                               "? A ?": 0.5, "B ?": 0.5}
            assert all(type(answer) is float for answer in answers.values())


# ----------------------------------------------------------------------
# trajectory queries: the pruned sweep against the unpruned DP
# ----------------------------------------------------------------------
def unpruned_match(graph, pattern):
    """The pattern DP with no liveness filter: every ``(node, DFA
    state)`` pair of every level, keys packed as ``QuerySession`` packs
    them, accepting pairs summed at the end."""
    dfa = pattern.dfa()
    num_states = dfa.num_states
    names = graph.location_names
    forward = {}
    for i, lid in enumerate(graph.locations[0]):
        mass = graph.source_probabilities[i]
        if mass <= 0.0:
            continue
        key = i * num_states + dfa.step(dfa.start, names[lid])
        forward[key] = forward.get(key, 0.0) + mass
    for tau in range(graph.duration - 1):
        offsets = graph.edge_offsets[tau]
        children = graph.edge_children[tau]
        probabilities = graph.edge_probabilities[tau]
        next_lids = graph.locations[tau + 1]
        step = {}
        for key, mass in forward.items():
            i, state = divmod(key, num_states)
            for e in range(offsets[i], offsets[i + 1]):
                child = children[e]
                next_key = child * num_states + dfa.step(
                    state, names[next_lids[child]])
                step[next_key] = (step.get(next_key, 0.0)
                                  + mass * probabilities[e])
        forward = step
    return sum((mass for key, mass in forward.items()
                if key % num_states in dfa.accepting), 0.0)


@st.composite
def match_cases(draw):
    """An instance from one of the suite's families and three grammar
    patterns over its locations plus "Z", which no instance draws: 1-4
    named conditions with runs of 1 to duration + 1, each gap and end a
    wildcard or not."""
    lsequence, constraints = draw(st.one_of(
        st.tuples(lsequences(), constraint_sets()),
        st.tuples(lsequences(max_duration=8), tt_heavy_constraint_sets()),
        tt_du_heavy_instances()))
    drawn = sorted({location for tau in range(lsequence.duration)
                    for location in lsequence.candidates(tau)})
    names = st.sampled_from(drawn + ["Z"])
    runs = st.integers(min_value=1, max_value=lsequence.duration + 1)
    patterns = []
    for _ in range(3):
        atoms = [PatternAtom(None)] if draw(st.booleans()) else []
        for n in range(draw(st.integers(min_value=1, max_value=4))):
            if n and draw(st.booleans()):
                atoms.append(PatternAtom(None))
            atoms.append(PatternAtom(draw(names), draw(runs)))
        if draw(st.booleans()):
            atoms.append(PatternAtom(None))
        patterns.append(Pattern(atoms))
    return lsequence, constraints, patterns


@settings(max_examples=300, deadline=None)
@given(match_cases())
def test_pruned_match_equals_the_unpruned_dp(case):
    """Bit for bit on the flat, node and mapped forms, whatever the
    argument type, and to rounding against enumeration."""
    lsequence, constraints, patterns = case
    try:
        nodes = build_ct_graph(lsequence, constraints)
    except InconsistentReadingsError:
        return
    flat = build_ct_graph(lsequence, constraints,
                          CleaningOptions(materialize="flat"))
    distribution = NaiveConditioner(
        lsequence, constraints).conditioned_distribution()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.ctg"
        save_ctg(flat, path)
        with load_ctg(path, mmap=True) as view:
            for pattern in patterns:
                expected = unpruned_match(flat, pattern)
                assert QuerySession(flat).match_probability(pattern) \
                    == expected
                query = TrajectoryQuery(str(pattern))
                assert query.probability(nodes) == expected
                assert unpruned_match(nodes.to_flat(), pattern) == expected
                assert QuerySession(view).match_probability(str(pattern)) \
                    == expected
                assert unpruned_match(view, pattern) == expected
                assert expected == approx(sum(
                    p for t, p in distribution.items() if query.matches(t)))


class _EdgesRaise:
    """A flat-shaped wrapper whose edge columns raise: a query that
    sweeps the graph fails."""

    def __init__(self, graph):
        self._graph = graph

    def __getattr__(self, name):
        if name.startswith("edge_"):
            raise AssertionError(f"the query read {name}")
        return getattr(self._graph, name)


def test_table_dead_pattern_compiles_and_sweeps_nothing(monkeypatch):
    """A pattern naming a location the graph never holds answers 0.0
    from the name table: a string is not even compiled."""
    flat = build_ct_graph(LSequence([{"A": 0.5, "B": 0.5}, {"B": 1.0}]),
                          ConstraintSet(), CleaningOptions(materialize="flat"))
    query = TrajectoryQuery("? Z ?")
    compiled = []
    original = Pattern.dfa
    monkeypatch.setattr(Pattern, "dfa",
                        lambda self: compiled.append(self) or original(self))
    session = QuerySession(_EdgesRaise(flat))
    assert session.match_probability("? A ? Z[2] ?") == 0.0
    assert session.match_probability(Pattern.parse("Z")) == 0.0
    assert session.match_probability(query) == 0.0
    assert compiled == []


def test_table_dead_trajectory_query_is_never_compiled(monkeypatch):
    """``TrajectoryQuery`` compiles its DFA on first use, so a query the
    name table settles costs no compile (``rfid-ctg query --pattern``
    and Fig. 8(c)'s harness wrap every pattern in one)."""
    flat = build_ct_graph(LSequence([{"A": 0.5, "B": 0.5}, {"B": 1.0}]),
                          ConstraintSet(), CleaningOptions(materialize="flat"))
    compiled = []
    original = Pattern.dfa
    monkeypatch.setattr(Pattern, "dfa",
                        lambda self: compiled.append(self) or original(self))
    assert TrajectoryQuery("? A ? Z[2] ?").probability(flat) == 0.0
    assert TrajectoryQuery(Pattern.parse("Z")).probability(
        QuerySession(_EdgesRaise(flat))) == 0.0
    assert compiled == []
    query = TrajectoryQuery("? B")
    assert query.probability(flat) == 1.0
    assert compiled == [query.pattern]
    assert query.dfa() is query.dfa()  # the pattern's cached DFA


def test_level_dead_pattern_sweeps_nothing():
    """Every named location is in the graph, but no run of the levels
    fits the pattern: the level pass answers 0.0 without a sweep."""
    lsequence = LSequence([{"A": 0.5, "B": 0.5}, {"B": 1.0},
                           {"A": 0.5, "C": 0.5}, {"A": 0.5, "B": 0.5}])
    flat = build_ct_graph(lsequence, ConstraintSet(),
                          CleaningOptions(materialize="flat"))
    session = QuerySession(_EdgesRaise(flat))
    for text in ("? A[3] ?", "? C ? B ? C ?", "? C B[2] ?", "C ?"):
        assert set(Pattern.parse(text).mentioned_locations) <= set(
            flat.location_names)
        assert session.match_probability(text) == 0.0
    assert QuerySession(flat).match_probability("? A[2] ?") == 0.25


# ----------------------------------------------------------------------
# deterministic tie-breaking
# ----------------------------------------------------------------------
def _tied_graph():
    """Four equal-probability trajectories: (B|C) -> A -> (B|D)."""
    lsequence = LSequence([
        {"B": 0.5, "C": 0.5},
        {"A": 1.0},
        {"B": 0.5, "D": 0.5},
    ])
    return build_ct_graph(lsequence, ConstraintSet([]))


def test_map_tie_break_is_lexicographic():
    nodes = _tied_graph()
    trajectory, probability = most_likely_trajectory(nodes)
    assert trajectory == ("B", "A", "B")
    assert probability == 0.25


def test_map_tie_break_identical_on_flat_path():
    nodes = _tied_graph()
    session = QuerySession(nodes.to_flat())
    assert session.most_likely_trajectory() == most_likely_trajectory(nodes)


def test_top_k_ties_ordered_identically_across_paths():
    nodes = _tied_graph()
    session = QuerySession(nodes.to_flat())
    expected = top_k_trajectories(nodes, 4)
    assert [t for t, _ in expected] == [
        ("B", "A", "B"), ("B", "A", "D"), ("C", "A", "B"), ("C", "A", "D")]
    assert session.top_k_trajectories(4) == expected


def test_map_tie_break_prefers_earlier_divergence():
    """Lexicographic means position 0 dominates: A.. beats B.. even when
    the B-prefixed path would win later positions."""
    lsequence = LSequence([
        {"A": 0.5, "B": 0.5},
        {"A": 0.5, "D": 0.5},
    ])
    nodes = build_ct_graph(lsequence, ConstraintSet([]))
    trajectory, _ = most_likely_trajectory(nodes)
    assert trajectory == ("A", "A")
    session = QuerySession(nodes.to_flat())
    assert session.most_likely_trajectory() == most_likely_trajectory(nodes)


# ----------------------------------------------------------------------
# top-k contract
# ----------------------------------------------------------------------
def test_top_k_exhausts_at_num_valid_trajectories():
    nodes = _tied_graph()
    assert nodes.num_valid_trajectories() == 4
    result = top_k_trajectories(nodes, 100)
    assert len(result) == 4
    assert sum(p for _, p in result) == pytest.approx(1.0)


def test_top_k_is_descending_where_bounds_round_an_ulp_low():
    for graph in (build_ct_graph(ULP_TOP_K, ConstraintSet()),
                  build_ct_graph(ULP_TOP_K, ConstraintSet(),
                                 CleaningOptions(materialize="flat"))):
        top = top_k_trajectories(graph, 10_000)
        probabilities = [p for _, p in top]
        assert probabilities == sorted(probabilities, reverse=True)
        rank = {trajectory: i for i, (trajectory, _) in enumerate(top)}
        assert rank[tuple("AACAAB")] < rank[tuple("AABAAA")]
        # Exact ties keep discovery order: the four 0.1586... paths.
        assert [t for t, _ in top[:4]] == [
            tuple("AAAAAB"), tuple("AAAAAC"), tuple("AABAAB"),
            tuple("AABAAC")]


def test_top_k_rejects_non_positive_k():
    nodes = _tied_graph()
    with pytest.raises(QueryError):
        top_k_trajectories(nodes, 0)
    with pytest.raises(QueryError):
        QuerySession(nodes.to_flat()).top_k_trajectories(0)


@settings(max_examples=60, deadline=None)
@given(lsequences(max_duration=6), constraint_sets(),
       st.integers(min_value=1, max_value=30))
def test_top_k_length_contract_on_random_instances(lsequence, constraints,
                                                   k):
    routes = _flat_routes(lsequence, constraints)
    if routes is None:
        return
    result = QuerySession(routes[0]).top_k_trajectories(k)
    assert len(result) == min(k, routes[0].num_valid_trajectories())
    # Sorted by probability, descending.
    probabilities = [p for _, p in result]
    assert probabilities == sorted(probabilities, reverse=True)


# ----------------------------------------------------------------------
# answers are the caller's to edit
# ----------------------------------------------------------------------
def test_session_answers_are_fresh_containers():
    """Editing an answer must not change a later one: each call hands
    out a new container, never the session's cache."""
    nodes = _tied_graph()
    for target in (nodes, QuerySession(nodes.to_flat())):
        session = QuerySession.ensure(target)
        alphas = session.alphas()
        session.alphas()[0][0] = 9.0
        stay_query(target, 0).clear()
        session.location_marginal(1)["Z"] = 5.0
        session.entropy_profile()[0] = -1.0
        session.expected_visit_counts().clear()
        assert session.alphas() == alphas
        assert session.location_marginal(0) == {"B": 0.5, "C": 0.5}
        assert session.location_marginal(1) == {"A": 1.0}
        assert session.entropy_profile() == [1.0, 0.0, 1.0]
        assert session.expected_visit_counts() == {
            "A": 1.0, "B": 1.0, "C": 0.5, "D": 0.5}


# ----------------------------------------------------------------------
# flat container behaviour
# ----------------------------------------------------------------------
def test_flat_graph_is_smaller_and_validates():
    lsequence = LSequence([{"A": 0.5, "B": 0.5} for _ in range(40)])
    nodes = build_ct_graph(lsequence, ConstraintSet([Latency("B", 3)]))
    flat = nodes.to_flat()
    flat.validate()
    assert flat.estimate_size_bytes() < nodes.estimate_size_bytes()
    assert flat.num_nodes == nodes.num_nodes
    assert flat.num_edges == nodes.num_edges


def test_session_rejects_out_of_range_queries():
    nodes = _tied_graph()
    session = QuerySession(nodes.to_flat())
    with pytest.raises(QueryError):
        session.location_marginal(3)
    with pytest.raises(QueryError):
        session.span_probability("A", 1, 3)
    with pytest.raises(QueryError):
        nodes.to_flat().locations_at(-1)


def test_flat_equality_ignores_stats():
    lsequence = LSequence([{"A": 1.0}, {"A": 0.6, "B": 0.4}])
    constraints = ConstraintSet([Unreachable("A", "C")])
    reference = build_ct_graph(
        lsequence, constraints,
        CleaningOptions(engine="reference", materialize="flat"))
    compact = build_ct_graph(
        lsequence, constraints,
        CleaningOptions(engine="compact", materialize="flat"))
    assert isinstance(reference, FlatCTGraph)
    assert isinstance(compact, FlatCTGraph)
    assert reference == compact  # stats differ (compare=False), values equal
