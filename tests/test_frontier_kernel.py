"""The fleet's frontier cache: the compact advance against the oracle.

``backend="python"`` streams through the oracle recursion
(:func:`repro.core.incremental.advance_frontier`); ``"auto"`` and
``"numpy"`` advance through the compact engine's memoised successor rows
(:meth:`repro.core.engine.EngineCache.advance`) — the cache a
:class:`~repro.runtime.StreamSessionManager` shares across its fleet as
``frontier_kernel``.  Every frontier (its states, their order and their
float bits), every filtered estimate and every finalized window must be
equal to the oracle's, not merely close.

The hypothesis suite draws random constraint sets and streams (including
zero-mass dead-ends), drives the windowed
:class:`~repro.streaming.StreamingCleaner` through eviction, and kills
and resumes mid-stream.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import engine
from repro.core.algorithm import CleaningOptions
from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.engine import EngineCache
from repro.core.incremental import advance_frontier, frontier_to_dict
from repro.errors import InconsistentReadingsError
from repro.runtime.sessions import StreamSessionManager
from repro.streaming import StreamingCleaner

LOCATIONS = ("A", "B", "C", "D")

locations = st.sampled_from(LOCATIONS)

PYTHON = CleaningOptions(backend="python")
ROWS = CleaningOptions(backend="auto")

DEAD = ConstraintSet([Unreachable("A", "B"), Unreachable("B", "A")])
STEADY = ConstraintSet([Latency("B", 3), TravelingTime("B", "D", 4)])


def unbounded(constraints, options, **kwargs):
    """A streaming cleaner that never evicts."""
    return StreamingCleaner(constraints, window=None, options=options,
                            **kwargs)


@st.composite
def constraint_sets(draw):
    constraints = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        kind = draw(st.sampled_from(["du", "lt", "tt"]))
        if kind == "du":
            constraints.append(Unreachable(draw(locations),
                                           draw(locations)))
        elif kind == "lt":
            constraints.append(Latency(draw(locations),
                                       draw(st.integers(2, 4))))
        else:
            a = draw(locations)
            b = draw(locations.filter(lambda x: x != a))
            constraints.append(TravelingTime(a, b,
                                             draw(st.integers(2, 4))))
    return ConstraintSet(constraints)


@st.composite
def streams(draw, max_duration=12):
    duration = draw(st.integers(min_value=1, max_value=max_duration))
    rows = []
    for _ in range(duration):
        support = draw(st.lists(locations, min_size=1, max_size=4,
                                unique=True))
        weights = [draw(st.floats(min_value=0.05, max_value=1.0))
                   for _ in support]
        total = sum(weights)
        rows.append({loc: w / total for loc, w in zip(support, weights)})
    return rows


def run_parity(rows, oracle, compact):
    """Feed both cleaners in lockstep, asserting every frontier and
    estimate equal; True if the stream completed."""
    for row in rows:
        try:
            oracle.extend(row)
        except InconsistentReadingsError:
            with pytest.raises(InconsistentReadingsError):
                compact.extend(row)
            # The rejection left both cleaners usable and in agreement.
            if oracle.duration:
                assert compact.filtered_distribution() == \
                    oracle.filtered_distribution()
            return False
        compact.extend(row)
        assert list(frontier_to_dict(compact._live()).items()) == \
            list(oracle._live().items())
        assert compact.filtered_distribution() == \
            oracle.filtered_distribution()
    return True


# ----------------------------------------------------------------------
# hypothesis parity: random constraints, dead-ends, eviction, resume
# ----------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(streams(), constraint_sets(), st.sampled_from(("auto", "numpy")))
def test_incremental_kernel_matches_oracle(rows, constraints, backend):
    run_parity(rows, unbounded(constraints, PYTHON),
               unbounded(constraints, CleaningOptions(backend=backend)))


@settings(max_examples=150, deadline=None)
@given(streams(), constraint_sets(), st.integers(1, 4))
def test_streaming_kernel_matches_oracle_through_eviction(rows, constraints,
                                                          window):
    oracle = StreamingCleaner(constraints, window=window, options=PYTHON)
    compact = StreamingCleaner(constraints, window=window, options=ROWS)
    if not run_parity(rows, oracle, compact):
        return
    # The retained-window conditioning starts from equal entry frontiers.
    assert oracle.finalize().to_flat() == compact.finalize().to_flat()


@settings(max_examples=100, deadline=None)
@given(streams(), constraint_sets(), st.data())
def test_numpy_checkpoint_resume_mid_stream_is_bit_exact(rows, constraints,
                                                         data):
    options = CleaningOptions(backend="numpy")
    uninterrupted = StreamingCleaner(constraints, window=4, options=options)
    try:
        for row in rows:
            uninterrupted.extend(row)
    except InconsistentReadingsError:
        return
    kill_at = data.draw(st.integers(min_value=1, max_value=len(rows)),
                        label="kill_at")
    killed = StreamingCleaner(constraints, window=4, options=options)
    for row in rows[:kill_at]:
        killed.extend(row)
    fd, path = tempfile.mkstemp(suffix=".ckpt")
    os.close(fd)
    try:
        killed.checkpoint(path)
        resumed = StreamingCleaner.resume(path)
        assert resumed.options.backend == "numpy"
        for row in rows[kill_at:]:
            resumed.extend(row)
        assert resumed.filtered_distribution() == \
            uninterrupted.filtered_distribution()
        assert list(frontier_to_dict(resumed._live()).items()) == \
            list(frontier_to_dict(uninterrupted._live()).items())
    finally:
        os.unlink(path)


# ----------------------------------------------------------------------
# zero-mass dead-ends and state preservation
# ----------------------------------------------------------------------

def test_dead_end_raises_and_preserves_state():
    cleaner = unbounded(DEAD, ROWS)
    cleaner.extend({"A": 1.0})
    with pytest.raises(InconsistentReadingsError):
        cleaner.extend({"B": 1.0})
    assert cleaner.duration == 1
    assert cleaner.filtered_distribution() == {"A": 1.0}
    # The survivor keeps streaming after the drop.
    cleaner.extend({"A": 0.5, "C": 0.5})
    assert cleaner.duration == 2


def test_empty_kernel_frontier_is_falsy():
    cache = EngineCache(DEAD)
    frontier = cache.seed({"A": 1.0})
    assert frontier and len(frontier) == 1
    advanced = cache.advance(frontier, {"B": 1.0})
    assert not advanced
    assert len(advanced) == 0
    assert advanced.to_dict() == {}


# ----------------------------------------------------------------------
# the row cache: reuse, sharing, dict round-trips, the cap
# ----------------------------------------------------------------------

def test_transition_tables_are_compiled_once_per_signature():
    cache = EngineCache(STEADY)
    row = {"A": 0.4, "B": 0.3, "C": 0.2, "D": 0.1}
    frontier = cache.seed(row)
    for _ in range(50):
        frontier = cache.advance(frontier, row)
    computed = cache.cached_tables
    frontier = cache.seed(row)
    for _ in range(50):
        frontier = cache.advance(frontier, row)
    # A periodic stream revisits the same (state, support) pairs: the
    # second pass computes no row the first one did not.
    assert cache.cached_tables == computed


def test_shared_kernel_serves_multiple_cleaners():
    manager = StreamSessionManager(STEADY, window=8, options=ROWS)
    cache = manager.frontier_kernel
    assert isinstance(cache, EngineCache)
    row = {"A": 0.4, "B": 0.3, "C": 0.2, "D": 0.1}
    for _ in range(20):
        manager.ingest("a", row)
    computed = cache.cached_tables
    for _ in range(20):
        manager.ingest("b", row)
    assert cache.cached_tables == computed
    assert manager.session("b").filtered_distribution() == \
        manager.session("a").filtered_distribution()


def test_enter_to_dict_round_trip_preserves_bits_and_order():
    cache = EngineCache(STEADY)
    row = {"B": 0.5, "A": 0.3, "D": 0.2}
    frontier = {}
    for tau in range(6):
        frontier = advance_frontier(frontier, row, tau, STEADY)
    adopted = cache.adopt(frontier, 5)
    assert list(adopted.to_dict().items()) == list(frontier.items())


def test_max_tables_caps_the_cache_but_not_correctness(monkeypatch):
    monkeypatch.setattr(engine, "STREAM_ROW_CAP", 1)
    capped = unbounded(STEADY, ROWS)
    oracle = unbounded(STEADY, PYTHON)
    # Later rows bring supports first seen past the cap.
    stream = [{"A": 0.6, "B": 0.4}, {"A": 0.6, "B": 0.4},
              {"C": 0.7, "D": 0.3}, {"A": 0.5, "B": 0.3, "D": 0.2},
              {"C": 0.7, "D": 0.3}, {"D": 0.1, "B": 0.9},
              {"A": 0.6, "B": 0.4}]
    for row in stream:
        capped.extend(row)
        oracle.extend(row)
        assert capped.filtered_distribution() == \
            oracle.filtered_distribution()
    assert capped._cache.cached_tables <= 1


def test_python_backend_never_touches_numpy(monkeypatch):
    # The rows need no numpy: "numpy" with numpy disabled still runs
    # them, and equals the oracle.
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    cache = EngineCache(STEADY)
    rows = unbounded(STEADY, CleaningOptions(backend="numpy"))
    oracle = unbounded(STEADY, PYTHON, cache=cache)
    for _ in range(5):
        rows.extend({"A": 0.5, "B": 0.5})
        oracle.extend({"A": 0.5, "B": 0.5})
    assert rows.filtered_distribution() == oracle.filtered_distribution()
    # The python backend never touches a cache it is handed.
    assert cache.cached_tables == 0
    assert cache.interned_states == 0
    assert StreamSessionManager(STEADY, options=PYTHON).frontier_kernel \
        is None


def test_a_cache_for_other_constraints_is_not_used():
    foreign = EngineCache(DEAD)
    cleaner = unbounded(STEADY, ROWS, cache=foreign)
    cleaner.extend({"A": 0.5, "B": 0.5})
    assert foreign.interned_states == 0
