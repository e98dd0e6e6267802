"""The vectorized frontier-advance kernel vs the python oracle.

Parity contract (same shape as the level-sweep kernels in
``tests/test_kernels.py``): the ``"python"`` backend is the oracle; the
``"numpy"`` :class:`~repro.core.kernels.FrontierKernel` must reproduce
everything discrete *exactly* — which readings are rejected, the
surviving node states, their dict key order, frontier sizes — while
floats are tolerance-gated (``np.bincount`` reassociates the
per-successor sums).  numpy-vs-numpy checkpoint/resume is additionally
*bit*-exact, because checkpoints materialise the kernel's own float64
values unchanged.

The hypothesis suite draws random constraint sets and streams (including
zero-mass dead-ends), kills and resumes mid-stream, and drives the
windowed :class:`~repro.streaming.StreamingCleaner` through eviction on
both backends.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.algorithm import CleaningOptions
from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.incremental import (
    advance_frontier,
    advance_frontier_routed,
)
from repro.errors import InconsistentReadingsError
from repro.streaming import StreamingCleaner

needs_numpy = pytest.mark.skipif(not kernels.numpy_available(),
                                 reason="numpy backend unavailable")

LOCATIONS = ("A", "B", "C", "D")

locations = st.sampled_from(LOCATIONS)

PYTHON = CleaningOptions(backend="python")
NUMPY = CleaningOptions(backend="numpy")


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


def assert_distributions_close(oracle, kernel):
    assert list(oracle) == list(kernel)
    for location, probability in oracle.items():
        assert math.isclose(kernel[location], probability,
                            rel_tol=1e-9, abs_tol=1e-12)


def run_parity(rows, constraints, make_oracle, make_kernel):
    """Feed both cleaners, asserting lockstep parity; True if completed."""
    oracle, kernel = make_oracle(), make_kernel()
    for row in rows:
        try:
            oracle.extend(row)
        except InconsistentReadingsError:
            with pytest.raises(InconsistentReadingsError):
                kernel.extend(row)
            # The rejection left both cleaners usable and in agreement.
            if oracle.duration:
                assert_distributions_close(oracle.filtered_distribution(),
                                           kernel.filtered_distribution())
            return False
        kernel.extend(row)
        assert kernel.frontier_size() == oracle.frontier_size()
        assert_distributions_close(oracle.filtered_distribution(),
                                   kernel.filtered_distribution())
    return True


# ----------------------------------------------------------------------
# hypothesis parity: random constraints, dead-ends, eviction, resume
# ----------------------------------------------------------------------

@needs_numpy
@settings(max_examples=150, deadline=None)
@given(streams(), constraint_sets())
def test_incremental_kernel_matches_oracle(rows, constraints):
    run_parity(rows, constraints,
               lambda: unbounded(constraints, PYTHON),
               lambda: unbounded(constraints, NUMPY))


@needs_numpy
@settings(max_examples=150, deadline=None)
@given(streams(), constraint_sets(), st.integers(1, 4))
def test_streaming_kernel_matches_oracle_through_eviction(rows, constraints,
                                                          window):
    completed = run_parity(
        rows, constraints,
        lambda: StreamingCleaner(constraints, window=window,
                                 options=PYTHON),
        lambda: StreamingCleaner(constraints, window=window,
                                 options=NUMPY))
    if not completed:
        return
    # The retained-window conditioning sees identical structure too.
    oracle = StreamingCleaner(constraints, window=window, options=PYTHON)
    kernel = StreamingCleaner(constraints, window=window, options=NUMPY)
    for row in rows:
        oracle.extend(row)
        kernel.extend(row)
    graph_a, graph_b = oracle.finalize(), kernel.finalize()
    for relative in range(oracle.retained_duration):
        expected = graph_a.location_marginal(relative)
        got = graph_b.location_marginal(relative)
        assert list(got) == list(expected)
        for location, probability in expected.items():
            assert math.isclose(got[location], probability,
                                rel_tol=1e-9, abs_tol=1e-12)


@needs_numpy
@settings(max_examples=100, deadline=None)
@given(streams(), constraint_sets(), st.data())
def test_numpy_checkpoint_resume_mid_stream_is_bit_exact(rows, constraints,
                                                         data):
    uninterrupted = StreamingCleaner(constraints, window=4, options=NUMPY)
    try:
        for row in rows:
            uninterrupted.extend(row)
    except InconsistentReadingsError:
        return
    kill_at = data.draw(st.integers(min_value=1, max_value=len(rows)),
                        label="kill_at")
    killed = StreamingCleaner(constraints, window=4, options=NUMPY)
    for row in rows[:kill_at]:
        killed.extend(row)
    import os
    import tempfile

    fd, path = tempfile.mkstemp(suffix=".ckpt")
    os.close(fd)
    try:
        killed.checkpoint(path)
        resumed = StreamingCleaner.resume(path)
        assert resumed.options.backend == "numpy"
        for row in rows[kill_at:]:
            resumed.extend(row)
        # Bit-exact, not merely close: the checkpoint carries the
        # kernel's own float64 values and the resumed kernel replays the
        # same tables.
        assert resumed.filtered_distribution() == \
            uninterrupted.filtered_distribution()
        assert resumed.frontier_size() == uninterrupted.frontier_size()
    finally:
        os.unlink(path)


# ----------------------------------------------------------------------
# zero-mass dead-ends and state preservation
# ----------------------------------------------------------------------

DEAD = ConstraintSet([Unreachable("A", "B"), Unreachable("B", "A")])


@needs_numpy
def test_dead_end_raises_and_preserves_state():
    cleaner = unbounded(DEAD, NUMPY)
    cleaner.extend({"A": 1.0})
    with pytest.raises(InconsistentReadingsError):
        cleaner.extend({"B": 1.0})
    assert cleaner.duration == 1
    assert cleaner.filtered_distribution() == {"A": 1.0}
    # The survivor keeps streaming after the drop.
    cleaner.extend({"A": 0.5, "C": 0.5})
    assert cleaner.duration == 2


@needs_numpy
def test_empty_kernel_frontier_is_falsy():
    kernel = kernels.FrontierKernel(DEAD)
    frontier = kernel.seed({"A": 1.0})
    assert frontier and len(frontier) == 1
    advanced = kernel.advance(frontier, {"B": 1.0})
    assert not advanced
    assert len(advanced) == 0
    assert advanced.to_dict() == {}


# ----------------------------------------------------------------------
# kernel internals: table cache, dict round-trips, routing
# ----------------------------------------------------------------------

STEADY = ConstraintSet([Latency("B", 3), TravelingTime("B", "D", 4)])


@needs_numpy
def test_transition_tables_are_compiled_once_per_signature():
    kernel = kernels.FrontierKernel(STEADY)
    row = {"A": 0.4, "B": 0.3, "C": 0.2, "D": 0.1}
    frontier = kernel.seed(row)
    for _ in range(50):
        frontier = kernel.advance(frontier, row)
    compiled = kernel.cached_tables
    frontier = kernel.seed(row)
    for _ in range(50):
        frontier = kernel.advance(frontier, row)
    # A periodic stream revisits the same (signature, support) pairs:
    # the second pass re-uses every table the first one compiled.
    assert kernel.cached_tables == compiled


@needs_numpy
def test_shared_kernel_serves_multiple_cleaners():
    kernel = kernels.FrontierKernel(STEADY)
    row = {"A": 0.4, "B": 0.3, "C": 0.2, "D": 0.1}
    first = unbounded(STEADY, NUMPY, frontier_kernel=kernel)
    for _ in range(20):
        first.extend(row)
    compiled = kernel.cached_tables
    second = unbounded(STEADY, NUMPY, frontier_kernel=kernel)
    for _ in range(20):
        second.extend(row)
    assert kernel.cached_tables == compiled
    assert second.filtered_distribution() == first.filtered_distribution()


@needs_numpy
def test_enter_to_dict_round_trip_preserves_bits_and_order():
    kernel = kernels.FrontierKernel(STEADY)
    row = {"B": 0.5, "A": 0.3, "D": 0.2}
    frontier = {}
    tau = 0
    for step in range(6):
        frontier = advance_frontier(frontier, row, step, STEADY)
        tau = step
    adopted = kernel.enter(frontier, tau)
    assert adopted.to_dict() == frontier
    assert list(adopted.to_dict()) == list(frontier)


@needs_numpy
def test_max_tables_caps_the_cache_but_not_correctness():
    kernel = kernels.FrontierKernel(STEADY, max_tables=1)
    capped = unbounded(STEADY, NUMPY, frontier_kernel=kernel)
    oracle = unbounded(STEADY, PYTHON)
    row_a = {"A": 0.6, "B": 0.4}
    row_b = {"C": 0.7, "D": 0.3}
    for row in (row_a, row_a, row_b, row_a, row_b, row_a):
        capped.extend(row)
        oracle.extend(row)
    assert kernel.cached_tables <= 1
    assert_distributions_close(oracle.filtered_distribution(),
                               capped.filtered_distribution())


@needs_numpy
def test_routed_auto_stays_python_below_threshold():
    frontier, kernel = advance_frontier_routed(
        {}, {"A": 1.0}, 0, STEADY, backend="auto")
    assert isinstance(frontier, dict)
    assert kernel is None


@needs_numpy
def test_routed_numpy_switches_representation_and_back(monkeypatch):
    frontier, kernel = advance_frontier_routed(
        {}, {"A": 0.5, "B": 0.5}, 0, STEADY, backend="numpy")
    assert isinstance(frontier, kernels.KernelFrontier)
    assert kernel is not None
    # Forcing the fallback mid-stream materialises the kernel frontier.
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    fallback, kernel = advance_frontier_routed(
        frontier, {"A": 0.5, "B": 0.5}, 1, STEADY, backend="numpy",
        kernel=kernel)
    assert isinstance(fallback, dict)


def test_python_backend_never_touches_numpy(monkeypatch):
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    cleaner = unbounded(STEADY, CleaningOptions(backend="numpy"))
    row = {"A": 0.5, "B": 0.5}
    oracle = unbounded(STEADY, PYTHON)
    for _ in range(5):
        cleaner.extend(row)
        oracle.extend(row)
    # Graceful fallback: numpy requested but unavailable == the oracle.
    assert cleaner.filtered_distribution() == oracle.filtered_distribution()
