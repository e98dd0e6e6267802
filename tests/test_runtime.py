"""Tests for the batch runtime (repro.runtime): equality with sequential
cleaning across worker counts, failure isolation, ordering, shared plans."""

import gc

import pytest

from repro.core.algorithm import CleaningOptions, build_ct_graph
from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.lsequence import LSequence, ReadingSequence
from repro.errors import ReadingSequenceError, ZeroMassError
from repro.runtime import BatchCleaner, SharedCleaningPlan, clean_many

CONSTRAINTS = ConstraintSet([
    Unreachable("A", "C"), Unreachable("C", "A"),
    Latency("B", 3),
    TravelingTime("A", "D", 4), TravelingTime("D", "A", 4),
])

_PHASES = (
    {"A": 0.4, "B": 0.4, "C": 0.2},
    {"B": 0.6, "D": 0.4},
    {"B": 0.5, "C": 0.3, "D": 0.2},
    {"A": 0.5, "B": 0.5},
)


def make_lsequence(duration, offset=0):
    return LSequence([_PHASES[(tau + offset) % len(_PHASES)]
                      for tau in range(duration)])


@pytest.fixture(scope="module")
def workload():
    """Eight small, diverse objects (every phase offset, two durations)."""
    return [make_lsequence(duration, offset)
            for duration in (6, 9) for offset in range(4)]


class TestParallelEqualsSequential:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_paths_probability_identical(self, workload, workers):
        sequential = [build_ct_graph(ls, CONSTRAINTS) for ls in workload]
        result = clean_many(workload, CONSTRAINTS, workers=workers)
        assert len(result) == len(workload)
        for expected, outcome in zip(sequential, result):
            assert outcome.ok
            # Bit-exact, path for path: same trajectories, same conditioned
            # probabilities, same enumeration order.
            assert list(outcome.graph.paths()) == list(expected.paths())
            outcome.graph.validate()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_stats_match_sequential(self, workload, workers):
        sequential = [build_ct_graph(ls, CONSTRAINTS) for ls in workload]
        result = clean_many(workload, CONSTRAINTS, workers=workers)
        for expected, outcome in zip(sequential, result):
            assert outcome.stats == expected.stats
        aggregate = result.aggregate_stats()
        assert aggregate.nodes_created == sum(
            g.stats.nodes_created for g in sequential)
        assert aggregate.edges_kept == sum(
            g.stats.edges_kept for g in sequential)

    def test_chunk_size_does_not_change_results(self, workload):
        baseline = clean_many(workload, CONSTRAINTS, workers=1)
        chunked = clean_many(workload, CONSTRAINTS, workers=2, chunk_size=3)
        assert chunked.chunk_size == 3
        for left, right in zip(baseline, chunked):
            assert list(left.graph.paths()) == list(right.graph.paths())


class TestFailureIsolation:
    def test_zero_mass_object_does_not_poison_batch(self, workload):
        # A -> C is unreachable, so this object has zero valid mass.
        poison = LSequence([{"A": 1.0}, {"C": 1.0}])
        sequences = [workload[0], poison, workload[1]]
        for workers in (1, 2):
            result = clean_many(sequences, CONSTRAINTS, workers=workers)
            assert [o.ok for o in result] == [True, False, True]
            failed = result[1]
            assert failed.graph is None and failed.stats is None
            assert failed.error_type == "ZeroMassError"
            assert "valid prior mass" in failed.error
            assert result.cleaned == 2
            assert [o.index for o in result.failures] == [1]

    def test_precheck_error_mode_fails_per_object(self, workload):
        poison = LSequence([{"A": 1.0}, {"C": 1.0}])
        result = clean_many([poison, workload[0]], CONSTRAINTS,
                            options=CleaningOptions(precheck="error"),
                            workers=1)
        assert not result[0].ok
        assert result[0].error_type == "ZeroMassError"
        assert result[1].ok

    def test_programming_errors_still_propagate(self, workload):
        class Exploding:
            duration = 3

            def candidates(self, tau):
                raise RuntimeError("boom")

            def support(self, tau):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            clean_many([Exploding()], CONSTRAINTS, workers=1)


class TestOrdering:
    def test_results_follow_input_order(self):
        durations = [5, 11, 3, 8, 6, 4, 9, 7]
        sequences = [make_lsequence(d, i) for i, d in enumerate(durations)]
        result = clean_many(sequences, CONSTRAINTS, workers=2, chunk_size=1)
        assert [o.index for o in result] == list(range(len(durations)))
        assert [o.graph.duration for o in result] == durations


class TestConstraintGrouping:
    def test_per_object_constraint_sets(self, workload):
        loose = ConstraintSet([Unreachable("A", "C")])
        per_object = [CONSTRAINTS, loose, CONSTRAINTS, loose]
        sequences = workload[:4]
        result = clean_many(sequences, per_object, workers=2)
        for sequence, constraints, outcome in zip(sequences, per_object,
                                                  result):
            expected = build_ct_graph(sequence, constraints)
            assert list(outcome.graph.paths()) == list(expected.paths())

    def test_mismatched_lengths_rejected(self, workload):
        with pytest.raises(ValueError):
            clean_many(workload[:3], [CONSTRAINTS, CONSTRAINTS], workers=1)


class TestReadingsPath:
    def test_raw_readings_are_interpreted_in_workers(self):
        prior = TablePrior()
        readings = [ReadingSequence.from_reader_sets(sets) for sets in (
            [{"rA"}, {"rB"}, {"rB"}, {"rB"}],
            [{"rB"}, {"rB"}, {"rB"}, {"rD"}],
        )]
        constraints = ConstraintSet([Latency("B", 2)])
        result = clean_many(readings, constraints, workers=2, prior=prior)
        for raw, outcome in zip(readings, result):
            expected = build_ct_graph(
                LSequence.from_readings(raw, prior), constraints)
            assert list(outcome.graph.paths()) == list(expected.paths())

    def test_readings_without_prior_rejected(self):
        readings = ReadingSequence.from_reader_sets([{"rA"}, {"rB"}])
        with pytest.raises(ReadingSequenceError):
            clean_many([readings], CONSTRAINTS, workers=1)


class TestSharedPlan:
    def test_build_ct_graph_canonicalises_plan_support(self):
        # Two l-sequences whose levels list the same support in different
        # candidate orders, cleaned through one plan, keep each order's
        # edges: bit-identical to the plan-less build, on both engines.
        forward = LSequence([{"A": 1.0}, {"A": 0.5, "B": 0.3, "D": 0.2}])
        reversed_ = LSequence([{"A": 1.0}, {"D": 0.2, "B": 0.3, "A": 0.5}])
        for engine in ("reference", "compact"):
            plan = SharedCleaningPlan(CONSTRAINTS)
            options = CleaningOptions(engine=engine)
            for lsequence in (forward, reversed_):
                with_plan = build_ct_graph(lsequence, CONSTRAINTS,
                                           options, plan=plan)
                without = build_ct_graph(lsequence, CONSTRAINTS, options)
                assert with_plan.__getstate__()["edges"] == \
                    without.__getstate__()["edges"]

    def test_plan_gives_identical_graphs(self, workload):
        plan = SharedCleaningPlan(CONSTRAINTS)
        for lsequence in workload:
            with_plan = build_ct_graph(lsequence, CONSTRAINTS, plan=plan)
            without = build_ct_graph(lsequence, CONSTRAINTS)
            assert list(with_plan.paths()) == list(without.paths())
        assert plan.engine_cache().cached_transitions > 0

    def test_foreign_plan_rejected(self, workload):
        plan = SharedCleaningPlan(ConstraintSet([Unreachable("X", "Y")]))
        with pytest.raises(ReadingSequenceError):
            build_ct_graph(workload[0], CONSTRAINTS, plan=plan)

    def test_plan_precheck_error_raises_zero_mass(self):
        plan = SharedCleaningPlan(CONSTRAINTS)
        poison = LSequence([{"A": 1.0}, {"C": 1.0}])
        with pytest.raises(ZeroMassError):
            plan.precheck(poison, CleaningOptions(precheck="error"))
        # "off" and "warn" never raise.
        plan.precheck(poison, CleaningOptions(precheck="off"))
        plan.precheck(poison, CleaningOptions(precheck="warn"))


@pytest.fixture
def collector():
    """Restore the cyclic collector's on/off state after the test."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _spy_on_the_collector(monkeypatch):
    """Record the batch runtime's pauses and resumes of the collector."""
    import repro.runtime.batch as batch

    calls = []

    class Spy:
        isenabled = staticmethod(gc.isenabled)

        @staticmethod
        def disable():
            calls.append("pause")
            gc.disable()

        @staticmethod
        def enable():
            calls.append("resume")
            gc.enable()

    monkeypatch.setattr(batch, "gc", Spy)
    return calls


class TestCollectorPause:
    """``clean_many`` pauses the cyclic GC once per job when every build
    is cycle-free (compact engine, flat or store output), per object
    otherwise, and restores it."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_clean_many_leaves_the_collector_as_it_found_it(
            self, workload, collector, enabled):
        poison = LSequence([{"A": 1.0}, {"C": 1.0}])
        if enabled:
            gc.enable()
        else:
            gc.disable()
        result = clean_many([workload[0], poison, workload[1]],
                            CONSTRAINTS, workers=1)
        assert [o.error_type for o in result] == [None, "ZeroMassError",
                                                  None]
        assert gc.isenabled() is enabled

    def test_the_collector_is_off_during_each_build(self, workload,
                                                    collector, monkeypatch):
        import repro.runtime.batch as batch

        seen = []
        build = batch.build_ct_graph

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return build(*args, **kwargs)

        monkeypatch.setattr(batch, "build_ct_graph", spy)
        gc.enable()
        clean_many(workload[:3], CONSTRAINTS, workers=1)
        assert seen == [False, False, False]
        assert gc.isenabled()

    def test_a_build_bug_still_re_enables_the_collector(
            self, workload, collector, monkeypatch):
        import repro.runtime.batch as batch

        def broken(*args, **kwargs):
            raise RuntimeError("engine bug")

        monkeypatch.setattr(batch, "build_ct_graph", broken)
        gc.enable()
        with pytest.raises(RuntimeError, match="engine bug"):
            clean_many(workload[:2], CONSTRAINTS, workers=1)
        assert gc.isenabled()


    @pytest.mark.parametrize("output", ["flat", "store", "query-plan"])
    def test_a_cycle_free_job_pauses_once(self, workload, collector,
                                          monkeypatch, tmp_path, output):
        from repro.runtime import QueryPlan
        from repro.store import GraphStore

        calls = _spy_on_the_collector(monkeypatch)
        gc.enable()
        result = clean_many(
            workload[:3], CONSTRAINTS,
            options=CleaningOptions(
                materialize="flat" if output == "flat" else "auto"),
            store=GraphStore(tmp_path) if output == "store" else None,
            query_plan=(QueryPlan("STAY 1") if output == "query-plan"
                        else None))
        assert result.cleaned == 3
        assert calls == ["pause", "resume"]
        assert gc.isenabled()
        for outcome in result:
            if output == "store":
                outcome.graph.close()

    @pytest.mark.parametrize("options", [
        CleaningOptions(),
        CleaningOptions(engine="reference", materialize="flat"),
    ], ids=["nodes", "reference-flat"])
    def test_cyclic_builds_pause_per_object(self, workload, collector,
                                            monkeypatch, options):
        calls = _spy_on_the_collector(monkeypatch)
        gc.enable()
        clean_many(workload[:3], CONSTRAINTS, options=options)
        assert calls == ["pause", "resume"] * 3

    def test_plans_are_freed_before_the_collector_resumes(
            self, workload, collector, monkeypatch, tmp_path):
        import weakref

        import repro.runtime.batch as batch
        from repro.store import GraphStore

        plans = []

        class Tracked(SharedCleaningPlan):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                plans.append(weakref.ref(self))

        alive_at_resume = []

        class Spy:
            isenabled = staticmethod(gc.isenabled)
            disable = staticmethod(gc.disable)

            @staticmethod
            def enable():
                alive_at_resume.extend(ref for ref in plans
                                       if ref() is not None)
                gc.enable()

        monkeypatch.setattr(batch, "SharedCleaningPlan", Tracked)
        monkeypatch.setattr(batch, "gc", Spy)
        gc.enable()
        result = clean_many(workload[:4], [CONSTRAINTS, ConstraintSet()] * 2,
                            store=GraphStore(tmp_path))
        assert len(plans) == 2
        assert alive_at_resume == []
        for outcome in result:
            outcome.graph.close()

    def test_a_store_job_leaves_no_cyclic_garbage(self, workload,
                                                  collector, tmp_path):
        from repro.store import GraphStore

        poison = LSequence([{"A": 1.0}, {"C": 1.0}])
        gc.collect()
        gc.disable()
        result = clean_many([workload[0], poison, workload[1]], CONSTRAINTS,
                            store=GraphStore(tmp_path))
        assert [o.error_type for o in result] == [None, "ZeroMassError",
                                                  None]
        for outcome in result:
            if outcome.graph is not None:
                outcome.graph.close()
        del result, outcome
        assert gc.collect() == 0


@pytest.mark.parametrize("plan", [False, True], ids=["no-plan", "plan"])
@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("materialize", ["flat", "store"])
def test_compact_columnar_builds_leave_no_cyclic_garbage(
        tmp_path, collector, materialize, backend, plan):
    """What makes the per-object pause exact: a compact flat or store
    build creates no reference cycles, so the collector has nothing to
    free.  (Node graphs and reference builds are ``CTNode`` webs, which
    are cyclic.)"""
    lsequence = make_lsequence(40)
    shared = SharedCleaningPlan(CONSTRAINTS) if plan else None
    options = CleaningOptions(
        materialize=materialize, backend=backend,
        output=str(tmp_path / "g.ctg") if materialize == "store" else None)
    gc.collect()
    gc.disable()
    graph = build_ct_graph(lsequence, CONSTRAINTS, options, plan=shared)
    assert graph.num_edges > 0
    if materialize == "store":
        graph.close()
    del graph
    assert gc.collect() == 0


class TestAggregateStats:
    def test_every_stats_field_is_summed(self):
        # Build outcomes whose stats carry a distinct prime in EVERY field
        # (timing floats included): if aggregate_stats ever regresses to a
        # hand-maintained field list, a newly-added or forgotten counter
        # shows up here as a wrong sum.
        import dataclasses

        from repro.core.algorithm import CleaningStats
        from repro.runtime.batch import BatchOutcome, BatchResult

        field_names = [f.name for f in dataclasses.fields(CleaningStats)]
        assert field_names  # the contract below is vacuous otherwise

        class FakeGraph:
            def __init__(self, stats):
                self.stats = stats

        outcomes = []
        for index, base in enumerate((2, 3)):
            stats = CleaningStats(**{
                name: base ** position
                for position, name in enumerate(field_names, start=1)})
            outcomes.append(BatchOutcome(index=index, graph=FakeGraph(stats)))
        # A failed outcome must contribute nothing.
        outcomes.append(BatchOutcome(index=2, error_type="ZeroMassError",
                                     error="boom"))
        result = BatchResult(outcomes=tuple(outcomes), wall_seconds=0.1,
                             workers=1, chunk_size=1)

        total = result.aggregate_stats()
        for position, name in enumerate(field_names, start=1):
            assert getattr(total, name) == 2 ** position + 3 ** position, name


class TestValidation:
    def test_bad_worker_counts_rejected(self):
        with pytest.raises(ValueError):
            BatchCleaner(CONSTRAINTS, workers=0)
        with pytest.raises(ValueError):
            BatchCleaner(CONSTRAINTS, chunk_size=0)

    def test_validation_errors_join_the_repro_taxonomy(self):
        # BatchConfigurationError subclasses both ReproError and ValueError,
        # so the pytest.raises(ValueError) assertions above keep passing
        # while library-level handlers can catch ReproError uniformly.
        from repro.errors import BatchConfigurationError, ReproError

        for build in (lambda: BatchCleaner(CONSTRAINTS, workers=0),
                      lambda: BatchCleaner(CONSTRAINTS, chunk_size=-1),
                      lambda: BatchCleaner(CONSTRAINTS, timeout_seconds=0.0),
                      lambda: BatchCleaner(CONSTRAINTS, max_retries=-1)):
            with pytest.raises(BatchConfigurationError) as excinfo:
                build()
            assert isinstance(excinfo.value, ReproError)
            assert isinstance(excinfo.value, ValueError)

    def test_empty_batch(self):
        result = clean_many([], CONSTRAINTS, workers=4)
        assert len(result) == 0
        assert result.aggregate_stats().nodes_created == 0

    def test_workers_capped_by_batch_size(self, workload):
        result = clean_many(workload[:2], CONSTRAINTS, workers=16)
        assert result.workers == 2


class TestQueryPlan:
    STATEMENTS = ("STAY 3", "BEST", "VISIT C", "ENTROPY")

    def test_bad_statements_rejected_up_front(self):
        from repro.errors import BatchConfigurationError
        from repro.runtime import QueryPlan

        for statements in ((), ("STAYY 3",), ("",), ("STAY 3", 7)):
            with pytest.raises(BatchConfigurationError):
                QueryPlan(statements)

    def test_single_string_normalises_to_tuple(self):
        from repro.runtime import QueryPlan

        assert QueryPlan("BEST").statements == ("BEST",)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_queries_match_per_object_sessions(self, workload, workers):
        from repro.queries import ql
        from repro.queries.session import QuerySession
        from repro.runtime import QueryPlan

        result = clean_many(workload, CONSTRAINTS, workers=workers,
                            chunk_size=1,
                            query_plan=QueryPlan(self.STATEMENTS))
        for lsequence, outcome in zip(workload, result):
            assert outcome.ok
            assert outcome.graph is None  # dropped: only answers travel
            session = QuerySession(build_ct_graph(
                lsequence, CONSTRAINTS,
                CleaningOptions(materialize="flat")))
            expected = [ql.execute(session, statement)
                        for statement in self.STATEMENTS]
            assert [q.value for q in outcome.queries] \
                == [q.value for q in expected]

    def test_keep_graphs_returns_both(self, workload):
        from repro.runtime import QueryPlan

        result = clean_many(workload[:2], CONSTRAINTS,
                            query_plan=QueryPlan("BEST", keep_graphs=True))
        for outcome in result:
            assert outcome.graph is not None
            assert len(outcome.queries) == 1

    def test_statement_argument_errors_fail_per_object(self, workload):
        from repro.runtime import QueryPlan

        # STAY 7 is out of range for the 6-step objects only.
        result = clean_many(workload[:8], CONSTRAINTS,
                            query_plan=QueryPlan("STAY 7"))
        by_duration = {ls.duration: outcome
                       for ls, outcome in zip(workload[:8], result)}
        assert not by_duration[6].ok
        assert by_duration[6].error_type == "QueryError"
        assert by_duration[9].ok


class TablePrior:
    """A tiny picklable prior: reader r<X> means location X or B."""

    def distribution(self, readers):
        (reader,) = readers
        location = reader[1:]
        if location == "B":
            return {"B": 1.0}
        return {location: 0.75, "B": 0.25}
