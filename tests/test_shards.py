"""The sharded streaming fleet: routing, engine, manifest, merge.

The heavyweight guarantee — ``--shards N`` stdout is byte-identical to
``--shards 1`` — is pinned end to end through the CLI in
``tests/test_cli.py``; this module covers the pieces: the stable
object-id hash, :class:`~repro.runtime.shards.ServeEngine`'s serve
semantics (resume skipping, drops, estimates, stats), the
``shards.json`` manifest, and an in-process
:class:`~repro.runtime.shards.StreamShardPool` run against the
single-engine reference with exact ``--max-readings`` accounting.
"""

import io
import json
import random

import pytest

from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.errors import ReadingSequenceError, StoreFormatError
from repro.io.jsonio import save_constraints
from repro.runtime.sessions import StreamSessionManager
from repro.runtime.shards import ServeEngine, StreamShardPool, shard_of
from repro.store.format import (
    SHARD_MANIFEST,
    ensure_shard_manifest,
    read_shard_manifest,
)

CONSTRAINTS = ConstraintSet([Unreachable("A", "D"),
                             TravelingTime("B", "D", 3),
                             Latency("C", 2)])


def stream_lines(objects=4, steps=30, seed=11):
    rng = random.Random(seed)
    lines = []
    for _ in range(steps):
        for index in range(objects):
            weights = [rng.random() + 0.05 for _ in "ABCD"]
            total = sum(weights)
            row = {l: w / total for l, w in zip("ABCD", weights)}
            lines.append(json.dumps({"object": f"tag-{index}",
                                     "candidates": row}) + "\n")
    return lines


# ----------------------------------------------------------------------
# routing hash
# ----------------------------------------------------------------------

class TestShardOf:
    def test_is_stable_across_calls_and_in_range(self):
        for object_id in ("tag-1", "tag-2", "", "ütf-8 ıd"):
            first = shard_of(object_id, 4)
            assert 0 <= first < 4
            assert shard_of(object_id, 4) == first

    def test_spreads_objects(self):
        hit = {shard_of(f"object-{i}", 8) for i in range(200)}
        assert hit == set(range(8))


# ----------------------------------------------------------------------
# ServeEngine semantics
# ----------------------------------------------------------------------

class TestServeEngine:
    def row(self, seed):
        rng = random.Random(seed)
        weights = [rng.random() + 0.05 for _ in "ABCD"]
        total = sum(weights)
        return {l: w / total for l, w in zip("ABCD", weights)}

    def test_estimate_and_drop_lines(self):
        engine = ServeEngine(StreamSessionManager(CONSTRAINTS),
                             estimate_every=2)
        ingested, out, err = engine.process("t", {"A": 1.0})
        assert ingested and out == [] and err == []
        # A -> D is unreachable: dropped, session untouched.
        ingested, out, err = engine.process("t", {"D": 1.0})
        assert not ingested
        payload = json.loads(out[0])
        assert payload["t"] == 1
        assert "InconsistentReadingsError" in payload["dropped"]
        ingested, out, err = engine.process("t", {"A": 1.0})
        assert ingested
        assert json.loads(out[0])["estimate"] == {"A": 1.0}
        assert engine.ingested == 2

    def test_estimates_are_computed_only_for_printed_lines(self,
                                                          monkeypatch):
        from repro.streaming import StreamingCleaner

        computed = []
        original = StreamingCleaner.filtered_distribution
        monkeypatch.setattr(
            StreamingCleaner, "filtered_distribution",
            lambda self: computed.append(self.duration) or original(self))
        manager = StreamSessionManager(CONSTRAINTS)
        assert manager.ingest("u", {"A": 1.0}) is None
        engine = ServeEngine(manager, estimate_every=5)
        printed = []
        for seed in range(12):
            _, out, _ = engine.process("t", self.row(seed))
            printed += [json.loads(line)["t"] for line in out]
        assert printed == [4, 9]
        assert computed == [5, 10]

    def test_resume_skipping(self, tmp_path):
        manager = StreamSessionManager(CONSTRAINTS,
                                       checkpoint_dir=tmp_path)
        manager.ingest("t", {"A": 1.0})
        manager.ingest("t", {"B": 1.0})
        manager.checkpoint_all()
        resumed = StreamSessionManager(CONSTRAINTS,
                                       checkpoint_dir=tmp_path,
                                       resume=True)
        engine = ServeEngine(resumed)
        assert engine.process("t", {"A": 1.0}) == (False, [], [])
        assert engine.process("t", {"B": 1.0}) == (False, [], [])
        ingested, _, _ = engine.process("t", {"B": 1.0})
        assert ingested
        assert resumed.session("t").duration == 3

    def test_stats_lines_and_final_block(self, tmp_path):
        manager = StreamSessionManager(CONSTRAINTS,
                                       checkpoint_dir=tmp_path,
                                       checkpoint_every=4)
        engine = ServeEngine(manager, stats_every=2)
        stats_lines = []
        for seed in range(6):
            _, _, err = engine.process("t", self.row(seed))
            stats_lines.extend(err)
        assert len(stats_lines) == 3
        assert "object=t" in stats_lines[0]
        assert "frontier_states=" in stats_lines[0]
        # Lag counts since the last periodic checkpoint (every 4).
        assert "checkpoint_lag=2" in stats_lines[0]
        assert "checkpoint_lag=0" in stats_lines[1]
        assert "checkpoint_lag=2" in stats_lines[2]
        (object_id, line), = engine.final_entries()
        assert object_id == "t"
        stats = json.loads(line)["stats"]
        assert stats["ingested"] == 6
        assert stats["checkpoint_lag"] == 2
        summary = engine.summary_line("fleet")
        assert "ingested=6" in summary

    def test_finals_without_stats_have_no_stats_block(self):
        engine = ServeEngine(StreamSessionManager(CONSTRAINTS))
        engine.process("t", {"A": 1.0})
        (_, line), = engine.final_entries()
        assert "stats" not in json.loads(line)


class TestCheckpointLag:
    def test_counts_without_checkpointing_enabled(self):
        manager = StreamSessionManager(CONSTRAINTS)
        assert manager.checkpoint_lag("t") == 0
        manager.ingest("t", {"A": 1.0})
        manager.ingest("t", {"B": 1.0})
        assert manager.checkpoint_lag("t") == 2

    def test_resets_on_explicit_checkpoint(self, tmp_path):
        manager = StreamSessionManager(CONSTRAINTS,
                                       checkpoint_dir=tmp_path)
        manager.ingest("t", {"A": 1.0})
        assert manager.checkpoint_lag("t") == 1
        manager.checkpoint("t")
        assert manager.checkpoint_lag("t") == 0


# ----------------------------------------------------------------------
# shards.json manifest
# ----------------------------------------------------------------------

class TestShardManifest:
    def test_absent_means_flat_layout(self, tmp_path):
        assert read_shard_manifest(tmp_path) is None
        ensure_shard_manifest(tmp_path, 1)
        assert not (tmp_path / SHARD_MANIFEST).exists()

    def test_written_and_reread(self, tmp_path):
        ensure_shard_manifest(tmp_path / "fresh", 3)
        assert read_shard_manifest(tmp_path / "fresh") == 3
        # Idempotent under the same count.
        ensure_shard_manifest(tmp_path / "fresh", 3)

    def test_mismatch_refused(self, tmp_path):
        ensure_shard_manifest(tmp_path, 2)
        with pytest.raises(StoreFormatError, match="--shards 2"):
            ensure_shard_manifest(tmp_path, 4)
        with pytest.raises(StoreFormatError, match="--shards 2"):
            ensure_shard_manifest(tmp_path, 1)

    def test_corrupt_manifest_is_a_typed_error(self, tmp_path):
        (tmp_path / SHARD_MANIFEST).write_text("{not json")
        with pytest.raises(StoreFormatError, match="unreadable"):
            read_shard_manifest(tmp_path)
        (tmp_path / SHARD_MANIFEST).write_text('{"format": "wrong"}')
        with pytest.raises(StoreFormatError, match="manifest"):
            read_shard_manifest(tmp_path)


# ----------------------------------------------------------------------
# the pool, in process
# ----------------------------------------------------------------------

def single_process_output(constraints_file, lines, *, estimate_every=0,
                          max_readings=None):
    manager = StreamSessionManager(CONSTRAINTS)
    engine = ServeEngine(manager, estimate_every=estimate_every)
    out = io.StringIO()
    for line in lines:
        if max_readings is not None and engine.ingested >= max_readings:
            break
        payload = json.loads(line)
        _, out_lines, _ = engine.process(payload["object"],
                                         payload["candidates"])
        for rendered in out_lines:
            out.write(rendered + "\n")
    for _object_id, rendered in engine.final_entries():
        out.write(rendered + "\n")
    return out.getvalue(), engine.ingested


class TestStreamShardPool:
    def test_needs_two_shards(self):
        with pytest.raises(ReadingSequenceError, match="at least 2"):
            StreamShardPool(1, constraints_file="x", window=4)

    def test_merged_output_matches_single_engine(self, tmp_path):
        constraints_file = tmp_path / "constraints.json"
        save_constraints(CONSTRAINTS, constraints_file)
        lines = stream_lines()
        expected, _ = single_process_output(constraints_file, lines,
                                            estimate_every=7)
        out, err = io.StringIO(), io.StringIO()
        with StreamShardPool(2, constraints_file=str(constraints_file),
                             window=64, estimate_every=7) as pool:
            pool.serve(lines, out, err)
            pool.finish(out, err)
        assert out.getvalue() == expected

    def test_max_readings_is_exact(self, tmp_path):
        constraints_file = tmp_path / "constraints.json"
        save_constraints(CONSTRAINTS, constraints_file)
        lines = stream_lines()
        expected, expected_ingested = single_process_output(
            constraints_file, lines, max_readings=37)
        assert expected_ingested == 37
        out, err = io.StringIO(), io.StringIO()
        with StreamShardPool(3, constraints_file=str(constraints_file),
                             window=64) as pool:
            ingested = pool.serve(lines, out, err, max_readings=37)
            pool.finish(out, err)
        assert ingested == 37
        assert out.getvalue() == expected

    def test_worker_checkpoints_live_in_shard_subdirectories(self,
                                                             tmp_path):
        constraints_file = tmp_path / "constraints.json"
        save_constraints(CONSTRAINTS, constraints_file)
        ckpt = tmp_path / "ckpt"
        out, err = io.StringIO(), io.StringIO()
        with StreamShardPool(2, constraints_file=str(constraints_file),
                             window=64,
                             checkpoint_dir=str(ckpt)) as pool:
            pool.serve(stream_lines(steps=5), out, err)
            pool.finish(out, err)
        files = sorted(path.parent.name for path in ckpt.glob("**/*.ckpt"))
        assert files and set(files) <= {"shard-00", "shard-01"}
        assert err.getvalue().count("serve: checkpointed") == 4
