"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["info", "--scale", "galactic"])

    def test_experiment_requires_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment"])


class TestCommands:
    @pytest.fixture(autouse=True)
    def _needs_numpy(self):
        # Every command here runs against a generated synthetic dataset,
        # and dataset generation draws from a numpy rng.
        pytest.importorskip("numpy", exc_type=ImportError)

    def test_info(self, capsys):
        assert main(["info", "--dataset", "syn1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "SYN1" in out
        assert "readers" in out

    def test_clean(self, capsys):
        code = main(["clean", "--dataset", "syn1", "--scale", "tiny",
                     "--constraints", "DU"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ct-graph" in out
        assert "P(ground truth)" in out

    def test_clean_many(self, capsys, tmp_path):
        out = tmp_path / "batch.json"
        code = main(["clean-many", "--dataset", "syn1", "--scale", "tiny",
                     "--constraints", "DU", "--workers", "2", "--limit", "3",
                     "--json", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "objects: 3" in text
        assert "wall-clock" in text
        import json
        payload = json.loads(out.read_text())
        assert payload["objects"] == 3
        assert payload["cleaned"] == 3
        assert len(payload["outcomes"]) == 3

    def test_clean_many_in_process(self, capsys):
        code = main(["clean-many", "--dataset", "syn1", "--scale", "tiny",
                     "--constraints", "DU", "--workers", "1", "--limit", "2"])
        assert code == 0
        assert "cleaned: 2" in capsys.readouterr().out

    def test_clean_many_timeout_and_retry_flags(self, capsys, tmp_path):
        # A generous --timeout routes through the supervised pool (even at
        # --workers 1) without failing anything; the payload reports the
        # respawn counter.
        out = tmp_path / "batch.json"
        code = main(["clean-many", "--dataset", "syn1", "--scale", "tiny",
                     "--constraints", "DU", "--workers", "1", "--limit", "2",
                     "--timeout", "60", "--max-retries", "0",
                     "--json", str(out)])
        assert code == 0
        assert "cleaned: 2" in capsys.readouterr().out
        import json
        payload = json.loads(out.read_text())
        assert payload["respawns"] == 0

    def test_clean_many_rejects_bad_timeout(self, capsys):
        from repro.errors import BatchConfigurationError
        with pytest.raises(BatchConfigurationError):
            main(["clean-many", "--dataset", "syn1", "--scale", "tiny",
                  "--constraints", "DU", "--limit", "1", "--timeout", "-1"])

    def test_clean_bad_index(self):
        with pytest.raises(SystemExit):
            main(["clean", "--dataset", "syn1", "--scale", "tiny",
                  "--index", "99"])

    def test_query_stay(self, capsys):
        code = main(["query", "--dataset", "syn1", "--scale", "tiny",
                     "--constraints", "DU,LT", "--at", "5"])
        assert code == 0
        assert "stay query at 5" in capsys.readouterr().out

    def test_query_pattern(self, capsys):
        code = main(["query", "--dataset", "syn1", "--scale", "tiny",
                     "--constraints", "DU", "--pattern", "? F0_R1 ?"])
        assert code == 0
        assert "trajectory query" in capsys.readouterr().out

    def test_query_without_work_errors(self, capsys):
        code = main(["query", "--dataset", "syn1", "--scale", "tiny"])
        assert code == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_experiment_fig9a(self, capsys):
        code = main(["experiment", "--name", "fig9a", "--dataset", "syn1",
                     "--scale", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "RAW" in out
        assert "CTG(DU)" in out

    def test_analytics(self, capsys):
        code = main(["analytics", "--dataset", "syn1", "--scale", "tiny",
                     "--constraints", "DU,LT", "--top", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "uncertainty reduction" in out
        assert "#1" in out and "#2" in out
        assert "expected time per location" in out

    def test_export(self, capsys, tmp_path):
        out_dir = tmp_path / "archive"
        code = main(["export", "--dataset", "syn1", "--scale", "tiny",
                     "--constraints", "DU", "--out", str(out_dir)])
        assert code == 0
        for name in ("building.json", "constraints.json", "matrix.npz",
                     "readings.json", "ground_truth.json", "ctgraph.json"):
            assert (out_dir / name).exists(), name

    def test_report(self, capsys, tmp_path):
        out = tmp_path / "report.md"
        code = main(["report", "--dataset", "syn1", "--scale", "tiny",
                     "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("# rfid-ctg evaluation report")
        assert "Shape checklist" in text
        assert "FAIL" not in text[text.index("Shape checklist"):]

    def test_ql(self, capsys):
        code = main(["ql", "--dataset", "syn1", "--scale", "tiny",
                     "--constraints", "DU", "STAY 3", "TOP 2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "> STAY 3" in out
        assert "#1 p=" in out

    def test_map(self, capsys):
        code = main(["map", "--dataset", "syn1", "--scale", "tiny",
                     "--floor", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "F0_corridor" in out
        assert "R" in out

    def test_map_with_marginal(self, capsys):
        code = main(["map", "--dataset", "syn1", "--scale", "tiny",
                     "--floor", "0", "--at", "5", "--constraints", "DU"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cleaned position estimate at t=5" in out
        assert "on-floor mass" in out

    def test_map_bad_floor(self):
        with pytest.raises(SystemExit):
            main(["map", "--dataset", "syn1", "--scale", "tiny",
                  "--floor", "99"])

    def test_export_round_trips(self, tmp_path):
        from repro.io.jsonio import load_building, load_constraints
        from repro.io.matrices import load_matrix

        out_dir = tmp_path / "archive"
        main(["export", "--dataset", "syn1", "--scale", "tiny",
              "--constraints", "DU,LT", "--out", str(out_dir)])
        building = load_building(out_dir / "building.json")
        assert building.name == "SYN1"
        constraints = load_constraints(out_dir / "constraints.json")
        assert len(constraints) > 0
        matrix = load_matrix(out_dir / "matrix.npz", building)
        assert matrix.num_cells == matrix.grid.num_cells


class TestServe:
    """The streaming service: feed, checkpoint, kill, resume, compare."""

    @pytest.fixture
    def setup(self, tmp_path):
        import json
        import random

        from repro.core.constraints import (
            ConstraintSet,
            Latency,
            TravelingTime,
            Unreachable,
        )
        from repro.io.jsonio import save_constraints

        constraints = ConstraintSet([Unreachable("A", "D"),
                                     TravelingTime("B", "D", 3),
                                     Latency("C", 2)])
        constraints_path = tmp_path / "constraints.json"
        save_constraints(constraints, constraints_path)
        rng = random.Random(3)
        stream = tmp_path / "stream.jsonl"
        with stream.open("w") as handle:
            for _ in range(40):
                for obj in ("tag-1", "tag-2"):
                    weights = [rng.random() + 0.05 for _ in "ABCD"]
                    total = sum(weights)
                    row = {l: w / total for l, w in zip("ABCD", weights)}
                    handle.write(json.dumps({"object": obj,
                                             "candidates": row}) + "\n")
        return constraints_path, stream

    def _finals(self, capsys):
        out = capsys.readouterr().out
        return sorted(line for line in out.splitlines()
                      if '"final": true' in line)

    def test_kill_resume_equals_uninterrupted(self, setup, tmp_path,
                                              capsys):
        constraints_path, stream = setup
        ckpt = tmp_path / "ckpt"
        base = ["serve", "--constraints-file", str(constraints_path),
                "--input", str(stream), "--window", "16"]
        # Uninterrupted reference run (no checkpointing at all).
        assert main(base) == 0
        reference = self._finals(capsys)
        assert len(reference) == 2
        # Killed run: periodic checkpoints, stop mid-stream, no exit
        # checkpoint (the abrupt-kill case).
        assert main(base + ["--checkpoint-dir", str(ckpt),
                            "--checkpoint-every", "7",
                            "--max-readings", "50",
                            "--no-final-checkpoint"]) == 0
        capsys.readouterr()
        assert list(ckpt.glob("*.ckpt"))
        # Resumed run over the same input: already-checkpointed readings
        # are skipped, the rest reingested; the final estimates must be
        # byte-identical to the uninterrupted run's.
        assert main(base + ["--checkpoint-dir", str(ckpt),
                            "--resume"]) == 0
        assert self._finals(capsys) == reference

    def test_sharded_output_is_byte_identical(self, setup, capsys):
        constraints_path, stream = setup
        base = ["serve", "--constraints-file", str(constraints_path),
                "--input", str(stream), "--window", "16",
                "--estimate-every", "5"]
        assert main(base) == 0
        reference = capsys.readouterr().out
        assert main(base + ["--shards", "2"]) == 0
        assert capsys.readouterr().out == reference

    def test_sharded_kill_resume_equals_uninterrupted(self, setup,
                                                      tmp_path, capsys):
        constraints_path, stream = setup
        ckpt = tmp_path / "shard-ckpt"
        base = ["serve", "--constraints-file", str(constraints_path),
                "--input", str(stream), "--window", "16",
                "--shards", "2"]
        assert main(["serve", "--constraints-file", str(constraints_path),
                     "--input", str(stream), "--window", "16"]) == 0
        reference = self._finals(capsys)
        assert main(base + ["--checkpoint-dir", str(ckpt),
                            "--checkpoint-every", "7",
                            "--max-readings", "50",
                            "--no-final-checkpoint"]) == 0
        capsys.readouterr()
        assert list(ckpt.glob("shard-*/*.ckpt"))
        assert main(base + ["--checkpoint-dir", str(ckpt),
                            "--resume"]) == 0
        assert self._finals(capsys) == reference
        # A different shard count cannot resume this directory.
        assert (ckpt / "shards.json").exists()
        with pytest.raises(SystemExit, match="--shards 2"):
            main(base[:-2] + ["--shards", "3", "--checkpoint-dir",
                              str(ckpt), "--resume"])

    def test_live_estimates_and_drops(self, setup, tmp_path, capsys):
        import json

        constraints_path, stream = setup
        # An inconsistent reading (A -> D is unreachable; D-only after an
        # A-only step) is dropped, not fatal.
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps({"object": "t", "candidates": {"A": 1.0}}) + "\n" +
            "not json\n" +
            json.dumps({"object": "t", "candidates": {"D": 1.0}}) + "\n" +
            json.dumps({"object": "t", "candidates": {"A": 1.0}}) + "\n")
        assert main(["serve", "--constraints-file", str(constraints_path),
                     "--input", str(bad), "--estimate-every", "1"]) == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.splitlines()]
        dropped = [line for line in lines if "dropped" in line]
        assert len(dropped) == 1
        assert "InconsistentReadingsError" in dropped[0]["dropped"]
        finals = [line for line in lines if line.get("final")]
        assert finals[0]["duration"] == 2    # the bad reading left no trace
        assert "malformed" in captured.err

    @pytest.mark.parametrize("bad", [
        {"object": "tag-1", "candidates": [["A", 1.0]]},
        {"object": "tag-1", "candidates": "AB"},
        {"object": 7, "candidates": {"A": 1.0}},
        {"object": ["x"], "candidates": {"A": 1.0}},
    ], ids=["candidates-list", "candidates-string", "object-int",
            "object-list"])
    def test_malformed_reading_never_ends_the_run(self, setup, tmp_path,
                                                  capsys, bad):
        import json

        constraints_path, stream = setup
        lines = stream.read_text().splitlines()
        lines.insert(5, json.dumps(bad))
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text("\n".join(lines) + "\n")
        base = ["serve", "--constraints-file", str(constraints_path),
                "--input", str(mixed), "--estimate-every", "5"]
        assert main(base) == 0
        single = capsys.readouterr()
        assert main(base + ["--shards", "2"]) == 0
        sharded = capsys.readouterr()
        assert sharded.out == single.out
        out = [json.loads(line) for line in single.out.splitlines()]
        finals = [line for line in out if line.get("final")]
        # Every well-formed reading of both objects was ingested.
        assert [(line["object"], line["duration"]) for line in finals] == \
            [("tag-1", 40), ("tag-2", 40)]
        if isinstance(bad["object"], str):
            dropped = [line for line in out if "dropped" in line]
            assert len(dropped) == 1
            assert "ReadingSequenceError" in dropped[0]["dropped"]
        else:
            for captured in (single, sharded):
                assert "skipping malformed line" in captured.err
