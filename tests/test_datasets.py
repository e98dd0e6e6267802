"""Tests for dataset assembly (SYN1/SYN2 and custom builds)."""

import hashlib

import pytest

np = pytest.importorskip("numpy", exc_type=ImportError)

from repro.core.lsequence import LSequence
from repro.errors import ReproError
from repro.mapmodel.floorplans import multi_floor_building
from repro.rfid.calibration import calibrate, exact_matrix
from repro.simulation.datasets import (
    SCALES,
    active_scale,
    build_dataset,
    syn1_dataset,
)


class TestScales:
    def test_known_scales(self):
        assert set(SCALES) == {"tiny", "small", "medium", "paper"}
        durations, per = SCALES["paper"]
        assert durations == (1800, 3600, 5400, 7200)
        assert per == 25

    def test_active_scale_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert active_scale() == "small"
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert active_scale() == "tiny"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ReproError):
            active_scale()


class TestBuildDataset:
    def test_structure(self, tiny_dataset):
        assert tiny_dataset.durations == (40, 80)
        assert len(tiny_dataset.trajectories[40]) == 2
        assert len(tiny_dataset.all_trajectories()) == 4

    def test_readings_match_truth_durations(self, tiny_dataset):
        for trajectory in tiny_dataset.all_trajectories():
            assert trajectory.readings.duration == trajectory.truth.duration
            assert trajectory.duration == trajectory.truth.duration

    def test_matrices_share_shape(self, tiny_dataset):
        assert (tiny_dataset.true_matrix.values.shape
                == tiny_dataset.calibrated_matrix.values.shape)

    def test_calibrated_differs_from_true(self, tiny_dataset):
        # 30 epochs of sampling noise: the matrices should not be identical.
        assert not np.array_equal(tiny_dataset.true_matrix.values,
                                  tiny_dataset.calibrated_matrix.values)

    def test_deterministic_given_seed(self, one_floor):
        a = build_dataset(one_floor, durations=(30,), per_duration=1, seed=2)
        b_building = type(one_floor)(one_floor.name)
        # Rebuild an identical building to avoid shared state.
        from repro.mapmodel.floorplans import multi_floor_building
        b = build_dataset(multi_floor_building(1, name="one-floor"),
                          durations=(30,), per_duration=1, seed=2)
        ta = a.trajectories[30][0]
        tb = b.trajectories[30][0]
        assert ta.truth.locations == tb.truth.locations
        assert [r.readers for r in ta.readings] == \
            [r.readers for r in tb.readings]

    def test_prior_consumes_calibrated_matrix(self, tiny_dataset):
        assert tiny_dataset.prior.matrix is tiny_dataset.calibrated_matrix

    def test_repr(self, tiny_dataset):
        assert "durations=(40, 80)" in repr(tiny_dataset)


class TestSynDatasets:
    def test_syn1_tiny(self):
        dataset = syn1_dataset(scale="tiny")
        assert dataset.name == "SYN1[tiny]"
        assert dataset.building.name == "SYN1"
        assert dataset.durations == (30, 60)
        assert len(dataset.all_trajectories()) == 4


def dataset_digest(dataset):
    """SHA-256 over both matrices' bytes and every object's truth,
    readings and ``LSequence.from_readings`` rows (in row order)."""
    digest = hashlib.sha256()
    digest.update(dataset.true_matrix.values.astype("<f8").tobytes())
    digest.update(dataset.calibrated_matrix.values.astype("<f8").tobytes())
    for trajectory in dataset.all_trajectories():
        digest.update(repr(trajectory.truth.locations).encode())
        for reading in trajectory.readings:
            digest.update(
                repr((reading.time, sorted(reading.readers))).encode())
        lsequence = LSequence.from_readings(trajectory.readings,
                                            dataset.prior)
        for tau in range(lsequence.duration):
            digest.update(
                repr(list(lsequence.candidates(tau).items())).encode())
    return digest.hexdigest()


class TestPinnedDataset:
    """Geometry, calibration and the rng's draw order, pinned: the
    figures in EXPERIMENTS.md rest on all three."""

    DIGEST = "9e981436e81a4e1f9450c840e57fb3fa31770408750f2e51515ca0ad680478a5"

    def test_digest(self):
        dataset = build_dataset(multi_floor_building(1), durations=(40,),
                                per_duration=2, seed=17)
        assert dataset_digest(dataset) == self.DIGEST

    def test_matrices_equal_their_own_draws(self):
        dataset = build_dataset(multi_floor_building(1), durations=(40,),
                                per_duration=1, seed=17)
        exact = exact_matrix(dataset.readers, dataset.grid)
        drawn = calibrate(dataset.readers, dataset.grid,
                          rng=np.random.default_rng(17))
        assert np.array_equal(dataset.true_matrix.values, exact.values)
        assert np.array_equal(dataset.calibrated_matrix.values, drawn.values)
