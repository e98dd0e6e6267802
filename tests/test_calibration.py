"""Tests for the detection-matrix calibration (Section 6.2 procedure)."""

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy", exc_type=ImportError)

from repro.errors import CalibrationError
from repro.geometry import Point, Segment
from repro.mapmodel.building import Building, _properly_crosses
from repro.mapmodel.floorplans import multi_floor_building
from repro.mapmodel.grid import Grid
from repro.mapmodel.random_plans import random_building
from repro.rfid.calibration import DetectionMatrix, calibrate, exact_matrix
from repro.rfid.readers import Reader, ReaderModel, place_default_readers


@pytest.fixture
def setup(two_rooms):
    grid = Grid(two_rooms, 1.0)
    model = place_default_readers(two_rooms)
    return two_rooms, grid, model


class TestDetectionMatrix:
    def test_shape_validation(self, setup):
        _, grid, model = setup
        with pytest.raises(CalibrationError):
            DetectionMatrix(np.zeros((3,)), grid, model.reader_names)
        with pytest.raises(CalibrationError):
            DetectionMatrix(np.zeros((len(model) + 1, grid.num_cells)),
                            grid, model.reader_names)
        with pytest.raises(CalibrationError):
            DetectionMatrix(np.zeros((len(model), grid.num_cells + 5)),
                            grid, model.reader_names)

    def test_probability_range_validation(self, setup):
        _, grid, model = setup
        bad = np.full((len(model), grid.num_cells), 1.5)
        with pytest.raises(CalibrationError):
            DetectionMatrix(bad, grid, model.reader_names)

    def test_row_and_column_access(self, setup):
        _, grid, model = setup
        matrix = exact_matrix(model, grid)
        name = model.reader_names[0]
        row = matrix.reader_row(name)
        assert row.shape == (grid.num_cells,)
        column = matrix.cell_column(0)
        assert column.shape == (len(model),)
        with pytest.raises(CalibrationError):
            matrix.reader_row("nope")

    def test_coverage_bounds(self, setup):
        _, grid, model = setup
        coverage = exact_matrix(model, grid).coverage()
        assert coverage.shape == (grid.num_cells,)
        assert np.all(coverage >= 0.0) and np.all(coverage <= 1.0)


class TestExactMatrix:
    def test_values_match_model(self, setup):
        _, grid, model = setup
        matrix = exact_matrix(model, grid)
        reader = model.readers[0]
        cell = grid.cells[0]
        assert matrix.values[0, 0] == pytest.approx(
            model.detection_probability(reader, cell.floor, cell.center))

    def test_near_cells_are_covered(self, setup):
        _, grid, model = setup
        matrix = exact_matrix(model, grid)
        # Each reader's own cell should be in the major region.
        for r, reader in enumerate(model.readers):
            cell = grid.cell_at(reader.floor, reader.position)
            assert matrix.values[r, cell.index] == pytest.approx(
                reader.major_probability)


class TestCalibrate:
    def test_deterministic_given_rng(self, setup):
        _, grid, model = setup
        a = calibrate(model, grid, rng=np.random.default_rng(3))
        b = calibrate(model, grid, rng=np.random.default_rng(3))
        assert np.array_equal(a.values, b.values)

    def test_bad_epochs_rejected(self, setup):
        _, grid, model = setup
        with pytest.raises(CalibrationError):
            calibrate(model, grid, epochs=0)

    def test_values_are_multiples_of_one_over_epochs(self, setup):
        _, grid, model = setup
        matrix = calibrate(model, grid, epochs=10,
                           rng=np.random.default_rng(0))
        scaled = matrix.values * 10
        assert np.allclose(scaled, np.round(scaled))

    def test_converges_to_exact_with_many_epochs(self, setup):
        _, grid, model = setup
        exact = exact_matrix(model, grid)
        noisy = calibrate(model, grid, epochs=20000,
                          rng=np.random.default_rng(1))
        assert np.max(np.abs(noisy.values - exact.values)) < 0.03

    def test_zero_probability_stays_zero(self, setup):
        _, grid, model = setup
        exact = exact_matrix(model, grid)
        noisy = calibrate(model, grid, rng=np.random.default_rng(2))
        assert np.all(noisy.values[exact.values == 0.0] == 0.0)


# ----------------------------------------------------------------------
# exact_matrix against the per-pair loop it replaces
# ----------------------------------------------------------------------
def unpruned_walls(building, floor, a, b):
    """``Building.walls_between`` with every footprint edge tested."""
    path = Segment(a, b)
    return sum(_properly_crosses(path, edge)
               for loc in building.locations_on_floor(floor)
               for edge in loc.rect.edges())


def per_pair_values(model, grid):
    """``detection_probability`` for every (reader, cell) pair, every
    floor and every wall included."""
    values = np.zeros((len(model), grid.num_cells))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Building, "walls_between", unpruned_walls)
        for r, reader in enumerate(model.readers):
            for cell in grid.cells:
                values[r, cell.index] = model.detection_probability(
                    reader, cell.floor, cell.center)
    return values


def with_wall_readers(building, rng):
    """The default deployment plus readers on walls and corners and at
    random points: readers whose rays touch or run along walls."""
    readers = list(place_default_readers(building).readers)
    for i, loc in enumerate(building.locations):
        rect = loc.rect
        spots = (Point(rect.x0, rect.y0), Point(rect.x1, rect.center.y),
                 Point(rect.center.x, rect.y1),
                 Point(rng.uniform(rect.x0, rect.x1),
                       rng.uniform(rect.y0, rect.y1)))
        readers.extend(Reader(f"w{i}_{j}", loc.floor, spot)
                       for j, spot in enumerate(spots))
    return ReaderModel(building, readers)


class TestExactMatrixAgainstPairs:
    def test_one_paper_floor(self):
        building = multi_floor_building(1)
        grid = Grid(building)
        model = place_default_readers(building)
        assert np.array_equal(exact_matrix(model, grid).values,
                              per_pair_values(model, grid))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=2),
           st.integers(min_value=1, max_value=3),
           st.floats(min_value=1.5, max_value=5.0),
           st.sampled_from((0.75, 1.0, 1.3)),
           st.integers(min_value=0, max_value=2**31))
    def test_random_buildings(self, floors, rooms_x, room_size, cell_size,
                              seed):
        rng = np.random.default_rng(seed)
        building = random_building(num_floors=floors, rooms_x=rooms_x,
                                   rooms_y=2, room_size=room_size, rng=rng)
        grid = Grid(building, cell_size)
        model = with_wall_readers(building, rng)
        assert np.array_equal(exact_matrix(model, grid).values,
                              per_pair_values(model, grid))


class TestCalibrateExpected:
    def test_a_passed_matrix_draws_the_same(self, setup):
        _, grid, model = setup
        exact = exact_matrix(model, grid)
        passed = calibrate(model, grid, rng=np.random.default_rng(4),
                           expected=exact)
        own = calibrate(model, grid, rng=np.random.default_rng(4))
        assert np.array_equal(passed.values, own.values)

    def test_another_grid_is_rejected(self, setup):
        building, grid, model = setup
        other = exact_matrix(model, Grid(building, 0.5))
        with pytest.raises(CalibrationError, match="another grid"):
            calibrate(model, grid, expected=other)

    def test_another_reader_set_is_rejected(self, setup):
        building, grid, model = setup
        fewer = ReaderModel(building, model.readers[:-1])
        with pytest.raises(CalibrationError, match="reader set"):
            calibrate(model, grid, expected=exact_matrix(fewer, grid))
        renamed = ReaderModel(building, [
            Reader(f"x{i}", r.floor, r.position)
            for i, r in enumerate(model.readers)])
        with pytest.raises(CalibrationError, match="reader set"):
            calibrate(model, grid, expected=exact_matrix(renamed, grid))
