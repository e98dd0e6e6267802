"""Tests for the text rendering helpers."""

from repro.rfid.readers import place_default_readers
from repro.viz import (
    render_entropy_sparkline,
    render_floor,
    render_marginal,
)


class TestRenderFloor:
    def test_contains_walls_doors_and_legend(self, corridor4):
        art = render_floor(corridor4, 0)
        assert "+" in art and "|" in art and "-" in art
        assert "/" in art                      # doors
        assert "corridor" in art               # legend
        assert "room1" in art

    def test_reader_marks(self, corridor4):
        readers = place_default_readers(corridor4)
        art = render_floor(corridor4, 0, readers=readers)
        assert "R" in art

    def test_scale_changes_size(self, corridor4):
        coarse = render_floor(corridor4, 0, scale=2.0)
        fine = render_floor(corridor4, 0, scale=0.5)
        assert len(fine) > len(coarse)

    def test_multi_floor_renders_requested_floor_only(self, two_floors):
        art = render_floor(two_floors, 1)
        assert "F1_R1" in art
        assert "F0_R1" not in art


class TestRenderMarginal:
    def test_mass_summary(self, corridor4):
        art = render_marginal(corridor4, 0, {"room1": 0.8, "corridor": 0.2})
        assert "on-floor mass: 1.000" in art

    def test_off_floor_mass_reported(self, two_floors):
        art = render_marginal(two_floors, 0, {"F1_R1": 1.0})
        assert "off-floor mass: 1.000" in art

    def test_high_probability_uses_dense_shade(self, corridor4):
        dense = render_marginal(corridor4, 0, {"room1": 1.0})
        spread = render_marginal(corridor4, 0, {
            "room1": 0.25, "room2": 0.25, "room3": 0.25, "room4": 0.25})
        assert "@" in dense
        assert "@" not in spread.replace("on-floor", "")


class TestSparkline:
    def test_empty_input(self):
        assert render_entropy_sparkline([]) == ""

    def test_reports_peak(self):
        line = render_entropy_sparkline([0.5, 2.0, 1.0])
        assert "peak=2.00 bits" in line

    def test_downsamples_long_profiles(self):
        line = render_entropy_sparkline([1.0] * 1000, width=40)
        inner = line[1:line.index("]")]
        assert len(inner) == 40

    def test_flat_zero_profile(self):
        line = render_entropy_sparkline([0.0, 0.0])
        assert "peak=0.00" in line
