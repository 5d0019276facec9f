import pytest
from hypothesis import given, settings, strategies as st

from qbalance.lattice import PathBand, count_banded, count_banded_trig, count_free
from qbalance.oracle import count_paths_brute


class TestCountFree:
    def test_square(self):
        assert count_free((0, 0), (2, 2)) == 6

    def test_line(self):
        assert count_free((0, 0), (9, 0)) == 1

    def test_offset(self):
        assert count_free((0, 2), (6, 4)) == 28
        assert count_free((0, 2), (6, 4)) == count_paths_brute((0, 2), (6, 4))

    def test_negative_displacement(self):
        with pytest.raises(ValueError):
            count_free((2, 2), (0, 0))


class TestCountBanded:
    def test_narrow_band(self):
        # brute force over the 6 free paths: hvhv, hvvh, vhhv, vhvh stay in band
        assert count_banded((0, 0), (2, 2), PathBand(-1, 1)) == 4
        assert count_paths_brute((0, 0), (2, 2), band=PathBand(-1, 1)) == 4

    def test_wide_band_equals_free(self):
        assert count_banded((0, 0), (2, 2), PathBand(-2, 2)) == 6

    def test_half_band_is_catalan(self):
        assert count_banded((0, 0), (2, 2), PathBand(0, 2)) == 2

    def test_endpoint_outside_band_returns_zero(self):
        assert count_banded((0, 5), (3, 8), PathBand(-1, 1)) == 0

    def test_zero_length_path_on_line(self):
        assert count_banded((3, 3), (3, 3), PathBand(0, 0)) == 1
        assert count_banded_trig((3, 3), (3, 3), PathBand(0, 0)) == 1.0

    def test_degenerate_band_no_moves_possible(self):
        assert count_banded((0, 0), (2, 2), PathBand(0, 0)) == 0
        assert count_banded_trig((0, 0), (2, 2), PathBand(0, 0)) == 0.0

    def test_exhaustive_small_instances(self):
        # every band/endpoint combination with at most 10 steps
        for s in range(-3, 1):
            for t in range(0, 4):
                band = PathBand(s, t)
                for y0 in range(s, t + 1):
                    for dx in range(0, 6):
                        for dy in range(0, 6):
                            start, end = (0, y0), (dx, y0 + dy)
                            assert count_banded(start, end, band) == count_paths_brute(
                                start, end, band=band
                            )


class TestCountBandedTrig:
    def test_matches_exact_small(self):
        assert count_banded_trig((0, 0), (2, 2), PathBand(-1, 1)) == pytest.approx(4.0, abs=1e-9)
        assert count_banded_trig((0, 0), (2, 2), PathBand(-2, 2)) == pytest.approx(6.0, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_exact_random(self, data):
        s = data.draw(st.integers(min_value=-6, max_value=0))
        t = data.draw(st.integers(min_value=0, max_value=6))
        band = PathBand(s, t)
        y0 = data.draw(st.integers(min_value=s, max_value=t))
        dx = data.draw(st.integers(min_value=0, max_value=20))
        dy = data.draw(st.integers(min_value=0, max_value=20))
        exact = count_banded((0, y0), (dx, y0 + dy), band)
        approx = count_banded_trig((0, y0), (dx, y0 + dy), band)
        assert approx == pytest.approx(exact, rel=1e-9, abs=1e-9)
