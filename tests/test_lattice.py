import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import qbalance
from qbalance.lattice import PathBand, count_banded
from qbalance.oracle import count_paths_brute
from qbalance.scheme_a import _binom_class, count_bad
from qbalance.scheme_b import count_bad_b

from lattice_trig import count_banded_trig

# The child's peak RSS in KiB.  VmHWM starts afresh at execve; ru_maxrss,
# the fallback where /proc is missing, keeps the high-water mark of the
# process that started the child, so there it can read pytest's own peak.
PEAK_RSS_KIB = (
    "import resource\n"
    "try:\n"
    "    peak = next(int(line.split()[1]) for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
    "except (OSError, StopIteration):\n"
    "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "print(peak)\n"
)


def child_peak_kib(call):
    """Peak RSS in KiB of a fresh interpreter that runs `call` after importing qbalance."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qbalance.__file__)))
    probe = f"from qbalance import scheme_a, scheme_b, scheme_c\n{call}\n{PEAK_RSS_KIB}"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return int(out.stdout)


def banded_dp(start, end, band):
    """Banded path count, one column x at a time: O(steps * band height).

    col[y] counts the in-band paths from start to (x, y); a point is
    reached from its left neighbour (the previous column) or from the
    point below it (this column).
    """
    a, b = start
    c, d = end
    if not (band.s <= b - a <= band.t and band.s <= d - c <= band.t):
        return 0
    col = {}
    for x in range(a, c + 1):
        new = {}
        for y in range(max(b, x + band.s), min(d, x + band.t) + 1):
            if (x, y) == (a, b):
                new[y] = 1
            else:
                new[y] = col.get(y, 0) + new.get(y - 1, 0)
        col = new
    return col.get(d, 0)


class TestCountFree:
    """With no band, the path count is the binomial math.comb(dx + dy, dy)."""

    def test_offset(self):
        # every path from (0, 2) to (6, 4) keeps y - x within [-4, 4]
        assert count_paths_brute((0, 2), (6, 4)) == math.comb(8, 2) == 28
        assert count_banded((0, 2), (6, 4), PathBand(-4, 4)) == 28


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


class TestBandedDP:
    """count_banded and the bad-word censuses at n ~ 2000 against banded_dp."""

    def test_dp_matches_brute_force(self):
        for s in (-2, 0):
            for t in (0, 3):
                band = PathBand(s, t)
                for y0 in range(s, t + 1):
                    for dx in range(0, 5):
                        for dy in range(0, 5):
                            start, end = (0, y0), (dx, y0 + dy)
                            assert banded_dp(start, end, band) == count_paths_brute(start, end, band=band)

    @pytest.mark.parametrize(
        "start,end,band",
        [
            ((0, 0), (1000, 1000), PathBand(-3, 4)),
            ((0, 2), (1003, 999), PathBand(-5, 3)),
            ((0, 0), (990, 1010), PathBand(0, 25)),
            ((5, 0), (1005, 1001), PathBand(-12, -1)),
        ],
    )
    def test_count_banded(self, start, end, band):
        assert count_banded(start, end, band) == banded_dp(start, end, band) > 0

    @pytest.mark.parametrize("q", [2, 3, 6])
    def test_count_bad(self, q):
        n, m = 2000, 1000
        band = PathBand(1 - q, q - 1)
        want = sum(banded_dp((0, y), (m + y, m), band) for y in range(1 - q, q))
        assert count_bad(n, q) == want > 0

    @pytest.mark.parametrize("q", [2, 3, 6])
    def test_count_bad_b(self, q):
        n, m = 2000, 1000
        band = PathBand(1 - q, q - 2)
        want = sum(banded_dp((0, y), (m + y, m - 1), band) for y in range(1 - q, q - 1))
        assert count_bad_b(n, q) == want > 0


def census_by_heights(n, q, odd):
    """The bad-word census as one count_banded call per start height y:
    Scheme A's paths (0, y) -> (m+y, m) in the band [1-q, q-1], or with
    odd=True Scheme B's (0, y) -> (m+y, m-1) in [1-q, q-2]."""
    if q <= 1:
        return 0
    m = n // 2
    band = PathBand(1 - q, q - 1 - odd)
    return sum(count_banded((0, y), (m + y, m - odd), band) for y in range(1 - q, q - odd))


class TestCensusIsOneResidueClass:
    """count_bad and count_bad_b read one residue class of a binomial row,
    count_banded two, and none of them nor gamma_counts_b keeps the row."""

    @pytest.mark.parametrize("n", range(0, 40))
    def test_binom_class(self, n):
        for d in range(1, 9):
            for r in range(-d, 2 * d):
                assert _binom_class(n, r, d) == sum(math.comb(n, j) for j in range(n + 1) if (j - r) % d == 0)

    @pytest.mark.parametrize("n", range(2, 121, 2))
    def test_equals_census_by_heights(self, n):
        for q in range(n // 2 + 1):
            assert count_bad(n, q) == census_by_heights(n, q, odd=False), q
        for q in range(n // 2 + 1):
            assert count_bad_b(n, q) == census_by_heights(n, q, odd=True), q

    def test_rho_b_at_65536_in_bounded_memory(self):
        """A 2^16 binomial row holds about 200 MB; the census keeps none."""
        assert child_peak_kib("scheme_b.rho_b(65536, 3)") < 60 * 1024

    def test_count_banded_at_32768_in_bounded_memory(self):
        """Read off a cached row C(2^16, .), the count peaked at 214 MB."""
        call = "from qbalance import lattice; lattice.count_banded((0, 0), (32768, 32768), lattice.PathBand(-3, 3))"
        assert child_peak_kib(call) < 60 * 1024

    def test_gamma_counts_b_at_32768_in_bounded_memory(self):
        """Read off a cached row C(n-1, .), the histogram peaked at 116 MB here; stepped, at 66 MB."""
        assert child_peak_kib("scheme_b.gamma_counts_b(1 << 15, 0)") < 90 * 1024


class TestRhoReadsNoRow:
    """Every rho sums float shares, so none builds a binomial row."""

    @pytest.mark.parametrize("call", ["scheme_a.rho_a_bound(65536, 0)", "scheme_c.rho_c_fullspace(65536)"])
    def test_rho_at_65536_in_bounded_memory(self, call):
        """The exact paths took 1,163 MB (A) and 434 MB (C) here."""
        assert child_peak_kib(call) < 64 * 1024
