import json
import math
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from qbalance.errors import CapacityError
from qbalance.lattice import PathBand, count_banded
from qbalance.oracle import count_paths_brute
from qbalance.scheme_a import _binom_class, count_bad
from qbalance.scheme_b import count_bad_b

from fresh_process import CLI, run_fresh
from lattice_trig import count_banded_trig


def child_peak_kib(call):
    """Peak RSS in KiB of a fresh interpreter that runs `call` after importing qbalance."""
    return run_fresh(f"from qbalance import scheme_a, scheme_b, scheme_c\n{call}").peak_kib


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

    def test_guard_past_stepped_max_n(self):
        """Past scheme_a.STEPPED_MAX_N steps the count raises at once (at
        n = 2*10^6 it ran past 30 s); the displacement and band are read
        first, so an endpoint outside the band still gives 0."""
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=r"^n=131074 exceeds the path count guard 131072$"):
            count_banded((0, 0), (65537, 65537), PathBand(-3, 3))
        assert time.perf_counter() - start < 0.1
        assert count_banded((0, 0), (10**6, 10**6 + 50), PathBand(-3, 3)) == 0
        with pytest.raises(ValueError, match="negative displacement"):
            count_banded((0, 0), (-1, 10**6), PathBand(-3, 3))

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

    @pytest.mark.parametrize(
        "call,error",
        [
            (lambda: PathBand(1, 0), "band requires s <= t, got s=1, t=0"),
            (lambda: count_banded((0, 3), (2, 2), PathBand(-3, 3)), "negative displacement (0, 3) -> (2, 2)"),
        ],
        ids=["inverted-band", "negative-displacement"],
    )
    def test_rejects_what_is_no_path(self, call, error):
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            call()

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

    def test_censuses_at_65536_in_bounded_memory(self):
        """Both censuses at q = 3, as 8200-byte big-endian ints; a 2^16 binomial row alone holds about 200 MB."""
        code = (
            "import hashlib\n"
            "from qbalance.scheme_a import count_bad\n"
            "from qbalance.scheme_b import count_bad_b\n"
            "for census in (count_bad, count_bad_b):\n"
            "    print(hashlib.sha256(census(65536, 3).to_bytes(8200, 'big')).hexdigest())\n"
        )
        child = run_fresh(code, timeout=30)
        assert child.out.split() == [
            "b81f80f9bbcd7211354e72b3a39c28ff84531b199ef729c1b25ca305a72893c9",
            "8628fa5968ee583aef5fd5b8d422c31d98b46f9090b14e950d5ab4c85ab4d23a",
        ]
        assert child.peak_kib < 60 * 1024

    def test_equals_census_by_heights_at_65536_in_bounded_memory(self):
        """census_by_heights(65536, 3, odd=False), one count_banded call per start
        height; read off a cached binomial row, the same sum peaked at 214 MB."""
        code = (
            "from qbalance.lattice import PathBand, count_banded\n"
            "from qbalance.scheme_a import count_bad\n"
            "n, q, m = 65536, 3, 32768\n"
            "band = PathBand(1 - q, q - 1)\n"
            "print(sum(count_banded((0, y), (m + y, m), band) for y in range(1 - q, q)) == count_bad(n, q))\n"
        )
        child = run_fresh(code, timeout=30)
        assert child.out == "True\n"
        assert child.peak_kib < 60 * 1024


class TestRhoReadsNoRow:
    """Every rho sums float shares, so none builds a binomial row."""

    @pytest.mark.parametrize("call", ["scheme_a.rho_a_bound(65536, 0)", "scheme_c.rho_c_fullspace(65536)"])
    def test_rho_at_65536_in_bounded_memory(self, call):
        """The exact paths took 1,163 MB (A) and 434 MB (C) here."""
        assert child_peak_kib(call) < 64 * 1024

    @pytest.mark.parametrize(
        "scheme,q,want",
        [
            # each q = 0 value is the one the exact big-int paths (A, C) gave; A at q = 2 and 6 as
            # the termwise sum over single reflections gave its shares.  B's is the 40-digit
            # reference over _histogram_b(65536, 0, True) (tests/rho_reference.py).
            ("a", 0, 8.359073021470634),
            ("b", 0, 8.526318299989014),
            ("c", 0, 14.013898650403595),
            ("a", 2, 10.359239863643877),
            ("a", 6, 10.36039276013017),
        ],
    )
    def test_cli_rho_at_65536_and_the_guard_past_it_under_1_gb(self, scheme, q, want):
        """`analyze redundancy` under a 1 GB address-space cap: the value at
        n = 65536, and at n = 10^6 an error from the guard before any large allocation."""
        argv = ["analyze", "redundancy", "--scheme", scheme, "-q", str(q), "-n"]
        got = json.loads(run_fresh(CLI, *argv, "65536", as_limit_kib=1_000_000, timeout=10).out)["value"]
        assert abs(got - want) <= 1e-12 * want
        child = run_fresh(CLI, *argv, "1000000", as_limit_kib=1_000_000, timeout=10, check=False)
        assert child.status == 1
        assert child.err.startswith("error: ") and "Traceback" not in child.err
