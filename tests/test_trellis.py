import hashlib
import json
import math
import random
import time
from pathlib import Path

import pytest

from qbalance import trellis
from qbalance.cyclic_code import codewords, from_generator, full_space, parse_code_file, poly_divmod, poly_from_coeffs
from qbalance.errors import CapacityError
from qbalance.scheme_c import encode_c, gamma_counts_fullspace, gamma_size_c, rho_c_fullspace
from qbalance.trellis import _check, _Lanes, _width, build_and_count, state_count

from fresh_process import CLI, run_fresh

PERFBENCH_CODES = Path(__file__).resolve().parents[1] / "perfbench" / "codes"

# [23,12,7] Golay code, 1 + X^2 + X^4 + X^5 + X^6 + X^10 + X^11 (n - k = 11)
GOLAY23 = (23, poly_from_coeffs([1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]))
# [31,21,5] BCH code, generator octal 3551 (n - k = 10)
BCH31 = (31, poly_from_coeffs([1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 1]))

# The figures pinned in perfbench/golden.json, recorded with the earlier per-state dict pass.
GOLAY23_GAMMA = {1: 684, 2: 174, 3: 96, 4: 64, 5: 50, 6: 48, 7: 28, 8: 26, 9: 26, 10: 32, 11: 32, 12: 56}
GOLAY23_SIZE = 1316
GOLAY23_STATES = 290421
BCH31_GAMMA = {
    1: 302808, 2: 78380, 3: 40628, 4: 26402, 5: 19262, 6: 15290, 7: 12466, 8: 10726,
    9: 9614, 10: 8704, 11: 8234, 12: 8084, 13: 8104, 14: 8718, 15: 10428, 16: 19000,
}
BCH31_SIZE = 586848
BCH31_STATES = 584629

# prints the seconds that the build and the census of BCH[63,51] take
BCH63_CENSUS = """\
import time
from qbalance.cyclic_code import from_generator, poly_from_coeffs
from qbalance.trellis import build_and_count
code = from_generator(63, poly_from_coeffs([1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 0, 1]))
start = time.perf_counter()
build_and_count(code).states
print(time.perf_counter() - start)
"""

# [63,48] at the build guard's edge, (1 + X + X^6)(1 + X^3 + X^6)(1 + X + X^3),
# and [63,47], one factor 1 + X past it
EDGE_63_48 = poly_from_coeffs([1, 0, 1, 0, 1, 1, 1, 0, 1, 1, 0, 0, 0, 1, 0, 1])
PAST_63_47 = poly_from_coeffs([1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 1])
# Hamming[511,502], 1 + X^4 + X^9, and [511,493], times 1 + X^5 + X^9
HAMMING511 = poly_from_coeffs([1, 0, 0, 0, 1, 0, 0, 0, 0, 1])
PAST_511_493 = poly_from_coeffs([1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1])

# [27,9], 1 + X^9 + X^18 (n - k = 18): prints |C*| and the build's seconds
BUILD_27_9 = """\
import time
from qbalance.cyclic_code import from_generator
from qbalance.trellis import build_and_count
start = time.perf_counter()
report = build_and_count(from_generator(27, 1 | 1 << 9 | 1 << 18))
print(report.codebook_size, time.perf_counter() - start)
"""

# prints |C*| of the build at the guard's edge and its seconds, then the error
# and the seconds to raise on each code past it, given as n and generator
BUILD_EDGE = """\
import sys, time
from qbalance.cyclic_code import from_generator
from qbalance.errors import CapacityError
from qbalance.trellis import build_and_count
start = time.perf_counter()
report = build_and_count(from_generator(63, int(sys.argv[1])))
print(report.codebook_size, time.perf_counter() - start)
for n, g in zip(sys.argv[2::2], sys.argv[3::2]):
    code = from_generator(int(n), int(g))
    start = time.perf_counter()
    try:
        build_and_count(code)
    except CapacityError as exc:
        print(exc, time.perf_counter() - start, sep=", ")
"""

# prints the census at the guard's edge and its seconds, then the error past
# the edge and on the longest code BLOCK_MAX_N admits, and the seconds each
# census read took to raise
CENSUS_EDGE = """\
import time
from qbalance.cyclic_code import BLOCK_MAX_N, full_space
from qbalance.errors import CapacityError
from qbalance.trellis import CENSUS_MAX_N, build_and_count
report = build_and_count(full_space(CENSUS_MAX_N))
start = time.perf_counter()
print(report.states, time.perf_counter() - start)
for n in (CENSUS_MAX_N + 2, BLOCK_MAX_N):
    report = build_and_count(full_space(n))
    start = time.perf_counter()
    try:
        report.states
    except CapacityError as exc:
        print(exc, time.perf_counter() - start, sep=", ")
"""


def _dict_pass(code):
    """(final, level_states) from the earlier pass: one dict entry per
    (weight, index) group, four dict updates per entry and level, its
    states counted as the nonzero path counts among the lanes."""
    m = _check(code)
    h = code.parity_cols
    vec = _Lanes(code.r, _width(code.n))
    permute = vec.permute
    states = {(0, 0): 1}
    level_states = [1]
    for level in range(1, m):
        lo = vec.permutation(h[level - 1])
        hi = vec.permutation(h[level + m - 1])
        nxt = {}
        via_hi = {} if hi else nxt
        low = 2 * level - m
        for (wt, idx), x in states.items():
            x_lo = permute(x, lo) if lo else x
            for gain, y, out in ((0, x_lo, nxt), (1, x_lo, via_hi), (1, x, nxt), (2, x, via_hi)):
                nwt = wt + gain
                if nwt > m or nwt < low:
                    continue
                key = (nwt, idx if idx else (level if nwt == level else 0))
                out[key] = out.get(key, 0) + y
        if hi:
            for key, y in via_hi.items():
                nxt[key] = nxt.get(key, 0) + permute(y, hi)
        states = nxt
        level_states.append(sum(len(lanes) - list(lanes).count(0) for lanes in map(vec.lanes, states.values())))
    h_m = h[m - 1]
    final = {}
    for (wt, idx), x in states.items():
        for nwt, cnt in ((wt, vec.lane(x, h_m)), (wt + 1, vec.lane(x, 0))):
            if cnt and nwt in (m - 1, m):
                key = (nwt, idx if idx else m)
                final[key] = final.get(key, 0) + cnt
    level_states.append(len(final))
    return final, tuple(level_states)


DIFFERENTIAL_CODES = {
    **{f"full{n}": (n, 1) for n in range(1, 64, 2)},
    # Hamming codes from the primitive polynomials 1 + X + X^3, 1 + X + X^4, 1 + X^2 + X^5, 1 + X + X^6
    "hamming7": (7, poly_from_coeffs([1, 1, 0, 1])),
    "hamming15": (15, poly_from_coeffs([1, 1, 0, 0, 1])),
    "hamming31": (31, poly_from_coeffs([1, 0, 1, 0, 0, 1])),
    "hamming63": (63, poly_from_coeffs([1, 1, 0, 0, 0, 0, 1])),
    **{f"repetition{n}": (n, (1 << n) - 1) for n in (13, 15, 17)},
    "simplex7": (7, poly_from_coeffs([1, 0, 1, 1, 1])),  # 1 + X^2 + X^3 + X^4
    "bch15": (15, poly_from_coeffs([1, 0, 0, 0, 1, 0, 1, 1, 1])),  # 1 + X^4 + X^6 + X^7 + X^8
    "golay23": GOLAY23,
    "bch31": BCH31,
}


@pytest.mark.parametrize("spec", DIFFERENTIAL_CODES.values(), ids=DIFFERENTIAL_CODES.keys())
def test_row_lists_match_dict_pass(spec):
    code = from_generator(*spec)
    report = build_and_count(code)
    assert (report.final, report.level_states) == _dict_pass(code)


# sha256 over every generator g | X^n + 1 with odd 3 <= n <= 31 and n - k <= 14,
# in ascending n, then g, of repr((n, g, sorted(final.items()))), recorded
# with every lane _width(n) bits wide
DIVISOR_CODES_SHA256 = "98361323feac80195915bbb58b27c436c2152e724adc785d900feb45fe776cd9"


def test_final_of_every_divisor_code_is_pinned():
    """The per-level lane widths leave every count of the 178 codes as it
    was; narrower lanes would carry into the next one."""
    digest, count = hashlib.sha256(), 0
    for n in range(3, 32, 2):
        for g in range(1, 1 << (min(14, n - 1) + 1), 2):
            if poly_divmod((1 << n) | 1, g)[1] == 0:
                final = build_and_count(from_generator(n, g)).final
                digest.update(repr((n, g, sorted(final.items()))).encode())
                count += 1
    assert count == 178
    assert digest.hexdigest() == DIVISOR_CODES_SHA256


def enumeration_gamma(code):
    sizes = {}
    for x in codewords(code):
        c = encode_c(code, x).codeword.prefix(code.n)
        sizes[c] = gamma_size_c(c)
    hist = {}
    for s in sizes.values():
        hist[s] = hist.get(s, 0) + 1
    return dict(sorted(hist.items()))


class TestAgainstEnumeration:
    def test_simplex(self, simplex):
        gamma = build_and_count(simplex).gamma
        assert gamma == {1: 2, 2: 1, 4: 1}
        assert gamma == enumeration_gamma(simplex)

    def test_hamming_tally(self, hamming):
        gamma = build_and_count(hamming).gamma
        assert gamma == {1: 4, 2: 2, 4: 2}
        assert gamma == enumeration_gamma(hamming)

    def test_hamming15(self, hamming15):
        assert build_and_count(hamming15).gamma == enumeration_gamma(hamming15)

    @pytest.mark.parametrize("length", [7, 11, 15])
    def test_full_space(self, length):
        fs = full_space(length)
        assert build_and_count(fs).gamma == enumeration_gamma(fs)

    def test_golay23(self):
        golay = from_generator(*GOLAY23)
        assert build_and_count(golay).gamma == enumeration_gamma(golay)

    def test_final_states_split_by_weight(self, hamming):
        report = build_and_count(hamming)
        m = 4
        assert set(wt for wt, _ in report.final) <= {m - 1, m}
        merged = {}
        for (wt, idx), cnt in report.final.items():
            merged[idx] = merged.get(idx, 0) + cnt
        assert merged == report.gamma


class TestBeyondEnumeration:
    """Codes with k > 24, past what enumeration reaches, against the
    earlier passes: `final` against the one that stepped one index group
    per level of the first zero, `level_states` against the census that
    stepped path counts."""

    # sha256 of repr(sorted(final.items())), recorded with that pass
    FINAL_SHA256 = {
        "bch63": "f4c08b613193635314b70f9a5034cd7d39a3c940795b7186820956a6c85187a0",
        "hamming127": "1157c5d5c3053977bfb548da165831606bef24e5d596561cb7cdfafcf2288424",
    }
    # sha256 of repr(level_states), recorded with that census
    LEVEL_STATES_SHA256 = {
        "bch63": "98a780e3d383816736aef1e82d72d8b41487deb1cabda8919749ac7c76f49e66",
        "hamming127": "c5ed8040e7807541d48a77d77e1e31afac0097d48e82aff6656466cb6cb8cfa5",
    }

    @pytest.fixture(scope="class", params=FINAL_SHA256)
    def pinned(self, request):
        """(name, report), one build per code for both pins."""
        return request.param, build_and_count(request.getfixturevalue(request.param))

    def test_final_matches_all_groups_pass(self, pinned):
        name, report = pinned
        assert hashlib.sha256(repr(sorted(report.final.items())).encode()).hexdigest() == self.FINAL_SHA256[name]

    def test_census_matches_path_count_census(self, pinned):
        name, report = pinned
        assert hashlib.sha256(repr(report.level_states).encode()).hexdigest() == self.LEVEL_STATES_SHA256[name]


class TestPinnedCodes:
    def test_golay23(self):
        report = build_and_count(from_generator(*GOLAY23))
        assert report.gamma == GOLAY23_GAMMA
        assert report.codebook_size == GOLAY23_SIZE
        assert report.states == GOLAY23_STATES

    def test_bch31(self):
        report = build_and_count(from_generator(*BCH31))
        assert report.gamma == BCH31_GAMMA
        assert report.codebook_size == BCH31_SIZE
        assert report.states == BCH31_STATES

    @pytest.mark.parametrize("spec", [(7, 1), (15, 1), GOLAY23, BCH31], ids=["full7", "full15", "golay23", "bch31"])
    def test_report_views_agree(self, spec):
        code = from_generator(*spec)
        report = build_and_count(code)
        assert len(report.level_states) == (code.n + 1) // 2 + 1  # root, m-1 pair levels, final
        assert sum(report.level_states) == report.states == state_count(code)
        assert report.codebook_size == sum(report.gamma.values()) == sum(report.final.values())


class TestStatesOnDemand:
    """The pass counts no states; `level_states` takes its own pass on first read."""

    @pytest.mark.parametrize("spec", [(15, 1), GOLAY23], ids=["full15", "golay23"])
    def test_pass_counts_no_states(self, monkeypatch, spec):
        code = from_generator(*spec)
        want = _dict_pass(code)

        def refuse(code):
            raise AssertionError("the pass ran the census")

        with monkeypatch.context() as patch:
            patch.setattr(trellis, "_levels", refuse)
            report = build_and_count(code)
            assert report.final == want[0]
            assert report.gamma == enumeration_gamma(code)
            assert report.codebook_size == sum(want[0].values())
            rho = report.rho
        assert rho == build_and_count(code).rho
        assert report.level_states == want[1]


class TestLanes:
    """Lane-vector arithmetic against plain per-syndrome lists."""

    @staticmethod
    def pack(counts, width):
        return sum(c << (s * width) for s, c in enumerate(counts))

    @pytest.mark.parametrize("r", [0, 1, 3, 5])
    def test_permutation_is_xor_of_the_index(self, r):
        rng = random.Random(r)
        width = 9
        lanes = _Lanes(r, width)
        for _ in range(20):
            counts = [rng.choice((0, 0, 1, rng.getrandbits(width))) for _ in range(1 << r)]
            mask = rng.getrandbits(r) if r else 0
            moved = lanes.permute(self.pack(counts, width), lanes.permutation(mask))
            assert moved == self.pack([counts[s ^ mask] for s in range(1 << r)], width)
            assert [lanes.lane(moved, s) for s in range(1 << r)] == [counts[s ^ mask] for s in range(1 << r)]

    @pytest.mark.parametrize("width", [8, 16, 32, 64, 128])
    @pytest.mark.parametrize("r", range(6))
    def test_dot_is_the_sum_of_lane_products(self, r, width):
        rng = random.Random(r * 1000 + width)
        lanes = _Lanes(r, width)
        top = (1 << width) - 1
        count = 1 << r
        cases = [([0] * count, [top] * count), ([top] * count, [top] * count)]
        for _ in range(20):
            cases.append(tuple([rng.choice((0, 1, top, rng.getrandbits(width))) for _ in range(count)] for _ in "ab"))
        for a, b in cases:
            want = sum(x * y for x, y in zip(a, b))
            assert lanes.dot(lanes.lanes(self.pack(a, width)), self.pack(b, width)) == want

    @pytest.mark.parametrize("narrow,wide", [(8, 16), (8, 64), (16, 32), (32, 64), (64, 72), (72, 128)])
    @pytest.mark.parametrize("r", [1, 3, 5])
    def test_widen_keeps_every_lane(self, r, narrow, wide):
        rng = random.Random(r * 1000 + narrow * 10 + wide)
        for _ in range(20):
            counts = [rng.choice((0, 1, (1 << narrow) - 1, rng.getrandbits(narrow))) for _ in range(1 << r)]
            assert _Lanes(r, wide).widen(self.pack(counts, narrow), _Lanes(r, narrow)) == self.pack(counts, wide)

    @pytest.mark.parametrize("n,width", [(1, 8), (7, 8), (15, 16), (23, 32), (31, 32), (63, 64), (65, 72), (127, 128), (4095, 4096)])
    def test_width_holds_every_count_in_whole_bytes(self, n, width):
        assert _width(n) == width


class TestClosedFormEquivalence:
    # n = 256 and 1024: the [255,255] and [1023,1023] full spaces, n - k = 0,
    # one plain int per weight row
    @pytest.mark.parametrize("n", [4, 8, 12, 16, 20, 24, 256, 1024])
    def test_full_space_matches_closed_form(self, n):
        start = time.perf_counter()
        report = build_and_count(full_space(n - 1))
        assert time.perf_counter() - start < 10
        assert report.gamma == gamma_counts_fullspace(n)
        assert abs(report.rho - rho_c_fullspace(n)) <= 1e-12


class TestRho:
    def test_hamming(self, hamming):
        assert build_and_count(hamming).rho == pytest.approx(2.25)

    def test_simplex(self, simplex):
        assert build_and_count(simplex).rho == pytest.approx(2.25)

    def test_full_space_16_matches_table(self):
        assert build_and_count(full_space(15)).rho == pytest.approx(2.81, abs=0.01)

    def test_codebook_sizes(self, simplex, hamming):
        assert build_and_count(simplex).codebook_size == 4
        assert build_and_count(hamming).codebook_size == 8


class TestScaling:
    def test_even_length_code_rejected(self):
        parity8 = from_generator(8, poly_from_coeffs([1, 1]))  # X + 1 divides X^8 - 1
        with pytest.raises(ValueError, match="^length 8 is even; cyclic balancing needs 2m-1$"):
            build_and_count(parity8)

    def test_capacity_guard_at_20(self):
        repetition21 = from_generator(21, (1 << 21) - 1)  # n - k = 20
        with pytest.raises(CapacityError):
            build_and_count(repetition21)

    def test_capacity_guard(self):
        g, rem = poly_divmod((1 << 31) | 1, poly_from_coeffs([1, 0, 1, 0, 0, 1]))
        assert rem == 0
        simplex31 = from_generator(31, g)  # n - k = 26
        with pytest.raises(CapacityError):
            build_and_count(simplex31)

    def test_state_count_within_product_bound(self):
        for n in (16, 32, 64):
            code = full_space(n - 1)
            m = n // 2
            bound = (m + 1) * (2 * m + 1) * (m + 1) * (1 << code.r) * (m + 2)
            assert state_count(code) <= bound

    def test_state_growth_at_most_quartic(self):
        # doubling n may multiply the state space by at most 2^4
        counts = [state_count(full_space(n - 1)) for n in (32, 64, 128)]
        assert counts[1] <= 16 * counts[0]
        assert counts[2] <= 16 * counts[1]

    def test_census_time_tracks_state_count(self):
        """The census pass still walks every state, so its time follows their count."""
        sizes = (256, 512)
        times = []
        states = []
        for n in sizes:
            report = build_and_count(full_space(n - 1))
            start = time.perf_counter()
            states.append(report.states)
            times.append(time.perf_counter() - start)
        # doubling n: state count grows ~8x (< n^4 bound); allow 4x noise on top
        assert times[1] <= 4 * (states[1] / states[0]) * times[0]

    def test_build_time_grows_at_most_cubically(self):
        """The split build steps O(n^2) rows of n-bit ints on the full space
        (26 ms at n = 1024 and 0.59 s at 4096 on a 2-CPU x86-64 host); the
        pass over every index group took 2.3 s at 1024 alone."""
        times = []
        for n in (1024, 4096):
            code = full_space(n - 1)
            start = time.perf_counter()
            build_and_count(code)
            times.append(time.perf_counter() - start)
        assert times[1] < 10
        assert times[1] <= 4**3 * times[0]

    def test_census_of_bch63_in_bounded_time_and_memory(self):
        """Build and census of BCH[63,51] in a fresh process; the census that
        stepped path counts took about 2 s and 42 MB there."""
        child = run_fresh(BCH63_CENSUS, timeout=20)
        assert float(child.out) < 1
        assert child.peak_kib < 32 * 1024

    def test_build_of_27_9_in_bounded_memory(self):
        """[27,9] at n - k = 18: lanes of _width(|P| - rank H_P) bits per
        level peak at about 49 MB in a fresh process, where lanes of
        _width(n) = 32 bits at every level peaked at 112 MB."""
        child = run_fresh(BUILD_27_9, timeout=30)
        size, seconds = child.out.split()
        assert int(size) == 252 and float(seconds) < 10
        assert child.peak_kib < 80 * 1024

    def test_census_guard_at_its_edge(self):
        """The census grows as about n^3 (0.43 s at n = 511 and 2.9 s at
        1023 on the full space); past CENSUS_MAX_N it raises before it
        steps a level.  perfbench's largest census, full127, stays far
        below, at about 1/50 of the edge's time."""
        longest = max(parse_code_file(path.read_text()).n for path in PERFBENCH_CODES.glob("*.code"))
        assert (longest, trellis.CENSUS_MAX_N) == (127, 511)
        child = run_fresh(CENSUS_EDGE, timeout=30)
        edge, *past = child.out.splitlines()
        states, seconds = edge.split()
        assert int(states) == 2845697 and float(seconds) < 5
        assert [line.rpartition(", ")[0] for line in past] == [
            "n=513 exceeds the trellis state census guard 511",
            "n=4095 exceeds the trellis state census guard 511",
        ]
        assert all(float(line.rpartition(", ")[2]) < 0.01 for line in past)
        assert child.peak_kib < 48 * 1024

    def test_build_guard_at_its_edge(self, tmp_path):
        """The build's work m^2 (r + 1) 2^r W is 2^35 on [63,48], which
        builds in about 3 s and 68 MB; past BUILD_MAX_WORK, on [63,47],
        Hamming[511,502] (a 14 s build) and [511,493] (about 26 GB), it
        raises before it steps a level, and `trellis --code` exits 1.
        Every code under perfbench/codes builds, far below the edge."""
        assert trellis.BUILD_MAX_WORK == 1 << 35
        for path in PERFBENCH_CODES.glob("*.code"):
            build_and_count(parse_code_file(path.read_text()))
        past = [63, PAST_63_47, 511, HAMMING511, 511, PAST_511_493]
        child = run_fresh(BUILD_EDGE, str(EDGE_63_48), *map(str, past), timeout=60, as_limit_kib=1 << 20)
        edge, *refused = child.out.splitlines()
        size, seconds = edge.split()
        assert int(size) == 55927260877128 and float(seconds) < 15
        assert [line.rpartition(", ")[0] for line in refused] == [
            f"[63,47] trellis build work {17 << 32} exceeds guard {1 << 35}; use exhaustive enumeration instead",
            f"[511,502] trellis build work {10 << 34} exceeds guard {1 << 35}; use exhaustive enumeration instead",
            f"[511,493] trellis build work {19 << 43} exceeds guard {1 << 35}; use exhaustive enumeration instead",
        ]
        assert all(float(line.rpartition(", ")[2]) < 0.01 for line in refused)
        assert child.peak_kib < 128 * 1024
        path = tmp_path / "past63_47.code"
        path.write_text(f"n = 63\nk = 47\ngenerator = {','.join(str(PAST_63_47 >> i & 1) for i in range(17))}\n")
        child = run_fresh(CLI, "trellis", "--code", str(path), timeout=20, as_limit_kib=1 << 20, check=False)
        assert (child.status, child.out) == (1, "")
        assert child.err.startswith("error: [63,47] trellis build work")

    def test_full_space_cli_at_block_max_in_bounded_time_and_memory(self, tmp_path):
        """`trellis --code` on the longest code file `BLOCK_MAX_N` admits:
        the pass over every index group ran for over a minute."""
        path = tmp_path / "full4095.code"
        path.write_text("n = 4095\nk = 4095\ngenerator = 1\n")
        start = time.perf_counter()
        child = run_fresh(CLI, "trellis", "--code", str(path), timeout=20)
        assert time.perf_counter() - start < 10
        assert child.peak_kib < 128 * 1024
        report = json.loads(child.out)
        # the receivable blocks are the words of weight 2047 or 2048
        assert (report["n"], report["codebook_size"]) == (4095, math.comb(4096, 2048))
