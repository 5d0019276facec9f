import random
import time

import pytest

from qbalance.cyclic_code import codewords, from_generator, full_space, poly_divmod, poly_from_coeffs
from qbalance.errors import CapacityError
from qbalance.scheme_c import encode_c, gamma_counts_fullspace, gamma_size_c, rho_c_fullspace
from qbalance.trellis import _check, _Lanes, build_and_count, state_count

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


def _dict_pass(code):
    """(final, level_states) from the earlier pass: one dict entry per
    (weight, index) group, four dict updates per entry and level."""
    m = _check(code)
    h = code.parity_cols
    vec = _Lanes(code.r, code.n + 1)
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
        level_states.append(sum(vec.nonzero(x) for x in states.values()))
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

        def refuse(self, x):
            raise AssertionError("the pass counted states")

        with monkeypatch.context() as patch:
            patch.setattr(_Lanes, "nonzero", refuse)
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
            assert lanes.nonzero(moved) == sum(1 for c in counts if c)
            assert [lanes.lane(moved, s) for s in range(1 << r)] == [counts[s ^ mask] for s in range(1 << r)]


class TestClosedFormEquivalence:
    # n = 256: the [255,255] full space, n - k = 0, one plain int per weight
    # row, 127 levels of up to 128 index groups
    @pytest.mark.parametrize("n", [4, 8, 12, 16, 20, 24, 256])
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

    def test_build_time_tracks_state_count(self):
        sizes = (256, 512)
        times = []
        states = []
        for n in sizes:
            code = full_space(n - 1)
            start = time.perf_counter()
            report = build_and_count(code)
            times.append(time.perf_counter() - start)
            states.append(report.states)
        if times[0] < 0.02:
            pytest.skip("too fast to measure reliably")
        # doubling n: state count grows ~8x (< n^4 bound); allow 4x noise on top
        assert times[1] <= 4 * (states[1] / states[0]) * times[0]
