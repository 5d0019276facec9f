import math
import re
import sys

import pytest

from qbalance import scheme_a, scheme_b
from qbalance.errors import DecodeError
from qbalance.oracle import census_bad_b, definitional_gamma, exhaustive_redundancy
from qbalance.scheme_a import Classification, count_bad, histogram_sum, rho_parts
from qbalance.scheme_b import (
    BETA,
    count_bad_b,
    decode_b,
    encode_b,
    _histogram_b,
    gamma_counts_b,
    gamma_set_b,
    rho_b,
    rho_b_asymptote,
    t_b,
)
from qbalance.words import BitWord, all_words, level_walk, select_walk, weight


def W(s):
    return BitWord.from_str(s)


class TestTb:
    def test_all_zeros(self):
        # flipping j bits of 0^7 gives weight j; targets are {3, 4}
        assert t_b(W("0000000"), 0) == [3, 4]

    def test_already_on_target(self):
        assert 0 in t_b(W("1110000"), 0)

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_nonempty_for_q0(self, n):
        assert all(t_b(w, 0) for w in all_words(n - 1))

    def test_even_message_rejected(self):
        with pytest.raises(ValueError):
            t_b(W("0110"), 0)


class TestClassifyB:
    @pytest.mark.parametrize("n,q", [(8, 0), (8, 1), (12, 0), (12, 1)])
    def test_never_bad_for_small_q(self, n, q):
        assert not any(encode_b(w, q).classification.is_bad for w in all_words(n - 1))

    def test_bad_census_n16_q3(self):
        bad = sum(1 for w in all_words(15) if encode_b(w, 3).classification.is_bad)
        assert bad == count_bad_b(16, 3) == 2728

    def test_heavy_words_are_type1(self):
        n, q = 10, 2
        for w in all_words(n - 1):
            if weight(w) >= n // 2 + q - 1:
                assert encode_b(w, q).classification is Classification.TYPE1_GOOD

    @pytest.mark.parametrize("n,q", [(10, 2), (14, 3), (18, 4)])
    def test_substituted_bad_word_is_never_bad(self, n, q):
        r = 2 * q - 2
        for w in all_words(n - 1):
            cls = encode_b(w, q).classification
            if cls.is_bad:
                replaced = BitWord(w.value >> r << r | ((1 << r) - 1 if cls.type_bit else 0), w.length)
                assert t_b(replaced, q), (w, replaced)


class TestGammaSetB:
    def test_low_weight_branch(self):
        assert gamma_set_b(W("1110000"), 0) == [0, 1, 2, 3]

    def test_high_weight_branch(self):
        assert gamma_set_b(W("0001111"), 0) == [0, 1, 2, 3]

    def test_sign_restriction(self):
        assert gamma_set_b(W("1010110"), 0) == [0]

    def test_wrong_weight(self):
        with pytest.raises(ValueError):
            gamma_set_b(W("1111100"), 0)

    def test_even_length_word(self):
        # a stripped codeword has n - 1 bits, so n = 9 is the block length refused
        with pytest.raises(ValueError, match="^block length 9 must be even$"):
            gamma_set_b(W("11110000"), 0)

    @pytest.mark.parametrize("word,q", [("0", -1), ("111", 3)])
    def test_q_out_of_range(self, word, q):
        with pytest.raises(ValueError, match="out of range"):
            gamma_set_b(W(word), q)

    @pytest.mark.parametrize("n,q", [(8, 0), (10, 1), (12, 2)])
    def test_matches_definitional_gamma(self, n, q):
        m = n // 2
        for w in all_words(n - 1):
            if weight(w) in (m + q - 1, m + q):
                assert gamma_set_b(w, q) == definitional_gamma("b", w, q)


class TestEncodeDecodeB:
    def test_all_zero_message(self):
        res = encode_b(W("0000000"), 0)
        assert str(res.codeword) == "11100001"
        assert str(res.prefix) == "11"
        assert res.tau == 3

    def test_on_target_word_needs_no_flip(self):
        res = encode_b(W("1110000"), 0)
        assert res.tau == 0
        assert str(res.prefix) == "00"  # rank 0 of a 4-element set

    @pytest.mark.parametrize("q", [0, 1, 2, 3])
    def test_roundtrip_exhaustive_n12(self, q):
        witness = exhaustive_redundancy("b", 12, q).counterexample
        assert witness is None, f"first failure at {witness}"

    def test_codeword_weight_invariant(self):
        for q in (0, 1, 2):
            for w in all_words(9):
                assert weight(encode_b(w, q).codeword) == 5 + q

    @pytest.mark.parametrize("n,q", [(32, 0), (32, 3), (64, 2), (64, 5)])
    def test_roundtrip_randomized_large_n(self, n, q):
        import random

        rng = random.Random(n * 100 + q)
        for _ in range(300):
            x = BitWord(rng.getrandbits(n - 1), n - 1)
            res = encode_b(x, q)
            assert weight(res.codeword) == n // 2 + q
            assert decode_b(res.codeword, res.prefix, n, q) == x

    def test_decode_rejects_bad_balance_bit(self):
        res = encode_b(W("0000000"), 0)
        tampered = BitWord(res.codeword.value & ~1, 8)
        with pytest.raises(DecodeError):
            decode_b(tampered, res.prefix, 8, 0)

    def test_decode_rejects_unused_rank(self):
        res = encode_b(W("1010110"), 0)  # |Gamma| = 1: empty rank field
        with pytest.raises(DecodeError, match="trailing bits at bit 0"):
            decode_b(res.codeword, W("1"), 8, 0)

    @pytest.mark.parametrize(
        "codeword,prefix,where",
        [
            # bad word 0101010 at q=2 encodes to 10101111 | 1 0 11 10
            ("10101111", "", "flag at bit 0"),
            ("10101111", "1", "type bit at bit 1"),
            ("10101111", "10", "rank at bit 2"),
            ("10101111", "10111", "bad-word tail at bit 4"),
            ("10101111", "1011100", "trailing bits at bit 6"),
            # |Gamma(1111001)| = 5: ranks 5..7 are unused codepoints
            ("11110011", "01111", "rank 7 at bit 2"),
        ],
    )
    def test_malformed_prefix_names_field(self, codeword, prefix, where):
        with pytest.raises(DecodeError, match=where):
            decode_b(W(codeword), W(prefix), 8, 2)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            encode_b(W("000000"), 0)
        with pytest.raises(ValueError):
            decode_b(W("0000000"), W(""), 7, 0)
        with pytest.raises(ValueError):
            encode_b(W("0000000"), 5)
        with pytest.raises(ValueError):
            decode_b(W("00001111"), W(""), 8, 5)

    @pytest.mark.parametrize("q", [0, 2, 9])
    @pytest.mark.parametrize("function", [encode_b, t_b])
    def test_even_message_names_its_own_length(self, function, q):
        # the message length, checked before any n derived from it
        with pytest.raises(ValueError, match=r"^message length 4 must be odd \(n-1\)$"):
            function(W("0110"), q)

    @pytest.mark.parametrize(
        "word,q,cls,scans",
        [
            ("0000000", 0, Classification.TYPE1_GOOD, 1),
            ("1111100", 2, Classification.TYPE1_GOOD, 1),
            ("0111000", 2, Classification.TYPE0_GOOD, 2),
            ("0101010", 2, Classification.TYPE0_BAD, 2),
            ("1010101", 2, Classification.TYPE1_BAD, 2),
        ],
    )
    def test_index_scans_per_class(self, monkeypatch, word, q, cls, scans):
        # the level walk that hits fixes the class, tau, |Gamma(c)| and tau's rank together,
        # and a missed message's running-sum range decides whether its complement is walked
        # at all; a decode selects Gamma(c)[rank] in one walk; neither walks Gamma(c) as a list
        calls = {"level": 0, "select": 0}

        def counted(name, walk):
            def counting(*args):
                calls[name] += 1
                return walk(*args)
            return counting

        monkeypatch.setattr(scheme_a, "level_walk", counted("level", level_walk))
        monkeypatch.setattr(scheme_a, "select_walk", counted("select", select_walk))
        res = encode_b(W(word), q)
        assert res.classification is cls
        assert calls == {"level": scans, "select": 0}
        assert decode_b(res.codeword, res.prefix, len(word) + 1, q) == W(word)
        assert calls == {"level": scans, "select": 1}


class TestGammaCountB:
    def test_n8_q0_distribution(self):
        assert gamma_counts_b(8, 0) == {1: 28, 2: 28, 3: 12, 4: 2}

    @pytest.mark.parametrize("n,q", [(8, 0), (8, 2), (12, 1), (12, 3), (14, 2)])
    def test_total_counts_both_weights(self, n, q):
        m = n // 2
        total = sum(gamma_counts_b(n, q).values())
        assert total == math.comb(n - 1, m + q - 1) + math.comb(n - 1, m + q)

    @pytest.mark.parametrize("n", [6, 8, 10, 12, 14])
    @pytest.mark.parametrize("q", [0, 1, 2, 3])
    def test_matches_histogram_oracle(self, n, q):
        m = n // 2
        hist = {}
        for w in all_words(n - 1):
            if weight(w) in (m + q - 1, m + q):
                size = len(gamma_set_b(w, q))
                hist[size] = hist.get(size, 0) + 1
        assert hist == gamma_counts_b(n, q)

    @pytest.mark.parametrize("ns,qs", [(range(2, 401, 2), range(7)), ([4096], (0, 2, 6))], ids=["even-n-to-400", "4096"])
    def test_matches_closed_form(self, ns, qs):
        # the weight-(m+q) branch, sizes 1..m-q at a = m+q+i, and the weight-(m+q-1) branch,
        # sizes max(1, 2q)..m+q at a = m-q+i, each counting C(n-1, a-1) - C(n-1, a) from math.comb
        for n in ns:
            m, comb = n // 2, [math.comb(n - 1, j) for j in range(n + 1)]
            for q in (q for q in qs if q <= m):
                want = {}
                for base, sizes in ((m + q, range(1, m - q + 1)), (m - q, range(max(1, 2 * q), m + q + 1))):
                    for i in sizes:
                        want[i] = want.get(i, 0) + comb[base + i - 1] - comb[base + i]
                assert list(gamma_counts_b(n, q).items()) == [(i, c) for i, c in sorted(want.items()) if c], (n, q)


class TestAnalysisParams:
    @pytest.mark.parametrize("q", [-1, 5, 9])
    def test_q_out_of_range(self, q):
        with pytest.raises(ValueError, match=f"q={q} out of range 0..4"):
            gamma_counts_b(8, q)
        with pytest.raises(ValueError, match=f"q={q} out of range 0..4"):
            count_bad_b(8, q)
        with pytest.raises(ValueError, match=f"q={q} out of range 0..4"):
            rho_b(8, q)

    def test_odd_n(self):
        for call in (lambda: gamma_counts_b(7, 0), lambda: count_bad_b(7, 2), lambda: rho_b(7, 0)):
            with pytest.raises(ValueError, match="must be even"):
                call()

    @pytest.mark.parametrize("n", [0, 1, -4])
    def test_block_length_below_two(self, n):
        for call in (lambda: gamma_counts_b(n, 0), lambda: count_bad_b(n, 0), lambda: rho_b(n, 0)):
            with pytest.raises(ValueError, match=f"n={n} must be at least 2"):
                call()

    @pytest.mark.parametrize(
        "n,q,error",
        [(64, -3, "q=-3 out of range 0..32"), (7, 0, "block length 7 must be even"), (0, 0, "n=0 must be at least 2")],
    )
    def test_asymptote_checks_its_input(self, n, q, error):
        # it once returned 5.526 for q = -3 and 1.930 for n = 7, and failed with "math domain error" at n = 0
        with pytest.raises(ValueError, match=re.escape(error)):
            rho_b_asymptote(n, q)


class TestCountBadB:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_zero_for_small_q(self, n):
        assert count_bad_b(n, 0) == 0
        assert count_bad_b(n, 1) == 0

    @pytest.mark.parametrize("n,q", [(8, 2), (10, 3), (12, 4), (16, 3)])
    def test_matches_census(self, n, q):
        assert count_bad_b(n, q) == census_bad_b(n, q)

    def test_halving_inequality(self):
        for n in range(4, 66, 2):
            for q in range(0, min(9, n // 2 + 1)):
                assert 2 * count_bad_b(n, q) <= count_bad(n, q)


class TestRhoB:
    @pytest.mark.parametrize(
        "n,q", [(n, q) for n in (2, 4, 8, 16, 64, 1000, 4096) for q in (0, 1, 2, 6) if q <= n // 2] + [(65536, 0)]
    )
    def test_bit_identical_to_two_branch_loop(self, n, q):
        """The float shares against the correctly rounded exact ones, C(n-1, a-1) - C(n-1, a)
        over 2^(n-1); past the histogram guard from the exact branch of _histogram_b itself."""
        counts = dict(_histogram_b(n, q, True)) if n > scheme_a.HISTOGRAM_MAX_N else gamma_counts_b(n, q)
        want = {i: g / (1 << (n - 1)) for i, g in counts.items()}
        got = dict(_histogram_b(n, q, False))
        # the step stops at the least normal float: every share it leaves out is below it
        assert list(got) == sorted(got)
        assert all(abs(share - want[i]) <= 1e-14 * want[i] + sys.float_info.min for i, share in got.items())
        assert all(want[i] < sys.float_info.min for i in want.keys() - got.keys())
        parts = rho_parts(1, histogram_sum(want.items(), 0), q, n, count_bad_b(n, q) / (1 << (n - 1)), max(0, 2 * q - 2))
        assert rho_b(n, q) == pytest.approx(sum(parts[0].values()), rel=1e-14)

    def test_table_small_n(self):
        assert rho_b(8, 0) == pytest.approx(2.01, abs=0.01)
        assert rho_b(16, 0) == pytest.approx(2.52, abs=0.01)

    def test_exact_and_logspace_agree(self):
        for n, q in [(64, 0), (128, 2), (256, 3), (1000, 6), (4096, 0)]:
            assert histogram_sum(gamma_counts_b(n, q).items(), n - 1) == pytest.approx(
                histogram_sum(_histogram_b(n, q, False), 0), rel=1e-11
            )

    def test_asymptote_constant(self):
        assert 1 + BETA == pytest.approx(0.526, abs=5e-4)
        assert rho_b_asymptote(256, 0) == pytest.approx(4.0 + 0.5263, abs=1e-3)
        assert rho_b_asymptote(256, 1) - rho_b_asymptote(256, 0) == pytest.approx(2.0)

    def test_converges_to_asymptote(self):
        devs = [
            abs((rho_b(1 << e, 0) - 0.5 * e) - (1 + BETA))
            for e in (8, 10, 12, 14)
        ]
        assert devs == sorted(devs, reverse=True)
