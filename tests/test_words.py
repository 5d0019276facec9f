import random
from bisect import bisect_left
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from qbalance.words import (
    BitWord,
    _chunk_table,
    all_words,
    balancing_indices,
    complement,
    cyclic_running_sum,
    cyclic_shift,
    flip_indices,
    flip_prefix,
    fresh_indices,
    level_walk,
    running_sum,
    select_walk,
    weight,
)

words = st.integers(min_value=0, max_value=20).flatmap(
    lambda n: st.integers(min_value=0, max_value=(1 << n) - 1).map(lambda v: BitWord(v, n))
)


def W(s):
    return BitWord.from_str(s)


class TestBitWord:
    def test_str_roundtrip(self):
        assert str(W("10011111")) == "10011111"
        assert str(W("")) == ""
        assert W("0101").length == 4

    def test_leading_zeros_significant(self):
        assert W("0011") != W("11")
        assert W("0011").length == 4

    def test_prefix_suffix_reassemble(self):
        w = W("0110100111")
        for j in range(len(w) + 1):
            assert W(str(w.prefix(j)) + str(w)[j:]) == w

    def test_immutable(self):
        w = W("01")
        with pytest.raises(AttributeError):
            w.value = 3

    @pytest.mark.parametrize(
        "value,length,text",
        [
            (0, -1, "length must be nonnegative"),
            (-1, 4, "value -1 does not fit in 4 bits"),
            (16, 4, "value 16 does not fit in 4 bits"),
            (1, 0, "value 1 does not fit in 0 bits"),
        ],
    )
    def test_rejects_invalid(self, value, length, text):
        with pytest.raises(ValueError, match=f"^{text}$"):
            BitWord(value, length)

    @pytest.mark.parametrize("j", [-1, 5])
    def test_prefix_out_of_range(self, j):
        with pytest.raises(ValueError, match=f"^prefix length {j} out of range$"):
            W("0110").prefix(j)


class TestWeight:
    def test_weight_six_target(self):
        assert weight(W("10011111")) == 6

    def test_empty(self):
        assert weight(W("")) == 0

    def test_simple(self):
        assert weight(W("0101")) == 2


class TestFlipPrefix:
    def test_flip_one_bit(self):
        assert flip_prefix(W("00011111"), 1) == W("10011111")

    def test_identity(self):
        w = W("0110")
        assert flip_prefix(w, 0) == w

    def test_flip_whole_word(self):
        assert flip_prefix(W("01100000"), 8) == W("10011111")

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            flip_prefix(W("01"), 3)

    @given(words, st.data())
    def test_involutive(self, w, data):
        j = data.draw(st.integers(min_value=0, max_value=len(w)))
        assert flip_prefix(flip_prefix(w, j), j) == w

    @given(words, st.data())
    def test_weight_change(self, w, data):
        j = data.draw(st.integers(min_value=0, max_value=len(w)))
        pre = w.prefix(j)
        zeros = j - weight(pre)
        assert weight(flip_prefix(w, j)) == weight(w) + zeros - weight(pre)


class TestComplementShift:
    def test_complement_value(self):
        assert complement(W("11100000")) == W("00011111")

    def test_shift_then_flip(self):
        shifted = cyclic_shift(W("1011100"), 1)
        assert flip_prefix(shifted, 4) == W("1010110")

    def test_shift_zero(self):
        w = W("1011100")
        assert cyclic_shift(w, 0) == w

    @given(words, st.integers(min_value=-30, max_value=30))
    def test_shift_inverse(self, w, i):
        assert cyclic_shift(cyclic_shift(w, i), -i) == w


class TestRunningSum:
    def test_balanced_codeword_value(self):
        assert running_sum(W("10011111")) == [0, 1, 0, -1, 0, 1, 2, 3, 4]

    def test_descending_tail(self):
        assert running_sum(W("111000")) == [0, 1, 2, 3, 2, 1, 0]
        assert running_sum(W("1110000")) == [0, 1, 2, 3, 2, 1, 0, -1]

    def test_all_zeros(self):
        assert running_sum(W("0000")) == [0, -1, -2, -3, -4]

    @given(words)
    def test_final_entry_is_imbalance(self, w):
        assert running_sum(w)[-1] == 2 * weight(w) - w.length

    @given(words)
    def test_complement_negates(self, w):
        assert running_sum(complement(w)) == [-r for r in running_sum(w)]


class TestCyclicRunningSum:
    def test_shifted_simplex_word(self):
        assert cyclic_running_sum(W("1010110")) == [0, 2, 2, 2]

    def test_all_ones(self):
        assert cyclic_running_sum(W("1111111")) == [0, 2, 4, 6]

    def test_pairing(self):
        # the recurrence gives (0, -2, 0, 2); first zero at index 2 matches
        # the shift-set size 2 of this block
        assert cyclic_running_sum(W("0110011")) == [0, -2, 0, 2]

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            cyclic_running_sum(W("0110"))

    @pytest.mark.parametrize("length", [1, 3, 5, 7, 9, 11])
    def test_pairs_positions_i_and_i_plus_m(self, length):
        m = (length + 1) // 2
        for w in all_words(length):
            step = [0] + [1 if b == "1" else -1 for b in str(w)]
            want = [0]
            for i in range(1, m):
                want.append(want[-1] + step[i] + step[i + m])
            assert cyclic_running_sum(w) == want


class TestBalancingIndices:
    def test_minimum_index(self):
        assert balancing_indices(W("00011111"), 2)[0] == 1

    def test_bad_word_both_empty(self):
        w = W("01100110")
        assert balancing_indices(w, 2) == []
        assert balancing_indices(complement(w), 2) == []

    def test_balanced_word_contains_zero(self):
        assert 0 in balancing_indices(W("0110"), 0)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            balancing_indices(W("011"), 0)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14, 16])
    def test_zero_balancing_index_always_exists(self, n):
        assert all(balancing_indices(w, 0) for w in all_words(n))


class TestFlipIndices:
    @pytest.mark.parametrize("n", range(13))
    def test_flip_moves_weight_by_minus_running_sum(self, n):
        for w in all_words(n):
            sums = running_sum(w)
            for j in range(n + 1):
                assert weight(flip_prefix(w, j)) == weight(w) - sums[j]

    @pytest.mark.parametrize("n", range(13))
    def test_matches_definition(self, n):
        targets = [(t,) for t in range(-1, n + 2)] + [(t, t + 1) for t in range(-1, n + 1)]
        for w in all_words(n):
            flipped = [weight(flip_prefix(w, j)) for j in range(n + 1)]
            for ts in targets:
                assert flip_indices(w, ts) == [j for j, wt in enumerate(flipped) if wt in ts]


def level_sets(sums):
    """One- and two-value level sets on and off the path of sums."""
    lo, hi, end = min(sums), max(sums), sums[-1]
    return [(0,), (end,), (lo,), (hi,), (lo - 1,), (hi + 9,), (end - 1, end), (lo, hi), (lo - 2, lo - 1), (lo - 1, hi + 1)]


def sign_maps(levels):
    """Each sign on every level, and for two levels each mixed pair, as B's targets have."""
    maps = [dict.fromkeys(levels, sign) for sign in (-1, 0, 1)]
    if len(levels) == 2:
        maps += [dict(zip(levels, signs)) for signs in ((1, -1), (-1, 1))]
    return maps


def check_walks(w):
    """Every walk of w against the per-bit references; returns the hit taus."""
    sums = running_sum(w)
    n, wt, taus = w.length, weight(w), set()
    flipped = {}  # (tau, sign): Gamma of the first tau bits' flip, per bit
    for sign in (-1, 0, 1):
        gamma = fresh_indices(w, sign)
        for rank in range(len(gamma) + 2):
            want = (len(gamma), gamma[rank] if rank < len(gamma) else None)
            assert select_walk(w.value, n, sign, rank) == want, (w, sign, rank)
    for levels in level_sets(sums):
        # a flip of the first j bits lands on weight wt - R_j; a miss reports the range of R
        tau = next((j for j, r in enumerate(sums) if r in levels), None)
        for signs in sign_maps(levels) if tau is not None else [dict.fromkeys(levels, 0)]:
            targets = {wt - level: sign for level, sign in signs.items()}
            if tau is None:
                want = (min(sums), max(sums))
            else:
                # Gamma of the flipped word, walked with its weight's sign, and the count below tau
                key = (tau, signs[sums[tau]])
                if key not in flipped:
                    flipped[key] = fresh_indices(flip_prefix(w, tau), key[1])
                gamma = flipped[key]
                want = (tau, len(gamma), bisect_left(gamma, tau))
                taus.add(tau)
            assert level_walk(w.value, n, targets) == want, (w, signs)
    return taus


class TestChunkWalks:
    """The 8-bit chunk walks against the per-bit running_sum."""

    @pytest.mark.parametrize("n", range(17))
    def test_every_word(self, n):
        # odd lengths, and every length not a multiple of 8, start on a short chunk
        taus = set()
        for w in all_words(n):
            taus |= check_walks(w)
        assert {0, n} <= taus  # hits at both ends of the word

    # every fill width 0-7 of the last chunk, on short and long words
    @pytest.mark.parametrize("n", [17, 63, 64, 250, 251, 252, 253, 254, 1021, 1022, 1023, 1024, 1026, 4096])
    def test_seeded_words(self, n):
        rng = random.Random(n)
        for _ in range(40):
            check_walks(BitWord(rng.getrandbits(n), n))

    def test_runs_cross_chunks(self):
        # long monotone runs set a new extreme at every position of many chunks
        for n in (9, 24, 31, 100):
            for w in (BitWord((1 << n) - 1, n), BitWord(0, n), BitWord(((1 << n) - 1) >> (n // 2), n)):
                check_walks(w)


def _chunk_rows_by_sums():
    """The chunk rows as they were first built: ups[t] and downs[t] each a
    sum of the first-hit masks over every level past t, and each part a
    plain min and max over the sums before and from a bit."""
    rows = []
    for b in range(256):
        sums = tuple(accumulate(1 if b >> (7 - k) & 1 else -1 for k in range(8)))
        hits = {}
        for k, s in enumerate(sums):
            hits[s] = hits.get(s, 0) | 1 << k
        first = {s: mask & -mask for s, mask in hits.items()}
        ups = tuple(sum(first.get(s, 0) for s in range(t + 1, 9)) for t in range(8))
        downs = tuple(sum(first.get(-s, 0) for s in range(t + 1, 9)) for t in range(8))
        full = (0, *sums)
        parts = tuple((min(full[:k]), max(full[:k]), min(full[k:]), max(full[k:])) for k in range(1, 9))
        rows.append((min(sums), max(sums), sums[-1], hits, ups, downs, parts))
    return tuple(rows)


def test_chunk_table_equals_the_table_by_sums():
    rows, offsets = _chunk_table()
    assert repr(rows) == repr(_chunk_rows_by_sums())
    assert offsets == tuple(tuple(k + 1 for k in range(8) if m >> k & 1) for m in range(256))
