import math
import random

import pytest

from qbalance.cyclic_code import codewords, encode_systematic, from_generator, full_space, poly_from_coeffs
from qbalance.errors import AmbiguousBlockError, DecodeError, StreamError
from qbalance.oracle import definitional_gamma
from qbalance.scheme_c import (
    StreamEncoding,
    StreamFrame,
    build_balanced_code,
    correct_block,
    decode_c,
    encode_c,
    flip_c,
    gamma_count_fullspace,
    gamma_set_c,
    gamma_size_c,
    pack_stream,
    rho_c_fullspace,
    stream_decode,
    stream_encode,
    t_c,
    unpack_stream,
)
from qbalance.words import BitWord, all_words, cyclic_shift, weight

SIMPLEX_ENCODINGS = [
    # message, codeword, tau, balanced block, |Gamma|, prefix
    ("000", "0000000", 0, "11110000", 1, ""),
    ("101", "1011100", 1, "10101100", 4, "01"),
    ("010", "0101110", 0, "10101100", 4, "00"),
    ("001", "0010111", 1, "01100110", 2, "1"),
    ("100", "1001011", 0, "01100110", 2, "0"),
    ("110", "1100101", 0, "00111010", 1, ""),
    ("111", "1110010", 3, "10101100", 4, "11"),
    ("011", "0111001", 2, "10101100", 4, "10"),
]

SIMPLEX_BOOK = {"11110000", "10101100", "01100110", "00111010"}


def W(s):
    return BitWord.from_str(s)


class TestFlipC:
    def test_first_half_complemented(self):
        assert flip_c(W("1011100")) == W("0100100")

    def test_involutive(self):
        for v in range(0, 128, 7):
            w = BitWord(v, 7)
            assert flip_c(flip_c(w)) == w

    def test_after_shift(self):
        assert flip_c(cyclic_shift(W("1011100"), 1)) == W("1010110")

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            flip_c(W("101110"))


class TestTc:
    def test_shift_index_of_simplex_word(self):
        assert t_c(W("1011100"))[0] == 1

    def test_zero_word(self):
        assert t_c(W("0000000"))[0] == 0

    @pytest.mark.parametrize("length", [7, 9, 11])
    def test_min_shift_below_half(self, length):
        m = (length + 1) // 2
        for w in all_words(length):
            ts = t_c(w)
            assert ts and ts[0] <= m - 1


class TestGammaC:
    def test_sizes_from_worked_example(self):
        assert gamma_size_c(W("1010110")) == 4
        assert gamma_size_c(W("0110011")) == 2
        assert gamma_size_c(W("1111000")) == 1

    def test_set_is_contiguous_range(self):
        assert gamma_set_c(W("1010110")) == [0, 1, 2, 3]

    @pytest.mark.parametrize("length", [7, 9, 11, 13, 15])
    def test_contiguity_exhaustive(self, length):
        m = (length + 1) // 2
        for w in all_words(length):
            if weight(w) in (m - 1, m):
                size = gamma_size_c(w)
                assert gamma_set_c(w) == list(range(size))

    def test_wrong_weight(self):
        with pytest.raises(ValueError):
            gamma_size_c(W("1111100"))

    def test_matches_definitional_gamma_fullspace(self):
        m = 4
        for w in all_words(7):
            if weight(w) in (m - 1, m):
                assert gamma_set_c(w) == definitional_gamma("c", w)

    @pytest.mark.parametrize("fixture", ["simplex", "hamming"])
    def test_matches_definitional_gamma_under_code(self, fixture, request):
        code = request.getfixturevalue(fixture)
        seen = {encode_c(code, x).codeword.prefix(7) for x in codewords(code)}
        for c in seen:
            assert gamma_set_c(c) == definitional_gamma("c", c, code=code)


class TestEncodeDecodeC:
    def test_simplex_encoding_table(self, simplex):
        for msg, cw, tau, block, size, prefix in SIMPLEX_ENCODINGS:
            x = encode_systematic(simplex, W(msg))
            assert x == W(cw)
            res = encode_c(simplex, x)
            assert (str(res.codeword), res.tau, str(res.prefix)) == (block, tau, prefix)
            assert gamma_size_c(res.codeword.prefix(7)) == size

    def test_decode_with_shift_two(self, simplex):
        assert decode_c(simplex, W("10101100"), W("10")) == W("0111001")

    def test_non_codeword_rejected(self, simplex):
        with pytest.raises(ValueError):
            encode_c(simplex, W("1111111"))

    def test_decode_rejects_out_of_range_shift(self, simplex):
        # 1100100 has |Gamma| = 3, so the 2-bit field value 3 is unused
        assert gamma_size_c(W("1100100")) == 3
        with pytest.raises(DecodeError):
            decode_c(simplex, W("11001001"), W("11"))

    def test_decode_rejects_bad_balance_bit(self, simplex):
        with pytest.raises(DecodeError):
            decode_c(simplex, W("11110001"), W(""))

    def test_roundtrip_all_codewords(self, simplex, hamming, hamming15):
        for code in (simplex, hamming, hamming15):
            for x in codewords(code):
                res = encode_c(code, x)
                assert weight(res.codeword) == (code.n + 1) // 2
                assert decode_c(code, res.codeword, res.prefix) == x

    def test_pair_is_injective(self, hamming15):
        seen = {
            (res.codeword, res.prefix)
            for res in (encode_c(hamming15, x) for x in codewords(hamming15))
        }
        assert len(seen) == 1 << hamming15.k


class TestBalancedBook:
    def test_simplex_book_contents(self, simplex):
        book = build_balanced_code(simplex)
        assert {str(b) for b in book} == SIMPLEX_BOOK

    def test_simplex_distance_exactly_four(self, simplex):
        book = build_balanced_code(simplex)
        dists = [
            bin(a.value ^ b.value).count("1")
            for i, a in enumerate(book)
            for b in book[i + 1 :]
        ]
        assert min(dists) == 4

    def test_hamming_book(self, hamming):
        book = build_balanced_code(hamming)
        assert len(book) == 8  # gamma totals 4 + 2 + 2
        dists = [
            bin(a.value ^ b.value).count("1")
            for i, a in enumerate(book)
            for b in book[i + 1 :]
        ]
        assert min(dists) >= 4  # 2 * ceil(3/2)

    def test_size_lower_bound(self, simplex, hamming, hamming15):
        for code in (simplex, hamming, hamming15):
            assert len(build_balanced_code(code)) >= 2**code.k / (code.n + 1)

    def test_all_balanced(self, hamming15):
        m = (hamming15.n + 1) // 2
        assert all(weight(b) == m for b in build_balanced_code(hamming15))

    @pytest.mark.parametrize(
        "n,generator",
        [
            (7, [1, 0, 1, 1, 1]),  # [7,3] simplex
            (7, [1, 1, 0, 1]),  # [7,4] Hamming
            (15, [1, 0, 0, 0, 1, 0, 1, 1, 1]),  # [15,7] BCH
            (23, [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]),  # [23,12] Golay
            (7, None),
            (9, None),
            (11, None),
            (13, None),
        ],
    )
    def test_book_is_every_encoder_output(self, n, generator):
        code = full_space(n) if generator is None else from_generator(n, poly_from_coeffs(generator))
        book = build_balanced_code(code)
        encoded = {encode_c(code, x).codeword for x in codewords(code)}
        assert set(book) == encoded and len(book) == len(encoded)
        assert list(book) == sorted(book, key=lambda w: w.value)


class TestFullspaceDistribution:
    def test_n8_values(self):
        assert [gamma_count_fullspace(i, 8) for i in range(1, 5)] == [40, 12, 8, 10]

    def test_total(self):
        assert sum(gamma_count_fullspace(i, 8) for i in range(1, 5)) == math.comb(
            7, 3
        ) + math.comb(7, 4)

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_matches_exhaustive_histogram(self, n):
        m = n // 2
        hist = {}
        for w in all_words(n - 1):
            if weight(w) in (m - 1, m):
                size = gamma_size_c(w)
                hist[size] = hist.get(size, 0) + 1
        formula = {
            i: gamma_count_fullspace(i, n)
            for i in range(1, m + 1)
            if gamma_count_fullspace(i, n)
        }
        assert hist == formula

    def test_rho_table_values(self):
        assert rho_c_fullspace(16) == pytest.approx(2.81, abs=0.01)
        assert rho_c_fullspace(8) == pytest.approx(2.11, abs=0.02)

    def test_rho_growth_band(self):
        ratios = [rho_c_fullspace(n) / math.log2(n) for n in (128, 256, 512, 1024, 2048)]
        assert all(0.7 <= r <= 1.0 for r in ratios)
        assert ratios == sorted(ratios)


class TestCorrectBlock:
    def test_identity(self, simplex):
        assert correct_block(simplex, W("10101100")) == W("10101100")

    def test_single_error(self, simplex):
        received = BitWord(W("10101100").value ^ (1 << 5), 8)
        assert correct_block(simplex, received) == W("10101100")

    def test_double_error_tie_detected(self, simplex):
        # two flips land exactly between 11110000 and 00111010
        with pytest.raises(AmbiguousBlockError):
            correct_block(simplex, W("00110000"))

    def test_wrong_length(self, simplex):
        with pytest.raises(ValueError):
            correct_block(simplex, W("1010110"))


class TestStream:
    def test_three_frame_walkthrough(self, simplex):
        enc = stream_encode(simplex, W("0001011"))
        assert [str(f.codeword) for f in enc.frames[:3]] == [
            "11110000",
            "10101100",
            "10101100",
        ]
        assert enc.payload_frames == 3
        assert stream_decode(simplex, enc) == W("0001011")

    def test_empty_stream(self, simplex):
        enc = stream_encode(simplex, W(""))
        assert enc.frames == ()
        assert stream_decode(simplex, enc) == W("")

    def test_payload_not_multiple_of_packet(self, simplex):
        payload = W("10110")
        enc = stream_encode(simplex, payload)
        assert stream_decode(simplex, enc) == payload

    def test_random_roundtrip_long(self, simplex):
        rng = random.Random(20240917)
        payload = BitWord(rng.getrandbits(10_000), 10_000)
        enc = stream_encode(simplex, payload)
        assert stream_decode(simplex, enc) == payload

    def test_single_error_per_frame_roundtrips(self, simplex):
        rng = random.Random(5)
        for trial in range(50):
            nbits = rng.randrange(1, 64)
            payload = BitWord(rng.getrandbits(nbits), nbits)
            enc = stream_encode(simplex, payload)
            frames = tuple(
                StreamFrame(
                    payload=f.payload,
                    codeword=BitWord(f.codeword.value ^ (1 << rng.randrange(8)), 8),
                    prefix=f.prefix,
                )
                for f in enc.frames
            )
            corrupted = StreamEncoding(
                frames=frames,
                payload_frames=enc.payload_frames,
                final_pad=enc.final_pad,
                n=enc.n,
            )
            assert stream_decode(simplex, corrupted) == payload, trial

    def test_works_over_hamming15(self, hamming15):
        rng = random.Random(11)
        payload = BitWord(rng.getrandbits(300), 300)
        enc = stream_encode(hamming15, payload)
        assert stream_decode(hamming15, enc) == payload

    def test_container_roundtrip(self, simplex):
        enc = stream_encode(simplex, W("0001011"))
        enc2 = unpack_stream(pack_stream(enc))
        assert [f.codeword for f in enc2.frames] == [f.codeword for f in enc.frames]
        assert (enc2.payload_frames, enc2.final_pad, enc2.n) == (
            enc.payload_frames,
            enc.final_pad,
            enc.n,
        )
        assert stream_decode(simplex, enc2) == W("0001011")

    def test_truncated_container(self, simplex):
        blob = pack_stream(stream_encode(simplex, W("0001011")))
        with pytest.raises(StreamError):
            unpack_stream(blob[:-1])
        with pytest.raises(StreamError):
            unpack_stream(b"XXXX" + blob[4:])
