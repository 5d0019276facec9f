import dataclasses
import itertools
import json
import math
import random
import re
import time
from functools import lru_cache
from pathlib import Path

import pytest

from qbalance import cli, scheme_c
from qbalance.cyclic_code import (
    codewords,
    contains,
    from_generator,
    full_space,
    parse_code_file,
    poly_from_coeffs,
    xor_bytes,
)
from qbalance.errors import AmbiguousBlockError, CapacityError, CodingError, DecodeError, StreamError
from qbalance.oracle import definitional_gamma
from qbalance.scheme_a import EncodeResult, histogram_sum, rank_width, rho_parts
from qbalance.scheme_c import (
    StreamEncoding,
    StreamFrame,
    balancing_shifts,
    build_balanced_code,
    correct_block,
    decode_c,
    encode_c,
    flip_c,
    gamma_counts_fullspace,
    gamma_size_c,
    pack_stream,
    rho_c_fullspace,
    rho_c_parts,
    stream_decode,
    stream_encode,
    unpack_stream,
)
from qbalance.words import BitWord, all_words, cyclic_shift, flip_prefix, weight

from fresh_process import run_fresh

# prints rho_C at the float guard and the seconds it took, then the error past it
RHO_C_EDGE = """\
import time
from qbalance.errors import CapacityError
from qbalance.scheme_a import RHO_MAX_N
from qbalance.scheme_c import rho_c_fullspace
start = time.perf_counter()
print(repr(rho_c_fullspace(RHO_MAX_N)), time.perf_counter() - start)
for n in (RHO_MAX_N + 2, 1 << 26, 1 << 40):
    try:
        rho_c_fullspace(n)
    except CapacityError as exc:
        print(exc)
"""

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


# QBS2 header copy: n (2 bytes), total frames (4), payload frames (4), final pad (2), CRC-32 (4).
HEADER_COPY_BYTES = 16


def W(s):
    return BitWord.from_str(s)


@pytest.fixture(scope="module")
def bch15():
    """[15,7,5] BCH code generated by 1 + X^4 + X^6 + X^7 + X^8."""
    return from_generator(15, poly_from_coeffs([1, 0, 0, 0, 1, 0, 1, 1, 1]))


@pytest.fixture(scope="module")
def full9():
    """The [9,9] full space: 10-bit blocks, so each block byte pair carries 6 unused bits."""
    return full_space(9)


def own_copy(code):
    """A new object of the same code, whose stream memos start empty: a test
    that counts the work of a stream call must not read a session fixture's
    memo, which earlier tests have filled."""
    return from_generator(code.n, code.generator)


def encodable_payloads(code, count, seed=8):
    """`count` seeded random payloads whose flush closes, with their encodings."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        nbits = rng.randrange(1, 120)
        payload = BitWord(rng.getrandbits(nbits), nbits)
        try:
            out.append((payload, stream_encode(code, payload)))
        except CodingError:
            continue
    return out


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
        assert next(balancing_shifts(W("1011100"))) == 1

    def test_zero_word(self):
        assert next(balancing_shifts(W("0000000"))) == 0

    @pytest.mark.parametrize("length", [7, 9, 11])
    def test_min_shift_below_half(self, length):
        m = (length + 1) // 2
        for w in all_words(length):
            tau = next(balancing_shifts(w), None)
            assert tau is not None and tau <= m - 1


class TestGammaC:
    def test_sizes_from_worked_example(self):
        assert gamma_size_c(W("1010110")) == 4
        assert gamma_size_c(W("0110011")) == 2
        assert gamma_size_c(W("1111000")) == 1

    def test_set_is_contiguous_range(self):
        assert list(range(gamma_size_c(W("1010110")))) == [0, 1, 2, 3]

    @pytest.mark.parametrize("length", [7, 9, 11, 13, 15])
    def test_contiguity_exhaustive(self, length):
        # every shift below |Gamma(c)| is one the encoder emits with block c
        m = (length + 1) // 2
        space = full_space(length)
        for w in all_words(length):
            if weight(w) in (m - 1, m):
                for tau in range(gamma_size_c(w)):
                    res = encode_c(space, cyclic_shift(flip_c(w), -tau))
                    assert res.tau == tau and res.codeword.prefix(length) == w

    def test_wrong_weight(self):
        with pytest.raises(ValueError):
            gamma_size_c(W("1111100"))

    @pytest.mark.parametrize("m", range(1, 9))
    def test_pair_table_every_word(self, m):
        # every weight, not only m-1 and m: only a word that ends its m-1
        # pairs at a sum of 2 or more can hit zero in the fill pairs
        n = 2 * m - 1
        for c in range(1 << n):
            assert scheme_c._gamma_size(c, m) == _gamma_size_per_bit(c, m), format(c, f"0{n}b")

    @pytest.mark.parametrize("m", [12, 16, 64, 2048])
    def test_pair_table_seeded_words(self, m):
        rng = random.Random(m)
        n = 2 * m - 1
        for _ in range(2000):
            c, wt = rng.getrandbits(n), rng.choice((m - 1, m))
            while c.bit_count() < wt:
                c |= 1 << rng.randrange(n)
            while c.bit_count() > wt:
                c &= ~(1 << rng.randrange(n))
            assert scheme_c._gamma_size(c, m) == _gamma_size_per_bit(c, m), hex(c)

    def test_matches_definitional_gamma_fullspace(self):
        m = 4
        for w in all_words(7):
            if weight(w) in (m - 1, m):
                assert list(range(gamma_size_c(w))) == definitional_gamma("c", w)

    @pytest.mark.parametrize("fixture", ["simplex", "hamming"])
    def test_matches_definitional_gamma_under_code(self, fixture, request):
        code = request.getfixturevalue(fixture)
        seen = {encode_c(code, x).codeword.prefix(7) for x in codewords(code)}
        for c in seen:
            assert list(range(gamma_size_c(c))) == definitional_gamma("c", c, code=code)


class TestEncodeDecodeC:
    def test_simplex_encoding_table(self, simplex):
        for msg, cw, tau, block, size, prefix in SIMPLEX_ENCODINGS:
            x = _systematic(simplex, int(msg, 2))
            assert x == W(cw)
            res = encode_c(simplex, x)
            assert (str(res.codeword), res.tau, str(res.prefix)) == (block, tau, prefix)
            assert gamma_size_c(res.codeword.prefix(7)) == size

    def test_decode_with_shift_two(self, simplex):
        assert decode_c(simplex, W("10101100"), W("10")) == W("0111001")

    def test_non_codeword_rejected(self, simplex):
        with pytest.raises(ValueError, match="^1111111 is not a codeword$"):
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

    def test_bch31_book_against_the_trellis(self):
        """All 2^21 codewords walked one byte row at a time; the digest is of the
        sorted 32-bit blocks.  In a fresh process, so that build_balanced_code's
        lru_cache does not keep the 73 MB book in this one."""
        code = (
            "import hashlib, json, sys\n"
            "from qbalance import trellis\n"
            "from qbalance.cyclic_code import parse_code_file\n"
            "from qbalance.scheme_c import build_balanced_code\n"
            "code = parse_code_file(open(sys.argv[1]).read())\n"
            "blocks = build_balanced_code(code)\n"
            "digest = hashlib.sha256(b''.join(b.value.to_bytes(4, 'big') for b in blocks)).hexdigest()\n"
            "print(json.dumps([len(blocks), trellis.build_and_count(code).codebook_size, digest]))\n"
        )
        path = Path(__file__).resolve().parent.parent / "perfbench" / "codes" / "bch31.code"
        assert json.loads(run_fresh(code, str(path), timeout=20).out) == [
            586848,
            586848,
            "d5527f839d96727c0d175c60ca2fc24d1fc533c69b42ee3397fd4d35646f7b87",
        ]


@lru_cache(maxsize=1)
def _central_and_catalan(size):
    """C(2r, r) and Cat(r) = C(2r, r)/(r+1), r < size, as exact ints."""
    central = [1]
    for r in range(size - 1):
        central.append(central[r] * 2 * (2 * r + 1) // (r + 1))
    return central, [c // (r + 1) for r, c in enumerate(central)]


class TestFullspaceDistribution:
    def test_n8_values(self):
        assert gamma_counts_fullspace(8) == {1: 40, 2: 12, 3: 8, 4: 10}

    def test_total(self):
        assert sum(gamma_counts_fullspace(8).values()) == math.comb(
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
        assert hist == gamma_counts_fullspace(n)

    @pytest.mark.parametrize("ns", [range(2, 401, 2), [4096]], ids=["even-n-to-400", "4096"])
    def test_matches_closed_form(self, ns):
        # 2 Cat(i-1) C(2m-2i, m-i), each binomial from math.comb
        for n in ns:
            m = n // 2
            want = {i: 2 * (math.comb(2 * i - 2, i - 1) // i) * math.comb(2 * m - 2 * i, m - i) for i in range(1, m + 1)}
            assert list(gamma_counts_fullspace(n).items()) == list(want.items()), n

    @pytest.mark.parametrize("block", range(8))
    def test_float_shares_match_exact(self, block):
        # rho_c_parts sums float shares; every even n <= 4096, 256 per block, against
        # gamma_counts_fullspace's 2 Cat(i-1) C(2m-2i, m-i) from one list of each
        central, catalan = _central_and_catalan(2048)
        top = 512 * block + 512
        assert {i: 2 * catalan[i - 1] * central[top // 2 - i] for i in range(1, top // 2 + 1)} == gamma_counts_fullspace(top)
        for n in range(top - 510, top + 1, 2):
            m = n // 2
            exact = {i: 2 * catalan[i - 1] * central[m - i] for i in range(1, m + 1)}
            for got, want in zip(rho_c_parts(n), rho_parts(1, histogram_sum(exact.items(), n - 1))):
                assert got["good"] == pytest.approx(want["good"], rel=1e-12, abs=0), n

    @pytest.mark.parametrize("n", [0, 1, -4])
    def test_block_length_below_two(self, n):
        for call in (lambda: rho_c_fullspace(n), lambda: gamma_counts_fullspace(n)):
            with pytest.raises(ValueError, match=f"n={n} must be at least 2"):
                call()

    def test_rho_guard_at_its_edge_under_1_gb(self):
        """rho_C holds n/4 floats, half its row: 3.7 s and 176 MB at the float
        guard, 2^24, and a clean error past it."""
        child = run_fresh(RHO_C_EDGE, timeout=60, as_limit_kib=1 << 20)
        edge, *past = child.out.splitlines()
        value, seconds = edge.split()
        assert float(value) == 22.000869952452383 and float(seconds) < 10
        assert past == [f"n={n} exceeds the float rho guard 16777216" for n in (2**24 + 2, 2**26, 2**40)]
        assert child.peak_kib < 256 * 1024

    def test_rho_at_2_22_holds_half_a_row(self):
        """rho_C keeps half its row, n/4 floats: 0.9 s and 56 MB at 2^22 in a
        fresh process."""
        child = run_fresh("from qbalance.scheme_c import rho_c_fullspace\nprint(repr(rho_c_fullspace(1 << 22)))\n", timeout=60)
        assert float(child.out) == 20.001739732996977
        assert child.peak_kib < 64 * 1024

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
                StreamFrame(codeword=BitWord(f.codeword.value ^ (1 << rng.randrange(8)), 8))
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

    def test_decode_error_names_frame(self, simplex):
        enc = stream_encode(simplex, W("0001011"))
        frames = list(enc.frames)
        frames[1] = dataclasses.replace(frames[1], codeword=W("00110000"))  # equidistant from two C* words
        with pytest.raises(AmbiguousBlockError, match="^frame 1: "):
            stream_decode(simplex, dataclasses.replace(enc, frames=tuple(frames)))

    def test_foreign_block_names_frame(self, bch15):
        """A C* block in place of frame 1 decodes cleanly on its own, but the
        shift index frame 2 carries for it is out of its |Gamma| = 3."""
        enc = stream_encode(bch15, W("1" * 20))
        frames = list(enc.frames)
        frames[1] = StreamFrame(codeword=W("0111110000111000"))
        assert frames[1].codeword in build_balanced_code(bch15)
        with pytest.raises(StreamError, match="^frame 1: shift index 3 out of range$"):
            stream_decode(bch15, dataclasses.replace(enc, frames=tuple(frames)))

    def test_code_too_small_for_its_prefix(self):
        repetition7 = from_generator(7, (1 << 7) - 1)  # k = 1, and |Gamma| up to 4 needs 2 bits
        with pytest.raises(CodingError, match="^prefix can exceed packet size for k=1; code too small$"):
            stream_encode(repetition7, W("1"))

    def test_encode_reads_no_syndrome(self, golay23, monkeypatch):
        """The stream builds each codeword from the byte table, so it reads no
        syndrome of it; encode_c, which takes its word from outside, does."""
        code, reads = own_copy(golay23), []

        def counting(rows, value, width):
            reads.append(rows is code.syndrome_rows)
            return xor_bytes(rows, value, width)

        monkeypatch.setattr(scheme_c, "xor_bytes", counting)
        payload = BitWord(random.Random(23).getrandbits(500), 500)
        enc = stream_encode(code, payload)
        assert reads and not any(reads)
        encode_c(code, _systematic(code, 1))
        assert reads[-1] is True
        monkeypatch.undo()
        assert stream_decode(code, enc) == payload

    def test_flush_cycle_stops_at_repeated_carry(self, bch15):
        """A pad frame depends only on the prefix it carries, so a cycling flush
        stops within the 2^(w+1) - 2 nonempty prefixes of at most w bits."""
        rng = random.Random(3)
        for _ in range(50):
            payload = BitWord(rng.getrandbits(64), 64)
            try:
                stream_encode(bch15, payload)
            except CodingError as exc:
                error = str(exc)
                break
        else:
            pytest.fail("no payload hit the flush cycle")
        pads = re.fullmatch(r"stream flush cycles: carried prefix [01]+ repeats after (\d+) pad frames", error)
        assert pads, error
        w = rank_width(8)
        assert 0 < int(pads.group(1)) <= 2 ** (w + 1) - 2
        assert result(_stream_encode_reference, bch15, payload) == (CodingError, error)


class TestContainer:
    @pytest.mark.parametrize("name", ["simplex", "bch15"])
    def test_flips_before_first_block(self, request, name):
        """A flip in either header copy decodes; only a flip in the magic is an error."""
        code = request.getfixturevalue(name)
        header_bits = 8 * (4 + 2 * HEADER_COPY_BYTES)
        for payload, enc in encodable_payloads(code, 3):
            blob = pack_stream(enc)
            value = int.from_bytes(blob, "big")
            for bit in range(header_bits):
                damaged = (value ^ (1 << (8 * len(blob) - 1 - bit))).to_bytes(len(blob), "big")
                try:
                    out = stream_decode(code, unpack_stream(damaged))
                except StreamError:
                    assert bit < 32, bit
                else:
                    assert out == payload, bit

    @pytest.mark.parametrize("name", ["simplex", "bch15", "full9"])
    def test_size_is_header_plus_fixed_blocks(self, request, name):
        code = request.getfixturevalue(name)
        for payload, enc in encodable_payloads(code, 3):
            blob = pack_stream(enc)
            assert len(blob) == 4 + 2 * HEADER_COPY_BYTES + len(enc.frames) * -(-enc.n // 8)
            assert [f.codeword for f in unpack_stream(blob).frames] == [f.codeword for f in enc.frames]
            assert stream_decode(code, unpack_stream(blob)) == payload

    @pytest.mark.parametrize("name", ["simplex", "bch15", "golay23"])
    def test_roundtrip_is_lossless(self, request, name):
        code = request.getfixturevalue(name)
        for _, enc in encodable_payloads(code, 3):
            assert unpack_stream(pack_stream(enc)) == enc

    def test_container_of_another_code(self, simplex, bch15):
        (payload, enc), = encodable_payloads(bch15, 1)
        with pytest.raises(StreamError, match="16 != code block length 8"):
            stream_decode(simplex, unpack_stream(pack_stream(enc)))

    def test_rejects_inconsistent_header(self, simplex):
        enc = stream_encode(simplex, W("0001011"))
        blob = pack_stream(enc)
        with pytest.raises(StreamError, match="body"):
            unpack_stream(blob + b"\0")
        for n in (0, 7):
            with pytest.raises(StreamError, match=f"header block length {n} "):
                unpack_stream(pack_stream(dataclasses.replace(enc, n=n, frames=())))
        with pytest.raises(ValueError):
            pack_stream(dataclasses.replace(enc, n=16))

    @pytest.mark.parametrize("fields", [{"payload_frames": 3}, {"final_pad": 5}, {"payload_frames": 3, "final_pad": 5}])
    def test_rejects_header_fields_without_frames(self, golay23, fields):
        """A container with no frames carries no payload frame and no fill."""
        enc = dataclasses.replace(stream_encode(golay23, W("")), **fields)
        received = unpack_stream(pack_stream(enc))
        assert received == enc
        want = f"^header payload_frames {enc.payload_frames}, final_pad {enc.final_pad} with no frames$"
        with pytest.raises(StreamError, match=want):
            stream_decode(golay23, received)

    @pytest.mark.parametrize(
        "payload,room",  # room: fresh bits of the last payload frame, k minus the prefix it carries
        [("0" * 5, 12), ("0" * 30, 12), ("1" + "0" * 24, 8)],
        ids=["one-payload-frame", "empty-carry", "4-bit-carry"],
    )
    def test_rejects_final_pad_past_the_fresh_bits(self, golay23, payload, room):
        """A final_pad covering all fresh bits of the last payload frame would
        drop zero payload bits silently; one less is a shorter payload's header."""
        enc = stream_encode(golay23, W(payload))
        for pad in (room, room + 1, 1000):
            blob = pack_stream(dataclasses.replace(enc, final_pad=pad))
            with pytest.raises(StreamError, match=f"^header final_pad {pad} >= {room} "):
                stream_decode(golay23, unpack_stream(blob))
        shorter = payload[: len(payload) - (room - 1 - enc.final_pad)]
        assert stream_decode(golay23, dataclasses.replace(enc, final_pad=room - 1)) == W(shorter)


# ---------------------------------------------------------------------------
# References: the BitWord bodies of the Scheme C codec, and the plain C* scan.


def _shifts_reference(x):
    m = (x.length + 1) // 2
    return (j for j in range(x.length + 1) if weight(flip_prefix(cyclic_shift(x, j), m)) in (m - 1, m))


def _gamma_size_per_bit(c, m):
    """|Gamma| of the (2m-1)-bit int c, one bit pair (i, i+m) at a time."""
    run = 0
    for i in range(1, m):
        run += (c >> (2 * m - 1 - i) & 1) + (c >> (m - 1 - i) & 1) - 1
        if not run:
            return i
    return m


def _systematic(code, v):
    """The codeword whose first k positions are the k-bit message v."""
    return BitWord(xor_bytes(code.encode_rows, v, code.k), code.n)


def _balance_bit_reference(c):
    return BitWord(c.value << 1 | (weight(c) == (c.length + 1) // 2 - 1), c.length + 1)


def _encode_c_reference(code, x):
    if x.length != code.n:
        raise ValueError(f"word length {x.length} != code length {code.n}")
    if not contains(code, x):
        raise ValueError(f"{x} is not a codeword")
    tau = next(_shifts_reference(x))
    c = flip_c(cyclic_shift(x, tau))
    cprime = _balance_bit_reference(c)
    r = rank_width(gamma_size_c(c))
    prefix = BitWord.from_str(format(tau, f"0{r}b") if r else "")
    return EncodeResult(codeword=cprime, prefix=prefix, classification=None, tau=tau)


def _decode_c_reference(code, cprime, p):
    if cprime.length != code.n + 1:
        raise ValueError(f"block length {cprime.length} != {code.n + 1}")
    m = (code.n + 1) // 2
    c = cprime.prefix(code.n)
    wt = weight(c)
    if wt not in (m - 1, m):
        raise DecodeError(f"stripped block weight {wt} outside {{{m - 1}, {m}}}")
    if cprime.value & 1 != (1 if wt == m - 1 else 0):
        raise DecodeError("appended balance bit inconsistent with block weight")
    size = gamma_size_c(c)
    r = rank_width(size)
    if p.length != r:
        raise DecodeError(f"prefix length {p.length} != expected {r}")
    tau = p.value
    if tau >= size:
        raise DecodeError(f"shift index {tau} out of range for |Gamma|={size}")
    x = cyclic_shift(flip_c(c), -tau)
    if not contains(code, x):
        raise DecodeError("recovered word is not a codeword")
    return x


def _packet_reference(code, c, tau):
    """The k-bit packet, as a bit string, of the block c decoded with shift index tau."""
    return str(cyclic_shift(flip_c(c), -tau).prefix(code.k))


def _tail_candidates_reference(code, c, fill):
    packets = (_packet_reference(code, c, tau) for tau in range(gamma_size_c(c)))
    return [tau for tau, packet in enumerate(packets) if not packet[code.k - fill :].strip("0")]


def _stream_encode_reference(code, payload):
    """stream_encode on bit strings, one encode_c reference call per frame."""
    k = code.k
    if rank_width((code.n + 1) // 2) > k:
        raise CodingError(f"prefix can exceed packet size for k={k}; code too small")
    bits = str(payload)
    frames = []
    payload_frames = final_pad = pos = 0
    carry = BitWord(0, 0)
    flushed = set()
    while pos < len(bits) or (frames and carry):
        pad = pos >= len(bits)
        if pad:
            if carry in flushed:
                raise CodingError(
                    f"stream flush cycles: carried prefix {carry} repeats after {len(flushed)} pad frames"
                )
            flushed.add(carry)
        take = bits[pos : pos + k - carry.length]
        pos += len(take)
        fill = k - carry.length - len(take)
        res = _encode_c_reference(code, _systematic(code, int(str(carry) + take + "0" * fill, 2)))
        frames.append(StreamFrame(codeword=res.codeword))
        carry = res.prefix
        if not pad:
            payload_frames, final_pad = len(frames), fill
        elif len(_tail_candidates_reference(code, res.codeword.prefix(code.n), fill)) == 1:
            carry = BitWord(0, 0)
    return StreamEncoding(frames=tuple(frames), payload_frames=payload_frames, final_pad=final_pad, n=code.n + 1)


def _in_book_reference(code, cw):
    """Balanced, with its balance bit, and a codeword once flipped back."""
    c, m = cw.prefix(code.n), (code.n + 1) // 2
    return weight(c) in (m - 1, m) and _balance_bit_reference(c) == cw and contains(code, flip_c(c))


def _stream_decode_reference(code, enc):
    """stream_decode on bit strings: packets and payload are assembled as text."""
    n, k = code.n, code.k
    if enc.n != n + 1:
        raise StreamError(f"container block length {enc.n} != code block length {n + 1}")
    if not enc.frames:
        if enc.payload_frames or enc.final_pad:
            raise StreamError(f"header payload_frames {enc.payload_frames}, final_pad {enc.final_pad} with no frames")
        return BitWord(0, 0)
    stripped = []
    for t, frame in enumerate(enc.frames):
        cw = frame.codeword
        if cw.length != n + 1:
            raise ValueError(f"frame {t}: block length {cw.length} != {n + 1}")
        if not _in_book_reference(code, cw):
            try:
                cw = correct_block(code, cw)
            except DecodeError as exc:
                raise type(exc)(f"frame {t}: {exc}") from exc
        stripped.append(cw.prefix(n))
    total = len(stripped)
    if enc.payload_frames > total or enc.payload_frames < 1:
        raise StreamError("payload frame count inconsistent with container")
    sizes = [gamma_size_c(c) for c in stripped]
    widths = [rank_width(size) for size in sizes]
    room = k - (widths[enc.payload_frames - 2] if enc.payload_frames > 1 else 0)
    if enc.final_pad >= room:
        raise StreamError(f"header final_pad {enc.final_pad} >= {room} fresh bits of the last payload frame")
    packets = [""] * total
    last = total - 1
    if total == enc.payload_frames:
        if widths[last] != 0:
            raise StreamError(f"terminal frame {last} carries an unrecoverable prefix")
        tau = 0
    else:
        cands = _tail_candidates_reference(code, stripped[last], k - widths[last - 1])
        if len(cands) != 1:
            raise StreamError(f"terminal frame {last} is ambiguous ({len(cands)} candidates)")
        tau = cands[0]
    packets[last] = _packet_reference(code, stripped[last], tau)
    for t in range(last - 1, -1, -1):
        tau = int(packets[t + 1][: widths[t]] or "0", 2)
        if tau >= sizes[t]:
            raise StreamError(f"frame {t}: shift index {tau} out of range")
        packets[t] = _packet_reference(code, stripped[t], tau)
    out = "".join(packets[t][widths[t - 1] if t else 0 :] for t in range(enc.payload_frames))
    body, fill = out[: len(out) - enc.final_pad], out[len(out) - enc.final_pad :]
    if fill.strip("0"):
        raise StreamError("payload fill bits are not zero")
    return W(body)


@lru_cache(maxsize=None)
def _book_reference(code):
    """C* as the reference encoder's distinct outputs, sorted."""
    return tuple(sorted({_encode_c_reference(code, x).codeword for x in codewords(code)}, key=lambda w: w.value))


def _nearest_by_scan(code, received, book=None):
    """Complete decoding by a lexicographic scan of C*, or of the given
    words of C* when they hold every word as near as the nearest."""
    book = _book_reference(code) if book is None else book
    if received.length != code.n + 1:
        raise ValueError(f"block length {received.length} != {code.n + 1}")
    best = None
    best_dist = received.length + 1
    ties = 0
    for cw in book:
        dist = (cw.value ^ received.value).bit_count()
        if dist < best_dist:
            best, best_dist, ties = cw, dist, 1
        elif dist == best_dist:
            ties += 1
    if ties > 1:
        raise AmbiguousBlockError(f"{ties} codebook words at distance {best_dist} from {received}")
    return best


def outcome(call, *args):
    """The value returned, or the class of the exception raised."""
    try:
        return call(*args)
    except (ValueError, CodingError) as exc:
        return type(exc)


def result(call, *args):
    """The value returned, or the class and text of the exception raised."""
    try:
        return call(*args)
    except (ValueError, CodingError) as exc:
        return type(exc), str(exc)


def seeded_blocks(code, count, seed):
    """C* blocks of `count` seeded random codewords, from encode_c."""
    rng = random.Random(seed)
    return [encode_c(code, _systematic(code, rng.getrandbits(code.k))).codeword for _ in range(count)]


def with_errors(block, positions):
    value = block.value
    for p in positions:
        value ^= 1 << p
    return BitWord(value, block.length)


REFERENCE_CODES = ["simplex", "hamming", "bch15"]


class TestAgainstReferences:
    @pytest.mark.parametrize("fixture", REFERENCE_CODES)
    def test_correct_block_every_received_word(self, fixture, request):
        code = request.getfixturevalue(fixture)
        outcomes = {}
        for y in all_words(code.n + 1):
            got = outcome(correct_block, code, y)
            assert got == outcome(_nearest_by_scan, code, y), y
            outcomes[y] = got
        if fixture == "simplex":
            assert outcomes[W("00110000")] is AmbiguousBlockError

    def test_correct_block_golay_within_three_errors(self, golay23):
        blocks = seeded_blocks(golay23, 32, seed=23)
        for block in blocks:
            # A C* word c can be at least as near as block to y = block ^ e, wt(e) <= 3, only
            # if d(c, block) <= d(c, y) + d(y, block) <= 6, so the scan needs no other word.
            near = [cw for cw in _book_reference(golay23) if (cw.value ^ block.value).bit_count() <= 6]
            for w in range(4):
                for positions in itertools.combinations(range(24), w):
                    y = with_errors(block, positions)
                    assert correct_block(golay23, y) == _nearest_by_scan(golay23, y, near) == block, (block, positions)

    @pytest.mark.parametrize("fixture", REFERENCE_CODES)
    def test_decode_c_every_received_word(self, fixture, request):
        # Every prefix of width 0..3 on a block of balanced weight with its
        # balance bit; both bodies reject the other blocks before the prefix.
        code = request.getfixturevalue(fixture)
        m = (code.n + 1) // 2
        prefixes = [BitWord(v, r) for r in range(4) for v in range(1 << r)]
        for y in all_words(code.n + 1):
            c = y.prefix(code.n)
            clean = weight(c) in (m - 1, m) and y.value & 1 == (weight(c) == m - 1)
            for p in prefixes if clean else prefixes[:1]:
                assert outcome(decode_c, code, y, p) == outcome(_decode_c_reference, code, y, p), (y, p)

    @pytest.mark.parametrize("fixture", REFERENCE_CODES + ["golay23"])
    def test_codec_every_codeword(self, fixture, request):
        self.check_codec(request.getfixturevalue(fixture))

    @pytest.mark.parametrize("length", [7, 9, 11, 13, 15])
    def test_codec_full_space(self, length):
        self.check_codec(full_space(length))

    @staticmethod
    def check_codec(code):
        for x in codewords(code):
            res, want = encode_c(code, x), _encode_c_reference(code, x)
            assert res == want, x
            block = res.codeword.prefix(code.n)
            assert scheme_c._gamma_size(block.value, (code.n + 1) // 2) == gamma_size_c(block)
            assert decode_c(code, res.codeword, res.prefix) == _decode_c_reference(code, res.codeword, res.prefix) == x
        assert build_balanced_code(code) == _book_reference(code)

    @pytest.mark.parametrize("length", [7, 9, 11, 13, 15])
    def test_gamma_size_every_word(self, length):
        m = (length + 1) // 2
        for w in all_words(length):
            if weight(w) in (m - 1, m):
                assert scheme_c._gamma_size(w.value, m) == gamma_size_c(w), w
            else:
                assert result(gamma_size_c, w) == (ValueError, f"weight {weight(w)} not in {{{m - 1}, {m}}}"), w


class TestSyndromeCorrection:
    def test_wrong_length_checked_before_enumerating(self, bch31, hamming63, monkeypatch):
        def enumerate_book(code):
            raise AssertionError("C* enumerated")

        monkeypatch.setattr(scheme_c, "build_balanced_code", enumerate_book)
        for code in (bch31, hamming63):
            for length in (code.n, code.n + 2):
                with pytest.raises(ValueError, match=f"block length {length} != {code.n + 1}"):
                    correct_block(code, BitWord(0, length))

    def test_hamming63_corrects_every_single_error(self, hamming63):
        assert hamming63.k > 24
        for block in seeded_blocks(hamming63, 4, seed=63):
            for p in range(64):
                assert correct_block(hamming63, with_errors(block, [p])) == block, p

    def test_bch63_corrects_every_double_error(self, bch63):
        assert bch63.k > 24
        for block in seeded_blocks(bch63, 2, seed=51):
            for positions in itertools.combinations(range(64), 2):
                assert correct_block(bch63, with_errors(block, positions)) == block, positions

    def test_beyond_radius_needs_the_enumeration_guard(self, hamming63):
        # One flip in the balance bit and one beside it: distance 2 > t = 1, so the scan runs.
        (block,) = seeded_blocks(hamming63, 1, seed=7)
        with pytest.raises(CapacityError):
            correct_block(hamming63, with_errors(block, [0, 1]))

    def test_bch31_stream_with_two_errors_per_block(self, bch31, monkeypatch):
        calls, code = [], own_copy(bch31)
        real = scheme_c.build_balanced_code
        monkeypatch.setattr(scheme_c, "build_balanced_code", lambda code: calls.append(code) or real(code))
        rng = random.Random(31)
        payload = BitWord(rng.getrandbits(600), 600)
        start = time.perf_counter()
        enc = stream_encode(code, payload)
        frames = tuple(
            dataclasses.replace(f, codeword=with_errors(f.codeword, rng.sample(range(32), 2))) for f in enc.frames
        )
        assert stream_decode(code, dataclasses.replace(enc, frames=frames)) == payload
        elapsed = time.perf_counter() - start
        assert calls == []
        assert elapsed < 10, elapsed  # the C* enumeration alone takes about 0.8 s, at a 73 MB peak


@pytest.fixture(scope="module")
def bch63_39():
    """[63,39] BCH code, generator 166623567 in octal: n-k = 24 is past the
    leader table's guard and k = 39 past the enumeration guard."""
    return from_generator(63, 0o166623567)


# the same code as a code file, coefficients g0..g24
BCH63_39_SPEC = "n = 63\nk = 39\ngenerator = 1,1,1,0,1,1,1,0,1,1,1,0,0,1,0,0,1,1,0,1,1,0,1,1,1\n"


class TestPastBothGuards:
    """A code whose leader table holds only the zero pattern and whose C*
    cannot be scanned still passes its clean blocks, and nothing else."""

    def test_table_holds_only_the_zero_pattern(self, bch63_39):
        assert (bch63_39.r, bch63_39.k) == (24, 39)
        assert bch63_39.coset_leaders == ({0: 0}, 0)

    def test_clean_block_is_returned_unchanged(self, bch63_39):
        for block in seeded_blocks(bch63_39, 8, seed=39):
            assert correct_block(bch63_39, block) == block

    def test_one_flip_needs_the_enumeration_guard(self, bch63_39):
        payload = BitWord(random.Random(2).getrandbits(500), 500)
        enc = stream_encode(bch63_39, payload)
        for p in (0, 1, 40, 63):  # the balance bit, the last body bit, one inside, the first
            block = enc.frames[3].codeword
            with pytest.raises(CapacityError, match="k=39 exceeds enumeration guard 24"):
                correct_block(bch63_39, with_errors(block, [p]))
            frames = list(enc.frames)
            frames[3] = StreamFrame(codeword=with_errors(block, [p]))
            with pytest.raises(CapacityError, match="k=39 exceeds enumeration guard 24"):
                stream_decode(bch63_39, dataclasses.replace(enc, frames=tuple(frames)))

    def test_stream_round_trip(self, bch63_39):
        payload = BitWord(random.Random(2).getrandbits(500), 500)
        enc = stream_encode(bch63_39, payload)
        assert stream_decode(bch63_39, unpack_stream(pack_stream(enc))) == payload

    def test_cli_decode_of_a_flipped_stream_exits_1(self, bch63_39, capsys, tmp_path):
        """The command-line run: one flip per block encodes (exit 0) and fails to decode (exit 1)."""
        assert parse_code_file(BCH63_39_SPEC) == bch63_39
        path, container = tmp_path / "bch63_39.code", str(tmp_path / "noisy.bin")
        path.write_text(BCH63_39_SPEC)
        payload = format(random.Random(2).getrandbits(500), "0500b")
        encode = ["encode", "--code", str(path), "--input", payload, "--flip-per-block", "1", "--out", container]
        for argv, want in ((encode, 0), (["decode", "--code", str(path), "--in", container], 1)):
            start = time.perf_counter()
            assert cli.run(["stream", *argv]) == want
            assert time.perf_counter() - start < 10
        assert capsys.readouterr().err.startswith("error:")


# Radius t of C* for each stream code: floor((d' - 1) / 2), d' = 2 ceil(d / 2).
STREAM_RADIUS = {"simplex": 1, "bch15": 2, "golay23": 3, "bch31": 2}


def differential_payloads(seed):
    """Payload lengths 0..39 plus 70 seeded lengths in 40..600, seeded bits."""
    rng = random.Random(seed)
    lengths = [*range(40), *(rng.randrange(40, 601) for _ in range(70))]
    return [BitWord(rng.getrandbits(length), length) for length in lengths]


def with_block_errors(enc, flips, rng):
    """enc with `flips` distinct seeded positions flipped in every block."""
    frames = tuple(StreamFrame(codeword=with_errors(f.codeword, rng.sample(range(enc.n), flips))) for f in enc.frames)
    return dataclasses.replace(enc, frames=frames)


class TestStreamAgainstReference:
    @pytest.mark.parametrize("name", sorted(STREAM_RADIUS))
    def test_int_stream_matches_string_stream(self, name, request, monkeypatch):
        """Frames, header fields and flush errors of each encode; the decode or
        its error text at 0, t and t+1 flips per block, with a header field one
        off, and after one container flip."""
        code = request.getfixturevalue(name)
        t = STREAM_RADIUS[name]
        assert code.coset_leaders[1] == t
        if name == "bch31":
            # C* of BCH[31,21] takes about 0.8 s and 73 MB to enumerate; past the radius both decoders
            # reach the scan.  A new code object, so that no block is decoded from a memo entry that a
            # real scan filled.
            def no_scan(code):
                raise AmbiguousBlockError("C* scan")

            monkeypatch.setattr(scheme_c, "build_balanced_code", no_scan)
            code = own_copy(code)
        rng = random.Random(t)
        kinds = set()
        for payload in differential_payloads(seed=code.n):
            enc = result(stream_encode, code, payload)
            assert enc == result(_stream_encode_reference, code, payload), payload
            if not isinstance(enc, StreamEncoding):
                continue
            assert unpack_stream(pack_stream(enc)) == enc
            blob = bytearray(pack_stream(enc))
            bit = rng.randrange(8 * len(blob))
            blob[bit >> 3] ^= 0x80 >> (bit & 7)
            received = [with_block_errors(enc, flips, rng) for flips in (0, t, t + 1)]
            # header fields one off, as a damaged or forged header would give them
            received += [dataclasses.replace(enc, payload_frames=enc.payload_frames + d) for d in (-1, 1)]
            received.append(dataclasses.replace(enc, final_pad=enc.final_pad + 1))
            container = result(unpack_stream, bytes(blob))
            if isinstance(container, StreamEncoding):
                received.append(container)
            for i, noisy in enumerate(received):
                got = result(stream_decode, code, noisy)
                assert got == result(_stream_decode_reference, code, noisy), (payload, i)
                assert got == payload or i >= 2, (payload, i)
                kinds.add("payload" if got == payload else "error" if isinstance(got, tuple) else "other")
        assert {"payload", "error"} <= kinds, kinds


@pytest.fixture(scope="module")
def bch15_reciprocal():
    """The reciprocal of bch15, generated by 1 + X + X^2 + X^4 + X^8: another
    [15,7,5] code, with 6 of its 48 C* blocks in bch15's C*."""
    return from_generator(15, poly_from_coeffs([1, 1, 1, 0, 1, 0, 0, 0, 1]))


class TestStreamMemo:
    """Each stream call reads and fills its code's memos, so over all calls on
    one code object each distinct packet and each distinct received block is
    worked once while it is among the newest STREAM_MEMO_MAX entries of its
    memo."""

    def test_each_distinct_packet_and_block_is_worked_once(self, simplex, monkeypatch):
        code = own_copy(simplex)
        shifted, nearest = [], []
        real_shift, real_nearest = scheme_c._shift, scheme_c._nearest
        monkeypatch.setattr(scheme_c, "_shift", lambda x, n, half: shifted.append(x) or real_shift(x, n, half))
        monkeypatch.setattr(scheme_c, "_nearest", lambda code, y, half: nearest.append(y) or real_nearest(code, y, half))
        rng = random.Random(256)
        payloads = [BitWord(rng.getrandbits(256), 256) for _ in range(2)]
        encs = [stream_encode(code, payload) for payload in payloads]
        # one codeword per distinct packet over both calls, and at most 2^k packets
        assert len(shifted) == len(set(shifted)) <= 2**code.k < len(encs[0].frames)
        received = encs + [with_block_errors(enc, 1, rng) for enc in encs]
        decoded = [stream_decode(code, enc) for enc in received]
        blocks = {f.codeword.value for enc in received for f in enc.frames}
        assert sorted(nearest) == sorted(blocks) != []
        assert len(nearest) < sum(len(enc.frames) for enc in received)
        shifted.clear()
        nearest.clear()
        assert [stream_encode(code, payload) for payload in payloads] == encs
        assert [stream_decode(code, enc) for enc in received] == decoded
        assert shifted == nearest == []  # a repeat of the same payloads works nothing
        assert decoded == payloads * 2
        for payload, enc in zip(payloads, encs):
            assert enc == _stream_encode_reference(simplex, payload)
        assert decoded == [_stream_decode_reference(simplex, enc) for enc in received]

    def test_memo_stops_at_its_bound(self, monkeypatch):
        """On the full space no packet and no block repeats, so the memos fill
        to the bound; past it each keeps the latest cap entries, and the
        frames do not change."""
        code, cap = full_space(127), 5
        monkeypatch.setattr(scheme_c, "STREAM_MEMO_MAX", cap)
        rng = random.Random(127)
        payloads = [BitWord(rng.getrandbits(length), length) for length in (900, 1100, 1300)]
        encs = []

        def latest(enc):
            """The blocks of enc's last cap frames, as each memo holds them."""
            frame_of, seen = code.stream_memo
            blocks = [f.codeword.value for f in enc.frames[-cap:]]
            return [block for *_, block in frame_of.values()] == list(seen) == blocks

        for payload in payloads:
            encs.append(stream_encode(code, payload))
            assert stream_decode(code, encs[-1]) == payload
            assert latest(encs[-1])
        assert min(len(enc.frames) for enc in encs) > cap
        assert [stream_encode(code, payload) for payload in payloads] == encs
        assert [stream_decode(code, enc) for enc in encs] == payloads
        assert latest(encs[-1])
        for payload, enc in zip(payloads, encs):
            assert enc == _stream_encode_reference(code, payload)
            assert _stream_decode_reference(code, enc) == payload

    def test_bad_block_raises_on_every_call_and_is_not_stored(self, simplex):
        """A warm memo still meets an ambiguous block with the same `frame t:`
        error on a second call, and a block of the wrong length with the same
        length error, even when its value is stored; neither is stored."""
        code = own_copy(simplex)
        payload = BitWord(random.Random(256).getrandbits(256), 256)
        enc = stream_encode(code, payload)
        assert stream_decode(code, enc) == payload
        frames = list(enc.frames)
        frames[1] = frames[3] = StreamFrame(codeword=W("00110000"))  # equidistant from two C* words
        ambiguous = dataclasses.replace(enc, frames=tuple(frames))
        frames[1] = frames[3] = StreamFrame(codeword=BitWord(enc.frames[0].codeword.value, 9))  # a stored value
        too_long = dataclasses.replace(enc, frames=tuple(frames))
        assert enc.frames[0].codeword.value in code.stream_memo[1]
        stored = dict(code.stream_memo[1])
        errors = []
        for bad in (ambiguous, too_long) * 2:
            with pytest.raises((AmbiguousBlockError, ValueError)) as exc:
                stream_decode(code, bad)
            errors.append((exc.type, str(exc.value)))
            assert code.stream_memo[1] == stored
        assert errors[:2] == errors[2:]
        assert errors[0][0] is AmbiguousBlockError and errors[0][1].startswith("frame 1: 2 codebook words at distance")
        assert errors[1] == (ValueError, "frame 1: block length 9 != 8")
        assert result(_stream_decode_reference, code, ambiguous) == errors[0]
        assert result(_stream_decode_reference, code, too_long) == errors[1]

    def test_memo_full_of_noisy_blocks_takes_in_clean_ones(self, golay23, monkeypatch):
        """A decode memo at its cap, filled with blocks 3 flips off their C*
        block that never repeat, still takes in the blocks of a clean
        stream, so its second decode is all hits."""
        code, cap = own_copy(golay23), 64
        monkeypatch.setattr(scheme_c, "STREAM_MEMO_MAX", cap)
        rng = random.Random(23)
        noisy = [stream_encode(code, BitWord(rng.getrandbits(256), 256)) for _ in range(4)]
        for enc in noisy:
            stream_decode(code, with_block_errors(enc, 3, rng))
        assert len(code.stream_memo[1]) == cap
        payload = BitWord(rng.getrandbits(256), 256)
        clean = stream_encode(code, payload)
        assert len({f.codeword.value for f in clean.frames}) <= cap
        nearest = []
        real_nearest = scheme_c._nearest
        monkeypatch.setattr(scheme_c, "_nearest", lambda code, y, half: nearest.append(y) or real_nearest(code, y, half))
        assert stream_decode(code, clean) == payload
        assert nearest
        nearest.clear()
        assert stream_decode(code, clean) == payload
        assert nearest == []

    def test_memo_is_not_part_of_the_code(self, simplex):
        """==, hash, repr and build_balanced_code's cache key ignore the memos."""
        warm, cold = own_copy(simplex), own_copy(simplex)
        payload = BitWord(random.Random(7).getrandbits(64), 64)
        assert stream_decode(warm, stream_encode(warm, payload)) == payload
        assert all(warm.stream_memo) and not any(cold.stream_memo)
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
        assert build_balanced_code(warm) is build_balanced_code(cold)

    def test_one_frame_object_per_distinct_block(self, simplex):
        payload = BitWord(random.Random(257).getrandbits(256), 256)
        enc = stream_encode(simplex, payload)
        assert enc == _stream_encode_reference(simplex, payload)
        back = unpack_stream(pack_stream(enc))
        assert back == enc
        for frames in (enc.frames, back.frames):
            distinct = {f.codeword.value for f in frames}
            assert len({id(f) for f in frames}) == len(distinct) < len(frames)
            with pytest.raises(dataclasses.FrozenInstanceError):
                frames[0].codeword = BitWord(0, 8)
        assert stream_decode(simplex, back) == payload

    def test_no_state_crosses_codes(self, bch15, bch15_reciprocal):
        """bch15's received blocks include clean blocks of a bch15_reciprocal
        stream that lie within radius 2 of the bch15 block sent, so a value
        received on both codes decodes to a different block on each, from
        each code's own memo on the repeated calls."""
        codes = (bch15, bch15_reciprocal)
        sent = {code: next(pair for pair in encodable_payloads(code, 8, seed=15) if pair[0].length >= 60) for code in codes}
        theirs = sorted({f.codeword.value for f in sent[bch15_reciprocal][1].frames})
        frames = []
        for f in sent[bch15][1].frames:
            near = [y for y in theirs if 0 < (y ^ f.codeword.value).bit_count() <= 2]
            frames.append(StreamFrame(codeword=BitWord(near[0], 16)) if near else f)
        received = {bch15: dataclasses.replace(sent[bch15][1], frames=tuple(frames)), bch15_reciprocal: sent[bch15_reciprocal][1]}
        shared = {f.codeword.value for f in frames} & set(theirs)
        assert any(correct_block(bch15, BitWord(y, 16)) != BitWord(y, 16) for y in shared)
        for order in (codes + codes[:1], codes[::-1] + codes[1:]):
            for code in order:
                payload, enc = sent[code]
                assert stream_encode(code, payload) == enc
                assert stream_decode(code, received[code]) == payload
