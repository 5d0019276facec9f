import dataclasses
import functools
import math
import sys

import pytest

from qbalance import lattice, scheme_a
from qbalance.errors import CapacityError, DecodeError
from qbalance.lattice import PathBand
from qbalance.oracle import census_bad_a, definitional_gamma, exhaustive_redundancy
from qbalance.scheme_a import (
    HISTOGRAM_MAX_N,
    STEPPED_MAX_N,
    Classification,
    EncodeResult,
    _census,
    _histogram_a,
    count_bad,
    decode_a,
    encode_a,
    gamma_counts_a,
    gamma_set_a,
    histogram_sum,
    optimal_redundancy,
    rank_width,
    rho_a_bound,
    rho_a_parts,
)
from qbalance.scheme_b import count_bad_b, decode_b, encode_b, gamma_counts_b, gamma_set_b
from qbalance.scheme_c import gamma_counts_fullspace
from qbalance.words import (
    BitWord,
    all_words,
    balancing_indices,
    complement,
    flip_prefix,
    fresh_walk,
    level_walk,
    running_sum,
    weight,
)

from lattice_trig import count_bad_trig


def W(s):
    return BitWord.from_str(s)


class TestClassify:
    def test_worked_example(self):
        assert encode_a(W("11100000"), 2).classification is Classification.TYPE0_GOOD

    def test_bad_row(self):
        assert encode_a(W("01100110"), 2).classification is Classification.TYPE0_BAD

    def test_q_zero_always_type1(self):
        assert all(encode_a(w, 0).classification is Classification.TYPE1_GOOD for w in all_words(8))

    def test_q_out_of_range(self):
        with pytest.raises(ValueError):
            encode_a(W("0110"), 3)


class TestRecords:
    def test_classification_members(self):
        assert [(cls, cls.value, cls.is_bad, cls.type_bit) for cls in Classification] == [
            (Classification.TYPE1_GOOD, "type-1-good", False, 1),
            (Classification.TYPE0_GOOD, "type-0-good", False, 0),
            (Classification.TYPE1_BAD, "type-1-bad", True, 1),
            (Classification.TYPE0_BAD, "type-0-bad", True, 0),
        ]

    def test_encode_result_fields(self):
        assert [f.name for f in dataclasses.fields(EncodeResult)] == ["codeword", "prefix", "classification", "tau"]
        res = encode_a(W("11100000"), 2)
        assert res == EncodeResult(W("10011111"), W("00001"), Classification.TYPE0_GOOD, 1)
        assert res != EncodeResult(W("10011111"), W("00001"), Classification.TYPE0_GOOD, 2)
        assert dataclasses.replace(res, tau=5) == EncodeResult(res.codeword, res.prefix, res.classification, 5)
        assert res.tau == 1  # replace copies


class TestGammaSet:
    def test_worked_example(self):
        assert gamma_set_a(W("10011111"), 2) == [0, 1, 3, 6, 7, 8]

    def test_monotone_staircase(self):
        # 1^{m+q} 0^{m-q}: the running sum climbs to its peak, then repeats
        assert gamma_set_a(W("11111100"), 2) == [0, 1, 2, 3, 4, 5, 6]

    def test_alternating(self):
        assert gamma_set_a(W("0101"), 0) == [0, 1]

    def test_wrong_weight(self):
        with pytest.raises(ValueError):
            gamma_set_a(W("0101"), 1)


class TestEncode:
    def test_type0_good_row(self):
        res = encode_a(W("11100000"), 2)
        assert str(res.codeword) == "10011111"
        assert str(res.prefix) == "00001"
        assert res.tau == 1

    def test_type1_good_row(self):
        res = encode_a(W("01100000"), 2)
        assert str(res.codeword) == "10011111"
        assert str(res.prefix) == "01101"
        assert res.tau == 8

    def test_type0_bad_row(self):
        res = encode_a(W("01100110"), 2)
        assert str(res.codeword) == "10011111"
        assert str(res.prefix) == "101010110"  # 10 | 101 | 0110

    def test_q0_prefix_is_bare_rank(self):
        res = encode_a(W("0110"), 0)
        assert res.tau == 0
        assert gamma_set_a(W("0110"), 0) == [0, 1, 3]
        assert str(res.prefix) == "00"  # rank 0 on ceil(log2 3) = 2 bits

    def test_tau_is_minimal(self):
        for w in all_words(10):
            res = encode_a(w, 1)
            if res.classification is Classification.TYPE1_GOOD:
                assert res.tau == balancing_indices(w, 1)[0]

    def test_codeword_weight_invariant(self):
        for q in (0, 1, 2):
            for w in all_words(8):
                assert weight(encode_a(w, q).codeword) == 4 + q

    @pytest.mark.parametrize(
        "word,q,cls,scans",
        [
            ("0110100111010001", 0, Classification.TYPE1_GOOD, 1),
            ("01100000", 2, Classification.TYPE1_GOOD, 1),
            ("11100000", 2, Classification.TYPE0_GOOD, 2),
            ("01100110", 2, Classification.TYPE0_BAD, 3),
        ],
    )
    def test_index_scans_per_class(self, monkeypatch, word, q, cls, scans):
        # the walk that hits fixes the class and tau together; Gamma(c) is walked once
        calls, fresh = [], []

        def counted(value, length, levels):
            calls.append(value)
            return level_walk(value, length, levels)

        def counted_fresh(value, length, sign=0):
            fresh.append(value)
            return fresh_walk(value, length, sign)

        monkeypatch.setattr(scheme_a, "level_walk", counted)
        monkeypatch.setattr(scheme_a, "fresh_walk", counted_fresh)
        res = encode_a(W(word), q)
        assert res.classification is cls
        assert len(calls) == scans
        assert len(fresh) == 1


class TestDecode:
    def test_inverts_worked_example(self):
        assert decode_a(W("10011111"), W("00001"), 8, 2) == W("11100000")

    def test_inverts_bad_row(self):
        assert decode_a(W("10011111"), W("101010110"), 8, 2) == W("01100110")

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_roundtrip_exhaustive_n12(self, q):
        witness = exhaustive_redundancy("a", 12, q).counterexample
        assert witness is None, f"first failure at {witness}"

    @pytest.mark.parametrize("n,q", [(32, 0), (32, 3), (64, 2), (64, 5)])
    def test_roundtrip_randomized_large_n(self, n, q):
        import random

        rng = random.Random(n * 100 + q)
        for _ in range(300):
            x = BitWord(rng.getrandbits(n), n)
            res = encode_a(x, q)
            assert weight(res.codeword) == n // 2 + q
            assert decode_a(res.codeword, res.prefix, n, q) == x

    def test_malformed_rank(self):
        # |Gamma(10011111)| = 6 -> ranks 6 and 7 are unused codepoints
        with pytest.raises(DecodeError, match="rank 7 at bit 2"):
            decode_a(W("10011111"), W("00111"), 8, 2)

    def test_short_read(self):
        with pytest.raises(DecodeError, match="bad-word tail at bit 5"):
            decode_a(W("10011111"), W("10101"), 8, 2)
        with pytest.raises(DecodeError, match="type bit at bit 1"):
            decode_a(W("10011111"), W("0"), 8, 2)

    def test_trailing_garbage(self):
        with pytest.raises(DecodeError, match="trailing bits at bit 5"):
            decode_a(W("10011111"), W("000010"), 8, 2)

    @pytest.mark.parametrize("decode", [decode_a, decode_b], ids=["a", "b"])
    def test_wrong_length_codeword(self, decode):
        with pytest.raises(ValueError, match="^codeword length 7 != 8$"):
            decode(W("0001111"), W(""), 8, 0)

    def test_wrong_weight_codeword(self):
        # a corrupted codeword is malformed transmitted data, as in decode_b
        with pytest.raises(DecodeError, match="codeword weight 7 != target 6"):
            decode_a(W("10111111"), W("00001"), 8, 2)
        with pytest.raises(DecodeError, match="codeword weight 5 != target 6"):
            decode_a(W("00011111"), W("00001"), 8, 2)


@pytest.mark.parametrize("q", [0, 1, 2, 3])
def test_prefix_layout_is_bit_exact(q):
    """Prefix = [flag][type] when q > 0, rank on rank_width(|Gamma|) bits,
    then the replaced tail (2q bits for A, 2q-2 for B) of a bad word."""
    n = 10
    for x in all_words(n):
        res = encode_a(x, q)
        size = len(gamma_set_a(res.codeword, q))
        tail = 2 * q if res.classification.is_bad else 0
        assert res.prefix.length == 2 * (q > 0) + rank_width(size) + tail
    for x in all_words(n - 1):
        res = encode_b(x, q)
        size = len(gamma_set_b(res.codeword.prefix(n - 1), q))
        tail = 2 * q - 2 if res.classification.is_bad else 0
        assert res.prefix.length == 2 * (q > 0) + rank_width(size) + tail


def _reference_codec(scheme, n, q):
    """encode(x) -> (codeword, prefix, classification, tau) and
    decode(c, p) -> message, one bit at a time on running_sum and bit
    strings, as Schemes A and B ran before their walks read 8-bit chunks."""
    m = n // 2
    run = 2 * q if scheme == "a" else max(0, 2 * q - 2)
    k = n if scheme == "a" else n - 1
    targets = (m + q,) if scheme == "a" else (m + q - 1, m + q)

    def indices(w):
        wt = weight(w)
        return [j for j, r in enumerate(running_sum(w)) if wt - r in targets]

    @functools.lru_cache(maxsize=None)
    def gamma(c):
        sign = 0 if scheme == "a" else (1 if weight(c) == m + q - 1 else -1)
        out, lo, hi = [0], 0, 0
        for i, v in enumerate(running_sum(c)):
            if v > hi:
                hi = v
                if sign >= 0:
                    out.append(i)
            elif v < lo:
                lo = v
                if sign <= 0:
                    out.append(i)
        return out

    def encode(x):
        found = indices(x)
        if found:
            cls, xh = Classification.TYPE1_GOOD, x
        elif indices(complement(x)):
            cls, xh = Classification.TYPE0_GOOD, complement(x)
            found = indices(xh)
        else:
            low = weight(x.prefix(k - run)) <= (k + 1) // 2 - q
            cls = Classification.TYPE0_BAD if low else Classification.TYPE1_BAD
            xh = BitWord.from_str(str(x)[: k - run] + ("0" if low else "1") * run)
            found = indices(xh)
        tau = found[0]
        c = flip_prefix(xh, tau)
        g = gamma(c)
        z = format(g.index(tau), f"0{rank_width(len(g))}b") if len(g) > 1 else ""
        if q == 0:
            bits = z
        elif not cls.is_bad:
            bits = f"0{cls.type_bit}{z}"
        else:
            bits = f"1{cls.type_bit}{z}{str(x)[k - run :]}"
        if scheme == "b":
            c = BitWord(c.value << 1 | (weight(c) == m + q - 1), n)
        return c, BitWord.from_str(bits), cls, tau

    def decode(c, p):
        if scheme == "b":
            c = c.prefix(n - 1)
        bits, pos = str(p), 0

        def take(width, name):
            nonlocal pos
            left = len(bits) - pos
            if left < width:
                raise DecodeError(f"prefix too short: {name} at bit {pos} needs {width} bits, {left} left")
            pos += width
            return bits[pos - width : pos]

        flag, type_bit = ("0", "1") if q == 0 else (take(1, "flag"), take(1, "type bit"))
        g = gamma(c)
        r = rank_width(len(g))
        rank = int(take(r, "rank"), 2) if r else 0
        if rank >= len(g):
            raise DecodeError(f"rank {rank} at bit {pos - r} out of range for |Gamma|={len(g)}")
        xh = flip_prefix(c, g[rank])
        if flag == "1":
            xh = BitWord.from_str(str(xh)[: k - run] + take(run, "bad-word tail"))
        elif type_bit == "0":
            xh = complement(xh)
        if pos < len(bits):
            raise DecodeError(f"trailing bits at bit {pos}: {len(bits) - pos} after the prefix")
        return xh

    return k, encode, decode


def _outcome(decode, *args):
    try:
        return decode(*args)
    except DecodeError as exc:
        return f"DecodeError: {exc}"


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
@pytest.mark.parametrize("scheme", ["a", "b"])
def test_codec_matches_per_bit_reference(scheme, n):
    """Encodes and every decode of a truncated, extended or bit-flipped
    prefix, error texts included, equal the per-bit reference."""
    encode, decode = (encode_a, decode_a) if scheme == "a" else (encode_b, decode_b)
    for q in range(n // 2 + 1):
        k, ref_encode, ref_decode = _reference_codec(scheme, n, q)
        received = set()  # (codeword, prefix value, prefix length); many messages share a codeword
        for x in all_words(k):
            res = encode(x, q)
            c, p, cls, tau = ref_encode(x)
            assert (res.codeword, res.prefix, res.classification, res.tau) == (c, p, cls, tau), x
            v, length = p.value, p.length
            received.update((c, v >> j, length - j) for j in range(length + 1))  # whole and truncated
            received.update((c, v << 1 | b, length + 1) for b in (0, 1))
            received.update((c, v ^ 1 << i, length) for i in range(length))
        for c, v, length in received:
            p = BitWord(v, length)
            assert _outcome(decode, c, p, n, q) == _outcome(ref_decode, c, p), (q, c, p)


class TestCountBad:
    @pytest.mark.parametrize("n", [4, 8, 16, 64])
    def test_q0_q1_no_bad_words(self, n):
        assert count_bad(n, 0) == 0
        assert count_bad(n, 1) == 0

    def test_small_census(self):
        assert count_bad(4, 2) == 8

    @pytest.mark.parametrize("n,q", [(8, 2), (8, 3), (10, 2), (12, 3), (14, 3)])
    def test_matches_census(self, n, q):
        assert count_bad(n, q) == census_bad_a(n, q)

    @pytest.mark.parametrize("n,q", [(8, 2), (12, 3), (20, 4), (64, 6)])
    def test_trig_form_agrees(self, n, q):
        assert count_bad_trig(n, q) == pytest.approx(count_bad(n, q), rel=1e-9)

    @pytest.mark.parametrize("n", list(range(4, 199, 2)) + [256, 512, 1000, 1024, 2048, 4096, 16384])
    def test_float_share_within_its_bound(self, n):
        """The closed float share rho reads against the exact census over 2^N,
        for A (N = n) and B (N = n - 1): within the _census docstring's 3e-13
        relative where the exact share is a normal float, below 1e-300 where
        it underflows, and 0.0 at q <= 1."""
        for q in range(min(40, n // 2) + 1):
            for appended in (0, 1):
                want = _census(n, q, appended, True) / (1 << (n - appended))
                got = _census(n, q, appended, False)
                assert type(got) is float
                if want >= sys.float_info.min:
                    assert abs(got - want) <= 3e-13 * want, (q, appended)
                else:
                    assert 0.0 <= got < 1e-300, (q, appended)

    def test_upper_bound(self):
        # 4(q-1)^2/q * (2 cos(pi/2q))^n dominates the census for q >= 2
        for q in (2, 3, 5, 8):
            for n in (8, 16, 32, 64):
                if q > n // 2:
                    continue
                bound = 4 * (q - 1) ** 2 / q * (2 * math.cos(math.pi / (2 * q))) ** n
                assert count_bad(n, q) <= bound


class TestGammaCounts:
    def test_tiny_exact(self):
        counts = gamma_counts_a(4, 0)
        assert counts[2] == 2  # 0101, 1010
        assert counts[3] == 4

    @pytest.mark.parametrize("n,q", [(4, 0), (8, 0), (8, 2), (10, 1), (12, 3), (1000, 6), (4096, 0), (4096, 17)])
    def test_total_is_binomial(self, n, q):
        counts = gamma_counts_a(n, q)
        assert sum(counts.values()) == math.comb(n, n // 2 + q)

    @pytest.mark.parametrize("n,q", [(8, 0), (8, 2), (10, 1), (12, 2)])
    def test_matches_histogram_oracle(self, n, q):
        hist = {}
        for w in all_words(n):
            if weight(w) == n // 2 + q:
                size = len(gamma_set_a(w, q))
                hist[size] = hist.get(size, 0) + 1
        assert hist == gamma_counts_a(n, q)

    @pytest.mark.parametrize("n,q", [(8, 0), (10, 2), (12, 1)])
    def test_matches_definitional_gamma(self, n, q):
        for w in all_words(n):
            if weight(w) == n // 2 + q:
                assert gamma_set_a(w, q) == definitional_gamma("a", w, q)


def _gamma_counts_a_reference(n, q):
    """The O(n^3) band sum gamma_counts_a is checked against: g(j, t) counts
    the bridges in the band of span j whose upper line has offset t - q,
    one count_banded call per (j, t), and size i takes the inclusion-exclusion
    of the bands of span i-1 and i-2 over every band position t < i."""
    m = n // 2
    start = (0, q)
    end = (m + q, m)
    cache = {}

    def g(j, t):
        if j < 0:
            return 0
        if (j, t) not in cache:
            upper = t - q
            cache[j, t] = lattice.count_banded(start, end, PathBand(upper - j, upper))
        return cache[j, t]

    out = {}
    for i in range(1, m + q + 2):
        total = 0
        for t in range(i):
            total += g(i - 1, t) - g(i - 2, t) - g(i - 2, t - 1) + g(i - 3, t - 1)
        if total:
            out[i] = total
    return out


class TestGammaCountsAgainstReference:
    @pytest.mark.parametrize("n", range(2, 65, 2))
    def test_every_q_small_n(self, n):
        for q in range(n // 2 + 1):
            want = _gamma_counts_a_reference(n, q)
            got = gamma_counts_a(n, q)
            assert list(got.items()) == list(want.items()), (n, q)

    @pytest.mark.parametrize("n", [128, 256, 512])
    @pytest.mark.parametrize("q", [0, 1, 2, 6])
    def test_large_n(self, n, q):
        assert list(gamma_counts_a(n, q).items()) == list(_gamma_counts_a_reference(n, q).items())

    def test_no_banded_count_per_band_position(self, monkeypatch):
        calls = []
        real = lattice.count_banded

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(lattice, "count_banded", counting)
        counts = gamma_counts_a(1000, 6)
        assert sum(counts.values()) == math.comb(1000, 506)
        assert len(calls) == 0


def _gamma_q0_trig(i, n):
    s1 = sum(math.cos(math.pi * j / (i + 1)) ** n for j in range(1, i + 1))
    s2 = sum(math.cos(math.pi * j / i) ** n for j in range(1, i)) if i >= 2 else 0.0
    s3 = sum(math.cos(math.pi * j / (i - 1)) ** n for j in range(1, i - 1)) if i >= 3 else 0.0
    return 2.0**n * (s1 - 2 * s2 + s3)


@pytest.mark.parametrize("n", [8, 16, 24, 32])
def test_prior_trig_distribution_agrees_at_q0(n):
    counts = gamma_counts_a(n, 0)
    for i in range(1, n // 2 + 2):
        assert _gamma_q0_trig(i, n) == pytest.approx(counts.get(i, 0), rel=1e-6, abs=1e-3)


class TestRhoBound:
    def test_comparison_table_endpoints(self):
        assert rho_a_bound(8, 0) == pytest.approx(1.90, abs=0.01)
        assert rho_a_bound(512, 0) == pytest.approx(4.86, abs=0.01)

    def test_q6_column(self):
        assert rho_a_bound(64, 6) == pytest.approx(8.03, abs=0.05)

    def test_operational_at_least_analytical(self):
        for n, q in [(16, 0), (16, 2), (64, 6)]:
            analytical, ceil = rho_a_parts(n, q)
            assert sum(ceil.values()) >= sum(analytical.values()) - 1e-9


class TestFloatShares:
    """rho_a sums _histogram_a's float shares, gamma_counts_a over 2^n as floats."""

    @pytest.mark.parametrize("n", range(2, 201, 2))
    def test_every_share_and_good_term_small_n(self, n):
        for q in range(n // 2 + 1):
            exact = gamma_counts_a(n, q)
            shares = _histogram_a(n, q, False)
            # no size without a codeword, though a share may be a tiny negative
            assert shares.keys() <= exact.keys(), (n, q, shares.keys() - exact.keys())
            for i in exact.keys():
                assert abs(shares.get(i, 0.0) - exact[i] / 2**n) <= 4e-16, (n, q, i)
            assert histogram_sum(shares, 0) == pytest.approx(histogram_sum(exact, n), rel=1e-12, abs=0), q

    @pytest.mark.parametrize("n", [256, 1000, 1024, 4096])
    @pytest.mark.parametrize("q", [0, 2, 6])
    def test_good_term_large_n(self, n, q):
        exact = histogram_sum(gamma_counts_a(n, q), n)
        assert histogram_sum(_histogram_a(n, q, False), 0) == pytest.approx(exact, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [65536, 131072])
    @pytest.mark.parametrize("q", [0, 6])
    def test_total_past_the_exact_range(self, n, q):
        # a dropped span or reflection pair would show in the total long before 1e-11
        want = math.comb(n, n // 2 + q) / 2**n
        assert sum(_histogram_a(n, q, False).values()) == pytest.approx(want, rel=1e-11, abs=0)


class TestAsymptote:
    """Scheme A's q = 0 redundancy is (1/2) log2 n + c_A + O(1/n)."""

    def test_q0_gap_falls_fourfold_per_two_doublings(self):
        gaps = [rho_a_bound(1 << e, 0) - e / 2 for e in range(6, 17, 2)]
        falls = [a - b for a, b in zip(gaps, gaps[1:])]
        assert all(fall > 0 for fall in falls), gaps
        assert all(3.5 <= a / b <= 4.5 for a, b in zip(falls, falls[1:])), falls

    def test_q2_good_term_gap_falls(self):
        gaps = [rho_a_parts(1 << e, 2)[0]["good"] - e / 2 for e in range(6, 17, 2)]
        assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps


class TestAnalysisGuards:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: gamma_counts_a(HISTOGRAM_MAX_N + 2, 0),
            lambda: gamma_counts_b(HISTOGRAM_MAX_N + 2, 0),
            lambda: gamma_counts_fullspace(HISTOGRAM_MAX_N + 2),
            lambda: count_bad(STEPPED_MAX_N + 2, 3),
            lambda: count_bad_b(STEPPED_MAX_N + 2, 3),
            lambda: optimal_redundancy(STEPPED_MAX_N + 2),
            lambda: rho_a_bound(STEPPED_MAX_N + 2, 0),
        ],
        ids=["gamma_a", "gamma_b", "gamma_c", "bad_a", "bad_b", "optimal", "rho_a"],
    )
    def test_past_the_guard(self, call):
        with pytest.raises(CapacityError, match="guard"):
            call()

    def test_rho_admits_benchmark_sizes(self):
        # rho_b(65536, 0) is a benchmark point, and every rho command takes n = 65536;
        # the value is the one the exact big-int path gave
        assert STEPPED_MAX_N >= 65536
        assert rho_a_bound(65536, 0) == pytest.approx(8.359073021470634, rel=1e-12)


class TestOptimal:
    def test_balanced_baseline(self):
        assert optimal_redundancy(8, 0) == pytest.approx(8 - math.log2(70), abs=1e-12)

    def test_q6_baseline(self):
        assert optimal_redundancy(16, 6) == pytest.approx(9.09, abs=0.005)

    @pytest.mark.parametrize("n", [0, 1, -4])
    def test_block_length_below_two(self, n):
        for call in (lambda: optimal_redundancy(n, 0), lambda: rho_a_bound(n, 0), lambda: count_bad(n, 0)):
            with pytest.raises(ValueError, match=f"n={n} must be at least 2"):
                call()
