import os
import random
import re
from itertools import islice

import pytest

from qbalance.cyclic_code import (
    BLOCK_MAX_N,
    ENUMERATION_MAX_K,
    codeword_values,
    codewords,
    contains,
    from_generator,
    full_space,
    min_distance,
    parse_code_file,
    poly_deg,
    poly_divmod,
    poly_from_coeffs,
    syndrome,
    xor_bytes,
)
from qbalance.errors import CapacityError
from qbalance.scheme_c import build_balanced_code
from qbalance.words import BitWord, cyclic_shift, weight

CODES_DIR = os.path.join(os.path.dirname(__file__), "..", "perfbench", "codes")

SIMPLEX_TABLE = {
    "0000000", "1011100", "0101110", "0010111",
    "1001011", "1100101", "1110010", "0111001",
}

EXAMPLE_H = [
    [1, 0, 1, 1, 1, 0, 0],
    [0, 1, 0, 1, 1, 1, 0],
    [0, 0, 1, 0, 1, 1, 1],
]


def W(s):
    return BitWord.from_str(s)


def _syndrome_reference(code, value):
    """Per bit: the XOR of the parity-check columns at the set bits of the n-bit value."""
    syn = 0
    for i in range(code.n):
        if value >> (code.n - 1 - i) & 1:
            syn ^= code.parity_cols[i]
    return syn


def _encode_reference(code, msg):
    """Per bit: the XOR of the systematic generator rows at the set bits of the k-bit msg."""
    v = 0
    for j in range(code.k):
        if msg >> (code.k - 1 - j) & 1:
            v ^= code.gen_rows[j]
    return v


def _coeffs(p, length):
    return [(p >> i) & 1 for i in range(length)]


def _word_int_from_poly(p, n):
    """Poly -> word-convention int (position 1 = MSB = coeff of X^0)."""
    v = 0
    for i in range(n):
        if (p >> i) & 1:
            v |= 1 << (n - 1 - i)
    return v


def _gen_rows_reference(n, g):
    """Row reduction of the generator matrix with rows g, X*g, ..., X^(k-1)*g to
    systematic form, in word form."""
    k = n - poly_deg(g)
    raw = [_word_int_from_poly(g << j, n) for j in range(k)]
    for col in range(k):
        pivot_bit = 1 << (n - 1 - col)
        pivot = next(r for r in range(col, k) if raw[r] & pivot_bit)
        raw[col], raw[pivot] = raw[pivot], raw[col]
        for r in range(k):
            if r != col and raw[r] & pivot_bit:
                raw[r] ^= raw[col]
    return tuple(raw)


def _parity_cols_reference(n, g):
    """Columns of the circulant H, whose row j is the reversed check
    polynomial shifted j places, built as lists of bits."""
    k = n - poly_deg(g)
    h, _ = poly_divmod((1 << n) | 1, g)
    hrev = poly_from_coeffs(list(reversed(_coeffs(h, k + 1))))
    rows = [_coeffs(hrev << j, n) for j in range(n - k)]
    return tuple(sum(rows[j][i] << j for j in range(n - k)) for i in range(n))


def _divisors(n, max_deg):
    """Every g of degree <= max_deg that divides X^n - 1 (g(0) = 1 for all of them)."""
    xn1 = (1 << n) | 1
    return [g for g in range(1, 2 << min(max_deg, n - 1), 2) if poly_divmod(xn1, g)[1] == 0]


def check_tables(code, words, messages):
    """syndrome, contains, the encode_rows byte table and codewords against the per-bit references."""
    for v in words:
        w = BitWord(v, code.n)
        want = _syndrome_reference(code, v)
        assert (syndrome(code, w), contains(code, w)) == (want, want == 0), w
    for v in messages:
        assert xor_bytes(code.encode_rows, v, code.k) == _encode_reference(code, v), v


class TestPolyArithmetic:
    def test_divmod_exact(self):
        # X^7 - 1 = (1+X^2+X^3)(1+X^2+X^3+X^4)
        assert poly_divmod((1 << 7) | 1, 0b11101) == (0b1101, 0)

    def test_bch63_generator_is_the_product_of_its_minimal_polynomials(self, bch63):
        assert poly_divmod(bch63.generator, poly_from_coeffs([1, 1, 0, 0, 0, 0, 1])) == (
            poly_from_coeffs([1, 1, 1, 0, 1, 0, 1]), 0
        )

    def test_coeff_roundtrip(self):
        assert poly_from_coeffs([1, 0, 1, 1, 1]) == 0b11101


class TestConstruction:
    def test_simplex_dimensions(self, simplex):
        assert (simplex.n, simplex.k) == (7, 3)
        assert {str(c) for c in codewords(simplex)} == SIMPLEX_TABLE

    def test_hamming_dimensions(self, hamming):
        assert (hamming.n, hamming.k) == (7, 4)
        assert min_distance(hamming) == 3

    def test_even_weight_code(self):
        code = from_generator(7, poly_from_coeffs([1, 1]))
        assert code.k == 6
        for w in [W("1100000"), W("1111110"), W("1010101")]:
            assert contains(code, w) == (weight(w) % 2 == 0)

    def test_non_divisor_rejected(self):
        with pytest.raises(ValueError):
            from_generator(7, poly_from_coeffs([1, 1, 1]))  # 1+X+X^2 does not divide X^7-1

    def test_hamming_default_parity_rows(self, hamming):
        rows = [
            [(hamming.parity_cols[i] >> j) & 1 for i in range(7)] for j in range(3)
        ]
        assert rows == EXAMPLE_H

    @pytest.mark.parametrize("n, max_deg", [*((n, n) for n in range(1, 18)), (19, 12), (21, 12), (23, 12)])
    def test_closed_forms_equal_row_reduction(self, n, max_deg):
        """Systematic rows X^i + X^k*(X^(n-k+i) mod g) and the circulant H from
        their closed forms are the row-reduced rows and the list-built H."""
        for g in _divisors(n, max_deg):
            code = from_generator(n, g)
            assert code.gen_rows == _gen_rows_reference(n, g), g
            assert code.parity_cols == _parity_cols_reference(n, g), g

    @pytest.mark.parametrize("name", ["simplex7", "bch15", "golay23", "bch31", "full127"])
    def test_closed_forms_of_benchmark_codes(self, name):
        with open(os.path.join(CODES_DIR, f"{name}.code")) as fh:
            code = parse_code_file(fh.read())
        assert code.gen_rows == _gen_rows_reference(code.n, code.generator)
        assert code.parity_cols == _parity_cols_reference(code.n, code.generator)

    def test_full_space(self):
        fs = full_space(7)
        assert (fs.n, fs.k, fs.r) == (7, 7, 0)
        assert contains(fs, W("1010101"))


class TestEncodeSystematic:
    def test_simplex_101(self, simplex):
        assert xor_bytes(simplex.encode_rows, 0b101, 3) == 0b1011100

    def test_zero_message(self, simplex):
        assert xor_bytes(simplex.encode_rows, 0b000, 3) == 0b0000000

    def test_simplex_111(self, simplex):
        assert xor_bytes(simplex.encode_rows, 0b111, 3) == 0b1110010

    def test_message_prefix_is_preserved(self, hamming15):
        msg = W("10110100101")
        cw = BitWord(xor_bytes(hamming15.encode_rows, msg.value, 11), 15)
        assert cw.prefix(11) == msg
        assert contains(hamming15, cw)


class TestMembershipAndDistance:
    def test_known_member(self, simplex):
        assert contains(simplex, W("0101110"))

    def test_simplex_distance(self, simplex):
        assert min_distance(simplex) == 4

    @pytest.mark.parametrize("fixture", ["simplex", "hamming", "hamming15"])
    def test_cyclic_closure(self, fixture, request):
        code = request.getfixturevalue(fixture)
        for cw in codewords(code):
            for i in range(code.n):
                assert contains(code, cyclic_shift(cw, i))

    def test_syndrome_linearity(self, hamming):
        import random

        rng = random.Random(3)
        for _ in range(50):
            a = BitWord(rng.getrandbits(7), 7)
            b = BitWord(rng.getrandbits(7), 7)
            both = BitWord(a.value ^ b.value, 7)
            assert syndrome(hamming, both) == syndrome(hamming, a) ^ syndrome(hamming, b)

    def test_enumeration_guard(self):
        """Every enumeration stops at the guard before it builds a byte table."""
        for enumerate_ in (lambda code: next(codewords(code)), build_balanced_code, min_distance):
            big = full_space(ENUMERATION_MAX_K + 1)
            with pytest.raises(CapacityError):
                enumerate_(big)
            assert "encode_rows" not in big.__dict__


class TestCodeFile:
    SIMPLEX_SPEC = """
        # cyclic simplex code
        n = 7
        k = 3
        generator = 1,0,1,1,1
    """

    def test_parse_simplex(self, simplex):
        code = parse_code_file(self.SIMPLEX_SPEC)
        assert code == simplex

    def test_wrong_declared_k(self):
        with pytest.raises(ValueError):
            parse_code_file("n = 7\nk = 4\ngenerator = 1,0,1,1,1")

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="^line 3: unknown key 'foo'$"):
            parse_code_file("n = 7\ngenerator = 1,0,1,1,1\nfoo = 1\nbar = 2")

    def test_block_length_guard(self):
        """The byte tables grow as n^2: past n = 4095 a full-space stream encode
        peaks above 64 MB of RSS (170 MB at 8191), so construction stops first."""
        assert full_space(BLOCK_MAX_N).k == BLOCK_MAX_N
        error = f"n={BLOCK_MAX_N + 1} exceeds block-length guard {BLOCK_MAX_N}"
        with pytest.raises(CapacityError, match=f"^{re.escape(error)}$"):
            from_generator(BLOCK_MAX_N + 1, 1)
        with pytest.raises(CapacityError, match=f"^{re.escape(f'line 2: n: {error}')}$"):
            parse_code_file(f"# full space\nn = {BLOCK_MAX_N + 1}\ngenerator = 1")

    @pytest.mark.parametrize(
        "spec, error",
        [
            # the second n once won: "does not divide X^15 - 1", or with generator 1 the full space
            ("n = 7\nn = 15\ngenerator = 1,0,1,1,1", "line 2: key 'n' already set on line 1"),
            ("n = 7\nn = 15\ngenerator = 1", "line 2: key 'n' already set on line 1"),
            ("n = 7\nk = 3\ngenerator = 1,0,1,1,1\n\n# again\nk = 3", "line 6: key 'k' already set on line 2"),
            ("n = 7.0\ngenerator = 1,0,1,1,1", "line 1: n: "),
            ("n = 7\ngenerator = 1,0,x", "line 2: generator: "),
            ("n = 7\ngenerator = 1,0,2,1,1", "line 2: generator: coefficient 2 is not a bit"),
            ("n = 7\nk = 4\ngenerator = 1,0,1,1,1", "line 2: declared k=4 but generator implies k=3"),
            # a file that still pins H: the parity rows are unknown keys
            ("# stale override\nn = 7\ngenerator = 1,1,0,1\n\nparity_row_1 = 1,0,1,1,1,0,0\n"
             "parity_row_2 = 0,1,0,1,1,1,0\nparity_row_3 = 0,0,1,0,1,1,1", "line 5: unknown key 'parity_row_1'"),
            # the generator's own errors, also ahead of a later unknown key
            ("n = 7\ngenerator = 0", "line 2: generator: generator must be a nonzero polynomial"),
            ("n = 7\ngenerator = 0\nparity_row_1 = 1,0,1,1,1,0,0",
             "line 2: generator: generator must be a nonzero polynomial"),
            ("n = 3\n\ngenerator = 1,0,1,1,1", "line 3: generator: deg(g)=4 must be < n=3"),
            ("n = 7\ngenerator = 1,1,1", "line 2: generator: generator 0b111 does not divide X^7 - 1"),
        ],
    )
    def test_value_error_says_where(self, spec, error):
        with pytest.raises(ValueError, match=f"^{re.escape(error)}"):
            parse_code_file(spec)


class TestByteTables:
    """The byte-table syndrome and systematic encoding against the per-bit loops."""

    @pytest.mark.parametrize("fixture", ["simplex", "hamming", "bch15"])
    def test_every_word_of_small_codes(self, fixture, request):
        code = request.getfixturevalue(fixture)
        check_tables(code, range(1 << code.n), range(1 << code.k))
        assert [cw.value for cw in codewords(code)] == [_encode_reference(code, v) for v in range(1 << code.k)]

    @pytest.mark.parametrize(
        "fixture, count",
        [*((f"full{k}", None) for k in (*range(1, 10), 16, 17)), ("simplex", None), ("golay23", None), ("bch31", 1 << 16)],
    )
    def test_codeword_values_in_numeral_order(self, fixture, count, request):
        """The walk one byte row at a time against one table read per message:
        no head row (k <= 7), no fill bit in the last byte (k = 8, 16), seven
        fill bits (k = 9, 17), and the first 2^16 codewords of BCH[31,21]."""
        code = full_space(int(fixture[4:])) if fixture.startswith("full") else request.getfixturevalue(fixture)
        count = count or 1 << code.k
        want = [xor_bytes(code.encode_rows, v, code.k) for v in range(count)]
        assert list(islice(codeword_values(code), count)) == want

    @pytest.mark.parametrize("n", range(1, 16))
    def test_every_word_of_full_spaces(self, n):
        code = full_space(n)
        check_tables(code, range(1 << n), range(1 << n))

    @pytest.mark.parametrize(
        "fixture", ["golay23", "bch31", "hamming63", "bch63", "full127", *(f"parity{n}" for n in range(16, 24))]
    )
    def test_seeded_words(self, fixture, request):
        """The even-weight codes of length 16..23 put 0..7 fill bits in the last
        byte of both the n-bit word and the k = n - 1 bit message."""
        if fixture.startswith("parity"):
            code = from_generator(int(fixture[6:]), poly_from_coeffs([1, 1]))
        elif fixture == "full127":
            code = full_space(127)
        else:
            code = request.getfixturevalue(fixture)
        rng = random.Random(code.n * 1000 + code.k)
        words, messages = (
            [0, (1 << w) - 1, 1 << (w - 1), 1, *(rng.getrandbits(w) for _ in range(300))] for w in (code.n, code.k)
        )
        check_tables(code, words, messages)
        if fixture.startswith("parity"):
            assert all(syndrome(code, BitWord(v, code.n)) == v.bit_count() % 2 for v in words)
