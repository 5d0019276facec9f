import pytest

from qbalance.cyclic_code import (
    ENUMERATION_MAX_K,
    codewords,
    contains,
    encode_systematic,
    from_generator,
    full_space,
    min_distance,
    parse_code_file,
    poly_coeffs,
    poly_divmod,
    poly_from_coeffs,
    poly_mul,
    syndrome,
)
from qbalance.errors import CapacityError
from qbalance.words import BitWord, cyclic_shift, weight

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


class TestPolyArithmetic:
    def test_mul(self):
        # (1+X)(1+X+X^3) = 1+X^2+X^3+X^4
        assert poly_mul(0b11, 0b1011) == 0b11101

    def test_divmod_exact(self):
        q, r = poly_divmod((1 << 7) | 1, 0b11101)
        assert r == 0
        assert poly_mul(q, 0b11101) == (1 << 7) | 1

    def test_coeff_roundtrip(self):
        assert poly_from_coeffs([1, 0, 1, 1, 1]) == 0b11101
        assert poly_coeffs(0b11101, 5) == [1, 0, 1, 1, 1]


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

    def test_full_space(self):
        fs = full_space(7)
        assert (fs.n, fs.k, fs.r) == (7, 7, 0)
        assert contains(fs, W("1010101"))


class TestEncodeSystematic:
    def test_simplex_101(self, simplex):
        assert encode_systematic(simplex, W("101")) == W("1011100")

    def test_zero_message(self, simplex):
        assert encode_systematic(simplex, W("000")) == W("0000000")

    def test_simplex_111(self, simplex):
        assert encode_systematic(simplex, W("111")) == W("1110010")

    def test_message_prefix_is_preserved(self, hamming15):
        msg = W("10110100101")
        cw = encode_systematic(hamming15, msg)
        assert cw.prefix(11) == msg
        assert contains(hamming15, cw)

    def test_wrong_length(self, simplex):
        with pytest.raises(ValueError):
            encode_systematic(simplex, W("10"))


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
        big = full_space(ENUMERATION_MAX_K + 3)
        with pytest.raises(CapacityError):
            min_distance(big)


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

    def test_parity_override_round_trips(self):
        bch31 = from_generator(31, poly_from_coeffs([1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 1]))
        bch31_rows = [[(col >> j) & 1 for col in bch31.parity_cols] for j in range(bch31.r)]
        cases = [
            (7, "1,1,0,1", EXAMPLE_H),
            # BCH[31,21]: ten rows, and "parity_row_10" sorts before "parity_row_2"
            (31, "1,0,0,1,0,1,1,0,1,1,1", bch31_rows),
        ]
        for n, generator, expect in cases:
            lines = [f"n = {n}", f"generator = {generator}"]
            for j, row in enumerate(expect, start=1):
                lines.append(f"parity_row_{j} = {','.join(map(str, row))}")
            code = parse_code_file("\n".join(lines))
            rows = [[(code.parity_cols[i] >> j) & 1 for i in range(n)] for j in range(len(expect))]
            assert rows == expect
        assert code.parity_cols == bch31.parity_cols
    def test_parity_override_must_annihilate_code(self):
        lines = ["n = 7", "generator = 1,1,0,1",
                 "parity_row_1 = 1,0,0,0,0,0,0",
                 "parity_row_2 = 0,1,0,0,0,0,0",
                 "parity_row_3 = 0,0,1,0,0,0,0"]
        with pytest.raises(ValueError):
            parse_code_file("\n".join(lines))

    def test_wrong_declared_k(self):
        with pytest.raises(ValueError):
            parse_code_file("n = 7\nk = 4\ngenerator = 1,0,1,1,1")

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            parse_code_file("n = 7\ngenerator = 1,0,1,1,1\nfoo = 1")
