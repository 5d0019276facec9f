"""Binary cyclic codes over GF(2) at desk scale.

Polynomials are plain ints with bit i holding the coefficient of X**i,
so addition is XOR and divisibility is long division with shifts.  Word
position i (1-based, leftmost in the textual form) carries the
coefficient of X**(i-1); under this convention the [7,3] simplex code
generated by 1 + X^2 + X^3 + X^4 contains 1011100, read left to right.

A code is the pair (n, g): g divides X^n - 1, and both matrices come
from closed forms in g (MacWilliams & Sloane, ch. 7).  Systematic
generator row i is the word of X^i + X^k*r_i, r_i = X^(n-k+i) mod g: it
vanishes mod g because X^n = 1 there, and it is e_i on the first k
positions, so it is the unique systematic row; r_{i+1} = X*r_i mod g is
one shift and at most one XOR.  The parity-check matrix is the
circulant one: bit j of column i is the coefficient of X^(i-j) in the
reversed check polynomial X^k h(1/X), h = (X^n - 1)/g, and syndrome()
reads it.  Any other H of the same code is A*H for an invertible A, so
it would only relabel the syndromes (and the trellis states): no result
of the library depends on the choice.

Systematic encoding and syndromes are linear, so each reads its word a
byte at a time (zero bits filling the last) through a per-code table of
partial XORs, built on first use as in Sarwate's table-driven CRC: a
k-bit message takes ceil(k/8) lookups, an n-bit word ceil(n/8).  The
per-bit loop they replace is kept in the tests as the reference.

Each code also owns its coset-leader table (coset_leaders): the error
pattern of every syndrome up to the radius floor((d-1)/2), found by
rising weight without enumerating a codeword.  It holds at most
2^(n-k)+1 patterns, so it is guarded to n-k <= SYNDROME_GUARD; past it
the table holds only the zero pattern, at radius 0, which still names
every codeword.

Enumeration (codeword_values) reads no table per codeword: it XORs the
head byte rows once per message prefix, then that base onto each entry
of the last row.  It and minimum distance are guarded to k <= 24; larger
codes still construct and encode fine, and scheme_c corrects their blocks
by syndrome within the code's radius.  Building C* from it, in a fresh
process (Python 3.11.7, 2 shared CPUs), took at k = 12 (Golay[23,12])
2 ms and a peak VmHWM of 16 MB; 16 ([31,16]) 35 ms, 18 MB; 18 ([21,18])
0.13 s, 24 MB; 20 ([31,20]) 0.48 s, 45 MB; 21 (BCH[31,21]) 1.1 s, 73 MB;
24 ([27,24], 5,015,340 blocks) 10 s, 502 MB.  The peak is C* itself, one
BitWord per block.  The block length is guarded to
n <= BLOCK_MAX_N = 4095: the byte tables grow as n^2, and a full-space
stream encode peaks at 57 MB of RSS at n = 4095 and 170 MB at 8191.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count
from typing import Dict, Iterator, List, Sequence, Tuple

from .errors import CapacityError
from .words import BitWord

ENUMERATION_MAX_K = 24
SYNDROME_GUARD = 18  # n-k bound of the coset-leader table
STREAM_MEMO_MAX = 1 << 14  # entries per dict of CyclicCode.stream_memo
BLOCK_MAX_N = 4095  # the largest 2^j - 1 whose full-space stream encode stays under 64 MB

Gf2Poly = int  # bit i = coefficient of X**i


def poly_deg(p: Gf2Poly) -> int:
    if p == 0:
        raise ValueError("zero polynomial has no degree")
    return p.bit_length() - 1


def poly_divmod(a: Gf2Poly, b: Gf2Poly) -> Tuple[Gf2Poly, Gf2Poly]:
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = poly_deg(b)
    quo = 0
    while a and poly_deg(a) >= db:
        shift = poly_deg(a) - db
        quo |= 1 << shift
        a ^= b << shift
    return quo, a


def poly_from_coeffs(coeffs: Sequence[int]) -> Gf2Poly:
    """Coefficients c_0, c_1, ... of X^0, X^1, ..."""
    p = 0
    for i, c in enumerate(coeffs):
        if c not in (0, 1):
            raise ValueError(f"coefficient {c} is not a bit")
        p |= c << i
    return p


@dataclass(frozen=True)
class CyclicCode:
    """[n, k] binary cyclic code generated by g.

    parity_cols[i] is column h_{i+1} of the circulant H packed as an int,
    bit r = row r.
    gen_rows are the systematic generator rows in word form (first k
    positions form the identity), so encoding is a handful of XORs.
    encode_rows and syndrome_rows are their byte tables (see xor_bytes).
    """

    n: int
    k: int
    generator: Gf2Poly
    parity_cols: Tuple[int, ...]
    gen_rows: Tuple[int, ...]

    @property
    def r(self) -> int:
        return self.n - self.k

    @cached_property
    def encode_rows(self) -> Tuple[Tuple[int, ...], ...]:
        return _byte_table(self.gen_rows)

    @cached_property
    def syndrome_rows(self) -> Tuple[Tuple[int, ...], ...]:
        return _byte_table(self.parity_cols)

    @cached_property
    def stream_memo(self) -> Tuple[OrderedDict[int, Tuple[int, ...]], OrderedDict[int, Tuple[int, ...]]]:
        """scheme_c's stream memos, filled by every stream call on this code:
        {packet: (tau, |Gamma(c)|, its width, block)} for stream_encode and
        {received block: (its nearest C* block stripped, |Gamma|, width)} for
        stream_decode.  Each is a pure function of its key, so an entry holds
        for every later call; an exception is never stored.

        Each dict keeps the newest STREAM_MEMO_MAX = 2^14 entries: an insert
        at the cap first drops the oldest, so a memo filled with blocks that
        never repeat (noisy ones) still takes in the next ones.  2^14 holds
        every packet of a code with k <= 14 (all 4,096 of Golay[23,12])
        and every block within radius 2 of BCH[15,7]'s 48 C* blocks (6,576).
        Measured with tracemalloc on BCH[31,21] streams, where nothing repeats
        (Python 3.11.7; keys, values and the OrderedDict together), the
        encode memo holds 2^10 entries in 0.23 MB, 2^12 in 0.91 MB and 2^14
        in 3.6 MB (221 bytes an entry), and the decode memo 2^10 in 0.19 MB,
        2^12 in 0.74 MB and 2^14 in 2.9 MB (180 bytes): at the cap a code
        holds about 6.5 MB of memo, 48 bytes an entry more than a plain dict
        would, for its order.  Neither dict takes part in ==, hash or repr.
        """
        return OrderedDict(), OrderedDict()

    @cached_property
    def coset_leaders(self) -> Tuple[Dict[int, int], int]:
        """({syndrome: error pattern}, t) over the patterns of weight <= t, where
        t is the largest weight at which every pattern has its own syndrome;
        ({0: 0}, 0) when n-k exceeds SYNDROME_GUARD.

        Patterns are taken by rising weight, and the table stops at the first
        repeated syndrome, so it computes at most 2^(n-k)+1 of them.  A repeat
        at weight w means two patterns of weight <= w differ by a codeword, so
        d <= 2w; none below it means d >= 2w-1.  Hence t = w-1 = floor((d-1)/2),
        found without enumerating a codeword.  Each weight-w pattern is a
        weight-(w-1) one with one more position set past its last, so its
        syndrome is one XOR of a parity column onto that pattern's.
        """
        if self.r > SYNDROME_GUARD:
            return {0: 0}, 0
        n, cols = self.n, self.parity_cols
        leaders: Dict[int, int] = {0: 0}
        layer = [(0, 0, 0)]  # (pattern, syndrome, first free position) of each pattern of weight w - 1
        for w in count(1):  # k >= 1, so some two patterns share a syndrome
            below, layer = layer, []
            for e, syn, start in below:
                for p in range(start, n):
                    x, s = e | 1 << (n - 1 - p), syn ^ cols[p]
                    if s in leaders:
                        return {s: x for s, x in leaders.items() if x.bit_count() < w}, w - 1
                    leaders[s] = x
                    layer.append((x, s, p + 1))


def _byte_table(vectors: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    """rows[i][b]: XOR of vectors[8i + j] over the bits of byte b, bit 7 being
    j = 0; past the last vector a bit adds nothing."""
    rows = []
    for i in range(0, len(vectors), 8):
        row = [0]
        for v in reversed([*vectors[i : i + 8], 0, 0, 0, 0, 0, 0, 0][:8]):  # bit 0 of b first
            row += [r ^ v for r in row]
        rows.append(tuple(row))
    return tuple(rows)


def xor_bytes(rows: Tuple[Tuple[int, ...], ...], value: int, length: int) -> int:
    """XOR of the vectors at the set bits of the length-bit value (position 1
    the top bit), read through the byte table rows."""
    out = 0
    for row, b in zip(rows, (value << (-length & 7)).to_bytes(len(rows), "big")):
        out ^= row[b]
    return out


def from_generator(n: int, g: Gf2Poly) -> CyclicCode:
    """Build the [n, n - deg g] cyclic code generated by g.

    Fails unless g divides X^n - 1, and raises CapacityError past
    n = BLOCK_MAX_N.  Systematic row i is the word of X^i + X^k*r_i,
    r_i = X^(n-k+i) mod g; bit j of parity column i is the coefficient of
    X^(i-j) in the reversed check polynomial.
    """
    if n > BLOCK_MAX_N:
        raise CapacityError(f"n={n} exceeds block-length guard {BLOCK_MAX_N}")
    if g <= 0:
        raise ValueError("generator must be a nonzero polynomial")
    r = poly_deg(g)
    if r >= n:
        raise ValueError(f"deg(g)={r} must be < n={n}")
    h, rem = poly_divmod((1 << n) | 1, g)  # X^n - 1 == X^n + 1 over GF(2)
    if rem:
        raise ValueError(f"generator {bin(g)} does not divide X^{n} - 1")

    k = n - r
    # r_i on the last r positions, X^(k+j) at bit r-1-j, where X*r_i is a right shift
    top = int(format(g, "b")[::-1], 2) >> 1  # X^r mod g
    rows, tail = [], top
    for i in range(k):
        rows.append((1 << (n - 1 - i)) | tail)
        tail = (tail >> 1) ^ (top if tail & 1 else 0)
    cols = tuple(((h << i) >> k) & ((1 << r) - 1) for i in range(n))
    return CyclicCode(n=n, k=k, generator=g, parity_cols=cols, gen_rows=tuple(rows))


def full_space(n: int) -> CyclicCode:
    """The degenerate [n, n] code: every word is a codeword."""
    return from_generator(n, 1)


def syndrome(code: CyclicCode, w: BitWord) -> int:
    if w.length != code.n:
        raise ValueError(f"word length {w.length} != n={code.n}")
    return xor_bytes(code.syndrome_rows, w.value, code.n)


def contains(code: CyclicCode, w: BitWord) -> bool:
    return syndrome(code, w) == 0


def codeword_values(code: CyclicCode) -> Iterator[int]:
    """Every codeword's int, in message numeral order, one byte row at a time:
    the head rows' XOR once per message prefix, then that base XORed onto each
    entry of the last row whose fill bits are zero."""
    if code.k > ENUMERATION_MAX_K:
        raise CapacityError(f"k={code.k} exceeds enumeration guard {ENUMERATION_MAX_K}")
    *head, last = code.encode_rows
    bases, ends = [0], last[:: 1 << (-code.k & 7)]
    for row in head:
        bases = [b ^ x for b in bases for x in row]
    return chain.from_iterable(map(b.__xor__, ends) for b in bases)


def codewords(code: CyclicCode) -> Iterator[BitWord]:
    return (BitWord(v, code.n) for v in codeword_values(code))


def min_distance(code: CyclicCode) -> int:
    """Exhaustive minimum nonzero codeword weight."""
    return min(filter(None, map(int.bit_count, codeword_values(code))))


def parse_code_file(text: str) -> CyclicCode:
    """Code-spec format: `key = value` lines.

    Required: n, generator (comma-separated coefficients g0..g_{n-k}).
    Optional: k (validated).  '#' starts a comment.  Each key appears
    once, and no other key is accepted; an error in one key's value, an
    n past BLOCK_MAX_N and an unknown key each name their line.
    """
    fields: Dict[str, str] = {}
    lines: Dict[str, int] = {}  # the line number of each key
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in fields:
            raise ValueError(f"line {lineno}: key '{key}' already set on line {lines[key]}")
        fields[key], lines[key] = val, lineno
    if "n" not in fields or "generator" not in fields:
        raise ValueError("code spec needs at least 'n' and 'generator'")

    def read(key: str, convert):
        try:
            return convert(fields.pop(key))
        except ValueError as exc:
            raise ValueError(f"line {lines[key]}: {key}: {exc}") from None

    def ints(val: str) -> List[int]:
        return [int(c) for c in val.split(",")]

    n = read("n", int)
    try:
        code = read("generator", lambda val: from_generator(n, poly_from_coeffs(ints(val))))
    except CapacityError as exc:  # the guard on n
        raise CapacityError(f"line {lines['n']}: n: {exc}") from None
    k_declared = read("k", int) if "k" in fields else None
    if fields:  # in file order, so the first is the first unknown key
        key = next(iter(fields))
        raise ValueError(f"line {lines[key]}: unknown key '{key}'")

    if k_declared is not None and k_declared != code.k:
        raise ValueError(f"line {lines['k']}: declared k={k_declared} but generator implies k={code.k}")
    return code
