"""Binary cyclic codes over GF(2) at desk scale.

Polynomials are plain ints with bit i holding the coefficient of X**i,
so addition is XOR and divisibility is long division with shifts.  Word
position i (1-based, leftmost in the textual form) carries the
coefficient of X**(i-1); under this convention the [7,3] simplex code
generated by 1 + X^2 + X^3 + X^4 contains 1011100, read left to right.

The parity-check matrix defaults to the standard circulant arrangement:
row j holds the reversed check polynomial shifted j places.  An explicit
row override is accepted (and validated against the code) because the
shift-tracking trellis depends on the exact column order of H.

Systematic encoding and syndromes are linear, so each reads its word a
byte at a time (zero bits filling the last) through a per-code table of
partial XORs, built on first use as in Sarwate's table-driven CRC: a
k-bit message takes ceil(k/8) lookups, an n-bit word ceil(n/8).  The
per-bit loop they replace is kept in the tests as the reference.

Each code also owns its coset-leader table (coset_leaders): the error
pattern of every syndrome up to the radius floor((d-1)/2), found by
rising weight without enumerating a codeword.  It holds at most
2^(n-k)+1 patterns, so it is guarded to n-k <= SYNDROME_GUARD, the bound
the syndrome trellis shares; past it the table holds only the zero
pattern, at radius 0, which still names every codeword.

Enumeration and minimum distance are guarded to k <= 24; larger codes
still construct and encode fine, and scheme_c corrects their blocks by
syndrome within the code's radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import CapacityError
from .words import BitWord, weight

ENUMERATION_MAX_K = 24
SYNDROME_GUARD = 18  # n-k bound of the coset-leader table and the trellis

Gf2Poly = int  # bit i = coefficient of X**i


def poly_deg(p: Gf2Poly) -> int:
    if p == 0:
        raise ValueError("zero polynomial has no degree")
    return p.bit_length() - 1


def poly_mul(a: Gf2Poly, b: Gf2Poly) -> Gf2Poly:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


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


def poly_coeffs(p: Gf2Poly, length: int) -> List[int]:
    return [(p >> i) & 1 for i in range(length)]


@dataclass(frozen=True)
class CyclicCode:
    """[n, k] binary cyclic code with fixed parity-check columns.

    parity_cols[i] is column h_{i+1} of H packed as an int, bit r = row r.
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
    def coset_leaders(self) -> Tuple[Dict[int, int], int]:
        """({syndrome: error pattern}, t) over the patterns of weight <= t, where
        t is the largest weight at which every pattern has its own syndrome;
        ({0: 0}, 0) when n-k exceeds SYNDROME_GUARD.

        Patterns are taken by rising weight, and the table stops at the first
        repeated syndrome, so it computes at most 2^(n-k)+1 of them.  A repeat
        at weight w means two patterns of weight <= w differ by a codeword, so
        d <= 2w; none below it means d >= 2w-1.  Hence t = w-1 = floor((d-1)/2),
        found without enumerating a codeword.
        """
        if self.r > SYNDROME_GUARD:
            return {0: 0}, 0
        n, rows = self.n, self.syndrome_rows
        leaders: Dict[int, int] = {}
        for w in range(n + 1):
            for pos in combinations(range(n), w):
                e = sum(1 << (n - 1 - p) for p in pos)
                syn = xor_bytes(rows, e, n)
                if syn in leaders:
                    return {s: x for s, x in leaders.items() if x.bit_count() < w}, w - 1
                leaders[syn] = e
        return leaders, n


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


def _word_int_from_poly(p: Gf2Poly, n: int) -> int:
    """Poly -> word-convention int (position 1 = MSB = coeff of X^0)."""
    v = 0
    for i in range(n):
        if (p >> i) & 1:
            v |= 1 << (n - 1 - i)
    return v


def _parity_row(entries: Sequence[int], j: int, n: int) -> List[int]:
    """Row j (from 1) of an H override, checked to be n bits."""
    if len(entries) != n:
        raise ValueError(f"parity row {j} has {len(entries)} entries, not {n}")
    for i, c in enumerate(entries, start=1):
        if c not in (0, 1):
            raise ValueError(f"parity row {j} position {i}: {c} is not a bit")
    return list(entries)


def _default_parity_rows(n: int, k: int, h: Gf2Poly) -> List[List[int]]:
    hrev = poly_from_coeffs(list(reversed(poly_coeffs(h, k + 1))))
    rows = []
    for j in range(n - k):
        shifted = poly_coeffs(hrev << j, n)
        rows.append(shifted)
    return rows


def _check_generator(n: int, g: Gf2Poly) -> Gf2Poly:
    """(X^n - 1) / g; raises unless g is nonzero, of degree < n, and
    divides X^n - 1."""
    if g <= 0:
        raise ValueError("generator must be a nonzero polynomial")
    if poly_deg(g) >= n:
        raise ValueError(f"deg(g)={poly_deg(g)} must be < n={n}")
    xn1 = (1 << n) | 1  # X^n - 1 == X^n + 1 over GF(2)
    h, rem = poly_divmod(xn1, g)
    if rem:
        raise ValueError(f"generator {bin(g)} does not divide X^{n} - 1")
    return h


def from_generator(
    n: int, g: Gf2Poly, parity_rows: Optional[Sequence[Sequence[int]]] = None
) -> CyclicCode:
    """Build the [n, n - deg g] cyclic code generated by g.

    Fails unless g divides X^n - 1.  parity_rows, when given, replaces
    the derived H row-by-row; it must still annihilate the code.
    """
    h = _check_generator(n, g)
    k = n - poly_deg(g)

    rows = (
        [_parity_row(r, j, n) for j, r in enumerate(parity_rows, start=1)]
        if parity_rows is not None
        else _default_parity_rows(n, k, h)
    )
    if len(rows) != n - k:
        raise ValueError(f"parity check must be {n - k} rows of length {n}")
    cols = tuple(
        sum(rows[j][i] << j for j in range(n - k)) for i in range(n)
    )

    # Row-reduce the polynomial generator matrix to systematic form.
    raw = [_word_int_from_poly(g << j, n) for j in range(k)]
    for col in range(k):
        pivot_bit = 1 << (n - 1 - col)
        pivot = next((r for r in range(col, k) if raw[r] & pivot_bit), None)
        if pivot is None:
            raise ValueError("generator matrix is not systematic-reducible")
        raw[col], raw[pivot] = raw[pivot], raw[col]
        for r in range(k):
            if r != col and raw[r] & pivot_bit:
                raw[r] ^= raw[col]

    code = CyclicCode(n=n, k=k, generator=g, parity_cols=cols, gen_rows=tuple(raw))
    for row in raw:
        if _syndrome_int(code, row):
            raise ValueError("parity-check rows do not annihilate the code")
    return code


def full_space(n: int) -> CyclicCode:
    """The degenerate [n, n] code: every word is a codeword."""
    return from_generator(n, 1)


def encode_systematic(code: CyclicCode, msg: BitWord) -> BitWord:
    """Codeword whose first k positions equal msg."""
    if msg.length != code.k:
        raise ValueError(f"message length {msg.length} != k={code.k}")
    return BitWord(xor_bytes(code.encode_rows, msg.value, code.k), code.n)


def _syndrome_int(code: CyclicCode, value: int) -> int:
    return xor_bytes(code.syndrome_rows, value, code.n)


def syndrome(code: CyclicCode, w: BitWord) -> int:
    if w.length != code.n:
        raise ValueError(f"word length {w.length} != n={code.n}")
    return _syndrome_int(code, w.value)


def contains(code: CyclicCode, w: BitWord) -> bool:
    return syndrome(code, w) == 0


def codewords(code: CyclicCode) -> Iterator[BitWord]:
    if code.k > ENUMERATION_MAX_K:
        raise CapacityError(f"k={code.k} exceeds enumeration guard {ENUMERATION_MAX_K}")
    rows, n, k = code.encode_rows, code.n, code.k
    for v in range(1 << k):
        yield BitWord(xor_bytes(rows, v, k), n)


@lru_cache(maxsize=None)
def min_distance(code: CyclicCode) -> int:
    """Exhaustive minimum nonzero codeword weight."""
    best = code.n + 1
    for cw in codewords(code):
        if cw.value and weight(cw) < best:
            best = weight(cw)
    if best > code.n:
        raise ValueError("code has no nonzero codeword")
    return best


def parse_code_file(text: str) -> CyclicCode:
    """Code-spec format: `key = value` lines.

    Required: n, generator (comma-separated coefficients g0..g_{n-k}).
    Optional: k (validated), parity_row_1 .. parity_row_{n-k} (all rows
    or none).  '#' starts a comment.  Each key appears once; an error in
    one key's value names that key and its line.
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
    def generator(val: str) -> Gf2Poly:
        g = poly_from_coeffs(ints(val))
        _check_generator(n, g)
        return g

    g = read("generator", generator)
    k_declared = read("k", int) if "k" in fields else None

    row_keys = {key for key in fields if key.startswith("parity_row_")}
    parity = None
    if row_keys:
        k = n - poly_deg(g)
        expect = [f"parity_row_{j}" for j in range(1, n - k + 1)]
        if row_keys != set(expect):
            raise ValueError(f"need all of {expect}, got {sorted(row_keys)}")
        parity = [read(key, lambda val, j=j: _parity_row(ints(val), j, n)) for j, key in enumerate(expect, start=1)]
    if fields:
        raise ValueError(f"unknown keys in code spec: {sorted(fields)}")

    code = from_generator(n, g, parity)
    if k_declared is not None and k_declared != code.k:
        raise ValueError(f"line {lines['k']}: declared k={k_declared} but generator implies k={code.k}")
    return code
