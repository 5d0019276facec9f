"""Scheme A: length-n messages to q-balanced length-n codewords.

A message is classified by whether it, or its complement, has any
q-balancing index; words with neither ("bad" words) have their last 2q
bits replaced by a constant run, which always restores an index.  The
minimal index tau is transmitted as its rank inside the receiver-side
index set Gamma(c), so the prefix width is ceil(log2 |Gamma(c)|) bits
instead of log2 n.

Prefix layout, bit-exact:

    good word:  [flag 0][type bit i][z]
    bad word:   [flag 1][type bit i][z][last 2q message bits]
    q = 0:      [z]                      (every word is Type-1-good)

where z is the rank of tau in Gamma(c).  Scheme B runs the same prefix
codec (_balance, _unbalance) with its own target weights and a (2q-2)-bit
tail.  The codec works on the words' integers and builds BitWords only
for what it returns.  The encoder needs two integers of Gamma(c), its
size and tau's rank, and one words.level_walk, at the levels the target
weights put on the running sum, returns both with tau; the decoder needs
|Gamma(c)| and Gamma(c)[rank], one words.select_walk; both read the word
8 bits at a time, and neither lists Gamma(c).  gamma_set_a and
gamma_set_b list it, as per-bit references over words.fresh_indices that
no codec path calls.  _balance walks the complement only when a mirrored
level lies in the range of the running sum R that a miss on the message
reports (the complement's is -R), and a bad word's replacement
otherwise: 1 / 2 / 2 level walks per Type-1-good
/ Type-0-good / bad word per encode, and one select walk per decode.
At n = 16 the walks are about 40-45% of an encode and of a decode, so
the fixed per-message work is kept small: _unbalance reads the prefix
fields off its integer with shifts, EncodeResult is a slotted dataclass,
and each Classification member holds is_bad and type_bit.

The analysis counts with exact integers and sums rho over floats.  The
bad-word census of A and of B, _census, is one residue class of the
binomial row C(n, .) or C(n-1, .), stepped and not kept (_binom_class);
rho reads its bad share instead in closed float form, a sum of q - 1
cosine powers within 3e-13 relative, so no rho forms a big integer.
The Gamma-size distribution is one termwise reflection sum, _histogram_a,
with one term per mirrored pair of reflections, over the half of a
binomial row at or below its centre, stepped outwards: over the integers
C(n, j) it is the exact gamma_counts_a, and over the shares C(n, j)/2^n
(exact=False) it is what rho reads.  Every scheme's rho, here and in
scheme_b, scheme_c and trellis, is one histogram_sum over its |Gamma|
histogram or shares composed by rho_parts; the one pass gives both the
analytical (log2) and the operational (ceil width) figure.

Analysis guards.  Each exact output in a fresh process (Python 3.11,
2 shared x86-64 CPUs, one run each; gamma_counts_a and gamma_counts_b
the median of 3 runs at q = 0 (A 7 at 2^15), of A's pair form and B's
stepped form; rho_a_bound the median of 5, from _centre_share; peak
RSS, about 16 MB before the call; censuses at q = 3):

    n        gamma_counts_a  gamma_counts_b  gamma_counts_fullspace
    2^12     0.05 s  18 MB   0.005 s  16 MB   0.016 s  17 MB
    2^13     0.20 s  25 MB   0.018 s  18 MB   0.087 s  22 MB
    2^14     0.64 s  54 MB   0.062 s  28 MB   0.46 s   42 MB
    2^15     2.5 s  167 MB   0.23 s   66 MB   3.1 s   121 MB
    2^16     9.4 s  615 MB   0.92 s  215 MB  20.7 s   434 MB

    n        count_bad  count_bad_b  math.comb(n, n/2)  rho_a_bound(n, 0)
    2^16     0.52 s     0.52 s       0.09 s             0.06 s  17 MB
    2^17     2.0 s      2.1 s        0.27 s             0.07 s  18 MB
    2^18     8.4 s      8.4 s        0.99 s
    2^19     33 s       35 s         4.0 s
    10^6     over 60 s               11.9 s

Printing costs more than computing: at 2^15 `analyze gamma --scheme a`
takes 12.8 s in a fresh process, against 2.5 s for the histogram, most of
it turning counts of up to 9,900 digits into decimal text; its 168 MB
peak is the histogram's.
The histograms keep a row of big integers, so their memory grows as
n^2 (at 2^16 _histogram_a and _histogram_b are called past the guard); the
censuses and math.comb keep one binomial (16 MB throughout) and
their time grows as n^2.  The histograms therefore raise CapacityError
past n = HISTOGRAM_MAX_N = 2^15, and count_bad, count_bad_b and
optimal_redundancy's math.comb(n, .) past n = STEPPED_MAX_N = 2^17,
which admits every rho at n = 2^16.

The float rho forms no big integer: the share rows of A and B start at
_centre_share, the bad share is _census's float form, and each share is
summed as it is stepped (histogram_sum over a stream of pairs), so no
rho builds a dict.  rho_c_fullspace holds n/4 floats, the lower half of
its row of n/2.  The three share one guard, RHO_MAX_N = 2^24, set from
this curve (one fresh process each; q = 0 and 6; peak VmHWM):

    n      rho_a_bound          rho_b                 rho_c_fullspace
    2^17   0.03  0.02 s  17 MB  0.003 0.005 s  16 MB  0.03 s   17 MB
    2^18   0.04  0.03 s  18 MB  0.004 0.009 s  16 MB  0.06 s   18 MB
    2^19   0.05  0.04 s  19 MB  0.006 0.010 s  16 MB  0.11 s   21 MB
    2^20   0.07  0.07 s  20 MB  0.008 0.015 s  16 MB  0.24 s   26 MB
    2^21   0.13  0.08 s  22 MB  0.011 0.020 s  16 MB  0.47 s   36 MB
    2^22   0.17  0.12 s  25 MB  0.015 0.032 s  16 MB  0.91 s   56 MB
    2^23   0.25  0.21 s  28 MB  0.023 0.047 s  16 MB  1.8 s    96 MB
    2^24   0.35  0.24 s  33 MB  0.044 0.049 s  16 MB  3.7 s   176 MB

rho_c_fullspace sets it, at about twice the time and memory per
doubling.  At the largest q = n/2, B's q + 1 steps to its first share
lead instead; the census stops at its first cosine power that is 0.0
(at 2^22, 25,165 of its 2,097,151 terms are not), which cut rho_a_bound
from 1.36 to 0.21 s at 2^22 and from 6.8 to 0.90 s at 2^24 (q = n/2):

    n      rho_a_bound      rho_b
    2^18   0.03 s  19 MB    0.05 s  16 MB
    2^20   0.09 s  23 MB    0.18 s  16 MB
    2^22   0.21 s  39 MB    0.54 s  16 MB
    2^24   0.90 s  96 MB    2.3 s   16 MB
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from itertools import accumulate, takewhile
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from .errors import CapacityError, DecodeError
from .words import BitWord, fresh_indices, level_walk, select_walk, weight


class Classification(enum.Enum):
    TYPE1_GOOD = "type-1-good"
    TYPE0_GOOD = "type-0-good"
    TYPE1_BAD = "type-1-bad"
    TYPE0_BAD = "type-0-bad"

    def __init__(self, label: str):
        # read off the label once per member, not on every access
        self.is_bad = label.endswith("-bad")
        self.type_bit = int(label.startswith("type-1"))


@dataclass(slots=True)
class EncodeResult:
    """Codeword plus the variable-length prefix that inverts it."""

    codeword: BitWord
    prefix: BitWord
    classification: Optional[Classification]
    tau: int


def rank_width(size: int) -> int:
    """Bits needed to address `size` ranks: ceil(log2 size), 0 when size == 1."""
    return (size - 1).bit_length()


def _check_length(n: int) -> None:
    if n < 2:
        raise ValueError(f"block length n={n} must be at least 2")
    if n % 2:
        raise ValueError(f"block length {n} must be even")


def _check_params(n: int, q: int) -> None:
    _check_length(n)
    if not 0 <= q <= n // 2:
        raise ValueError(f"imbalance parameter q={q} out of range 0..{n // 2}")


def gamma_set_a(c: BitWord, q: int) -> List[int]:
    """Indices whose running-sum value is new, ascending; the receivable
    taus.  A per-bit reference: the codec reads Gamma(c) off its walks."""
    n = c.length
    _check_params(n, q)
    if weight(c) != n // 2 + q:
        raise ValueError(f"weight {weight(c)} != target {n // 2 + q}")
    return fresh_indices(c)


def _balance(v: int, n: int, q: int, targets: Dict[int, int], run: int):
    """The prefix scheme shared by A and B: classify, substitute, flip, rank.

    targets maps each codeword weight the scheme aims at to the sign of
    its Gamma walk.  The word balanced is v (Type-1-good), its complement
    (Type-0-good), or v with its last `run` bits replaced by the run of
    its type bit (bad); the level walk that hits fixes the class, tau,
    the least flip index, and |Gamma(c)| and tau's rank in it.  A walk
    that misses v reports the range of its running sum R, and the
    complement's is -R, so its walk is taken only when a mirrored level
    t + v.bit_count() - n lies in that range.  Returns (codeword, prefix, prefix length,
    classification, tau), the words as ints.
    """
    xh, cls = v, Classification.TYPE1_GOOD
    hit = level_walk(v, n, targets)
    if len(hit) == 2:
        (low, high), shift = hit, v.bit_count() - n
        for t in targets:
            if low <= t + shift <= high:
                xh, cls = v ^ ((1 << n) - 1), Classification.TYPE0_GOOD
                break
        else:
            # Replacing the last `run` bits by i^run restores an index; i follows
            # the truncated weight so the replacement is provably Type-1-good.
            if (v >> run).bit_count() > (n + 1) // 2 - q:
                xh, cls = v >> run << run | ((1 << run) - 1), Classification.TYPE1_BAD
            else:
                xh, cls = v >> run << run, Classification.TYPE0_BAD
        hit = level_walk(xh, n, targets)
    tau, size, z = hit
    c = xh ^ (((1 << tau) - 1) << (n - tau))
    r = rank_width(size)
    if q == 0:
        return c, z, r, cls, tau
    prefix = (cls.is_bad << 1 | cls.type_bit) << r | z
    if cls.is_bad:
        return c, prefix << run | v & ((1 << run) - 1), r + 2 + run, cls, tau
    return c, prefix, r + 2, cls, tau


def _unbalance(c: int, n: int, p: BitWord, sign: int, q: int, run: int) -> int:
    """Invert _balance on the length-n codeword c, whose Gamma walk has the
    given sign; with q = 0 the prefix is a bare rank read as flag 0, type 1.
    Every DecodeError names the field and its bit; `left` counts the bits
    not yet read.  A well-formed prefix ends with its rank and tail, so the
    rank is read on the width that leaves, and one select walk gives |Gamma|
    and the index at that rank; a prefix whose width differs from
    rank_width(|Gamma|) fails one of the checks below, before tau is used."""
    bits, length = p.value, p.length
    if q == 0:
        flag, type_bit, left = 0, 1, length
    elif length < 2:
        name, pos = ("flag", 0) if length == 0 else ("type bit", 1)
        raise DecodeError(f"prefix too short: {name} at bit {pos} needs 1 bits, {length - pos} left")
    else:
        flag, type_bit, left = bits >> (length - 1), bits >> (length - 2) & 1, length - 2
    # the rank is the bits between the type bit and the tail; another width fails a check below
    size, tau = select_walk(c, n, sign, bits >> run * flag & (1 << left >> run * flag) - 1)
    r = rank_width(size)
    if left < r:
        raise DecodeError(f"prefix too short: rank at bit {length - left} needs {r} bits, {left} left")
    left -= r
    rank = bits >> left & ((1 << r) - 1)
    if rank >= size:
        raise DecodeError(f"rank {rank} at bit {length - left - r} out of range for |Gamma|={size}")
    if flag:
        if left < run:
            raise DecodeError(f"prefix too short: bad-word tail at bit {length - left} needs {run} bits, {left} left")
        left -= run
    if left:
        raise DecodeError(f"trailing bits at bit {length - left}: {left} after the prefix")
    xh = c ^ (((1 << tau) - 1) << (n - tau))
    if flag:
        return (xh >> run << run) | bits & ((1 << run) - 1)
    return xh if type_bit else xh ^ ((1 << n) - 1)


def encode_a(x: BitWord, q: int) -> EncodeResult:
    n = x.length
    _check_params(n, q)
    c, p, plen, cls, tau = _balance(x.value, n, q, {n // 2 + q: 0}, 2 * q)
    return EncodeResult(BitWord(c, n), BitWord(p, plen), cls, tau)


def decode_a(c: BitWord, p: BitWord, n: int, q: int) -> BitWord:
    """Invert encode_a; raises DecodeError on a wrong-weight codeword or a
    malformed prefix."""
    _check_params(n, q)
    if c.length != n:
        raise ValueError(f"codeword length {c.length} != {n}")
    wt = c.value.bit_count()
    if wt != n // 2 + q:
        raise DecodeError(f"codeword weight {wt} != target {n // 2 + q}")
    return BitWord(_unbalance(c.value, n, p, 0, q, 2 * q), n)


# ---------------------------------------------------------------------------
# Census and redundancy analysis


# Largest n of the exact outputs, set from the table in the module docstring.
HISTOGRAM_MAX_N = 1 << 15  # gamma_counts_a, gamma_counts_b, gamma_counts_fullspace
STEPPED_MAX_N = 1 << 17  # count_bad, count_bad_b, optimal_redundancy, lattice.count_banded
RHO_MAX_N = 1 << 24  # the float rho of A, B and C: rho_a_parts, scheme_b.rho_b_parts, scheme_c.rho_c_parts


def _guard(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise CapacityError(f"n={n} exceeds the {what} guard {limit}")


def _binom_class(n: int, r: int, d: int) -> int:
    """Sum of C(n, j) over the j = r (mod d): the first half of the row is
    stepped by the recurrence and read with its mirror, and none is kept."""
    c, total, r = 1, 0, r % d
    for j in range(n // 2 + 1):
        if j % d == r:
            total += c
        if (n - j) % d == r and 2 * j != n:
            total += c
        c = c * (n - j) // (j + 1)
    return total


def _census(n: int, q: int, appended: int, exact: bool):
    """Bad-word census of A (appended = 0) and of scheme_b (appended = 1),
    whose messages have N = n - appended bits: the paths confined to a
    strip of d = 2q - appended heights, whose reflection sums (ruin in a
    strip, Feller vol. 1, XIV.5) telescope to 2^N - d * (sum of C(N, j)
    over j = r = n/2 + q - appended mod d), the exact count; 0 for q <= 1.

    With exact=False it is the bad share count / 2^N in closed form, the
    float rho reads: the roots-of-unity filter turns the residue class into
    -(sum over k = 1..d-1 of cos^N(pi k/d) cos(pi k (N - 2r)/d)), and
    N - 2r = -d, so the terms k and d - k are equal and the share is
    2 * (sum over k = 1..ceil(d/2)-1 of (-1)^(k+1) cos^N(pi k/d)), each
    power taken as exp(N log1p(-2 sin^2(pi k/2d))); a plain cos(.)**N
    moved rho_b by up to 2.2e-14 (n = 512, q = 20).  It forms no big
    integer.  Over A and B at every even n in 4..198 and n in {256, 512,
    1000, 1024, 2048, 4096, 16384}, 2 <= q <= min(40, n/2), it is within
    2.41e-13 relative of the exact share wherever that is a normal float
    (bound 3e-13; the error grows with |log share|, so the worst are the
    least normal shares), and below 1e-300 wherever it underflows.  Both
    instances check n and q, guard n, the exact one by STEPPED_MAX_N and
    the float one by the guard of the rho that reads it, RHO_MAX_N, then
    give 0 or 0.0 for q <= 1.
    """
    _check_params(n, q)
    _guard(n, *((STEPPED_MAX_N, "bad-word census") if exact else (RHO_MAX_N, "float rho")))
    if q <= 1:
        return 0 if exact else 0.0
    big_n, d = n - appended, 2 * q - appended
    if exact:
        return (1 << big_n) - d * _binom_class(big_n, n // 2 + q - appended, d)
    x = math.pi / (2 * d)  # the angle pi k/2d is k x
    # the powers fall strictly in k, so past the first 0.0 every one is 0.0
    powers = (math.exp(big_n * math.log1p(-2 * math.sin(k * x) ** 2)) for k in range(1, (d + 1) // 2))
    return -2 * sum(((-1) ** k * power for k, power in enumerate(takewhile(bool, powers), 1)), 0.0)


def count_bad(n: int, q: int) -> int:
    """Exact number of length-n words with no index for x or its complement.

    Bad words are the paths from heights 1-q..q-1 confined weakly inside
    the band [1-q, q-1].  Their reflection sums telescope to
    2^n - 2q * (sum of C(n, j) over j = m+q mod 2q).
    """
    return _census(n, q, 0, True)


# B_2k / (2k (2k - 1)) for k = 1..7, the Stirling series of ln z! (Abramowitz & Stegun 6.1.40)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _centre_share(n: int) -> float:
    """C(n, m)/2^n for even n = 2m: math.comb below n = 64, and above it
    exp(f(n) - 2 f(m)) / sqrt(pi m), where f(z) is ln z! less z ln z - z +
    ln(2 pi z)/2, summed as its 7-term Stirling series, so no big integer
    is formed.  Within 2 ulps of the correctly rounded share at every even
    n in 64..5000 and at n = 2^7..2^17."""
    if n < 64:
        return math.comb(n, n // 2) / (1 << n)
    f_n, f_m = (sum(c / z ** (2 * k + 1) for k, c in enumerate(_STIRLING)) for z in (n, n // 2))
    return math.exp(f_n - 2 * f_m) / math.sqrt(math.pi * n / 2)


def gamma_counts_a(n: int, q: int) -> Dict[int, int]:
    """{i: number of q-balanced length-n words with |Gamma| = i} over the
    sizes i with a nonzero count, ascending: _histogram_a over the
    integers C(n, j)."""
    _check_params(n, q)
    _guard(n, HISTOGRAM_MAX_N, "exact histogram")
    return dict(_histogram_a(n, q, True))


def _histogram_a(n: int, q: int, exact: bool) -> Iterator[Tuple[int, Any]]:
    """Scheme A's |Gamma| histogram as (size, entry) pairs over the sizes
    with a nonzero entry, ascending, as exact counts or (exact=False) as
    float shares of 2^n.
    Every size is at least 2q + 1 and never 1: no word of length n >= 2
    has |Gamma| = 1, so the span s = 0 is left out, where the shares
    leave a residue of about 1e-17.

    |Gamma(c)| is 1 plus the range r = max - min of the running sum of c,
    a lattice bridge from (0, q) to (m+q, m).  A bridge of range r lies in
    max(0, s + 1 - r) positions of a band of span s, so the count swept
    over every position, S(s), has the second difference N_s, the number
    of bridges of range s (|Gamma| = s+1).  With F(j) the row's sum below
    j, reflection gives S(s) = sum over all k of T_k(s) = P C(n, x_k) -
    F(y_k) + F(x_k + 1), with P = s-2q+1, x_k = m+q - k(s+2) and y_k = m-q
    + (1-k)(s+2), for s >= 2q-2; T_k = 0 at s = 2q-2 and 2q-1.

    The mirror C(n, j) = C(n, n-j), F(j) = 2^n - F(n+1-j) turns T_{1-u}
    into P C(n, y_u) + F(x_u + 1) - F(y_u), so each pair u >= 1 is one term

        G_u(s) = T_u + T_{1-u} = P [C(n, x_u) + C(n, y_u)] - 2 W_u(s),

    with W_u = F(y_u) - F(x_u + 1) the P entries strictly between x_u and
    y_u = x_u + P + 1 = m-q - (u-1)(s+2), the window.  Every read lies at
    or below the centre m, so the row keeps one side only.  N_s is the sum
    over u of the second difference of each G_u alone, G_u(s) - 2 G_u(s-1)
    + G_u(s-2): differencing S itself would cancel almost every digit of a
    share.  For u = 1, y_1 = m-q stays put, so F(y_1) drops out and the
    second difference is P [C(n, x_1) - 2 C(n, x_1+1) + C(n, x_1+2)] at
    every s.  For u >= 2, G_u is formed once per span, starting from
    G_u(2q-2) = G_u(2q-1) = 0, with the window read from prefix sums taken
    from the far end, so a tail window keeps its own digits; G_u is 0 once
    y_u falls below the row's last nonzero entry, so each u runs only over
    the spans that reach one.

    The row, C(n, j) or its share C(n, j)/2^n, starts at its centre,
    math.comb(n, m) or _centre_share(n), and is stepped outwards until an
    entry is 0 or a share falls below the least normal float, which leaves
    about sqrt(354 n) shares (stepped on through subnormals, a share sticks
    at 5e-324 until the step ratio falls below 1/2, at m/3).  Over the
    integers every step is exact, O(n log n) terms in all; in
    O(sqrt(n) log n) float terms each share is within 4e-16 of N_s / 2^n
    (at every q for n <= 200, and at q <= 17 up to n = 4096), and the good
    term within 3e-15 relative of a 40-digit decimal sum over the exact
    counts (tests/rho_reference.py; on that grid, and at q in {0, 2, 6} up
    to n = 16384).  So where the exact share is below that bound a share
    can be a tiny negative: 87 are at n <= 200, at sizes 2 to 4 with
    q <= 1, down to -2.0e-16 (n = 154, q = 0, size 3).  They stay, as
    dropping them moves rho_a_bound(65536, 0) by 1.5e-13 relative.  out
    holds the spans up to min(m, top) + q, the last one any term reads,
    so past the row's reach it keeps no zeros.

    n and q are taken as checked by the two callers, gamma_counts_a and
    rho_a_parts; gamma_counts_a guards the exact row (HISTOGRAM_MAX_N).
    """
    m = n // 2
    if exact:
        c, least, zero = math.comb(n, m), 1, 0
    else:
        c, least, zero = _centre_share(n), sys.float_info.min, 0.0
    half = []
    while c >= least:
        d = len(half)
        half.append(c)
        c = c * (m - d) // (m + d + 1) if exact else c * (m - d) / (m + d + 1)
    top = len(half)  # C(n, m - d) is taken as 0 for d >= top
    # row[w - d] = C(n, m - d) and cum[w - d] = F(m - d), summed from the far
    # end.  No index read below lies further than w below the centre.
    w = 3 * top + 2
    row = [zero] * (w - top + 1) + half[::-1]
    cum = list(accumulate(row, initial=zero))
    out = [zero] * (min(m, top) + q + 1)
    base = w + q  # index of C(n, m + q)
    for s in range(2 * q, len(out)):
        x = base - s - 2
        out[s] = (s - 2 * q + 1) * (row[x] - 2 * row[x + 1] + row[x + 2])
    # u >= 2: G_u(s) is 0 once y_u falls below the row, at (u-1)(s+2) > top-1-q
    for u in range(2, (top - 1 - q) // (2 * q + 2) + 2):
        g1 = g2 = zero  # G_u(s - 1), G_u(s - 2)
        for s in range(2 * q, min(m + q, (top - 1 - q) // (u - 1)) + 1):
            p, x = s - 2 * q + 1, base - u * (s + 2)
            y = x + p + 1
            g = p * (row[x] + row[y]) - 2 * (cum[y] - cum[x + 1])
            out[s] += g - 2 * g1 + g2
            g1, g2 = g, g1
    return ((s + 1, v) for s, v in enumerate(out) if s and v)


def histogram_sum(pairs: Iterable[Tuple[int, Any]], k: int) -> Tuple[float, float]:
    """(analytical, operational) sums of i * w(i) * g / 2^k over the (i, g)
    pairs of a |Gamma| histogram, in one loop; size 1 adds 0, as w(1) = 0.

    pairs come in ascending size, from a {size: count} dict's items() or
    streamed by a histogram source: g counts the codewords with
    |Gamma| = i among the outputs for 2^k messages; each has i preimages
    whose index costs w(i) bits, with w(i) = log2 i (analytical), or the
    ceil width rank_width(i) sent on the wire (operational).  The exact
    histograms pass their counts with k the message bits; the float
    shares of every rho (_histogram_a, scheme_b._histogram_b and
    scheme_c._histogram_c, each with exact=False) pass g / 2^k itself,
    with k = 0, and are summed as they are stepped, never kept.
    """
    analytical = operational = 0.0
    scale, log2 = 1 << k, math.log2
    for i, g in pairs:
        share = g / scale
        analytical += i * log2(i) * share
        operational += i * (i - 1).bit_length() * share
    return analytical, operational


Parts = Dict[str, float]  # {"flag", "good", "bad"} bits of one rho


def rho_parts(
    appended: int, good: Tuple[float, float], q: int = 0, n: int = 0, bad: float = 0.0, tail: int = 0
) -> Tuple[Parts, Parts]:
    """Redundancy in bits split into {"flag", "good", "bad"}, whose sum is
    rho, once with real log2 index widths (analytical) and once with the
    ceil widths sent on the wire (operational).

    flag is the bits appended to every codeword (A 0, B and C 1) plus the
    flag and type bits when q > 0; good is a histogram_sum pair.  With
    q > 0, bad is the share of the messages (of n - appended bits) that
    are bad, a float; each of them also sends its tail and an index of
    log2 n, or ceil(log2 n), bits.  At q = 0 the bad term is 0.0.
    """
    flag, widths = (appended + 2.0, (math.log2(n), rank_width(n))) if q else (float(appended), (0, 0))
    return tuple({"flag": flag, "good": g, "bad": bad * (tail + w)} for g, w in zip(good, widths))


def rho_a_parts(n: int, q: int) -> Tuple[Parts, Parts]:
    """Scheme A's redundancy estimate: flag bits + good-word term + bad-word
    term, analytical (real log2 widths, the tables' convention) and
    operational (ceil(log2 .) widths).

    Exact at q = 0.  At q > 0 it falls short of the mean over all
    messages: the good term charges log2 |Gamma| only to the Type-1-good
    preimages of each codeword, so each Type-0-good word's log2 |Gamma|
    bits are left out, and each bad word is charged log2 n where it
    sends log2 |Gamma|.  For n = 8, q = 2 it gives 4.422 against the
    exhaustive 4.994.  The bad share is _census's float form, within 3e-13
    relative of count_bad(n, q) / 2^n, so no big integer is formed.
    """
    bad = _census(n, q, 0, False)  # first: it checks n and q
    return rho_parts(0, histogram_sum(_histogram_a(n, q, False), 0), q, n, bad, 2 * q)


def rho_a_bound(n: int, q: int) -> float:
    """Scheme A's analytical redundancy estimate in bits; exact at q = 0,
    low at q > 0 (see rho_a_parts)."""
    return sum(rho_a_parts(n, q)[0].values())


def optimal_redundancy(n: int, q: int = 0) -> float:
    """Information-theoretic floor: n - log2 C(n, n/2 + q)."""
    _check_params(n, q)
    _guard(n, STEPPED_MAX_N, "binomial")
    return n - math.log2(math.comb(n, n // 2 + q))
