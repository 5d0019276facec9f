"""Scheme B: length-(n-1) messages to q-balanced length-n codewords.

The message is first driven to weight m+q-1 or m+q by a minimal prefix
flip (two admissible targets instead of one), then a single bit is
appended to land exactly on weight m+q.  The receiver-side index set
splits by the codeword weight: only fresh nonnegative running-sum values
can be minimal indices at weight m+q-1, only fresh nonpositive ones at
weight m+q.  That sign split is what makes the size distribution a plain
difference of binomials, which in turn makes the average redundancy
asymptotically 0.5*log2(n) + 0.526 (q = 0) analyzable.  The exact
differences (gamma_counts_b) and the float shares rho_b sums are one
stepped sum, _histogram_b, and the bad-word census is Scheme A's,
scheme_a._census, one bit shorter, whose closed float share is what
rho_b reads; none keeps a binomial row.  Both branches step out of the
centre of Scheme A's row, C(n-1, m-1) = C(n, m)/2, so the float shares
start at scheme_a._centre_share and rho_b's good term is within 3e-15
relative of a 40-digit reference for n <= 16384.  rho_b reads that float
stream only up to the first pair past which no term can change its sums,
and is bit-identical to the sum over the whole stream (rho_b_parts).

Bad words (possible only for q >= 2) are handled by Scheme A's prefix
codec with a replacement run of 2q-2 bits: a length-(n-1) word whose
truncation has weight <= m-q stays Type-1-good after appending zeros
(its path ends at offset >= q-1), and one with truncation weight
>= m-q+1 reaches weight >= m+q-1 after appending ones.
"""

from __future__ import annotations

import math
import sys
from itertools import chain, islice, zip_longest
from typing import Any, Dict, Iterator, List, Tuple

from .errors import DecodeError
from .scheme_a import (
    HISTOGRAM_MAX_N,
    EncodeResult,
    Parts,
    _balance,
    _census,
    _centre_share,
    _check_params,
    _guard,
    _unbalance,
    histogram_sum,
    left_sum,
    rho_parts,
)
from .words import BitWord, flip_indices, fresh_indices, weight

EULER_MASCHERONI = 0.5772156649015329

# Limit constant of the good-word average: (2 - ln4 - euler_gamma)/ln4 - 1/2.
BETA = (2.0 - math.log(4.0) - EULER_MASCHERONI) / math.log(4.0) - 0.5


def _tail(q: int) -> int:
    """Bits of a bad word's replacement run (and of its prefix tail)."""
    return max(0, 2 * q - 2)


def _parity_error(k: int) -> ValueError:
    """The error for a length-k message with k even: B's first check."""
    return ValueError(f"message length {k} must be odd (n-1)")


def t_b(x: BitWord, q: int) -> List[int]:
    """All j with weight(flip_prefix(x, j)) in {m+q-1, m+q}, ascending."""
    n = x.length + 1
    if n % 2:
        raise _parity_error(x.length)
    return flip_indices(x, (n // 2 + q - 1, n // 2 + q))


def gamma_set_b(c: BitWord, q: int) -> List[int]:
    """Fresh running-sum indices restricted to the weight-determined sign;
    a per-bit reference, as gamma_set_a."""
    n = c.length + 1
    _check_params(n, q)
    m = n // 2
    wt = weight(c)
    bit = m + q - wt  # the appended bit, as in decode_b
    if not 0 <= bit <= 1:
        raise ValueError(f"weight {wt} not in target pair {{{m + q - 1}, {m + q}}}")
    return fresh_indices(c, 2 * bit - 1)


def encode_b(x: BitWord, q: int) -> EncodeResult:
    """The targets m+q-1 and m+q map to the signs of their Gamma walks:
    fresh nonnegative values at m+q-1, fresh nonpositive ones at m+q.  The
    appended bit, t - weight, takes the stripped codeword to weight t = m+q."""
    n = x.length + 1
    if n % 2:
        raise _parity_error(x.length)
    _check_params(n, q)
    t = n // 2 + q
    c, p, plen, cls, tau = _balance(x.value, n - 1, q, {t - 1: 1, t: -1}, _tail(q))
    return EncodeResult(BitWord(c << 1 | t - c.bit_count(), n), BitWord(p, plen), cls, tau)


def decode_b(cprime: BitWord, p: BitWord, n: int, q: int) -> BitWord:
    """The stripped codeword's weight gives the appended bit, m+q - weight,
    which must be 0 or 1 and equal the bit sent, and the sign of its Gamma
    walk, +1 at bit 1 (weight m+q-1) and -1 at bit 0 (weight m+q)."""
    _check_params(n, q)
    if cprime.length != n:
        raise ValueError(f"codeword length {cprime.length} != {n}")
    c = cprime.value >> 1
    wt = c.bit_count()
    bit = n // 2 + q - wt
    if not 0 <= bit <= 1:
        raise DecodeError(f"stripped codeword weight {wt} outside target pair")
    if cprime.value & 1 != bit:
        raise DecodeError("appended balance bit inconsistent with codeword weight")
    return BitWord(_unbalance(c, n - 1, p, 2 * bit - 1, q, _tail(q)), n - 1)


# ---------------------------------------------------------------------------
# Census and redundancy analysis


def gamma_counts_b(n: int, q: int) -> Dict[int, int]:
    """{i: number of stripped codewords with |Gamma| = i} over both target
    weights, for the sizes i <= m+q with a nonzero count, ascending:
    _histogram_b over the integers C(n-1, a)."""
    _check_params(n, q)
    _guard(n, HISTOGRAM_MAX_N, "exact histogram")
    return dict(_histogram_b(n, q, True))


def count_bad_b(n: int, q: int) -> int:
    """Exact number of bad length-(n-1) messages.

    A message is bad iff its path stays strictly below Y = X + (q-1) and
    weakly above Y = X - (q-1); odd length makes the band asymmetric,
    [1-q, q-2], unlike the even-length census of Scheme A.  As there, the
    reflection sums telescope, to 2^(n-1) - (2q-1) * (sum of C(n-1, j)
    over j = m+q-1 mod 2q-1).
    """
    return _census(n, q, 1, True)


def _histogram_b(n: int, q: int, exact: bool) -> Iterator[Tuple[int, Any]]:
    """Scheme B's |Gamma| histogram as (size, entry) pairs over the sizes
    with a nonzero entry, ascending, as exact counts or (exact=False) as
    float shares of 2^(n-1).

    It has two branches, each with an offset: size i = a - offset, for a
    from the branch's first a up to n, counts C(n-1, a-1) - C(n-1, a)
    stripped codewords.  Each branch starts at the row's centre a = m,
    where C(n-1, m-1) = C(n, m)/2, so at math.comb(n, m) // 2 or, as a
    share of 2^(n-1), at scheme_a._centre_share(n); it steps up in a by
    the ratio (n-a)/a, at most q + 1 times to its first a and then a share
    at a time until the share falls below the least normal float.  Its
    size-i entry is C(n-1, a-1) - C(n-1, a), which the shares take as
    C(n-1, a-1) 2(a-m)/a so as not to cancel digits; every a > m, so none
    is 0.  Against a 40-digit decimal sum over the exact counts
    (tests/rho_reference.py) the good term of the shares is within
    3e-15 relative for n <= 16384 at q in {0, 2, 6}.  The two branches
    are streamed in lockstep by size, and a size both reach gets the
    weight-(m+q) branch's entry plus the other's.  At q = 0 they are
    equal: one is stepped, and counted w = 2 times, which is exact.

    This stream runs until it underflows; rho_b_parts reads it only up to
    the first pair from which no term can change its sums (see there), so
    the float steps past that are never taken.  Scheme A's and C's rho read
    their whole rows: every share of _histogram_a takes its reflection
    windows from the row's tail, the row is stepped whole before the first
    pair, and a share can be a tiny negative, so its sums are not monotone;
    the shares of scheme_c._histogram_c are not monotone in the size
    (p_i = p_(m+1-i)), so the largest terms come last.
    """
    m = n // 2
    centre, least, zero = (math.comb(n, m) // 2, 1, 0) if exact else (_centre_share(n), sys.float_info.min, 0.0)

    def branch(first: int, offset: int, w: int) -> Iterator[Tuple[int, Any]]:
        """(a - offset, w entries) for a from first up, stepped from the centre."""
        c = centre
        for a in range(m, first):
            c = c * (n - a) // a if exact else c * (n - a) / a
        for a in range(first, n + 1):
            if c < least:
                return
            d = c * (n - a) // a if exact else c * (n - a) / a
            yield a - offset, (c - d if exact else c * 2 * (a - m) / a) * w
            c = d

    if q == 0:
        return branch(m + 1, m, 2)
    # The weight-(m+q) branch covers 1 <= i <= m-q, the weight-(m+q-1) branch
    # 2q <= i <= m+q.  The printed statement's outer branches are swapped
    # relative to its own proof, and the oracle histogram confirms this
    # orientation.  The first ends first, as its a is 2q further from the
    # centre at every size, on the same stepped row.
    low = branch(m + q + 1, m + q, 1)
    both = zip_longest(branch(m + q, m - q, 1), low, fillvalue=(0, zero))
    return chain(islice(low, 2 * q - 1), ((i, u + v) for (i, v), (_, u) in both))


def _significant(n: int, q: int) -> Iterator[Tuple[int, float]]:
    """The pairs of _histogram_b(n, q, False) before rho_b_parts' stop,
    past which no pair changes either sum of histogram_sum."""
    m, least, start = n // 2, sys.float_info.min, max(2, 2 * q)
    pairs = _histogram_b(n, q, False)
    for i, g in pairs:
        yield i, g
        if i >= start:
            break
    else:  # the stream ended before size start
        return
    floor = math.ulp(2 * g) / (8 * n * (n.bit_length() + 1))
    for i, g in pairs:
        if g >= least and g * (i + m - q) < floor * (i - q):
            return
        yield i, g


def rho_b_parts(n: int, q: int) -> Tuple[Parts, Parts]:
    """Scheme B's redundancy estimate: constant + good term + bad term,
    analytical (real log2 widths) and operational (the ceil widths sent on
    the wire).

    The constant is 1 appended balance bit, plus 2 flag/type bits when
    q > 0.  The good term sums the float shares of _histogram_b at every n,
    in about 1 ms at n = 65536, q = 0, where the big-integer binomials grow
    with n.  Against a 40-digit decimal sum over gamma_counts_b
    (tests/rho_reference.py) the good term is within 3e-15 relative for
    n <= 16384 at q in {0, 2, 6}, and rho_b(65536, 0) within 1e-15.
    Exact at q = 0; at q > 0 it is low by the same terms as
    scheme_a.rho_a_parts (4.634 against the exhaustive 5.037 for n = 8,
    q = 2).  The bad share is scheme_a._census's float form, within 3e-13
    relative of count_bad_b(n, q) / 2^(n-1), so no big integer is formed.

    The shares are read only up to a stop (_significant), past which no
    term can change either sum, so the good term is bit-identical to the
    sum over the whole stream, and the steps past the stop are never
    taken: at n = 65536, q = 0 it reads 1,421 of 4,790 pairs.  Why:

    - histogram_sum adds each term i w(i) g, with w(i) = log2 i or
      ceil(log2 i), by a plain left-to-right += from 0.0.  Every share is
      positive, so a sum never falls and is at least each term it took.
    - Let g0 be the share of the first size i >= max(2, 2q).  Its terms
      are at least 2 g0, as i w(i) >= 2, so from then on a term t below
      ulp(2 g0)/2 leaves both sums as they are: s + t rounds to s.
    - A size i >= 2q takes the weight-(m+q-1) branch's entry at
      a = i+m-q (at q = 0 twice the one branch's, at a = i+m), plus at
      q > 0 the other branch's at a + 2q.  An entry is c 2(a-m)/a <= 2c,
      c = C(n-1, a-1)/2^(n-1), and c falls with a past m, also in floats:
      the step c (n-a)/a, n - a < a, rounds to at most c.  Both branches
      step one row from one centre, so every share from size i on is at
      most 4c, with c at a = i+m-q, while g >= 2c (a-m)/a up to the
      roundings.  Where g is normal, every share from (i, g) on is thus
      at most 2g a/(a-m) (1 + 3 eps), eps = 2^-53.
    - W = n (bitlen(n) + 1) exceeds i w(i) at every i <= n, so each term
      is at most W times its share (1 + 3 eps).  The stop is the first
      pair past g0's with g normal and g a < F (a-m), F = ulp(2 g0)/(8 W):
      every term from there on is below ulp(2 g0)/4, and the factor 8
      leaves room for the roundings of the terms, the test and F.  A term
      rounded to a subnormal is off by at most 2^-1075, far below
      ulp(2 g0) >= 8 W F, and a subnormal F lets no normal g pass.

    The stop waits for size 2q because below it only the weight-(m+q)
    branch has begun, and the other's first share, at size 2q, can exceed
    every share before it: stopping at the first small share, as a floor
    alone would, changes rho_b_parts(256, 32) by a factor of 180.
    """
    bad = _census(n, q, 1, False)  # first: it checks n and q
    return rho_parts(1, histogram_sum(_significant(n, q), 0), q, n, bad, _tail(q))


def rho_b(n: int, q: int) -> float:
    return left_sum(rho_b_parts(n, q)[0].values())


def rho_b_asymptote(n: int, q: int) -> float:
    """Limit line 0.5*log2 n + 0.526 (q=0) or + 2.526 (q>0), for the
    (n, q) that scheme B's codec takes."""
    _check_params(n, q)
    constant = (1.0 if q == 0 else 3.0) + BETA
    return 0.5 * math.log2(n) + constant
