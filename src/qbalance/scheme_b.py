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
relative of a 40-digit reference for n <= 16384.

Bad words (possible only for q >= 2) are handled by Scheme A's prefix
codec with a replacement run of 2q-2 bits: a length-(n-1) word whose
truncation has weight <= m-q stays Type-1-good after appending zeros
(its path ends at offset >= q-1), and one with truncation weight
>= m-q+1 reaches weight >= m+q-1 after appending ones.
"""

from __future__ import annotations

import math
import sys
from typing import Any, Dict, List, Tuple

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
    rho_parts,
)
from .words import BitWord, flip_indices, fresh_walk, weight

EULER_MASCHERONI = 0.5772156649015329

# Limit constant of the good-word average: (2 - ln4 - euler_gamma)/ln4 - 1/2.
BETA = (2.0 - math.log(4.0) - EULER_MASCHERONI) / math.log(4.0) - 0.5


def _tail(q: int) -> int:
    """Bits of a bad word's replacement run (and of its prefix tail)."""
    return max(0, 2 * q - 2)


def _targets_b(k: int, q: int) -> Dict[int, int]:
    """Scheme B's target weights m+q-1 and m+q for length-k messages, each
    mapped to the sign of its Gamma walk (fresh nonnegative values at
    m+q-1, fresh nonpositive ones at m+q)."""
    n = k + 1
    if n % 2:
        raise ValueError(f"message length {k} must be odd (n-1)")
    return {n // 2 + q - 1: 1, n // 2 + q: -1}


def t_b(x: BitWord, q: int) -> List[int]:
    """All j with weight(flip_prefix(x, j)) in {m+q-1, m+q}, ascending."""
    return flip_indices(x, _targets_b(x.length, q))


def gamma_set_b(c: BitWord, q: int) -> List[int]:
    """Fresh running-sum indices restricted to the weight-determined sign."""
    n = c.length + 1
    _check_params(n, q)
    m = n // 2
    wt = weight(c)
    sign = _targets_b(c.length, q).get(wt)
    if sign is None:
        raise ValueError(f"weight {wt} not in target pair {{{m + q - 1}, {m + q}}}")
    return fresh_walk(c.value, c.length, sign)


def encode_b(x: BitWord, q: int) -> EncodeResult:
    targets = _targets_b(x.length, q)
    n = x.length + 1
    _check_params(n, q)
    c, p, plen, cls, tau = _balance(x.value, n - 1, q, targets, _tail(q))
    return EncodeResult(BitWord(c << 1 | (targets[c.bit_count()] > 0), n), BitWord(p, plen), cls, tau)


def decode_b(cprime: BitWord, p: BitWord, n: int, q: int) -> BitWord:
    _check_params(n, q)
    if cprime.length != n:
        raise ValueError(f"codeword length {cprime.length} != {n}")
    c = cprime.value >> 1
    wt = c.bit_count()
    sign = _targets_b(n - 1, q).get(wt)
    if sign is None:
        raise DecodeError(f"stripped codeword weight {wt} outside target pair")
    if cprime.value & 1 != (sign > 0):
        raise DecodeError("appended balance bit inconsistent with codeword weight")
    gamma = fresh_walk(c, n - 1, sign)
    return BitWord(_unbalance(c, n - 1, p, gamma, q, _tail(q)), n - 1)


# ---------------------------------------------------------------------------
# Census and redundancy analysis


def gamma_counts_b(n: int, q: int) -> Dict[int, int]:
    """{i: number of stripped codewords with |Gamma| = i} over both target
    weights, for the sizes i <= m+q with a nonzero count, ascending:
    _histogram_b over the integers C(n-1, a)."""
    _check_params(n, q)
    _guard(n, HISTOGRAM_MAX_N, "exact histogram")
    return _histogram_b(n, q, True)


def count_bad_b(n: int, q: int) -> int:
    """Exact number of bad length-(n-1) messages.

    A message is bad iff its path stays strictly below Y = X + (q-1) and
    weakly above Y = X - (q-1); odd length makes the band asymmetric,
    [1-q, q-2], unlike the even-length census of Scheme A.  As there, the
    reflection sums telescope, to 2^(n-1) - (2q-1) * (sum of C(n-1, j)
    over j = m+q-1 mod 2q-1).
    """
    return _census(n, q, 1, True)


def _histogram_b(n: int, q: int, exact: bool) -> Dict[int, Any]:
    """Scheme B's |Gamma| histogram over the sizes with a nonzero entry,
    ascending, as exact counts or (exact=False) as float shares of 2^(n-1).

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
    3e-15 relative for n <= 16384 at q in {0, 2, 6}.  At q = 0 the two
    branches are equal: dict.fromkeys steps it once, and it is counted
    w = 2 times, which is exact.
    """
    m, w = n // 2, 2 if q == 0 else 1
    centre, least, zero = (math.comb(n, m) // 2, 1, 0) if exact else (_centre_share(n), sys.float_info.min, 0.0)
    out: Dict[int, Any] = {}
    # (offset, first size): the weight-(m+q) branch covers 1 <= i <= m-q, the
    # weight-(m+q-1) branch max(1, 2q) <= i <= m+q.  The printed statement's
    # outer branches are swapped relative to its own proof, and the oracle
    # histogram confirms this orientation.  The weight-(m+q) branch goes
    # first: its sizes all precede the sizes the other branch adds, so the
    # keys come out ascending.
    for offset, first in dict.fromkeys(((m + q, 1), (m - q, max(1, 2 * q)))):
        c = centre
        for a in range(m, first + offset):
            c = c * (n - a) // a if exact else c * (n - a) / a
        for a in range(first + offset, n + 1):
            if c < least:
                break
            d = c * (n - a) // a if exact else c * (n - a) / a
            out[a - offset] = out.get(a - offset, zero) + (c - d if exact else c * 2 * (a - m) / a) * w
            c = d
    return out


def rho_b_parts(n: int, q: int) -> Tuple[Parts, Parts]:
    """Scheme B's redundancy estimate: constant + good term + bad term,
    analytical (real log2 widths) and operational (the ceil widths sent on
    the wire).

    The constant is 1 appended balance bit, plus 2 flag/type bits when
    q > 0.  The good term sums the float shares of _histogram_b at every n,
    in about 1.8 ms at n = 65536, q = 0, where the big-integer binomials
    grow with n.  Against a 40-digit decimal sum over gamma_counts_b
    (tests/rho_reference.py) the good term is within 3e-15 relative for
    n <= 16384 at q in {0, 2, 6}, and rho_b(65536, 0) within 1e-15.
    Exact at q = 0; at q > 0 it is low by the same terms as
    scheme_a.rho_a_parts (4.634 against the exhaustive 5.037 for n = 8,
    q = 2).  The bad share is scheme_a._census's float form, within 3e-13
    relative of count_bad_b(n, q) / 2^(n-1), so no big integer is formed.
    """
    bad = _census(n, q, 1, False)  # first: it checks n and q
    good = histogram_sum(_histogram_b(n, q, False), 0)
    return rho_parts(1, good, q, n, bad, _tail(q))


def rho_b(n: int, q: int) -> float:
    return sum(rho_b_parts(n, q)[0].values())


def rho_b_asymptote(n: int, q: int) -> float:
    """Limit line 0.5*log2 n + 0.526 (q=0) or + 2.526 (q>0), for the
    (n, q) that scheme B's codec takes."""
    _check_params(n, q)
    constant = (1.0 if q == 0 else 3.0) + BETA
    return 0.5 * math.log2(n) + constant
