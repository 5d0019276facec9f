"""Exact enumeration of monotone lattice paths.

A simple path takes unit steps -> and ^ in the positive quadrant
directions.  Three counts are provided:

  * free paths between two points (a binomial);
  * paths confined weakly between the lines Y = X + s and Y = X + t
    (touching either line is allowed), via the alternating reflection
    sum;
  * the same banded count summed over every position of a band of fixed
    span (count_banded_sweep), which counts each path once per band
    position that holds it.

Every reflection sum reads one binomial row C(n, .) per path length n,
built by the multiplicative recurrence C(n, j+1) = C(n, j)(n-j)/(j+1)
over its first half and mirrored, and cached one row at a time: about
3 ms at n = 4095 and 10 ms at n = 8192, where one math.comb call per
entry took 1.35 s and 8.6 s.  In the swept sum the first reflection term
does not depend on the band position and the second slides over a
contiguous window of the row, so one sweep is O(n / span) prefix-sum
differences of the row; count_banded is the sweep at one position.

Counts are exact Python integers; binomial path counts overflow 64 bits
long before the sizes used here, so nothing is ever done in floating
point on the counting side.  The rows serve only the exact |Gamma|
histograms of schemes A and B (a census steps one residue class and
keeps none); no rho reads them, since every rho sums float shares.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

LatticePoint = Tuple[int, int]

# Counts are arbitrary-precision ints; exact for any n we can enumerate.
BigCount = int


@dataclass(frozen=True)
class PathBand:
    """Weak band between the lines Y = X + s (below) and Y = X + t (above)."""

    s: int
    t: int

    def __post_init__(self):
        if self.s > self.t:
            raise ValueError(f"band requires s <= t, got s={self.s}, t={self.t}")


# One row is kept: its readers are the sweeps of one gamma_counts_a call
# or one gamma_counts_b call, and a row of length 2^16 holds about 200 MB
# (both are guarded to n <= scheme_a.HISTOGRAM_MAX_N = 2^15).
@lru_cache(maxsize=1)
def _binom_row(n: int) -> Tuple[int, ...]:
    """C(n, 0), ..., C(n, n), by the multiplicative recurrence."""
    row = [1] * (n + 1)
    c = 1
    for j in range(n // 2):
        c = c * (n - j) // (j + 1)
        row[j + 1] = row[n - j - 1] = c
    return tuple(row)


@lru_cache(maxsize=1)
def _binom_prefix(n: int) -> Tuple[int, ...]:
    """Prefix sums of _binom_row(n): entry a is C(n, 0) + ... + C(n, a-1)."""
    return tuple(itertools.accumulate(_binom_row(n), initial=0))


def _binom_window(n: int, lo: int, hi: int) -> int:
    """C(n, lo) + ... + C(n, hi), clipped to the row; 0 when lo > hi."""
    lo, hi = max(lo, 0), min(hi, n)
    if lo > hi:
        return 0
    prefix = _binom_prefix(n)
    return prefix[hi + 1] - prefix[lo]


def _binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return _binom_row(n)[k]


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


def count_free(start: LatticePoint, end: LatticePoint) -> BigCount:
    """Number of simple paths from start to end."""
    dx = end[0] - start[0]
    dy = end[1] - start[1]
    if dx < 0 or dy < 0:
        raise ValueError(f"negative displacement {start} -> {end}")
    return math.comb(dx + dy, dx)


def _reflection_sum(start: LatticePoint, end: LatticePoint, span: int, top: Optional[int] = None) -> BigCount:
    """count_banded summed over the band tops t in [lo, hi] = [max(u0, u1),
    min(u0, u1) + span] that hold both endpoint offsets u0, u1, or at t =
    top alone.  The first reflection term does not depend on t; the second
    runs, for each k, over the window c - b + 1 - k*dh + [lo, hi], dh = span + 2.
    """
    a, b = start
    c, d = end
    dx, dy = c - a, d - b
    if dx < 0 or dy < 0:
        raise ValueError(f"negative displacement {start} -> {end}")
    u0, u1 = b - a, d - c
    lo, hi = max(u0, u1), min(u0, u1) + span
    if top is not None:
        lo, hi = max(lo, top), min(hi, top)
    if lo > hi:
        return 0
    n = dx + dy
    dh = span + 2
    base = c - b + 1
    kmax = n // dh + 2
    ks = range(-kmax, kmax + 1)
    free = sum(_binom(n, dx - k * dh) for k in ks)
    reflected = sum(_binom_window(n, base + lo - k * dh, base + hi - k * dh) for k in ks)
    return (hi - lo + 1) * free - reflected


def count_banded(start: LatticePoint, end: LatticePoint, band: PathBand) -> BigCount:
    """Paths from start to end staying weakly between Y=X+s and Y=X+t.

    Endpoints outside the band yield 0 rather than an error so that
    inclusion-exclusion callers need no case analysis.
    """
    return _reflection_sum(start, end, band.t - band.s, band.t)


def count_banded_sweep(start: LatticePoint, end: LatticePoint, span: int) -> BigCount:
    """Sum of count_banded(start, end, PathBand(t - span, t)) over every t.

    Each path from start to end is counted once per position of a band of
    span `span` that holds it, so a path whose offsets Y - X have range
    max - min = r counts max(0, span + 1 - r) times.
    """
    return _reflection_sum(start, end, span)
