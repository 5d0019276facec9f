"""Exact enumeration of monotone lattice paths.

A simple path takes unit steps -> and ^ in the positive quadrant
directions.  Two counts are provided:

  * free paths between two points (a binomial);
  * paths confined weakly between the lines Y = X + s and Y = X + t
    (touching either line is allowed), via the alternating reflection
    sum, plus a trigonometric closed form used only as a cross-check.

Counts are exact Python integers; binomial path counts overflow 64 bits
long before the sizes used here, so nothing is ever done in floating
point on the counting side.  The cosine closed form amplifies rounding
at large exponents and is documented as unstable past ~64 steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

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

    @property
    def height(self) -> int:
        return self.t - self.s + 2


@lru_cache(maxsize=None)
def _binom_row(n: int) -> Tuple[int, ...]:
    return tuple(math.comb(n, j) for j in range(n + 1))


def _binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return _binom_row(n)[k]


def count_free(start: LatticePoint, end: LatticePoint) -> BigCount:
    """Number of simple paths from start to end."""
    dx = end[0] - start[0]
    dy = end[1] - start[1]
    if dx < 0 or dy < 0:
        raise ValueError(f"negative displacement {start} -> {end}")
    return math.comb(dx + dy, dx)


def _in_band(p: LatticePoint, band: PathBand) -> bool:
    return band.s <= p[1] - p[0] <= band.t


def count_banded(start: LatticePoint, end: LatticePoint, band: PathBand) -> BigCount:
    """Paths from start to end staying weakly between Y=X+s and Y=X+t.

    Endpoints outside the band yield 0 rather than an error so that
    inclusion-exclusion callers need no case analysis.
    """
    a, b = start
    c, d = end
    dx, dy = c - a, d - b
    if dx < 0 or dy < 0:
        raise ValueError(f"negative displacement {start} -> {end}")
    if not (_in_band(start, band) and _in_band(end, band)):
        return 0
    n = dx + dy
    dh = band.height
    total = 0
    kmax = n // dh + 2
    for k in range(-kmax, kmax + 1):
        total += _binom(n, dx - k * dh) - _binom(n, c - b - k * dh + band.t + 1)
    return total


def count_banded_trig(start: LatticePoint, end: LatticePoint, band: PathBand) -> float:
    """Cosine/sine closed form of count_banded; cross-check only.

    Relative agreement with the exact count is ~1e-9 up to about 64
    steps; beyond that cos**n magnifies rounding and the value is
    unreliable.
    """
    a, b = start
    c, d = end
    dx, dy = c - a, d - b
    if dx < 0 or dy < 0:
        raise ValueError(f"negative displacement {start} -> {end}")
    if not (_in_band(start, band) and _in_band(end, band)):
        return 0.0
    n = dx + dy
    if n == 0:
        return 1.0
    dh = band.height
    total = 0.0
    for k in range(1, (dh - 1) // 2 + 1):
        total += (
            (4.0 / dh)
            * (2.0 * math.cos(math.pi * k / dh)) ** n
            * math.sin(math.pi * k * (a - b + band.t + 1) / dh)
            * math.sin(math.pi * k * (c - d + band.t + 1) / dh)
        )
    return total
