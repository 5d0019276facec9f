"""Exact enumeration of monotone lattice paths.

A simple path takes unit steps -> and ^ in the positive quadrant
directions.  count_banded counts the paths confined weakly between the
lines Y = X + s and Y = X + t (touching either line is allowed), by the
alternating reflection sum.

The reflections repeat with a period, so the sum reads two residue
classes of one binomial row C(n, .), each stepped by
scheme_a._binom_class, the step that the bad-word censuses take, and
not kept: no module caches a row.  Its time grows as n^2: a call takes
0.6 s at n = 2^16 and 2.4 s at 2^17, peaking at 15 MB of RSS in a fresh
process (Python 3.11, 2 shared x86-64 CPUs), so past the same step's
guard, scheme_a.STEPPED_MAX_N = 2^17, it raises CapacityError.

Counts are exact Python integers; binomial path counts overflow 64 bits
long before the sizes used here, so nothing is ever done in floating
point on the counting side.  No scheme imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .scheme_a import STEPPED_MAX_N, _binom_class, _guard

LatticePoint = Tuple[int, int]


@dataclass(frozen=True)
class PathBand:
    """Weak band between the lines Y = X + s (below) and Y = X + t (above)."""

    s: int
    t: int

    def __post_init__(self):
        if self.s > self.t:
            raise ValueError(f"band requires s <= t, got s={self.s}, t={self.t}")


def count_banded(start: LatticePoint, end: LatticePoint, band: PathBand) -> int:
    """Paths from start to end staying weakly between Y=X+s and Y=X+t.

    Endpoints outside the band yield 0 rather than an error so that
    inclusion-exclusion callers need no case analysis; past n =
    STEPPED_MAX_N steps it raises CapacityError.  Reflections in
    the lines Y = X + s - 1 and Y = X + t + 1 repeat with period
    dh = t - s + 2, so the count of the n-step paths, dx of them ->, is
    the sum over all k of C(n, dx - k*dh) - C(n, c - b + 1 + t - k*dh):
    the sum of C(n, j) over j = dx (mod dh) less the sum over
    j = c - b + 1 + t (mod dh).
    """
    a, b = start
    c, d = end
    dx, dy = c - a, d - b
    if dx < 0 or dy < 0:
        raise ValueError(f"negative displacement {start} -> {end}")
    if not (band.s <= b - a <= band.t and band.s <= d - c <= band.t):
        return 0
    n = dx + dy
    _guard(n, STEPPED_MAX_N, "path count")
    dh = band.t - band.s + 2
    return _binom_class(n, dx, dh) - _binom_class(n, c - b + 1 + band.t, dh)
