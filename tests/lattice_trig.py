"""Trigonometric closed forms of the banded path counts, kept as test-side
cross-checks of the exact reflection sums in qbalance.lattice.

They amplify rounding at large exponents: relative agreement with the
exact count is ~1e-9 up to about 64 steps, and unreliable beyond.
"""

import math

from qbalance.lattice import PathBand


def count_banded_trig(start, end, band: PathBand) -> float:
    """Cosine/sine closed form of lattice.count_banded."""
    a, b = start
    c, d = end
    dx, dy = c - a, d - b
    if dx < 0 or dy < 0:
        raise ValueError(f"negative displacement {start} -> {end}")
    if not (band.s <= b - a <= band.t and band.s <= d - c <= band.t):
        return 0.0
    n = dx + dy
    if n == 0:
        return 1.0
    dh = band.t - band.s + 2
    total = 0.0
    for k in range(1, (dh - 1) // 2 + 1):
        total += (
            (4.0 / dh)
            * (2.0 * math.cos(math.pi * k / dh)) ** n
            * math.sin(math.pi * k * (a - b + band.t + 1) / dh)
            * math.sin(math.pi * k * (c - d + band.t + 1) / dh)
        )
    return total


def count_bad_trig(n: int, q: int) -> float:
    """Trigonometric form of scheme_a.count_bad: one banded count per start height."""
    if q <= 1:
        return 0.0
    m = n // 2
    band = PathBand(1 - q, q - 1)
    return sum(count_banded_trig((0, y), (m + y, m), band) for y in range(1 - q, q))
