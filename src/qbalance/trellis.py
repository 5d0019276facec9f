"""Shift-set distribution of cyclic balancing via a syndrome trellis.

Counts, for an [n-1, k, d] cyclic code, how many receivable blocks c
have each shift-set size |Gamma(c)| = j, without enumerating the 2^k
codewords.  Levels 1..m-1 consume the bit pair (c_i, c_{i+m}); the last
level consumes c_m alone.  A state tracks (weight, syndrome-of-flipped-
word, first-zero index), the count being the number of label paths that
reach it.  The cyclic running sum needs no slot of its own: after level
i it always equals 2*(weight - i), which is also why the paired running
sum decides |Gamma| the way it does.

The index slot is 0 while no zero of the running sum has occurred
(covering both the root and the not-yet-determined marker), frozen to the
level at the first zero, and resolves to m at the final level if still
unset.  Acceptance requires weight in {m-1, m} and zero syndrome; the
final running sum is weight-determined and carries no information.

Lane vectors.  States are grouped by (weight, index).  A group holds the
counts of all 2^r syndromes (r = n-k) as one Python int of 2^r lanes,
lane s at bits [s*W, (s+1)*W) holding the count of syndrome s, with
W = n+1 bits per lane.  A level then costs a few whole-vector operations
per group:

- the edge syn -> syn ^ mask is a lane permutation: for each set bit b
  of the mask, neighbouring blocks of 2^b lanes swap places, selected by
  the precomputed mask M_b of the lanes whose syndrome has bit b clear;
- merging paths is int addition;
- the states of a group are its nonzero lanes, counted by OR-folding
  each lane onto its lowest bit and taking `bit_count`.

No lane can overflow: a state at level L is reached by at most 4^L label
paths, and 4^L <= 4^(m-1) = 2^(n-1) < 2^W for every level L <= m-1 (the
final level reads single lanes and adds them as plain ints).  A level holds
O(n^2) groups and each takes O(r) whole-vector operations, so a pass
makes O(r n^3) big-int operations on 2^r * W-bit ints: O(r 2^r n^4) bit
operations, done inside the int arithmetic instead of one state at a
time.

Memory is dense in the syndrome: a group takes 2^r * (n+1) bits whether
or not its lanes are reached, and two levels of groups are alive at
once.  One `build_and_count` call in a fresh process (Python 3.11, Xeon
x86-64; peak RSS from getrusage, about 17 MB before the pass):

    code                 r    time     peak RSS     states
    [13,1] repetition    12   0.004 s    17 MB       3,761
    [15,3]               12   0.006 s    17 MB      13,227
    [15,1] repetition    14   0.018 s    20 MB      14,281
    [17,1] repetition    16   0.11 s     33 MB      54,495
    [21,5]               16   0.50 s     51 MB     582,444
    [19,1] repetition    18   0.66 s    103 MB     208,783
    [21,3]               18   1.6 s     149 MB     756,108
    [27,9]               18   4.1 s     292 MB  14,067,663
    [21,1] repetition    20   3.7 s     434 MB     802,595

Time and memory grow about 4x per two syndrome bits and again with n, so
r = 20 already needs over 400 MB at the shortest length it admits.
Builds are therefore guarded to n-k <= 18 (cyclic_code.SYNDROME_GUARD,
which also bounds each code's coset-leader table); beyond that use
exhaustive enumeration.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .cyclic_code import SYNDROME_GUARD, CyclicCode
from .errors import CapacityError
from .scheme_a import histogram_sum, rho_parts

FinalState = Tuple[int, int]  # (weight, index)


def _check(code: CyclicCode) -> int:
    if code.n % 2 == 0:
        raise ValueError(f"code length {code.n} must be odd (2m-1)")
    if code.r > SYNDROME_GUARD:
        raise CapacityError(
            f"n-k={code.r} exceeds trellis guard {SYNDROME_GUARD}; "
            "use exhaustive enumeration instead"
        )
    return (code.n + 1) // 2


def _repeat(block: int, period: int, times: int) -> int:
    """`block` repeated `times` (a power of two) times, `period` bits apart.

    Doubling keeps the cost linear in the result's size.
    """
    while times > 1:
        block |= block << period
        period <<= 1
        times >>= 1
    return block


class _Lanes:
    """Lane-vector arithmetic for 2^r lanes of W bits each."""

    def __init__(self, r: int, width: int) -> None:
        lanes = 1 << r
        self.width = width
        self.ones = _repeat(1, width, lanes)  # lowest bit of every lane
        self.lane_mask = (1 << width) - 1
        # swaps[b] = (shift, M_b): blocks of 2^b lanes, M_b = lanes with bit b clear
        self.swaps = [
            (width << b, _repeat((1 << (width << b)) - 1, width << (b + 1), lanes >> (b + 1)))
            for b in range(r)
        ]
        # OR-fold steps that spread exactly one lane's W bits onto its lowest bit
        self.fold: List[int] = []
        span = 1
        while span < width:
            step = min(span, width - span)
            self.fold.append(step)
            span += step
        self.single = r == 0

    def permutation(self, mask: int) -> List[Tuple[int, int]]:
        """The swaps that move lane s to lane s ^ mask."""
        return [self.swaps[b] for b in range(mask.bit_length()) if mask >> b & 1]

    @staticmethod
    def permute(x: int, swaps: List[Tuple[int, int]]) -> int:
        for shift, keep in swaps:
            x = ((x & keep) << shift) | ((x >> shift) & keep)
        return x

    def nonzero(self, x: int) -> int:
        """Number of nonzero lanes of x."""
        if self.single:
            return 1 if x else 0
        for step in self.fold:
            x |= x >> step
        return (x & self.ones).bit_count()

    def lane(self, x: int, s: int) -> int:
        return (x >> (s * self.width)) & self.lane_mask


class TrellisReport:
    """One forward pass: `final` maps (final weight, shift-set size) to the
    exact path count.

    Also carries the derived gamma histogram, |C*|, rho and the number of
    materialized states per level (root first, final level last).  A plain
    class: a dataclass would add more to the import than the rest of this
    module.
    """

    def __init__(self, final: Dict[FinalState, int], k: int, level_states: Tuple[int, ...]) -> None:
        self.final = final
        self.k = k
        self.level_states = level_states

    @property
    def gamma(self) -> Dict[int, int]:
        """{j: number of receivable blocks with |Gamma| = j}, ascending in j."""
        out: Dict[int, int] = {}
        for (wt, idx), cnt in self.final.items():
            out[idx] = out.get(idx, 0) + cnt
        return dict(sorted(out.items()))

    @property
    def codebook_size(self) -> int:
        """|C*| = total receivable blocks = sum of the gamma counts."""
        return sum(self.final.values())

    @property
    def rho(self) -> float:
        """Average redundancy 1 + 2^-k * sum_j j*gamma[j]*log2(j)."""
        return sum(rho_parts(1, histogram_sum(self.gamma, self.k))[0].values())

    @property
    def states(self) -> int:
        """Number of materialized (reachable, weight-feasible) states."""
        return sum(self.level_states)


def build_and_count(code: CyclicCode) -> TrellisReport:
    """One pass: the report's `final` maps (final weight, shift-set size)
    to the exact path count.

    The report also carries gamma, |C*|, rho and the per-level state
    counts, so one pass answers every question about the code.
    """
    m = _check(code)
    h = code.parity_cols
    vec = _Lanes(code.r, code.n + 1)
    permute = vec.permute
    # (weight, index) -> lane vector over the syndromes; index 0 = not yet fixed
    states: Dict[FinalState, int] = {(0, 0): 1}
    level_states = [1]
    for level in range(1, m):
        # (c_i, c_{i+m}) -> (weight gain, syndrome mask), first half flipped:
        # (0, h_lo), (1, h_lo ^ h_hi), (1, 0), (2, h_hi).  The lo^hi edge is
        # the lo edge's image permuted by hi, so each source is permuted by
        # lo once and each target by hi once, over the sum of its inputs.
        lo = vec.permutation(h[level - 1])
        hi = vec.permutation(h[level + m - 1])
        nxt: Dict[FinalState, int] = {}
        via_hi = {} if hi else nxt  # inputs still to be permuted by hi
        slack = 2 * (m - 1 - level) + 1  # weight still collectable after this level
        low = m - 1 - slack  # lightest feasible weight after this level
        for (wt, idx), x in states.items():
            x_lo = permute(x, lo) if lo else x
            for gain, y, out in ((0, x_lo, nxt), (1, x_lo, via_hi), (1, x, nxt), (2, x, via_hi)):
                nwt = wt + gain
                if nwt > m or nwt < low:
                    continue
                key = (nwt, idx if idx else (level if nwt == level else 0))
                out[key] = out.get(key, 0) + y
        if hi:
            for key, y in via_hi.items():
                nxt[key] = nxt.get(key, 0) + permute(y, hi)
        states = nxt
        level_states.append(sum(vec.nonzero(x) for x in states.values()))

    h_m = h[m - 1]
    final: Dict[FinalState, int] = {}
    for (wt, idx), x in states.items():
        # c_m = 0 leaves the syndrome h_m to cancel; c_m = 1 needs syndrome 0
        for nwt, cnt in ((wt, vec.lane(x, h_m)), (wt + 1, vec.lane(x, 0))):
            if cnt and nwt in (m - 1, m):
                key = (nwt, idx if idx else m)
                final[key] = final.get(key, 0) + cnt
    level_states.append(len(final))
    return TrellisReport(final=final, k=code.k, level_states=tuple(level_states))


def state_count(code: CyclicCode) -> int:
    """Number of materialized (reachable, weight-feasible) states."""
    return build_and_count(code).states
