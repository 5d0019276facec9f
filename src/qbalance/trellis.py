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

Lane vectors.  States are grouped by index, and within an index group
by weight: an index maps to (base, rows), rows[t] holding the counts of
all 2^r syndromes (r = n-k) at weight base + t as one Python int of 2^r
lanes, lane s at bits [s*W, (s+1)*W) holding the count of syndrome s,
with W = n+1 bits per lane.  The level's four edges add 0, 1, 1 and 2 to
the weight and flip the syndrome by h_lo, h_lo ^ h_hi, 0 and h_hi, so a
level is one edge step per row of every group:

- p = the rows permuted by h_lo, plus the rows one weight up: the gain-0
  edge and the unpermuted gain-1 edge;
- the lo^hi and hi edges are exactly p, one weight up and permuted by
  h_hi, so the next rows are p plus p permuted by h_hi one weight up;
- the rows are trimmed to the weights max(0, 2L-m)..m that can still end
  at m-1 or m, and the index-0 group's row at weight L, whose running
  sum has just hit zero, moves out as the one-row group of index L.

Within a row:

- the edge syn -> syn ^ mask is a lane permutation: for each set bit b
  of the mask, neighbouring blocks of 2^b lanes swap places, selected by
  the precomputed mask M_b of the lanes whose syndrome has bit b clear;
- merging paths is int addition;
- the states of a row are its nonzero lanes: adding the lanes' low W-1
  bits to all ones there carries into a lane's top bit exactly when the
  lane is nonzero, and `bit_count` reads the top bits.

No lane can overflow: a state at level L is reached by at most 4^L label
paths, and 4^L <= 4^(m-1) = 2^(n-1) < 2^W for every level L <= m-1 (the
final level reads single lanes and adds them as plain ints).  A level
holds at most m groups of at most m+1 rows, and each row takes O(r)
whole-vector operations for its two permutations, so a pass makes
O(r n^3) big-int operations on 2^r * W-bit ints, done inside the int
arithmetic instead of one state at a time.  At r = 0 a row is one plain
int and the list steps are the cost.  The pass counts no states:
`TrellisReport.level_states`, which `states` and `state_count` read,
counts them on first read, in a second pass over the levels with O(1)
more whole-vector operations per row.

Memory is dense in the syndrome: a row takes 2^r * (n+1) bits whether
or not its lanes are reached, and two levels of rows are alive at once.
One `build_and_count` call in a fresh process, then the first read of
its `states` (Python 3.11, 2 shared x86-64 CPUs, one run each; peak RSS
from VmHWM, about 16 MB before the pass, and the same after the read;
[15,3], [21,5], [21,3] and [27,9] have the generators (X^n + 1)/f for
f = X^3 + 1, X^5 + X + 1, X^3 + X + 1 and X^9 + 1):

    code                    r    build     peak RSS      states   states read
    [127,127] full space    0   0.011 s     16 MB        46,849     0.023 s
    [63,57] Hamming         6   0.05 s      16 MB       380,751     0.06 s
    [127,120] Hamming       7   0.85 s      22 MB     5,905,207     1.0 s
    [63,51] BCH            12   1.9 s       42 MB    22,433,703     2.7 s
    [13,1] repetition      12   0.002 s     16 MB         3,761     0.003 s
    [15,3]                 12   0.003 s     16 MB        13,227     0.005 s
    [15,1] repetition      14   0.010 s     18 MB        14,281     0.014 s
    [17,1] repetition      16   0.04 s      29 MB        54,495     0.07 s
    [21,5]                 16   0.26 s      41 MB       582,444     0.35 s
    [19,1] repetition      18   0.25 s      84 MB       208,783     0.49 s
    [21,3]                 18   0.67 s     119 MB       756,316     1.0 s
    [27,9]                 18   1.9 s      220 MB    14,067,663     2.8 s
    [21,1] repetition      20   1.6 s      351 MB       802,595     2.7 s

Time and memory grow about 4x per two syndrome bits and again with n, so
r = 20 already needs over 300 MB at the shortest length it admits (the
last row ran with the guard lifted).  Builds are therefore guarded to
n-k <= 18 (cyclic_code.SYNDROME_GUARD, which also bounds each code's
coset-leader table); beyond that use exhaustive enumeration.
"""

from __future__ import annotations

from functools import cached_property
from operator import add
from typing import Dict, Iterator, List, Tuple

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
        # low = the W-1 low bits of every lane, high = the top bit of every lane
        self.low = self.ones * ((1 << (width - 1)) - 1)
        self.high = self.ones << (width - 1)

    def permutation(self, mask: int) -> List[Tuple[int, int]]:
        """The swaps that move lane s to lane s ^ mask."""
        return [self.swaps[b] for b in range(mask.bit_length()) if mask >> b & 1]

    @staticmethod
    def permute(x: int, swaps: List[Tuple[int, int]]) -> int:
        for shift, keep in swaps:
            x = ((x & keep) << shift) | ((x >> shift) & keep)
        return x

    def nonzero(self, x: int) -> int:
        """Number of nonzero lanes of x: adding `low` to a lane's low bits
        carries into its top bit exactly when they are not all zero."""
        return ((((x & self.low) + self.low) | x) & self.high).bit_count()

    def lane(self, x: int, s: int) -> int:
        return (x >> (s * self.width)) & self.lane_mask


class TrellisReport:
    """One forward pass: `final` maps (final weight, shift-set size) to the
    exact path count.

    Also derives the gamma histogram, |C*| and rho from `final`, and the
    number of materialized states per level (root first, final level last)
    from a second pass over the levels, run on first read of
    `level_states`, `states` or `state_count`.  A plain class: a dataclass
    would add more to the import than the rest of this module.
    """

    def __init__(self, code: CyclicCode, final: Dict[FinalState, int]) -> None:
        self.code = code
        self.final = final
        self.k = code.k

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

    @cached_property
    def level_states(self) -> Tuple[int, ...]:
        """Nonzero lanes per level: the root's 1 first, len(final) last."""
        counts = (sum(sum(map(vec.nonzero, rows)) for _, rows in groups.values()) for vec, groups in _levels(self.code))
        return (*counts, len(self.final))

    @property
    def states(self) -> int:
        """Number of materialized (reachable, weight-feasible) states."""
        return sum(self.level_states)


def _levels(code: CyclicCode) -> Iterator[Tuple[_Lanes, Dict[int, Tuple[int, List[int]]]]]:
    """(vec, groups) at the root and after each pair level 1..m-1.

    `groups` maps an index (0 = not yet fixed) to (base, rows), rows[t]
    the lane vector of weight base + t.
    """
    m = _check(code)
    h = code.parity_cols
    vec = _Lanes(code.r, code.n + 1)
    permute = vec.permute
    groups: Dict[int, Tuple[int, List[int]]] = {0: (0, [1])}
    yield vec, groups
    for level in range(1, m):
        # (c_i, c_{i+m}) -> (weight gain, syndrome mask), first half flipped:
        # (0, h_lo), (1, h_lo ^ h_hi), (1, 0), (2, h_hi).  The lo and 0
        # edges make p; the lo^hi and hi edges are p itself, one weight up
        # and permuted by hi.
        lo = vec.permutation(h[level - 1])
        hi = vec.permutation(h[level + m - 1])
        low = max(0, 2 * level - m)  # lightest feasible weight after this level
        nxt: Dict[int, Tuple[int, List[int]]] = {}
        for idx, (base, rows) in groups.items():
            # Rows t = cut..end-1 (weights low..m) are kept.  Row t is p[t]
            # plus p[t-1] permuted by hi, where p[t] is row t permuted by lo
            # plus row t-1; p below cut - 1 reaches no kept row.
            cut, end = max(low - base, 0), m + 1 - base
            s = max(cut - 1, 0)
            a = [permute(v, lo) for v in rows[s:]] if lo else rows[s:]
            p = [0] * s + list(map(add, a + [0], ([0] + rows)[s:]))
            up = [permute(v, hi) for v in p[s : end - 1]] if hi else p[s : end - 1]  # up[j] joins row s+1+j
            nxt[idx] = (base + cut, list(map(add, p[cut:end] + [0], up if cut else [0] + up)))
        # the index-0 row at weight `level` has just hit a zero running sum
        base, rows = nxt[0]
        nxt[level] = (level, [rows[level - base]])
        rows[level - base] = 0
        groups = nxt
        yield vec, groups


def build_and_count(code: CyclicCode) -> TrellisReport:
    """One pass: the report's `final` maps (final weight, shift-set size)
    to the exact path count.

    The report also carries gamma, |C*| and rho; its per-level state
    counts take a second pass, on first read.
    """
    for vec, groups in _levels(code):
        pass  # only the last level's rows reach the final level
    m = (code.n + 1) // 2
    h_m = code.parity_cols[m - 1]
    final: Dict[FinalState, int] = {}
    for idx, (base, rows) in groups.items():
        for wt, x in enumerate(rows, base):
            # c_m = 0 leaves the syndrome h_m to cancel; c_m = 1 needs syndrome 0
            for nwt, cnt in ((wt, vec.lane(x, h_m)), (wt + 1, vec.lane(x, 0))):
                if cnt and nwt in (m - 1, m):
                    key = (nwt, idx if idx else m)
                    final[key] = final.get(key, 0) + cnt
    return TrellisReport(code, final)


def state_count(code: CyclicCode) -> int:
    """Number of materialized (reachable, weight-feasible) states."""
    return build_and_count(code).states
