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
by weight: a group is (base, rows), rows[t] holding the counts of all
2^r syndromes (r = n-k) at weight base + t as one Python int of 2^r
lanes, lane s at bits [s*W, (s+1)*W) holding the count of syndrome s.
The level's four edges add 0, 1, 1 and 2 to the weight and flip the
syndrome by h_lo, h_lo ^ h_hi, 0 and h_hi, so a level is one edge step,
`_step`, over the rows of a group:

- p = the rows permuted by h_lo, plus the rows one weight up: the gain-0
  edge and the unpermuted gain-1 edge;
- the lo^hi and hi edges are exactly p, one weight up and permuted by
  h_hi, so the next rows are p plus p permuted by h_hi one weight up;
- the rows are trimmed to the weights the caller names.

Within a row:

- the edge syn -> syn ^ mask is a lane permutation: for each set bit b
  of the mask, neighbouring blocks of 2^b lanes swap places, selected by
  the precomputed mask M_b of the lanes whose syndrome has bit b clear;
- merging paths is int addition (OR in the census, below);
- a row reads as its lanes in one `to_bytes`: a memoryview cast at
  W = 8, 16, 32 or 64 bits, W/8-byte slices past that, so the read is
  linear in the row's size.

Forward and backward.  A path's index is the level of its first zero,
and it never changes the edges the path takes after it.  So
`build_and_count` joins two passes of the same step:

- forward, it steps only the index-0 group, the paths with no zero yet,
  over the weights max(0, 2L-m)..m that can still end at m-1 or m.  Its
  row at weight L has just hit zero at level L: that row, hit_L, is kept
  and zeroed in the group.  After level m-1 the group is index m, whose
  lanes h_m and 0 the last bit c_m = 0 or 1 accepts;
- backward, it steps a completion table D_L, rows indexed by the weight
  g still to gain, lane s counting the ways that levels L+1..m gain g
  and flip the syndrome by s, so cancel it.  D_{m-1} is {g = 0: lane
  h_m, g = 1: lane 0}, and D_{L-1}(g, s) = sum over level L's edges of
  D_L(g - gain, s ^ mask), which is the forward step over rows indexed
  by g, trimmed to the gains max(0, m-2L+2)..m-1 that a hit still needs;
- final[(f, L)] = sum over s of hit_L(s) * D_L(f - L, s), f in {m-1, m}.

Only the m-1 hit rows and one level of the current pass's rows are
alive at once.

Census.  A state is materialized when some path reaches it, that is
when its count is nonzero, so the census pass, `_levels`, steps
reachability in place of counts: lanes of one bit, bit s of a row set
when syndrome s is reached, merged by OR through the same `_step`.  It
steps every index group of every level, up to m groups, and moves each
level's hit row out as a group of its own; the states of a row are its
set bits, `int.bit_count`.  `TrellisReport.level_states`, which
`states` and `state_count` read, runs it on first read.

Lane width.  No lane can overflow at W = n+1 bits: a state at level L
is reached by at most 4^L label paths, a completion after level L is
one of at most 2 * 4^(m-1-L), and both are at most 2^n.  The split reads
lanes, so its W is n+1 rounded up to 8, 16, 32 or 64 bits, and past 64
bits to whole bytes (`_width`): 32 bits for Golay[23,12], 64 for the
[63,k] codes and 128 for the [127,k] ones.  The census holds no count,
so its lanes are 1 bit wide.

Cost.  A level of either split pass holds at most m+1 rows, and each
row takes O(r) whole-vector operations for its two permutations, so the
split makes O(r n^2) big-int operations on 2^r * W-bit ints, plus 2(m-1)
inner products over 2^r lanes; the census, with up to m groups a level,
makes O(r n^3) on 2^r-bit ints.  At r = 0 a row is one plain int and
the list steps are the cost.  Memory is dense in the syndrome: a row
takes 2^r * W bits whether or not its lanes are reached.

One `build_and_count` call in a fresh process, then the first read of
its `states` (Python 3.11, 2 shared x86-64 CPUs; peak RSS from VmHWM,
about 15 MB before the pass; [15,3], [21,5], [21,3] and [27,9] have the
generators (X^n + 1)/f for f = X^3 + 1, X^5 + X + 1, X^3 + X + 1 and
X^9 + 1; "-": not read).  The build columns are one run each; the two
states columns are the best of three (one run at n = 2047), measured
later on the same kind of host, when builds ran 1.5-2.5x slower than
their column shows.  The census raises no peak by more than 5 MB over
the build's:

    code                    r    build     peak RSS      states    states read  peak RSS
    [127,127] full space    0   0.8 ms      16 MB        46,849     0.010 s      16 MB
    [63,57] Hamming         6   3.1 ms      15 MB       380,751     0.010 s      16 MB
    [127,120] Hamming       7   0.039 s     16 MB     5,905,207     0.098 s      16 MB
    [63,51] BCH            12   0.16 s      21 MB    22,433,703     0.041 s      22 MB
    [13,1] repetition      12   1.8 ms      15 MB         3,761    < 1 ms        16 MB
    [15,3]                 12   2.2 ms      15 MB        13,227     0.001 s      16 MB
    [15,1] repetition      14   8.0 ms      17 MB        14,281     0.001 s      17 MB
    [17,1] repetition      16   0.051 s     31 MB        54,495     0.002 s      31 MB
    [21,5]                 16   0.093 s     33 MB       582,444     0.008 s      34 MB
    [19,1] repetition      18   0.26 s      88 MB       208,783     0.010 s      82 MB
    [21,3]                 18   0.41 s      95 MB       756,316     0.024 s      91 MB
    [27,9]                 18   0.49 s     112 MB    14,067,663     0.046 s     111 MB
    [21,1] repetition      20   1.25 s     315 MB       802,595     0.042 s     306 MB
    [1023,1023] full space  0   0.026 s     16 MB    22,566,913     3.3 s        18 MB
    [2047,2047] full space  0   0.11 s      18 MB   179,744,769    33 s          24 MB
    [4095,4095] full space  0   0.58 s      29 MB             -         -           -

Build time and memory grow about 4x per two syndrome bits, so r = 20
already needs over 300 MB at the shortest length it admits (the [21,1]
row ran with the guard lifted).  Builds are therefore guarded to
n-k <= 18 (cyclic_code.SYNDROME_GUARD, which also bounds each code's
coset-leader table); beyond that use exhaustive enumeration.  Only n - k
is guarded: at r = 0 the build grows about 4-5x per doubling of n, to
0.58 s at the longest code `cyclic_code.BLOCK_MAX_N` admits, n = 4095,
where the census, growing about 6-8x per doubling of n, would take
minutes.
"""

from __future__ import annotations

import sys
from functools import cached_property
from operator import add, mul, or_
from typing import Dict, Iterator, List, Sequence, Tuple

from .cyclic_code import SYNDROME_GUARD, CyclicCode
from .errors import CapacityError
from .scheme_a import histogram_sum, rho_parts
from .scheme_c import _half

FinalState = Tuple[int, int]  # (weight, index)
_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}  # memoryview casts of one lane


def _check(code: CyclicCode) -> int:
    """m for the [2m-1, k] code, which the guard admits."""
    m = _half(code.n)
    if code.r > SYNDROME_GUARD:
        raise CapacityError(
            f"n-k={code.r} exceeds trellis guard {SYNDROME_GUARD}; "
            "use exhaustive enumeration instead"
        )
    return m


def _width(n: int) -> int:
    """Lane width for counts below 2^(n+1): 8, 16, 32 or 64 bits, past 64
    the n+1 bits rounded up to whole bytes, so that a row reads as lanes."""
    return max(8, 1 << n.bit_length()) if n < 64 else -(-(n + 1) // 8) * 8


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
        self.size = (width << r) // 8  # bytes of a row, for whole-byte widths
        self.lane_mask = (1 << width) - 1
        # swaps[b] = (shift, M_b): blocks of 2^b lanes, M_b = lanes with bit b clear
        self.swaps = [
            (width << b, _repeat((1 << (width << b)) - 1, width << (b + 1), lanes >> (b + 1)))
            for b in range(r)
        ]

    def permutation(self, mask: int) -> List[Tuple[int, int]]:
        """The swaps that move lane s to lane s ^ mask."""
        return [self.swaps[b] for b in range(mask.bit_length()) if mask >> b & 1]

    @staticmethod
    def permute(x: int, swaps: List[Tuple[int, int]]) -> int:
        for shift, keep in swaps:
            x = ((x & keep) << shift) | ((x >> shift) & keep)
        return x

    def lane(self, x: int, s: int) -> int:
        return (x >> (s * self.width)) & self.lane_mask

    def lanes(self, x: int) -> Sequence[int]:
        """Every lane of x, for a width of whole bytes, in memory order: a
        big-endian machine reverses it, which `dot` does not see."""
        data = x.to_bytes(self.size, sys.byteorder)
        if self.width in _FORMATS:
            return memoryview(data).cast(_FORMATS[self.width])
        step = self.width // 8
        return [int.from_bytes(data[i : i + step], sys.byteorder) for i in range(0, self.size, step)]

    def dot(self, a: Sequence[int], x: int) -> int:
        """Sum over s of a[s] * lane s of x, for `a` read by `lanes`."""
        return sum(map(mul, a, self.lanes(x)))


class TrellisReport:
    """`final` maps (final weight, shift-set size) to the exact path count.

    Also derives the gamma histogram, |C*| and rho from `final`, and the
    number of materialized states per level (root first, final level last)
    from the census pass over the levels, run on first read of
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
        """Reachable states per level, the set bits of the census pass's
        rows: the root's 1 first, len(final) last."""
        counts = (sum(row.bit_count() for _, rows in groups.values() for row in rows) for groups in _levels(self.code))
        return (*counts, len(self.final))

    @property
    def states(self) -> int:
        """Number of materialized (reachable, weight-feasible) states."""
        return sum(self.level_states)


def _step(permute, lo: list, hi: list, base: int, rows: List[int], low: int, high: int, join) -> Tuple[int, List[int]]:
    """One level's four edges, from the rows of weights base.. to the rows
    of weights low..high, merging paths by `join`: `add` for path counts,
    `or_` for reachability.

    The lo and 0 edges make p; the lo^hi and hi edges are p itself, one
    weight up and permuted by hi.
    """
    # Row t = cut..end-1 is p[t] plus p[t-1] permuted by hi, where p[t] is
    # row t permuted by lo plus row t-1; p below cut - 1 reaches no kept row.
    cut, end = max(low - base, 0), high + 1 - base
    s = max(cut - 1, 0)
    a = [permute(v, lo) for v in rows[s:]] if lo else rows[s:]
    p = [0] * s + list(map(join, a + [0], ([0] + rows)[s:]))
    up = [permute(v, hi) for v in p[s : end - 1]] if hi else p[s : end - 1]  # up[j] joins row s+1+j
    return base + cut, list(map(join, p[cut:end] + [0], up if cut else [0] + up))


def _edges(code: CyclicCode, width: int) -> Tuple[int, _Lanes, List[Tuple[list, list]]]:
    """m, lanes of `width` bits and each pair level's (lo, hi) permutations.

    (c_i, c_{i+m}) -> (weight gain, syndrome mask), first half flipped:
    (0, h_lo), (1, h_lo ^ h_hi), (1, 0), (2, h_hi).
    """
    m = _check(code)
    h = code.parity_cols
    vec = _Lanes(code.r, width)
    return m, vec, [(vec.permutation(h[level - 1]), vec.permutation(h[level + m - 1])) for level in range(1, m)]


def _levels(code: CyclicCode) -> Iterator[Dict[int, Tuple[int, List[int]]]]:
    """The census pass: the groups at the root and after each pair level
    1..m-1.

    `groups` maps an index (0 = not yet fixed) to (base, rows), rows[t]
    the 1-bit lanes of weight base + t, bit s set when syndrome s is
    reachable.
    """
    m, vec, edges = _edges(code, 1)
    groups: Dict[int, Tuple[int, List[int]]] = {0: (0, [1])}
    yield groups
    for level, (lo, hi) in enumerate(edges, 1):
        low = max(0, 2 * level - m)  # lightest feasible weight after this level
        groups = {idx: _step(vec.permute, lo, hi, base, rows, low, m, or_) for idx, (base, rows) in groups.items()}
        # the index-0 row at weight `level` has just hit a zero running sum
        base, rows = groups[0]
        groups[level] = (level, [rows[level - base]])
        rows[level - base] = 0
        yield groups


def build_and_count(code: CyclicCode) -> TrellisReport:
    """Forward over the paths with no zero yet, then backward over the
    completions: the report's `final` maps (final weight, shift-set size)
    to the exact path count.

    The report also carries gamma, |C*| and rho; its per-level state
    counts take the census pass, on first read.
    """
    m, vec, edges = _edges(code, _width(code.n))
    base, rows = 0, [1]
    hits = []  # hits[L-1]: the weight-L row whose running sum first hits zero at level L
    for level, (lo, hi) in enumerate(edges, 1):
        base, rows = _step(vec.permute, lo, hi, base, rows, max(0, 2 * level - m), m, add)
        hits.append(rows[level - base])
        rows[level - base] = 0
    h_m = code.parity_cols[m - 1]
    at = dict(enumerate(rows, base))  # index m: no zero before the last bit
    # c_m = 0 leaves the syndrome h_m to cancel; c_m = 1 needs syndrome 0
    final = {(f, m): vec.lane(at.get(f, 0), h_m) + vec.lane(at.get(f - 1, 0), 0) for f in (m - 1, m)}
    # rows[g] now counts, per syndrome s, the completions after level L that
    # gain weight base + g and cancel s; after level m-1 that is the last bit
    base, rows = 0, [1 << (h_m * vec.width), 1]
    for level in range(m - 1, 0, -1):
        hit = vec.lanes(hits.pop())
        for f in (m - 1, m):
            final[f, level] = vec.dot(hit, rows[f - level - base])
        lo, hi = edges[level - 1]
        # the same step, read backwards: gain g before level L is g - gain after it
        base, rows = _step(vec.permute, lo, hi, base, rows, max(0, m - 2 * level + 2), m - 1, add)
    return TrellisReport(code, {key: cnt for key, cnt in final.items() if cnt})


def state_count(code: CyclicCode) -> int:
    """Number of materialized (reachable, weight-feasible) states."""
    return build_and_count(code).states
