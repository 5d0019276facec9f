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

Lane width.  A lane counts words on the positions P read so far that
share one syndrome, a coset of ker H_P, so no lane exceeds 2^f, f =
|P| - rank H_P <= k (the count behind Wolf's trellis bound, IEEE Trans.
IT 1978).  f never falls as P grows, and `_step`'s p counts words on a
subset of the next level's positions, so lanes of `_width(f)` bits, f+1
rounded up to 8, 16, 32 or 64 bits and past 64 bits to whole bytes, hold
every row a level forms.  P is levels 1..L forward, and c_m with levels
L+1..m-1 backward; `_widths` takes each pass's f from one incremental
GF(2) rank.  A row is widened (`_Lanes.widen`, a strided byte copy) only
where the width steps up, a hit row keeps its level's width, and each
inner product reads either side at its own.  BCH[63,51] steps through
8, 16, 32 and 64 bits (9, 4, 8 and 10 of its 31 forward levels), where
every lane was 64 bits wide; [27,9] takes 8 bits at all but one level,
where it took 32.  Where _width(k) is 8 bits, and on the full space
(r = 0, whose lone lane is the row itself), every level takes
_width(k).  The census holds no count, so its lanes are 1 bit wide.

Cost.  A level of either split pass holds at most m+1 rows, and each
row takes O(r) whole-vector operations for its two permutations, so the
split makes O(r n^2) big-int operations on 2^r * W-bit ints, W the
level's width (at most _width(k)), plus 2(m-1) inner products over 2^r
lanes; the census, with up to m groups a level, makes O(r n^3) on
2^r-bit ints.  At r = 0 a row is one plain int and the list steps are
the cost.  Memory is dense in the syndrome: a row takes 2^r * W bits
whether or not its lanes are reached.

One `build_and_count` call in a fresh process, then the first read of
its `states` (Python 3.11, 2 shared x86-64 CPUs; peak RSS from VmHWM,
about 16 MB before the pass; [15,3], [21,5], [21,3] and [27,9] have the
generators (X^n + 1)/f for f = X^3 + 1, X^5 + X + 1, X^3 + X + 1 and
X^9 + 1; "-": not read).  Each build is one run, best of three for
[63,51], [19,1] and [27,9], on one host, with every lane _width(n) bits
wide and with the lanes sized per level; the states, best of three, were
read after the sized build, whose peak the census never raised, and the
[1023,1023] and [2047,2047] states, past CENSUS_MAX_N, before that guard
on an earlier host:

    code                    r   build, _width(n)   sized per level      states   states read
    [127,127] full space    0   1.1 ms    16 MB    1.0 ms    16 MB        46,849     0.009 s
    [63,57] Hamming         6   4.0 ms    16 MB    3.9 ms    16 MB       380,751     0.009 s
    [127,120] Hamming       7   0.052 s   16 MB    0.042 s   16 MB     5,905,207     0.079 s
    [63,51] BCH            12   0.22 s    22 MB    0.13 s    20 MB    22,433,703     0.036 s
    [13,1] repetition      12   2.5 ms    16 MB    2.2 ms    16 MB         3,761    < 1 ms
    [15,3]                 12   3.1 ms    16 MB    2.8 ms    16 MB        13,227    < 1 ms
    [15,1] repetition      14   0.012 s   17 MB    0.010 s   16 MB        14,281    < 1 ms
    [17,1] repetition      16   0.098 s   31 MB    0.044 s   19 MB        54,495     0.002 s
    [21,5]                 16   0.16 s    34 MB    0.067 s   20 MB       582,444     0.007 s
    [19,1] repetition      18   0.38 s    85 MB    0.20 s    33 MB       208,783     0.008 s
    [21,3]                 18   0.60 s    90 MB    0.27 s    34 MB       756,316     0.032 s
    [27,9]                 18   0.74 s   109 MB    0.34 s    49 MB    14,067,663     0.039 s
    [21,1] repetition      20   1.75 s   323 MB    0.95 s    94 MB       802,595     0.038 s
    [1023,1023] full space  0   0.056 s   17 MB    0.037 s   17 MB    22,566,913     3.3 s
    [2047,2047] full space  0   0.25 s    19 MB    0.17 s    19 MB   179,744,769    33 s
    [4095,4095] full space  0   0.90 s    30 MB    0.81 s    29 MB             -         -

Build time grows about 4-5x per two syndrome bits, and memory about
3x with the lanes sized per level (4x at _width(n)), so r = 20 needs
94 MB even at its shortest length, n = 21 (the [21,1] row ran with the
work guard below lifted).

They also grow with n: at r > 0 the build's time follows its estimated
work m^2 (r + 1) 2^r W, W = _width(n), at 0.5-1.1e-10 s per unit with
every lane that wide and 0.2-0.7e-10 s with the lanes sized per level,
and its peak RSS grows as about 6 m 2^r W / 8 bytes at most.  One
`build_and_count` in a fresh process each, on the host of the table
above (generators: products of irreducible factors of X^n + 1; [63,48]
is (1 + X + X^6)(1 + X^3 + X^6)(1 + X + X^3), best and worst of three):

    code         r    work       build, _width(n)     sized per level
    [31,21]     10    9.2e7      0.0071 s   16 MB     0.0066 s    16 MB
    [127,119]    8    1.2e9      0.13 s     17 MB     0.064 s     16 MB
    [63,51]     12    3.5e9      0.22 s     22 MB     0.13 s      20 MB
    [63,50]     13    7.5e9      0.51 s     28 MB     0.23 s      24 MB
    [31,15]     16    9.1e9      0.48 s     44 MB     0.19 s      27 MB
    [255,247]    8    9.7e9      0.64 s     21 MB     0.44 s      19 MB
    [255,246]    9    2.1e10     1.4 s      27 MB     0.83 s      23 MB
    [63,48]     15    2^35       1.7 s      68 MB     0.87-0.91 s 50 MB
    [127,113]   14    1.3e11    11.0 s     117 MB     5.1 s       85 MB
    [511,502]    9    1.7e11    12.4 s      64 MB     7.6 s       47 MB
    [63,45]     18    3.3e11    28 s       442 MB    12.2 s      284 MB

So `build_and_count` raises CapacityError past that work, BUILD_MAX_WORK
= 2^35, whose W stays _width(n), so it admits and refuses the same
codes: builds of up to about 1 s and 50 MB ([63,48] at its edge; [27,9]:
3.1e10), the full space at every n that `cyclic_code.BLOCK_MAX_N` admits
(2^34 at n = 4095, 0.81 s), and not [511,493], which both n guards
admit, at 1.7e14 (about 26 GB at W = _width(n)).  The same guard bounds
r: at every odd n <= BLOCK_MAX_N the work of r = 19 is past it, the
least being 4.1e10 on [21,2], and the work grows with r, so every code
with n - k > 18 is refused; use exhaustive enumeration for those.

The census grows about 7x per doubling of n, and with r: it steps about
m^3 rows, each of r + 1 whole-int operations or so.  Census alone,
median of three fresh processes on an earlier host than the tables'
(one run at n = 511, r = 9; builds with every lane _width(n) bits wide):

    n       r = 0 (full space)    Hamming, r = log2(n+1)
    127     0.009 s               0.071 s (r = 7)
    255     0.063 s               0.63 s  (r = 8; build 0.78 s)
    511     0.43 s                5.7 s   (r = 9; build 12.8 s)
    1023    2.9 s
    2047    33 s (one run, on the host of the [2047,2047] states above)

So `level_states` raises CapacityError past n = CENSUS_MAX_N = 511.
At that edge the census takes 0.43 s on the full space and 5.7 s at
r = 9, after a longer build; at n = 1023 it takes 2.9 s at r = 0 and,
by the m^3 (r + 1) estimate, about 45 s at r = 10.  It has no guard on
r of its own: it runs only on a report that `build_and_count` returned,
so the build's work guard has already bounded r.
"""

from __future__ import annotations

import sys
from functools import cached_property
from itertools import chain
from operator import add, mul, or_
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .cyclic_code import CyclicCode
from .errors import CapacityError
from .scheme_a import _guard, histogram_sum, left_sum, rho_parts
from .scheme_c import _half

CENSUS_MAX_N = 511  # level_states, states and state_count; see the module docstring
BUILD_MAX_WORK = 1 << 35  # build_and_count's m^2 (r + 1) 2^r W; see the module docstring
FinalState = Tuple[int, int]  # (weight, index)
_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}  # memoryview casts of one lane


def _width(n: int) -> int:
    """Lane width for counts of at most 2^n: n+1 bits rounded up to 8, 16,
    32 or 64, past 64 to whole bytes, so that a row reads as lanes.  The
    build sizes each level by n = |P| - rank H_P (`_widths`); the guard's
    work estimate takes the code length, which bounds every count."""
    return 8 if n < 8 else 1 << n.bit_length() if n < 64 else -(-(n + 1) // 8) * 8


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
        big-endian machine reverses it, which `dot` does not see.  A lone
        lane (r = 0) is x itself."""
        if not self.swaps:
            return (x,)
        data = x.to_bytes(self.size, sys.byteorder)
        if self.width in _FORMATS:
            return memoryview(data).cast(_FORMATS[self.width])
        step = self.width // 8
        return [int.from_bytes(data[i : i + step], sys.byteorder) for i in range(0, self.size, step)]

    def dot(self, a: Sequence[int], x: int) -> int:
        """Sum over s of a[s] * lane s of x, for `a` read by `lanes`."""
        return sum(map(mul, a, self.lanes(x)))

    def widen(self, x: int, narrow: "_Lanes") -> int:
        """x, a row of `narrow`'s lanes, as a row of these wider ones: each
        lane's bytes copied to its place, strided."""
        data, row = x.to_bytes(narrow.size, "little"), bytearray(self.size)
        for j in range(narrow.width // 8):
            row[j :: self.width // 8] = data[j :: narrow.width // 8]
        return int.from_bytes(row, "little")


class TrellisReport:
    """`final` maps (final weight, shift-set size) to the exact path count.

    Also derives the gamma histogram, |C*| and rho from `final`, and the
    number of materialized states per level (root first, final level last)
    from the census pass over the levels, run on first read of
    `level_states`, `states` or `state_count`.  A plain class: a dataclass
    would add more to the import than the rest of this module.
    """

    def __init__(self, code: CyclicCode, final: Dict[FinalState, int]) -> None:
        self.code, self.final = code, final

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
        return left_sum(rho_parts(1, histogram_sum(self.gamma.items(), self.code.k))[0].values())

    @cached_property
    def level_states(self) -> Tuple[int, ...]:
        """Reachable states per level, the set bits of the census pass's
        rows: the root's 1 first, len(final) last; CapacityError past
        n = CENSUS_MAX_N."""
        _guard(self.code.n, CENSUS_MAX_N, "trellis state census")
        counts = (sum(row.bit_count() for _, rows in groups.values() for row in rows) for groups in _levels(self.code))
        return (*counts, len(self.final))

    @property
    def states(self) -> int:
        """Number of materialized (reachable, weight-feasible) states."""
        return sum(self.level_states)


def _widths(cols: Iterable[int]) -> List[int]:
    """_width(|P| - rank H_P) for each prefix P of the parity columns
    `cols`, the empty one first: one incremental GF(2) rank, its basis
    kept by leading bit."""
    basis: Dict[int, int] = {}
    out = [_width(0)]
    for size, col in enumerate(cols, 1):
        while col and col.bit_length() in basis:
            col ^= basis[col.bit_length()]
        if col:
            basis[col.bit_length()] = col
        out.append(_width(size - len(basis)))
    return out


def _step(lo: list, hi: list, base: int, rows: List[int], low: int, high: int, join) -> Tuple[int, List[int]]:
    """One level's four edges, from the rows of weights base.. to the rows
    of weights low..high, merging paths by `join`: `add` for path counts,
    `or_` for reachability.

    The lo and 0 edges make p; the lo^hi and hi edges are p itself, one
    weight up and permuted by hi.
    """
    # Row t = cut..end-1 is p[t] plus p[t-1] permuted by hi, where p[t] is
    # row t permuted by lo plus row t-1; p below cut - 1 reaches no kept row.
    permute = _Lanes.permute
    cut, end = max(low - base, 0), high + 1 - base
    s = max(cut - 1, 0)
    a = [permute(v, lo) for v in rows[s:]] if lo else rows[s:]
    p = [0] * s + list(map(join, a + [0], ([0] + rows)[s:]))
    up = [permute(v, hi) for v in p[s : end - 1]] if hi else p[s : end - 1]  # up[j] joins row s+1+j
    return base + cut, list(map(join, p[cut:end] + [0], up if cut else [0] + up))


def _levels(code: CyclicCode) -> Iterator[Dict[int, Tuple[int, List[int]]]]:
    """The census pass: the groups at the root and after each pair level
    1..m-1.

    `groups` maps an index (0 = not yet fixed) to (base, rows), rows[t]
    the 1-bit lanes of weight base + t, bit s set when syndrome s is
    reachable.
    """
    m, h, vec = _half(code.n), code.parity_cols, _Lanes(code.r, 1)
    groups: Dict[int, Tuple[int, List[int]]] = {0: (0, [1])}
    yield groups
    for level in range(1, m):
        lo, hi = vec.permutation(h[level - 1]), vec.permutation(h[level + m - 1])
        low = max(0, 2 * level - m)  # lightest feasible weight after this level
        groups = {idx: _step(lo, hi, base, rows, low, m, or_) for idx, (base, rows) in groups.items()}
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
    m = _half(code.n)
    work = m * m * (code.r + 1) * _width(code.n) << code.r
    if work > BUILD_MAX_WORK:
        raise CapacityError(
            f"[{code.n},{code.k}] trellis build work {work} exceeds guard {BUILD_MAX_WORK}; "
            "use exhaustive enumeration instead"
        )
    h = code.parity_cols
    h_m, top = h[m - 1], _width(code.k)
    # lane widths: forward at the root and after each pair level; backward for
    # D_{m-1} .. D_1, whose positions are c_m and those of levels L+1..m-1.
    # No count exceeds 2^k, so where _width(k) is the narrowest width, and
    # where a row is one lane (r = 0), _width(k) serves every level.
    ups = downs = [top] * m
    if code.r and top > _width(0):
        ups = _widths(chain(*zip(h[: m - 1], h[m:])))[::2]
        downs = _widths(chain([h_m], *zip(h[m - 2 : 0 : -1], h[2 * m - 2 : m : -1])))[1::2]
    lanes = {width: _Lanes(code.r, width) for width in {*ups, *downs}}
    # each pair level's lanes and (lo, hi) permutations, forward
    edges = [(vec, vec.permutation(lo), vec.permutation(hi)) for vec, lo, hi in zip(map(lanes.get, ups[1:]), h, h[m:])]
    vec, base, rows = lanes[ups[0]], 0, [1]
    hits = []  # hits[L-1]: the weight-L row whose running sum first hits zero at level L
    for level, (new, lo, hi) in enumerate(edges, 1):
        if new is not vec:
            rows, vec = [new.widen(x, vec) for x in rows], new
        base, rows = _step(lo, hi, base, rows, max(0, 2 * level - m), m, add)
        hits.append(rows[level - base])
        rows[level - base] = 0
    at = dict(enumerate(rows, base))  # index m: no zero before the last bit
    # c_m = 0 leaves the syndrome h_m to cancel; c_m = 1 needs syndrome 0
    final = {(f, m): vec.lane(at.get(f, 0), h_m) + vec.lane(at.get(f - 1, 0), 0) for f in (m - 1, m)}
    # rows[g] now counts, per syndrome s, the completions after level L that
    # gain weight base + g and cancel s; after level m-1 that is the last bit
    vec, base = lanes[downs[0]], 0
    rows = [1 << (h_m * vec.width), 1]
    for level in range(m - 1, 0, -1):
        hit_vec, lo, hi = edges[level - 1]
        hit = hit_vec.lanes(hits.pop())
        for f in (m - 1, m):
            final[f, level] = vec.dot(hit, rows[f - level - base])
        if level > 1:
            new = lanes[downs[m - level]]
            if new is not vec:
                rows, vec = [new.widen(x, vec) for x in rows], new
            if hit_vec is not vec:  # level L's permutations at D_{L-1}'s lanes
                lo, hi = vec.permutation(h[level - 1]), vec.permutation(h[level + m - 1])
            # the same step, read backwards: gain g before level L is g - gain after it
            base, rows = _step(lo, hi, base, rows, max(0, m - 2 * level + 2), m - 1, add)
    return TrellisReport(code, {key: cnt for key, cnt in final.items() if cnt})


def state_count(code: CyclicCode) -> int:
    """Number of materialized (reachable, weight-feasible) states."""
    return build_and_count(code).states
