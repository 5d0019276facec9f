"""Binary-word arithmetic: weights, prefix flips, rotations, running sums.

Words are finite bit strings with 1-based positions; position 1 is the
leftmost character of the textual form "01101...".  Length is explicit so
leading zeros are significant.  A word of even length n = 2m has weight
target m + q when it is "q-balanced", i.e. its imbalance 2*(wt - m)
equals 2q.

Everything here is pure and allocation-light: a word is an (int, length)
pair where the textual string is read as a binary numeral.

Complementing the first j bits moves the weight by -R_j, where R is the
running sum, so the indices whose flip lands on a target weight form a
level set of R.  An encoder sends only the least of them, tau, as its
rank in the receiver-side set Gamma(c), the indices of new running-sum
extremes of the flipped word c.  Both are integers read off one walk of
the message, level_walk: c's running sum is -R up to tau and R - 2 R_tau
from it on, so |Gamma(c)| and tau's rank follow from the extremes of R
before and from tau.  On a miss level_walk returns the range of R: R
moves by +/-1, so it takes every value in the range, and the
complement's is -R.  A decoder needs |Gamma(c)| and Gamma(c)[rank], one
select_walk that counts new extremes by popcount.  The whole sets
(flip_indices, Scheme A's balancing_indices, Scheme B's t_b, and
fresh_indices, Gamma(c) itself) are per-bit references read off
running_sum, sharing no walk with the codec.  The two walks, which only
the codecs call, read the word's integer 8 bits at a time
through one lazily built 256-row table (Sarwate's table-driven CRC idea,
applied to prefix sums), skip every chunk whose [min, max] window of
sums cannot hold a level or a new extreme, and read positions only from
the others; a last chunk shorter than 8 bits is filled by retracing its
last step, which adds no new value of R.  running_sum and
cyclic_running_sum stay as per-bit references.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import add, or_
from typing import Dict, Iterator, List, Tuple


class BitWord:
    """Immutable binary word; position 1 = leftmost bit of str(word)."""

    __slots__ = ("value", "length")

    def __init__(self, value: int, length: int):
        if length < 0:
            raise ValueError("length must be nonnegative")
        if value < 0 or value >> length:
            raise ValueError(f"value {value} does not fit in {length} bits")
        _set_value(self, value)
        _set_length(self, length)

    def __setattr__(self, name, val):
        raise AttributeError("BitWord is immutable")

    @classmethod
    def from_str(cls, text: str) -> "BitWord":
        text = text.replace(" ", "")
        if text and set(text) - {"0", "1"}:
            raise ValueError(f"not a bit string: {text!r}")
        return cls(int(text, 2) if text else 0, len(text))

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitWord)
            and self.length == other.length
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.value, self.length))

    def __str__(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""

    def __repr__(self) -> str:
        return f"BitWord('{self}')"

    def prefix(self, j: int) -> "BitWord":
        """First j bits."""
        if not 0 <= j <= self.length:
            raise ValueError(f"prefix length {j} out of range")
        return BitWord(self.value >> (self.length - j), j)


# The slot descriptors' own setters, which bypass the __setattr__ guard;
# they cost about half of an object.__setattr__ call.
_set_value = BitWord.value.__set__
_set_length = BitWord.length.__set__


def all_words(n: int) -> Iterator[BitWord]:
    """Every length-n word, in numeral order (0...0 first)."""
    for v in range(1 << n):
        yield BitWord(v, n)


def weight(w: BitWord) -> int:
    """Number of 1 symbols."""
    return w.value.bit_count()


def flip_prefix(w: BitWord, j: int) -> BitWord:
    """Complement the first j bits; involutive for fixed j."""
    if not 0 <= j <= w.length:
        raise ValueError(f"flip length {j} out of range 0..{w.length}")
    mask = ((1 << j) - 1) << (w.length - j)
    return BitWord(w.value ^ mask, w.length)


def complement(w: BitWord) -> BitWord:
    return BitWord(w.value ^ ((1 << w.length) - 1), w.length)


def cyclic_shift(w: BitWord, i: int) -> BitWord:
    """Rotate right by i positions (mod length); negative i rotates left."""
    n = w.length
    if n == 0:
        return w
    i %= n
    if i == 0:
        return w
    return BitWord(((w.value >> i) | (w.value << (n - i))) & ((1 << n) - 1), n)


_STEP = {"0": -1, "1": 1}


def _steps(w: BitWord) -> Iterator[int]:
    """+1 per 1 bit, -1 per 0 bit, left to right, read off the bit string."""
    return map(_STEP.__getitem__, str(w))


def running_sum(w: BitWord) -> List[int]:
    """R_0 = 0, R_i = R_{i-1} +/- 1 per bit i (1 -> +1); final entry = imbalance.

    Per-bit reference for level_walk and select_walk, which read 8 bits at a time.
    """
    return list(accumulate(_steps(w), initial=0))


def cyclic_running_sum(w: BitWord) -> List[int]:
    """Paired running sum of an odd-length word, indexed 0..m-1; a per-bit reference.

    For length 2m-1, entry i adds the +/-1 contributions of positions i
    and i+m to entry i-1.  Entry 0 is 0 and position m itself is never
    consumed, so the vector has m entries.
    """
    if w.length % 2 == 0:
        raise ValueError(f"length {w.length} is even; need odd length 2m-1")
    m = (w.length + 1) // 2
    steps = list(_steps(w))
    return list(accumulate(map(add, steps[: m - 1], steps[m:]), initial=0))


@lru_cache(maxsize=None)
def _chunk_table() -> Tuple[Tuple[tuple, ...], Tuple[Tuple[int, ...], ...]]:
    """(rows, offsets), built on first use.

    rows[b] describes the 8-bit chunk b read left to right as (lo, hi,
    net, hits, ups, downs, parts): lo and hi are the min and max of its 8
    prefix sums, net the last one.  hits, ups and downs are position
    masks, bit k-1 standing for the chunk's k-th bit: hits[r] marks the
    sums equal to r; ups[t] the sums that set a new maximum when the
    maximum so far is t (0 <= t < 8), downs[t] a new minimum when the
    minimum so far is -t.  Steps are +/-1, so ups[t] is the first hit of
    each sum above t, and downs[t] of each sum below -t.  parts[k-1]
    splits the sums 0, s_1, .., s_8 at the k-th bit into (min, max) of
    those before it, then of those from it on.  offsets[mask] lists the
    positions k of a mask, ascending.
    """
    rows = []
    shared: Dict[tuple, tuple] = {}  # equal tuples are stored once
    for b in range(256):
        sums = tuple(accumulate(1 if b >> (7 - k) & 1 else -1 for k in range(8)))
        hits: Dict[int, int] = {}
        for k, s in enumerate(sums):
            hits[s] = hits.get(s, 0) | 1 << k
        first = {s: mask & -mask for s, mask in hits.items()}
        # running ORs of the first hits past each level, from t = 7 down
        ups, downs = (tuple(accumulate([first.get(s, 0) for s in range(8 * d, 0, -d)], or_))[::-1] for d in (1, -1))
        ups, downs = (shared.setdefault(masks, masks) for masks in (ups, downs))
        pre, post = (list(zip(accumulate(s, min), accumulate(s, max))) for s in ((0, *sums), (*sums[::-1], 0)))
        parts = tuple(shared.setdefault(p + s, p + s) for p, s in zip(pre, post[7::-1]))
        rows.append((min(sums), max(sums), sums[-1], hits, ups, downs, parts))
    offsets = tuple(tuple(k + 1 for k in range(8) if m >> k & 1) for m in range(256))
    return tuple(rows), offsets


def level_walk(value: int, length: int, targets: Dict[int, int]) -> Tuple[int, ...]:
    """On a hit (tau, |Gamma(c)|, z): tau the least j in 0..length whose
    prefix flip lands on a weight in targets, c that flip, Gamma(c) its
    fresh_indices with the sign targets[weight of c], and z the number of
    Gamma(c)'s indices below tau, which is tau's rank in it whenever tau is
    one of them (in A's and B's codecs it always is).  On a miss the range
    (min, max) of R_0..R_length.

    value is a word's integer, as BitWord.value; targets maps a few
    weights to signs.  A flip of the first j bits has weight wt - R_j, so
    the walk skips each chunk whose window of sums holds no level wt - t,
    and keeps the windows' min and max, [floor, ceil].  c's running sum is
    -R_i up to tau and R_i - 2 R_tau from it on, so the chunk of the hit is
    split by its parts: R before tau joins [floor, ceil], and R from tau on
    starts [low, high], which the later chunks widen.  Gamma(c) is the
    range of c's sums, or its nonnegative or nonpositive half, and z counts
    its values before tau.  A last chunk shorter than 8 bits is filled by
    retracing the last step back and forth, so the fill adds no value of R
    that an earlier position lacks.
    """
    wt = value.bit_count()
    rows = _chunk_table()[0]
    fill = -length & 7  # the fill bits alternate, starting against the last real bit
    padded = (value << fill | (0x55 if value & 1 else 0xAA) >> 8 - fill) if fill else value
    data = iter(padded.to_bytes((length + 7) >> 3, "big"))
    base = j = tau = floor = ceil = low = high = 0
    if wt not in targets:
        low = high = None  # the least and greatest level; min and max cost more on a few targets
        for t in targets:
            if low is None or wt - t < low:
                low = wt - t
            if high is None or wt - t > high:
                high = wt - t
        for b in data:
            lo, hi, net, hits, _, _, parts = rows[b]
            lo += base
            hi += base
            if lo <= high and hi >= low:
                mask = 0
                for t in targets:
                    mask |= hits.get(wt - base - t, 0)
                if mask:
                    k = (mask & -mask).bit_length()
                    tau, (lo, hi, low, high) = j + k, parts[k - 1]
                    floor = floor if floor < base + lo else base + lo
                    ceil = ceil if ceil > base + hi else base + hi
                    low, high, base = base + low, base + high, base + net
                    break
            if lo < floor:
                floor = lo
            if hi > ceil:
                ceil = hi
            base += net
            j += 8
        else:
            return floor, ceil
    for b in data:
        lo, hi, net, _, _, _, _ = rows[b]
        low, high, base = base + lo if base + lo < low else low, base + hi if base + hi > high else high, base + net
    r = 2 * (value >> length - tau).bit_count() - tau  # R_tau
    if tau == length:  # the fill past length is not c's
        low = high = r
    sign, low, high = targets[wt - r], low - 2 * r, high - 2 * r  # c's sums from tau on
    top = (high if high > -floor else -floor) if sign >= 0 else 0
    bottom = (low if low < -ceil else -ceil) if sign <= 0 else 0
    return tau, top - bottom + 1, 1 + (-floor if sign >= 0 else 0) + (ceil if sign <= 0 else 0) if tau else 0


def select_walk(value: int, length: int, sign: int, rank: int) -> Tuple[int, int | None]:
    """(len(gamma), gamma[rank]) for gamma = fresh_indices(BitWord(value,
    length), sign), without the list: each chunk's new extremes are counted
    by popcount and read by position only in the chunk that holds the rank.
    The values seen so far form a range, so a value is new exactly when it
    is a new maximum or minimum, and the extreme that sign drops starts out
    of reach, at +/-8 * ceil(length / 8).  A chunk that sets no kept
    extreme is skipped, and the fill past length, as level_walk's, sets
    none.  gamma[rank] is None when rank is out of range."""
    rows, offsets = _chunk_table()
    fill = -length & 7  # as level_walk's
    padded = (value << fill | (0x55 if value & 1 else 0xAA) >> 8 - fill) if fill else value
    top, bottom = (0 if sign >= 0 else length + fill), (0 if sign <= 0 else -length - fill)
    size, index, base, j = 1, 0 if rank == 0 else None, 0, 0
    for b in padded.to_bytes((length + 7) >> 3, "big"):
        lo, hi, net, _, ups, downs, _ = rows[b]
        mask = 0
        if base + hi > top:
            mask, top = ups[top - base], base + hi
        if base + lo < bottom:
            mask, bottom = mask | downs[base - bottom], base + lo
        if mask:
            count = mask.bit_count()
            if 0 <= rank - size < count:
                index = j + offsets[mask][rank - size]
            size += count
        base, j = base + net, j + 8
    return size, index


def fresh_indices(w: BitWord, sign: int = 0) -> List[int]:
    """Gamma(w): the indices whose running-sum value is new, ascending.

    sign > 0 keeps only the nonnegative new values (the new maxima),
    sign < 0 only the nonpositive ones (the new minima); index 0, whose
    value 0 is new, is always kept.  A per-bit reference, read off
    running_sum.
    """
    out = [0]
    lo = hi = 0
    for i, r in enumerate(running_sum(w)):
        if r > hi:
            hi = r
            if sign >= 0:
                out.append(i)
        elif r < lo:
            lo = r
            if sign <= 0:
                out.append(i)
    return out


def flip_indices(w: BitWord, targets) -> List[int]:
    """All j in 0..n with weight(flip_prefix(w, j)) in targets, ascending.

    Flipping the first j bits moves the weight by -R_j; a per-bit
    reference, read off running_sum.
    """
    wt = weight(w)
    return [j for j, r in enumerate(running_sum(w)) if wt - r in targets]


def balancing_indices(w: BitWord, q: int) -> List[int]:
    """All j in 0..n with weight(flip_prefix(w, j)) == n/2 + q, ascending.

    May be empty for q > 0; for q = 0 it never is (Knuth's observation).
    """
    n = w.length
    if n % 2:
        raise ValueError(f"length {n} is odd; balancing needs even length")
    return flip_indices(w, (n // 2 + q,))

