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
level set of the running sum.  An encoder sends only the least of them,
tau, which level_walk returns.  The whole sets (flip_indices, Scheme A's
balancing_indices, Scheme B's t_b) are per-bit references read off
running_sum, sharing no walk with the codec the oracle checks them
against.  The receiver-side sets Gamma(c) are the indices of new
running-sum extremes (fresh_walk).  Both walks read the word's integer
8 bits at a time through one lazily built 256-row table (Sarwate's
table-driven CRC idea, applied to prefix sums), skip every chunk whose
[min, max] window of sums cannot hold a level or a new extreme, and read
positions only from the others.  A length that is not a multiple of 8
is read with zero bits filling the last chunk, and what the fill adds
is dropped.  running_sum and cyclic_running_sum stay as per-bit
references.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import add
from typing import Dict, Iterator, List, Optional, Tuple


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

    Per-bit reference for level_walk and fresh_walk, which read 8 bits at a time.
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
    net, hits, ups, downs): lo and hi are the min and max of its 8 prefix
    sums, net the last one.  The other fields are position masks, bit k-1
    standing for the chunk's k-th bit: hits[r] marks the sums equal to r;
    ups[t] the sums that set a new maximum when the maximum so far is t
    (0 <= t < 8), downs[t] a new minimum when the minimum so far is -t.
    Steps are +/-1, so ups[t] is the first hit of each sum above t, and
    downs[t] of each sum below -t.  offsets[mask] lists the positions k
    of a mask, ascending.
    """
    rows = []
    shared: Dict[tuple, tuple] = {}  # equal mask tuples are stored once
    for b in range(256):
        sums = tuple(accumulate(1 if b >> (7 - k) & 1 else -1 for k in range(8)))
        hits: Dict[int, int] = {}
        for k, s in enumerate(sums):
            hits[s] = hits.get(s, 0) | 1 << k
        first = {s: mask & -mask for s, mask in hits.items()}
        ups = tuple(sum(first.get(s, 0) for s in range(t + 1, 9)) for t in range(8))
        downs = tuple(sum(first.get(-s, 0) for s in range(t + 1, 9)) for t in range(8))
        ups, downs = (shared.setdefault(masks, masks) for masks in (ups, downs))
        rows.append((min(sums), max(sums), sums[-1], hits, ups, downs))
    offsets = tuple(tuple(k + 1 for k in range(8) if m >> k & 1) for m in range(256))
    return tuple(rows), offsets


def level_walk(value: int, length: int, levels) -> Optional[int]:
    """The least j in 0..length whose running sum R_j is in levels, or None.

    value is a word's integer, as BitWord.value; levels a few ints.  The
    walk skips each chunk whose window of sums holds no level and stops at
    the first chunk with a hit, which is no hit if it lies past length.
    """
    if 0 in levels:
        return 0
    rows = _chunk_table()[0]
    low, high = min(levels), max(levels)
    base = j = 0
    for b in (value << (-length & 7)).to_bytes((length + 7) >> 3, "big"):
        lo, hi, net, hits, _, _ = rows[b]
        if base + lo <= high and base + hi >= low:
            mask = 0
            for level in levels:
                mask |= hits.get(level - base, 0)
            if mask:
                j += (mask & -mask).bit_length()
                return j if j <= length else None
        base += net
        j += 8
    return None


def fresh_walk(value: int, length: int, sign: int = 0) -> List[int]:
    """Indices whose running-sum value is new, ascending.

    The values seen so far form a range, so a value is new exactly when it
    is a new maximum or minimum.  sign > 0 keeps only nonnegative new
    values (the new maxima), sign < 0 only nonpositive ones (the new
    minima); the extreme the filter drops starts out of reach, at
    +/-8 * ceil(length / 8).  A chunk that sets no kept extreme is
    skipped; the extremes in the fill bits past length are dropped at
    the end.
    """
    rows, offsets = _chunk_table()
    data = (value << (-length & 7)).to_bytes((length + 7) >> 3, "big")
    reach = 8 * len(data)
    top = 0 if sign >= 0 else reach
    bottom = 0 if sign <= 0 else -reach
    out = [0]
    base = j = 0
    for b in data:
        lo, hi, net, _, ups, downs = rows[b]
        mask = 0
        if base + hi > top:
            mask, top = ups[top - base], base + hi
        if base + lo < bottom:
            mask, bottom = mask | downs[base - bottom], base + lo
        if mask:
            for k in offsets[mask]:
                out.append(j + k)
        base += net
        j += 8
    while out[-1] > length:
        out.pop()
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

