"""Cyclic balancing of a cyclic code, with error correction and streaming.

Given an [n-1, k, d] cyclic code, a codeword is balanced by cyclically
shifting it until complementing the first half lands the weight in
{m-1, m}, then appending one bit.  Because shifts of codewords are
codewords, every output lives in a fixed coset of the code, so the
distinct outputs C* form a balanced codebook with minimum distance
2*ceil(d/2).  The shift index tau is transmitted on
ceil(log2 |Gamma(c)|) bits, where Gamma(c) is always a contiguous range
{0..size-1} read off the cyclic running sum of c.  The codec reads its
size with _gamma_size, four bit pairs per table row; gamma_size_c is
the per-bit reference over words.cyclic_running_sum, which no codec
path calls.

Correction is one corrector, syndrome (standard-array) decoding with a
scan behind it.  Stripped of its balance bit and with its first half
flipped back, a C* block is a codeword, so the syndrome of that word
names the error pattern through the code's coset-leader table, and no
codeword is enumerated.  This holds within radius t = floor((d-1)/2),
which is also the radius of C*.  A clean block has syndrome 0 and
pattern 0, so it needs neither a full table nor the scan and decodes on
any code, past both guards.  Beyond the radius the corrector scans C*,
which enumerates the 2^k codewords and needs k <= 24: on BCH[31,21] the
first such decode builds C* in 1.3-1.6 s (73 MB peak), each later one
scans it in about 40 ms.  correct_block and the stream both call it.

Per-frame work (encode, decode, correction, streaming) runs on the
plain int values of the words, position 1 being the top bit; BitWords
are built only for what a function returns, and stream_encode and
unpack_stream build one StreamFrame per distinct block in each call,
shared by every frame that carries that block (frames are frozen, so
only `is` can tell).  Every syndrome and
systematic encoding is read from the code's byte tables (xor_bytes),
built once per code.  Each codeword is checked once, where it enters:
encode_c reads the syndrome of the word it is given, and decode_c that
of the word it recovers.  The stream encodes its own packets, so their
codewords are not read again; _shift, which encode_c and the stream
share, checks nothing.  A frame is a pure function of its packet, and a
decoded block of the received block, so the stream keeps both in the
code's own memos (CyclicCode.stream_memo), read and filled by every
stream_encode and stream_decode call on that code object: over all its
calls the code works each distinct packet and each distinct received
block once while it stays among the newest STREAM_MEMO_MAX entries of
its memo, which drops its oldest entry to take in a new one at the cap.
The gain rests on repeats: packets repeat when 2^k is small next to the
frames streamed: a 256-bit stream runs to about 145 frames over at most
8 distinct packets on the [7,3] simplex code, BCH[15,7] has 128 packets
in all, and BCH[31,21] 2^21, where nothing repeats.  An exception is
never stored, so a repeated bad block raises again on every call,
naming its first frame.

Streaming chains the prefixes: frame t's shift index rides at the head
of frame t+1's packet, so decoding runs back to front.  The final
frame's own prefix has no successor to ride, so the encoder flushes it
into zero-filled pad frames until the tail frame is self-decodable (its
shift index is the unique candidate whose decoded packet ends in the
known zero fill).  A pad frame depends only on the prefix it carries, so
the flush fails as soon as a carried prefix repeats.

rho_c_fullspace(n) and rho_c_parts(n) sum each share as it is stepped
and keep only the lower half of the row, n/4 floats: 0.91 s and 56 MB at
n = 2^22.  They raise CapacityError past the float rho guard
scheme_a.RHO_MAX_N = 2^24 (3.7 s, 176 MB), whose curve is in scheme_a.

The QBS2 container is the magic b"QBS2", then the header fields (block
length n, total frames, payload frames, final pad) twice, each copy
followed by its CRC-32, then one ceil(n/8)-byte block per frame.  The
container's size depends only on the header.  A single flipped bit in
either header copy is harmless (the decoder reads the first copy whose
CRC matches), one in the magic is a StreamError, and one in a block is
corrected like any other channel error.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, islice
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .cyclic_code import STREAM_MEMO_MAX, CyclicCode, codeword_values, xor_bytes
from .errors import AmbiguousBlockError, CodingError, DecodeError, StreamError
from .scheme_a import HISTOGRAM_MAX_N, RHO_MAX_N, EncodeResult, Parts, _check_length, _guard, histogram_sum, left_sum, rank_width, rho_parts
from .words import BitWord, cyclic_running_sum, flip_prefix, weight


def _half(length: int) -> int:
    if length % 2 == 0:
        raise ValueError(f"length {length} is even; cyclic balancing needs 2m-1")
    return (length + 1) // 2


def _half_mask(m: int) -> int:
    """The first m of the 2m-1 positions, as an int (position 1 is the top bit)."""
    return ((1 << m) - 1) << (m - 1)


def _rotate(v: int, j: int, n: int) -> int:
    """cyclic_shift of the n-bit int v: rotate right by j, 0 <= j <= n."""
    return ((v >> j) | (v << (n - j))) & ((1 << n) - 1)


def _block(c: int, m: int) -> Optional[int]:
    """The (2m-1)-bit c plus the bit that lifts weight m-1 to m (a 0 when c
    already weighs m); None when c weighs neither."""
    excess = c.bit_count() - m
    return (c << 1) | 1 if excess == -1 else c << 1 if excess == 0 else None


@lru_cache(maxsize=None)
def _pair_table() -> Tuple[Tuple[int, int, int, Tuple[int, ...]], ...]:
    """rows[a << 4 | b], built on first use, describes four bit pairs
    (i, i+m) whose first bits are the nibble a and second bits the nibble
    b, both read high bit first, as (lo, hi, net, hits): lo and hi are the
    min and max of the 4 paired sums, net the last one, and hits[4 + s]
    marks the sums equal to s, bit k-1 standing for the k-th pair.  Steps
    are -1, 0 or +1, so every s in lo..hi has a hit.
    """
    rows = []
    for x in range(256):
        sums = tuple(accumulate((x >> (7 - k) & 1) + (x >> (3 - k) & 1) - 1 for k in range(4)))
        hits = [0] * 9
        for k, s in enumerate(sums):
            hits[4 + s] |= 1 << k
        rows.append((min(sums), max(sums), sums[-1], tuple(hits)))
    return tuple(rows)


def _gamma_size(c: int, m: int) -> int:
    """|Gamma| of the (2m-1)-bit c, from one walk of its bit pairs (i, i+m),
    four pairs per table row: CR_i is zero at the first i where as many of
    the 2i bits are 1 as are 0.  Zero pairs fill the last row, and a hit
    among them, past pair m-1, counts as none."""
    rows = _pair_table()
    fill = -(m - 1) & 3
    shift = m - 5 + fill
    first = (c >> m) << fill  # c_1..c_{m-1}
    second = (c & ((1 << (m - 1)) - 1)) << fill  # c_{m+1}..c_{2m-1}
    run = i = 0
    while shift >= 0:
        lo, hi, net, hits = rows[(first >> shift & 15) << 4 | second >> shift & 15]
        if lo <= -run <= hi:
            mask = hits[4 - run]
            i += (mask & -mask).bit_length()
            return i if i < m else m
        run += net
        i += 4
        shift -= 4
    return m


def flip_c(x: BitWord) -> BitWord:
    """Complement the first half (m of 2m-1 bits); involutive."""
    return flip_prefix(x, _half(x.length))


def balancing_shifts(x: BitWord) -> Iterator[int]:
    """Shifts j for which flip_c(shift(x, j)) has weight m-1 or m, lazily
    and ascending; the first is the encoder's tau."""
    n, v = x.length, x.value
    m = _half(n)
    half = _half_mask(m)
    return (j for j in range(n + 1) if (_rotate(v, j, n) ^ half).bit_count() in (m - 1, m))


def gamma_size_c(c: BitWord) -> int:
    """|Gamma(c)|: index of the first zero in CR_1..CR_{m-1}, else m; the
    per-bit reference of _gamma_size."""
    m = _half(c.length)
    if weight(c) not in (m - 1, m):
        raise ValueError(f"weight {weight(c)} not in {{{m - 1}, {m}}}")
    return next((i for i, r in enumerate(cyclic_running_sum(c)) if i and not r), m)


def _shift(x: int, n: int, half: int) -> Tuple[int, int]:
    """(tau, c) for the n-bit codeword x: its least balancing shift and the
    half-flip c of x shifted by tau, which weighs m-1 or m.  Neither x nor
    n is checked here, and half = _half_mask(m) comes from the caller:
    encode_c checks the word it is given, and the stream passes only
    codewords it has just encoded."""
    m, mask = (n + 1) // 2, (1 << n) - 1
    for tau in range(n + 1):
        c = (((x >> tau) | (x << (n - tau))) & mask) ^ half
        if m - 1 <= c.bit_count() <= m:
            return tau, c


def encode_c(code: CyclicCode, x: BitWord) -> EncodeResult:
    n = code.n
    if x.length != n:
        raise ValueError(f"word length {x.length} != code length {n}")
    if xor_bytes(code.syndrome_rows, x.value, n):
        raise ValueError(f"{x} is not a codeword")
    m = _half(n)
    tau, c = _shift(x.value, n, _half_mask(m))
    prefix = BitWord(tau, rank_width(_gamma_size(c, m)))
    return EncodeResult(codeword=BitWord(_block(c, m), n + 1), prefix=prefix, classification=None, tau=tau)


def decode_c(code: CyclicCode, cprime: BitWord, p: BitWord) -> BitWord:
    n = code.n
    if cprime.length != n + 1:
        raise ValueError(f"block length {cprime.length} != {n + 1}")
    m = _half(n)
    c = cprime.value >> 1
    wt = c.bit_count()
    if wt not in (m - 1, m):
        raise DecodeError(f"stripped block weight {wt} outside {{{m - 1}, {m}}}")
    if _block(c, m) != cprime.value:
        raise DecodeError("appended balance bit inconsistent with block weight")
    size = _gamma_size(c, m)
    r = rank_width(size)
    if p.length != r:
        raise DecodeError(f"prefix length {p.length} != expected {r}")
    tau = p.value
    if tau >= size:
        raise DecodeError(f"shift index {tau} out of range for |Gamma|={size}")
    x = _rotate(c ^ _half_mask(m), n - tau, n)
    if xor_bytes(code.syndrome_rows, x, n):
        raise DecodeError("recovered word is not a codeword")
    return BitWord(x, n)


@lru_cache(maxsize=None)
def build_balanced_code(code: CyclicCode) -> Tuple[BitWord, ...]:
    """C*: the distinct balanced blocks the encoder can emit, sorted.

    A codeword whose own half-flip weighs m-1 or m encodes with tau = 0,
    and the encoder's shift of any codeword is such a codeword, so C* is
    exactly those half-flips plus their balance bit; no encoding runs.
    """
    m = _half(code.n)
    flips = map(_half_mask(m).__xor__, codeword_values(code))
    blocks = sorted(c << 1 | (c.bit_count() < m) for c in flips if m - 1 <= c.bit_count() <= m)
    return tuple(BitWord(b, 2 * m) for b in blocks)


def _nearest(code: CyclicCode, y: int, half: int) -> int:
    """The C* block nearest the received (n+1)-bit block y: syndrome
    decoding within radius t, the scan of C* beyond it.  The caller checks
    the length of y and the parity of n, and passes half = _half_mask(m).

    Stripped of its balance bit and with its first half flipped back, a C*
    block is a codeword.  So the received block is stripped and flipped
    back, its syndrome names the coset leader e in the code's table, and
    the C* block whose half-flip is e away is returned when it is balanced
    and lies within t = floor((d'-1)/2) of the received block,
    d' = 2*ceil(d/2).  Such a block is the unique nearest word.  A C* block
    itself has syndrome 0 and leader 0, so it returns here on any code.

    Otherwise (beyond t, or past the table's guard, where t = 0) a
    lexicographic scan of C*, which needs k <= 24, returns the nearest
    block or raises AmbiguousBlockError when two are equally near.
    """
    n = code.n
    m, c = (n + 1) // 2, y >> 1
    leaders, t = code.coset_leaders
    e = leaders.get(xor_bytes(code.syndrome_rows, c ^ half, n))
    if e is not None:
        block = _block(c ^ e, m)
        if block is not None and (block ^ y).bit_count() <= t:
            return block
    best, best_dist, ties = 0, n + 2, 0
    for cw in build_balanced_code(code):
        dist = (cw.value ^ y).bit_count()
        if dist < best_dist:
            best, best_dist, ties = cw.value, dist, 1
        elif dist == best_dist:
            ties += 1
    if ties > 1:
        raise AmbiguousBlockError(f"{ties} codebook words at distance {best_dist} from {BitWord(y, n + 1)}")
    return best


def correct_block(code: CyclicCode, received: BitWord) -> BitWord:
    """Nearest word of C*: syndrome decoding within radius t, the scan of C*
    beyond it, which raises AmbiguousBlockError on a tie (see _nearest)."""
    if received.length != code.n + 1:
        raise ValueError(f"block length {received.length} != {code.n + 1}")
    return BitWord(_nearest(code, received.value, _half_mask(_half(code.n))), code.n + 1)


# ---------------------------------------------------------------------------
# Full-space distribution (no code constraint)


def gamma_counts_fullspace(n: int) -> Dict[int, int]:
    """{i: number of length-(n-1) target-weight words with |Gamma| = i} for
    i = 1..n/2, ascending: _histogram_c over the integers."""
    _check_length(n)
    _guard(n, HISTOGRAM_MAX_N, "exact histogram")
    return dict(_histogram_c(n, True))


def _histogram_c(n: int, exact: bool) -> Iterator[Tuple[int, Any]]:
    """The full-space |Gamma| histogram as (size, entry) pairs for
    i = 1..n/2, ascending, as exact counts or (exact=False) as float
    shares of 2^(n-1).

    The size-i count is 2 Cat(i-1) C(2m-2i, m-i), Cat(r) = C(2r, r)/(r+1),
    that is 2 p_i / i with p_i = C(2i-2, i-1) C(2m-2i, m-i), and its share
    p_i / i with p_i = c_{i-1} c_{m-i}, c_r = C(2r, r)/4^r.  The row c_r
    (or C(2r, r)) is stepped from 1 by the ratio (2r+1)/(2r+2) (or
    2(2r+1)/(r+1)), and only its lower half, r < ceil(m/2), is kept: each
    c_r of the upper half is multiplied onto its partner c_{m-1-r} as it
    is stepped, so the kept half ends as the products, and p_i = p_{m+1-i}
    serves both sizes (IEEE multiplication commutes).  No share cancels,
    and none is a big integer; the float pass holds m/2 floats.
    """
    m, h = n // 2, (n // 2 + 1) // 2
    half, c = [], (1 if exact else 1.0)
    for r in range(m):
        if r < h:
            half.append(c)
        if r >= m - h:  # c_r onto its partner c_{m-1-r}; a middle one onto itself
            half[m - 1 - r] *= c
        c = c * 2 * (2 * r + 1) // (r + 1) if exact else c * (2 * r + 1) / (2 * r + 2)
    for i, p in chain(enumerate(half, 1), zip(range(h + 1, m + 1), islice(reversed(half), m % 2, None))):
        yield i, 2 * p // i if exact else p / i


def rho_c_parts(n: int) -> Tuple[Parts, Parts]:
    """Redundancy over all of {0,1}^(n-1): 1 appended bit + mean index
    width, with log2 |Gamma| (analytical) and ceil(log2 |Gamma|) bits
    (operational), summed over the float shares of _histogram_c as they
    are stepped; its half row of m/2 floats sets RHO_MAX_N's memory."""
    _check_length(n)
    _guard(n, RHO_MAX_N, "float rho")
    return rho_parts(1, histogram_sum(_histogram_c(n, False), 0))


def rho_c_fullspace(n: int) -> float:
    """Average redundancy over all of {0,1}^(n-1): 1 + mean log2 |Gamma|."""
    return left_sum(rho_c_parts(n)[0].values())


# ---------------------------------------------------------------------------
# Prefix-chained stream codec


@dataclass(frozen=True)
class StreamFrame:
    """One transmitted block."""

    codeword: BitWord


@dataclass(frozen=True)
class StreamEncoding:
    """Frames plus the header fields needed to terminate decoding."""

    frames: Tuple[StreamFrame, ...]
    payload_frames: int
    final_pad: int
    n: int


def _frames(blocks: List[int], length: int) -> Tuple[StreamFrame, ...]:
    """The frames of the length-bit blocks: one StreamFrame per distinct
    block, shared by every position that carries it."""
    shared = {b: StreamFrame(codeword=BitWord(b, length)) for b in set(blocks)}
    return tuple(map(shared.__getitem__, blocks))


def _packet_of(x: int, tau: int, n: int, k: int) -> int:
    """The k-bit packet of the codeword that, shifted by tau, is the n-bit x."""
    return _rotate(x, n - tau, n) >> (n - k)


def _tail_zero_candidates(code: CyclicCode, c: int, size: int, fill: int) -> List[int]:
    """The shifts below size = |Gamma(c)| whose packet ends in `fill` zeros."""
    n, m = code.n, _half(code.n)
    x, zeros = c ^ _half_mask(m), (1 << fill) - 1
    return [tau for tau in range(size) if not _packet_of(x, tau, n, code.k) & zeros]


def stream_encode(code: CyclicCode, payload: BitWord) -> StreamEncoding:
    """Chop payload into prefix-chained balanced blocks.

    Each frame's packet is [carried prefix][fresh payload bits], zero
    filled at the stream tail.  Pad frames are appended until the last
    frame's shift index is recoverable without a successor.
    """
    n, k = code.n, code.k
    m = _half(n)
    if rank_width(m) > k:
        raise CodingError(f"prefix can exceed packet size for k={k}; code too small")
    encode_rows, half = code.encode_rows, _half_mask(m)
    bits, left = payload.value, payload.length  # left: payload bits not yet taken
    frame_of = code.stream_memo[0]  # packet -> (tau, |Gamma(c)|, its width, block)
    frame_get = frame_of.get  # bound once: an OrderedDict's .get is slower to look up than a dict's
    blocks: List[int] = []
    payload_frames = final_pad = 0
    carry = width = 0  # the carried prefix, as (value, width)
    flushed = set()  # carries that have started a pad frame
    while left or (blocks and width):
        pad = not left
        if pad:
            if (carry, width) in flushed:
                raise CodingError(
                    f"stream flush cycles: carried prefix {BitWord(carry, width)} repeats after {len(flushed)} pad frames"
                )
            flushed.add((carry, width))
        room = k - width
        take = min(room, left)
        left -= take
        fill = room - take
        packet = ((carry << take) | (bits >> left & ((1 << take) - 1))) << fill
        frame = frame_get(packet)
        if frame is None:
            tau, c = _shift(xor_bytes(encode_rows, packet, k), n, half)
            size = _gamma_size(c, m)
            frame = tau, size, rank_width(size), _block(c, m)
            if len(frame_of) >= STREAM_MEMO_MAX:
                frame_of.popitem(last=False)
            frame_of[packet] = frame
        carry, size, width, block = frame
        blocks.append(block)
        if not pad:
            payload_frames, final_pad = len(blocks), fill
        elif len(_tail_zero_candidates(code, block >> 1, size, fill)) == 1:
            carry = width = 0  # the tail frame self-decodes; its own prefix is dropped
    return StreamEncoding(frames=_frames(blocks, n + 1), payload_frames=payload_frames, final_pad=final_pad, n=n + 1)


def stream_decode(code: CyclicCode, enc: StreamEncoding) -> BitWord:
    """Invert stream_encode, each block taken as its nearest C* block."""
    n = code.n
    if enc.n != n + 1:
        raise StreamError(f"container block length {enc.n} != code block length {n + 1}")
    if not enc.frames:
        if enc.payload_frames or enc.final_pad:
            raise StreamError(f"header payload_frames {enc.payload_frames}, final_pad {enc.final_pad} with no frames")
        return BitWord(0, 0)
    m = _half(n)
    half = _half_mask(m)
    seen = code.stream_memo[1]  # received block -> (its nearest C* block stripped, |Gamma|, width)
    seen_get = seen.get
    hits = []
    for t, frame in enumerate(enc.frames):
        received = frame.codeword
        if received.length != n + 1:
            raise ValueError(f"frame {t}: block length {received.length} != {n + 1}")
        y = received.value
        hit = seen_get(y)
        if hit is None:
            try:
                c = _nearest(code, y, half) >> 1
            except DecodeError as exc:
                raise type(exc)(f"frame {t}: {exc}") from exc
            size = _gamma_size(c, m)
            hit = c, size, rank_width(size)
            if len(seen) >= STREAM_MEMO_MAX:
                seen.popitem(last=False)
            seen[y] = hit
        hits.append(hit)
    stripped, sizes, widths = zip(*hits)
    k = code.k
    total = len(stripped)
    if enc.payload_frames > total or enc.payload_frames < 1:
        raise StreamError("payload frame count inconsistent with container")

    room = k - (widths[enc.payload_frames - 2] if enc.payload_frames > 1 else 0)
    if enc.final_pad >= room:  # the last payload frame takes at least one fresh bit
        raise StreamError(f"header final_pad {enc.final_pad} >= {room} fresh bits of the last payload frame")

    packets = [0] * total
    last = total - 1
    if total == enc.payload_frames:
        if widths[last] != 0:
            raise StreamError(f"terminal frame {last} carries an unrecoverable prefix")
        tau = 0
    else:
        fill = k - widths[last - 1]
        cands = _tail_zero_candidates(code, stripped[last], sizes[last], fill)
        if len(cands) != 1:
            raise StreamError(f"terminal frame {last} is ambiguous ({len(cands)} candidates)")
        tau = cands[0]
    packets[last] = _packet_of(stripped[last] ^ half, tau, n, k)

    for t in range(last - 1, -1, -1):
        tau = packets[t + 1] >> (k - widths[t])
        if tau >= sizes[t]:
            raise StreamError(f"frame {t}: shift index {tau} out of range")
        packets[t] = _packet_of(stripped[t] ^ half, tau, n, k)

    out = length = 0
    for t in range(enc.payload_frames):
        fresh = k - (widths[t - 1] if t else 0)
        out = (out << fresh) | (packets[t] & ((1 << fresh) - 1))
        length += fresh
    if out & ((1 << enc.final_pad) - 1):
        raise StreamError("payload fill bits are not zero")
    return BitWord(out >> enc.final_pad, length - enc.final_pad)


# ---------------------------------------------------------------------------
# Binary container

_MAGIC = b"QBS2"
_FIELDS = struct.Struct(">HIIH")  # n, total frames, payload frames, final pad
_COPY = _FIELDS.size + 4  # fields + CRC-32


def pack_stream(enc: StreamEncoding) -> bytes:
    """Magic, the header twice (each copy with its CRC-32), fixed-size blocks."""
    fields = _FIELDS.pack(enc.n, len(enc.frames), enc.payload_frames, enc.final_pad)
    copy = fields + zlib.crc32(fields).to_bytes(4, "big")
    nbytes = (enc.n + 7) // 8
    blocks = []
    for frame in enc.frames:
        if frame.codeword.length != enc.n:
            raise ValueError(f"block length {frame.codeword.length} != header n {enc.n}")
        blocks.append((frame.codeword.value << (8 * nbytes - enc.n)).to_bytes(nbytes, "big"))
    return b"".join([_MAGIC, copy, copy, *blocks])


def unpack_stream(blob: bytes) -> StreamEncoding:
    if blob[:4] != _MAGIC:
        raise StreamError("bad container magic")
    for start in (4, 4 + _COPY):
        fields, crc = blob[start : start + _FIELDS.size], blob[start + _FIELDS.size : start + _COPY]
        if len(crc) == 4 and zlib.crc32(fields) == int.from_bytes(crc, "big"):
            break
    else:
        raise StreamError("no container header copy passes its CRC (damaged or truncated)")
    n, total, payload_frames, final_pad = _FIELDS.unpack(fields)
    if n < 2 or n % 2:
        raise StreamError(f"header block length {n} is not an even number >= 2")
    nbytes = (n + 7) // 8
    body = blob[4 + 2 * _COPY :]
    if len(body) != total * nbytes:
        raise StreamError(f"container body is {len(body)} bytes, header says {total} blocks of {nbytes}")
    values = [int.from_bytes(body[i : i + nbytes], "big") >> (8 * nbytes - n) for i in range(0, len(body), nbytes)]
    return StreamEncoding(frames=_frames(values, n), payload_frames=payload_frames, final_pad=final_pad, n=n)
