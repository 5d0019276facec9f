"""Cyclic balancing of a cyclic code, with error correction and streaming.

Given an [n-1, k, d] cyclic code, a codeword is balanced by cyclically
shifting it until complementing the first half lands the weight in
{m-1, m}, then appending one bit.  Because shifts of codewords are
codewords, every output lives in a fixed coset of the code, so the
distinct outputs C* form a balanced codebook with minimum distance
2*ceil(d/2).  The shift index tau is transmitted on
ceil(log2 |Gamma(c)|) bits, where Gamma(c) is always a contiguous range
{0..size-1} read off the cyclic running sum of c.

Streaming chains the prefixes: frame t's shift index rides at the head
of frame t+1's packet, so decoding runs back to front.  The final
frame's own prefix has no successor to ride, so the encoder flushes it
into zero-filled pad frames until the tail frame is self-decodable (its
shift index is the unique candidate whose decoded packet ends in the
known zero fill).  A pad frame depends only on the prefix it carries, so
the flush fails as soon as a carried prefix repeats.

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
from typing import Dict, Iterator, List, Tuple

from .cyclic_code import CyclicCode, codewords, contains, encode_systematic
from .errors import AmbiguousBlockError, CodingError, DecodeError, StreamError
from .scheme_a import EncodeResult, _check_length, histogram_sum, rank_width, rho_parts
from .words import BitWord, cyclic_running_sum, cyclic_shift, flip_prefix, weight


def _half(length: int) -> int:
    if length % 2 == 0:
        raise ValueError(f"length {length} is even; cyclic balancing needs 2m-1")
    return (length + 1) // 2


def flip_c(x: BitWord) -> BitWord:
    """Complement the first half (m of 2m-1 bits); involutive."""
    return flip_prefix(x, _half(x.length))


def balancing_shifts(x: BitWord) -> Iterator[int]:
    """Shifts j for which flip_c(shift(x, j)) has weight m-1 or m, lazily
    and ascending; the first is the encoder's tau."""
    m = _half(x.length)
    targets = (m - 1, m)
    return (j for j in range(x.length + 1) if weight(flip_c(cyclic_shift(x, j))) in targets)


def gamma_size_c(c: BitWord) -> int:
    """|Gamma(c)|: index of the first zero in CR_1..CR_{m-1}, else m."""
    m = _half(c.length)
    if weight(c) not in (m - 1, m):
        raise ValueError(f"weight {weight(c)} not in {{{m - 1}, {m}}}")
    cr = cyclic_running_sum(c)
    for i in range(1, m):
        if cr[i] == 0:
            return i
    return m


def _append_balance_bit(c: BitWord) -> BitWord:
    """c plus the bit that lifts weight m-1 to m (a 0 when c already weighs m)."""
    return c.concat(BitWord(1 if weight(c) == _half(c.length) - 1 else 0, 1))


def encode_c(code: CyclicCode, x: BitWord) -> EncodeResult:
    if x.length != code.n:
        raise ValueError(f"word length {x.length} != code length {code.n}")
    if not contains(code, x):
        raise ValueError(f"{x} is not a codeword")
    tau = next(balancing_shifts(x))
    c = flip_c(cyclic_shift(x, tau))
    cprime = _append_balance_bit(c)
    r = rank_width(gamma_size_c(c))
    prefix = BitWord.from_str(format(tau, f"0{r}b") if r else "")
    return EncodeResult(codeword=cprime, prefix=prefix, classification=None, tau=tau)


def decode_c(code: CyclicCode, cprime: BitWord, p: BitWord) -> BitWord:
    if cprime.length != code.n + 1:
        raise ValueError(f"block length {cprime.length} != {code.n + 1}")
    m = _half(code.n)
    c = cprime.prefix(code.n)
    wt = weight(c)
    if wt not in (m - 1, m):
        raise DecodeError(f"stripped block weight {wt} outside {{{m - 1}, {m}}}")
    if cprime.bit(code.n + 1) != (1 if wt == m - 1 else 0):
        raise DecodeError("appended balance bit inconsistent with block weight")
    size = gamma_size_c(c)
    r = rank_width(size)
    if p.length != r:
        raise DecodeError(f"prefix length {p.length} != expected {r}")
    tau = p.value
    if tau >= size:
        raise DecodeError(f"shift index {tau} out of range for |Gamma|={size}")
    x = cyclic_shift(flip_c(c), -tau)
    if not contains(code, x):
        raise DecodeError("recovered word is not a codeword")
    return x


@lru_cache(maxsize=None)
def build_balanced_code(code: CyclicCode) -> Tuple[BitWord, ...]:
    """C*: the distinct balanced blocks the encoder can emit, sorted.

    A codeword whose own half-flip weighs m-1 or m encodes with tau = 0,
    and the encoder's shift of any codeword is such a codeword, so C* is
    exactly those half-flips plus their balance bit; no encoding runs.
    """
    m = _half(code.n)
    halves = (flip_c(x) for x in codewords(code))
    book = [_append_balance_bit(c) for c in halves if weight(c) in (m - 1, m)]
    return tuple(sorted(book, key=lambda w: w.value))


def correct_block(code: CyclicCode, received: BitWord) -> BitWord:
    """Nearest word of C* (complete decoding, lexicographic scan order).

    Raises AmbiguousBlockError when two codebook words are equally near;
    within radius floor((d'-1)/2) the nearest word is always unique.
    """
    book = build_balanced_code(code)
    if received.length != code.n + 1:
        raise ValueError(f"block length {received.length} != {code.n + 1}")
    best = None
    best_dist = received.length + 1
    ties = 0
    for cw in book:
        dist = (cw.value ^ received.value).bit_count()
        if dist < best_dist:
            best, best_dist, ties = cw, dist, 1
        elif dist == best_dist:
            ties += 1
    if ties > 1:
        raise AmbiguousBlockError(
            f"{ties} codebook words at distance {best_dist} from {received}"
        )
    return best


# ---------------------------------------------------------------------------
# Full-space distribution (no code constraint)


def gamma_counts_fullspace(n: int) -> Dict[int, int]:
    """{i: number of length-(n-1) target-weight words with |Gamma| = i} for
    i = 1..n/2, ascending: 2 Cat(i-1) C(2m-2i, m-i), twice a Catalan number
    times a central binomial.  Both come from one list of the central
    binomials C(2r, r), r < m, stepped by C(2r+2, r+1) = C(2r, r) 2(2r+1)/(r+1),
    with Cat(r) = C(2r, r)/(r+1)."""
    _check_length(n)
    m = n // 2
    central = [1]
    for r in range(m - 1):
        central.append(central[r] * 2 * (2 * r + 1) // (r + 1))
    return {i: 2 * (central[i - 1] // i) * central[m - i] for i in range(1, m + 1)}


def rho_c_parts(n: int) -> Dict[str, float]:
    """Redundancy over all of {0,1}^(n-1): 1 appended bit + mean log2 |Gamma|."""
    return rho_parts(1, histogram_sum(gamma_counts_fullspace(n), n - 1))


def rho_c_fullspace(n: int) -> float:
    """Average redundancy over all of {0,1}^(n-1): 1 + mean log2 |Gamma|."""
    return sum(rho_c_parts(n).values())


# ---------------------------------------------------------------------------
# Prefix-chained stream codec


@dataclass(frozen=True)
class StreamFrame:
    """One transmitted block: fresh payload consumed, block, carried prefix."""

    payload: BitWord
    codeword: BitWord
    prefix: BitWord


@dataclass(frozen=True)
class StreamEncoding:
    """Frames plus the header fields needed to terminate decoding."""

    frames: Tuple[StreamFrame, ...]
    payload_frames: int
    final_pad: int
    n: int


def _packet_of(code: CyclicCode, c: BitWord, tau: int) -> BitWord:
    return cyclic_shift(flip_c(c), -tau).prefix(code.k)


def _tail_zero_candidates(code: CyclicCode, c: BitWord, fill: int) -> List[int]:
    out = []
    for tau in range(gamma_size_c(c)):
        packet = _packet_of(code, c, tau)
        if fill == 0 or packet.suffix(fill).value == 0:
            out.append(tau)
    return out


def stream_encode(code: CyclicCode, payload: BitWord) -> StreamEncoding:
    """Chop payload into prefix-chained balanced blocks.

    Each frame's packet is [carried prefix][fresh payload bits], zero
    filled at the stream tail.  Pad frames are appended until the last
    frame's shift index is recoverable without a successor.
    """
    k = code.k
    if rank_width(_half(code.n)) > k:
        raise CodingError(f"prefix can exceed packet size for k={k}; code too small")
    bits = str(payload)
    frames: List[StreamFrame] = []
    payload_frames = final_pad = pos = 0
    carry = ""
    flushed = set()  # carries that have started a pad frame
    while pos < len(bits) or (frames and carry):
        pad = pos >= len(bits)
        if pad:
            if carry in flushed:
                raise CodingError(
                    f"stream flush cycles: carried prefix {carry} repeats after {len(flushed)} pad frames"
                )
            flushed.add(carry)
        room = k - len(carry)
        take = bits[pos : pos + room]
        pos += len(take)
        fill = room - len(take)
        res = encode_c(code, encode_systematic(code, BitWord.from_str(carry + take + "0" * fill)))
        frames.append(StreamFrame(payload=BitWord.from_str(take), codeword=res.codeword, prefix=res.prefix))
        carry = str(res.prefix)
        if not pad:
            payload_frames, final_pad = len(frames), fill
        elif len(_tail_zero_candidates(code, res.codeword.prefix(code.n), fill)) == 1:
            carry = ""  # the tail frame self-decodes; its own prefix is dropped
    return StreamEncoding(frames=tuple(frames), payload_frames=payload_frames, final_pad=final_pad, n=code.n + 1)


def stream_decode(code: CyclicCode, enc: StreamEncoding) -> BitWord:
    """Invert stream_encode, correcting each block against C* first."""
    if enc.n != code.n + 1:
        raise StreamError(f"container block length {enc.n} != code block length {code.n + 1}")
    if not enc.frames:
        return BitWord(0, 0)
    book = set(build_balanced_code(code))
    blocks = []
    for t, frame in enumerate(enc.frames):
        cw = frame.codeword
        if cw not in book:
            try:
                cw = correct_block(code, cw)
            except DecodeError as exc:
                raise type(exc)(f"frame {t}: {exc}") from exc
        blocks.append(cw)
    k = code.k
    total = len(blocks)
    if enc.payload_frames > total or enc.payload_frames < 1:
        raise StreamError("payload frame count inconsistent with container")

    stripped = [cw.prefix(code.n) for cw in blocks]
    sizes = [gamma_size_c(c) for c in stripped]
    widths = [rank_width(s) for s in sizes]

    packets: List[BitWord] = [None] * total  # type: ignore[list-item]
    last = total - 1
    if total == enc.payload_frames:
        if widths[last] != 0:
            raise StreamError(f"terminal frame {last} carries an unrecoverable prefix")
        tau = 0
    else:
        fill = k - widths[last - 1]
        cands = _tail_zero_candidates(code, stripped[last], fill)
        if len(cands) != 1:
            raise StreamError(f"terminal frame {last} is ambiguous ({len(cands)} candidates)")
        tau = cands[0]
    packets[last] = _packet_of(code, stripped[last], tau)

    for t in range(last - 1, -1, -1):
        head = str(packets[t + 1])[: widths[t]]
        tau = int(head, 2) if head else 0
        if tau >= sizes[t]:
            raise StreamError(f"frame {t}: shift index {tau} out of range")
        packets[t] = _packet_of(code, stripped[t], tau)

    out = str(packets[0])
    for t in range(1, enc.payload_frames):
        out += str(packets[t])[widths[t - 1] :]
    if enc.final_pad:
        body, pad = out[: len(out) - enc.final_pad], out[len(out) - enc.final_pad :]
        if pad.strip("0"):
            raise StreamError("payload fill bits are not zero")
        out = body
    return BitWord.from_str(out)


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
    values = (int.from_bytes(body[i : i + nbytes], "big") >> (8 * nbytes - n) for i in range(0, len(body), nbytes))
    empty = BitWord(0, 0)
    frames = tuple(StreamFrame(payload=empty, codeword=BitWord(v, n), prefix=empty) for v in values)
    return StreamEncoding(frames=frames, payload_frames=payload_frames, final_pad=final_pad, n=n)
