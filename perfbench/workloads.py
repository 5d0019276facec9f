"""The three benchmark workloads.

Each repetition of a workload runs in a fresh process (see run.py), so
every library cache starts empty, the way a CLI user meets it.  A
repetition has three timed parts:

  setup  import, code construction and lazy builds (timed in run.py);
  job    the workload's CLI-level report, called in process;
  batch  the workload's batch of library calls on seeded inputs.

Every operation is attempted under its own `except Exception`, so a
raised error is counted, never fatal.  Outputs are checked against
golden.json (recorded with record_golden.py) or, for codec round trips,
against the input.  Inputs depend only on the seed and the repetition
index, never on how an earlier operation behaved.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
from collections import Counter
from time import perf_counter
from typing import Dict, List, Optional

from qbalance import cli, cyclic_code, oracle, scheme_a, scheme_b, scheme_c, trellis
from qbalance.words import BitWord
from refclock import Clock

HERE = os.path.dirname(os.path.abspath(__file__))
CODES_DIR = os.path.join(HERE, "codes")

TABLE_FLAGS = ("--table1", "--table2")
# (name, module, function, args): the paper-tables large-n points.
POINTS = (
    ("rho_c_fullspace_4096", scheme_c, "rho_c_fullspace", (4096,)),
    ("rho_b_65536_0", scheme_b, "rho_b", (65536, 0)),
)
POINT_RTOL = 1e-9
ORACLE_CASES = (("a", 14, 2), ("b", 14, 2))
ORACLE_FLAGS = ("roundtrip", "gamma_match", "bad_match", "ok")
TRELLIS_CODES = ("simplex7", "bch15", "golay23", "bch31", "full127")
STREAM_CODES = ("simplex7", "bch15", "golay23")  # |C*| = 4, 48, 1316
# Fixed payloads (independent of --seed) whose flush outcome golden.json pins.
FLUSH_CHECK_SEED = 2204
FLUSH_CHECK_PAYLOADS = 16
FLUSH_CHECK_BITS = 256
CODEC_N = (16, 64, 256, 1024)
CODEC_Q = (0, 2, 6)


@dataclasses.dataclass(frozen=True)
class Size:
    cell_bits: int  # codec: message bits per (scheme, n, q) cell
    streams: int  # cyclic: streams per code
    payload_bits: int  # cyclic: payload bits per stream


SIZES = {
    "full": Size(cell_bits=24576, streams=64, payload_bits=256),
    "tiny": Size(cell_bits=1024, streams=4, payload_bits=48),
}


@dataclasses.dataclass
class Tally:
    """What one repetition did: operation outcomes and time spent.

    job_s is in reference seconds (see refclock), each job operation
    rescaled on its own; job_raw_s is the same in plain seconds.  The
    batch times are plain seconds here and rescaled per phase by run.py.
    """

    clock: Clock
    attempted: int = 0
    failed: int = 0
    silent: int = 0
    unexpected: int = 0  # failures that are neither known defects nor injected damage
    kinds: Counter = dataclasses.field(default_factory=Counter)
    mismatches: List[str] = dataclasses.field(default_factory=list)
    job_s: float = 0.0
    job_raw_s: float = 0.0
    batch_s: float = 0.0
    enc_s: float = 0.0
    dec_s: float = 0.0
    enc_bits: int = 0
    dec_bits: int = 0
    trellis_reports: int = 0
    decoded_frames: int = 0
    extra: Dict[str, float] = dataclasses.field(default_factory=dict)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, kind: str, exc: Optional[BaseException] = None, expected: bool = False) -> None:
        self.attempted += 1
        self.failed += 1
        if exc is None:
            self.silent += 1
        self.kinds[f"{kind}:{type(exc).__name__}" if exc is not None else f"{kind}:silent"] += 1
        if not expected:
            self.unexpected += 1

    def mismatch(self, what: str) -> None:
        self.mismatches.append(what)
        self.fail("golden-mismatch")

    def time_job(self, fn, *args):
        """Run one job operation; returns its result or the exception it raised."""
        out, raw = timed(fn, *args)
        self.job_raw_s += raw
        self.job_s += raw * self.clock.factor()
        return out


def timed(fn, *args):
    """(result or raised exception, seconds)."""
    t0 = perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # counted per operation by the caller
        out = exc
    return out, perf_counter() - t0


def run_cli(argv: List[str]):
    """qbalance.cli.run in process; returns its stdout, raises on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    if code != 0:
        raise RuntimeError(f"qbalance {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def code_path(name: str) -> str:
    return os.path.join(CODES_DIR, f"{name}.code")


def load_code(name: str):
    with open(code_path(name)) as fh:
        return cyclic_code.parse_code_file(fh.read())


def flush_fails(code) -> List[int]:
    """Indices of the fixed check payloads on which stream_encode hits the flush cycle.

    Any other error propagates.  The payloads are the same for every seed,
    so the result is a golden value: a change that makes the flush close
    on fewer (or more) of them shows as a mismatch.
    """
    rng = random.Random(FLUSH_CHECK_SEED)
    out = []
    for i in range(FLUSH_CHECK_PAYLOADS):
        try:
            scheme_c.stream_encode(code, BitWord(rng.getrandbits(FLUSH_CHECK_BITS), FLUSH_CHECK_BITS))
        except scheme_c.CodingError as exc:
            if "flush" not in str(exc):
                raise
            out.append(i)
    return out


def untraced(fn):
    """The library function itself, for calls that belong to the benchmark, not the workload."""
    return getattr(fn, "__wrapped__", fn)


# ---------------------------------------------------------------------------
# paper-tables


class PaperTables:
    """Tables 1 and 2 through the CLI, plus rho_c_fullspace(4096) and rho_b(65536, 0)."""

    def setup(self, golden):
        return None

    def job(self, state, tally: Tally, golden) -> None:
        for flag in TABLE_FLAGS:
            out = tally.time_job(run_cli, ["analyze", "redundancy", flag])
            if isinstance(out, Exception):
                tally.fail("job-raised", out)
            elif out != golden["tables"][flag]:
                tally.mismatch(f"table {flag}")
            else:
                tally.ok()

    def batch(self, state, tally: Tally, rng: random.Random, size: Size, golden) -> None:
        for name, module, func, args in POINTS:
            out, dt = timed(getattr(module, func), *args)
            tally.batch_s += dt
            want = golden["points"][name]
            if isinstance(out, Exception):
                tally.fail("point-raised", out)
            elif abs(out - want) > POINT_RTOL * abs(want):
                tally.mismatch(f"{name}: {out!r} != {want!r}")
            else:
                tally.ok()

    def check(self, state, tally: Tally, golden) -> None:
        pass

    def trace_extras(self, state, tally: Tally, golden) -> None:
        pass


# ---------------------------------------------------------------------------
# codec


def codec_cells():
    """(scheme, n, q, message length) for every codec cell."""
    for scheme in ("a", "b"):
        for n in CODEC_N:
            for q in CODEC_Q:
                yield scheme, n, q, n if scheme == "a" else n - 1


class Codec:
    """Scheme A and B round trips on seeded random messages, plus two oracle verifications."""

    def setup(self, golden):
        return None

    def job(self, state, tally: Tally, golden) -> None:
        for scheme, n, q in ORACLE_CASES:
            out = tally.time_job(oracle.verify_scheme, scheme, n, q)
            key = f"{scheme}_n{n}_q{q}"
            if isinstance(out, Exception):
                tally.fail("job-raised", out)
            elif {f: out.get(f) for f in ORACLE_FLAGS} != golden["oracle"][key]:
                tally.mismatch(f"oracle {key}")
            else:
                tally.ok()

    def batch(self, state, tally: Tally, rng: random.Random, size: Size, golden) -> None:
        cells = [
            (scheme, n, q, [BitWord(rng.getrandbits(length), length) for _ in range(size.cell_bits // n)])
            for scheme, n, q, length in codec_cells()
        ]
        bad = Counter()
        total = Counter()
        for scheme, n, q, msgs in cells:
            if scheme == "a":
                encode, decode = scheme_a.encode_a, scheme_a.decode_a
            else:
                encode, decode = scheme_b.encode_b, scheme_b.decode_b
            encoded = []
            t0 = perf_counter()
            for x in msgs:
                try:
                    encoded.append(encode(x, q))
                except Exception as exc:  # counted below
                    encoded.append(exc)
            tally.enc_s += perf_counter() - t0
            decoded = []
            t0 = perf_counter()
            for res in encoded:
                if isinstance(res, Exception):
                    decoded.append(None)
                    continue
                try:
                    decoded.append(decode(res.codeword, res.prefix, n, q))
                except Exception as exc:  # counted below
                    decoded.append(exc)
            tally.dec_s += perf_counter() - t0
            for x, res, out in zip(msgs, encoded, decoded):
                total[scheme] += 1
                if isinstance(res, Exception):
                    tally.fail("encode-raised", res)
                    continue
                if getattr(res.classification, "is_bad", False):
                    bad[scheme] += 1
                if res.codeword.length != n or res.codeword.value.bit_count() != n // 2 + q:
                    tally.fail("wrong-weight")
                    continue
                tally.enc_bits += x.length
                if isinstance(out, Exception):
                    tally.fail("decode-raised", out)
                elif out != x:
                    tally.fail("decode-silent")
                else:
                    tally.dec_bits += x.length
                    tally.ok()
        tally.batch_s += tally.enc_s + tally.dec_s
        for scheme in ("a", "b"):
            tally.extra[f"scheme_{scheme}.bad_frac"] = bad[scheme] / max(1, total[scheme])

    def check(self, state, tally: Tally, golden) -> None:
        pass

    def trace_extras(self, state, tally: Tally, golden) -> None:
        pass


# ---------------------------------------------------------------------------
# cyclic


def body_bits(enc, blob: bytes) -> List[int]:
    """Bit offsets (0 = MSB of byte 0) of every block bit in `blob`, frame by frame.

    Found by packing the encoding again with every block complemented:
    the bits that change are block bits, the rest is container framing.
    This keeps the channel independent of the container layout.
    """
    flipped = dataclasses.replace(
        enc,
        frames=tuple(
            dataclasses.replace(f, codeword=BitWord(f.codeword.value ^ ((1 << f.codeword.length) - 1), f.codeword.length))
            for f in enc.frames
        ),
    )
    other = untraced(scheme_c.pack_stream)(flipped)
    nbits = 8 * len(blob)
    if len(other) != len(blob):
        raise RuntimeError("container size depends on block contents; channel cannot locate blocks")
    diff = format(int.from_bytes(blob, "big") ^ int.from_bytes(other, "big"), f"0{nbits}b")
    body = [i for i, ch in enumerate(diff) if ch == "1"]
    if len(body) != sum(f.codeword.length for f in enc.frames):
        raise RuntimeError("container layout not recognised; channel cannot locate blocks")
    return body


def channel(enc, blob: bytes, flips_per_block: int, container_flip: bool, rng: random.Random) -> bytes:
    """Flip `flips_per_block` block bits per frame and, optionally, one framing bit.

    The framing flip lands in the header (the bits before the first block)
    or in the per-frame framing between blocks, each with probability 1/2.
    """
    body = body_bits(enc, blob)
    nbits = 8 * len(blob)
    flips: List[int] = []
    pos = 0
    for frame in enc.frames:
        width = frame.codeword.length
        flips += rng.sample(body[pos : pos + width], flips_per_block)
        pos += width
    if container_flip:
        header = list(range(body[0]))
        body_set = set(body)
        framing = [i for i in range(body[0], nbits) if i not in body_set]
        pool = framing if framing and (not header or rng.random() < 0.5) else header
        flips.append(rng.choice(pool))
    value = int.from_bytes(blob, "big")
    for i in flips:
        value ^= 1 << (nbits - 1 - i)
    return value.to_bytes(len(blob), "big")


@dataclasses.dataclass
class CyclicState:
    codes: Dict[str, object]
    radius: Dict[str, int]  # floor((d'-1)/2), d' = 2*ceil(d/2)


class Cyclic:
    """Scheme C: trellis reports for five codes, and stream round trips through a noisy channel."""

    def setup(self, golden) -> CyclicState:
        codes = {name: load_code(name) for name in STREAM_CODES}
        radius = {}
        for name, code in codes.items():
            d = golden["stream_codes"][name]["min_distance"]
            radius[name] = (2 * -(-d // 2) - 1) // 2
            scheme_c.build_balanced_code(code)  # C*, built lazily by the first decode otherwise
        return CyclicState(codes=codes, radius=radius)

    def job(self, state, tally: Tally, golden) -> None:
        for name in TRELLIS_CODES:
            out = tally.time_job(run_cli, ["trellis", "--code", code_path(name)])
            tally.trellis_reports += 1
            want = golden["trellis"][name]
            if isinstance(out, Exception):
                tally.fail("job-raised", out)
                continue
            report = json.loads(out)
            if report.get("gamma") != want["gamma"] or report.get("codebook_size") != want["codebook_size"]:
                tally.mismatch(f"trellis {name}")
            else:
                tally.ok()

    def batch(self, state: CyclicState, tally: Tally, rng: random.Random, size: Size, golden) -> None:
        plan = []
        for name in STREAM_CODES:
            for i in range(size.streams):
                payload = BitWord(rng.getrandbits(size.payload_bits), size.payload_bits)
                noisy = i % 2 == 1
                container_flip = i % 8 in (2, 7)
                plan.append((name, payload, noisy, container_flip, random.Random(rng.getrandbits(64))))
        encodes = flush_fails = pad_frames = payload_bits = container_bits = 0
        for name, payload, noisy, container_flip, chan_rng in plan:
            code = state.codes[name]

            def encode():
                enc = scheme_c.stream_encode(code, payload)
                return enc, scheme_c.pack_stream(enc)

            out, dt = timed(encode)
            tally.enc_s += dt
            encodes += 1
            if isinstance(out, Exception):
                flush = "flush" in str(out)
                flush_fails += flush
                tally.fail("flush-cycle" if flush else "encode-raised", out, expected=flush)
                continue
            enc, blob = out
            tally.enc_bits += payload.length
            pad_frames += len(enc.frames) - enc.payload_frames
            payload_bits += payload.length
            container_bits += 8 * len(blob)
            received = channel(enc, blob, state.radius[name] if noisy else 0, container_flip, chan_rng)
            out, dt = timed(lambda: scheme_c.stream_decode(code, scheme_c.unpack_stream(received)))
            tally.dec_s += dt
            tally.decoded_frames += len(enc.frames)
            if isinstance(out, Exception):
                tally.fail("container-flip" if container_flip else "decode-raised", out, expected=container_flip)
            elif out != payload:
                tally.fail("container-flip" if container_flip else "decode-silent", expected=container_flip)
            else:
                tally.dec_bits += payload.length
                tally.ok()
        tally.batch_s += tally.enc_s + tally.dec_s
        tally.extra["scheme_c.stream_encode.flush_fail_frac"] = flush_fails / max(1, encodes)
        tally.extra["scheme_c.stream.pad_frames"] = pad_frames / max(1, encodes - flush_fails)
        tally.extra["scheme_c.stream.rate"] = payload_bits / max(1, container_bits)

    def check(self, state: CyclicState, tally: Tally, golden) -> None:
        """Untimed: the flush outcome of the fixed check payloads, per stream code."""
        for name, code in state.codes.items():
            out, _ = timed(flush_fails, code)
            want = golden["stream_codes"][name]["flush_fails"]
            if isinstance(out, Exception):
                tally.fail("flush-check-raised", out)
            elif out != want:
                tally.mismatch(f"flush outcome {name}: {out} != {want}")
            else:
                tally.ok()

    def trace_extras(self, state, tally: Tally, golden) -> None:
        """Trellis state counts; a per-layer figure, checked against golden.json."""
        for name in TRELLIS_CODES:
            out, _ = timed(trellis.state_count, load_code(name))
            if isinstance(out, Exception):
                tally.fail("states-raised", out)
                continue
            tally.extra[f"trellis.states.{name}"] = out
            if out != golden["trellis"][name]["states"]:
                tally.mismatch(f"trellis states {name}: {out} != {golden['trellis'][name]['states']}")
            else:
                tally.ok()


WORKLOADS = {"paper-tables": PaperTables(), "codec": Codec(), "cyclic": Cyclic()}
