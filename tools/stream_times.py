"""Per-frame times of the Scheme C stream on the given code files: encode,
unpack, decode, and decode with t flips in every block (t the code's
radius), each the best of 15 timeit runs of 3 passes over 64 seeded 256-bit
payloads whose flush succeeds.  Nothing is checked; the round trips are the
tests' job.

    python tools/stream_times.py perfbench/codes/simplex7.code perfbench/codes/golay23.code
"""

import argparse
import dataclasses
import random
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qbalance.cyclic_code import parse_code_file  # noqa: E402
from qbalance.errors import CodingError  # noqa: E402
from qbalance.scheme_c import StreamFrame, pack_stream, stream_decode, stream_encode, unpack_stream  # noqa: E402
from qbalance.words import BitWord  # noqa: E402

PAYLOADS, BITS, NUMBER, REPEAT = 64, 256, 3, 15


def streams(code, rng):
    """PAYLOADS seeded payloads and their encodings; a payload whose flush
    cycles is drawn again."""
    out = []
    while len(out) < PAYLOADS:
        payload = BitWord(rng.getrandbits(BITS), BITS)
        try:
            out.append((payload, stream_encode(code, payload)))
        except CodingError:
            continue
    return out


def with_flips(enc, t, rng):
    """enc with t distinct flipped positions in every block."""
    frames = [f.codeword.value ^ sum(1 << i for i in rng.sample(range(enc.n), t)) for f in enc.frames]
    return dataclasses.replace(enc, frames=tuple(StreamFrame(codeword=BitWord(v, enc.n)) for v in frames))


def per_frame_us(code):
    """{step: microseconds per frame} for the four steps."""
    rng = random.Random(0)
    sent = streams(code, rng)
    blobs = [pack_stream(enc) for _, enc in sent]
    noisy = [with_flips(enc, code.coset_leaders[1], rng) for _, enc in sent]
    frames = sum(len(enc.frames) for _, enc in sent)
    steps = {
        "encode": lambda: [stream_encode(code, payload) for payload, _ in sent],
        "unpack": lambda: [unpack_stream(blob) for blob in blobs],
        "decode": lambda: [stream_decode(code, enc) for _, enc in sent],
        "decode t flips": lambda: [stream_decode(code, enc) for enc in noisy],
    }
    return frames, {name: min(timeit.repeat(run, number=NUMBER, repeat=REPEAT)) / NUMBER / frames * 1e6 for name, run in steps.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("codes", nargs="+", help="code files")
    args = parser.parse_args(argv)
    for path in args.codes:
        code = parse_code_file(Path(path).read_text())
        frames, times = per_frame_us(code)
        cells = ", ".join(f"{name} {us:.2f}" for name, us in times.items())
        print(
            f"{Path(path).stem} [{code.n},{code.k}] stream, us per frame: {cells} "
            f"(t = {code.coset_leaders[1]}; {frames} frames; best of {REPEAT} x {NUMBER})"
        )


if __name__ == "__main__":
    main()
