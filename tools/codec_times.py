"""Per-message times of the Scheme A and B codecs: encode and decode at
n = 16, 64, 256, 1024 and q = 0, 2, 6, each the best of 15 timeit runs of
3 passes over 64 seeded messages (random.Random(n); B's are n - 1 bits
long).  Nothing is checked; the round trips are the tests' job.

    python tools/codec_times.py
"""

import argparse
import random
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qbalance.scheme_a import decode_a, encode_a  # noqa: E402
from qbalance.scheme_b import decode_b, encode_b  # noqa: E402
from qbalance.words import BitWord  # noqa: E402

NS, QS = (16, 64, 256, 1024), (0, 2, 6)
MESSAGES, NUMBER, REPEAT = 64, 3, 15
CODECS = {"A": (encode_a, decode_a, 0), "B": (encode_b, decode_b, 1)}


def per_message_us(scheme, n, q):
    """(encode, decode) microseconds per message for one cell."""
    encode, decode, appended = CODECS[scheme]
    rng = random.Random(n)
    msgs = [BitWord(rng.getrandbits(n - appended), n - appended) for _ in range(MESSAGES)]
    sent = [encode(x, q) for x in msgs]
    steps = (
        lambda: [encode(x, q) for x in msgs],
        lambda: [decode(res.codeword, res.prefix, n, q) for res in sent],
    )
    return tuple(min(timeit.repeat(run, number=NUMBER, repeat=REPEAT)) / NUMBER / MESSAGES * 1e6 for run in steps)


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    for scheme in CODECS:
        for q in QS:
            cells = [per_message_us(scheme, n, q) for n in NS]
            print(
                f"{scheme} q={q} us per message at n = {' / '.join(map(str, NS))}: "
                f"encode {' / '.join(f'{enc:.2f}' for enc, _ in cells)}, "
                f"decode {' / '.join(f'{dec:.2f}' for _, dec in cells)} "
                f"({MESSAGES} messages; best of {REPEAT} x {NUMBER})"
            )


if __name__ == "__main__":
    main()
