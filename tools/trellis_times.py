"""Build times of the syndrome trellis: `trellis.build_and_count` on each
code under perfbench/codes and on BCH[63,51], in milliseconds per call,
each the best of 5 timeit runs of as many builds as fill 20 ms (at least
one).  Nothing is checked; the counts are the tests' job.

    python tools/trellis_times.py
"""

import argparse
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qbalance.cyclic_code import from_generator, parse_code_file, poly_from_coeffs  # noqa: E402
from qbalance.trellis import build_and_count  # noqa: E402

# BCH[63,51], generator 1 + X^3 + X^4 + X^5 + X^8 + X^10 + X^12
BCH63 = ("bch63", from_generator(63, poly_from_coeffs([1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 0, 1])))
REPEAT, RUN_S = 5, 0.02


def per_call_ms(code):
    """Milliseconds per build of `code`, the best of REPEAT runs of about RUN_S each."""
    number = max(1, int(RUN_S / timeit.timeit(lambda: build_and_count(code), number=1)))
    return min(timeit.repeat(lambda: build_and_count(code), number=number, repeat=REPEAT)) / number * 1e3


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    paths = sorted((ROOT / "perfbench" / "codes").glob("*.code"))
    codes = [(path.stem, parse_code_file(path.read_text())) for path in paths] + [BCH63]
    cells = "; ".join(f"{name} [{code.n},{code.k}] {per_call_ms(code):.3f}" for name, code in codes)
    print(f"trellis build ms per call: {cells} (best of {REPEAT} runs of {RUN_S * 1e3:.0f} ms or one build)")


if __name__ == "__main__":
    main()
