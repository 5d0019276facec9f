"""Per-call times of the float rho: rho_a_bound and rho_b at q = 0 and 6,
and rho_c_fullspace, at n = 2^8 .. 2^16, then the two calls of the
benchmark's paper-tables batch, rho_c_fullspace(4096) and rho_b(65536, 0);
each the best of 7 timeit runs of 3 calls.  Nothing is checked; the
values are the tests' job.

    python tools/rho_times.py
"""

import argparse
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qbalance.scheme_a import rho_a_bound  # noqa: E402
from qbalance.scheme_b import rho_b  # noqa: E402
from qbalance.scheme_c import rho_c_fullspace  # noqa: E402

EXPONENTS, QS = range(8, 17), (0, 6)
NUMBER, REPEAT = 3, 7
BATCH = (("rho_c_fullspace(4096)", rho_c_fullspace, (4096,)), ("rho_b(65536, 0)", rho_b, (65536, 0)))


def per_call_us(rho, *args):
    """Microseconds per call of rho(*args), the best of REPEAT runs."""
    return min(timeit.repeat(lambda: rho(*args), number=NUMBER, repeat=REPEAT)) / NUMBER * 1e6


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    ns = " / ".join(f"2^{e}" for e in EXPONENTS)
    rows = [(f"{rho.__name__} q={q}", rho, (q,)) for rho in (rho_a_bound, rho_b) for q in QS]
    for label, rho, tail in rows + [("rho_c_fullspace", rho_c_fullspace, ())]:
        cells = " / ".join(f"{per_call_us(rho, 1 << e, *tail):.1f}" for e in EXPONENTS)
        print(f"{label} us per call at n = {ns}: {cells} (best of {REPEAT} x {NUMBER})")
    cells = "; ".join(f"{label} {per_call_us(rho, *args):.1f}" for label, rho, args in BATCH)
    print(f"paper-tables batch us per call: {cells} (best of {REPEAT} x {NUMBER})")


if __name__ == "__main__":
    main()
