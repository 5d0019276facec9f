"""A 40-digit reference for every float rho, with the standard library's
decimal only: the good term sum of i * gamma_i * log2(i) / 2^k over an exact
|Gamma| histogram, plus the flag bits and the bad term from the exact census.

    PYTHONPATH=src python tests/rho_reference.py --scheme b -n 16384 -q 0

prints the reference, the library's analytical rho and their relative
error.  Each share gamma_i / 2^k is cut to FRACTION_BITS bits below the
point before it is summed, an error under 2^-256 per share.
"""

import argparse
import decimal
from decimal import Decimal
from typing import Mapping

from qbalance.scheme_a import count_bad, gamma_counts_a, rho_a_bound
from qbalance.scheme_b import count_bad_b, gamma_counts_b, rho_b
from qbalance.scheme_c import gamma_counts_fullspace, rho_c_fullspace

DIGITS = 40
FRACTION_BITS = 256


def _share(count: int, k: int) -> Decimal:
    return Decimal((count << FRACTION_BITS) >> k) / (1 << FRACTION_BITS)


def reference(
    gamma: Mapping[int, int], k: int, appended: int, q: int = 0, n: int = 0, bad_words: int = 0, tail: int = 0
) -> Decimal:
    """Analytical rho over an exact histogram of 2^k messages: appended bits,
    plus 2 flag/type bits and the bad_words' tail and log2 n index when
    q > 0, plus the good term."""
    with decimal.localcontext() as ctx:
        ctx.prec = DIGITS
        ln2 = Decimal(2).ln()
        good = sum(i * Decimal(i).ln() / ln2 * _share(g, k) for i, g in gamma.items() if i >= 2)
        if q == 0:
            return appended + good
        return appended + 2 + good + _share(bad_words, n - appended) * (tail + Decimal(n).ln() / ln2)


def rho_reference(scheme: str, n: int, q: int = 0) -> Decimal:
    """The reference for rho_a_bound (a), rho_b (b) or rho_c_fullspace (c, q = 0)."""
    if scheme == "a":
        return reference(gamma_counts_a(n, q), n, 0, q, n, count_bad(n, q), 2 * q)
    if scheme == "b":
        return reference(gamma_counts_b(n, q), n - 1, 1, q, n, count_bad_b(n, q), max(0, 2 * q - 2))
    return reference(gamma_counts_fullspace(n), n - 1, 1)


LIBRARY = {"a": rho_a_bound, "b": rho_b, "c": lambda n, q: rho_c_fullspace(n)}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scheme", choices=sorted(LIBRARY), required=True)
    parser.add_argument("-n", type=int, required=True)
    parser.add_argument("-q", type=int, default=0)
    args = parser.parse_args(argv)
    want = rho_reference(args.scheme, args.n, args.q)
    got = LIBRARY[args.scheme](args.n, args.q)
    print(f"reference  {want}")
    print(f"library    {got!r}")
    print(f"rel. error {abs(Decimal(got) - want) / want:.2e}")


if __name__ == "__main__":
    main()
