"""Brute-force ground truth for every closed formula at small sizes.

`exhaustive_redundancy` is the one walk over a scheme's message space:
it encodes every message once, checks the codeword weight and the
decode round trip, and sizes |Gamma| of each distinct codeword once
with the receiver-side set its codec decodes by (`gamma_set_a`,
`gamma_set_b`, `gamma_size_c`).  `definitional_gamma` checks those sets against the
definition (minimum over all preimages), and path counts walk every
path.  The formulas (the |Gamma| histograms and bad-word censuses
gamma_counts_a and count_bad for A, gamma_counts_b and count_bad_b for
B, the trellis for C) are only compared against the walk's output, in
`verify_scheme`, never called to build it.

Schemes are "a", "b" and "c"; for "c", code=None means the full space
of length n - 1.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from . import scheme_a, scheme_b, scheme_c, trellis
from .cyclic_code import CyclicCode, codewords, contains, full_space
from .errors import CapacityError
from .lattice import LatticePoint, PathBand
from .words import BitWord, all_words, balancing_indices, complement, cyclic_shift, flip_prefix

MESSAGE_SPACE_GUARD = 1 << 22


@dataclass
class RedundancyReport:
    """Per-scheme redundancy summary; means are over the full message space.

    A walk that stops at a counterexample leaves the other fields
    covering only the messages before it.
    """

    scheme: str
    n: int
    q: int
    gamma: Dict[int, int]  # |Gamma| histogram over distinct receivable codewords
    analytical: float  # mean redundancy with real log2 index widths
    operational: float  # mean redundancy with the ceil bit widths actually sent
    bad_words: int
    counterexample: Optional[BitWord] = None  # first message with a wrong weight or round trip
    code: Optional[CyclicCode] = None  # scheme c's code as walked (the full space for code=None)


def _guard(k: int) -> None:
    # compared as exponents: 1 << k itself takes k/8 bytes, and overflows past k = 2^63
    if k >= MESSAGE_SPACE_GUARD.bit_length():
        raise CapacityError(f"message space 2^{k} exceeds guard 2^22")


def _resolve(scheme: str, n: Optional[int], q: int, code: Optional[CyclicCode]):
    """(n, q, code) as the walk uses them, each checked here, before the
    guard, which reads k from them.  Scheme C takes no q other than 0 and
    has n = code.n + 1 (a given n must agree); code=None stands for the
    full space of length n - 1, with n checked as A's codec checks it.
    A and B take no code, and their n and q are checked as their codecs
    check them."""
    if scheme not in ("a", "b", "c"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if n is None and code is None:
        raise ValueError(f"scheme {scheme} needs a block length n" + (" or a code" if scheme == "c" else ""))
    if scheme != "c":
        if code is not None:
            raise ValueError(f"scheme {scheme} takes no code")
        scheme_a._check_params(n, q)
        return n, q, code
    if q:
        raise ValueError(f"scheme c has no imbalance parameter; q={q} must be 0")
    if code is None:
        scheme_a._check_length(n)
        code = full_space(n - 1)
    elif n is not None and n != code.n + 1:
        raise ValueError(f"n={n} does not match the code's block length {code.n + 1}")
    return code.n + 1, 0, code


def _codec(scheme: str, n: int, q: int, code: Optional[CyclicCode]):
    """One scheme's row of the oracle table, for resolved (n, q, code).

    Returns (k, messages, encode, decode, size, appended, tail): the 2^k
    messages, encode(x) -> EncodeResult, decode(res) -> message,
    size(res) = |Gamma| of the emitted codeword, the bits appended to
    every codeword, and the tail bits a bad word adds to its prefix.
    """
    if scheme == "a":
        return (
            n,
            all_words(n),
            lambda x: scheme_a.encode_a(x, q),
            lambda res: scheme_a.decode_a(res.codeword, res.prefix, n, q),
            lambda res: len(scheme_a.gamma_set_a(res.codeword, q)),
            0,
            2 * q,
        )
    if scheme == "b":
        return (
            n - 1,
            all_words(n - 1),
            lambda x: scheme_b.encode_b(x, q),
            lambda res: scheme_b.decode_b(res.codeword, res.prefix, n, q),
            lambda res: len(scheme_b.gamma_set_b(res.codeword.prefix(n - 1), q)),
            1,
            2 * q - 2,
        )
    return (
        code.k,
        codewords(code),
        lambda x: scheme_c.encode_c(code, x),
        lambda res: scheme_c.decode_c(code, res.codeword, res.prefix),
        lambda res: scheme_c.gamma_size_c(res.codeword.prefix(code.n)),
        1,
        0,
    )


def exhaustive_redundancy(
    scheme: str, n: Optional[int], q: int = 0, code: Optional[CyclicCode] = None
) -> RedundancyReport:
    """Encode every message once: round trip, weight, and exact redundancy.

    The walk stops at the first message whose codeword has the wrong
    weight or does not decode back to it, and names it in
    `counterexample`; the weight is checked first, so a |Gamma| set never
    sees a wrong-weight word.  Analytical counts log2 |Gamma| per codeword
    plus the scheme's constant bits; operational counts the emitted
    prefix lengths.
    """
    n, q, code = _resolve(scheme, n, q, code)
    k, messages, encode, decode, size_of, appended, tail = _codec(scheme, n, q, code)
    _guard(k)
    target = n // 2 + q
    gamma_by_cw: Dict[int, int] = {}  # keyed by the codeword's integer: every codeword has length n
    op_total = 0
    an_total = 0.0
    bad = 0
    counterexample = None
    for x in messages:
        res = encode(x)
        cw = res.codeword.value
        if cw.bit_count() != target or decode(res) != x:
            counterexample = x
            break
        size = gamma_by_cw.get(cw)
        if size is None:  # |Gamma| depends only on the codeword
            size = gamma_by_cw[cw] = size_of(res)
        op_total += appended + res.prefix.length
        an = appended + math.log2(size)
        if q > 0:
            an += 2.0
            if res.classification.is_bad:
                an += tail
                bad += 1
        an_total += an
    return RedundancyReport(
        scheme=scheme,
        n=n,
        q=q,
        gamma=dict(sorted(Counter(gamma_by_cw.values()).items())),
        analytical=an_total / (1 << k),
        operational=op_total / (1 << k),
        bad_words=bad,
        counterexample=counterexample,
        code=code,
    )


def definitional_gamma(
    scheme: str, c: BitWord, q: int = 0, code: Optional[CyclicCode] = None
) -> List[int]:
    """Gamma(c) straight from its definition: which indices are minimal
    for some preimage, bypassing all running-sum characterizations."""
    if scheme in ("a", "b"):
        indices = balancing_indices if scheme == "a" else scheme_b.t_b
        out = []
        for j in range(c.length + 1):
            t = indices(flip_prefix(c, j), q)
            if t and t[0] == j:
                out.append(j)
        return out
    if scheme == "c":
        code = code if code is not None else full_space(c.length)
        out = []
        for j in range(c.length):
            x = cyclic_shift(scheme_c.flip_c(c), -j)
            if not contains(code, x):
                continue
            if next(scheme_c.balancing_shifts(x), None) == j:
                out.append(j)
        return out
    raise ValueError(f"unknown scheme {scheme!r}")


def count_paths_brute(
    start: LatticePoint,
    end: LatticePoint,
    band: Optional[PathBand] = None,
) -> int:
    """Count monotone paths by explicit depth-first walking (exponential)."""

    def ok(p: LatticePoint) -> bool:
        return band is None or band.s <= p[1] - p[0] <= band.t

    if not (ok(start) and ok(end)):
        return 0

    def walk(p: LatticePoint) -> int:
        if p == end:
            return 1
        total = 0
        right = (p[0] + 1, p[1])
        up = (p[0], p[1] + 1)
        if right[0] <= end[0] and ok(right):
            total += walk(right)
        if up[1] <= end[1] and ok(up):
            total += walk(up)
        return total

    return walk(start)


def _census_bad(k: int, q: int, indices) -> int:
    """Bad-word count by testing every word's index sets directly."""
    _guard(k)
    return sum(1 for w in all_words(k) if not indices(w, q) and not indices(complement(w), q))


def census_bad_a(n: int, q: int) -> int:
    return _census_bad(n, q, balancing_indices)


def census_bad_b(n: int, q: int) -> int:
    return _census_bad(n - 1, q, scheme_b.t_b)


# scheme -> the walk's report -> the formulas' (|Gamma| histogram, bad-word count)
_FORMULAS = {
    "a": lambda r: (scheme_a.gamma_counts_a(r.n, r.q), scheme_a.count_bad(r.n, r.q)),
    "b": lambda r: (scheme_b.gamma_counts_b(r.n, r.q), scheme_b.count_bad_b(r.n, r.q)),
    "c": lambda r: (trellis.build_and_count(r.code).gamma, 0),  # Scheme C has no bad words
}


def verify_scheme(
    scheme: str, n: Optional[int], q: int = 0, code: Optional[CyclicCode] = None
) -> Dict[str, object]:
    """One walk, checked against the formulas; CLI `oracle verify`.  The
    walk resolves (n, q, code) once, and the formulas read them from its
    report."""
    report = exhaustive_redundancy(scheme, n, q, code)
    gamma, bad_words = _FORMULAS[scheme](report)
    out: Dict[str, object] = {
        "scheme": scheme,
        "n": report.n,
        "q": report.q,
        "roundtrip": report.counterexample is None,
        "counterexample": None if report.counterexample is None else str(report.counterexample),
        "gamma_match": gamma == report.gamma,
        "bad_match": bad_words == report.bad_words,
    }
    out["ok"] = out["roundtrip"] and out["gamma_match"] and out["bad_match"]
    return out
