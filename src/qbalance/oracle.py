"""Brute-force ground truth for every closed formula at small sizes.

`SCHEMES` is the one place where each scheme's codec, formulas and rho
are bound: one `Scheme` row each for "a", "b" and "c", read by the walk
here and by every CLI command that takes --scheme.
`exhaustive_redundancy` is the one walk over a scheme's message space:
it encodes every message once, checks the codeword length and weight
and the decode round trip, and counts |Gamma(c)| by its definition:
tau is in Gamma(c) when c's preimage at tau (c with its first tau bits
flipped; for C, with its half flipped back and rotated back by tau) has
tau as its least index.  Such a preimage is a message the encoder sends
to c as Type-1-good (for C, any message), so |Gamma(c)| is the number of
c's Type-1-good preimages, and the walk runs no Gamma set.
`definitional_gamma` checks the receiver-side sets (`gamma_set_a`,
`gamma_set_b`, `gamma_size_c`) against the same definition, and path
counts walk every path.  The formulas (the |Gamma| histograms and
bad-word censuses gamma_counts_a and count_bad for A, gamma_counts_b and
count_bad_b for B, the trellis for C) are only compared against the
walk's output, in `verify_scheme`, never called to build it.

Schemes are "a", "b" and "c"; for "c", code=None means the full space
of length n - 1.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

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


class Scheme(NamedTuple):
    """One scheme's row: Knuth's prefix flip with a Gamma(c)-ranked prefix.

    appended: the bits appended to every codeword; tail(q): the bits a
    bad word adds to its prefix; encode(x, q, code) -> EncodeResult;
    decode(codeword, prefix, q, code) -> message; gamma(n, q, code): the
    exact |Gamma| histogram (for scheme c the trellis of the code, or the
    full-space closed form for code=None); bad(n, q): the exact bad-word
    census; rho(n, q): the (analytical, operational) parts of rho.  Each
    callable looks its function up on the scheme module when called, so a
    patched or traced module attribute is the one that runs.
    """

    appended: int
    tail: Callable[[int], int]
    encode: Callable[..., Any]
    decode: Callable[..., BitWord]
    gamma: Callable[..., Dict[int, int]]
    bad: Callable[[int, int], int]
    rho: Callable[[int, int], Any]


SCHEMES: Dict[str, Scheme] = {
    "a": Scheme(
        0,
        lambda q: 2 * q,
        lambda x, q, code: scheme_a.encode_a(x, q),
        lambda c, p, q, code: scheme_a.decode_a(c, p, c.length, q),
        lambda n, q, code: scheme_a.gamma_counts_a(n, q),
        lambda n, q: scheme_a.count_bad(n, q),
        lambda n, q: scheme_a.rho_a_parts(n, q),
    ),
    "b": Scheme(
        1,
        lambda q: scheme_b._tail(q),
        lambda x, q, code: scheme_b.encode_b(x, q),
        lambda c, p, q, code: scheme_b.decode_b(c, p, c.length, q),
        lambda n, q, code: scheme_b.gamma_counts_b(n, q),
        lambda n, q: scheme_b.count_bad_b(n, q),
        lambda n, q: scheme_b.rho_b_parts(n, q),
    ),
    "c": Scheme(
        1,
        lambda q: 0,
        lambda x, q, code: scheme_c.encode_c(code, x),
        lambda c, p, q, code: scheme_c.decode_c(code, c, p),
        lambda n, q, code: scheme_c.gamma_counts_fullspace(n) if code is None else trellis.build_and_count(code).gamma,
        lambda n, q: 0,  # Scheme C has no bad words
        lambda n, q: scheme_c.rho_c_parts(n),
    ),
}


def resolve(
    scheme: str, n: Optional[int], q: int, code: Optional[CyclicCode]
) -> Tuple[Scheme, int, int, Optional[CyclicCode]]:
    """The scheme's row, and (n, q, code) as the walk uses them, each
    checked here, before the guard, which reads k from them.  Scheme C
    takes no q other than 0 and has n = code.n + 1 (a given n must agree);
    code=None stands for the full space of length n - 1, with n checked
    as A's codec checks it.  A and B take no code, and their n and q are
    checked as their codecs check them."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if n is None and code is None:
        raise ValueError(f"scheme {scheme} needs a block length n" + (" or a code" if scheme == "c" else ""))
    if scheme != "c":
        if code is not None:
            raise ValueError(f"scheme {scheme} takes no code")
        scheme_a._check_params(n, q)
    elif q:
        raise ValueError(f"scheme c has no imbalance parameter; q={q} must be 0")
    elif code is None:
        scheme_a._check_length(n)
        code = full_space(n - 1)
    elif n is not None and n != code.n + 1:
        raise ValueError(f"n={n} does not match the code's block length {code.n + 1}")
    return SCHEMES[scheme], n if code is None else code.n + 1, q, code


def exhaustive_redundancy(
    scheme: str, n: Optional[int], q: int = 0, code: Optional[CyclicCode] = None
) -> RedundancyReport:
    """Encode every message once: round trip, weight, and exact redundancy.

    The walk stops at the first message whose codeword has the wrong
    length or weight or does not decode back to it, and names it in
    `counterexample`.  Per codeword it keeps the messages sent to it and
    its Type-1-good count, |Gamma(c)|.  Analytical counts log2 |Gamma|
    per message plus the scheme's integer bits (appended, flag and type
    bit, bad-word tail), the log terms added once per codeword after the
    walk; operational counts the emitted prefix lengths.  A codeword with
    no Type-1-good preimage counted, which only a stopped walk leaves,
    adds no log term and no histogram entry.
    """
    row, n, q, code = resolve(scheme, n, q, code)
    k = n - row.appended if code is None else code.k
    _guard(k)
    encode, decode = row.encode, row.decode
    target = n // 2 + q
    good = scheme_a.Classification.TYPE1_GOOD
    sent: Dict[int, int] = {}  # keyed by the codeword's integer: every codeword has length n
    gamma: Dict[int, int] = {}
    prefix_bits = bad = 0
    counterexample = None
    for x in all_words(k) if code is None else codewords(code):
        res = encode(x, q, code)
        c = res.codeword
        cw = c.value
        if c.length != n or cw.bit_count() != target or decode(c, res.prefix, q, code) != x:
            counterexample = x
            break
        sent[cw] = sent.get(cw, 0) + 1
        cls = res.classification
        if cls is good or cls is None:
            gamma[cw] = gamma.get(cw, 0) + 1
        elif cls.is_bad:
            bad += 1
        prefix_bits += res.prefix.length
    walked = sum(sent.values())
    bits = (row.appended + (2 if q else 0)) * walked + row.tail(q) * bad
    logs = scheme_a.left_sum(sent[cw] * math.log2(size) for cw, size in gamma.items())
    return RedundancyReport(
        scheme=scheme,
        n=n,
        q=q,
        gamma=dict(sorted(Counter(gamma.values()).items())),
        analytical=(bits + logs) / (1 << k),
        operational=(row.appended * walked + prefix_bits) / (1 << k),
        bad_words=bad,
        counterexample=counterexample,
        code=code,
    )


def definitional_gamma(
    scheme: str, c: BitWord, q: int = 0, code: Optional[CyclicCode] = None
) -> List[int]:
    """Gamma(c) straight from its definition: which indices are minimal
    for some preimage, bypassing all running-sum characterizations."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    out = []
    if scheme == "c":
        code = code if code is not None else full_space(c.length)
        for j in range(c.length):
            x = cyclic_shift(scheme_c.flip_c(c), -j)
            if contains(code, x) and next(scheme_c.balancing_shifts(x), None) == j:
                out.append(j)
        return out
    indices = balancing_indices if scheme == "a" else scheme_b.t_b
    for j in range(c.length + 1):
        t = indices(flip_prefix(c, j), q)
        if t and t[0] == j:
            out.append(j)
    return out


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


def verify_scheme(
    scheme: str, n: Optional[int], q: int = 0, code: Optional[CyclicCode] = None
) -> Dict[str, object]:
    """One walk, checked against the formulas of the scheme's row; CLI
    `oracle verify`.  The walk resolves (n, q, code) once, and the
    formulas read them from its report."""
    report = exhaustive_redundancy(scheme, n, q, code)
    row = SCHEMES[scheme]
    gamma, bad_words = row.gamma(report.n, report.q, report.code), row.bad(report.n, report.q)
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
