"""Brute-force ground truth for every closed formula at small sizes.

Nothing here knows about lattice paths, running-sum characterizations,
or trellises: sets are computed from their definitions (minimum over all
preimages), redundancy by encoding every message, and path counts by
walking every path.  Formula modules are tested against these results,
never the other way round.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import scheme_a, scheme_b, scheme_c
from .cyclic_code import CyclicCode, codewords
from .errors import CapacityError
from .lattice import LatticePoint, PathBand
from .words import BitWord, all_words, balancing_indices, complement, flip_prefix, weight

MESSAGE_SPACE_GUARD = 1 << 22


@dataclass
class RedundancyReport:
    """Per-scheme redundancy summary; means are over the full message space."""

    scheme: str
    n: int
    q: int
    gamma: Dict[int, int]  # |Gamma| histogram over distinct receivable codewords
    analytical: float  # mean redundancy with real log2 index widths
    operational: float  # mean redundancy with the ceil bit widths actually sent
    bad_words: int
    decomposition: Dict[str, float] = field(default_factory=dict)
    optimal: float = 0.0


def _guard(k: int) -> None:
    if 1 << k > MESSAGE_SPACE_GUARD:
        raise CapacityError(f"message space 2^{k} exceeds guard 2^22")


def _codec(scheme: str, n: int, q: int, code: Optional[CyclicCode]):
    """One scheme's row of the oracle table ("a", "b", or "c" with a code).

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
    scheme: str, n: int, q: int = 0, code: Optional[CyclicCode] = None
) -> RedundancyReport:
    """Encode every message and tabulate redundancy exactly.

    scheme: "a", "b", "c-fullspace", or "c-code" (requires code).
    Analytical counts log2 |Gamma| per codeword plus the scheme's
    constant bits; operational counts the emitted prefix lengths.
    """
    if scheme == "c-fullspace":
        from .cyclic_code import full_space

        code = full_space(n - 1)
    elif scheme == "c-code" and code is None:
        raise ValueError("scheme 'c-code' needs a code")
    elif scheme not in ("a", "b", "c-code"):
        raise ValueError(f"unknown scheme {scheme!r}")
    family = scheme[0]  # "a", "b", or "c" for both c-fullspace and c-code
    if family == "c":
        n, q = code.n + 1, 0
    k, messages, encode, _, size_of, appended, tail = _codec(family, n, q, code)
    _guard(k)
    gamma_by_cw: Dict[BitWord, int] = {}
    op_total = 0
    an_total = 0.0
    bad = 0
    for x in messages:
        res = encode(x)
        size = size_of(res)
        gamma_by_cw[res.codeword] = size
        op_total += appended + res.prefix.length
        an = appended + math.log2(size)
        if q > 0:
            an += 2.0
            if res.classification.is_bad:
                an += tail
                bad += 1
        an_total += an
    analytical = an_total / (1 << k)
    if scheme == "a":
        parts = scheme_a.rho_a_parts(n, q)
    elif scheme == "b":
        parts = scheme_b.rho_b_parts(n, q)
    else:
        parts = scheme_a.rho_parts(1, analytical - 1.0)
    return RedundancyReport(
        scheme=scheme,
        n=n,
        q=q,
        gamma=dict(sorted(Counter(gamma_by_cw.values()).items())),
        analytical=analytical,
        operational=op_total / (1 << k),
        bad_words=bad,
        decomposition=parts,
        optimal=scheme_a.optimal_redundancy(n, q),
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
        from .cyclic_code import contains, full_space
        from .words import cyclic_shift

        code = code if code is not None else full_space(c.length)
        out = []
        for j in range(c.length):
            x = cyclic_shift(scheme_c.flip_c(c), -j)
            if not contains(code, x):
                continue
            t = scheme_c.t_c(x)
            if t and t[0] == j:
                out.append(j)
        return out
    raise ValueError(f"unknown scheme {scheme!r}")


def roundtrip_all(
    scheme: str, n: int, q: int = 0, code: Optional[CyclicCode] = None
) -> Tuple[bool, Optional[BitWord]]:
    """decode(encode(x)) == x plus the weight invariant, every message.

    Returns (True, None) or (False, first failing message).
    """
    if scheme == "c":
        if code is None:
            raise ValueError("scheme 'c' needs a code")
        n, q = code.n + 1, 0
    elif scheme not in ("a", "b"):
        raise ValueError(f"unknown scheme {scheme!r}")
    k, messages, encode, decode, *_ = _codec(scheme, n, q, code)
    _guard(k)
    for x in messages:
        res = encode(x)
        if weight(res.codeword) != n // 2 + q or decode(res) != x:
            return False, x
    return True, None


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


# scheme -> (|Gamma| histogram formula, bad-word census formula)
_CENSUS = {
    "a": (scheme_a.gamma_counts_a, scheme_a.count_bad),
    "b": (scheme_b.gamma_counts_b, scheme_b.count_bad_b),
}


def verify_scheme(scheme: str, n: int, q: int = 0) -> Dict[str, object]:
    """Round-trip + formula-vs-census cross-checks; CLI `oracle verify`."""
    if scheme not in _CENSUS:
        raise ValueError("oracle verify covers schemes 'a' and 'b'")
    ok, witness = roundtrip_all(scheme, n, q)
    out: Dict[str, object] = {
        "scheme": scheme,
        "n": n,
        "q": q,
        "roundtrip": ok,
        "counterexample": str(witness) if witness is not None else None,
    }
    report = exhaustive_redundancy(scheme, n, q)
    gamma_counts, count_bad = _CENSUS[scheme]
    out["gamma_match"] = {i: g for i, g in enumerate(gamma_counts(n, q)) if g} == report.gamma
    out["bad_match"] = report.bad_words == count_bad(n, q)
    out["ok"] = bool(ok and out["gamma_match"] and out["bad_match"])
    return out
