"""Every float rho against a 40-digit decimal reference over the exact
|Gamma| histograms, and the centre share that the float rows of A and B
start from."""

import hashlib
import math
from decimal import Decimal
from pathlib import Path

import pytest

from qbalance import trellis
from qbalance.cyclic_code import parse_code_file
from qbalance.scheme_a import _centre_share, left_sum, rho_a_bound, rho_a_parts
from qbalance.scheme_b import rho_b, rho_b_parts
from qbalance.scheme_c import rho_c_parts

from rho_reference import LIBRARY, reference, rho_reference

CODES = Path(__file__).resolve().parent.parent / "perfbench" / "codes"


def _rel_error(got: float, want: Decimal) -> float:
    return float(abs(Decimal(got) - want) / want)


@pytest.mark.parametrize(
    "scheme,n,q",
    [(s, n, q) for n in (64, 1000, 4096) for s in "ab" for q in (0, 2, 6)] + [("c", n, 0) for n in (64, 1000, 4096)],
)
def test_float_rho_within_1e_14_of_the_reference(scheme, n, q):
    assert _rel_error(LIBRARY[scheme](n, q), rho_reference(scheme, n, q)) <= 1e-14


@pytest.mark.parametrize("scheme", "ab")
def test_float_rho_within_1e_13_of_the_reference_at_16384(scheme):
    assert _rel_error(LIBRARY[scheme](16384, 0), rho_reference(scheme, 16384)) <= 1e-13


@pytest.mark.parametrize("name", ["simplex7", "bch15", "golay23", "bch31", "full127"])
def test_trellis_rho_within_1e_14_of_the_reference(name):
    code = parse_code_file((CODES / f"{name}.code").read_text())
    report = trellis.build_and_count(code)
    assert _rel_error(report.rho, reference(report.gamma, code.k, 1)) <= 1e-14


def test_centre_share_within_2_ulps_of_the_rounded_binomial():
    for n in range(2, 64, 2):
        assert _centre_share(n) == math.comb(n, n // 2) / (1 << n)
    for n in [*range(64, 5001, 2), *(1 << e for e in range(7, 18))]:
        want = math.comb(n, n // 2) / (1 << n)
        assert abs(_centre_share(n) - want) <= 2 * math.ulp(want), n


@pytest.mark.parametrize("rho", [rho_a_bound, rho_b])
def test_float_rho_makes_no_big_binomial(rho, monkeypatch):
    calls = []
    comb = math.comb
    monkeypatch.setattr(math, "comb", lambda *args: calls.append(args) or comb(*args))
    rho(65536, 0)
    assert calls == []


# sha256 of the repr of every rho_*_parts pair below, as the dict-building
# sums gave it before the shares were streamed: the streamed sums are
# bit-identical to them
RHO_PARTS_SHA256 = "51c1595aa31328b5072b2c4838c830bfd48a3a5ca6b8d1b16880b16649b0f5f8"


def test_every_float_rho_parts_is_pinned_bit_for_bit():
    lines = []
    for n in [*range(2, 201, 2), 256, 512, 1000, 1024, 4096, 16384, 65536]:
        lines.append(f"c {n} {rho_c_parts(n)!r}")
        for q in (0, 1, 2, 6):
            if q <= n // 2:
                lines.append(f"a {n} {q} {rho_a_parts(n, q)!r}")
                lines.append(f"b {n} {q} {rho_b_parts(n, q)!r}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == RHO_PARTS_SHA256


def test_pinned_sums_add_left_to_right():
    # the builtin sum() compensates float rounding from Python 3.12 on, and gives 1.0 for both
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert left_sum([1, 2, 3]) == 6 and left_sum([], 0.0) == 0.0
