"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import math
import random
import time

from qbalance.cyclic_code import (
    codewords,
    from_generator,
    full_space,
    poly_from_coeffs,
    xor_bytes,
)
from qbalance.lattice import PathBand, count_banded
from qbalance.oracle import census_bad_a, census_bad_b, count_paths_brute, exhaustive_redundancy
from qbalance.scheme_a import count_bad, gamma_counts_a, gamma_set_a, optimal_redundancy, rho_a_bound
from qbalance.scheme_b import BETA, count_bad_b, gamma_counts_b, gamma_set_b, rho_b
from qbalance.scheme_c import (
    StreamEncoding,
    StreamFrame,
    build_balanced_code,
    encode_c,
    gamma_counts_fullspace,
    gamma_size_c,
    rho_c_fullspace,
    stream_decode,
    stream_encode,
)
from qbalance.trellis import build_and_count
from qbalance.words import BitWord, all_words, weight

from lattice_trig import count_banded_trig

TABLE_N = (8, 16, 32, 64, 128, 256, 512)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_table_scheme_b():
    expected = (2.01, 2.52, 3.02, 3.52, 4.02, 4.53, 5.03)
    start = time.perf_counter()
    values = [rho_b(n, 0) for n in TABLE_N]
    elapsed = time.perf_counter() - start
    ok = all(abs(v - e) <= 0.01 for v, e in zip(values, expected)) and elapsed < 1.0
    report(1, ok, f"scheme B column {[round(v, 3) for v in values]} in {elapsed:.3f}s")


def test_criterion_02_table_scheme_a():
    expected = (1.90, 2.38, 2.87, 3.36, 3.86, 4.36, 4.86)
    start = time.perf_counter()
    values = [rho_a_bound(n, 0) for n in TABLE_N]
    elapsed = time.perf_counter() - start
    ok = all(abs(v - e) <= 0.01 for v, e in zip(values, expected)) and elapsed < 30.0
    report(2, ok, f"prior-scheme column {[round(v, 3) for v in values]} in {elapsed:.2f}s")


def test_criterion_03_table_scheme_c():
    expected = (2.81, 3.59, 4.42, 5.30, 6.22, 7.15)
    values = [rho_c_fullspace(n) for n in TABLE_N[1:]]
    ok = all(abs(v - e) <= 0.01 for v, e in zip(values, expected))
    v8 = rho_c_fullspace(8)
    ok = ok and abs(v8 - 2.12) <= 0.02
    report(3, ok, f"scheme C column n=8: {v8:.4f} (vs 2.12), rest {[round(v, 3) for v in values]}")


def test_criterion_04_table_optimal():
    expected = (1.87, 2.35, 2.84, 3.33, 3.83, 4.33, 4.83)
    values = [optimal_redundancy(n, 0) for n in TABLE_N]
    ok = all(abs(v - e) <= 0.005 for v, e in zip(values, expected))
    report(4, ok, f"optimal column {[round(v, 3) for v in values]}")


def test_criterion_05_scheme_b_asymptote():
    start = time.perf_counter()
    deviations = []
    for e in (8, 10, 12, 14, 16):
        value = rho_b(1 << e, 0)
        deviations.append(abs((value - 0.5 * e) - (1 + BETA)))
    elapsed = time.perf_counter() - start
    final = rho_b(1 << 16, 0) - 8.0
    ok = (
        abs(final - 0.526) <= 0.02
        and deviations == sorted(deviations, reverse=True)
        and elapsed < 60.0
    )
    report(
        5,
        ok,
        f"rho_B(2^16)-8 = {final:.5f} (|.-0.526| = {abs(final - 0.526):.5f}), "
        f"deviation from limit decreasing {['%.2e' % d for d in deviations]} in {elapsed:.2f}s",
    )


def _gamma_hist_a(n, q):
    hist = {}
    for w in all_words(n):
        if weight(w) == n // 2 + q:
            s = len(gamma_set_a(w, q))
            hist[s] = hist.get(s, 0) + 1
    return hist


def _gamma_hist_b(n, q):
    m = n // 2
    hist = {}
    for w in all_words(n - 1):
        if weight(w) in (m + q - 1, m + q):
            s = len(gamma_set_b(w, q))
            hist[s] = hist.get(s, 0) + 1
    return hist


def _gamma_hist_c(n):
    m = n // 2
    hist = {}
    for w in all_words(n - 1):
        if weight(w) in (m - 1, m):
            s = gamma_size_c(w)
            hist[s] = hist.get(s, 0) + 1
    return hist


def test_criterion_06_oracle_equivalence():
    checks = []
    for n in range(2, 16, 2):
        for q in range(0, 4):
            if q > n // 2:
                continue
            checks.append(("gamma_a", n, q, gamma_counts_a(n, q) == _gamma_hist_a(n, q)))
            if q <= n // 2 - 1:
                checks.append(("gamma_b", n, q, gamma_counts_b(n, q) == _gamma_hist_b(n, q)))
            checks.append(("badA", n, q, count_bad(n, q) == census_bad_a(n, q)))
            checks.append(("badB", n, q, count_bad_b(n, q) == census_bad_b(n, q)))
            checks.append(("rtA", n, q, exhaustive_redundancy("a", n, q).counterexample is None))
            checks.append(("rtB", n, q, exhaustive_redundancy("b", n, q).counterexample is None))
        checks.append(("gamma_c", n, 0, gamma_counts_fullspace(n) == _gamma_hist_c(n)))
    halving = all(
        2 * count_bad_b(n, q) <= count_bad(n, q)
        for n in range(4, 66, 2)
        for q in range(0, min(9, n // 2 + 1))
    )
    checks.append(("2DB<=D", 64, 8, halving))
    failures = [c for c in checks if not c[3]]
    report(6, not failures, f"{len(checks)} oracle equivalences, failures: {failures}")


def test_criterion_07_scheme_c_worked_example():
    simplex = from_generator(7, poly_from_coeffs([1, 0, 1, 1, 1]))
    table = [
        ("000", "0000000", 0, "11110000", 1, ""),
        ("101", "1011100", 1, "10101100", 4, "01"),
        ("010", "0101110", 0, "10101100", 4, "00"),
        ("001", "0010111", 1, "01100110", 2, "1"),
        ("100", "1001011", 0, "01100110", 2, "0"),
        ("110", "1100101", 0, "00111010", 1, ""),
        ("111", "1110010", 3, "10101100", 4, "11"),
        ("011", "0111001", 2, "10101100", 4, "10"),
    ]
    rows_ok = True
    for msg, cw, tau, block, size, prefix in table:
        x = BitWord(xor_bytes(simplex.encode_rows, int(msg, 2), simplex.k), simplex.n)
        res = encode_c(simplex, x)
        rows_ok &= str(x) == cw
        rows_ok &= (str(res.codeword), res.tau, str(res.prefix)) == (block, tau, prefix)
        rows_ok &= gamma_size_c(res.codeword.prefix(7)) == size

    payload = BitWord.from_str("0001011")
    enc = stream_encode(simplex, payload)
    frames_ok = [str(f.codeword) for f in enc.frames[:3]] == [
        "11110000",
        "10101100",
        "10101100",
    ]
    clean_ok = stream_decode(simplex, enc) == payload

    corrupted = StreamEncoding(
        frames=tuple(
            StreamFrame(codeword=BitWord(f.codeword.value ^ (1 << (i % 8)), 8))
            for i, f in enumerate(enc.frames)
        ),
        payload_frames=enc.payload_frames,
        final_pad=enc.final_pad,
        n=enc.n,
    )
    err_ok = stream_decode(simplex, corrupted) == payload
    ok = rows_ok and frames_ok and clean_ok and err_ok
    report(
        7,
        ok,
        f"table rows {rows_ok}, walkthrough frames {frames_ok}, "
        f"clean decode {clean_ok}, 1-error/frame decode {err_ok}",
    )


def test_criterion_08_trellis():
    simplex = from_generator(7, poly_from_coeffs([1, 0, 1, 1, 1]))
    hamming = from_generator(7, poly_from_coeffs([1, 1, 0, 1]))

    def enum_gamma(code):
        sizes = {}
        for x in codewords(code):
            c = encode_c(code, x).codeword.prefix(code.n)
            sizes[c] = gamma_size_c(c)
        hist = {}
        for s in sizes.values():
            hist[s] = hist.get(s, 0) + 1
        return hist

    ok = True
    for code in (simplex, hamming, full_space(7), full_space(11)):
        ok &= build_and_count(code).gamma == enum_gamma(code)
    simplex_report, hamming_report = build_and_count(simplex), build_and_count(hamming)
    ok &= hamming_report.gamma == {1: 4, 2: 2, 4: 2}
    ok &= abs(hamming_report.rho - 2.25) < 1e-12
    ok &= abs(simplex_report.rho - 2.25) < 1e-12
    report(
        8,
        ok,
        f"trellis==enumeration for 4 codes; hamming gamma {hamming_report.gamma}, "
        f"rho {simplex_report.rho:.2f}/{hamming_report.rho:.2f}",
    )


def test_criterion_09_distances():
    simplex = from_generator(7, poly_from_coeffs([1, 0, 1, 1, 1]))
    hamming = from_generator(7, poly_from_coeffs([1, 1, 0, 1]))

    def book_distance(code):
        book = build_balanced_code(code)
        return min(
            bin(a.value ^ b.value).count("1")
            for i, a in enumerate(book)
            for b in book[i + 1 :]
        )

    d_simplex = book_distance(simplex)
    d_hamming = book_distance(hamming)
    size_ok = all(
        len(build_balanced_code(code)) >= 2**code.k / (code.n + 1)
        for code in (simplex, hamming)
    )
    ok = d_simplex == 4 and d_hamming >= 4 and size_ok
    report(9, ok, f"simplex C* distance {d_simplex} (=4), hamming {d_hamming} (>=4), sizes ok {size_ok}")


def test_criterion_10_rho_c_growth():
    ns = (128, 256, 512, 1024, 2048)
    ratios = [rho_c_fullspace(n) / math.log2(n) for n in ns]
    ok = 0.7 <= ratios[-1] <= 1.0 and ratios == sorted(ratios)
    report(10, ok, f"rho_C/log2 n over {ns}: {[round(r, 4) for r in ratios]}")


def test_criterion_11_lattice_engine():
    rng = random.Random(1157)
    trig_ok = True
    for _ in range(10_000):
        s = rng.randint(-8, 0)
        t = rng.randint(0, 8)
        band = PathBand(s, t)
        y0 = rng.randint(s, t)
        dx = rng.randint(0, 40)
        dy = rng.randint(0, 40 - dx)
        exact = count_banded((0, y0), (dx, y0 + dy), band)
        approx = count_banded_trig((0, y0), (dx, y0 + dy), band)
        if exact == 0:
            trig_ok &= abs(approx) <= 1e-9
        else:
            trig_ok &= abs(approx - exact) <= 1e-9 * exact
        if not trig_ok:
            break

    brute_ok = True
    for s in range(-3, 1):
        for t in range(0, 4):
            band = PathBand(s, t)
            for y0 in range(s, t + 1):
                for dx in range(0, 8):
                    for dy in range(0, 15 - dx):
                        got = count_banded((0, y0), (dx, y0 + dy), band)
                        want = count_paths_brute((0, y0), (dx, y0 + dy), band=band)
                        if got != want:
                            brute_ok = False
    ok = trig_ok and brute_ok
    report(11, ok, f"trig agreement on 10^4 random instances: {trig_ok}; exhaustive <=14 steps: {brute_ok}")
