"""Reproduce ROADMAP's "Baseline measured at this re-anchor" table, one row per line.

    python3 perfbench/baseline.py

Each row is timed in this process as the median of a few repetitions.
Rows whose functions fill an lru_cache clear every qbalance cache before
each repetition, so they are timed cold.  The last column quotes the
ROADMAP figure for comparison.  Rough, single-process figures: the
benchmark proper (run.py) is what changes are judged by.  The seeded
inputs use SEED.
"""

import os
import random
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from qbalance import oracle, scheme_a, scheme_b, scheme_c, trellis  # noqa: E402
from qbalance.words import BitWord  # noqa: E402

SEED = 1


def clear_caches():
    for name, mod in list(sys.modules.items()):
        if name == "qbalance" or name.startswith("qbalance."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def median_time(fn, reps=3, cold=False):
    """Median seconds of `reps` calls."""
    times = []
    for _ in range(reps):
        if cold:
            clear_caches()
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def per_message(encode, decode, n, length, q, count, rng):
    msgs = [BitWord(rng.getrandbits(length), length) for _ in range(count)]
    t0 = perf_counter()
    encoded = [encode(x, q) for x in msgs]
    t_enc = perf_counter() - t0
    t0 = perf_counter()
    for res in encoded:
        decode(res.codeword, res.prefix, n, q)
    return t_enc / count, (perf_counter() - t0) / count


def stream_row(rng):
    """BCH[15,7] stream of 4,000 payload bits; the first seeded payload the flush can close."""
    code = workloads.load_code("bch15")
    scheme_c.build_balanced_code(code)
    for attempt in range(1, 101):
        payload = BitWord(rng.getrandbits(4000), 4000)
        t0 = perf_counter()
        try:
            enc = scheme_c.stream_encode(code, payload)
        except Exception:  # flush cycle; counted in the row
            continue
        t_enc = perf_counter() - t0
        blob = scheme_c.pack_stream(enc)
        t0 = perf_counter()
        decoded = scheme_c.stream_decode(code, scheme_c.unpack_stream(blob))
        t_dec = perf_counter() - t0
        if decoded != payload:
            raise RuntimeError("stream round trip returned a different payload")
        rate = payload.length / (len(enc.frames) * enc.n)
        return (
            f"encode {t_enc * 1e3:.0f} ms, decode {t_dec * 1e3:.0f} ms (seeded payloads tried: {attempt}; the others hit the flush cycle)",
            f"{len(enc.frames)} frames, rate {rate:.3f}, {len(blob)} bytes for {payload.length // 8} payload bytes",
        )
    return "no payload encoded", "-"


def correct_block_row(rng, blocks=2000):
    code = workloads.load_code("bch15")
    book = scheme_c.build_balanced_code(code)
    received = []
    for _ in range(blocks):
        cw = rng.choice(book)
        received.append(BitWord(cw.value ^ (1 << rng.randrange(cw.length)), cw.length))
    t0 = perf_counter()
    for r in received:
        scheme_c.correct_block(code, r)
    return f"{(perf_counter() - t0) / blocks * 1e6:.1f} µs/block (BCH[15,7], {len(book)} words in C*)"


def count_banded_calls(n, q):
    clear_caches()  # before install: the wrappers do not carry cache_clear
    tracer = tracing.Tracer()
    tracer.install("qbalance")
    scheme_a.rho_a_bound(n, q)
    return tracer.layers()["lattice.count_banded"][0]


def main():
    rng = random.Random(SEED)
    bch31, golay = workloads.load_code("bch31"), workloads.load_code("golay23")

    enc64, _ = per_message(scheme_a.encode_a, scheme_a.decode_a, 64, 64, 0, 400, rng)
    enc1024, dec1024 = per_message(scheme_a.encode_a, scheme_a.decode_a, 1024, 1024, 0, 40, rng)
    encb, _ = per_message(scheme_b.encode_b, scheme_b.decode_b, 1024, 1023, 2, 40, rng)
    stream, container = stream_row(rng)
    rows = [
        ("`encode_a` q=0", f"{enc64 * 1e6:.0f} µs/msg at n=64; {enc1024 * 1e3:.2f} ms/msg at n=1024", "40 µs/msg at n=64; 0.59 ms/msg at n=1024"),
        ("`decode_a` q=0, n=1024", f"{dec1024 * 1e3:.2f} ms/msg", "0.25 ms/msg"),
        ("`encode_b` q=2, n=1024", f"{encb * 1e3:.2f} ms/msg", "0.98 ms/msg"),
        (
            "`rho_a_bound(1000, 6)`",
            f"{median_time(lambda: scheme_a.rho_a_bound(1000, 6), cold=True):.2f} s",
            "1.08 s (129,801 `count_banded` calls)",
        ),
        ("`rho_a_bound(512, 6)`", f"{median_time(lambda: scheme_a.rho_a_bound(512, 6), cold=True):.2f} s", "0.26 s"),
        ("`rho_c_fullspace(4096)`", f"{median_time(lambda: scheme_c.rho_c_fullspace(4096)):.2f} s", "1.09 s"),
        ("`rho_b(1000, 6)`", f"{median_time(lambda: scheme_b.rho_b(1000, 6), cold=True) * 1e3:.0f} ms", "78 ms"),
        ("`rho_b(2^16, 0)` (logspace)", f"{median_time(lambda: scheme_b.rho_b(1 << 16, 0)) * 1e3:.0f} ms", "114 ms"),
        ("Trellis, BCH[31,21]", f"{median_time(lambda: trellis.build_and_count(bch31)):.2f} s per forward pass", "1.1–1.5 s per forward pass"),
        ("Trellis, Golay[23,12]", f"{median_time(lambda: trellis.build_and_count(golay)):.2f} s", "0.59 s"),
        (
            "CLI `trellis --code` on BCH[31,21]",
            f"{median_time(lambda: workloads.run_cli(['trellis', '--code', workloads.code_path('bch31')]), reps=1):.2f} s",
            "4.6 s (three forward passes)",
        ),
        ("Stream, BCH[15,7], 4,000 payload bits", stream, "encode 67 ms, decode 11 ms"),
        ("Stream container, same run", container, "794 frames, rate 0.315, 3,188 bytes for 500 payload bytes"),
        ("`correct_block` (1 error)", correct_block_row(rng), "23 µs/block"),
        (
            "CLI `--table1` / `--table2`",
            " / ".join(
                f"{median_time(lambda f=flag: workloads.run_cli(['analyze', 'redundancy', f]), reps=1, cold=True):.2f} s"
                for flag in workloads.TABLE_FLAGS
            ),
            "0.71 s / 2.43 s",
        ),
        (
            "CLI `oracle verify --scheme b -n 18 -q 2`",
            f"{median_time(lambda: oracle.verify_scheme('b', 18, 2), reps=1, cold=True):.1f} s",
            "11.8 s",
        ),
    ]
    calls = count_banded_calls(1000, 6)
    rows[3] = (rows[3][0], f"{rows[3][1]} ({calls:,} `count_banded` calls)", rows[3][2])

    print(f"Python {sys.version.split()[0]}, {os.cpu_count()} CPUs, seed {SEED}\n")
    print("| Layer / job | Measured | ROADMAP baseline |")
    print("|---|---|---|")
    for name, measured, roadmap in rows:
        print(f"| {name} | {measured} | {roadmap} |")


if __name__ == "__main__":
    main()
