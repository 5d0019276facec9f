"""Per-layer times of qbalance, as one markdown table: the running-sum walks,
the A/B codecs, the float rho, the Scheme C stream, the syndrome trellis, the compile of
src/qbalance and the CLI in fresh processes.  Each layer is a generator of
rows, and each row is a label, its cells and their unit.

Two timing rules, both constants:
- an in-process cell is the best of REPEAT timeit runs, each of as many
  calls as fill FILL_S (at least one), divided by the units one call does
  (messages, frames, calls or builds);
- a CLI cell is the median of PROCESSES new interpreters, with the import
  of qbalance.cli, the parse of argv and the run of the command timed
  separately.

Nothing is checked; the outputs are the tests' job.

    python tools/layer_times.py
"""

import dataclasses
import os
import random
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CODES = ROOT / "perfbench" / "codes"
sys.path.insert(0, str(ROOT / "src"))

from qbalance.cyclic_code import from_generator, parse_code_file, poly_from_coeffs  # noqa: E402
from qbalance.errors import CodingError  # noqa: E402
from qbalance.scheme_a import decode_a, encode_a, rho_a_bound  # noqa: E402
from qbalance.scheme_b import decode_b, encode_b, rho_b  # noqa: E402
from qbalance.scheme_c import StreamFrame, pack_stream, rho_c_fullspace, stream_decode, stream_encode, unpack_stream  # noqa: E402
from qbalance.trellis import build_and_count  # noqa: E402
from qbalance.words import BitWord, level_walk, select_walk  # noqa: E402

REPEAT, FILL_S, PROCESSES = 10, 0.005, 5
MESSAGES, PAYLOADS, PAYLOAD_BITS = 64, 64, 256
# BCH[63,51], generator 1 + X^3 + X^4 + X^5 + X^8 + X^10 + X^12
BCH63 = from_generator(63, poly_from_coeffs([1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 0, 1]))
JOBS = {f"--table{i}": ["analyze", "redundancy", f"--table{i}"] for i in (1, 2)}
JOBS["trellis simplex7"] = ["trellis", "--code", str(CODES / "simplex7.code")]
# one interpreter: the seconds of the import, the parse and the run of its argv, on
# stdout; the command's own output goes to os.devnull and its errors to stderr
CHILD = """\
import os, sys, time
sys.stdout = open(os.devnull, "w")
t0 = time.perf_counter()
from qbalance import cli
t1 = time.perf_counter()
args = cli._read_argv(sys.argv[1:])
t2 = time.perf_counter()
cli._reject_unused_flags(args)
assert args.func(args) == 0
sys.__stdout__.write(f"{t1 - t0} {t2 - t1} {time.perf_counter() - t2}\\n")
"""


def best(run, units=1):
    """Seconds per unit of run(), which does `units` units of work, by the in-process rule."""
    number = max(1, int(FILL_S / timeit.timeit(run, number=1)))
    return min(timeit.repeat(run, number=number, repeat=REPEAT)) / number / units


def walks():
    """The running-sum walks on 64 words from random.Random(n): level_walk on
    each word x at the weight n/2, where every word has a hit (Scheme A's
    encode at q = 0), and on its codeword c, the flip of x at that hit,
    select_walk at its rank (the decode)."""
    cells = {"level_walk hit": {}, "select_walk": {}}
    for n in (16, 64, 256, 1024):
        rng, targets = random.Random(n), {n // 2: 0}
        xs = [rng.getrandbits(n) for _ in range(MESSAGES)]
        sent = [(x ^ ((1 << tau) - 1) << n - tau, z) for x in xs for tau, _, z in [level_walk(x, n, targets)]]
        cells["level_walk hit"][f"n={n}"] = best(lambda: [level_walk(x, n, targets) for x in xs], MESSAGES) * 1e6
        cells["select_walk"][f"n={n}"] = best(lambda: [select_walk(c, n, 0, z) for c, z in sent], MESSAGES) * 1e6
    for label, row in cells.items():
        yield label, row, "us per call"


def codec():
    """Encode and decode of 64 messages from random.Random(n); B's are n - 1 bits long."""
    for scheme, encode, decode, appended in (("A", encode_a, decode_a, 0), ("B", encode_b, decode_b, 1)):
        for q in (0, 2, 6):
            cells = {"encode": {}, "decode": {}}
            for n in (16, 64, 256, 1024):
                rng = random.Random(n)
                msgs = [BitWord(rng.getrandbits(n - appended), n - appended) for _ in range(MESSAGES)]
                sent = [encode(x, q) for x in msgs]
                cells["encode"][f"n={n}"] = best(lambda: [encode(x, q) for x in msgs], MESSAGES) * 1e6
                cells["decode"][f"n={n}"] = best(lambda: [decode(r.codeword, r.prefix, n, q) for r in sent], MESSAGES) * 1e6
            for step, row in cells.items():
                yield f"{scheme} q={q} {step}", row, "us per message"


def rho():
    """The float rho at n = 2^8 .. 2^16; the benchmark's paper-tables batch makes
    two of these calls, rho_c_fullspace at 2^12 and rho_b q=0 at 2^16."""
    rows = [(f"{f.__name__} q={q}", f, (q,)) for f in (rho_a_bound, rho_b) for q in (0, 6)]
    for label, f, tail in rows + [("rho_c_fullspace", rho_c_fullspace, ())]:
        yield label, {f"n=2^{e}": best(lambda: f(1 << e, *tail)) * 1e6 for e in range(8, 17)}, "us per call"


def cold(code, run):
    """run, with the code's stream memos emptied first."""
    def emptied():
        for memo in code.stream_memo:
            memo.clear()
        return run()
    return emptied


def stream():
    """Encode, unpack, decode, and decode with t flips in every block (t the
    code's radius), of 64 seeded 256-bit payloads whose flush succeeds.  The
    cold row empties the code's stream memos at the start of every timed run,
    so each run works each distinct packet and block once; the warm row keeps
    them, so after best()'s first, untimed call every frame is a memo hit.
    Unpack reads no memo and is in the cold row only."""
    for name in ("simplex7", "bch15", "golay23", "bch31"):
        code, rng, sent = parse_code_file((CODES / f"{name}.code").read_text()), random.Random(0), []
        while len(sent) < PAYLOADS:
            payload = BitWord(rng.getrandbits(PAYLOAD_BITS), PAYLOAD_BITS)
            try:
                sent.append((payload, stream_encode(code, payload)))
            except CodingError:  # the flush cycles: draw again
                continue
        t = code.coset_leaders[1]
        blobs = [pack_stream(enc) for _, enc in sent]
        noisy = [dataclasses.replace(enc, frames=tuple(
            StreamFrame(BitWord(f.codeword.value ^ sum(1 << i for i in rng.sample(range(enc.n), t)), enc.n)) for f in enc.frames
        )) for _, enc in sent]
        steps = {
            "encode": lambda: [stream_encode(code, payload) for payload, _ in sent],
            "unpack": lambda: [unpack_stream(blob) for blob in blobs],
            "decode": lambda: [stream_decode(code, enc) for _, enc in sent],
            "decode t flips": lambda: [stream_decode(code, enc) for enc in noisy],
        }
        frames = sum(len(enc.frames) for _, enc in sent)
        label = f"{name} [{code.n},{code.k}] t={t}"
        yield f"{label} cold", {s: best(cold(code, run), frames) * 1e6 for s, run in steps.items()}, "us per frame"
        yield f"{label} warm", {s: best(run, frames) * 1e6 for s, run in steps.items() if s != "unpack"}, "us per frame"


def trellis():
    """`build_and_count` on each code under perfbench/codes and on BCH[63,51]."""
    codes = [(p.stem, parse_code_file(p.read_text())) for p in sorted(CODES.glob("*.code"))] + [("bch63", BCH63)]
    yield "build_and_count", {f"{name} [{c.n},{c.k}]": best(lambda: build_and_count(c)) * 1e3 for name, c in codes}, "ms per build"


def compile_src():
    """compile() of every module of src/qbalance."""
    srcs = [(p.read_text(), str(p)) for p in sorted((ROOT / "src" / "qbalance").glob("*.py"))]
    yield "src/qbalance", {f"{len(srcs)} modules": best(lambda: [compile(s, p, "exec") for s, p in srcs]) * 1e3}, "ms per call"


def cli():
    """Import, parse and run of each job in a new interpreter, by the CLI rule."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    for label, argv in JOBS.items():
        runs = [subprocess.run([sys.executable, "-c", CHILD, *argv], env=env, stdout=subprocess.PIPE, text=True, check=True)
                for _ in range(PROCESSES)]
        ms = [statistics.median(map(float, column)) * 1e3 for column in zip(*(run.stdout.split() for run in runs))]
        yield label, dict(zip(("import", "parse", "run"), ms)), "ms per process"


LAYERS = {"walks": walks, "codec": codec, "rho": rho, "stream": stream, "trellis": trellis, "compile": compile_src, "cli": cli}


def main():
    print(f"In-process cells: best of {REPEAT} timeit runs of {FILL_S * 1e3:.0f} ms or one call; CLI cells: median "
          f"of {PROCESSES} new interpreters.\n\n| layer | row | unit | cells |\n|---|---|---|---|")
    for layer, rows in LAYERS.items():
        for label, cells, unit in rows():
            print(f"| {layer} | {label} | {unit} | " + "; ".join(f"{k} {v:.3f}" for k, v in cells.items()) + " |")


if __name__ == "__main__":
    main()
