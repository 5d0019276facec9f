"""qbalance benchmark: end-to-end and per-layer metrics for three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seconds 36            # every workload
    python3 perfbench/run.py --workload all --seconds 36 --trace 1  # per-layer metrics

One caller, closed loop, no threads: each repetition of a workload is one
fresh child process (so every library cache starts empty), run one at a
time.  The number of repetitions is `--seconds` over the nominal time of
one (NOMINAL_REP_S), never fewer than MIN_REPS, so a seed always runs the
same operations.  The
last stdout line is a JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`.  The line before it is the full result record
(named metrics with sample counts, failures by kind, git SHA,
Python, CPU count, seed, repetition counts, tracing overhead); it is
also written to .perfbench/.  See perfbench/README.md.
"""

import os
import sys
import time

from refclock import Clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")


def child_main(argv):
    """One repetition in a fresh process; prints one JSON line.

    Only os, sys, time and refclock are loaded before the clock starts,
    so the timed import pays for everything qbalance itself pulls in.
    """
    clock = Clock()
    t0 = time.perf_counter()
    workload, seed, rep, trace, size = argv
    sys.path.insert(0, SRC)
    import qbalance  # noqa: F401  (timed: part of setup_s)
    import qbalance.cli  # noqa: F401

    import_s = time.perf_counter() - t0

    import contextlib
    import json
    import random
    import resource

    import tracing
    import workloads

    seed, rep, trace = int(seed), int(rep), int(trace)
    wl = workloads.WORKLOADS[workload]
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install("qbalance")
    phase = tracer.phase if tracer else (lambda name: contextlib.nullcontext())
    tally = workloads.Tally(clock=clock)

    t1 = time.perf_counter()
    with phase("phase.setup"):
        state = wl.setup(golden)
    raw = {"setup_s": import_s + (time.perf_counter() - t1)}
    setup_factor = clock.factor()
    with phase("phase.job"):
        wl.job(state, tally, golden)
    with phase("phase.batch"):
        wl.batch(state, tally, random.Random(seed * 1_000_003 + rep), workloads.SIZES[size], golden)
    batch_factor = clock.factor()
    raw.update(job_s=tally.job_raw_s, batch_s=tally.batch_s, enc_s=tally.enc_s, dec_s=tally.dec_s)

    layers = {}
    if tracer:
        layers = tracer.layers()
        if rep == 0:
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.write_spans(os.path.join(OUT_DIR, f"spans-{workload}.tsv"))
    wl.check(state, tally, golden)  # untimed, after the trace snapshot
    if tracer:
        wl.trace_extras(state, tally, golden)
    out = {
        "ref_s": clock.refs,
        "raw": raw,
        "setup_s": raw["setup_s"] * setup_factor,
        "job_s": tally.job_s,
        "batch_s": tally.batch_s * batch_factor,
        "enc_s": tally.enc_s * batch_factor,
        "dec_s": tally.dec_s * batch_factor,
        "enc_bits": tally.enc_bits,
        "dec_bits": tally.dec_bits,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "silent": tally.silent,
        "unexpected": tally.unexpected,
        "kinds": dict(tally.kinds),
        "mismatches": tally.mismatches,
        "trellis_reports": tally.trellis_reports,
        "decoded_frames": tally.decoded_frames,
        "extra": tally.extra,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# Parent: orchestration and metrics.  Imports below stay out of the child.

WORKLOAD_NAMES = ("paper-tables", "codec", "cyclic")
MIN_REPS = {"full": (3, 2), "tiny": (1, 1)}  # (untraced repetitions, traced pairs)
# Wall seconds of one repetition (untraced, traced pair) on a 2-CPU x86-64 host.
NOMINAL_REP_S = {"paper-tables": (4.0, 8.0), "codec": (2.8, 7.2), "cyclic": (7.5, 21.0)}
RUN_DEADLINE_S = 170.0  # every run ends well inside 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("job_s", "s"),
    ("batch_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer extras computed by the workloads, and their units.
LAYER_EXTRAS = (
    ("scheme_a.bad_frac", "frac"),
    ("scheme_b.bad_frac", "frac"),
    ("trellis.states.simplex7", "count"),
    ("trellis.states.bch15", "count"),
    ("trellis.states.golay23", "count"),
    ("trellis.states.bch31", "count"),
    ("trellis.states.full127", "count"),
    ("scheme_c.stream_encode.flush_fail_frac", "frac"),
    ("scheme_c.stream.pad_frames", "count"),
    ("scheme_c.stream.rate", "bit/bit"),
)
CALLS_ONLY = ("words.cyclic_shift", "cyclic_code.codewords")  # too hot, or a generator
# Calls normalised per trellis report or per decoded frame instead of per repetition.
CALLS_PER = {"trellis.build_and_count": "trellis_reports", "scheme_c.correct_block": "decoded_frames"}


def per_layer_names():
    """(name, unit) of every per-layer metric, in output order."""
    import tracing

    out = []
    for module, func in tracing.TRACED:
        name = f"{module}.{func}"
        out.append((f"{name}.calls", "count"))
        if name not in CALLS_ONLY:
            out.append((f"{name}.self_s", "s"))
    return out + list(LAYER_EXTRAS) + [("trace.overhead_frac", "frac")]


class BenchError(Exception):
    pass


def median(values):
    import statistics

    return statistics.median(values)


def spawn(workload, seed, rep, trace, size, started):
    import json
    import subprocess

    timeout = RUN_DEADLINE_S - (time.monotonic() - started)
    if timeout <= 0:
        raise BenchError("run deadline reached")
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--child", workload, str(seed), str(rep), str(trace), size]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition {rep} exceeded the run deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition {rep} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repetitions(workload, seconds, trace, size):
    """How many repetitions a run makes: fixed by the arguments alone.

    The count follows `--seconds` through the nominal wall time of one
    repetition, not the clock, so a given seed always runs the same
    operations and `attempted` and `failed` repeat exactly.
    """
    if size != "full":
        return MIN_REPS[size][trace]
    return max(MIN_REPS[size][trace], round(seconds / NOMINAL_REP_S[workload][trace]))


def run_children(workload, seed, seconds, trace, size):
    """Untraced repetitions, and with trace=1 a traced twin for each (same inputs)."""
    started = time.monotonic()
    plain, traced, walls = [], [], []
    for rep in range(repetitions(workload, seconds, trace, size)):
        t0 = time.monotonic()
        order = (0, 1) if rep % 2 == 0 else (1, 0)
        for t in order if trace else (0,):
            (traced if t else plain).append(spawn(workload, seed, rep, t, size, started))
        walls.append(time.monotonic() - t0)
    return plain, traced, walls


def frac(num, den):
    return num / den if den else 0.0


def kbit_s(bits, secs):
    return bits / secs / 1000.0 if secs > 0 else 0.0


def named_metrics(workload, plain):
    """The workload's named end-to-end metrics: {name: {value, unit, samples}}."""

    def timing(values, unit):
        return {"value": median(values), "unit": unit, "samples": len(values)}

    attempted = sum(c["attempted"] for c in plain)
    out = {"setup_s": timing([c["setup_s"] for c in plain], "s")}
    if workload == "paper-tables":
        out["tables_s"] = timing([c["job_s"] + c["batch_s"] for c in plain], "s")
    elif workload == "codec":
        out["verify_s"] = timing([c["job_s"] for c in plain], "s")
    else:
        out["trellis_s"] = timing([c["job_s"] for c in plain], "s")
    if workload != "paper-tables":
        out["encode_kbit_s"] = timing([kbit_s(c["enc_bits"], c["enc_s"]) for c in plain], "kbit/s")
        out["decode_kbit_s"] = timing([kbit_s(c["dec_bits"], c["dec_s"]) for c in plain], "kbit/s")
    out["failed_frac"] = {"value": frac(sum(c["failed"] for c in plain), attempted), "unit": "frac", "samples": attempted}
    if workload != "paper-tables":
        out["silent_frac"] = {"value": frac(sum(c["silent"] for c in plain), attempted), "unit": "frac", "samples": attempted}
    out["peak_rss_mb"] = timing([c["peak_rss_mb"] for c in plain], "MB")
    return out


def per_layer_metrics(plain, traced):
    first = traced[0]
    values = {}
    for name, _ in per_layer_names():
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            norm = first[CALLS_PER[layer]] if layer in CALLS_PER else 1
            values[name] = frac(first["layers"].get(layer, (0, 0))[0], norm)
        elif stat == "self_s":
            values[name] = median([c["layers"].get(layer, (0, 0))[1] / 1e9 for c in traced])
    for name, _ in LAYER_EXTRAS:
        values[name] = first["extra"].get(name, 0)
    values["trace.overhead_frac"] = trace_overhead(plain, traced)
    return values


def trace_overhead(plain, traced):
    """Median traced (job + batch) time over the untraced one, minus 1."""
    base = median([c["job_s"] + c["batch_s"] for c in plain])
    return median([c["job_s"] + c["batch_s"] for c in traced]) / base - 1.0


def git_sha():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload, seed, seconds, trace, size):
    """Returns (record, final result line)."""
    import platform

    plain, traced, walls = run_children(workload, seed, seconds, trace, size)
    children = plain + traced
    correct = all(not c["mismatches"] and not c["unexpected"] for c in children)
    failures = {}
    for c in children:
        for kind, count in c["kinds"].items():
            failures[kind] = failures.get(kind, 0) + count
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "size": size,
        "trace": trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "repetition_wall_s": median(walls),
        "ops_per_repetition": plain[0]["attempted"],
        "reference_round_s": median([r for c in plain for r in c["ref_s"]]),
        "raw_medians_s": {key: median([c["raw"][key] for c in plain]) for key in ("setup_s", "job_s", "batch_s")},
        "trace_overhead_frac": trace_overhead(plain, traced) if traced else None,
        "metrics": named_metrics(workload, plain),
        "failures": failures,
        "mismatches": sorted({m for c in children for m in c["mismatches"]}),
        "correct": correct,
    }
    if trace:
        metrics = per_layer_metrics(plain, traced)
        units = dict(per_layer_names())
    else:
        metrics = {name: median([c[name] for c in plain]) for name, _ in END_TO_END}
        units = dict(END_TO_END)
    final = {
        "correct": correct,
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return record, final


def print_tables(records, finals):
    """Named metrics per workload, then (traced runs) every per-layer metric."""
    print(f"{'workload':<14} {'metric':<16} {'value':>14} {'unit':<8} samples")
    for rec in records:
        for name, m in rec["metrics"].items():
            print(f"{rec['workload']:<14} {name:<16} {m['value']:>14.6g} {m['unit']:<8} {m['samples']}")
    if records and records[0]["trace"]:
        workloads = [rec["workload"] for rec in records]
        print(f"\n{'per-layer metric':<42} {'unit':<8}" + "".join(f"{w:>14}" for w in workloads))
        for name, unit in per_layer_names():
            print(f"{name:<42} {unit:<8}" + "".join(f"{f['metrics'][name]['value']:>14.6g}" for f in finals))


def main(argv=None):
    import argparse
    import json

    parser = argparse.ArgumentParser(description="qbalance benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(MIN_REPS), default="full", help="tiny: smoke-test batches")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qbalance", "__init__.py")):
        print(f"error: no qbalance sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 1
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records, finals = [], []
    try:
        for name in names:
            record, final = run_workload(name, args.seed, args.seconds, args.trace, args.size)
            records.append(record)
            finals.append(final)
            os.makedirs(OUT_DIR, exist_ok=True)
            with open(os.path.join(OUT_DIR, f"result-{name}-trace{args.trace}.json"), "w") as fh:
                json.dump({"record": record, "result": final}, fh, indent=2)
            print(json.dumps({"record": record}))
            if args.workload != "all":
                print(json.dumps(final))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print_tables(records, finals)
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        sys.exit(child_main(sys.argv[2:]))
    sys.exit(main())
