"""Fresh-process times of the CLI, in milliseconds: `import qbalance.cli`,
then for `analyze redundancy --table1`, `--table2` and `trellis --code
perfbench/codes/simplex7.code` the parse of argv (`cli._read_argv`) and
the run of the command it names, each the median of 5 new interpreters.
Nothing is checked; the outputs are the tests' job.

    python tools/cli_times.py
"""

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOBS = {
    "--table1": ["analyze", "redundancy", "--table1"],
    "--table2": ["analyze", "redundancy", "--table2"],
    "trellis simplex7": ["trellis", "--code", str(ROOT / "perfbench" / "codes" / "simplex7.code")],
}
REPEAT = 5

# one interpreter: the seconds of the import, the parse and the run of its argv, on stderr
CHILD = """\
import sys, time
t0 = time.perf_counter()
from qbalance import cli
t1 = time.perf_counter()
args = cli._read_argv(sys.argv[1:])
t2 = time.perf_counter()
cli._reject_unused_flags(args)
assert args.func(args) == 0
t3 = time.perf_counter()
sys.stderr.write(f"{t1 - t0} {t2 - t1} {t3 - t2}\\n")
"""


def child_ms(argv):
    """(import, parse, run) milliseconds of one new interpreter running argv."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
    )
    if proc.returncode:
        raise RuntimeError(f"qbalance {' '.join(argv)} failed: {proc.stderr.strip()}")
    return [float(s) * 1e3 for s in proc.stderr.split()]


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    runs = {label: [child_ms(job) for _ in range(REPEAT)] for label, job in JOBS.items()}
    imports = statistics.median(ms[0] for rows in runs.values() for ms in rows)
    medians = {label: [statistics.median(column) for column in zip(*rows)] for label, rows in runs.items()}
    cells = "; ".join(f"{label} parse {parse:.3f} run {run:.2f}" for label, (_, parse, run) in medians.items())
    print(f"cli ms in a fresh process: import {imports:.2f}; {cells} (median of {REPEAT} processes each)")


if __name__ == "__main__":
    main()
