"""Run code in a fresh interpreter with `src` on the path, and read its own peak RSS.

The peak is the child's VmHWM, which starts afresh at execve.  Where /proc
is missing it falls back to ru_maxrss, which keeps the high-water mark of
the process that started the child, so there it can read pytest's own peak.
"""

import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Optional

import qbalance

ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qbalance.__file__)))

# `code` runs as __main__ with sys.argv[1:] set to the probe's argv; the
# cap, in bytes or 0 for none, is set before it runs
_CHILD = """\
import resource, sys
code, cap = sys.argv[1], int(sys.argv[2])
del sys.argv[1:3]
if cap:
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
try:
    exec(compile(code, "<fresh>", "exec"), {"__name__": "__main__"})
finally:
    try:
        peak = next(int(line.split()[1]) for line in open("/proc/self/status") if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.flush()
    sys.stderr.write(f"\\0peak_kib={peak}\\n")
"""
_MARK = "\0peak_kib="

# the CLI, with the probe's argv as its own
CLI = "from qbalance.cli import main\nmain()\n"


@dataclass
class Fresh:
    status: int
    out: Optional[str]  # None when stdout went to a file
    err: str
    peak_kib: Optional[int]  # None when the child died before it could read it


def run_fresh(code, *argv, timeout=None, as_limit_kib=None, stdout=None, check=True):
    """Run `code` in a new interpreter and return its exit status, output
    and peak RSS in KiB.

    `as_limit_kib` caps the child's address space with RLIMIT_AS, as
    `ulimit -v` would; `timeout` (seconds) raises subprocess.TimeoutExpired
    past it; `stdout`, an open file, takes the output in place of a pipe.
    With `check`, a nonzero exit fails the calling test with its stderr.
    """
    cap = str((as_limit_kib or 0) * 1024)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, code, cap, *argv],
        env=ENV,
        stdout=stdout if stdout is not None else subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    err, mark, tail = proc.stderr.rpartition(_MARK)
    peak = None
    if mark:
        line, _, rest = tail.partition("\n")
        peak, err = int(line), err + rest
    else:
        err = tail
    assert not check or proc.returncode == 0, err
    return Fresh(proc.returncode, proc.stdout, err, peak)
