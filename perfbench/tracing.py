"""Per-layer tracing from outside the library.

The benchmark never edits qbalance.  Instead, `Tracer.install` replaces
each function named in TRACED by a wrapper that records one span per
call, and rebinds the wrapper in every qbalance module that holds the
original under any name (for example `scheme_a` and `scheme_b` each
imported their own `count_banded`).  Calls made through a module
attribute, or through a name imported into another module, therefore
all pass through the wrapper.

Spans live in memory as flat arrays (name, parent span, start, end) and
are written out once, at the end of the process.  A layer's self time is
its span's duration minus the time covered by its wrapped child spans.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict, List, Tuple

# (module, function) pairs wrapped in traced runs.  A name the library no
# longer defines is skipped and reports zero calls, so the benchmark
# keeps running when a later change removes or renames a function.
TRACED: Tuple[Tuple[str, str], ...] = (
    ("cli", "run"),
    ("lattice", "count_banded"),
    ("scheme_a", "gamma_counts_a"),
    ("scheme_a", "count_bad"),
    ("scheme_a", "rho_a_bound"),
    ("scheme_a", "encode_a"),
    ("scheme_a", "decode_a"),
    ("scheme_a", "gamma_set_a"),
    ("scheme_b", "rho_b"),
    ("scheme_b", "encode_b"),
    ("scheme_b", "decode_b"),
    ("scheme_b", "gamma_set_b"),
    ("scheme_b", "t_b"),
    ("scheme_c", "rho_c_fullspace"),
    ("scheme_c", "build_balanced_code"),
    ("scheme_c", "encode_c"),
    ("scheme_c", "t_c"),
    ("scheme_c", "gamma_size_c"),
    ("scheme_c", "correct_block"),
    ("scheme_c", "stream_encode"),
    ("scheme_c", "stream_decode"),
    ("scheme_c", "pack_stream"),
    ("scheme_c", "unpack_stream"),
    ("words", "running_sum"),
    ("words", "balancing_indices"),
    ("words", "cyclic_shift"),
    ("words", "cyclic_running_sum"),
    ("cyclic_code", "codewords"),
    ("cyclic_code", "encode_systematic"),
    ("cyclic_code", "syndrome"),
    ("oracle", "exhaustive_redundancy"),
    ("oracle", "roundtrip_all"),
    ("oracle", "verify_scheme"),
    ("trellis", "build_and_count"),
)


class Tracer:
    """Span recorder; one per process, installed once after import."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.calls: List[int] = []
        self.self_ns: List[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: List[List[int]] = []  # [span id, ns covered by child spans]

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    def _open(self, idx: int) -> List[int]:
        sid = len(self.span_name)
        self.span_name.append(idx)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0)
        self.span_end.append(0)
        frame = [sid, 0]
        self._stack.append(frame)
        return frame

    def _close(self, idx: int, frame: List[int], t0: int, t1: int) -> None:
        self._stack.pop()
        dur = t1 - t0
        self.span_start[frame[0]] = t0
        self.span_end[frame[0]] = t1
        self.calls[idx] += 1
        self.self_ns[idx] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur

    def _wrap(self, name: str, fn):
        idx = self._register(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = open_(idx)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx, frame, t0, perf_counter_ns())

        return traced

    @contextmanager
    def phase(self, name: str):
        """Root span around one benchmark phase (setup, job, batch)."""
        idx = self.names.index(name) if name in self.names else self._register(name)
        frame = self._open(idx)
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, frame, t0, perf_counter_ns())

    def install(self, package: str = "qbalance") -> None:
        """Wrap every TRACED function and rebind it in every loaded module of `package`."""
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for modname, fname in TRACED:
            mod = sys.modules.get(f"{package}.{modname}")
            fn = getattr(mod, fname, None)
            if fn is None:
                self._register(f"{modname}.{fname}")
                continue
            wrapped = self._wrap(f"{modname}.{fname}", fn)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, attr, wrapped)

    def layers(self) -> Dict[str, Tuple[int, int]]:
        """name -> (calls, self time in ns)."""
        return {n: (c, s) for n, c, s in zip(self.names, self.calls, self.self_ns)}

    def write_spans(self, path: str) -> None:
        """Write every span as `id parent name start_ns end_ns` lines."""
        with open(path, "w") as fh:
            fh.write("span\tparent\tname\tstart_ns\tend_ns\n")
            for sid in range(len(self.span_name)):
                fh.write(
                    f"{sid}\t{self.span_parent[sid]}\t{self.names[self.span_name[sid]]}"
                    f"\t{self.span_start[sid]}\t{self.span_end[sid]}\n"
                )
