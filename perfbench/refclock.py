"""Reference seconds: timings rescaled to a fixed machine speed.

On a shared machine, speed drifts by 10-30% over minutes.  Every timed
span is therefore divided by the time of a fixed pure-Python reference
loop run just before and just after it, and multiplied by REF_NOMINAL_S.
A value in seconds thus reads "seconds on a machine where one reference
round takes 10 ms".
Raw seconds are kept next to every rescaled figure.

This module imports nothing but `time`, so run.py can take the first
reference timing before the timed `import qbalance`.
"""

from time import perf_counter

REF_NOMINAL_S = 0.010
REF_ROUNDS = 5


def reference_s() -> float:
    """Seconds per round of the reference loop, mean of REF_ROUNDS rounds.

    Bytecode arithmetic, tuple-keyed dict stores and big-int products:
    the three kinds of work the library does.
    """
    t0 = perf_counter()
    for _ in range(REF_ROUNDS):
        s = 0
        for i in range(40000):
            s += i * i % 7
        d = {}
        for i in range(20000):
            d[(i * 7919) % 65521, i & 255] = i
        x, m = 3**4000, 7**3000
        for i in range(40):
            x = x * 12345 % m
    return (perf_counter() - t0) / REF_ROUNDS


class Clock:
    """Hands out the rescale factor for each span between two reference timings."""

    def __init__(self) -> None:
        self.refs = [reference_s()]

    def factor(self) -> float:
        """Take a reference timing now; return the factor for the span since the previous one."""
        self.refs.append(reference_s())
        return REF_NOMINAL_S / ((self.refs[-2] + self.refs[-1]) / 2)
