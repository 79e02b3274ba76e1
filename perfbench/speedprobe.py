"""
The host's speed for this process, sampled with a fixed reference loop.

A shared host swings the speed it gives one process by up to half, over
milliseconds to minutes, and the library's pure-Python work slows and
speeds up with it.  The reference loop is fixed pure-Python work of the
same kind as the library's (small objects made and multiplied through
method calls, dict updates, tuples sorted), so its time now tracks the
host's speed now.  A span of work measured in seconds is turned into
reference seconds by scaling it with REFERENCE_LOOP_S over the loop's mean
time sampled during the span; REFERENCE_LOOP_S is the loop's time at the
reference speed (a vCPU of a 2.1 GHz Xeon, Python 3.11), a fixed scale and
nothing more.

This module imports only the standard library's gc, signal and time, so
that a probed `blobcell` process pays next to nothing for it.
"""

from __future__ import annotations

import gc
import signal
import sys
import time

REFERENCE_LOOP_N = 300
REFERENCE_LOOP_S = 0.0002

STDERR_TAG = "#speedprobe"


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def mul(self, o: "_Pair") -> "_Pair":
        return _Pair(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a)


def _reference_loop(n: int) -> int:
    d: dict = {}
    t: tuple = ()
    acc, x = _Pair(1, 0), _Pair(1, 1)
    for i in range(n):
        k = (i % 31, i % 7)
        d[k] = d.get(k, 0) + 1
        acc = acc.mul(x) if i % 3 else _Pair(acc.a % 1009, acc.b % 1013)
        if i % 11 == 0:
            t = tuple(sorted(k))
    return len(d) + len(t) + acc.a


def time_reference_loop() -> float:
    """Seconds one reference loop takes now (garbage collection held off)."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_loop(REFERENCE_LOOP_N)
        return time.perf_counter() - t0
    finally:
        gc.enable()


class SpeedProbe:
    """
    Reference-loop samples: three at each mark() and, once started, one
    every INTERVAL_S of the process's user CPU time from a SIGVTALRM
    handler, which runs in this thread between bytecodes, inside library
    calls too.  A loop at every tick (rather than a few long ones) follows
    the host's speed through its sub-second swings; the mean over a span
    weighs them as the work does.  The timer counts user CPU time, so it
    never fires while the process is blocked in a system call: a wall-clock
    timer interrupting a large write to a pipe lost output of a probed
    `blobcell klbasis 4`.
    """

    INTERVAL_S = 0.01

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, loop seconds)
        self._busy = False

    def _sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            self.samples.append((t0, time_reference_loop()))
        finally:
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, lambda signum, frame: self._sample())
        signal.siginterrupt(signal.SIGVTALRM, False)
        signal.setitimer(signal.ITIMER_VIRTUAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """Three samples now; returns the index of the first."""
        first = len(self.samples)
        for _ in range(3):
            self._sample()
        return first

    def loops_s(self, t0: float, t1: float) -> float:
        """Seconds of reference loops that started between t0 and t1."""
        return sum(c for t, c in self.samples if t0 <= t <= t1)

    def scale(self, first: int, last: int, extra=()) -> float:
        """
        REFERENCE_LOOP_S over the mean loop time of the samples from mark
        `first` to mark `last`, and of `extra` loop times.
        """
        loops = [c for _, c in self.samples[first:last + 3]] + list(extra)
        return REFERENCE_LOOP_S * len(loops) / sum(loops)


def probe_this_process() -> None:
    """
    Sample now and for the rest of this process's life, and at exit write
    the loop times as one tagged line on stderr (see read_child_probe).
    """
    import atexit

    probe = SpeedProbe()
    probe._sample()  # at least one, however short the process
    probe.start()

    def report():
        probe.stop()
        sys.stderr.write(" ".join([STDERR_TAG] + [
            repr(c) for _, c in probe.samples]) + "\n")
        sys.stderr.flush()
    atexit.register(report)


def read_child_probe(stderr: bytes) -> tuple[bytes, float, list[float]]:
    """
    Split a probed child's stderr into its own text, the seconds its probe
    loops cost and their times.
    """
    head, sep, tail = stderr.rpartition(STDERR_TAG.encode())
    if not sep:
        return stderr, 0.0, []
    line, _, rest = tail.partition(b"\n")
    loops = [float(c) for c in line.split()]
    return head + rest, sum(loops), loops
