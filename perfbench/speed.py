"""Reference-pace scaling of measured times.

The benchmark runs on shared virtual machines whose speed swings by up
to half over tens of seconds, so the same work can take 1.5 times as
long in one run as in the next.  While operations run, a timer signal
times a fixed pure-Python kernel, which touches nothing from ratclass,
every SAMPLE_S seconds.  An operation's time, less the time those
samples took, is then scaled by REFERENCE_S / (kernel time near it).
Work that the interpreter does at the pace of the kernel keeps a
constant scaled time while the machine speeds up or slows down, and a
change to ratclass moves the scaled time as it moves the wall time.

Scaled times read as seconds on a machine where the kernel takes
REFERENCE_S; the readable report prints the raw wall times beside them.
"""

import signal
import statistics
import time

REFERENCE_S = 0.0004
REPEATS = 3
SAMPLE_S = 0.2
# kernel samples this close to an operation set its pace
WINDOW_S = 1.0


def _kernel():
    # small-integer arithmetic, list and tuple building and dict
    # lookups: the mix the library's polynomial code spends its time on
    p = 251
    a = tuple(range(1, 9))
    seen = {}
    for r in range(40):
        out = [0] * 15
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                out[i + j] = (out[i + j] + x * y + r) % p
        a = tuple(out[:8])
        seen[a] = seen.get(a, 0) + 1
    return a


def kernel_seconds():
    """The fastest of a few kernel runs: the machine's pace right now."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(REPEATS):
        start = clock()
        _kernel()
        best = min(best, clock() - start)
    return best


def scaled(seconds, kernel):
    """Wall seconds converted to seconds at the reference pace."""
    return seconds * REFERENCE_S / kernel


class Pacer:
    """Samples the kernel from a SIGALRM handler while it is entered.

    Handlers run between bytecodes of the main thread, so the samples
    interrupt the operations being timed; ``busy`` removes their time.
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _sample(self, *args):
        start = time.perf_counter()
        kernel = kernel_seconds()
        self.samples.append((start, time.perf_counter(), kernel))

    def busy(self, start, end):
        """Wall time in [start, end] not spent taking samples."""
        return (end - start) - sum(e - s for s, e, _ in self.samples
                                   if start <= s and e <= end)

    def pace(self, start, end):
        """Kernel time over the samples within WINDOW_S of [start, end].

        The harmonic mean: samples come at even intervals, so scaling by
        it integrates the pace over an operation that lasts seconds, and
        a sample slowed by an interruption weighs little.
        """
        return statistics.harmonic_mean(
            [k for s, _, k in self.samples
             if start - WINDOW_S <= s <= end + WINDOW_S])
