"""Host-speed calibration for the timed metrics.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds and minutes, while the process's CPU time drifts with it (the
slowdown is not time stolen from the process but slower execution).  Raw
wall times of the same code then spread further between runs than any
useful regression bound.

While a `Calibrator` runs, an interval timer interrupts the process every
INTERVAL_S and the signal handler times a fixed reference chunk: dense
matrix-vector products over lists, with ints mod p and with Fractions, the
operation mix eicat's linear algebra spends its time on, written with the
standard library only so that no change to eicat can speed it up.  A
span's calibrated duration is its wall time, less the time spent in the
chunks, times the mean over the chunks timed inside the span of
NOMINAL_S / chunk time: the span's length on a host where the chunk takes
NOMINAL_S.  A span too short to hold a chunk uses the nearest chunk on each
side.

No thread or process is started: the chunks run in the main thread between
bytecodes, and the timer is stopped before `stop` returns.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.01  # one chunk per 10 ms: about 2.5 % of the run
NOMINAL_S = 2.5e-4  # chunk time that defines the calibrated second

_P = 3
_rng = random.Random(1)
_INT_MATRIX = [[_rng.randrange(_P) if _rng.random() < 0.3 else 0 for _ in range(40)]
               for _ in range(40)]
_INT_VECTOR = [_rng.randrange(_P) for _ in range(40)]
_Q_MATRIX = [[Fraction(_rng.randrange(-3, 4), _rng.randrange(1, 4))
              if _rng.random() < 0.2 else Fraction(0) for _ in range(12)] for _ in range(12)]
_Q_VECTOR = [Fraction(_rng.randrange(1, 5), _rng.randrange(1, 4)) for _ in range(12)]


def reference_chunk():
    """A fixed piece of work, about 0.25 ms on a current x86 core."""
    out = []
    for _ in range(2):
        out = []
        for row in _INT_MATRIX:
            s = 0
            for a, x in zip(row, _INT_VECTOR):
                if a != 0 and x != 0:
                    s = (s + a * x) % _P
            out.append(s)
    for row in _Q_MATRIX:
        s = Fraction(0)
        for a, x in zip(row, _Q_VECTOR):
            if a != 0 and x != 0:
                s = s + a * x
        out.append(s)
    return out


class Calibrator:
    """Times the reference chunk every INTERVAL_S between `start` and `stop`."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.starts = []  # perf_counter at each chunk's start, ascending
        self.ends = []
        self._previous = None

    def _tick(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()  # a collection would time eicat's heap, not the host
        t0 = time.perf_counter()
        reference_chunk()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def chunk_s(self):
        """Median chunk time so far, in seconds."""
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))

    def seconds(self, a, b):
        """Calibrated duration of the span [a, b] of perf_counter time."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.ends, b, lo)
        inside = range(lo, hi)
        if inside:
            chunks = [self.ends[i] - self.starts[i] for i in inside]
            work = (b - a) - sum(chunks)
        else:
            chunks = [self.ends[i] - self.starts[i]
                      for i in (lo - 1, lo) if 0 <= i < len(self.starts)]
            work = b - a
        if not chunks:
            raise RuntimeError("no reference chunk was timed; is the calibrator started?")
        return work * statistics.fmean(NOMINAL_S / c for c in chunks)
