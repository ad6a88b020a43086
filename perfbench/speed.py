"""Reference seconds: wall time corrected for how fast the machine runs now.

On a 2-vCPU virtual machine whose cores are shared with other tenants, the
same work took up to 1.8 times as long from one second to the next.  While
a measured span runs, a `Speedometer` times a fixed kernel every INTERVAL
seconds on the measuring thread, from a SIGALRM handler.  Each stretch of
the span between two kernel runs is scaled by NOMINAL over the time of the
kernel run that began it, and the span's reference time is the sum: the
seconds the span would take where the kernel takes NOMINAL.  The kernel's
own runs are left out.  Scaling each stretch by its own sample tracks the
machine closely: one workload repeated 25 times varied by 19% (standard
deviation over mean) in wall time, 8% when the whole span was scaled by its
median sample, and 1.4% when scaled stretch by stretch.

The kernel does in small what the package does in bulk: build a sparse
matrix row by row from small NumPy arrays, factorize it with SuperLU and
iterate vector updates on the factors.  It depends on nothing in pvpool, so
a change to pvpool cannot change it.  Handlers run between bytecodes of the
main thread; a long native call only delays a sample.
"""

import signal
import statistics
from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

INTERVAL = 0.05
NOMINAL = 0.0023  # seconds per kernel run on that machine when it was quiet
MIN_SAMPLES = 5
_N = 200
_B = np.linspace(1.0, 2.0, _N)


def kernel():
    """Fixed work mixing interpreter, NumPy and SuperLU time."""
    rows, cols, vals = [], [], []
    for i in range(_N):
        rows.append(np.full(3, i, dtype=np.int64))
        cols.append(np.asarray([i, (i + 1) % _N, (i + 17) % _N],
                               dtype=np.int64))
        vals.append(np.asarray([4.0, -1.0, -0.5]))
    a = sp.csc_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(_N, _N))
    lu = splu(a)
    x = lu.solve(_B)
    for _ in range(10):
        x = lu.solve(np.maximum(_B - 0.1 * (a @ x), 0.0))
    return float(x @ x)


class Speedometer:
    """Samples the kernel while active and converts spans to reference time.

    Spans measured outside the `with` block fall back to the samples nearest
    in time.
    """

    def __init__(self):
        self.samples = []  # (start, duration) of each kernel run
        self._previous = None

    def _tick(self, signum=None, frame=None):
        start = perf_counter()
        kernel()
        self.samples.append((start, perf_counter() - start))

    def __enter__(self):
        kernel()  # the first run in a process pays one-off costs
        for _ in range(MIN_SAMPLES):
            self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, t0, t1):
        """Factor from wall to reference seconds over the span [t0, t1]."""
        wall, reference = self.reference(t0, t1)
        return reference / wall if wall > 0 else self._nearest(t0, t1)

    def reference(self, t0, t1):
        """(wall seconds, reference seconds) of the span [t0, t1], with the
        kernel runs inside it taken out.

        A stretch is scaled by the kernel run that began it; the stretch
        before the first run inside the span by the last run before it.  A
        span with no run inside (a short one, or one measured outside the
        `with` block) is scaled by the MIN_SAMPLES runs nearest its middle.
        """
        inside = [(s, d) for s, d in self.samples if t0 <= s < t1]
        if not inside:
            return t1 - t0, (t1 - t0) * self._nearest(t0, t1)
        before = [d for s, d in self.samples if s < t0]
        duration = before[-1] if before else inside[0][1]
        cursor = t0
        wall = reference = 0.0
        for start, run in inside + [(t1, None)]:
            wall += start - cursor
            reference += (start - cursor) * NOMINAL / duration
            if run is not None:
                cursor, duration = start + run, run
        return wall, reference

    def _nearest(self, t0, t1):
        middle = (t0 + t1) / 2
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))
        return NOMINAL / statistics.median(d for _, d in
                                           nearest[:MIN_SAMPLES])
