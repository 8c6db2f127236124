"""Speed-corrected timing.

The machine this benchmark was built on changes speed in phases of a few
seconds (raw medians of the same work differ by 15-48 % between runs), and
its virtual CPU exposes no instruction counters.  Every timed operation is
therefore rescaled by a fixed calibration kernel, timed right before and
right after the operation and, for operations longer than `INTERVAL_S`, also
from a SIGALRM handler at that interval inside it.  The kernel samples cut
the operation into pieces; each piece is scaled by the mean of the two
kernel times on its sides:

    corrected = sum(piece_s * NOMINAL_KERNEL_S / mean(kernel before, kernel after))

so a corrected time reads as "seconds on a machine that runs the kernel in
NOMINAL_KERNEL_S".  The kernel's own time is excluded from the operation.
The samples pause only the calling thread, so the clock times
single-threaded operations only.
"""

import signal
import time

import numpy as np

# median kernel time measured on the reference machine (2 vCPU, numpy 2.4.6);
# a constant, so corrected times from different commits stay comparable
NOMINAL_KERNEL_S = 1.00e-3
INTERVAL_S = 0.025

_rng = np.random.default_rng(20200731)
_A = _rng.random((48, 35))
_B = _rng.random((48, 35))
_IDX = _rng.integers(0, 12, 48)
_COLS = [_rng.random(48) for _ in range(6)]


def _col(i, x):
    return _COLS[i % 6] * x


def kernel():
    """Fixed mix of the program's work: Python calls and dict lookups, small
    ufuncs on (rows, nodes) arrays, and an np.add.at scatter."""
    acc = np.zeros((12, 35))
    memo = {}
    for i in range(24):
        v = None
        for j in range(6):
            c = _col(j, 1.0 + 0.01 * i)
            v = c if v is None else v + c
            memo[(i, j)] = c
        x = np.exp(_A * 0.5 - _B) * v[:, None]
        x = np.log1p(np.maximum(x, 1e-3))
        np.add.at(acc, _IDX, x)
    return acc


class SpeedClock:
    """Times callables in speed-corrected seconds.

    pad_s adds that many nominal seconds of kernel work inside every timed
    call; the self-test uses it to show that corrected times rise by the
    work added instead of absorbing it.
    """

    def __init__(self, pad_s: float = 0.0):
        self.pad_reps = int(round(pad_s / NOMINAL_KERNEL_S))
        self.kernel_s: list[float] = []
        self.on_sample = None        # hook(start, end) for the tracer
        self._inner: list[tuple[float, float]] = []
        self._busy = False
        for _ in range(30):
            kernel()

    def sample(self) -> tuple[float, float]:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.kernel_s.append(t1 - t0)
        if self.on_sample is not None:
            self.on_sample(t0, t1)
        return t0, t1

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            self._inner.append(self.sample())
        finally:
            self._busy = False

    def time(self, fn, *args):
        """Run fn(*args); return (result, raw_s, corrected_s)."""
        before = self.sample()
        self._inner = []
        old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            t0 = time.perf_counter()
            out = fn(*args)
            for _ in range(self.pad_reps):
                kernel()
            t1 = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, old)
        inner = [s for s in self._inner if s[0] >= t0 and s[1] <= t1]
        after = self.sample()
        marks = [before] + inner + [after]
        raw = corrected = 0.0
        for (a0, a1), (b0, b1) in zip(marks[:-1], marks[1:]):
            piece = min(b0, t1) - max(a1, t0)
            if piece <= 0.0:
                continue
            raw += piece
            corrected += piece * NOMINAL_KERNEL_S / (0.5 * ((a1 - a0) + (b1 - b0)))
        return out, raw, corrected
