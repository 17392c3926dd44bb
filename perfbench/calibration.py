"""Host-speed calibration for the untraced rounds.

The shared 2-vCPU hosts this benchmark runs on change speed by up to
40% from one fraction of a second to the next (CPU frequency and
neighbours), more than the regressions the benchmark must catch.  A
fixed kernel is run every INTERVAL_S on a SIGALRM timer in the worker's
main thread, between bytecodes of whatever is running: once untimed to
bring its few hundred KiB back into cache, then timed, so the workload's
cache footprint does not change its time.  Each timed interval of the
workload then has the kernel's time removed and is divided by the host's
local slowdown: the median, over the samples around that moment, of
kernel time over the kernel's reference time.  Times reported this way
are seconds on the reference host at its usual speed.

Interpreter-bound code and vectorised array work speed up by different
factors when the host speeds up (measured here: the python kernel 1.7x;
the vector kernel and the epidemic 1.3x; a 128x128 complex product
1.1x), so there are two kernels: ``python`` (small-matrix numpy calls
and interpreter work, like the program's BFS and quadrature loops), the
default, and ``vector`` (complex matrix products through BLAS and a
permuted scatter over 256 KiB, like the dense Pauli, curvature and
epidemic work), which a workload selects around such phases.

The kernels share no code with the package, so a change to the program
moves the calibrated times as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.025
HALF_WINDOW = 2  # samples each side of the local median: about +-50 ms
# Median kernel times on the reference host (2-vCPU Intel Xeon, Python
# 3.11, numpy 2.4, OpenBLAS on 2 threads) at its usual speed.  Any
# constants work: comparisons are between runs on one host.
REFERENCE_S = {"python": 0.00057, "vector": 0.00029}


class _Kernels:
    def __init__(self) -> None:
        self.a = (np.arange(16.0).reshape(4, 4) / 16.0 + 0.25j).astype(complex)
        grid = np.arange(80 * 80).reshape(80, 80)
        self.b = ((grid % 7 - 3.0) + 1j * (grid % 5 - 2.0)) / 80
        self.cols = np.arange(1 << 14)
        self.h = np.zeros(1 << 14, dtype=complex)

    def python(self) -> None:
        x = 0
        for _ in range(75):
            b = self.a @ self.a
            x += int(np.argmax(np.abs(b.ravel())))

    def vector(self) -> None:
        c = (self.b @ self.b) @ self.b
        self.h[self.cols ^ 0x155] += c[0, 0]


class Calibrator:
    def __init__(self) -> None:
        self.starts: list[float] = []  # each sample's span, both passes
        self.ends: list[float] = []
        self.times: list[float] = []  # its timed pass
        self.kinds: list[str] = []
        self.kind = "python"
        self._kernels = _Kernels()
        self._factors: list[float] | None = None
        self._previous = None
        self._busy = False

    @contextlib.contextmanager
    def kernel(self, kind: str):
        """Calibrate with the ``kind`` kernel inside the block."""
        before, self.kind = self.kind, kind
        try:
            yield
        finally:
            self.kind = before

    def sample(self) -> None:
        kind = self.kind
        kernel = getattr(self._kernels, kind)
        t0 = time.perf_counter()
        kernel()  # untimed pass: brings the kernel's arrays back into cache
        t1 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self.times.append(self.ends[-1] - t1)
        self.kinds.append(kind)
        self._factors = None

    def _on_alarm(self, signum, frame) -> None:
        # a signal that lands inside a sample, or right after one, is dropped,
        # so samples never nest and their starts stay sorted
        if self._busy or (self.ends and time.perf_counter() - self.ends[-1] < INTERVAL_S / 2):
            return
        self._busy = True
        try:
            self.sample()
        finally:
            self._busy = False

    def start(self) -> None:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        self.sample()

    # --- conversion ---------------------------------------------------------

    def factors(self) -> list[float]:
        """Local slowdown at each sample: the median, over the samples
        within HALF_WINDOW of it, of kernel time over reference time."""
        if self._factors is None:
            d = [t / REFERENCE_S[k] for t, k in zip(self.times, self.kinds)]
            self._factors = [
                statistics.median(d[max(0, k - HALF_WINDOW): k + HALF_WINDOW + 1]) for k in range(len(d))
            ]
        return self._factors

    def _factor_at(self, t: float) -> float:
        k = max(bisect.bisect_right(self.starts, t) - 1, 0)
        return self.factors()[k]

    def raw(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] not spent in the calibration kernel."""
        return sum(b - a for a, b in self._pieces(t0, t1))

    def calibrated(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] outside the kernel, each piece divided by the
        local slowdown."""
        return sum((b - a) / self._factor_at(0.5 * (a + b)) for a, b in self._pieces(t0, t1))

    def _pieces(self, t0: float, t1: float) -> list[tuple[float, float]]:
        """[t0, t1] minus the calibration samples inside it."""
        pieces = []
        cur = t0
        k = max(bisect.bisect_right(self.starts, t0) - 1, 0)
        while k < len(self.starts) and self.starts[k] < t1:
            s, e = self.starts[k], self.ends[k]
            if e > cur:
                if s > cur:
                    pieces.append((cur, s))
                cur = max(cur, e)
            k += 1
        if t1 > cur:
            pieces.append((cur, t1))
        return pieces
