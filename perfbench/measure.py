"""Operation accounting and percentile rules shared by the benchmark.

Standard library only, so run.py and the tests can import it
without numpy.
"""

from __future__ import annotations

import math
import statistics
import time
import warnings
from dataclasses import dataclass, field

MIN_BEYOND = 10  # a tail percentile needs this many samples beyond it to be trusted


def nearest_rank(values, q: float) -> float:
    """The q-quantile (0 < q <= 1) by the nearest-rank rule: the smallest
    sample with at least a share q of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    if not 0 < q <= 1:
        raise ValueError(f"need 0 < q <= 1, got {q}")
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the nearest-rank q-quantile's rank."""
    return n - max(math.ceil(q * n), 1)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median,
    with the quartiles of ``statistics.quantiles(values, n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


CLEAN, WARNED, FAILED = "clean", "warned", "failed"


@dataclass
class Outcomes:
    """Per-operation tally.

    An operation fails when it raises or its output fails a check; it is
    warned when it completes but emits a warning (for example a
    quadrature that reports non-convergence).  Every operation counts
    once, as clean, warned or failed.
    """

    states: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=lambda: {CLEAN: 0, WARNED: 0, FAILED: 0})
    notes: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.states)

    @property
    def failed(self) -> int:
        return self.counts[FAILED]

    @property
    def warned(self) -> int:
        return self.counts[WARNED]

    def clean_frac(self) -> float:
        return self.counts[CLEAN] / self.attempted

    def run(self, label: str, fn, *args, reraise: bool = False, **kwargs):
        """Call ``fn`` as one operation; return (result, (start, end), op).

        The interval is in ``time.perf_counter`` seconds; ``op`` identifies the operation for later ``check`` calls.  A raised
        exception counts as a failure; it is re-raised with ``reraise``,
        otherwise swallowed and the result is None.  Recorded warnings
        make the operation warned.
        """
        op = self._open()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:  # a failing operation is counted, not allowed to end the run
                end = time.perf_counter()
                self._set(op, FAILED, f"{label}: raised {type(exc).__name__}: {exc}")
                if reraise:
                    raise
                return None, (start, end), op
            end = time.perf_counter()
        if caught:
            first = caught[0]
            self._set(op, WARNED, f"{label}: {len(caught)} warning(s), first {first.category.__name__}: {' '.join(str(first.message).split())[:120]}")
        return result, (start, end), op

    def check(self, op: int, ok: bool, label: str, detail: str = "") -> bool:
        """Apply an output check to operation ``op``; a failed check turns
        it into a failure (once, however many of its checks fail)."""
        if not ok and self.states[op] != FAILED:
            self._set(op, FAILED, f"{label}: check failed {detail}".rstrip())
        return ok

    def add_check(self, ok: bool, label: str, detail: str = "") -> bool:
        """Count a check on the joint output of several operations as an
        operation of its own."""
        return self.check(self._open(), ok, label, detail)

    def _open(self) -> int:
        self.states.append(CLEAN)
        self.counts[CLEAN] += 1
        return len(self.states) - 1

    def _set(self, op: int, state: str, note: str) -> None:
        self.counts[self.states[op]] -= 1
        self.counts[state] += 1
        self.states[op] = state
        if len(self.notes) < 200:
            self.notes.append(note)
