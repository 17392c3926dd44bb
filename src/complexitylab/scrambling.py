"""Random 2-local circuit picture of perturbation scrambling.

A single-qubit perturbation spreads through a width-K circuit in which
the qubits are randomly paired at every step and each pair interacts.
The spread is modelled combinatorially: a pair touching the infected set
becomes fully infected.  One step is sampled from its exact law: with s
infected, the number m of infected-infected pairs in a uniform pairing
fixes the next count 2(s - m).

The discrete model doubles per step while s << K (s = 1, 2, 4.0, 8.0,
15.9, ... at K = 1000) and crosses over near tau = log2 K.  The logistic
curve s(tau)/K = e^(tau - tau*) / (1 + e^(tau - tau*)) with tau* = ln K
and the conjugated-perturbation (precursor) complexity
K * ln(1 + e^(tau - tau*)) are the continuum comparison; they track the
Monte-Carlo mean at K ~ 10 (within 0.05 of K), not at large K, where the
two crossovers separate (at K = 1000 the gap is 0.52 of K at tau = 8).

All logarithms are natural unless written log2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import expit

_CHUNK = 4096  # trials per RNG substream; fixed so results never depend on scheduling


@dataclass(frozen=True)
class EpidemicTrajectory:
    """Per-step mean and standard error of the infected-qubit count."""

    K: int
    taus: np.ndarray
    mean_infected: np.ndarray
    std_error: np.ndarray
    trials: int
    seed: int

    def steps(self) -> list[tuple[int, float, float]]:
        return list(zip(self.taus.tolist(), self.mean_infected.tolist(), self.std_error.tolist()))


def circuit_complexity_linear(K: int, depth: int) -> float:
    """Gate count of a depth-tau brick circuit: K/2 gates per step."""
    if K % 2:
        raise ValueError(f"K must be even, got {K}")
    return (K / 2) * depth


def expected_step_increment(K: int, s) -> float:
    """Exact one-step mean growth s(K - s)/(K - 1) of the infected count.

    Each uninfected qubit is infected exactly when its random partner is
    infected, which happens with probability s/(K - 1).
    """
    return s * (K - s) / (K - 1)


def _pairing_law(K: int, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact law of m, the number of infected-infected pairs, for each s in rows.

    With s of K qubits infected, a uniform perfect pairing has m such pairs
    with probability
    P(m) = C(s,2m)(2m-1)!! (K-s)!/(K-2s+2m)! (K-2s+2m-1)!! / (K-1)!!
    on its support max(0, s - K/2) <= m <= s//2.  Each row is filled from
    the ratio P(m+1)/P(m) = (s-2m)(s-2m-1) / ((2m+2)(K-2s+2m+2)) in log
    space and normalised.  Rows are stored ragged: row r is
    p[starts[r]:starts[r+1]] and begins at m = m_lo[r].
    """
    s = np.asarray(rows, dtype=np.int64)
    m_lo = np.maximum(0, s - K // 2)
    widths = s // 2 - m_lo + 1
    starts = np.zeros(len(s) + 1, dtype=np.int64)
    np.cumsum(widths, out=starts[1:])
    first = starts[:-1]
    # log P(m)/P(m-1) at every entry but a row's first, written as
    # log((u+2)(u+1)) - log(2m (K-s-u)) with u = s - 2m; in place, since
    # at K = 10^4 each flat array is 50 MB
    m = np.arange(starts[-1], dtype=np.float64)
    m -= np.repeat(first - m_lo, widths)
    u = np.repeat(s.astype(np.float64), widths)
    u -= m
    u -= m
    t = np.repeat((K - s).astype(np.float64), widths)
    t -= u
    m *= 2.0
    m *= t
    np.add(u, 1.0, out=t)
    u += 2.0
    u *= t
    del t
    logp = np.log(u, out=u)
    with np.errstate(divide="ignore"):  # the first entries, overwritten below
        logp -= np.log(m, out=m)
    del m
    # a cumulative sum that restarts at every row: each first entry cancels
    # the previous row's total
    logp[first] = 0.0
    totals = np.add.reduceat(logp, first)
    logp[first[1:]] = -totals[:-1]
    np.cumsum(logp, out=logp)
    logp -= np.repeat(np.maximum.reduceat(logp, first), widths)
    p = np.exp(logp, out=logp)
    p /= np.repeat(np.add.reduceat(p, first), widths)
    return starts, m_lo, p


class _StepTable(NamedTuple):
    """Inverse-CDF sampler over the ragged rows of `_pairing_law`."""

    row_of: np.ndarray  # row index of each count s = 0..K, -1 where s has no row
    base: np.ndarray  # m_lo - starts per row, so m = flat index + base[row]
    cdf: np.ndarray  # row r's cumulative law shifted into [r, r + 1], monotone overall


def _build_step_table(K: int, rows) -> _StepTable:
    rows = np.asarray(rows, dtype=np.int64)
    starts, m_lo, p = _pairing_law(K, rows)
    widths = np.diff(starts)
    last = starts[1:] - 1
    cdf = np.cumsum(p, out=p)
    cdf -= np.repeat(np.concatenate(([0.0], cdf[last[:-1]])), widths)
    cdf /= np.repeat(cdf[last], widths)  # every row ends at exactly 1
    cdf += np.repeat(np.arange(len(rows), dtype=np.float64), widths)
    row_of = np.full(K + 1, -1, dtype=np.int64)
    row_of[rows] = np.arange(len(rows))
    table = _StepTable(row_of, m_lo - starts[:-1], cdf)
    for a in table:
        a.flags.writeable = False
    return table


@functools.lru_cache(maxsize=4)
def _reachable_table(K: int) -> _StepTable:
    """Step table over the counts reachable from s = 1: s = 1 and even s."""
    return _build_step_table(K, np.concatenate(([1], np.arange(2, K + 1, 2))))


def _step_counts(K: int, s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Advance a batch of trials one step under uniformly random pairings.

    Each trial draws its infected-infected pair count m from the exact law
    by one uniform and one search of the cumulative table, and ends with
    2(s - m) infected.
    """
    table = _reachable_table(K)
    r = table.row_of[s]
    if (r < 0).any():  # odd s > 1 is never reached from s = 1
        table = _build_step_table(K, np.unique(s))
        r = table.row_of[s]
    flat = np.searchsorted(table.cdf, r + rng.random(s.shape[0]), side="right")
    return 2 * (s - flat - table.base[r])


def simulate_epidemic(K: int, max_steps: int, trials: int, seed: int) -> EpidemicTrajectory:
    """Monte-Carlo growth of a single-qubit perturbation, s(0) = 1.

    Trials are processed in fixed-size chunks, each with its own RNG
    stream derived from (seed, chunk index), so the result is independent
    of how chunks are scheduled.
    """
    if K % 2 or K < 2:
        raise ValueError(f"K must be even and >= 2, got {K}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    total = np.zeros(max_steps + 1)
    total_sq = np.zeros(max_steps + 1)
    for start in range(0, trials, _CHUNK):
        n = min(_CHUNK, trials - start)
        rng = np.random.default_rng([seed, start // _CHUNK])
        s = np.ones(n, dtype=np.int64)
        total[0] += float(s.sum())
        total_sq[0] += float((s * s).sum())
        for tau in range(1, max_steps + 1):
            s = _step_counts(K, s, rng)
            total[tau] += float(s.sum())
            total_sq[tau] += float((s * s).sum())
    mean = total / trials
    var = np.maximum(total_sq / trials - mean**2, 0.0)
    stderr = np.sqrt(var / trials)
    return EpidemicTrajectory(K, np.arange(max_steps + 1), mean, stderr, trials, seed)


def scrambling_time(K: int) -> float:
    """ln K, the crossover step count for complete scrambling."""
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    return math.log(K)


def logistic_size(tau, K: int):
    """Affected fraction s(tau)/K on the logistic curve with tau* = ln K."""
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    x = np.asarray(tau, dtype=float) - math.log(K)
    out = expit(x)
    return float(out) if np.isscalar(tau) else out


def precursor_complexity(tau, K: int):
    """K ln(1 + e^(tau - tau*)): exponential growth before the scrambling
    time, linear after (slope K)."""
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    x = np.asarray(tau, dtype=float) - math.log(K)
    out = K * np.logaddexp(0.0, x)
    return float(out) if np.isscalar(tau) else out
