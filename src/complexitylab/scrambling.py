"""Random 2-local circuit picture of perturbation scrambling.

A single-qubit perturbation spreads through a width-K circuit in which
the qubits are randomly paired at every step and each pair interacts.
The spread is modelled combinatorially: a pair touching the infected set
becomes fully infected.  One step is sampled from its exact law: with s
infected, the number m of infected-infected pairs in a uniform pairing
fixes the next count 2(s - m).  Trials are kept as the number at each
count and moved by one multinomial draw per occupied count.  The law is
tabulated once per K, a block of rows at a time, straight into padded
rows of probabilities and of the counts 2(s - m) they lead to, so a step
is one row gather, one multinomial draw and one bincount.

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

import numpy as np


@dataclass(frozen=True)
class EpidemicTrajectory:
    """Per-step mean and standard error of the infected-qubit count."""

    K: int
    taus: np.ndarray
    mean_infected: np.ndarray
    std_error: np.ndarray
    trials: int

    def steps(self) -> list[tuple[int, float, float]]:
        return list(zip(self.taus.tolist(), self.mean_infected.tolist(), self.std_error.tolist()))


_BLOCK = 1 << 14  # cells of the law built at once; 2^16 raised the peak RSS of K = 10 and 1000 runs by 0.9 MB


@functools.lru_cache(maxsize=4)
def _reachable_law(K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact law of m, the number of infected-infected pairs, for s = 1 and
    even s, the counts reachable from s = 1, as read-only padded rows; s is
    row s // 2.

    With s of K qubits infected, a uniform perfect pairing has m such pairs
    with probability
    P(m) = C(s,2m)(2m-1)!! (K-s)!/(K-2s+2m)! (K-2s+2m-1)!! / (K-1)!!
    on its support m_lo = max(0, s - K/2) <= m <= s//2.  Row r holds the
    probabilities of m = m_lo, m_lo + 1, ... in probs[r, :widths[r]] and
    zeros after, and dests[r] the count 2(s - m) of every cell, the row's
    last m repeated in the padding.  Each block of rows is written straight
    into the table: the ratio P(m)/P(m-1) = (u+2)(u+1) / (2m (K-s-u)), with
    u = s - 2m, in log space and -inf past the row's width, then summed
    along the row and normalised, so a row's bits depend only on (K, s).
    """
    s = np.concatenate(([1], np.arange(2, K + 1, 2)))
    m_lo = np.maximum(0, s - K // 2)
    widths = s // 2 - m_lo + 1
    W = int(widths.max())
    probs = np.empty((len(s), W))  # at K = 10^4 the padded probabilities take 100 MB
    block = max(1, _BLOCK // W)
    for a in range(0, len(s), block):
        b = min(a + block, len(s))
        w = int(widths[a:b].max())  # the block's own width; the cells past it are padding
        m = np.add.outer(m_lo[a:b], np.arange(w), dtype=np.float64)
        u = s[a:b, None] - 2 * m
        t = (K - s[a:b, None]) - u
        m *= 2.0
        m *= t
        np.add(u, 1.0, out=t)
        u += 2.0
        u *= t
        logp = probs[a:b, :w]
        with np.errstate(divide="ignore", invalid="ignore"):  # the first cells and the padding, overwritten below
            np.subtract(np.log(u, out=u), np.log(m, out=m), out=logp)
        logp[:, 0] = 0.0
        logp[np.arange(w) >= widths[a:b, None]] = -np.inf
        np.cumsum(logp, axis=1, out=logp)
        logp -= logp.max(axis=1, keepdims=True)
        np.exp(logp, out=logp)
        probs[a:b, w:] = 0.0
        # summed over all W cells, so that a row's sum does not depend on w
        probs[a:b] /= probs[a:b].sum(axis=1, keepdims=True)
    small = np.min_scalar_type(2 * K)  # in place below: at K = 10^4 each such array is 25 MB
    dests = np.minimum(np.arange(W, dtype=small), (widths - 1).astype(small)[:, None])  # m - m_lo
    dests *= 2
    np.subtract((2 * (s - m_lo)).astype(small)[:, None], dests, out=dests)
    for a in (probs, dests, widths):
        a.flags.writeable = False
    return probs, dests, widths


def _step(K: int, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Advance an occupancy vector of length K + 1 one step under uniformly
    random pairings.

    counts[s] trials hold s infected qubits.  The trials at each occupied s
    split over the pair count m by one multinomial draw from the exact law,
    and each share moves to 2(s - m).  The occupied rows of `_reachable_law`
    are cut to the widest of them; their zero padding stands for the row's
    last m, so the multinomial's last category, which takes whatever
    rounding leaves, is a valid count.  Only the counts reachable from
    s = 1 have rows: s = 1 and even s.
    """
    if len(counts) != K + 1:
        raise ValueError(f"counts has length {len(counts)}, not K + 1 = {K + 1}")
    occupied = np.flatnonzero(counts)
    if occupied[0] == 0 or np.count_nonzero(occupied & 1) > (occupied[0] == 1):  # 0 or an odd s > 1
        raise ValueError(f"occupied counts {occupied.tolist()} are not all 1 or even and >= 2")
    r = occupied >> 1
    probs, dests, widths = _reachable_law(K)
    w = widths[r].max()
    draws = rng.multinomial(counts[occupied], probs[r, :w])
    return np.bincount(dests[r, :w].ravel(), weights=draws.ravel(), minlength=K + 1).astype(np.int64)


def simulate_epidemic(K: int, max_steps: int, trials: int, seed: int) -> EpidemicTrajectory:
    """Monte-Carlo growth of a single-qubit perturbation, s(0) = 1.

    The trials are held as an occupancy vector, counts[s] trials with s
    infected, advanced by `_step` on one RNG stream.  Memory is O(K)
    whatever the number of trials, which `_step`'s float64 weights hold
    exactly up to 2^53, and the sums of s and s^2 are dot products of
    that vector, exact while trials * K^2 < 2^53.
    """
    if K % 2 or K < 2:
        raise ValueError(f"K must be even and >= 2, got {K}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    if not 1 <= trials <= 2**53:  # a step's counts pass through float64 weights
        raise ValueError(f"trials must be between 1 and 2^53, got {trials}")
    _reachable_law(K)  # first, so that the arrays below add nothing to its peak at large K
    rng = np.random.default_rng(seed)
    powers = np.arange(K + 1.0) ** np.array([[1], [2]])  # rows s and s^2
    counts = np.bincount([1], minlength=K + 1) * trials  # every trial starts at s = 1
    sums = np.empty((max_steps + 1, 2))
    for tau in range(max_steps + 1):
        counts = _step(K, counts, rng) if tau else counts
        sums[tau] = powers @ counts
    mean = sums[:, 0] / trials
    var = np.maximum(sums[:, 1] / trials - mean**2, 0.0)
    stderr = np.sqrt(var / trials)
    return EpidemicTrajectory(K, np.arange(max_steps + 1), mean, stderr, trials)


def scrambling_time(K: int) -> float:
    """ln K, the crossover step count for complete scrambling."""
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    return math.log(K)


def logistic_size(tau, K: int):
    """Affected fraction s(tau)/K on the logistic curve with tau* = ln K.

    Split at x = tau - tau* = 0 so that e^(-|x|) never overflows:
    1/(1 + e^(-x)) for x >= 0, e^x/(1 + e^x) below.
    """
    x = np.asarray(tau, dtype=float) - scrambling_time(K)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)
    return float(out) if np.isscalar(tau) else out


def precursor_complexity(tau, K: int):
    """K ln(1 + e^(tau - tau*)): exponential growth before the scrambling
    time, linear after (slope K)."""
    x = np.asarray(tau, dtype=float) - scrambling_time(K)
    out = K * np.logaddexp(0.0, x)
    return float(out) if np.isscalar(tau) else out
