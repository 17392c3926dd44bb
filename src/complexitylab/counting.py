"""Log-space counting estimates for unitaries on K qubits.

Group volume, epsilon-ball volume, number of distinguishable unitaries,
per-step branching factor, maximum complexity, the complexity-entropy
relation, Hamiltonian parameter counts and recurrence-time magnitudes.

Everything is computed as a natural logarithm so nothing overflows up to
K = 20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def log_vol_su(N: int) -> float:
    """ln of the volume of SU(N), prod_{k=1}^{N-1} 2 pi^(k+1) / k!.

    The factorials enter through sum_{k<N} ln k! = sum_{j<N} (N - j) ln j,
    one dot product; N = 2^K floats are held at once.
    """
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    j = np.arange(1, N, dtype=float)
    return float((N - 1) * math.log(2.0) + (N - 1) * (N + 2) / 2 * math.log(math.pi) - (N - j) @ np.log(j))


def log_ball_volume(n: int, epsilon: float) -> float:
    """ln of the volume of an epsilon-ball in n dimensions."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0 < epsilon <= 1:
        raise ValueError(f"need 0 < epsilon <= 1, got {epsilon}")
    return (n / 2) * math.log(math.pi) - math.lgamma(n / 2 + 1) + n * math.log(epsilon)


def log_num_unitaries(K: int, epsilon: float) -> float:
    """ln of the epsilon-resolved unitary count, (2^K / eps^2)^(4^K / 2).

    Strong dependence on K, weak (additive 4^K ln(1/eps)) dependence on
    the resolution.
    """
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    if not 0 < epsilon <= 1:
        raise ValueError(f"need 0 < epsilon <= 1, got {epsilon}")
    return (4.0**K / 2.0) * K * math.log(2.0) + 4.0**K * math.log(1.0 / epsilon)


def log_branching(K: int) -> float:
    """Stirling form (K/2) ln(2K/e) of the per-step pairing count K!/(K/2)!."""
    if K % 2 or K < 2:
        raise ValueError(f"K must be even and >= 2, got {K}")
    return (K / 2) * math.log(2 * K / math.e)


def max_complexity(K: int, epsilon: float) -> float:
    """Complexity at which the ball of circuits exhausts the group:
    4^K (1/2 + |ln eps| / ln K)."""
    if K < 2:
        raise ValueError(f"need K >= 2, got {K}")
    if not 0 < epsilon <= 1:
        raise ValueError(f"need 0 < epsilon <= 1, got {epsilon}")
    return 4.0**K * (0.5 + abs(math.log(epsilon)) / math.log(K))


def complexity_entropy(C: float, K: int) -> float:
    """Dropped-constant entropy C ln K of the operator count at complexity C."""
    if C < 0:
        raise ValueError(f"need C >= 0, got {C}")
    if K < 2:
        raise ValueError(f"need K >= 2, got {K}")
    return C * math.log(K)


def parameter_count(K: int, k: int) -> int:
    """Number of couplings of an exactly k-local Hamiltonian: 3^k C(K, k)."""
    if not 1 <= k <= K:
        raise ValueError(f"need 1 <= k <= K, got k={k}, K={K}")
    return 3**k * math.comb(K, k)


def recurrence_magnitudes(K: int) -> tuple[float, float]:
    """(ln tau_recur, ln ln t_recur) for the torus and complexity recurrences.

    The phase-torus recurrence time is exp(2^K), so its log is 2^K; the
    complexity recurrence is doubly exponential, so its double log is
    K ln 2.
    """
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    return (2.0**K, K * math.log(2.0))


@dataclass(frozen=True)
class CountingReport:
    """One-stop summary of the counting estimates at a given (K, epsilon)."""

    K: int
    epsilon: float
    log_vol_su: float
    log_ball: float
    log_num_unitaries: float
    log_branching: float
    c_max: float
    log_log_recurrence: float


def counting_report(K: int, epsilon: float) -> CountingReport:
    if K % 2 or K < 2:
        raise ValueError(f"K must be even and >= 2, got {K}")
    return CountingReport(
        K=K,
        epsilon=epsilon,
        log_vol_su=log_vol_su(2**K),
        log_ball=log_ball_volume(4**K - 1, epsilon),
        log_num_unitaries=log_num_unitaries(K, epsilon),
        log_branching=log_branching(K),
        c_max=max_complexity(K, epsilon),
        log_log_recurrence=recurrence_magnitudes(K)[1],
    )
