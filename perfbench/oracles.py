"""Reference values the benchmark checks program outputs against.

Nothing here imports complexitylab: every reference is either a closed
form, a published count, or an independent computation written for the
benchmark (free-group word reduction, a golden-section search for the
critical surface).  Standard library only.
"""

from __future__ import annotations

import math

# Sizes of the BFS layers of the 2-qubit Clifford group (11520 elements up
# to phase) under the eight generators h1, h2, s1, s2, s1dg, s2dg, cnot12,
# cnot21.  They sum to 11520 and the ball saturates at depth 10.
CLIFFORD2_LAYERS = [1, 8, 41, 173, 539, 1269, 2278, 2997, 2688, 1313, 213]


def free_layers(n_gates: int, depth: int) -> list[int]:
    """Layer sizes of a free group on n_gates / 2 generators and their
    inverses: 1, then n (n - 1)^(d - 1) reduced words of length d."""
    return [1] + [n_gates * (n_gates - 1) ** (d - 1) for d in range(1, depth + 1)]


def inverse_index(i: int) -> int:
    """Gate sets built as (g0, g0dg, g1, g1dg, ...) pair index 2k with 2k + 1."""
    return i ^ 1


def reduced_length(word: list[int]) -> int:
    """Length of a word (gate indices in the order applied) after free
    cancellation of adjacent inverse pairs."""
    stack: list[int] = []
    for g in word:
        if stack and stack[-1] == inverse_index(g):
            stack.pop()
        else:
            stack.append(g)
    return len(stack)


def inverse_word(word: list[int]) -> list[int]:
    return [inverse_index(g) for g in reversed(word)]


def reduced_word_at_rank(rank: int, length: int, n_gates: int) -> list[int]:
    """The reduced word of the given rank among all reduced words of
    ``length``, ordered lexicographically by gate index with the first
    applied gate most significant (the order a breadth-first search that
    extends each frontier word by every gate in turn meets them)."""
    total = n_gates * (n_gates - 1) ** (length - 1)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} outside [0, {total})")
    block = (n_gates - 1) ** (length - 1)
    word = [rank // block]
    rank %= block
    for _ in range(1, length):
        block //= n_gates - 1
        digit, rank = divmod(rank, block)
        allowed = [g for g in range(n_gates) if g != inverse_index(word[-1])]
        word.append(allowed[digit])
    return word


def epidemic_mean_tau2(K: int) -> float:
    """Exact mean infected count after two random-pairing steps from one
    infected qubit: step one always gives 2; in step two each infected
    qubit infects its partner unless the two are paired together, which
    happens with probability 1 / (K - 1)."""
    return 2.0 + 2.0 * (K - 2) / (K - 1)


def epidemic_stderr_tau2(K: int, trials: int) -> float:
    """Standard error of the mean of ``trials`` draws of that count, which
    is 2 with probability 1 / (K - 1) and 4 otherwise."""
    p = 1.0 / (K - 1)
    return 2.0 * math.sqrt(p * (1.0 - p) / trials)


def page_entropy(dim: int) -> float:
    """Page's mean entanglement entropy ln m - m / (2 n) of an m x n
    bipartition with m = n = dim."""
    return math.log(dim) - 0.5


def _sphere_volume(n: int) -> float:
    """Volume of the unit n-sphere."""
    return 2 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)


def critical_volume_rate(d: int, mu: float, l_ads: float = 1.0) -> float:
    """Late-time volume growth rate V_d = Omega_{d-2} max_r r^(d-2) sqrt(-f(r))
    inside the horizon of f(r) = 1 - mu / r^(d-3) + r^2 / l^2, found by
    bisection for the horizon and golden-section search for the maximum."""

    def f(r: float) -> float:
        return 1.0 - mu / r ** (d - 3) + (r / l_ads) ** 2

    lo, hi = 0.0, max(1.0, mu)
    while f(hi) <= 0:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    r_h = lo

    def weight(r: float) -> float:
        return r ** (2 * (d - 2)) * -f(r)

    a, b = 0.0, r_h
    inv_phi = (math.sqrt(5) - 1) / 2
    c, e = b - inv_phi * (b - a), a + inv_phi * (b - a)
    for _ in range(200):
        if weight(c) > weight(e):
            b, e = e, c
            c = b - inv_phi * (b - a)
        else:
            a, c = c, e
            e = a + inv_phi * (b - a)
    r_m = 0.5 * (a + b)
    return _sphere_volume(d - 2) * math.sqrt(weight(r_m))


def least_squares_slope(xs: list[float], ys: list[float]) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx
