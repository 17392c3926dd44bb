import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammaln

from complexitylab.counting import (
    complexity_entropy,
    counting_report,
    log_ball_volume,
    log_branching,
    log_num_unitaries,
    log_vol_su,
    max_complexity,
    parameter_count,
    recurrence_magnitudes,
)


def log_branching_exact(K: int) -> float:
    """Reference for the Stirling form ``log_branching``: ln(K! / (K/2)!)."""
    return math.lgamma(K + 1) - math.lgamma(K // 2 + 1)


def max_complexity_from_branching(K: int, epsilon: float) -> float:
    """Reference for the closed form ``max_complexity``: C solved from the
    branching relation (2K/e)^C = (2^K / eps^2)^(4^K / 2)."""
    return log_num_unitaries(K, epsilon) / math.log(2 * K / math.e)


def test_log_vol_su_small_cases():
    assert log_vol_su(2) == pytest.approx(math.log(2 * math.pi**2))
    # SU(3): (2 pi^2 / 1!) * (2 pi^3 / 2!) = 2 pi^5
    assert log_vol_su(3) == pytest.approx(math.log(2 * math.pi**5))


@pytest.mark.parametrize("N", [2, 3, 5, 8, 16])
def test_log_vol_su_pi_exponent(N):
    # the coefficient of ln(pi) is (N-1)(N+2)/2: subtract the pi-free part
    ks = range(1, N)
    pi_free = sum(math.log(2) - math.lgamma(k + 1) for k in ks)
    coeff = (log_vol_su(N) - pi_free) / math.log(math.pi)
    assert coeff == pytest.approx((N - 1) * (N + 2) / 2)


# The three log-gamma formulas against scipy's gammaln.  Each result is a
# difference of large terms, so its rounding error is measured in ulp of
# ``scale``, the sum of the magnitudes that the formula adds and cancels.
ULPS = 8


def test_log_vol_su_matches_gammaln():
    for N in [*range(2, 300), 2**10, 2**16, 2**20]:
        ks = np.arange(1, N, dtype=float)
        terms = math.log(2.0) + (ks + 1) * math.log(math.pi)
        lfact = gammaln(ks + 1)
        scale = terms.sum() + lfact.sum()
        assert abs(log_vol_su(N) - np.sum(terms - lfact)) <= ULPS * np.spacing(scale), N


def test_log_ball_volume_matches_gammaln():
    for n in [*range(1, 300), *(4**K - 1 for K in range(1, 21))]:
        for eps in (1.0, 0.5, 0.01, 1e-6):
            parts = ((n / 2) * math.log(math.pi), -gammaln(n / 2 + 1), n * math.log(eps))
            scale = sum(map(abs, parts))
            assert abs(log_ball_volume(n, eps) - sum(parts)) <= ULPS * np.spacing(scale), (n, eps)


def test_log_branching_exact_matches_gammaln():
    for K in [*range(2, 2000, 2), 10**6, 2**40]:
        big, small = gammaln(K + 1), gammaln(K // 2 + 1)
        assert abs(log_branching_exact(K) - (big - small)) <= ULPS * np.spacing(big + small), K


def test_log_vol_su_rejects_small():
    with pytest.raises(ValueError):
        log_vol_su(1)


def test_log_ball_volume_unit_cases():
    assert log_ball_volume(2, 1.0) == pytest.approx(math.log(math.pi))
    assert log_ball_volume(3, 1.0) == pytest.approx(math.log(4 * math.pi / 3))


def test_log_ball_volume_against_mpmath():
    # independent high-precision oracle
    with mpmath.workdps(50):
        expected = mpmath.log(mpmath.pi ** mpmath.mpf("7.5") / mpmath.gamma(mpmath.mpf("8.5")) * mpmath.mpf("0.1") ** 15)
    assert log_ball_volume(15, 0.1) == pytest.approx(float(expected), abs=1e-10)


def test_log_ball_volume_range_checks():
    with pytest.raises(ValueError):
        log_ball_volume(0, 0.5)
    with pytest.raises(ValueError):
        log_ball_volume(3, 0.0)
    with pytest.raises(ValueError):
        log_ball_volume(3, 1.5)


def test_log_num_unitaries_value():
    assert log_num_unitaries(1, math.exp(-1)) == pytest.approx(2 * math.log(2) + 4)


@pytest.mark.parametrize("K", [1, 2, 3, 5])
def test_log_num_unitaries_resolution_derivative(K):
    d = (log_num_unitaries(K, 0.2) - log_num_unitaries(K, 0.02)) / (math.log(1 / 0.2) - math.log(1 / 0.02))
    assert d == pytest.approx(4**K, rel=1e-12)


@pytest.mark.parametrize("K", [2, 3])
def test_log_num_unitaries_vs_exact_quotient(K):
    exact = log_vol_su(2**K) - log_ball_volume(4**K - 1, 0.01)
    assert log_num_unitaries(K, 0.01) / exact == pytest.approx(1.0, abs=0.20)


def test_log_branching_values():
    assert log_branching_exact(4) == pytest.approx(math.log(12))
    assert log_branching(4) == pytest.approx(2 * math.log(8 / math.e))
    assert log_branching_exact(40) / log_branching(40) == pytest.approx(1.0, abs=0.05)


def test_log_branching_rejects_odd():
    with pytest.raises(ValueError):
        log_branching(5)


def test_max_complexity_value():
    assert max_complexity(2, 0.1) == pytest.approx(16 * (0.5 + math.log(10) / math.log(2)))
    assert abs(max_complexity(2, 0.1) - 61.15) < 0.01
    assert max_complexity(3, 1.0) == pytest.approx(4**3 / 2)


def test_max_complexity_is_order_fourk():
    for K in range(2, 12):
        assert 0.4 < max_complexity(K, 0.1) / 4**K < 4.5


def test_max_complexity_rejects_degenerate():
    with pytest.raises(ValueError):
        max_complexity(1, 0.1)


def test_complexity_entropy_values():
    assert complexity_entropy(0.0, 5) == 0.0
    assert complexity_entropy(2.0, 9) == pytest.approx(2 * math.log(9))


@given(st.floats(min_value=0.0, max_value=1e6), st.integers(min_value=2, max_value=100))
def test_complexity_entropy_linear(C, K):
    assert complexity_entropy(2 * C, K) == pytest.approx(2 * complexity_entropy(C, K))


def test_parameter_count_values():
    assert parameter_count(4, 2) == 54
    assert parameter_count(7, 1) == 21
    assert parameter_count(10, 2) == 405
    with pytest.raises(ValueError):
        parameter_count(2, 3)


def test_recurrence_magnitudes():
    torus, cpx = recurrence_magnitudes(3)
    assert torus == pytest.approx(8.0)
    assert cpx == pytest.approx(3 * math.log(2))
    for K in range(1, 12):
        a0, b0 = recurrence_magnitudes(K)
        a1, b1 = recurrence_magnitudes(K + 1)
        assert a1 > a0 and b1 > b0
        assert b1 - b0 == pytest.approx(math.log(2))


@pytest.mark.parametrize("K", [2, 4, 8, 12, 16, 20])
def test_counting_report_finite(K):
    report = counting_report(K, 0.01)
    for value in (
        report.log_vol_su,
        report.log_ball,
        report.log_num_unitaries,
        report.log_branching,
        report.c_max,
        report.log_log_recurrence,
    ):
        assert math.isfinite(value)
    assert report.log_num_unitaries > 0


def test_branching_relation_holds_by_construction():
    # per-gate branching times the solved maximum complexity recovers the
    # unitary count exactly, since that is the defining relation
    for K in (2, 3, 4):
        per_gate = math.log(2 * K / math.e)
        if K % 2 == 0:
            assert per_gate == pytest.approx(log_branching(K) / (K / 2))
        solved = max_complexity_from_branching(K, math.exp(-1))
        assert per_gate * solved == pytest.approx(log_num_unitaries(K, math.exp(-1)), rel=1e-12)


def test_closed_form_max_complexity_within_o1_of_solved():
    # the simplified closed form stays within an O(1) factor of the solved
    # relation at desk scale (the gap exceeds 20% at small K)
    for K in (2, 3, 4):
        gap = max_complexity(K, math.exp(-1)) / max_complexity_from_branching(K, math.exp(-1))
        assert 0.3 < gap < 3.0
