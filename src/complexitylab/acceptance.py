"""Acceptance suite: every headline quantitative claim as one check.

Each check raises AssertionError on failure and returns a one-line detail
string on success.  ``run_all`` prints one PASS/FAIL line per check and is
what the ``paper-suite`` CLI subcommand executes; the pytest suite runs
the same functions.  All seeds are fixed here so the suite is
deterministic.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Callable

import numpy as np

from . import counting, geometry, holography, scrambling
from . import thermofield as tfd
from .gates import _phase_aligned_distance, random_word, sphere_growth, two_qubit_clifford_gateset
from .geometry import PenaltySchedule, curvature_ensemble, loschmidt, sample_orthogonal_pair
from .paulis import evolve, sample_klocal


def check_wdw_rate_identity() -> str:
    """Late-time WDW action growth equals 2M and saturates 2M/(pi hbar)."""
    start = time.perf_counter()
    worst_rate = 0.0
    worst_sat = 0.0
    for d, mu in itertools.product((4, 5, 6), (0.5, 1.0, 10.0, 100.0)):
        spec = holography.BlackHoleSpec(d=d, mu=mu)
        rate = holography.wdw_action_rate(spec)
        rel = abs(rate.total - 2 * spec.mass) / (2 * spec.mass)
        worst_rate = max(worst_rate, rel)
        sat = holography.lloyd_bound(spec).saturation
        worst_sat = max(worst_sat, abs(sat - 1.0))
    elapsed = time.perf_counter() - start
    assert worst_rate < 1e-8, f"|dA/dt - 2M|/2M = {worst_rate:.3e} >= 1e-8"
    assert worst_sat < 1e-8, f"|saturation - 1| = {worst_sat:.3e} >= 1e-8"
    assert elapsed < 1.0, f"runtime {elapsed:.2f} s >= 1 s"
    return f"max |dA/dt-2M|/2M = {worst_rate:.2e}, max |sat-1| = {worst_sat:.2e}"


def check_wormhole_linear_growth() -> str:
    """Interior volume grows linearly in anchor time with slope V_d."""
    start = time.perf_counter()
    spec = holography.BlackHoleSpec(d=4, mu=100.0)
    _, v_d = holography.critical_surface(spec)
    points = holography.volume_curve(spec, eta_max=1e-1, eta_min=1e-5, points=13)
    # latest decade of the geometric grid: eta in [1e-5, 1e-4]
    tail = points[-4:]
    t_sum = np.array([p.boundary_time_sum for p in tail])
    vol = spec.omega * np.array([p.interior_volume_per_sphere for p in tail])
    slope = np.polyfit(t_sum, vol, 1)[0]
    rel = abs(slope - v_d) / v_d
    elapsed = time.perf_counter() - start
    assert rel < 0.02, f"slope {slope:.6g} deviates from V_d {v_d:.6g} by {rel:.2%}"
    assert elapsed < 10.0, f"runtime {elapsed:.2f} s >= 10 s"
    return f"slope/V_d - 1 = {slope / v_d - 1:+.2e} over the last decade"


def check_high_temperature_cv() -> str:
    """High-temperature critical surface and the constancy of dC/dt : ST."""
    spec = holography.BlackHoleSpec(d=4, mu=1e4)
    _, v_d = holography.critical_surface(spec)
    e_c = spec.e_c
    dev_ec = abs(e_c - spec.mu / 2) / (spec.mu / 2)
    assert dev_ec < 0.01, f"E_c misses mu/2 by {dev_ec:.2%}"
    v_pred = 8 * math.pi * spec.G * spec.l_ads * spec.mass / (spec.d - 2)
    dev_vd = abs(v_d - v_pred) / v_pred
    assert dev_vd < 0.01, f"V_d misses 8 pi G l M / (d-2) by {dev_vd:.2%}"
    ratios = [holography.cv_rate(holography.BlackHoleSpec(d=4, mu=m)).ratio for m in (1e3, 1e4, 1e5)]
    spread = (max(ratios) - min(ratios)) / min(ratios)
    assert spread < 0.02, f"cv ratio spread across mu is {spread:.2%}"
    return f"E_c/(mu/2)-1 = {e_c / (spec.mu / 2) - 1:+.1e}, V_d dev = {dev_vd:.1e}, ratio spread = {spread:.2%}"


def _all_pairings(qubits: tuple[int, ...]):
    if not qubits:
        yield ()
        return
    first, rest = qubits[0], qubits[1:]
    for i, partner in enumerate(rest):
        for tail in _all_pairings(rest[:i] + rest[i + 1 :]):
            yield ((first, partner),) + tail


def check_epidemic_logistic() -> str:
    """Monte-Carlo epidemic tracks the logistic curve; exact small cases."""
    # exact oracle: every perfect pairing of 4 qubits infects exactly one new qubit
    increments = []
    for pairing in _all_pairings((0, 1, 2, 3)):
        infected = {0}
        new = set()
        for a, b in pairing:
            if a in infected or b in infected:
                new |= {a, b}
        increments.append(len(new | infected) - 1)
    assert len(increments) == 3, "there are exactly 3 perfect pairings of 4 qubits"
    assert increments == [1, 1, 1], f"one-step increments {increments} != all 1"
    mean_inc = sum(increments) / len(increments)
    assert mean_inc == 1.0
    rng = np.random.default_rng(11)
    start = np.bincount(np.zeros(200, dtype=np.int64), minlength=3)  # 200 trials at row 0, s = 1
    sim_steps = set(np.array([1, 2, 4])[np.flatnonzero(scrambling._step(4, start, rng))].tolist())  # s of each row
    assert sim_steps == {2}, f"simulator step from s=1 at K=4 gave {sim_steps}, expected always 2"

    K = 10
    # exact oracle for the sampled law: tally m, the pairs with both qubits
    # below s, over every perfect pairing of 10 qubits, for s = 1 and even s
    pairings = np.array(list(_all_pairings(tuple(range(K)))))
    assert len(pairings) == 945, "there are exactly 945 perfect pairings of 10 qubits"
    s = np.array([1, *range(2, K + 1, 2)])
    m = np.count_nonzero(pairings.max(axis=2)[:, None, :] < s[:, None], axis=2)
    tally = np.zeros((len(s), K + 1), dtype=np.int64)
    np.add.at(tally, (np.arange(len(s)), m), 1)
    law = scrambling._reachable_law(K)[0]
    cells = np.maximum(0, s - K // 2)[:, None] + np.arange(law.shape[1])  # row r holds m = m_lo, m_lo + 1, ...
    law_err = float(np.max(np.abs(law - tally[np.arange(len(s))[:, None], cells] / len(pairings))))
    assert law_err < 1e-12, f"K={K} one-step law off the pairing tally by {law_err:.1e}"

    traj = scrambling.simulate_epidemic(K, max_steps=12, trials=100_000, seed=20240101)
    curve = scrambling.logistic_size(traj.taus, K)
    gap = float(np.max(np.abs(traj.mean_infected / K - curve)))
    assert gap < 0.05, f"max |mc/K - logistic| = {gap:.4f} >= 0.05"

    # exact chain from the same tally: m pairs take s to 2(s - m), the row s - m;
    # its mean and variance at every step bound a 10^8-trial run's mean
    r, m = np.nonzero(tally)
    chain = np.zeros((len(s), len(s)))
    np.add.at(chain, (r, s[r] - m), tally[r, m] / len(pairings))
    dist = np.eye(len(s))[0]  # s = 1
    trials = 10**8  # trials * K^2 < 2^53: the run's sums are exact
    big = scrambling.simulate_epidemic(K, max_steps=12, trials=trials, seed=20240102)
    worst_z = 0.0
    for tau, got in enumerate(big.mean_infected):
        mean = dist @ s
        var = dist @ s**2 - mean**2
        if var == 0.0:
            assert got == mean, f"K={K} mean at tau={tau} is {got!r}, the exact pairing chain gives {mean!r}"
        else:
            z = (got - mean) / math.sqrt(var / trials)
            assert abs(z) < 5, f"K={K} mean at tau={tau} off the exact pairing chain by {z:+.1f} standard errors"
            worst_z = max(worst_z, abs(z))
        dist = dist @ chain

    # derivative of the precursor complexity equals K * logistic size
    h = 1e-5
    worst = 0.0
    for tau in (0.5, 1.5, math.log(K), 4.0, 8.0):
        fd = (scrambling.precursor_complexity(tau + h, K) - scrambling.precursor_complexity(tau - h, K)) / (2 * h)
        worst = max(worst, abs(fd - K * scrambling.logistic_size(tau, K)))
    assert worst < 1e-8, f"precursor derivative identity residual {worst:.2e} >= 1e-8"
    return (
        f"exact one-step mean = 1, max MC-logistic gap = {gap:.4f}, derivative residual = {worst:.1e}, "
        f"K=10 law vs 945 pairings = {law_err:.1e}, K=10 chain max |z| = {worst_z:.2f}"
    )


def check_curvature_ensemble() -> str:
    """Sign, null point and 1/K scaling of the sectional curvature."""
    start = time.perf_counter()
    # exact reference: the Pauli-space commutator norm of one pair against ||H D - D H||_F^2 / dim
    hk, dk = sample_orthogonal_pair(4, seed=7)
    table = geometry.CommutatorTable(4, (hk.x, hk.z), (dk.x, dk.z))
    H, D = hk.dense(), dk.dense()
    exact = float(np.linalg.norm(H @ D - D @ H) ** 2) / hk.dim
    pair_err = abs(table.commutator_norm_sq(hk.couplings, dk.couplings) - exact) / exact
    assert pair_err < 1e-12, f"K=4 commutator norm off ||[H, D]||_F^2 / dim by {pair_err:.1e} (relative)"
    flat = curvature_ensemble(6, PenaltySchedule(2, 1.0 / 3.0), trials=40, seed=5)
    assert abs(flat.mean) <= 3 * flat.stderr + 1e-15, (
        f"mean {flat.mean:.3e} not within 3 stderr ({flat.stderr:.3e}) of 0 at I(3)=4/3"
    )
    neg = curvature_ensemble(8, PenaltySchedule(2, 1.0), trials=200, seed=6)
    assert neg.mean + 5 * neg.stderr < 0, (
        f"mean {neg.mean:.4f} +- {neg.stderr:.4f} not negative at 5 sigma"
    )
    ks = (4, 6, 8, 10)
    trials = {4: 200, 6: 150, 8: 100, 10: 50}
    means = [curvature_ensemble(k, PenaltySchedule(2, 1.0), trials[k], seed=7).trace_ratio_mean for k in ks]
    slope = float(np.polyfit(np.log(ks), np.log(means), 1)[0])
    elapsed = time.perf_counter() - start
    assert -1.3 <= slope <= -0.7, f"trace-ratio log-log slope {slope:.3f} outside [-1.3, -0.7]"
    assert elapsed < 60.0, f"runtime {elapsed:.1f} s >= 60 s"
    return (
        f"null mean = {flat.mean:.1e}, negative at {-neg.mean / neg.stderr:.0f} sigma, slope = {slope:.2f}, "
        f"K=4 pair vs dense = {pair_err:.1e}"
    )


def _loschmidt_error(H, D, t, dtheta) -> float:
    lam = loschmidt(H, D, t, dtheta)
    exact = evolve(H, -t) @ evolve(H + D * dtheta, t)
    return float(np.max(np.abs(evolve(1j * lam, 1.0) - exact)))  # exp(lam), lam anti-Hermitian


def check_loschmidt_orders() -> str:
    """Truncation error is 4th order in t and 2nd order in the tilt angle."""
    Hk, Dk = sample_orthogonal_pair(3, seed=42)
    H, D = Hk.dense(), Dk.dense()
    t_errs = [_loschmidt_error(H, D, t, 1e-3) for t in (0.4, 0.2, 0.1)]
    t_orders = [math.log2(a / b) for a, b in zip(t_errs, t_errs[1:])]
    assert all(o >= 3.7 for o in t_orders), f"t-halving orders {t_orders} dip below 3.7"
    th_errs = [_loschmidt_error(H, D, 0.02, dth) for dth in (0.4, 0.2, 0.1)]
    th_orders = [math.log2(a / b) for a, b in zip(th_errs, th_errs[1:])]
    assert all(1.7 <= o <= 2.5 for o in th_orders), f"dtheta-halving orders {th_orders} leave [1.7, 2.5]"
    return f"t orders = {[f'{o:.2f}' for o in t_orders]}, dtheta orders = {[f'{o:.2f}' for o in th_orders]}"


def check_geodesic_residual_order() -> str:
    """Finite-difference residual of the geodesic identity converges at order 2."""
    H = sample_klocal(3, 2, False, 3.0, seed=12)
    res = [geometry.geodesic_residual(H, t=0.7, h=h) for h in (1e-2, 5e-3, 2.5e-3)]
    orders = [math.log2(a / b) for a, b in zip(res, res[1:])]
    assert all(1.8 <= o <= 2.2 for o in orders), f"orders {orders} outside 2.0 +- 0.2"
    return f"residuals = {[f'{r:.2e}' for r in res]}, orders = {[f'{o:.2f}' for o in orders]}"


def check_gate_metric_axioms() -> str:
    """Word-length distance is a right-invariant metric; switchback bound."""
    gs = two_qubit_clifford_gateset()
    ball = sphere_growth(gs, max_depth=20)
    assert ball.saturated, "Clifford ball did not saturate"
    dist = ball.depth_of
    mats = [m for m, _ in ball.members]
    rng = np.random.default_rng(2718)
    violations = []
    for trial in range(200):
        iu, iv, iw = rng.integers(len(mats), size=3)
        U, V, W = mats[iu], mats[iv], mats[iw]
        c_uv = dist(U @ V.conj().T)
        c_vu = dist(V @ U.conj().T)
        c_uw = dist(U @ W.conj().T)
        c_wv = dist(W @ V.conj().T)
        if c_uv is None or c_vu is None or c_uw is None or c_wv is None:
            violations.append(f"trial {trial}: distance not found")
            continue
        if c_uv < 0:
            violations.append(f"trial {trial}: negative distance")
        if dist(U @ U.conj().T) != 0:
            violations.append(f"trial {trial}: C(U, U) != 0")
        if (c_uv == 0) != (_phase_aligned_distance(U, V) < 10 * gs.epsilon):
            violations.append(f"trial {trial}: identity of indiscernibles")
        if c_uv != c_vu:
            violations.append(f"trial {trial}: asymmetry {c_uv} != {c_vu}")
        if c_uv > c_uw + c_wv:
            violations.append(f"trial {trial}: triangle {c_uv} > {c_uw} + {c_wv}")
        R = mats[rng.integers(len(mats))]
        if dist((U @ R) @ (V @ R).conj().T) != c_uv:
            violations.append(f"trial {trial}: right invariance")
    single_qubit = [g for label, g in gs.gates if label[0] in "hs"]
    for trial in range(50):
        n = int(rng.integers(1, 6))
        U = random_word(gs, n, rng)
        W = single_qubit[rng.integers(len(single_qubit))]
        c = dist(U @ W @ U.conj().T)
        if c is None or c > 2 * n + 1:
            violations.append(f"switchback trial {trial}: C = {c} > {2 * n + 1}")
    assert not violations, "; ".join(violations[:5])
    return f"0 violations on 200 metric tuples and 50 switchback words (group size {ball.size})"


def check_tfd_suite() -> str:
    """Purification, invariance, entropies and the scrambled Page average."""
    rng = np.random.default_rng(31)
    spectrum = np.sort(rng.uniform(-2.0, 2.0, size=6))
    beta = 1.3
    state = tfd.tfd(spectrum, beta)
    reduced = tfd.partial_trace(state, side="left")
    thermal = tfd.thermal_state(spectrum, beta)
    gap = float(np.max(np.abs(reduced.entries - thermal.entries)))
    assert gap < 1e-12, f"partial trace misses the thermal state by {gap:.2e}"

    psi0 = state.vector()
    worst = max(
        float(np.max(np.abs(tfd.evolve_tfd(state, t, t, "minus") - psi0))) for t in (0.3, 1.7, 12.0)
    )
    assert worst < 1e-10, f"difference-Hamiltonian invariance violated at {worst:.2e}"

    fid = abs(tfd.overlap(tfd.evolve_tfd(state, 0.7, 0.7, "plus"), psi0))
    assert fid < 1.0 - 1e-6, f"sum-Hamiltonian fidelity {fid} not strictly below 1"

    hot = tfd.tfd(spectrum, 0.0)
    s_hot = tfd.von_neumann_entropy(tfd.partial_trace(hot, side="right"))
    assert abs(s_hot - math.log(len(spectrum))) < 1e-12, (
        f"infinite-temperature reduced entropy {s_hot} != ln {len(spectrum)}"
    )

    rhos = [
        tfd.partial_trace(tfd.scrambled_circuit_state(4, 40, seed=1000 + i), side="left").entries
        for i in range(50)
    ]
    s_page = tfd.von_neumann_entropy(np.mean(rhos, axis=0))
    dev = abs(s_page - math.log(4)) / math.log(4)
    assert dev < 0.10, f"scrambled-average entropy {s_page:.4f} misses ln 4 by {dev:.1%}"
    return f"thermal gap = {gap:.1e}, fidelity drop = {1 - fid:.2e}, Page entropy = {s_page:.4f} (ln 4 = {math.log(4):.4f})"


def check_counting_estimates() -> str:
    """Closed-form counting values and the dropped-constant gaps."""
    c_max = counting.max_complexity(2, 0.1)
    assert abs(c_max - 61.15) <= 0.01, f"max_complexity(2, 0.1) = {c_max}"
    assert counting.parameter_count(4, 2) == 54
    for K in (2, 3):
        d = (counting.log_num_unitaries(K, 0.1) - counting.log_num_unitaries(K, 0.01)) / (
            math.log(1 / 0.1) - math.log(1 / 0.01)
        )
        assert abs(d - 4**K) < 1e-9 * 4**K, f"d(log N)/d ln(1/eps) = {d} != {4 ** K}"
        exact = counting.log_vol_su(2**K) - counting.log_ball_volume(4**K - 1, 0.01)
        ratio = counting.log_num_unitaries(K, 0.01) / exact
        assert abs(ratio - 1.0) < 0.20, f"K={K}: dropped-constant count off by {ratio - 1:.1%}"
    return f"max_complexity(2, 0.1) = {c_max:.4f}, parameter_count(4, 2) = 54, count ratios within 20%"


CHECKS: list[tuple[str, Callable[[], str]]] = [
    ("wdw-rate-identity", check_wdw_rate_identity),
    ("wormhole-linear-growth", check_wormhole_linear_growth),
    ("high-temperature-cv", check_high_temperature_cv),
    ("epidemic-logistic", check_epidemic_logistic),
    ("curvature-ensemble", check_curvature_ensemble),
    ("loschmidt-orders", check_loschmidt_orders),
    ("geodesic-residual-order", check_geodesic_residual_order),
    ("gate-metric-axioms", check_gate_metric_axioms),
    ("tfd-suite", check_tfd_suite),
    ("counting-estimates", check_counting_estimates),
]


def run_all() -> list[tuple[str, bool, str]]:
    """Run every check; print one PASS/FAIL line per criterion."""
    results = []
    for name, fn in CHECKS:
        t0 = time.perf_counter()
        try:
            detail = fn()
            ok = True
        except AssertionError as exc:
            detail = str(exc)
            ok = False
        dt = time.perf_counter() - t0
        results.append((name, ok, detail))
        print(f"{'PASS' if ok else 'FAIL'}  {name:28s} [{dt:6.2f} s]  {detail}")
    return results
