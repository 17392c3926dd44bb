import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from complexitylab.geometry import (
    PenaltySchedule,
    commutator,
    curvature_ensemble,
    geodesic_residual,
    geodesic_residual_path,
    loschmidt,
    metric_norm_sq,
    path_action,
    path_length,
    penalty,
    sample_orthogonal_pair,
    sectional_curvature,
    velocity_components,
)
from complexitylab.paulis import (
    CommutatorTable,
    KLocalHamiltonian,
    PauliString,
    enumerate_strings,
    evolve,
    normalized_trace_product,
    pauli_matrix,
    sample_klocal,
)

K2_SCHEDULE = PenaltySchedule(k=2, c=1.0)


def test_penalty_values():
    assert penalty(2, K2_SCHEDULE) == 1.0
    assert penalty(1, K2_SCHEDULE) == 1.0
    assert penalty(3, K2_SCHEDULE) == 4.0
    assert penalty(5, PenaltySchedule(2, 2.0)) == 128.0


def test_penalty_rejects_zero_weight():
    with pytest.raises(ValueError):
        penalty(0, K2_SCHEDULE)
    with pytest.raises(ValueError):
        PenaltySchedule(2, 0.0)
    with pytest.raises(ValueError):
        PenaltySchedule(0, 1.0)


@given(st.floats(min_value=0.1, max_value=10.0), st.floats(min_value=0.01, max_value=100.0))
def test_penalty_monotone_in_c(c1, factor):
    c2 = c1 * (1 + factor)
    assert penalty(4, PenaltySchedule(2, c2)) > penalty(4, PenaltySchedule(2, c1))


def test_metric_norm_sq_euclidean_for_local():
    v = {PauliString("XXII"): 0.3, PauliString("IZYI"): -1.1, PauliString("XIII"): 2.0}
    assert metric_norm_sq(v, K2_SCHEDULE) == pytest.approx(0.3**2 + 1.1**2 + 4.0)


def test_metric_norm_sq_penalizes_heavy_direction():
    v = {PauliString("XYZ"): 0.5}
    assert metric_norm_sq(v, PenaltySchedule(2, 1.0)) == pytest.approx(4 * 0.25)
    assert metric_norm_sq(v, PenaltySchedule(2, 3.0)) == pytest.approx(12 * 0.25)


def test_velocity_components_recover_couplings():
    h = sample_klocal(2, 2, False, 1.0, seed=21)
    hm = h.dense()
    w, v = np.linalg.eigh(hm)
    path = lambda t: (v * np.exp(-1j * w * t)) @ v.conj().T
    comps = velocity_components(path, t=0.3, h=2e-5)
    for p, j in h.terms.items():
        assert comps[p] == pytest.approx(j, abs=1e-8)
    # with unit penalties the squared norm is the Hamiltonian variance
    flat = PenaltySchedule(k=2, c=1.0)
    assert metric_norm_sq(comps, flat) == pytest.approx(h.coupling_norm_sq(), abs=1e-7)


def test_velocity_components_initial_projection():
    # at t = 0 the components are the projections of the initial velocity
    h = sample_klocal(2, 2, True, 2.0, seed=23)
    hm = h.dense()
    w, v = np.linalg.eigh(hm)
    path = lambda t: (v * np.exp(-1j * w * t)) @ v.conj().T
    comps = velocity_components(path, t=0.0, h=2e-5)
    for p, j in h.terms.items():
        assert comps[p] == pytest.approx(j, abs=1e-8)


def test_velocity_components_constant_path():
    h = sample_klocal(2, 2, False, 1.0, seed=22)
    U = evolve(h, 0.8)
    comps = velocity_components(lambda t: U, t=0.0)
    assert max(abs(x) for x in comps.values()) < 1e-10


def test_velocity_components_rejects_non_unitary():
    with pytest.raises(ValueError):
        velocity_components(lambda t: np.eye(4) * (1 + t), t=1.0)


def test_path_action_constant_speed():
    # constant velocity with |v|^2 = 2K gives action K * tau
    K, tau = 4, 0.7
    comp = math.sqrt(2 * K / 3)
    v = {PauliString("XXII"): comp, PauliString("IYYI"): comp, PauliString("IIZZ"): comp}
    samples = [(t, v) for t in np.linspace(0.0, tau, 9)]
    assert path_action(samples, K2_SCHEDULE) == pytest.approx(K * tau, rel=1e-12)
    assert path_length(samples, K2_SCHEDULE) == pytest.approx(math.sqrt(2 * K) * tau, rel=1e-12)
    # action = sqrt(E_a / 2) * length for constant speed, E_a = |v|^2 / 2
    e_a = 0.5 * metric_norm_sq(v, K2_SCHEDULE)
    assert path_action(samples, K2_SCHEDULE) == pytest.approx(
        math.sqrt(e_a / 2) * path_length(samples, K2_SCHEDULE), rel=1e-12
    )


def test_path_action_zero_and_dilation():
    zero = {PauliString("XX"): 0.0}
    samples = [(t, zero) for t in np.linspace(0, 1, 5)]
    assert path_action(samples, K2_SCHEDULE) == 0.0
    v = {PauliString("XY"): 1.3}
    lam = 2.5
    base = [(t, v) for t in np.linspace(0, 1, 7)]
    dilated = [(lam * t, {p: x / lam for p, x in v.items()}) for t, _ in base]
    assert path_action(dilated, K2_SCHEDULE) == pytest.approx(path_action(base, K2_SCHEDULE) / lam)


def test_path_action_input_validation():
    v = {PauliString("XX"): 1.0}
    with pytest.raises(ValueError):
        path_action([(0.0, v)], K2_SCHEDULE)
    with pytest.raises(ValueError):
        path_action([(0.0, v), (0.0, v)], K2_SCHEDULE)


def test_geodesic_residual_second_order():
    h = sample_klocal(2, 2, False, 2.0, seed=30)
    res = [geodesic_residual(h, t=0.5, h=step) for step in (2e-2, 1e-2, 5e-3)]
    orders = [math.log2(a / b) for a, b in zip(res, res[1:])]
    assert all(1.8 <= o <= 2.2 for o in orders)
    assert geodesic_residual(h, t=0.0, h=1e-3) < 1e-4


def test_geodesic_residual_detects_non_geodesic():
    # analytic oracle: for U = exp(-iHt^2) the defect is 2iHU, independent of h
    h = sample_klocal(2, 2, False, 2.0, seed=31)
    hm = h.dense()
    w, v = np.linalg.eigh(hm)
    path = lambda t: (v * np.exp(-1j * w * t * t)) @ v.conj().T
    t0 = 0.6
    expected = float(np.max(np.abs(2 * hm @ path(t0))))
    for step in (1e-3, 5e-4):
        assert geodesic_residual_path(path, t0, step) == pytest.approx(expected, rel=1e-4)


def test_loschmidt_commuting_case():
    z1 = KLocalHamiltonian(2, 2, {PauliString("ZI"): 1.0}).dense()
    z2 = KLocalHamiltonian(2, 2, {PauliString("IZ"): 1.0}).dense()
    lam = loschmidt(z1, z2, t=0.4, dtheta=0.01)
    assert np.allclose(lam, -1j * z2 * 0.4 * 0.01, atol=1e-15)


def test_loschmidt_antihermitian():
    hk, dk = sample_orthogonal_pair(3, seed=17)
    lam = loschmidt(hk.dense(), dk.dense(), t=0.3, dtheta=0.05)
    assert np.max(np.abs(lam + lam.conj().T)) < 1e-12


def test_loschmidt_rejects_non_orthogonal():
    h = sample_klocal(2, 2, True, 2.0, seed=18).dense()
    with pytest.raises(ValueError):
        loschmidt(h, h, t=0.1, dtheta=0.01)


def test_loschmidt_error_small():
    hk, dk = sample_orthogonal_pair(3, seed=19)
    H, D = hk.dense(), dk.dense()
    t, dth = 0.2, 1e-3
    lam = loschmidt(H, D, t, dth)
    exact = expm(1j * H * t) @ expm(-1j * (H + D * dth) * t)
    assert np.max(np.abs(expm(lam) - exact)) < 1e-5


def test_sectional_curvature_zero_at_boundary_penalty():
    hk, dk = sample_orthogonal_pair(6, seed=40)
    boundary = PenaltySchedule(2, 1.0 / 3.0)  # I(3) = 4/3 kills the prefactor
    assert sectional_curvature(hk, dk, boundary) == 0.0


def test_sectional_curvature_zero_for_commuting():
    h = KLocalHamiltonian(4, 2, {PauliString("XXII"): 1.0})
    d = KLocalHamiltonian(4, 2, {PauliString("YYII"): 0.7})
    assert sectional_curvature(h, d, K2_SCHEDULE) == pytest.approx(0.0, abs=1e-15)


def test_sectional_curvature_negative_generic():
    hk, dk = sample_orthogonal_pair(6, seed=41)
    assert sectional_curvature(hk, dk, K2_SCHEDULE) < 0


def test_sectional_curvature_scale_invariant():
    hk, dk = sample_orthogonal_pair(4, seed=42)
    r0 = sectional_curvature(hk, dk, K2_SCHEDULE)
    h2 = KLocalHamiltonian(4, 2, {p: 3.7 * j for p, j in hk.terms.items()})
    d2 = KLocalHamiltonian(4, 2, {p: -0.2 * j for p, j in dk.terms.items()})
    assert sectional_curvature(h2, d2, K2_SCHEDULE) == pytest.approx(r0, rel=1e-12)


def _kron_sum(ham):
    # independent of the symplectic masks: a sum of Kronecker products of 2x2 factors
    return sum(j * pauli_matrix(p) for p, j in ham.terms.items())


def _trace_oracle(hk, dk):
    # evaluate the commutator traces with plain np.trace on Kronecker-assembled matrices
    H, D = _kron_sum(hk), _kron_sum(dk)
    dim = H.shape[0]
    num = 2 * np.trace(commutator(H, D) @ commutator(D, H)).real / dim
    den = (np.trace(D @ D).real / dim) * (np.trace(H @ H).real / dim)
    return (1.0 / 3.0 - penalty(3, K2_SCHEDULE) / 4.0) * num / den


@pytest.mark.parametrize("K", [3, 4, 6])
def test_sectional_curvature_matches_trace_oracle(K):
    hk, dk = sample_orthogonal_pair(K, seed=43)
    assert sectional_curvature(hk, dk, K2_SCHEDULE) == pytest.approx(_trace_oracle(hk, dk), rel=1e-12)


def test_sectional_curvature_matches_trace_oracle_on_distinct_terms():
    # different term sets; the anticommuting products include Y.Y, X.Y and Z.Y
    # letters, and XY.YY, XZ.YZ and YX.XX all land on ZII, so their phases interfere
    h = {"XYI": 0.7, "XZI": -0.4, "YXI": 1.3, "ZIY": 0.25, "IYX": -0.8}
    d = {"YYI": 0.9, "YZI": -1.1, "XXI": 0.6, "YIY": -0.35, "IZY": 0.45}
    hk = KLocalHamiltonian(3, 2, {PauliString(p): j for p, j in h.items()})
    dk = KLocalHamiltonian(3, 2, {PauliString(p): j for p, j in d.items()})
    r = sectional_curvature(hk, dk, K2_SCHEDULE)
    assert r < 0
    assert r == pytest.approx(_trace_oracle(hk, dk), rel=1e-12)


@pytest.mark.parametrize("K", range(2, 11))
def test_commutator_table_counts_anticommuting_pairs(K):
    # a 2-local string anticommutes with 12(K-2) + 4 of the N = 9 C(K,2)
    # 2-local strings (a differing letter on exactly one shared qubit)
    strings = enumerate_strings(K, 2, exactly_local=True)
    n = len(strings)
    table = CommutatorTable(strings, strings)
    assert len(table) == n * (12 * (K - 2) + 4)
    # the closed form of the trace-ratio oracle below is 8 * pairs / N^2
    assert 8 * len(table) / n**2 == pytest.approx(16.0 * (12 * K - 20) / (9 * K * (K - 1)), rel=1e-14)


def test_commutator_table_validation():
    with pytest.raises(ValueError, match="qubit count"):
        CommutatorTable([PauliString("XX")], [PauliString("XYZ")])
    table = CommutatorTable([PauliString("XX")], [PauliString("ZI"), PauliString("IZ")])
    with pytest.raises(ValueError, match="shapes"):
        table.commutator_norm_sq(np.ones(1), np.ones(3))


def test_sectional_curvature_validation():
    h3 = sample_klocal(4, 3, True, 1.0, seed=44)
    h2 = sample_klocal(4, 2, True, 1.0, seed=45)
    with pytest.raises(ValueError, match="2-local"):
        sectional_curvature(h3, h3, K2_SCHEDULE)
    with pytest.raises(ValueError, match="orthogonal"):
        sectional_curvature(h2, h2, K2_SCHEDULE)
    zero = KLocalHamiltonian(4, 2, {PauliString("XXII"): 0.0})
    with pytest.raises(ValueError, match="zero-norm"):
        sectional_curvature(h2, zero, K2_SCHEDULE)


def test_sample_orthogonal_pair_properties():
    hk, dk = sample_orthogonal_pair(6, seed=46)
    overlap = normalized_trace_product(hk.dense(), dk.dense())
    assert abs(overlap) < 1e-12
    assert all(p.weight == 2 for p in hk.terms)
    assert all(p.weight == 2 for p in dk.terms)


def test_curvature_ensemble_reproducible_and_consistent():
    a = curvature_ensemble(4, K2_SCHEDULE, trials=8, seed=50)
    b = curvature_ensemble(4, K2_SCHEDULE, trials=8, seed=50)
    assert a == b
    assert a.mean == pytest.approx((1.0 / 3.0 - 1.0) * a.trace_ratio_mean, rel=1e-12)
    # single-trial ensemble equals the direct curvature of that pair
    single = curvature_ensemble(4, K2_SCHEDULE, trials=1, seed=51)
    hk, dk = sample_orthogonal_pair(4, seed=51, draw=0)
    assert single.mean == pytest.approx(sectional_curvature(hk, dk, K2_SCHEDULE), rel=1e-12)


@pytest.mark.parametrize("K", [4, 6])
def test_curvature_ensemble_matches_a_loop_over_sampled_pairs(K):
    # reference: Hamiltonian pairs, their own term tables and coupling_norm_sq
    trials, seed = 9, 70
    result = curvature_ensemble(K, K2_SCHEDULE, trials=trials, seed=seed)
    ratios, curvatures = [], []
    for i in range(trials):
        hk, dk = sample_orthogonal_pair(K, seed, i)
        table = CommutatorTable(list(hk.terms), list(dk.terms))
        num = 2.0 * table.commutator_norm_sq(hk.couplings(), dk.couplings())
        ratios.append(num / (hk.coupling_norm_sq() * dk.coupling_norm_sq()))
        curvatures.append(sectional_curvature(hk, dk, K2_SCHEDULE))
    assert result.trace_ratio_mean == np.array(ratios).mean()
    assert result.mean == pytest.approx(np.mean(curvatures), rel=1e-14, abs=0)


@pytest.mark.parametrize("K, seed, draw", [(4, 3, 0), (6, 11, 5)])
def test_pair_first_member_is_the_even_klocal_draw(K, seed, draw):
    hk, _ = sample_orthogonal_pair(K, seed, draw)
    ref = sample_klocal(K, 2, True, K, seed, 2 * draw)
    assert hk == ref
    assert hk.couplings().tobytes() == ref.couplings().tobytes()


def test_curvature_ensemble_builds_no_hamiltonian(monkeypatch):
    built = []
    post_init = KLocalHamiltonian.__post_init__

    def counted(self):
        built.append(self.K)
        post_init(self)

    monkeypatch.setattr(KLocalHamiltonian, "__post_init__", counted)
    curvature_ensemble(4, K2_SCHEDULE, trials=5, seed=1)
    assert built == []
    sample_orthogonal_pair(4, seed=1)
    assert built == [4, 4]  # the counter sees every construction


def test_curvature_ensemble_validation():
    with pytest.raises(ValueError):
        curvature_ensemble(3, K2_SCHEDULE, trials=2, seed=0)
    with pytest.raises(ValueError):
        curvature_ensemble(4, K2_SCHEDULE, trials=0, seed=0)


@pytest.mark.parametrize("K", [4, 6, 8, 10])
def test_trace_ratio_matches_anticommutation_count(K):
    # combinatorial oracle: over independent Gaussian couplings the mean of
    # 2 Tr([H,D][D,H]) / (Tr D^2 Tr H^2) is 8 * (anticommuting pairs) / N^2.
    # A 2-local string has 12(K-2) + 4 anticommuting partners (differing
    # letter on exactly one shared qubit), out of N = 9 C(K,2) strings.
    analytic = 16.0 * (12 * K - 20) / (9 * K * (K - 1))
    result = curvature_ensemble(K, K2_SCHEDULE, trials=150, seed=60)
    assert result.trace_ratio_mean == pytest.approx(analytic, rel=0.05)


def test_action_of_hamiltonian_flow():
    # end to end: sampled velocities of exp(-iHt) integrate to the action
    # (1/2) sum J^2 * tau of the constant-speed geodesic
    h = sample_klocal(2, 2, True, 2.0, seed=61)
    hm = h.dense()
    w, v = np.linalg.eigh(hm)
    path = lambda t: (v * np.exp(-1j * w * t)) @ v.conj().T
    tau = 0.9
    samples = [(t, velocity_components(path, t, h=2e-5)) for t in np.linspace(0, tau, 7)]
    flat = PenaltySchedule(k=2, c=1.0)
    assert path_action(samples, flat) == pytest.approx(0.5 * h.coupling_norm_sq() * tau, rel=1e-6)
