import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexitylab import gates
from complexitylab.gates import haar_unitary, random_inverse_closed_gateset
from complexitylab.thermofield import (
    DensityMatrix,
    evolve_tfd,
    fubini_distance,
    overlap,
    partial_trace,
    scrambled_circuit_state,
    tfd,
    thermal_state,
    two_sided_correlator,
    von_neumann_entropy,
)

SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2))
    with pytest.raises(ValueError, match="negative"):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError):
        DensityMatrix(np.ones((2, 3)))


def test_entropy_of_a_raw_matrix_diagonalises_it_once(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(m):
        calls.append(m.shape)
        return eigvalsh(m)

    rho = thermal_state([0.0, 0.4, 1.1], beta=0.7).entries
    expected = von_neumann_entropy(rho)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    assert von_neumann_entropy(rho) == expected
    assert calls == [(3, 3)]
    dm = DensityMatrix(rho)
    assert not dm.eigenvalues().flags.writeable
    assert von_neumann_entropy(dm) == expected
    assert calls == [(3, 3)] * 2


def test_thermal_state_infinite_temperature():
    rho = thermal_state([0.0, 1.0, 2.0], beta=0.0)
    assert np.allclose(rho.entries, np.eye(3) / 3)


def test_thermal_state_zero_temperature_pure():
    rho = thermal_state([0.3, 1.0, 2.0], beta=math.inf)
    assert np.allclose(rho.entries, np.diag([1.0, 0.0, 0.0]))
    assert von_neumann_entropy(rho) == 0.0


def test_thermal_state_two_level():
    rho = thermal_state([0.0, 1.0], beta=1.0)
    p0 = 1 / (1 + math.exp(-1))
    assert rho.entries[0, 0].real == pytest.approx(p0)
    assert rho.entries[1, 1].real == pytest.approx(1 - p0)
    # entropy from the eigenvalues directly (0.58220 at 40-digit precision)
    expected = -(p0 * math.log(p0) + (1 - p0) * math.log(1 - p0))
    assert von_neumann_entropy(rho) == pytest.approx(expected)
    assert expected == pytest.approx(0.5822031088882179, abs=1e-12)


def test_thermal_state_rejects_bad_input():
    with pytest.raises(ValueError):
        thermal_state([], beta=1.0)
    with pytest.raises(ValueError):
        thermal_state([0.0, 1.0], beta=-0.5)


def test_entropy_extremes():
    pure = np.zeros((4, 4), dtype=complex)
    pure[2, 2] = 1.0
    assert von_neumann_entropy(pure) == 0.0
    assert math.copysign(1.0, von_neumann_entropy(pure)) == 1.0  # +0.0, not -0.0
    assert von_neumann_entropy(np.eye(5) / 5) == pytest.approx(math.log(5))


def test_entropy_basis_invariant():
    rng = np.random.default_rng(2)
    rho = thermal_state(rng.normal(size=5), beta=0.7)
    U = haar_unitary(5, rng)
    rotated = U @ rho.entries @ U.conj().T
    assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-9


def test_tfd_infinite_temperature_is_bell_like():
    state = tfd([0.0, 1.0], beta=0.0)
    assert np.allclose(state.amplitudes, [1 / math.sqrt(2)] * 2)
    psi = state.vector()
    assert psi[0] == pytest.approx(1 / math.sqrt(2))
    assert psi[3] == pytest.approx(1 / math.sqrt(2))
    assert psi[1] == psi[2] == 0


def test_tfd_partial_trace_recovers_thermal():
    rng = np.random.default_rng(3)
    spectrum = rng.normal(size=7)
    for beta in (0.0, 0.4, 2.5, math.inf):
        state = tfd(spectrum, beta)
        thermal = thermal_state(spectrum, beta)
        for side in ("left", "right"):
            reduced = partial_trace(state, side=side)
            assert np.max(np.abs(reduced.entries - thermal.entries)) < 1e-12
            assert von_neumann_entropy(reduced) == pytest.approx(von_neumann_entropy(thermal), abs=1e-12)


def test_tfd_entropy_monotone_in_temperature():
    spectrum = [0.0, 0.3, 1.1, 2.0]
    betas = [0.0, 0.3, 0.8, 1.5, 3.0, 8.0]
    entropies = [von_neumann_entropy(partial_trace(tfd(spectrum, b), "left")) for b in betas]
    assert all(a >= b - 1e-12 for a, b in zip(entropies, entropies[1:]))


def test_partial_trace_product_state():
    rng = np.random.default_rng(4)
    a = rng.normal(size=4) + 1j * rng.normal(size=4)
    a /= np.linalg.norm(a)
    b = rng.normal(size=8) + 1j * rng.normal(size=8)
    b /= np.linalg.norm(b)
    psi = np.kron(a, b)
    rho_l = partial_trace(psi, side="left", dims=(4, 8))
    rho_r = partial_trace(psi, side="right", dims=(4, 8))
    assert von_neumann_entropy(rho_l) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(rho_l.entries, np.outer(a, a.conj()))
    assert np.allclose(rho_r.entries, np.outer(b, b.conj()))


def test_partial_trace_refuses_a_matrix():
    rng = np.random.default_rng(5)
    psi = rng.normal(size=12) + 1j * rng.normal(size=12)
    psi /= np.linalg.norm(psi)
    rho_full = np.outer(psi, psi.conj())
    for state in (rho_full, DensityMatrix(rho_full)):
        for side in ("left", "right"):
            with pytest.raises(ValueError, match="TFDState or a pure state vector"):
                partial_trace(state, side=side, dims=(3, 4))


def test_partial_trace_dim_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.ones(6) / math.sqrt(6), side="left", dims=(4, 2))
    with pytest.raises(ValueError):
        partial_trace(np.ones(6) / math.sqrt(6), side="left")
    with pytest.raises(ValueError):
        partial_trace(np.ones(4) / 2, side="middle", dims=(2, 2))


def test_evolve_tfd_minus_invariance():
    state = tfd([0.1, 0.9, 1.7], beta=1.1)
    psi0 = state.vector()
    for t in (0.0, 0.6, 9.0):
        psi = evolve_tfd(state, t, t, sign="minus")
        assert np.max(np.abs(psi - psi0)) < 1e-12


def test_evolve_tfd_plus_moves_state():
    state = tfd([0.1, 0.9, 1.7], beta=1.1)
    psi = evolve_tfd(state, 0.4, 0.4, sign="plus")
    assert abs(overlap(psi, state.vector())) < 1.0 - 1e-6
    assert np.linalg.norm(psi) == pytest.approx(1.0)


def test_evolve_tfd_zero_times_identity():
    state = tfd([0.1, 0.9], beta=0.3)
    for sign in ("minus", "plus"):
        assert np.array_equal(evolve_tfd(state, 0.0, 0.0, sign), state.vector())


def test_evolve_tfd_commutes_with_partial_trace():
    state = tfd([0.0, 0.5, 1.3, 2.2], beta=0.8)
    rho0 = partial_trace(state, side="left").entries
    psi = evolve_tfd(state, 1.9, -0.7, sign="minus")
    rho_t = partial_trace(psi, side="left").entries
    assert np.max(np.abs(rho_t - rho0)) < 1e-12


def test_evolve_tfd_rejects_bad_sign():
    state = tfd([0.0, 1.0], beta=1.0)
    with pytest.raises(ValueError):
        evolve_tfd(state, 0.1, 0.1, sign="both")


def test_two_sided_correlator_bell():
    state = tfd([1.0, -1.0], beta=0.0)  # energy basis = z basis
    psi = state.vector()
    value = two_sided_correlator(psi, SZ, SZ)
    assert value == pytest.approx(1.0)
    # oracle: direct contraction with the explicit Kronecker product
    assert value == pytest.approx(np.vdot(psi, np.kron(SZ, SZ) @ psi))


def test_two_sided_correlator_product_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0  # |0>|0>
    assert two_sided_correlator(psi, SX, SX) == pytest.approx(0.0)


def test_two_sided_correlator_ground_state_factorizes():
    spectrum = [0.0, 1.0, 2.0]
    state = tfd(spectrum, beta=math.inf)
    rng = np.random.default_rng(6)
    O = rng.normal(size=(3, 3))
    O = (O + O.T) / 2
    value = two_sided_correlator(state.vector(), O, O)
    assert value == pytest.approx(O[0, 0] * O[0, 0])


def test_two_sided_correlator_shape_check():
    state = tfd([0.0, 1.0], beta=1.0)
    with pytest.raises(ValueError):
        two_sided_correlator(state.vector(), np.eye(3), np.eye(2))


def test_fubini_distances():
    e0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    assert fubini_distance(e0, e0) == 0.0
    assert fubini_distance(e0, e1) == pytest.approx(math.pi / 2)
    mix = (e0 + e1) / math.sqrt(2)
    assert fubini_distance(e0, mix) == pytest.approx(math.pi / 4)
    with pytest.raises(ValueError):
        fubini_distance(e0, 2 * e1)
    # equal states up to a phase, where arccos of an overlap 1 - 1 ulp reads 1.5e-8
    state = tfd([0.0, 0.7, 1.9, 2.3, 5.1], beta=1.3)
    for t in (0.3, 1.7, 12.0):
        assert fubini_distance(state.vector(), evolve_tfd(state, t, t, "minus")) <= 1e-15, t
    psi = np.random.default_rng(5).normal(size=(8, 2)) @ [1.0, 1j]
    psi /= np.linalg.norm(psi)
    assert fubini_distance(psi, np.exp(0.3j) * psi) <= 1e-15


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10_000))
def test_fubini_range_on_random_states(seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    phi = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi /= np.linalg.norm(psi)
    phi /= np.linalg.norm(phi)
    d = fubini_distance(psi, phi)
    assert 0.0 <= d <= math.pi / 2
    assert d == pytest.approx(fubini_distance(phi, psi))
    # global phases are invisible
    assert fubini_distance(np.exp(0.3j) * psi, phi) == pytest.approx(d)


def test_scrambled_state_is_normalized_and_spreads():
    psi = scrambled_circuit_state(4, 40, seed=9)
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    rho = partial_trace(psi, side="left", dims=(4, 4))
    assert von_neumann_entropy(rho) > 0.5


def _haar_reference(dim, rng):
    """haar_unitary as one QR per matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _circuit_reference(K, n_gates, seed):
    """The circuit gate by gate from the documented draw order: all first
    qubits, all second qubits (shifted past the first), then the Ginibre
    block; one QR and two moveaxis copies per gate."""
    rng = np.random.default_rng(seed)
    first = rng.integers(K, size=n_gates)
    second = rng.integers(K - 1, size=n_gates)
    normals = rng.standard_normal((n_gates, 4, 4, 2))
    psi = np.zeros(1 << K, dtype=complex)
    psi[0] = 1.0
    for i in range(n_gates):
        a, b = int(first[i]), int(second[i])
        b = b + 1 if b >= a else b
        q, r = np.linalg.qr(normals[i, ..., 0] + 1j * normals[i, ..., 1])
        U = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        t = psi.reshape([2] * K)
        t = np.moveaxis(t, (a, b), (0, 1)).reshape(4, -1)
        t = (U @ t).reshape([2, 2] + [2] * (K - 2))
        psi = np.moveaxis(t, (0, 1), (a, b)).reshape(-1)
    return psi


@pytest.mark.parametrize("K", [2, 3, 4, 10, 12])
def test_scrambled_state_equals_gate_by_gate_reference(K):
    for n_gates in (0, 1, 40, 300):
        for seed in (0, 9, 1000 + K):
            psi = scrambled_circuit_state(K, n_gates, seed)
            assert np.array_equal(psi, _circuit_reference(K, n_gates, seed))


def test_one_gate_leaves_a_uniformly_chosen_pair_of_qubits_untouched():
    # A qubit the gate misses keeps the exact |0> marginal; the gate's own
    # pair does so with probability 0.  Over 3,600 seeds each of the
    # C(4, 2) = 6 untouched pairs should turn up 600 times.
    K, seeds = 4, 3600
    bits = (np.arange(1 << K)[:, None] >> (K - 1 - np.arange(K))) & 1  # qubit 0 is the leading axis
    counts = {}
    for seed in range(seeds):
        p1 = np.abs(scrambled_circuit_state(K, 1, seed)) ** 2 @ bits
        untouched = tuple(np.flatnonzero(p1 == 0.0).tolist())
        assert len(untouched) == K - 2
        counts[untouched] = counts.get(untouched, 0) + 1
    assert len(counts) == math.comb(K, 2)
    expected = seeds / math.comb(K, 2)
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 25.7, counts  # the 1e-4 upper tail of chi-square with 5 degrees of freedom


def test_one_gate_on_two_qubits_has_haar_moments():
    # Each |psi_i|^2 of a Haar-random column in C^4 is Beta(1, 3):
    # mean 1/4 and second moment 2 / (4 * 5) = 1/10.
    p = np.array([np.abs(scrambled_circuit_state(2, 1, seed)) ** 2 for seed in range(4000)])
    for samples, exact in ((p, 1 / 4), (p**2, 1 / 10)):
        stderr = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
        assert np.all(np.abs(samples.mean(axis=0) - exact) < 5 * stderr), (samples.mean(axis=0), exact)


def test_scrambled_state_gate_counts():
    vacuum = np.zeros(16, dtype=complex)
    vacuum[0] = 1.0
    assert np.array_equal(scrambled_circuit_state(4, 0, seed=3), vacuum)
    with pytest.raises(ValueError, match="n_gates"):
        scrambled_circuit_state(4, -3, seed=3)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_stacked_haar_equals_one_matrix_at_a_time(dim):
    rng, ref = np.random.default_rng(dim), np.random.default_rng(dim)
    z = np.array([rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(50)])
    stacked = gates._unitary_from_ginibre(z)
    for i in range(len(z)):
        U = _haar_reference(dim, ref)
        assert np.array_equal(stacked[i], U)
        assert np.array_equal(gates._unitary_from_ginibre(z[i]), U)
    rng, ref = np.random.default_rng(dim), np.random.default_rng(dim)
    for _ in range(20):
        assert np.array_equal(haar_unitary(dim, rng), _haar_reference(dim, ref))


@pytest.mark.parametrize("K, n_pairs, seed", [(1, 2, 0), (2, 4, 3), (3, 3, 11)])
def test_random_gateset_matrices_unchanged(K, n_pairs, seed):
    ref = np.random.default_rng(seed)
    want = []
    for _ in range(n_pairs):
        g = _haar_reference(1 << K, ref)
        want += [g, g.conj().T]
    got = random_inverse_closed_gateset(K, n_pairs, seed).matrices()
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
