import math

import numpy as np
import pytest

from complexitylab.counting import parameter_count
from complexitylab.paulis import (
    KLocalHamiltonian,
    PauliString,
    _sum_of_squares,
    enumerate_strings,
    evolve,
    normalized_trace_product,
    sample_klocal,
)

from kronecker import kron_sum, pauli_matrix

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_identity_string():
    assert np.array_equal(pauli_matrix("I"), np.eye(2))
    assert PauliString("I").weight == 0


def test_xz_kron():
    m = pauli_matrix("XZ")
    assert np.allclose(m, np.kron(X, Z))
    assert abs(np.trace(m)) == 0
    assert np.allclose(m @ m, np.eye(4))
    assert PauliString("XZ").weight == 2


def test_weight_counts_non_identity():
    assert PauliString("IXIY").weight == 2
    assert PauliString("ZZZZ").weight == 4


def test_symplectic_masks():
    # qubit 0 is the most significant bit; a Y sets both bits
    p = PauliString("XYZI")
    assert (p.x, p.z, p.num_y) == (0b1100, 0b0110, 1)
    assert (PauliString("III").x, PauliString("III").z) == (0, 0)
    assert PauliString("YY").num_y == 2


def test_invalid_letters_rejected():
    with pytest.raises(ValueError):
        PauliString("XA")
    with pytest.raises(ValueError):
        PauliString("")


@pytest.mark.parametrize("K", [2, 3])
def test_orthonormality_exhaustive(K):
    # delta_pq under the normalized trace, for all nontrivial strings
    strings = enumerate_strings(K, K)
    assert len(strings) == 4**K - 1
    mats = [pauli_matrix(p) for p in strings]
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            expected = 1.0 if i == j else 0.0
            assert abs(normalized_trace_product(a, b) - expected) < 1e-12


def test_enumeration_counts():
    assert len(enumerate_strings(4, 2, exactly_local=True)) == 9 * math.comb(4, 2) == 54
    assert len(enumerate_strings(2, 2)) == 15
    assert len(enumerate_strings(5, 1, exactly_local=True)) == 15
    # parameter_count(K, w) strings of each weight w
    for K in range(1, 8):
        for k in range(1, K + 1):
            assert len(enumerate_strings(K, k, exactly_local=True)) == parameter_count(K, k)
            assert len(enumerate_strings(K, k)) == sum(parameter_count(K, w) for w in range(1, k + 1))
    assert len(enumerate_strings(10, 2)) == 30 + 405


def test_enumeration_returns_a_fresh_list():
    first = enumerate_strings(3, 2)
    first.clear()
    again = enumerate_strings(3, 2)
    assert len(again) == 36
    assert again == enumerate_strings(3, 2, exactly_local=False)
    with pytest.raises(ValueError):
        enumerate_strings(11, 2)


def test_enumeration_distinct():
    strings = enumerate_strings(4, 3)
    assert len(set(strings)) == len(strings)
    assert all(1 <= p.weight <= 3 for p in strings)


def test_sample_klocal_basic():
    h = sample_klocal(4, 2, True, 4.0, seed=0)
    assert len(h.terms) == 54
    m = h.dense()
    assert np.max(np.abs(m - m.conj().T)) < 1e-12
    assert abs(np.trace(m)) < 1e-12


def test_sample_klocal_errors():
    with pytest.raises(ValueError):
        sample_klocal(2, 3, False, 1.0, seed=0)
    with pytest.raises(ValueError):
        sample_klocal(4, 2, False, 0.0, seed=0)
    with pytest.raises(ValueError):
        sample_klocal(4, 2, False, -1.0, seed=0)


def test_sample_klocal_ensemble_mean():
    # Monte-Carlo oracle: E[sum J^2] equals the target variance
    draws = np.array([sample_klocal(4, 2, True, 4.0, seed=123, draw=i).coupling_norm_sq() for i in range(10_000)])
    stderr = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - 4.0) < 3 * stderr


def test_sample_klocal_independent_draws():
    a = sample_klocal(4, 2, True, 4.0, seed=9, draw=0)
    b = sample_klocal(4, 2, True, 4.0, seed=9, draw=1)
    assert not np.allclose(a.couplings(), b.couplings())
    again = sample_klocal(4, 2, True, 4.0, seed=9, draw=0)
    assert np.array_equal(a.couplings(), again.couplings())


def test_dense_matches_kron_oracle():
    # brute-force Kronecker assembly as the independent oracle
    h = sample_klocal(3, 2, False, 3.0, seed=7)
    assert np.max(np.abs(h.dense() - kron_sum(h))) == 0.0


def test_klocal_validation():
    with pytest.raises(ValueError):
        KLocalHamiltonian(2, 1, {PauliString("XX"): 1.0})
    with pytest.raises(ValueError):
        KLocalHamiltonian(2, 2, {PauliString("II"): 1.0})
    with pytest.raises(ValueError):
        KLocalHamiltonian(2, 2, {PauliString("XXX"): 1.0})


def test_trace_product_values():
    eye = np.eye(8, dtype=complex)
    assert normalized_trace_product(eye, eye) == pytest.approx(1.0)
    for p in enumerate_strings(2, 2):
        m = pauli_matrix(p)
        assert normalized_trace_product(m, m) == pytest.approx(1.0, abs=1e-14)
    h = sample_klocal(3, 2, False, 3.0, seed=3)
    hd = h.dense()
    assert abs(normalized_trace_product(hd, hd) - h.coupling_norm_sq()) < 1e-12


def test_trace_product_shape_mismatch():
    with pytest.raises(ValueError):
        normalized_trace_product(np.eye(2), np.eye(4))


def test_evolve_identity_at_zero():
    h = sample_klocal(2, 2, False, 2.0, seed=1)
    assert np.allclose(evolve(h, 0.0), np.eye(4), atol=1e-14)


def test_evolve_diagonal_phases():
    energies = np.array([0.3, -1.2, 2.0, 0.0])
    U = evolve(np.diag(energies).astype(complex), 1.7)
    assert np.allclose(np.diag(U), np.exp(-1j * energies * 1.7), atol=1e-12)
    assert np.allclose(U, np.diag(np.diag(U)), atol=1e-12)


def test_evolve_composition_and_unitarity():
    h = sample_klocal(3, 2, True, 3.0, seed=5)
    rng = np.random.default_rng(0)
    for _ in range(5):
        t1, t2 = rng.uniform(-3, 3, size=2)
        lhs = evolve(h, t1) @ evolve(h, t2)
        rhs = evolve(h, t1 + t2)
        assert np.max(np.abs(lhs - rhs)) < 1e-9
        U = evolve(h, t1)
        assert np.max(np.abs(U.conj().T @ U - np.eye(8))) < 1e-10


def test_evolve_rejects_non_hermitian():
    with pytest.raises(ValueError):
        evolve(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


def test_all_strings_hermitian_traceless():
    for p in enumerate_strings(2, 2):
        m = pauli_matrix(p)
        assert np.allclose(m, m.conj().T)
        assert abs(np.trace(m)) < 1e-14
        assert np.allclose(m @ m.conj().T, np.eye(4))


def loop_sum_of_squares(x):
    acc = 0.0
    for v in x.tolist():
        acc += v * v
    return acc


@pytest.mark.parametrize("n", [1, 2, 7, 54, 405, 4096])
def test_sum_of_squares_is_a_left_to_right_loop_bit_for_bit(n):
    x = np.random.default_rng(n).normal(0.0, math.sqrt(10 / n), size=n)
    assert _sum_of_squares(x) == loop_sum_of_squares(x)
    J = x[: len(enumerate_strings(10, 2))]
    H = KLocalHamiltonian(10, 2, dict(zip(enumerate_strings(10, 2), J.tolist())))
    assert H.coupling_norm_sq() == loop_sum_of_squares(J)


def test_sum_of_squares_neither_compensates_nor_pairs():
    # each 1e-16 is lost against 1 when added in order; a compensated or a
    # pairwise sum keeps some of the hundred
    x = np.array([1.0] + [1e-8] * 100)
    assert _sum_of_squares(x) == loop_sum_of_squares(x) == 1.0
    assert math.fsum((x * x).tolist()) > 1.0 and np.sum(x * x) > 1.0
    assert _sum_of_squares(np.array([])) == KLocalHamiltonian(2, 2, {}).coupling_norm_sq() == 0.0
