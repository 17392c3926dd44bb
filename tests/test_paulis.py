import itertools
import math

import numpy as np
import pytest

from complexitylab.counting import parameter_count
from complexitylab.paulis import (
    CommutatorTable,
    KLocalHamiltonian,
    _sum_of_squares,
    evolve,
    normalized_trace_product,
    pauli_masks,
    sample_klocal,
)

from kronecker import encode, hamiltonian, kron_sum, letters, pauli_matrix

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def words(K, k, exactly_local=False):
    """Letter strings of weight 1..k (k only, if exactly local) in the
    order increasing weight, then positions, then letters X < Y < Z."""
    out = []
    for w in [k] if exactly_local else range(1, k + 1):
        for pos in itertools.combinations(range(K), w):
            for chosen in itertools.product("XYZ", repeat=w):
                word = ["I"] * K
                for q, ch in zip(pos, chosen):
                    word[q] = ch
                out.append("".join(word))
    return out


def weights(words):
    x, z = encode(words)
    return np.bitwise_count(x | z).tolist()


def test_identity_string():
    assert np.array_equal(pauli_matrix("I"), np.eye(2))
    assert weights(["I"]) == [0]


def test_xz_kron():
    m = pauli_matrix("XZ")
    assert np.allclose(m, np.kron(X, Z))
    assert abs(np.trace(m)) == 0
    assert np.allclose(m @ m, np.eye(4))
    assert weights(["XZ"]) == [2]


def test_weight_counts_non_identity():
    assert weights(["IXIY", "ZZZZ"]) == [2, 4]


def test_symplectic_masks():
    # qubit 0 is the most significant bit; a Y sets both bits
    x, z = encode(["XYZI", "III", "YY"])
    assert x.tolist() == [0b1100, 0, 0b11] and z.tolist() == [0b0110, 0, 0b11]
    assert np.bitwise_count(x & z).tolist() == [1, 0, 2]  # the Y counts
    # letters decodes what encode encodes
    for K in range(1, 5):
        x, z = encode(words(K, K))
        assert [letters(K, *m) for m in zip(x.tolist(), z.tolist())] == words(K, K)


def test_invalid_letters_rejected():
    with pytest.raises(ValueError):
        encode(["XA"])
    with pytest.raises(ValueError):
        encode([""])
    # masks that spell no K-letter string: a bit at or above K, or a negative mask
    for x, z in [([0b100], [0]), ([0], [0b100]), ([-1], [0])]:
        with pytest.raises(ValueError):
            KLocalHamiltonian(2, 2, np.array(x), np.array(z), np.ones(1))
        with pytest.raises(ValueError, match="at or above"):
            CommutatorTable(2, (np.array(x), np.array(z)), encode(["XX"]))


@pytest.mark.parametrize("K", [2, 3])
def test_orthonormality_exhaustive(K):
    # delta_pq under the normalized trace, for all nontrivial strings
    assert len(pauli_masks(K, K)[0]) == len(words(K, K)) == 4**K - 1
    mats = [pauli_matrix(p) for p in words(K, K)]
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            expected = 1.0 if i == j else 0.0
            assert abs(normalized_trace_product(a, b) - expected) < 1e-12


def count(K, k, exactly_local=False):
    x, z = pauli_masks(K, k, exactly_local)
    assert len(x) == len(z)
    return len(x)


def test_enumeration_counts():
    assert count(4, 2, exactly_local=True) == 9 * math.comb(4, 2) == 54
    assert count(2, 2) == 15
    assert count(5, 1, exactly_local=True) == 15
    # parameter_count(K, w) strings of each weight w
    for K in range(1, 8):
        for k in range(1, K + 1):
            assert count(K, k, exactly_local=True) == parameter_count(K, k)
            assert count(K, k) == sum(parameter_count(K, w) for w in range(1, k + 1))
    assert count(10, 2) == 30 + 405


@pytest.mark.parametrize("exactly_local", [False, True])
def test_pauli_masks_are_the_encoded_letter_enumeration(exactly_local):
    for K in range(1, 8):
        for k in range(1, K + 1):
            x, z = pauli_masks(K, k, exactly_local)
            ex, ez = encode(words(K, k, exactly_local))
            assert x.dtype == z.dtype == np.int64
            assert x.tolist() == ex.tolist() and z.tolist() == ez.tolist(), (K, k)


def test_enumeration_is_cached_and_read_only():
    x, z = pauli_masks(3, 2)
    assert len(x) == 36
    again = pauli_masks(3, 2, exactly_local=False)
    assert again[0] is x and again[1] is z  # the same cached arrays
    for m in (x, z):
        with pytest.raises(ValueError):
            m[0] = 0
    for K, k in [(11, 2), (3, 0), (3, 4)]:
        with pytest.raises(ValueError):
            pauli_masks(K, k)


def test_enumeration_distinct():
    x, z = pauli_masks(4, 3)
    assert len(set(zip(x.tolist(), z.tolist()))) == len(x)
    assert all(1 <= w <= 3 for w in np.bitwise_count(x | z).tolist())


def test_sample_klocal_basic():
    h = sample_klocal(4, 2, True, 4.0, seed=0)
    assert len(h.x) == len(h.z) == len(h.couplings) == 54
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
    draws = np.array([_sum_of_squares(sample_klocal(4, 2, True, 4.0, seed=123, draw=i).couplings) for i in range(10_000)])
    stderr = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - 4.0) < 3 * stderr


def test_sample_klocal_independent_draws():
    a = sample_klocal(4, 2, True, 4.0, seed=9, draw=0)
    b = sample_klocal(4, 2, True, 4.0, seed=9, draw=1)
    assert not np.allclose(a.couplings, b.couplings)
    again = sample_klocal(4, 2, True, 4.0, seed=9, draw=0)
    assert np.array_equal(a.couplings, again.couplings)


def test_dense_matches_kron_oracle():
    # brute-force Kronecker assembly as the independent oracle
    h = sample_klocal(3, 2, False, 3.0, seed=7)
    assert np.max(np.abs(h.dense() - kron_sum(h))) == 0.0


def test_klocal_validation():
    with pytest.raises(ValueError):
        hamiltonian(2, 1, {"XX": 1.0})
    with pytest.raises(ValueError):
        hamiltonian(2, 2, {"II": 1.0})
    with pytest.raises(ValueError):
        hamiltonian(2, 2, {"XXX": 1.0})
    with pytest.raises(ValueError):
        hamiltonian(11, 2, {"X" + "I" * 10: 1.0})
    with pytest.raises(ValueError):
        hamiltonian(2, 3, {"XX": 1.0})
    x, z = encode(["XI", "IZ"])
    for args in [(x, z[:1], np.ones(2)), (x[:1], z, np.ones(2)), (x, z, np.ones(3))]:
        with pytest.raises(ValueError, match="differ in number"):
            KLocalHamiltonian(2, 2, *args)


def test_trace_product_values():
    eye = np.eye(8, dtype=complex)
    assert normalized_trace_product(eye, eye) == pytest.approx(1.0)
    for p in words(2, 2):
        m = pauli_matrix(p)
        assert normalized_trace_product(m, m) == pytest.approx(1.0, abs=1e-14)
    h = sample_klocal(3, 2, False, 3.0, seed=3)
    hd = h.dense()
    assert abs(normalized_trace_product(hd, hd) - _sum_of_squares(h.couplings)) < 1e-12


def test_trace_product_shape_mismatch():
    with pytest.raises(ValueError):
        normalized_trace_product(np.eye(2), np.eye(4))


def test_evolve_identity_at_zero():
    h = sample_klocal(2, 2, False, 2.0, seed=1)
    assert np.allclose(evolve(h.dense(), 0.0), np.eye(4), atol=1e-14)


def test_evolve_diagonal_phases():
    energies = np.array([0.3, -1.2, 2.0, 0.0])
    U = evolve(np.diag(energies).astype(complex), 1.7)
    assert np.allclose(np.diag(U), np.exp(-1j * energies * 1.7), atol=1e-12)
    assert np.allclose(U, np.diag(np.diag(U)), atol=1e-12)


def test_evolve_composition_and_unitarity():
    h = sample_klocal(3, 2, True, 3.0, seed=5).dense()
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
    for p in words(2, 2):
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
    mx, mz = pauli_masks(10, 2)
    J = x[: len(mx)]
    H = KLocalHamiltonian(10, 2, mx[: len(J)], mz[: len(J)], J)
    assert _sum_of_squares(H.couplings) == loop_sum_of_squares(J)


def test_sum_of_squares_neither_compensates_nor_pairs():
    # each 1e-16 is lost against 1 when added in order; a compensated or a
    # pairwise sum keeps some of the hundred
    x = np.array([1.0] + [1e-8] * 100)
    assert _sum_of_squares(x) == loop_sum_of_squares(x) == 1.0
    assert math.fsum((x * x).tolist()) > 1.0 and np.sum(x * x) > 1.0
    assert _sum_of_squares(np.array([])) == _sum_of_squares(hamiltonian(2, 2, {}).couplings) == 0.0
