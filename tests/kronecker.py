"""Kronecker-product reference for Pauli strings and sums.

It reads only the letters of a string, never its symplectic masks, so it
shares no code with ``KLocalHamiltonian.dense`` or ``CommutatorTable``.
"""

import numpy as np

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(p) -> np.ndarray:
    """Dense matrix of a Pauli string (a PauliString or its letters)."""
    m = np.array([[1.0 + 0j]])
    for ch in str(p):
        m = np.kron(m, PAULI_1Q[ch])
    return m


def kron_sum(ham) -> np.ndarray:
    """sum_I J_I sigma_I of a KLocalHamiltonian, one Kronecker product a term."""
    return sum(j * pauli_matrix(p) for p, j in ham.terms.items())
