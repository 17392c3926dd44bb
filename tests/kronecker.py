"""Kronecker-product reference for Pauli strings and sums, and the letters
the tests write Pauli strings in.

``pauli_matrix`` reads only the letters of a string.  The package holds a
string as its X and Z masks; ``encode`` and ``letters`` translate between
the two forms here, bit by bit, so the oracle shares no code with
``KLocalHamiltonian.dense`` or ``CommutatorTable``.
"""

import numpy as np

from complexitylab.paulis import KLocalHamiltonian

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(letters: str) -> np.ndarray:
    """Dense matrix of a Pauli string given by its letters."""
    m = np.array([[1.0 + 0j]])
    for ch in letters:
        m = np.kron(m, PAULI_1Q[ch])
    return m


def encode(words) -> tuple[np.ndarray, np.ndarray]:
    """X and Z masks of equal-length letter strings: an X or a Y sets the
    X bit of its qubit, a Y or a Z the Z bit, qubit 0 (the leftmost
    letter) being the most significant bit."""
    x, z = [], []
    for word in words:
        if not word or set(word) - set("IXYZ"):
            raise ValueError(f"not a Pauli string: {word!r}")
        x.append(int("".join("1" if ch in "XY" else "0" for ch in word), 2))
        z.append(int("".join("1" if ch in "YZ" else "0" for ch in word), 2))
    return np.array(x, dtype=np.int64), np.array(z, dtype=np.int64)


def letters(K: int, x: int, z: int) -> str:
    """The K letters of the string with masks x and z."""
    return "".join("IZXY"[2 * (x >> (K - 1 - q) & 1) + (z >> (K - 1 - q) & 1)] for q in range(K))


def hamiltonian(K: int, k: int, couplings: dict[str, float]) -> KLocalHamiltonian:
    """The KLocalHamiltonian of ``{letters: coupling}``."""
    return KLocalHamiltonian(K, k, *encode(couplings), np.array(list(couplings.values()), dtype=float))


def terms(ham: KLocalHamiltonian) -> dict[str, float]:
    """``{letters: coupling}`` of a KLocalHamiltonian."""
    return {letters(ham.K, x, z): j for x, z, j in zip(ham.x.tolist(), ham.z.tolist(), ham.couplings.tolist())}


def kron_sum(ham: KLocalHamiltonian) -> np.ndarray:
    """sum_I J_I sigma_I of a KLocalHamiltonian, one Kronecker product a term."""
    return sum(j * pauli_matrix(p) for p, j in terms(ham).items())
