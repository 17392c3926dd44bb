"""Pauli strings and dense complex linear algebra for K-qubit systems.

Pauli strings, k-local Hamiltonians with Gaussian ensembles, normalized
traces and Hamiltonian time evolution.  Each Pauli string carries its
symplectic form: an X mask, a Z mask and the Y count (a Y sets both
bits).  Products and commutators of Pauli sums are computed on these
masks without any matrix; matrices, where needed, are dense numpy
arrays.  The qubit count is capped at MAX_QUBITS = 10 (dimension 1024),
which is plenty for desk-scale experiments.

Conventions:
  * qubit 0 is the leftmost letter of a string and the most significant
    bit of a basis-state index and of the X and Z masks,
  * the module-wide trace is the normalized trace Tr(1) = 1, under which
    distinct nontrivial Pauli strings are orthonormal.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

MAX_QUBITS = 10

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10


@dataclass(frozen=True, order=True)
class PauliString:
    """A word over {I, X, Y, Z}, one letter per qubit.

    ``x`` has a bit set for every X or Y letter and ``z`` for every Y or Z
    letter, qubit 0 as the most significant bit.
    """

    letters: str
    x: int = field(init=False, repr=False, compare=False)
    z: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.letters:
            raise ValueError("empty Pauli string")
        bad = set(self.letters) - set("IXYZ")
        if bad:
            raise ValueError(f"invalid Pauli letters {sorted(bad)!r}")
        if len(self.letters) > MAX_QUBITS:
            raise ValueError(f"more than {MAX_QUBITS} qubits")
        x = z = 0
        for ch in self.letters:
            x = (x << 1) | (ch in "XY")
            z = (z << 1) | (ch in "YZ")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    @property
    def num_qubits(self) -> int:
        return len(self.letters)

    @property
    def weight(self) -> int:
        """Number of non-identity single-qubit factors."""
        return (self.x | self.z).bit_count()

    @property
    def num_y(self) -> int:
        """Number of Y factors."""
        return (self.x & self.z).bit_count()

    def __str__(self) -> str:
        return self.letters


def _as_string(p) -> PauliString:
    return p if isinstance(p, PauliString) else PauliString(str(p))


def pauli_matrix(p) -> np.ndarray:
    """Dense matrix of a Pauli string (Kronecker product of 2x2 factors)."""
    p = _as_string(p)
    m = np.array([[1.0 + 0j]])
    for ch in p.letters:
        m = np.kron(m, PAULI_1Q[ch])
    return m


def enumerate_strings(K: int, k: int, exactly_local: bool = False) -> list[PauliString]:
    """All nontrivial Pauli strings on K qubits with weight <= k.

    With ``exactly_local`` only weight-k strings are produced.  The
    all-identity string is never included.  Order is deterministic:
    increasing weight, then positions, then letters.
    """
    if not 1 <= k <= K:
        raise ValueError(f"need 1 <= k <= K, got k={k}, K={K}")
    if K > MAX_QUBITS:
        raise ValueError(f"K={K} exceeds the cap of {MAX_QUBITS} qubits")
    return list(_strings(K, k, bool(exactly_local)))


@functools.cache
def _strings(K: int, k: int, exactly_local: bool) -> tuple[PauliString, ...]:
    weights = [k] if exactly_local else range(1, k + 1)
    out = []
    for w in weights:
        for pos in itertools.combinations(range(K), w):
            for letters in itertools.product("XYZ", repeat=w):
                word = ["I"] * K
                for q, ch in zip(pos, letters):
                    word[q] = ch
                out.append(PauliString("".join(word)))
    return tuple(out)


def single_qubit_strings(K: int) -> list[PauliString]:
    """The 3K weight-one generator strings."""
    return enumerate_strings(K, 1, exactly_local=True)


def num_admissible_strings(K: int, k: int, exactly_local: bool = False) -> int:
    """Count of strings enumerate_strings would produce, 3^w * C(K, w) per weight."""
    if not 1 <= k <= K:
        raise ValueError(f"need 1 <= k <= K, got k={k}, K={K}")
    weights = [k] if exactly_local else range(1, k + 1)
    return sum(3**w * math.comb(K, w) for w in weights)


@dataclass(frozen=True)
class KLocalHamiltonian:
    """H = sum_I J_I sigma_I with every term of weight between 1 and k.

    ``ensemble_variance`` is the per-coupling Gaussian variance used to
    draw the couplings (metadata; the couplings themselves live in
    ``terms``).
    """

    K: int
    k: int
    terms: dict[PauliString, float]
    ensemble_variance: float = field(default=float("nan"))

    def __post_init__(self):
        if not 1 <= self.k <= self.K:
            raise ValueError(f"need 1 <= k <= K, got k={self.k}, K={self.K}")
        if self.K > MAX_QUBITS:
            raise ValueError(f"K={self.K} exceeds the cap of {MAX_QUBITS} qubits")
        for p in self.terms:
            if p.num_qubits != self.K:
                raise ValueError(f"term {p} does not act on {self.K} qubits")
            if not 1 <= p.weight <= self.k:
                raise ValueError(f"term {p} has weight {p.weight}, allowed 1..{self.k}")

    @property
    def dim(self) -> int:
        return 1 << self.K

    def couplings(self) -> np.ndarray:
        """Coupling vector in the deterministic order of the stored terms."""
        return np.array([float(j) for j in self.terms.values()])

    def coupling_norm_sq(self) -> float:
        """sum_I J_I^2, which equals the normalized trace of H^2."""
        return float(sum(j * j for j in self.terms.values()))

    def dense(self) -> np.ndarray:
        """Assemble the dense matrix.

        Each Pauli string is a signed permutation: its X mask flips bits
        of the column index, its Z mask contributes (-1)^bit, and each Y
        carries a global factor i.  Assembly is O(dim) per term.
        """
        dim = self.dim
        cols = np.arange(dim)
        H = np.zeros((dim, dim), dtype=complex)
        for p, J in self.terms.items():
            phase = (1j) ** p.num_y * (-1.0) ** np.bitwise_count(cols & p.z)
            H[cols ^ p.x, cols] += J * phase
        return H


def _symplectic(strings: Sequence[PauliString]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X masks, Z masks and Y counts of ``strings`` as int64 arrays."""
    x = np.array([p.x for p in strings], dtype=np.int64)
    z = np.array([p.z for p in strings], dtype=np.int64)
    return x, z, np.bitwise_count(x & z).astype(np.int64)


class CommutatorTable:
    """The anticommuting term pairs of two Pauli sums, for their commutator.

    For H = sum_a h_a sigma_a over ``left`` and D = sum_b d_b sigma_b over
    ``right``, a pair contributes to [H, D] only if its strings
    anticommute, i.e. |x_a & z_b| + |z_a & x_b| is odd, and then as
    2 h_a d_b sigma_a sigma_b = 2 h_a d_b i^e sigma_c with c = a xor b and
    e = y_a + y_b - y_c + 2 |z_a & x_b| (mod 4).  The product of two
    anticommuting Hermitian strings is anti-Hermitian, so e is 1 or 3 and
    i^e = i s with the sign s = +1 or -1.

    The table depends only on the two term lists, so one table serves
    every pair of coupling vectors over them.  ``left``/``right`` index
    the pairs' terms, ``sign`` holds s and ``product`` numbers the
    distinct product strings c.
    """

    def __init__(self, left: Sequence[PauliString], right: Sequence[PauliString]):
        widths = {p.num_qubits for p in (*left, *right)}
        if len(widths) != 1:
            raise ValueError(f"terms must all act on one qubit count, got {sorted(widths)}")
        (K,) = widths
        self.shape = (len(left), len(right))
        xa, za, ya = _symplectic(left)
        xb, zb, yb = _symplectic(right)
        twist = np.bitwise_count(za[:, None] & xb).astype(np.int64)
        odd = (np.bitwise_count(xa[:, None] & zb) + twist) & 1
        a, b = self.left, self.right = np.nonzero(odd)
        xc, zc = xa[a] ^ xb[b], za[a] ^ zb[b]
        e = (ya[a] + yb[b] - np.bitwise_count(xc & zc) + 2 * twist[a, b]) % 4
        self.sign = np.where(e == 1, 1.0, -1.0)
        keys, self.product = np.unique((xc << K) | zc, return_inverse=True)
        self.num_products = len(keys)

    def __len__(self) -> int:
        """Number of anticommuting pairs."""
        return len(self.left)

    def commutator_norm_sq(self, h: np.ndarray, d: np.ndarray) -> float:
        """Normalized Tr([H, D]^dag [H, D]) for couplings ``h`` and ``d``.

        With [H, D] = sum_c 2i S_c sigma_c, where S_c sums s h_a d_b over
        the pairs whose product is c, the trace is sum_c 4 S_c^2.
        """
        h = np.asarray(h, dtype=float)
        d = np.asarray(d, dtype=float)
        if (h.shape, d.shape) != ((self.shape[0],), (self.shape[1],)):
            raise ValueError(f"coupling shapes {h.shape}, {d.shape} do not match the table {self.shape}")
        S = np.bincount(self.product, weights=self.sign * h[self.left] * d[self.right], minlength=self.num_products)
        return 4.0 * float(np.sum(S * S))


def gaussian_couplings(n: int, variance: float, seed: int, draw: int = 0) -> np.ndarray:
    """n independent N(0, variance / n) couplings, whose squares sum to
    ``variance`` in the mean.  ``(seed, draw)`` selects an independent RNG
    stream per draw, so ensembles can be sampled in any order or in parallel."""
    if variance <= 0:
        raise ValueError("variance must be positive")
    return np.random.default_rng([seed, draw]).normal(0.0, math.sqrt(variance / n), size=n)


def sample_klocal(
    K: int, k: int, exactly_local: bool, target_energy_variance: float, seed: int, draw: int = 0
) -> KLocalHamiltonian:
    """A Gaussian k-local Hamiltonian: every admissible string gets a coupling
    from ``gaussian_couplings``, so the mean of sum_I J_I^2 is ``target_energy_variance``."""
    strings = enumerate_strings(K, k, exactly_local)
    J = gaussian_couplings(len(strings), target_energy_variance, seed, draw)
    return KLocalHamiltonian(K, k, dict(zip(strings, J.tolist())), target_energy_variance / len(strings))


def normalized_trace(A: np.ndarray) -> complex:
    """Tr(A) / dim, so the identity has trace 1."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return complex(np.trace(A) / A.shape[0])


def normalized_trace_product(A: np.ndarray, B: np.ndarray) -> complex:
    """Tr(A B) / dim; orthonormal on Pauli strings."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    return complex(np.einsum("ij,ji->", A, B) / A.shape[0])


def require_hermitian(H: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    H = np.asarray(H, dtype=complex)
    if np.max(np.abs(H - H.conj().T)) > tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    return H


def is_unitary(U: np.ndarray, tol: float = UNITARITY_TOL) -> bool:
    U = np.asarray(U)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        return False
    return bool(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))) <= tol)


def evolve(H, t: float) -> np.ndarray:
    """exp(-iHt) through the eigendecomposition of Hermitian H.

    ``H`` may be a KLocalHamiltonian or a dense Hermitian matrix.
    """
    Hm = H.dense() if isinstance(H, KLocalHamiltonian) else require_hermitian(H)
    w, v = np.linalg.eigh(Hm)
    return (v * np.exp(-1j * w * t)) @ v.conj().T
