"""Pauli strings and dense complex linear algebra for K-qubit systems.

Pauli strings, k-local Hamiltonians with Gaussian ensembles, normalized
traces and Hamiltonian time evolution.  A list of Pauli strings is a pair
of int64 arrays, the X and Z masks (a Y sets both bits), and products
and commutators of Pauli sums are computed on these masks without any
matrix; matrices, where needed, are dense numpy arrays.  The qubit count
is capped at MAX_QUBITS = 10 (dimension 1024), which is plenty for
desk-scale experiments.

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
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 10

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10


def pauli_masks(K: int, k: int, exactly_local: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """X and Z masks of all nontrivial Pauli strings on K qubits with weight <= k.

    With ``exactly_local`` only weight-k strings are produced.  The
    all-identity string is never included.  Order is deterministic:
    increasing weight, then positions, then letters X < Y < Z.  The two
    int64 arrays are cached and read-only.
    """
    if not 1 <= k <= K:
        raise ValueError(f"need 1 <= k <= K, got k={k}, K={K}")
    if K > MAX_QUBITS:
        raise ValueError(f"K={K} exceeds the cap of {MAX_QUBITS} qubits")
    return _masks(K, k, bool(exactly_local))


@functools.cache
def _masks(K: int, k: int, exactly_local: bool) -> tuple[np.ndarray, np.ndarray]:
    weights = [k] if exactly_local else range(1, k + 1)
    x, z = [], []
    for w in weights:
        for pos in itertools.combinations(range(K), w):
            for letters in itertools.product("XYZ", repeat=w):
                x.append(sum(1 << (K - 1 - q) for q, ch in zip(pos, letters) if ch != "Z"))
                z.append(sum(1 << (K - 1 - q) for q, ch in zip(pos, letters) if ch != "X"))
    masks = np.array(x, dtype=np.int64), np.array(z, dtype=np.int64)
    for m in masks:
        m.setflags(write=False)
    return masks


@dataclass(frozen=True, eq=False)
class KLocalHamiltonian:
    """H = sum_I J_I sigma_I with every term of weight between 1 and k.

    Term I has X mask ``x[I]``, Z mask ``z[I]`` (int64 arrays) and
    coupling ``couplings[I]`` (a float array).
    """

    K: int
    k: int
    x: np.ndarray
    z: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        if not 1 <= self.k <= self.K:
            raise ValueError(f"need 1 <= k <= K, got k={self.k}, K={self.K}")
        if self.K > MAX_QUBITS:
            raise ValueError(f"K={self.K} exceeds the cap of {MAX_QUBITS} qubits")
        if not len(self.x) == len(self.z) == len(self.couplings):
            raise ValueError("the X masks, Z masks and couplings differ in number")
        support = self.x | self.z
        if (support >> self.K).any():
            raise ValueError(f"a term does not act on {self.K} qubits")
        weight = np.bitwise_count(support)
        if not ((1 <= weight) & (weight <= self.k)).all():
            raise ValueError(f"term weights {sorted(set(weight.tolist()))} leave 1..{self.k}")

    @property
    def dim(self) -> int:
        return 1 << self.K

    def dense(self) -> np.ndarray:
        """Assemble the dense matrix.

        Each Pauli string is a signed permutation: its X mask flips bits
        of the column index, its Z mask contributes (-1)^bit, and each Y
        carries a global factor i.  Assembly is O(dim) per term.
        """
        dim = self.dim
        cols = np.arange(dim)
        H = np.zeros((dim, dim), dtype=complex)
        for x, z, J in zip(self.x.tolist(), self.z.tolist(), self.couplings.tolist()):
            phase = (1j) ** (x & z).bit_count() * (-1.0) ** np.bitwise_count(cols & z)
            H[cols ^ x, cols] += J * phase
        return H


def _sum_of_squares(x: np.ndarray) -> float:
    """sum x_i^2 added left to right in index order, the same bits on every
    Python (the builtin sum compensates from 3.12 on, np.sum adds pairwise)."""
    return float(np.add.accumulate(x * x)[-1]) if len(x) else 0.0


class CommutatorTable:
    """The anticommuting term pairs of two Pauli sums, for their commutator.

    For H = sum_a h_a sigma_a over the K-qubit masks ``left`` = (xa, za)
    and D = sum_b d_b sigma_b over ``right`` = (xb, zb), a pair contributes
    to [H, D] only if its strings anticommute, i.e. |x_a & z_b| + |z_a & x_b|
    is odd, and then as 2 h_a d_b sigma_a sigma_b = 2 h_a d_b i^e sigma_c
    with c = a xor b and e = y_a + y_b - y_c + 2 |z_a & x_b| (mod 4), y = |x & z|
    counting Ys.  The product of two anticommuting Hermitian strings is
    anti-Hermitian, so e is 1 or 3 and i^e = i s with the sign s = +1 or -1.

    The table depends only on the two term lists, so one table serves
    every pair of coupling vectors over them.  The pairs are stored in
    left-term order: ``_repeats`` counts the pairs of each left term,
    ``_signed_right`` indexes each pair's s d_b in the signed couplings
    [d, -d], and ``product`` numbers the distinct product strings c.
    """

    def __init__(self, K: int, left: tuple[np.ndarray, np.ndarray], right: tuple[np.ndarray, np.ndarray]):
        (xa, za), (xb, zb) = left, right
        if len(xa) != len(za) or len(xb) != len(zb):
            raise ValueError("the X and Z masks of a term list differ in length")
        if any((m >> K).any() for m in (xa, za, xb, zb)):  # the product keys below would collide
            raise ValueError(f"a mask has a bit at or above K = {K}")
        self.shape = (len(xa), len(xb))
        ya, yb = (np.bitwise_count(x & z).astype(np.int64) for x, z in ((xa, za), (xb, zb)))
        twist = np.bitwise_count(za[:, None] & xb).astype(np.int64)
        odd = (np.bitwise_count(xa[:, None] & zb) + twist) & 1
        a, b = np.nonzero(odd)  # row-major, so in left-term order
        xc, zc = xa[a] ^ xb[b], za[a] ^ zb[b]
        e = (ya[a] + yb[b] - np.bitwise_count(xc & zc) + 2 * twist[a, b]) % 4
        self._repeats = np.bincount(a, minlength=len(xa))
        self._signed_right = np.where(e == 1, b, b + len(xb))
        keys, self.product = np.unique((xc << K) | zc, return_inverse=True)
        self.num_products = len(keys)

    def __len__(self) -> int:
        """Number of anticommuting pairs."""
        return len(self.product)

    def commutator_norm_sq(self, h: np.ndarray, d: np.ndarray) -> float:
        """Normalized Tr([H, D]^dag [H, D]) for couplings ``h`` and ``d``.

        With [H, D] = sum_c 2i S_c sigma_c, where S_c sums h_a (s d_b) over
        the pairs whose product is c, the trace is sum_c 4 S_c^2.  Each
        pair's term is one repeat of h and one gather from [d, -d]; since
        (s h) d = h (s d) exactly, this is s h_a d_b bit for bit.
        """
        h = np.asarray(h, dtype=float)
        d = np.asarray(d, dtype=float)
        if (h.shape, d.shape) != ((self.shape[0],), (self.shape[1],)):
            raise ValueError(f"coupling shapes {h.shape}, {d.shape} do not match the table {self.shape}")
        terms = np.repeat(h, self._repeats) * np.concatenate((d, -d))[self._signed_right]
        S = np.bincount(self.product, weights=terms, minlength=self.num_products)
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
    x, z = pauli_masks(K, k, exactly_local)
    J = gaussian_couplings(len(x), target_energy_variance, seed, draw)
    return KLocalHamiltonian(K, k, x, z, J)


def normalized_trace_product(A: np.ndarray, B: np.ndarray) -> complex:
    """Tr(A B) / dim; orthonormal on Pauli strings."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    return complex(np.einsum("ij,ji->", A, B) / A.shape[0])


def require_hermitian(H: np.ndarray) -> np.ndarray:
    H = np.asarray(H, dtype=complex)
    if np.max(np.abs(H - H.conj().T)) > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return H


def is_unitary(U: np.ndarray) -> bool:
    U = np.asarray(U)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        return False
    return bool(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))) <= UNITARITY_TOL)


def evolve(H: np.ndarray, t: float) -> np.ndarray:
    """exp(-iHt) through the eigendecomposition of a dense Hermitian matrix H."""
    w, v = np.linalg.eigh(require_hermitian(H))
    return (v * np.exp(-1j * w * t)) @ v.conj().T
