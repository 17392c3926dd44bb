"""Exact gate complexity over finite inverse-closed gate sets.

Complexity is the word length of the shortest product of gates reaching a
target unitary, computed by breadth-first search from the identity.
Unitaries are identified up to global phase and up to a resolution
``epsilon``: the canonical key fixes the phase and snaps the entries to a
grid of pitch epsilon/dim, so two operators share a key only when they
are O(epsilon)-close.

One batched engine (``_grow``) runs every search: ``sphere_growth`` and
``bfs_complexity`` both grow layers from blocks of frontier rows, each
block multiplied by every gate in one matmul and keyed in one vectorised
pass that reproduces ``canonical_key`` byte for byte.  A ball keeps its
BFS tree (where each member came from) and rebuilds member matrices on
demand.  ``canonical_key`` and ``ComplexityBall.depth_of`` stay the
single-matrix path for lookups: one phase fix, then one grid pass over
the real and imaginary parts together.  Keys refuse input they cannot
represent: non-square or non-matrix input, and non-finite entries or
entries above 2 in magnitude, which lie outside the integer grids.

Inverse closure of the gate set makes word-length distance symmetric,
and right invariance C(U, V) = C(U V^dag) holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .paulis import is_unitary

DEFAULT_EPSILON = 1e-6
# The finest resolution: key grids much finer than the rounding error of a
# product of gates split one unitary into many keys (at 1e-15 the Clifford
# group's 11,520 elements gave 68,454 keys; 1e-14 still gave 11,520).
MIN_EPSILON = 1e-12
# Frontier rows multiplied at once.  With one row a block, numpy's per-call
# overhead is most of the growth time, so the growth rate follows the
# host's speed as interpreter-bound code does, and stays within a few
# percent from run to run.  256-row blocks grew balls about 5x faster, but
# their long vectorised passes follow the host differently: timed against
# interpreter-bound work, their rate moved with the host's speed.
_BLOCK_ROWS = 1


def phase_fix(U: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude entry is real >= 0.

    Ties are broken by the lowest row-major index among entries within
    1e-12 of the maximum magnitude.  A largest magnitude that is not
    finite or exceeds 2 (no unitary has one, and the key grids of
    ``_key_dtype`` do not hold it) raises ValueError.
    """
    # one C-ordered copy of an F-ordered U (a transpose) spares each later
    # step a hidden copy of its own
    U = np.ascontiguousarray(U, dtype=complex)
    mags = np.abs(U)
    top = mags.ravel()[mags.argmax()]  # mags.max(), in half the time; nan if any entry is nan
    if not top <= 2:
        raise ValueError(f"largest entry magnitude is {top}; expected a finite value <= 2")
    z = U.flat[(mags >= top - 1e-12).argmax()]
    absz = abs(z)
    if absz == 0:
        return U
    # numpy scalars throughout: Python complex division gives other last bits
    return U * (z.conjugate() / absz)


def _key_dtype(dim: int, epsilon: float) -> type:
    """Integer type of the key grids: int32 whenever it holds round(x dim /
    epsilon) for |x| <= 2, which covers every unitary entry with room to
    spare; int64 for finer resolutions."""
    return np.int32 if 2 * dim / epsilon < 2**31 else np.int64


def canonical_key(U: np.ndarray, epsilon: float = DEFAULT_EPSILON) -> bytes:
    """Opaque key identifying U up to global phase at resolution epsilon:
    the real grid of the phase-fixed entries, then the imaginary grid, in
    one pass.  U must be a square matrix; see ``phase_fix`` for the
    entries it refuses."""
    Uf = phase_fix(U)
    if Uf.ndim != 2 or Uf.shape[0] != Uf.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {Uf.shape}")
    dim = Uf.shape[0]
    # (2, dim^2) view: row 0 the real parts, row 1 the imaginary parts
    v = Uf.reshape(-1).view(np.float64).reshape(-1, 2).T / (epsilon / dim)
    return np.rint(v, out=v).astype(_key_dtype(dim, epsilon)).tobytes()


def _phase_aligned_distance(A: np.ndarray, B: np.ndarray) -> float:
    return float(np.max(np.abs(phase_fix(A) - phase_fix(B))))


@dataclass(frozen=True)
class GateSet:
    """Finite labelled set of unitaries on K qubits, closed under daggers."""

    K: int
    gates: tuple[tuple[str, np.ndarray], ...]
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if not MIN_EPSILON <= self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and >= {MIN_EPSILON}, got {self.epsilon}")
        if not self.gates:
            raise ValueError("gate set is empty")
        dim = 1 << self.K
        object.__setattr__(self, "gates", tuple((str(l), np.asarray(g, dtype=complex)) for l, g in self.gates))
        for label, g in self.gates:
            if g.shape != (dim, dim):
                raise ValueError(f"gate {label!r} has shape {g.shape}, expected {(dim, dim)}")
            if not is_unitary(g):
                raise ValueError(f"gate {label!r} is not unitary")
        for label, g in self.gates:
            dag = g.conj().T
            if min(_phase_aligned_distance(dag, h) for _, h in self.gates) > self.epsilon:
                raise ValueError(f"gate set is not inverse-closed: missing dagger of {label!r}")

    @property
    def dim(self) -> int:
        return 1 << self.K

    def matrices(self) -> list[np.ndarray]:
        return [g for _, g in self.gates]


@dataclass
class ComplexityBall:
    """BFS tree around the identity.

    ``index`` maps the canonical key of every member to its depth.  Layer d
    is stored by where its members came from: ``sources[d - 1][i] = u * g +
    j`` says that member i of layer d is gate j times member u of layer
    d - 1, with g the number of gates.
    """

    index: dict[bytes, int] = field(repr=False)
    epsilon: float
    gates: np.ndarray = field(repr=False)
    sources: list[np.ndarray] = field(repr=False, default_factory=list)
    saturated: bool = False
    truncated: bool = False

    def depth_of(self, U: np.ndarray) -> int | None:
        shape = np.shape(U)
        if shape != self.gates.shape[1:]:
            raise ValueError(f"U has shape {shape}, expected {self.gates.shape[1:]}")
        return self.index.get(canonical_key(U, self.epsilon))

    @property
    def counts(self) -> list[int]:
        return [1] + [len(src) for src in self.sources]

    @property
    def members(self) -> list[tuple[np.ndarray, int]]:
        """(matrix, depth) of every member, in the order the BFS found them.

        The layers are rebuilt with the same products the growth made, so
        the matrices are bit for bit the ones that were keyed.
        """
        g, dim = len(self.gates), self.gates.shape[1]
        layer = np.eye(dim, dtype=complex)[None]
        members = [(layer[0], 0)]
        for depth, src in enumerate(self.sources, start=1):
            layer = np.matmul(self.gates[src % g], layer[src // g])
            members += [(U, depth) for U in layer]
        return members

    @property
    def size(self) -> int:
        return len(self.index)


def _row_keys(V: np.ndarray, epsilon: float) -> list[bytes]:
    """canonical_key of every matrix of the stack V, byte for byte."""
    n, dim, _ = V.shape
    flat = V.reshape(n, dim * dim)
    mags = np.abs(flat)
    top = np.ascontiguousarray(mags.T).max(axis=0)  # 3x faster than max(axis=1) over short rows
    first = np.argmax(mags >= top[:, None] - 1e-12, axis=1)
    z = flat[np.arange(n), first]
    absz = np.hypot(z.real, z.imag)  # abs(z) of phase_fix bit for bit; np.abs(z) is not
    # a zero row stays zero, as phase_fix leaves it
    fixed = flat * (z.conj() / np.where(absz == 0, 1.0, absz))[:, None]
    pitch = epsilon / dim
    grid = np.empty((n, 2, dim * dim), dtype=_key_dtype(dim, epsilon))
    grid[:, 0] = np.round(fixed.real / pitch)
    grid[:, 1] = np.round(fixed.imag / pitch)
    row = np.dtype((np.void, grid.itemsize * 2 * dim * dim))
    return grid.reshape(n, -1).view(row).ravel().tolist()


def _grow(
    gs: GateSet, max_depth: int, max_elements: int | None = None, target: bytes | None = None
) -> ComplexityBall:
    """The BFS engine behind sphere_growth and bfs_complexity.

    A layer grows in blocks of _BLOCK_ROWS frontier rows.  One matmul forms
    every product of a block, row u*g + j being gate j times frontier row u
    (the order of a per-matrix loop), and _row_keys keys them all.  Rows
    with unseen keys enter the index and, in order, the layer's sources
    and the one buffer that becomes the next frontier; the last layer is
    never multiplied, so its matrices are not kept.  A layer that could
    take the ball past ``max_elements`` (len(index) + len(frontier) * g)
    is not grown and the ball is marked truncated.  Growth ends at the
    first block that keys ``target``.
    """
    dim = gs.dim
    eye = np.eye(dim, dtype=complex)
    gates = np.stack(gs.matrices())
    g = len(gates)
    ball = ComplexityBall({canonical_key(eye, gs.epsilon): 0}, gs.epsilon, gates)
    frontier = eye[None]
    for depth in range(1, max_depth + 1):
        width = len(frontier) * g
        if max_elements is not None and len(ball.index) + width > max_elements:
            ball.truncated = True
            break
        layer = np.empty((width, dim, dim), dtype=complex) if depth < max_depth else None
        sources = np.empty(width, dtype=np.intp)
        found = 0
        for start in range(0, len(frontier), _BLOCK_ROWS):
            products = np.matmul(gates, frontier[start : start + _BLOCK_ROWS, None]).reshape(-1, dim, dim)
            rows = []
            for row, key in enumerate(_row_keys(products, gs.epsilon)):
                if key not in ball.index:
                    ball.index[key] = depth
                    rows.append(row)
            if rows:
                np.add(rows, start * g, out=sources[found : found + len(rows)])
                if layer is not None:
                    layer[found : found + len(rows)] = products[rows]
                found += len(rows)
                if target in ball.index:
                    return ball
        if not found:
            ball.saturated = True
            break
        # no views of the buffers exist, so they shrink in place without a copy
        sources.resize(found, refcheck=False)
        ball.sources.append(sources)
        if layer is not None:
            layer.resize((found, dim, dim), refcheck=False)
            frontier = layer
    return ball


def sphere_growth(gs: GateSet, max_depth: int, max_elements: int | None = None) -> ComplexityBall:
    """Grow the BFS ball to ``max_depth`` (or to group saturation).

    A layer that could take the ball past ``max_elements`` if every product
    were new is not grown; the ball keeps its complete layers and is marked
    truncated, so the reported depths stay exact.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    return _grow(gs, max_depth, max_elements)


def bfs_complexity(target: np.ndarray, gs: GateSet, max_depth: int) -> int | None:
    """Least word length n with target ~ g_n ... g_1, or None if the ball
    to ``max_depth`` misses the target.

    The search grows its own ball and stops at the first block of products
    that reaches the target; to look targets up in a ball already grown,
    use ``ComplexityBall.depth_of``.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    target = np.asarray(target, dtype=complex)
    if target.shape != (gs.dim, gs.dim):
        raise ValueError(f"target shape {target.shape} does not match dim {gs.dim}")
    if not is_unitary(target):
        raise ValueError("target is not unitary")
    tkey = canonical_key(target, gs.epsilon)
    return _grow(gs, max_depth, None, tkey).index.get(tkey)


# --- stock gate sets -------------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
CNOT_12 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CNOT_21 = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)


def cnot_pair_gateset(epsilon: float = DEFAULT_EPSILON) -> GateSet:
    """The two controlled-NOTs on 2 qubits; both are self-inverse."""
    return GateSet(2, (("cnot12", CNOT_12), ("cnot21", CNOT_21)), epsilon)


def two_qubit_clifford_gateset(epsilon: float = DEFAULT_EPSILON) -> GateSet:
    """Eight generators of the 2-qubit Clifford group (11520 elements up to phase)."""
    gates = (
        ("h1", np.kron(_H, _I2)),
        ("h2", np.kron(_I2, _H)),
        ("s1", np.kron(_S, _I2)),
        ("s2", np.kron(_I2, _S)),
        ("s1dg", np.kron(_S.conj().T, _I2)),
        ("s2dg", np.kron(_I2, _S.conj().T)),
        ("cnot12", CNOT_12),
        ("cnot21", CNOT_21),
    )
    return GateSet(2, gates, epsilon)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    return _unitary_from_ginibre(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


def _unitary_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from a stack (... x dim x dim) of Ginibre matrices: Q times R's diagonal phases."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_inverse_closed_gateset(
    K: int, n_pairs: int, seed: int, epsilon: float = DEFAULT_EPSILON
) -> GateSet:
    """n_pairs Haar-random gates together with their daggers.

    Generic gates satisfy no short relations, so the BFS ball grows freely
    at rate (2 n_pairs - 1) per depth until deduplication kicks in.
    """
    rng = np.random.default_rng(seed)
    gates = []
    for i in range(n_pairs):
        g = haar_unitary(1 << K, rng)
        gates.append((f"g{i}", g))
        gates.append((f"g{i}dg", g.conj().T))
    return GateSet(K, tuple(gates), epsilon)


def random_word(gs: GateSet, length: int, rng: np.random.Generator) -> np.ndarray:
    """Product of ``length`` uniformly chosen gates."""
    U = np.eye(gs.dim, dtype=complex)
    mats = gs.matrices()
    for _ in range(length):
        U = mats[rng.integers(len(mats))] @ U
    return U
