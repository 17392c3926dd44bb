"""Density matrices and thermofield doubles on finite spectra.

A thermal state over a finite spectrum is purified by an entangled mirror
copy; tracing out either side recovers the thermal state exactly.  Time
evolution with the difference of the two one-sided Hamiltonians leaves
the double state invariant (the phases cancel), while the sum does not.

The CPT conjugation of the mirror copy is realized as complex
conjugation in the energy eigenbasis; for the real spectra used here the
conjugated eigenvectors coincide with the originals, which is what every
identity below relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gates import _unitary_from_ginibre

DENSITY_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator.  The
    eigenvalues that validation computes are kept, read-only."""

    entries: np.ndarray
    _eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > DENSITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > DENSITY_TOL:
            raise ValueError(f"density matrix trace is {np.trace(m)}, expected 1")
        lam = np.linalg.eigvalsh(m)
        if lam.min() < -DENSITY_TOL:
            raise ValueError("density matrix has a negative eigenvalue")
        lam.flags.writeable = False
        object.__setattr__(self, "_eigenvalues", lam)

    def eigenvalues(self) -> np.ndarray:
        return self._eigenvalues


def _boltzmann_weights(spectrum: np.ndarray, beta: float) -> np.ndarray:
    """exp(-beta E_i) / Z with a max-shift for stability; beta = inf selects
    a uniform mixture over the ground states."""
    if len(spectrum) == 0:
        raise ValueError("empty spectrum")
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    e0 = spectrum.min()
    if math.isinf(beta):
        w = (spectrum <= e0 + 1e-12 * max(1.0, abs(e0))).astype(float)
    else:
        with np.errstate(over="ignore"):  # beta (E - E0) past the float range: weight exp(-inf) = 0
            w = np.exp(-beta * (spectrum - e0))
    return w / w.sum()


def thermal_state(spectrum, beta: float) -> DensityMatrix:
    """Thermal density matrix diag(e^(-beta E_i)) / Z in the energy basis."""
    spectrum = np.asarray(spectrum, dtype=float)
    return DensityMatrix(np.diag(_boltzmann_weights(spectrum, beta)).astype(complex))


def von_neumann_entropy(rho) -> float:
    """-sum lambda ln lambda over the eigenvalues, with 0 ln 0 = 0."""
    rho = rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)
    lam = np.clip(rho.eigenvalues(), 0.0, None)
    lam = lam[lam > 0]
    return float(0.0 - np.sum(lam * np.log(lam)))  # not -sum: a pure state gives +0.0


@dataclass(frozen=True)
class TFDState:
    """Purification sum_i e^(-beta E_i / 2) / sqrt(Z) |E_i>|E_i> of a thermal state."""

    spectrum: tuple[float, ...]
    amplitudes: np.ndarray

    def vector(self) -> np.ndarray:
        """The full two-sided state vector, nonzero only on |i>|i>."""
        return _diagonal_state(self.amplitudes)


def _diagonal_state(amplitudes: np.ndarray) -> np.ndarray:
    """sum_i a_i |i>|i> as a flat vector of length n^2."""
    psi = np.zeros(len(amplitudes) ** 2, dtype=complex)
    psi[:: len(amplitudes) + 1] = amplitudes
    return psi


def tfd(spectrum, beta: float) -> TFDState:
    spectrum = np.asarray(spectrum, dtype=float)
    return TFDState(tuple(spectrum.tolist()), np.sqrt(_boltzmann_weights(spectrum, beta)))


def _product_dims(size: int, dims: tuple[int, int] | None) -> tuple[int, int]:
    if dims is not None:
        dl, dr = dims
        if dl * dr != size:
            raise ValueError(f"dims {dims} do not factor total dimension {size}")
        return dl, dr
    n = math.isqrt(size)
    if n * n != size:
        raise ValueError(f"cannot infer dims: {size} is not a perfect square; pass dims")
    return n, n


def partial_trace(state, side: str = "right", dims: tuple[int, int] | None = None) -> DensityMatrix:
    """Reduced density matrix of one factor of a pure state on a product space.

    ``state`` is a TFDState or a pure state vector; ``side`` names the
    factor that is KEPT.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if isinstance(state, TFDState):
        state = state.vector()
    psi = np.asarray(state)
    if psi.ndim != 1:
        raise ValueError(f"expected a TFDState or a pure state vector, got an array of shape {psi.shape}")
    dl, dr = _product_dims(psi.size, dims)
    A = psi.astype(complex, copy=False).reshape(dl, dr)
    rho = A @ A.conj().T if side == "left" else A.T @ A.conj()
    return DensityMatrix(rho)


def evolve_tfd(state: TFDState, t_l: float, t_r: float, sign: str = "minus") -> np.ndarray:
    """Apply the two-sided phases e^(-i E_i (t_l -+ t_r)) to the double state.

    ``sign="minus"`` is the difference Hamiltonian (the double state is
    invariant whenever t_l = t_r); ``sign="plus"`` is the sum, which
    genuinely moves the state for nondegenerate spectra.
    """
    if sign not in ("minus", "plus"):
        raise ValueError(f"sign must be 'minus' or 'plus', got {sign!r}")
    energies = np.asarray(state.spectrum)
    phase_arg = t_l - t_r if sign == "minus" else t_l + t_r
    with np.errstate(over="ignore", invalid="ignore"):  # E (t_l -+ t_r) past a float's range: a NaN phase, no warning
        phases = np.exp(-1j * energies * phase_arg)
    return _diagonal_state(state.amplitudes * phases)


def two_sided_correlator(state, O_L: np.ndarray, O_R: np.ndarray, dims=None) -> complex:
    """<state| O_L (x) O_R |state> without building the Kronecker product."""
    psi = state.vector() if isinstance(state, TFDState) else np.asarray(state, dtype=complex)
    dl, dr = _product_dims(psi.size, dims)
    O_L = np.asarray(O_L, dtype=complex)
    O_R = np.asarray(O_R, dtype=complex)
    if O_L.shape != (dl, dl) or O_R.shape != (dr, dr):
        raise ValueError(f"operator shapes {O_L.shape}, {O_R.shape} do not match dims ({dl}, {dr})")
    A = psi.reshape(dl, dr)
    return complex(np.einsum("ij,ik,kl,jl->", A.conj(), O_L, A, O_R))


def overlap(psi: np.ndarray, phi: np.ndarray) -> complex:
    psi = np.asarray(psi).ravel()
    phi = np.asarray(phi).ravel()
    if psi.shape != phi.shape:
        raise ValueError(f"shape mismatch: {psi.shape} vs {phi.shape}")
    return complex(np.vdot(psi, phi))


def fubini_distance(psi: np.ndarray, phi: np.ndarray) -> float:
    """arccos |<psi|phi>|, in [0, pi/2]; both states must be normalized.

    Evaluated as atan2(||phi - c psi||, |c|) with c = <psi|phi>, the sine
    and cosine of the angle: arccos loses half the digits near 0, where an
    overlap that rounds to 1 - 1 ulp reads 1.5e-8.
    """
    psi = np.asarray(psi).ravel()
    phi = np.asarray(phi).ravel()
    for v in (psi, phi):
        if abs(np.linalg.norm(v) - 1.0) > 1e-8:
            raise ValueError("states must be normalized")
    c = overlap(psi, phi)
    return math.atan2(float(np.linalg.norm(phi - c * psi)), abs(c))


def scrambled_circuit_state(K: int, n_gates: int, seed: int) -> np.ndarray:
    """|0...0> through ``n_gates`` Haar-random 2-qubit gates on uniformly
    random ordered qubit pairs.  The circuit is drawn up front from
    ``default_rng(seed)``: first qubits ``integers(K, n_gates)``, second
    qubits ``integers(K - 1, n_gates)`` raised by one where they reach the
    first, then one ``standard_normal((n_gates, 4, 4, 2))`` Ginibre block."""
    if K < 2:
        raise ValueError(f"need K >= 2, got {K}")
    if n_gates < 0:
        raise ValueError(f"n_gates must be >= 0, got {n_gates}")
    rng = np.random.default_rng(seed)
    first = rng.integers(K, size=n_gates)
    second = rng.integers(K - 1, size=n_gates)
    second += second >= first
    unitaries = _unitary_from_ginibre(rng.standard_normal((n_gates, 4, 4, 2)).view(complex)[..., 0])
    pairs = list(zip(first.tolist(), second.tolist()))
    perms = {(a, b): (a, b, *(k for k in range(K) if k != a and k != b)) for a, b in set(pairs)}
    psi = np.zeros(1 << K, dtype=complex)
    psi[0] = 1.0
    cube = psi.reshape([2] * K)  # each gate updates a transposed view of it in place
    for U, pair in zip(unitaries, pairs):
        t = cube.transpose(perms[pair])
        t[...] = (U @ t.reshape(4, -1)).reshape(t.shape)
    return psi
