"""Right-invariant complexity metric on the unitary group.

The metric is diagonal in the Pauli-string basis with a weight-dependent
penalty I(w): free (I = 1) for weight w <= k, and c 4^(w-k) above, which
punishes motion along highly non-local directions.  On top of it sit the
geodesic identity for Hamiltonian evolution, the truncated commutator
expansion of the Loschmidt operator connecting neighbouring geodesics,
and the Gaussian-ensemble statistics of the sectional curvature of
2-planes spanned by 2-local Hamiltonians.

Traces are normalized (Tr 1 = 1) throughout, making every ratio
dimension-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .paulis import (
    CommutatorTable,
    KLocalHamiltonian,
    _sum_of_squares,
    evolve,
    gaussian_couplings,
    normalized_trace_product,
    pauli_masks,
)

ORTHOGONALITY_TOL = 1e-10


@dataclass(frozen=True)
class PenaltySchedule:
    """Diagonal moment-of-inertia weights: 1 up to weight k, c 4^(w-k) above."""

    k: int
    c: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"need k >= 1, got {self.k}")
        if self.c <= 0:
            raise ValueError(f"need c > 0, got {self.c}")


def penalty(weight: int, schedule: PenaltySchedule) -> float:
    """I(w) for a single direction of the given weight."""
    if weight < 1:
        raise ValueError(f"weight must be >= 1, got {weight}")
    if weight <= schedule.k:
        return 1.0
    value = schedule.c * 4.0 ** (weight - schedule.k)
    if math.isinf(value):
        raise OverflowError(f"penalty I({weight}) = c 4^({weight} - k) overflows at c = {schedule.c}, k = {schedule.k}")
    return value


def geodesic_residual_path(
    path: Callable[[float], np.ndarray], t: float, h: float
) -> float:
    """Max-norm of d2U/dt2 - (dU/dt) U^dag (dU/dt) under central differences.

    The combination vanishes identically on U(t) = exp(-iHt), so the
    finite-difference residual decays as O(h^2) there and stays bounded
    away from zero on non-geodesic paths.
    """
    if h <= 0:
        raise ValueError("stencil width must be positive")
    U0 = np.asarray(path(t), dtype=complex)
    Up = np.asarray(path(t + h), dtype=complex)
    Um = np.asarray(path(t - h), dtype=complex)
    dU = (Up - Um) / (2 * h)
    d2U = (Up - 2 * U0 + Um) / (h * h)
    return float(np.max(np.abs(d2U - dU @ U0.conj().T @ dU)))


def geodesic_residual(H: KLocalHamiltonian, t: float, h: float) -> float:
    """Residual of the geodesic identity on the flow exp(-iHt)."""
    Hm = H.dense()
    return geodesic_residual_path(lambda s: evolve(Hm, s), t, h)


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return A @ B - B @ A


def loschmidt(H: np.ndarray, Delta: np.ndarray, t: float, dtheta: float) -> np.ndarray:
    """Truncated generator of exp(iHt) exp(-i(H + Delta dtheta) t).

    Lambda = -(i Delta t - t^2/2 [H, Delta] - i t^3/6 [H, [H, Delta]]) dtheta,
    the nested-commutator series cut at third order in t and first order
    in dtheta.  The discarded terms are O(t^4 dtheta) + O(dtheta^2).
    Requires Delta orthogonal to H under the normalized trace.
    """
    H = np.asarray(H, dtype=complex)
    Delta = np.asarray(Delta, dtype=complex)
    overlap = normalized_trace_product(Delta, H)
    if abs(overlap) > ORTHOGONALITY_TOL:
        raise ValueError(f"Delta is not trace-orthogonal to H: Tr(Delta H) = {overlap}")
    c1 = commutator(H, Delta)
    c2 = commutator(H, c1)
    return -(1j * Delta * t - (t * t / 2) * c1 - (1j * t**3 / 6) * c2) * dtheta


def _trace_ratio(table: CommutatorTable, h: np.ndarray, d: np.ndarray) -> float:
    """2 Tr([H,D][D,H]) / (Tr D^2 Tr H^2) for couplings h and d over the
    table's terms.  The norms are left-to-right sums of squares, the same
    bits on every Python."""
    return 2.0 * table.commutator_norm_sq(h, d) / (_sum_of_squares(h) * _sum_of_squares(d))


def _orthogonal_couplings(K: int, n: int, seed: int, draw: int) -> tuple[np.ndarray, np.ndarray]:
    """Couplings (h, d) of pair ``draw`` over n terms, each Gaussian of total
    variance K, with d projected against h in coupling space (the trace
    inner product, the Pauli basis being orthonormal)."""
    h = gaussian_couplings(n, float(K), seed, 2 * draw)
    d = gaussian_couplings(n, float(K), seed, 2 * draw + 1)
    return h, d - (d @ h) / (h @ h) * h


def sample_orthogonal_pair(K: int, seed: int, draw: int = 0) -> tuple[KLocalHamiltonian, KLocalHamiltonian]:
    """Two exactly 2-local Gaussian Hamiltonians with Tr(H Delta) = 0."""
    x, z = pauli_masks(K, 2, exactly_local=True)
    h, d = _orthogonal_couplings(K, len(x), seed, draw)
    return tuple(KLocalHamiltonian(K, 2, x, z, j) for j in (h, d))


@dataclass(frozen=True)
class CurvatureEnsemble:
    """Ensemble mean of the sectional curvature and of the raw trace ratio;
    the curvature's standard error is nan for a single trial."""

    mean: float
    stderr: float
    trace_ratio_mean: float


def curvature_ensemble(
    K: int, schedule: PenaltySchedule, trials: int, seed: int
) -> CurvatureEnsemble:
    """Average R and 2 Tr([H,D][D,H]) / (Tr D^2 Tr H^2) over Gaussian pairs.

    R = (1/3 - I(3)/4) times the trace ratio is the sectional curvature of
    the 2-plane spanned by the two flows.  The numerator trace is the
    squared Frobenius norm of the commutator, computed exactly in Pauli
    space from the anticommuting term pairs, so the sign of R is the sign
    of (1/3 - I(3)/4).

    The pairs are those of ``sample_orthogonal_pair``, drawn as coupling
    vectors over the masks of ``pauli_masks``, so one ``CommutatorTable``
    serves all trials.
    """
    if K < 4 or K % 2:
        raise ValueError(f"K must be even and >= 4, got {K}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    prefactor = 1.0 / 3.0 - penalty(3, schedule) / 4.0
    masks = pauli_masks(K, 2, exactly_local=True)
    table = CommutatorTable(K, masks, masks)
    ratios = np.empty(trials)
    for i in range(trials):
        ratios[i] = _trace_ratio(table, *_orthogonal_couplings(K, table.shape[0], seed, i))

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, not warned about
        curvatures = prefactor * ratios
        result = CurvatureEnsemble(
            mean=float(curvatures.mean()),
            # one sample cannot bound its error
            stderr=float(curvatures.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.nan,
            trace_ratio_mean=float(ratios.mean()),
        )
    if not math.isfinite(result.mean) or (trials > 1 and not math.isfinite(result.stderr)):
        raise OverflowError(
            f"the mean curvature over {trials} trials or its stderr overflows at I(3) = {penalty(3, schedule)}: "
            f"mean_R {result.mean}, stderr {result.stderr}"
        )
    return result
