"""Right-invariant complexity metric on the unitary group.

The metric is diagonal in the Pauli-string basis with a weight-dependent
penalty I(w): free (I = 1) for weight w <= k, and c 4^(w-k) above, which
punishes motion along highly non-local directions.  On top of it sit the
velocity <-> coupling correspondence, the action of a path, the geodesic
identity for Hamiltonian evolution, the truncated commutator expansion of
the Loschmidt operator connecting neighbouring geodesics, and the
sectional curvature of 2-planes spanned by 2-local Hamiltonians together
with its Gaussian-ensemble statistics.

Traces are normalized (Tr 1 = 1) throughout, making every ratio
dimension-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .paulis import (
    CommutatorTable,
    KLocalHamiltonian,
    PauliString,
    enumerate_strings,
    evolve,
    gaussian_couplings,
    is_unitary,
    normalized_trace_product,
    pauli_matrix,
)

DEFAULT_STENCIL_H = 1e-4
ORTHOGONALITY_TOL = 1e-10

# A tangent vector at the identity is a finite map from Pauli strings to
# real components in the sigma_I basis.
TangentVector = Mapping[PauliString, float]


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
    return schedule.c * 4.0 ** (weight - schedule.k)


def metric_norm_sq(v: TangentVector, schedule: PenaltySchedule) -> float:
    """sum_I I(w_I) v_I^2."""
    return float(sum(penalty(p.weight, schedule) * x * x for p, x in v.items()))


def velocity_components(
    path: Callable[[float], np.ndarray],
    t: float,
    h: float = DEFAULT_STENCIL_H,
    basis: Sequence[PauliString] | None = None,
) -> dict[PauliString, float]:
    """Coupling components J_I = i Tr(sigma_I dU/dt U^dag) along a path.

    The derivative uses a central stencil of width ``h``; for
    U(t) = exp(-iHt) the components reproduce the couplings of H, and at
    t = 0 they are the projections of the initial velocity onto the Pauli
    axes.  The trace products are real up to the stencil truncation; only
    the real parts are returned.
    """
    if h <= 0:
        raise ValueError("stencil width must be positive")
    U0 = np.asarray(path(t), dtype=complex)
    Up = np.asarray(path(t + h), dtype=complex)
    Um = np.asarray(path(t - h), dtype=complex)
    for U in (U0, Up, Um):
        if not is_unitary(U, tol=1e-8):
            raise ValueError("path sample is not unitary")
    K = int(round(math.log2(U0.shape[0])))
    dU = (Up - Um) / (2 * h)
    M = 1j * (dU @ U0.conj().T)
    if basis is None:
        basis = enumerate_strings(K, K)
    return {p: normalized_trace_product(pauli_matrix(p), M).real for p in basis}


def _trapezoid(
    samples: Sequence[tuple[float, TangentVector]], integrand: Callable[[TangentVector], float]
) -> float:
    """Trapezoid quadrature of ``integrand(v)`` over strictly increasing sample times."""
    if len(samples) < 2:
        raise ValueError("need at least 2 samples")
    ts = np.array([t for t, _ in samples])
    if not np.all(np.diff(ts) > 0):
        raise ValueError("sample times must be strictly increasing")
    return float(np.trapezoid(np.array([integrand(v) for _, v in samples]), ts))


def path_action(
    samples: Sequence[tuple[float, TangentVector]], schedule: PenaltySchedule
) -> float:
    """Trapezoid quadrature of (1/2) |v|^2 over the sampled path."""
    return _trapezoid(samples, lambda v: 0.5 * metric_norm_sq(v, schedule))


def path_length(
    samples: Sequence[tuple[float, TangentVector]], schedule: PenaltySchedule
) -> float:
    """Trapezoid quadrature of |v| over the sampled path.

    For constant-speed paths the action is E_a t with E_a = |v|^2 / 2 and
    the length is sqrt(2 E_a) t, so action = sqrt(E_a / 2) * length.
    """
    return _trapezoid(samples, lambda v: math.sqrt(metric_norm_sq(v, schedule)))


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
    return geodesic_residual_path(lambda s: evolve(H, s), t, h)


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


def _check_two_local(ham: KLocalHamiltonian, name: str) -> None:
    if any(p.weight != 2 for p in ham.terms):
        raise ValueError(f"{name} must be exactly 2-local")


def sectional_curvature(
    H: KLocalHamiltonian, Delta: KLocalHamiltonian, schedule: PenaltySchedule
) -> float:
    """Curvature of the 2-plane spanned by two orthogonal 2-local flows.

    R = (1/3 - I(3)/4) * 2 Tr([H, Delta][Delta, H]) / (Tr Delta^2 Tr H^2)
    with normalized traces.  The numerator trace equals the squared
    Frobenius norm of the commutator, so R is zero iff the flows commute,
    and the sign of R is the sign of (1/3 - I(3)/4).  The numerator is
    computed exactly in Pauli space, from the anticommuting term pairs
    (see ``CommutatorTable``), without forming any 2^K matrix.
    """
    _check_two_local(H, "H")
    _check_two_local(Delta, "Delta")
    hh = H.coupling_norm_sq()
    dd = Delta.coupling_norm_sq()
    if hh == 0 or dd == 0:
        raise ValueError("zero-norm input")
    overlap = sum(j * Delta.terms.get(p, 0.0) for p, j in H.terms.items())
    if abs(overlap) > ORTHOGONALITY_TOL * max(1.0, math.sqrt(hh * dd)):
        raise ValueError(f"Delta is not trace-orthogonal to H: Tr(H Delta) = {overlap}")
    table = CommutatorTable(list(H.terms), list(Delta.terms))
    prefactor = 1.0 / 3.0 - penalty(3, schedule) / 4.0
    return prefactor * _trace_ratio(table, H.couplings(), Delta.couplings())


def _trace_ratio(table: CommutatorTable, h: np.ndarray, d: np.ndarray) -> float:
    """2 Tr([H,D][D,H]) / (Tr D^2 Tr H^2) for couplings h and d over the
    table's terms.  The norms are sequential sums in term order, bit for
    bit KLocalHamiltonian.coupling_norm_sq (h @ h would sum pairwise)."""
    return 2.0 * table.commutator_norm_sq(h, d) / (sum((h * h).tolist()) * sum((d * d).tolist()))


def _orthogonal_couplings(K: int, n: int, seed: int, draw: int) -> tuple[np.ndarray, np.ndarray]:
    """Couplings (h, d) of pair ``draw`` over n terms, each Gaussian of total
    variance K, with d projected against h in coupling space (the trace
    inner product, the Pauli basis being orthonormal)."""
    h = gaussian_couplings(n, float(K), seed, 2 * draw)
    d = gaussian_couplings(n, float(K), seed, 2 * draw + 1)
    return h, d - (d @ h) / (h @ h) * h


def sample_orthogonal_pair(K: int, seed: int, draw: int = 0) -> tuple[KLocalHamiltonian, KLocalHamiltonian]:
    """Two exactly 2-local Gaussian Hamiltonians with Tr(H Delta) = 0."""
    strings = enumerate_strings(K, 2, exactly_local=True)
    h, d = _orthogonal_couplings(K, len(strings), seed, draw)
    return tuple(KLocalHamiltonian(K, 2, dict(zip(strings, j.tolist())), K / len(strings)) for j in (h, d))


@dataclass(frozen=True)
class CurvatureEnsemble:
    """Ensemble mean of the sectional curvature and of the raw trace ratio;
    their standard errors are nan for a single trial."""

    mean: float
    stderr: float
    trace_ratio_mean: float
    trace_ratio_stderr: float
    trials: int


def curvature_ensemble(
    K: int, schedule: PenaltySchedule, trials: int, seed: int
) -> CurvatureEnsemble:
    """Average R and 2 Tr([H,D][D,H]) / (Tr D^2 Tr H^2) over Gaussian pairs.

    The pairs are those of ``sample_orthogonal_pair``, drawn as coupling
    vectors in the term order of ``enumerate_strings``, so one
    ``CommutatorTable`` serves all trials.
    """
    if K < 4 or K % 2:
        raise ValueError(f"K must be even and >= 4, got {K}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    prefactor = 1.0 / 3.0 - penalty(3, schedule) / 4.0
    strings = enumerate_strings(K, 2, exactly_local=True)
    table = CommutatorTable(strings, strings)
    ratios = np.empty(trials)
    for i in range(trials):
        ratios[i] = _trace_ratio(table, *_orthogonal_couplings(K, len(strings), seed, i))
    curvatures = prefactor * ratios

    def stderr(x: np.ndarray) -> float:
        # one sample cannot bound its error
        return float(x.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.nan

    return CurvatureEnsemble(
        mean=float(curvatures.mean()),
        stderr=stderr(curvatures),
        trace_ratio_mean=float(ratios.mean()),
        trace_ratio_stderr=stderr(ratios),
        trials=trials,
    )
