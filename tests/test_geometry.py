import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from complexitylab import geometry
from complexitylab.cli import main
from complexitylab.geometry import (
    ORTHOGONALITY_TOL,
    PenaltySchedule,
    _orthogonal_couplings,
    _trace_ratio,
    commutator,
    curvature_ensemble,
    geodesic_residual,
    geodesic_residual_path,
    loschmidt,
    penalty,
    sample_orthogonal_pair,
)
from complexitylab.paulis import (
    CommutatorTable,
    KLocalHamiltonian,
    _sum_of_squares,
    normalized_trace_product,
    pauli_masks,
    sample_klocal,
)

from kronecker import encode, hamiltonian, kron_sum, terms

K2_SCHEDULE = PenaltySchedule(k=2, c=1.0)


def _check_two_local(ham: KLocalHamiltonian, name: str) -> None:
    if (np.bitwise_count(ham.x | ham.z) != 2).any():
        raise ValueError(f"{name} must be exactly 2-local")


def sectional_curvature(H: KLocalHamiltonian, Delta: KLocalHamiltonian, schedule: PenaltySchedule) -> float:
    """Reference curvature of the 2-plane of one Hamiltonian pair, for
    ``curvature_ensemble``: R = (1/3 - I(3)/4) * 2 Tr([H, Delta][Delta, H])
    / (Tr Delta^2 Tr H^2), over a commutator table of the pair's own terms."""
    _check_two_local(H, "H")
    _check_two_local(Delta, "Delta")
    hh = _sum_of_squares(H.couplings)
    dd = _sum_of_squares(Delta.couplings)
    if hh == 0 or dd == 0:
        raise ValueError("zero-norm input")
    delta_terms = terms(Delta)
    overlap = sum(j * delta_terms.get(p, 0.0) for p, j in terms(H).items())
    if abs(overlap) > ORTHOGONALITY_TOL * max(1.0, math.sqrt(hh * dd)):
        raise ValueError(f"Delta is not trace-orthogonal to H: Tr(H Delta) = {overlap}")
    table = CommutatorTable(H.K, (H.x, H.z), (Delta.x, Delta.z))
    prefactor = 1.0 / 3.0 - penalty(3, schedule) / 4.0
    return prefactor * _trace_ratio(table, H.couplings, Delta.couplings)


def test_penalty_values():
    assert penalty(2, K2_SCHEDULE) == 1.0
    assert penalty(1, K2_SCHEDULE) == 1.0
    assert penalty(3, K2_SCHEDULE) == 4.0
    assert penalty(5, PenaltySchedule(2, 2.0)) == 128.0


def test_penalty_rejects_zero_weight():
    with pytest.raises(ValueError):
        penalty(0, K2_SCHEDULE)
    with pytest.raises(ValueError):
        PenaltySchedule(2, 0.0)
    with pytest.raises(ValueError):
        PenaltySchedule(0, 1.0)


@given(st.floats(min_value=0.1, max_value=10.0), st.floats(min_value=0.01, max_value=100.0))
def test_penalty_monotone_in_c(c1, factor):
    c2 = c1 * (1 + factor)
    assert penalty(4, PenaltySchedule(2, c2)) > penalty(4, PenaltySchedule(2, c1))


def test_geodesic_residual_second_order():
    h = sample_klocal(2, 2, False, 2.0, seed=30)
    res = [geodesic_residual(h, t=0.5, h=step) for step in (2e-2, 1e-2, 5e-3)]
    orders = [math.log2(a / b) for a, b in zip(res, res[1:])]
    assert all(1.8 <= o <= 2.2 for o in orders)
    assert geodesic_residual(h, t=0.0, h=1e-3) < 1e-4


def test_geodesic_residual_detects_non_geodesic():
    # analytic oracle: for U = exp(-iHt^2) the defect is 2iHU, independent of h
    h = sample_klocal(2, 2, False, 2.0, seed=31)
    hm = h.dense()
    w, v = np.linalg.eigh(hm)
    path = lambda t: (v * np.exp(-1j * w * t * t)) @ v.conj().T
    t0 = 0.6
    expected = float(np.max(np.abs(2 * hm @ path(t0))))
    for step in (1e-3, 5e-4):
        assert geodesic_residual_path(path, t0, step) == pytest.approx(expected, rel=1e-4)


def test_loschmidt_commuting_case():
    z1 = hamiltonian(2, 2, {"ZI": 1.0}).dense()
    z2 = hamiltonian(2, 2, {"IZ": 1.0}).dense()
    lam = loschmidt(z1, z2, t=0.4, dtheta=0.01)
    assert np.allclose(lam, -1j * z2 * 0.4 * 0.01, atol=1e-15)


def test_loschmidt_antihermitian():
    hk, dk = sample_orthogonal_pair(3, seed=17)
    lam = loschmidt(hk.dense(), dk.dense(), t=0.3, dtheta=0.05)
    assert np.max(np.abs(lam + lam.conj().T)) < 1e-12


def test_loschmidt_rejects_non_orthogonal():
    h = sample_klocal(2, 2, True, 2.0, seed=18).dense()
    with pytest.raises(ValueError):
        loschmidt(h, h, t=0.1, dtheta=0.01)


def test_loschmidt_error_small():
    hk, dk = sample_orthogonal_pair(3, seed=19)
    H, D = hk.dense(), dk.dense()
    t, dth = 0.2, 1e-3
    lam = loschmidt(H, D, t, dth)
    exact = expm(1j * H * t) @ expm(-1j * (H + D * dth) * t)
    assert np.max(np.abs(expm(lam) - exact)) < 1e-5


def test_sectional_curvature_zero_at_boundary_penalty():
    hk, dk = sample_orthogonal_pair(6, seed=40)
    boundary = PenaltySchedule(2, 1.0 / 3.0)  # I(3) = 4/3 kills the prefactor
    assert sectional_curvature(hk, dk, boundary) == 0.0


def test_sectional_curvature_zero_for_commuting():
    h = hamiltonian(4, 2, {"XXII": 1.0})
    d = hamiltonian(4, 2, {"YYII": 0.7})
    assert sectional_curvature(h, d, K2_SCHEDULE) == pytest.approx(0.0, abs=1e-15)


def test_sectional_curvature_negative_generic():
    hk, dk = sample_orthogonal_pair(6, seed=41)
    assert sectional_curvature(hk, dk, K2_SCHEDULE) < 0


def test_sectional_curvature_scale_invariant():
    hk, dk = sample_orthogonal_pair(4, seed=42)
    r0 = sectional_curvature(hk, dk, K2_SCHEDULE)
    h2 = KLocalHamiltonian(4, 2, hk.x, hk.z, 3.7 * hk.couplings)
    d2 = KLocalHamiltonian(4, 2, dk.x, dk.z, -0.2 * dk.couplings)
    assert sectional_curvature(h2, d2, K2_SCHEDULE) == pytest.approx(r0, rel=1e-12)


def _trace_oracle(hk, dk):
    # evaluate the commutator traces with plain np.trace on Kronecker-assembled matrices
    H, D = kron_sum(hk), kron_sum(dk)
    dim = H.shape[0]
    num = 2 * np.trace(commutator(H, D) @ commutator(D, H)).real / dim
    den = (np.trace(D @ D).real / dim) * (np.trace(H @ H).real / dim)
    return (1.0 / 3.0 - penalty(3, K2_SCHEDULE) / 4.0) * num / den


@pytest.mark.parametrize("K", [3, 4, 6])
def test_sectional_curvature_matches_trace_oracle(K):
    hk, dk = sample_orthogonal_pair(K, seed=43)
    assert sectional_curvature(hk, dk, K2_SCHEDULE) == pytest.approx(_trace_oracle(hk, dk), rel=1e-12)


def test_sectional_curvature_matches_trace_oracle_on_distinct_terms():
    # different term sets; the anticommuting products include Y.Y, X.Y and Z.Y
    # letters, and XY.YY, XZ.YZ and YX.XX all land on ZII, so their phases interfere
    h = {"XYI": 0.7, "XZI": -0.4, "YXI": 1.3, "ZIY": 0.25, "IYX": -0.8}
    d = {"YYI": 0.9, "YZI": -1.1, "XXI": 0.6, "YIY": -0.35, "IZY": 0.45}
    hk, dk = hamiltonian(3, 2, h), hamiltonian(3, 2, d)
    r = sectional_curvature(hk, dk, K2_SCHEDULE)
    assert r < 0
    assert r == pytest.approx(_trace_oracle(hk, dk), rel=1e-12)


@pytest.mark.parametrize("K", range(2, 11))
def test_commutator_table_counts_anticommuting_pairs(K):
    # a 2-local string anticommutes with 12(K-2) + 4 of the N = 9 C(K,2)
    # 2-local strings (a differing letter on exactly one shared qubit)
    masks = pauli_masks(K, 2, exactly_local=True)
    n = len(masks[0])
    table = CommutatorTable(K, masks, masks)
    assert len(table) == n * (12 * (K - 2) + 4)
    # the closed form of the trace-ratio oracle below is 8 * pairs / N^2
    assert 8 * len(table) / n**2 == pytest.approx(16.0 * (12 * K - 20) / (9 * K * (K - 1)), rel=1e-14)


def test_commutator_table_validation():
    # a string on more than K qubits would share its product key with another
    with pytest.raises(ValueError, match="at or above K = 2"):
        CommutatorTable(2, encode(["XX"]), encode(["XYZ"]))
    with pytest.raises(ValueError, match="at or above K = 2"):
        CommutatorTable(2, encode(["XYZ"]), encode(["XX"]))
    (x, z), right = encode(["XX", "YY"]), encode(["ZI"])
    for left in [(x, z[:1]), (x[:1], z)]:
        with pytest.raises(ValueError, match="differ in length"):
            CommutatorTable(2, left, right)
        with pytest.raises(ValueError, match="differ in length"):
            CommutatorTable(2, right, left)
    table = CommutatorTable(2, encode(["XX"]), encode(["ZI", "IZ"]))
    with pytest.raises(ValueError, match="shapes"):
        table.commutator_norm_sq(np.ones(1), np.ones(3))


def test_sectional_curvature_validation():
    h3 = sample_klocal(4, 3, True, 1.0, seed=44)
    h2 = sample_klocal(4, 2, True, 1.0, seed=45)
    with pytest.raises(ValueError, match="2-local"):
        sectional_curvature(h3, h3, K2_SCHEDULE)
    with pytest.raises(ValueError, match="orthogonal"):
        sectional_curvature(h2, h2, K2_SCHEDULE)
    zero = hamiltonian(4, 2, {"XXII": 0.0})
    with pytest.raises(ValueError, match="zero-norm"):
        sectional_curvature(h2, zero, K2_SCHEDULE)


def test_sample_orthogonal_pair_properties():
    hk, dk = sample_orthogonal_pair(6, seed=46)
    overlap = normalized_trace_product(hk.dense(), dk.dense())
    assert abs(overlap) < 1e-12
    assert (np.bitwise_count(hk.x | hk.z) == 2).all()
    assert (np.bitwise_count(dk.x | dk.z) == 2).all()


def test_curvature_ensemble_reproducible_and_consistent():
    a = curvature_ensemble(4, K2_SCHEDULE, trials=8, seed=50)
    b = curvature_ensemble(4, K2_SCHEDULE, trials=8, seed=50)
    assert a == b
    assert a.mean == pytest.approx((1.0 / 3.0 - 1.0) * a.trace_ratio_mean, rel=1e-12)
    # single-trial ensemble equals the direct curvature of that pair
    single = curvature_ensemble(4, K2_SCHEDULE, trials=1, seed=51)
    hk, dk = sample_orthogonal_pair(4, seed=51, draw=0)
    assert single.mean == pytest.approx(sectional_curvature(hk, dk, K2_SCHEDULE), rel=1e-12)
    assert math.isnan(single.stderr)


@pytest.mark.parametrize("K", [4, 6, 8])
def test_single_trial_ensemble_is_the_pair_curvature_bit_for_bit(K):
    # both go through one trace-ratio helper, so they divide in the same order
    for seed in range(40):
        single = curvature_ensemble(K, K2_SCHEDULE, trials=1, seed=seed)
        hk, dk = sample_orthogonal_pair(K, seed, 0)
        assert single.mean == sectional_curvature(hk, dk, K2_SCHEDULE), f"seed {seed}"


@pytest.mark.parametrize("K", [4, 6, 8, 10])
def test_curvature_ensemble_matches_a_loop_over_sampled_pairs(K):
    # reference: Hamiltonian pairs, their own term tables and norms
    trials, seed = 9, 70
    result = curvature_ensemble(K, K2_SCHEDULE, trials=trials, seed=seed)
    ratios, curvatures = [], []
    for i in range(trials):
        hk, dk = sample_orthogonal_pair(K, seed, i)
        table = CommutatorTable(K, (hk.x, hk.z), (dk.x, dk.z))
        num = 2.0 * table.commutator_norm_sq(hk.couplings, dk.couplings)
        ratios.append(num / (_sum_of_squares(hk.couplings) * _sum_of_squares(dk.couplings)))
        curvatures.append(sectional_curvature(hk, dk, K2_SCHEDULE))
    assert result.trace_ratio_mean == np.array(ratios).mean()
    assert result.mean == pytest.approx(np.mean(curvatures), rel=1e-14, abs=0)


@pytest.mark.parametrize("K, seed, draw", [(4, 3, 0), (6, 11, 5)])
def test_pair_first_member_is_the_even_klocal_draw(K, seed, draw):
    hk, _ = sample_orthogonal_pair(K, seed, draw)
    ref = sample_klocal(K, 2, True, K, seed, 2 * draw)
    assert (hk.K, hk.k) == (ref.K, ref.k)
    assert hk.x.tobytes() == ref.x.tobytes() and hk.z.tobytes() == ref.z.tobytes()
    assert hk.couplings.tobytes() == ref.couplings.tobytes()


def test_curvature_ensemble_builds_no_hamiltonian(monkeypatch):
    built = []
    post_init = KLocalHamiltonian.__post_init__

    def counted(self):
        built.append(self.K)
        post_init(self)

    monkeypatch.setattr(KLocalHamiltonian, "__post_init__", counted)
    curvature_ensemble(4, K2_SCHEDULE, trials=5, seed=1)
    assert built == []
    sample_orthogonal_pair(4, seed=1)
    assert built == [4, 4]  # the counter sees every construction


def test_curvature_ensemble_validation():
    with pytest.raises(ValueError):
        curvature_ensemble(3, K2_SCHEDULE, trials=2, seed=0)
    with pytest.raises(ValueError):
        curvature_ensemble(4, K2_SCHEDULE, trials=0, seed=0)
    with pytest.raises(OverflowError, match="I\\(3\\)"):
        curvature_ensemble(4, PenaltySchedule(1, 1e308), trials=3, seed=0)
    with pytest.raises(OverflowError, match="mean curvature"):
        curvature_ensemble(4, PenaltySchedule(2, 1e307), trials=100, seed=0)


@pytest.mark.parametrize("K", [4, 6, 8, 10])
def test_trace_ratio_matches_anticommutation_count(K):
    # combinatorial oracle: over independent Gaussian couplings the mean of
    # 2 Tr([H,D][D,H]) / (Tr D^2 Tr H^2) is 8 * (anticommuting pairs) / N^2.
    # A 2-local string has 12(K-2) + 4 anticommuting partners (differing
    # letter on exactly one shared qubit), out of N = 9 C(K,2) strings.
    analytic = 16.0 * (12 * K - 20) / (9 * K * (K - 1))
    result = curvature_ensemble(K, K2_SCHEDULE, trials=150, seed=60)
    assert result.trace_ratio_mean == pytest.approx(analytic, rel=0.05)


# --- the two-gather table that the repeat-and-gather one replaced, as its oracle


class TwoGatherTable:
    """Anticommuting pairs with their left and right indices and signs;
    each pair's term is s h_a d_b, gathered from h and from d."""

    def __init__(self, K, left, right):
        (xa, za), (xb, zb) = left, right
        self.shape = (len(xa), len(xb))
        ya, yb = np.bitwise_count(xa & za), np.bitwise_count(xb & zb)
        twist = np.bitwise_count(za[:, None] & xb).astype(np.int64)
        odd = (np.bitwise_count(xa[:, None] & zb) + twist) & 1
        a, b = self.left, self.right = np.nonzero(odd)
        xc, zc = xa[a] ^ xb[b], za[a] ^ zb[b]
        e = (ya[a].astype(np.int64) + yb[b] - np.bitwise_count(xc & zc) + 2 * twist[a, b]) % 4
        self.sign = np.where(e == 1, 1.0, -1.0)
        keys, self.product = np.unique((xc << K) | zc, return_inverse=True)
        self.num_products = len(keys)

    def __len__(self):
        return len(self.left)

    def commutator_norm_sq(self, h, d):
        S = np.bincount(self.product, weights=self.sign * h[self.left] * d[self.right], minlength=self.num_products)
        return 4.0 * float(np.sum(S * S))


@pytest.mark.parametrize("K", [4, 6, 8, 10])
def test_commutator_norm_equals_the_two_gather_reference(K):
    masks = pauli_masks(K, 2, exactly_local=True)
    n = len(masks[0])
    table, ref = CommutatorTable(K, masks, masks), TwoGatherTable(K, masks, masks)
    assert len(table) == len(ref)
    for draw in range(10):
        h, d = _orthogonal_couplings(K, n, 80, draw)
        assert table.commutator_norm_sq(h, d) == ref.commutator_norm_sq(h, d)
    # distinct term lists of different lengths: the pairs of each left term
    # are repeated from h and the right indices gathered from [d, -d]
    left, right = tuple(m[: n // 3] for m in masks), tuple(m[n // 2 :] for m in masks)
    table, ref = CommutatorTable(K, left, right), TwoGatherTable(K, left, right)
    rng = np.random.default_rng(K)
    for _ in range(10):
        h, d = rng.normal(size=n // 3), rng.normal(size=n - n // 2)
        assert table.commutator_norm_sq(h, d) == ref.commutator_norm_sq(h, d)


@pytest.mark.parametrize("K, trials", [(4, 200), (6, 150), (8, 100), (10, 50)])
def test_curvature_ensemble_equals_the_two_gather_reference(K, trials, monkeypatch):
    new = curvature_ensemble(K, K2_SCHEDULE, trials, seed=7)
    monkeypatch.setattr(geometry, "CommutatorTable", TwoGatherTable)
    assert curvature_ensemble(K, K2_SCHEDULE, trials, seed=7) == new


def test_curvature_csv_is_the_same_with_the_reference_table(tmp_path, monkeypatch):
    assert main(["curvature", "--outdir", str(tmp_path / "new")]) == 0
    built = []

    class Counted(TwoGatherTable):
        def __init__(self, K, left, right):
            built.append(len(left[0]))
            super().__init__(K, left, right)

    monkeypatch.setattr(geometry, "CommutatorTable", Counted)
    assert main(["curvature", "--outdir", str(tmp_path / "ref")]) == 0
    assert built == [252]  # one table of the 9 C(8, 2) strings at the default K = 8
    assert (tmp_path / "new" / "curvature.csv").read_bytes() == (tmp_path / "ref" / "curvature.csv").read_bytes()
