import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexitylab import gates
from complexitylab.counting import log_num_unitaries
from complexitylab.gates import (
    CNOT_12,
    CNOT_21,
    GateSet,
    bfs_complexity,
    canonical_key,
    cnot_pair_gateset,
    haar_unitary,
    phase_fix,
    random_inverse_closed_gateset,
    random_word,
    sphere_growth,
    two_qubit_clifford_gateset,
)

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


@functools.cache
def _clifford_ball():
    gs = two_qubit_clifford_gateset()
    return gs, sphere_growth(gs, max_depth=20)


@pytest.fixture(scope="module")
def clifford_ball():
    return _clifford_ball()


def test_canonical_key_phase_invariant():
    rng = np.random.default_rng(0)
    U = haar_unitary(4, rng)
    for theta in rng.uniform(0, 2 * math.pi, size=8):
        assert canonical_key(np.exp(1j * theta) * U) == canonical_key(U)


def test_canonical_key_separates_far_operators():
    rng = np.random.default_rng(1)
    U = haar_unitary(4, rng)
    V = haar_unitary(4, rng)
    assert canonical_key(U) != canonical_key(V)
    assert canonical_key(np.eye(4, dtype=complex)) != canonical_key(CNOT_12)


def test_canonical_key_merges_sub_resolution_perturbations():
    U = np.eye(4, dtype=complex)
    eps = 1e-6
    assert canonical_key(U + 1e-9, eps) == canonical_key(U, eps)


def test_phase_fix_deterministic():
    U = CNOT_12 * np.exp(0.7j)
    fixed = phase_fix(U)
    assert fixed[0, 0] == pytest.approx(1.0)
    assert np.allclose(fixed, CNOT_12)


def test_gateset_rejects_missing_inverse():
    S1 = np.kron(np.diag([1, 1j]), np.eye(2)).astype(complex)
    with pytest.raises(ValueError, match="inverse-closed"):
        GateSet(2, (("s1", S1),))


def test_gateset_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        GateSet(2, (("bad", np.ones((4, 4))),))


def test_gateset_rejects_wrong_shape():
    with pytest.raises(ValueError, match="shape"):
        GateSet(2, (("h", np.eye(2, dtype=complex)),))


def test_gateset_rejects_an_empty_set():
    with pytest.raises(ValueError, match="gate set is empty"):
        GateSet(2, ())


def test_bfs_identity_and_generators():
    gs = cnot_pair_gateset()
    assert bfs_complexity(np.eye(4, dtype=complex), gs, 4) == 0
    assert bfs_complexity(CNOT_12, gs, 4) == 1
    assert bfs_complexity(CNOT_21, gs, 4) == 1


def test_bfs_swap_word_is_three():
    # oracle: enumerate all words of length <= 3 over the two CNOTs
    gs = cnot_pair_gateset()
    mats = [CNOT_12, CNOT_21]
    words = {0: [np.eye(4, dtype=complex)]}
    for n in (1, 2, 3):
        words[n] = [g @ w for g in mats for w in words[n - 1]]
    assert not any(np.allclose(w, SWAP) for n in (0, 1, 2) for w in words[n])
    assert any(np.allclose(w, SWAP) for w in words[3])
    assert bfs_complexity(SWAP, gs, 5) == 3


def test_bfs_not_found():
    gs = cnot_pair_gateset()
    target = np.kron(np.diag([1, 1j]), np.eye(2)).astype(complex)
    assert bfs_complexity(target, gs, 6) is None


def test_bfs_rejects_bad_target():
    gs = cnot_pair_gateset()
    with pytest.raises(ValueError):
        bfs_complexity(np.eye(8, dtype=complex), gs, 2)
    with pytest.raises(ValueError):
        bfs_complexity(np.ones((4, 4)), gs, 2)


def test_negative_depth_is_rejected_with_or_without_a_ball():
    gs = cnot_pair_gateset()
    with pytest.raises(ValueError, match="max_depth"):
        sphere_growth(gs, -1)
    with pytest.raises(ValueError, match="max_depth"):
        bfs_complexity(np.eye(4, dtype=complex), gs, -1)


def test_sphere_growth_layers(clifford_ball):
    _, ball = clifford_ball
    assert ball.counts[0] == 1
    assert ball.counts[1] == 8  # all generators distinct, none is the identity
    assert ball.saturated
    assert ball.size == sum(ball.counts) == 11520  # 2-qubit Clifford group mod phase


def test_sphere_growth_first_layer_dedups():
    # duplicated gates and phase copies collapse into one depth-1 element
    gs = GateSet(
        2,
        (("a", CNOT_12), ("b", CNOT_12), ("c", np.exp(0.4j) * CNOT_12), ("d", CNOT_21)),
    )
    ball = sphere_growth(gs, max_depth=1)
    assert ball.counts[1] == 2


def test_sphere_growth_free_for_generic_gates():
    # a generic inverse-closed set satisfies no short relations: each layer
    # multiplies by (gates - 1), within 25% of the first-layer count
    gs = random_inverse_closed_gateset(2, n_pairs=4, seed=99)
    ball = sphere_growth(gs, max_depth=4)
    assert ball.counts[0] == 1 and ball.counts[1] == 8
    for d in (1, 2, 3):
        ratio = ball.counts[d + 1] / ball.counts[d]
        assert abs(ratio - ball.counts[1]) <= 0.25 * ball.counts[1]


def test_sphere_counts_below_dedup_capacity(clifford_ball):
    gs, ball = clifford_ball
    assert math.log(ball.size) <= log_num_unitaries(2, gs.epsilon)


def test_sphere_growth_truncation():
    gs = two_qubit_clifford_gateset()
    ball = sphere_growth(gs, max_depth=20, max_elements=100)
    assert ball.truncated
    assert not ball.saturated
    assert ball.size <= 100
    assert ball.counts == sphere_growth(gs, max_depth=len(ball.counts) - 1).counts


def test_sphere_growth_skips_a_layer_that_could_pass_the_cap():
    gs = random_inverse_closed_gateset(2, 4, 1729)
    # free growth 1, 8, 56, 392: after depth 3 the ball holds 457 and the
    # next layer could add 392 * 8 = 3136
    assert sphere_growth(gs, 6, max_elements=457 + 3136).counts == [1, 8, 56, 392, 2744]
    ball = sphere_growth(gs, 6, max_elements=457 + 3135)
    assert ball.truncated and not ball.saturated
    assert ball.counts == [1, 8, 56, 392]
    assert ball.size == 457


@pytest.mark.parametrize("epsilon", [0.0, -1e-6, float("nan"), float("inf"), 1e-15, gates.MIN_EPSILON / 1.01])
def test_gateset_rejects_a_bad_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        cnot_pair_gateset(epsilon)


def test_the_finest_epsilon_keeps_the_clifford_group_whole():
    ball = sphere_growth(two_qubit_clifford_gateset(gates.MIN_EPSILON), max_depth=20)
    assert ball.saturated and ball.size == 11520


def test_ball_repr_is_short(clifford_ball):
    _, ball = clifford_ball
    text = repr(ball)
    assert len(text) < 1000
    for name in ("epsilon", "saturated", "truncated"):
        assert f"{name}=" in text


def test_switchback_inequality(clifford_ball):
    gs, ball = clifford_ball
    rng = np.random.default_rng(7)
    single = [g for label, g in gs.gates if label.startswith(("h", "s"))]
    for _ in range(20):
        n = int(rng.integers(1, 6))
        U = random_word(gs, n, rng)
        W = single[rng.integers(len(single))]
        c = ball.depth_of(U @ W @ U.conj().T)
        assert c is not None
        assert c <= 2 * n + 1


def test_keys_do_not_depend_on_memory_layout_or_dtype(clifford_ball):
    gs, ball = clifford_ball
    M = random_word(gs, 5, np.random.default_rng(8))
    for U in (M.conj().T, np.eye(4)):  # an F-ordered view; a real matrix
        assert not (U.flags.c_contiguous and U.dtype == complex)
        C = np.ascontiguousarray(U, dtype=complex)
        assert canonical_key(U) == canonical_key(C)
        assert ball.depth_of(U) == ball.depth_of(C) is not None
        assert bfs_complexity(U, gs, 5) == bfs_complexity(C, gs, 5) == ball.depth_of(C)


def test_depth_of_unknown_returns_none():
    gs = cnot_pair_gateset()
    ball = sphere_growth(gs, max_depth=6)
    target = np.kron(np.diag([1, 1j]), np.eye(2)).astype(complex)
    assert ball.depth_of(target) is None


@pytest.mark.parametrize("make_gateset", [cnot_pair_gateset, two_qubit_clifford_gateset])
@pytest.mark.parametrize("U", [np.eye(2), np.eye(8), np.ones(4), np.eye(4)[:, :2]], ids=["2x2", "8x8", "vector", "4x2"])
def test_depth_of_refuses_a_matrix_of_another_shape(make_gateset, U):
    # not found would read as "farther than the ball": name both shapes instead
    ball = sphere_growth(make_gateset(), max_depth=3)
    with pytest.raises(ValueError, match=re.escape(f"U has shape {U.shape}, expected (4, 4)")):
        ball.depth_of(U)


def _with_entry(value, index=(1, 2)):
    U = np.eye(4, dtype=complex)
    U[index] = value
    return U


@pytest.mark.parametrize(
    "U, message",
    [
        (_with_entry(np.nan), "magnitude is nan"),
        (_with_entry(complex(0, np.nan)), "magnitude is nan"),
        (_with_entry(np.inf), "magnitude is inf"),
        (_with_entry(-np.inf), "magnitude is inf"),
        (np.diag([np.inf] * 4), "magnitude is inf"),
        (_with_entry(2.5j, (3, 0)), "magnitude is 2.5"),
        (np.eye(4)[:, :3], r"square matrix, got shape \(4, 3\)"),
        (np.stack([np.eye(4)] * 2), r"square matrix, got shape \(2, 4, 4\)"),
        (np.ones(4), r"square matrix, got shape \(4,\)"),
    ],
    ids=["nan", "nan-imag", "inf", "-inf", "inf-diagonal", "2.5", "4x3", "3-d", "vector"],
)
def test_canonical_key_refuses_what_its_grid_cannot_hold(U, message):
    # non-finite entries once gave numpy warnings and a key (all INT_MIN for
    # np.eye(4) * inf); entries above 2 lie outside the int32 grids of _key_dtype
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for epsilon in (1e-6, gates.MIN_EPSILON):
            with pytest.raises(ValueError, match=message):
                canonical_key(U, epsilon)


def test_canonical_key_takes_magnitude_two():
    assert canonical_key(2 * np.eye(4)) != canonical_key(np.eye(4))
    assert np.array_equal(phase_fix(-2j * np.eye(2)), 2 * np.eye(2))


# --- the single-matrix key against its first, two-grid form ----------------


def _reference_phase_fix(U):
    """phase_fix as first written: one product in U's own dtype."""
    flat = np.asarray(U).ravel()
    mags = np.abs(flat)
    idx = int(np.argmax(mags >= mags.max() - 1e-12))
    z = flat[idx]
    if abs(z) == 0:
        return np.asarray(U, dtype=complex)
    return np.asarray(U) * (z.conjugate() / abs(z))


def _reference_canonical_key(U, epsilon):
    """canonical_key as first written: the real grid and the imaginary grid
    rounded and cast apart, int32 only while 2 dim / epsilon < 2^31."""
    Uf = _reference_phase_fix(U)
    dim = Uf.shape[0]
    pitch = epsilon / dim
    dtype = np.int32 if 2 * dim / epsilon < 2**31 else np.int64
    re = np.round(Uf.real / pitch).astype(dtype)
    im = np.round(Uf.imag / pitch).astype(dtype)
    return re.tobytes() + im.tobytes()


@functools.cache
def _clifford_members():
    return [U for U, _ in _clifford_ball()[1].members]


@pytest.mark.parametrize("epsilon", [gates.DEFAULT_EPSILON, gates.MIN_EPSILON])
def test_canonical_key_equals_the_reference_on_the_clifford_group(epsilon):
    members = _clifford_members()
    assert len(members) == 11520
    assert all(canonical_key(U, epsilon) == _reference_canonical_key(U, epsilon) for U in members)


_H_S = [np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.diag([1, 1j])]


def _clifford_like(dim, rng):
    """A matrix with magnitude ties: a word in H and S, a 2-qubit Clifford
    ball member, or a member times a word."""
    word = np.eye(2, dtype=complex)
    for _ in range(rng.integers(7)):
        word = _H_S[rng.integers(2)] @ word
    if dim == 2:
        return word
    members = _clifford_members()
    member = members[rng.integers(len(members))]
    return member if dim == 4 else np.kron(member, word)


def _laid_out(M, layout):
    if layout == "transpose":  # an F-ordered view
        return M.T
    if layout == "strided":
        big = np.zeros((2 * len(M), 2 * len(M)), dtype=M.dtype)
        big[::2, ::2] = M
        return big[::2, ::2]
    return M


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([2, 4, 8]),
    kind=st.sampled_from(["haar", "clifford", "zero", "real", "integer"]),
    exact_phase=st.booleans(),
    layout=st.sampled_from(["c", "transpose", "strided"]),
    epsilon=st.sampled_from([1e-3, 1e-6, 1e-11, gates.MIN_EPSILON]),
)
def test_canonical_key_and_phase_fix_equal_the_reference(seed, dim, kind, exact_phase, layout, epsilon):
    # int32 grids at 1e-3 and 1e-6, int64 at 1e-11 and MIN_EPSILON
    rng = np.random.default_rng(seed)
    if kind == "haar":
        M = haar_unitary(dim, rng)
    elif kind == "zero":
        M = np.zeros((dim, dim), dtype=complex)
    elif kind == "integer":  # entries -2..2, the largest magnitude the keys take
        M = rng.integers(-2, 3, size=(dim, dim))
    else:
        M = _clifford_like(dim, rng)
        if kind == "real":  # ties at 1/2 and 1/sqrt(2) among real entries
            M = M.real.copy()
    if M.dtype == complex:
        M = M * (_PHASES[rng.integers(len(_PHASES))] if exact_phase else np.exp(2j * math.pi * rng.uniform()))
    U = _laid_out(M, layout)
    assert canonical_key(U, epsilon) == _reference_canonical_key(U, epsilon)
    fixed = phase_fix(U)
    assert fixed.dtype == complex
    # the reference fixes a real or integer U in its own dtype, where 0 * -1.0
    # keeps its sign: compare bytes on the complex copy, values on U itself
    assert fixed.tobytes() == _reference_phase_fix(np.asarray(U, dtype=complex)).tobytes()
    assert np.array_equal(fixed, _reference_phase_fix(U))


# --- the batched engine against per-matrix references ----------------------


def _reference_members(gs, max_depth):
    """(matrix, depth, word) of every ball member from a per-matrix loop:
    frontier rows in order, each multiplied by every gate in turn.  A word
    lists gate indices in the order they act."""
    eye = np.eye(gs.dim, dtype=complex)
    seen = {canonical_key(eye, gs.epsilon)}
    members = [(eye, 0, [])]
    frontier = [(eye, [])]
    for depth in range(1, max_depth + 1):
        new = []
        for U, word in frontier:
            for j, g in enumerate(gs.matrices()):
                V = g @ U
                key = canonical_key(V, gs.epsilon)
                if key not in seen:
                    seen.add(key)
                    new.append((V, word + [j]))
        members += [(V, depth, word) for V, word in new]
        frontier = new
    return members


def _reduced_length(word):
    """Free-group length of a word over random_inverse_closed_gateset,
    where gate 2i+1 is the dagger of gate 2i."""
    stack = []
    for g in word:
        if stack and stack[-1] == g ^ 1:
            stack.pop()
        else:
            stack.append(g)
    return len(stack)


def _int64_grid(U, epsilon):
    """Phase-fixed epsilon/dim grid of U as int64, written apart from gates.py."""
    flat = np.asarray(U).ravel()
    mags = np.abs(flat)
    z = flat[np.flatnonzero(mags >= mags.max() - 1e-12)[0]]
    fixed = flat * (np.conj(z) / abs(z))
    pitch = epsilon / U.shape[0]
    return np.concatenate([np.round(fixed.real / pitch), np.round(fixed.imag / pitch)]).astype(np.int64)


@pytest.mark.parametrize("seed", [5, 23])
def test_engine_agrees_with_search_lookup_and_free_group_length(seed):
    gs = random_inverse_closed_gateset(2, 4, seed)
    ball = sphere_growth(gs, max_depth=3)
    reference = _reference_members(gs, 3)
    assert len(ball.members) == len(reference) == 1 + 8 + 56 + 392
    for (U, depth), (R, ref_depth, word) in zip(ball.members, reference):
        assert depth == ref_depth == _reduced_length(word) == len(word)
        assert np.array_equal(U, R)
        assert ball.depth_of(U) == depth
        assert bfs_complexity(U, gs, 3) == depth


def _clifford_with_hs_gateset():
    # the Clifford generators are symmetric matrices, so multiplying on the
    # wrong side finds the same tree; the gate H1 S1 (not symmetric) breaks that
    gs = two_qubit_clifford_gateset()
    hs = gs.gates[0][1] @ gs.gates[2][1]
    return GateSet(2, gs.gates + (("h1s1", hs), ("s1dgh1", hs.conj().T)))


@pytest.mark.parametrize("make_gateset", [two_qubit_clifford_gateset, _clifford_with_hs_gateset])
def test_engine_member_order_matches_per_matrix_loop_across_blocks(make_gateset):
    # depth 5 expands hundreds of depth-4 rows, so many blocks; the
    # Clifford order is the one check_gate_metric_axioms samples members from
    gs = make_gateset()
    ball = sphere_growth(gs, max_depth=5)
    reference = _reference_members(gs, 5)
    assert ball.counts == [sum(d == depth for _, d, _ in reference) for depth in range(6)]
    assert [d for _, d in ball.members] == [d for _, d, _ in reference]
    assert all(np.array_equal(U, R) for (U, _), (R, _, _) in zip(ball.members, reference))


def test_sphere_growth_truncation_mid_layer(monkeypatch):
    gs = two_qubit_clifford_gateset()
    monkeypatch.setattr(gates, "_BLOCK_ROWS", 4)
    blocks = []
    row_keys = gates._row_keys

    def counted_row_keys(V, epsilon):
        blocks.append(len(V))
        return row_keys(V, epsilon)

    monkeypatch.setattr(gates, "_row_keys", counted_row_keys)
    ball = sphere_growth(gs, max_depth=20, max_elements=100)
    assert ball.truncated and not ball.saturated
    assert ball.counts == [1, 8, 41]
    assert ball.size == 50 == len(ball.members)
    # 50 + 41 * 8 > 100, so no block of depth 3 is keyed: 1 block at depth 1, 2 at depth 2
    assert blocks == [8, 32, 32]
    assert ball.counts == sphere_growth(gs, max_depth=len(ball.counts) - 1).counts


_PHASES = [1, 1j, -1, -1j, np.exp(0.25j * np.pi)]


def test_batched_keys_equal_canonical_key_on_fine_grids():
    # at a fine grid one last-bit difference in |z| moves about 1% of the keys
    rng = np.random.default_rng(303)
    for _ in range(100):
        stack = np.array([haar_unitary(4, rng) * np.exp(2j * math.pi * rng.uniform()) for _ in range(24)])
        for epsilon in (1e-11, 1e-13):
            assert gates._row_keys(stack, epsilon) == [canonical_key(U, epsilon) for U in stack]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 24),
    kind=st.sampled_from(["haar", "clifford", "perturbed"]),
    epsilon=st.sampled_from([1e-6, 1e-3, 1e-11]),
    exact_phases=st.booleans(),
)
def test_batched_keys_equal_canonical_key(seed, n, kind, epsilon, exact_phases):
    # the ball comes from a cached helper, not a fixture argument: hypothesis
    # prints every argument of a falsifying example, and the ball's repr is
    # large enough to raise a HypothesisWarning in place of the failure
    _, ball = _clifford_ball()
    rng = np.random.default_rng(seed)
    if kind == "clifford":  # magnitude ties at 1/2 and 1/sqrt(2)
        members = ball.members
        base = [members[i][0] for i in rng.integers(len(members), size=n)]
    else:
        base = [haar_unitary(4, rng) for _ in range(n)]
    if exact_phases:
        phases = [_PHASES[i] for i in rng.integers(len(_PHASES), size=n)]
    else:
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=n))
    stack = [p * U for p, U in zip(phases, base)]
    if kind == "perturbed":  # each unitary next to a sub-resolution neighbour
        stack += [U + 1e-3 * epsilon * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) for U in stack]
    stack = np.array(stack)
    keys = gates._row_keys(stack, epsilon)
    assert keys == [canonical_key(U, epsilon) for U in stack]
    # keys are exactly the int64 grids in a narrower type: one key per grid
    grids = [_int64_grid(U, epsilon).tobytes() for U in stack]
    dtype = np.int32 if epsilon > 1e-9 else np.int64
    assert [np.frombuffer(k, dtype).astype(np.int64).tobytes() for k in keys] == grids
    for i in range(len(stack)):
        for j in range(i):
            assert (keys[i] == keys[j]) == (grids[i] == grids[j])
