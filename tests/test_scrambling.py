import functools
import math

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import expit, gammaln

from complexitylab import scrambling
from complexitylab.cli import main
from complexitylab.scrambling import (
    _reachable_law,
    _step,
    logistic_size,
    precursor_complexity,
    scrambling_time,
    simulate_epidemic,
)


def expected_step_increment(K, s):
    """Exact one-step mean growth s(K - s)/(K - 1) of the infected count.

    Each uninfected qubit is infected exactly when its random partner is
    infected, which happens with probability s/(K - 1).
    """
    return s * (K - s) / (K - 1)


def all_pairings(qubits):
    if not qubits:
        yield ()
        return
    first, rest = qubits[0], qubits[1:]
    for i, partner in enumerate(rest):
        for tail in all_pairings(rest[:i] + rest[i + 1:]):
            yield ((first, partner),) + tail


def test_one_step_exact_enumeration_k4():
    # oracle: enumerate all perfect pairings of 4 qubits, one infected qubit
    pairings = list(all_pairings((0, 1, 2, 3)))
    assert len(pairings) == 3
    increments = []
    for pairing in pairings:
        infected = {0}
        for a, b in pairing:
            if a in infected or b in infected:
                infected |= {a, b}
        increments.append(len(infected) - 1)
    assert increments == [1, 1, 1]
    assert expected_step_increment(4, 1) == 1.0


def occupancy(K, s, n):
    """The occupancy vector of n trials that all hold s infected qubits."""
    counts = np.zeros(K + 1, dtype=np.int64)
    counts[s] = n
    return counts


def step_trials(K, s, n, rng):
    """One `_step` of n trials from s, as the sorted per-trial counts it leaves."""
    out = _step(K, occupancy(K, s, n), rng)
    assert out.sum() == n
    return np.repeat(np.arange(K + 1), out)


def test_one_step_simulator_is_deterministic_at_s1_k4():
    rng = np.random.default_rng(0)
    out = step_trials(4, 1, 500, rng)
    assert set(out.tolist()) == {2}


@pytest.mark.parametrize("s", [2, 8])
def test_one_step_increment_matches_formula(s):
    K = 10
    rng = np.random.default_rng(s)
    n = 20_000
    new = step_trials(K, s, n, rng)
    inc = new - s
    stderr = inc.std(ddof=1) / math.sqrt(n)
    assert abs(inc.mean() - expected_step_increment(K, s)) < 3 * stderr


@pytest.mark.parametrize("s", [0, 3, 5, 9])
def test_step_rejects_counts_unreachable_from_s1(s):
    counts = occupancy(10, 2, 100)
    counts[s] = 100
    with pytest.raises(ValueError, match="not all 1 or even"):
        _step(10, counts, np.random.default_rng(0))


@pytest.mark.parametrize("length", [8, 13])
def test_step_rejects_an_occupancy_vector_of_the_wrong_length(length):
    counts = np.zeros(length, dtype=np.int64)
    counts[2] = 100
    with pytest.raises(ValueError, match=f"length {length}, not K \\+ 1 = 11"):
        _step(10, counts, np.random.default_rng(0))


def test_k2_fully_infected_after_one_step():
    traj = simulate_epidemic(2, 3, trials=200, seed=4)
    assert traj.mean_infected[1] == 2.0
    assert traj.std_error[1] == 0.0


def test_trajectory_invariants():
    traj = simulate_epidemic(10, 24, trials=2000, seed=8)
    assert np.all(np.diff(traj.mean_infected) >= 0)
    assert np.all(traj.mean_infected >= 1.0)
    assert np.all(traj.mean_infected <= 10.0)
    # saturation in every trial by tau = 10 ln K ~ 23
    assert traj.mean_infected[-1] == 10.0
    assert traj.std_error[-1] == 0.0


def test_trajectory_reproducible():
    a = simulate_epidemic(6, 8, trials=5000, seed=13)
    b = simulate_epidemic(6, 8, trials=5000, seed=13)
    assert np.array_equal(a.mean_infected, b.mean_infected)
    assert np.array_equal(a.std_error, b.std_error)


def test_epidemic_rejects_bad_input():
    with pytest.raises(ValueError):
        simulate_epidemic(5, 3, 10, 0)
    with pytest.raises(ValueError):
        simulate_epidemic(4, 3, 0, 0)


def test_logistic_values():
    K = 10
    tau_star = scrambling_time(K)
    assert logistic_size(tau_star, K) == pytest.approx(0.5)
    assert logistic_size(tau_star + math.log(3), K) == pytest.approx(0.75)
    assert logistic_size(200.0, K) == pytest.approx(1.0)


def test_logistic_matches_expit_within_4_ulp():
    K = 10
    taus = np.linspace(-800.0, 800.0, 160_001) + scrambling_time(K)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        got = logistic_size(taus, K)
    x = taus - scrambling_time(K)
    # expit's own e^(-x) overflows below x = -709.78 and it returns 0; there
    # e^x / (1 + e^x) rounds to e^x
    ref = expit(x)
    tail = x <= -700.0
    ref[tail] = np.exp(x[tail])
    assert np.all(np.abs(got - ref) <= 4 * np.spacing(ref))
    assert all(logistic_size(float(t), K) == g for t, g in zip(taus[::1000], got[::1000]))


def test_scrambling_time_values():
    assert scrambling_time(10) == pytest.approx(2.302585092994046)
    assert scrambling_time(2) == pytest.approx(0.6931471805599453)


@given(st.integers(min_value=2, max_value=1000))
def test_scrambling_time_log_law(K):
    assert scrambling_time(K * K) == pytest.approx(2 * scrambling_time(K))


def test_precursor_values():
    K = 10
    tau_star = scrambling_time(K)
    assert precursor_complexity(tau_star, K) == pytest.approx(K * math.log(2))
    # far below the crossover the growth is exp(tau)
    tau = tau_star - 25.0
    assert precursor_complexity(tau, K) / math.exp(tau) == pytest.approx(1.0, rel=1e-9)
    # far above it is linear with slope K
    tau = tau_star + 10.0
    assert precursor_complexity(tau, K) == pytest.approx(K * 10.0, rel=1e-4)


@settings(max_examples=50)
@given(st.floats(min_value=-5.0, max_value=15.0), st.integers(min_value=2, max_value=64))
def test_precursor_derivative_is_size(tau, K):
    h = 1e-5
    fd = (precursor_complexity(tau + h, K) - precursor_complexity(tau - h, K)) / (2 * h)
    assert abs(fd - K * logistic_size(tau, K)) < 1e-8


def test_mc_tracks_logistic_k10():
    traj = simulate_epidemic(10, 12, trials=20_000, seed=2)
    curve = logistic_size(traj.taus, 10)
    assert np.max(np.abs(traj.mean_infected / 10 - curve)) < 0.06


# --- oracles for the one-step law; none shares code with the sampler ----------


def argsort_step_counts(K, s, rng):
    """Reference sampler: argsort a uniform (n, K) matrix into pairings of
    consecutive entries; qubits 0..s-1 are infected and every pair that
    touches one ends fully infected."""
    n = s.shape[0]
    perms = np.argsort(rng.random((n, K)), axis=1)
    touched = perms.reshape(n, K // 2, 2) < s[:, None, None]
    return 2 * touched.any(axis=2).sum(axis=1)


def enumerated_law(K, s):
    """P(m) of m infected-infected pairs by counting every perfect pairing."""
    counts = {}
    pairings = list(all_pairings(tuple(range(K))))
    for pairing in pairings:
        m = sum(a < s and b < s for a, b in pairing)
        counts[m] = counts.get(m, 0) + 1
    return {m: Fraction(c, len(pairings)) for m, c in counts.items()}, len(pairings)


def odd_factorial(n):
    """(n)!! for odd n, with (-1)!! = 1."""
    return math.prod(range(n, 0, -2))


def closed_form_law(K, s):
    """Exact P(m) from the closed form, in integers."""
    law = {}
    for m in range(max(0, s - K // 2), s // 2 + 1):
        rest = K - 2 * s + 2 * m
        ways = (
            math.comb(s, 2 * m) * odd_factorial(2 * m - 1)
            * math.perm(K - s, s - 2 * m) * odd_factorial(rest - 1)
        )
        law[m] = Fraction(ways, odd_factorial(K - 1))
    return law


def log_odd_factorial(n):
    """ln (n-1)!! for even n."""
    return gammaln(n + 1) - (n / 2) * math.log(2) - gammaln(n / 2 + 1)


def chain_moments(K, max_steps):
    """Exact mean and variance of s(tau) from s(0) = 1, iterating the
    closed-form law (in log-gamma form) over the full distribution."""
    dist = np.zeros(K + 1)
    dist[1] = 1.0
    counts = np.arange(K + 1)
    means, variances = [], []
    for _ in range(max_steps + 1):
        means.append(dist @ counts)
        variances.append(max(dist @ counts**2 - means[-1] ** 2, 0.0))
        nxt = np.zeros(K + 1)
        for s in np.flatnonzero(dist):
            m = np.arange(max(0, s - K // 2), s // 2 + 1)
            rest = K - 2 * s + 2 * m
            logp = (
                gammaln(s + 1) - gammaln(2 * m + 1) - gammaln(s - 2 * m + 1) + log_odd_factorial(2 * m)
                + gammaln(K - s + 1) - gammaln(rest + 1) + log_odd_factorial(rest) - log_odd_factorial(K)
            )
            np.add.at(nxt, 2 * (s - m), dist[s] * np.exp(logp))
        dist = nxt
    return np.array(means), np.array(variances)


@pytest.mark.parametrize("K", [4, 6, 8])
def test_sampler_table_equals_pairing_enumeration(K):
    # the cached rows are the reachable counts, s = 1 and even s, s at row
    # s // 2, zero-padded to the widest row with the last count repeated;
    # one step from each lands on {2(s - m)} with the enumerated frequencies
    probs, dests, widths = _reachable_law(K)
    reachable = [1] + list(range(2, K + 1, 2))
    assert len(probs) == len(dests) == len(widths) == len(reachable)
    assert probs.shape == dests.shape == (len(reachable), widths.max())
    n = 20_000
    for s in reachable:
        exact, count = enumerated_law(K, s)
        assert count == odd_factorial(K - 1)
        ms = sorted(exact)
        r, w = s // 2, widths[s // 2]
        assert dests[r, :w].tolist() == [2 * (s - m) for m in ms]
        assert np.all(dests[r, w:] == dests[r, w - 1])
        assert np.allclose(probs[r, :w], [float(exact[m]) for m in ms], rtol=0, atol=1e-12)
        assert np.all(probs[r, w:] == 0.0)
        out = _step(K, occupancy(K, s, n), np.random.default_rng([K, s]))
        assert out.sum() == n
        assert set(np.flatnonzero(out).tolist()) == {2 * (s - m) for m in ms}
        if len(ms) > 1:
            observed = [out[2 * (s - m)] for m in ms]
            assert stats.chisquare(observed, [n * float(exact[m]) for m in ms]).pvalue > 1e-4


@pytest.mark.parametrize("K", [10, 1000])
def test_law_mean_is_exact_increment(K):
    probs, dests, widths = _reachable_law(K)
    for s in [1] + list(range(2, K + 1, 2)):
        prob = probs[s // 2]
        assert prob.sum() == pytest.approx(1.0, abs=1e-12)
        assert prob @ dests[s // 2] == pytest.approx(s + expected_step_increment(K, s), rel=1e-12)


@pytest.mark.parametrize("K", [100, 1000])
def test_law_rows_do_not_depend_on_their_block(K, monkeypatch):
    # built one row at a time, every row has the bits of the default build
    probs, dests, widths = _reachable_law(K)
    monkeypatch.setattr(scrambling, "_BLOCK", 1)
    single = _reachable_law.__wrapped__(K)
    assert all(np.array_equal(a, b) for a, b in zip(single, (probs, dests, widths)))


@pytest.mark.parametrize("K, s", [(10, 4), (1000, 40), (1000, 600)])
def test_one_step_draws_chi_square(K, s):
    law = closed_form_law(K, s)
    n = 200_000
    out = _step(K, occupancy(K, s, n), np.random.default_rng(K + s))
    ms = sorted(law)
    observed = out[2 * (s - np.array(ms))]
    assert observed.sum() == out.sum() == n  # no draw outside the support
    expected = n * np.array([float(law[k]) for k in ms])
    # pool the bins expected to hold fewer than 5 draws into their neighbours
    keep = expected >= 5
    edges = np.flatnonzero(keep)
    groups = np.clip(np.searchsorted(edges, np.arange(len(ms)), side="right") - 1, 0, None)
    obs = np.bincount(groups, weights=observed)
    exp = np.bincount(groups, weights=expected)
    assert obs.size >= 2
    assert stats.chisquare(obs, exp * obs.sum() / exp.sum()).pvalue > 1e-4


@pytest.mark.parametrize("s", [40, 600])
def test_sampler_matches_argsort_reference_k1000(s):
    K, n = 1000, 16_384
    ref = np.concatenate(
        [argsort_step_counts(K, np.full(4096, s, dtype=np.int64), np.random.default_rng([7, i])) for i in range(n // 4096)]
    )
    new = _step(K, occupancy(K, s, n), np.random.default_rng(7))
    values = np.union1d(ref, np.flatnonzero(new))
    table = np.array([[np.sum(ref == v) for v in values], new[values]])
    table = table[:, table.sum(axis=0) >= 10]
    assert stats.chi2_contingency(table).pvalue > 1e-4


@pytest.mark.parametrize("K, steps, trials, seed", [(10, 12, 20_000, 3), (1000, 14, 4096, 5)])
def test_mc_matches_exact_chain(K, steps, trials, seed):
    mean, var = chain_moments(K, steps)
    traj = simulate_epidemic(K, steps, trials, seed)
    for tau in range(steps + 1):
        if var[tau] == 0.0:
            assert traj.mean_infected[tau] == mean[tau]
        else:
            z = (traj.mean_infected[tau] - mean[tau]) / math.sqrt(var[tau] / trials)
            assert abs(z) < 5, (tau, z)


POOLED = ((10, 12, 100_000), (1000, 14, 4096))


def pooled_max_z(K, steps, trials, seeds=range(100)):
    """Largest |z| over tau, with var > 0, of the mean pooled over seeds
    against the exact chain; a zero-variance tau must match exactly."""
    mean, var = chain_moments(K, steps)
    pooled = np.mean([simulate_epidemic(K, steps, trials, seed).mean_infected for seed in seeds], axis=0)
    spread = var > 0
    assert np.array_equal(pooled[~spread], mean[~spread])
    return float(np.max(np.abs(pooled - mean)[spread] / np.sqrt(var[spread] / (trials * len(seeds)))))


@pytest.mark.parametrize("K, steps, trials", POOLED)
def test_pooled_mc_matches_exact_chain(K, steps, trials):
    assert pooled_max_z(K, steps, trials) < 4


@pytest.mark.parametrize("K, steps, trials", POOLED)
def test_pooled_chain_test_rejects_a_biased_law(K, steps, trials, monkeypatch):
    @functools.lru_cache(maxsize=None)
    def biased(K):
        probs, dests, widths = _reachable_law(K)
        q = probs**1.02
        return q / q.sum(axis=1, keepdims=True), dests, widths

    monkeypatch.setattr(scrambling, "_reachable_law", biased)
    assert pooled_max_z(K, steps, trials) >= 4


def test_exact_chain_doubles_per_step_at_k1000():
    K = 1000
    mean, _ = chain_moments(K, 12)
    assert np.round(mean[:6], 1).tolist() == [1.0, 2.0, 4.0, 8.0, 15.9, 31.6]
    # the half-way crossover sits near log2 K, not at the logistic's ln K
    half = int(np.argmax(mean >= K / 2))
    assert abs(half - math.log2(K)) < 1
    assert abs(mean[8] / K - logistic_size(8.0, K)) == pytest.approx(0.52, abs=0.005)


def test_epidemic_rejects_negative_steps():
    with pytest.raises(ValueError, match="max_steps"):
        simulate_epidemic(10, -1, 10, 0)


@pytest.mark.parametrize("trials", [2**53 + 1, 2**63 - 1, 10**20])
def test_epidemic_refuses_more_trials_than_float64_counts_exactly(trials):
    with pytest.raises(ValueError, match=rf"trials must be between 1 and 2\^53, got {trials}$"):
        simulate_epidemic(10, 3, trials, 0)


def test_step_keeps_a_total_of_2_to_the_53_trials_exact():
    # the largest total a step's float64 weights hold exactly: every partial sum is an integer <= 2^53
    rng = np.random.default_rng(5)
    counts = occupancy(10, 1, 2**53)
    for _ in range(4):
        counts = _step(10, counts, rng)
        assert counts.dtype == np.int64 and int(counts.sum()) == 2**53
    assert np.count_nonzero(counts) > 2  # the trials have spread over several counts


# --- the per-step padding sampler that `_step` replaced, as its oracle --------


@functools.lru_cache(maxsize=None)
def ragged_law(K):
    """The rows of `_reachable_law` cut to their widths and laid end to end:
    row r is p[starts[r]:starts[r+1]] and begins at m = m_lo[r]."""
    probs, _, widths = _reachable_law(K)
    s = np.concatenate(([1], np.arange(2, K + 1, 2)))
    starts = np.concatenate(([0], np.cumsum(widths)))
    p = np.concatenate([probs[r, :w] for r, w in enumerate(widths.tolist())])
    return starts, np.maximum(0, s - K // 2), p


def reference_step(K, counts, rng):
    """One step over the ragged law rows, padded afresh each step: the
    flat indices of every occupied row are cut at the row's last entry,
    the cut cells get probability 0 and the count of the last m."""
    occupied = np.flatnonzero(counts)
    r = occupied >> 1
    starts, m_lo, p = ragged_law(K)
    first, last = starts[r], starts[r + 1] - 1
    flat = first[:, None] + np.arange((last - first).max() + 1)
    pad = flat > last[:, None]
    np.minimum(flat, last[:, None], out=flat)
    pvals = p[flat]
    pvals[pad] = 0.0
    draws = rng.multinomial(counts[occupied], pvals)
    new = (2 * (occupied - m_lo[r] + first))[:, None] - 2 * flat  # 2(s - m)
    return np.bincount(new.ravel(), weights=draws.ravel(), minlength=K + 1).astype(np.int64)


@pytest.mark.parametrize("K, trials", [(2, 50), (4, 500), (10, 100_000), (100, 5000), (1000, 4096)])
def test_step_equals_the_per_step_padding_reference(K, trials):
    # the same counts after every step, and the same generator state, so
    # the padded table draws exactly what the reference draws
    for seed in range(5):
        new = ref = occupancy(K, 1, trials)
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(14):
            new, ref = _step(K, new, rng_new), reference_step(K, ref, rng_ref)
            assert np.array_equal(new, ref)
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_scramble_csv_is_the_same_with_the_reference_step(tmp_path, monkeypatch):
    assert main(["scramble", "--outdir", str(tmp_path / "new")]) == 0
    calls = []

    def counted(*args):
        calls.append(args[0])
        return reference_step(*args)

    monkeypatch.setattr(scrambling, "_step", counted)
    assert main(["scramble", "--outdir", str(tmp_path / "ref")]) == 0
    assert calls == [10] * 12
    assert (tmp_path / "new" / "scramble.csv").read_bytes() == (tmp_path / "ref" / "scramble.csv").read_bytes()
