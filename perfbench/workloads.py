"""The three benchmark workloads.

Each workload is built from the seed in its constructor (the timed
set-up), runs its fixed work in ``run_round`` (the timed round), and
checks the outputs of a round in ``check`` after the clock has stopped.
Every call into the program goes through a module attribute
(``gates.sphere_growth``, not a name bound at import), so the traced
run's wrappers see it.

``run_round`` takes the worker's calibrator (calibration.py), if any, so
a workload can select the calibration kernel that matches a phase.
Every round reports the same end-to-end quantities, each defined per
workload (see README.md), as ``time.perf_counter`` intervals that the
worker converts to seconds:

  wall      the round's fixed work
  ops       the workload's unit operations
  kernel    its bulk kernel, with kernel_work units of work done in it
  probes    its secondary operations
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass, field
from time import perf_counter as time_now

import numpy as np

from complexitylab import acceptance, cli, gates, holography, scrambling, thermofield

import oracles
from measure import Outcomes


Interval = tuple[float, float]


@dataclass
class Round:
    wall: Interval
    ops: list[Interval]
    kernel_work: float
    kernel: list[Interval]
    probes: list[Interval]
    outputs: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


def calibrating(cal, kind: str):
    """Calibrate with the ``kind`` kernel inside the block, when calibrating."""
    return cal.kernel(kind) if cal is not None else contextlib.nullcontext()


def word_matrix(mats: list[np.ndarray], word: list[int]) -> np.ndarray:
    """Product of the gates of ``word``, the first index applied first."""
    U = np.eye(mats[0].shape[0], dtype=complex)
    for g in word:
        U = mats[g] @ U
    return U


def bfs_products(ball, n_gates: int) -> int:
    """Gate x frontier products sphere_growth made for ``ball``: every layer
    reached was expanded, except the last one of an unsaturated ball."""
    expanded = ball.counts if ball.saturated else ball.counts[:-1]
    return n_gates * sum(expanded)


class PaperSuite:
    """``complexitylab paper-suite`` through cli.main: the ten acceptance checks.

    Its inputs are the seeds fixed inside acceptance.py; the workload
    seed does not change them.  The unit operation is the whole suite:
    the per-check times differ by four orders of magnitude, so their
    median would jump between checks from run to run.
    """

    name = "paper-suite"
    # curvature-ensemble draws 40 + 200 pairs, then 200, 150, 100, 50 at K = 4, 6, 8, 10
    CURVATURE_PAIRS = 740
    KERNEL_CHECK = "curvature-ensemble"
    PROBE_CHECK = "gate-metric-axioms"
    VECTOR_CHECKS = ("curvature-ensemble",)  # calibrated with the dense-linear-algebra kernel

    def __init__(self, seed: int, outdir: str):
        self.outdir = os.path.join(outdir, "paper-suite")
        os.makedirs(self.outdir, exist_ok=True)
        self.argv = ["paper-suite", "--outdir", self.outdir]
        self.check_names = [name for name, _ in acceptance.CHECKS]

    def describe(self) -> dict:
        return {"inputs": "seeds fixed in acceptance.py; --seed only labels the run", "checks": self.check_names}

    def run_round(self, outcomes: Outcomes, cal=None) -> Round:
        spans: dict[str, Interval] = {}
        ops: dict[str, int] = {}
        saved = list(acceptance.CHECKS)

        def timed(name, fn):
            def run_check():
                with calibrating(cal, "vector" if name in self.VECTOR_CHECKS else "python"):
                    t0 = time_now()
                    try:
                        result, _, ops[name] = outcomes.run(f"check {name}", fn, reraise=True)
                    finally:
                        spans[name] = (t0, time_now())
                return result

            return run_check

        acceptance.CHECKS[:] = [(name, timed(name, fn)) for name, fn in saved]
        out = io.StringIO()
        try:
            t0 = time_now()
            with contextlib.redirect_stdout(out):
                code = cli.main(self.argv)
            wall = (t0, time_now())
        finally:
            acceptance.CHECKS[:] = saved
        return Round(
            wall=wall,
            ops=[wall],
            kernel_work=self.CURVATURE_PAIRS,
            kernel=[spans[self.KERNEL_CHECK]],
            probes=[spans[self.PROBE_CHECK]],
            outputs={"code": code, "stdout": out.getvalue(), "ops": ops},
        )

    def check(self, r: Round, outcomes: Outcomes) -> None:
        lines = r.outputs["stdout"].splitlines()
        passed = {line.split()[1] for line in lines if line.startswith("PASS ")}
        for name, op in r.outputs["ops"].items():
            outcomes.check(op, name in passed, f"check {name}", "did not print PASS")
        csv_path = os.path.join(self.outdir, "paper_suite.csv")
        outcomes.add_check(
            r.outputs["code"] == 0 and len(passed) == len(self.check_names) and os.path.getsize(csv_path) > 0,
            "paper-suite run",
            f"exit code {r.outputs['code']}, {len(passed)} of {len(self.check_names)} PASS",
        )


class GateBfs:
    """Breadth-first gate complexity on two gate sets.

    * sphere_growth of the 2-qubit Clifford set (many collisions: 92,161
      keys for 11,520 elements) and of random_inverse_closed_gateset(2, 4,
      seed) to depth 6 (no collisions, 157k keys, past the L2 cache);
    * depth_of queries on products of two members of each ball, reads
      after the ball-building writes;
    * bfs_complexity from scratch on length-4 words of the random set,
      the early-exit search.  Their positions in the search order are
      stratified so the median search is steady.

    The searches are the unit operations (p50 and p90); the 30 us
    queries are the probes, reported by their median only: their tail
    follows sub-millisecond changes of host speed that no calibration
    resolves.
    """

    name = "gate-bfs"
    RANDOM_DEPTH = 6
    CLIFFORD_MAX_DEPTH = 20
    QUERY_PAIRS = 2000  # per ball
    QUERY_MAX_LEN = 6
    SEARCH_LEN = 4
    SEARCHES = 48

    def __init__(self, seed: int, outdir: str):
        rng = np.random.default_rng([seed, 1])
        self.clifford = gates.two_qubit_clifford_gateset()
        self.random = gates.random_inverse_closed_gateset(2, 4, seed)
        cm, rm = self.clifford.matrices(), self.random.matrices()
        eye = np.eye(4)
        for i in range(0, len(rm), 2):
            if np.max(np.abs(rm[i] @ rm[i + 1] - eye)) > 1e-9:
                raise ValueError(f"random gate set: gates {i} and {i + 1} are not inverse")
        n = len(rm)

        def random_reduced(length):
            word = []
            while len(word) < length:
                g = int(rng.integers(n))
                if not word or g != oracles.inverse_index(word[-1]):
                    word.append(g)
            return word

        self.queries = []  # (ball name, M, M^dag, expected depth or None, word-length bound)
        for _ in range(self.QUERY_PAIRS):
            w1, w2 = (random_reduced(int(rng.integers(self.RANDOM_DEPTH + 1))) for _ in range(2))
            M = word_matrix(rm, w1) @ word_matrix(rm, w2).conj().T
            depth = oracles.reduced_length(oracles.inverse_word(w2) + w1)
            expected = depth if depth <= self.RANDOM_DEPTH else None
            self.queries.append(("random", M, M.conj().T, expected, len(w1) + len(w2)))
        for _ in range(self.QUERY_PAIRS):
            w1, w2 = ([int(g) for g in rng.integers(len(cm), size=rng.integers(self.QUERY_MAX_LEN + 1))] for _ in range(2))
            M = word_matrix(cm, w1) @ word_matrix(cm, w2).conj().T
            self.queries.append(("clifford2", M, M.conj().T, None, len(w1) + len(w2)))
        layer = n * (n - 1) ** (self.SEARCH_LEN - 1)
        self.searches = []  # (target, word)
        for i in range(self.SEARCHES):
            rank = int((i + rng.random()) * layer / self.SEARCHES)
            word = oracles.reduced_word_at_rank(rank, self.SEARCH_LEN, n)
            self.searches.append((word_matrix(rm, word), word))

    def describe(self) -> dict:
        keys = sum(oracles.free_layers(len(self.random.gates), self.RANDOM_DEPTH))
        dim2 = self.random.dim**2
        return {
            "queries": 2 * len(self.queries),
            "searches": len(self.searches),
            "search_word_length": self.SEARCH_LEN,
            "random_ball_keys": keys,
            # a member is a complex dim x dim matrix plus a key of two int64 grids
            "random_ball_bytes_computed": keys * 32 * dim2,
        }

    def run_round(self, outcomes: Outcomes, cal=None) -> Round:
        t0 = time_now()
        ball_c, growth_c, op_c = outcomes.run("sphere_growth clifford2", gates.sphere_growth, self.clifford, self.CLIFFORD_MAX_DEPTH)
        ball_r, growth_r, op_r = outcomes.run("sphere_growth random", gates.sphere_growth, self.random, self.RANDOM_DEPTH)
        balls = {"clifford2": ball_c, "random": ball_r}
        query_iv, query_out = [], []
        for kind, M, Md, _, _ in self.queries:
            ball = balls[kind]
            if ball is None:
                continue
            d1, iv1, op1 = outcomes.run("depth_of", ball.depth_of, M)
            d2, iv2, op2 = outcomes.run("depth_of", ball.depth_of, Md)
            query_iv += (iv1, iv2)
            query_out.append((d1, d2, op1, op2))
        search_iv, search_out = [], []
        for target, _ in self.searches:
            d, iv, op = outcomes.run("bfs_complexity", gates.bfs_complexity, target, self.random, self.RANDOM_DEPTH)
            search_iv.append(iv)
            search_out.append((d, op))
        wall = (t0, time_now())
        products = sum(bfs_products(b, len(gs.gates)) for b, gs in ((ball_c, self.clifford), (ball_r, self.random)) if b is not None)
        return Round(
            wall=wall,
            ops=search_iv,
            kernel_work=products,
            kernel=[growth_c, growth_r],
            probes=query_iv,
            outputs={"balls": balls, "growth_ops": (op_c, op_r), "queries": query_out, "searches": search_out},
        )

    def check(self, r: Round, outcomes: Outcomes) -> None:
        balls = r.outputs["balls"]
        ball_c, ball_r = balls["clifford2"], balls["random"]
        op_c, op_r = r.outputs["growth_ops"]
        if ball_c is not None:
            outcomes.check(op_c, ball_c.counts == oracles.CLIFFORD2_LAYERS and ball_c.saturated,
                           "clifford2 layers", f"{ball_c.counts} saturated={ball_c.saturated}")
        if ball_r is not None:
            expected = oracles.free_layers(len(self.random.gates), self.RANDOM_DEPTH)
            outcomes.check(op_r, ball_r.counts == expected, "random layers", f"{ball_r.counts} != {expected}")
        live = [q for q in self.queries if balls[q[0]] is not None]
        for (kind, _, _, expected, bound), (d1, d2, op1, op2) in zip(live, r.outputs["queries"]):
            for op in (op1, op2):
                outcomes.check(op, d1 == d2, f"{kind} query", f"asymmetric: {d1} vs {d2}")
                if kind == "random":
                    outcomes.check(op, d1 == expected, f"{kind} query", f"depth {d1}, reduced word length {expected}")
                else:
                    outcomes.check(op, d1 is not None and d1 <= min(bound, len(ball_c.counts) - 1), f"{kind} query", f"depth {d1}")
        for (target, word), (d, op) in zip(self.searches, r.outputs["searches"]):
            ref = ball_r.depth_of(target) if ball_r is not None else d
            want = oracles.reduced_length(word)
            outcomes.check(op, d is not None and d == ref == want and d <= len(word), "bfs_complexity",
                           f"search {d}, ball {ref}, reduced word length {want}")
        r.outputs.clear()  # drop the balls before the next round


def circuit_entropy(K: int, n_gates: int, seed: int) -> float:
    """Entanglement entropy of half of a scrambled K-qubit circuit state."""
    half = 1 << (K // 2)
    psi = thermofield.scrambled_circuit_state(K, n_gates, seed)
    return thermofield.von_neumann_entropy(thermofield.partial_trace(psi, side="left", dims=(half, half)))


class WormholeScramble:
    """Holography, scrambling and thermofield work, with no Pauli or gate
    matrix products.

    * interior_volume on volume_curve's geometric grid, eta = 1e-1 .. 1e-7,
      for (d, mu) = (4, 100), (5, 10), (6, 1); 34 points each, so the p90
      of the 102 slices has ten beyond it.  The near-critical slices raise
      IntegrationWarning at the seed commit and stay in the grid;
    * simulate_epidemic at K = 10 with 100k trials and at K = 1000 with
      4096 trials (several calls each), on either side of a
      sampling-versus-exact choice;
    * scrambled_circuit_state at K = 10 with partial_trace and
      von_neumann_entropy.
    """

    name = "wormhole-scramble"
    SPECS = ((4, 100.0), (5, 10.0), (6, 1.0))
    ETA_MAX, ETA_MIN, POINTS = 1e-1, 1e-7, 34
    LATE_ETA = 1e-6  # the late-slope fit uses the last decade of the grid
    SLOPE_TOL = 0.02
    K_SMALL, STEPS_SMALL, TRIALS_SMALL, CALLS_SMALL = 10, 12, 100_000, 6
    K_LARGE, STEPS_LARGE, TRIALS_LARGE, CALLS_LARGE = 1000, 14, 4096, 3
    EPIDEMIC_SIGMAS = 5.0
    CIRCUIT_K, CIRCUIT_GATES, CIRCUITS = 10, 300, 8
    PAGE_TOL = 0.02

    def __init__(self, seed: int, outdir: str):
        rng = np.random.default_rng([seed, 2])
        etas = np.geomspace(self.ETA_MAX, self.ETA_MIN, self.POINTS)
        self.slices = []  # (spec, eta, E)
        for d, mu in self.SPECS:
            spec = holography.BlackHoleSpec(d=d, mu=mu)
            e_c = holography.critical_energy(spec)
            self.slices += [(spec, float(eta), e_c * (1.0 - eta)) for eta in etas]
        draw = lambda n: [int(s) for s in rng.integers(2**31, size=n)]
        self.small_seeds = draw(self.CALLS_SMALL)
        self.large_seeds = draw(self.CALLS_LARGE)
        self.circuit_seeds = draw(self.CIRCUITS)

    def describe(self) -> dict:
        return {
            "slices": len(self.slices),
            "epidemic_K10_calls": len(self.small_seeds),
            "epidemic_K10_trial_steps_per_call": self.TRIALS_SMALL * self.STEPS_SMALL,
            "epidemic_K1000_calls": len(self.large_seeds),
            "epidemic_K1000_trial_steps_per_call": self.TRIALS_LARGE * self.STEPS_LARGE,
            "circuits": len(self.circuit_seeds),
        }

    def run_round(self, outcomes: Outcomes, cal=None) -> Round:
        t0 = time_now()
        slice_iv, slice_out = [], []
        for spec, eta, E in self.slices:
            p, iv, op = outcomes.run(f"interior_volume d={spec.d} eta={eta:.3g}", holography.interior_volume, spec, E)
            slice_iv.append(iv)
            slice_out.append((p, op))
        small_iv, large_iv, epidemics = [], [], []
        with calibrating(cal, "vector"):  # vectorised numpy work, like the dense kernels
            for K, steps, trials, seeds, ivs in (
                (self.K_SMALL, self.STEPS_SMALL, self.TRIALS_SMALL, self.small_seeds, small_iv),
                (self.K_LARGE, self.STEPS_LARGE, self.TRIALS_LARGE, self.large_seeds, large_iv),
            ):
                for seed in seeds:
                    traj, iv, op = outcomes.run(f"simulate_epidemic K={K}", scrambling.simulate_epidemic, K, steps, trials, seed)
                    ivs.append(iv)
                    epidemics.append((traj, op))
        entropies = [outcomes.run("circuit entropy", circuit_entropy, self.CIRCUIT_K, self.CIRCUIT_GATES, s)[0]
                     for s in self.circuit_seeds]
        wall = (t0, time_now())
        warned = sum(outcomes.states[op] == "warned" for _, op in slice_out)
        return Round(
            wall=wall,
            ops=slice_iv,
            kernel_work=len(large_iv) * self.TRIALS_LARGE * self.STEPS_LARGE,
            kernel=large_iv,
            probes=small_iv,
            outputs={"slices": slice_out, "epidemics": epidemics, "entropies": entropies},
            counters={"holography.warned_slices": warned},
        )

    def check(self, r: Round, outcomes: Outcomes) -> None:
        slices = r.outputs["slices"]
        for d, mu in self.SPECS:
            late = [p for (spec, eta, _), (p, _) in zip(self.slices, slices)
                    if spec.d == d and eta <= self.LATE_ETA * (1 + 1e-9)]
            v_d = oracles.critical_volume_rate(d, mu)
            if any(p is None for p in late):
                outcomes.add_check(False, f"late slope d={d}", "a late slice raised")
                continue
            omega = 2 * math.pi ** ((d - 1) / 2) / math.gamma((d - 1) / 2)
            slope = oracles.least_squares_slope([p.boundary_time_sum for p in late],
                                                [omega * p.interior_volume_per_sphere for p in late])
            outcomes.add_check(abs(slope / v_d - 1) < self.SLOPE_TOL, f"late slope d={d}",
                               f"slope {slope:.6g} vs V_d {v_d:.6g}")
        for traj, op in r.outputs["epidemics"]:
            if traj is None:
                continue
            # the exact standard error: with few trials at K = 1000 every
            # trial can reach 4, and the sample's own standard error is 0
            exact = oracles.epidemic_mean_tau2(traj.K)
            stderr = oracles.epidemic_stderr_tau2(traj.K, traj.trials)
            err = abs(traj.mean_infected[2] - exact)
            outcomes.check(op, err <= self.EPIDEMIC_SIGMAS * stderr, f"epidemic K={traj.K}",
                           f"mean {traj.mean_infected[2]:.6g} vs exact {exact:.6g} ({err / stderr:.1f} stderr)")
        ents = [s for s in r.outputs["entropies"] if s is not None]
        page = oracles.page_entropy(1 << (self.CIRCUIT_K // 2))
        mean = sum(ents) / len(ents) if ents else math.nan
        outcomes.add_check(abs(mean / page - 1) < self.PAGE_TOL, "page entropy", f"mean {mean:.4f} vs {page:.4f}")
        r.outputs.clear()


WORKLOADS = {w.name: w for w in (PaperSuite, GateBfs, WormholeScramble)}
