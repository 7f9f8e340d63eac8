"""Acceptance suite: ten end-to-end checks at fixed seeds and tolerances.

Each test prints one uncaptured PASS/FAIL line so the verdicts are visible in
a plain ``pytest`` run.  Expensive artifacts (the parameter grid, the
200-replication batch) are built once per module and shared.

Numbers quoted in assertions were measured on the frozen seeds below and are
asserted at the stated tolerances, never tightened to the observed values.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

import fedlinucb.analysis as analysis
from fedlinucb import (
    HyperParams,
    ProblemInstance,
    Schedule,
    bias_demo,
    gen_instance,
    gen_schedule,
    run_fedlinucb,
    run_independent_oful,
    theoretical_comm_bound,
    theoretical_regret_bound,
)
from test_simulator import differing, public_step_run

GRID_D = (2, 8)
GRID_M = (1, 4, 16)
GRID_T = (10**3, 10**4)
GRID_SEED = 101

REP_COUNT = 200
REP_SEED = 1000
REP_HP = dict(lam=1.0, alpha=1.0 / 16.0, delta=0.1)

SLOPE_TS = (10**3, 4 * 10**3, 16 * 10**3)
SLOPE_REPS = 20
SLOPE_SEED = 500


def announce(capsys, index, label, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\n[{index:>2}/10] {label}: {status} ({detail})")


@dataclass
class GridCell:
    d: int
    M: int
    T: int
    inst: ProblemInstance
    hp: HyperParams
    trace: object
    seconds: float


@pytest.fixture(scope="module")
def grid():
    cells = []
    for d in GRID_D:
        for M in GRID_M:
            for T in GRID_T:
                inst = gen_instance("random-sphere", d=d, K=10, seed=GRID_SEED)
                hp = HyperParams(lam=1.0, alpha=1.0 / (M * M), delta=0.01)
                sched = gen_schedule("round-robin", M=M, T=T)
                t0 = time.perf_counter()
                trace = run_fedlinucb(inst, sched, hp)
                cells.append(GridCell(d, M, T, inst, hp, trace, time.perf_counter() - t0))
    return cells


@pytest.fixture(scope="module")
def replications():
    hp = HyperParams(**REP_HP)
    sched = gen_schedule("round-robin", M=4, T=2000)
    rows = []
    t0 = time.perf_counter()
    for rep in range(REP_COUNT):
        inst = gen_instance("random-sphere", d=4, K=10, seed=REP_SEED + rep)
        trace = run_fedlinucb(inst, sched, hp)
        # One check on many traces: its accumulator alone, not the whole suite.
        cov = analysis._Coverage(inst, hp, 2000, trace.beta_used)
        analysis._run_pass(trace, inst, hp.lam, [cov])
        rows.append(
            {
                "local_violations": cov.local_viol,
                "n_local": cov.n_local,
                "total_regret": float(trace.cum_regret[-1]),
                "bound": theoretical_regret_bound(inst, hp, 4, 2000, trace.beta_used),
            }
        )
    return rows, time.perf_counter() - t0


def test_01_communication_within_cap(grid, capsys):
    """Total communication never exceeds the deterministic cap on any grid cell."""
    worst_ratio = 0.0
    violations = 0
    slow = 0.0
    for cell in grid:
        cap = theoretical_comm_bound(cell.d, cell.M, cell.hp.alpha, 1.0, 1.0, cell.T)
        ratio = cell.trace.comm_count / cap
        worst_ratio = max(worst_ratio, ratio)
        violations += cell.trace.comm_count > cap
        slow = max(slow, cell.seconds)
    ok = violations == 0 and slow < 60.0
    announce(capsys, 1, "communication within deterministic cap",
             ok, f"12 cells, worst ratio {worst_ratio:.3f}, slowest cell {slow:.2f}s")
    assert violations == 0
    assert slow < 60.0


def test_02_epoch_communication_cap(grid, capsys):
    """Within every determinant-doubling epoch, communication stays under 2(M + 1/alpha).

    Epochs are re-derived here straight from the recorded server determinants,
    independently of the simulator's own epoch bookkeeping.
    """
    violations = 0
    checked = 0
    for cell in grid:
        dets = np.exp(cell.trace.logdet_server)
        final = dets[-1]
        starts = []
        i = 0
        while True:
            cutoff = (2.0**i) * (1.0 - 1e-12)  # lam = 1
            if final < cutoff:
                break
            starts.append(int(np.searchsorted(dets, cutoff, side="left")) + 1)
            i += 1
        cap = 2.0 * (cell.M + 1.0 / cell.hp.alpha)
        for j, tau in enumerate(starts):
            end = starts[j + 1] if j + 1 < len(starts) else cell.T + 1
            used = 2 * sum(1 for ev in cell.trace.events if tau <= ev.round < end)
            checked += 1
            violations += used > cap
    ok = violations == 0
    announce(capsys, 2, "per-epoch communication cap",
             ok, f"{checked} epochs across 12 cells, {violations} violations")
    assert violations == 0


def test_03_switch_identity(grid, capsys):
    """Policy switches are exactly half the communications, on every trace."""
    bad = 0
    for cell in grid:
        tr = cell.trace
        if tr.switch_count * 2 != tr.comm_count or tr.comm_count != 2 * len(tr.events):
            bad += 1
        if tr.comm_count != int(tr.comm.sum()):
            bad += 1
    ok = bad == 0
    announce(capsys, 3, "switching identity comm = 2 x switches",
             ok, f"exact on all 12 cells")
    assert bad == 0


def test_04_local_confidence_coverage(replications, capsys):
    """Refreshed estimates stay inside their radius in almost every run.

    The estimate and its covariance only change at a refresh, so checking each
    refresh covers every round of the run (the pre-first-refresh state holds
    trivially: the zero estimate is within sqrt(lam) S <= beta of the target).
    """
    rows, elapsed = replications
    frac = sum(1 for r in rows if r["local_violations"] > 0) / len(rows)
    ok = frac <= 0.15 and elapsed < 300.0
    announce(capsys, 4, "local confidence coverage",
             ok, f"violating-run fraction {frac:.3f} <= 0.15 over {len(rows)} runs, "
                 f"{elapsed:.0f}s")
    assert frac <= 0.15
    assert elapsed < 300.0


def test_05_regret_bound_and_scaling(replications, capsys):
    """Cumulative regret sits under its bound, and grows sublinearly in T."""
    rows, _ = replications
    frac_bounded = sum(1 for r in rows if r["total_regret"] <= r["bound"]) / len(rows)

    means = []
    hp = HyperParams(lam=1.0, alpha=1.0 / 16.0, delta=0.1)
    for T in SLOPE_TS:
        sched = gen_schedule("round-robin", M=4, T=T)
        totals = []
        for rep in range(SLOPE_REPS):
            inst = gen_instance("random-sphere", d=4, K=10, seed=SLOPE_SEED + rep)
            totals.append(float(run_fedlinucb(inst, sched, hp).cum_regret[-1]))
        means.append(float(np.mean(totals)))
    slope = float(np.polyfit(np.log(SLOPE_TS), np.log(means), 1)[0])

    ok = frac_bounded >= 0.85 and 0.4 <= slope <= 0.65
    announce(capsys, 5, "regret bound and sublinear scaling",
             ok, f"bounded fraction {frac_bounded:.2f} >= 0.85, log-log slope {slope:.3f} "
                 f"in [0.4, 0.65]")
    assert frac_bounded >= 0.85
    assert 0.4 <= slope <= 0.65


def test_06_elliptical_potential(grid, capsys):
    """Summed squared pooled-covariance norms respect the deterministic cap."""
    violations = 0
    worst_slack = math.inf
    for cell in grid:
        lam = cell.hp.lam  # the grid's instances keep gen_instance's default L = 1
        elliptical = analysis._Elliptical(cell.d, lam, 1.0, cell.T)
        analysis._run_pass(cell.trace, cell.inst, lam, [elliptical])
        (report,) = elliptical.reports()
        violations += not report.satisfied
        worst_slack = min(worst_slack, report.slack)
    ok = violations == 0
    announce(capsys, 6, "elliptical potential inequality",
             ok, f"12 cells, smallest slack {worst_slack:.3f}, tolerance 1e-6")
    assert violations == 0


def test_07_covariance_domination(capsys):
    """The shared aggregate dominates every agent's pending buffer over alpha."""
    hp = HyperParams(lam=1.0, alpha=1.0 / 16.0, delta=0.1)
    sched = gen_schedule("block", M=4, T=2000)
    worst = 0.0
    for rep in range(10):
        inst = gen_instance("random-sphere", d=4, K=10, seed=700 + rep)
        trace = run_fedlinucb(inst, sched, hp)
        covariance = analysis._Covariance(hp.alpha, 4)
        analysis._run_pass(trace, inst, hp.lam, [covariance])
        (report,) = covariance.reports()
        worst = max(worst, report.detail["claim1_worst"])
        assert report.satisfied, report
    ok = worst <= 1e-8
    announce(capsys, 7, "covariance domination (server vs buffers)",
             ok, f"10 block-schedule runs, worst eigenvalue deficit {worst:.1e} <= 1e-8")
    assert worst <= 1e-8


def test_08_bias_demonstration(capsys):
    """Eager selection censors uploads toward 1/2; lazy stays unbiased at 0."""
    t0 = time.perf_counter()
    eager = bias_demo(10**4, beta_fixed=0.5, alpha=10.5, seed=0, mode="eager")
    lazy = bias_demo(10**4, beta_fixed=0.5, alpha=10.5, seed=0, mode="lazy")
    elapsed = time.perf_counter() - t0
    ok = (
        abs(eager.predicted_reward_arm_a - 0.5) <= 0.05
        and abs(lazy.predicted_reward_arm_a) <= 0.05
        and elapsed < 30.0
    )
    announce(capsys, 8, "upload-censoring bias demonstration",
             ok, f"eager {eager.predicted_reward_arm_a:.3f} ~ 0.5, "
                 f"lazy {lazy.predicted_reward_arm_a:.3f} ~ 0.0, {elapsed:.1f}s")
    assert abs(eager.predicted_reward_arm_a - 0.5) <= 0.05
    assert abs(lazy.predicted_reward_arm_a) <= 0.05
    assert lazy.upload_fraction == 1.0
    assert elapsed < 30.0


def test_09_episodic_equivalence(capsys):
    """Episodes whose agents all select before any of them syncs replay the
    run of their flattened schedule bit for bit."""
    mismatches = 0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        K = int(rng.integers(2, 9))
        M = int(rng.integers(2, 7))
        T = int(rng.integers(50, 301))
        alpha = float(rng.choice([1.0 / 25.0, 1.0 / 9.0, 0.25, 1.0]))
        inst = gen_instance("random-sphere", d=d, K=K, seed=seed)
        # Episodes of 1..M distinct agents in random order, at least T rounds in all.
        sets, flat = [], 0
        while flat < T:
            sets.append((rng.permutation(M)[:rng.integers(1, M + 1)] + 1).tolist())
            flat += len(sets[-1])
        hp = HyperParams(lam=1.0, alpha=alpha, delta=0.1,
                         estimate_mode=("lazy", "eager")[seed % 2])
        seq = run_fedlinucb(inst, Schedule.from_episodes(sets, M=M), hp)
        epi = public_step_run(inst, sets, M, hp)
        mismatches += bool(differing(seq, epi))
    ok = mismatches == 0
    announce(capsys, 9, "episodic/sequential equivalence",
             ok, f"5 random configurations, {mismatches} mismatched traces")
    assert mismatches == 0


def test_10_federation_beats_isolation(capsys):
    """Sharing observations through the server lowers regret vs isolated agents."""
    hp = HyperParams(lam=1.0, alpha=1.0 / 64.0, delta=0.01)
    sched = gen_schedule("round-robin", M=8, T=8000)
    fed_totals, ind_totals = [], []
    for rep in range(20):
        inst = gen_instance("random-sphere", d=4, K=10, seed=900 + rep)
        fed_totals.append(float(run_fedlinucb(inst, sched, hp).cum_regret[-1]))
        ind_totals.append(float(run_independent_oful(inst, sched, hp).cum_regret[-1]))
    fed_mean = float(np.mean(fed_totals))
    ind_mean = float(np.mean(ind_totals))
    wins = sum(f < i for f, i in zip(fed_totals, ind_totals))
    gap = (ind_mean - fed_mean) / fed_mean * 100.0
    ok = fed_mean < ind_mean
    announce(capsys, 10, "federated run beats independent baseline",
             ok, f"mean regret {fed_mean:.1f} vs {ind_mean:.1f}, gap {gap:.0f}%, "
                 f"wins {wins}/20")
    assert fed_mean < ind_mean
