"""Trace analysis: bound evaluators, concentration checks, bias demonstration.

The invariant checks rebuild the protocol bookkeeping from the recorded
rounds and events alone (:class:`_Replay`) and compare it against the stored
payload checksums (and, on debug traces, the stored payloads themselves).
Each check is an accumulator fed once per replayed round:
``run_invariant_suite`` drives all of them through one pass, and each public
check function drives only its own.  Within a pass every round's pooled
covariance is factored once, a Loewner comparison is recomputed only when its
operands changed, and each ``eigvalsh`` is screened by a Cholesky
factorization (:func:`~fedlinucb.core.eigs_surely_above`) that skips it only
where its value could not change the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DecisionSet,
    HyperParams,
    ProblemInstance,
    SpdMatrix,
    eigs_surely_above,
    inv_norm,
    solve_estimate,
    theoretical_comm_bound,
    theoretical_regret_bound,
)
from .environment import gen_instance, gen_schedule
from .protocol import payload_checksum
from .simulator import SimulationTrace, _comm_per_epoch, run_fedlinucb

__all__ = [
    "BoundReport",
    "NoiseLedger",
    "CoverageReport",
    "BiasDemoReport",
    "instantaneous_regret",
    "theoretical_regret_bound",
    "theoretical_comm_bound",
    "build_noise_ledger",
    "confidence_coverage",
    "covariance_comparison_check",
    "elliptical_potential_check",
    "conservation_check",
    "bias_demo",
    "run_invariant_suite",
]


@dataclass
class BoundReport:
    """Outcome of one named check: empirical quantity vs allowed bound."""

    name: str
    empirical: float
    bound: float
    satisfied: bool
    slack: float
    detail: dict = field(default_factory=dict)


def instantaneous_regret(inst: ProblemInstance, d_set: DecisionSet, chosen: np.ndarray) -> float:
    """Best achievable mean reward in the set minus the chosen arm's mean."""
    chosen = np.asarray(chosen, dtype=np.float64)
    matches = np.flatnonzero((d_set.arms == chosen).all(axis=1))
    if matches.size == 0:
        close = np.flatnonzero(
            np.isclose(d_set.arms, chosen, rtol=1e-12, atol=0.0).all(axis=1)
        )
        if close.size == 0:
            raise ValueError("chosen arm is not a member of the decision set")
        matches = close
    values = d_set.arms @ inst.theta_star
    return float(values.max() - values[int(matches[0])])


def _capped(name: str, empirical: float, bound: float, satisfied: bool | None = None,
            **detail) -> BoundReport:
    """Report for ``empirical <= bound`` (unless told otherwise), slack ``bound - empirical``."""
    if satisfied is None:
        satisfied = empirical <= bound
    return BoundReport(name, empirical, bound, satisfied, bound - empirical, detail)


class _Replay:
    """Protocol state rebuilt round by round from a trace.

    After ``step(k)`` (k = 0-based index into records) the attributes hold
    end-of-round values for round ``records[k].t``: the pooled statistics,
    the server aggregate, every agent's unsynced buffers and synced
    covariance/target, and ``synced``, whether the round's agent uploaded.
    ``pooled()`` factors the pooled covariance at most once per round (with
    the ridge floor verified when ``floor_pooled``), for every check to share.
    """

    def __init__(self, trace: SimulationTrace, floor_pooled: bool = False):
        self.trace = trace
        p = trace.params
        d = self.d = int(p["d"])
        self.M = int(p["M"])
        self.lam = float(p["lambda"])
        self.sigma_all = self.lam * np.eye(d)
        self.b_all = np.zeros(d)
        self.server_sigma = self.lam * np.eye(d)
        self.server_b = np.zeros(d)
        self.sigma_loc = {m: np.zeros((d, d)) for m in range(1, self.M + 1)}
        self.b_loc = {m: np.zeros(d) for m in range(1, self.M + 1)}
        self.synced_sigma = {m: self.lam * np.eye(d) for m in range(1, self.M + 1)}
        self.synced_b = {m: np.zeros(d) for m in range(1, self.M + 1)}
        self.events_by_round = {ev.round: ev for ev in trace.events}
        self.checksum_mismatches = 0
        self.payload_deviation = 0.0
        self.synced = False
        self.pooled_floor = self.lam if floor_pooled else 0.0
        self._pooled: SpdMatrix | None = None

    def step(self, k: int):
        rec = self.trace.records[k]
        m, x, r = rec.agent, rec.arm, rec.reward
        self.sigma_all = self.sigma_all + np.outer(x, x)
        self.b_all = self.b_all + r * x
        self._pooled = None
        self.sigma_loc[m] = self.sigma_loc[m] + np.outer(x, x)
        self.b_loc[m] = self.b_loc[m] + r * x
        event = self.events_by_round.get(rec.t)
        self.synced = event is not None and event.agent == m
        if self.synced:
            if payload_checksum(self.sigma_loc[m], self.b_loc[m]) != event.payload_checksum:
                self.checksum_mismatches += 1
            if event.payload is not None:
                dev = max(
                    float(np.abs(event.payload[0] - self.sigma_loc[m]).max(initial=0.0)),
                    float(np.abs(event.payload[1] - self.b_loc[m]).max(initial=0.0)),
                )
                self.payload_deviation = max(self.payload_deviation, dev)
            self.server_sigma = self.server_sigma + self.sigma_loc[m]
            self.server_b = self.server_b + self.b_loc[m]
            self.sigma_loc[m] = np.zeros((self.d, self.d))
            self.b_loc[m] = np.zeros(self.d)
            self.synced_sigma[m] = self.server_sigma
            self.synced_b[m] = self.server_b
        return rec, event

    def pooled(self) -> SpdMatrix:
        if self._pooled is None:
            self._pooled = SpdMatrix.from_dense(self.sigma_all, min_eig=self.pooled_floor)
        return self._pooled


def _run_pass(trace: SimulationTrace, checks: list, floor_pooled: bool = False) -> list:
    """Feed each round of one replay to every accumulator; return their reports."""
    rep = _Replay(trace, floor_pooled)
    for k in range(len(trace.records)):
        rec, event = rep.step(k)
        for check in checks:
            check.update(rep, k, rec, event)
    return [check.report(rep) for check in checks]


@dataclass
class NoiseLedger:
    """Per-round noise bookkeeping (learner-invisible, analysis only).

    ``u_all[t-1]`` is the cumulative noise-weighted arm sum through round t;
    ``u_split[t-1]`` the same quantity rebuilt from the uploaded plus pending
    per-agent shares.  The two must agree at every round.
    """

    eta: np.ndarray
    xs: np.ndarray
    rewards: np.ndarray
    u_all: np.ndarray
    u_split: np.ndarray
    u_up_final: dict[int, np.ndarray]
    u_loc_final: dict[int, np.ndarray]


def build_noise_ledger(trace: SimulationTrace, inst: ProblemInstance) -> NoiseLedger:
    T = len(trace.records)
    d = inst.dim
    eta = np.zeros(T)
    xs = np.zeros((T, d))
    rewards = np.zeros(T)
    u_all = np.zeros((T, d))
    u_split = np.zeros((T, d))
    M = int(trace.params["M"])
    u_up = {m: np.zeros(d) for m in range(1, M + 1)}
    u_loc = {m: np.zeros(d) for m in range(1, M + 1)}
    events_by_round = {ev.round: ev for ev in trace.events}
    run_u = np.zeros(d)
    for k, rec in enumerate(trace.records):
        x = rec.arm
        e = rec.reward - float(x @ inst.theta_star)
        eta[k] = e
        xs[k] = x
        rewards[k] = rec.reward
        run_u = run_u + e * x
        u_all[k] = run_u
        u_loc[rec.agent] = u_loc[rec.agent] + e * x
        event = events_by_round.get(rec.t)
        if event is not None and event.agent == rec.agent:
            u_up[rec.agent] = u_up[rec.agent] + u_loc[rec.agent]
            u_loc[rec.agent] = np.zeros(d)
        u_split[k] = sum(u_up.values()) + sum(u_loc.values())
    return NoiseLedger(
        eta=eta, xs=xs, rewards=rewards, u_all=u_all, u_split=u_split,
        u_up_final=u_up, u_loc_final=u_loc,
    )


def noise_decomposition_check(trace: SimulationTrace, inst: ProblemInstance) -> BoundReport:
    """The pooled noise sum must equal the uploaded + pending shares, each round."""
    ledger = build_noise_ledger(trace, inst)
    worst, scale = 0.0, 1.0
    if trace.records:
        worst = float(np.abs(ledger.u_all - ledger.u_split).max())
        scale = max(1.0, float(np.abs(ledger.u_all).max()))
    return _capped("noise-decomposition", worst / scale, 1e-8)


class _Conservation:
    def __init__(self):
        self.worst, self.scale = 0.0, 1.0

    def update(self, rep: _Replay, k: int, rec, event) -> None:
        lhs_sigma = rep.server_sigma + sum(rep.sigma_loc.values())
        lhs_b = rep.server_b + sum(rep.b_loc.values())
        dev = max(
            float(np.abs(lhs_sigma - rep.sigma_all).max(initial=0.0)),
            float(np.abs(lhs_b - rep.b_all).max(initial=0.0)),
        )
        self.worst = max(self.worst, dev)
        self.scale = max(self.scale, float(np.abs(rep.sigma_all).max(initial=1.0)))

    def report(self, rep: _Replay) -> BoundReport:
        empirical, bound = self.worst / self.scale, 1e-8
        return _capped(
            "conservation", empirical, bound,
            satisfied=empirical <= bound and rep.checksum_mismatches == 0,
            checksum_mismatches=rep.checksum_mismatches,
            payload_deviation=rep.payload_deviation,
        )


def conservation_check(trace: SimulationTrace) -> BoundReport:
    """Prior + uploads + pending buffers must reproduce the pooled statistics.

    Checked at every round against a direct accumulation of the played arms;
    deviation is measured relative to the pooled magnitude (the sums differ
    only in floating-point association order).  On debug traces the stored
    upload payloads are compared against the replayed buffers as well.
    """
    return _run_pass(trace, [_Conservation()])[0]


class _Elliptical:
    def __init__(self, trace: SimulationTrace):
        p = trace.params
        d, lam, L, T = int(p["d"]), float(p["lambda"]), float(p["L"]), int(p["T"])
        self.bound = 2.0 * d * math.log(1.0 + T * L * L / lam)
        self.total = 0.0

    def update(self, rep: _Replay, k: int, rec, event) -> None:
        self.total += inv_norm(rep.pooled(), rec.arm) ** 2

    def report(self, rep: _Replay) -> BoundReport:
        tol = 1e-6
        return _capped("elliptical-potential", self.total, self.bound,
                       satisfied=self.total <= self.bound + tol, tolerance=tol)


def elliptical_potential_check(trace: SimulationTrace) -> BoundReport:
    """Sum of squared pooled-covariance norms of the played arms.

    sum_t inv_norm(sigma_all_t, x_t)^2 <= 2 d ln(1 + T L^2 / lambda), with
    sigma_all_t the end-of-round pooled covariance.
    """
    return _run_pass(trace, [_Elliptical(trace)])[0]


@dataclass
class CoverageReport:
    """Confidence-set coverage on one trace (local per refresh, global per round)."""

    n_local: int
    local_violations: int
    local_fraction: float
    n_global: int
    global_violations: int
    global_fraction: float
    beta: float
    global_bound: float


class _Coverage:
    def __init__(self, trace: SimulationTrace, inst: ProblemInstance, beta: float):
        p = trace.params
        d, lam, delta = int(p["d"]), float(p["lambda"]), float(p["delta"])
        T, L = int(p["T"]), float(p["L"])
        R, S = inst.R, inst.S
        self.global_bound = (
            R * math.sqrt(d * math.log((1.0 + T * L * L / lam) / delta)) + math.sqrt(lam) * S
        )
        self.lam, self.theta, self.beta = lam, inst.theta_star, beta
        self.n_local = self.local_viol = self.n_global = self.global_viol = 0

    def update(self, rep: _Replay, k: int, rec, event) -> None:
        sigma_all = rep.pooled()
        theta_all = solve_estimate(sigma_all, rep.b_all)
        self.n_global += 1
        if _weighted_norm(sigma_all, self.theta - theta_all) > self.global_bound:
            self.global_viol += 1
        if event is not None:
            sigma_m = SpdMatrix.from_dense(rep.synced_sigma[rec.agent], min_eig=self.lam)
            theta_m = solve_estimate(sigma_m, rep.synced_b[rec.agent])
            self.n_local += 1
            if _weighted_norm(sigma_m, self.theta - theta_m) > self.beta:
                self.local_viol += 1

    def report(self, rep: _Replay) -> CoverageReport:
        n_local, n_global = self.n_local, self.n_global
        return CoverageReport(
            n_local, self.local_viol, self.local_viol / n_local if n_local else 0.0,
            n_global, self.global_viol, self.global_viol / n_global if n_global else 0.0,
            self.beta, self.global_bound,
        )


def confidence_coverage(
    trace: SimulationTrace, inst: ProblemInstance, beta: float
) -> CoverageReport:
    """Check every refreshed estimate against beta and the pooled estimate
    against its own radius.

    Local: after each sync, ||theta_star - theta_hat||_sigma <= beta, where
    (theta_hat, sigma) is the refreshed download.  Global: at every round,
    ||theta_star - theta_all||_{sigma_all} <= R sqrt(d ln((1 + T L^2/lam)/delta))
    + sqrt(lam) S.  Both are high-probability statements; returned fractions
    are expected to be zero at the default confidence levels.
    """
    return _run_pass(trace, [_Coverage(trace, inst, beta)], floor_pooled=True)[0]


def _weighted_norm(m: SpdMatrix, v: np.ndarray) -> float:
    """||v||_m = sqrt(v^T m v) (direct norm, not the inverse one)."""
    return math.sqrt(max(float(v @ m.mat @ v), 0.0))


def _loewner_worst(worst: float, diff: np.ndarray) -> float:
    """``max(worst, -eigvalsh(diff)[0])`` for a running worst that starts at 0.0.

    ``eigvalsh`` runs only when the Cholesky screen cannot prove its value
    nonnegative, that is, when it could raise the worst.
    """
    if eigs_surely_above(diff, 0.0):
        return worst
    return max(worst, -float(np.linalg.eigvalsh(diff)[0]))


class _Covariance:
    def __init__(self, trace: SimulationTrace, alpha: float, M: int):
        self.alpha, self.M = alpha, M
        self.shrink = 1.0 / (1.0 + M * alpha)
        self.windows = _single_agent_windows(trace)
        # Window rounds are disjoint: each round is a claim-2 round of at most one agent.
        self.window_agent = {t - 1: m for m, t1, t2 in self.windows for t in range(t1 + 1, t2 + 1)}
        self.worst1 = self.worst2 = 0.0  # claim 1 / claim 2 violation magnitudes
        self.n_checks1 = self.n_checks2 = 0

    def update(self, rep: _Replay, k: int, rec, event) -> None:
        # Claim 1 covers every agent every round, but an agent's difference
        # changes only with its buffer (the active agent) or the server (every
        # agent, after an upload); an unchanged one is already in the worst.
        if k == 0 or rep.synced:
            changed = range(1, self.M + 1)
        else:
            changed = [rec.agent] if rec.agent <= self.M else []
        for m in changed:
            diff = rep.server_sigma - rep.sigma_loc[m] / self.alpha
            self.worst1 = _loewner_worst(self.worst1, diff)
        self.n_checks1 += self.M
        m = self.window_agent.get(k)
        if m is not None:
            diff = rep.synced_sigma[m] - self.shrink * rep.sigma_all
            self.worst2 = _loewner_worst(self.worst2, diff)
            self.n_checks2 += 1

    def report(self, rep: _Replay) -> BoundReport:
        return _capped(
            "covariance-comparison", max(self.worst1, self.worst2), 1e-8,
            claim1_checks=self.n_checks1, claim1_worst=self.worst1,
            claim2_checks=self.n_checks2, claim2_worst=self.worst2,
            windows=len(self.windows),
        )


def covariance_comparison_check(trace: SimulationTrace, alpha: float, M: int) -> BoundReport:
    """Loewner comparisons between local, server, and pooled covariances.

    Always: server aggregate >= sigma_loc_m / alpha for every agent and round
    (smallest eigenvalue of the difference >= -1e-8).  Additionally, inside
    every single-agent window that opens with a sync, the agent's synced
    covariance dominates the pooled one shrunk by 1/(1 + M alpha).
    """
    return _run_pass(trace, [_Covariance(trace, alpha, M)])[0]


def _single_agent_windows(trace: SimulationTrace) -> list[tuple[int, int, int]]:
    """Windows (m, t1, t2): agent m alone active in (t1, t2], syncing at t1.

    t1 is a sync round of m; the window extends to the agent's next sync in
    the same run of consecutive activations, or to the run's last round.  It
    must not reach past the run: at the first round of the next run another
    agent can upload, growing the shared aggregate past what m downloaded at
    t1, and the comparison is not claimed there.
    """
    records = trace.records
    T = len(records)
    if T == 0:
        return []
    sync_rounds = {(ev.round, ev.agent) for ev in trace.events}
    windows = []
    start = 0
    while start < T:
        m = records[start].agent
        end = start
        while end + 1 < T and records[end + 1].agent == m:
            end += 1
        run_rounds = [records[k].t for k in range(start, end + 1)]
        syncs = [t for t in run_rounds if (t, m) in sync_rounds]
        for j, t1 in enumerate(syncs):
            t2 = syncs[j + 1] if j + 1 < len(syncs) else run_rounds[-1]
            if t2 > t1:
                windows.append((m, t1, t2))
        start = end + 1
    return windows


@dataclass
class BiasDemoReport:
    """Outcome of the two-round server-bias demonstration."""

    mode: str
    n_agents: int
    predicted_reward_arm_a: float
    upload_fraction: float
    beta: float
    alpha: float


def bias_demo(
    m_agents: int,
    beta_fixed: float = 0.5,
    alpha: float = 10.5,
    seed: int = 0,
    mode: str = "eager",
) -> BiasDemoReport:
    """Server-side bias from conditioning uploads on realized rewards.

    Simulates ``m_agents`` two-round agents on the fixed two-arm instance
    (a long informative arm and a short orthogonal one, zero true parameter,
    coin-flip noise).  With eager selection an agent re-picks the long arm
    only after a positive first reward, and only double-pulls trigger an
    upload, so the server sees rewards censored upward: its predicted mean
    reward for the long arm approaches 1/2 instead of 0.  Lazy selection
    re-picks the long arm regardless, every agent uploads, and the
    prediction stays near 0.
    """
    if not 0.0 < beta_fixed < 1.0:
        raise ValueError("the demonstration needs 0 < beta_fixed < 1")
    if m_agents < 0:
        raise ValueError("m_agents must be nonnegative")
    if mode not in ("eager", "lazy"):
        raise ValueError(f"unknown mode {mode!r}")
    # The trigger window: a double pull of the long arm must fire, while a
    # single pull or a long-short pair must not.
    arm_a = np.array([3.0, 0.0])
    arm_b = np.array([0.0, 1.0 / math.sqrt(10.0)])
    eye = np.eye(2)
    det_double_a = float(np.linalg.det(eye + 2 * np.outer(arm_a, arm_a)))
    det_single_a = float(np.linalg.det(eye + np.outer(arm_a, arm_a)))
    det_a_then_b = float(np.linalg.det(eye + np.outer(arm_a, arm_a) + np.outer(arm_b, arm_b)))
    if not (det_double_a > 1.0 + alpha and det_single_a <= 1.0 + alpha and det_a_then_b <= 1.0 + alpha):
        raise ValueError(
            f"alpha={alpha} breaks the trigger window: need "
            f"{det_double_a} > 1+alpha, {det_single_a} <= 1+alpha, {det_a_then_b} <= 1+alpha"
        )

    inst = gen_instance("bias-demo", seed=seed)
    hp = HyperParams(
        lam=1.0, alpha=alpha, delta=0.01,
        beta_mode="fixed", beta_value=beta_fixed, estimate_mode=mode,
    )
    if m_agents == 0:
        return BiasDemoReport(
            mode=mode, n_agents=0, predicted_reward_arm_a=0.0,
            upload_fraction=0.0, beta=beta_fixed, alpha=alpha,
        )
    schedule = gen_schedule("block", M=m_agents, T=2 * m_agents)
    trace = run_fedlinucb(inst, schedule, hp)
    server = trace.final_server
    theta_server = solve_estimate(server.sigma_ser, server.b_ser)
    return BiasDemoReport(
        mode=mode,
        n_agents=m_agents,
        predicted_reward_arm_a=float(arm_a @ theta_server),
        upload_fraction=server.upload_count / m_agents,
        beta=beta_fixed,
        alpha=alpha,
    )


def _trace_consistency_check(trace: SimulationTrace) -> BoundReport:
    problems = 0
    detail = {}
    comm_sum = sum(rec.comm for rec in trace.records)
    if trace.comm_count != comm_sum:
        problems += 1
        detail["comm_count_vs_records"] = (trace.comm_count, comm_sum)
    if trace.comm_count != 2 * len(trace.events) and trace.events:
        problems += 1
        detail["comm_count_vs_events"] = (trace.comm_count, 2 * len(trace.events))
    if trace.switch_count * 2 != trace.comm_count:
        problems += 1
        detail["switch_identity"] = (trace.switch_count, trace.comm_count)
    if any(rec.inst_regret < 0 for rec in trace.records):
        problems += 1
        detail["negative_regret_rounds"] = sum(1 for rec in trace.records if rec.inst_regret < 0)
    if len(trace.records) != len(trace.cum_regret):
        problems += 1
        detail["cum_regret_length"] = (len(trace.records), len(trace.cum_regret))
    else:
        expected = np.cumsum([rec.inst_regret for rec in trace.records])
        if trace.records and float(np.abs(expected - trace.cum_regret).max()) > 1e-9 * max(
            1.0, float(expected[-1])
        ):
            problems += 1
            detail["cum_regret_mismatch"] = float(np.abs(expected - trace.cum_regret).max())
    logdets = [rec.logdet_server for rec in trace.records]
    if trace.events and any(
        b < a - 1e-12 * max(1.0, abs(a)) for a, b in zip(logdets, logdets[1:])
    ):
        problems += 1
        detail["logdet_server_not_monotone"] = True
    return BoundReport("trace-consistency", float(problems), 0.0, problems == 0,
                       -float(problems), detail)


def _sync_criterion_check(trace: SimulationTrace, alpha: float) -> BoundReport:
    violations = 0
    worst_margin = math.inf
    for ev in trace.events:
        margin = ev.logdet_after - ev.logdet_before - math.log1p(alpha)
        worst_margin = min(worst_margin, margin)
        if margin <= 0.0:
            violations += 1
    return BoundReport(
        "sync-criterion-events", float(violations), 0.0, violations == 0, -float(violations),
        {"worst_margin": None if math.isinf(worst_margin) else worst_margin,
         "events": len(trace.events)},
    )


def run_invariant_suite(
    trace: SimulationTrace, inst: ProblemInstance, hp: HyperParams
) -> list[BoundReport]:
    """Every invariant check on one trace, as named pass/fail reports.

    One replay of the trace feeds every replay-based check.  The two
    confidence checks are high-probability statements (they may fail
    on a delta-tail run by design); everything else is deterministic.
    """
    p = trace.params
    d, M, T, L = int(p["d"]), int(p["M"]), int(p["T"]), float(p["L"])
    reports = [_trace_consistency_check(trace), _sync_criterion_check(trace, hp.alpha)]

    comm_bound = theoretical_comm_bound(d, M, hp.alpha, hp.lam, L, T)
    reports.append(_capped("comm-bound", float(trace.comm_count), comm_bound))
    worst_epoch = float(max(_comm_per_epoch(trace), default=0))
    reports.append(_capped("epoch-comm", worst_epoch, 2.0 * (M + 1.0 / hp.alpha)))

    checks = [_Elliptical(trace), _Conservation(), _Covariance(trace, hp.alpha, M),
              _Coverage(trace, inst, trace.beta_used)]
    elliptical, conservation, covariance, coverage = _run_pass(trace, checks, floor_pooled=True)
    reports += [elliptical, conservation, noise_decomposition_check(trace, inst), covariance]
    # Fractions against a zero bound: slack is -fraction (so -0.0 when clean).
    reports.append(BoundReport(
        "local-confidence", coverage.local_fraction, 0.0, coverage.local_violations == 0,
        -coverage.local_fraction, {"checks": coverage.n_local, "beta": coverage.beta},
    ))
    reports.append(BoundReport(
        "global-confidence", coverage.global_fraction, 0.0, coverage.global_violations == 0,
        -coverage.global_fraction, {"checks": coverage.n_global, "radius": coverage.global_bound},
    ))

    total_regret = float(trace.cum_regret[-1]) if len(trace.cum_regret) else 0.0
    regret_bound = theoretical_regret_bound(inst, hp, M, T, trace.beta_used)
    reports.append(_capped("regret-bound", total_regret, regret_bound))
    return reports
