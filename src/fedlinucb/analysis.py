"""Trace analysis: bound evaluators, concentration checks, bias demonstration.

The invariant checks rebuild the protocol bookkeeping from the trace's
columns and events alone (:class:`_Replay`) and compare it against the stored
upload checksums.
Each replay-based check is an accumulator fed once per replayed round, and
:func:`run_invariant_suite`, the one public entry point for the checks, drives
all of them through a single pass.  Within the pass every round's pooled
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
    HyperParams,
    ProblemInstance,
    SpdMatrix,
    eigs_surely_above,
    epoch_comm_cap,
    inv_norm,
    logdet_rounding,
    solve_estimate,
    theoretical_comm_bound,
    theoretical_regret_bound,
)
from .environment import _BIAS_ARMS, gen_instance, gen_schedule
from .protocol import CommEvent, init_agent, local_update, payload_checksum, should_sync
from .simulator import SimulationTrace, _comm_per_epoch, index_regret, run_fedlinucb

__all__ = [
    "BoundReport",
    "BiasDemoReport",
    "instantaneous_regret",
    "theoretical_regret_bound",
    "theoretical_comm_bound",
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


def instantaneous_regret(inst: ProblemInstance, d_set: np.ndarray, chosen: np.ndarray) -> float:
    """Best achievable mean reward in the (K, d) decision set minus the chosen arm's mean."""
    chosen = np.asarray(chosen, dtype=np.float64)
    matches = np.flatnonzero((d_set == chosen).all(axis=1))
    if matches.size == 0:
        close = np.flatnonzero(np.isclose(d_set, chosen, rtol=1e-12, atol=0.0).all(axis=1))
        if close.size == 0:
            raise ValueError("chosen arm is not a member of the decision set")
        matches = close
    return index_regret(inst, d_set, int(matches[0]))


def _capped(name: str, empirical: float, bound: float, satisfied: bool | None = None,
            **detail) -> BoundReport:
    """Report for ``empirical <= bound`` (unless told otherwise), slack ``bound - empirical``."""
    if satisfied is None:
        satisfied = empirical <= bound
    return BoundReport(name, empirical, bound, satisfied, bound - empirical, detail)


class _Replay:
    """Protocol state rebuilt round by round from a trace.

    After ``step(k)`` (k = 0-based row of the trace) the attributes hold
    end-of-round values for round ``trace.t[k]``: the acting agent ``m`` and
    its arm ``x`` and reward ``r``, the pooled statistics, the server
    aggregate, every agent's unsynced buffers and synced covariance/target,
    and ``synced``, whether the round's agent uploaded.  ``pooled()`` factors
    the pooled covariance at most once per round, with the ridge floor
    verified, for every check to share.
    """

    def __init__(self, trace: SimulationTrace):
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
        self._rounds = trace.t.tolist()
        self._agents = trace.agent.tolist()
        self._rewards = trace.reward.tolist()
        self.checksum_mismatches = 0
        self.synced = False
        self._pooled: SpdMatrix | None = None

    def step(self, k: int) -> CommEvent | None:
        """Replay row k; returns the event recorded at its round, if any."""
        m = self.m = self._agents[k]
        x = self.x = self.trace.arms[k]
        r = self.r = self._rewards[k]
        xx = np.outer(x, x)
        self.sigma_all = self.sigma_all + xx
        self.b_all = self.b_all + r * x
        self._pooled = None
        self.sigma_loc[m] = self.sigma_loc[m] + xx
        self.b_loc[m] = self.b_loc[m] + r * x
        event = self.events_by_round.get(self._rounds[k])
        self.synced = event is not None and event.agent == m
        if self.synced:
            if payload_checksum(self.sigma_loc[m], self.b_loc[m]) != event.payload_checksum:
                self.checksum_mismatches += 1
            self.server_sigma = self.server_sigma + self.sigma_loc[m]
            self.server_b = self.server_b + self.b_loc[m]
            self.sigma_loc[m] = np.zeros((self.d, self.d))
            self.b_loc[m] = np.zeros(self.d)
            self.synced_sigma[m] = self.server_sigma
            self.synced_b[m] = self.server_b
        return event

    def pooled(self) -> SpdMatrix:
        if self._pooled is None:
            self._pooled = SpdMatrix._factor(self.sigma_all, min_eig=self.lam)
        return self._pooled


def _run_pass(trace: SimulationTrace, checks: list) -> list[BoundReport]:
    """Feed each round of one replay to every accumulator; return their reports in order."""
    rep = _Replay(trace)
    for k in range(len(trace.t)):
        event = rep.step(k)
        for check in checks:
            check.update(rep, k, event)
    return [report for check in checks for report in check.reports(rep)]


def _synced_rows(trace: SimulationTrace) -> np.ndarray:
    """Per row, whether an event records an upload by that round's own agent."""
    synced = np.zeros(len(trace.t), dtype=bool)
    for ev in trace.events:
        synced[ev.round - 1] |= trace.agent[ev.round - 1] == ev.agent
    return synced


class _Noise:
    """The pooled noise sum must equal the uploaded + pending shares, each round.

    With the round's reward noise ``eta = r - x @ theta_star`` (learner-invisible,
    analysis only), the cumulative noise-weighted arm sum through each round is
    rebuilt from every agent's uploaded plus pending shares; the two must agree.
    """

    def __init__(self, trace: SimulationTrace, inst: ProblemInstance):
        d, M = int(trace.params["d"]), int(trace.params["M"])
        self.theta = inst.theta_star
        self.u_all = np.zeros(d)
        self.u_up = {m: np.zeros(d) for m in range(1, M + 1)}
        self.u_loc = {m: np.zeros(d) for m in range(1, M + 1)}
        # Entrywise running maxima: np.maximum keeps a NaN, as a max over every round would.
        self.worst = np.zeros(d)
        self.peak = np.zeros(d)

    def update(self, rep: _Replay, k: int, event) -> None:
        m, x = rep.m, rep.x
        # Row by row: arms @ theta_star would not reproduce each x @ theta_star.
        ex = (rep.r - float(x @ self.theta)) * x
        self.u_all += ex
        self.u_loc[m] += ex
        if rep.synced:
            self.u_up[m] += self.u_loc[m]
            self.u_loc[m] = np.zeros_like(ex)
        split = sum(self.u_up.values()) + sum(self.u_loc.values())
        np.maximum(self.worst, np.abs(self.u_all - split), out=self.worst)
        np.maximum(self.peak, np.abs(self.u_all), out=self.peak)

    def reports(self, rep: _Replay) -> list[BoundReport]:
        scale = max(1.0, float(self.peak.max()))
        return [_capped("noise-decomposition", float(self.worst.max()) / scale, 1e-8)]


class _Conservation:
    """Prior + uploads + pending buffers must reproduce the pooled statistics.

    Checked at every round against a direct accumulation of the played arms;
    deviation is measured relative to the pooled magnitude (the sums differ
    only in floating-point association order).  Each event's upload checksum
    must also equal the sha256 of the replayed buffers it claims to upload.
    """

    def __init__(self):
        self.worst, self.scale = 0.0, 1.0

    def update(self, rep: _Replay, k: int, event) -> None:
        lhs_sigma = rep.server_sigma + sum(rep.sigma_loc.values())
        lhs_b = rep.server_b + sum(rep.b_loc.values())
        dev = np.maximum(
            np.abs(lhs_sigma - rep.sigma_all).max(initial=0.0),
            np.abs(lhs_b - rep.b_all).max(initial=0.0),
        )
        # np.maximum keeps a NaN deviation; Python's max would drop it.
        self.worst = float(np.maximum(self.worst, dev))
        self.scale = max(self.scale, float(np.abs(rep.sigma_all).max(initial=1.0)))

    def reports(self, rep: _Replay) -> list[BoundReport]:
        empirical, bound = self.worst / self.scale, 1e-8
        return [_capped(
            "conservation", empirical, bound,
            satisfied=empirical <= bound and rep.checksum_mismatches == 0,
            checksum_mismatches=rep.checksum_mismatches,
        )]


class _Elliptical:
    """Sum of squared pooled-covariance norms of the played arms.

    sum_t inv_norm(sigma_all_t, x_t)^2 <= 2 d ln(1 + T L^2 / lambda), with
    sigma_all_t the end-of-round pooled covariance.
    """

    def __init__(self, trace: SimulationTrace):
        p = trace.params
        d, lam, L, T = int(p["d"]), float(p["lambda"]), float(p["L"]), int(p["T"])
        self.bound = 2.0 * d * math.log(1.0 + T * L * L / lam)
        self.total = 0.0

    def update(self, rep: _Replay, k: int, event) -> None:
        self.total += inv_norm(rep.pooled(), rep.x) ** 2

    def reports(self, rep: _Replay) -> list[BoundReport]:
        tol = 1e-6
        return [_capped("elliptical-potential", self.total, self.bound,
                        satisfied=self.total <= self.bound + tol, tolerance=tol)]


class _Coverage:
    """Every refreshed estimate against beta, the pooled estimate against its
    own radius.

    Local: after each sync, ||theta_star - theta_hat||_sigma <= beta, where
    (theta_hat, sigma) is the refreshed download.  Global: at every round,
    ||theta_star - theta_all||_{sigma_all} <= R sqrt(d ln((1 + T L^2/lam)/delta))
    + sqrt(lam) S.  Both are high-probability statements, reported as
    violation fractions against a zero bound (slack -fraction, so -0.0 when
    clean) that are expected to be zero at the default confidence levels.
    """

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

    def update(self, rep: _Replay, k: int, event) -> None:
        sigma_all = rep.pooled()
        theta_all = solve_estimate(sigma_all, rep.b_all)
        self.n_global += 1
        # Written as "not <=" so that a NaN norm counts as a violation.
        if not _weighted_norm(sigma_all, self.theta - theta_all) <= self.global_bound:
            self.global_viol += 1
        if event is not None:
            sigma_m = SpdMatrix._factor(rep.synced_sigma[rep.m], min_eig=self.lam)
            theta_m = solve_estimate(sigma_m, rep.synced_b[rep.m])
            self.n_local += 1
            if not _weighted_norm(sigma_m, self.theta - theta_m) <= self.beta:
                self.local_viol += 1

    def reports(self, rep: _Replay) -> list[BoundReport]:
        local = self.local_viol / self.n_local if self.n_local else 0.0
        pooled = self.global_viol / self.n_global if self.n_global else 0.0
        return [
            BoundReport("local-confidence", local, 0.0, self.local_viol == 0, -local,
                        {"checks": self.n_local, "beta": self.beta}),
            BoundReport("global-confidence", pooled, 0.0, self.global_viol == 0, -pooled,
                        {"checks": self.n_global, "radius": self.global_bound}),
        ]


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
    """Loewner comparisons between local, server, and pooled covariances.

    Always: server aggregate >= sigma_loc_m / alpha for every agent and round
    (smallest eigenvalue of the difference >= -1e-8).  Additionally, inside
    every single-agent window that opens with a sync, the agent's synced
    covariance dominates the pooled one shrunk by 1/(1 + M alpha).
    """

    def __init__(self, trace: SimulationTrace, alpha: float, M: int):
        self.alpha, self.M = alpha, M
        self.shrink = 1.0 / (1.0 + M * alpha)
        self.windows = _single_agent_windows(trace)
        # Window rounds are disjoint: each round is a claim-2 round of at most one agent.
        self.window_agent = {t - 1: m for m, t1, t2 in self.windows for t in range(t1 + 1, t2 + 1)}
        self.worst1 = self.worst2 = 0.0  # claim 1 / claim 2 violation magnitudes
        self.n_checks1 = self.n_checks2 = 0

    def update(self, rep: _Replay, k: int, event) -> None:
        # Claim 1 covers every agent every round, but an agent's difference
        # changes only with its buffer (the active agent) or the server (every
        # agent, after an upload); an unchanged one is already in the worst.
        if k == 0 or rep.synced:
            changed = range(1, self.M + 1)
        else:
            changed = [rep.m] if rep.m <= self.M else []
        for m in changed:
            diff = rep.server_sigma - rep.sigma_loc[m] / self.alpha
            self.worst1 = _loewner_worst(self.worst1, diff)
        self.n_checks1 += self.M
        m = self.window_agent.get(k)
        if m is not None:
            diff = rep.synced_sigma[m] - self.shrink * rep.sigma_all
            self.worst2 = _loewner_worst(self.worst2, diff)
            self.n_checks2 += 1

    def reports(self, rep: _Replay) -> list[BoundReport]:
        return [_capped(
            "covariance-comparison", max(self.worst1, self.worst2), 1e-8,
            claim1_checks=self.n_checks1, claim1_worst=self.worst1,
            claim2_checks=self.n_checks2, claim2_worst=self.worst2,
            windows=len(self.windows),
        )]


def _single_agent_windows(trace: SimulationTrace) -> list[tuple[int, int, int]]:
    """Windows (m, t1, t2): agent m alone active in (t1, t2], syncing at t1.

    t1 is a sync round of m; the window extends to the agent's next sync in
    the same run of consecutive activations, or to the run's last round.  It
    must not reach past the run: at the first round of the next run another
    agent can upload, growing the shared aggregate past what m downloaded at
    t1, and the comparison is not claimed there.
    """
    agent, t = trace.agent, trace.t
    T = len(t)
    if T == 0:
        return []
    # Last row of the run of consecutive activations that each row belongs to.
    last = np.flatnonzero(np.append(agent[1:] != agent[:-1], True))
    run_end = np.repeat(last, np.diff(last, prepend=-1))
    ks = np.flatnonzero(_synced_rows(trace))
    # Sync rows of one run belong to its agent, so the next sync row, if it is
    # still inside the run, is that agent's next sync there.
    close = np.minimum(np.append(ks[1:], T), run_end[ks])
    keep = t[close] > t[ks]
    return list(zip(agent[ks][keep].tolist(), t[ks][keep].tolist(), t[close][keep].tolist()))


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
    # The trigger window, decided by the run's own trigger: a double pull of
    # the long arm must fire, while a single pull or a long-short pair must not.
    lam = 1.0
    long_arm, short_arm = _BIAS_ARMS
    fired = {}
    for pulls, arms in (("double", (long_arm, long_arm)), ("single", (long_arm,)),
                        ("long-short", (long_arm, short_arm))):
        agent = init_agent(1, len(long_arm), lam)
        for x in arms:
            agent = local_update(agent, x, 0.0)
        fired[pulls] = should_sync(agent, alpha)
    if fired != {"double": True, "single": False, "long-short": False}:
        raise ValueError(
            f"alpha={alpha} breaks the trigger window: only a double pull of the long "
            f"arm may fire the trigger, got {fired}"
        )

    inst = gen_instance("bias-demo", seed=seed)
    hp = HyperParams(
        lam=lam, alpha=alpha, delta=0.01,
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
        predicted_reward_arm_a=float(long_arm @ theta_server),
        upload_fraction=server.upload_count / m_agents,
        beta=beta_fixed,
        alpha=alpha,
    )


def _trace_consistency_check(trace: SimulationTrace) -> BoundReport:
    problems = 0
    detail = {}
    comm_sum = int(trace.comm.sum())
    if trace.comm_count != comm_sum:
        problems += 1
        detail["comm_count_vs_records"] = (trace.comm_count, comm_sum)
    if trace.comm_count != 2 * len(trace.events) and trace.events:
        problems += 1
        detail["comm_count_vs_events"] = (trace.comm_count, 2 * len(trace.events))
    if trace.switch_count * 2 != trace.comm_count:
        problems += 1
        detail["switch_identity"] = (trace.switch_count, trace.comm_count)
    non_finite = int((~(np.isfinite(trace.reward) & np.isfinite(trace.arms).all(-1))).sum())
    if non_finite:
        problems += 1
        detail["non_finite_rows"] = non_finite
    negative = int((trace.inst_regret < 0).sum())
    if negative:
        problems += 1
        detail["negative_regret_rounds"] = negative
    T = len(trace.t)
    if T != len(trace.cum_regret):
        problems += 1
        detail["cum_regret_length"] = (T, len(trace.cum_regret))
    else:
        expected = np.cumsum(trace.inst_regret)
        if T and float(np.abs(expected - trace.cum_regret).max()) > 1e-9 * max(
            1.0, float(expected[-1])
        ):
            problems += 1
            detail["cum_regret_mismatch"] = float(np.abs(expected - trace.cum_regret).max())
    before, after = trace.logdet_server[:-1], trace.logdet_server[1:]
    if trace.events and np.any(after < before - 1e-12 * np.maximum(1.0, np.abs(before))):
        problems += 1
        detail["logdet_server_not_monotone"] = True
    return BoundReport("trace-consistency", float(problems), 0.0, problems == 0,
                       -float(problems), detail)


def _sync_criterion_check(trace: SimulationTrace, alpha: float) -> BoundReport:
    """Every sync's fresh-factor gain ``logdet_after - logdet_before`` exceeds
    ``log1p(alpha)``, up to the rounding of the two log-determinants."""
    p = trace.params
    tol = logdet_rounding(int(p["d"]), float(p["lambda"]), float(p["L"]), int(p["T"]))
    violations = 0
    worst_margin = math.inf
    for ev in trace.events:
        margin = ev.logdet_after - ev.logdet_before - math.log1p(alpha)
        worst_margin = min(worst_margin, margin)
        if margin < -tol:
            violations += 1
    return BoundReport(
        "sync-criterion-events", float(violations), 0.0, violations == 0, -float(violations),
        {"worst_margin": None if math.isinf(worst_margin) else worst_margin,
         "events": len(trace.events), "tolerance": tol},
    )


def run_invariant_suite(
    trace: SimulationTrace, inst: ProblemInstance, hp: HyperParams
) -> list[BoundReport]:
    """Every invariant check on one trace, as named pass/fail reports.

    This is the one public entry point for the checks.  One replay of the
    trace feeds every replay-based check.  The two confidence checks are
    high-probability statements (they may fail on a delta-tail run by
    design); everything else is deterministic.
    """
    p = trace.params
    d, M, T, L = int(p["d"]), int(p["M"]), int(p["T"]), float(p["L"])
    reports = [_trace_consistency_check(trace), _sync_criterion_check(trace, hp.alpha)]

    comm_bound = theoretical_comm_bound(d, M, hp.alpha, hp.lam, L, T)
    reports.append(_capped("comm-bound", float(trace.comm_count), comm_bound))
    worst_epoch = float(max(_comm_per_epoch(trace), default=0))
    reports.append(_capped("epoch-comm", worst_epoch, epoch_comm_cap(M, hp.alpha)))

    reports += _run_pass(trace, [
        _Elliptical(trace), _Conservation(), _Noise(trace, inst),
        _Covariance(trace, hp.alpha, M), _Coverage(trace, inst, trace.beta_used),
    ])

    regret_bound = theoretical_regret_bound(inst, hp, M, T, trace.beta_used)
    reports.append(_capped("regret-bound", trace.total_regret, regret_bound))
    return reports
