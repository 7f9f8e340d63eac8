"""Trace analysis: bound evaluators, concentration checks, bias demonstration.

The invariant checks rebuild the protocol bookkeeping from the trace and the
environment's decision sets (:class:`_Replay`), compare it against the stored
upload checksums, and derive each upload's trigger gain from it.
Each replay-based check is an accumulator fed once per replayed round, and
:func:`run_invariant_suite`, the one public entry point for the checks, drives
all of them through a single pass, fed the run's rows block by block.  Within
the pass every round's pooled covariance is factored once, a Loewner
comparison is recomputed only when its operands changed, and each
``eigvalsh`` is screened by a Cholesky factorization
(:func:`~fedlinucb.core.eigs_surely_above`) that skips it only where its
value could not change the report.
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
from .environment import _BIAS_ARMS, gen_instance, gen_schedule, sample_decision_set
from .protocol import init_agent, local_update, payload_checksum, should_sync
from .simulator import SimulationTrace, _comm_per_epoch, epoch_boundaries, run_fedlinucb

__all__ = [
    "BoundReport",
    "BiasDemoReport",
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


def _capped(name: str, empirical: float, bound: float, satisfied: bool | None = None,
            **detail) -> BoundReport:
    """Report for ``empirical <= bound`` (unless told otherwise), slack ``bound - empirical``."""
    if satisfied is None:
        satisfied = empirical <= bound
    return BoundReport(name, empirical, bound, satisfied, bound - empirical, detail)


class _Replay:
    """Protocol state rebuilt round by round from a run's rows.

    ``feed`` replays the next rows of the run.  After each row the attributes
    hold end-of-round values for its round: the acting agent ``m``, its arm
    ``x`` (row ``arm_index`` of the round's decision set, read from the
    environment) and reward ``r``, the pooled statistics, the server aggregate,
    every agent's unsynced buffers, synced covariance factor (ridge floor
    verified) and target, and ``synced``, whether the round's agent uploaded.
    ``pooled()`` factors the pooled covariance at most once per round, with
    the ridge floor verified, for every check to share.  ``rows`` counts the
    rows replayed.

    ``gains`` holds, per upload, ``logdet(sigma + sigma_loc) - logdet(sigma)``
    of the uploader's synced covariance and buffer, from fresh factors: the
    quantity the run's trigger compared with ``log1p(alpha)``.

    Every recorded event counts in ``checksum_mismatches`` until an upload of
    the replay matches it: one by the round's acting agent whose replayed
    buffers hash to the event's checksum.  So an event of another agent or a
    second event at one round stays counted.
    """

    def __init__(self, inst: ProblemInstance, M: int, lam: float):
        self.inst, d = inst, inst.dim
        self.d, self.M, self.lam = d, M, lam
        self.sigma_all = self.lam * np.eye(d)
        self.b_all = np.zeros(d)
        self.server_sigma = self.lam * np.eye(d)
        self.server_b = np.zeros(d)
        self.sigma_loc = {m: np.zeros((d, d)) for m in range(1, self.M + 1)}
        self.b_loc = {m: np.zeros(d) for m in range(1, self.M + 1)}
        prior = SpdMatrix._factor(lam * np.eye(d), min_eig=lam)
        self.synced_factor = {m: prior for m in range(1, self.M + 1)}
        self.synced_b = {m: np.zeros(d) for m in range(1, self.M + 1)}
        self.events_by_round: dict = {}
        self.checksum_mismatches = 0
        self.gains: list[float] = []
        self.synced = False
        self._pooled: SpdMatrix | None = None
        self.rows = 0

    def feed(self, agent: np.ndarray, arm_index: np.ndarray, reward: np.ndarray,
             events: list, checks: list) -> None:
        """Replay the next rows (their agents, arm indices and rewards, with the
        events recorded at their rounds), updating every check after each row."""
        self.checksum_mismatches += len(events)
        self.events_by_round.update((ev.round, ev) for ev in events)
        for m, idx, r in zip(agent.tolist(), arm_index.tolist(), reward.tolist()):
            k = self.rows
            self.step(m, idx, r)
            for check in checks:
                check.update(self, k)

    def step(self, m: int, idx: int, r: float) -> None:
        """Replay the next round t: agent m plays arm ``idx`` of round t for reward r."""
        t = self.rows = self.rows + 1
        self.m, self.r = m, r
        x = self.x = sample_decision_set(self.inst, t)[idx]
        xx = np.outer(x, x)
        self.sigma_all = self.sigma_all + xx
        self.b_all = self.b_all + r * x
        self._pooled = None
        self.sigma_loc[m] = self.sigma_loc[m] + xx
        self.b_loc[m] = self.b_loc[m] + r * x
        event = self.events_by_round.get(t)
        self.synced = event is not None and event.agent == m
        if self.synced:
            if payload_checksum(self.sigma_loc[m], self.b_loc[m]) == event.payload_checksum:
                self.checksum_mismatches -= 1
            before = self.synced_factor[m]
            self.gains.append(SpdMatrix._factor(before.mat + self.sigma_loc[m]).logdet
                              - before.logdet)
            self.server_sigma = self.server_sigma + self.sigma_loc[m]
            self.server_b = self.server_b + self.b_loc[m]
            self.sigma_loc[m] = np.zeros((self.d, self.d))
            self.b_loc[m] = np.zeros(self.d)
            self.synced_factor[m] = SpdMatrix._factor(self.server_sigma, min_eig=self.lam)
            self.synced_b[m] = self.server_b

    def pooled(self) -> SpdMatrix:
        if self._pooled is None:
            self._pooled = SpdMatrix._factor(self.sigma_all, min_eig=self.lam)
        return self._pooled


def _run_pass(trace: SimulationTrace, inst: ProblemInstance, lam: float, checks: list) -> _Replay:
    """Feed each round of one replay to every accumulator; return the replay at its end."""
    rep = _Replay(inst, trace.M, lam)
    rep.feed(trace.agent, trace.arm_index, trace.reward, trace.events, checks)
    return rep


class _Elliptical:
    """Sum of squared pooled-covariance norms of the played arms.

    sum_t inv_norm(sigma_all_t, x_t)^2 <= 2 d ln(1 + T L^2 / lambda), with
    sigma_all_t the end-of-round pooled covariance.
    """

    def __init__(self, d: int, lam: float, L: float, T: int):
        self.bound = 2.0 * d * math.log(1.0 + T * L * L / lam)
        self.total = 0.0

    def update(self, rep: _Replay, k: int) -> None:
        self.total += inv_norm(rep.pooled(), rep.x) ** 2

    def reports(self) -> list[BoundReport]:
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

    def __init__(self, inst: ProblemInstance, hp: HyperParams, T: int, beta: float):
        d, lam, delta, L, R, S = inst.dim, hp.lam, hp.delta, inst.L, inst.R, inst.S
        self.global_bound = (
            R * math.sqrt(d * math.log((1.0 + T * L * L / lam) / delta)) + math.sqrt(lam) * S
        )
        self.theta, self.beta = inst.theta_star, beta
        self.n_local = self.local_viol = self.n_global = self.global_viol = 0

    def update(self, rep: _Replay, k: int) -> None:
        sigma_all = rep.pooled()
        theta_all = solve_estimate(sigma_all, rep.b_all)
        self.n_global += 1
        # Written as "not <=" so that a NaN norm counts as a violation.
        if not _weighted_norm(sigma_all, self.theta - theta_all) <= self.global_bound:
            self.global_viol += 1
        if rep.synced:
            sigma_m = rep.synced_factor[rep.m]
            theta_m = solve_estimate(sigma_m, rep.synced_b[rep.m])
            self.n_local += 1
            if not _weighted_norm(sigma_m, self.theta - theta_m) <= self.beta:
                self.local_viol += 1

    def reports(self) -> list[BoundReport]:
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

    A sync of agent m opens a window on the rounds after it, and the window
    stays open while m keeps acting; a later sync of m closes it and opens
    the next.  It must not reach past m's run of consecutive activations: at
    the first round of the next run another agent can upload, growing the
    shared aggregate past what m downloaded, and the comparison is not
    claimed there.  A window counts once its first round is checked.
    """

    def __init__(self, alpha: float, M: int):
        self.alpha, self.M = alpha, M
        self.shrink = 1.0 / (1.0 + M * alpha)
        self.window: int | None = None  # agent of the open window
        self.checked = False  # whether the open window has a checked round
        self.windows = 0
        self.worst1 = self.worst2 = 0.0  # claim 1 / claim 2 violation magnitudes
        self.n_checks1 = self.n_checks2 = 0

    def update(self, rep: _Replay, k: int) -> None:
        # Claim 1 covers every agent every round, but an agent's difference
        # changes only with its buffer (the active agent) or the server (every
        # agent, after an upload); an unchanged one is already in the worst.
        if k == 0 or rep.synced:
            changed = range(1, self.M + 1)
        else:
            changed = [rep.m]
        for m in changed:
            diff = rep.server_sigma - rep.sigma_loc[m] / self.alpha
            self.worst1 = _loewner_worst(self.worst1, diff)
        self.n_checks1 += self.M
        if self.window == rep.m:
            diff = rep.synced_factor[rep.m].mat - self.shrink * rep.sigma_all
            self.worst2 = _loewner_worst(self.worst2, diff)
            self.n_checks2 += 1
            self.windows += not self.checked
            self.checked = True
        else:
            self.window = None
        if rep.synced:
            self.window, self.checked = rep.m, False

    def reports(self) -> list[BoundReport]:
        return [_capped(
            "covariance-comparison", max(self.worst1, self.worst2), 1e-8,
            claim1_checks=self.n_checks1, claim1_worst=self.worst1,
            claim2_checks=self.n_checks2, claim2_worst=self.worst2,
            windows=self.windows,
        )]


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
    hp = HyperParams(lam=lam, alpha=alpha, delta=0.01, beta_value=beta_fixed, estimate_mode=mode)
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
        upload_fraction=trace.switch_count / m_agents,
        beta=beta_fixed,
        alpha=alpha,
    )


def _trace_consistency_check(trace: SimulationTrace) -> BoundReport:
    problems = 0
    detail = {}
    non_finite = int((~np.isfinite(trace.reward)).sum())
    if non_finite:
        problems += 1
        detail["non_finite_rows"] = non_finite
    negative = int((trace.inst_regret < 0).sum())
    if negative:
        problems += 1
        detail["negative_regret_rounds"] = negative
    before, after = trace.logdet_server[:-1], trace.logdet_server[1:]
    if trace.events and np.any(after < before - 1e-12 * np.maximum(1.0, np.abs(before))):
        problems += 1
        detail["logdet_server_not_monotone"] = True
    return BoundReport("trace-consistency", float(problems), 0.0, problems == 0,
                       -float(problems), detail)


def _blocks(trace):
    """Yield the run's rows as (arm_index, reward, events) blocks; return the finished trace.

    A :class:`SimulationTrace` is one block.  Anything else is a run in
    progress, which streams its own blocks from ``trace.blocks()``.
    """
    if isinstance(trace, SimulationTrace):
        yield trace.arm_index, trace.reward, trace.events
        return trace
    return (yield from trace.blocks())


def run_invariant_suite(
    trace: SimulationTrace, inst: ProblemInstance, hp: HyperParams
) -> list[BoundReport]:
    """Every invariant check on one trace, as named pass/fail reports.

    This is the one public entry point for the checks.  One replay of the
    trace feeds every replay-based check, ``conservation`` counts the
    recorded events that no replayed upload matches, and
    ``sync-criterion-events`` checks each replayed upload's gain against
    ``log1p(alpha)``, up to the rounding of its two log-determinants.  The
    two confidence checks are high-probability statements (they may fail on
    a delta-tail run by design); everything else is deterministic.  Every
    parameter comes from ``inst`` and ``hp``, the horizon from the trace's
    length and the agent count from ``trace.M``.

    The replay is fed blocks of rows, each (arm_index, reward, events of
    those rows), and replays each as it comes.  A finished trace is one
    block.  ``trace`` may instead be a run in progress, as ``check`` streams
    from a second process: it holds ``agent``, ``M`` and ``beta_used`` from
    the start, and its ``blocks()`` generator yields each finished block and
    returns the finished trace, whose ``beta_used`` must match.  Only
    ``trace-consistency``, ``comm-bound``, ``epoch-comm`` and
    ``regret-bound`` wait for the whole trace.  The replay reads each played
    arm from ``inst``, so a block whose ``arm_index`` leaves 0..K-1 is
    refused, as is an event at a round outside 1..T.
    """
    d, M, T, L, K = inst.dim, trace.M, len(trace.agent), inst.L, inst.arm_spec.K
    elliptical, covariance = _Elliptical(d, hp.lam, L, T), _Covariance(hp.alpha, M)
    coverage = _Coverage(inst, hp, T, trace.beta_used)
    rep = _Replay(inst, M, hp.lam)
    blocks = _blocks(trace)
    while True:
        try:
            arm_index, reward, events = next(blocks)
        except StopIteration as end:
            trace = end.value
            break
        if len(arm_index) and not 0 <= arm_index.min() <= arm_index.max() < K:
            raise ValueError(f"trace arm_index leaves 0..{K - 1}")
        for ev in events:
            if not 1 <= ev.round <= T:
                raise ValueError(f"trace event at round {ev.round} leaves 1..{T}")
        agent = trace.agent[rep.rows:rep.rows + len(arm_index)]
        rep.feed(agent, arm_index, reward, events, [elliptical, covariance, coverage])
    # The radius the replay checked against was known before the run ended.
    assert rep.rows == len(trace.agent) and trace.beta_used == coverage.beta

    tol = logdet_rounding(d, hp.lam, L, T)
    margins = [gain - math.log1p(hp.alpha) for gain in rep.gains]
    # Counted in ints, so that ``satisfied`` stays a Python bool: tol is a numpy float.
    violations = sum(1 for margin in margins if margin < -tol)
    reports = [
        _trace_consistency_check(trace),
        BoundReport("sync-criterion-events", float(violations), 0.0, violations == 0,
                    -float(violations), {"worst_margin": min(margins, default=None),
                                         "events": len(margins), "tolerance": tol}),
    ]

    comm_bound = theoretical_comm_bound(d, M, hp.alpha, hp.lam, L, T)
    reports.append(_capped("comm-bound", float(trace.comm_count), comm_bound))
    epochs = epoch_boundaries(trace, hp.lam, d)
    worst_epoch = float(max(_comm_per_epoch(trace, epochs), default=0))
    reports.append(_capped("epoch-comm", worst_epoch, epoch_comm_cap(M, hp.alpha)))

    mismatches = rep.checksum_mismatches
    reports += elliptical.reports()
    reports.append(_capped("conservation", float(mismatches), 0.0,
                           checksum_mismatches=mismatches))
    reports += covariance.reports() + coverage.reports()

    regret_bound = theoretical_regret_bound(inst, hp, M, T, trace.beta_used)
    reports.append(_capped("regret-bound", trace.total_regret, regret_bound))
    return reports
