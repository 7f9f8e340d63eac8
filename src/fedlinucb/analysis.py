"""Trace analysis: bound evaluators, concentration checks, bias demonstration.

The invariant checks rebuild the protocol bookkeeping from the trace and the
environment's decision sets (:class:`_Replay`), compare it against the stored
upload checksums, and derive each upload's trigger gain from it.
:func:`run_invariant_suite`, the one public entry point for the checks, drives
every check through a single pass, fed the run's rows block by block.  The
pass replays a stack of consecutive rows at a time, and each replay-based
check is an accumulator fed once per stack, as array code over its rows: a
row keeps only its running sums, one LAPACK ``dpotrs`` and its weighted norm,
and every factor, log-determinant and floor screen of a stack is one stacked
call, bit for bit the per-matrix one.  Each ``eigvalsh`` is screened by a
Cholesky factorization (:func:`~fedlinucb.core.eigs_surely_above`) that skips
it only where its value could not change the report.  A Loewner comparison is
screened only on the rows where it can raise its worst: claim 1 of the
covariance comparison for the acting agent on a row without an upload, and
for no agent on an upload row (:class:`_Covariance` says why).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    HyperParams,
    NumericalDomainError,
    ProblemInstance,
    SpdMatrix,
    _check_floor,
    _chol_solve,
    _cholesky,
    _logdet,
    eigs_surely_above,
    epoch_comm_cap,
    logdet_rounding,
    solve_estimate,
    theoretical_comm_bound,
    theoretical_regret_bound,
)
from .environment import _BIAS_ARMS, BLOCK, _block, gen_instance, gen_schedule
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


# Rows replayed as one stack: each (rows, d, d) stack of the replay holds at
# most this many floats (16 rows at d = 32, a whole block at d <= 8), so that
# the few stacks alive at once stay small next to the check's own memory.
_STACK_FLOATS = 2**14


class _Replay:
    """Protocol state rebuilt from a run's rows, one stack of rows at a time.

    ``feed`` replays the next rows in stacks of consecutive rows inside one
    environment block and hands each stack to every check.  Each row's
    running sums are made in row order, as the run makes them; the stack's
    factors, log-determinants and floor screens are stacked calls.  A stack
    that fails them is refactored one matrix at a time, in row order, so
    that the first failing row raises its own error.

    After each stack, per row k (global row ``first + k``): ``agents``, the
    played arms ``xs`` (row ``arm_index`` of the round's decision set, read
    from the environment), the end-of-round pooled ``pooled`` and
    ``pooled_b``, ``pooled_chol`` (ridge floor verified), ``buffers`` (the
    acting agent's buffer after its arm, the uploaded one on an upload row)
    and ``uploaded``.  ``servers`` stacks the server aggregate before the
    stack and after each upload, and ``server_at[k]`` indexes the one at the
    end of row k.  Upload j made its uploader's synced covariance
    ``servers[j + 1]``, factored as ``synced_chols[j]`` (floor verified),
    and target ``synced_bs[j]``.  ``solves()`` gives each row's pooled solve
    of its arm and of ``pooled_b``.  ``rows`` counts the rows replayed.

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
        self.synced_sigma = dict.fromkeys(range(1, self.M + 1), prior.mat)
        self.synced_logdet = dict.fromkeys(range(1, self.M + 1), prior.logdet)
        self.events_by_round: dict = {}
        self.checksum_mismatches = 0
        self.gains: list[float] = []
        self.rows = 0

    def feed(self, agent: np.ndarray, arm_index: np.ndarray, reward: np.ndarray,
             events: list, checks: list) -> None:
        """Replay the next rows (their agents, arm indices and rewards, with the
        events recorded at their rounds), updating every check after each stack."""
        self.checksum_mismatches += len(events)
        self.events_by_round.update((ev.round, ev) for ev in events)
        fixed, first, end = self.inst.arm_spec.arms, self.rows, self.rows + len(arm_index)
        size = max(1, _STACK_FLOATS // self.d**2)
        lo = first
        while lo < end:
            # The played arms of the rows inside one environment block, gathered
            # at once from its table (a fixed list's from the list itself).
            block = lo // BLOCK
            hi = min(end, (block + 1) * BLOCK, lo + size)
            part = slice(lo - first, hi - first)
            if fixed is None:
                rows = np.arange(lo - block * BLOCK, hi - block * BLOCK)
                xs = _block(self.inst, block).arms[rows, arm_index[part]]
            else:
                xs = fixed[arm_index[part]]
            self.step(agent[part], xs, reward[part])
            for check in checks:
                check.update(self)
            lo = hi

    def step(self, agents: np.ndarray, xs: np.ndarray, rewards: np.ndarray) -> None:
        """Replay the next rows: agent ``agents[k]`` plays arm ``xs[k]`` for
        reward ``rewards[k]``."""
        n, d, first = len(xs), self.d, self.rows
        # The last stack's arrays go before this one's are made.
        self.pooled = self.pooled_b = self.pooled_chol = self.buffers = None
        self.servers = self.synced_chols = self.synced_bs = self._solves = None
        self.first, self.agents, self.xs = first, agents, xs
        xx = xs[:, :, None] * xs[:, None, :]  # each row's x[:, None] * x
        rx = np.asarray(rewards, dtype=np.float64)[:, None] * xs
        # add.accumulate sums in row order, as the chain b = b + r x does.
        self.pooled_b = np.add.accumulate(np.concatenate([self.b_all[None], rx]))[1:]
        self.pooled = pooled = np.empty((n, d, d))
        self.buffers = buffers = np.empty((n, d, d))
        self.uploaded = np.zeros(n, dtype=bool)
        # The server aggregate before the stack and after each upload, and each
        # upload's synced covariance plus buffer, written in place.
        servers, gains = np.empty((n + 1, d, d)), np.empty((n, d, d))
        servers[0] = self.server_sigma
        server_bs, uploaders = [], []
        total = self.sigma_all
        for k, m in enumerate(agents.tolist()):
            total = np.add(total, xx[k], out=pooled[k])
            self.sigma_loc[m] = buf = np.add(self.sigma_loc[m], xx[k], out=buffers[k])
            self.b_loc[m] = self.b_loc[m] + rx[k]
            event = self.events_by_round.get(first + k + 1)
            if event is None or event.agent != m:
                continue
            self.uploaded[k] = True
            if payload_checksum(buf, self.b_loc[m]) == event.payload_checksum:
                self.checksum_mismatches -= 1
            j = len(uploaders)
            np.add(self.synced_sigma[m], buf, out=gains[j])
            self.server_sigma = np.add(self.server_sigma, buf, out=servers[j + 1])
            self.server_b = self.server_b + self.b_loc[m]
            server_bs.append(self.server_b)
            uploaders.append(m)
            self.sigma_loc[m] = np.zeros((d, d))
            self.b_loc[m] = np.zeros(d)
            self.synced_sigma[m] = self.server_sigma
        del xx, rx
        u = len(uploaders)
        # Own copies of what outlives the stack, so that no view keeps it alive.
        self.sigma_all, self.b_all = pooled[-1].copy(), self.pooled_b[-1].copy()
        self.server_sigma = servers[u].copy()
        for m in set(agents.tolist()):
            self.sigma_loc[m] = self.sigma_loc[m].copy()
        for m in set(uploaders):
            self.synced_sigma[m] = self.synced_sigma[m].copy()
        self.servers, self.synced_bs, gains = servers[:u + 1], server_bs, gains[:u]
        self.server_at = np.cumsum(self.uploaded)
        try:
            gain_logdets = _logdet(_cholesky(gains)).tolist()
            self.synced_chols = _cholesky(self.servers[1:])
            _check_floor(self.servers[1:], self.lam)
            self.pooled_chol = _cholesky(pooled)
            _check_floor(pooled, self.lam)
        except NumericalDomainError:
            for k, j in enumerate(self.server_at.tolist()):
                if self.uploaded[k]:
                    SpdMatrix._factor(gains[j - 1])
                    SpdMatrix._factor(self.servers[j], min_eig=self.lam)
                SpdMatrix._factor(pooled[k], min_eig=self.lam)
            raise
        for m, gain_logdet, logdet in zip(uploaders, gain_logdets,
                                          _logdet(self.synced_chols).tolist()):
            self.gains.append(gain_logdet - self.synced_logdet[m])
            self.synced_logdet[m] = logdet
        self.rows += n

    def solves(self) -> np.ndarray:
        """The (rows, 2, d) solves of each row's pooled covariance: of its arm,
        then of its pooled ``b``, one LAPACK ``dpotrs`` of both per row."""
        if self._solves is None:
            rhs = np.stack([self.xs, self.pooled_b], axis=-1)
            self._solves = np.array([_chol_solve(chol, b).T
                                     for chol, b in zip(self.pooled_chol, rhs)])
        return self._solves


class _Elliptical:
    """Sum of squared pooled-covariance norms of the played arms.

    sum_t inv_norm(sigma_all_t, x_t)^2 <= 2 d ln(1 + T L^2 / lambda), with
    sigma_all_t the end-of-round pooled covariance.
    """

    def __init__(self, d: int, lam: float, L: float, T: int):
        self.bound = 2.0 * d * math.log(1.0 + T * L * L / lam)
        self.total = 0.0

    def update(self, rep: _Replay) -> None:
        # inv_norm's arithmetic, squared and summed in row order.
        for quad in np.vecdot(rep.xs, rep.solves()[:, 0]).tolist():
            self.total += math.sqrt(max(quad, 0.0)) ** 2

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

    def update(self, rep: _Replay) -> None:
        norms = _weighted_norms(rep.pooled, self.theta - rep.solves()[:, 1])
        self.n_global += len(norms)
        # Written as "not <=" so that a NaN norm counts as a violation.
        self.global_viol += int(np.count_nonzero(~(norms <= self.global_bound)))
        if rep.synced_bs:
            thetas = np.array([_chol_solve(chol, b)
                               for chol, b in zip(rep.synced_chols, rep.synced_bs)])
            norms = _weighted_norms(rep.servers[1:], self.theta - thetas)
            self.n_local += len(norms)
            self.local_viol += int(np.count_nonzero(~(norms <= self.beta)))

    def reports(self) -> list[BoundReport]:
        local = self.local_viol / self.n_local if self.n_local else 0.0
        pooled = self.global_viol / self.n_global if self.n_global else 0.0
        return [
            BoundReport("local-confidence", local, 0.0, self.local_viol == 0, -local,
                        {"checks": self.n_local, "beta": self.beta}),
            BoundReport("global-confidence", pooled, 0.0, self.global_viol == 0, -pooled,
                        {"checks": self.n_global, "radius": self.global_bound}),
        ]


def _weighted_norms(mats: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """||v||_m = sqrt(v^T m v) (direct norm, not the inverse one) of each row v of
    ``vs`` under its matrix m of the stack ``mats``, bit for bit ``v @ m @ v``."""
    quad = np.vecdot(np.matmul(vs[:, None, :], mats)[:, 0], vs)
    return np.sqrt(np.maximum(quad, 0.0))


def _loewner_worst(worst: float, diffs: np.ndarray) -> float:
    """``max(worst, -eigvalsh(diff)[0])`` over the (n, d, d) stack ``diffs``, in
    order, for a running worst that starts at 0.0.

    ``eigvalsh`` runs only where the Cholesky screen cannot prove its value
    nonnegative, that is, where it could raise the worst.
    """
    if len(diffs):
        for diff in diffs[~eigs_surely_above(diffs, 0.0)]:
            worst = max(worst, -float(np.linalg.eigvalsh(diff)[0]))
    return worst


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

    Claim 1 is counted for every agent on every row, but an agent's
    difference ``server - sigma_loc_m / alpha`` is screened only on the rows
    where it can raise the running worst, which starts at 0.  After the
    first row it changes only with the acting agent's buffer or with an
    upload.  A row without an upload moves only the acting agent's.  An
    upload row moves nobody's towards a violation: the uploader's buffer is
    empty, so its difference is the server aggregate itself, whose
    smallest ``eigvalsh`` the replay has just checked, as the uploader's
    synced covariance, against the ridge floor, lam less a rounding margin
    kept below lam, so it is at least 0; every other agent's difference grew
    by the uploaded buffer, a PSD matrix.  Each stack of rows is screened in
    one call, in row order.
    """

    def __init__(self, alpha: float, M: int):
        self.alpha, self.M = alpha, M
        self.shrink = 1.0 / (1.0 + M * alpha)
        self.window: int | None = None  # agent of the open window
        self.checked = False  # whether the open window has a checked round
        self.windows = 0
        self.worst1 = self.worst2 = 0.0  # claim 1 / claim 2 violation magnitudes
        self.n_checks1 = self.n_checks2 = 0

    def update(self, rep: _Replay) -> None:
        # Claim 1 covers every agent every round, screened where it can move
        # the worst (see the class docstring): every agent on the first row,
        # then the acting agent on a row without an upload, nobody on an
        # upload row.
        rows = np.flatnonzero(~rep.uploaded)
        if rep.first == 0:
            # Every agent's buffer but the acting one's is empty; the agents
            # go in stacks of the replay's size.
            server, acting = rep.servers[rep.server_at[0]], int(rep.agents[0]) - 1
            size = max(1, _STACK_FLOATS // rep.d**2)
            for lo in range(0, self.M, size):
                buffers = np.zeros((min(size, self.M - lo), rep.d, rep.d))
                if lo <= acting < lo + size and not rep.uploaded[0]:
                    buffers[acting - lo] = rep.buffers[0]
                self.worst1 = _loewner_worst(self.worst1, server - buffers / self.alpha)
            rows = rows[rows > 0]
        # server - buffer / alpha, made in place.
        diffs = np.divide(rep.buffers[rows], self.alpha)
        np.subtract(rep.servers[rep.server_at[rows]], diffs, out=diffs)
        self.worst1 = _loewner_worst(self.worst1, diffs)
        self.n_checks1 += self.M * len(rep.agents)
        # Claim 2 on the rows inside a window.  There only the window's agent
        # has uploaded since it opened, so its synced covariance is the server
        # aggregate standing at the end of the row.
        rows = []
        for k, (m, uploaded) in enumerate(zip(rep.agents.tolist(), rep.uploaded.tolist())):
            if self.window == m:
                rows.append(k)
                self.windows += not self.checked
                self.checked = True
            else:
                self.window = None
            if uploaded:
                self.window, self.checked = m, False
        diffs = np.multiply(self.shrink, rep.pooled[rows])
        np.subtract(rep.servers[rep.server_at[rows]], diffs, out=diffs)
        self.worst2 = _loewner_worst(self.worst2, diffs)
        self.n_checks2 += len(rows)

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
