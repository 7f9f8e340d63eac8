"""One run driver over an activation sequence, and trace assembly.

FedLinUCB is fully asynchronous: one agent acts per round and an activation
never triggers another agent's step.  The federated run and the
no-communication baseline are therefore one loop (:func:`_drive`) over the
sequence of acting agents; the baseline runs it with a private server per
agent.  The round is written once, in :func:`_drive`: the acting agent takes
its choice from its plan, observes its reward in the block's table, buffers
it and advances its trigger state (``protocol._rank_one``), and syncs
(``protocol.sync``) when the trigger (``protocol._fires``) fires; both are
looked up on the module every round, so a patched one reaches the run.  A
lazy agent's statistics change only when it syncs, so its plan scores its
next activations inside the block as one stack (``core._ucb_index``) and
holds until it syncs; the width restarts at one after a sync and doubles each
time a plan runs out.  An eager agent scores each activation on its
recombined statistics (``protocol._recombined``).  Every run shares that
round and the counter-based environment, so a round's decision set and noise
depend only on (master_seed, global round index), and an episodic run is the
run of its flattened schedule
(:meth:`~fedlinucb.environment.Schedule.from_episodes`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    HyperParams,
    ProblemInstance,
    check_ridge_domain,
    check_selection,
    compute_beta,
    epoch_comm_cap,
    theoretical_comm_bound,
    _ucb_index,
)
from .environment import BLOCK, Schedule, _block, sample_decision_set
from . import protocol
from .protocol import AgentState, CommEvent, ServerState, init_agent, init_server


class CommBoundError(AssertionError):
    """A run exceeded the deterministic communication cap. Hard failure."""


@dataclass(frozen=True)
class SimulationTrace:
    """Complete record of one run, one array entry per round in round order.

    Columns (length T): ``agent`` (acting agent id), ``arm_index`` (chosen
    row of the round's decision set; round t's arm is
    ``sample_decision_set(inst, t)[arm_index[t-1]]``), ``reward``,
    ``inst_regret`` and ``logdet_server`` (end-of-round server
    log-determinant).  ``events`` has one entry per sync; ``M`` is the
    schedule's agent count.  ``final_agents`` / ``final_server`` carry the
    terminal protocol states for downstream checks.  ``t``, ``comm``,
    ``cum_regret``, ``comm_count``, ``switch_count`` and ``total_regret`` are
    derived from these, and the determinant-doubling epochs come from
    :func:`epoch_boundaries`.  A trace is built once and never assigned to.
    """

    agent: np.ndarray
    arm_index: np.ndarray
    reward: np.ndarray
    inst_regret: np.ndarray
    logdet_server: np.ndarray
    events: list[CommEvent]
    beta_used: float
    M: int
    final_agents: list[AgentState] = field(default_factory=list, repr=False)
    final_server: ServerState | None = field(default=None, repr=False)

    @property
    def t(self) -> np.ndarray:
        """Round index 1..T."""
        return np.arange(1, len(self.agent) + 1)

    @property
    def comm(self) -> np.ndarray:
        """Communications per round: 2 at each sync's round, else 0."""
        comm = np.zeros(len(self.agent), dtype=np.int64)
        comm[[ev.round - 1 for ev in self.events]] = 2
        return comm

    @property
    def cum_regret(self) -> np.ndarray:
        """``cum_regret[t-1]`` is the regret accumulated through round t."""
        return np.cumsum(self.inst_regret)

    @property
    def comm_count(self) -> int:
        """Uploads plus downloads: two per sync."""
        return 2 * len(self.events)

    @property
    def switch_count(self) -> int:
        """Policy switches: one per sync."""
        return len(self.events)

    @property
    def total_regret(self) -> float:
        """Regret accumulated through the last round; 0.0 on an empty trace."""
        return float(self.cum_regret[-1]) if len(self.inst_regret) else 0.0


def index_regret(inst: ProblemInstance, d_set: np.ndarray, idx: int) -> float:
    """Best mean reward in the (K, d) decision set minus that of its arm ``idx``.

    Max and chosen entry come from the same dot-product array, so the result
    is exactly nonnegative and exactly zero for the best arm.  This is the
    reference formula; a run reads the same figure, bit for bit, from the
    table of its instance and the round's block (``environment._block``).
    """
    values = d_set @ inst.theta_star
    return float(values.max() - values[idx])


def _resolve_beta(inst: ProblemInstance, hp: HyperParams, M: int, T: int) -> float:
    if T == 0 and hp.beta_value is None:
        return 0.0  # an empty run selects nothing; compute_beta refuses T = 0
    return compute_beta(inst, hp, M, T)


def epoch_boundaries(trace: SimulationTrace, lam: float, d: int) -> list[tuple[int, int]]:
    """Realized determinant-doubling epochs of the server covariance.

    Returns (i, tau_i) with tau_i the first round whose end-of-round server
    log-determinant reaches i*ln(2) + d*ln(lam), i.e. whose determinant
    reaches 2^i * lam^d.  tau_0 is always round 1 on nonempty traces; indices
    stop at the last threshold the final log-determinant reaches.
    """
    logdets = trace.logdet_server
    if logdets.size == 0:
        return []
    base = d * math.log(lam)
    # Slack above the rounding of a d-term log sum, so that the untouched
    # prior meets the i=0 threshold.
    slack = 1e-12 * (1.0 + abs(base))
    final = float(logdets[-1])
    # One candidate past the last threshold the final value can reach; the
    # cutoffs rise with i, so the reached ones are a prefix.
    n = max(int((final - base + slack) / math.log(2.0)) + 2, 0)
    cutoffs = np.arange(n) * math.log(2.0) + base - slack
    cutoffs = cutoffs[cutoffs <= final]
    taus = np.searchsorted(logdets, cutoffs, side="left") + 1
    return list(enumerate(taus.tolist()))


def _comm_per_epoch(trace: SimulationTrace, epochs: list[tuple[int, int]]) -> list[int]:
    """Communications (uploads + downloads) inside each of the realized ``epochs``.

    Thresholds can be crossed several at once; such epochs share a start
    round and all but the last of them count zero.
    """
    if not epochs:
        return []
    cum = np.concatenate(([0], np.cumsum(trace.comm)))
    starts = np.array([tau for _, tau in epochs])
    ends = np.append(starts[1:], len(trace.agent) + 1)
    return (cum[ends - 1] - cum[starts - 1]).tolist()


def _assert_comm_bounds(trace: SimulationTrace, hp: HyperParams, d: int, bound: float) -> None:
    if trace.comm_count > bound:
        raise CommBoundError(
            f"comm_count {trace.comm_count} exceeds deterministic cap {bound:.6f}"
        )
    per_epoch_cap = epoch_comm_cap(trace.M, hp.alpha)
    epochs = epoch_boundaries(trace, hp.lam, d)
    for count, (i, tau) in zip(_comm_per_epoch(trace, epochs), epochs):
        if count > per_epoch_cap:
            raise CommBoundError(
                f"epoch {i} (from round {tau}) used {count} communications, cap {per_epoch_cap:.6f}"
            )


def _drive(
    inst: ProblemInstance,
    hp: HyperParams,
    activations: np.ndarray,
    betas: list[float],
    private: bool,
    beta_used: float,
    on_block: Callable[[np.ndarray, np.ndarray, list[CommEvent]], None] | None = None,
) -> SimulationTrace:
    """Run ``activations[k]`` (agent ids 1..len(betas)) at round k + 1.

    Agent m selects with radius ``betas[m-1]``.  With ``private`` every agent
    syncs with its own server: its refreshes are policy switches, not
    communications, so no event is kept and ``comm`` stays 0.  ``on_block``,
    if given, receives each finished block's ``arm_index`` and ``reward``
    and the events of its rounds, in round order.

    A lazy agent's choices up to its next sync depend only on the decision
    sets, so a plan scores them ahead, as one stack, within the block.  Its
    width starts at one after each sync and doubles only while no sync cuts
    it short, so an agent that syncs often scores few sets it never plays.
    An eager agent's buffers change its statistics every round, so it scores
    each activation on its own.
    """
    T, M, d = len(activations), len(betas), inst.dim
    eager, alpha = hp.estimate_mode == "eager", hp.alpha
    servers = [init_server(d, hp.lam) for _ in range(M if private else 1)]
    # Each agent's last download holds its synced statistics; its buffers are
    # running arrays that the run owns and updates in place, and its trigger
    # state is kept in slots.  A whole AgentState is built only to sync and at
    # the end.  v_inv stays as dpotrs returned it, in Fortran order, until the
    # first step replaces it: ``v_inv @ x`` rounds by layout.
    agents = [init_agent(m, d, hp.lam) for m in range(1, M + 1)]
    sigma_loc = [a.sigma_loc for a in agents]
    b_loc = [a.b_loc for a in agents]
    v_inv = [a.v_inv for a in agents]
    log_gain = [a.log_gain for a in agents]
    width = [1] * M
    logdets = [s.sigma_ser.logdet for s in servers]

    def state(i: int) -> AgentState:
        a = agents[i]
        return AgentState(id=a.id, sigma=a.sigma, b=a.b, sigma_loc=sigma_loc[i], b_loc=b_loc[i],
                          theta_hat=a.theta_hat, v_inv=v_inv[i], log_gain=log_gain[i])

    if T:
        # Every round's set has the shape of the first, and each radius is
        # fixed for the run: the selection rule is checked once, here, and
        # the rounds skip it (as they skip alpha > 0, which HyperParams holds).
        check_selection(d, min(betas), sample_decision_set(inst, 1))

    arm_index = np.zeros(T, dtype=np.int64)
    reward = np.zeros(T)
    inst_regret = np.zeros(T)
    logdet_server = np.zeros(T)
    events: list[CommEvent] = []
    for start in range(0, T, BLOCK):
        table = _block(inst, start // BLOCK)
        arms, means, noise = table.arms, table.means, table.noise
        ids = activations[start:start + BLOCK]
        rows_of = [np.flatnonzero(ids == m) for m in range(1, M + 1)]
        plans: list[list[int]] = [[] for _ in range(M)]  # each agent's next choices, last first
        choice, dets, first_event = [], [], len(events)
        for row, m in enumerate(ids.tolist()):
            i, j = m - 1, m - 1 if private else 0
            a = agents[i]
            if eager:
                theta, chol = protocol._recombined(a.sigma, a.b, sigma_loc[i], b_loc[i])
                idx = int(_ucb_index(theta, chol, betas[i], arms[row]))
            else:
                if not plans[i]:
                    p, n, width[i] = rows_of[i].searchsorted(row), width[i], 2 * width[i]
                    stack = arms[rows_of[i][p:p + n]]
                    plans[i] = _ucb_index(a.theta_hat, a.sigma.chol, betas[i], stack).tolist()[::-1]
                idx = plans[i].pop()
            x = arms[row, idx]
            r = means[row, idx] + noise[row]
            sigma_loc[i] += x[:, None] * x
            b_loc[i] += r * x
            v_inv[i], gain = protocol._rank_one(v_inv[i], x)
            log_gain[i] += gain
            if protocol._fires(log_gain[i], alpha):
                # The strict trigger cannot fire without local data.
                assert sigma_loc[i].any(), "sync triggered on empty buffers"
                a, servers[j], event = protocol.sync(state(i), servers[j], start + row + 1)
                agents[i], sigma_loc[i], b_loc[i] = a, a.sigma_loc, a.b_loc
                v_inv[i], log_gain[i] = a.v_inv, a.log_gain
                logdets[j] = servers[j].sigma_ser.logdet
                plans[i], width[i] = [], 1
                if not private:
                    events.append(event)
            choice.append(idx)
            dets.append(logdets[j])
        # The reward and regret of every round, from the table: the same sums
        # and differences as the per-round floats, bit for bit.
        rows, span = np.arange(len(ids)), slice(start, start + len(ids))
        arm_index[span] = choice
        reward[span] = means[rows, choice] + noise[rows]
        inst_regret[span] = table.best[rows] - table.values[rows, choice]
        logdet_server[span] = dets
        if on_block is not None:
            on_block(arm_index[span], reward[span], events[first_event:])

    return SimulationTrace(
        agent=activations.astype(np.int64),
        arm_index=arm_index,
        reward=reward,
        inst_regret=inst_regret,
        logdet_server=logdet_server,
        events=events,
        beta_used=beta_used,
        M=M,
        final_agents=[state(i) for i in range(M)],
        final_server=None if private else servers[0],
    )


def run_fedlinucb(
    inst: ProblemInstance,
    schedule: Schedule,
    hp: HyperParams,
) -> SimulationTrace:
    """Sequential federated run over the given activation schedule.

    One agent acts per round: it selects optimistically from its stored
    (lazy) or recombined (eager) statistics, buffers the observation, and
    syncs with the server when the determinant trigger fires.  The
    deterministic communication cap is asserted at the end of every run and
    raises :class:`CommBoundError` when violated.
    """
    return _run_fedlinucb(inst, schedule, hp)


def _run_fedlinucb(inst: ProblemInstance, schedule: Schedule, hp: HyperParams,
                   on_block: Callable | None = None) -> SimulationTrace:
    """:func:`run_fedlinucb`, handing each finished block to ``on_block`` (see :func:`_drive`)."""
    M, T = schedule.M, schedule.T
    beta = _resolve_beta(inst, hp, M, T)
    # Evaluated before the run, so a non-finite cap or an unresolvable ridge is refused up front.
    cap = theoretical_comm_bound(inst.dim, M, hp.alpha, hp.lam, inst.L, T)
    check_ridge_domain(inst.dim, hp.lam, inst.L, T)
    trace = _drive(inst, hp, schedule.agents, [beta] * M, False, beta, on_block)
    _assert_comm_bounds(trace, hp, inst.dim, cap)
    return trace


def run_independent_oful(
    inst: ProblemInstance,
    schedule: Schedule,
    hp: HyperParams,
) -> SimulationTrace:
    """No-communication baseline: each agent learns alone on its own rounds.

    Every agent runs the single-agent special case of the protocol (its own
    private aggregator, same determinant trigger) over its subsequence of the
    schedule, with its auto radius computed for M=1 and its own round count.
    Environment draws still come from the global round index, so the baseline
    faces exactly the same decision sets and noise as a federated run on the
    same schedule.  An unresolvable ridge is refused before the run, as in
    :func:`run_fedlinucb`.  Nothing is ever communicated: the trace reports zero
    communications, and its ``logdet_server`` follows the acting agent's
    private server, so epochs read from it mean nothing.
    """
    M, T = schedule.M, schedule.T
    rounds = np.bincount(schedule.agents, minlength=M + 1)[1:].tolist()
    # Each private server sees only its own agent's rounds.
    check_ridge_domain(inst.dim, hp.lam, inst.L, max(rounds))
    # An agent without rounds selects nothing; its radius is never read.
    betas = [compute_beta(inst, hp, 1, n) if n else 0.0 for n in rounds]
    return _drive(inst, hp, schedule.agents, betas, True, _resolve_beta(inst, hp, 1, T))
