"""Run loops: sequential runner, episodic runner, independent baseline.

All runners share the protocol step and the counter-based environment, so a
round's decision set and noise depend only on (master_seed, global round
index).  The sequential and episodic runners therefore produce bit-identical
traces whenever the episodic participation sets flatten to the same
activation sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    HyperParams,
    ProblemInstance,
    compute_beta,
    theoretical_comm_bound,
)
from .environment import Schedule, sample_decision_set, sample_reward
from .protocol import (
    AgentState,
    CommEvent,
    RoundRecord,
    ServerState,
    init_agent,
    init_server,
    step_agent,
)


class CommBoundError(AssertionError):
    """A run exceeded the deterministic communication cap. Hard failure."""


@dataclass
class SimulationTrace:
    """Complete record of one run.

    ``records`` has one entry per round in round order; ``events`` one entry
    per sync; ``cum_regret[t-1]`` is the regret accumulated through round t;
    ``epoch_starts`` lists (i, tau_i) for every realized doubling index of
    the server determinant.  ``final_agents`` / ``final_server`` carry the
    terminal protocol states for downstream checks.
    """

    records: list[RoundRecord]
    events: list[CommEvent]
    cum_regret: np.ndarray
    comm_count: int
    switch_count: int
    epoch_starts: list[tuple[int, int]]
    beta_used: float
    params: dict
    final_agents: list[AgentState] = field(default_factory=list, repr=False)
    final_server: ServerState | None = field(default=None, repr=False)


def _params_echo(inst: ProblemInstance, hp: HyperParams, M: int, T: int, descriptor: str) -> dict:
    return {
        "d": inst.dim,
        "M": M,
        "T": T,
        "S": inst.S,
        "L": inst.L,
        "R": inst.R,
        "noise": inst.noise_spec,
        "arm_variant": inst.arm_spec.variant,
        "K": inst.arm_spec.K,
        "master_seed": int(inst.master_seed),
        "lambda": hp.lam,
        "alpha": hp.alpha,
        "delta": hp.delta,
        "beta_mode": hp.beta_mode,
        "estimate_mode": hp.estimate_mode,
        "schedule": descriptor,
    }


def _make_regret_fn(inst: ProblemInstance):
    theta = inst.theta_star

    def regret_fn(d_set, idx: int) -> float:
        # Same dot-product array for max and chosen entry, so the result is
        # exactly nonnegative and exactly zero for the best arm.
        values = d_set.arms @ theta
        return float(values.max() - values[idx])

    return regret_fn


def _resolve_beta(inst: ProblemInstance, hp: HyperParams, M: int, T: int) -> float:
    if T == 0 and hp.beta_mode == "auto":
        return 0.0  # nothing is selected; keep the echo deterministic
    return compute_beta(inst, hp, M, T)


def epoch_boundaries(trace: SimulationTrace, lam: float, d: int) -> list[tuple[int, int]]:
    """Realized determinant-doubling epochs of the server covariance.

    Returns (i, tau_i) with tau_i the first round whose end-of-round server
    log-determinant reaches i*ln(2) + d*ln(lam), i.e. whose determinant
    reaches 2^i * lam^d.  tau_0 is always round 1 on nonempty traces; indices
    stop at the last threshold the final log-determinant reaches.
    """
    logdets = np.array([rec.logdet_server for rec in trace.records], dtype=np.float64)
    if logdets.size == 0:
        return []
    base = d * math.log(lam)
    # Slack above the rounding of a d-term log sum, so that the untouched
    # prior meets the i=0 threshold.
    slack = 1e-12 * (1.0 + abs(base))
    out: list[tuple[int, int]] = []
    final = logdets[-1]
    i = 0
    while True:
        cutoff = i * math.log(2.0) + base - slack
        if final < cutoff:
            break
        tau = int(np.searchsorted(logdets, cutoff, side="left")) + 1
        out.append((i, tau))
        i += 1
    return out


def _comm_per_epoch(trace: SimulationTrace) -> list[int]:
    """Communications (uploads + downloads) inside each realized epoch."""
    if not trace.epoch_starts:
        return []
    T = len(trace.records)
    starts = [tau for _, tau in trace.epoch_starts]
    # Thresholds can be crossed several at once; dedupe to true segments but
    # count each segment's comms once per *distinct* epoch interval.
    counts = []
    for j, tau in enumerate(starts):
        end = starts[j + 1] if j + 1 < len(starts) else T + 1
        counts.append(2 * sum(1 for ev in trace.events if tau <= ev.round < end))
    return counts


def _assert_comm_bounds(trace: SimulationTrace, inst: ProblemInstance, hp: HyperParams,
                        M: int, T: int) -> None:
    bound = theoretical_comm_bound(inst.dim, M, hp.alpha, hp.lam, inst.L, T)
    if trace.comm_count > bound:
        raise CommBoundError(
            f"comm_count {trace.comm_count} exceeds deterministic cap {bound:.6f}"
        )
    per_epoch_cap = 2.0 * (M + 1.0 / hp.alpha)
    for count, (i, tau) in zip(_comm_per_epoch(trace), trace.epoch_starts):
        if count > per_epoch_cap:
            raise CommBoundError(
                f"epoch {i} (from round {tau}) used {count} communications, cap {per_epoch_cap:.6f}"
            )


def run_fedlinucb(
    inst: ProblemInstance,
    schedule: Schedule,
    hp: HyperParams,
    debug: bool = False,
) -> SimulationTrace:
    """Sequential federated run over the given activation schedule.

    One agent acts per round: it selects optimistically from its stored
    (lazy) or recombined (eager) statistics, buffers the observation, and
    syncs with the server when the determinant trigger fires.  The
    deterministic communication cap is asserted at the end of every run and
    raises :class:`CommBoundError` when violated.
    """
    M, T = schedule.M, schedule.T
    beta = _resolve_beta(inst, hp, M, T)
    agents = [init_agent(m, inst.dim, hp.lam) for m in range(1, M + 1)]
    server = init_server(inst.dim, hp.lam)
    reward_fn = lambda t, x: sample_reward(inst, t, x)  # noqa: E731
    regret_fn = _make_regret_fn(inst)

    records: list[RoundRecord] = []
    events: list[CommEvent] = []
    for t in range(1, T + 1):
        m = int(schedule.agents[t - 1])
        d_set = sample_decision_set(inst, t)
        agent, server, record, event = step_agent(
            agents[m - 1], server, d_set, reward_fn, regret_fn, hp, beta, t, debug=debug
        )
        agents[m - 1] = agent
        records.append(record)
        if event is not None:
            events.append(event)

    cum = np.cumsum([rec.inst_regret for rec in records]) if records else np.zeros(0)
    trace = SimulationTrace(
        records=records,
        events=events,
        cum_regret=cum,
        comm_count=2 * len(events),
        switch_count=len(events),
        epoch_starts=[],
        beta_used=beta,
        params=_params_echo(inst, hp, M, T, schedule.descriptor),
        final_agents=agents,
        final_server=server,
    )
    trace.epoch_starts = epoch_boundaries(trace, hp.lam, inst.dim)
    _assert_comm_bounds(trace, inst, hp, M, T)
    return trace


def run_episodic(
    inst: ProblemInstance,
    participation_sets: list[list[int]],
    hp: HyperParams,
    M: int | None = None,
    debug: bool = False,
) -> SimulationTrace:
    """Episodic run: in episode k the agents of participation_sets[k] act in order.

    Each activation is flattened to a global round index (episode by episode,
    in-set order) for environment draws, so a sequence of singleton sets
    reproduces the sequential runner's trace bit for bit.  A duplicated agent
    id inside one set is rejected: within an episode each agent acts at most
    once, and simultaneity cannot be expressed.
    """
    flat: list[int] = []
    for k, group in enumerate(participation_sets, 1):
        ids = [int(m) for m in group]
        if len(set(ids)) != len(ids):
            raise ValueError(f"episode {k} activates an agent more than once")
        flat.extend(ids)
    n_agents = M if M is not None else (max(flat) if flat else 1)
    T = len(flat)
    if flat and (min(flat) < 1 or max(flat) > n_agents):
        raise ValueError("participation sets reference an agent id outside 1..M")

    beta = _resolve_beta(inst, hp, n_agents, T)
    agents = [init_agent(m, inst.dim, hp.lam) for m in range(1, n_agents + 1)]
    server = init_server(inst.dim, hp.lam)
    reward_fn = lambda t, x: sample_reward(inst, t, x)  # noqa: E731
    regret_fn = _make_regret_fn(inst)

    records: list[RoundRecord] = []
    events: list[CommEvent] = []
    t = 0
    for group in participation_sets:
        for m in group:
            t += 1
            d_set = sample_decision_set(inst, t)
            agent, server, record, event = step_agent(
                agents[m - 1], server, d_set, reward_fn, regret_fn, hp, beta, t, debug=debug
            )
            agents[m - 1] = agent
            records.append(record)
            if event is not None:
                events.append(event)

    cum = np.cumsum([rec.inst_regret for rec in records]) if records else np.zeros(0)
    trace = SimulationTrace(
        records=records,
        events=events,
        cum_regret=cum,
        comm_count=2 * len(events),
        switch_count=len(events),
        epoch_starts=[],
        beta_used=beta,
        params=_params_echo(inst, hp, n_agents, T, f"episodic(K={len(participation_sets)})"),
        final_agents=agents,
        final_server=server,
    )
    trace.epoch_starts = epoch_boundaries(trace, hp.lam, inst.dim)
    _assert_comm_bounds(trace, inst, hp, n_agents, T)
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
    same schedule.  Nothing is ever communicated: the trace reports zero
    communications and no epochs (there is no shared server determinant).
    """
    M, T = schedule.M, schedule.T
    d = inst.dim
    reward_fn = lambda t, x: sample_reward(inst, t, x)  # noqa: E731
    regret_fn = _make_regret_fn(inst)

    records_by_round: dict[int, RoundRecord] = {}
    betas: dict[int, float] = {}
    for m in range(1, M + 1):
        rounds_m = [int(t) for t in np.flatnonzero(schedule.agents == m) + 1]
        if not rounds_m:
            continue
        beta_m = compute_beta(inst, hp, 1, len(rounds_m))
        betas[m] = beta_m
        agent = init_agent(m, d, hp.lam)
        aggregator = init_server(d, hp.lam)  # private to this agent
        for t in rounds_m:
            d_set = sample_decision_set(inst, t)
            agent, aggregator, record, _event = step_agent(
                agent, aggregator, d_set, reward_fn, regret_fn, hp, beta_m, t
            )
            # Internal refreshes are policy switches, not communications.
            records_by_round[t] = replace(record, comm=0)

    records = [records_by_round[t] for t in sorted(records_by_round)]
    cum = np.cumsum([rec.inst_regret for rec in records]) if records else np.zeros(0)
    nominal_beta = _resolve_beta(inst, hp, 1, T)
    params = _params_echo(inst, hp, M, T, schedule.descriptor + "+independent")
    params["per_agent_beta"] = {str(m): betas[m] for m in sorted(betas)}
    return SimulationTrace(
        records=records,
        events=[],
        cum_regret=cum,
        comm_count=0,
        switch_count=0,
        epoch_starts=[],
        beta_used=nominal_beta,
        params=params,
    )
