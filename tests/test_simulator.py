"""Run-loop tests.

The reference implementations below rebuild the protocol with plain
``np.linalg`` calls (explicit inverse, LU determinant, dense solve) and no
shared code beyond the environment draws, then demand identical decisions,
sync rounds, and determinant trajectories from the packaged runner.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlinucb import (
    HyperParams,
    NumericalDomainError,
    Schedule,
    SpdMatrix,
    SimulationTrace,
    compute_beta,
    gen_instance,
    gen_schedule,
    init_agent,
    init_server,
    local_update,
    run_fedlinucb,
    run_independent_oful,
    sample_decision_set,
    sample_reward,
    should_sync,
    solve_estimate,
    sync,
    theoretical_comm_bound,
    ucb_select,
)
from fedlinucb import protocol
from fedlinucb.environment import BLOCK
from fedlinucb.simulator import (
    CommBoundError,
    _assert_comm_bounds,
    epoch_boundaries,
    index_regret,
)


def small_instance(seed=7, d=3, K=5, **kw):
    return gen_instance("random-sphere", d=d, K=K, seed=seed, **kw)


def reference_federated(inst, schedule, lam, alpha, beta, log_space=False, private=False):
    """Lazy-mode protocol replayed with explicit inverses and LU determinants.

    With ``log_space`` the trigger compares ``np.linalg.slogdet`` differences
    with log1p(alpha) and ``dets`` holds server log-determinants.  With
    ``private`` every agent syncs with a server of its own, ``beta`` maps each
    agent id to its radius, and ``dets`` follows the acting agent's server.
    Returns choices, rewards, (round, agent) syncs, dets, regrets and the
    final ``servers`` (server key -> (sigma, b); key 0 when shared).
    """
    d, M = inst.dim, schedule.M
    logdet = lambda a: np.linalg.slogdet(a)[1]  # noqa: E731
    servers = {j: (lam * np.eye(d), np.zeros(d)) for j in (range(1, M + 1) if private else [0])}
    sigma = {m: lam * np.eye(d) for m in range(1, M + 1)}
    b = {m: np.zeros(d) for m in range(1, M + 1)}
    theta = {m: np.zeros(d) for m in range(1, M + 1)}
    sig_loc = {m: np.zeros((d, d)) for m in range(1, M + 1)}
    b_loc = {m: np.zeros(d) for m in range(1, M + 1)}
    choices, rewards, syncs, dets, regrets = [], [], [], [], []
    for t in range(1, schedule.T + 1):
        m = int(schedule.agents[t - 1])
        j = m if private else 0
        arms = sample_decision_set(inst, t)
        inv = np.linalg.inv(sigma[m])
        widths = np.sqrt(np.clip(np.einsum("kd,dk->k", arms, inv @ arms.T), 0.0, None))
        idx = int(np.argmax(arms @ theta[m] + (beta[m] if private else beta) * widths))
        x = arms[idx]
        r = sample_reward(inst, t, idx)
        sig_loc[m] = sig_loc[m] + np.outer(x, x)
        b_loc[m] = b_loc[m] + r * x
        if log_space:
            fire = logdet(sigma[m] + sig_loc[m]) - logdet(sigma[m]) > np.log1p(alpha)
        else:
            fire = np.linalg.det(sigma[m] + sig_loc[m]) > (1 + alpha) * np.linalg.det(sigma[m])
        if fire:
            servers[j] = (servers[j][0] + sig_loc[m], servers[j][1] + b_loc[m])
            sigma[m] = servers[j][0].copy()
            b[m] = servers[j][1].copy()
            sig_loc[m] = np.zeros((d, d))
            b_loc[m] = np.zeros(d)
            theta[m] = np.linalg.solve(sigma[m], b[m])
            syncs.append((t, m))
        choices.append(idx)
        rewards.append(r)
        server_sigma = servers[j][0]
        dets.append(float(logdet(server_sigma) if log_space else np.linalg.det(server_sigma)))
        values = arms @ inst.theta_star
        regrets.append(float(values.max() - values[idx]))
    return SimpleNamespace(choices=choices, rewards=rewards, syncs=syncs, dets=dets,
                           regrets=regrets, servers=servers)


def reference_epochs(logdets, d, lam):
    """(i, tau_i) by a plain scan of server log-determinants against i*ln(2) + d*ln(lam)."""
    epochs, i = [], 0
    while logdets and logdets[-1] >= i * np.log(2.0) + d * np.log(lam) - 1e-9:
        tau = next(k for k, v in enumerate(logdets, 1)
                   if v >= i * np.log(2.0) + d * np.log(lam) - 1e-9)
        epochs.append((i, tau))
        i += 1
    return epochs


def test_matches_reference_single_agent():
    inst = small_instance(seed=7)
    sched = gen_schedule("round-robin", M=1, T=400)
    hp = HyperParams(lam=1.0, alpha=0.25, delta=0.1)
    trace = run_fedlinucb(inst, sched, hp)
    ref = reference_federated(inst, sched, lam=1.0, alpha=0.25, beta=trace.beta_used)
    assert trace.arm_index.tolist() == ref.choices
    assert [(ev.round, ev.agent) for ev in trace.events] == ref.syncs
    np.testing.assert_allclose(np.exp(trace.logdet_server), ref.dets, rtol=1e-9)
    np.testing.assert_allclose(trace.inst_regret, ref.regrets, rtol=0, atol=0)


def test_matches_reference_multi_agent():
    inst = small_instance(seed=11, d=2, K=4)
    sched = gen_schedule("iid-uniform", M=3, T=300, seed=5)
    hp = HyperParams(lam=0.5, alpha=1.0 / 9.0, delta=0.05)
    trace = run_fedlinucb(inst, sched, hp)
    ref = reference_federated(inst, sched, lam=0.5, alpha=1.0 / 9.0, beta=trace.beta_used)
    ref_sigma, ref_b = ref.servers[0]
    assert trace.arm_index.tolist() == ref.choices
    assert [(ev.round, ev.agent) for ev in trace.events] == ref.syncs
    np.testing.assert_allclose(np.exp(trace.logdet_server), ref.dets, rtol=1e-9)
    np.testing.assert_allclose(trace.final_server.sigma_ser.mat, ref_sigma, rtol=1e-12)
    np.testing.assert_allclose(trace.final_server.b_ser, ref_b, rtol=1e-12)
    assert trace.comm_count == 2 * len(ref.syncs)


@pytest.mark.parametrize("d, lam", [(200, 0.01), (160, 100.0), (160, 0.01)])
def test_large_d_matches_slogdet_reference(d, lam):
    # The determinant itself is 0.0 (d=200, lam=0.01), subnormal (d=160,
    # lam=0.01) or inf (d=160, lam=100) in floating point; the trigger and
    # the epoch grid work on log-determinants and stay exact.
    inst = gen_instance("random-sphere", d=d, K=10, seed=d)
    sched = gen_schedule("iid-uniform", M=2, T=50, seed=3)
    hp = HyperParams(lam=lam, alpha=0.25, delta=0.1)
    trace = run_fedlinucb(inst, sched, hp)
    ref = reference_federated(inst, sched, lam, 0.25, trace.beta_used, log_space=True)
    assert trace.arm_index.tolist() == ref.choices
    assert ref.syncs and [(ev.round, ev.agent) for ev in trace.events] == ref.syncs
    assert epoch_boundaries(trace, lam, d) == reference_epochs(ref.dets, d, lam)
    np.testing.assert_allclose(trace.logdet_server, ref.dets, rtol=1e-12)


def test_unit_corner_run_within_comm_cap():
    # d=1, arms +-1: every trigger decision is rational arithmetic on integer
    # Gram values, with exact ties (ratio 10/9 at alpha=1/9) that must not fire.
    inst = gen_instance("hypercube-corners", d=1, K=2, seed=3)
    hp = HyperParams(lam=1.0, alpha=1.0 / 9.0, delta=0.1)
    trace = run_fedlinucb(inst, gen_schedule("round-robin", M=1, T=1000), hp)
    v, n, exact = 1, 0, []
    for t in range(1, 1001):
        n += 1
        if 9 * n > v:  # (v + n) / v > 1 + 1/9
            v, n = v + n, 0
            exact.append(t)
    assert [ev.round for ev in trace.events] == exact
    assert trace.comm_count == 96
    assert theoretical_comm_bound(1, 1, 1.0 / 9.0, 1.0, 1.0, 1000) == pytest.approx(
        20.0 * np.log2(1001.0), rel=1e-12
    )


def test_rerun_is_bit_identical():
    inst = small_instance(seed=3)
    sched = gen_schedule("iid-uniform", M=4, T=200, seed=8)
    hp = HyperParams(lam=1.0, alpha=1.0 / 16.0, delta=0.1)
    a = run_fedlinucb(inst, sched, hp)
    b = run_fedlinucb(gen_instance("random-sphere", d=3, K=5, seed=3), sched, hp)
    assert np.array_equal(a.arm_index, b.arm_index)
    assert np.array_equal(a.reward, b.reward)
    assert np.array_equal(a.cum_regret, b.cum_regret)
    assert [e.payload_checksum for e in a.events] == [e.payload_checksum for e in b.events]
    assert epoch_boundaries(a, 1.0, 3) == epoch_boundaries(b, 1.0, 3)


def test_trace_bookkeeping_identities():
    inst = small_instance(seed=19)
    sched = gen_schedule("round-robin", M=3, T=240)
    hp = HyperParams(lam=1.0, alpha=1.0 / 9.0, delta=0.1)
    trace = run_fedlinucb(inst, sched, hp)
    assert trace.t.tolist() == list(range(1, 241)) and trace.t.dtype == np.int64
    assert trace.comm.dtype == np.int64 and set(trace.comm.tolist()) == {0, 2}
    assert np.flatnonzero(trace.comm).tolist() == [ev.round - 1 for ev in trace.events]
    assert trace.comm_count == int(trace.comm.sum())
    assert trace.switch_count == len(trace.events) == trace.comm_count // 2
    assert trace.beta_used == compute_beta(inst, hp, 3, 240)
    dets = np.exp(trace.logdet_server)
    assert np.all(dets[:-1] <= dets[1:] * (1 + 1e-12))
    assert np.all(trace.inst_regret >= 0.0)
    assert np.array_equal(trace.cum_regret, np.cumsum(trace.inst_regret))
    assert trace.total_regret == pytest.approx(sum(trace.inst_regret.tolist()))
    assert trace.M == 3
    assert len(trace.final_agents) == 3
    # Every agent's synced state is a past server state: det no larger.
    for agent in trace.final_agents:
        assert agent.sigma.logdet <= trace.final_server.sigma_ser.logdet + 1e-12


def test_trace_is_frozen():
    trace = run_fedlinucb(small_instance(seed=2), gen_schedule("round-robin", M=2, T=10),
                          HyperParams(lam=1.0, alpha=0.5, delta=0.1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.M = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.epoch_starts = []
    assert dataclasses.replace(trace, M=3).M == 3 and trace.M == 2


def test_empty_horizon():
    inst = small_instance(seed=1)
    sched = gen_schedule("round-robin", M=2, T=0)
    hp = HyperParams(lam=1.0, alpha=0.5, delta=0.1)
    trace = run_fedlinucb(inst, sched, hp)
    assert trace.t.shape == (0,) and trace.arm_index.shape == (0,) and trace.events == []
    assert trace.comm_count == 0 and trace.beta_used == 0.0
    assert epoch_boundaries(trace, 1.0, 3) == []
    assert trace.cum_regret.shape == (0,)


def test_a_stated_beta_value_fixes_the_radius():
    inst = gen_instance("random-sphere", d=2, K=3, seed=1)
    hp = HyperParams(lam=1.0, alpha=0.5, delta=0.1, beta_value=0.3)
    assert compute_beta(inst, hp, 2, 40) == 0.3
    assert run_fedlinucb(inst, gen_schedule("round-robin", M=2, T=40), hp).beta_used == 0.3
    assert run_fedlinucb(inst, Schedule.from_episodes([[1, 2]]), hp).beta_used == 0.3


def test_lazy_never_updates_without_sync():
    # Huge alpha: no sync ever fires, so the stored estimate stays at zero and
    # the widest arm wins every round.
    inst = gen_instance("bias-demo", seed=2)
    sched = gen_schedule("round-robin", M=1, T=50)
    hp = HyperParams(lam=1.0, alpha=1e9, delta=0.1, beta_value=0.5,
                     estimate_mode="lazy")
    trace = run_fedlinucb(inst, sched, hp)
    assert np.all(trace.arm_index == 0)
    assert trace.comm_count == 0


def test_lazy_run_factors_one_matrix_per_sync(monkeypatch):
    # The trigger reads the Sherman-Morrison log-gain, so a sync factors only
    # the new server matrix.
    calls = []
    real = SpdMatrix._factor
    monkeypatch.setattr(SpdMatrix, "_factor",
                        classmethod(lambda cls, *a, **k: calls.append(1) or real(*a, **k)))
    inst = gen_instance("random-sphere", d=4, K=5, seed=3)
    hp = HyperParams(lam=1.0, alpha=1.0 / 9.0, delta=0.1)
    trace = run_fedlinucb(inst, gen_schedule("iid-uniform", M=3, T=300, seed=4), hp)
    assert trace.events and len(calls) == len(trace.events)


def test_eager_mode_changes_behavior():
    inst = gen_instance("bias-demo", seed=2)
    sched = gen_schedule("round-robin", M=1, T=50)
    base = dict(lam=1.0, alpha=1e9, delta=0.1, beta_value=0.5)
    lazy = run_fedlinucb(inst, sched, HyperParams(**base, estimate_mode="lazy"))
    eager = run_fedlinucb(inst, sched, HyperParams(**base, estimate_mode="eager"))
    assert not np.array_equal(lazy.arm_index, eager.arm_index)


# ---------------------------------------------------------------- episodic


def test_episodic_singletons_reproduce_sequential():
    inst = small_instance(seed=23)
    sched = gen_schedule("iid-uniform", M=3, T=150, seed=4)
    hp = HyperParams(lam=1.0, alpha=1.0 / 9.0, delta=0.1)
    singletons = [[m] for m in sched.agents.tolist()]
    seq = run_fedlinucb(inst, Schedule.from_episodes(singletons, M=3), hp)
    epi = public_step_run(inst, singletons, 3, hp)
    assert np.array_equal(seq.agent, sched.agents)
    assert differing(seq, epi) == []
    assert seq.comm_count == epi.comm_count


# ---------------------------------------------------------------- epochs


def fake_trace(dets):
    T = len(dets)
    zeros = np.zeros(T)
    ints = np.zeros(T, dtype=np.int64)
    # Only logdet_server matters to epoch_boundaries.
    return SimulationTrace(
        agent=ints + 1, arm_index=ints, reward=zeros,
        inst_regret=zeros, logdet_server=np.array([math.log(v) for v in dets]),
        events=[], beta_used=0.0, M=1,
    )


def test_epoch_boundaries_doubling_grid():
    # lam = 1, d = 2: thresholds 1, 2, 4, 8, 16, 32, ...
    trace = fake_trace([1.0, 1.0, 19.0, 19.0, 20.0])
    got = epoch_boundaries(trace, lam=1.0, d=2)
    assert got == [(0, 1), (1, 3), (2, 3), (3, 3), (4, 3)]


def test_epoch_boundaries_prior_only():
    trace = fake_trace([1.0, 1.0])
    assert epoch_boundaries(trace, lam=1.0, d=3) == [(0, 1)]
    assert epoch_boundaries(fake_trace([]), lam=1.0, d=3) == []


def test_epoch_boundaries_scaled_prior():
    # lam = 2, d = 2: thresholds 4, 8, 16.
    trace = fake_trace([4.0, 9.0, 17.0])
    got = epoch_boundaries(trace, lam=2.0, d=2)
    assert got == [(0, 1), (1, 2), (2, 3)]


def test_real_run_epochs_start_at_round_one():
    inst = small_instance(seed=31)
    sched = gen_schedule("round-robin", M=2, T=100)
    hp = HyperParams(lam=1.0, alpha=0.25, delta=0.1)
    trace = run_fedlinucb(inst, sched, hp)
    epochs = epoch_boundaries(trace, hp.lam, inst.dim)
    assert epochs[0] == (0, 1)
    taus = [tau for _, tau in epochs]
    assert taus == sorted(taus)
    final_det = math.exp(trace.logdet_server[-1])
    top = epochs[-1][0]
    assert 2.0**top <= final_det * (1 + 1e-9) < 2.0 ** (top + 2)


def test_comm_cap_violation_raises():
    inst = small_instance(seed=1)
    sched = gen_schedule("round-robin", M=2, T=40)
    hp = HyperParams(lam=1.0, alpha=0.25, delta=0.1)
    trace = run_fedlinucb(inst, sched, hp)
    cap = theoretical_comm_bound(inst.dim, 2, hp.alpha, hp.lam, inst.L, 40)
    assert 0 < trace.comm_count <= cap
    _assert_comm_bounds(trace, hp, inst.dim, cap)
    with pytest.raises(CommBoundError, match="exceeds deterministic cap"):
        _assert_comm_bounds(trace, hp, inst.dim, trace.comm_count - 1)


def test_epoch_comm_cap_violation_raises():
    # Against a huge alpha the per-epoch cap 2(M + 1/alpha) is barely 2M = 4,
    # below the communications that one of this run's epochs holds.
    inst = small_instance(seed=1)
    sched = gen_schedule("round-robin", M=2, T=200)
    hp = HyperParams(lam=1.0, alpha=1.0 / 16.0, delta=0.1)
    trace = run_fedlinucb(inst, sched, hp)
    huge = dataclasses.replace(hp, alpha=1e12)
    with pytest.raises(CommBoundError, match=r"epoch \d+ \(from round \d+\) used \d+"):
        _assert_comm_bounds(trace, huge, inst.dim, math.inf)


def test_non_finite_comm_cap_is_refused_before_the_run(monkeypatch):
    # A subnormal alpha with a fixed beta: 1/alpha is inf, so only the cap overflows.
    inst = small_instance(seed=1)
    sched = gen_schedule("round-robin", M=2, T=40)
    hp = HyperParams(lam=1.0, alpha=5e-324, delta=0.1, beta_value=1.0)
    monkeypatch.setattr("fedlinucb.simulator._drive", lambda *a: pytest.fail("the run started"))
    with pytest.raises(ValueError, match="communication cap is inf"):
        run_fedlinucb(inst, sched, hp)


def test_unresolvable_ridge_is_refused_before_the_run(monkeypatch):
    # At lambda = 1e-300 the rounding of a 40-round covariance swamps the ridge.
    inst = small_instance(seed=1)
    sched = gen_schedule("round-robin", M=2, T=40)
    hp = HyperParams(lam=1e-300, alpha=0.25, delta=0.1, beta_value=1.0)
    monkeypatch.setattr("fedlinucb.simulator._drive", lambda *a: pytest.fail("the run started"))
    with pytest.raises(NumericalDomainError, match="rounding"):
        run_fedlinucb(inst, sched, hp)


# ---------------------------------------------------------------- baseline


def test_independent_baseline_single_agent_matches_protocol_actions():
    inst = small_instance(seed=37)
    sched = gen_schedule("round-robin", M=1, T=300)
    hp = HyperParams(lam=1.0, alpha=0.25, delta=0.1)
    fed = run_fedlinucb(inst, sched, hp)
    ind = run_independent_oful(inst, sched, hp)
    # With one agent the baseline is the same algorithm minus the network.
    assert np.array_equal(fed.arm_index, ind.arm_index)
    assert np.array_equal(fed.cum_regret, ind.cum_regret)
    assert ind.comm_count == 0 and ind.switch_count == 0
    assert np.all(ind.comm == 0)
    assert ind.events == []
    # One agent's private server is the shared one.
    assert np.array_equal(fed.logdet_server, ind.logdet_server)


def test_independent_baseline_agents_learn_separately():
    inst = small_instance(seed=41, d=2, K=6)
    sched = gen_schedule("iid-uniform", M=3, T=200, seed=6)
    hp = HyperParams(lam=1.0, alpha=0.25, delta=0.1)
    ind = run_independent_oful(inst, sched, hp)
    assert len(ind.t) == 200
    assert ind.t.tolist() == list(range(1, 201))
    assert ind.M == 3
    # Same environment as the federated run on this schedule.
    fed = run_fedlinucb(inst, sched, hp)
    same_round_rewards = [
        (f_r, i_r)
        for f_r, i_r, f_idx, i_idx in zip(fed.reward, ind.reward, fed.arm_index, ind.arm_index)
        if f_idx == i_idx
    ]
    assert same_round_rewards  # overlap exists
    assert all(a == b for a, b in same_round_rewards)


def test_independent_baseline_matches_private_reference():
    # Three interleaved learners, each with its own server and radius: any
    # state shared between agents in the run loop would change their choices.
    inst = small_instance(seed=43)
    sched = gen_schedule("iid-uniform", M=3, T=240, seed=9)
    hp = HyperParams(lam=1.0, alpha=0.25, delta=0.1)
    ind = run_independent_oful(inst, sched, hp)
    # Each agent's radius is the single-agent one for its own activation count.
    betas = {m: compute_beta(inst, hp, 1, int((sched.agents == m).sum())) for m in (1, 2, 3)}
    assert len(set(betas.values())) > 1
    ref = reference_federated(inst, sched, 1.0, 0.25, betas, log_space=True, private=True)
    assert {m for _, m in ref.syncs} == {1, 2, 3}
    assert ind.arm_index.tolist() == ref.choices
    assert ind.reward.tolist() == ref.rewards
    assert np.array_equal(ind.cum_regret, np.cumsum(ref.regrets))
    np.testing.assert_allclose(ind.logdet_server, ref.dets, rtol=1e-12)
    assert np.all(ind.comm == 0) and ind.events == []


def test_inst_regret_is_the_index_formula():
    # The run loop records index_regret of the chosen row: the best arm of a
    # round scores exactly zero.
    inst = small_instance(seed=47)
    trace = run_fedlinucb(inst, gen_schedule("round-robin", M=2, T=60),
                          HyperParams(lam=1.0, alpha=0.25, delta=0.1))
    assert np.any(trace.inst_regret == 0.0) and np.any(trace.inst_regret > 0.0)
    for k, t in enumerate(trace.t.tolist()):
        d_set = sample_decision_set(inst, t)
        assert trace.inst_regret[k] == index_regret(inst, d_set, int(trace.arm_index[k]))
        best = int(np.argmax(d_set @ inst.theta_star))
        assert index_regret(inst, d_set, best) == 0.0


@st.composite
def grouped_schedules(draw):
    M = draw(st.integers(1, 4))
    agents = draw(st.lists(st.integers(1, M), max_size=60))
    cuts = draw(st.lists(st.booleans(), min_size=len(agents), max_size=len(agents)))
    groups: list[list[int]] = []
    for m, cut in zip(agents, cuts):
        # An agent acts at most once per episode.
        if not groups or cut or m in groups[-1]:
            groups.append([])
        groups[-1].append(m)
    if draw(st.booleans()):
        groups.insert(draw(st.integers(0, len(groups))), [])  # an idle episode
    return M, agents, groups


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    grouped_schedules(),
    st.integers(1, 4),
    st.sampled_from([1.0 / 16.0, 0.25, 1.0]),
    st.sampled_from(["lazy", "eager"]),
)
def test_episodic_grouping_equals_flattened_run(schedule, d, alpha, mode):
    M, agents, groups = schedule
    inst = small_instance(seed=53, d=d, K=4)
    hp = HyperParams(lam=1.0, alpha=alpha, delta=0.1, estimate_mode=mode)
    flat = Schedule.from_episodes(groups, M=M)
    assert flat.agents.tolist() == agents
    epi = public_step_run(inst, groups, M, hp)
    seq = run_fedlinucb(inst, flat, hp)
    assert differing(epi, seq) == []
    assert epoch_boundaries(epi, 1.0, d) == epoch_boundaries(seq, 1.0, d)
    assert epi.beta_used == seq.beta_used


TRACE_COLUMNS = ("t", "agent", "arm_index", "reward", "inst_regret", "comm", "logdet_server",
                 "cum_regret")


def differing(a, b):
    """The trace columns, and "events", on which traces ``a`` and ``b`` differ bit for bit."""
    events = [[(e.round, e.agent, e.payload_checksum) for e in tr.events] for tr in (a, b)]
    names = [n for n in TRACE_COLUMNS if getattr(a, n).tobytes() != getattr(b, n).tobytes()]
    return names + ["events"] * (events[0] != events[1])


def public_step_run(inst, episodes, M, hp, private=False):
    """A run rebuilt from the public, checked step functions, episode by episode.

    ``episodes`` lists each episode's agent ids in set order, and the rounds
    are their flattening; a schedule is its singleton episodes.  In each
    episode every agent first selects with ``ucb_select`` from its stored
    (lazy) or recombined (eager) statistics; then each, in set order,
    observes ``sample_reward``, buffers with ``local_update`` and syncs when
    ``should_sync`` fires.  Between its own syncs an agent reads only its own
    state, so this order must reproduce the run of the flattening.
    ``private`` gives every agent a server of its own and the radius of a
    one-agent run over its own rounds.  Returns the trace.
    """
    flat = [m for group in episodes for m in group]
    d, T = inst.dim, len(flat)

    def radius(agent_count, n):
        # A radius over no rounds is never read; compute_beta refuses n = 0.
        return compute_beta(inst, hp, agent_count, n) if n or hp.beta_value is not None else 0.0

    if private:
        betas = [radius(1, n) for n in np.bincount(flat, minlength=M + 1)[1:].tolist()]
        beta_used = radius(1, T)
    else:
        beta_used = radius(M, T)
        betas = [beta_used] * M

    def select(a, d_set):
        if hp.estimate_mode == "eager":
            v = SpdMatrix.from_dense(a.sigma.mat + a.sigma_loc) if a.sigma_loc.any() else a.sigma
            theta = solve_estimate(v, a.b + a.b_loc)
        else:
            v, theta = a.sigma, a.theta_hat
        return ucb_select(theta, v, betas[a.id - 1], d_set)

    agents = {m: init_agent(m, d, hp.lam) for m in range(1, M + 1)}
    servers = {j: init_server(d, hp.lam) for j in (range(1, M + 1) if private else [0])}
    columns = {"arm_index": [], "reward": [], "inst_regret": [], "logdet_server": []}
    events = []
    t = 0
    for group in episodes:
        rounds = range(t + 1, t + len(group) + 1)
        t += len(group)
        chosen = [select(agents[m], sample_decision_set(inst, s)) for m, s in zip(group, rounds)]
        for m, s, idx in zip(group, rounds, chosen):
            a, j = agents[m], m if private else 0
            d_set = sample_decision_set(inst, s)
            r = sample_reward(inst, s, idx)
            a = local_update(a, d_set[idx], r)
            if should_sync(a, hp.alpha):
                a, servers[j], event = sync(a, servers[j], s)
                if not private:
                    events.append(event)
            agents[m] = a
            columns["arm_index"].append(idx)
            columns["reward"].append(r)
            columns["inst_regret"].append(index_regret(inst, d_set, idx))
            columns["logdet_server"].append(servers[j].sigma_ser.logdet)
    return SimulationTrace(
        agent=np.array(flat, dtype=np.int64),
        arm_index=np.array(columns["arm_index"], dtype=np.int64),
        **{name: np.array(columns[name], dtype=np.float64)
           for name in ("reward", "inst_regret", "logdet_server")},
        events=events, beta_used=beta_used, M=M,
    )


def arm_kind_instance(kind, d, K, noise, seed):
    if kind == "bias-demo":
        return gen_instance("bias-demo", seed=seed)
    if kind == "fixed-list":
        arms = np.random.default_rng(seed).standard_normal((K, d))
        arms /= np.maximum(np.linalg.norm(arms, axis=1), 1.0)[:, None]
        return gen_instance("fixed-list", arms=arms, noise=noise, seed=seed)
    return gen_instance(kind, d=d, K=K, noise=noise, seed=seed)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 32),
    st.integers(1, 6),
    st.integers(1, 6),
    st.sampled_from(["lazy", "eager"]),
    st.sampled_from(["round-robin", "iid-uniform", "block"]),
    st.sampled_from(["random-sphere", "hypercube-corners", "fixed-list", "bias-demo"]),
    st.sampled_from(["gaussian", "rademacher-scaled"]),
    st.integers(2 * BLOCK + 1, 2 * BLOCK + 60),
    st.sampled_from([1.0 / 16.0, 0.25, 1.0]),
)
def test_runs_equal_the_public_step_functions_bit_for_bit(d, K, M, mode, order, kind, noise, T,
                                                          alpha):
    # The run loop checks once per run and reads rewards and regrets from
    # per-block tables; round by round through the checked public functions
    # every column and event must come out the same, bit for bit.
    inst = arm_kind_instance(kind, d, K, noise, seed=d * 100 + K)
    if order == "block":
        T += -T % M
    schedule = gen_schedule(order, M=M, T=T, seed=K)
    hp = HyperParams(lam=1.0, alpha=alpha, delta=0.1, estimate_mode=mode)
    singletons = [[m] for m in schedule.agents.tolist()]
    for run, private in ((run_fedlinucb, False), (run_independent_oful, True)):
        trace = run(inst, schedule, hp)
        ref = public_step_run(inst, singletons, M, hp, private)
        assert differing(trace, ref) == [], run.__name__


def test_only_episode_order_sees_a_server_matrix_updated_in_place(monkeypatch):
    # sync must build a new server matrix: every agent's synced sigma aliases
    # the one it downloaded.  Adding each upload into that matrix in place
    # lets an agent that synced earlier see later uploads through sigma.mat,
    # which eager selection reads.  Round by round the run and the singleton
    # driver read the shared matrix at the same moments and still agree;
    # selecting a whole episode before its syncs exposes the sharing.
    real_sync = protocol.sync

    def in_place_sync(a, s, round_):
        agent, server, event = real_sync(a, s, round_)
        mat = s.sigma_ser.mat
        mat += a.sigma_loc
        sigma = dataclasses.replace(server.sigma_ser, mat=mat)
        return (dataclasses.replace(agent, sigma=sigma),
                dataclasses.replace(server, sigma_ser=sigma), event)

    monkeypatch.setattr(protocol, "sync", in_place_sync)
    monkeypatch.setitem(globals(), "sync", in_place_sync)
    M, rng = 4, np.random.default_rng(61)
    episodes = [rng.permutation(np.arange(1, M + 1))[:rng.integers(1, M + 1)].tolist()
                for _ in range(150)]
    inst = gen_instance("random-sphere", d=4, K=8, seed=61)
    hp = HyperParams(lam=1.0, alpha=1.0 / 16.0, delta=0.1, estimate_mode="eager")
    trace = run_fedlinucb(inst, Schedule.from_episodes(episodes, M=M), hp)
    singletons = [[m] for m in trace.agent.tolist()]
    assert differing(trace, public_step_run(inst, singletons, M, hp)) == []
    assert "arm_index" in differing(trace, public_step_run(inst, episodes, M, hp))
