"""Run-loop tests.

The reference implementations below rebuild the protocol with plain
``np.linalg`` calls (explicit inverse, LU determinant, dense solve) and no
shared code beyond the environment draws, then demand identical decisions,
sync rounds, and determinant trajectories from the packaged runner.
"""

import math

import numpy as np
import pytest

from fedlinucb import (
    HyperParams,
    SimulationTrace,
    compute_beta,
    gen_instance,
    gen_schedule,
    run_episodic,
    run_fedlinucb,
    run_independent_oful,
    sample_decision_set,
    sample_reward,
    theoretical_comm_bound,
)
from fedlinucb.simulator import CommBoundError, _assert_comm_bounds, epoch_boundaries


def small_instance(seed=7, d=3, K=5, **kw):
    return gen_instance("random-sphere", d=d, K=K, seed=seed, **kw)


def reference_federated(inst, schedule, lam, alpha, beta, log_space=False):
    """Lazy-mode protocol replayed with explicit inverses and LU determinants.

    With ``log_space`` the trigger compares ``np.linalg.slogdet`` differences
    with log1p(alpha) and ``dets`` holds server log-determinants.
    """
    d, M = inst.dim, schedule.M
    logdet = lambda a: np.linalg.slogdet(a)[1]  # noqa: E731
    server_sigma = lam * np.eye(d)
    server_b = np.zeros(d)
    sigma = {m: server_sigma.copy() for m in range(1, M + 1)}
    b = {m: np.zeros(d) for m in range(1, M + 1)}
    theta = {m: np.zeros(d) for m in range(1, M + 1)}
    sig_loc = {m: np.zeros((d, d)) for m in range(1, M + 1)}
    b_loc = {m: np.zeros(d) for m in range(1, M + 1)}
    choices, syncs, dets, regrets = [], [], [], []
    for t in range(1, schedule.T + 1):
        m = int(schedule.agents[t - 1])
        arms = sample_decision_set(inst, t).arms
        inv = np.linalg.inv(sigma[m])
        widths = np.sqrt(np.clip(np.einsum("kd,dk->k", arms, inv @ arms.T), 0.0, None))
        idx = int(np.argmax(arms @ theta[m] + beta * widths))
        x = arms[idx]
        r = sample_reward(inst, t, x)
        sig_loc[m] = sig_loc[m] + np.outer(x, x)
        b_loc[m] = b_loc[m] + r * x
        if log_space:
            fire = logdet(sigma[m] + sig_loc[m]) - logdet(sigma[m]) > np.log1p(alpha)
        else:
            fire = np.linalg.det(sigma[m] + sig_loc[m]) > (1 + alpha) * np.linalg.det(sigma[m])
        if fire:
            server_sigma = server_sigma + sig_loc[m]
            server_b = server_b + b_loc[m]
            sigma[m] = server_sigma.copy()
            b[m] = server_b.copy()
            sig_loc[m] = np.zeros((d, d))
            b_loc[m] = np.zeros(d)
            theta[m] = np.linalg.solve(sigma[m], b[m])
            syncs.append((t, m))
        choices.append(idx)
        dets.append(float(logdet(server_sigma) if log_space else np.linalg.det(server_sigma)))
        values = arms @ inst.theta_star
        regrets.append(float(values.max() - values[idx]))
    return choices, syncs, dets, regrets, server_sigma, server_b


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
    choices, syncs, dets, regrets, _, _ = reference_federated(
        inst, sched, lam=1.0, alpha=0.25, beta=trace.beta_used
    )
    assert [rec.arm_index for rec in trace.records] == choices
    assert [(ev.round, ev.agent) for ev in trace.events] == syncs
    np.testing.assert_allclose([rec.det_server for rec in trace.records], dets, rtol=1e-9)
    np.testing.assert_allclose([rec.inst_regret for rec in trace.records], regrets, rtol=0, atol=0)


def test_matches_reference_multi_agent():
    inst = small_instance(seed=11, d=2, K=4)
    sched = gen_schedule("iid-uniform", M=3, T=300, seed=5)
    hp = HyperParams(lam=0.5, alpha=1.0 / 9.0, delta=0.05)
    trace = run_fedlinucb(inst, sched, hp)
    choices, syncs, dets, regrets, ref_sigma, ref_b = reference_federated(
        inst, sched, lam=0.5, alpha=1.0 / 9.0, beta=trace.beta_used
    )
    assert [rec.arm_index for rec in trace.records] == choices
    assert [(ev.round, ev.agent) for ev in trace.events] == syncs
    np.testing.assert_allclose([rec.det_server for rec in trace.records], dets, rtol=1e-9)
    np.testing.assert_allclose(trace.final_server.sigma_ser.mat, ref_sigma, rtol=1e-12)
    np.testing.assert_allclose(trace.final_server.b_ser, ref_b, rtol=1e-12)
    assert trace.comm_count == 2 * len(syncs)


@pytest.mark.parametrize("d, lam", [(200, 0.01), (160, 100.0), (160, 0.01)])
def test_large_d_matches_slogdet_reference(d, lam):
    # The determinant itself is 0.0 (d=200, lam=0.01), subnormal (d=160,
    # lam=0.01) or inf (d=160, lam=100) in floating point; the trigger and
    # the epoch grid work on log-determinants and stay exact.
    inst = gen_instance("random-sphere", d=d, K=10, seed=d)
    sched = gen_schedule("iid-uniform", M=2, T=50, seed=3)
    hp = HyperParams(lam=lam, alpha=0.25, delta=0.1)
    trace = run_fedlinucb(inst, sched, hp)
    choices, syncs, logdets, _, _, _ = reference_federated(
        inst, sched, lam, 0.25, trace.beta_used, log_space=True
    )
    assert [rec.arm_index for rec in trace.records] == choices
    assert syncs and [(ev.round, ev.agent) for ev in trace.events] == syncs
    assert trace.epoch_starts == reference_epochs(logdets, d, lam)
    np.testing.assert_allclose([rec.logdet_server for rec in trace.records], logdets, rtol=1e-12)


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
    assert [r.arm_index for r in a.records] == [r.arm_index for r in b.records]
    assert [r.reward for r in a.records] == [r.reward for r in b.records]
    assert np.array_equal(a.cum_regret, b.cum_regret)
    assert [e.payload_checksum for e in a.events] == [e.payload_checksum for e in b.events]
    assert a.epoch_starts == b.epoch_starts


def test_trace_bookkeeping_identities():
    inst = small_instance(seed=19)
    sched = gen_schedule("round-robin", M=3, T=240)
    hp = HyperParams(lam=1.0, alpha=1.0 / 9.0, delta=0.1)
    trace = run_fedlinucb(inst, sched, hp)
    assert len(trace.records) == 240
    assert trace.comm_count == sum(rec.comm for rec in trace.records)
    assert trace.switch_count == len(trace.events) == trace.comm_count // 2
    assert trace.beta_used == compute_beta(inst, hp, 3, 240)
    dets = [rec.det_server for rec in trace.records]
    assert all(x <= y * (1 + 1e-12) for x, y in zip(dets, dets[1:]))
    assert all(rec.inst_regret >= 0.0 for rec in trace.records)
    assert trace.cum_regret[-1] == pytest.approx(sum(r.inst_regret for r in trace.records))
    assert trace.params["schedule"].startswith("round-robin")
    assert len(trace.final_agents) == 3
    # Every agent's synced state is a past server state: det no larger.
    for agent in trace.final_agents:
        assert agent.sigma.logdet <= trace.final_server.sigma_ser.logdet + 1e-12


def test_empty_horizon():
    inst = small_instance(seed=1)
    sched = gen_schedule("round-robin", M=2, T=0)
    hp = HyperParams(lam=1.0, alpha=0.5, delta=0.1)
    trace = run_fedlinucb(inst, sched, hp)
    assert trace.records == [] and trace.events == []
    assert trace.comm_count == 0 and trace.beta_used == 0.0
    assert trace.epoch_starts == []
    assert trace.cum_regret.shape == (0,)


def test_lazy_never_updates_without_sync():
    # Huge alpha: no sync ever fires, so the stored estimate stays at zero and
    # the widest arm wins every round.
    inst = gen_instance("bias-demo", seed=2)
    sched = gen_schedule("round-robin", M=1, T=50)
    hp = HyperParams(lam=1.0, alpha=1e9, delta=0.1, beta_mode="fixed", beta_value=0.5,
                     estimate_mode="lazy")
    trace = run_fedlinucb(inst, sched, hp)
    assert all(rec.arm_index == 0 for rec in trace.records)
    assert trace.comm_count == 0


def test_eager_mode_changes_behavior():
    inst = gen_instance("bias-demo", seed=2)
    sched = gen_schedule("round-robin", M=1, T=50)
    base = dict(lam=1.0, alpha=1e9, delta=0.1, beta_mode="fixed", beta_value=0.5)
    lazy = run_fedlinucb(inst, sched, HyperParams(**base, estimate_mode="lazy"))
    eager = run_fedlinucb(inst, sched, HyperParams(**base, estimate_mode="eager"))
    assert [r.arm_index for r in lazy.records] != [r.arm_index for r in eager.records]
    assert eager.params["estimate_mode"] == "eager"


# ---------------------------------------------------------------- episodic


def test_episodic_singletons_reproduce_sequential():
    inst = small_instance(seed=23)
    sched = gen_schedule("iid-uniform", M=3, T=150, seed=4)
    hp = HyperParams(lam=1.0, alpha=1.0 / 9.0, delta=0.1)
    seq = run_fedlinucb(inst, sched, hp)
    epi = run_episodic(inst, [[int(m)] for m in sched.agents], hp, M=3)
    assert [r.arm_index for r in seq.records] == [r.arm_index for r in epi.records]
    assert [r.reward for r in seq.records] == [r.reward for r in epi.records]
    assert np.array_equal(seq.cum_regret, epi.cum_regret)
    assert [(e.round, e.agent) for e in seq.events] == [(e.round, e.agent) for e in epi.events]
    assert seq.comm_count == epi.comm_count


def test_episodic_groups_flatten_in_order():
    inst = small_instance(seed=29)
    hp = HyperParams(lam=1.0, alpha=0.25, delta=0.1)
    epi = run_episodic(inst, [[1, 2], [3], [2, 1, 3]], hp)
    flat = gen_schedule("explicit-list", M=3, T=0, agents=[1, 2, 3, 2, 1, 3])
    seq = run_fedlinucb(inst, flat, hp)
    assert [r.arm_index for r in seq.records] == [r.arm_index for r in epi.records]
    assert np.array_equal(seq.cum_regret, epi.cum_regret)
    assert epi.params["M"] == 3  # inferred from the largest id


def test_episodic_rejects_duplicate_in_episode():
    inst = small_instance(seed=1)
    hp = HyperParams(lam=1.0, alpha=0.5, delta=0.1)
    with pytest.raises(ValueError):
        run_episodic(inst, [[1, 2, 1]], hp)
    with pytest.raises(ValueError):
        run_episodic(inst, [[1], [4]], hp, M=3)


def test_episodic_empty_sets_are_idle_episodes():
    inst = small_instance(seed=1)
    hp = HyperParams(lam=1.0, alpha=0.5, delta=0.1)
    trace = run_episodic(inst, [[], [1], [], [2]], hp, M=2)
    assert len(trace.records) == 2
    assert [r.t for r in trace.records] == [1, 2]
    empty = run_episodic(inst, [], hp, M=2)
    assert empty.records == []


# ---------------------------------------------------------------- epochs


def fake_trace(dets):
    records = [
        # Only logdet_server matters to epoch_boundaries.
        type("R", (), {"logdet_server": math.log(v)})() for v in dets
    ]
    return SimulationTrace(
        records=records, events=[], cum_regret=np.zeros(len(dets)),
        comm_count=0, switch_count=0, epoch_starts=[], beta_used=0.0, params={},
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
    assert trace.epoch_starts[0] == (0, 1)
    taus = [tau for _, tau in trace.epoch_starts]
    assert taus == sorted(taus)
    final_det = trace.records[-1].det_server
    top = trace.epoch_starts[-1][0]
    assert 2.0**top <= final_det * (1 + 1e-9) < 2.0 ** (top + 2)


def test_comm_cap_violation_raises():
    inst = small_instance(seed=1)
    sched = gen_schedule("round-robin", M=2, T=40)
    hp = HyperParams(lam=1.0, alpha=0.25, delta=0.1)
    trace = run_fedlinucb(inst, sched, hp)
    doctored = SimulationTrace(
        records=trace.records, events=trace.events, cum_regret=trace.cum_regret,
        comm_count=10**6, switch_count=trace.switch_count,
        epoch_starts=trace.epoch_starts, beta_used=trace.beta_used, params=trace.params,
    )
    with pytest.raises(CommBoundError):
        _assert_comm_bounds(doctored, inst, hp, 2, 40)


# ---------------------------------------------------------------- baseline


def test_independent_baseline_single_agent_matches_protocol_actions():
    inst = small_instance(seed=37)
    sched = gen_schedule("round-robin", M=1, T=300)
    hp = HyperParams(lam=1.0, alpha=0.25, delta=0.1)
    fed = run_fedlinucb(inst, sched, hp)
    ind = run_independent_oful(inst, sched, hp)
    # With one agent the baseline is the same algorithm minus the network.
    assert [r.arm_index for r in fed.records] == [r.arm_index for r in ind.records]
    assert np.array_equal(fed.cum_regret, ind.cum_regret)
    assert ind.comm_count == 0 and ind.switch_count == 0
    assert all(r.comm == 0 for r in ind.records)
    assert ind.events == [] and ind.epoch_starts == []


def test_independent_baseline_agents_learn_separately():
    inst = small_instance(seed=41, d=2, K=6)
    sched = gen_schedule("iid-uniform", M=3, T=200, seed=6)
    hp = HyperParams(lam=1.0, alpha=0.25, delta=0.1)
    ind = run_independent_oful(inst, sched, hp)
    assert len(ind.records) == 200
    assert [r.t for r in ind.records] == list(range(1, 201))
    # Each agent's radius is the single-agent one for its own activation count.
    per_beta = ind.params["per_agent_beta"]
    for m in (1, 2, 3):
        n_m = int((sched.agents == m).sum())
        assert per_beta[str(m)] == pytest.approx(compute_beta(inst, hp, 1, n_m), rel=1e-12)
    # Same environment as the federated run on this schedule.
    fed = run_fedlinucb(inst, sched, hp)
    same_round_rewards = [
        (f.reward, i.reward) for f, i in zip(fed.records, ind.records)
        if f.arm_index == i.arm_index
    ]
    assert same_round_rewards  # overlap exists
    assert all(a == b for a, b in same_round_rewards)
