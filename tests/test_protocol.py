"""Agent/server update and sync-trigger mechanics at the single-step level."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlinucb import (
    ArmSpec,
    HyperParams,
    NumericalDomainError,
    ProblemInstance,
    Schedule,
    ServerState,
    SpdMatrix,
    init_agent,
    init_server,
    local_update,
    payload_checksum,
    run_fedlinucb,
    should_sync,
    solve_estimate,
    sync,
)
from fedlinucb.core import _chol_solve


HP = HyperParams(lam=1.0, alpha=0.5, delta=0.1)


def agent_with_pull(x, r, lam=1.0, agent_id=1):
    a = init_agent(agent_id, len(x), lam)
    return local_update(a, np.asarray(x, dtype=np.float64), r)


# ---------------------------------------------------------------- local update


def test_local_update_accumulates_rank_one():
    a = init_agent(1, 2, lam=1.0)
    a = local_update(a, np.array([3.0, 0.0]), 1.0)
    assert np.array_equal(a.sigma_loc, [[9.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(a.b_loc, [3.0, 0.0])
    a = local_update(a, np.array([0.0, 2.0]), -0.5)
    assert np.array_equal(a.sigma_loc, [[9.0, 0.0], [0.0, 4.0]])
    assert np.array_equal(a.b_loc, [3.0, -1.0])
    # Synced side untouched until a sync happens.
    assert np.array_equal(a.sigma.mat, np.eye(2))
    assert np.array_equal(a.b, [0.0, 0.0])
    assert np.array_equal(a.theta_hat, [0.0, 0.0])


def test_local_update_returns_fresh_state():
    a0 = init_agent(1, 2, lam=1.0)
    a1 = local_update(a0, np.array([1.0, 0.0]), 1.0)
    assert np.array_equal(a0.sigma_loc, np.zeros((2, 2)))
    assert a1 is not a0


def test_local_update_refuses_non_finite_inputs():
    # A NaN arm would make log_gain NaN and silence the trigger for good; a
    # NaN reward would poison b_loc.
    a = init_agent(1, 2, lam=1.0)
    for x, r in (([math.nan, 0.0], 1.0), ([math.inf, 0.0], 1.0), ([1.0, 0.0], math.nan),
                 ([1.0, 0.0], -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            local_update(a, np.array(x), r)


def test_local_update_order_independent_sums():
    rng = np.random.default_rng(2)
    xs = rng.standard_normal((10, 3))
    rs = rng.standard_normal(10)
    a = init_agent(1, 3, lam=1.0)
    for x, r in zip(xs, rs):
        a = local_update(a, x, float(r))
    b = init_agent(1, 3, lam=1.0)
    perm = rng.permutation(10)
    for i in perm:
        b = local_update(b, xs[i], float(rs[i]))
    assert np.allclose(a.sigma_loc, b.sigma_loc, rtol=1e-12, atol=1e-12)
    assert np.allclose(a.b_loc, b.b_loc, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------- trigger


def test_trigger_threshold_is_strict():
    # One pull of (3, 0) on a unit prior: det ~10 vs det 1.
    a = agent_with_pull([3.0, 0.0], 1.0)
    assert should_sync(a, alpha=8.9)    # 10 > 9.9
    assert not should_sync(a, alpha=10.5)
    # Exact-equality boundary in log space: one pull of (1, 0) on a unit prior
    # gains log1p(x^T x) = log1p(1), the same float as log1p(alpha) at alpha=1.
    b = agent_with_pull([1.0, 0.0], 1.0)
    assert b.log_gain == math.log1p(1.0)
    assert not should_sync(b, alpha=1.0)    # log1p(1) > log1p(1) is false: strict
    assert should_sync(b, alpha=0.999999)
    assert not should_sync(b, alpha=1.000001)


def test_trigger_state_tracks_inverse_and_log_ratio():
    rng = np.random.default_rng(5)
    a = init_agent(1, 3, lam=0.5)
    for _ in range(20):
        a = local_update(a, rng.standard_normal(3), 0.0)
    v = a.sigma.mat + a.sigma_loc
    np.testing.assert_allclose(a.v_inv, np.linalg.inv(v), rtol=1e-9, atol=1e-12)
    assert a.log_gain == pytest.approx(
        np.linalg.slogdet(v)[1] - np.linalg.slogdet(a.sigma.mat)[1], rel=1e-12
    )
    # A sync restarts both from the downloaded aggregate.
    a2, s2, _ = sync(a, init_server(3, lam=0.5), round_=1)
    assert a2.log_gain == 0.0
    np.testing.assert_allclose(a2.v_inv, np.linalg.inv(s2.sigma_ser.mat), rtol=1e-9, atol=1e-12)


def test_sync_checks_the_server_floor():
    # The new server matrix inherits the server's floor and is checked against
    # it: a server aggregate below lambda = 1 makes the sync raise.
    a = agent_with_pull([0.0, 1.0], 0.3)
    broken = np.diag([0.5, 2.0])
    server = ServerState(SpdMatrix(broken, np.linalg.cholesky(broken), 1.0), np.zeros(2))
    with pytest.raises(NumericalDomainError, match="below stated floor"):
        sync(a, server, round_=1)
    _, s, _ = sync(a, init_server(2, lam=1.0), round_=1)
    assert s.sigma_ser.min_eig == 1.0


def test_sync_refuses_a_server_with_a_nan_floor():
    # The raw constructor takes any floor.  A NaN one passes no "min_eig > 0.0"
    # test, so the sync's factor refuses it rather than hand on a NaN floor.
    a = agent_with_pull([0.0, 1.0], 0.3)
    server = ServerState(SpdMatrix(np.eye(2), np.eye(2), math.nan), np.zeros(2))
    with pytest.raises(NumericalDomainError, match="stated floor is NaN"):
        sync(a, server, round_=1)


def reference_sync(a, s, round_):
    """What :func:`sync` computes, built from the checked public pieces:
    ``from_dense`` of the summed matrix at the server's floor, numpy's
    Cholesky, ``solve_estimate``, a solve of the identity and the sha256 of
    the uploaded bytes."""
    summed = s.sigma_ser.mat + a.sigma_loc
    sigma = SpdMatrix.from_dense(summed, min_eig=s.sigma_ser.min_eig)
    chol = np.linalg.cholesky(summed)
    b = s.b_ser + a.b_loc
    checksum = hashlib.sha256(a.sigma_loc.tobytes() + a.b_loc.tobytes()).hexdigest()
    return (summed, chol, b, solve_estimate(sigma, b), _chol_solve(chol, np.eye(len(b))),
            2.0 * np.log(np.diag(chol)).sum(), (round_, a.id, checksum))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(1, 32),
    lam=st.sampled_from([1e-3, 1.0, 100.0]),
    n_synced=st.integers(0, 20),
    n_buffered=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_sync_equals_its_reference_bit_for_bit(d, lam, n_synced, n_buffered, seed):
    rng = np.random.default_rng(seed)

    def upload(n, a):
        for _ in range(n):
            x = rng.standard_normal(d)
            a = local_update(a, x * (rng.uniform(0.1, 1.0) / np.linalg.norm(x)),
                             float(rng.standard_normal()))
        return a

    s = init_server(d, lam)
    if n_synced:  # another agent's upload first, so the server holds data
        _, s, _ = sync(upload(n_synced, init_agent(2, d, lam)), s, round_=1)
    a = upload(n_buffered, init_agent(1, d, lam))
    got_a, got_s, event = sync(a, s, round_=7)
    summed, chol, b, theta, v_inv, logdet, ev = reference_sync(a, s, 7)
    same = lambda x, y: x.shape == y.shape and x.tobytes() == y.tobytes()
    assert same(got_s.sigma_ser.mat, summed) and same(got_s.sigma_ser.chol, chol)
    assert same(got_s.b_ser, b) and got_s.sigma_ser.min_eig == lam
    assert got_s.sigma_ser.logdet == logdet
    assert (event.round, event.agent, event.payload_checksum) == ev
    assert got_a.sigma is got_s.sigma_ser and got_a.b is got_s.b_ser
    assert same(got_a.theta_hat, theta) and same(got_a.v_inv, v_inv)
    assert not got_a.sigma_loc.any() and not got_a.b_loc.any() and got_a.log_gain == 0.0

    # The refusals keep their messages: a NaN buffer, and a server matrix
    # pushed below its floor (to lam / 2 times the identity).
    nan = dataclasses.replace(a, sigma_loc=np.where(np.eye(d) > 0, np.nan, a.sigma_loc))
    with pytest.raises(NumericalDomainError, match="non-finite pivot"):
        sync(nan, s, 7)
    below = dataclasses.replace(a, sigma_loc=0.5 * lam * np.eye(d) - s.sigma_ser.mat)
    for run in (sync, reference_sync):
        with pytest.raises(NumericalDomainError, match="below stated floor"):
            run(below, s, 7)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(1, 40),
    log10_lam=st.floats(-3.0, 3.0),
    n_synced=st.integers(0, 20),
    n_buffered=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_log_gain_matches_slogdet(d, log10_lam, n_synced, n_buffered, seed):
    # Arms of norm sqrt(lam) * [0.1, 3] keep each x^T V^{-1} x within a few
    # decades of 1, so the slogdet difference is not swamped by its own rounding.
    lam = 10.0**log10_lam
    rng = np.random.default_rng(seed)

    def arm():
        x = rng.standard_normal(d)
        return x * (math.sqrt(lam) * rng.uniform(0.1, 3.0) / np.linalg.norm(x))

    a, s = init_agent(1, d, lam), init_server(d, lam)
    for _ in range(n_synced):
        a = local_update(a, arm(), 0.0)
    if n_synced:
        a, s, _ = sync(a, s, round_=1)
    for _ in range(n_buffered):
        a = local_update(a, arm(), 0.0)
    want = np.linalg.slogdet(a.sigma.mat + a.sigma_loc)[1] - np.linalg.slogdet(a.sigma.mat)[1]
    assert a.log_gain == pytest.approx(want, rel=1e-9)


def test_trigger_on_short_arm_stays_quiet():
    # det(diag(1, 1.1)) = 1.1; alpha = 10.5 needs > 11.5.
    a = agent_with_pull([0.0, 1.0 / math.sqrt(10.0)], 1.0)
    assert not should_sync(a, alpha=10.5)
    assert should_sync(a, alpha=0.05)


def test_trigger_empty_buffer_never_fires():
    a = init_agent(1, 4, lam=0.3)
    assert not should_sync(a, alpha=1e-12)
    # A NaN or infinite alpha would give a trigger that can never fire.
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            should_sync(a, alpha=bad)


# ---------------------------------------------------------------- sync


def test_sync_moves_buffers_to_server():
    a = agent_with_pull([3.0, 0.0], 1.0)
    s = init_server(2, lam=1.0)
    a2, s2, ev = sync(a, s, round_=1)
    assert np.array_equal(s2.sigma_ser.mat, [[10.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(s2.b_ser, [3.0, 0.0])
    # Agent downloaded the post-update aggregate and cleared its buffers.
    assert np.array_equal(a2.sigma.mat, s2.sigma_ser.mat)
    assert np.array_equal(a2.b, s2.b_ser)
    assert np.array_equal(a2.sigma_loc, np.zeros((2, 2)))
    assert np.array_equal(a2.b_loc, np.zeros(2))
    assert a2.theta_hat == pytest.approx([0.3, 0.0], rel=1e-12)
    assert ev.agent == 1 and ev.round == 1


def test_a_downloaded_agent_cannot_write_into_its_server():
    # An agent's synced statistics alias the server's arrays.
    a2, s2, _ = sync(agent_with_pull([1.0, 0.0], 2.0), init_server(2, 1.0), round_=1)
    assert a2.sigma is s2.sigma_ser and a2.b is s2.b_ser
    for agent in (init_agent(1, 2, 1.0), a2):
        for array in (agent.sigma.mat, agent.sigma.chol, agent.b):
            with pytest.raises(ValueError, match="read-only"):
                array += 1.0
    assert np.array_equal(s2.sigma_ser.mat, [[2.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(s2.b_ser, [2.0, 0.0])


@pytest.mark.parametrize("d", [1, 8, 32, 64])
def test_download_solves_estimate_and_inverse_in_one_call(d):
    # One dpotrs solve of [b | I] gives the columns of two separate solves,
    # bit for bit, and v_inv keeps the Fortran layout ``v_inv @ x`` rounds by.
    from fedlinucb.core import _chol_solve
    from fedlinucb.protocol import _download

    rng = np.random.default_rng(d)
    for _ in range(20):
        g = rng.standard_normal((d, d + 2))
        server = ServerState(sigma_ser=SpdMatrix.from_dense(g @ g.T + np.eye(d)),
                             b_ser=rng.standard_normal(d))
        a = _download(3, server)
        chol = server.sigma_ser.chol
        assert np.array_equal(a.theta_hat, _chol_solve(chol, server.b_ser))
        v_inv = _chol_solve(chol, np.eye(d))
        assert np.array_equal(a.v_inv, v_inv)
        assert a.v_inv.flags.f_contiguous and v_inv.flags.f_contiguous
        x = rng.standard_normal(d)
        assert np.array_equal(a.v_inv @ x, v_inv @ x)


def test_sync_second_agent_sees_first_upload():
    s = init_server(2, lam=1.0)
    a1 = agent_with_pull([3.0, 0.0], 1.0, agent_id=1)
    _, s, _ = sync(a1, s, round_=1)
    a2 = agent_with_pull([0.0, 2.0], 0.5, agent_id=2)
    a2, s, _ = sync(a2, s, round_=2)
    assert np.array_equal(s.sigma_ser.mat, [[10.0, 0.0], [0.0, 5.0]])
    assert np.array_equal(s.b_ser, [3.0, 1.0])
    assert np.array_equal(a2.sigma.mat, s.sigma_ser.mat)
    # First agent's view is stale until its own next sync.
    assert a2.sigma.logdet == pytest.approx(math.log(50.0), rel=1e-12)


def test_sync_with_empty_payload_is_identity_on_server():
    a = init_agent(1, 3, lam=2.0)
    s = init_server(3, lam=2.0)
    a2, s2, _ = sync(a, s, round_=5)
    assert np.array_equal(s2.sigma_ser.mat, s.sigma_ser.mat)
    assert np.array_equal(s2.b_ser, s.b_ser)


def test_sync_conservation_across_many_agents():
    # Without a prior contribution per agent, server totals equal the sum of
    # everything uploaded, in any interleaving.
    rng = np.random.default_rng(14)
    d, n_agents = 3, 5
    s = init_server(d, lam=1.0)
    agents = {m: init_agent(m, d, lam=1.0) for m in range(1, n_agents + 1)}
    total_outer = np.zeros((d, d))
    total_bx = np.zeros(d)
    for step in range(200):
        m = int(rng.integers(1, n_agents + 1))
        x = rng.standard_normal(d) * 0.5
        r = float(rng.standard_normal())
        agents[m] = local_update(agents[m], x, r)
        total_outer += np.outer(x, x)
        total_bx += r * x
        if rng.random() < 0.3:
            agents[m], s, _ = sync(agents[m], s, round_=step + 1)
    # Flush all remaining buffers.
    for m in agents:
        agents[m], s, _ = sync(agents[m], s, round_=999)
    assert np.allclose(s.sigma_ser.mat, np.eye(d) + total_outer, rtol=1e-10, atol=1e-10)
    assert np.allclose(s.b_ser, total_bx, rtol=1e-10, atol=1e-10)


def test_payload_checksum_tracks_content():
    a = payload_checksum(np.zeros((2, 2)), np.zeros(2))
    b = payload_checksum(np.zeros((2, 2)), np.zeros(2))
    assert a == b and len(a) == 64
    c = payload_checksum(np.eye(2), np.zeros(2))
    assert c != a


def test_sync_checksum_matches_uploaded_buffers():
    a = agent_with_pull([1.0, 1.0], 2.0)
    s = init_server(2, lam=1.0)
    a2, _, ev = sync(a, s, round_=1)
    # The event hashes the buffers as they were uploaded, not the cleared ones.
    assert ev.payload_checksum == payload_checksum(a.sigma_loc, a.b_loc)
    assert ev.payload_checksum != payload_checksum(a2.sigma_loc, a2.b_loc)


# ---------------------------------------------------------------- step


def bias_pair_run(long_arm_pays, T, alpha, mode="lazy"):
    """One agent's run of T rounds on the noise-free fixed list
    [[3, 0], [0, 1/sqrt(10)]], whose long arm pays ``long_arm_pays`` (+-1)."""
    arms = np.array([[3.0, 0.0], [0.0, 1.0 / math.sqrt(10.0)]])
    inst = ProblemInstance(theta_star=np.array([long_arm_pays / 3.0, 0.0]), S=1.0, L=3.0,
                           R=0.0, arm_spec=ArmSpec("fixed-list", 2, arms),
                           noise_spec="gaussian", master_seed=0)
    hp = HyperParams(lam=1.0, alpha=alpha, delta=0.1, beta_value=0.5, estimate_mode=mode)
    return run_fedlinucb(inst, Schedule(1, [1] * T), hp)


def test_step_selects_buffers_and_syncs():
    trace = bias_pair_run(1.0, T=1, alpha=8.9)
    # Optimism picks the long arm; det 10 > 9.9 fires the trigger.
    assert trace.arm_index.tolist() == [0]
    assert trace.reward.tolist() == [1.0]
    assert [(ev.round, ev.agent) for ev in trace.events] == [(1, 1)]
    assert math.exp(trace.final_server.sigma_ser.logdet) == pytest.approx(10.0, rel=1e-12)


def test_step_below_trigger_keeps_buffers():
    trace = bias_pair_run(1.0, T=1, alpha=10.5)
    (a,) = trace.final_agents
    assert trace.arm_index.tolist() == [0]
    assert trace.reward.tolist() == [1.0]
    assert trace.events == []
    assert np.array_equal(a.sigma_loc, [[9.0, 0.0], [0.0, 0.0]])
    assert math.exp(trace.final_server.sigma_ser.logdet) == pytest.approx(1.0, rel=1e-12)
    # Stored estimate still the prior zero vector.
    assert np.array_equal(a.theta_hat, np.zeros(2))


def test_step_lazy_ignores_buffered_evidence():
    # Two pulls of the long arm with reward -1 under lazy scoring: the stored
    # estimate stays zero, so the long arm keeps winning.
    trace = bias_pair_run(-1.0, T=2, alpha=1e6, mode="lazy")
    assert trace.arm_index.tolist() == [0, 0]
    assert trace.reward.tolist() == [-1.0, -1.0]
    assert trace.events == []


def test_step_eager_reacts_immediately():
    # Same setup under eager scoring: after one bad pull the short arm wins.
    trace = bias_pair_run(-1.0, T=2, alpha=1e6, mode="eager")
    (a,) = trace.final_agents
    assert trace.arm_index.tolist() == [0, 1]
    assert trace.reward.tolist() == [-1.0, 0.0]
    assert trace.events == []
    # Eager recombination never mutates the stored synced state.
    assert np.array_equal(a.sigma.mat, np.eye(2))
    assert np.array_equal(a.theta_hat, np.zeros(2))

