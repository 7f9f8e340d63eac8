"""Trace-analysis checks: replays, concentration reports, the bias demo."""

import dataclasses
import math

import numpy as np
import pytest

import fedlinucb
import fedlinucb.analysis as analysis
import fedlinucb.core as core
from fedlinucb import (
    HyperParams,
    NumericalDomainError,
    SimulationTrace,
    bias_demo,
    gen_instance,
    gen_schedule,
    instantaneous_regret,
    run_fedlinucb,
    run_invariant_suite,
)
from fedlinucb.analysis import _single_agent_windows
from fedlinucb.environment import _BIAS_ARMS
from fedlinucb.protocol import CommEvent, init_agent, local_update, payload_checksum, should_sync


def run_small(seed=7, d=3, K=5, M=3, T=300, alpha=1.0 / 9.0, **inst_kw):
    inst = gen_instance("random-sphere", d=d, K=K, seed=seed, **inst_kw)
    sched = gen_schedule("iid-uniform", M=M, T=T, seed=seed + 1)
    hp = HyperParams(lam=1.0, alpha=alpha, delta=0.1)
    return inst, hp, run_fedlinucb(inst, sched, hp)


def suite_by_name(trace, inst, hp):
    """The invariant suite's reports on ``trace``, keyed by name."""
    return {r.name: r for r in run_invariant_suite(trace, inst, hp)}


def test_bound_evaluators_are_the_core_ones():
    assert analysis.theoretical_comm_bound is core.theoretical_comm_bound
    assert analysis.theoretical_regret_bound is core.theoretical_regret_bound


def test_public_surface_matches_package():
    # Every public analysis name resolves, and the package re-exports exactly
    # those: no name defined in analysis reaches the package outside __all__.
    for name in analysis.__all__:
        assert getattr(fedlinucb, name) is getattr(analysis, name)
    reexported = {name for name, obj in vars(fedlinucb).items()
                  if getattr(obj, "__module__", None) == analysis.__name__}
    defined = {name for name in analysis.__all__
               if getattr(analysis, name).__module__ == analysis.__name__}
    assert reexported == defined
    # Decision sets are plain (K, d) arrays; no wrapper type is exported.
    assert not hasattr(fedlinucb, "DecisionSet")


# ---------------------------------------------------------------- regret lookup


def test_instantaneous_regret_exact_member():
    inst = gen_instance("fixed-list", arms=np.array([[1.0, 0.0], [0.0, 1.0]]),
                        S=1.0, seed=0)
    d_set = np.array([[1.0, 0.0], [0.0, 1.0]])
    values = d_set @ inst.theta_star
    worse = int(np.argmin(values))
    assert instantaneous_regret(inst, d_set, d_set[worse]) == pytest.approx(
        float(values.max() - values.min()), rel=1e-15
    )
    best = int(np.argmax(values))
    assert instantaneous_regret(inst, d_set, d_set[best]) == 0.0


def test_instantaneous_regret_tolerates_tiny_representation_drift():
    inst = gen_instance("fixed-list", arms=np.array([[0.5, 0.0], [0.0, 0.5]]), seed=3)
    d_set = np.array([[0.5, 0.0], [0.0, 0.5]])
    nudged = d_set[1] * (1.0 + 1e-14)
    got = instantaneous_regret(inst, d_set, nudged)
    want = instantaneous_regret(inst, d_set, d_set[1])
    assert got == want


def test_instantaneous_regret_rejects_foreign_arm():
    inst = gen_instance("fixed-list", arms=np.array([[0.5, 0.0]]), seed=0)
    d_set = np.array([[0.5, 0.0]])
    with pytest.raises(ValueError):
        instantaneous_regret(inst, d_set, np.array([0.4, 0.0]))


# ---------------------------------------------------------------- noise split


def test_noise_ledger_matches_direct_accumulation():
    inst, hp, trace = run_small(seed=13)
    report = suite_by_name(trace, inst, hp)["noise-decomposition"]
    # Independent route, straight off the trace columns: eta_t * x_t summed
    # into a running pooled total, and into per-agent pending shares that move
    # to the uploaded ones on every round whose comm column records a sync.
    M = int(trace.params["M"])
    run = np.zeros(inst.dim)
    up = {m: np.zeros(inst.dim) for m in range(1, M + 1)}
    loc = {m: np.zeros(inst.dim) for m in range(1, M + 1)}
    worst = peak = 0.0
    for x, r, m, comm in zip(trace.arms, trace.reward.tolist(), trace.agent.tolist(),
                             trace.comm.tolist()):
        eta = r - float(x @ inst.theta_star)
        run = run + eta * x
        loc[m] = loc[m] + eta * x
        if comm:
            up[m], loc[m] = up[m] + loc[m], np.zeros(inst.dim)
        split = sum(up.values()) + sum(loc.values())
        worst = max(worst, float(np.abs(run - split).max()))
        peak = max(peak, float(np.abs(run).max()))
    assert sum(trace.comm.tolist()) > 0
    assert report.empirical == worst / max(1.0, peak)
    assert report.satisfied
    # Uploaded plus pending shares agree with the pooled sum at the end.
    np.testing.assert_allclose(split, run, rtol=1e-9, atol=1e-12)


def test_noise_decomposition_report():
    inst, hp, trace = run_small(seed=17)
    report = suite_by_name(trace, inst, hp)["noise-decomposition"]
    assert report.name == "noise-decomposition"
    assert report.satisfied
    assert report.empirical <= 1e-10


# ---------------------------------------------------------------- conservation


def test_conservation_on_clean_trace():
    inst, hp, trace = run_small(seed=19)
    assert trace.events
    report = suite_by_name(trace, inst, hp)["conservation"]
    assert report.satisfied
    assert report.detail["checksum_mismatches"] == 0


def test_conservation_catches_one_tampered_upload_checksum():
    inst, hp, trace = run_small(seed=19)
    assert len(trace.events) >= 2
    k = len(trace.events) // 2
    events = list(trace.events)
    events[k] = dataclasses.replace(events[k], payload_checksum="0" * 64)
    clean = suite_by_name(trace, inst, hp)["conservation"]
    report = suite_by_name(dataclasses.replace(trace, events=events), inst, hp)["conservation"]
    assert not report.satisfied
    assert report.detail["checksum_mismatches"] == 1
    # The replayed sums do not read the record, so only the checksum half fails.
    assert report.empirical == clean.empirical


def test_conservation_catches_tampered_reward():
    inst, hp, trace = run_small(seed=19)
    assert trace.events, "need at least one sync for the tamper to matter"
    first_sync_round = trace.events[0].round
    reward = trace.reward.copy()
    reward[first_sync_round - 1] += 1.0
    doctored = dataclasses.replace(trace, reward=reward)
    report = suite_by_name(doctored, inst, hp)["conservation"]
    # The replay is self-consistent, so the drift shows up as a checksum
    # mismatch against the recorded upload, not as a sum deviation.
    assert not report.satisfied
    assert report.detail["checksum_mismatches"] >= 1


def test_nan_rewards_after_the_last_upload_fail_the_checks():
    # No upload carries these rewards, so no checksum sees them: the NaN
    # reaches only the running maxima and the pooled estimate, which must
    # keep it rather than drop it.
    inst, hp, trace = run_small()
    assert trace.events
    reward = trace.reward.copy()
    reward[trace.events[-1].round:] = math.nan
    by_name = suite_by_name(dataclasses.replace(trace, reward=reward), inst, hp)
    for name in ("conservation", "global-confidence", "trace-consistency"):
        assert not by_name[name].satisfied, name
    assert by_name["trace-consistency"].detail["non_finite_rows"] == (
        len(reward) - trace.events[-1].round
    )


# ---------------------------------------------------------------- potential


def test_elliptical_potential_against_explicit_inverse():
    inst, hp, trace = run_small(seed=23, M=2, T=40)
    report = suite_by_name(trace, inst, hp)["elliptical-potential"]
    sigma = np.eye(inst.dim)  # lam = 1
    total = 0.0
    for x in trace.arms:
        sigma = sigma + np.outer(x, x)
        total += float(x @ np.linalg.inv(sigma) @ x)
    assert report.empirical == pytest.approx(total, rel=1e-9)
    assert report.satisfied
    assert report.bound == pytest.approx(2 * inst.dim * math.log(1 + 40.0), rel=1e-12)


def test_elliptical_potential_empty_trace():
    inst = gen_instance("random-sphere", d=2, K=2, seed=0)
    hp = HyperParams(lam=1.0, alpha=0.5, delta=0.1)
    trace = run_fedlinucb(inst, gen_schedule("round-robin", M=1, T=0), hp)
    report = suite_by_name(trace, inst, hp)["elliptical-potential"]
    assert report.satisfied and report.empirical == 0.0


# ---------------------------------------------------------------- coverage


def test_coverage_noiseless_recovery():
    # R = 0: only the ridge prior separates the estimate from the target, so
    # both confidence statements hold with certainty.
    inst, hp, trace = run_small(seed=29, R=0.0, T=200)
    reports = suite_by_name(trace, inst, hp)
    local, pooled = reports["local-confidence"], reports["global-confidence"]
    assert pooled.detail["checks"] == 200
    assert local.detail["checks"] == len(trace.events) > 0
    assert local.satisfied and local.empirical == 0.0
    assert pooled.satisfied and pooled.empirical == 0.0
    # With R = 0 the global radius collapses to sqrt(lam) * S.
    assert pooled.detail["radius"] == pytest.approx(inst.S, rel=1e-12)


def test_coverage_standard_run_zero_violation_fractions():
    inst, hp, trace = run_small(seed=31)
    reports = suite_by_name(trace, inst, hp)
    assert reports["local-confidence"].empirical == 0.0
    assert reports["global-confidence"].empirical == 0.0
    assert reports["local-confidence"].detail["beta"] == trace.beta_used


# ---------------------------------------------------------------- covariance


def test_covariance_comparison_on_interleaved_run():
    inst, hp, trace = run_small(seed=37)
    report = suite_by_name(trace, inst, hp)["covariance-comparison"]
    assert report.satisfied
    assert report.detail["claim1_checks"] == 300 * 3
    assert report.detail["claim1_worst"] <= 1e-8


def test_covariance_comparison_covers_single_agent_windows():
    inst = gen_instance("random-sphere", d=2, K=4, seed=41)
    sched = gen_schedule("block", M=3, T=300)
    hp = HyperParams(lam=1.0, alpha=0.25, delta=0.1)
    trace = run_fedlinucb(inst, sched, hp)
    report = suite_by_name(trace, inst, hp)["covariance-comparison"]
    assert report.satisfied
    assert report.detail["windows"] > 0
    assert report.detail["claim2_checks"] > 0


def toy_trace(agent_seq, sync_rounds):
    T = len(agent_seq)
    comm = [2 if (t, m) in sync_rounds else 0 for t, m in enumerate(agent_seq, 1)]
    events = [
        CommEvent(round=t, agent=m, logdet_before=0.0, logdet_after=math.log(2.0),
                  payload_checksum=payload_checksum(np.zeros((2, 2)), np.zeros(2)))
        for (t, m) in sorted(sync_rounds)
    ]
    return SimulationTrace(
        t=np.arange(1, T + 1), agent=np.array(agent_seq), arm_index=np.zeros(T, dtype=int),
        arms=np.zeros((T, 2)), reward=np.zeros(T), inst_regret=np.zeros(T),
        comm=np.array(comm), logdet_server=np.zeros(T), det_server=np.ones(T),
        events=events, cum_regret=np.zeros(T),
        comm_count=2 * len(events), switch_count=len(events), epoch_starts=[],
        beta_used=0.0, params={"d": 2, "M": max(agent_seq), "lambda": 1.0},
    )


def test_single_agent_window_extraction():
    trace = toy_trace([1, 1, 1, 2, 2, 2], {(2, 1), (5, 2)})
    assert _single_agent_windows(trace) == [(1, 2, 3), (2, 5, 6)]
    # Back-to-back syncs: the earlier one opens a window up to the later one;
    # a sync on the run's last round opens nothing.
    trace = toy_trace([1, 1, 2], {(1, 1), (2, 1)})
    assert _single_agent_windows(trace) == [(1, 1, 2)]
    # Windows never cross into the next agent's run.
    trace = toy_trace([1, 1, 2, 2], {(1, 1), (3, 2)})
    assert _single_agent_windows(trace) == [(1, 1, 2), (2, 3, 4)]
    # No syncs, no windows.
    assert _single_agent_windows(toy_trace([1, 2, 1], set())) == []


# ---------------------------------------------------------------- bias demo


def test_bias_demo_trigger_window_arithmetic():
    # det(I + 2 a a^T) = 19, det(I + a a^T) = 10, det(I + a a^T + b b^T) = 11:
    # alpha = 10.5 admits only the double pull.
    a = np.array([3.0, 0.0])
    b = np.array([0.0, 1.0 / math.sqrt(10.0)])
    eye = np.eye(2)
    assert np.linalg.det(eye + 2 * np.outer(a, a)) == pytest.approx(19.0, rel=1e-12)
    assert np.linalg.det(eye + np.outer(a, a)) == pytest.approx(10.0, rel=1e-12)
    assert np.linalg.det(eye + np.outer(a, a) + np.outer(b, b)) == pytest.approx(11.0, rel=1e-12)


def trigger_fires(alpha, *arms):
    """Whether the protocol's trigger fires after a fresh agent buffers ``arms``."""
    agent = init_agent(1, 2, 1.0)
    for x in arms:
        agent = local_update(agent, x, 0.0)
    return should_sync(agent, alpha)


@pytest.mark.parametrize("alpha, accepted", [
    (9.0, False),
    (float(np.nextafter(10.0, 0.0)), False),
    (10.0, True),
    (10.5, True),
    (float(np.nextafter(18.0, 0.0)), True),
])
def test_bias_demo_window_is_the_run_trigger(alpha, accepted):
    # Accepted exactly when the trigger fires on the double pull of the long
    # arm and on neither the single pull nor the long-short pair.
    long_arm, short_arm = _BIAS_ARMS
    window = (trigger_fires(alpha, long_arm, long_arm)
              and not trigger_fires(alpha, long_arm)
              and not trigger_fires(alpha, long_arm, short_arm))
    assert window == accepted
    if accepted:
        # Lazy agents always double-pull the long arm, so every one uploads.
        assert bias_demo(20, alpha=alpha, mode="lazy").upload_fraction == 1.0
    else:
        with pytest.raises(ValueError, match="trigger window"):
            bias_demo(0, alpha=alpha)


def test_bias_demo_eager_censors_uploads():
    report = bias_demo(2000, mode="eager", seed=0)
    assert report.predicted_reward_arm_a == pytest.approx(0.5, abs=0.06)
    assert report.upload_fraction == pytest.approx(0.5, abs=0.05)
    assert report.mode == "eager" and report.n_agents == 2000


def test_bias_demo_lazy_uploads_everything():
    report = bias_demo(2000, mode="lazy", seed=0)
    assert report.predicted_reward_arm_a == pytest.approx(0.0, abs=0.06)
    assert report.upload_fraction == 1.0
    assert report.mode == "lazy"


def test_bias_demo_edge_cases():
    empty = bias_demo(0, mode="eager")
    assert empty.n_agents == 0 and empty.upload_fraction == 0.0
    with pytest.raises(ValueError):
        bias_demo(10, beta_fixed=1.5)
    with pytest.raises(ValueError):
        bias_demo(10, alpha=5.0)  # single pull would already fire
    with pytest.raises(ValueError):
        bias_demo(10, alpha=20.0)  # even the double pull stays quiet
    with pytest.raises(ValueError):
        bias_demo(10, mode="greedy")


# ---------------------------------------------------------------- full suite


def test_suite_raises_when_the_pooled_floor_breaks():
    # At lam = 1e-6 the ridge is lost below the rounding of 1e16-sized
    # entries: the pooled covariance of these arms is singular in double.
    inst = gen_instance("random-sphere", d=2, K=4, seed=3)
    hp = HyperParams(lam=1e-6, alpha=0.5, delta=0.1)
    trace = run_fedlinucb(inst, gen_schedule("round-robin", M=2, T=20), hp)
    arms = np.tile(1e8 * np.array([1.0, 1.0]) / math.sqrt(2.0), (len(trace.t), 1))
    with pytest.raises(NumericalDomainError):
        run_invariant_suite(dataclasses.replace(trace, arms=arms), inst, hp)


def test_suite_checks_the_pooled_floor_on_a_factorable_matrix():
    # The pooled covariance here factors (two orthogonal arms), but at trace
    # 1.8e10 its rounding swamps lambda = 1e-6: the floor block itself raises.
    # Without events no synced factor is built, so only the pooled floor can.
    inst = gen_instance("random-sphere", d=2, K=4, seed=3)
    hp = HyperParams(lam=1e-6, alpha=0.5, delta=0.1)
    trace = run_fedlinucb(inst, gen_schedule("round-robin", M=2, T=20), hp)
    arms = np.tile([[3e4, 0.0], [0.0, 3e4]], (10, 1))
    with pytest.raises(NumericalDomainError, match="rounding"):
        run_invariant_suite(dataclasses.replace(trace, arms=arms, events=[]), inst, hp)


def test_package_covariances_skip_the_public_checks(monkeypatch):
    # from_dense is the checked boundary; the run and the suite factor their
    # own covariances through SpdMatrix._factor.  Only the M + 1 priors
    # (one per agent and the server's) come through from_dense.
    calls = []
    real = fedlinucb.SpdMatrix.from_dense
    monkeypatch.setattr(fedlinucb.SpdMatrix, "from_dense",
                        staticmethod(lambda *a, **k: calls.append(1) or real(*a, **k)))
    inst = gen_instance("random-sphere", d=4, K=5, seed=11)
    hp = HyperParams(lam=1.0, alpha=1.0 / 9.0, delta=0.1, estimate_mode="eager")
    trace = run_fedlinucb(inst, gen_schedule("iid-uniform", M=3, T=200, seed=12), hp)
    reports = run_invariant_suite(trace, inst, hp)
    assert trace.events and all(r.satisfied for r in reports)
    assert len(calls) == 3 + 1


def test_sync_criterion_allows_only_logdet_rounding():
    inst, hp, trace = run_small(seed=13, T=200)
    clean = analysis._sync_criterion_check(trace, hp.alpha)
    assert clean.satisfied and clean.detail["worst_margin"] > 0.0
    tol = clean.detail["tolerance"]
    assert 0.0 < tol < 1e-9  # d = 3, T = 200, L = 1, lambda = 1

    def with_margin(margin):
        ev = trace.events[0]
        bent = dataclasses.replace(
            ev, logdet_after=ev.logdet_before + math.log1p(hp.alpha) + margin)
        doctored = dataclasses.replace(trace, events=[bent] + trace.events[1:])
        return analysis._sync_criterion_check(doctored, hp.alpha)

    assert with_margin(-0.5 * tol).satisfied
    report = with_margin(-1e-3)
    assert not report.satisfied and report.empirical == 1.0
    assert report.detail["worst_margin"] == pytest.approx(-1e-3)


EXPECTED_SUITE = [
    "trace-consistency",
    "sync-criterion-events",
    "comm-bound",
    "epoch-comm",
    "elliptical-potential",
    "conservation",
    "noise-decomposition",
    "covariance-comparison",
    "local-confidence",
    "global-confidence",
    "regret-bound",
]


def test_invariant_suite_clean_run_all_green():
    inst, hp, trace = run_small(seed=43, M=4, T=400, alpha=1.0 / 16.0)
    reports = run_invariant_suite(trace, inst, hp)
    assert [r.name for r in reports] == EXPECTED_SUITE
    failed = [r.name for r in reports if not r.satisfied]
    assert failed == []
    by_name = {r.name: r for r in reports}
    assert by_name["comm-bound"].empirical == trace.comm_count
    assert by_name["regret-bound"].empirical == pytest.approx(float(trace.cum_regret[-1]))
    assert by_name["epoch-comm"].bound == pytest.approx(2 * (4 + 16.0))


def test_invariant_suite_flags_corrupted_trace():
    inst, hp, trace = run_small(seed=43, M=4, T=100, alpha=1.0 / 16.0)
    # Phantom communication.
    doctored = dataclasses.replace(trace, comm_count=trace.comm_count + 2)
    reports = run_invariant_suite(doctored, inst, hp)
    by_name = {r.name: r for r in reports}
    assert not by_name["trace-consistency"].satisfied
    assert "comm_count_vs_records" in by_name["trace-consistency"].detail
