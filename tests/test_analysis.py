"""Trace-analysis checks: replays, concentration reports, the bias demo."""

import math

import numpy as np
import pytest

import fedlinucb.analysis as analysis
import fedlinucb.core as core
from fedlinucb import (
    DecisionSet,
    HyperParams,
    SimulationTrace,
    bias_demo,
    build_noise_ledger,
    confidence_coverage,
    conservation_check,
    covariance_comparison_check,
    elliptical_potential_check,
    gen_instance,
    gen_schedule,
    instantaneous_regret,
    run_fedlinucb,
    run_invariant_suite,
)
from fedlinucb.analysis import (
    _single_agent_windows,
    noise_decomposition_check,
)
from fedlinucb.protocol import CommEvent, RoundRecord, payload_checksum


def run_small(seed=7, d=3, K=5, M=3, T=300, alpha=1.0 / 9.0, debug=False, **inst_kw):
    inst = gen_instance("random-sphere", d=d, K=K, seed=seed, **inst_kw)
    sched = gen_schedule("iid-uniform", M=M, T=T, seed=seed + 1)
    hp = HyperParams(lam=1.0, alpha=alpha, delta=0.1)
    return inst, hp, run_fedlinucb(inst, sched, hp, debug=debug)


def test_bound_evaluators_are_the_core_ones():
    assert analysis.theoretical_comm_bound is core.theoretical_comm_bound
    assert analysis.theoretical_regret_bound is core.theoretical_regret_bound


# ---------------------------------------------------------------- regret lookup


def test_instantaneous_regret_exact_member():
    inst = gen_instance("fixed-list", arms=np.array([[1.0, 0.0], [0.0, 1.0]]),
                        S=1.0, seed=0)
    d_set = DecisionSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    values = d_set.arms @ inst.theta_star
    worse = int(np.argmin(values))
    assert instantaneous_regret(inst, d_set, d_set.arms[worse]) == pytest.approx(
        float(values.max() - values.min()), rel=1e-15
    )
    best = int(np.argmax(values))
    assert instantaneous_regret(inst, d_set, d_set.arms[best]) == 0.0


def test_instantaneous_regret_tolerates_tiny_representation_drift():
    inst = gen_instance("fixed-list", arms=np.array([[0.5, 0.0], [0.0, 0.5]]), seed=3)
    d_set = DecisionSet(np.array([[0.5, 0.0], [0.0, 0.5]]))
    nudged = d_set.arms[1] * (1.0 + 1e-14)
    got = instantaneous_regret(inst, d_set, nudged)
    want = instantaneous_regret(inst, d_set, d_set.arms[1])
    assert got == want


def test_instantaneous_regret_rejects_foreign_arm():
    inst = gen_instance("fixed-list", arms=np.array([[0.5, 0.0]]), seed=0)
    d_set = DecisionSet(np.array([[0.5, 0.0]]))
    with pytest.raises(ValueError):
        instantaneous_regret(inst, d_set, np.array([0.4, 0.0]))


# ---------------------------------------------------------------- noise ledger


def test_noise_ledger_matches_direct_accumulation():
    inst, hp, trace = run_small(seed=13)
    ledger = build_noise_ledger(trace, inst)
    # Independent route: accumulate eta_t * x_t straight off the records.
    run = np.zeros(inst.dim)
    for k, rec in enumerate(trace.records):
        eta = rec.reward - float(rec.arm @ inst.theta_star)
        assert ledger.eta[k] == pytest.approx(eta, rel=1e-12)
        run = run + eta * rec.arm
        np.testing.assert_allclose(ledger.u_all[k], run, rtol=1e-12, atol=1e-12)
    # Uploaded plus pending shares agree with the pooled sum at the end.
    total_split = sum(ledger.u_up_final.values()) + sum(ledger.u_loc_final.values())
    np.testing.assert_allclose(total_split, ledger.u_all[-1], rtol=1e-9, atol=1e-12)


def test_noise_decomposition_report():
    inst, hp, trace = run_small(seed=17)
    report = noise_decomposition_check(trace, inst)
    assert report.name == "noise-decomposition"
    assert report.satisfied
    assert report.empirical <= 1e-10


# ---------------------------------------------------------------- conservation


def test_conservation_on_clean_trace_with_payloads():
    inst, hp, trace = run_small(seed=19, debug=True)
    report = conservation_check(trace)
    assert report.satisfied
    assert report.detail["checksum_mismatches"] == 0
    assert report.detail["payload_deviation"] == 0.0
    assert trace.events and all(ev.payload is not None for ev in trace.events)


def test_conservation_catches_tampered_reward():
    inst, hp, trace = run_small(seed=19)
    assert trace.events, "need at least one sync for the tamper to matter"
    first_sync_round = trace.events[0].round
    records = list(trace.records)
    k = first_sync_round - 1
    rec = records[k]
    records[k] = RoundRecord(
        t=rec.t, agent=rec.agent, arm_index=rec.arm_index, arm=rec.arm,
        reward=rec.reward + 1.0, inst_regret=rec.inst_regret, comm=rec.comm,
        logdet_server=rec.logdet_server, det_server=rec.det_server,
    )
    doctored = SimulationTrace(
        records=records, events=trace.events, cum_regret=trace.cum_regret,
        comm_count=trace.comm_count, switch_count=trace.switch_count,
        epoch_starts=trace.epoch_starts, beta_used=trace.beta_used,
        params=trace.params,
    )
    report = conservation_check(doctored)
    # The replay is self-consistent, so the drift shows up as a checksum
    # mismatch against the recorded upload, not as a sum deviation.
    assert not report.satisfied
    assert report.detail["checksum_mismatches"] >= 1


# ---------------------------------------------------------------- potential


def test_elliptical_potential_against_explicit_inverse():
    inst, hp, trace = run_small(seed=23, M=2, T=40)
    report = elliptical_potential_check(trace)
    sigma = np.eye(inst.dim)  # lam = 1
    total = 0.0
    for rec in trace.records:
        sigma = sigma + np.outer(rec.arm, rec.arm)
        total += float(rec.arm @ np.linalg.inv(sigma) @ rec.arm)
    assert report.empirical == pytest.approx(total, rel=1e-9)
    assert report.satisfied
    assert report.bound == pytest.approx(2 * inst.dim * math.log(1 + 40.0), rel=1e-12)


def test_elliptical_potential_empty_trace():
    inst = gen_instance("random-sphere", d=2, K=2, seed=0)
    hp = HyperParams(lam=1.0, alpha=0.5, delta=0.1)
    trace = run_fedlinucb(inst, gen_schedule("round-robin", M=1, T=0), hp)
    report = elliptical_potential_check(trace)
    assert report.satisfied and report.empirical == 0.0


# ---------------------------------------------------------------- coverage


def test_coverage_noiseless_recovery():
    # R = 0: only the ridge prior separates the estimate from the target, so
    # both confidence statements hold with certainty.
    inst, hp, trace = run_small(seed=29, R=0.0, T=200)
    cov = confidence_coverage(trace, inst, trace.beta_used)
    assert cov.n_global == 200
    assert cov.n_local == len(trace.events) > 0
    assert cov.local_violations == 0
    assert cov.global_violations == 0
    # With R = 0 the global radius collapses to sqrt(lam) * S.
    assert cov.global_bound == pytest.approx(inst.S, rel=1e-12)


def test_coverage_standard_run_zero_violation_fractions():
    inst, hp, trace = run_small(seed=31)
    cov = confidence_coverage(trace, inst, trace.beta_used)
    assert cov.local_fraction == 0.0
    assert cov.global_fraction == 0.0
    assert cov.beta == trace.beta_used


# ---------------------------------------------------------------- covariance


def test_covariance_comparison_on_interleaved_run():
    inst, hp, trace = run_small(seed=37)
    report = covariance_comparison_check(trace, hp.alpha, int(trace.params["M"]))
    assert report.satisfied
    assert report.detail["claim1_checks"] == 300 * 3
    assert report.detail["claim1_worst"] <= 1e-8


def test_covariance_comparison_covers_single_agent_windows():
    inst = gen_instance("random-sphere", d=2, K=4, seed=41)
    sched = gen_schedule("block", M=3, T=300)
    hp = HyperParams(lam=1.0, alpha=0.25, delta=0.1)
    trace = run_fedlinucb(inst, sched, hp)
    report = covariance_comparison_check(trace, hp.alpha, 3)
    assert report.satisfied
    assert report.detail["windows"] > 0
    assert report.detail["claim2_checks"] > 0


def toy_trace(agent_seq, sync_rounds):
    records = [
        RoundRecord(t=t, agent=m, arm_index=0, arm=np.zeros(2), reward=0.0,
                    inst_regret=0.0, comm=2 if (t, m) in sync_rounds else 0,
                    logdet_server=0.0, det_server=1.0)
        for t, m in enumerate(agent_seq, 1)
    ]
    events = [
        CommEvent(round=t, agent=m, logdet_before=0.0, logdet_after=math.log(2.0),
                  payload_checksum=payload_checksum(np.zeros((2, 2)), np.zeros(2)))
        for (t, m) in sorted(sync_rounds)
    ]
    return SimulationTrace(
        records=records, events=events, cum_regret=np.zeros(len(records)),
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
    doctored = SimulationTrace(
        records=trace.records, events=trace.events, cum_regret=trace.cum_regret,
        comm_count=trace.comm_count + 2,  # phantom communication
        switch_count=trace.switch_count, epoch_starts=trace.epoch_starts,
        beta_used=trace.beta_used, params=trace.params,
    )
    reports = run_invariant_suite(doctored, inst, hp)
    by_name = {r.name: r for r in reports}
    assert not by_name["trace-consistency"].satisfied
    assert "comm_count_vs_records" in by_name["trace-consistency"].detail
