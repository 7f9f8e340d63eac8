"""Trace-analysis checks: replays, concentration reports, the bias demo."""

import contextlib
import dataclasses
import math

import numpy as np
import pytest

import faults
import fedlinucb
import fedlinucb.analysis as analysis
import fedlinucb.core as core
from fedlinucb import (
    CommBoundError,
    HyperParams,
    NumericalDomainError,
    SimulationTrace,
    bias_demo,
    gen_instance,
    gen_schedule,
    run_fedlinucb,
    run_invariant_suite,
    sample_decision_set,
)
from fedlinucb.environment import _BIAS_ARMS
from fedlinucb.protocol import CommEvent, init_agent, local_update, payload_checksum, should_sync


def run_small(seed=7, d=3, K=5, M=3, T=300, alpha=1.0 / 9.0, **inst_kw):
    inst = gen_instance("random-sphere", d=d, K=K, seed=seed, **inst_kw)
    sched = gen_schedule("iid-uniform", M=M, T=T, seed=seed + 1)
    hp = HyperParams(lam=1.0, alpha=alpha, delta=0.1)
    return inst, hp, run_fedlinucb(inst, sched, hp)


def replay_checks(trace, inst, lam, checks):
    """Feed the whole of ``trace`` through one replay to the accumulators ``checks``."""
    analysis._Replay(inst, trace.M, lam).feed(trace.agent, trace.arm_index, trace.reward,
                                              trace.events, checks)


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
    last = trace.events[-1]
    wrong_agent = dataclasses.replace(last, agent=last.agent % trace.M + 1)
    tampered = {
        "checksum": trace.events[:k] + [
            dataclasses.replace(trace.events[k], payload_checksum="0" * 64)
        ] + trace.events[k + 1:],
        # An event no replayed upload matches: another agent's, at the last sync round.
        "wrong agent": trace.events[:-1] + [wrong_agent],
        # A second record of one upload.
        "duplicate": trace.events + [last],
    }
    for case, events in tampered.items():
        report = suite_by_name(dataclasses.replace(trace, events=events), inst, hp)[
            "conservation"]
        assert not report.satisfied, case
        assert report.detail["checksum_mismatches"] == 1, case
        assert report.empirical == 1.0 and report.bound == 0.0, case


def test_conservation_catches_tampered_reward():
    inst, hp, trace = run_small(seed=19)
    assert trace.events, "need at least one sync for the tamper to matter"
    first_sync_round = trace.events[0].round
    reward = trace.reward.copy()
    reward[first_sync_round - 1] += 1.0
    doctored = dataclasses.replace(trace, reward=reward)
    report = suite_by_name(doctored, inst, hp)["conservation"]
    # The replay uploads buffers rebuilt from the doctored reward, so their
    # checksums no longer match the recorded ones.
    assert not report.satisfied
    assert report.detail["checksum_mismatches"] >= 1


# What the suite catches of each protocol fault in ``faults``: the reports
# that fail on a run made under the fault, in either mode, or the error the
# faulty run raises itself.  A fault that nothing catches is pinned as caught
# by nothing (caught 6 of 11, one of them by the run's own epoch cap).
FAULT_VERDICTS = {
    "doubled-server-b": set(),
    "doubled-server-sigma": {"covariance-comparison"},
    "half-dropped-download": set(),
    "stale-download": {"sync-criterion-events"},
    "trigger-1.02": set(),
    "trigger-1.1": {"covariance-comparison"},
    "wrong-agent-event": {"conservation", "covariance-comparison"},
    "another-rounds-decision-set": {"conservation", "covariance-comparison",
                                    "global-confidence", "sync-criterion-events"},
    "skipped-download": CommBoundError,
    "another-rounds-reward": set(),
    "stale-b-loc": set(),
}
# Faults in a step that only eager runs take.
EAGER_ONLY = {"stale-b-loc"}


def fault_run(mode, fault=None):
    """The fault table's run (d=4, K=10, iid-uniform M=4, T=500, alpha=1/16),
    made under ``faults.FAULTS[fault]`` unless ``fault`` is None."""
    inst = gen_instance("random-sphere", d=4, K=10, seed=3)
    hp = HyperParams(lam=1.0, alpha=1.0 / 16.0, delta=0.01, estimate_mode=mode)
    with faults.FAULTS[fault]() if fault else contextlib.nullcontext():
        trace = run_fedlinucb(inst, gen_schedule("iid-uniform", M=4, T=500, seed=5), hp)
    return inst, hp, trace


def played(trace):
    """What a run did: its arms and its events."""
    return trace.arm_index.tolist(), [dataclasses.astuple(ev) for ev in trace.events]


@pytest.mark.parametrize("mode", ["lazy", "eager"])
@pytest.mark.parametrize("fault", list(FAULT_VERDICTS))
def test_fault_verdicts(fault, mode):
    verdict = FAULT_VERDICTS[fault]
    if not isinstance(verdict, set):
        with pytest.raises(verdict):
            fault_run(mode, fault)
        return
    inst, hp, trace = fault_run(mode, fault)
    # Every fault reaches the run, the ones no report catches too, except a
    # fault of the eager step in a lazy run, which must leave the run as it was.
    reached = played(trace) != played(fault_run(mode)[2])
    assert trace.events and reached == (mode == "eager" or fault not in EAGER_ONLY)
    failing = {r.name for r in run_invariant_suite(trace, inst, hp) if not r.satisfied}
    assert failing == verdict


def test_a_trace_fails_conservation_on_another_instance():
    inst, hp, trace = run_small(seed=19)
    other = gen_instance("random-sphere", d=3, K=5, seed=20)
    assert not suite_by_name(trace, other, hp)["conservation"].satisfied


@pytest.mark.parametrize("bad", [-1, 5])
def test_suite_refuses_an_arm_index_outside_the_decision_set(bad):
    # numpy would read index -1 as the last arm and replay a round the run never played.
    inst, hp, trace = run_small(seed=19)
    arm_index = trace.arm_index.copy()
    arm_index[7] = bad
    with pytest.raises(ValueError, match=r"arm_index leaves 0\.\.4"):
        run_invariant_suite(dataclasses.replace(trace, arm_index=arm_index), inst, hp)


@pytest.mark.parametrize("bad", [0, -5, "T+1"])
def test_suite_refuses_an_event_outside_the_trace_rounds(bad):
    # numpy would file round 0 under the last round's row and round T+1 nowhere.
    inst, hp, trace = run_small(seed=19)
    T = len(trace.agent)
    bad = T + 1 if bad == "T+1" else bad
    events = trace.events + [CommEvent(round=bad, agent=1, payload_checksum="0" * 64)]
    with pytest.raises(ValueError, match=rf"event at round {bad} leaves 1\.\.{T}$"):
        run_invariant_suite(dataclasses.replace(trace, events=events), inst, hp)


def test_nan_rewards_after_the_last_upload_fail_the_checks():
    # No upload carries these rewards, so no checksum sees them: the NaN
    # reaches only the row scan and the pooled estimate, which must keep it
    # rather than drop it.
    inst, hp, trace = run_small()
    assert trace.events
    reward = trace.reward.copy()
    reward[trace.events[-1].round:] = math.nan
    by_name = suite_by_name(dataclasses.replace(trace, reward=reward), inst, hp)
    for name in ("global-confidence", "trace-consistency"):
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
    for t, idx in zip(trace.t.tolist(), trace.arm_index.tolist()):
        x = sample_decision_set(inst, t)[idx]
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


# Every toy trace plays row 0 of this list, the zero arm.
TOY_INST = gen_instance("fixed-list", arms=np.zeros((1, 2)))


def toy_trace(agent_seq, sync_rounds):
    T = len(agent_seq)
    events = [
        CommEvent(round=t, agent=m,
                  payload_checksum=payload_checksum(np.zeros((2, 2)), np.zeros(2)))
        for (t, m) in sorted(sync_rounds)
    ]
    return SimulationTrace(
        agent=np.array(agent_seq), arm_index=np.zeros(T, dtype=int),
        reward=np.zeros(T), inst_regret=np.zeros(T), logdet_server=np.zeros(T),
        events=events, beta_used=0.0, M=max(agent_seq),
    )


def window_counts(trace):
    """(windows, claim-2 checks) of the covariance comparison on ``trace``."""
    covariance = analysis._Covariance(0.5, trace.M)
    replay_checks(trace, TOY_INST, 1.0, [covariance])
    (report,) = covariance.reports()
    return report.detail["windows"], report.detail["claim2_checks"]


def test_single_agent_window_extraction():
    # Windows (1, 2, 3) and (2, 5, 6): each sync's agent alone in the round after it.
    assert window_counts(toy_trace([1, 1, 1, 2, 2, 2], {(2, 1), (5, 2)})) == (2, 2)
    # Back-to-back syncs: the earlier one opens a window up to the later one;
    # a sync on the run's last round opens nothing.
    assert window_counts(toy_trace([1, 1, 2], {(1, 1), (2, 1)})) == (1, 1)
    # Windows never cross into the next agent's run: (1, 1, 2) and (2, 3, 4).
    assert window_counts(toy_trace([1, 1, 2, 2], {(1, 1), (3, 2)})) == (2, 2)
    # No syncs, no windows.
    assert window_counts(toy_trace([1, 2, 1], set())) == (0, 0)
    assert not hasattr(analysis, "_single_agent_windows")
    assert not hasattr(analysis, "_synced_rows")


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


def huge_arms_instance(arms):
    """A fixed list of ``arms``, with L raised to admit them: the replay reads
    its arms from the instance it is given, so this one doctors every arm."""
    return gen_instance("fixed-list", arms=arms, L=float(np.linalg.norm(arms, axis=1).max()))


def test_suite_raises_when_the_pooled_floor_breaks():
    # At lam = 1e-6 the ridge is lost below the rounding of 1e16-sized
    # entries: the pooled covariance of these arms is singular in double.
    inst = gen_instance("random-sphere", d=2, K=4, seed=3)
    hp = HyperParams(lam=1e-6, alpha=0.5, delta=0.1)
    trace = run_fedlinucb(inst, gen_schedule("round-robin", M=2, T=20), hp)
    doctored = huge_arms_instance(np.tile(1e8 * np.array([1.0, 1.0]) / math.sqrt(2.0), (4, 1)))
    with pytest.raises(NumericalDomainError):
        run_invariant_suite(trace, doctored, hp)


def test_suite_checks_the_pooled_floor_on_a_factorable_matrix():
    # The pooled covariance here factors (two orthogonal arms), but at trace
    # 1.8e10 its rounding swamps lambda = 1e-6: the floor block itself raises.
    # Without events the synced factors stay the ridge prior, so only the pooled
    # floor can.
    inst = gen_instance("random-sphere", d=2, K=4, seed=3)
    hp = HyperParams(lam=1e-6, alpha=0.5, delta=0.1)
    trace = run_fedlinucb(inst, gen_schedule("round-robin", M=2, T=20), hp)
    doctored = huge_arms_instance(np.array([[3e4, 0.0], [0.0, 3e4]]))
    alternating = dataclasses.replace(trace, arm_index=np.tile([0, 1], 10), events=[])
    with pytest.raises(NumericalDomainError, match="rounding"):
        run_invariant_suite(alternating, doctored, hp)


def test_package_covariances_skip_the_public_checks(monkeypatch):
    # from_dense is the checked boundary; the run and the suite factor their
    # own covariances through SpdMatrix._factor.  Only the server's prior
    # comes through from_dense; every agent starts as a download of it.
    calls = []
    real = fedlinucb.SpdMatrix.from_dense
    monkeypatch.setattr(fedlinucb.SpdMatrix, "from_dense",
                        staticmethod(lambda *a, **k: calls.append(1) or real(*a, **k)))
    inst = gen_instance("random-sphere", d=4, K=5, seed=11)
    hp = HyperParams(lam=1.0, alpha=1.0 / 9.0, delta=0.1, estimate_mode="eager")
    trace = run_fedlinucb(inst, gen_schedule("iid-uniform", M=3, T=200, seed=12), hp)
    reports = run_invariant_suite(trace, inst, hp)
    assert trace.events and all(r.satisfied for r in reports)
    assert len(calls) == 1


def test_sync_criterion_allows_only_logdet_rounding():
    inst, hp, trace = run_small(seed=13, T=200)
    clean = suite_by_name(trace, inst, hp)["sync-criterion-events"]
    assert clean.satisfied is True and clean.detail["worst_margin"] > 0.0
    assert clean.detail["events"] == len(trace.events) > 0
    tol = clean.detail["tolerance"]
    assert 0.0 < tol < 1e-9  # d = 3, T = 200, L = 1, lambda = 1

    def with_margin(margin):
        # Checked against a larger alpha', every margin drops by
        # log1p(alpha') - log1p(alpha); this alpha' puts the worst at ``margin``.
        alpha = math.expm1(math.log1p(hp.alpha) + clean.detail["worst_margin"] - margin)
        check_hp = dataclasses.replace(hp, alpha=alpha)
        return suite_by_name(trace, inst, check_hp)["sync-criterion-events"]

    assert with_margin(-0.5 * tol).satisfied is True
    report = with_margin(-1e-3)
    assert report.satisfied is False and report.empirical >= 1.0
    assert report.detail["worst_margin"] == pytest.approx(-1e-3)


EXPECTED_SUITE = [
    "trace-consistency",
    "sync-criterion-events",
    "comm-bound",
    "epoch-comm",
    "elliptical-potential",
    "conservation",
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


@pytest.mark.parametrize("column, key", [
    ("inst_regret", "negative_regret_rounds"),
    ("logdet_server", "logdet_server_not_monotone"),
])
def test_invariant_suite_flags_doctored_trace(column, key):
    inst, hp, trace = run_small(seed=43, M=4, T=100, alpha=1.0 / 16.0)
    assert trace.events
    # One regret entry below 0, or one step of the server log-determinant downward.
    bent = getattr(trace, column).copy()
    k = len(bent) // 2
    bent[k] = -1.0 if column == "inst_regret" else bent[k - 1] - 1.0
    report = suite_by_name(dataclasses.replace(trace, **{column: bent}), inst, hp)[
        "trace-consistency"]
    assert not report.satisfied and report.empirical == 1.0
    assert list(report.detail) == [key]
