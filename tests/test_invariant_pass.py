"""The single-pass invariant suite against the per-check replays it replaced.

``reference_analysis`` keeps the old checks (one replay per check, an
``eigvalsh`` per agent and round, the unscreened eigenvalue floor).  Every
report of the single pass must equal the old one exactly, field by field,
including the fallback paths where a Loewner claim is violated.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fedlinucb.analysis as analysis
import reference_analysis as ref
from fedlinucb import (
    HyperParams,
    gen_instance,
    gen_schedule,
    run_fedlinucb,
)
from fedlinucb.core import eigs_surely_above

PROPERTY = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_instance(arms, d, seed):
    if arms == "subspace":
        # Fixed arms inside a one- or two-dimensional subspace of R^d.
        basis = np.zeros((3, d))
        basis[0, 0] = 0.9
        basis[1, : min(d, 2)] = 0.5
        basis[2, 0] = -0.3
        return gen_instance("fixed-list", arms=basis, seed=seed)
    return gen_instance(arms, d=d, K=6, seed=seed)


@st.composite
def cases(draw):
    d = draw(st.integers(1, 6))
    M = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["round-robin", "iid-uniform", "block"]))
    T = draw(st.integers(0, 150))
    if kind == "block":
        T -= T % M
    seed = draw(st.integers(0, 2**16))
    inst = make_instance(draw(st.sampled_from(["random-sphere", "hypercube-corners", "subspace"])),
                         d, seed)
    hp = HyperParams(
        lam=draw(st.sampled_from([1e-3, 0.1, 1.0, 4.0])),
        alpha=draw(st.sampled_from([1.0 / 64.0, 1.0 / 9.0, 0.5, 2.0])),
        delta=0.1,
        estimate_mode=draw(st.sampled_from(["lazy", "eager"])),
    )
    trace = run_fedlinucb(inst, gen_schedule(kind, M=M, T=T, seed=seed + 1), hp)
    check_alpha = draw(st.sampled_from([1e-3, 1e-2, hp.alpha]))
    return inst, hp, trace, check_alpha


@PROPERTY
@given(cases())
def test_single_pass_reports_equal_the_per_check_replays(case):
    inst, hp, trace, check_alpha = case
    # A check alpha other than the run's exercises the covariance comparison
    # (and its eigvalsh fallback) where its claims can fail.
    for alpha in {hp.alpha, check_alpha}:
        check_hp = dataclasses.replace(hp, alpha=alpha)
        assert analysis.run_invariant_suite(trace, inst, check_hp) == ref.run_invariant_suite(
            trace, inst, check_hp
        )


def brute_force_claim1_worst(trace, inst, hp, alpha, M):
    """max over agents and rounds of -lambda_min(server - sigma_loc_m / alpha)."""
    d, lam = inst.dim, hp.lam
    server = lam * np.eye(d)
    loc = {m: np.zeros((d, d)) for m in range(1, M + 1)}
    uploads = {(ev.round, ev.agent) for ev in trace.events}
    worst = 0.0
    for t, a, x in zip(trace.t.tolist(), trace.agent.tolist(), trace.arms):
        loc[a] = loc[a] + np.outer(x, x)
        if (t, a) in uploads:
            server = server + loc[a]
            loc[a] = np.zeros((d, d))
        for m in range(1, M + 1):
            worst = max(worst, -float(np.linalg.eigvalsh(server - loc[m] / alpha)[0]))
    return worst


def test_violated_claim_falls_back_to_eigvalsh():
    inst = gen_instance("random-sphere", d=4, K=6, seed=5)
    hp = HyperParams(lam=1.0, alpha=1.0 / 9.0, delta=0.1)
    trace = run_fedlinucb(inst, gen_schedule("iid-uniform", M=3, T=200, seed=6), hp)
    check_hp = dataclasses.replace(hp, alpha=1e-3)
    reports = analysis.run_invariant_suite(trace, inst, check_hp)
    report = next(r for r in reports if r.name == "covariance-comparison")
    worst = brute_force_claim1_worst(trace, inst, hp, 1e-3, 3)
    assert worst > 1e-8  # the buffers scaled by 1/alpha are far outside the server
    assert report.detail["claim1_worst"] == worst
    assert not report.satisfied
    assert report == ref.covariance_comparison_check(trace, inst, check_hp, 3)


def test_clean_run_needs_no_eigvalsh(monkeypatch):
    inst = gen_instance("hypercube-corners", d=5, K=6, seed=8)
    hp = HyperParams(lam=1.0, alpha=1.0 / 16.0, delta=0.1, estimate_mode="eager")
    trace = run_fedlinucb(inst, gen_schedule("iid-uniform", M=3, T=300, seed=9), hp)
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or real(a))
    reports = analysis.run_invariant_suite(trace, inst, hp)
    assert all(r.satisfied for r in reports)
    assert calls == []


@PROPERTY
@given(
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.floats(-1e-6, 1e-6),
)
def test_screen_success_implies_eigvalsh_at_or_above_floor(d, seed, shift):
    # Matrices whose smallest eigenvalue sits within a hair of the floor.
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = np.concatenate([[1.0 + shift], 1.0 + rng.uniform(0.0, 10.0, d - 1)])
    mat = (q * eigs) @ q.T
    mat = (mat + mat.T) / 2.0
    if eigs_surely_above(mat, 1.0):
        assert float(np.linalg.eigvalsh(mat)[0]) >= 1.0


@PROPERTY
@given(
    st.integers(1, 64),
    st.integers(0, 2**32 - 1),
    st.floats(-1e-6, 1e-6),
    st.sampled_from([1e-3, 0.1, 1.0, 4.0]),
)
def test_screen_soundness_up_to_d64(d, seed, shift, floor):
    # As above at the dimensions and floors the runs use.
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = np.concatenate([[floor + shift], floor * (1.0 + rng.uniform(0.0, 10.0, d - 1))])
    mat = (q * eigs) @ q.T
    mat = (mat + mat.T) / 2.0
    if eigs_surely_above(mat, floor):
        assert float(np.linalg.eigvalsh(mat)[0]) >= floor


@pytest.mark.parametrize("d", [1, 2, 5, 32])
def test_screen_reads_only_the_lower_triangle(d):
    # eigvalsh reads the lower triangle; the screen must decide on the same one.
    rng = np.random.default_rng(d)
    g = rng.standard_normal((d, d))
    mat = g @ g.T + np.eye(d)
    smallest = float(np.linalg.eigvalsh(mat)[0])
    doctored = mat.copy()
    doctored[np.triu_indices(d, 1)] = np.nan
    assert np.array_equal(np.linalg.eigvalsh(doctored), np.linalg.eigvalsh(mat))
    for floor in (0.0, 0.5 * smallest, smallest, 2.0 * smallest):
        assert eigs_surely_above(doctored, floor) == eigs_surely_above(mat, floor)
    assert eigs_surely_above(doctored, 0.5 * smallest)
    assert not eigs_surely_above(doctored, 2.0 * smallest)


def test_screen_rejects_nan_and_indefinite():
    nan = np.eye(3)
    nan[2, 1] = nan[1, 2] = np.nan
    assert not eigs_surely_above(nan, 0.0)
    assert not eigs_surely_above(np.diag([1.0, -1e-300]), 0.0)
    assert not eigs_surely_above(np.diag([1.0, 1.0]), 1.0)
    assert eigs_surely_above(np.diag([1.0, 2.0]), 0.5)

