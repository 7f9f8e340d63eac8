"""The invariant checks as they were before the single-pass suite: one
replay of the trace per check, an ``eigvalsh`` for every agent and round in
the covariance comparison, and the unscreened eigenvalue floor in
``SpdMatrix.from_dense``.

Test-only reference: ``test_invariant_pass.py`` asserts that the package's
single pass reports exactly what these functions report.  The check bodies
below are kept as they were; only the imports are new, ``from_dense``
no longer passes a determinant (``core.SpdMatrix`` computes it on use), the
per-round records are rebuilt from the trace's columns by :func:`records`,
and the result record the package no longer has, ``CoverageReport``, is
defined here.  The checks that compared the replay with itself (the noise
split and the pooled-sum half of ``conservation_check``) are gone, as in
the package: ``conservation_check`` keeps the upload checksums and counts
every event the replay does not upload at, and the local coverage check
counts only those uploads.  The checks take d, lambda, L and delta from
the instance and hyperparameters, T from the trace's length and M from
``trace.M``, as the package does, since the trace no longer echoes them.  The record loops
of ``_single_agent_windows`` and ``_trace_consistency_check``, which the
package now computes on the columns, are kept at the end; the consistency
loop still compares the trace's derived counters with each other.  Events
no longer carry the trigger's log-determinants, so
:func:`sync_criterion_check` rebuilds each uploader's synced covariance and
buffer in its own records loop and factors both through ``from_dense``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any

import numpy as np

from fedlinucb import core
from fedlinucb.analysis import BoundReport
from fedlinucb.core import (
    FACTOR_RTOL,
    SYMMETRY_RTOL,
    DimensionMismatchError,
    HyperParams,
    NumericalDomainError,
    ProblemInstance,
    inv_norm,
    logdet_rounding,
    solve_estimate,
    theoretical_comm_bound,
    theoretical_regret_bound,
)
from fedlinucb.protocol import payload_checksum
from fedlinucb.simulator import SimulationTrace


@dataclass
class CoverageReport:
    """Confidence-set coverage on one trace (local per refresh, global per round)."""

    n_local: int
    local_violations: int
    local_fraction: float
    n_global: int
    global_violations: int
    global_fraction: float
    beta: float
    global_bound: float


def records(trace: SimulationTrace) -> list[SimpleNamespace]:
    """One record per round, with the fields the checks below read."""
    return [
        SimpleNamespace(t=t, agent=m, arm=x, reward=r)
        for t, m, x, r in zip(trace.t.tolist(), trace.agent.tolist(), trace.arms,
                              trace.reward.tolist())
    ]


class SpdMatrix(core.SpdMatrix):
    """``core.SpdMatrix`` built the old way: ``eigvalsh`` on every stated floor."""

    @classmethod
    def from_dense(cls, mat: Any, min_eig: float = 0.0) -> "SpdMatrix":
        m = np.array(mat, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
        scale = float(np.abs(m).max(initial=0.0))
        if float(np.abs(m - m.T).max(initial=0.0)) > SYMMETRY_RTOL * max(scale, 1.0):
            raise NumericalDomainError("matrix is not symmetric within tolerance")
        try:
            chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError as exc:
            raise NumericalDomainError(f"matrix is not positive definite: {exc}") from exc
        recon_err = float(np.abs(chol @ chol.T - m).max(initial=0.0))
        if recon_err > FACTOR_RTOL * max(scale, 1.0):
            raise NumericalDomainError("factorization failed to reproduce the matrix")
        if min_eig > 0.0:
            smallest = float(np.linalg.eigvalsh(m)[0])
            if smallest < min_eig * (1.0 - 1e-9) - 1e-12:
                raise NumericalDomainError(
                    f"smallest eigenvalue {smallest} below stated floor {min_eig}"
                )
        return cls(mat=m, chol=chol, min_eig=float(min_eig))


class _Replay:
    """Single pass over a trace reconstructing all protocol state per round.

    After ``step(k)`` (k = 0-based index into records) the attributes hold
    end-of-round values for round ``records[k].t``: the pooled statistics,
    the server aggregate, every agent's unsynced buffers, and every agent's
    synced covariance/target.
    """

    def __init__(self, trace: SimulationTrace, inst: ProblemInstance, hp: HyperParams):
        self.trace = trace
        self.d = inst.dim
        self.M = trace.M
        self.lam = hp.lam
        d = self.d
        self.sigma_all = self.lam * np.eye(d)
        self.b_all = np.zeros(d)
        self.server_sigma = self.lam * np.eye(d)
        self.server_b = np.zeros(d)
        self.sigma_loc = {m: np.zeros((d, d)) for m in range(1, self.M + 1)}
        self.b_loc = {m: np.zeros(d) for m in range(1, self.M + 1)}
        self.synced_sigma = {m: self.lam * np.eye(d) for m in range(1, self.M + 1)}
        self.synced_b = {m: np.zeros(d) for m in range(1, self.M + 1)}
        self.events_by_round = {ev.round: ev for ev in trace.events}
        self.uploads = 0
        self.checksum_mismatches = 0
        self.records = records(trace)

    def step(self, k: int):
        rec = self.records[k]
        m, x, r = rec.agent, rec.arm, rec.reward
        self.sigma_all = self.sigma_all + np.outer(x, x)
        self.b_all = self.b_all + r * x
        self.sigma_loc[m] = self.sigma_loc[m] + np.outer(x, x)
        self.b_loc[m] = self.b_loc[m] + r * x
        event = self.events_by_round.get(rec.t)
        if event is not None and event.agent == m:
            self.uploads += 1
            if payload_checksum(self.sigma_loc[m], self.b_loc[m]) != event.payload_checksum:
                self.checksum_mismatches += 1
            self.server_sigma = self.server_sigma + self.sigma_loc[m]
            self.server_b = self.server_b + self.b_loc[m]
            self.sigma_loc[m] = np.zeros((self.d, self.d))
            self.b_loc[m] = np.zeros(self.d)
            self.synced_sigma[m] = self.server_sigma
            self.synced_b[m] = self.server_b
        return rec, event


def conservation_check(trace: SimulationTrace, inst: ProblemInstance,
                       hp: HyperParams) -> BoundReport:
    """Every recorded upload must be matched by a replayed one.

    An event counts as a mismatch unless the round's acting agent uploads at
    it in the replay and the sha256 of the replayed buffers equals its
    checksum.
    """
    rep = _Replay(trace, inst, hp)
    for k in range(len(trace.t)):
        rep.step(k)
    # Events the replay never uploaded at: another agent's, or a second one at a round.
    mismatches = rep.checksum_mismatches + len(trace.events) - rep.uploads
    return BoundReport(
        name="conservation",
        empirical=float(mismatches),
        bound=0.0,
        satisfied=mismatches == 0,
        slack=0.0 - mismatches,
        detail={"checksum_mismatches": mismatches},
    )


def sync_criterion_check(trace: SimulationTrace, inst: ProblemInstance,
                         hp: HyperParams) -> BoundReport:
    """Every upload's fresh-factor gain ``logdet(sigma_m + sigma_loc_m) -
    logdet(sigma_m)`` exceeds ``log1p(alpha)``, up to the rounding of the two
    log-determinants."""
    d, lam = inst.dim, hp.lam
    tol = logdet_rounding(d, lam, inst.L, len(trace.t))
    server = lam * np.eye(d)
    synced = {m: lam * np.eye(d) for m in range(1, trace.M + 1)}
    loc = {m: np.zeros((d, d)) for m in range(1, trace.M + 1)}
    events_by_round = {ev.round: ev for ev in trace.events}
    uploads = violations = 0
    worst_margin = math.inf
    for rec in records(trace):
        m = rec.agent
        loc[m] = loc[m] + np.outer(rec.arm, rec.arm)
        event = events_by_round.get(rec.t)
        if event is None or event.agent != m:
            continue
        logdet_before = SpdMatrix.from_dense(synced[m]).logdet
        logdet_after = SpdMatrix.from_dense(synced[m] + loc[m]).logdet
        margin = logdet_after - logdet_before - math.log1p(hp.alpha)
        worst_margin = min(worst_margin, margin)
        if margin < -tol:
            violations += 1
        uploads += 1
        server = server + loc[m]
        loc[m] = np.zeros((d, d))
        synced[m] = server
    return BoundReport(
        "sync-criterion-events", float(violations), 0.0, violations == 0, -float(violations),
        {"worst_margin": None if math.isinf(worst_margin) else worst_margin,
         "events": uploads, "tolerance": tol},
    )


def elliptical_potential_check(trace: SimulationTrace, inst: ProblemInstance,
                               hp: HyperParams) -> BoundReport:
    """Sum of squared pooled-covariance norms of the played arms.

    sum_t inv_norm(sigma_all_t, x_t)^2 <= 2 d ln(1 + T L^2 / lambda), with
    sigma_all_t the end-of-round pooled covariance.
    """
    d, lam, L, T = inst.dim, hp.lam, inst.L, len(trace.t)
    rep = _Replay(trace, inst, hp)
    total = 0.0
    for k in range(len(trace.t)):
        rec, _ = rep.step(k)
        total += inv_norm(SpdMatrix.from_dense(rep.sigma_all), rec.arm) ** 2
    bound = 2.0 * d * math.log(1.0 + T * L * L / lam)
    tol = 1e-6
    return BoundReport(
        name="elliptical-potential",
        empirical=total,
        bound=bound,
        satisfied=total <= bound + tol,
        slack=bound - total,
        detail={"tolerance": tol},
    )


def confidence_coverage(
    trace: SimulationTrace,
    inst: ProblemInstance,
    hp: HyperParams,
    beta: float,
) -> CoverageReport:
    """Check every refreshed estimate against beta and the pooled estimate
    against its own radius.

    Local: after each sync, ||theta_star - theta_hat||_sigma <= beta, where
    (theta_hat, sigma) is the refreshed download.  Global: at every round,
    ||theta_star - theta_all||_{sigma_all} <= R sqrt(d ln((1 + T L^2/lam)/delta))
    + sqrt(lam) S.  Both are high-probability statements; returned fractions
    are expected to be zero at the default confidence levels.
    """
    d, lam, delta = inst.dim, hp.lam, hp.delta
    T, L = len(trace.t), inst.L
    R, S = inst.R, inst.S
    global_bound = R * math.sqrt(d * math.log((1.0 + T * L * L / lam) / delta)) + math.sqrt(lam) * S

    rep = _Replay(trace, inst, hp)
    n_local = local_viol = 0
    n_global = global_viol = 0
    theta = inst.theta_star
    for k in range(len(trace.t)):
        rec, event = rep.step(k)
        sigma_all = SpdMatrix.from_dense(rep.sigma_all, min_eig=lam)
        theta_all = solve_estimate(sigma_all, rep.b_all)
        n_global += 1
        if _weighted_norm(sigma_all, theta - theta_all) > global_bound:
            global_viol += 1
        if event is not None and event.agent == rec.agent:
            sigma_m = SpdMatrix.from_dense(rep.synced_sigma[rec.agent], min_eig=lam)
            theta_m = solve_estimate(sigma_m, rep.synced_b[rec.agent])
            n_local += 1
            if _weighted_norm(sigma_m, theta - theta_m) > beta:
                local_viol += 1
    return CoverageReport(
        n_local=n_local,
        local_violations=local_viol,
        local_fraction=local_viol / n_local if n_local else 0.0,
        n_global=n_global,
        global_violations=global_viol,
        global_fraction=global_viol / n_global if n_global else 0.0,
        beta=beta,
        global_bound=global_bound,
    )


def _weighted_norm(m: SpdMatrix, v: np.ndarray) -> float:
    """||v||_m = sqrt(v^T m v) (direct norm, not the inverse one)."""
    return math.sqrt(max(float(v @ m.mat @ v), 0.0))


def covariance_comparison_check(trace: SimulationTrace, inst: ProblemInstance, hp: HyperParams,
                                M: int) -> BoundReport:
    """Loewner comparisons between local, server, and pooled covariances.

    Always: server aggregate >= sigma_loc_m / alpha for every agent and round
    (smallest eigenvalue of the difference >= -1e-8).  Additionally, inside
    every single-agent window that opens with a sync, the agent's synced
    covariance dominates the pooled one shrunk by 1/(1 + M alpha).
    """
    alpha = hp.alpha
    tol = 1e-8
    rep = _Replay(trace, inst, hp)
    T = len(trace.t)
    worst1 = 0.0  # claim 1 violation magnitude
    worst2 = 0.0
    n_checks1 = 0

    sigma_all_by_round = np.zeros((T, rep.d, rep.d))
    synced_by_round: list[dict[int, np.ndarray]] = []
    for k in range(T):
        rep.step(k)
        for m in range(1, M + 1):
            diff = rep.server_sigma - rep.sigma_loc[m] / alpha
            lam_min = float(np.linalg.eigvalsh(diff)[0])
            worst1 = max(worst1, -lam_min)
            n_checks1 += 1
        sigma_all_by_round[k] = rep.sigma_all
        synced_by_round.append({m: rep.synced_sigma[m] for m in range(1, M + 1)})

    windows = _single_agent_windows(trace)
    n_checks2 = 0
    shrink = 1.0 / (1.0 + M * alpha)
    for (m, t1, t2) in windows:
        for t in range(t1 + 1, t2 + 1):
            diff = synced_by_round[t - 1][m] - shrink * sigma_all_by_round[t - 1]
            lam_min = float(np.linalg.eigvalsh(diff)[0])
            worst2 = max(worst2, -lam_min)
            n_checks2 += 1

    empirical = max(worst1, worst2)
    return BoundReport(
        name="covariance-comparison",
        empirical=empirical,
        bound=tol,
        satisfied=empirical <= tol,
        slack=tol - empirical,
        detail={
            "claim1_checks": n_checks1,
            "claim1_worst": worst1,
            "claim2_checks": n_checks2,
            "claim2_worst": worst2,
            "windows": len(windows),
        },
    )


def run_invariant_suite(
    trace: SimulationTrace, inst: ProblemInstance, hp: HyperParams
) -> list[BoundReport]:
    """Every invariant check on one trace, as named pass/fail reports.

    The two confidence checks are high-probability statements (they may fail
    on a delta-tail run by design); everything else is deterministic.
    """
    d, M, T, L = inst.dim, trace.M, len(trace.t), inst.L
    reports = [
        _trace_consistency_check(trace),
        sync_criterion_check(trace, inst, hp),
    ]

    comm_bound = theoretical_comm_bound(d, M, hp.alpha, hp.lam, L, T)
    reports.append(
        BoundReport(
            name="comm-bound",
            empirical=float(trace.comm_count),
            bound=comm_bound,
            satisfied=trace.comm_count <= comm_bound,
            slack=comm_bound - trace.comm_count,
        )
    )

    per_epoch_cap = 2.0 * (M + 1.0 / hp.alpha)
    worst_epoch = 0.0
    if trace.epoch_starts:
        starts = [tau for _, tau in trace.epoch_starts]
        for j, tau in enumerate(starts):
            end = starts[j + 1] if j + 1 < len(starts) else T + 1
            worst_epoch = max(
                worst_epoch, 2.0 * sum(1 for ev in trace.events if tau <= ev.round < end)
            )
    reports.append(
        BoundReport(
            name="epoch-comm",
            empirical=worst_epoch,
            bound=per_epoch_cap,
            satisfied=worst_epoch <= per_epoch_cap,
            slack=per_epoch_cap - worst_epoch,
        )
    )

    reports.append(elliptical_potential_check(trace, inst, hp))
    reports.append(conservation_check(trace, inst, hp))
    reports.append(covariance_comparison_check(trace, inst, hp, M))

    coverage = confidence_coverage(trace, inst, hp, trace.beta_used)
    reports.append(
        BoundReport(
            name="local-confidence",
            empirical=coverage.local_fraction,
            bound=0.0,
            satisfied=coverage.local_violations == 0,
            slack=-coverage.local_fraction,
            detail={"checks": coverage.n_local, "beta": coverage.beta},
        )
    )
    reports.append(
        BoundReport(
            name="global-confidence",
            empirical=coverage.global_fraction,
            bound=0.0,
            satisfied=coverage.global_violations == 0,
            slack=-coverage.global_fraction,
            detail={"checks": coverage.n_global, "radius": coverage.global_bound},
        )
    )

    total_regret = float(trace.cum_regret[-1]) if len(trace.cum_regret) else 0.0
    regret_bound = theoretical_regret_bound(inst, hp, M, T, trace.beta_used)
    reports.append(
        BoundReport(
            name="regret-bound",
            empirical=total_regret,
            bound=regret_bound,
            satisfied=total_regret <= regret_bound,
            slack=regret_bound - total_regret,
        )
    )
    return reports


def _single_agent_windows(trace: SimulationTrace) -> list[tuple[int, int, int]]:
    """Windows (m, t1, t2): agent m alone active in (t1, t2], syncing at t1."""
    records_ = records(trace)
    T = len(records_)
    if T == 0:
        return []
    sync_rounds = {(ev.round, ev.agent) for ev in trace.events}
    windows = []
    start = 0
    while start < T:
        m = records_[start].agent
        end = start
        while end + 1 < T and records_[end + 1].agent == m:
            end += 1
        run_rounds = [records_[k].t for k in range(start, end + 1)]
        syncs = [t for t in run_rounds if (t, m) in sync_rounds]
        for j, t1 in enumerate(syncs):
            t2 = syncs[j + 1] if j + 1 < len(syncs) else run_rounds[-1]
            if t2 > t1:
                windows.append((m, t1, t2))
        start = end + 1
    return windows


def _trace_consistency_check(trace: SimulationTrace) -> BoundReport:
    problems = 0
    detail = {}
    rows = [
        SimpleNamespace(comm=c, inst_regret=g, logdet_server=v)
        for c, g, v in zip(trace.comm.tolist(), trace.inst_regret.tolist(),
                           trace.logdet_server.tolist())
    ]
    comm_sum = sum(rec.comm for rec in rows)
    if trace.comm_count != comm_sum:
        problems += 1
        detail["comm_count_vs_records"] = (trace.comm_count, comm_sum)
    if trace.comm_count != 2 * len(trace.events) and trace.events:
        problems += 1
        detail["comm_count_vs_events"] = (trace.comm_count, 2 * len(trace.events))
    if trace.switch_count * 2 != trace.comm_count:
        problems += 1
        detail["switch_identity"] = (trace.switch_count, trace.comm_count)
    if any(rec.inst_regret < 0 for rec in rows):
        problems += 1
        detail["negative_regret_rounds"] = sum(1 for rec in rows if rec.inst_regret < 0)
    if len(rows) != len(trace.cum_regret):
        problems += 1
        detail["cum_regret_length"] = (len(rows), len(trace.cum_regret))
    else:
        expected = np.cumsum([rec.inst_regret for rec in rows])
        if rows and float(np.abs(expected - trace.cum_regret).max()) > 1e-9 * max(
            1.0, float(expected[-1])
        ):
            problems += 1
            detail["cum_regret_mismatch"] = float(np.abs(expected - trace.cum_regret).max())
    logdets = [rec.logdet_server for rec in rows]
    if trace.events and any(
        b < a - 1e-12 * max(1.0, abs(a)) for a, b in zip(logdets, logdets[1:])
    ):
        problems += 1
        detail["logdet_server_not_monotone"] = True
    return BoundReport("trace-consistency", float(problems), 0.0, problems == 0,
                       -float(problems), detail)
