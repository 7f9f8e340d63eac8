"""The invariant checks as they were before the single-pass suite: one
replay of the trace per check, an ``eigvalsh`` for every agent and round in
the covariance comparison, and the unscreened eigenvalue floor in
``SpdMatrix.from_dense``.

Test-only reference: ``test_invariant_pass.py`` asserts that the package's
single pass reports exactly what these functions report.  The check bodies
below are kept as they were; only the imports are new, and ``from_dense``
no longer passes a determinant (``core.SpdMatrix`` computes it on use).
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from fedlinucb import core
from fedlinucb.analysis import (
    BoundReport,
    CoverageReport,
    NoiseLedger,
    _single_agent_windows,
    _sync_criterion_check,
    _trace_consistency_check,
)
from fedlinucb.core import (
    FACTOR_RTOL,
    SYMMETRY_RTOL,
    DimensionMismatchError,
    HyperParams,
    NumericalDomainError,
    ProblemInstance,
    inv_norm,
    solve_estimate,
    theoretical_comm_bound,
    theoretical_regret_bound,
)
from fedlinucb.protocol import payload_checksum
from fedlinucb.simulator import SimulationTrace


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

    def __init__(self, trace: SimulationTrace):
        self.trace = trace
        p = trace.params
        self.d = int(p["d"])
        self.M = int(p["M"])
        self.lam = float(p["lambda"])
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
        self.checksum_mismatches = 0
        self.payload_deviation = 0.0

    def step(self, k: int):
        rec = self.trace.records[k]
        m, x, r = rec.agent, rec.arm, rec.reward
        self.sigma_all = self.sigma_all + np.outer(x, x)
        self.b_all = self.b_all + r * x
        self.sigma_loc[m] = self.sigma_loc[m] + np.outer(x, x)
        self.b_loc[m] = self.b_loc[m] + r * x
        event = self.events_by_round.get(rec.t)
        if event is not None and event.agent == m:
            if payload_checksum(self.sigma_loc[m], self.b_loc[m]) != event.payload_checksum:
                self.checksum_mismatches += 1
            if event.payload is not None:
                dev = max(
                    float(np.abs(event.payload[0] - self.sigma_loc[m]).max(initial=0.0)),
                    float(np.abs(event.payload[1] - self.b_loc[m]).max(initial=0.0)),
                )
                self.payload_deviation = max(self.payload_deviation, dev)
            self.server_sigma = self.server_sigma + self.sigma_loc[m]
            self.server_b = self.server_b + self.b_loc[m]
            self.sigma_loc[m] = np.zeros((self.d, self.d))
            self.b_loc[m] = np.zeros(self.d)
            self.synced_sigma[m] = self.server_sigma
            self.synced_b[m] = self.server_b
        return rec, event


def build_noise_ledger(trace: SimulationTrace, inst: ProblemInstance) -> NoiseLedger:
    T = len(trace.records)
    d = inst.dim
    eta = np.zeros(T)
    xs = np.zeros((T, d))
    rewards = np.zeros(T)
    u_all = np.zeros((T, d))
    u_split = np.zeros((T, d))
    M = int(trace.params["M"])
    u_up = {m: np.zeros(d) for m in range(1, M + 1)}
    u_loc = {m: np.zeros(d) for m in range(1, M + 1)}
    events_by_round = {ev.round: ev for ev in trace.events}
    run_u = np.zeros(d)
    for k, rec in enumerate(trace.records):
        x = rec.arm
        e = rec.reward - float(x @ inst.theta_star)
        eta[k] = e
        xs[k] = x
        rewards[k] = rec.reward
        run_u = run_u + e * x
        u_all[k] = run_u
        u_loc[rec.agent] = u_loc[rec.agent] + e * x
        event = events_by_round.get(rec.t)
        if event is not None and event.agent == rec.agent:
            u_up[rec.agent] = u_up[rec.agent] + u_loc[rec.agent]
            u_loc[rec.agent] = np.zeros(d)
        u_split[k] = sum(u_up.values()) + sum(u_loc.values())
    return NoiseLedger(
        eta=eta, xs=xs, rewards=rewards, u_all=u_all, u_split=u_split,
        u_up_final=u_up, u_loc_final=u_loc,
    )


def noise_decomposition_check(trace: SimulationTrace, inst: ProblemInstance) -> BoundReport:
    """The pooled noise sum must equal the uploaded + pending shares, each round."""
    ledger = build_noise_ledger(trace, inst)
    if len(trace.records) == 0:
        worst = 0.0
        scale = 1.0
    else:
        worst = float(np.abs(ledger.u_all - ledger.u_split).max())
        scale = max(1.0, float(np.abs(ledger.u_all).max()))
    empirical = worst / scale
    bound = 1e-8
    return BoundReport(
        name="noise-decomposition",
        empirical=empirical,
        bound=bound,
        satisfied=empirical <= bound,
        slack=bound - empirical,
    )


def conservation_check(trace: SimulationTrace) -> BoundReport:
    """Prior + uploads + pending buffers must reproduce the pooled statistics.

    Checked at every round against a direct accumulation of the played arms;
    deviation is measured relative to the pooled magnitude (the sums differ
    only in floating-point association order).  On debug traces the stored
    upload payloads are compared against the replayed buffers as well.
    """
    rep = _Replay(trace)
    worst = 0.0
    scale = 1.0
    for k in range(len(trace.records)):
        rep.step(k)
        lhs_sigma = rep.server_sigma + sum(rep.sigma_loc.values())
        lhs_b = rep.server_b + sum(rep.b_loc.values())
        dev = max(
            float(np.abs(lhs_sigma - rep.sigma_all).max(initial=0.0)),
            float(np.abs(lhs_b - rep.b_all).max(initial=0.0)),
        )
        worst = max(worst, dev)
        scale = max(scale, float(np.abs(rep.sigma_all).max(initial=1.0)))
    empirical = worst / scale
    bound = 1e-8
    satisfied = empirical <= bound and rep.checksum_mismatches == 0
    return BoundReport(
        name="conservation",
        empirical=empirical,
        bound=bound,
        satisfied=satisfied,
        slack=bound - empirical,
        detail={
            "checksum_mismatches": rep.checksum_mismatches,
            "payload_deviation": rep.payload_deviation,
        },
    )


def elliptical_potential_check(trace: SimulationTrace) -> BoundReport:
    """Sum of squared pooled-covariance norms of the played arms.

    sum_t inv_norm(sigma_all_t, x_t)^2 <= 2 d ln(1 + T L^2 / lambda), with
    sigma_all_t the end-of-round pooled covariance.
    """
    p = trace.params
    d, lam, L, T = int(p["d"]), float(p["lambda"]), float(p["L"]), int(p["T"])
    rep = _Replay(trace)
    total = 0.0
    for k in range(len(trace.records)):
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
    ledger: NoiseLedger,
    inst: ProblemInstance,
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
    p = trace.params
    d, lam, delta = int(p["d"]), float(p["lambda"]), float(p["delta"])
    T, L = int(p["T"]), float(p["L"])
    R, S = inst.R, inst.S
    global_bound = R * math.sqrt(d * math.log((1.0 + T * L * L / lam) / delta)) + math.sqrt(lam) * S

    rep = _Replay(trace)
    n_local = local_viol = 0
    n_global = global_viol = 0
    theta = inst.theta_star
    for k in range(len(trace.records)):
        rec, event = rep.step(k)
        sigma_all = SpdMatrix.from_dense(rep.sigma_all, min_eig=lam)
        theta_all = solve_estimate(sigma_all, rep.b_all)
        n_global += 1
        if _weighted_norm(sigma_all, theta - theta_all) > global_bound:
            global_viol += 1
        if event is not None:
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


def covariance_comparison_check(trace: SimulationTrace, alpha: float, M: int) -> BoundReport:
    """Loewner comparisons between local, server, and pooled covariances.

    Always: server aggregate >= sigma_loc_m / alpha for every agent and round
    (smallest eigenvalue of the difference >= -1e-8).  Additionally, inside
    every single-agent window that opens with a sync, the agent's synced
    covariance dominates the pooled one shrunk by 1/(1 + M alpha).
    """
    tol = 1e-8
    rep = _Replay(trace)
    records = trace.records
    T = len(records)
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
    p = trace.params
    d, M, T, L = int(p["d"]), int(p["M"]), int(p["T"]), float(p["L"])
    reports = [
        _trace_consistency_check(trace),
        _sync_criterion_check(trace, hp.alpha),
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

    reports.append(elliptical_potential_check(trace))
    reports.append(conservation_check(trace))
    reports.append(noise_decomposition_check(trace, inst))
    reports.append(covariance_comparison_check(trace, hp.alpha, M))

    ledger = build_noise_ledger(trace, inst)
    coverage = confidence_coverage(trace, ledger, inst, trace.beta_used)
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
