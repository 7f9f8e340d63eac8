"""Agent/server state machine with determinant-triggered synchronization.

States are frozen dataclasses; every update returns fresh objects, so an
agent's synced covariance can safely alias the server's (both are
immutable-after-construction).  Uploads move the agent's local buffers into
the server aggregate; downloads hand the post-update aggregate straight back
to the uploading agent.  One sync therefore costs exactly two communications.
Every agent is built as a download (:func:`_download`): at the start, of the
prior, and after each of its syncs, of the post-upload aggregate.

A run's round (``simulator._drive``) is :func:`_select`, the reward,
:func:`_buffer`, and :func:`sync` when :func:`_fires`: the arithmetic of the
public :func:`~fedlinucb.core.ucb_select`, :func:`local_update` and
:func:`should_sync` without their per-call checks, which a run makes once.

The trigger compares log-determinants and needs no factorization between
syncs: by the matrix determinant lemma each buffered arm ``x`` raises
``logdet(sigma + sigma_loc) - logdet(sigma)`` by ``log1p(x^T V^{-1} x)``, with
``V = sigma + sigma_loc`` before the arm, and ``V^{-1}`` is kept current by a
Sherman-Morrison update.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
import numpy as np

from .core import (
    DimensionMismatchError,
    SpdMatrix,
    _chol_solve,
    _ucb_index,
)

Vector = np.ndarray


@dataclass(frozen=True, eq=False)
class AgentState:
    """One agent: synced statistics (sigma, b, theta_hat), unsynced buffers, and
    the trigger state kept by :func:`local_update`: ``v_inv`` is
    ``(sigma + sigma_loc)^{-1}`` and ``log_gain`` is
    ``logdet(sigma + sigma_loc) - logdet(sigma)``."""

    id: int
    sigma: SpdMatrix
    b: Vector
    sigma_loc: np.ndarray
    b_loc: Vector
    theta_hat: Vector
    v_inv: np.ndarray
    log_gain: float = 0.0


@dataclass(frozen=True, eq=False)
class ServerState:
    """Central aggregate: ridge prior plus every uploaded buffer so far."""

    sigma_ser: SpdMatrix
    b_ser: Vector


@dataclass(frozen=True, eq=False)
class CommEvent:
    """One upload/download pair: its round, the uploader, and the sha256 of
    the uploaded buffers.  The invariant checks derive everything else."""

    round: int
    agent: int
    payload_checksum: str


def init_agent(agent_id: int, d: int, lam: float) -> AgentState:
    return _download(agent_id, init_server(d, lam))


def init_server(d: int, lam: float) -> ServerState:
    return ServerState(
        sigma_ser=SpdMatrix.from_dense(lam * np.eye(d), min_eig=lam),
        b_ser=np.zeros(d),
    )


def payload_checksum(sigma_loc: np.ndarray, b_loc: Vector) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(sigma_loc, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(b_loc, dtype=np.float64).tobytes())
    return h.hexdigest()


def local_update(a: AgentState, x: np.ndarray, r: float) -> AgentState:
    """Accumulate one observation into the local (unsynced) buffers and advance
    the trigger state by the determinant lemma and a Sherman-Morrison update."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.sigma.dim,):
        raise DimensionMismatchError(f"arm shape {x.shape} vs dim {a.sigma.dim}")
    if not (np.isfinite(x).all() and math.isfinite(r)):
        raise ValueError("arm and reward must be finite")
    return _buffer(a, x, r)


def _buffer(a: AgentState, x: Vector, r: float) -> AgentState:
    """:func:`local_update` of a float64 arm of shape (d,)."""
    u = a.v_inv @ x
    q = float(x @ u)
    # Broadcast outer products: the same products as np.outer, without its overhead.
    return AgentState(
        id=a.id,
        sigma=a.sigma,
        b=a.b,
        sigma_loc=a.sigma_loc + x[:, None] * x,
        b_loc=a.b_loc + r * x,
        theta_hat=a.theta_hat,
        v_inv=a.v_inv - u[:, None] * (u / (1.0 + q)),
        log_gain=a.log_gain + math.log1p(q),
    )


def should_sync(a: AgentState, alpha: float) -> bool:
    """Strict trigger logdet(sigma + sigma_loc) - logdet(sigma) > log1p(alpha), i.e.
    det ratio > 1 + alpha at any d; reads ``log_gain`` and factors nothing."""
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    return _fires(a, alpha)


def _fires(a: AgentState, alpha: float) -> bool:
    """:func:`should_sync` at a positive ``alpha``."""
    return a.log_gain > math.log1p(alpha)


def sync(a: AgentState, s: ServerState, round_: int) -> tuple[AgentState, ServerState, CommEvent]:
    """Upload the agent's buffers, then download the post-update aggregate.

    Works for an all-zero upload as well (server values unchanged, agent
    re-downloads an identical state); the run loop never produces that case
    because the strict trigger cannot fire on empty buffers.
    """
    server = ServerState(
        sigma_ser=SpdMatrix._factor(s.sigma_ser.mat + a.sigma_loc, min_eig=s.sigma_ser.min_eig),
        b_ser=s.b_ser + a.b_loc,
    )
    event = CommEvent(round=round_, agent=a.id,
                      payload_checksum=payload_checksum(a.sigma_loc, a.b_loc))
    return _download(a.id, server), server, event


def _download(agent_id: int, s: ServerState) -> AgentState:
    """An agent that holds the server's statistics, with empty buffers."""
    sigma, d = s.sigma_ser, s.sigma_ser.dim
    return AgentState(
        id=agent_id,
        sigma=sigma,
        b=s.b_ser,
        sigma_loc=np.zeros((d, d)),
        b_loc=np.zeros(d),
        theta_hat=_chol_solve(sigma.chol, s.b_ser),
        v_inv=_chol_solve(sigma.chol, np.eye(d)),
    )


def _select(a: AgentState, d_set: np.ndarray, beta: float, eager: bool) -> int:
    """:func:`~fedlinucb.core.ucb_select` without its checks, on the agent's
    stored (theta_hat, sigma), or with ``eager`` on the recombined
    (sigma + sigma_loc, b + b_loc) through a fresh factor of that sum; the
    stored state is never touched.  ``d_set`` must be a finite float64 (K, d)
    array with K >= 1 and ``beta`` nonnegative and finite (the rule of
    :func:`~fedlinucb.core.check_selection`), which a run checks once."""
    if eager:
        v = SpdMatrix._factor(a.sigma.mat + a.sigma_loc) if a.sigma_loc.any() else a.sigma
        return _ucb_index(_chol_solve(v.chol, a.b + a.b_loc), v.chol, beta, d_set)
    return _ucb_index(a.theta_hat, a.sigma.chol, beta, d_set)
