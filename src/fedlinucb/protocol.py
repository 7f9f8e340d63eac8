"""Agent/server state machine with determinant-triggered synchronization.

States are frozen dataclasses; every update returns fresh objects, so an
agent's synced covariance can safely alias the server's (both are
immutable-after-construction).  Uploads move the agent's local buffers into
the server aggregate; downloads hand the post-update aggregate straight back
to the uploading agent.  One sync therefore costs exactly two communications.

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
from typing import Callable

import numpy as np

from .core import (
    DimensionMismatchError,
    HyperParams,
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
    prior = SpdMatrix.from_dense(lam * np.eye(d), min_eig=lam)
    return AgentState(
        id=agent_id,
        sigma=prior,
        b=np.zeros(d),
        sigma_loc=np.zeros((d, d)),
        b_loc=np.zeros(d),
        theta_hat=np.zeros(d),
        v_inv=_chol_solve(prior.chol, np.eye(d)),
    )


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
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
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
    new_sigma = SpdMatrix._factor(s.sigma_ser.mat + a.sigma_loc, min_eig=s.sigma_ser.min_eig)
    new_b = s.b_ser + a.b_loc
    event = CommEvent(round=round_, agent=a.id,
                      payload_checksum=payload_checksum(a.sigma_loc, a.b_loc))
    server = ServerState(sigma_ser=new_sigma, b_ser=new_b)
    d = a.sigma.dim
    agent = AgentState(
        id=a.id,
        sigma=new_sigma,
        b=new_b,
        sigma_loc=np.zeros((d, d)),
        b_loc=np.zeros(d),
        theta_hat=_chol_solve(new_sigma.chol, new_b),
        v_inv=_chol_solve(new_sigma.chol, np.eye(d)),
        log_gain=0.0,
    )
    return agent, server, event


def step_agent(
    a: AgentState,
    s: ServerState,
    d_set: np.ndarray,
    reward_fn: Callable[[int, int], float],
    hp: HyperParams,
    beta: float,
    round_: int,
) -> tuple[AgentState, ServerState, int, float, CommEvent | None]:
    """One activation: select, observe, buffer, and sync when triggered.

    ``reward_fn(round_, idx)`` observes row ``idx`` of the round's (K, d)
    ``d_set``.  Returns the new agent and server states, the chosen row
    index, the observed reward, and the sync's event (None without one).
    Lazy mode scores arms with the stored (theta_hat, sigma); eager mode
    recombines (sigma + sigma_loc, b + b_loc) for selection, through a fresh
    factor of that sum, and leaves the stored state untouched.
    Inactive agents are never touched at all.

    The step runs the arithmetic of :func:`ucb_select`, :func:`local_update`
    and :func:`should_sync` without their checks: ``d_set`` must be a float64
    (K, d) array with K >= 1 and ``beta`` nonnegative (the rule of
    :func:`~fedlinucb.core.check_selection`), which a run checks once.
    """
    if hp.estimate_mode == "eager":
        v = SpdMatrix._factor(a.sigma.mat + a.sigma_loc) if a.sigma_loc.any() else a.sigma
        idx = _ucb_index(_chol_solve(v.chol, a.b + a.b_loc), v.chol, beta, d_set)
    else:
        idx = _ucb_index(a.theta_hat, a.sigma.chol, beta, d_set)
    r = reward_fn(round_, idx)
    a = _buffer(a, d_set[idx], r)
    event = None
    if _fires(a, hp.alpha):
        # The strict trigger cannot fire without local data.
        assert np.any(a.sigma_loc != 0.0), "sync triggered on empty buffers"
        a, s, event = sync(a, s, round_)
    return a, s, idx, r, event
