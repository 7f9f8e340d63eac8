"""Agent/server state machine with determinant-triggered synchronization.

States are frozen dataclasses; every update returns fresh objects, so an
agent's synced covariance and vector can safely alias the server's: the
server's arrays are read-only.  Uploads move the agent's local buffers into
the server aggregate; downloads hand the post-update aggregate straight back
to the uploading agent.  One sync therefore costs exactly two communications.
Every agent is built as a download (:func:`_download`): at the start, of the
prior, and after each of its syncs, of the post-upload aggregate.

A run (``simulator._drive``) makes the arithmetic of the public
:func:`~fedlinucb.core.ucb_select`, :func:`local_update` and
:func:`should_sync` without their per-call checks, which it makes once.  It
scores through :func:`~fedlinucb.core._ucb_index`, on an agent's stored
(theta_hat, sigma) or, in eager mode, on :func:`_recombined`; it advances an
agent's trigger state by the step :func:`local_update` takes,
:func:`_rank_one`; and it calls :func:`sync` when :func:`_fires`.

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
    _read_only,
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
        b_ser=_read_only(np.zeros(d)),
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
    v_inv, gain = _rank_one(a.v_inv, x)
    # Broadcast outer products: the same products as np.outer, without its overhead.
    return AgentState(
        id=a.id,
        sigma=a.sigma,
        b=a.b,
        sigma_loc=a.sigma_loc + x[:, None] * x,
        b_loc=a.b_loc + r * x,
        theta_hat=a.theta_hat,
        v_inv=v_inv,
        log_gain=a.log_gain + gain,
    )


def _rank_one(v_inv: np.ndarray, x: Vector) -> tuple[np.ndarray, float]:
    """The trigger step of one buffered float64 arm ``x`` of shape (d,):
    ``(V + x x^T)^{-1}`` by Sherman-Morrison from ``v_inv = V^{-1}``, and
    ``logdet(V + x x^T) - logdet(V) = log1p(x^T V^{-1} x)``."""
    u = v_inv @ x
    q = float(x @ u)
    return v_inv - u[:, None] * (u / (1.0 + q)), math.log1p(q)


def should_sync(a: AgentState, alpha: float) -> bool:
    """Strict trigger logdet(sigma + sigma_loc) - logdet(sigma) > log1p(alpha), i.e.
    det ratio > 1 + alpha at any d; reads ``log_gain`` and factors nothing."""
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    return _fires(a.log_gain, alpha)


def _fires(log_gain: float, alpha: float) -> bool:
    """:func:`should_sync` of an agent's ``log_gain`` at a positive ``alpha``."""
    return log_gain > math.log1p(alpha)


def sync(a: AgentState, s: ServerState, round_: int) -> tuple[AgentState, ServerState, CommEvent]:
    """Upload the agent's buffers, then download the post-update aggregate.

    Works for an all-zero upload as well (server values unchanged, agent
    re-downloads an identical state); the run loop never produces that case
    because the strict trigger cannot fire on empty buffers.
    """
    server = ServerState(
        sigma_ser=SpdMatrix._factor(s.sigma_ser.mat + a.sigma_loc, min_eig=s.sigma_ser.min_eig),
        b_ser=_read_only(s.b_ser + a.b_loc),
    )
    event = CommEvent(round=round_, agent=a.id,
                      payload_checksum=payload_checksum(a.sigma_loc, a.b_loc))
    return _download(a.id, server), server, event


def _download(agent_id: int, s: ServerState) -> AgentState:
    """An agent that holds the server's statistics, with empty buffers."""
    sigma, d = s.sigma_ser, s.sigma_ser.dim
    # One dpotrs solve of [b | I]; v_inv is a Fortran-order slice of it, the
    # layout ``v_inv @ x`` rounds by, as a solve of the identity alone returns.
    rhs = np.zeros((d, d + 1), order="F")
    rhs[:, 0] = s.b_ser
    rhs[np.arange(d), np.arange(1, d + 1)] = 1.0
    x = _chol_solve(sigma.chol, rhs)
    return AgentState(
        id=agent_id,
        sigma=sigma,
        b=s.b_ser,
        sigma_loc=np.zeros((d, d)),
        b_loc=np.zeros(d),
        theta_hat=x[:, 0],
        v_inv=x[:, 1:],
    )


def _recombined(sigma: SpdMatrix, b: Vector, sigma_loc: np.ndarray,
                b_loc: Vector) -> tuple[Vector, np.ndarray]:
    """The eager statistics of synced (sigma, b) and buffers (sigma_loc, b_loc):
    the estimate and lower factor of (sigma + sigma_loc, b + b_loc), through a
    fresh factor of the sum when the buffers hold anything.  Nothing given is
    touched."""
    v = SpdMatrix._factor(sigma.mat + sigma_loc) if sigma_loc.any() else sigma
    return _chol_solve(v.chol, b + b_loc), v.chol
