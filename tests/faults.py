"""Protocol faults for measuring what the invariant suite catches.

Each fault is a context manager that patches one function the run looks up
on its module every round (``protocol.sync``, ``protocol._fires``,
``protocol._recombined``, ``simulator._block``) and restores it on exit.  A run made inside it is a
run of a faulty protocol; the suite that checks it runs outside, on the
true protocol's replay.  ``FAULTS`` maps each fault's name to it.
"""

import dataclasses
import math
from contextlib import contextmanager

import numpy as np

from fedlinucb import protocol, simulator
from fedlinucb.core import SpdMatrix, _read_only
from fedlinucb.protocol import ServerState


@contextmanager
def _patched(owner, name, make):
    """``owner.name`` replaced by ``make(real)`` inside the block."""
    real = getattr(owner, name)
    setattr(owner, name, make(real))
    try:
        yield
    finally:
        setattr(owner, name, real)


def _faulty_sync(server_of, download_of=lambda a, s, server: server):
    """A ``protocol.sync`` patch: the true sync, then the server ``server_of(a, server)``
    and a download of ``download_of(a, s, server)`` (the post-upload server by default)."""
    def make(real):
        def sync(a, s, round_):
            _, server, event = real(a, s, round_)
            server = server_of(a, server)
            return protocol._download(a.id, download_of(a, s, server)), server, event
        return sync
    return _patched(protocol, "sync", make)


def doubled_server_b():
    """The server adds the uploaded ``b_loc`` twice."""
    return _faulty_sync(lambda a, server: ServerState(
        server.sigma_ser, _read_only(server.b_ser + a.b_loc)))


def doubled_server_sigma():
    """The server adds the uploaded ``sigma_loc`` twice."""
    return _faulty_sync(lambda a, server: ServerState(
        SpdMatrix._factor(server.sigma_ser.mat + a.sigma_loc, min_eig=server.sigma_ser.min_eig),
        server.b_ser))


def half_dropped_download():
    """The uploader downloads the aggregate less half of its own ``b_loc``."""
    return _faulty_sync(lambda a, server: server, lambda a, s, server: ServerState(
        server.sigma_ser, _read_only(server.b_ser - 0.5 * a.b_loc)))


def stale_download():
    """The uploader downloads the aggregate as it was before its upload."""
    return _faulty_sync(lambda a, server: server, lambda a, s, server: s)


def skipped_download():
    """The uploader keeps the statistics it held before its upload: the server
    takes the upload, the agent empties its buffers and downloads nothing."""
    return _faulty_sync(lambda a, server: server,
                        lambda a, s, server: ServerState(a.sigma, a.b))


def trigger_at(factor):
    """The trigger fires at ``factor`` times ``log1p(alpha)``."""
    return _patched(protocol, "_fires", lambda real: (
        lambda log_gain, alpha: log_gain > factor * math.log1p(alpha)))


def wrong_agent_event():
    """Each sync's event names another agent (1 and 2 trade places, every
    agent from 3 on is named 1 or 2); the run needs M >= 2."""
    def make(real):
        def sync(a, s, round_):
            agent, server, event = real(a, s, round_)
            return agent, server, dataclasses.replace(event, agent=a.id % 2 + 1)
        return sync
    return _patched(protocol, "sync", make)


def another_rounds_decision_set():
    """The run plays rows of block b + 1's decision sets in block b.  The run
    takes its sets from its block tables; the replay reads round t's from the
    environment."""
    return _patched(simulator, "_block",
                    lambda real: lambda inst, block: real(inst, block + 1))


def another_rounds_reward():
    """Each round's reward takes the noise of the round before it (a block's
    first round that of the block's last): the right arm's mean, another
    round's draw."""
    return _patched(simulator, "_block", lambda real: lambda inst, block: (
        lambda table: table._replace(noise=np.roll(table.noise, 1)))(real(inst, block)))


def stale_b_loc():
    """An eager step scores with its buffered ``b_loc`` as it was at its last
    sync, empty, while its covariance buffer stays current.  A lazy run never
    recombines its buffers, so the fault reaches eager runs only."""
    return _patched(protocol, "_recombined", lambda real: (
        lambda sigma, b, sigma_loc, b_loc: real(sigma, b, sigma_loc, np.zeros_like(b_loc))))


FAULTS = {
    "doubled-server-b": doubled_server_b,
    "doubled-server-sigma": doubled_server_sigma,
    "half-dropped-download": half_dropped_download,
    "stale-download": stale_download,
    "trigger-1.02": lambda: trigger_at(1.02),
    "trigger-1.1": lambda: trigger_at(1.1),
    "wrong-agent-event": wrong_agent_event,
    "another-rounds-decision-set": another_rounds_decision_set,
    "skipped-download": skipped_download,
    "another-rounds-reward": another_rounds_reward,
    "stale-b-loc": stale_b_loc,
}
