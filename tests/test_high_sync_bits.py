"""Bit pins of the high-sync path: every float a run produces, hashed.

The golden files print 12 digits, so a last-ulp change in a factor, a
solve or a log-determinant passes them.  These digests take the raw bytes
of a run at alpha = 1/M^2 (M = 16, round-robin), where agents sync on most
rounds: the trace columns, each event, the final server and every final
agent.  T = 520 crosses two environment block edges.  At d >= 8 every
round syncs there, so an eager agent always scores on empty buffers; one
eager run at alpha = 1/M, where buffers fill between syncs, pins the
recombination too.
"""

import hashlib
import struct

import numpy as np
import pytest

from fedlinucb import HyperParams, gen_instance, gen_schedule, run_fedlinucb, run_independent_oful

M, T = 16, 520

# sha256 digests of :func:`run_digest`, pinned on the code before the sync
# path was trimmed to its LAPACK calls.
DIGESTS = {
    (1, "lazy", M**2): "301e8be4ab3931eccf718524df9eec4c46b2b0dd840254308d4eeff5e168824b",
    (1, "eager", M**2): "301e8be4ab3931eccf718524df9eec4c46b2b0dd840254308d4eeff5e168824b",
    (1, "independent", M**2): "29d91a8b208a388efdbe9f92f977d341800bbb41836e68200d25f51cb4d8febd",
    (8, "lazy", M**2): "9793ed8ea4d4b4026b5988a56b0a606233be12557d55d32e04b2a4ad78580df8",
    (8, "eager", M**2): "9793ed8ea4d4b4026b5988a56b0a606233be12557d55d32e04b2a4ad78580df8",
    (8, "independent", M**2): "58d4803f4c940598e57e02fded6e16cf7512cf0c861c6a78b2b193e6300f207c",
    (32, "lazy", M**2): "7ab971b5868245e6ab47398403a638b3b7b54a633c7a7634e37071e07c2d8f34",
    (32, "eager", M**2): "7ab971b5868245e6ab47398403a638b3b7b54a633c7a7634e37071e07c2d8f34",
    (32, "independent", M**2): "e5797f513aacbf99566851052b5174b61a4b9b2fd645f1205eff50fe35bdae29",
    (8, "eager", M): "50eebe419ad533568fef30288453cc8ad0197eb89529e75de3782ece7a8f7b86",
}


def _arrays(h, *arrays):
    for a in arrays:
        h.update(str(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())


def run_digest(trace):
    """sha256 over the full-precision trace columns, each event's (round,
    agent, checksum), the final server's ``mat``, ``chol`` and ``b``, and
    every final agent's arrays and trigger state."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(trace.arm_index, dtype=np.int64).tobytes())
    _arrays(h, trace.reward, trace.inst_regret, trace.logdet_server)
    for ev in trace.events:
        h.update(f"{ev.round},{ev.agent},{ev.payload_checksum};".encode())
    s = trace.final_server
    if s is not None:
        _arrays(h, s.sigma_ser.mat, s.sigma_ser.chol, s.b_ser)
    for a in trace.final_agents:
        h.update(struct.pack("<idd", a.id, a.sigma.min_eig, a.log_gain))
        _arrays(h, a.sigma.mat, a.sigma.chol, a.b, a.sigma_loc, a.b_loc, a.theta_hat, a.v_inv)
    return h.hexdigest()


def high_sync_run(d, kind, alpha_inverse=M**2):
    inst = gen_instance("random-sphere", d=d, K=10, seed=100 + d)
    schedule = gen_schedule("round-robin", M=M, T=T)
    mode = "eager" if kind == "eager" else "lazy"
    hp = HyperParams(lam=1.0, alpha=1.0 / alpha_inverse, delta=0.01, estimate_mode=mode)
    run = run_independent_oful if kind == "independent" else run_fedlinucb
    return run(inst, schedule, hp)


@pytest.mark.parametrize("d, kind, alpha_inverse", sorted(DIGESTS))
def test_high_sync_run_bits_are_pinned(d, kind, alpha_inverse):
    trace = high_sync_run(d, kind, alpha_inverse)
    if kind != "independent":
        assert len(trace.events) > T // 2  # the high-sync regime
    assert run_digest(trace) == DIGESTS[d, kind, alpha_inverse]
