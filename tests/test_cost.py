"""Call budgets of the high-sync path, counted with ``sys.setprofile``.

Wall time on a shared machine spreads too widely to pin a speed-up; the
number of Python and C calls a run makes does not.  A child interpreter runs
a tiny high-sync configuration (d=4, M=16, alpha=1/256, round-robin, T=256;
every round syncs) in lazy and eager mode and as the no-communication
baseline: each once to warm the caches, then once counted.  It prints, per
run, the syncs, every Python and C call the profiler sees, and the calls made
inside ``protocol.sync``.  Two children under different ``PYTHONHASHSEED``
values must print the same counts, and the counts must stay within budgets
pinned when the sync path was brought down to its LAPACK calls.  Calls into
numpy ufuncs are not C calls to the profiler; the counts depend on the
Python and numpy versions, so the budgets hold for the ones named here.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

CHILD = r"""
import json, sys
from fedlinucb import (HyperParams, gen_instance, gen_schedule, protocol, run_fedlinucb,
                       run_independent_oful)

def counted(run):
    sync, depth = protocol.sync.__code__, 0
    n = dict.fromkeys(("syncs", "python", "c", "python_in_sync", "c_in_sync"), 0)
    def profile(frame, event, arg):
        nonlocal depth
        if event == "call":
            if frame.f_code is sync:
                depth += 1
                n["syncs"] += 1
            n["python"] += 1
            n["python_in_sync"] += depth > 0
        elif event == "c_call":
            n["c"] += 1
            n["c_in_sync"] += depth > 0
        elif event == "return" and frame.f_code is sync:
            depth -= 1
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return n

inst = gen_instance("random-sphere", d=4, K=10, seed=3)
schedule = gen_schedule("round-robin", M=16, T=256)
counts = {}
for kind in ("lazy", "eager", "baseline"):
    hp = HyperParams(lam=1.0, alpha=1.0 / 256, delta=0.01,
                     estimate_mode="eager" if kind == "eager" else "lazy")
    run = run_independent_oful if kind == "baseline" else run_fedlinucb
    run(inst, schedule, hp)
    counts[kind] = counted(lambda: run(inst, schedule, hp))
print(json.dumps(counts))
"""

T = 256
# Calls inside one protocol.sync, the same for every sync of these runs
# (they were 22 Python and 26 C calls before the trim).
PER_SYNC = {"python": 15, "c": 25}
# Calls per run of T rounds, the syncs included (lazy: 10420 Python and 11662
# C calls before the trim).
PER_RUN = {
    "lazy": {"python": 6300, "c": 10141},
    "eager": {"python": 7317, "c": 9877},
    "baseline": {"python": 6579, "c": 10471},
}
VERSIONS = ((3, 11), "2.4")

pytestmark = pytest.mark.skipif(
    (sys.version_info[:2], np.__version__.rsplit(".", 1)[0]) != VERSIONS,
    reason=f"call budgets pinned under Python {VERSIONS[0]} and numpy {VERSIONS[1]}")


def test_sync_and_round_call_budgets(child_env):
    children = [subprocess.Popen([sys.executable, "-c", CHILD], stdout=subprocess.PIPE, text=True,
                                 env=dict(child_env, PYTHONHASHSEED=seed))
                for seed in ("0", "1")]
    outs = [child.communicate(timeout=60)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    counts, again = (json.loads(out) for out in outs)
    assert counts == again
    for kind, budget in PER_RUN.items():
        n = counts[kind]
        assert n["syncs"] == T, kind  # every round syncs
        for calls in ("python", "c"):
            per_sync = n[f"{calls}_in_sync"] / n["syncs"]
            assert per_sync <= PER_SYNC[calls], f"{kind}: {calls} calls per sync {per_sync}"
            assert n[calls] <= budget[calls], f"{kind}: {calls} calls per round {n[calls] / T:.2f}"
