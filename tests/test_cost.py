"""Call budgets of a run, counted with ``sys.setprofile``.

Wall time on a shared machine spreads too widely to pin a speed-up; the
number of Python and C calls a run makes does not.  A child interpreter runs
a tiny high-sync configuration (d=4, M=16, alpha=1/256, round-robin, T=256;
every round syncs) in lazy and eager mode and as the no-communication
baseline, and a low-sync lazy one (d=8, M=4, alpha=1/16, iid-uniform,
T=2048; 435 syncs) whose cost is the common round's: each once to warm the
caches, then once counted.  It prints, per run, the syncs, every Python and
C call the profiler sees, and the calls made inside ``protocol.sync``.  Two
children under different ``PYTHONHASHSEED`` values must print the same
counts, and the counts must stay within the pinned budgets.  Calls into
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

high = (gen_instance("random-sphere", d=4, K=10, seed=3),
        gen_schedule("round-robin", M=16, T=256), 1.0 / 256)
low = (gen_instance("random-sphere", d=8, K=10, seed=3),
       gen_schedule("iid-uniform", M=4, T=2048, seed=5), 1.0 / 16)
counts = {}
for kind, (inst, schedule, alpha) in (("lazy", high), ("eager", high), ("baseline", high),
                                      ("low-sync-lazy", low)):
    hp = HyperParams(lam=1.0, alpha=alpha, delta=0.01,
                     estimate_mode="eager" if kind == "eager" else "lazy")
    run = run_independent_oful if kind == "baseline" else run_fedlinucb
    run(inst, schedule, hp)
    counts[kind] = counted(lambda: run(inst, schedule, hp))
print(json.dumps(counts))
"""

# Calls inside one protocol.sync, the same for every sync of these runs.
PER_SYNC = {"python": 15, "c": 25}
# Syncs per run, and calls per run with the syncs included.
SYNCS = {"lazy": 256, "eager": 256, "baseline": 256, "low-sync-lazy": 435}
PER_RUN = {
    "lazy": {"python": 5751, "c": 10141},
    "eager": {"python": 6768, "c": 9877},
    "baseline": {"python": 6030, "c": 10471},
    "low-sync-lazy": {"python": 14682, "c": 29232},
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
        assert n["syncs"] == SYNCS[kind], kind
        for calls in ("python", "c"):
            per_sync = n[f"{calls}_in_sync"] / n["syncs"]
            assert per_sync <= PER_SYNC[calls], f"{kind}: {calls} calls per sync {per_sync}"
            assert n[calls] <= budget[calls], f"{kind}: {n[calls]} {calls} calls per run"
