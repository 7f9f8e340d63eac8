"""Self-test of the benchmark at a tiny T (under a minute).

    python3 perfbench/selftest.py

Run from the checkout root.  For every workload it checks that an untraced
run emits every end-to-end metric and a traced run every per-layer metric,
that each layer the workload exercises reads nonzero, and that the metric
lists match BENCHMARK.json.  It then breaks one op's config path and checks
that the nonzero exit is counted as a failed op.  Exits nonzero on failure.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import tracing
import workloads

# Layers every workload runs through, plus the ones only some of them reach.
COMMON = ("environment.", "core.", "protocol.", "simulator.run_fedlinucb.",
          "simulator.epoch_boundaries.", "trace.op_s")
EXERCISED = {
    "run-d8-lazy": COMMON + ("cli.write_trace_csv.", "cli.cmd_run."),
    "check-d32-eager": COMMON + ("analysis.", "cli.cmd_check."),
    "sweep-M-sync": COMMON + ("simulator.run_independent_oful.", "cli.cmd_sweep."),
}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def measure(root: Path, work: Path, workload: str, trace: bool, broken: bool = False) -> dict:
    spec = workloads.make_spec(workload, workloads.DEFAULT_SEED, work / f"{workload}-{trace}",
                               tiny=True)
    if broken:
        spec["argv"] = [str(work / "missing.json") if a == spec["config"] else a
                        for a in spec["argv"]]
    return run.run_benchmark(root, spec, seconds=0.5, trace=trace)


def main() -> int:
    root = Path.cwd()
    declared = json.loads((root / "BENCHMARK.json").read_text())
    check([m["name"] for m in declared["end_to_end"]] == [n for n, _ in run.END_TO_END],
          "end_to_end in BENCHMARK.json differs from run.END_TO_END")
    check([m["name"] for m in declared["per_layer"]] == [n for n, _ in tracing.PER_LAYER],
          "per_layer in BENCHMARK.json differs from tracing.PER_LAYER")
    check([w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS),
          "workloads in BENCHMARK.json differ from workloads.WORKLOADS")

    work = root / ".perfbench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    for workload, prefixes in EXERCISED.items():
        plain = measure(root, work, workload, trace=False)["result"]
        check(plain["correct"] and plain["failed"] == 0, f"{workload}: untraced ops failed")
        check(set(plain["metrics"]) == {n for n, _ in run.END_TO_END},
              f"{workload}: end-to-end metrics {sorted(plain['metrics'])}")
        for name, m in plain["metrics"].items():
            check(m["value"] > 0, f"{workload}: {name} = {m['value']}")

        traced = measure(root, work, workload, trace=True)
        result = traced["result"]
        check(result["correct"], f"{workload}: traced ops failed {traced['failure_notes']}")
        check(set(result["metrics"]) == {n for n, _ in tracing.PER_LAYER},
              f"{workload}: per-layer metrics {sorted(result['metrics'])}")
        check(not traced["traced_pass"]["untraced_layers"],
              f"{workload}: layers not found {traced['traced_pass']['untraced_layers']}")
        for name, m in result["metrics"].items():
            if name.startswith(prefixes):
                check(m["value"] > 0, f"{workload}: exercised layer metric {name} is 0")
        print(f"selftest: {workload} ok")

    broken = measure(root, work, "run-d8-lazy", trace=False, broken=True)
    check(broken["result"]["failed"] == broken["result"]["attempted"] >= 1,
          "a nonzero exit was not counted as a failed op")
    check(not broken["result"]["correct"] and broken["failed_frac"] == 1.0,
          "failed_frac does not count the nonzero exit")
    print("selftest: nonzero exit counted in failed_frac ok")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
