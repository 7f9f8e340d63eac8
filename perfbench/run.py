"""fedlinucb benchmark entry point.

    python3 perfbench/run.py --workload run-d8-lazy --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  It writes the workload's config from the
seed, measures set-up in fresh workload processes, runs the workload's ops in
one more process (``worker.py``) with BLAS pinned to one thread, and prints
the details followed, as the last line, by one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones from
a separate traced pass.  Scratch files go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent

END_TO_END = [
    ("us_per_round", "us"),
    ("command_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# A run must end within 180 s; the first one in a checkout may take longer
# because it byte-compiles the package.
PROCESS_TIMEOUT_S = 170.0

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env(root: Path) -> dict:
    env = dict(os.environ, **BLAS_PINS)
    src = str(root / "src")
    env["PYTHONPATH"] = src
    env["PERFBENCH_SRC"] = src
    return env


def run_worker(root: Path, spec_path: Path, mode: str, seconds: float, timeout: float) -> dict:
    """Start one workload process and wait for it; returns its JSON result.

    The process leads its own process group so that on a timeout it is
    killed together with any pool workers it started.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--spec", str(spec_path),
           "--mode", mode, "--seconds", str(seconds)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=worker_env(root), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, process_group=0)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} process exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}: {err.strip()[-2000:]}")
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise BenchError(f"{mode} process printed no result: {out[-500:]!r}") from None
    result["setup_s"] = result["ready_monotonic"] - started
    return result


def run_benchmark(root: Path, spec: dict, seconds: float, trace: bool) -> dict:
    """Measure one workload run; returns the details, including the result line."""
    deadline = time.monotonic() + PROCESS_TIMEOUT_S
    spec_path = Path(spec["work_dir"]) / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=2))

    def remaining() -> float:
        left = deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        return left

    setup_samples = []
    if not trace:
        for _ in range(spec["setup_probes"] - 1):
            setup_samples.append(run_worker(root, spec_path, "setup", 0, remaining())["setup_s"])
    main = run_worker(root, spec_path, "trace" if trace else "ops", seconds, remaining())
    setup_samples.append(main["setup_s"])

    failed_frac = main["failed"] / main["attempted"]
    if trace:
        metrics = main["trace"]["metrics"]
        units = dict(tracing.PER_LAYER)
    else:
        command_s = statistics.median(main["walls"])
        metrics = {
            "us_per_round": command_s * 1e6 / spec["rounds"],
            "command_s": command_s,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        units = dict(END_TO_END)
    result = {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    details = {
        "workload": spec["workload"],
        "seed": spec["seed"],
        "trace": trace,
        "argv": spec["trace_argv" if trace else "argv"],
        "rounds_per_op": spec["rounds"],
        "op_walls_s": main["walls"],
        "setup_samples_s": setup_samples,
        "failed_frac": failed_frac,
        "failure_notes": main["failure_notes"],
        "outputs_sha256": main["outputs"],
        "env": main["env"],
        "result": result,
    }
    if trace:
        details["traced_pass"] = {k: v for k, v in main["trace"].items() if k != "metrics"}
    return details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fedlinucb" / "cli.py").is_file():
        print("perfbench: run from a checkout root holding src/fedlinucb", file=sys.stderr)
        return 2
    work_dir = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    spec = workloads.make_spec(args.workload, args.seed, work_dir)
    try:
        details = run_benchmark(root, spec, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    (work_dir / "details.json").write_text(json.dumps(details, indent=2) + "\n")
    print(json.dumps({k: v for k, v in details.items() if k != "result"}))
    print(json.dumps(details["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
