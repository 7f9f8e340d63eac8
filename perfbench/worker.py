"""Workload process: set up, run ops in-process through ``fedlinucb.cli.main``,
check their outputs, and print one JSON result line.

Started by ``run.py`` with BLAS threads pinned and ``PYTHONPATH`` set to the
checkout's ``src``.  Modes:

- ``setup``: import the package, resolve the config and build the instance
  and schedule, then exit (one set-up sample);
- ``ops``: the same set-up, then timed, untraced ops for ``--seconds``;
- ``trace``: untraced ops for ``--seconds`` as the overhead baseline, then
  one op under the span recorder and one under tracemalloc.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads

MAX_FAILURE_NOTES = 5


def setup(spec: dict):
    """Everything a user pays before the first op: imports, config, instance."""
    import fedlinucb.cli as cli

    src = Path(os.environ["PERFBENCH_SRC"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"fedlinucb imported from {cli.__file__}, not from {src}")
    cfg = cli.resolve_config(cli.read_config_raw(spec["config"]))
    cli.build_instance(cfg)
    cli.build_schedule(cfg)
    cli.build_hyperparams(cfg)
    return cli


class OpLog:
    """Outcome of every op: wall time, failures, and output determinism."""

    def __init__(self, spec: dict, cli, work_dir: Path):
        self.spec, self.cli, self.work_dir = spec, cli, work_dir
        self.walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.outputs: dict | None = None

    def run(self, argv_key: str = "argv", wrap=None) -> float:
        """One op; returns its wall seconds.  ``wrap`` runs it under a recorder."""
        out_dir = self.work_dir / f"op{self.attempted}"
        argv = [out_dir.as_posix() if a == "{out}" else a for a in self.spec[argv_key]]
        call = lambda: self.cli.main(argv)  # noqa: E731
        error = None
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                rc = wrap(call) if wrap else call()
            except Exception:  # an op that raises is a failed op, not a crash
                rc, error = None, traceback.format_exc(limit=3)
            wall = time.perf_counter() - start
        self.attempted += 1
        problems = self._problems(rc, error, sink.getvalue(), out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        self.walls.append(wall)
        if problems:
            self.failed += 1
            if len(self.notes) < MAX_FAILURE_NOTES:
                self.notes.append(f"op {self.attempted - 1}: " + "; ".join(problems))
        return wall

    def _problems(self, rc, error, output: str, out_dir: Path) -> list[str]:
        if error is not None:
            return [f"raised: {error.strip()}"]
        if rc != 0:
            return [f"exit code {rc}: {output.strip()[-400:]}"]
        problems = workloads.check_outputs(self.spec, out_dir)
        hashes = workloads.output_hashes(out_dir)
        if self.outputs is None:
            self.outputs = hashes
        elif hashes != self.outputs:
            problems.append("output bytes differ from the first op of this run")
        return problems

    def run_for(self, seconds: float, argv_key: str = "argv") -> None:
        """Ops back to back until ``seconds`` have passed (at least one)."""
        start = time.perf_counter()
        while True:
            self.run(argv_key)
            if time.perf_counter() - start >= seconds:
                break



def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                    "MKL_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process and of every child it reaped."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def traced_pass(log: OpLog, work_dir: Path) -> dict:
    import numpy as np
    import tracing

    untraced_op_s = statistics.median(log.walls)
    spans = tracing.SpanRecorder()
    op_s = log.run("trace_argv", wrap=spans.run)
    alloc = tracing.AllocRecorder()
    log.run("trace_argv", wrap=alloc.run)
    totals = spans.layer_totals()
    arrays = spans.arrays()
    np.savez_compressed(work_dir / "spans.npz", **arrays)
    return {
        "metrics": tracing.layer_metrics(totals, spans.true_counts, alloc.peak_mb, op_s,
                                         untraced_op_s),
        "module_self_share": tracing.module_self_shares(totals, op_s),
        "busy_share": {k: v["busy_s"] / op_s for k, v in totals.items()},
        "untraced_layers": spans.missing,
        "spans": len(arrays["name_id"]),
        "argv": log.spec["trace_argv"],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", required=True)
    parser.add_argument("--mode", choices=("setup", "ops", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()
    spec = json.loads(Path(args.spec).read_text())
    cli = setup(spec)
    result = {"ready_monotonic": time.monotonic()}
    if args.mode != "setup":
        work_dir = Path(args.spec).parent
        log = OpLog(spec, cli, work_dir)
        if args.mode == "ops":
            log.run_for(args.seconds)
        else:
            log.run_for(args.seconds, "trace_argv")
            result["trace"] = traced_pass(log, work_dir)
        result.update(
            walls=log.walls,
            attempted=log.attempted,
            failed=log.failed,
            failure_notes=log.notes,
            outputs=log.outputs,
            peak_rss_mb=peak_rss_mb(),
            env=environment(),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
