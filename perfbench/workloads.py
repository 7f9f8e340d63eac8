"""Workload definitions: configs derived from the benchmark seed, op command
lines, and the per-op output checks.

Every instance and schedule seed in a generated config is derived from the
benchmark seed, so the program only ever receives config files.  This module
imports nothing from the package and nothing outside the standard library;
both the entry point (``run.py``) and the workload process (``worker.py``)
use it.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

DEFAULT_SEED = 20220707

# Invariants that are high-probability statements (they may fail on a
# delta-tail run by design); every other check in check_report.json is a
# deterministic guarantee of the protocol.
HIGH_PROBABILITY_CHECKS = {"local-confidence", "global-confidence"}

TRACE_HEADER = "t,agent,arm_index,reward,inst_regret,cum_regret,comm,det_server"

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "run-d8-lazy": {
        "command": "run",
        "instance": {"kind": "random-sphere", "d": 8, "K": 10},
        "schedule": {"kind": "iid-uniform", "M": 4, "T": 10000},
        "params": {"lambda": 1.0, "alpha": 0.0625, "beta": "auto", "estimate_mode": "lazy"},
        "tiny_T": 200,
    },
    "check-d32-eager": {
        "command": "check",
        "instance": {"kind": "hypercube-corners", "d": 32, "K": 10},
        "schedule": {"kind": "iid-uniform", "M": 4, "T": 2000},
        "params": {"lambda": 1.0, "alpha": 0.0625, "beta": "auto", "estimate_mode": "eager"},
        "tiny_T": 100,
    },
    "sweep-M-sync": {
        "command": "sweep",
        "instance": {"kind": "random-sphere", "d": 8, "K": 10},
        # alpha is left to its default so that it tracks each cell's M.
        "schedule": {"kind": "round-robin", "M": 4, "T": 3000},
        "params": {"lambda": 1.0, "beta": "auto", "estimate_mode": "lazy"},
        "replications": 2,
        "sweep_values": [1, 4, 16],
        "tiny_T": 64,
    },
}


def derive_seed(seed: int, workload: str, role: str) -> int:
    digest = hashlib.sha256(f"{seed}/{workload}/{role}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def make_spec(workload: str, seed: int, work_dir: Path, tiny: bool = False) -> dict:
    """Write the workload's config under work_dir and describe its ops.

    ``argv`` is the timed command line; ``trace_argv`` is the one the traced
    pass runs (the sweep runs its cells in-process there, so every span is
    recorded).  ``{out}`` is replaced by a fresh directory for each op.
    """
    w = WORKLOADS[workload]
    T = w["tiny_T"] if tiny else w["schedule"]["T"]
    config = {
        "instance": dict(w["instance"], seed=derive_seed(seed, workload, "instance")),
        "schedule": dict(w["schedule"], T=T, seed=derive_seed(seed, workload, "schedule")),
        "params": dict(w["params"]),
        "replications": w.get("replications", 1),
    }
    work_dir.mkdir(parents=True, exist_ok=True)
    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")

    argv = [w["command"], "--config", str(config_path), "--out", "{out}"]
    trace_argv = list(argv)
    rounds = T
    if w["command"] == "sweep":
        values = ",".join(str(v) for v in w["sweep_values"])
        argv += ["--axis", "M", "--values", values, "--parallel", "2", "--baseline"]
        trace_argv += ["--axis", "M", "--values", values, "--parallel", "1", "--baseline"]
        # Every cell and replication runs T rounds, and again for the baseline.
        rounds = len(w["sweep_values"]) * config["replications"] * T * 2
    return {
        "workload": workload,
        "seed": seed,
        "work_dir": str(work_dir),
        "command": w["command"],
        "config": str(config_path),
        "T": T,
        "rounds": rounds,
        "argv": argv,
        "trace_argv": trace_argv,
        "sweep_values": w.get("sweep_values"),
        "replications": config["replications"],
        "setup_probes": 2 if tiny else 6,
    }


def output_hashes(out_dir: Path) -> dict:
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def check_outputs(spec: dict, out_dir: Path) -> list[str]:
    """Problems found in one op's output files; empty when they are correct."""
    try:
        return {"run": _check_run, "check": _check_check, "sweep": _check_sweep}[
            spec["command"]
        ](spec, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_run(spec: dict, out_dir: Path) -> list[str]:
    problems = []
    lines = (out_dir / "trace.csv").read_text().splitlines()
    summary = json.loads((out_dir / "summary.json").read_text())
    if lines[0] != TRACE_HEADER:
        problems.append(f"trace.csv header {lines[0]!r}")
    rows = list(csv.reader(lines[1:]))
    if len(rows) != spec["T"]:
        problems.append(f"trace.csv has {len(rows)} rounds, expected {spec['T']}")
    if [int(r[0]) for r in rows] != list(range(1, spec["T"] + 1)):
        problems.append("trace.csv rounds are not 1..T")
    syncs = sum(1 for r in rows if r[6] == "2")
    if summary["switch_count"] != syncs or summary["comm_count"] != 2 * syncs:
        problems.append("summary comm/switch counts disagree with trace.csv")
    if summary["comm_count"] > summary["bound_comm"]:
        problems.append("comm_count exceeds the communication cap")
    if abs(summary["total_regret"] - float(rows[-1][5])) > 1e-9 * max(1.0, summary["total_regret"]):
        problems.append("total_regret differs from the last cum_regret")
    return problems


def _check_check(spec: dict, out_dir: Path) -> list[str]:
    report = json.loads((out_dir / "check_report.json").read_text())
    problems = [
        f"deterministic invariant {c['name']} failed"
        for c in report["checks"]
        if not c["satisfied"] and c["name"] not in HIGH_PROBABILITY_CHECKS
    ]
    if len(report["checks"]) < 10:
        problems.append(f"only {len(report['checks'])} checks reported")
    return problems


def _check_sweep(spec: dict, out_dir: Path) -> list[str]:
    with open(out_dir / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    expected = [(v, r) for v in spec["sweep_values"] for r in range(spec["replications"])]
    if [(int(r["value"]), int(r["replication"])) for r in rows] != expected:
        problems.append("sweep.csv cells are not the requested grid")
    for r in rows:
        if int(r["comm_count"]) > float(r["bound_comm"]):
            problems.append(f"cell M={r['value']} exceeds the communication cap")
        if int(r["comm_count"]) != 2 * int(r["switch_count"]):
            problems.append(f"cell M={r['value']} breaks comm = 2 * switches")
        if int(r["baseline_comm_count"]) != 0:
            problems.append(f"cell M={r['value']} baseline communicated")
    return problems
