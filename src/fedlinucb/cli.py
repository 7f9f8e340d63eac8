"""Command-line interface: run / sweep / bias-demo / check.

Config is a single JSON document (see README for the schema and the
plain-text schedule/arm file grammar).  All emitted numbers use 12
significant digits in fixed notation, and every command is deterministic
given its config: rerunning writes byte-identical files.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .analysis import run_invariant_suite, bias_demo
from .core import (HyperParams, ProblemInstance, check_ridge_domain, theoretical_comm_bound,
                   theoretical_regret_bound)
from .environment import (
    RNG_VERSION,
    Schedule,
    gen_instance,
    gen_schedule,
    load_arms_file,
    load_schedule_file,
)
from .simulator import (CommBoundError, _resolve_beta, epoch_boundaries, run_fedlinucb,
                        run_independent_oful)

TRACE_COLUMNS = ["t", "agent", "arm_index", "reward", "inst_regret", "cum_regret", "comm", "det_server"]

# Sweep axis -> the config section and key it sets in each cell.
SWEEP_AXES = {"T": ("schedule", "T"), "M": ("schedule", "M"), "alpha": ("params", "alpha"),
              "d": ("instance", "d")}


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


def _fmt(x: float) -> str:
    """12 significant digits, fixed notation."""
    return np.format_float_positional(float(x), precision=12, unique=False,
                                      fractional=False, trim="0")


def _render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats through :func:`_fmt`."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {_render_json(v, indent + 1)}"
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    return json.dumps(str(obj))


# Config fields that must be JSON integers, and JSON numbers (an integer or
# not); the library holds their ranges.
INTEGER_KEYS = {"instance": ("d", "K", "seed"), "schedule": ("M", "T", "seed")}
NUMBER_KEYS = {"instance": ("S", "L", "R"), "params": ("lambda", "alpha", "delta")}


def _check_number(where: str, value, integer: bool = False) -> None:
    # bool is an int subclass; JSON true must not read as 1
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ConfigError(f"{where} must be {'an integer' if integer else 'a number'}, "
                          f"got {value!r}")


def _with_defaults(raw: dict) -> dict:
    """The config's shape, required keys, integer and number fields and plain defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    cfg = copy.deepcopy(raw)
    inst = cfg.get("instance")
    sched = cfg.get("schedule")
    if not isinstance(inst, dict) or not isinstance(sched, dict):
        raise ConfigError("config requires 'instance' and 'schedule' objects")
    params = cfg.setdefault("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'params' must be an object")
    if "M" not in sched:
        raise ConfigError("schedule requires 'M'")
    for key, value in (("S", 1.0), ("L", 1.0), ("R", 1.0), ("seed", 0)):
        inst.setdefault(key, value)
    sched.setdefault("kind", "round-robin")
    sched.setdefault("seed", 0)
    for key, value in (("beta", "auto"), ("delta", 0.01), ("estimate_mode", "lazy")):
        params.setdefault(key, value)
    cfg.setdefault("replications", 1)
    for integer, table in ((True, INTEGER_KEYS), (False, NUMBER_KEYS)):
        for section, keys in table.items():
            for key in keys:
                if key in cfg[section]:
                    _check_number(f"{section} {key}", cfg[section][key], integer)
    if params["beta"] != "auto":
        _check_number("params beta", params["beta"])
    _check_number("replications", cfg["replications"], integer=True)
    if cfg["replications"] < 1:
        raise ConfigError("replications must be >= 1")
    return cfg


@contextmanager
def _config_section(name: str):
    """Report what a library constructor rejects as a ConfigError on section ``name``."""
    try:
        yield
    except (ValueError, TypeError, ArithmeticError, OSError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _build(cfg: dict) -> tuple[ProblemInstance, Schedule, HyperParams]:
    with _config_section("instance"):
        inst = build_instance(cfg)
    with _config_section("schedule"):
        schedule = build_schedule(cfg)
    if "lambda" not in cfg["params"]:
        square = inst.S * inst.S
        lam = 1.0 / square if square else math.inf
        if not 0.0 < lam < math.inf:
            raise ConfigError(f"params: at S = {inst.S!r} the default lambda = 1/S^2 is "
                              f"{lam!r}, not a positive finite ridge; state 'lambda'")
        cfg["params"]["lambda"] = lam
    with _config_section("params"):
        cfg["params"].setdefault("alpha", 1.0 / (schedule.M * schedule.M))
        hp = build_hyperparams(cfg)
        # The radius, both bounds and the ridge domain once, so that parameters
        # outside them are refused here, before any output.
        M, T = schedule.M, schedule.T
        beta = _resolve_beta(inst, hp, M, T)
        theoretical_regret_bound(inst, hp, M, T, beta)
        theoretical_comm_bound(inst.dim, M, hp.alpha, hp.lam, inst.L, T)
        check_ridge_domain(inst.dim, hp.lam, inst.L, T)
    return inst, schedule, hp


def _echo_instance(cfg: dict, inst: ProblemInstance) -> None:
    """Echo the noise, and any stated d, K or L, as built: bias-demo fixes d = K = 2,
    L >= 3 and its own noise whatever the config asked for.  A fixed-list
    instance takes d and K from its arm file, and refuses any other."""
    section = cfg["instance"]
    for key, built in (("d", inst.dim), ("K", inst.arm_spec.K), ("L", inst.L),
                       ("noise", inst.noise_spec)):
        if key == "noise" or section.get(key, built) != built:
            if key in ("d", "K") and section["kind"] == "fixed-list":
                raise ConfigError(f"instance: {key} = {section[key]!r}, but "
                                  f"{section['arms_file']} holds {key} = {built}")
            section[key] = built


def build_run(raw: dict) -> tuple[dict, ProblemInstance, Schedule, HyperParams]:
    """Resolve a config and build its instance, schedule and hyperparameters.

    Defaults: alpha = 1/M^2, lambda = 1/S^2, beta = "auto", delta = 0.01.
    Every range rule lives in the library constructor that owns the value.
    """
    cfg = _with_defaults(raw)
    inst, schedule, hp = _build(cfg)
    _echo_instance(cfg, inst)
    return cfg, inst, schedule, hp


def resolve_config(raw: dict) -> dict:
    """The fully resolved config, validated by building the run it describes."""
    return build_run(raw)[0]


def read_config_raw(path: str) -> dict:
    """Load the JSON document without applying defaults (sweeps resolve per cell)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def _file_path(section: dict, key: str) -> str:
    path = section.get(key)
    if not isinstance(path, str):
        raise ConfigError(f"{section['kind']} requires a file path {key!r}, got {path!r}")
    return path


def build_instance(cfg: dict) -> ProblemInstance:
    inst = cfg["instance"]
    kind = inst.get("kind")
    arms = load_arms_file(_file_path(inst, "arms_file")) if kind == "fixed-list" else None
    return gen_instance(
        kind,
        d=inst.get("d"),
        K=inst.get("K"),
        S=float(inst["S"]),
        L=float(inst["L"]),
        R=float(inst["R"]),
        seed=inst["seed"],
        arms=arms,
        noise=inst.get("noise", "gaussian"),
    )


def build_schedule(cfg: dict) -> Schedule:
    sched = cfg["schedule"]
    if sched["kind"] == "explicit-list":
        schedule = load_schedule_file(_file_path(sched, "file"), M=sched["M"])
        if sched.get("T", schedule.T) != schedule.T:
            raise ConfigError(f"T = {sched['T']!r} but {sched['file']} lists {schedule.T} rounds")
        return schedule
    return gen_schedule(sched["kind"], M=sched["M"], T=sched.get("T"), seed=sched["seed"])


def build_hyperparams(cfg: dict) -> HyperParams:
    params = cfg["params"]
    beta = params["beta"]
    return HyperParams(
        lam=float(params["lambda"]),
        alpha=float(params["alpha"]),
        delta=float(params["delta"]),
        beta_value=None if beta == "auto" else float(beta),
        estimate_mode=params["estimate_mode"],
    )


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _fmt_column(column: np.ndarray) -> list[str]:
    """:func:`_fmt` of every entry of a float64 column, each distinct value
    formatted once.  Values are told apart by their bits, as -0.0 and 0.0
    print differently."""
    bits, inverse = np.unique(np.ascontiguousarray(column, dtype=np.float64).view(np.int64),
                              return_inverse=True)
    text = [_fmt(x) for x in bits.view(np.float64).tolist()]
    return [text[i] for i in inverse.tolist()]


def write_trace_csv(trace, path: Path) -> None:
    # Display only: 0.0 or inf once the determinant leaves the float range.
    with np.errstate(over="ignore", under="ignore"):
        det_server = np.exp(trace.logdet_server)
    columns = [
        map(str, trace.t.tolist()),
        map(str, trace.agent.tolist()),
        map(str, trace.arm_index.tolist()),
        _fmt_column(trace.reward),
        _fmt_column(trace.inst_regret),
        _fmt_column(trace.cum_regret),
        map(str, trace.comm.tolist()),
        _fmt_column(det_server),
    ]
    rows = [",".join(TRACE_COLUMNS), *map(",".join, zip(*columns))]
    _write_text(path, "\n".join(rows) + "\n")


def _run_figures(trace, inst: ProblemInstance, hp: HyperParams) -> dict:
    """Communication counts, radius and both bounds of a run, in output order."""
    M, T = trace.M, len(trace.agent)
    return {
        "comm_count": trace.comm_count,
        "switch_count": trace.switch_count,
        "beta_used": trace.beta_used,
        "bound_regret": theoretical_regret_bound(inst, hp, M, T, trace.beta_used),
        "bound_comm": theoretical_comm_bound(inst.dim, M, hp.alpha, hp.lam, inst.L, T),
    }


def summarize(trace, inst: ProblemInstance, hp: HyperParams, cfg: dict) -> dict:
    return {
        "total_regret": trace.total_regret,
        **_run_figures(trace, inst, hp),
        "epoch_starts": [[i, tau] for i, tau in epoch_boundaries(trace, hp.lam, inst.dim)],
        "config_echo": {
            "instance": cfg["instance"],
            "params": cfg["params"],
            "schedule": cfg["schedule"],
            "replications": cfg["replications"],
            "rng_version": RNG_VERSION,
        },
    }


def cmd_run(raw: dict, out_dir: str) -> int:
    """One run: writes trace.csv and summary.json under out_dir."""
    cfg, inst, schedule, hp = build_run(raw)
    trace = run_fedlinucb(inst, schedule, hp)
    out = Path(out_dir)
    write_trace_csv(trace, out / "trace.csv")
    summary = summarize(trace, inst, hp, cfg)
    _write_text(out / "summary.json", _render_json(summary) + "\n")
    print(f"wrote {out / 'trace.csv'} and {out / 'summary.json'}")
    print(
        f"total_regret={_fmt(summary['total_regret'])} comm_count={trace.comm_count} "
        f"beta={_fmt(trace.beta_used)}"
    )
    return 0


def _derive_seed(base: int, cell: int, rep: int) -> int:
    return int(np.random.SeedSequence(entropy=(base, cell, rep)).generate_state(1)[0])


def _build_cell(raw: dict, axis: str, value, cell: int, rep: int) -> tuple:
    """Resolve and build one sweep cell; its seeds derive from the config's.

    A cell whose run would not have its axis value (a fixed-list or bias-demo
    instance fixes d) is refused, so that every row's value is the one it ran.
    """
    section, key = SWEEP_AXES[axis]
    cfg = _with_defaults({**raw, section: {**raw.get(section, {}), key: value}})
    for part in ("instance", "schedule"):
        with _config_section(part):
            cfg[part]["seed"] = _derive_seed(cfg[part]["seed"], cell, rep)
    inst, schedule, hp = _build(cfg)
    ran = {"T": schedule.T, "M": schedule.M, "alpha": hp.alpha, "d": inst.dim}[axis]
    if ran != value:
        raise ConfigError(f"sweep cell {axis} = {value!r} builds a run at {axis} = {ran!r}")
    _echo_instance(cfg, inst)
    return cfg, inst, schedule, hp


def _sweep_cell(task: tuple) -> dict:
    axis, value, rep, baseline, (cfg, inst, schedule, hp) = task
    trace = run_fedlinucb(inst, schedule, hp)
    row = {
        "axis": axis,
        "value": value,
        "replication": rep,
        "instance_seed": cfg["instance"]["seed"],
        "schedule_seed": cfg["schedule"]["seed"],
        "total_regret": trace.total_regret,
        "mean_round_regret": float(np.mean(trace.inst_regret)) if len(trace.agent) else 0.0,
        "max_round_regret": float(np.max(trace.inst_regret)) if len(trace.agent) else 0.0,
        **_run_figures(trace, inst, hp),
    }
    if baseline:
        base_trace = run_independent_oful(inst, schedule, hp)
        row["baseline_total_regret"] = base_trace.total_regret
        row["baseline_comm_count"] = base_trace.comm_count
    return row


def cmd_sweep(
    cfg_raw: dict,
    axis: str,
    values: list,
    out_dir: str,
    parallel: int = 1,
    baseline: bool = False,
) -> int:
    """Grid sweep along one axis; one CSV row per (cell, replication)."""
    if not isinstance(axis, str) or axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {tuple(SWEEP_AXES)}")
    if not values:
        raise ConfigError("sweep requires a nonempty value list")
    if parallel < 1:
        raise ConfigError(f"--parallel must be >= 1, got {parallel}")
    reps = _with_defaults(cfg_raw)["replications"]
    # Every cell is built here, so a bad one stops the sweep before any run.
    tasks = [
        (axis, value, rep, baseline, _build_cell(cfg_raw, axis, value, ci, rep))
        for ci, value in enumerate(values)
        for rep in range(reps)
    ]
    # Both paths keep the task order: cells as requested, replications within.
    if parallel > 1:
        # Imported here, so that the pool machinery's import is a cost of --parallel only.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parallel) as pool:
            rows = list(pool.map(_sweep_cell, tasks))
    else:
        rows = [_sweep_cell(task) for task in tasks]

    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for key in header:
            v = row[key]
            cells.append(_fmt(v) if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    out = Path(out_dir)
    _write_text(out / "sweep.csv", "\n".join(lines) + "\n")
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    return 0


def cmd_bias_demo(m_agents: int, beta: float, alpha: float, seed: int, out_dir: str) -> int:
    """Run the two-round bias demonstration in both estimate modes."""
    reports = {}
    for mode in ("eager", "lazy"):
        rep = bias_demo(m_agents, beta_fixed=beta, alpha=alpha, seed=seed, mode=mode)
        reports[mode] = {
            "predicted_reward_arm_a": rep.predicted_reward_arm_a,
            "upload_fraction": rep.upload_fraction,
            "n_agents": rep.n_agents,
        }
        print(
            f"{mode}: predicted reward of the long arm = {_fmt(rep.predicted_reward_arm_a)}, "
            f"upload fraction = {_fmt(rep.upload_fraction)}"
        )
    out = Path(out_dir)
    _write_text(out / "bias_demo.json",
                _render_json({"beta": beta, "alpha": alpha, "seed": seed, "modes": reports}) + "\n")
    print(f"wrote {out / 'bias_demo.json'}")
    return 0


def cmd_check(raw: dict, out_dir: str) -> int:
    """Run the config once, exactly as ``run`` does, and evaluate every invariant."""
    cfg, inst, schedule, hp = build_run(raw)
    trace = run_fedlinucb(inst, schedule, hp)
    reports = run_invariant_suite(trace, inst, hp)
    failed = [r for r in reports if not r.satisfied]
    for r in reports:
        status = "PASS" if r.satisfied else "FAIL"
        print(f"{status} {r.name}: empirical={_fmt(r.empirical)} bound={_fmt(r.bound)} "
              f"slack={_fmt(r.slack)}")
    # Every report field but the free-form detail; keys are written sorted.
    checks = [{k: v for k, v in vars(r).items() if k != "detail"} for r in reports]
    payload = {"checks": checks, "all_passed": not failed}
    out = Path(out_dir)
    _write_text(out / "check_report.json", _render_json(payload) + "\n")
    print(f"wrote {out / 'check_report.json'}")
    if failed:
        print(f"{len(failed)} invariant(s) failed: {', '.join(r.name for r in failed)}",
              file=sys.stderr)
        return 1
    return 0


def _parse_axis_values(axis: str, text: str) -> list:
    parse = float if axis == "alpha" else int
    try:
        return [parse(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --values for axis {axis}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedlinucb",
        description="Asynchronous federated linear UCB simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the instance master seed")

    run_p = sub.add_parser("run", help="single run: trace.csv + summary.json")
    add_common(run_p)

    sweep_p = sub.add_parser("sweep", help="grid sweep along one axis")
    add_common(sweep_p)
    sweep_p.add_argument("--axis", choices=SWEEP_AXES, help="sweep axis (overrides config)")
    sweep_p.add_argument("--values", help="comma-separated cell values (overrides config)")
    sweep_p.add_argument("--parallel", type=int, default=1,
                         help="worker processes for the sweep cells (default: 1)")
    sweep_p.add_argument("--baseline", action="store_true",
                         help="also run the no-communication baseline per cell")

    bias_p = sub.add_parser("bias-demo", help="two-round server-bias demonstration")
    bias_p.add_argument("--agents", type=int, default=10000)
    bias_p.add_argument("--beta", type=float, default=0.5)
    bias_p.add_argument("--alpha", type=float, default=10.5)
    bias_p.add_argument("--seed", type=int, default=0)
    bias_p.add_argument("--out", default="out")

    check_p = sub.add_parser("check", help="run every invariant check on a config")
    add_common(check_p)

    args = parser.parse_args(argv)
    try:
        if args.command == "bias-demo":
            return cmd_bias_demo(args.agents, args.beta, args.alpha, args.seed, args.out)
        raw = read_config_raw(args.config)
        if args.seed is not None and isinstance(raw.get("instance"), dict):
            raw["instance"]["seed"] = args.seed
        if args.command == "run":
            return cmd_run(raw, args.out)
        if args.command == "sweep":
            sweep_cfg = raw.get("sweep", {})
            if not isinstance(sweep_cfg, dict):
                raise ConfigError("'sweep' must be an object")
            axis = args.axis or sweep_cfg.get("axis")
            if axis is None:
                raise ConfigError("sweep needs --axis or a config 'sweep.axis'")
            if args.values is not None:
                values = _parse_axis_values(axis, args.values)
            elif isinstance(sweep_cfg.get("values"), list):
                values = sweep_cfg["values"]
            else:
                raise ConfigError("sweep needs --values or a config 'sweep.values' list")
            baseline = sweep_cfg.get("baseline", False)
            if not isinstance(baseline, bool):
                raise ConfigError(f"sweep.baseline must be true or false, got {baseline!r}")
            return cmd_sweep(raw, axis, values, args.out, parallel=args.parallel,
                             baseline=args.baseline or baseline)
        if args.command == "check":
            return cmd_check(raw, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, CommBoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
