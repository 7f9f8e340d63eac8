"""End-to-end CLI tests: config handling, file outputs, determinism, exit codes."""

import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlinucb import (
    HyperParams,
    compute_beta,
    gen_instance,
    gen_schedule,
    run_fedlinucb,
    run_invariant_suite,
    theoretical_comm_bound,
)
from fedlinucb.cli import (TRACE_COLUMNS, _fmt, _render_json, build_run, main, resolve_config,
                           write_trace_csv)

BASE_CONFIG = {
    "instance": {"kind": "random-sphere", "d": 3, "K": 5, "seed": 7},
    "schedule": {"kind": "round-robin", "M": 2, "T": 60},
    "params": {"alpha": 0.25, "lambda": 1.0, "delta": 0.1, "beta": "auto"},
}

SUMMARY_KEYS = {
    "total_regret", "comm_count", "switch_count", "beta_used",
    "bound_regret", "bound_comm", "epoch_starts", "config_echo",
}


def write_config(tmp_path, cfg, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------- formatting


def test_fmt_fixed_notation_12_digits():
    assert _fmt(0.5) == "0.5"
    assert _fmt(2.0 / 3.0) == "0.666666666667"
    assert _fmt(1e-13) == "0.0000000000001"  # never scientific
    assert _fmt(1234.56789) == "1234.56789"


def test_render_json_sorted_and_typed():
    got = _render_json({"b": 1.5, "a": True, "c": [1, 2.0], "d": None})
    assert got == '{\n  "a": true,\n  "b": 1.5,\n  "c": [\n    1,\n    2.0\n  ],\n  "d": null\n}'
    # numpy bools, as numpy comparisons return them, are JSON bools too.
    assert _render_json([np.bool_(True), np.bool_(False)]) == "[\n  true,\n  false\n]"


# ---------------------------------------------------------------- defaults


def test_resolve_config_defaults():
    cfg = resolve_config({
        "instance": {"kind": "random-sphere", "d": 2, "K": 3, "S": 2.0},
        "schedule": {"kind": "round-robin", "M": 4, "T": 10},
    })
    assert cfg["params"]["lambda"] == 0.25       # 1 / S^2
    assert cfg["params"]["alpha"] == 1.0 / 16.0  # 1 / M^2
    assert cfg["params"]["beta"] == "auto"
    assert cfg["params"]["delta"] == 0.01
    assert cfg["params"]["estimate_mode"] == "lazy"
    assert cfg["replications"] == 1


# ---------------------------------------------------------------- run


@pytest.mark.parametrize("d, lam, shown", [(200, 0.01, "0.0"), (160, 100.0, "inf"), (3, 1.0, None)])
def test_run_det_column_outside_float_range(tmp_path, d, lam, shown):
    # The run itself decides in log space; only the display column saturates.
    # In range, each cell is exp of its round's server log-determinant.
    cfg = {
        "instance": {"kind": "random-sphere", "d": d, "K": 4, "seed": 7},
        "schedule": {"kind": "round-robin", "M": 2, "T": 20},
        "params": {"alpha": 0.25, "lambda": lam, "delta": 0.1, "beta": "auto"},
    }
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    column = [line.split(",")[-1] for line in lines[1:]]
    if shown is None:
        _, inst, schedule, hp = build_run(cfg)
        logdets = run_fedlinucb(inst, schedule, hp).logdet_server.tolist()
        assert len(set(column)) > 1
        assert column == [_fmt(math.exp(v)) for v in logdets]
    else:
        assert set(column) == {shown}
    assert json.loads((out / "summary.json").read_text())["epoch_starts"][0] == [0, 1]


def test_run_writes_trace_and_summary(tmp_path, capsys):
    cfg_path = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    rc = main(["run", "--config", cfg_path, "--out", str(out)])
    assert rc == 0
    raw = (out / "trace.csv").read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    lines = raw.decode().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == 61  # header + one row per round
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == SUMMARY_KEYS
    # Cross-check against a direct library run of the same config.
    inst = gen_instance("random-sphere", d=3, K=5, seed=7)
    sched = gen_schedule("round-robin", M=2, T=60)
    hp = HyperParams(lam=1.0, alpha=0.25, delta=0.1)
    trace = run_fedlinucb(inst, sched, hp)
    assert summary["total_regret"] == pytest.approx(float(trace.cum_regret[-1]), rel=1e-11)
    assert summary["comm_count"] == trace.comm_count
    assert summary["switch_count"] == trace.comm_count // 2
    assert summary["beta_used"] == pytest.approx(compute_beta(inst, hp, 2, 60), rel=1e-11)
    assert summary["epoch_starts"][0] == [0, 1]
    assert summary["config_echo"]["params"]["alpha"] == 0.25
    assert "wrote" in capsys.readouterr().out


def test_trace_csv_bytes_are_each_entry_formatted(tmp_path):
    # Distinct values are formatted once per column and told apart by their
    # bits; the file must read as if every entry went through _fmt.
    inst = gen_instance("random-sphere", d=3, K=5, seed=7)
    trace = run_fedlinucb(inst, gen_schedule("round-robin", M=2, T=60),
                          HyperParams(lam=1.0, alpha=0.25, delta=0.1))
    special = np.array([-0.0, 0.0, 1.5, -0.0, math.inf, 0.0, 1.5, 5e-324, -math.inf, 1.5])
    doctored = dataclasses.replace(
        trace,
        reward=np.resize(special, 60),
        inst_regret=np.resize([0.0, -0.0, 0.25, 0.0, 1e-17, 0.25], 60),
        # exp overflows to inf and underflows to 0.0 in the det_server column.
        logdet_server=np.resize([1e4, -1e4, 0.0, 1e4, 2.5, -0.0], 60),
    )
    write_trace_csv(doctored, tmp_path / "trace.csv")
    with np.errstate(over="ignore", under="ignore"):
        det_server = np.exp(doctored.logdet_server)
    columns = [
        map(str, doctored.t.tolist()),
        map(str, doctored.agent.tolist()),
        map(str, doctored.arm_index.tolist()),
        map(_fmt, doctored.reward.tolist()),
        map(_fmt, doctored.inst_regret.tolist()),
        map(_fmt, doctored.cum_regret.tolist()),
        map(str, doctored.comm.tolist()),
        map(_fmt, det_server.tolist()),
    ]
    rows = [",".join(TRACE_COLUMNS), *map(",".join, zip(*columns))]
    written = (tmp_path / "trace.csv").read_bytes()
    assert written == ("\n".join(rows) + "\n").encode()
    reward_column = [line.split(",")[3] for line in written.decode().splitlines()[1:11]]
    assert reward_column[:2] == ["-0.0", "0.0"] and "inf" in reward_column


def test_run_rerun_is_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, BASE_CONFIG)
    rc1 = main(["run", "--config", cfg_path, "--out", str(tmp_path / "a")])
    rc2 = main(["run", "--config", cfg_path, "--out", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    assert (tmp_path / "a/trace.csv").read_bytes() == (tmp_path / "b/trace.csv").read_bytes()
    assert (tmp_path / "a/summary.json").read_bytes() == (tmp_path / "b/summary.json").read_bytes()


def test_run_seed_override(tmp_path):
    cfg_path = write_config(tmp_path, BASE_CONFIG)
    main(["run", "--config", cfg_path, "--out", str(tmp_path / "a"), "--seed", "7"])
    main(["run", "--config", cfg_path, "--out", str(tmp_path / "b"), "--seed", "8"])
    main(["run", "--config", cfg_path, "--out", str(tmp_path / "c"), "--seed", "8"])
    a = (tmp_path / "a/trace.csv").read_bytes()
    b = (tmp_path / "b/trace.csv").read_bytes()
    c = (tmp_path / "c/trace.csv").read_bytes()
    assert a != b and b == c


def test_run_with_files_for_arms_and_schedule(tmp_path):
    arms_path = tmp_path / "arms.txt"
    arms_path.write_text("0.6 0\n0 0.8\n0.5 0.5\n", encoding="utf-8")
    sched_path = tmp_path / "sched.txt"
    sched_path.write_text("# order\n1\n2\n2\n1\n2\n", encoding="utf-8")
    cfg = {
        "instance": {"kind": "fixed-list", "arms_file": str(arms_path), "seed": 3},
        "schedule": {"kind": "explicit-list", "M": 2, "file": str(sched_path)},
        "params": {"alpha": 0.5},
    }
    out = tmp_path / "out"
    rc = main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["1", "2", "2", "1", "2"]


def test_explicit_list_refuses_a_stated_T_other_than_its_length(tmp_path, capsys):
    sched_path = tmp_path / "sched.txt"
    sched_path.write_text("1\n2\n2\n1\n2\n", encoding="utf-8")
    cfg = dict(BASE_CONFIG, schedule={"kind": "explicit-list", "M": 2, "T": 100,
                                      "file": str(sched_path)})
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert "config error: schedule: T = 100" in capsys.readouterr().err
    assert not out.exists()
    cfg["schedule"]["T"] = 5
    assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0


@pytest.mark.parametrize("key, stated, built", [("d", 5, 2), ("K", 7, 3)])
def test_fixed_list_refuses_a_stated_d_or_K_other_than_its_arm_file(tmp_path, capsys, key,
                                                                    stated, built):
    arms_path = tmp_path / "arms.txt"
    arms_path.write_text("0.6 0\n0 0.8\n0.5 0.5\n", encoding="utf-8")  # d = 2, K = 3
    instance = {"kind": "fixed-list", "arms_file": str(arms_path), key: stated}
    cfg_path = write_config(tmp_path, dict(BASE_CONFIG, instance=instance))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 2
    assert f"config error: instance: {key} = {stated}," in capsys.readouterr().err
    assert main(["sweep", "--config", cfg_path, "--out", str(out),
                 "--axis", "M", "--values", "1,2"]) == 2
    assert not out.exists()
    instance[key] = built
    cfg_path = write_config(tmp_path, dict(BASE_CONFIG, instance=instance))
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config_echo"]["instance"][key] == built


GOLDEN_CONFIG = {
    "instance": {"kind": "random-sphere", "d": 2, "K": 3, "seed": 5},
    "schedule": {"kind": "round-robin", "M": 2, "T": 12},
    "params": {"alpha": 0.25, "lambda": 1.0, "delta": 0.1, "beta": "auto"},
}


def test_golden_summary_bytes(tmp_path):
    # Frozen output for a tiny config; catches accidental format or
    # numerics drift. Regenerate tests/data/golden_summary.json deliberately
    # if the output schema ever changes on purpose.
    import pathlib

    golden = pathlib.Path(__file__).parent / "data" / "golden_summary.json"
    cfg_path = write_config(tmp_path, GOLDEN_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "summary.json").read_bytes() == golden.read_bytes()


GOLDEN_SWEEP_CONFIG = {
    "instance": {"kind": "random-sphere", "d": 3, "K": 5, "seed": 5},
    "schedule": {"kind": "iid-uniform", "M": 2, "T": 80, "seed": 6},
    "params": {"lambda": 1.0, "delta": 0.1, "beta": "auto"},
}


def test_golden_sweep_baseline_bytes(tmp_path):
    # Frozen sweep output with the no-communication baseline columns; the M=3
    # cell runs three private learners.
    import pathlib

    golden = pathlib.Path(__file__).parent / "data" / "golden_sweep.csv"
    cfg_path = write_config(tmp_path, GOLDEN_SWEEP_CONFIG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg_path, "--axis", "M", "--values", "1,3",
                 "--baseline", "--out", str(out)]) == 0
    assert (out / "sweep.csv").read_bytes() == golden.read_bytes()


GOLDEN_CHECK_CONFIG = {
    "instance": {"kind": "hypercube-corners", "d": 6, "K": 8, "seed": 11},
    "schedule": {"kind": "iid-uniform", "M": 3, "T": 600, "seed": 12},
    "params": {"alpha": 0.0625, "lambda": 1.0, "delta": 0.1, "beta": "auto",
               "estimate_mode": "eager"},
}


def test_golden_check_report_bytes(tmp_path):
    # Frozen check output for an eager run with syncs and single-agent
    # windows, so every replay-based check has work to do.
    import pathlib

    from fedlinucb.cli import build_hyperparams, build_instance, build_schedule

    golden = pathlib.Path(__file__).parent / "data" / "golden_check_report.json"
    cfg_path = write_config(tmp_path, GOLDEN_CHECK_CONFIG)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "check_report.json").read_bytes() == golden.read_bytes()
    cfg = resolve_config(GOLDEN_CHECK_CONFIG)
    hp, inst = build_hyperparams(cfg), build_instance(cfg)
    trace = run_fedlinucb(inst, build_schedule(cfg), hp)
    assert trace.events
    by_name = {r.name: r for r in run_invariant_suite(trace, inst, hp)}
    assert by_name["covariance-comparison"].detail["windows"] > 0


# ---------------------------------------------------------------- bad configs


def bad_config_cases(tmp_path):
    def with_field(section, key, value):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        (cfg if section is None else cfg[section])[key] = value
        return cfg

    nan_arms = tmp_path / "nan_arms.txt"
    nan_arms.write_text("0.5 nan\n0.1 0.2\n", encoding="utf-8")
    bad_sched = tmp_path / "bad_sched.txt"
    bad_sched.write_text("1\n1 2\n", encoding="utf-8")
    fixed_list = {"kind": "fixed-list", "arms_file": str(nan_arms)}
    block = {"kind": "block", "M": 2, "T": 61}
    return [
        with_field("params", "delta", 1.5),
        with_field("instance", "kind", "mystery"),
        with_field("schedule", "T", -5),
        with_field("params", "alpha", 0),
        {"instance": BASE_CONFIG["instance"]},
        # non-finite values that used to run to nan or inf output
        with_field("params", "alpha", math.inf),
        with_field("params", "beta", math.nan),
        with_field("instance", "R", math.nan),
        with_field("instance", "S", math.inf),
        with_field("instance", "L", math.inf),
        with_field("params", "lambda", math.nan),
        dict(BASE_CONFIG, instance=fixed_list),
        # values that used to exit 1 or raise
        with_field("instance", "noise", "laplace"),
        with_field("schedule", "T", "abc"),
        with_field("params", "alpha", "x"),
        dict(BASE_CONFIG, schedule=block),
        with_field("instance", "seed", -1),
        with_field("instance", "S", None),
        with_field("schedule", "M", 0),
        # integer fields that used to be truncated
        with_field("instance", "d", 2.9),
        with_field("instance", "K", "3"),
        with_field("schedule", "M", True),
        with_field("schedule", "T", None),
        with_field("schedule", "seed", 2.5),
        with_field(None, "replications", 2.5),
        # unreadable or malformed input files
        dict(BASE_CONFIG, instance={"kind": "fixed-list", "arms_file": str(tmp_path / "absent")}),
        dict(BASE_CONFIG, schedule={"kind": "explicit-list", "M": 2, "file": str(bad_sched)}),
        dict(BASE_CONFIG, schedule={"kind": "explicit-list", "M": 2}),
        # a finite radius whose regret bound overflows to inf
        with_field("params", "beta", 1e308),
    ]


@pytest.mark.parametrize("key", ["d", "K"])
def test_zero_d_or_K_is_a_config_error_naming_the_value(tmp_path, capsys, key):
    out = tmp_path / "out"
    cfg = dict(BASE_CONFIG, instance=dict(BASE_CONFIG["instance"], **{key: 0}))
    assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert f"config error: instance: {key} must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_bad_file_tokens_are_config_errors_naming_file_and_line(tmp_path, capsys):
    sched = tmp_path / "sched.txt"
    sched.write_text("1\n# comment\n1.5\n", encoding="utf-8")
    arms = tmp_path / "arms.txt"
    arms.write_text("abc 0\n", encoding="utf-8")
    for cfg, where in (
        (dict(BASE_CONFIG, schedule={"kind": "explicit-list", "M": 2, "file": str(sched)}),
         f"config error: schedule: {sched}: line 3: "),
        (dict(BASE_CONFIG, instance={"kind": "fixed-list", "arms_file": str(arms)}),
         f"config error: instance: {arms}: line 1: "),
    ):
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert where in capsys.readouterr().err
        assert not out.exists()


def test_invalid_configs_exit_2_without_output(tmp_path, capsys):
    for i, cfg in enumerate(bad_config_cases(tmp_path)):
        out = tmp_path / f"out{i}"
        rc = main(["run", "--config", write_config(tmp_path, cfg, f"c{i}.json"),
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, f"case {i} returned {rc}"
        assert "config error" in err
        assert not out.exists(), f"case {i} wrote output despite failing"


NUMBER_FIELDS = [("instance", k) for k in ("S", "L", "R")] + [
    ("params", k) for k in ("lambda", "alpha", "delta", "beta")]


@pytest.mark.parametrize("field", NUMBER_FIELDS)
@pytest.mark.parametrize("value", [True, "0.5"])
def test_float_fields_must_be_json_numbers(tmp_path, capsys, field, value):
    # A JSON true would read as 1, a string would be parsed; both are refused.
    section, key = field
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg[section][key] = value
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert f"{section} {key} must be a number" in capsys.readouterr().err
    assert not out.exists()


def test_number_fields_take_json_integers(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["instance"]["S"] = 1
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert (out / "summary.json").exists()


def test_sweep_refuses_a_bool_alpha_cell_before_any_run(tmp_path, capsys):
    cfg = dict(BASE_CONFIG, sweep={"axis": "alpha", "values": [0.5, True]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert "params alpha must be a number" in capsys.readouterr().err
    assert not out.exists()


def test_huge_S_is_a_config_error_without_overflow(tmp_path, capsys):
    # theta_star is checked as ||theta/S|| <= 1, which does not overflow; the
    # run is then refused because the default lambda = 1/S^2 is not a
    # positive finite number: S^2 underflows to 0 at 1e-200, and 1/S^2 is inf
    # at 1e-160 and 0 at 1e200.
    for S in (1e-200, 1e-160, 1e200):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["instance"]["S"] = S
        del cfg["params"]["lambda"]
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert f"S = {S!r}" in err and "state 'lambda'" in err
        assert not out.exists()


def _floor_config(tmp_path, L=100.0):
    # Three arms of norm L in d = 8: the pooled covariance keeps eigenvalue
    # lambda = 1 exactly in five directions, and at L = 100 its rounding at
    # trace T*L^2 = 1e7 puts eigvalsh about 2e-9 below it.
    arms = np.random.default_rng(0).standard_normal((3, 8))
    arms *= L / np.linalg.norm(arms, axis=1, keepdims=True)
    arms_file = tmp_path / "arms.txt"
    arms_file.write_text("\n".join(" ".join(repr(v) for v in row) for row in arms.tolist()))
    return {
        "instance": {"kind": "fixed-list", "arms_file": str(arms_file), "L": L},
        "schedule": {"kind": "round-robin", "M": 2, "T": 1000},
        "params": {"lambda": 1.0, "alpha": 0.25},
    }


def _extreme(section, key, value):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg[section][key] = value
    return cfg


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("case", ["floor", "lambda 1e-300", "L 1e150"])
def test_ridge_floor_decided_within_rounding(tmp_path, capsys, command, case):
    # A floor shortfall inside the covariance's own rounding is accepted; a
    # ridge that rounding swamps is refused before the run, as a config error.
    cfg = {"floor": lambda: _floor_config(tmp_path),
           "lambda 1e-300": lambda: _extreme("params", "lambda", 1e-300),
           "L 1e150": lambda: _extreme("instance", "L", 1e150)}[case]()
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)])
    err = capsys.readouterr().err
    if case == "floor":
        assert rc == 0, err
    else:
        assert rc == 2 and "config error" in err and "rounding" in err, err
        assert not out.exists()


@pytest.mark.parametrize("L", [1e3, 1e4])
def test_sync_criterion_within_logdet_rounding(tmp_path, capsys, L):
    # At L = 1e4 (trace T*L^2 = 1e11) a sync's fresh-factor margin reads
    # -2.1e-8: rounding of two log-determinants, not a missed trigger.
    out = tmp_path / "out"
    rc = main(["check", "--config", write_config(tmp_path, _floor_config(tmp_path, L)),
               "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    report = json.loads((out / "check_report.json").read_text())
    sync_check = next(c for c in report["checks"] if c["name"] == "sync-criterion-events")
    assert sync_check["satisfied"]


BAD_VALUES = [math.nan, math.inf, -math.inf, 0, -1, 2.5, "x", None, True]
PROPERTY_FIELDS = (
    [("instance", k) for k in ("kind", "d", "K", "S", "L", "R", "seed", "noise")]
    + [("schedule", k) for k in ("kind", "M", "T", "seed")]
    + [("params", k) for k in ("alpha", "lambda", "delta", "beta", "estimate_mode")]
    + [(None, "replications")]
)


def _finite_numbers(obj) -> bool:
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    return not isinstance(obj, float) or math.isfinite(obj)


EXTREME_FIELDS = (
    [("instance", k) for k in ("S", "L", "R")]
    + [("params", k) for k in ("alpha", "lambda", "delta", "beta")]
)
# Log-uniform magnitudes from 2**-1023 (about 1.1e-308) up to the largest finite float.
MAGNITUDES = st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-1023, 1023))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(field=st.sampled_from(PROPERTY_FIELDS), value=st.sampled_from(BAD_VALUES))
def test_one_bad_field_exits_0_finite_or_2(field, value):
    _assert_exits_0_finite_or_2(field, value)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(field=st.sampled_from(EXTREME_FIELDS), magnitude=MAGNITUDES, negative=st.booleans())
def test_one_extreme_field_exits_0_finite_or_2(field, magnitude, negative):
    _assert_exits_0_finite_or_2(field, -magnitude if negative else magnitude)


def _assert_exits_0_finite_or_2(field, value):
    # Every config one field away from a valid one either runs to finite
    # numbers or is refused as a config error: never exit 1, a traceback or
    # a numpy warning.
    section, key = field
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["schedule"]["T"] = 40
    (cfg if section is None else cfg[section])[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["run", "--config", str(cfg_path), "--out", str(out)])
        if rc == 0:
            assert _finite_numbers(json.loads((out / "summary.json").read_text()))
        else:
            assert rc == 2, err.getvalue()
            assert "config error" in err.getvalue()
            assert not out.exists()


def test_missing_and_malformed_config_files(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    rc = main(["run", "--config", str(broken), "--out", str(tmp_path / "o")])
    assert rc == 2
    capsys.readouterr()


# ---------------------------------------------------------------- sweep


def test_sweep_alpha_axis_schema_and_comm_trend(tmp_path):
    cfg = {
        "instance": {"kind": "random-sphere", "d": 3, "K": 5, "seed": 11},
        "schedule": {"kind": "round-robin", "M": 3, "T": 600},
        "params": {"lambda": 1.0, "delta": 0.1},
        "replications": 3,
    }
    out = tmp_path / "out"
    rc = main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out),
               "--axis", "alpha", "--values", "0.05,0.25,1.0", "--baseline"])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == [
        "axis", "value", "replication", "instance_seed", "schedule_seed",
        "total_regret", "mean_round_regret", "max_round_regret", "comm_count",
        "switch_count", "beta_used", "bound_regret", "bound_comm",
        "baseline_total_regret", "baseline_comm_count",
    ]
    assert len(lines) == 1 + 3 * 3
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    assert all(r["axis"] == "alpha" for r in rows)
    assert all(r["baseline_comm_count"] == "0" for r in rows)
    mean_comm = {
        v: np.mean([int(r["comm_count"]) for r in rows if float(r["value"]) == v])
        for v in (0.05, 0.25, 1.0)
    }
    # Looser trigger, rarer uploads.
    assert mean_comm[0.05] > mean_comm[1.0]


def test_sweep_m_axis_retargets_default_alpha(tmp_path):
    cfg = {
        "instance": {"kind": "random-sphere", "d": 2, "K": 4, "seed": 13},
        "schedule": {"kind": "round-robin", "M": 2, "T": 40},
    }
    out = tmp_path / "out"
    rc = main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out),
               "--axis", "M", "--values", "1,4"])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    by_m = {int(r["value"]): r for r in rows}
    # With no explicit alpha in the config, each cell uses 1 / M^2.
    want_m4 = theoretical_comm_bound(2, 4, 1.0 / 16.0, 1.0, 1.0, 40)
    want_m1 = theoretical_comm_bound(2, 1, 1.0, 1.0, 1.0, 40)
    assert float(by_m[4]["bound_comm"]) == pytest.approx(want_m4, rel=1e-9)
    assert float(by_m[1]["bound_comm"]) == pytest.approx(want_m1, rel=1e-9)


def test_sweep_from_config_block(tmp_path):
    cfg = {
        "instance": {"kind": "random-sphere", "d": 2, "K": 3, "seed": 17},
        "schedule": {"kind": "round-robin", "M": 2, "T": 30},
        "sweep": {"axis": "T", "values": [10, 30]},
    }
    out = tmp_path / "out"
    rc = main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert [ln.split(",")[1] for ln in lines[1:]] == ["10", "30"]


@pytest.mark.parametrize("flag", ["false", 1, None])
def test_sweep_refuses_a_baseline_that_is_not_a_json_boolean(tmp_path, capsys, flag):
    # A truthiness read would run the baseline on "false".
    cfg = dict(BASE_CONFIG, sweep={"axis": "T", "values": [10], "baseline": flag})
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert f"config error: sweep.baseline must be true or false, got {flag!r}" in (
        capsys.readouterr().err)
    assert not out.exists()
    cfg["sweep"]["baseline"] = False
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert "baseline_total_regret" not in (out / "sweep.csv").read_text()


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = {
        "instance": {"kind": "random-sphere", "d": 2, "K": 3, "seed": 19},
        "schedule": {"kind": "round-robin", "M": 2, "T": 50},
        "replications": 2,
    }
    cfg_path = write_config(tmp_path, cfg)
    rc1 = main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "serial"),
                "--axis", "T", "--values", "20,50,20"])
    rc2 = main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "par"),
                "--axis", "T", "--values", "20,50,20", "--parallel", "2"])
    assert rc1 == rc2 == 0
    assert (tmp_path / "serial/sweep.csv").read_bytes() == (tmp_path / "par/sweep.csv").read_bytes()
    # Rows follow the requested cells, a repeated value included.
    rows = [ln.split(",") for ln in (tmp_path / "serial/sweep.csv").read_text().splitlines()[1:]]
    assert [(r[1], r[2]) for r in rows] == [
        ("20", "0"), ("20", "1"), ("50", "0"), ("50", "1"), ("20", "0"), ("20", "1")]
    # --parallel is a sweep option only.
    with pytest.raises(SystemExit):
        main(["run", "--config", cfg_path, "--out", str(tmp_path / "run"), "--parallel", "2"])


@pytest.mark.parametrize("parallel", ["0", "-3"])
def test_sweep_refuses_parallel_below_one(tmp_path, capsys, parallel):
    out = tmp_path / "out"
    rc = main(["sweep", "--config", write_config(tmp_path, BASE_CONFIG), "--out", str(out),
               "--axis", "T", "--values", "20", "--parallel", parallel])
    assert rc == 2
    assert f"config error: --parallel must be >= 1, got {parallel}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_refuses_a_cell_that_would_not_run_its_value(tmp_path, capsys):
    # A fixed-list instance takes d from its file, so only d = 2 runs at d = 2.
    arms_path = tmp_path / "arms.txt"
    arms_path.write_text("0.6 0\n0 0.8\n0.5 0.5\n", encoding="utf-8")
    cfg = dict(BASE_CONFIG, instance={"kind": "fixed-list", "arms_file": str(arms_path)})
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg_path, "--out", str(out),
                 "--axis", "d", "--values", "2,3,5"]) == 2
    assert "sweep cell d = 3 builds a run at d = 2" in capsys.readouterr().err
    assert not out.exists()
    assert main(["sweep", "--config", cfg_path, "--out", str(out),
                 "--axis", "d", "--values", "2"]) == 0


def test_sweep_missing_and_empty_values(tmp_path, capsys):
    cfg_path = write_config(tmp_path, BASE_CONFIG)
    rc = main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "o"), "--axis", "T"])
    assert rc == 2
    rc = main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "o"),
               "--axis", "T", "--values", ","])
    assert rc == 2
    # Non-integral cell values of an integer axis are refused, not truncated.
    rc = main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "o"),
               "--axis", "M", "--values", "2.5"])
    assert rc == 2
    cfg = dict(BASE_CONFIG, sweep={"axis": "M", "values": [2, 2.5]})
    rc = main(["sweep", "--config", write_config(tmp_path, cfg, "sweep.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert not (tmp_path / "o").exists()
    assert capsys.readouterr().err.count("config error") == 4


# ---------------------------------------------------------------- bias demo


def test_bias_demo_command(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["bias-demo", "--agents", "600", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "eager" in stdout and "lazy" in stdout
    payload = json.loads((out / "bias_demo.json").read_text())
    assert set(payload["modes"]) == {"eager", "lazy"}
    assert payload["modes"]["lazy"]["upload_fraction"] == 1.0
    assert abs(payload["modes"]["eager"]["upload_fraction"] - 0.5) < 0.1
    assert abs(payload["modes"]["eager"]["predicted_reward_arm_a"] - 0.5) < 0.1
    assert abs(payload["modes"]["lazy"]["predicted_reward_arm_a"]) < 0.1


def test_bias_demo_config_echo_matches_built_instance(tmp_path):
    from fedlinucb.cli import build_run

    cfg = {"instance": {"kind": "bias-demo", "noise": "gaussian", "d": 5, "K": 7, "R": 0.5},
           "schedule": {"kind": "round-robin", "M": 2, "T": 6},
           "params": {"alpha": 10.5, "lambda": 1.0, "beta": 0.5}}
    resolved, inst, _, _ = build_run(cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    echo = json.loads((out / "summary.json").read_text())["config_echo"]["instance"]
    assert echo == resolved["instance"]
    built = {"d": inst.dim, "K": inst.arm_spec.K, "S": inst.S, "L": inst.L, "R": inst.R,
             "noise": inst.noise_spec, "seed": inst.master_seed}
    assert {k: echo[k] for k in built} == built
    assert (echo["L"], echo["noise"], echo["d"], echo["K"]) == (3.0, "rademacher-scaled", 2, 2)


def test_bias_demo_alpha_on_the_window_edge_exits_0(tmp_path):
    # The long-short pair reaches a determinant ratio of 11 = 1 + alpha,
    # which the strict trigger does not fire on.
    assert main(["bias-demo", "--agents", "10", "--alpha", "10",
                 "--out", str(tmp_path / "o")]) == 0


def test_bias_demo_bad_alpha_exits_1(tmp_path, capsys):
    rc = main(["bias-demo", "--agents", "10", "--alpha", "5.0",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------- check


def test_check_command_all_pass(tmp_path, capsys):
    cfg = {
        "instance": {"kind": "random-sphere", "d": 3, "K": 5, "seed": 23},
        "schedule": {"kind": "iid-uniform", "M": 3, "T": 300, "seed": 1},
        "params": {"alpha": 1.0 / 9.0, "lambda": 1.0, "delta": 0.1},
    }
    out = tmp_path / "out"
    rc = main(["check", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    pass_lines = [ln for ln in stdout.splitlines() if ln.startswith("PASS ")]
    assert len(pass_lines) == 10
    assert not any(ln.startswith("FAIL") for ln in stdout.splitlines())
    payload = json.loads((out / "check_report.json").read_text())
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 10


def test_check_exit_code_on_failure(tmp_path, capsys, monkeypatch):
    import fedlinucb.cli as cli
    from fedlinucb.analysis import BoundReport

    monkeypatch.setattr(
        cli, "run_invariant_suite",
        lambda trace, inst, hp: [
            BoundReport(name="synthetic", empirical=1.0, bound=0.0,
                        satisfied=False, slack=-1.0)
        ],
    )
    cfg_path = write_config(tmp_path, BASE_CONFIG)
    rc = main(["check", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "FAIL synthetic" in captured.out
    assert "synthetic" in captured.err
    payload = json.loads((tmp_path / "o/check_report.json").read_text())
    assert payload["all_passed"] is False


# ---------------------------------------------------------------- entry point


def test_import_leaves_scipy_linalg_and_the_process_pool_unloaded(child_env):
    # Start-up pays for neither: the package binds LAPACK dpotrs from scipy's
    # extension directly, and sweep imports the pool only for --parallel.
    probe = ("import sys, fedlinucb.cli; "
             "print(sorted({'scipy.linalg', 'concurrent.futures.process'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_script_runs(tmp_path, child_env):
    cfg_path = write_config(tmp_path, GOLDEN_CONFIG)
    proc = subprocess.run(
        [sys.executable, "-m", "fedlinucb.cli", "run", "--config", cfg_path,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out/summary.json").exists()
