"""End-to-end CLI tests: config handling, file outputs, determinism, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from fedlinucb import (
    HyperParams,
    compute_beta,
    gen_instance,
    gen_schedule,
    run_fedlinucb,
    theoretical_comm_bound,
)
from fedlinucb.cli import TRACE_COLUMNS, _fmt, _render_json, main, resolve_config

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


@pytest.mark.parametrize("d, lam, shown", [(200, 0.01, "0.0"), (160, 100.0, "inf")])
def test_run_det_column_outside_float_range(tmp_path, d, lam, shown):
    # The run itself decides in log space; only the display column saturates.
    cfg = {
        "instance": {"kind": "random-sphere", "d": d, "K": 4, "seed": 7},
        "schedule": {"kind": "round-robin", "M": 2, "T": 20},
        "params": {"alpha": 0.25, "lambda": lam, "delta": 0.1, "beta": "auto"},
    }
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert {line.split(",")[-1] for line in lines[1:]} == {shown}
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

    from fedlinucb import covariance_comparison_check
    from fedlinucb.cli import build_hyperparams, build_instance, build_schedule

    golden = pathlib.Path(__file__).parent / "data" / "golden_check_report.json"
    cfg_path = write_config(tmp_path, GOLDEN_CHECK_CONFIG)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "check_report.json").read_bytes() == golden.read_bytes()
    cfg = resolve_config(GOLDEN_CHECK_CONFIG)
    hp = build_hyperparams(cfg)
    trace = run_fedlinucb(build_instance(cfg), build_schedule(cfg), hp)
    assert trace.events
    assert covariance_comparison_check(trace, hp.alpha, 3).detail["windows"] > 0


# ---------------------------------------------------------------- bad configs


def bad_config_cases(tmp_path):
    base = json.loads(json.dumps(BASE_CONFIG))
    bad_delta = json.loads(json.dumps(BASE_CONFIG))
    bad_delta["params"]["delta"] = 1.5
    bad_kind = json.loads(json.dumps(BASE_CONFIG))
    bad_kind["instance"]["kind"] = "mystery"
    bad_t = json.loads(json.dumps(BASE_CONFIG))
    bad_t["schedule"]["T"] = -5
    bad_alpha = json.loads(json.dumps(BASE_CONFIG))
    bad_alpha["params"]["alpha"] = 0
    missing = {"instance": base["instance"]}
    return [bad_delta, bad_kind, bad_t, bad_alpha, missing]


def test_invalid_configs_exit_2_without_output(tmp_path, capsys):
    for i, cfg in enumerate(bad_config_cases(tmp_path)):
        out = tmp_path / f"out{i}"
        rc = main(["run", "--config", write_config(tmp_path, cfg, f"c{i}.json"),
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, f"case {i} returned {rc}"
        assert "config error" in err
        assert not out.exists(), f"case {i} wrote output despite failing"


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


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = {
        "instance": {"kind": "random-sphere", "d": 2, "K": 3, "seed": 19},
        "schedule": {"kind": "round-robin", "M": 2, "T": 50},
        "replications": 2,
    }
    cfg_path = write_config(tmp_path, cfg)
    rc1 = main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "serial"),
                "--axis", "T", "--values", "20,50"])
    rc2 = main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "par"),
                "--axis", "T", "--values", "20,50", "--parallel", "2"])
    assert rc1 == rc2 == 0
    assert (tmp_path / "serial/sweep.csv").read_bytes() == (tmp_path / "par/sweep.csv").read_bytes()


def test_sweep_missing_and_empty_values(tmp_path, capsys):
    cfg_path = write_config(tmp_path, BASE_CONFIG)
    rc = main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "o"), "--axis", "T"])
    assert rc == 2
    rc = main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "o"),
               "--axis", "T", "--values", ","])
    assert rc == 2
    capsys.readouterr()


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
    assert len(pass_lines) == 11
    assert not any(ln.startswith("FAIL") for ln in stdout.splitlines())
    payload = json.loads((out / "check_report.json").read_text())
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 11


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


def test_console_script_runs(tmp_path):
    cfg_path = write_config(tmp_path, GOLDEN_CONFIG)
    proc = subprocess.run(
        [sys.executable, "-m", "fedlinucb.cli", "run", "--config", cfg_path,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out/summary.json").exists()
