"""The benchmark's contract, checked on each workload's tiny config.

``perfbench/workloads.py`` holds the workloads' configs, command lines and
output checks, and uses only the standard library; ``perfbench/worker.py``
times the start-up that ``setup_s`` measures.  Both are loaded here by their
paths, so a change that breaks a workload's outputs, or renames a ``cli``
function the start-up calls, fails in the test suite and not only in the
benchmark.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from fedlinucb import cli, environment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")


def test_trace_header_is_the_benchmark_header():
    assert ",".join(cli.TRACE_COLUMNS) == workloads.TRACE_HEADER


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_outputs_pass_the_benchmark_checks(tmp_path, capsys, name):
    spec = workloads.make_spec(name, workloads.DEFAULT_SEED, tmp_path / "work", tiny=True)
    out = tmp_path / "out"
    # The traced command line: a sweep runs its cells in-process (--parallel 1).
    argv = [str(out) if arg == "{out}" else arg for arg in spec["trace_argv"]]
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert workloads.check_outputs(spec, out) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_worker_setup_runs_on_each_tiny_workload(tmp_path, monkeypatch, name):
    # The worker imports its sibling modules by name and checks that the
    # package comes from PERFBENCH_SRC.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setenv("PERFBENCH_SRC", str(Path(cli.__file__).resolve().parents[1]))
    worker = _load("worker")
    spec = workloads.make_spec(name, workloads.DEFAULT_SEED, tmp_path / "work", tiny=True)
    assert worker.setup(spec) is cli


def test_building_the_reference_run_draws_no_block(tmp_path, monkeypatch):
    # Set-up, as setup_s times it on every workload, is import, parse and
    # build: arm and noise blocks are drawn, and tables built, only once a
    # run reaches them.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setenv("PERFBENCH_SRC", str(Path(cli.__file__).resolve().parents[1]))
    worker = _load("worker")
    streams = []
    keyed = environment._block_rng

    def counting(seed, stream, block):
        streams.append(stream)
        return keyed(seed, stream, block)

    monkeypatch.setattr(environment, "_block_rng", counting)
    environment._block.cache_clear()
    for name in sorted(workloads.WORKLOADS):
        spec = workloads.make_spec(name, workloads.DEFAULT_SEED, tmp_path / name)
        streams.clear()
        worker.setup(spec)
        schedule = json.loads(Path(spec["config"]).read_text())["schedule"]["kind"]
        drawn = {"theta", "schedule"} if schedule == "iid-uniform" else {"theta"}
        assert set(streams) == drawn, name
    assert environment._block.cache_info().misses == 0
