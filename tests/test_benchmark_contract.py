"""The benchmark's output contract, checked on each workload's tiny config.

``perfbench/workloads.py`` holds the workloads' configs, command lines and
output checks, and uses only the standard library; it is loaded here by its
path, so a change that breaks a workload's outputs fails in the test suite
and not only in the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

from fedlinucb import cli

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


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
