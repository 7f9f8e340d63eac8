"""The README's examples run against the package as documented."""

import importlib
import json
import re
from functools import reduce
from pathlib import Path

import fedlinucb
from fedlinucb import run_invariant_suite
from fedlinucb.cli import build_run

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names = {}
    exec(compile(code, "README.md (Library)", "exec"), names)
    lines = capsys.readouterr().out.splitlines()
    # One line of run figures, then one per invariant report, all satisfied,
    # named as the README's report table lists them, in its order.
    table = section.split("| report |", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    documented = [re.match(r"\| `([^`]+)` \|", row).group(1) for row in table]
    assert [line.split()[0] for line in lines[1:]] == documented
    assert all(line.split()[1] == "True" for line in lines[1:])
    # Each report's detail keys are the ones its row lists (none on a clean run
    # for trace-consistency, whose keys name the problems found).
    reports = run_invariant_suite(names["trace"], names["inst"], names["hp"])
    documented_keys = [re.findall(r"`([^`]+)`", row.rsplit(" | ", 1)[1]) for row in table]
    assert [list(r.detail) for r in reports] == documented_keys


def test_readme_config_example_resolves():
    section = README.read_text(encoding="utf-8").split("\n### Config\n", 1)[1]
    shown = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    cfg, inst, schedule, hp = build_run(shown)
    # The documented config validates, and resolves to the values it shows.
    for part in ("instance", "schedule", "params"):
        assert cfg[part] == {**cfg[part], **shown[part]}
    assert cfg["replications"] == shown["replications"]
    params = shown["params"]
    assert (hp.lam, hp.alpha, hp.delta, hp.estimate_mode) == (
        params["lambda"], params["alpha"], params["delta"], params["estimate_mode"])
    assert params["beta"] == "auto" and hp.beta_value is None
    assert (inst.dim, schedule.M, schedule.T) == (
        shown["instance"]["d"], shown["schedule"]["M"], shown["schedule"]["T"])


def test_readme_names_resolve():
    # A rename or a deletion must take the README's mention along.
    text = README.read_text(encoding="utf-8")
    dotted = re.findall(r"`(core|environment|protocol|simulator|analysis|cli)((?:\.\w+)+)`", text)
    assert len(dotted) >= 13
    for module, path in dotted:
        obj = importlib.import_module(f"fedlinucb.{module}")
        reduce(getattr, path[1:].split("."), obj)  # AttributeError names what is gone
    runs = set(re.findall(r"`(run_\w+)", text))
    assert {"run_fedlinucb", "run_independent_oful"} <= runs
    assert [name for name in sorted(runs) if not hasattr(fedlinucb, name)] == []
