"""The README's examples run against the package as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # One line of run figures, then one per invariant report, all satisfied.
    assert len(lines) == 12
    assert all(line.split()[1] == "True" for line in lines[1:])
