import os
from pathlib import Path

import pytest

import fedlinucb


@pytest.fixture
def child_env():
    """Environment for a child interpreter that must import this checkout's package,
    whether or not the package is installed or ``PYTHONPATH`` names ``src``."""
    src = str(Path(fedlinucb.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
