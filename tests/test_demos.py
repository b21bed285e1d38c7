"""Every script in demos/ runs to completion.

The demos call the library the way an outside user would (one drives
forward_graph and backward_graph directly), so a change to a public contract
that breaks them fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pfqkit

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": str(Path(pfqkit.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
