"""Every script in demos/, and README's Quick tour, runs to completion with
warnings as errors.

The demos call the library the way an outside user would (one drives
forward_graph and backward_graph directly), so a change to a public contract
that breaks them fails here. Each runs in its own interpreter under
`-W error`, which a `-W error` given to pytest does not reach.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pfqkit

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args):
    env = {**os.environ, "PYTHONPATH": str(Path(pfqkit.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-W", "error", *args], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    _run([str(demo)])


def test_readme_quick_tour_runs():
    """The first python block under README's "Quick tour" heading runs and
    prints the prune summary and an accuracy."""
    readme = (ROOT / "README.md").read_text()
    tour = readme[readme.index("## Quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    lines = _run(["-c", code]).splitlines()
    assert lines[0].startswith("pruned ")
    assert 0.0 <= float(lines[-1]) <= 1.0
