"""Smoke test of the demos: each `demos/*.py` runs to exit 0.

Every demo runs in a fresh interpreter that inherits the environment (so
PYTHONPATH too, with relative entries made absolute), from a temporary
working directory with TMPDIR pointing into it, so files a demo writes are
cleaned up with the test's directory.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(p) for p in env["PYTHONPATH"].split(os.pathsep) if p)
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
