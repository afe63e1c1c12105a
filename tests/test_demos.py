"""Every demo script runs to completion against the package under test, with
every warning an error."""

import os
import pathlib
import subprocess
import sys

import pytest

import seiffert_bounds

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(pathlib.Path(seiffert_bounds.__file__).resolve().parents[1])


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-W", "error", str(demo)], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout
