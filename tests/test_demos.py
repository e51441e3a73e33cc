"""The demos run as scripts, not only import: demo 02 end to end."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bound_entanglement_demo_prints_the_boundaries():
    # the script as its docstring says to run it, on the source tree
    env = dict(os.environ, PYTHONPATH="src")
    run = subprocess.run(
        [sys.executable, "demos/02_bound_entanglement_sweep.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert "end-cut negativities vanish at    T/Delta = 1.4031\n" in run.stdout
    assert "with 0.02 error bars it is unresolvable from T/Delta = 2.0998\n" in run.stdout
