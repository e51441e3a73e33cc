"""The demos run as scripts, not only import: demos 02, 03 and 04 end to end."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_demo(name):
    # the script as its docstring says to run it, on the source tree
    env = dict(os.environ, PYTHONPATH="src")
    run = subprocess.run(
        [sys.executable, f"demos/{name}"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run


def test_bound_entanglement_demo_prints_the_boundaries():
    run = run_demo("02_bound_entanglement_sweep.py")
    assert "end-cut negativities vanish at    T/Delta = 1.4031\n" in run.stdout
    assert "with 0.02 error bars it is unresolvable from T/Delta = 2.0998\n" in run.stdout


def test_tomography_demo_prints_the_negativities():
    # the step count is the solver's business, not the demo's: not pinned
    run = run_demo("03_tomography_with_error_bars.py")
    assert "converged = True," in run.stdout
    for line in (
        "  N_A_p: model 0.0716   reconstructed 0.0831 +- 0.0109\n",
        "  N_B_s: model 0.1166   reconstructed 0.1084 +- 0.0103\n",
        "  N_B_p: model 0.0716   reconstructed 0.0906 +- 0.0114\n",
    ):
        assert line in run.stdout


def test_state_preparation_demo_compares_mub_and_haar():
    run = run_demo("04_state_preparation_benchmark.py")
    assert (
        "at T/Delta = 1.0: MUB average 0.70603, Haar Monte Carlo 0.70611 "
        "(difference 8.2e-05)\n"
    ) in run.stdout
