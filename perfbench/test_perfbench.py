"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from statistics import median

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import thermalcluster as tc  # noqa: E402
from thermalcluster.sweep import emit  # noqa: E402
from thermalcluster.tomography import ReconstructionResult  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*args):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_prints_end_to_end_metrics(name):
    res = _bench("--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", "0")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in res["metrics"].values())
    with open(os.path.join(run.OUT_DIR, f"{name}-seed3-trace0.json")) as fh:
        extra = json.load(fh)["extra"]
    factor = extra["speed_factor"]
    assert factor > 0 and extra["speed_probes"] >= 2 * res["attempted"]
    for k, v in extra["unscaled"].items():
        if k != "setup_s":
            scale = 1 / factor if k == "ops_per_s" else factor
            assert res["metrics"][k]["value"] == pytest.approx(v * scale)
    setup = zip(extra["setup_samples_s"], extra["setup_speed_factors"])
    assert res["metrics"]["setup_s"]["value"] == pytest.approx(median(t * f for t, f in setup))


def test_traced_run_prints_per_layer_metrics():
    res = _bench("--workload", "regime_map", "--seed", "3", "--seconds", "0.5", "--trace", "1")
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert res["metrics"]["entanglement.transition.model_evals"]["value"] > 0


def test_workload_names_match_spec():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def _package_functions():
    return {
        (ns.__name__, attr): val
        for ns in tracing.namespaces()
        for attr, val in vars(ns).items()
        if inspect.isfunction(val)
    }


def test_untraced_run_installs_no_wrapper_and_traced_run_removes_them(tmp_path):
    before = _package_functions()
    wl = workloads.make("tomo_ladder", 0, str(tmp_path))
    wl.CYCLE = 1
    seen = []
    real_run = wl.run

    def watched_run(inp):
        seen.append(_package_functions() == before)
        return real_run(inp)

    wl.run = watched_run
    checked = []
    real_check = wl.check

    def watched_check(inp, out):
        checked.append(_package_functions() == before)
        return real_check(inp, out)

    wl.check = watched_check
    run.serve(wl, 0.0)
    assert seen == [True]
    assert _package_functions() == before

    tracer = tracing.Tracer()
    tracer.install()
    try:
        # both places callers look the solver up are wrapped
        assert tc.tomography.mle_reconstruct is not before[("thermalcluster.tomography", "mle_reconstruct")]
        assert tc.sweep.mle_reconstruct is tc.tomography.mle_reconstruct
    finally:
        tracer.uninstall()
    assert _package_functions() == before

    # input 0 is served untraced, then traced; the wrappers go after each
    # request, before its checks
    seen.clear()
    checked.clear()
    untraced, traced = run.serve(wl, 0.0, tracer)
    assert seen == [True, False]
    assert checked == [True, True]
    assert (len(untraced.latencies), len(traced.latencies)) == (1, 1)
    assert _package_functions() == before
    names = {s[tracing.NAME] for s in tracer.spans}
    assert {"tomography.mle_reconstruct", "tomography.linear_inversion"} <= names
    assert {s[tracing.REQUEST] for s in tracer.spans} == {0}


def test_runs_end_on_a_whole_cycle_and_warm_up_ignores_the_seed(tmp_path):
    wl = workloads.make("regime_map", 0, str(tmp_path))
    wl.run = lambda a: None
    wl.check = lambda a, out: []
    plain, _ = run.serve(wl, 0.0)
    assert len(plain.latencies) == wl.CYCLE == len(workloads.RegimeMap.ALPHAS)
    for name in workloads.WORKLOADS:
        a, b = (workloads.make(name, seed, str(tmp_path)) for seed in (1, 2))
        assert a.warmup_input() == b.warmup_input()


def test_maximally_mixed_reconstruction_is_caught(tmp_path):
    wl = workloads.make("tomo_ladder", 0, str(tmp_path))
    inp = wl.inputs(0)
    rec, lin, _ = wl.run(inp)
    mixed = ReconstructionResult(rho=np.eye(8, dtype=complex) / 8, method="MLE")
    failed = wl.check(inp, (rec, lin, mixed))
    assert {"mle_ll_within_noise", "mle_ge_linear_ll", "mle_fidelity_floor"} <= set(failed)

    wl.run = lambda inp: (rec, lin, mixed)
    phase, _ = run.serve(wl, 0.0)
    n = wl.CYCLE
    assert (len(phase.latencies), phase.failed, phase.missed) == (n, n, 0)
    assert phase.check_failures["mle_ll_within_noise"] == n


def test_quality_misses_count_apart_from_failures(tmp_path):
    wl = workloads.make("tomo_ladder", 0, str(tmp_path))
    wl.run = lambda inp: None
    wl.converged = lambda out: False
    wl.check = lambda inp, out: ["mle_fidelity_floor"]
    phase, _ = run.serve(wl, 0.0)
    assert (phase.failed, phase.missed) == (0, wl.CYCLE)
    wl.check = lambda inp, out: ["mle_fidelity_floor", "mle_valid"]
    phase, _ = run.serve(wl, 0.0)
    assert (phase.failed, phase.missed) == (wl.CYCLE, 0)


def _with_errors(row, err):
    return dataclasses.replace(row, err_ap=err, err_bp=err, err_bs=err, fid_error=err)


@pytest.mark.parametrize("err", [1e-4, 0.012, 0.017])
def test_sweep_rows_far_from_the_model_are_caught(tmp_path, err):
    # error bars as small as a 4-resample estimate can give, and the typical
    # and largest of the golden sweep at the same flux
    wl = workloads.make("tomo_sweep", 0, str(tmp_path))
    rows = [_with_errors(r, err) for r in wl.reference]
    emit(rows, path=wl.path)
    assert wl.check(0, 0) == []
    # within counting noise of the model: passes
    noisy = [dataclasses.replace(r, neg_bs=r.neg_bs + 0.05, avg_fidelity=r.avg_fidelity - 0.05)
             for r in rows]
    emit(noisy, path=wl.path)
    assert wl.check(0, 0) == []
    # a solver biased towards separable states at T/gap = 0.5
    biased = [dataclasses.replace(rows[0], neg_ap=0.02, neg_bp=0.02, neg_bs=0.02), rows[1]]
    emit(biased, path=wl.path)
    assert wl.check(0, 0) == ["agrees_with_model"]
    swapped = [rows[0], dataclasses.replace(rows[1], avg_fidelity=rows[0].avg_fidelity)]
    emit(swapped, path=wl.path)
    assert wl.check(0, 0) == ["agrees_with_model"]
    emit(rows[:1], path=wl.path)
    assert wl.check(0, 0) == ["rows_well_formed"]


def test_regime_pins_are_checked(tmp_path):
    wl = workloads.make("regime_map", 0, str(tmp_path))
    points, tp = wl.run(0.84)
    assert wl.check(0.84, (points, tp)) == []
    moved = dataclasses.replace(tp, t_bound_to_ppt=tp.t_bound_to_ppt + 1e-3)
    assert wl.check(0.84, (points, moved)) == ["acceptance4_pins"]
    swapped = dataclasses.replace(
        tp, t_free_to_bound=tp.t_bound_to_ppt, t_bound_to_ppt=tp.t_free_to_bound
    )
    assert "transition_order" in wl.check(0.84, (points, swapped))


def test_tail_leaves_ten_samples_beyond():
    xs = list(range(100))
    assert stats.tail(xs) == (90.0, 89)
    assert sum(x > 89 for x in xs) == 10
    assert stats.tail(list(range(15))) == (50.0, 7)


def test_self_time_subtracts_union_of_children():
    span = (1, "a", 0.0, 10.0, None, 0, 0, None)
    kids = [(2, "b", 1.0, 4.0, 1, 0, 0, None), (3, "c", 3.0, 5.0, 1, 1, 0, None),
            (4, "d", 9.0, 12.0, 1, 1, 0, None)]
    assert tracing.self_time(span, kids) == pytest.approx(10.0 - 4.0 - 1.0)
