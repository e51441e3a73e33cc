"""Benchmark of the thermalcluster package: one workload per invocation.

    python3 perfbench/run.py --workload tomo_ladder --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from ``src/`` next
to this directory, never from an installed copy. Each workload is a closed
loop with one caller (see ``workloads.py``). With ``--trace 0`` the run
reports the end-to-end metrics, timings scaled to the machine's undisturbed
speed (see ``speed.py``); with ``--trace 1`` it serves every request
twice, untraced and traced in alternating order, and reports the per-layer
metrics and the tracing overhead. ``--workload all`` runs every workload in
turn, each in its own process. The last line of standard output is one JSON
object; the full record, with the environment and the failed checks by name,
goes to ``.perfbench_out/`` under the repository root.
"""

from time import perf_counter

T0 = perf_counter()  # setup_s counts from here: imports plus one warm-up request

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from statistics import median  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

if HERE not in sys.path:
    sys.path.insert(0, HERE)
import speed  # noqa: E402
import stats  # noqa: E402

# BLAS threads, set for this process and its setup probes only
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

WORKLOAD_NAMES = ("tomo_sweep", "tomo_ladder", "regime_map")
# setup_s is the median over this process and SETUP_SAMPLES - 1 fresh
# processes
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_workloads():
    """Import the workloads (and the package) from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "thermalcluster", "__init__.py")):
        fail(f"no thermalcluster package under {SRC}")
    sys.path.insert(0, SRC)
    import workloads
    import thermalcluster

    if os.path.dirname(os.path.dirname(os.path.abspath(thermalcluster.__file__))) != SRC:
        fail(f"imported thermalcluster from {thermalcluster.__file__}, not {SRC}")
    return workloads


def setup(name, seed, workdir):
    """Import, build the workload and serve one untimed warm-up request."""
    workloads = import_workloads()
    wl = workloads.make(name, seed, workdir)
    wl.run(wl.warmup_input())
    return wl


def probe_setup(name, seed):
    """Setup time of a fresh process, in seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", name, "--seed", str(seed)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


class Phase:
    """Requests served in one timed loop, with their latencies and checks."""

    def __init__(self):
        self.latencies = []
        self.failed = 0  # raised or failed a check outside QUALITY_CHECKS
        self.missed = 0  # failed quality checks only
        self.check_failures = Counter()
        self.mle_calls = 0
        self.mle_unconverged = 0
        self.probes = []  # speed probe times, untraced runs only


def serve_one(wl, inp, phase, tracer=None, request=None):
    """Serve one request, time it and check its output into ``phase``.

    With a tracer, its wrappers are installed around the request only, so
    the checks are neither traced nor counted as work of a layer.
    """
    if tracer is not None:
        tracer.install()
        tracer.request = request
    raised = None
    t0 = perf_counter()
    try:
        out = wl.run(inp)
    except Exception as exc:  # a request that raises is a failed request
        raised = f"raised:{type(exc).__name__}"
    finally:
        phase.latencies.append(perf_counter() - t0)
        if tracer is not None:
            tracer.request = None
            tracer.uninstall()
    if raised:
        names = [raised]
    else:
        names = wl.check(inp, out)
        conv = wl.converged(out)
        if conv is not None:
            phase.mle_calls += 1
            phase.mle_unconverged += not conv
    if names:
        phase.check_failures.update(names)
        if set(names) <= wl.QUALITY_CHECKS:
            phase.missed += 1
        else:
            phase.failed += 1


def serve(wl, seconds, tracer=None):
    """Closed loop from request 0 until ``seconds`` have passed and the last
    cycle of ``wl.CYCLE`` inputs is whole, so every run serves the same mix.

    Returns (untraced phase, traced phase). With a tracer each input is
    served twice, untraced and traced, the order alternating from input to
    input, so that machine drift cancels in the tracing overhead. Without a
    tracer the machine's speed is probed after each request, untimed.
    """
    plain, traced = Phase(), Phase()
    deadline = perf_counter() + seconds
    i = 0
    while True:
        inp = wl.inputs(i)
        if tracer is None:
            serve_one(wl, inp, plain)
            speed.sample(plain.probes, speed.SHARE * plain.latencies[-1])
        else:
            for on in (False, True) if i % 2 == 0 else (True, False):
                if on:
                    serve_one(wl, inp, traced, tracer, i)
                else:
                    serve_one(wl, inp, plain)
        i += 1
        if i % wl.CYCLE == 0 and perf_counter() >= deadline:
            return plain, traced


def read_loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": git_commit(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def timings(lat_ms, setup_s):
    """Timing metrics from request latencies (ms) and the setup time (s)."""
    lat_ms = sorted(lat_ms)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "op_p50_ms": stats.percentile(lat_ms, 50.0),
        "op_tail_ms": stats.tail(lat_ms)[1],
    }


def run_untraced(args, wl, setup_s):
    # (setup time, speed probes around it), this process's first
    setup = [(setup_s, [])]
    speed.sample(setup[0][1], speed.AROUND_SETUP_S)
    while len(setup) < SETUP_SAMPLES:
        around = []
        speed.sample(around, speed.AROUND_SETUP_S)
        t = probe_setup(args.workload, args.seed)
        speed.sample(around, speed.AROUND_SETUP_S)
        setup.append((t, around))
    phase, _ = serve(wl, args.seconds)
    # every timing is scaled to the machine's undisturbed speed (speed.py)
    ref = speed.undisturbed(phase.probes + [p for _, around in setup for p in around])
    factor = speed.factor(phase.probes, ref)
    setup_factors = [speed.factor(around, ref) for _, around in setup]
    setup_samples = [t for t, _ in setup]
    raw = timings([1e3 * x for x in phase.latencies], median(setup_samples))
    values = timings([1e3 * factor * x for x in phase.latencies],
                     median(t * f for t, f in zip(setup_samples, setup_factors)))
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat_ms = sorted(1e3 * x for x in phase.latencies)
    tail_p, tail_ms = stats.tail(lat_ms)
    n = len(lat_ms)
    extra = {
        "speed_factor": factor,
        "speed_probes": len(phase.probes),
        "setup_speed_factors": setup_factors,
        "unscaled": raw,
        "op_tail_percentile": tail_p,
        "requests": n,
        "samples_beyond_tail": sum(x > tail_ms for x in lat_ms),
        "setup_samples_s": setup_samples,
        "latencies_ms": [1e3 * x for x in phase.latencies],
        "fail_frac": (phase.failed + phase.missed) / n,
        "unconverged_frac": phase.mle_unconverged / phase.mle_calls if phase.mle_calls else 0.0,
        "unconverged": [phase.mle_unconverged, phase.mle_calls],
    }
    metrics = {k: metric(values[k], u) for k, u in END_TO_END}
    return metrics, extra, [phase]


def run_traced(args, wl):
    import tracing

    tracer = tracing.Tracer()
    untraced, traced = serve(wl, args.seconds, tracer)
    base = sum(untraced.latencies)
    values = tracing.layer_metrics(tracer.spans, len(traced.latencies))
    values["trace.overhead_pct"] = 100.0 * (sum(traced.latencies) - base) / base
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    tracer.dump(spans_path)
    metrics = {k: metric(values[k], u) for k, u in tracing.PER_LAYER}
    extra = {
        "requests_untraced": len(untraced.latencies),
        "requests_traced": len(traced.latencies),
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return metrics, extra, [untraced, traced]


def report(args, metrics, extra, phases, env):
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    missed = sum(p.missed for p in phases)
    checks = Counter()
    for p in phases:
        checks.update(p.check_failures)
    correct = failed == 0
    print(f"workload {args.workload}  seed {args.seed}  {args.seconds:g} s  trace {args.trace}"
          f"  (closed loop, 1 caller)")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    if args.trace == 0:
        print(f"  {'op_tail_ms is p' + format(extra['op_tail_percentile'], 'g'):42s}"
              f" of {extra['requests']} requests, {extra['samples_beyond_tail']} beyond it")
        raw = extra["unscaled"]
        print(f"  {'timings scaled by speed factor':42s} {extra['speed_factor']:14.6g}"
              f" ({extra['speed_probes']} probes; setup_s per sample); unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        print(f"  {'fail_frac':42s} {extra['fail_frac']:14.6g} frac ({failed + missed} of {attempted}:"
              f" {failed} failed, {missed} missed quality checks only)")
        print(f"  {'unconverged_frac':42s} {extra['unconverged_frac']:14.6g} frac"
              f" ({extra['unconverged'][0]} of {extra['unconverged'][1]} mle_reconstruct calls)")
    else:
        print(f"  tracing overhead over {extra['requests_traced']} paired requests;"
              f" {extra['spans']} spans in {extra['spans_file']}")
    print("  failed checks: " + (", ".join(f"{k} {v}" for k, v in sorted(checks.items())) or "none"))
    print(f"  env: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']},"
          f" loadavg {env['loadavg_start']} -> {env['loadavg_end']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({**result, "quality_missed": missed, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "extra": extra,
                   "failed_checks": dict(checks), "environment": env}, fh, indent=2)
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        lines = out.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.probe and args.workload == "all":
        ap.error("--probe needs one workload")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_tmp") as workdir:
        wl = setup(args.workload, args.seed, workdir)
        setup_s = perf_counter() - T0
        if args.probe:
            print(repr(setup_s))
            return None
        loadavg_start = read_loadavg()
        if args.trace:
            metrics, extra, phases = run_traced(args, wl)
        else:
            metrics, extra, phases = run_untraced(args, wl, setup_s)
        env = environment()
        env["loadavg_start"], env["loadavg_end"] = loadavg_start, read_loadavg()
        report(args, metrics, extra, phases, env)
    return None


if __name__ == "__main__":
    main()
