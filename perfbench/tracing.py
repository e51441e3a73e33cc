"""Span tracer that wraps the package's public functions from outside.

``Tracer.install`` replaces every function named in a module's ``__all__``
with a timing wrapper, in every namespace of the package where a caller
looks the name up: the defining module, the package root and each sibling
module that imported it (``thermalcluster.sweep.mle_reconstruct`` as well as
``thermalcluster.tomography.mle_reconstruct``). ``uninstall`` puts the
originals back. Nothing inside the package is edited.

A span is (id, name, start, end, parent id, thread id, request id, info).
Spans nest through a per-thread stack. A span opened on a thread with an
empty stack while ``run_sweep`` is open (its worker pool) takes the open
``run_sweep`` span as its parent. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import threading
from collections import defaultdict
from statistics import fmean, median
from time import perf_counter

from stats import tail

PACKAGE = "thermalcluster"
MODULES = ("linalg", "graphs", "thermal", "entanglement", "tomography", "mbqc", "sweep", "cli")

# index of each field in a span tuple
SID, NAME, START, END, PARENT, THREAD, REQUEST, INFO = range(8)


def _mle_info(out, args, kwargs, max_iter):
    return (out.iterations, bool(out.converged), kwargs.get("max_iter", max_iter))


def _sweep_info(out, args, kwargs, _default):
    return len(out)


# extra fields recorded from a call's result, keyed by span name
_ANNOTATE = {"tomography.mle_reconstruct": _mle_info, "sweep.run_sweep": _sweep_info}


def public_functions():
    """{span name: function} for every function in a package module's __all__."""
    out = {}
    for short in MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[f"{short}.{name}"] = obj
    return out


def namespaces():
    pkg = importlib.import_module(PACKAGE)
    return [pkg] + [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._sweep_span = None  # id of the open run_sweep span
        self._patched = []  # (namespace, attribute, original)

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self
        annotate = _ANNOTATE.get(name)
        default_max_iter = None
        if annotate is _mle_info:
            default_max_iter = inspect.signature(fn).parameters["max_iter"].default
        is_sweep = name == "sweep.run_sweep"

        def enter():
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._sweep_span
            sid = next(tracer._ids)
            stack.append(sid)
            return stack, parent, sid

        def leave(stack, parent, sid, t0, info=None):
            t1 = perf_counter()
            stack.pop()
            tracer.spans.append(
                (sid, name, t0, t1, parent, threading.get_ident(), tracer.request, info)
            )

        if inspect.isgeneratorfunction(fn):
            # one span per yielded item, covering the work that produced it
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    stack, parent, sid = enter()
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        stack.pop()
                        return
                    except BaseException:
                        leave(stack, parent, sid, t0)
                        raise
                    leave(stack, parent, sid, t0)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, parent, sid = enter()
            if is_sweep:
                outer, tracer._sweep_span = tracer._sweep_span, sid
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                leave(stack, parent, sid, t0)
                raise
            finally:
                if is_sweep:
                    tracer._sweep_span = outer
            info = annotate(out, args, kwargs, default_max_iter) if annotate else None
            leave(stack, parent, sid, t0, info)
            return out

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = public_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        for ns in namespaces():
            for attr, val in list(vars(ns).items()):
                w = wrappers.get(id(val))
                if w is not None and inspect.isfunction(val):
                    self._patched.append((ns, attr, val))
                    setattr(ns, attr, w)

    def uninstall(self):
        while self._patched:
            ns, attr, orig = self._patched.pop()
            setattr(ns, attr, orig)

    # -- output ------------------------------------------------------------

    def dump(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s[SID], "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "thread": s[THREAD], "request": s[REQUEST],
                    "info": s[INFO],
                }) + "\n")


# -- analysis ----------------------------------------------------------------


def union_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(span, children):
    """Span duration minus the part of it that its child spans cover."""
    return (span[END] - span[START]) - union_length(
        [(c[START], c[END]) for c in children], span[START], span[END]
    )


# (name, unit) of every per-layer metric, in output order
PER_LAYER = (
    ("tomography.mle.calls", "calls/req"),
    ("tomography.mle.ms_p50", "ms"),
    ("tomography.mle.ms_tail", "ms"),
    ("tomography.mle.iters_mean", "count"),
    ("tomography.mle.iters_max", "count"),
    ("tomography.mle.at_cap_frac", "frac"),
    ("tomography.mle.us_per_iter", "us"),
    ("tomography.mle.unconverged", "frac"),
    ("tomography.mc.resamples", "calls/req"),
    ("tomography.mc.ms_per_resample", "ms"),
    ("tomography.mc.self_ms", "ms"),
    ("tomography.linear_inversion.calls", "calls/req"),
    ("tomography.linear_inversion.ms_per_call", "ms"),
    ("tomography.simulate.us_per_call", "us"),
    ("tomography.projector_stack.calls", "calls/req"),
    ("sweep.run_sweep.calls", "calls/req"),
    ("sweep.points", "count"),
    ("sweep.self_ms", "ms"),
    ("sweep.threads", "count"),
    ("sweep.child_overlap", "ratio"),
    ("thermal.model.calls", "calls/req"),
    ("thermal.model.us_per_call", "us"),
    ("thermal.gibbs.calls", "calls/req"),
    ("thermal.gibbs.us_per_call", "us"),
    ("entanglement.negativity.calls", "calls/req"),
    ("entanglement.negativity.us_per_call", "us"),
    ("entanglement.transition.ms_per_call", "ms"),
    ("entanglement.transition.model_evals", "count"),
    ("mbqc.prep_fidelity.calls", "calls/req"),
    ("mbqc.prep_fidelity.us_per_call", "us"),
    ("linalg.fidelity.calls", "calls/req"),
    ("linalg.fidelity.us_per_call", "us"),
    ("graphs.graph_state.calls", "calls/req"),
    ("graphs.hamiltonian.calls", "calls/req"),
    ("cli.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def _mean(xs):
    return fmean(xs) if xs else 0.0


def layer_metrics(spans, n_requests):
    """Per-layer values from traced spans; counts are per request.

    Per-call times are inclusive span durations; ``self_ms`` values subtract
    the union of child spans. A layer with no calls reports 0.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)
    n_req = max(n_requests, 1)

    def dur(s):
        return s[END] - s[START]

    def calls(name):
        return len(by_name[name]) / n_req

    def mean_dur(name, scale):
        return scale * _mean([dur(s) for s in by_name[name]])

    m = {}
    mle = by_name["tomography.mle_reconstruct"]
    mle_ms = [1e3 * dur(s) for s in mle]
    iters = [s[INFO][0] for s in mle]
    m["tomography.mle.calls"] = calls("tomography.mle_reconstruct")
    m["tomography.mle.ms_p50"] = median(mle_ms) if mle_ms else 0.0
    m["tomography.mle.ms_tail"] = tail(mle_ms)[1] if mle_ms else 0.0
    m["tomography.mle.iters_mean"] = _mean(iters)
    m["tomography.mle.iters_max"] = float(max(iters, default=0))
    m["tomography.mle.at_cap_frac"] = _mean([float(s[INFO][0] >= s[INFO][2]) for s in mle])
    m["tomography.mle.us_per_iter"] = 1e3 * sum(mle_ms) / sum(iters) if sum(iters) else 0.0
    m["tomography.mle.unconverged"] = _mean([float(not s[INFO][1]) for s in mle])

    mc = by_name["tomography.monte_carlo_states"]
    m["tomography.mc.resamples"] = calls("tomography.monte_carlo_states")
    m["tomography.mc.ms_per_resample"] = mean_dur("tomography.monte_carlo_states", 1e3)
    m["tomography.mc.self_ms"] = 1e3 * _mean([self_time(s, children[s[SID]]) for s in mc])

    m["tomography.linear_inversion.calls"] = calls("tomography.linear_inversion")
    m["tomography.linear_inversion.ms_per_call"] = mean_dur("tomography.linear_inversion", 1e3)
    m["tomography.simulate.us_per_call"] = mean_dur("tomography.simulate_counts", 1e6)
    m["tomography.projector_stack.calls"] = calls("tomography.projector_stack")

    sweeps = by_name["sweep.run_sweep"]
    m["sweep.run_sweep.calls"] = calls("sweep.run_sweep")
    m["sweep.points"] = _mean([float(s[INFO]) for s in sweeps])
    m["sweep.self_ms"] = 1e3 * _mean([self_time(s, children[s[SID]]) for s in sweeps])
    # threads that ran the sweep's children other than its caller; 1 when serial
    m["sweep.threads"] = _mean([
        float(len({c[THREAD] for c in children[s[SID]]} - {s[THREAD]}) or 1) for s in sweeps
    ])
    sweep_time = sum(dur(s) for s in sweeps)
    child_time = sum(dur(c) for s in sweeps for c in children[s[SID]])
    m["sweep.child_overlap"] = child_time / sweep_time if sweep_time else 0.0

    m["thermal.model.calls"] = calls("thermal.thermal_state_model")
    m["thermal.model.us_per_call"] = mean_dur("thermal.thermal_state_model", 1e6)
    m["thermal.gibbs.calls"] = calls("thermal.gibbs_state")
    m["thermal.gibbs.us_per_call"] = mean_dur("thermal.gibbs_state", 1e6)

    trans = by_name["entanglement.transition_points"]
    m["entanglement.negativity.calls"] = calls("entanglement.negativity")
    m["entanglement.negativity.us_per_call"] = mean_dur("entanglement.negativity", 1e6)
    m["entanglement.transition.ms_per_call"] = mean_dur("entanglement.transition_points", 1e3)
    m["entanglement.transition.model_evals"] = _mean([
        float(sum(c[NAME] == "thermal.thermal_state_model" for c in children[s[SID]]))
        for s in trans
    ])

    m["mbqc.prep_fidelity.calls"] = calls("mbqc.average_preparation_fidelity")
    m["mbqc.prep_fidelity.us_per_call"] = mean_dur("mbqc.average_preparation_fidelity", 1e6)
    m["linalg.fidelity.calls"] = calls("linalg.fidelity")
    m["linalg.fidelity.us_per_call"] = mean_dur("linalg.fidelity", 1e6)
    m["graphs.graph_state.calls"] = calls("graphs.build_graph_state")
    m["graphs.hamiltonian.calls"] = calls("graphs.parent_hamiltonian")

    # argument parsing, config, provenance and emit: main minus its run_sweep
    m["cli.self_ms"] = 1e3 * _mean([
        self_time(s, [c for c in children[s[SID]] if c[NAME] == "sweep.run_sweep"])
        for s in by_name["cli.main"]
    ])
    return m
