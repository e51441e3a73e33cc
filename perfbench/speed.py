"""The machine's speed during a run, from a fixed probe kernel.

The benchmark runs on shared virtual machines whose speed drifts by up to
1.7x over tens of seconds to minutes, from work outside the machine: over
the same minute, a fixed 20 ms loop's 10th-percentile time moved by 7%
while its median moved by 28%. A whole run can fall in a slow phase, so raw
wall-clock timings of the same code spread past the benchmark's bounds.

Between requests, and around each setup sample, the benchmark runs this
probe, a fixed kernel of small matrix products that never touches the
package. A speed factor is the probe's undisturbed time (its 10th
percentile over the whole run) over its mean time around the timed work: close to 1 on a quiet machine, lower the more the machine is slowed.
Timings multiplied by it estimate what the same work takes at the
machine's undisturbed speed, as far as the package's code slows as much as
the probe does.
"""

from __future__ import annotations

from statistics import fmean
from time import perf_counter

import numpy as np

import stats

# probe time after each request, as a share of the request's latency
SHARE = 0.05
# probe time before and after each setup sample, in seconds
AROUND_SETUP_S = 0.02
MIN_PROBES = 2
_REPS = 60
_rng = np.random.default_rng(0)
_A = (_rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))) / 8


def probe():
    """Time one run of the probe kernel (about 0.4 ms), in seconds."""
    t0 = perf_counter()
    x = _A
    for _ in range(_REPS):
        x = x @ _A
        x = x / abs(np.trace(x))
    return perf_counter() - t0


def sample(samples, seconds):
    """Append probe times to ``samples`` for ``seconds`` of probing."""
    spent, n = 0.0, 0
    while spent < seconds or n < MIN_PROBES:
        t = probe()
        samples.append(t)
        spent += t
        n += 1


def undisturbed(samples):
    """The probe's time at the machine's undisturbed speed: its 10th percentile."""
    return stats.percentile(samples, 10.0)


def factor(samples, reference):
    """``reference`` (an undisturbed probe time) over the mean of ``samples``."""
    return reference / fmean(samples)
