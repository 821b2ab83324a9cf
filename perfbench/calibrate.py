"""A fixed reference kernel that gauges how fast the host runs right now.

The benchmark's host is shared: its speed drifts by 20-30% over minutes and
flips between two speeds within seconds, and every command slows together
with it.  Each timed command is preceded by a few samples of this kernel, a
mix of the small numpy operations and Python-level loops that jmsched runs.
A command's time is then scaled by ``REFERENCE_S`` over the mean sample of
its pass (or set-up), which turns it into seconds at the reference speed.
The mean, not the median: a command's time adds up the fast and the slow
stretches it ran through, and the median of a two-speed mix jumps between
the speeds.
The kernel is the benchmark's own code, so a change to jmsched cannot move
it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# about the mean time of one sample inside benchmark runs on the 2-vCPU
# host the reference figures come from (perfbench/README.md); scaled times
# are seconds at that speed
REFERENCE_S = 0.0125
SAMPLES_PER_COMMAND = 3
SAMPLES_PER_SETUP = 12

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((40, 40))
_x = _rng.standard_normal(20000)


def sample() -> float:
    """Wall time of one run of the reference kernel."""
    start = perf_counter()
    for _ in range(30):
        _A @ _A
        np.exp(np.tanh(_x)).sum()
        np.sort(_x[:5000])
        acc = 0.0
        for i in range(3000):
            acc += i * 0.5
    return perf_counter() - start
