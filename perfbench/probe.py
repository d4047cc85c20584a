"""Host-speed probe: a fixed kernel of the benchmark's own, timed right
next to the program's work, so that timings can be reported at one
reference host speed.

The shared host this benchmark was built on runs the same code up to 1.8x
slower for minutes at a time: the same warm-rerun op list took 7.2 s to
12.8 s over 32 back-to-back rounds, and a 25 ms pure-Python loop's median
moved from 23 to 36 ms between 5-second windows.  Run interleaved with the
program's ops, the probe slows with them: over those 32 rounds a round's
op time and its median probe time correlated at 0.89.

The program does not always slow as much as the probe.  Fitting
log(op time) against log(probe time) per round gave a slope of 0.73 on
warm-rerun (32 rounds) and 0.41-0.60 on cold-sweep (two seeds, 5-6
rounds each), whose numpy-heavy ops slow less.  So timings are scaled by
the probe ratio raised to a per-workload exponent (:data:`SENSITIVITY`),
chosen on those rounds for the statistic a run reports, the median over
its three or four rounds.  For warm-rerun, four-round medians spread
(quartile distance over median) 11% raw, 7% with exponent 0.75 and 3%
with 1.  For cold-sweep, rounds spread 13% raw, 3% with 0.6 and 15% with
1.

serve-mix's work runs in the daemon, and its probe is taken in the
benchmark process just before and after the load, while the daemon is
idle, so it tracks the load more loosely: over 16 back-to-back rounds the
slopes were 0.24-0.34.  Its exponent is 0.3, which cut the spread of
single rounds from 15% to 10% (wall time), 14% to 9% (median latency) and
19% to 11% (tail latency); the full ratio widened them to 26-31%.

The kernel mixes what the program spends its time on: an interpreted loop
over a dict and small integers, and numpy array arithmetic.  Its code
never changes with the program's, so a change that makes the program
faster or slower moves the scaled times by the same share as the raw ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List

import numpy as np

#: The probe's median time on a quiet host (2-vCPU KVM guest, Xeon of the
#: Sapphire Rapids class).  Scaled timings read as seconds on a host where
#: the probe takes this long.
REFERENCE_S = 0.0035
#: How strongly each workload's time follows the probe's (see above).
SENSITIVITY = {"cold-sweep": 0.6, "warm-rerun": 1.0, "serve-mix": 0.3}
#: Probe samples are taken after every op: one, plus one per this many
#: seconds the op took, so samples follow the run's time, not its op count.
EVERY_S = 0.1
#: Samples taken before and after a serve-mix load phase.
SERVE_SAMPLES = 40


def kernel() -> int:
    table: dict = {}
    total = 0
    for i in range(12_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
        total += i * 3 % 7
    values = np.arange(40_000, dtype=np.int64)
    for _ in range(5):
        values = (values * 31 + 7) % 1_000_003
    return total + int(values[-1])


def sample(count: int) -> List[float]:
    """Time ``count`` runs of the kernel, one by one."""
    times = []
    for _ in range(count):
        started = perf_counter()
        kernel()
        times.append(perf_counter() - started)
    return times


def after(op_seconds: float) -> List[float]:
    """The samples to take after an op that took ``op_seconds``."""
    return sample(1 + int(op_seconds / EVERY_S))


def scale(workload: str, probe_s: List[float]) -> float:
    """The factor that turns a round's raw seconds into seconds at the
    reference host speed."""
    return (REFERENCE_S / statistics.median(probe_s)) ** SENSITIVITY[workload]
