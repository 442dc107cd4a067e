"""Host speed, sampled with fixed reference work between operations.

On a shared host the same work can take up to twice as long for tens of
seconds at a time, because of load outside this process (on a 2-vCPU Intel
Xeon VM, one gausschar cell measured 0.18-0.34 s within one minute, with
process time equal to wall time).  Runs of a few tens of seconds then
disagree by 20-40% whatever they measure.  The benchmark therefore times
fixed reference work between operations and divides each operation's time
by the host's speed factor around it: the reference's time over its time
on that host when uncontended.  Times reported this way are in reference
seconds; the raw times stay in the run record.

Two references, each matched to the work it scales:

* in-process operations: an exact integer convolution and fold, the shape
  of the package's hot loop (``cpu_speed``);
* operations that start an interpreter (CLI commands, set-up probes): a
  bare ``python -c pass`` (``start_speed``), which tracks those far better
  than any in-process kernel.

Both are the benchmark's own work; no change to the package can make them
faster or slower.
"""

from __future__ import annotations

import random
import statistics
import time

_now = time.perf_counter

#: Reference times on a 2-vCPU Intel Xeon host at its fast state (seconds).
KERNEL_NOMINAL_S = 0.0041
START_NOMINAL_S = 0.055

_rng = random.Random(0)
_A = [_rng.randrange(-9, 10) for _ in range(48)]
_B = [_rng.randrange(-9, 10) for _ in range(48)]


def kernel_seconds():
    """Time of 28 schoolbook products of two length-48 integer vectors."""
    t0 = _now()
    n = len(_A)
    for _ in range(28):
        conv = [0] * (2 * n - 1)
        for i, ai in enumerate(_A):
            if ai:
                k = i
                for bj in _B:
                    conv[k] += ai * bj
                    k += 1
        out = conv[:n]
        for e in range(n, 2 * n - 1):
            out[e - n] -= conv[e]
    return _now() - t0


class HostSpeed:
    """Speed factors (1.0 = nominal, 2.0 = half speed) around operations.

    ``probe`` runs the reference once and returns its seconds; a new sample
    is taken after an operation once ``every_s`` has passed since the last.
    """

    def __init__(self, probe, nominal_s, every_s):
        self._probe, self._nominal_s, self._every_s = probe, nominal_s, every_s
        self.samples = []
        self._value = self._sample()

    def _sample(self):
        factor = self._probe() / self._nominal_s
        self.samples.append(factor)
        self._taken = _now()
        return factor

    def around(self):
        """Factor for the operation that just ended: the median of the last
        five samples, the newest taken after the operation unless the last
        one is recent.  The median drops a sample the scheduler interrupted;
        the slow and fast phases of the host last seconds, longer than five
        samples."""
        if _now() - self._taken >= self._every_s:
            self._sample()
            self._value = statistics.median(self.samples[-5:])
        return self._value


def cpu_speed():
    return HostSpeed(kernel_seconds, KERNEL_NOMINAL_S, every_s=0.1)


def start_speed(spawn):
    """Speed of starting an interpreter; ``spawn(args)`` runs one child."""
    def bare_start():
        t0 = _now()
        spawn(["-c", "pass"])
        return _now() - t0
    return HostSpeed(bare_start, START_NOMINAL_S, every_s=0.2)
