"""Set-up probe: time one fresh interpreter's import and warm-up.

Usage: probe.py <workload> <seed> [--smoke].  Prints the seconds from just
before ``import gausschar`` to the end of the workload's warm-up.  The
package path comes from PYTHONPATH, which the benchmark sets.
"""

import sys
import time

import workloads

workload = workloads.make(sys.argv[1], int(sys.argv[2]), "--smoke" in sys.argv[3:])
t0 = time.perf_counter()
import gausschar  # noqa: E402

workload.prepare(gausschar)
print(time.perf_counter() - t0)
