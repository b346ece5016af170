"""Set-up probe, run in a fresh interpreter by run.py.

Imports weierforms (with its CLI), then makes the workload's first
evaluation, and prints the two times as one JSON line.

    PYTHONPATH=src python3 bench/probe.py <workload> <seed>
"""

from __future__ import annotations

import json
import sys
import time

import workloads

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    setup = workloads.WORKLOADS[name][1]
    t0 = time.perf_counter()
    import weierforms
    import weierforms.cli  # noqa: F401  (the verify workload enters through the CLI)

    t1 = time.perf_counter()
    setup(weierforms, seed)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "first_s": t2 - t1, "module": weierforms.__file__}))
