"""Set-up time: import cclab and build one workload's configuration.

    python3 bench/setup_probe.py WORKLOAD SEED [tiny]

Run in a fresh process by run.py; prints the seconds that took, scaled
to the reference machine speed (see calibrate.py).  Only modules that
cclab itself needs are imported before the clock starts.
"""

import os
import sys
import time

start = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))
import cclab  # noqa: E402,F401
import workloads  # noqa: E402

workloads.make(sys.argv[1], tiny=sys.argv[3:] == ["tiny"]).build(int(sys.argv[2]))
elapsed = time.perf_counter() - start

import statistics  # noqa: E402

import calibrate  # noqa: E402

print(calibrate.scaled(elapsed, statistics.median(calibrate.loop_seconds() for _ in range(9))))
