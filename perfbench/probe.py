"""Set-up probe: one fresh interpreter imports the CLI and builds a workload's inputs.

    python3 perfbench/probe.py <workload> <checkout root>

Prints ``time.monotonic()`` once the inputs are built, then the times of
three host-speed chunks (see ``calibrate.py``) run in this same process
afterwards.  ``run.py`` subtracts the time it launched the probe to get one
``setup_s`` sample, and scales it by the chunks.
"""

import sys
import time
from pathlib import Path

import workloads

workloads.setup(Path(sys.argv[2]), sys.argv[1])
ready = time.monotonic()

import calibrate  # noqa: E402  (after set-up, so that its own work is not timed)

calibrate.chunk()   # first calls into numpy pay one-off costs
print(ready, *(calibrate.chunk() for _ in range(3)))
