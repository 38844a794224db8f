"""Time one fresh process's set-up: import csdsim, build and validate configs.

Usage: python3 setup_probe.py <workload>   (with the repo's src/ on PYTHONPATH)

Prints the elapsed seconds as its only line of output.
"""

import sys
import time

start = time.perf_counter()

import csdsim  # noqa: E402
from csdsim.config import validate_config  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

for cfg in [csdsim.RunConfig(), *WORKLOADS[sys.argv[1]].configs()]:
    validate_config(cfg)

print(repr(time.perf_counter() - start))
