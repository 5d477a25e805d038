"""Set-up probe: a fresh interpreter imports arithdyn from the checkout and
finishes one warm-up op of the named workload.  run.py times it for setup_s.

    python3 benchmark/probe.py WORKLOAD
"""

import sys

from run import load_arithdyn
from workloads import WORKLOADS

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]][1](load_arithdyn())
