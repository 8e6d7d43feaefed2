"""Set-up alone, in a fresh process: import charflow, validate the run's
configs and generate its inputs.  The benchmark times this script for
setup_s.

    python3 perfbench/setup_probe.py WORKLOAD SEED CYCLES
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    workload, seed, cycles = sys.argv[1:4]
    WORKLOADS[workload].setup(int(seed), int(cycles))
