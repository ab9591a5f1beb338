"""One set-up measurement in a fresh interpreter.

Usage: python3 bench/setup_probe.py WORKLOAD SEED

Imports the library, builds the workload's shared state and takes the first
item, then prints time.monotonic() at that moment.  The caller notes
time.monotonic() just before starting this process (CLOCK_MONOTONIC is
system-wide on Linux), so the difference is set-up time from a fresh
interpreter, interpreter start-up included.
"""

import sys
import time

import workloads

if __name__ == "__main__":
    workloads.prepare_process()
    ctx = workloads.setup(sys.argv[1], int(sys.argv[2]))
    next(workloads.items(ctx))
    print(repr(time.monotonic()))
