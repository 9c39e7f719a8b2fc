"""Set-up probe: a fresh process that gets a workload's first job ready.

    python3 perfbench/probe.py <workload> <seed>

Imports msiblockade from the checkout, builds the first seeded job, runs
the workload's warm-up, then prints ``time.monotonic()``; the caller
subtracts the moment it started the process.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import use_checkout_source  # noqa: E402


def main(workload: str, seed: int) -> int:
    if not use_checkout_source():
        return 2
    from perfbench import workloads

    next(workloads.job_stream(workload, seed))
    workloads.warm_up()
    print(time.monotonic())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
