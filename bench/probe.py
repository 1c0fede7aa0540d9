"""Set-up probe: import stepharm and finish the workload's warm-up.

    python3 bench/probe.py <workload>

Prints the seconds from the first statement of this fresh interpreter to
the end of the warm-up; for ``cli`` it stops after importing
``stepharm.cli``.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent

if __name__ == "__main__":
    sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]
    workload = sys.argv[1]
    if workload == "cli":
        import stepharm.cli  # noqa: F401
    else:
        import stepharm  # noqa: F401
        import workloads

        workloads.warm_up(workload)
    print(time.perf_counter() - START)
