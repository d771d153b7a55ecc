"""Set-up probe: time for a fresh interpreter to import pga_hoare and return
the workload's warm-up verdict.  Prints the seconds taken, host-normalized
like every benchmark time (see calibrate.py); exits 1 when the verdict is
wrong.

Usage: python3 perfbench/setup_probe.py <workload>
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(workload):
    sys.path.insert(0, str(HERE.parent / "src"))
    import calibrate
    import workloads

    op = workloads.warmup(workload)
    before = calibrate.reference_seconds()
    start = time.perf_counter()
    import ops  # imports pga_hoare

    wrong = ops.execute(op)
    elapsed = time.perf_counter() - start
    after = calibrate.reference_seconds()
    if wrong:
        print(f"warm-up verdict wrong: {wrong}", file=sys.stderr)
        return 1
    print(repr(elapsed * calibrate.REFERENCE_S / ((before + after) / 2)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
