"""Set-up probe: a fresh interpreter imports qkd2way and builds one workload's inputs.

    python3 perfbench/probe.py <workload> <seed>

Prints one JSON line as soon as the inputs exist; ``run.py`` times the
process from spawn to that line, which is the benchmark's set-up time.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import qkd2way  # noqa: F401  (timed: the package import)
    imported = time.perf_counter()
    import workloads

    workloads.build_inputs(workload, seed)
    built = time.perf_counter()
    print(f'{{"import_s": {imported - started!r}, "build_s": {built - imported!r}}}', flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
