"""Time one set-up of a workload in a fresh interpreter.

Set-up is what a user pays before the first scenario runs: import
``repro``, generate the workload's scenarios and open the result store.
``perfbench/run.py`` starts this script several times and reports the
median as ``setup_s``::

    python3 perfbench/setup_probe.py WORKLOAD SEED SIZE STORE_PATH

The only line printed holds the seconds taken and the machine's slowdown
right after (see ``perfbench/speed.py``).
"""

import sys
import time
from pathlib import Path

#: reference-loop samples taken after the set-up
PROBES = 9


def main(argv: list) -> int:
    start = time.perf_counter()
    name, seed, size, store_path = argv
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    import repro  # noqa: F401  (the import is part of what is timed)
    from repro.store import ResultStore

    from perfbench import workloads

    workloads.build(name, int(seed), size)
    store = ResultStore(store_path)
    elapsed = time.perf_counter() - start
    store.close()
    from perfbench import speed

    slowdown = speed.slowdown([speed.reference_s() for _ in range(PROBES)])
    print(repr(elapsed), repr(slowdown))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
