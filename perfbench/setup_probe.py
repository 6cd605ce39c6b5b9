"""Time one set-up of a workload's target in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <scratch dir>

Prints one JSON object: ``import_s`` (``import repro``) and ``setup_s``
(from before that import until the service or cluster can admit work;
for a cluster, every replica has answered ``init``).  The target is then
closed, untimed.
"""

import json
import os
import sys
import time

from targets import build_target

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> None:
    workload, scratch = sys.argv[1], sys.argv[2]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    began = time.perf_counter()
    import repro  # noqa: F401  (timed: the package's cold import)

    imported = time.perf_counter()
    target = build_target(workload, scratch)
    ready = time.perf_counter()
    target.close()
    print(json.dumps({"import_s": imported - began, "setup_s": ready - began}))


if __name__ == "__main__":
    main()
