"""One set-up in a fresh interpreter: import obliquecone, then warm a workload up.

    python3 perfbench/setup_probe.py <workload>

Prints {"import_s": ..., "warm_up_s": ...} as measured inside the child; the
parent times the whole child, interpreter start and exit included.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import obliquecone  # noqa: E402,F401

imported = time.perf_counter()

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].warm_up()
print(json.dumps({"import_s": imported - start, "warm_up_s": time.perf_counter() - imported}))
