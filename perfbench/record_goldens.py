"""
Record goldens.json: digests of every workload's outputs, computed by the
library at the commit being recorded (the benchmark's seed commit).

    PYTHONPATH=src python3 perfbench/record_goldens.py

`hecke-products` is recorded over all of W_4, so that any seeded sample
finds its digests.  Every check must pass while recording; a failing check
stops the recording.  Per-task times go to stdout, for sizing workloads.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from blobcell import tables  # noqa: E402

import cli_session  # noqa: E402
import workloads  # noqa: E402
from harness import GOLDENS_PATH, SCALES, WORKLOADS, digest  # noqa: E402
from worker import SRC  # noqa: E402


def record(tasks, goldens: dict) -> None:
    state = {"goldens": goldens}
    for task in tasks:
        t0 = time.perf_counter()
        result = task.call(state)
        dt = time.perf_counter() - t0
        out = task.check(result, state)
        if task.golden is not None:
            goldens[task.golden] = digest(out)
        print(f"{dt:8.3f}  {task.name}", flush=True)


def main() -> None:
    goldens = {"kleshchev_rows": {
        f"{e},{m}": {str(lam): [list(p) for p in b] for lam, b in rows.items()}
        for (e, m), rows in sorted(tables.KLESHCHEV_TABLES.items())}}
    for scale_name, sc in SCALES.items():
        for name in WORKLOADS:
            print(f"== {name} ({scale_name})", flush=True)
            rng = random.Random(0)
            if name == "hecke-products":
                tasks = workloads.hecke_products(
                    rng, sc, population=scale_name == "full")
            elif name == "cli-session":
                tasks = cli_session.build(rng, sc, SRC)
            else:
                tasks = workloads.build(name, rng, sc, goldens)
            record(tasks, goldens)
    with open(GOLDENS_PATH, "w") as f:
        json.dump(goldens, f, indent=0, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
