"""
The blobcell benchmark: one workload, one seed, one measurement.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of the workload's task list
runs in a fresh single-threaded process (worker.py), after four spawns
that only set up; these rounds repeat, one process at a time, while the
next one still fits in S seconds (at least one runs).

--trace 0 prints the end-to-end metrics.  Time metrics are in reference
seconds: a shared host swings this process's speed by up to half over
milliseconds to minutes, so each task's time is scaled by the speed sampled
with a fixed reference loop during and around that task (speedprobe.py).
Every pass runs the same task list, and each task's figure is its median
over the passes:
  setup_s      spawn -> ready to run the first task, median over spawns
  wall_s       time of the task list: sum of the task medians
  cpu_s        user+sys CPU of the task list (children's for cli-session)
  max_task_s   the longest task: largest task median
  peak_rss_mb  peak RSS of the pass process (largest child in cli-session),
               median over passes
The same figures in measured seconds are printed on `# measured` lines.
--trace 1 runs one untraced and one traced pass and prints the per-layer
metrics (see tracer.py); the trace is written to .bench_build/perfbench/.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  The lines before it record the machine and every failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from statistics import median

from harness import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

SETUPS_PER_PASS = 4  # set-up-only spawns before each pass
MIN_SETUPS = 15      # set-up samples per run, pass spawns included
RUN_DEADLINE_S = 170  # every process of a run ends by then, or the run fails


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")


def spawn(workload: str, seed: int, deadline: float, *extra: str):
    """
    Run worker.py once; returns ((seconds from spawn to READY, the same in
    reference seconds), result).
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(),
                            text=True)
    watchdog = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    word, *probe = ready.split()
    if word != "READY" or len(probe) != 2 or proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    loops_s, scale = map(float, probe)
    lines = rest.strip().splitlines()
    setup_s -= loops_s
    return ((setup_s, setup_s * scale),
            json.loads(lines[-1]) if lines else None)


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def src_sha256() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": git_sha(), "src_sha256": src_sha256(),
            "cpu_model": cpu_model(), "loadavg": list(os.getloadavg())}


def timed_run(args, deadline: float):
    """
    Returns (metrics in reference seconds, the same figures in measured
    seconds, passes).
    """
    spawn(args.workload, args.seed, deadline, "--setup-only")  # warm-up
    setups, passes = [], []
    start = time.perf_counter()
    while True:  # rounds of set-up-only spawns and one pass
        t0 = time.perf_counter()
        for _ in range(SETUPS_PER_PASS):
            setups.append(spawn(args.workload, args.seed, deadline,
                                "--setup-only")[0])
        setup, result = spawn(args.workload, args.seed, deadline)
        setups.append(setup)
        passes.append(result)
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(args.workload, args.seed, deadline,
                            "--setup-only")[0])
    rss = median(p["rss_mb"] for p in passes)

    def figures(setup_index: int, wall_key: str, cpu_key: str) -> dict:
        wall = task_medians(passes, wall_key)
        return {
            "setup_s": median(s[setup_index] for s in setups),
            "wall_s": sum(wall),
            "cpu_s": sum(task_medians(passes, cpu_key)),
            "max_task_s": max(wall),
            "peak_rss_mb": rss,
        }
    return figures(1, "ref_s", "ref_cpu_s"), figures(0, "s", "cpu_s"), passes


def task_medians(passes: list[dict], key: str) -> list[float]:
    """Each task's median figure over the passes (same seed, same tasks)."""
    names = [t["name"] for t in passes[0]["tasks"]]
    if any([t["name"] for t in p["tasks"]] != names for p in passes):
        raise WorkerFailed("passes ran different task lists")
    return [median(v) for v in zip(*([t[key] for t in p["tasks"]]
                                     for p in passes))]


def traced_run(args, deadline: float):
    import tracer

    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_path = os.path.join(TRACE_DIR,
                              f"trace-{args.workload}-{args.seed}.json")
    _, plain = spawn(args.workload, args.seed, deadline)
    _, traced = spawn(args.workload, args.seed, deadline,
                      "--trace-out", trace_path)
    with open(trace_path) as f:
        layers = tracer.layer_metrics(json.load(f))
    if args.workload == "cli-session":
        layers.update(tracer.cli_metrics(plain["tasks"], plain["startup_s"]))
    else:
        layers.update(tracer.cli_metrics([], 0.0))
    layers["trace.overhead_s"] = (sum(t["s"] for t in traced["tasks"])
                                  - sum(t["s"] for t in plain["tasks"]))
    print(f"# trace written to {os.path.relpath(trace_path, ROOT)}")
    return layers, [plain, traced]


def with_units(values: dict, listed: list[dict]) -> dict:
    """Exactly the metrics BENCHMARK.json lists, as (value, unit)."""
    return {m["name"]: (values[m["name"]], m["unit"]) for m in listed}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "blobcell", "cli.py")):
        print(f"error: no blobcell sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_DEADLINE_S
    print("# env " + json.dumps(environment(args)))

    with open(SPEC_PATH) as f:
        spec = json.load(f)
    try:
        if args.trace:
            values, passes = traced_run(args, deadline)
            measured = {}
        else:
            values, measured, passes = timed_run(args, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    probes = []
    if args.workload == "cli-session":
        import cli_session

        probes = cli_session.run_probes(SRC)
        if args.trace:
            values["cli.contract_violations"] += sum(not p["ok"] for p in probes)
    metrics = with_units(values, spec["per_layer" if args.trace else "end_to_end"])

    tasks = [t for p in passes for t in p["tasks"]]
    failed = [t for t in tasks if not t["ok"]]
    for t in failed:
        print(f"# FAILED {t['name']}: {t['error']}")
    bad_probes = [p for p in probes if not p["ok"]]
    for p in bad_probes:
        print(f"# known defect {p['name']}: {p['error']}")
    print(f"# passes {len(passes)}, tasks {len(tasks)}, failed {len(failed)}")
    print(f"# error_rate {len(failed) / len(tasks):.4f} "
          f"(contract probes violated: {len(bad_probes)} of {len(probes)}; "
          f"with them {(len(failed) + len(bad_probes)) / (len(tasks) + len(probes)):.4f})")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for name, value in measured.items():
        if name != "peak_rss_mb":
            print(f"# measured {name} = {value:.6g} s")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(tasks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
