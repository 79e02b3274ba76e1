"""
One benchmark pass in a fresh process.

    python3 worker.py --workload NAME --seed N [--scale full|small]
                      [--setup-only] [--trace-out PATH]

Set-up (library import, input generation from the seed, and for
`cli-session` one `blobcell --help`) ends with a line `READY <loops_s>
<scale>` on stdout; run.py times process spawn to that line, less the
`loops_s` seconds of reference loops run in set-up, and turns that into
reference seconds with `scale` (see SpeedProbe).  The worker then runs the
task list once, closed loop, timing each task's call and checking its
result afterwards, and prints one JSON line with the per-task figures.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import time

from harness import SCALES, WORKLOADS, CheckFailed, digest, load_goldens
from speedprobe import SpeedProbe

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def run_tasks(tasks, goldens: dict, tracer=None, cpu_who=resource.RUSAGE_SELF,
              probe: SpeedProbe | None = None):
    """
    Run the task list once; a failure is recorded, never raised.  Each task
    records its wall and CPU seconds ("s", "cpu_s"), less what the speed
    probe ran inside it (here, or in a probed CLI child), and, given a
    probe, the same in reference seconds ("ref_s", "ref_cpu_s"), scaled by
    the loop times sampled from the mark before the task to the mark after
    it (see speedprobe).
    """
    state = {"goldens": goldens}
    results = []
    mark = probe.mark() if probe else None
    for task in tasks:
        result = error = error_type = None
        c0, t0 = _cpu(cpu_who), time.perf_counter()
        try:
            if tracer is None:
                result = task.call(state)
            else:
                result = tracer.task(task.name, task.call, state)
        except Exception as exc:  # a crash in the library is a failed task
            error, error_type = f"{type(exc).__name__}: {exc}", type(exc).__name__
        t1, c1 = time.perf_counter(), _cpu(cpu_who)
        probe_s = getattr(result, "probe_s", 0.0)
        if probe:
            probe_s += probe.loops_s(t0, t1)
        entry = {"name": task.name, "s": t1 - t0 - probe_s,
                 "cpu_s": c1 - c0 - probe_s}
        if probe:
            first, mark = mark, probe.mark()
            scale = probe.scale(first, mark, getattr(result, "loops", ()))
            entry["ref_s"] = entry["s"] * scale
            entry["ref_cpu_s"] = entry["cpu_s"] * scale
        if error is None:
            if hasattr(result, "stdout"):
                entry["out_bytes"] = len(result.stdout)
            t2 = time.perf_counter()
            try:
                out = task.check(result, state)
                if task.golden is not None:
                    want = goldens.get(task.golden)
                    if want is None or digest(out) != want:
                        raise CheckFailed(f"output differs from golden "
                                          f"{task.golden}")
            except Exception as exc:  # a crashing check is a failed check
                error = f"{type(exc).__name__}: {exc}"
                error_type = type(exc).__name__
            entry["check_s"] = time.perf_counter() - t2
        entry["ok"] = error is None
        if error is not None:
            entry["error"] = error[:300]
            entry["error_type"] = error_type
        results.append(entry)
    return results


def build_tasks(workload: str, seed: int, scale, goldens: dict,
                trace_dir: str | None = None):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-session":
        import cli_session

        return cli_session.build(rng, scale, SRC, trace_dir)
    import workloads

    return workloads.build(workload, rng, scale, goldens)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full", choices=sorted(SCALES))
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    in_process = args.workload != "cli-session"
    probe = SpeedProbe()
    first = probe.mark()
    if in_process:  # a CLI child runs while this process waits: marks only
        probe.start()
    goldens = load_goldens()
    trace_dir = None
    if args.trace_out and not in_process:
        trace_dir = os.path.splitext(args.trace_out)[0] + ".d"
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
    tasks = build_tasks(args.workload, args.seed, SCALES[args.scale], goldens,
                        trace_dir)
    startup_s = None
    setup_loops, setup_probe_s = [], 0.0
    if not in_process:
        import cli_session

        t0 = time.perf_counter()
        res = cli_session.run_cli(["--help"], SRC, probed=True)
        startup_s = time.perf_counter() - t0 - res.probe_s
        setup_loops, setup_probe_s = res.loops, res.probe_s
        if res.code != 0:
            print(f"`blobcell --help` exited {res.code}", file=sys.stderr)
            return 1
    last = probe.mark()
    loops_s = sum(c for _, c in probe.samples) + setup_probe_s
    scale = probe.scale(first, last, setup_loops)
    print(f"READY {loops_s!r} {scale!r}", flush=True)
    if args.setup_only:
        probe.stop()
        return 0

    tracer = None
    run_id = f"{args.workload}:{args.seed}"
    if args.trace_out:
        import tracer as tracing

        tracer = tracing.Tracer(run_id)
        if not in_process:
            os.environ[tracing.RUN_ENV] = run_id
        else:
            tracing.install(tracer)
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    if tracer is not None:
        probe.stop()
    try:
        results = run_tasks(tasks, goldens, tracer, who, probe)
    finally:
        probe.stop()
    rss_kb = resource.getrusage(who).ru_maxrss

    if tracer is not None:
        dump = tracer.dump()
        if trace_dir is not None:
            children = []
            for name in sorted(os.listdir(trace_dir)):
                with open(os.path.join(trace_dir, name)) as f:
                    children.append(json.load(f))
            dump = {**tracing.merge([dump] + children), "run": run_id}
        with open(args.trace_out, "w") as f:
            json.dump(dump, f)

    print(json.dumps({
        "tasks": results,
        "rss_mb": rss_kb / 1024,
        "startup_s": startup_s,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
