"""
The `cli-session` workload: a fixed sequence of fresh `blobcell` processes,
one at a time, as a desk user would type them.  Each command's exit code
and exact stdout bytes are checked against goldens recorded at the seed
commit; usage errors must exit 2 without a traceback.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field

from harness import HERE, ContractViolation, Scale, Task, check, random_window
from speedprobe import read_child_probe

# (name, argv, extra environment, expected exit code).
CLI_COMMANDS = (
    ("wb count", ["wb", "enumerate", "4", "--count"], {}, 0),
    ("domino insert", ["domino", "insert", "--", "2", "3", "-1"], {}, 0),
    ("knuth class", ["knuth", "class", "--", "2", "-3", "1"], {}, 0),
    ("klbasis 3", ["klbasis", "3"], {}, 0),
    ("klbasis 4", ["klbasis", "4"], {}, 0),
    ("cells 3 json", ["cells", "3", "--format", "json"], {}, 0),
    ("ideal check 3", ["ideal", "check", "3"], {}, 0),
    ("blob dims json", ["blob", "dims", "5", "--format", "json"], {}, 0),
    ("blob standard", ["blob", "standard", "4", "0"], {}, 0),
    ("blob verify", ["blob", "verify", "4"], {}, 0),
    ("cellcompare 3", ["cellcompare", "3"], {}, 0),
    ("tensor check 5", ["tensor", "check", "5"], {}, 0),
    ("fock canonical 10", ["fock", "canonical", "--", "10", "3", "-1", "0"],
     {}, 0),
    ("decomp 10", ["decomp", "10", "3", "2"], {}, 0),
    ("kleshchev 10", ["kleshchev", "10", "3", "2"], {}, 0),
    ("tables paper", ["tables", "--paper"], {}, 0),
    ("usage wb 0", ["wb", "enumerate", "0"], {}, 2),
    ("usage nonsense", ["nonsense"], {}, 2),
    ("usage e!=2m-1", ["kleshchev", "4", "4", "2"], {}, 2),
    ("usage window", ["domino", "insert", "--", "1", "1"], {}, 2),
)

# The three inputs of ROADMAP item 4, which end in a traceback (exit 1) at
# the seed commit.  They run once per benchmark run, after the timed passes,
# so that a fix which turns a fast crash into real work does not read as a
# slowdown.  A bound error may exit 2, or exit 0 once the raised cap reaches
# the library; a traceback is never right.
CLI_PROBES = (
    ("probe MAX_N=abc", ["wb", "enumerate", "2"], {"BLOBCELL_MAX_N": "abc"},
     (2,)),
    ("probe cellcompare m=1", ["cellcompare", "2", "-m", "1"], {}, (2,)),
    ("probe MAX_N=13 fock", ["fock", "canonical", "--", "13", "3", "-1", "0"],
     {"BLOBCELL_MAX_N": "13"}, (0, 2)),
)

# What the `blobcell` console script runs; PROBED_ENTRY first has the
# process sample its own speed (see speedprobe.probe_this_process).
CLI_ENTRY = ("import sys; from blobcell.cli import main; "
             "main(prog_name='blobcell')")
PROBED_ENTRY = (f"import sys; sys.path.insert(0, {HERE!r}); import speedprobe; "
                f"speedprobe.probe_this_process(); {CLI_ENTRY}")


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes
    probe_s: float = 0.0  # what a probed child's probe cost it
    loops: list = field(default_factory=list)  # a probed child's loop times


def cli_env(src: str, extra: dict | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    env.update(extra or {})
    return env


def run_cli(argv, src: str, extra_env=None, trace_out: str | None = None,
            probed: bool = False) -> CliResult:
    """
    One fresh `blobcell` process; run under tracer.py when trace_out is set,
    sampling its own speed when `probed`.
    """
    if trace_out is not None:
        cmd = [sys.executable, os.path.join(HERE, "tracer.py"), trace_out, *argv]
    else:
        cmd = [sys.executable, "-c", PROBED_ENTRY if probed else CLI_ENTRY, *argv]
    proc = subprocess.run(cmd, capture_output=True, env=cli_env(src, extra_env),
                          timeout=120)
    stderr, probe_s, loops = read_child_probe(proc.stderr)
    return CliResult(proc.returncode, proc.stdout, stderr, probe_s, loops)


def check_contract(res: CliResult, allowed) -> None:
    if b"Traceback" in res.stderr or res.code not in allowed:
        tail = res.stderr.decode(errors="replace").strip().splitlines()[-1:]
        raise ContractViolation(f"exit {res.code} (allowed {list(allowed)}): "
                                f"{' '.join(tail)[:200]}")


def run_probes(src: str) -> list[dict]:
    out = []
    for name, argv, extra, allowed in CLI_PROBES:
        res = run_cli(argv, src, extra)
        try:
            check_contract(res, allowed)
            error = None
        except ContractViolation as exc:
            error = str(exc)
        out.append({"name": name, "ok": error is None, "error": error})
    return out


def build(rng: random.Random, sc: Scale, src: str,
          trace_dir: str | None = None) -> list[Task]:
    counter = itertools.count()

    def runner(argv, extra=None):
        def call(state):
            out = None if trace_dir is None else \
                os.path.join(trace_dir, f"cli-{next(counter)}.json")
            return run_cli(argv, src, extra, out, probed=out is None)
        return call

    def command(name, argv, extra, code):
        def chk(res, state):
            check_contract(res, (code,))
            return {"code": res.code, "bytes": len(res.stdout),
                    "sha256": hashlib.sha256(res.stdout).hexdigest()}
        return Task(f"cli {name}", runner(argv, extra), chk, f"cli/{name}")

    tasks = [command(*c) for c in CLI_COMMANDS
             if sc.cli_commands is None or c[0] in sc.cli_commands]

    # A seeded window: insert with JSON output, then reverse that pair.
    w = list(random_window(rng, 5))

    def insert_chk(res, state):
        check_contract(res, (0,))
        pair = json.loads(res.stdout)
        check(pair["window"] == w and pair["P"]["shape"] == pair["Q"]["shape"],
              f"domino insert {w}: {pair}")
        state["pair"] = json.dumps({"P": pair["P"], "Q": pair["Q"]})

    def reverse_call(state):
        return runner(["domino", "reverse", state["pair"]])(state)

    def reverse_chk(res, state):
        check_contract(res, (0,))
        check(res.stdout.decode().split() == [str(x) for x in w],
              f"domino reverse gave {res.stdout!r}, expected {w}")

    tasks.append(Task("cli domino insert json (seeded)",
                      runner(["domino", "insert", "--format", "json", "--",
                              *map(str, w)]), insert_chk))
    tasks.append(Task("cli domino reverse (seeded)", reverse_call, reverse_chk))
    return tasks
