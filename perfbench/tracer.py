"""
Call tracing for the traced benchmark run, installed from outside the
library by wrapping the public functions of the blobcell modules and the
arithmetic operators of LaurentPoly / CycloNumber.

Every wrapped call adds to a per-function aggregate: calls, inclusive time
and self time (inclusive time minus the time of wrapped calls made inside
it).  Task-level functions (SPAN_FUNCTIONS) also keep one in-memory span
per call: name, start, end, parent span and run id.  Cache hit ratios are
read from the library's `lru_cache`s after the run.  Traced times include
the tracer's own overhead, so compare them only with other traced runs.

Run as a script, it is a traced `blobcell` command:
    python3 tracer.py OUT.json [blobcell arguments...]
which writes its trace to OUT.json when the command ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from statistics import median

MODULES = ("laurent", "weylb", "hecke", "domino", "knuth", "blob", "fock",
           "partitions")

# Only the arithmetic of the scalar classes is wrapped; their queries
# (is_zero, items, ...) are too small to time without distorting the rest.
SCALAR_OPS = {
    "LaurentPoly": ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                    "__pow__", "divide_exact", "bar", "nonpositive_part",
                    "bar_symmetrize_nonpositive"),
    "CycloNumber": ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
                    "__pow__", "inverse", "__truediv__"),
}

# Constructors that do a layer's main work.
INITS = {"KLBasis", "StandardModule"}

SPAN_FUNCTIONS = {
    "hecke.compute_kl_basis", "hecke.KLBasis.__init__", "hecke.left_cells",
    "hecke.KLBasis.left_cell_edges", "hecke.KLBasis.check_bar_invariance",
    "hecke.IdealJn.verify_two_sided", "hecke.IdealJn.generators",
    "hecke.cell_module", "hecke.type_a_kl_compare",
    "hecke.tensor_ideal_annihilates", "hecke.ideal_vanish_symbolic",
    "blob.compare_cell_to_standard", "blob.StandardModule.__init__",
    "blob.verify_presentation", "blob.localize_dimension",
    "blob.regular_representation", "fock.canonical_basis",
    "fock.crystal_paths", "fock.kleshchev_convert", "knuth.knuth_classes",
    "weylb.enumerate_wb",
}

# Environment variables that carry the run id and the parent span into a
# traced `blobcell` process.
RUN_ENV = "PERFBENCH_RUN_ID"
PARENT_ENV = "PERFBENCH_PARENT_SPAN"

# lru_caches whose hit ratio is reported.
CACHES = {
    "laurent.qfact": ("laurent", "quantum_factorial"),
    "weylb.forbidden": ("weylb", "_has_forbidden_word"),
    "knuth.p_tableau": ("knuth", "_p_tableau"),
    "blob.matchings": ("blob", "_noncrossing_matchings"),
}


class Tracer:
    def __init__(self, run_id: str, root_parent: str | None = None):
        self.run_id = run_id
        self.root_parent = root_parent
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive, self]
        self.counters: dict[str, int] = {}
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [time in wrapped children, span id]
        self._ids = 0
        self._prefix = f"{os.getpid()}:"

    def _new_id(self) -> str:
        self._ids += 1
        return f"{self._prefix}{self._ids}"

    def wrap(self, name: str, fn, span: bool = False, on_exit=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else self.root_parent
            sid = self._new_id() if span else parent
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                incl = t1 - t0
                stats[0] += 1
                stats[1] += incl
                stats[2] += incl - frame[0]
                if stack:
                    stack[-1][0] += incl
                if span:
                    self.spans.append({"id": sid, "name": name, "start": t0,
                                       "end": t1, "parent": parent,
                                       "run": self.run_id})
            if on_exit is not None:
                on_exit(self.counters, args, result)
            return result
        return wrapper

    def task(self, name: str, fn, *args):
        """Run fn(*args) as a task span; CLI processes it starts nest under it."""
        sid = self._new_id()
        os.environ[PARENT_ENV] = sid
        self._stack.append([0.0, sid])
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append({"id": sid, "name": f"task {name}", "start": t0,
                               "end": t1, "parent": self.root_parent,
                               "run": self.run_id})

    def dump(self) -> dict:
        return {"run": self.run_id, "stats": self.stats,
                "counters": self.counters, "spans": self.spans,
                "caches": cache_counts()}


def _count_t_terms(counters, args, result):
    counters["hecke.t_terms"] = counters.get("hecke.t_terms", 0) + sum(
        len(x) for x in args[0].c.values())


def _count_edges(counters, args, result):
    counters["hecke.wgraph_edges"] = counters.get("hecke.wgraph_edges", 0) + sum(
        len(ys) for ys in result.values())


def _count_fock_terms(counters, args, result):
    counters["fock.basis_terms"] = counters.get("fock.basis_terms", 0) + sum(
        len(v) for v in result.values())


COUNTERS = {
    "hecke.KLBasis.__init__": _count_t_terms,
    "hecke.KLBasis.left_cell_edges": _count_edges,
    "fock.canonical_basis": _count_fock_terms,
}


def _targets(mod):
    """(owner, attribute, traced name) for each function to wrap in mod."""
    short = mod.__name__.rsplit(".", 1)[-1]
    for attr, obj in list(vars(mod).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
            yield mod, attr, f"{short}.{attr}"
        elif inspect.isclass(obj):
            names = SCALAR_OPS.get(attr)
            for meth, fn in list(vars(obj).items()):
                wanted = (meth in names if names is not None else
                          not meth.startswith("_")
                          or (meth == "__init__" and attr in INITS))
                if (wanted and inspect.isfunction(fn)
                        and not inspect.isgeneratorfunction(fn)):
                    yield obj, meth, f"{short}.{attr}.{fn.__name__}"


def install(tracer: Tracer) -> None:
    """Wrap the library in place; references held by other modules follow."""
    import importlib

    mods = [importlib.import_module(f"blobcell.{m}") for m in MODULES]
    for mod in mods:
        for owner, attr, name in list(_targets(mod)):
            orig = vars(owner)[attr]
            wrapped = tracer.wrap(name, orig, span=name in SPAN_FUNCTIONS,
                                  on_exit=COUNTERS.get(name))
            setattr(owner, attr, wrapped)
            if inspect.ismodule(owner):
                for other in mods:
                    for k, v in list(vars(other).items()):
                        if v is orig:
                            setattr(other, k, wrapped)


def cache_counts() -> dict:
    out = {}
    for key, (mod, attr) in CACHES.items():
        m = sys.modules.get(f"blobcell.{mod}")
        fn = getattr(m, attr, None) if m is not None else None
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[key] = [info.hits, info.misses] if info else [0, 0]
    return out


def merge(dumps: list[dict]) -> dict:
    """Sum the aggregates of several traced processes."""
    stats: dict = {}
    counters: dict = {}
    caches: dict = {}
    spans: list = []
    for d in dumps:
        for k, v in d["stats"].items():
            acc = stats.setdefault(k, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += v[i]
        for k, v in d["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, v in d["caches"].items():
            acc = caches.setdefault(k, [0, 0])
            acc[0] += v[0]
            acc[1] += v[1]
        spans += d["spans"]
    return {"stats": stats, "counters": counters, "caches": caches,
            "spans": spans}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(trace: dict) -> dict:
    """The per-layer metrics (without the cli.* ones) from a merged trace."""
    stats, counters, caches = trace["stats"], trace["counters"], trace["caches"]

    def calls(*names):
        return sum(stats.get(n, [0])[0] for n in names)

    def incl(name):
        return stats.get(name, [0, 0.0])[1]

    def self_s(layer):
        return sum(v[2] for k, v in stats.items() if k.startswith(layer + "."))

    def ratio(key):
        hits, misses = caches.get(key, [0, 0])
        return hits / (hits + misses) if hits + misses else 0.0

    return {
        "laurent.mul_calls": calls("laurent.LaurentPoly.__mul__"),
        "laurent.add_calls": calls("laurent.LaurentPoly.__add__"),
        "laurent.self_s": self_s("laurent"),
        "laurent.cyclo_ops": sum(v[0] for k, v in stats.items()
                                 if k.startswith("laurent.CycloNumber.")),
        "laurent.qfact_hit_ratio": ratio("laurent.qfact"),
        "weylb.length_calls": calls("weylb.length"),
        "weylb.apply_calls": calls("weylb.apply_generator"),
        "weylb.self_s": self_s("weylb"),
        "weylb.forbidden_hit_ratio": ratio("weylb.forbidden"),
        "hecke.kl_build_s": incl("hecke.KLBasis.__init__"),
        "hecke.t_terms": counters.get("hecke.t_terms", 0),
        "hecke.multiply_t_calls": calls("hecke.multiply_t"),
        "hecke.multiply_t_s": incl("hecke.multiply_t"),
        "hecke.c_coordinates_calls": calls("hecke.KLBasis.c_coordinates"),
        "hecke.c_coordinates_s": incl("hecke.KLBasis.c_coordinates"),
        "hecke.bar_s": incl("hecke.bar_involution"),
        "hecke.left_cells_s": incl("hecke.left_cells"),
        "hecke.wgraph_edges": counters.get("hecke.wgraph_edges", 0),
        "hecke.self_s": self_s("hecke"),
        "domino.insert_calls": calls("domino.domino_insert"),
        "domino.insert_s": incl("domino.domino_insert"),
        "domino.reverse_s": incl("domino.domino_reverse"),
        "domino.self_s": self_s("domino"),
        "knuth.classes_s": incl("knuth.knuth_classes"),
        "knuth.p_tableau_hit_ratio": ratio("knuth.p_tableau"),
        "knuth.self_s": self_s("knuth"),
        "blob.standard_module_s": incl("blob.StandardModule.__init__"),
        "blob.verify_s": incl("blob.verify_presentation"),
        "blob.compare_s": incl("blob.compare_cell_to_standard"),
        "blob.matchings_hit_ratio": ratio("blob.matchings"),
        "blob.self_s": self_s("blob"),
        "fock.canonical_s": incl("fock.canonical_basis"),
        "fock.f_action_calls": calls("fock.f_action"),
        "fock.basis_terms": counters.get("fock.basis_terms", 0),
        "fock.kleshchev_s": incl("fock.kleshchev_convert"),
        "fock.self_s": self_s("fock"),
        "partitions.self_s": self_s("partitions"),
    }


def cli_metrics(tasks: list[dict], startup_s: float) -> dict:
    """cli.* metrics from the CLI tasks of one untraced pass."""
    cmd = [t for t in tasks if "out_bytes" in t]
    times = [t["s"] for t in cmd]
    violations = sum(t.get("error_type") == "ContractViolation" for t in cmd)
    return {
        "cli.startup_s": startup_s,
        "cli.cmd_p50_s": median(times) if times else 0.0,
        "cli.cmd_max_s": max(times, default=0.0),
        "cli.stdout_bytes": sum(t["out_bytes"] for t in cmd),
        "cli.contract_violations": violations,
    }


def main(argv: list[str]) -> None:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer(os.environ.get(RUN_ENV, "cli"), os.environ.get(PARENT_ENV))
    install(tracer)
    from blobcell.cli import main as cli_main

    try:
        cli_main(args=cli_args, prog_name="blobcell")
    finally:
        with open(out_path, "w") as f:
            json.dump(tracer.dump(), f)


if __name__ == "__main__":
    main(sys.argv[1:])
