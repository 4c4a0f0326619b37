"""Per-layer attribution for the traced run: spans, profiles and counts.

Self time from ``cProfile`` is bucketed by the file that holds each
function: one layer per package module, the stdlib ``fractions`` module for
coefficient arithmetic, the benchmark's own files, and ``other``.  The self
time of built-in functions goes to the calling function's layer, split by
the profiler's caller table.  Buckets are keyed by file name only, so a
module that a later change removes simply reads zero.

Call counts are taken from the same profile by (layer, function name).  They
are exact and must repeat between runs: ``run.py --check-counts`` compares
two traced runs under different ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import cProfile
import fractions
import json
import os
import pstats
import time

import superbracket

PACKAGE_DIR = os.path.dirname(os.path.abspath(superbracket.__file__))
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
FRACTIONS_FILE = os.path.abspath(fractions.__file__)

MODULE_LAYERS = {
    "core.py": "core",
    "elements.py": "elements",
    "engine.py": "engine",
    "genericpoisson.py": "genericpoisson",
    "liebasis.py": "liebasis",
    "identities.py": "identities",
    "concrete.py": "concrete",
    "kantor.py": "kantor",
    "farkas.py": "farkas",
    "cli.py": "cli",
    "__main__.py": "cli",
    "speedups.py": "speedups",
    "_speedups_py.py": "speedups",
}
LAYERS = ("fractions", "speedups", "elements", "engine", "liebasis", "genericpoisson",
          "identities", "concrete", "kantor", "farkas", "cli", "core", "other", "bench")

# metric name -> (layer, function name) pairs whose call counts are summed
CALL_COUNTS = {
    "fractions.new_calls": (("fractions", "__new__"),),
    "fractions.mul_calls": (("fractions", "_mul"),),
    "speedups.merge_calls": (("speedups", "merge_factors"),),
    "engine.mul_calls": (("engine", "mul"),),
    "engine.bracket_calls": (("engine", "bracket"),),
    "engine.leibniz_expansions": (("engine", "_leibniz_expand"),),
    "liebasis.bracket_words_calls": (("liebasis", "bracket_words"),),
    "genericpoisson.bracket_calls": (("genericpoisson", "bracket"),),
    "concrete.apply_calls": (("concrete", "_apply"),),
    "farkas.defect_steps": (("farkas", "derivation_defect"),),
    "cli.parse_calls": (("cli", "parse"),),
}
# criterion and linearized-Jordan residuals evaluated on behalf of kantor.py
KANTOR_TUPLES = (("identities", "double_criterion_residual"),
                 ("identities", "linear_jordan_residual"))


def layer_of(filename: str) -> str:
    path = os.path.abspath(filename) if filename not in ("~", "") else filename
    if path == FRACTIONS_FILE:
        return "fractions"
    folder, base = os.path.split(path)
    if folder == PACKAGE_DIR:
        if base.startswith("_speedups"):
            return "speedups"
        return MODULE_LAYERS.get(base, "other")
    if folder == BENCH_DIR:
        return "bench"
    return "other"


def _is_builtin(func) -> bool:
    return func[0] == "~"


def layer_metrics(stats: dict) -> dict:
    """Self seconds per layer and the named counts from a pstats table."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = {}
    kantor_tuples = 0
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        if _is_builtin(func):
            if not callers:
                self_s["other"] += tt
            for caller, edge in callers.items():
                owner = "other" if _is_builtin(caller) else layer_of(caller[0])
                self_s[owner] += edge[2]
            continue
        layer = layer_of(func[0])
        self_s[layer] += tt
        key = (layer, func[2])
        calls[key] = calls.get(key, 0) + nc
        if key in KANTOR_TUPLES:
            kantor_tuples += sum(edge[1] for caller, edge in callers.items()
                                 if not _is_builtin(caller) and layer_of(caller[0]) == "kantor")
    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    for name, keys in CALL_COUNTS.items():
        out[name] = sum(calls.get(k, 0) for k in keys)
    out["kantor.tuples_checked"] = kantor_tuples
    lookups = calls.get(("engine", "_bracket_mono"), 0)
    misses = calls.get(("engine", "_bracket_mono_uncached"), 0)
    out["engine.mono_cache_hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
    return out


class NullTracer:
    """Untraced runs: every entry point is a plain call."""

    def op(self, op):
        return op.run(self)

    @staticmethod
    def call(_name, fn, *args):
        return fn(*args)

    @staticmethod
    def child_profile():
        return None


class ProfileTracer:
    """Traced runs: cProfile around each operation plus one span per
    operation and per public entry point it calls.

    A span is (id, name, parent id, op id, start, end), in seconds from the
    tracer's creation; spans of one operation share its op id.  With
    ``in_process`` false the parent is not profiled (it only waits on child
    processes) and each child writes its own profile for :meth:`stats`.
    """

    def __init__(self, out_dir: str, in_process: bool = True):
        self.profile = cProfile.Profile() if in_process else None
        self.out_dir = out_dir
        self.child_files = []
        self.spans = []
        self.stack = []
        self.origin = time.perf_counter()

    def op(self, op):
        if self.profile is None:
            return self.call(op.name, op.run, self)
        self.profile.enable()
        try:
            return self.call(op.name, op.run, self)
        finally:
            self.profile.disable()

    def call(self, name, fn, *args):
        parent = self.stack[-1] if self.stack else None
        op_id = self.spans[parent][3] if parent is not None else len(self.spans)
        span = [len(self.spans), name, parent, op_id, time.perf_counter() - self.origin, None]
        self.spans.append(span)
        self.stack.append(span[0])
        try:
            return fn(*args)
        finally:
            span[5] = time.perf_counter() - self.origin
            self.stack.pop()

    def child_profile(self):
        path = os.path.join(self.out_dir, f"child-{os.getpid()}-{len(self.child_files)}.pstats")
        self.child_files.append(path)
        return path

    def stats(self) -> dict:
        merged = pstats.Stats(self.profile) if self.profile is not None else None
        for path in self.child_files:
            if not os.path.exists(path):
                continue
            if merged is None:
                merged = pstats.Stats(path)
            else:
                merged.add(path)
            os.remove(path)
        return merged.stats if merged is not None else {}

    def write_spans(self, path: str):
        keys = ("id", "name", "parent", "op", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
