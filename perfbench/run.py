#!/usr/bin/env python3
"""superbracket benchmark: four seeded workloads, end-to-end metrics, and a
traced per-layer run.  See perfbench/README.md.

One workload (the form the BENCHMARK.json command takes)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, each in its own fresh interpreter, with a summary table::

    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

Steadiness tooling::

    python3 perfbench/run.py --steadiness [--repeats K] [--workload NAME ...]
    python3 perfbench/run.py --check-counts [--workload NAME ...]

The last line of a one-workload run is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The package is taken
from ``src/`` of the checkout that holds this file, never from an installed
copy; without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("free-confluence", "free-identities", "structure-kantor", "cli-session")
SETUP_SAMPLES = 9
MIN_ROUNDS = 4
PROBE_EVERY_S = 0.02
CHILD_TIMEOUT_S = 900
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
    "op_tail_ms": "ms", "peak_rss_mb": "MB",
}


def load_spec() -> dict:
    try:
        with open(SPEC_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def import_package():
    """Import the checkout's package and the workload modules."""
    sys.path[:0] = [SRC, HERE]
    import superbracket

    if not os.path.abspath(superbracket.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported superbracket from {superbracket.__file__}, not {SRC}")
    import layers
    import workloads

    return workloads, layers


# -- timing loop ------------------------------------------------------------------

class RoundsResult:
    """Per-position timings: ``times[i]`` holds the i-th operation's times in
    reference seconds and ``raw[i]`` its wall times, one per round (every
    round runs the same operations in the same order)."""

    def __init__(self):
        self.times = []
        self.raw = []
        self.failures = Counter()
        self.rounds = 0

    @property
    def attempted(self):
        return sum(len(t) for t in self.times)

    @property
    def failed(self):
        return sum(self.failures.values())

    def op_medians(self, raw=False):
        return [statistics.median(t) for t in (self.raw if raw else self.times)]

    def first_round_time(self):
        return math.fsum(t[0] for t in self.raw)

    def settle(self, pending, probe_s):
        factor = speed.scale(probe_s)
        for i, dt in pending:
            self.raw[i].append(dt)
            self.times[i].append(dt * factor)
        pending.clear()


def run_rounds(wl, seed, tracer, seconds=None, max_rounds=None, between=None) -> RoundsResult:
    """Repeat the seed's round until ``seconds`` of wall time (and at least
    MIN_ROUNDS rounds) or until ``max_rounds``.

    Each operation is timed on its own; its check runs after the clock.  A
    speed probe runs whenever PROBE_EVERY_S of operation time has passed
    since the last one, and the operations in between are scaled by the mean
    of the two probes around them.  An exception or a failed check counts as
    a failure of that operation.  ``between`` runs after each round, off the
    clock.
    """
    res = RoundsResult()
    start = time.perf_counter()
    for rnd in wl.rounds(seed):
        pending = []
        before = speed.probe()
        since = 0.0
        for i, op in enumerate(rnd):
            if res.rounds == 0:
                res.times.append([])
                res.raw.append([])
            if since >= PROBE_EVERY_S:
                after = speed.probe()
                res.settle(pending, (before + after) / 2)
                before, since = after, 0.0
            t0 = time.perf_counter()
            try:
                out = tracer.op(op)
            except Exception as exc:  # the operation failed; record it by name
                dt = time.perf_counter() - t0
                res.failures[op.name] += 1
                print(f"failed: {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            else:
                dt = time.perf_counter() - t0
                try:
                    ok = op.check(out)
                except Exception as exc:
                    ok = False
                    print(f"check raised: {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                if not ok:
                    res.failures[op.name] += 1
                    print(f"wrong answer: {op.name}", file=sys.stderr)
            pending.append((i, dt))
            since += dt
        res.settle(pending, (before + speed.probe()) / 2)
        del rnd
        res.rounds += 1
        gc.collect()
        if max_rounds is not None and res.rounds >= max_rounds:
            break
        if (seconds is not None and res.rounds >= MIN_ROUNDS
                and time.perf_counter() - start >= seconds):
            break
        if between is not None:
            between()
    return res


def setup_sample(name) -> float:
    """One set-up time from a fresh interpreter, in reference seconds."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), "setup", name],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"setup child failed: {proc.stderr.strip()}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    return sample["setup_s"] * speed.scale(sample["probe_s"])


def tail_of(sorted_values):
    """The highest percentile with TAIL_BEYOND samples beyond it: its value,
    the percentile, and the number beyond (fewer only for tiny samples)."""
    k = max(1, len(sorted_values) - TAIL_BEYOND)
    return sorted_values[k - 1], 100 * k / len(sorted_values), len(sorted_values) - k


def run_probes(workloads) -> list:
    """(name, passed) for each robustness probe, one process at a time."""
    from inputs import probes

    out = []
    for cmd in probes():
        try:
            proc = workloads.run_cli(cmd.argv, cmd.env)
            ok = workloads.probe_ok(cmd, proc)
        except subprocess.TimeoutExpired:
            ok = False
        out.append((cmd.name, ok))
    return out


def timed_run(wl, seed, seconds, workloads, layers) -> dict:
    # set-up samples are spread over the run, so one slow spell of the
    # machine cannot move all of them
    setups = [setup_sample(wl.name)]

    def between_rounds():
        for _ in range(2):
            if len(setups) < SETUP_SAMPLES:
                setups.append(setup_sample(wl.name))

    res = run_rounds(wl, seed, layers.NullTracer(), seconds=seconds, between=between_rounds)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(wl.name))
    probes = run_probes(workloads) if wl.name == "cli-session" else []

    metrics = rate_metrics(res.op_medians(), res)
    raw = rate_metrics(res.op_medians(raw=True), res)
    tail_pct, beyond = metrics.pop("tail_pct"), metrics.pop("beyond")
    del raw["tail_pct"], raw["beyond"]
    metrics = {"setup_s": statistics.median(setups), **metrics, "peak_rss_mb": peak_rss_mb}
    probe_failed = sum(1 for _, ok in probes if not ok)
    fail_ratio = (res.failed + probe_failed) / (res.attempted + len(probes))
    ops = len(res.times)
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "ops_per_s": f"{ops} ops per round, {res.rounds} rounds; raw {raw['ops_per_s']:.6g}",
        "op_p50_ms": f"median of the {ops} per-op medians; raw {raw['op_p50_ms']:.6g}",
        "op_tail_ms": f"p{tail_pct:.4g} of the {ops} per-op medians, {beyond} beyond; "
                      f"raw {raw['op_tail_ms']:.6g}",
        "peak_rss_mb": "ru_maxrss of the " + ("workload process" if wl.in_process
                                              else "largest CLI process"),
    }
    lines = [f"  {k:<13} {v:<14.6g} {END_TO_END_UNITS[k]:<5} {notes[k]}" for k, v in metrics.items()]
    lines.append(f"  {'fail_ratio':<13} {fail_ratio:<14.6g} {'ratio':<5} "
                 f"{res.failed} of {res.attempted} checked ops failed; "
                 f"{probe_failed} of {len(probes)} probes failed")
    for name, count in sorted(res.failures.items()):
        lines.append(f"  wrong answer: {name} x{count}")
    for name, ok in probes:
        lines.append(f"  probe {name}: {'pass' if ok else 'FAIL'}")
    return {
        "lines": lines,
        "json": {
            "correct": res.failed == 0,
            "attempted": res.attempted,
            "failed": res.failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        },
        "extra": {"fail_ratio": fail_ratio, "tail_pct": tail_pct, "tail_beyond": beyond,
                  "raw": raw,
                  "rounds": res.rounds, "probes": dict(probes),
                  "failures": dict(res.failures), "setup_samples": setups},
    }


def rate_metrics(medians, res) -> dict:
    """Rate and latencies from per-operation median times (seconds)."""
    per_op = sorted(medians)
    tail, tail_pct, beyond = tail_of(per_op)
    return {
        "ops_per_s": len(per_op) * (1 - res.failed / res.attempted) / math.fsum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": tail * 1e3,
        "tail_pct": tail_pct,
        "beyond": beyond,
    }


def metric_unit(name) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def traced_run(wl, seed, workloads, layers) -> dict:
    """One round untraced, then the same round under the profiler, each on
    freshly built algebras; the ratio of their op times is the tracing
    overhead.  Call counts of one round repeat exactly."""
    plain = run_rounds(wl, seed, layers.NullTracer(), max_rounds=1)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = layers.ProfileTracer(OUT_DIR, wl.in_process)
    traced = run_rounds(wl, seed, tracer, max_rounds=1)
    metrics = layers.layer_metrics(tracer.stats())
    probes = run_probes(workloads) if wl.name == "cli-session" else []
    metrics["cli.probe_failures"] = sum(1 for _, ok in probes if not ok)
    metrics["trace.overhead_ratio"] = traced.first_round_time() / plain.first_round_time()
    spans_path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.json")
    tracer.write_spans(spans_path)

    lines = [f"  {k:<32} {v:<14.6g} {metric_unit(k)}" for k, v in metrics.items()]
    lines.append(f"  {traced.attempted} ops in one round; "
                 f"{len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
    failed = plain.failed + traced.failed
    return {
        "lines": lines,
        "json": {
            "correct": failed == 0,
            "attempted": plain.attempted + traced.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": metric_unit(k)} for k, v in metrics.items()},
        },
        "extra": {"probes": dict(probes), "spans": os.path.relpath(spans_path, ROOT)},
    }


def pin_to_one_cpu():
    """Keep this run, and the processes it starts, on one CPU, so the speed
    probe measures the CPU that the operations run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_one(name, seed, seconds, trace, spec) -> int:
    start = time.perf_counter()
    pin_to_one_cpu()
    workloads, layers = import_package()
    from superbracket import speedups

    wl = workloads.WORKLOADS[name]
    why = {w["name"]: w["why"] for w in spec.get("workloads", [])}.get(name, "")
    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}  ({why})")
    print(f"  kernel {speedups.IMPLEMENTATION}  python {platform.python_version()}  "
          f"cores {os.cpu_count()}")
    result = traced_run(wl, seed, workloads, layers) if trace else timed_run(
        wl, seed, seconds, workloads, layers)
    for line in result["lines"]:
        print(line)
    os.makedirs(OUT_DIR, exist_ok=True)
    record = dict(result["json"], workload=name, seed=seed, seconds=seconds, trace=int(trace),
                  kernel=speedups.IMPLEMENTATION, wall_s=time.perf_counter() - start,
                  **result["extra"])
    with open(result_path(name, seed, trace), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result["json"]), flush=True)
    return 0


def result_path(name, seed, trace) -> str:
    return os.path.join(OUT_DIR, f"result-{name}-seed{seed}-trace{int(trace)}.json")


# -- multi-run modes -----------------------------------------------------------------

def child_run(name, seed, seconds, trace, env_extra=None, echo=False) -> dict:
    """Run one workload in a fresh interpreter and return its result record."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    env = dict(os.environ, **(env_extra or {}))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S)
    if echo:
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        sys.stdout.flush()
    if proc.returncode != 0:
        raise RuntimeError(f"{name} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    with open(result_path(name, seed, trace), encoding="utf-8") as fh:
        return json.load(fh)


def run_all(names, seed, seconds, trace) -> int:
    records = [child_run(name, seed, seconds, trace, echo=True) for name in names]
    if trace:
        return 0 if all(r["correct"] for r in records) else 1
    cols = list(END_TO_END_UNITS) + ["fail_ratio"]
    print()
    print(f"{'workload':<18}" + "".join(f"{c:>14}" for c in cols))
    print(f"{'':<18}" + "".join(f"{END_TO_END_UNITS.get(c, 'ratio'):>14}" for c in cols))
    for r in records:
        vals = [r["metrics"][c]["value"] for c in END_TO_END_UNITS] + [r["fail_ratio"]]
        print(f"{r['workload']:<18}" + "".join(f"{v:>14.5g}" for v in vals))
    return 0 if all(r["correct"] for r in records) else 1


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_steadiness(names, repeats, first_seed, seconds, spec) -> int:
    """Repeat each workload with seeds first_seed.. and report every metric's
    quartile spread as a share of its median, against the metric's bound."""
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    worst = 0
    for name in names:
        values = {}
        walls = []
        for i in range(repeats):
            record = child_run(name, first_seed + i, seconds, False)
            walls.append(record["wall_s"])
            for metric, entry in record["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        print(f"{name}: {repeats} runs, seeds {first_seed}..{first_seed + repeats - 1}, "
              f"wall time per run {min(walls):.0f}-{max(walls):.0f} s")
        for metric, vals in values.items():
            s = spread(vals)
            bound = bounds.get(metric)
            if bound is None:
                verdict = "no bound"
            elif s <= bound / 3:
                verdict = "steady (spread under a third of the bound)"
            elif s <= bound:
                verdict = "within bound"
            else:
                verdict = "WIDER THAN BOUND"
                if metric != "setup_s":
                    worst = 1
            print(f"  {metric:<13} median {statistics.median(vals):<12.6g} spread {s:7.2%}  "
                  f"bound {bound if bound is not None else '-'}  {verdict}")
    return worst


def run_check_counts(names, seed) -> int:
    """Two traced runs under different PYTHONHASHSEED values must give exactly
    equal call counts; any count that differs is reported for removal."""
    bad = 0
    for name in names:
        a, b = (child_run(name, seed, 1, True, {"PYTHONHASHSEED": h}) for h in ("0", "1"))
        counts = [k for k, v in a["metrics"].items() if v["unit"] in ("count", "ratio")
                  and k != "trace.overhead_ratio"]
        differ = [k for k in counts if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        bad += len(differ)
        print(f"{name}: {len(counts) - len(differ)} of {len(counts)} counts repeat exactly"
              + (f"; differ: {', '.join(differ)}" if differ else ""))
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true",
                    help="repeat each workload and report each metric's spread against its bound")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--check-counts", action="store_true",
                    help="compare traced call counts under two PYTHONHASHSEED values")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "superbracket", "__init__.py")):
        print(f"error: no package sources at {SRC}; run from a superbracket checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec.get("run_seconds", 20)
    names = args.workload or list(WORKLOAD_NAMES)
    if args.steadiness:
        return run_steadiness(names, args.repeats, args.seed, seconds, spec)
    if args.check_counts:
        return run_check_counts(names, args.seed)
    if args.workload and len(args.workload) == 1:
        return run_one(names[0], args.seed, seconds, bool(args.trace), spec)
    return run_all(names, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
