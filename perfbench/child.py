"""Child-process entry points of the benchmark.

``child.py setup WORKLOAD``
    Prints ``{"setup_s": ..., "probe_s": ...}``: the wall time, in this fresh
    interpreter, to import the package (with the modules the workloads
    drive) and build the workload's algebras, and the mean speed probe taken
    just before and after.  The benchmark's own extra stdlib imports happen
    before the clock starts.

``child.py cli PROFILE_OUT ARGS...``
    Runs the superbracket CLI like ``python -m superbracket ARGS...`` under
    cProfile, import included, writes the profile to PROFILE_OUT and exits
    with the CLI's exit code.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def setup(name):
    import random  # noqa: F401  (used by inputs.py, not by the package)
    import subprocess  # noqa: F401  (used by workloads.py, not by the package)

    import speed

    sys.path[:0] = [SRC, HERE]
    speed.probe()  # warm-up
    before = speed.probe()
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[name].build()
    elapsed = time.perf_counter() - t0
    after = speed.probe()
    import json

    print(json.dumps({"setup_s": elapsed, "probe_s": (before + after) / 2}))
    return 0


def cli(profile_out, argv):
    import cProfile

    prof = cProfile.Profile()
    prof.enable()
    try:
        from superbracket.cli import main

        code = main(argv)
    finally:
        prof.disable()
        prof.dump_stats(profile_out)
    return code


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "setup" and len(sys.argv) == 3:
        sys.exit(setup(sys.argv[2]))
    if mode == "cli" and len(sys.argv) >= 3:
        sys.exit(cli(sys.argv[2], sys.argv[3:]))
    print("usage: child.py setup WORKLOAD | child.py cli PROFILE_OUT ARGS...", file=sys.stderr)
    sys.exit(2)
