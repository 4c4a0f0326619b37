"""Machine-speed probe used to normalize measured times.

The benchmark runs on a shared machine whose speed drifts by tens of
percent for seconds to minutes at a time: the probe below alone takes
anywhere from 0.6 to 1.1 ms within one minute.  Timed runs therefore take a
probe every few tens of milliseconds of operation time and report every
time scaled by ``REFERENCE_S / probe time``: seconds on a machine where the
probe takes ``REFERENCE_S``, about this machine when idle.  Raw times are
printed next to the normalized ones.

The probe is plain interpreter work (integer arithmetic and lookups in a
small dict) that allocates no containers, so the package's heap, garbage
collector and caches do not change its time; nothing in it touches the
package.
"""

import time

REFERENCE_S = 0.0006
_TABLE = {i: (i * 7) % 13 for i in range(64)}


def probe() -> float:
    """Wall seconds of one fixed slice of interpreter work."""
    table = _TABLE
    acc = 0
    t0 = time.perf_counter()
    for i in range(6000):
        acc = (acc + table[i & 63] * i) % 1000003
    return time.perf_counter() - t0


def scale(probe_s: float) -> float:
    """Factor that turns a time measured at this probe speed into reference seconds."""
    return REFERENCE_S / probe_s
