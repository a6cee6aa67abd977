"""Machine speed probe and the correction it gives.

The host this benchmark was written on shares its cores with other
tenants: a fixed piece of CPU work there runs up to 2 times slower, in
phases of seconds to minutes, and CPU time slows with wall time.  Raw run
timings then spread by 20-30% between runs.  So the worker times a fixed
piece of pure-Python work of mexlab's kind (bitset clique recursion and
sorting) before every query and once after the last, and the benchmark
reports each query's time multiplied by PROBE_REF_S / (the mean of the
probes just before and just after it): seconds at the host's uncontended
speed.  The raw timings are in the detail line.

Set-up is a fresh interpreter, whose start-up the host slows less than
in-process CPU work.  So set-up times are corrected the same way, but by
fresh_probe(): a new interpreter that runs this file, i.e. start-up plus
FRESH_PROBES probes.
"""

from __future__ import annotations

import gc
import random
import statistics
import subprocess
import sys
from itertools import combinations
from time import perf_counter

import reference as ref

# The probe's 1st-percentile time on the reference host (2-vCPU x86-64
# container, Python 3.11), i.e. its time when the host is not contended.
PROBE_REF_S = 0.0062
FRESH_PROBES = 8
# fresh_probe()'s 1st-percentile time on the same host.
FRESH_REF_S = 0.109

_rng = random.Random(0)
_ADJ = ref.adj_from_edges(48, [e for e in combinations(range(48), 2)
                               if _rng.random() < 0.6])
_KEYS = [(x * 7919) % 1009 for x in range(4000)]


def probe() -> float:
    """Seconds the fixed work takes now.  The garbage collector is off
    meanwhile, so the caller's heap does not leak into the reading."""
    gc.disable()
    try:
        t0 = perf_counter()
        ref.clique_counts(_ADJ, 7)
        sorted(zip(_KEYS, range(len(_KEYS))))
        return perf_counter() - t0
    finally:
        gc.enable()


def fresh_probe() -> float:
    """Seconds from spawn to exit of a new interpreter that runs this file."""
    t0 = perf_counter()
    subprocess.run([sys.executable, __file__], check=True, capture_output=True,
                   timeout=60)
    return perf_counter() - t0


def slowdown(probes) -> float:
    """How many times slower than uncontended the host ran while these
    probe times were taken."""
    return statistics.median(probes) / PROBE_REF_S


def corrected(times, probes, ref: float = PROBE_REF_S) -> list[float]:
    """Each time at the host's uncontended speed.  probes holds one more
    reading than times: probes[k] was taken just before times[k] and
    probes[k + 1] just after it; ref is the probe's uncontended time."""
    assert len(probes) == len(times) + 1
    return [t * 2 * ref / (probes[k] + probes[k + 1])
            for k, t in enumerate(times)]


if __name__ == "__main__":
    for _ in range(FRESH_PROBES):
        probe()
