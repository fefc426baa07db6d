"""Host speed probe, run by ``run.py`` beside a workload's repetitions.

The benchmark host's CPUs are shared with other tenants, and their speed
drifts with those tenants' load: by up to half again within a minute and
from one minute to the next, on both CPUs at once (see README). The
probe measures that speed while the workload runs. Every ``PERIOD_S`` of
wall time it times one fixed unit of pure-Python work by its own CPU
time, so it keeps one CPU busy for about a twentieth of the time, and a
unit it is descheduled in does not read slower.

Usage: ``python3 probe.py``. It prints ``ready`` once it has started,
then samples until its standard input is closed, and then prints its
samples as one JSON list of ``[start, cpu_s]`` pairs, ``start`` on the
system-wide ``time.monotonic`` clock.
"""
from __future__ import annotations

import json
import select
import sys
import time

PERIOD_S = 0.01


def unit() -> float:
    """A fixed mix of dict, float, tuple and sorting work, about 0.5 ms."""
    counts: dict[int, int] = {}
    acc = 0.0
    rows = []
    for i in range(1500):
        key = i % 97
        counts[key] = counts.get(key, 0) + 1
        acc += (i * 0.5) ** 0.5
        rows.append((key, i & 7, acc))
    rows.sort()
    return acc


def main() -> int:
    samples = []
    print("ready", flush=True)
    while True:
        start = time.monotonic()
        cpu = time.thread_time()
        unit()
        samples.append((start, time.thread_time() - cpu))
        wait = max(PERIOD_S - (time.monotonic() - start), 0.0)
        if select.select([sys.stdin], [], [], wait)[0]:
            break  # stdin closed (or written to): stop sampling
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
