"""Host-speed probing, so that end-to-end timings survive a shared host.

On a host shared with other machines, pure-Python code runs up to twice as
slow for seconds to minutes at a time. A run therefore times a fixed probe
every PROBE_INTERVAL_S, also in the middle of a call, takes the probes' time
out of each call, and scales the rest by PROBE_REFERENCE_S over the mean
probe time around the call. Each sample runs the probe twice and times the
second run, so that it does not pay for what the interrupted program left in
the caches.

The probe is a frozen scan in the shape of the program's hot loops: it
decodes 7-vertex edge codes into neighbourhood bitmasks and tests 3-vertex
masks with a set-based separation check. It imports nothing from sepcodes,
so a change to the program leaves the probe, and so the scale, as it was.
bench/README.md gives how closely it tracks each workload.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import signal
import statistics
import time
from typing import Iterator

# Fastest probe time seen on the development host (2 vCPUs at 2.1 GHz). It
# only fixes the scale, so that scaled times read as seconds on that host.
PROBE_REFERENCE_S = 0.0051
PROBE_INTERVAL_S = 0.25
WINDOW_S = 1.0  # probes this close to a call describe the host during it
# Median probe times over which the benchmark's bounds were checked; a run
# outside them is marked in its output (see run.py).
VERIFIED_PROBE_MEDIAN_S = (0.0057, 0.0114)

_ORDER = 7
_PAIRS = tuple((i, j) for j in range(1, _ORDER) for i in range(j))
_BITS = tuple(1 << v for v in range(_ORDER))
_MASKS = tuple(sum(_BITS[v] for v in combo) for combo in itertools.combinations(range(_ORDER), 3))
_rng = random.Random(5)
_CODES = tuple(_rng.getrandbits(len(_PAIRS)) for _ in range(400))


def probe() -> int:
    found = 0
    for code in _CODES:
        adj = [0] * _ORDER
        c, t = code, 0
        while c:
            if c & 1:
                i, j = _PAIRS[t]
                adj[i] |= _BITS[j]
                adj[j] |= _BITS[i]
            c >>= 1
            t += 1
        closed = [adj[v] | _BITS[v] for v in range(_ORDER)]
        if len(set(closed)) < _ORDER:
            continue
        for m in _MASKS:
            seen = set()
            for v in range(_ORDER):
                s = closed[v] & m
                if not s or s in seen:
                    break
                seen.add(s)
            else:
                found += 1
                break
    return found


class HostSpeed:
    """Timed probe runs, (perf_counter at start, seconds), in time order,
    and the time each sample took in all."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.spent: list[tuple[float, float]] = []

    def sample(self, *_signal: object) -> None:
        start = time.perf_counter()
        probe()  # warm-up
        warm = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.spent.append((start, end - start))
        self.samples.append((start, end - warm))

    @contextlib.contextmanager
    def sampling(self) -> Iterator[None]:
        """Sample now, every PROBE_INTERVAL_S while the block runs, and at
        its end. The periodic samples run in a SIGALRM handler on the main
        thread, so they also probe the host in the middle of a long call."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def probing(self, start: float, end: float) -> float:
        """Seconds of [start, end] spent in probes."""
        return sum(d for t, d in self.spent if start <= t < end)

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a time measured over [start, end] into
        reference-host seconds."""
        near = [d for t, d in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return PROBE_REFERENCE_S / statistics.mean(near)

    def in_verified_band(self) -> bool:
        lo, hi = VERIFIED_PROBE_MEDIAN_S
        return lo <= self.median() <= hi

    def median(self) -> float:
        return statistics.median(d for _, d in self.samples)
