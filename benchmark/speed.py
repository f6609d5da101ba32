"""Host speed, from a fixed task timed between operations.

On a shared virtual machine the same CPU-bound work runs up to a third
slower or faster from one 20-second window to the next, because of load
outside this process.  The benchmark therefore times a fixed task of its
own between operations and reports times scaled to the speed at which
that task takes its reference time.  For operations in this process the
task is breadth-first search on a butterfly adjacency built here, with
no library code; for operations in child processes it is a child that
imports a few standard modules, like the start of every `bfgp` command.
A change to the library cannot change either task, so the scaling
removes the host's drift and keeps the program's.  Raw times are printed
beside the result.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
from collections import deque

# median probe times on the baseline machine (see baseline.json)
REFERENCE_S = 0.025
CHILD_REFERENCE_S = 0.09
# take a probe once this much operation time has passed since the last one
PROBE_EVERY_S = 0.5
CHILD_PROBE_EVERY_S = 1.0
CHILD_TASK = "import argparse, dataclasses, datetime, hashlib, json, random"


def _butterfly_adjacency(r: int) -> list[list[int]]:
    nrows = 1 << r
    adj: list[list[int]] = [[] for _ in range((r + 1) * nrows)]
    for lev in range(r):
        bit = 1 << (r - 1 - lev)
        for row in range(nrows):
            u = lev * nrows + row
            for v in (u + nrows, (lev + 1) * nrows + (row ^ bit)):
                adj[u].append(v)
                adj[v].append(u)
    return adj


class Speed:
    """Times the probe task for operations in this process or in children."""

    def __init__(self, child: bool = False):
        self._adj = _butterfly_adjacency(6)
        self.probes: list[float] = []
        self.reference_s = CHILD_REFERENCE_S if child else REFERENCE_S
        self.every_s = CHILD_PROBE_EVERY_S if child else PROBE_EVERY_S
        self._task = self._child_task if child else self._bfs_task

    @staticmethod
    def _child_task() -> None:
        subprocess.run([sys.executable, "-c", CHILD_TASK], check=True)

    def _bfs_task(self) -> int:
        adj = self._adj
        n = len(adj)
        total = 0
        for s in range(0, n, 2):
            dist = [-1] * n
            dist[s] = 0
            q = deque([s])
            while q:
                u = q.popleft()
                du = dist[u] + 1
                for v in adj[u]:
                    if dist[v] < 0:
                        dist[v] = du
                        q.append(v)
            total += sum(dist)
        return total

    def probe(self) -> float:
        """Median of three timed runs of the task, with the collector off."""
        times = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(3):
                t0 = time.perf_counter()
                self._task()
                times.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        p = statistics.median(times)
        self.probes.append(p)
        return p


class Scaled:
    """Raw times collected between two probes, scaled by their mean."""

    def __init__(self, speed: Speed):
        self.speed = speed
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._pending: list[float] = []
        self._before = speed.probe()

    def add(self, dt: float) -> None:
        self._pending.append(dt)
        if sum(self._pending) >= self.speed.every_s:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        after = self.speed.probe()
        factor = self.speed.reference_s / ((self._before + after) / 2)
        self.raw.extend(self._pending)
        self.scaled.extend(dt * factor for dt in self._pending)
        self._pending = []
        self._before = after
