"""A fixed probe of how fast this machine is running right now.

On a shared box the same work can take a third longer from one minute to
the next.  `probe()` times a frozen mix of the two kinds of work the
workloads do: a numpy wavefront BFS over a 50x50x30 grid and a pure-
Python heap search.  The runs interleave it with their rounds.  A round's
throughput times (probe seconds / REFERENCE_S) is its throughput at the
reference box's nominal speed.  This code belongs to the benchmark, so a
change to `magnnet` cannot speed it up.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

# Median probe time on the reference box (2 vCPU Xeon, Python 3.11.7,
# numpy 2.4.6).  Any constant works; it only sets the scale.
REFERENCE_S = 0.12

_GRID = np.random.default_rng(0).random((50, 50, 30)) > 0.1
_SOURCES = ((0, 0, 0), (25, 25, 15), (49, 49, 29))


def _wavefront(free: np.ndarray, source) -> int:
    frontier = np.zeros(free.shape, dtype=bool)
    frontier[source] = True
    reached = frontier.copy()
    dist = np.full(free.shape, np.inf)
    dist[source] = 0.0
    d = 0
    while frontier.any():
        d += 1
        nxt = np.zeros_like(frontier)
        for ax in range(free.ndim):
            lo = [slice(None)] * free.ndim
            hi = [slice(None)] * free.ndim
            lo[ax] = slice(1, None)
            hi[ax] = slice(None, -1)
            nxt[tuple(lo)] |= frontier[tuple(hi)]
            nxt[tuple(hi)] |= frontier[tuple(lo)]
        nxt &= free & ~reached
        dist[nxt] = d
        reached |= nxt
        frontier = nxt
    return d


def _heap_search(n: int = 40) -> int:
    free = [[(x * 7 + y * 13) % 11 != 0 for y in range(n)] for x in range(n)]
    best = {(0, 0): 0}
    heap = [(0, (0, 0))]
    while heap:
        d, (x, y) = heapq.heappop(heap)
        if d > best[(x, y)]:
            continue
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = x + dx, y + dy
            if 0 <= nx < n and 0 <= ny < n and free[nx][ny] \
                    and d + 1 < best.get((nx, ny), n * n):
                best[(nx, ny)] = d + 1
                heapq.heappush(heap, (d + 1, (nx, ny)))
    return len(best)


def probe() -> float:
    """Seconds the frozen probe took just now (about REFERENCE_S)."""
    t0 = time.perf_counter()
    for source in _SOURCES:
        _wavefront(_GRID, source)
    for _ in range(8):
        _heap_search()
    return time.perf_counter() - t0


def at_reference_speed(rates, probes) -> list:
    """Scale per-round rates to the reference box's speed.

    `probes` holds one probe time before the first round and one after
    each round; a round is scaled by the mean of the probes around it."""
    if len(probes) != len(rates) + 1:
        raise ValueError(f"{len(probes)} probes for {len(rates)} rounds")
    around = [(a + b) / 2 for a, b in zip(probes, probes[1:])]
    return [r * p / REFERENCE_S for r, p in zip(rates, around)]
