"""Baseline allocators over a travel-time cost matrix.

Costs are seconds; np.inf marks infeasible agent/task pairs.  All solvers
return an Assignment (a valid partial matching).  The one exact solver,
`feasible_optimum` (also bound as `hungarian`, the name of its bench row
and of acceptance criterion 1), rests on `_lsap`, a pure-Python port of
the shortest augmenting path method of Crouse, "On implementing 2D
rectangular assignment algorithms", IEEE TAES 52(4), 2016, as scipy's
`linear_sum_assignment` implements it.  The port follows scipy's scan
order step for step, so every tie between equal-cost optima breaks as it
does there and every seeded output of the package is unchanged; it spares
each process the scipy import.  `brute_force` is the independent oracle
used by the test suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidAssignmentError

# Finite dummy used to pad rectangular/infeasible instances; large enough
# to dominate any realistic travel time, small enough to keep sums exact.
_BIG = 1e9


@dataclass(frozen=True)
class CostMatrix:
    """Row-major n_agents x n_tasks travel-time estimates (seconds)."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"cost matrix must be 2-D, got shape {arr.shape}")
        if (arr < 0.0).any():   # -inf included
            raise ValueError("cost matrix entries must be >= 0")
        if np.isnan(arr).any():
            raise ValueError("cost matrix entries must not be NaN")
        object.__setattr__(self, "entries", arr)

    @property
    def n_tasks(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class Assignment:
    """One-to-one (agent, task) pairs, sorted by agent index."""

    pairs: tuple = field(default_factory=tuple)

    def __post_init__(self):
        pairs = tuple(sorted((int(i), int(j)) for i, j in self.pairs))
        agents = [i for i, _ in pairs]
        tasks = [j for _, j in pairs]
        if len(set(agents)) != len(agents) or len(set(tasks)) != len(tasks):
            raise InvalidAssignmentError(f"duplicate agent or task in {pairs}")
        object.__setattr__(self, "pairs", pairs)


def total_cost(c: CostMatrix, a: Assignment) -> float:
    """Sum of matrix entries over the assignment's pairs."""
    arr = c.entries
    total = 0.0
    for i, j in a.pairs:
        if not (0 <= i < arr.shape[0] and 0 <= j < arr.shape[1]):
            raise InvalidAssignmentError(f"pair ({i},{j}) out of bounds")
        if not np.isfinite(arr[i, j]):
            raise InvalidAssignmentError(f"pair ({i},{j}) has infinite cost")
        total += arr[i, j]
    return total


def _lsap(cost: list) -> list:
    """Column of each row in a minimum-cost perfect matching of a square
    matrix of finite floats, given as a list of rows.

    Crouse's shortest augmenting path, ported from scipy's
    `rectangular_lsap`: each row in turn grows a Dijkstra tree over
    reduced costs to the nearest free column, then the duals are updated
    and the path augmented.  Scan order, float expressions and tie rules
    are scipy's, so the columns are bit-for-bit those of
    `scipy.optimize.linear_sum_assignment`.
    """
    n = len(cost)
    u = [0.0] * n
    v = [0.0] * n
    path = [-1] * n
    col4row = [-1] * n
    row4col = [-1] * n
    for cur_row in range(n):
        shortest = [math.inf] * n
        # reverse order, so that a constant matrix solves to the identity
        remaining = list(range(n - 1, -1, -1))
        n_left = n
        rows_seen = []
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            rows_seen.append(i)
            row, ui = cost[i], u[i]
            index, lowest = -1, math.inf
            for it in range(n_left):
                j = remaining[it]
                r = min_val + row[j] - ui - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                # among equal costs prefer a free column: it ends the path
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest = s
                    index = it
            if lowest == math.inf:
                raise ValueError("cost matrix admits no finite matching")
            min_val = lowest
            j = remaining[index]
            # swap out with the last remaining column; the tail holds the
            # columns the tree has reached
            n_left -= 1
            remaining[index], remaining[n_left] = remaining[n_left], j
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]

        u[cur_row] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in remaining[n_left:]:
            v[j] -= min_val - shortest[j]

        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row


def feasible_optimum(c: CostMatrix) -> Assignment:
    """Minimum-cost matching of maximum cardinality over finite entries;
    agents and tasks with no finite pair left are simply unmatched.

    The matrix is padded to square, with `_BIG` in place of every
    infinite entry and in the added rows or columns, solved by `_lsap`,
    and the padded pairs stripped.  A finite pair costs less than
    `_BIG`, so one more finite pair outweighs any finite saving: the
    cardinality is maximum and, at that cardinality, the cost minimum.
    """
    arr = c.entries
    n, m = arr.shape
    size = max(n, m)
    padded = np.full((size, size), _BIG)
    padded[:n, :m] = np.where(np.isfinite(arr), arr, _BIG)
    cols = _lsap(padded.tolist())
    return Assignment([(i, j) for i, j in enumerate(cols)
                       if i < n and j < m and np.isfinite(arr[i, j])])


# the bench row's name, under which acceptance criterion 1 certifies it
hungarian = feasible_optimum


def greedy(c: CostMatrix) -> Assignment:
    """Repeatedly take the globally smallest finite entry, removing its
    row and column, until nothing finite remains."""
    work = c.entries.copy()
    pairs = []
    while np.isfinite(work).any():
        i, j = np.unravel_index(np.argmin(work), work.shape)
        pairs.append((int(i), int(j)))
        work[i, :] = np.inf
        work[:, j] = np.inf
    return Assignment(pairs)


def random_assign(c: CostMatrix, seed) -> Assignment:
    """Sequential random matching: agents in shuffled order each pick a
    uniformly random remaining finite-cost task."""
    arr = c.entries
    rng = np.random.default_rng(seed)
    order = rng.permutation(arr.shape[0])
    taken: set[int] = set()
    pairs = []
    for i in order:
        options = [j for j in range(arr.shape[1])
                   if j not in taken and np.isfinite(arr[i, j])]
        if not options:
            continue
        j = options[rng.integers(len(options))]
        taken.add(j)
        pairs.append((int(i), j))
    return Assignment(pairs)


def brute_force(c: CostMatrix) -> Assignment:
    """Exhaustive oracle: the minimum-cost matching of maximum
    cardinality over finite entries, ties broken to the lexicographically
    smallest pair list; refuses instances with min(n, m) > 8.

    Extended by pairs of any cost, every matching over finite entries
    grows into one of min(n, m) pairs, whose finite part is the matching
    itself when its cardinality is maximum: those are the candidates.
    """
    arr = c.entries
    n, m = arr.shape
    if min(n, m) > 8:
        raise ValueError(
            f"brute_force limited to min dimension 8, got {min(n, m)}")
    rows = arr.tolist()
    if n <= m:
        candidates = (zip(range(n), cols)
                      for cols in itertools.permutations(range(m), n))
    else:
        candidates = (zip(perm, range(m))
                      for perm in itertools.permutations(range(n), m))
    best_pairs, best_total = [], math.inf
    for pairs in candidates:
        pairs = [(i, j) for i, j in pairs if math.isfinite(rows[i][j])]
        total = sum(rows[i][j] for i, j in pairs)
        key = sorted(pairs)
        if len(key) > len(best_pairs) or len(key) == len(best_pairs) and (
                total < best_total - 1e-12 or
                abs(total - best_total) <= 1e-12 and key < best_pairs):
            best_pairs, best_total = key, total
    return Assignment(best_pairs)
