"""Grid path planning: A*, a discrete RRT*, distance fields, travel-time
cost matrices, and reservation-based motion conflict resolution.

Cells are integer (x, y, z) tuples on a 1 m grid.  Two motion models are
supported: 4-connected ground movement restricted to z=0 and 6-connected
axis moves in 3D for aerial agents.  All moves have unit length, so
shortest paths are BFS-exact and A* with a Manhattan heuristic is optimal.
"""

from __future__ import annotations

import heapq
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .assign import CostMatrix
from .errors import NoPathError

Cell = tuple[int, int, int]


class MotionModel(Enum):
    GROUND4 = "ground4"
    AERIAL6 = "aerial6"

    @property
    def deltas(self) -> tuple[Cell, ...]:
        if self is MotionModel.GROUND4:
            return ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
        return ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                (0, 0, 1), (0, 0, -1))


@dataclass(frozen=True)
class Grid:
    dims: Cell
    blocked: np.ndarray  # bool array, shape == dims

    def __post_init__(self):
        if self.blocked.shape != tuple(self.dims):
            raise ValueError(f"blocked mask shape {self.blocked.shape} "
                             f"does not match dims {tuple(self.dims)}")

    def in_bounds(self, cell: Cell) -> bool:
        x, y, z = cell
        return 0 <= x < self.dims[0] and 0 <= y < self.dims[1] \
            and 0 <= z < self.dims[2]

    def is_free(self, cell: Cell) -> bool:
        return self.in_bounds(cell) and not self.blocked[cell]

    @classmethod
    def empty(cls, dims: Cell) -> "Grid":
        return cls(tuple(dims), np.zeros(tuple(dims), dtype=bool))


@dataclass
class Path:
    """Cells from start to goal; consecutive cells are motion-model
    neighbors, or equal where a wait was inserted."""

    cells: list

    @property
    def length(self) -> int:
        """Meters moved (waits contribute nothing)."""
        return sum(1 for a, b in zip(self.cells, self.cells[1:]) if a != b)

    @property
    def goal(self) -> Cell:
        return self.cells[-1]

    def validate(self, grid: Grid, model: MotionModel) -> None:
        for c in self.cells:
            if not grid.is_free(c):
                raise ValueError(f"path crosses blocked cell {c}")
        for a, b in zip(self.cells, self.cells[1:]):
            d = tuple(bi - ai for ai, bi in zip(a, b))
            if d != (0, 0, 0) and d not in model.deltas:
                raise ValueError(f"non-neighbor step {a} -> {b}")


class ReservationTable:
    """Space-time map (cell, tick) -> agent id; at most one owner each."""

    def __init__(self):
        self.slots: dict[tuple[Cell, int], int] = {}

    def owner(self, cell: Cell, tick: int):
        return self.slots.get((cell, tick))

    def is_free_for(self, cell: Cell, tick: int, agent_id: int) -> bool:
        o = self.slots.get((cell, tick))
        return o is None or o == agent_id

    def reserve(self, cell: Cell, tick: int, agent_id: int) -> None:
        o = self.slots.get((cell, tick))
        if o is not None and o != agent_id:
            raise ValueError(
                f"double booking at {cell} t={tick}: {o} vs {agent_id}")
        self.slots[(cell, tick)] = agent_id

    def release_agent(self, agent_id: int) -> None:
        self.slots = {k: v for k, v in self.slots.items() if v != agent_id}

    def release_before(self, tick: int) -> None:
        self.slots = {k: v for k, v in self.slots.items() if k[1] >= tick}

    def max_tick(self) -> int:
        return max((t for _, t in self.slots), default=0)


def manhattan(a: Cell, b: Cell) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1]) + abs(a[2] - b[2])


# ---------------------------------------------------------------------------
# A*
# ---------------------------------------------------------------------------

def astar(grid: Grid, start: Cell, goal: Cell, model: MotionModel,
          reservations: ReservationTable | None = None,
          agent_id: int | None = None, start_tick: int = 0,
          substeps_per_tick: int = 1,
          max_expansions: int = 500_000) -> Path:
    """Shortest path under the motion model; optimal (unit edge costs,
    admissible Manhattan heuristic).

    With a reservation table the search runs over (cell, substep)
    states: the agent advances one cell per substep, `substeps_per_tick`
    substeps per 1 s tick, may wait in place, and never enters a
    (cell, tick) reserved for another agent.  Past the last reserved
    tick no reservation remains and a wait only delays, so a cell's
    earliest arrival there dominates every later one and the state is
    the bare cell.  Without reservations every state is a bare cell:
    plain A*.
    """
    start, goal = tuple(start), tuple(goal)
    if not grid.is_free(start):
        raise NoPathError(f"start {start} is blocked or out of bounds")
    if not grid.is_free(goal):
        raise NoPathError(f"goal {goal} is blocked or out of bounds")
    if model is MotionModel.GROUND4 and (start[2] != 0 or goal[2] != 0):
        raise NoPathError("ground model requires z=0 endpoints")

    if reservations is None or not reservations.slots:
        last, horizon = -1, math.inf
    else:
        ticks = reservations.max_tick() - start_tick
        # substeps up to `last` fall in a tick that may hold a reservation
        last = ticks * substeps_per_tick
        horizon = (ticks + 2) * substeps_per_tick \
            + 4 * (manhattan(start, goal) + 4)
    deltas = model.deltas
    with_wait = ((0, 0, 0),) + deltas
    blocked = grid.blocked
    dx, dy, dz = grid.dims
    gx, gy, gz = goal
    # a state's substep is its g, so g alone tells a (cell, substep)
    # state from a bare cell
    state = (start, 0) if last >= 0 else start
    # entries are (f, -g, state): on equal f the deepest node pops first.
    # With few obstacles most cells between start and goal share the
    # optimal f; popping the shallowest first would expand all of them,
    # popping the deepest follows one optimal path to the goal.  The
    # Manhattan heuristic is consistent, so the path stays optimal.  Equal
    # g means equal substeps, so entries tied on (f, -g) are of one kind.
    open_heap = [(manhattan(start, goal), 0, state)]
    g_best = {state: 0}
    came = {}
    expansions = 0
    while open_heap:
        f, neg_g, state = heapq.heappop(open_heap)
        g = -neg_g
        cell = state[0] if g <= last else state
        if cell == goal:
            cells = [cell]
            while g:
                state, g = came[state], g - 1
                cells.append(state[0] if g <= last else state)
            cells.reverse()
            return Path(cells)
        if g > g_best[state]:
            continue
        expansions += 1
        if expansions > max_expansions or g > horizon:
            raise NoPathError("search budget exhausted")
        ng = g + 1
        timed = ng <= last
        # tick at which the agent is seated in the cell it reaches
        tick = start_tick + (ng + substeps_per_tick - 1) // substeps_per_tick
        cx, cy, cz = cell
        for ddx, ddy, ddz in (with_wait if g <= last else deltas):
            nx, ny, nz = cx + ddx, cy + ddy, cz + ddz
            if not (0 <= nx < dx and 0 <= ny < dy and 0 <= nz < dz):
                continue
            if blocked[nx, ny, nz]:
                continue
            nxt = (nx, ny, nz)
            if timed:
                if not reservations.is_free_for(nxt, tick, agent_id):
                    continue
                nxt = (nxt, ng)
            if ng < g_best.get(nxt, math.inf):
                g_best[nxt] = ng
                came[nxt] = state
                heapq.heappush(open_heap, (
                    ng + abs(nx - gx) + abs(ny - gy) + abs(nz - gz), -ng, nxt))
    raise NoPathError(f"no path {start} -> {goal}")


# ---------------------------------------------------------------------------
# distance fields (exact BFS; unit edge costs)
# ---------------------------------------------------------------------------

def _wavefront(free: np.ndarray, start, reach=None, check_from: int = 0):
    """BFS over a 2D or 3D free mask, one ring per loop pass, with 64
    cells to a machine word.

    The search starts from `start`, one free cell or a bool mask of the
    ring-0 cells.  With `reach`, an (n, free.ndim) array of cells, it
    stops after the ring that labels the last of them it can reach,
    testing from ring `check_from` on, a lower bound the caller knows;
    otherwise it runs until a ring comes out empty.  Returns (label,
    never): an unsigned integer array of the mask's shape holding each
    reached cell's ring, and the label of every other cell, blocked
    ones included.

    Word layout: the first axis x is cut into blocks of 64 cells.  Word
    (w, r) holds cells x = 64w .. 64w + 63 (bit i is x = 64w + i) at
    index r of the other axes, which are padded with one blocked cell on
    every side and flattened; it sits at w * B + r, where B is their
    padded size (52 * 32 words on a 50x50x30 grid).  A move along x is a
    1-bit shift of every word, plus, when x spans more than one block, a
    carry of bit 63 into the same r of the next block: a word shift by
    B.  A move along another axis is a word shift by its stride (Z+2
    for y and 1 for z in 3D, 1 for y in 2D), and the padding keeps it
    inside its block: a shift that crosses a row or plane boundary
    lands in a padding word, which is never free, so `nxt &= todo`
    drops it.  On 50x50x30 a ring is about 10.5 ufunc calls over 1,664
    words (13 kB).

    Ring labels are bit-sliced and Gray-coded: label plane k, one word
    array, holds bit k of the Gray code g(D) = D ^ (D >> 1) of every
    cell's ring D.  g(d) and g(d - 1) differ only in bit tz(d), the
    lowest set bit of d, so ring d XORs every cell not reached before it
    (`todo`, ring d included) into plane tz(d): one XOR per ring.  A
    cell of ring D is XORed at rings 1..D, which leaves g(D); cells
    never reached collect noise, which the `never` mask overrides.  Only
    odd rings test for emptiness: an even empty ring only XORs
    never-reached cells, and d and d + 1 have the same bit length.  A
    plane is added when d reaches a power of two, and one more when the
    search stops at ring 2**K - 1, so the K planes hold 2**K - 1, a
    label above every ring; cells never reached take that label.  After
    the search the planes are turned from Gray code into binary from the
    top down (`planes[k] ^= planes[k + 1]`), unpacked once with
    `np.unpackbits` and folded into one small integer per cell.
    """
    nx, rest = free.shape[0], free.shape[1:]
    blocks = -(-nx // 64)
    padded = tuple(n + 2 for n in rest)
    block = math.prod(padded)  # words per x-block
    inner = (slice(1, -1),) * len(rest)

    def pack(mask):
        # x goes last here, so packbits runs along the contiguous axis
        cells = np.zeros(padded + (64 * blocks,), dtype=bool)
        cells[inner + (slice(0, nx),)] = np.moveaxis(mask, 0, -1)
        words = np.packbits(cells, axis=-1, bitorder="little").view("<u8")
        return np.ascontiguousarray(words.reshape(block, blocks).T).ravel()

    strides = [math.prod(padded[i + 1:]) for i in range(len(padded))]
    free_words = pack(free)
    if isinstance(start, np.ndarray):
        frontier = pack(start)
    else:
        frontier = np.zeros_like(free_words)
        frontier[int(start[0]) // 64 * block + sum(
            (int(c) + 1) * s for c, s in zip(start[1:], strides))] \
            = 1 << (int(start[0]) % 64)
    todo = free_words & ~frontier  # free and not yet reached
    nxt, tmp = np.zeros_like(todo), np.zeros_like(todo)
    if reach is None:
        check_from = math.inf
    else:  # the word and bit of each reach cell
        reach_at = reach[:, 0] // 64 * block + (reach[:, 1:] + 1) @ strides
        reach_bits = np.uint64(1) << (reach[:, 0] % 64).astype(np.uint64)
    # 0-d arrays make cheaper shift operands than numpy scalars
    one, top = np.array(1, todo.dtype), np.array(63, todo.dtype)

    def moves(f, n):
        """(out, in) pairs for `out |= in`: the word shifts from f to n."""
        pairs = [(n[s:], f[:-s]) for s in strides]
        return pairs + [(n[:-s], f[s:]) for s in strides]

    # built once; they swap with the buffers they view
    shifts, swapped = moves(frontier, nxt), moves(nxt, frontier)
    planes = []
    d = 0  # the last ring labelled
    while True:
        if d >= check_from and not (todo[reach_at] & reach_bits).any():
            break
        np.left_shift(frontier, one, nxt)
        np.right_shift(frontier, one, tmp)
        nxt |= tmp
        if blocks > 1:  # bit 63 carries into the next block and back
            np.right_shift(frontier[:-block], top, tmp[block:])
            nxt[block:] |= tmp[block:]
            np.left_shift(frontier[block:], top, tmp[:-block])
            nxt[:-block] |= tmp[:-block]
        for out, shifted in shifts:
            np.bitwise_or(out, shifted, out)
        nxt &= todo
        if not d & 1 and not np.count_nonzero(nxt):  # ring d + 1 is odd
            break
        d += 1
        if d >> len(planes):
            planes.append(np.zeros_like(todo))
        planes[(d & -d).bit_length() - 1] ^= todo
        todo ^= nxt
        frontier, nxt = nxt, frontier
        shifts, swapped = swapped, shifts
    if (1 << len(planes)) - 1 <= d:
        planes.append(np.zeros_like(todo))
    for k in range(len(planes) - 2, -1, -1):  # Gray code to binary
        planes[k] ^= planes[k + 1]
    never = ~(free_words ^ todo)  # todo kept only the unreached
    label = np.zeros(64 * todo.size,
                     dtype=np.min_scalar_type(2 ** len(planes) - 1))
    for plane in reversed(planes):  # one at a time: 1 byte per cell, not K
        label += label
        label |= np.unpackbits((plane | never).view(np.uint8),
                               bitorder="little")
    label = np.moveaxis(label.reshape((blocks,) + padded + (64,)), -1, 1)
    label = label.reshape((64 * blocks,) + padded)[(slice(0, nx),) + inner]
    return label, 2 ** len(planes) - 1


def _write_labels(dst: np.ndarray, label: np.ndarray, never: int) -> None:
    """Rings from `_wavefront` into a float array, inf for `never`."""
    label = np.ascontiguousarray(label)   # a strided cast is slower
    # never / 0 = inf and every other label / 1 = itself, without the
    # slow masked write of inf into scattered cells
    with np.errstate(divide="ignore"):
        np.divide(label, label != never, out=dst, dtype=dst.dtype)


def _plane(grid: Grid, field: np.ndarray, model: MotionModel):
    """(cells, free mask) the kernel searches for a field: the z = 0
    plane for GROUND4, whose other cells are all inf."""
    if model is MotionModel.GROUND4:
        return field[:, :, 0], ~grid.blocked[:, :, 0]
    return field, ~grid.blocked


def distance_field(grid: Grid, source: Cell, model: MotionModel,
                   out: np.ndarray | None = None,
                   reach=None) -> np.ndarray:
    """Exact shortest-path distance (meters) from `source` to every cell,
    np.inf where unreachable.  Matches A* lengths cell for cell.

    The distances go into `out` when it is given, of any float dtype and
    of the grid's shape, or for GROUND4 also its (dx, dy, 1) z = 0
    plane; otherwise into a new float64 array of the grid's shape.  With
    `reach`, some (x, y, z) cells, the rings stop after the one that
    labels the last of them the source reaches, and every cell beyond
    that ring reads inf too; `resume_field` adds the rings left out.
    """
    source = tuple(source)
    if out is None:
        out = np.full(grid.dims, np.inf) if model is MotionModel.GROUND4 \
            else np.empty(grid.dims)
    elif model is MotionModel.GROUND4:
        out[:, :, 1:] = np.inf   # nothing to fill in a plane
    dst, free = _plane(grid, out, model)
    if model is MotionModel.GROUND4 and source[2] != 0 \
            or not free[source[:free.ndim]]:
        dst[...] = np.inf
        return out
    source = source[:free.ndim]
    check_from = 0
    if reach is not None:
        reach = np.asarray(reach, dtype=np.intp).reshape(-1, 3)
        if model is MotionModel.GROUND4:  # other cells read inf anyway
            reach = reach[reach[:, 2] == 0, :2]
        if len(reach):
            # a cell's Manhattan distance bounds its ring from below
            check_from = int(np.abs(reach - source).sum(axis=1).max())
    _write_labels(dst, *_wavefront(free, source, reach, check_from))
    return out


def resume_field(grid: Grid, field: np.ndarray, model: MotionModel) -> None:
    """Add, in place, the rings that `distance_field` left out of a
    field it stopped at a `reach` ring, so the field equals the one an
    unbounded `distance_field` returns.

    No search state is kept between calls: the cells of the field's
    last ring are the frontier, and the free cells still at inf are
    those left to reach.  New rings count on from the last one, and
    `np.minimum` merges them, leaving every labelled cell as it was.
    """
    dst, free = _plane(grid, field, model)
    with np.errstate(invalid="ignore"):
        # inf * 0 is nan, which fmax skips (several times faster than a
        # max with `where=`): the last ring, or nan if no cell has one
        last = np.fmax.reduce(dst * 0 + dst, axis=None)
    if not last >= 0:    # the source is blocked or off the plane
        return
    start = dst == last
    free &= ~(dst < last)
    ext = np.empty_like(dst)
    _write_labels(ext, *_wavefront(free, start))
    ext += last
    np.minimum(dst, ext, out=dst)


# ---------------------------------------------------------------------------
# travel-time costs
# ---------------------------------------------------------------------------

def path_cost(distance: float, velocity: float) -> float:
    """Travel time in seconds for a path of `distance` meters."""
    if velocity <= 0.0:
        raise ValueError(f"velocity must be positive, got {velocity}")
    if distance < 0.0:
        raise ValueError(f"distance must be >= 0, got {distance}")
    return distance / velocity


class FieldStore(Mapping):
    """One episode's distance fields, slot-major.

    Per motion model one (slots, cells) float32 array, allocated on the
    model's first field and reused for the whole episode: row s holds
    the field of the task in observation slot s.  An AERIAL6 row is the
    full grid, a GROUND4 row only its z = 0 plane, since every other
    cell is inf.  float32 keeps inf and is exact for every distance
    below 2**24, so a float32 distance divided by a float64 velocity is
    the float64 travel time `path_cost` gives.

    As a Mapping it is keyed by (task id, motion model); a value is the
    row viewed with the field's (x, y, z) shape, (dx, dy, 1) for
    GROUND4.  `ensure` builds missing keys with one `distance_field`
    call each, `drop` forgets a Done task, and `lookup` gathers many
    fields at many cells with one index.

    A row is built only out to the ring of its farthest agent, and
    reads inf beyond it until a `lookup` there completes it with
    `resume_field`.  Every distance `lookup` returns is therefore the
    full field's, and a path walked down a row from a cell just looked
    up stays inside its rings.
    """

    def __init__(self, grid: Grid, slots: int):
        self.grid = grid
        self.slots = slots
        self._arrays: dict = {}   # model -> (slots, cells) float32
        # model -> the task id whose field each row holds, None if none
        self._held = {model: [None] * slots for model in MotionModel}
        # model -> per row, whether it holds every ring of its field
        self._complete = {model: np.zeros(slots, dtype=bool)
                          for model in MotionModel}

    def _shape(self, model: MotionModel) -> Cell:
        dx, dy, dz = self.grid.dims
        return (dx, dy, 1) if model is MotionModel.GROUND4 else (dx, dy, dz)

    def __getitem__(self, key) -> np.ndarray:
        if key not in self:
            raise KeyError(key)
        task_id, model = key
        row = self._held[model].index(task_id)
        return self._arrays[model][row].reshape(self._shape(model))

    def __contains__(self, key) -> bool:
        task_id, model = key
        return task_id is not None and task_id in self._held[model]

    def __iter__(self):
        for model, held in self._held.items():
            for task_id in held:
                if task_id is not None:
                    yield (task_id, model)

    def __len__(self) -> int:
        return sum(len(held) - held.count(None)
                   for held in self._held.values())

    def _writable(self, model: MotionModel) -> np.ndarray:
        """The model's array, allocated on first use."""
        array = self._arrays.get(model)
        if array is None:
            array = self._arrays[model] = np.empty(
                (self.slots, math.prod(self._shape(model))), dtype=np.float32)
        return array

    def ensure(self, model: MotionModel, tasks, rows, reach) -> None:
        """Hold the `model` field of each task (.id, .location) in its
        row, `rows[j]` for `tasks[j]`.  A row that holds another task's
        field, or none, is built with one `distance_field` call straight
        into the row, out to the ring of the farthest of the `reach`
        cells, so a row a new task reuses is rebuilt and its old key
        leaves."""
        held = self._held[model]
        for task, row in zip(tasks, rows):
            if held[row] == task.id:
                continue
            array = self._writable(model)
            distance_field(self.grid, task.location, model,
                           out=array[row].reshape(self._shape(model)),
                           reach=reach)
            held[row] = task.id
            self._complete[model][row] = False

    def drop(self, task_id: int) -> None:
        """Forget a task's fields; their rows are free for reuse."""
        for held in self._held.values():
            if task_id in held:
                held[held.index(task_id)] = None

    def lookup(self, model: MotionModel, rows: np.ndarray,
               cells: np.ndarray) -> np.ndarray:
        """(len(cells), len(rows)) float32 distances from each (x, y, z)
        cell, a row of `cells`, to the source of each field row.  A row
        that reads inf at one of the cells, and may yet reach it, is
        completed first.  Completing costs little more than adding the
        few rings a cell needs, since most of a resume's work is fixed,
        and an agent walking away from a task would otherwise resume
        its row round after round."""
        shape, array = self._shape(model), self._arrays[model]
        flat = np.ravel_multi_index(cells.T, shape)
        out = array[rows[None, :], flat[:, None]]
        short = np.isinf(out).any(axis=0) & ~self._complete[model][rows]
        for j in np.flatnonzero(short):
            row = rows[j]
            resume_field(self.grid, array[row].reshape(shape), model)
            self._complete[model][row] = True
            out[:, j] = array[row, flat]
        return out


def cost_matrix(state) -> CostMatrix:
    """N x M_live travel-time estimates; columns are live (not Done)
    tasks in ascending task-id order; np.inf where unreachable.

    `state` needs .grid, .agents (position/velocity/motion_model),
    .live_tasks(), .live_slots() (the slot of each live task) and a
    `FieldStore` .dist_cache, which holds one distance field per (task
    id, motion model) in the row of the task's slot.  Each entry is the
    same division as `path_cost`, done for all agents of one motion
    model with one gather of their cells from that model's live rows.
    """
    tasks = state.live_tasks()
    agents = state.agents
    velocity = np.array([ag.velocity for ag in agents], dtype=np.float64)
    if (velocity <= 0.0).any():
        raise ValueError(f"velocity must be positive, got {velocity.min()}")
    entries = np.empty((len(agents), len(tasks)))
    if not tasks:
        return CostMatrix(entries)
    rows = np.array(state.live_slots())
    models = [ag.motion_model for ag in agents]
    for model in MotionModel:
        which = [i for i, m in enumerate(models) if m is model]
        if not which:
            continue
        cells = np.array([agents[i].position for i in which], dtype=np.intp)
        state.dist_cache.ensure(model, tasks, rows, cells)
        entries[which] = state.dist_cache.lookup(model, rows, cells)
    # float32 distances widen exactly, so this is the float64 division
    entries /= velocity[:, None]
    return CostMatrix(entries)


# ---------------------------------------------------------------------------
# RRT* (discrete adaptation)
# ---------------------------------------------------------------------------

@dataclass
class RRTParams:
    max_iters: int = 800
    rewire_radius: float = 4.0
    step_cells: int = 8
    goal_bias: float = 0.1

    def __post_init__(self):
        for name in ("max_iters", "step_cells"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.step_cells < 1:
            raise ValueError("step_cells must be >= 1")
        if not (math.isfinite(self.rewire_radius) and self.rewire_radius >= 0):
            raise ValueError("rewire_radius must be finite and >= 0")
        if not 0.0 <= self.goal_bias <= 1.0:
            raise ValueError("goal_bias must be in [0, 1]")


def _staircase(a: Cell, b: Cell, limit: int | None = None) -> list[Cell]:
    """Unit axis steps from `a` to `b`: every cell after `a`, ending at
    `b`, or only the first `limit` of them.  Each step moves along the
    axis with the largest remaining |delta|, ties to the lower axis, so
    the cells stay inside the box spanned by `a` and `b`."""
    x, y, z = a
    rx, ry, rz = b[0] - x, b[1] - y, b[2] - z  # remaining |delta| per axis
    sx = sy = sz = 1
    if rx < 0:
        rx, sx = -rx, -1
    if ry < 0:
        ry, sy = -ry, -1
    if rz < 0:
        rz, sz = -rz, -1
    n = rx + ry + rz
    if limit is not None and limit < n:
        n = limit
    cells = []
    for _ in range(n):
        if rx >= ry and rx >= rz:
            x += sx
            rx -= 1
        elif ry >= rz:
            y += sy
            ry -= 1
        else:
            z += sz
            rz -= 1
        cells.append((x, y, z))
    return cells


def _pcg64_draws(seed: int):
    """`random()` and `integers(n)` for 1 <= n <= 2**32, returning what
    `np.random.default_rng(seed)` returns call for call, as Python
    numbers, from one raw 64-bit word of its PCG64 stream per fetch.

    A double is the word's top 53 bits times 2**-53.  An integer takes
    Lemire's multiply-and-reject on a 32-bit half-word: the low half of
    a fresh word first, its high half kept for the next integer draw
    (doubles do not disturb it), and n = 1 draws nothing."""
    raw = np.random.default_rng(seed).bit_generator.random_raw
    half = None  # the high half-word not yet used by an integer draw

    def random() -> float:
        return (raw() >> 11) * 2.0 ** -53

    def next32() -> int:
        nonlocal half
        if half is None:
            word = raw()
            half = word >> 32
            return word & 0xFFFFFFFF
        word, half = half, None
        return word

    def integers(n: int) -> int:
        if n == 1:
            return 0
        m = next32() * n
        if m & 0xFFFFFFFF < n:  # only a low part below n can be biased
            threshold = (2**32 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = next32() * n
        return m >> 32

    return random, integers


def rrt_star(grid: Grid, start: Cell, goal: Cell, model: MotionModel,
             params: RRTParams | None = None, seed: int = 0) -> Path:
    """Sampling-based planner on grid cells with staircase connectors
    and cost-based rewiring.  Deterministic for a fixed seed: samples
    come from `_pcg64_draws`, the draws `np.random.default_rng(seed)`
    would make.  Segment costs are Manhattan lengths, so any returned
    path is >= the A* optimum on the same instance.  Rewiring lowers the
    rewired node's cost only, not its descendants' (they keep their
    stored costs).

    Each iteration scans the tree once, for the node nearest the
    sample.  A staircase step lowers the Manhattan distance to the
    sample by exactly one, so after `steps` steps from the nearest node
    (at distance D) every node within the rewire radius of the new node
    lies within D - steps + radius of the sample; the near set is read
    off that same scan.  A sample that is already a tree node is
    skipped before the scan: steering from it yields it again.
    """
    params = params or RRTParams()
    start, goal = tuple(start), tuple(goal)
    if not grid.is_free(start) or not grid.is_free(goal):
        raise NoPathError("start or goal blocked")
    ground = model is MotionModel.GROUND4
    if ground and (start[2] != 0 or goal[2] != 0):
        raise NoPathError("ground model requires z=0 endpoints")

    random, integers = _pcg64_draws(seed)
    dim_x, dim_y, dim_z = grid.dims
    step_cells, radius = params.step_cells, params.rewire_radius
    # one C-order byte per cell, 1 where blocked: cell (x, y, z) sits at
    # (x * dim_y + y) * dim_z + z.  Every cell looked up below is a
    # sample inside dims or on a staircase between two in-grid cells,
    # so no bounds test is needed.
    blocked = np.asarray(grid.blocked, dtype=bool).tobytes()

    def line_free(a: Cell, b: Cell) -> bool:
        for x, y, z in _staircase(a, b):
            if blocked[(x * dim_y + y) * dim_z + z]:
                return False
        return True

    def sample_cell() -> Cell:
        if random() < params.goal_bias:
            return goal
        for _ in range(64):
            x = integers(dim_x)
            y = integers(dim_y)
            z = 0 if ground else integers(dim_z)
            if not blocked[(x * dim_y + y) * dim_z + z]:
                return (x, y, z)
        return goal

    nodes: list[Cell] = [start]
    index = {start: 0}  # cell -> node index; a cell is a node at most once
    parent = [-1]
    cost = [0.0]
    # node coordinates as columns: the start plus one node per iteration
    xs, ys, zs = np.empty((3, params.max_iters + 1), dtype=np.int64)
    xs[0], ys[0], zs[0] = start

    def node_dists(cell: Cell) -> np.ndarray:
        """Manhattan distance from every node to `cell`."""
        n = len(nodes)
        x, y, z = cell
        d = abs(xs[:n] - x)
        d += abs(ys[:n] - y)
        if not ground:  # ground nodes and samples all sit at z = 0
            d += abs(zs[:n] - z)
        return d

    for _ in range(params.max_iters):
        target = sample_cell()
        if target in index:
            continue
        dt = node_dists(target)
        # argmin returns the first minimum: ties go to the oldest node
        nearest = int(dt.argmin())
        # steer: walk toward the sample, stop at obstacle or step budget
        new = nodes[nearest]
        steps = 0
        for c in _staircase(new, target, step_cells):
            if blocked[(c[0] * dim_y + c[1]) * dim_z + c[2]]:
                break
            new = c
            steps += 1
        if new in index:
            continue
        # nodes within the rewire radius, ascending: candidates by the
        # bound on their distance to the sample, then the exact test
        near = []
        if steps <= radius:
            reach = int(dt[nearest]) - steps + radius
            near = [k for k in (dt <= reach).nonzero()[0].tolist()
                    if manhattan(nodes[k], new) <= radius]
        # choose lowest-cost parent within the rewire radius
        best_par, best_cost = None, math.inf
        for k in sorted(set(near) | {nearest}):
            seg = manhattan(nodes[k], new)
            if cost[k] + seg < best_cost and line_free(nodes[k], new):
                best_par, best_cost = k, cost[k] + seg
        if best_par is None:
            continue
        idx = len(nodes)
        nodes.append(new)
        index[new] = idx
        xs[idx], ys[idx], zs[idx] = new
        parent.append(best_par)
        cost.append(best_cost)
        # rewire neighbors through the new node (itself excluded: a
        # zero-length segment never lowers its cost)
        for k in near:
            seg = manhattan(new, nodes[k])
            if best_cost + seg < cost[k] - 1e-9 and line_free(new, nodes[k]):
                parent[k] = idx
                cost[k] = best_cost + seg

    goal_idx = index.get(goal)
    if goal_idx is None:
        # final attempt: connect the closest node straight to the goal
        order = np.argsort(node_dists(goal), kind="stable")  # ties: oldest
        for k in order[:32].tolist():
            if line_free(nodes[k], goal):
                goal_idx = len(nodes)
                nodes.append(goal)
                parent.append(k)
                break
    if goal_idx is None:
        raise NoPathError("rrt_star: no connection within iteration budget")

    waypoints = []
    k = goal_idx
    while k != -1:
        waypoints.append(nodes[k])
        k = parent[k]
    waypoints.reverse()
    cells = [start]
    for a, b in zip(waypoints, waypoints[1:]):
        cells.extend(_staircase(a, b))
    return Path(cells)


# ---------------------------------------------------------------------------
# reservation-based conflict resolution
# ---------------------------------------------------------------------------

@dataclass
class AgentPlan:
    agent_id: int
    cost: float  # task completion cost; lower cost keeps its path
    path: Path
    velocity: float
    start_tick: int = 0

    @property
    def substeps_per_tick(self) -> int:
        return max(1, int(round(self.velocity)))


def plan_schedule(plan: AgentPlan) -> list[tuple[Cell, int]]:
    """(cell, tick) pairs the plan occupies at integer 1 s ticks, from the
    first tick after start to arrival."""
    cells = plan.path.cells
    per = plan.substeps_per_tick
    out = []
    tick = plan.start_tick
    idx = 0
    while idx < len(cells) - 1:
        idx = min(idx + per, len(cells) - 1)
        tick += 1
        out.append((cells[idx], tick))
    return out


def resolve_paths(plans: list[AgentPlan], reservations: ReservationTable,
                  grid: Grid, models: dict) -> list[AgentPlan]:
    """Book space-time reservations in ascending (cost, agent id) order;
    one plan comes back per input.

    A plan whose schedule is free is booked as it is.  Otherwise it
    replans with reservation-aware A* under `models[agent_id]`, which
    searches a wait at every substep, so any delayed start of the old
    path lies inside that search, and the new path is booked.  When no
    such path exists the plan holds its start cell for a tick and books
    nothing; `advance` rebooks it when it meets a taken slot.
    """
    resolved = []
    for plan in sorted(plans, key=lambda p: (p.cost, p.agent_id)):
        schedule = plan_schedule(plan)
        if not all(reservations.is_free_for(c, t, plan.agent_id)
                   for c, t in schedule):
            try:
                alt = astar(grid, plan.path.cells[0], plan.path.goal,
                            models[plan.agent_id], reservations,
                            plan.agent_id, plan.start_tick,
                            plan.substeps_per_tick)
            except NoPathError:
                cells = plan.path.cells
                resolved.append(replace(
                    plan, path=Path([cells[0], cells[0]] + cells[1:])))
                continue
            plan = replace(plan, path=alt)
            schedule = plan_schedule(plan)
        # the schedule is free, or A* skipped every slot another agent
        # holds: reserve raises on a double booking only as a fault
        for c, t in schedule:
            reservations.reserve(c, t, plan.agent_id)
        resolved.append(plan)
    return resolved
