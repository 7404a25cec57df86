"""Grid path planning: A*, a discrete RRT*, distance fields, travel-time
cost matrices, and reservation-based motion conflict resolution.

Cells are integer (x, y, z) tuples on a 1 m grid.  Two motion models are
supported: 4-connected ground movement restricted to z=0 and 6-connected
axis moves in 3D for aerial agents.  All moves have unit length, so
shortest paths are BFS-exact and A* with a Manhattan heuristic is optimal.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
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


@dataclass(frozen=True, init=False)
class Grid:
    """A box of `dims` cells, made from a bool mask, True where no agent
    may stand.  `occupancy`, the one map it stores, has one byte per
    cell, 1 where blocked, of the box padded with one blocked cell on
    every side, in C order: `index` gives a cell's byte, and a unit move
    along x, y or z adds `strides[0]`, `strides[1]` or 1 to it.  A step
    off the box lands on the border, so a planner stepping by offsets
    needs no bounds test, and the index orders cells as their (x, y, z)
    tuples do.  `padded` and `blocked` view those immutable bytes, read
    only, so no mask drifts from them, in a copy or an unpickled grid."""

    dims: Cell
    occupancy: bytes = field(repr=False)
    strides: tuple = field(repr=False, compare=False)

    def __init__(self, dims: Cell, blocked: np.ndarray):
        dims = tuple(dims)
        if blocked.shape != dims:
            raise ValueError(f"blocked mask shape {blocked.shape} "
                             f"does not match dims {dims}")
        padded = np.ones([n + 2 for n in dims], dtype=bool)
        padded[1:-1, 1:-1, 1:-1] = blocked
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "occupancy", padded.tobytes())
        object.__setattr__(self, "strides", padded.strides[:2])

    @property
    def padded(self) -> np.ndarray:
        """`occupancy` as a bool array of the padded box's shape."""
        return np.frombuffer(self.occupancy, dtype=bool).reshape(
            [n + 2 for n in self.dims])

    @property
    def blocked(self) -> np.ndarray:
        """The mask, a bool array of shape `dims`."""
        return self.padded[1:-1, 1:-1, 1:-1]

    def index(self, cell: Cell) -> int:
        """The byte of in-box (x, y, z) `cell` in `occupancy`."""
        sx, sy = self.strides
        return (cell[0] + 1) * sx + (cell[1] + 1) * sy + cell[2] + 1

    def cell(self, index: int) -> Cell:
        """The in-box (x, y, z) cell at byte `index` of `occupancy`."""
        sx, sy = self.strides
        x, rest = divmod(index, sx)
        y, z = divmod(rest, sy)
        return (x - 1, y - 1, z - 1)

    def is_free(self, cell: Cell) -> bool:
        x, y, z = cell
        return 0 <= x < self.dims[0] and 0 <= y < self.dims[1] \
            and 0 <= z < self.dims[2] and not self.occupancy[self.index(cell)]


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
        ground = model is MotionModel.GROUND4
        for c in self.cells:
            if not grid.is_free(c):
                raise ValueError(f"path crosses blocked cell {c}")
            if ground and c[2] != 0:
                raise ValueError(f"ground path leaves z = 0 at {c}")
        for a, b in zip(self.cells, self.cells[1:]):
            d = tuple(bi - ai for ai, bi in zip(a, b))
            if d != (0, 0, 0) and d not in model.deltas:
                raise ValueError(f"non-neighbor step {a} -> {b}")


class ReservationTable:
    """Space-time map (cell, tick) -> agent id; at most one owner each."""

    def __init__(self):
        self.slots: dict[tuple[Cell, int], int] = {}

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


def _endpoints(grid: Grid, model: MotionModel, start: Cell,
               goal: Cell) -> tuple[Cell, Cell]:
    """`start` and `goal` as tuples, each free, in bounds and, under
    GROUND4, at z = 0; else NoPathError naming the one that fails."""
    start, goal = tuple(start), tuple(goal)
    for name, cell in (("start", start), ("goal", goal)):
        if not grid.is_free(cell):
            raise NoPathError(f"{name} {cell} is blocked or out of bounds")
        if model is MotionModel.GROUND4 and cell[2] != 0:
            raise NoPathError(f"ground model requires z=0: {name} {cell}")
    return start, goal


# ---------------------------------------------------------------------------
# A*
# ---------------------------------------------------------------------------

# expansions after which a search gives up with NoPathError
ASTAR_MAX_EXPANSIONS = 500_000


def astar(grid: Grid, start: Cell, goal: Cell, model: MotionModel,
          reservations: ReservationTable | None = None,
          agent_id: int | None = None, start_tick: int = 0,
          substeps_per_tick: int = 1) -> Path:
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
    start, goal = _endpoints(grid, model, start, goal)
    max_expansions = ASTAR_MAX_EXPANSIONS
    # substeps up to `last` fall in a tick that may hold a reservation
    last = -1 if reservations is None or not reservations.slots else \
        (reservations.max_tick() - start_tick) * substeps_per_tick
    # a state's cell is its byte in the grid's padded occupancy, which
    # orders cells as their (x, y, z) tuples do; a move is (offset of
    # that byte, dx, dy, dz), and a move off the grid reads the border
    occupancy = grid.occupancy
    sx, sy = grid.strides
    moves = tuple((ddx * sx + ddy * sy + ddz, ddx, ddy, ddz)
                  for ddx, ddy, ddz in model.deltas)
    with_wait = ((0, 0, 0, 0),) + moves
    gx, gy, gz = goal
    target = grid.index(goal)
    # a state's substep is its g, so g alone tells a (cell, substep)
    # state from a bare cell
    here = grid.index(start)
    state = (here, 0) if last >= 0 else here
    # entries are (f, -g, state, x, y, z), (x, y, z) the state's cell:
    # on equal f the deepest node pops first.  With few obstacles most
    # cells between start and goal share the optimal f; popping the
    # shallowest first would expand all of them, popping the deepest
    # follows one optimal path to the goal.  The Manhattan heuristic is
    # consistent, so the path stays optimal.  Equal g means equal
    # substeps, so entries tied on (f, -g) are of one kind, and no two
    # entries tie on (f, -g, state).
    open_heap = [(manhattan(start, goal), 0, state) + start]
    g_best = {state: 0}
    came = {}
    expansions = 0
    while open_heap:
        f, neg_g, state, cx, cy, cz = heapq.heappop(open_heap)
        g = -neg_g
        here = state[0] if g <= last else state
        if here == target:
            states = [here]
            while g:
                state, g = came[state], g - 1
                states.append(state[0] if g <= last else state)
            return Path([grid.cell(i) for i in reversed(states)])
        if g > g_best[state]:
            continue
        expansions += 1
        if expansions > max_expansions:
            raise NoPathError("search budget exhausted")
        ng = g + 1
        timed = ng <= last
        # tick at which the agent is seated in the cell it reaches
        tick = start_tick + (ng + substeps_per_tick - 1) // substeps_per_tick
        for offset, ddx, ddy, ddz in (with_wait if g <= last else moves):
            nxt = here + offset
            if occupancy[nxt]:
                continue
            nx, ny, nz = cx + ddx, cy + ddy, cz + ddz
            if timed:
                if not reservations.is_free_for((nx, ny, nz), tick, agent_id):
                    continue
                nxt = (nxt, ng)
            if ng < g_best.get(nxt, math.inf):
                g_best[nxt] = ng
                came[nxt] = state
                heapq.heappush(open_heap, (
                    ng + abs(nx - gx) + abs(ny - gy) + abs(nz - gz), -ng, nxt,
                    nx, ny, nz))
    raise NoPathError(f"no path {start} -> {goal}")


# ---------------------------------------------------------------------------
# distance fields (exact BFS; unit edge costs)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _gray_rings(k: int) -> np.ndarray:
    """The ring that `Rings.labels` reads from an index whose bit 0 is a
    cell's todo bit and whose bits 1..k are its Gray-coded label: the
    decoded label, or inf where bit 0 is set."""
    ring = np.arange(2 ** k)
    table = np.full(2 ** (k + 1), np.inf)
    table[(ring ^ ring >> 1) << 1] = ring
    table.flags.writeable = False   # one array serves every caller
    return table


# A row of at most this many words runs its rings on Python ints, a
# larger one on numpy arrays.  Per ring, on one 2-vCPU Xeon (Python
# 3.11, numpy 2.4), one x-block: 1.5 against 4.3 us at 52 words (the
# 50x50 ground plane), 2.8 against 5.4 at 102, 5.3 against 5.5 at 224,
# 5.8 against 5.8 at 256, 6.3 against 5.8 at 288, 7.6 against 6.1 at
# 384, 25.9 against 9.8 at 1,664 (50x50x30 aerial); two x-blocks: 5.2
# against 8.2 at 204 and 8.5 against 9.7 at 392
INT_LOOP_WORDS = 256
_NO_CELLS = np.empty(0, dtype=np.uintp)
_NO_CELLS.flags.writeable = False


class Rings:
    """Resumable breadth-first searches of one motion model over one
    grid, one search per row, kept packed 64 cells to a machine word.

    `Rings` owns the model's search: the cells it searches, its start,
    its rings, its labels and its walks.  The model picks the mask of
    searched cells: every free cell for AERIAL6, and for GROUND4 the
    free cells of the z = 0 plane, as no ground move leaves it; `bounds`
    is their box.  `Rings` packs its free words from the grid's
    occupancy and reads freeness there, keeping no mask of its own.
    Every method takes (x, y, z) cells; one off the mask reads blocked.

    Word layout: the first axis x, up to one cell past its last, is cut
    into blocks of 64 cells.  Word (w, r) holds cells x = 64w .. 64w +
    63 (bit i is x = 64w + i) at index r of the other searched axes (y
    and z, or y alone on the plane), padded with one blocked cell on
    every side as in the occupancy and flattened; it sits at w * B + r,
    where B is their padded size (52 * 32 words on a 50x50x30 grid).  A
    move along x is a 1-bit shift of every word, plus, when x spans more
    than one block, a carry of bit 63 into the same r of the next block:
    a word shift by B.  A move along another axis is a word shift by its
    stride (Z+2 for y and 1 for z in 3D, 1 for y on the plane), and the
    padding keeps it inside its block: a shift that crosses a row or
    plane boundary lands in a padding word, which is never free, so
    `nxt &= todo` drops it.

    A row's search is its state after its last ring: `todo`, the free
    cells not yet reached; `frontier`, the cells of the last ring;
    `ring`, that ring's number; `done`, whether a ring came out empty;
    `source`, its start cell; and K label `planes`.  Ring labels are
    bit-sliced and Gray-coded: plane k holds bit k of the Gray code
    g(D) = D ^ (D >> 1) of every reached cell's ring D.  g(d) and
    g(d - 1) differ only in bit tz(d), the lowest set bit of d, so ring
    d XORs every cell not reached before it (`todo`, ring d included)
    into plane tz(d): one XOR per ring.  A cell of ring D is XORed at
    rings 1..D, which leaves g(D); cells not reached collect noise, so
    a label is read only where `free & ~todo` is set.  Planes start at
    zero and `start` clears the ones the row's last search wrote, those
    below its ring's bit length, so every plane at or above that length
    reads zero.  No ring exceeds the number n of free cells, so K, the
    bit length of n + 1, leaves 2**K - 1 above every ring.  A row's
    `todo` sits just before its planes, so one gather reads a cell's
    reached bit and its label bits together.

    `search` runs the rings in one of two loops that leave the same
    row.  A numpy ring costs about ten ufunc calls whatever the row's
    size, a Python-int ring one pass of int arithmetic over the row, so
    a row of at most `INT_LOOP_WORDS` words (the crossover, measured at
    several sizes) reads `todo`, `frontier` and the planes its rings
    touch into Python ints once per search, runs its rings on them and
    writes them back once; a larger row runs on its numpy words.  Row
    storage is the same for both.
    """

    def __init__(self, grid: Grid, model: MotionModel, rows: int):
        self.grid, self.deltas = grid, model.deltas
        # the occupancy, y and z padded as the words are, or its z = 0 column
        occupied, bounds = grid.padded[1:-1], grid.dims
        if model is MotionModel.GROUND4:
            occupied, bounds = occupied[:, :, 1], bounds[:2] + (1,)
        free, ground = ~occupied, occupied.ndim == 2
        self.nx = free.shape[0]
        # one bit past the last x, so every axis has padding at its bound
        self.blocks = self.nx // 64 + 1
        self.block = free[0].size  # words per x-block
        # word strides along y and z, the occupancy's, or along y alone
        self.strides = (grid.strides[1], 1)[ground:]
        self.bounds = np.array(bounds, dtype=np.uintp)
        # cells @ _coef + _base: each (x, y, z) cell's word within its
        # x-block and its byte in the occupancy; on the plane z weighs 0
        # in the word and -1 in the byte, so z = 1 reads the border
        self._coef = np.array([(0,) + self.strides + (0,) * ground,
                               grid.strides + (-1 if ground else 1,)]).T
        self._base = np.array([sum(self.strides), grid.index((0, 0, 0))])
        # x goes last here, so packbits runs along the contiguous axis
        cells = np.zeros(free.shape[1:] + (64 * self.blocks,), dtype=bool)
        cells[..., :self.nx] = np.moveaxis(free, 0, -1)
        words = np.packbits(cells, axis=-1, bitorder="little").view("<u8")
        self.free = np.ascontiguousarray(
            words.reshape(self.block, self.blocks).T).ravel()
        planes = int(np.count_nonzero(free) + 1).bit_length()
        # per row: todo, then the planes; np.zeros leaves untouched
        # pages unmapped, so only the planes rings reach take memory
        self._words = np.zeros((rows, planes + 1, self.free.size),
                               dtype="<u8")
        # word offset and index bit of todo and each plane in a row
        self._offsets = np.arange(planes + 1) * self.free.size
        self._weights = 1 << np.arange(planes + 1)
        self.frontier = np.empty((rows, self.free.size), dtype="<u8")
        # `_int_loop`'s shifts along y and z, and with two or more
        # x-blocks its masks of every word's bit 0 and bit 63
        self._int_strides = [64 * s for s in self.strides]
        self._int_carry = None
        if self.blocks > 1:
            lo = int.from_bytes(np.ones(self.free.size, "<u8"), "little")
            every = (1 << 64 * self.free.size) - 1
            self._int_carry = (lo, lo << 63, every ^ lo, every ^ lo << 63,
                               64 * self.block - 63)
        self.ring = np.zeros(rows, dtype=np.int64)
        self.done = np.ones(rows, dtype=bool)
        self.source = np.zeros((rows, 3), dtype=np.intp)

    # views taken on each use, so a copy of a stack keeps them in it
    @property
    def todo(self) -> np.ndarray:
        return self._words[:, 0]

    @property
    def planes(self) -> np.ndarray:
        return self._words[:, 1:]

    def locate(self, cells: np.ndarray):
        """(word, bit, free) of each (x, y, z) cell, a row of `cells`:
        its word's index, its bit's index in the word, and whether the
        occupancy holds it free.  A coordinate outside `bounds` (negative
        ones wrap) is clamped to its bound, padding in the words and in
        the occupancy, so a cell off the grid or the plane is not free."""
        edge = np.minimum(cells.astype(np.uintp), self.bounds)
        found = edge.view(np.intp) @ self._coef + self._base
        at, x = found[:, 0], edge[:, 0]
        if self.blocks > 1:
            at += (x >> 6).astype(np.intp) * self.block
            x = x & 63
        occupied = np.frombuffer(self.grid.occupancy, dtype=bool)
        return at, x, ~occupied.take(found[:, 1])

    def start(self, row: int, source) -> None:
        """Row `row` searches from (x, y, z) `source`, or from nothing,
        ring 0 only, when that is not a free cell of the mask (`locate`),
        a cell off the grid included."""
        self.planes[row, :int(self.ring[row]).bit_length()] = 0
        todo, frontier = self.todo[row], self.frontier[row]
        todo[:] = self.free
        frontier[:] = 0
        self.ring[row], self.done[row] = 0, True
        (w,), (b,), (free,) = self.locate(np.array([source]))
        if free:
            self.done[row] = False
            self.source[row] = source
            frontier[w] = np.uint64(1) << b
            todo[w] ^= frontier[w]

    def search(self, row: int, cells=None) -> int:
        """Continue row `row` ring by ring and return the number of rings
        it labelled.

        With `cells`, some (x, y, z) cells, it stops after the ring that
        labels the last of them it can reach, testing from the largest
        Manhattan distance between one of them and the row's source on,
        a lower bound on that ring; otherwise it runs until a ring comes
        out empty, which ends the search for good.  Only odd rings test
        for emptiness.  When one comes out empty, the even ring before
        it may have been empty too, having XORed only cells never
        reached into its plane; the search then undoes that XOR, so a
        row's ring is the last that labelled a cell.

        A row of at most `INT_LOOP_WORDS` words runs its rings on Python
        ints (`_int_loop`), a larger one on its numpy words
        (`_array_loop`); both leave the same words, ring and end.
        """
        if self.done[row]:
            return 0
        first = int(self.ring[row])
        loop = (self._int_loop if self.free.size <= INT_LOOP_WORDS
                else self._array_loop)
        d, dry = loop(row, first, *self._reach(row, cells))
        self.ring[row], self.done[row] = d, dry
        return d - first

    def _reach(self, row: int, cells):
        """`search`'s stop for row `row`: the words and bits (`locate`) of
        the free ones among `cells`, and the ring from which the loop
        tests them, a lower bound on the last ring they need: the
        largest Manhattan distance between one of them and the row's
        source.  Without `cells`, no cells and inf."""
        if cells is None:
            return _NO_CELLS, _NO_CELLS, math.inf
        cells = np.asarray(cells, dtype=np.intp).reshape(-1, 3)
        at, shift, free = self.locate(cells)
        sx, sy, sz = self.source[row].tolist()
        check_from = max([abs(x - sx) + abs(y - sy) + abs(z - sz)
                          for x, y, z in cells[free].tolist()], default=0)
        return at[free], shift[free], check_from

    def _array_loop(self, row: int, d: int, at, shift, check_from):
        """`search`'s rings from ring `d` on the row's uint64 words, one
        loop pass a ring, testing the cells at words `at`, bits `shift`
        from ring `check_from` on: (the last ring, whether one came out
        empty).  On 50x50x30 an aerial ring is about 10.5 ufunc calls
        over 1,664 words (13 kB)."""
        planes, todo = self.planes[row], self.todo[row]
        frontier = kept = self.frontier[row]
        reach_bits = np.left_shift(np.uint64(1), shift)
        nxt, tmp = np.empty_like(todo), np.empty_like(todo)
        block, blocks = self.block, self.blocks
        # 0-d arrays make cheaper shift operands than numpy scalars
        one, top = np.array(1, todo.dtype), np.array(63, todo.dtype)

        def moves(f, n):
            """(out, in) pairs for `out |= in`: the word shifts from f to
            n."""
            pairs = [(n[s:], f[:-s]) for s in self.strides]
            return pairs + [(n[:-s], f[s:]) for s in self.strides]

        # built once; they swap with the buffers they view
        shifts, swapped = moves(frontier, nxt), moves(nxt, frontier)
        dry = False
        while True:
            if d >= check_from and not (todo[at] & reach_bits).any():
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
                dry = True
                if not np.count_nonzero(frontier):
                    planes[(d & -d).bit_length() - 1] ^= todo
                    d -= 1
                break
            d += 1
            planes[(d & -d).bit_length() - 1] ^= todo
            todo ^= nxt
            frontier, nxt = nxt, frontier
            shifts, swapped = swapped, shifts
        if frontier is not kept:
            kept[:] = frontier
        return d, dry

    def _int_loop(self, row: int, d: int, at, shift, check_from):
        """`_array_loop` with the row's words as one little-endian
        Python int each for `todo`, `frontier` and the planes its rings
        touch, read from the row once and written back once.  Word i's
        bit b is the int's bit 64 i + b, so a move along x is a 1-bit
        shift and one along y or z a shift by 64 times its stride.  With
        one x-block no x shift crosses a word into a free cell: bit 63
        is padding.  With two or more, bit 63 and bit 0 are masked out
        of the 1-bit shifts and carried a block instead."""
        words = memoryview(self._words[row]).cast("B")
        frontier = memoryview(self.frontier[row]).cast("B")
        size = len(frontier)
        todo = int.from_bytes(words[:size], "little")
        f = int.from_bytes(frontier, "little")
        reach = 0
        for a, b in zip(at.tolist(), shift.tolist()):
            reach |= 1 << (a << 6 | b)
        strides, carry = self._int_strides, self._int_carry
        if carry:
            lo, hi, inner_lo, inner_hi, c = carry
        xors = {}   # plane -> what the rings XOR into it
        dry = False
        while True:
            if d >= check_from and not todo & reach:
                break
            if carry:
                nxt = ((f & inner_hi) << 1 | (f & inner_lo) >> 1
                       | (f & hi) << c | (f & lo) >> c)
            else:
                nxt = f << 1 | f >> 1
            for s in strides:
                nxt |= f << s | f >> s
            nxt &= todo
            if not d & 1 and not nxt:  # ring d + 1 is odd
                dry = True
                if not f:
                    k = (d & -d).bit_length() - 1
                    xors[k] = xors.get(k, 0) ^ todo
                    d -= 1
                break
            d += 1
            k = (d & -d).bit_length() - 1
            xors[k] = xors.get(k, 0) ^ todo
            todo ^= nxt
            f = nxt
        words[:size] = todo.to_bytes(size, "little")
        frontier[:] = f.to_bytes(size, "little")
        for k, bits in xors.items():
            plane = words[(k + 1) * size:(k + 2) * size]
            bits ^= int.from_bytes(plane, "little")
            plane[:] = bits.to_bytes(size, "little")
        return d, dry

    def labels(self, rows: np.ndarray, at: np.ndarray,
               shift: np.ndarray) -> np.ndarray:
        """(len(rows), len(at)) rings of the cells at words `at`, bits
        `shift`, in each row; inf where the row has not reached the cell.
        Only a free cell (`locate`) has a ring: what any other reads is
        meaningless."""
        k = int(self.ring[rows].max(initial=0)).bit_length()
        got = self._words.take((rows * self._words[0].size)[:, None, None]
                               + (at[:, None] + self._offsets[:k + 1]))
        got >>= shift[:, None]
        got &= np.uint64(1)
        return _gray_rings(k).take(got.view(np.int64)
                                   @ self._weights[:k + 1])

    def decode(self, row: int, out: np.ndarray) -> None:
        """Every cell's ring into `out`, an array of the grid's shape:
        what `labels` reads at each free cell of the mask, and inf at
        every other cell."""
        cells = np.argwhere(~self.grid.blocked[:, :, :self.bounds[2]])
        at, shift, _ = self.locate(cells)
        out[...] = np.inf
        out[tuple(cells.T)] = self.labels(np.array([row]), at, shift)[0]

    def walk(self, row: int, cell: Cell) -> list:
        """Cells from (x, y, z) `cell` down to the row's source, raising
        NoPathError if the row has not reached `cell`: from a cell on
        ring d (read with `labels`), the first neighbour in the motion
        model's order that the row reached on ring d - 1.  Among reached
        neighbours (rings d - 1, d and d + 1) only that ring's bit in
        plane tz(d) differs from the cell's own."""
        at, shift, free = self.locate(np.array([cell]))
        d = self.labels(np.array([row]), at, shift)[0, 0]
        if not free[0] or d == math.inf:
            raise NoPathError(f"row {row} has not reached {cell}")
        d = int(d)
        nx, block = self.nx, self.block
        x, y, z = cell
        r = int(at[0]) - x // 64 * block
        reached = memoryview(self.free & ~self.todo[row])
        planes = [memoryview(p) for p in
                  self.planes[row, :int(self.ring[row]).bit_length()]]
        # (dx, dy, dz, word step along y and z) per neighbour
        steps = [(dx, dy, dz, sum(c * s for c, s in zip((dy, dz),
                                                         self.strides)))
                 for dx, dy, dz in self.deltas]
        cells = [(x, y, z)]
        while d:
            plane = planes[(d & -d).bit_length() - 1]
            here = plane[x // 64 * block + r] >> x % 64 & 1
            for dx, dy, dz, dr in steps:
                a = x + dx
                if not 0 <= a < nx:
                    continue
                w, b = a // 64 * block + r + dr, a % 64
                if reached[w] >> b & 1 and plane[w] >> b & 1 != here:
                    break
            else:
                raise RuntimeError("no reached neighbour on the ring below")
            x, y, z, r, d = a, y + dy, z + dz, r + dr, d - 1
            cells.append((x, y, z))
        return cells


def distance_field(grid: Grid, source: Cell, model: MotionModel,
                   reach=None, into=None) -> np.ndarray | None:
    """Exact shortest-path distance (meters) from `source` to every cell,
    np.inf where unreachable: a float64 array of the grid's shape, which
    matches A* lengths cell for cell.

    The search is a `Rings` row's: with `into`, a (Rings, row) pair for
    this grid and `model`, it goes into that row and stays packed there,
    for a later lookup, extension or walk, and None is returned.  This
    is the one call per field a `FieldStore` makes.  Without `into`, a
    one-row stack runs it and decodes it.  With `reach`, some (x, y, z)
    cells, the rings stop after the one that labels the last of them
    the source reaches (`Rings.search`), and every cell beyond that ring
    reads inf too.
    """
    rings, row = into or (Rings(grid, model, 1), 0)
    rings.start(row, tuple(source))
    rings.search(row, reach)
    if into is not None:
        return None
    field = np.empty(grid.dims)
    rings.decode(0, field)
    return field


# ---------------------------------------------------------------------------
# travel-time costs
# ---------------------------------------------------------------------------

@dataclass
class FieldWork:
    """What a `FieldStore`'s searches did for one motion model: fields
    built, rows a lookup extended by at least one ring, and the rings
    both labelled."""

    built: int = 0
    extended: int = 0
    rings: int = 0


class FieldStore:
    """One episode's distance fields, slot-major, kept as packed `Rings`
    searches.

    Per motion model one `Rings` stack with a row per slot, made on the
    model's first field (the occupancy packed once) and reused for the whole
    episode: row s holds the search from the task in observation slot
    s.  The stack owns the model's search, the cells it covers (only
    the z = 0 plane for GROUND4) included; the store keeps which task
    each row holds and what the searches did.

    A field's key is (task id, motion model), and `keys` gives the keys
    held.  `ensure` builds missing keys with one `distance_field` call
    each, `drop` forgets a Done task, `lookup` reads many rows at many
    cells straight from their label planes, and `path` walks a row down
    to its task.

    A row is built only out to the ring of its farthest agent.  A lookup
    at a cell the row has not reached continues the row from its kept
    frontier, out to the looked-up cells only, so no ring is searched
    twice, and every distance it returns is the full field's.  `work`
    counts, per motion model, what the searches did.
    """

    def __init__(self, grid: Grid, slots: int):
        self.grid = grid
        self.slots = slots
        self._rings: dict = {}   # model -> Rings, one row per slot
        # model -> the task id whose field each row holds, None if none
        self._held = {model: [None] * slots for model in MotionModel}
        self.work = {model: FieldWork() for model in MotionModel}

    def keys(self) -> set:
        """The (task id, motion model) of every field held."""
        return {(task_id, model) for model, held in self._held.items()
                for task_id in held if task_id is not None}

    def ensure(self, model: MotionModel, tasks, rows, reach) -> None:
        """Hold the `model` field of each task (.id, .location) in its
        row, `rows[j]` for `tasks[j]`.  A row that holds another task's
        field, or none, is built with one `distance_field` call into the
        row, out to the ring of the farthest of the `reach` cells, so a
        row a new task reuses is rebuilt and its old key leaves."""
        held = self._held[model]
        for task, row in zip(tasks, rows):
            if held[row] == task.id:
                continue
            rings = self._rings.get(model)
            if rings is None:
                rings = self._rings[model] = Rings(self.grid, model,
                                                   self.slots)
            distance_field(self.grid, task.location, model, reach=reach,
                           into=(rings, row))
            held[row] = task.id
            work = self.work[model]
            work.built += 1
            work.rings += int(rings.ring[row])

    def drop(self, task_id: int) -> None:
        """Forget a task's fields; their rows are free for reuse."""
        for held in self._held.values():
            if task_id in held:
                held[held.index(task_id)] = None

    def lookup(self, model: MotionModel, rows: np.ndarray,
               cells: np.ndarray) -> np.ndarray:
        """(len(cells), len(rows)) distances from each (x, y, z) cell, a
        row of `cells`, to the source of each field row, inf where
        unreachable.  A row that has not reached some of the free cells,
        and may yet, first continues until it has, or ends."""
        rings = self._rings[model]
        at, shift, valid = rings.locate(cells)
        out = rings.labels(rows, at, shift)
        pending = np.isinf(out) & valid
        if pending.any():
            work = self.work[model]
            for j in np.flatnonzero(pending.any(axis=1) & ~rings.done[rows]):
                added = rings.search(rows[j], cells[pending[j]])
                if added:
                    work.extended += 1
                    work.rings += added
            out = rings.labels(rows, at, shift)
        if not valid.all():
            out[:, ~valid] = np.inf
        return out.T

    def path(self, task_id: int, model: MotionModel, start: Cell) -> Path:
        """The shortest path from `start` to the task, walked down its
        row (`Rings.walk`): the cells a walk down the decoded field takes.
        `start` must have been looked up since the row was built, as a
        winner's cell is in the round it wins, so the row has reached it
        if it can; else NoPathError."""
        row, rings = self._held[model].index(task_id), self._rings[model]
        return Path(rings.walk(row, tuple(int(c) for c in start)))


def cost_matrix(state) -> CostMatrix:
    """N x M_live travel-time estimates; columns are live (not Done)
    tasks in ascending task-id order; np.inf where unreachable.

    `state` needs .grid, .agents (position/velocity/motion_model),
    .live_tasks(), .live_slots() (the slot of each live task) and a
    `FieldStore` .dist_cache, which keeps one packed search per (task
    id, motion model) in the `Rings` row of the task's slot.  Each
    entry is the shortest-path distance in meters divided by the
    agent's velocity, the distances read for all agents of one motion
    model with one lookup of their cells in that model's live rows,
    which reads ring labels and decodes no field.
    """
    tasks = state.live_tasks()
    agents = state.agents
    velocity = np.array([ag.velocity for ag in agents], dtype=np.float64)
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
    # whole-number distances, so this is the float64 division
    entries /= velocity[:, None]
    return CostMatrix(entries)


# ---------------------------------------------------------------------------
# RRT* (discrete adaptation)
# ---------------------------------------------------------------------------

RRT_MAX_ITERS = 800         # samples drawn; each adds at most one node
RRT_REWIRE_RADIUS = 4.0     # Manhattan radius of parent choice and rewiring
RRT_STEP_CELLS = 8          # cells a steer walks toward its sample
RRT_GOAL_BIAS = 0.1         # share of samples that are the goal itself
RAW_WORDS_PER_FETCH = 256   # PCG64 words `_pcg64_draws` fetches at once


def _staircase(grid: Grid, a: Cell, b: Cell,
               limit: int | None = None) -> tuple[Cell, int]:
    """Walk the staircase from in-grid `a` toward `b` by byte offsets in
    `grid.occupancy`; return the cell it stops at and the steps taken.
    Each step moves along the axis with the largest remaining |delta|,
    ties to the lower axis.  The walk stops at `b`, after `limit` steps,
    or before the first blocked cell.  Every cell stays inside the box
    spanned by `a` and `b`, so with `b` in the grid too no bounds test
    is needed.  The rule reads only the remaining deltas, so from any
    cell of a staircase the rest of it is the staircase from that
    cell."""
    x, y, z = a
    rx, ry, rz = b[0] - x, b[1] - y, b[2] - z  # remaining |delta| per axis
    occupancy = grid.occupancy
    ox, oy = grid.strides
    oz = ux = uy = uz = 1  # byte offset and unit of a step along each axis
    if rx < 0:
        rx, ox, ux = -rx, -ox, -1
    if ry < 0:
        ry, oy, uy = -ry, -oy, -1
    if rz < 0:
        rz, oz, uz = -rz, -1, -1
    n = rx + ry + rz
    if limit is not None and limit < n:
        n = limit
    at = grid.index(a)
    for steps in range(n):
        if rx >= ry and rx >= rz:
            if occupancy[at + ox]:
                break
            at += ox
            rx -= 1
        elif ry >= rz:
            if occupancy[at + oy]:
                break
            at += oy
            ry -= 1
        else:
            if occupancy[at + oz]:
                break
            at += oz
            rz -= 1
    else:
        steps = n
    return (b[0] - ux * rx, b[1] - uy * ry, b[2] - uz * rz), steps


def _pcg64_draws(seed: int):
    """`random()` and `integers(n)` for 1 <= n <= 2**32, returning what
    `np.random.default_rng(seed)` returns call for call, as Python
    numbers, from the raw 64-bit words of its PCG64 stream, used in
    order.  The words are fetched `RAW_WORDS_PER_FETCH` at a time
    (`random_raw(k)`), which advances the stream as k single fetches
    would.

    A double is the word's top 53 bits times 2**-53.  An integer takes
    Lemire's multiply-and-reject on a 32-bit half-word: the low half of
    a fresh word first, its high half kept for the next integer draw
    (doubles do not disturb it), and n = 1 draws nothing."""
    random_raw = np.random.default_rng(seed).bit_generator.random_raw
    raw = itertools.chain.from_iterable(iter(
        lambda: random_raw(RAW_WORDS_PER_FETCH).tolist(), None)).__next__
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
             seed: int = 0) -> Path:
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
    skipped before the scan: steering from it yields it again.  The
    search settings are the `RRT_*` constants.
    """
    start, goal = _endpoints(grid, model, start, goal)
    ground = model is MotionModel.GROUND4

    random, integers = _pcg64_draws(seed)
    dim_x, dim_y, dim_z = grid.dims
    max_iters, radius = RRT_MAX_ITERS, RRT_REWIRE_RADIUS
    step_cells, goal_bias = RRT_STEP_CELLS, RRT_GOAL_BIAS
    # a sample (x, y, z) inside dims is byte x * sx + y * sy + z + origin
    # of the padded occupancy
    occupancy = grid.occupancy
    sx, sy = grid.strides
    origin = grid.index((0, 0, 0))

    def sample_cell() -> Cell:
        if random() < goal_bias:
            return goal
        for _ in range(64):
            x = integers(dim_x)
            y = integers(dim_y)
            z = 0 if ground else integers(dim_z)
            if not occupancy[x * sx + y * sy + z + origin]:
                return (x, y, z)
        return goal

    nodes: list[Cell] = [start]
    index = {start: 0}  # cell -> node index; a cell is a node at most once
    parent = [-1]
    cost = [0.0]
    # Manhattan distances by lookup: gaps[a][w, v] is |v - w| along axis
    # a, and row k of node_gaps[a] is gaps[a] at node k's coordinate, so
    # a scan adds one column per axis (int32: a sum of three axes fits)
    axes = [np.arange(n, dtype=np.int32) for n in grid.dims]
    gaps = [np.abs(v[:, None] - v) for v in axes]
    node_gaps = [np.empty((max_iters + 1, n), dtype=np.int32)
                 for n in grid.dims]
    gaps_x, gaps_y, gaps_z = node_gaps
    dist = np.empty(max_iters + 1, dtype=np.int32)

    def add_gaps(k: int, cell: Cell) -> None:
        for rows, g, v in zip(node_gaps, gaps, cell):
            rows[k] = g[v]

    def node_dists(cell: Cell) -> np.ndarray:
        """Manhattan distance from every node to `cell`, in a buffer
        that the next call overwrites."""
        n = len(nodes)
        d = np.add(gaps_x[:n, cell[0]], gaps_y[:n, cell[1]], dist[:n])
        if not ground:  # ground nodes and samples all sit at z = 0
            d += gaps_z[:n, cell[2]]
        return d

    add_gaps(0, start)
    for _ in range(max_iters):
        target = sample_cell()
        if target in index:
            continue
        dt = node_dists(target)
        # argmin returns the first minimum: ties go to the oldest node
        nearest = int(dt.argmin())
        # steer: walk toward the sample, stop at obstacle or step budget
        new, steps = _staircase(grid, nodes[nearest], target, step_cells)
        if new in index:
            continue
        # (node, its Manhattan distance to the new node) within the
        # rewire radius, ascending: candidates by the bound on their
        # distance to the sample, then the exact test.  The nearest node
        # lies `steps` from the new one, so it is among them whenever
        # they are scanned, and the only candidate parent otherwise.
        near = []
        if steps <= radius:
            reach = int(dt[nearest]) - steps + radius
            x, y, z = new
            for k in (dt <= reach).nonzero()[0].tolist():
                a, b, c = nodes[k]
                seg = abs(a - x) + abs(b - y) + abs(c - z)
                if seg <= radius:
                    near.append((k, seg))
        # choose lowest-cost parent within the rewire radius; a segment
        # is free when the staircase along it reaches its end
        best_par, best_cost = None, math.inf
        for k, seg in near or ((nearest, steps),):
            if cost[k] + seg < best_cost and \
                    _staircase(grid, nodes[k], new)[0] == new:
                best_par, best_cost = k, cost[k] + seg
        if best_par is None:
            continue
        idx = len(nodes)
        nodes.append(new)
        index[new] = idx
        add_gaps(idx, new)
        parent.append(best_par)
        cost.append(best_cost)
        # rewire neighbors through the new node (itself excluded: a
        # zero-length segment never lowers its cost)
        for k, seg in near:
            if best_cost + seg < cost[k] - 1e-9 and \
                    _staircase(grid, new, nodes[k])[0] == nodes[k]:
                parent[k] = idx
                cost[k] = best_cost + seg

    goal_idx = index.get(goal)
    if goal_idx is None:
        # final attempt: connect the closest node straight to the goal
        order = np.argsort(node_dists(goal), kind="stable")  # ties: oldest
        for k in order[:32].tolist():
            if _staircase(grid, nodes[k], goal)[0] == goal:
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
    # every segment passed its check, so single steps from each cell
    # toward the next waypoint retrace its staircase
    cells = [start]
    for b in waypoints[1:]:
        while cells[-1] != b:
            c, steps = _staircase(grid, cells[-1], b, 1)
            if not steps:
                raise RuntimeError(f"rrt_star: staircase {cells[-1]} -> "
                                   f"{b} is blocked")
            cells.append(c)
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
    model: MotionModel
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
                  grid: Grid) -> list[AgentPlan]:
    """Book space-time reservations in ascending (cost, agent id) order;
    one plan comes back per input.

    A plan whose schedule is free is booked as it is.  Otherwise it
    replans with reservation-aware A* under its motion model, which
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
                            plan.model, reservations,
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
