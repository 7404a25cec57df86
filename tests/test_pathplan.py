"""Planner tests.  Two oracles check the distance fields: an
independently written heap Dijkstra (`dijkstra_field`) on grids of up
to 6 cells per axis and on field-store programs of up to 140 x 6 x 4
cells or 300-cell corridors, and `wavefront_reference`, a ring-by-ring
BFS over boolean arrays, on full-size 50 x 50 x 30 grids and across
64-cell word boundaries, where the heap is too slow.  One driver,
`run_store_program`, checks the field store: every row, lookup, path,
copy and count of work against Dijkstra.  A* returns the cells of the
two loops it replaced; RRT* returns the cells of the generator-based
RRT* it replaced.  Acceptance criterion 2 checks A* lengths against
Dijkstra and that RRT* never undercuts A*."""

import copy
import heapq
import itertools
import json
import os
import pickle
import types
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from magnnet.assign import feasible_optimum
from magnnet.bench import ScenarioSpec
from magnnet import pathplan
from magnnet.errors import NoPathError
from magnnet.pathplan import (AgentPlan, FieldStore, Grid, MotionModel, Path,
                              ReservationTable, astar, cost_matrix,
                              distance_field, manhattan, plan_schedule,
                              resolve_paths, rrt_star, _pcg64_draws,
                              _staircase)
from magnnet.world import Episode, WorldConfig

from helpers import REPO, decoded, empty_grid, load_tracer

A6, G4 = MotionModel.AERIAL6, MotionModel.GROUND4


def dijkstra_field(grid: Grid, source, model: MotionModel) -> np.ndarray:
    """Heap Dijkstra from `source` to every cell: the reference field, inf
    where unreachable.  A GROUND4 source off the z = 0 plane reaches
    nothing, not even its own cell."""
    field = np.full(grid.dims, np.inf)
    source = tuple(source)
    if not grid.is_free(source) or (model is G4 and source[2] != 0):
        return field
    field[source] = 0
    heap = [(0, source)]
    while heap:
        d, cell = heapq.heappop(heap)
        if d > field[cell]:
            continue
        for dd in model.deltas:
            nxt = (cell[0] + dd[0], cell[1] + dd[1], cell[2] + dd[2])
            if grid.is_free(nxt) and d + 1 < field[nxt]:
                field[nxt] = d + 1
                heapq.heappush(heap, (d + 1, nxt))
    return field


def assert_walks(path: Path, grid: Grid, model: MotionModel, start, goal):
    """`path` runs from `start` to `goal` over free cells, by `model`
    steps and waits."""
    path.validate(grid, model)
    assert path.cells[0] == tuple(start) and path.cells[-1] == tuple(goal)


def random_grid(rng, dims, density):
    blocked = rng.random(dims) < density
    return Grid(tuple(dims), blocked)


def free_cell(rng, grid, ground=False):
    while True:
        x = int(rng.integers(grid.dims[0]))
        y = int(rng.integers(grid.dims[1]))
        z = 0 if ground else int(rng.integers(grid.dims[2]))
        if grid.is_free((x, y, z)):
            return (x, y, z)


class TestAStar:
    def test_ground_blocked_by_wall_aerial_flies_over(self):
        blocked = np.zeros((5, 5, 3), dtype=bool)
        blocked[2, :, 0] = True  # wall across the ground plane
        grid = Grid((5, 5, 3), blocked)
        with pytest.raises(NoPathError):
            astar(grid, (0, 0, 0), (4, 0, 0), MotionModel.GROUND4)
        p = astar(grid, (0, 0, 0), (4, 0, 0), MotionModel.AERIAL6)
        assert p.length == 6  # up, across, down


@pytest.mark.parametrize("planner", [astar, rrt_star], ids=["astar", "rrt"])
@pytest.mark.parametrize("start, goal, model, name", [
    ((1, 1, 0), (3, 3, 0), A6, "start"),
    ((0, 0, 0), (1, 1, 0), A6, "goal"),
    ((0, 0, 0), (3, 4, 1), A6, "goal"),
    ((0, 0, 1), (3, 3, 0), G4, "start"),
], ids=["blocked-start", "blocked-goal", "off-grid", "ground-above-plane"])
def test_bad_endpoint_is_named(planner, start, goal, model, name):
    """Both planners check their endpoints by one rule: free, in bounds
    and, under GROUND4, at z = 0."""
    blocked = np.zeros((4, 4, 2), dtype=bool)
    blocked[1, 1, 0] = True
    with pytest.raises(NoPathError, match=f"^{name} |: {name} "):
        planner(Grid((4, 4, 2), blocked), start, goal, model)


class TestOneOptimalPath:
    """On an open grid every cell between the corners lies on an optimal
    path, so all of them share the optimal f.  A search that breaks those
    ties toward depth expands one path: manhattan(start, goal) nodes."""

    @pytest.mark.parametrize("space_time", [False, True])
    @pytest.mark.parametrize("model", [MotionModel.AERIAL6,
                                       MotionModel.GROUND4])
    def test_corner_to_corner_within_manhattan_budget(self, model,
                                                      space_time):
        grid = empty_grid((50, 50, 30))
        start = (0, 0, 0)
        goal = (49, 49, 0 if model is MotionModel.GROUND4 else 29)
        table = None
        if space_time:
            table = ReservationTable()
            table.reserve((49, 0, 0), 500, agent_id=9)  # far away, far ahead
        budget = manhattan(start, goal)
        with mock.patch.multiple(pathplan, ASTAR_MAX_EXPANSIONS=budget):
            path = astar(grid, start, goal, model, reservations=table,
                         agent_id=0, substeps_per_tick=3)
        assert_walks(path, grid, model, start, goal)
        assert path.length == len(path.cells) - 1 == budget

    @pytest.mark.parametrize("space_time", [False, True])
    @pytest.mark.parametrize("model", [MotionModel.AERIAL6,
                                       MotionModel.GROUND4])
    def test_one_expansion_short_gives_up(self, model, space_time):
        """The budget is read when the search starts: one expansion
        fewer than the single optimal path needs raises NoPathError."""
        grid = empty_grid((20, 20, 8))
        start = (0, 0, 0)
        goal = (19, 19, 0 if model is MotionModel.GROUND4 else 7)
        table = None
        if space_time:
            table = ReservationTable()
            table.reserve((19, 0, 0), 200, agent_id=9)
        budget = manhattan(start, goal)
        with mock.patch.multiple(pathplan, ASTAR_MAX_EXPANSIONS=budget - 1):
            with pytest.raises(NoPathError):
                astar(grid, start, goal, model, reservations=table,
                      agent_id=0, substeps_per_tick=3)
        with mock.patch.multiple(pathplan, ASTAR_MAX_EXPANSIONS=budget):
            assert astar(grid, start, goal, model, reservations=table,
                         agent_id=0, substeps_per_tick=3).length == budget


def wavefront_reference(free: np.ndarray, source) -> np.ndarray:
    """Ring-by-ring BFS with one N-D slice shift per axis direction: the
    loop that the array kernels in `pathplan._wavefront` replaced."""
    dist = np.full(free.shape, np.inf)
    if not free[tuple(source)]:
        return dist
    frontier = np.zeros(free.shape, dtype=bool)
    frontier[tuple(source)] = True
    reached = frontier.copy()
    dist[tuple(source)] = 0.0
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
        if not nxt.any():
            break
        dist[nxt] = d
        reached |= nxt
        frontier = nxt
    return dist


@st.composite
def small_field_instances(draw):
    """A random mask with every axis 1-6 long, a source on a face, a
    corner or inside (free or blocked), and a motion model.  A GROUND4
    source is moved to the z = 0 plane, but one draw in four leaves it
    where it fell, which may be above the plane."""
    dims = tuple(draw(st.integers(1, 6)) for _ in range(3))
    density = draw(st.floats(0.0, 0.3))
    seed = draw(st.integers(0, 2**32 - 1))
    model = draw(st.sampled_from([A6, G4]))
    src = [draw(st.one_of(st.just(0), st.just(n - 1), st.integers(0, n - 1)))
           for n in dims]
    if model is G4 and draw(st.integers(0, 3)):
        src[2] = 0
    src = tuple(src)
    blocked = np.random.default_rng(seed).random(dims) < density
    blocked[src] = draw(st.booleans())
    return Grid(dims, blocked), src, model


class TestDistanceFieldKernel:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(small_field_instances())
    def test_equals_dijkstra_on_every_cell(self, instance):
        grid, src, model = instance
        field = distance_field(grid, src, model)
        assert field.shape == grid.dims
        assert np.array_equal(field, dijkstra_field(grid, src, model))

    @pytest.mark.parametrize("model", list(MotionModel))
    def test_source_off_the_grid_reaches_nothing(self, model):
        """Nor does a `Rings` row started there: `search` finds the row
        finished, with cells and without, and leaves it as it was."""
        grid = empty_grid((4, 3, 2))
        rings = pathplan.Rings(grid, model, 1)

        def row_words():
            return [words[0].tobytes() for words in (rings.todo, rings.planes,
                                                     rings.frontier)]

        for src in [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (4, 0, 0),
                    (0, 3, 0), (0, 0, 2)]:
            assert np.isinf(distance_field(grid, src, model)).all(), src
            for cells in ([(0, 0, 0), (3, 2, 0)], None):
                rings.start(0, src)
                before = row_words()
                assert rings.search(0, cells) == 0
                assert (rings.ring[0], rings.done[0]) == (0, True)
                assert row_words() == before, (src, cells)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_full_size_matches_reference_loop(self, seed):
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, dims=(50, 50, 30), density=0.1)
        free = ~grid.blocked
        src = free_cell(rng, grid)
        field = distance_field(grid, src, MotionModel.AERIAL6)
        assert np.array_equal(field, wavefront_reference(free, src))
        ground_src = free_cell(rng, grid, ground=True)
        plane = distance_field(grid, ground_src, MotionModel.GROUND4)
        assert np.array_equal(
            plane[:, :, 0], wavefront_reference(free[:, :, 0], ground_src[:2]))
        assert np.isinf(plane[:, :, 1:]).all()


class TestDistanceFieldWords:
    """Shapes the 1-6-cell hypothesis instances never reach: x spans of
    more than one 64-cell word, rings past 8 label bits, and the
    ground plane, which is a strided view of the 3D mask."""

    @pytest.mark.parametrize("model", list(MotionModel))
    def test_c_contiguous_float64_of_grid_shape(self, model):
        rng = np.random.default_rng(5)
        grid = random_grid(rng, dims=(20, 16, 6), density=0.2)
        src = free_cell(rng, grid, ground=model is MotionModel.GROUND4)
        field = distance_field(grid, src, model)
        assert field.shape == grid.dims
        assert field.dtype == np.float64
        assert field.flags.c_contiguous

    @pytest.mark.parametrize("nx", [63, 64, 65, 129])
    @pytest.mark.parametrize("model", list(MotionModel))
    def test_word_boundaries_match_reference_loop(self, nx, model):
        rng = np.random.default_rng(nx)
        grid = random_grid(rng, dims=(nx, 5, 4), density=0.15)
        free = ~grid.blocked
        ground = model is MotionModel.GROUND4
        starts = {0, 62, 63, 64, 65, 127, 128, nx - 1}
        for x in sorted(s for s in starts if s < nx):
            src = (x, 2, 0 if ground else 1)
            free[src] = True
            grid = Grid(grid.dims, ~free)
            field = distance_field(grid, src, model)
            if ground:
                ref = wavefront_reference(free[:, :, 0], src[:2])
                assert np.array_equal(field[:, :, 0], ref), src
                assert np.isinf(field[:, :, 1:]).all()
            else:
                assert np.array_equal(field, wavefront_reference(free, src))

    @pytest.mark.parametrize("length", [127, 128, 129, 255, 256, 257, 300])
    @pytest.mark.parametrize("model,axis", [
        (MotionModel.AERIAL6, 0), (MotionModel.AERIAL6, 1),
        (MotionModel.AERIAL6, 2), (MotionModel.GROUND4, 0),
        (MotionModel.GROUND4, 1)])
    def test_long_corridor_is_closed_form(self, length, model, axis):
        """`length` free cells, a wall, then one free cell nothing
        reaches.  From one end the last ring is length - 1.  At 255 the
        first empty ring is 255 = 2**8 - 1; at 256 the last ring fits
        in 8 label bits but the never-reached label needs a ninth; at
        300 the rings themselves need nine.  127-129 and 257 put the
        first empty ring on either side of a power of two, odd and even,
        where the Gray-coded planes gain their top bit."""
        dims = [1, 1, 1]
        dims[axis] = length + 2
        blocked = np.zeros(dims, dtype=bool)
        blocked.reshape(-1)[length] = True
        grid = Grid(tuple(dims), blocked)
        field = distance_field(grid, (0, 0, 0), model).reshape(-1)
        assert np.array_equal(field[:length], np.arange(length))
        assert np.isinf(field[length:]).all()
        mid = length // 2
        src = [0, 0, 0]
        src[axis] = mid
        field = distance_field(grid, tuple(src), model).reshape(-1)
        assert np.array_equal(field[:length],
                              np.abs(np.arange(length) - mid))

    def test_ground_plane_of_a_layered_mask(self):
        """The GROUND4 branch hands the kernel `free[:, :, 0]`, a view
        with a stride of Z cells along y; the layers above differ, so
        reading any of them would show."""
        rng = np.random.default_rng(11)
        free = ~random_grid(rng, dims=(70, 9, 5), density=0.3).blocked
        free[:, :, 1:] = True
        grid = Grid((70, 9, 5), ~free)
        src = free_cell(rng, grid, ground=True)
        assert not free[:, :, 0].flags.c_contiguous
        field = distance_field(grid, src, MotionModel.GROUND4)
        assert np.array_equal(field[:, :, 0],
                              wavefront_reference(free[:, :, 0], src[:2]))
        assert np.isinf(field[:, :, 1:]).all()


@st.composite
def ring_loop_instances(draw):
    """A grid one x-block wide, the only rows `Rings._int_loop` runs (x
    1-6 or 60-63 long), y and z 1-4 long, obstacles at a density of
    0-0.3; a motion model; a source on a face, a corner or inside,
    blocked in one draw in four, moved one cell off the grid in one in
    eight, and on the plane for GROUND4 in three in four; and one to
    four searches of its row, each with one to three cells, free,
    blocked or off the grid (a reach-limited build, then resumed
    extensions), or in one in four without cells, which runs the row
    dry."""
    dims = (draw(st.one_of(st.integers(1, 6), st.integers(60, 63))),
            draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    density = draw(st.floats(0.0, 0.3))
    seed = draw(st.integers(0, 2**32 - 1))
    model = draw(st.sampled_from([A6, G4]))
    src = [draw(st.one_of(st.just(0), st.just(n - 1), st.integers(0, n - 1)))
           for n in dims]
    if model is G4 and draw(st.integers(0, 3)):
        src[2] = 0
    blocked = np.random.default_rng(seed).random(dims) < density
    blocked[tuple(src)] = not draw(st.integers(0, 3))
    if not draw(st.integers(0, 7)):
        axis = draw(st.integers(0, 2))
        src[axis] = draw(st.sampled_from([-1, dims[axis]]))
    cells = st.lists(st.tuples(*[st.integers(-1, n) for n in dims]),
                     min_size=1, max_size=3)
    searches = draw(st.lists(st.one_of(cells, cells, cells, st.none()),
                             min_size=1, max_size=4))
    return Grid(dims, blocked), model, tuple(src), searches


def searched(rings, loop, cells):
    """Row 0 of `rings` after `Rings.search(0, cells)` with `loop`, one of
    the stack's two ring loops, called directly: the rings it labelled,
    the row's words and frontier, its ring and whether it ran dry."""
    first = int(rings.ring[0])
    if not rings.done[0]:
        d, dry = loop(0, first, *rings._reach(0, cells))
        rings.ring[0], rings.done[0] = d, dry
    return (int(rings.ring[0]) - first, rings._words[0].tobytes(),
            rings.frontier[0].tobytes(), int(rings.ring[0]),
            bool(rings.done[0]))


class TestRingLoops:
    """`Rings.search` runs its rings on Python ints for a row of one
    x-block and at most `INT_LOOP_WORDS` words, and on numpy words for
    any other; both loops run on every one-block instance here, whatever
    its size."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(ring_loop_instances())
    def test_int_loop_leaves_what_the_array_loop_leaves(self, instance):
        grid, model, src, searches = instance
        reference, rings = (pathplan.Rings(grid, model, 1) for _ in "ab")
        reference.start(0, src)
        rings.start(0, src)
        for cells in searches:
            assert searched(rings, rings._int_loop, cells) == \
                searched(reference, reference._array_loop, cells), cells

    @pytest.mark.parametrize("dims, model", [
        ((64, 9, 5), A6), ((70, 9, 5), A6), ((70, 30, 4), G4),
        ((63, 9, 5), A6), ((50, 50, 30), G4)],
        ids=["aerial-64", "aerial-70", "ground-70", "aerial-63",
             "ground-50"])
    def test_only_one_block_rows_take_the_int_loop(self, monkeypatch, dims,
                                                   model):
        """Every row here is at most `INT_LOOP_WORDS` words; one 64 or
        more cells long has two x-blocks, and only the numpy loop carries
        bit 63 between them.  A reach-limited search, then one that runs
        the row dry, must read the reference field either way."""
        rng = np.random.default_rng(5)
        grid = random_grid(rng, dims, 0.2)
        src = free_cell(rng, grid, ground=model is G4)
        rings = pathplan.Rings(grid, model, 1)
        one_block = dims[0] < 64
        assert rings.free.size <= pathplan.INT_LOOP_WORDS
        assert (rings.blocks == 1) == one_block
        int_loop, entered = rings._int_loop, []

        def spy(*args):
            if not one_block:
                raise AssertionError("a two-block row took the int loop")
            entered.append(args[0])
            return int_loop(*args)

        monkeypatch.setattr(rings, "_int_loop", spy)
        rings.start(0, src)
        rings.search(0, [(dims[0] - 1, dims[1] - 1, 0)])
        rings.search(0)
        out = np.empty(dims, dtype=np.float32)
        rings.decode(0, out)
        assert np.array_equal(out, dijkstra_field(grid, src, model))
        assert entered == ([0, 0] if one_block else [])


def extract_path_reference(field: np.ndarray, start, model: MotionModel):
    """Walk a float distance field downhill from `start` to its source:
    from a cell at distance d, the first neighbour in `model.deltas`
    order at d - 1.  The walk the store's plane walk replaced."""
    cells = [tuple(start)]
    x, y, z = cells[0]
    d = field[x, y, z]
    nx, ny, nz = field.shape
    while d > 0:
        d -= 1
        for dx, dy, dz in model.deltas:
            a, b, c = x + dx, y + dy, z + dz
            if 0 <= a < nx and 0 <= b < ny and 0 <= c < nz \
                    and field[a, b, c] == d:
                x, y, z = a, b, c
                cells.append((a, b, c))
                break
        else:
            raise RuntimeError("distance field has no downhill neighbor")
    return Path(cells)


def stop_ring(ref: np.ndarray, searched: np.ndarray, cells) -> tuple:
    """(ring, ran out) of a search of reference field `ref` that must
    label (x, y, z) `cells`: it stops after the ring of the farthest
    of them on `searched`, the mask it covers, or runs out when one of
    those is unreachable, as it does from a source off the mask."""
    cells = np.asarray(cells, dtype=np.intp).reshape(-1, 3)
    dists = ref[tuple(cells[searched[tuple(cells.T)]].T)]
    if np.isfinite(dists).all() and np.isfinite(ref).any():
        return int(dists.max(initial=0)), False
    return int(ref.max(initial=0, where=np.isfinite(ref))), True


def run_store_program(grid: Grid, model: MotionModel, ops) -> FieldStore:
    """Run store operations (kind, row, which, cells) on a three-row
    `FieldStore` and on the copies that `copy` operations make, and
    check every copy after every operation against a model built from
    heap-Dijkstra fields: per row its task, field, stop ring and whether
    its search ran out, and the exact `work` (built, extended, rings).

    `which` picks the copy an operation acts on.  `build` looks up a
    new task at `cells[0]` in `row` at the reach `cells[1:]`, which
    builds the row out to them, and looks it up again, which builds
    nothing; its row must equal the bounded `distance_field(...,
    reach=)`, and both read the field at the reach cells.  `lookup`
    reads every held row at `cells`, `path` walks `row` from each start
    in `cells`, and `copy` adds two copies of the state it picks, up to
    five states: a deep copy and a pickle round trip.
    Returns the store the program started with."""
    searched = ~grid.blocked
    if model is G4:
        searched[:, :, 1:] = False
    copies = [types.SimpleNamespace(store=FieldStore(grid, 3), rows={},
                                    work=[0, 0, 0])]
    task_ids = itertools.count()

    def asked(state, row, cells):
        """What a lookup of `row` at `cells` does to the model: a row
        that has not labelled some of the searched cells extends, unless
        its search ran out, and counts an extension if it labels a ring."""
        task, ref, stop, out = state.rows[row]
        cells = np.asarray(cells, dtype=np.intp).reshape(-1, 3)
        at = tuple(cells.T)
        pending = cells[(ref[at] > stop) & searched[at]]
        if len(pending) and not out:
            ring, out = stop_ring(ref, searched, pending)
            state.work[1] += ring > stop
            state.work[2] += ring - stop
            state.rows[row] = task, ref, ring, out

    for kind, row, which, cells in ops:
        state = copies[which % len(copies)]
        store, rows = state.store, state.rows
        if kind == "copy" and len(copies) < 5:
            copies.append(copy.deepcopy(state))
            copies.append(pickle.loads(pickle.dumps(state)))
        elif kind == "build":
            reach = np.asarray(cells[1:], dtype=np.intp).reshape(-1, 3)
            task = types.SimpleNamespace(id=next(task_ids),
                                         location=tuple(cells[0]))
            ref = dijkstra_field(grid, task.location, model)
            ring, out = stop_ring(ref, searched, reach)
            rows[row] = task, ref, ring, out
            state.work[0] += 1
            state.work[2] += ring
            for _ in range(2):
                got = store.lookup(model, [task], np.array([row]), reach)
                assert np.array_equal(got[:, 0], ref[tuple(reach.T)])
            assert np.array_equal(
                decoded(store, (task.id, model)),
                distance_field(grid, task.location, model, reach=reach))
        elif kind == "lookup" and rows:
            held = sorted(rows)
            got = store.lookup(model, [rows[r][0] for r in held],
                               np.array(held), cells)
            for j, r in enumerate(held):
                asked(state, r, cells)
                assert np.array_equal(got[:, j], rows[r][1][tuple(cells.T)])
        elif kind == "path" and row in rows:
            task, ref = rows[row][:2]
            for start in map(tuple, cells):
                asked(state, row, [start])
                store.lookup(model, [task], np.array([row]),
                             np.array([start]))
                if np.isinf(ref[start]):
                    with pytest.raises(NoPathError):
                        store.path(row, model, start)
                    continue
                path = store.path(row, model, start)
                path.validate(grid, model)
                assert path.cells == extract_path_reference(ref, start,
                                                            model).cells
        for state in copies:
            assert state.store.keys() == {(task.id, model) for task, *_
                                          in state.rows.values()}
            work = state.store.work[model]
            assert [work.built, work.extended, work.rings] == state.work
            for task, ref, stop, _ in state.rows.values():
                assert np.array_equal(decoded(state.store, (task.id, model)),
                                      np.where(ref <= stop, ref, np.inf))
    return copies[0].store


@st.composite
def store_programs(draw, shape, model):
    """A `shape` grid and 1-12 `model` store operations for
    `run_store_program`.

    Grids are small (every axis 1-6), wider than one 64-cell word along
    x (65-140 cells), or a corridor of 256-300 cells along one axis,
    whose rings need more than 8 label planes.  Cells are drawn
    anywhere, blocked ones included; nine in ten GROUND4 cells lie on
    the z = 0 plane.  A `build` gets a task cell and 0-4 reach cells,
    a `lookup` 1-5 cells, and a `path` every cell of a small grid or 4
    cells of a larger one.  `which` runs 0-4, so an operation can pick
    any of the up to five states, a later copy or a copy's copy too."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "corridor":
        dims = [1, 1, 1]
        dims[draw(st.integers(0, 1 if model is G4 else 2))] = \
            draw(st.integers(256, 300))
        dims = tuple(dims)
        blocked = np.zeros(dims, dtype=bool)
        if draw(st.booleans()):  # a wall that cuts the far end off
            blocked.reshape(-1)[draw(st.integers(200, 255))] = True
    else:
        dims = (draw(st.integers(1, 6) if shape == "small"
                     else st.integers(65, 140)),
                draw(st.integers(1, 6)), draw(st.integers(1, 4)))
        blocked = rng.random(dims) < draw(st.floats(0.0, 0.3))

    def cells(count):
        out = np.array([[rng.integers(n) for n in dims]
                        for _ in range(count)], dtype=np.intp).reshape(-1, 3)
        if model is G4:
            out[rng.random(count) < 0.9, 2] = 0
        return out

    ops = []
    for kind, row, which in draw(st.lists(st.tuples(
            st.sampled_from(["build", "lookup", "path", "copy"]),
            st.integers(0, 2), st.integers(0, 4)), min_size=1, max_size=12)):
        if kind == "path":
            where = np.argwhere(np.ones(dims)) if shape == "small" \
                else cells(4)
        elif kind in ("build", "lookup"):
            where = cells(int(rng.integers(1, 6)))
        else:
            where = None
        ops.append((kind, row, which, where))
    return Grid(dims, blocked), model, ops


class TestFieldStoreAgainstDijkstra:
    """The field store's one driver: builds, lookups, rebuilds into
    reused rows, paths and copies, interleaved (`run_store_program`)."""

    @pytest.mark.parametrize("model", [A6, G4])
    @pytest.mark.parametrize("shape", ["small", "wide", "corridor"])
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_interleaved_operations(self, shape, model, data):
        run_store_program(*data.draw(store_programs(shape, model)))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("model", [A6, G4])
    def test_paths_from_every_start(self, model, seed):
        """Walks from every cell of grids larger than the small ones."""
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, dims=(9, 8, 4), density=0.25)
        run_store_program(grid, model, [
            ("build", 0, 0, [free_cell(rng, grid, ground=model is G4)]),
            ("path", 0, 0, np.argwhere(np.ones(grid.dims)))])

    def test_unreachable_starts_raise(self):
        """Behind a wall, and above a reached plane cell."""
        blocked = np.zeros((5, 1, 2), dtype=bool)
        blocked[2, 0, 0] = True
        grid = Grid((5, 1, 2), blocked)
        run_store_program(grid, G4, [
            ("build", 0, 0, [(0, 0, 0), (1, 0, 0)]),
            ("path", 0, 0, [(1, 0, 1), (4, 0, 0), (1, 0, 0)])])

    @pytest.mark.parametrize("model", [A6, G4])
    def test_cells_off_the_grid_are_unreachable(self, model):
        """A lookup reads inf and a path raises, where a negative index
        used to wrap into a padding word and read distance 0."""
        store = FieldStore(empty_grid((4, 3, 2)), 1)
        task = types.SimpleNamespace(id=0, location=(0, 0, 0))
        store.lookup(model, [task], np.array([0]), np.array([(3, 2, 0)]))
        off = [(0, -1, 0), (-1, 0, 0), (0, 0, -1), (4, 0, 0), (0, 3, 0),
               (0, 0, 2)]
        got = store.lookup(model, [task], np.array([0]),
                           np.array(off + [(1, 0, 0)]))
        assert got.ravel().tolist() == [np.inf] * 6 + [1.0]
        for cell in off:
            with pytest.raises(NoPathError):
                store.path(0, model, cell)

    def test_lookup_past_the_last_ring_extends_the_row(self):
        """A row built out to ring 2 and looked up there, then halfway
        to its farthest cell, then, on the row, on a deep copy and on an
        unpickled copy, at that cell: each extension adds only the rings
        it needs."""
        blocked = np.random.default_rng(7).random((14, 12, 5)) < 0.15
        blocked[0, 0, 0] = blocked[1, 1, 0] = False
        grid = Grid((14, 12, 5), blocked)
        full = dijkstra_field(grid, (0, 0, 0), A6)
        far = np.argwhere(full == full[np.isfinite(full)].max())[:1]
        mid = np.argwhere(full == full[tuple(far[0])] // 2)[:1]
        run_store_program(grid, A6, [
            ("build", 1, 0, [(0, 0, 0), (1, 1, 0)]),
            ("lookup", 1, 0, np.array([(1, 1, 0)])), ("lookup", 1, 0, mid),
            ("copy", 1, 0, None), ("lookup", 1, 0, far),
            ("lookup", 1, 1, far), ("lookup", 1, 2, far)])

    @pytest.mark.parametrize("ring", [0, 1, 3, 31, 63, 127, 255])
    @pytest.mark.parametrize("model,axis", [(A6, 0), (A6, 2), (G4, 1)])
    def test_corridor_stops_at_the_reach_ring(self, ring, model, axis):
        """A 300-cell corridor from one end, built out to `ring`, then
        looked up at the far end.  At ring 2**K - 1 the last ring needs
        all K label bits; build and extension search each of the 299
        rings once."""
        cell = np.zeros((300, 3), dtype=np.intp)
        cell[:, axis] = np.arange(300)
        dims = [1, 1, 1]
        dims[axis] = 300
        run_store_program(empty_grid(dims), model, [
            ("build", 0, 0, cell[[0, ring]]), ("lookup", 0, 0, cell[-1:])])

    @pytest.mark.parametrize("length, wall, ops, work", [
        (6, 4, [("build", 0, 0, [(0, 0, 0), (5, 0, 0)])], [1, 0, 3]),
        (7, 5, [("build", 0, 0, [(0, 0, 0), (4, 0, 0)]),
                ("lookup", 0, 0, np.array([(6, 0, 0)]))], [1, 0, 4]),
        (12, 4, [("build", 0, 0, [(0, 0, 0), (11, 0, 0)]),
                 ("build", 0, 0, [(11, 0, 0), (0, 0, 0)])], [2, 0, 9])],
        ids=["runs-out-after-odd-ring", "looked-up-behind-the-wall",
             "rebuilt-behind-the-wall"])
    def test_work_counts_only_rings_that_label(self, length, wall, ops,
                                                work):
        """A corridor from x = 0 with a wall.  A row that must reach a
        cell behind the wall runs out after ring 3, an odd ring, and
        counts no empty ring after it; a row built out to its last ring,
        in front of the wall, and looked up behind it counts no
        extension.  The empty ring 4 that ends a search from x = 0 to
        x = 3 meets plane 2, above ring 3's bit length; rebuilt from
        behind the wall, the row labels cells on rings 4-6, whose Gray
        codes set bit 2, so that plane must read clean."""
        blocked = np.zeros((length, 1, 1), dtype=bool)
        blocked[wall] = True
        grid = Grid((length, 1, 1), blocked)
        counted = run_store_program(grid, A6, ops).work[A6]
        assert [counted.built, counted.extended, counted.rings] == work


def test_perfbench_cache_lookups_read_the_store():
    """perfbench counts a round's misses as the (task id, motion model)
    keys missing from `dist_cache.keys()`: every key on a fresh episode,
    the aerial ones once the ground fields are built, and none after the
    round's cost matrix."""
    cache_lookups = load_tracer().cache_lookups
    cfg = WorldConfig(grid_dims=(12, 12, 4), n_agents=4, n_tasks_initial=3,
                      n_ground=2, n_aerial=2, obstacle_density=0.05)
    state = Episode(cfg, 3).state
    ground = np.array([a.position for a in state.agents
                       if a.motion_model is MotionModel.GROUND4])
    assert cache_lookups(state) == (4 * 3, 3 * 2)
    state.dist_cache.lookup(MotionModel.GROUND4, state.live_tasks(),
                            np.array(state.live_slots()), ground)
    assert cache_lookups(state) == (4 * 3, 3)
    cost_matrix(state)
    assert cache_lookups(state) == (4 * 3, 0)


class TestGrid:
    def test_mask_shape_must_match_dims(self):
        with pytest.raises(ValueError):
            Grid((4, 4, 2), np.zeros((4, 4, 3), dtype=bool))

    def test_mask_is_a_read_only_copy(self):
        """The occupancy is derived once, so the mask cannot change
        under it: writing to it raises, and the caller's array is not
        the grid's."""
        blocked = np.zeros((3, 2, 2), dtype=bool)
        grid = Grid((3, 2, 2), blocked)
        with pytest.raises(ValueError, match="read-only"):
            grid.blocked[1, 1, 0] = True
        with pytest.raises(ValueError):
            grid.blocked.flags.writeable = True
        blocked[1, 1, 0] = True
        assert grid.is_free((1, 1, 0))
        assert grid.occupancy[grid.index((1, 1, 0))] == 0

    def test_occupancy_pads_the_mask_with_blocked_cells(self):
        """Every cell's byte is its mask bit, a unit step off the grid
        reads blocked, bytes order cells as their tuples do, and `cell`
        inverts `index`."""
        dims = (4, 3, 5)
        grid = random_grid(np.random.default_rng(2), dims, 0.4)
        cells = sorted(itertools.product(*map(range, dims)))
        at = [grid.index(c) for c in cells]
        assert at == sorted(at)
        assert [grid.cell(i) for i in at] == cells
        assert [grid.occupancy[i] for i in at] == \
            [int(grid.blocked[c]) for c in cells]
        sx, sy = grid.strides
        steps = (sx, -sx, sy, -sy, 1, -1)
        border = {i + s for i in at for s in steps} - set(at)
        assert border and all(grid.occupancy[i] == 1 for i in border)

    @pytest.mark.parametrize("clone", [
        copy.deepcopy, lambda grid: pickle.loads(pickle.dumps(grid))],
        ids=["deepcopy", "pickle"])
    def test_a_copy_keeps_one_map(self, clone):
        """A copied grid's mask is read-only and equal to the original's,
        so nothing can change it under the copy's occupancy: `is_free`,
        A* and a `Rings` built on the copy agree with the original cell
        for cell."""
        rng = np.random.default_rng(4)
        grid = random_grid(rng, (70, 5, 3), 0.3)
        twin = clone(grid)
        with pytest.raises(ValueError, match="read-only"):
            twin.blocked[0, 0, 0] = not twin.blocked[0, 0, 0]
        assert twin == grid and np.array_equal(twin.blocked, grid.blocked)
        cells = list(itertools.product(*[range(-1, n + 1) for n in grid.dims]))
        assert [twin.is_free(c) for c in cells] == \
            [grid.is_free(c) for c in cells]
        batch = np.array(cells)
        for model in MotionModel:
            ground = model is G4
            start = free_cell(rng, grid, ground)
            for goal in [free_cell(rng, grid, ground) for _ in range(8)]:
                try:
                    want = astar(grid, start, goal, model).cells
                except NoPathError:
                    want = None
                try:
                    assert astar(twin, start, goal, model).cells == want
                except NoPathError:
                    assert want is None
            ours, theirs = (pathplan.Rings(g, model, 1) for g in (twin, grid))
            assert np.array_equal(ours.free, theirs.free)
            for a, b in zip(ours.locate(batch), theirs.locate(batch)):
                assert np.array_equal(a, b)
            assert np.array_equal(distance_field(twin, start, model),
                                  distance_field(grid, start, model))


class TestLocate:
    """`Rings.locate` through `FieldStore.lookup` and `Rings.walk`, on one
    batch of every cell of the grid, free and blocked, above the plane
    for GROUND4, and cells off the grid on both sides of each axis."""

    @pytest.mark.parametrize("dims", [(70, 5, 3), (64, 4, 2), (9, 1, 4),
                                      (9, 6, 1)],
                             ids=["two-words", "one-word-full", "thin-y",
                                  "thin-z"])
    @pytest.mark.parametrize("model", [A6, G4])
    def test_mixed_batch_follows_the_per_cell_rule(self, dims, model):
        """Each cell reads its Dijkstra distance on the mask and inf off
        it, and walks down to the source exactly where it is finite."""
        rng = np.random.default_rng(sum(dims))
        grid = random_grid(rng, dims, 0.3)
        source = free_cell(rng, grid, ground=True)
        ref = dijkstra_field(grid, source, model)
        inside = list(itertools.product(*map(range, dims)))
        off = []
        for axis, n in enumerate(dims):
            for v in (-1, n, -n - 64, 10 ** 6):
                cell = list(inside[int(rng.integers(len(inside)))])
                cell[axis] = v
                off.append(tuple(cell))
        order = rng.permutation(len(inside) + len(off))
        batch = np.array(inside + off, dtype=np.intp)[order]
        want = np.array([ref[c] if grid.is_free(c) else np.inf
                         for c in map(tuple, batch)])
        assert np.isfinite(want).any() and np.isinf(want).any()
        store = FieldStore(grid, 2)
        task = types.SimpleNamespace(id=0, location=source)
        store.lookup(model, [task], np.array([1]), np.array([source]))
        assert np.array_equal(
            store.lookup(model, [task], np.array([1]), batch)[:, 0], want)
        rings = store._rings[model]
        for cell, d in zip(map(tuple, batch.tolist()), want):
            if np.isinf(d):
                with pytest.raises(NoPathError):
                    rings.walk(1, cell)
            else:
                assert rings.walk(1, cell) == extract_path_reference(
                    ref, cell, model).cells

    @pytest.mark.parametrize("model", [A6, G4])
    def test_cell_past_a_full_last_word_reads_padding(self, model):
        """On a 128-cell corridor x = 128 lies past the last full word.
        With 100 free cells the row's labels fill its top plane, so a
        word index one block too far would leave the stack."""
        blocked = np.zeros((128, 1, 1), dtype=bool)
        blocked[100:] = True
        store = FieldStore(Grid((128, 1, 1), blocked), 2)
        task = types.SimpleNamespace(id=0, location=(0, 0, 0))
        store.lookup(model, [task], np.array([1]), np.array([(99, 0, 0)]))
        cells = np.array([(128, 0, 0), (99, 0, 0), (100, 0, 0), (-1, 0, 0)])
        assert store.lookup(model, [task], np.array([1]),
                            cells)[:, 0].tolist() == [np.inf, 99, np.inf,
                                                      np.inf]
        with pytest.raises(NoPathError):
            store._rings[model].walk(1, (128, 0, 0))


class TestRRTStar:
    def test_deterministic_per_seed(self):
        grid = empty_grid((10, 10, 4))
        p1 = rrt_star(grid, (0, 0, 0), (9, 9, 3), MotionModel.AERIAL6, seed=5)
        p2 = rrt_star(grid, (0, 0, 0), (9, 9, 3), MotionModel.AERIAL6, seed=5)
        assert p1.cells == p2.cells

    def test_ground_model_stays_flat(self):
        grid = empty_grid((10, 10, 4))
        p = rrt_star(grid, (0, 0, 0), (9, 4, 0), MotionModel.GROUND4, seed=2)
        assert all(c[2] == 0 for c in p.cells)

    def test_more_iterations_never_longer(self):
        grid = empty_grid((12, 12, 4))
        with mock.patch.multiple(pathplan, RRT_MAX_ITERS=100):
            short = rrt_star(grid, (0, 0, 0), (11, 11, 0),
                             MotionModel.AERIAL6, seed=3)
        with mock.patch.multiple(pathplan, RRT_MAX_ITERS=2000):
            long = rrt_star(grid, (0, 0, 0), (11, 11, 0),
                            MotionModel.AERIAL6, seed=3)
        assert long.length <= short.length


# (grid seed, dims, density, start, goal, model, RRT_MAX_ITERS, rrt seed) and
# the cells rrt_star returned for it when its node scans were Python
# loops.  The last three stop short of the goal within their iterations
# and end in the "connect the closest node" fallback; the last two change
# if that fallback broke distance ties toward newer nodes.
RRT_GOLDEN = [
    ((1, (10, 10, 4), 0.15, (0, 0, 0), (9, 9, 3), A6, 800, 0), [
        (0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0), (4, 1, 0),
        (5, 1, 0), (5, 2, 0), (5, 2, 1), (5, 3, 1), (5, 4, 1), (5, 5, 1),
        (5, 6, 1), (5, 7, 1), (5, 8, 1), (5, 8, 2), (6, 8, 2), (7, 8, 2),
        (8, 8, 2), (9, 8, 2), (9, 9, 2), (9, 9, 3)]),
    ((2, (12, 8, 5), 0.2, (0, 7, 4), (11, 0, 0), A6, 800, 4), [
        (0, 7, 4), (1, 7, 4), (2, 7, 4), (3, 7, 4), (4, 7, 4), (5, 7, 4),
        (6, 7, 4), (7, 7, 4), (8, 7, 4), (8, 6, 4), (8, 5, 4), (8, 4, 4),
        (8, 3, 4), (9, 3, 4), (10, 3, 4), (11, 3, 4), (11, 2, 4),
        (11, 2, 3), (11, 2, 2), (11, 1, 2), (11, 1, 1), (11, 0, 1),
        (11, 0, 0)]),
    ((3, (10, 10, 1), 0.15, (0, 0, 0), (9, 9, 0), G4, 800, 1), [
        (0, 0, 0), (0, 1, 0), (0, 2, 0), (1, 2, 0), (1, 3, 0), (2, 3, 0),
        (2, 4, 0), (3, 4, 0), (3, 5, 0), (4, 5, 0), (5, 5, 0), (5, 6, 0),
        (5, 7, 0), (5, 8, 0), (6, 8, 0), (7, 8, 0), (8, 8, 0), (9, 8, 0),
        (9, 9, 0)]),
    ((4, (12, 12, 3), 0.2, (11, 0, 0), (0, 11, 0), G4, 800, 7), [
        (11, 0, 0), (10, 0, 0), (9, 0, 0), (8, 0, 0), (7, 0, 0), (7, 1, 0),
        (7, 2, 0), (7, 3, 0), (7, 4, 0), (6, 4, 0), (6, 5, 0), (6, 6, 0),
        (5, 6, 0), (5, 7, 0), (5, 8, 0), (4, 8, 0), (4, 9, 0), (3, 9, 0),
        (2, 9, 0), (1, 9, 0), (0, 9, 0), (0, 10, 0), (0, 11, 0)]),
    ((5, (10, 10, 4), 0.15, (0, 0, 0), (9, 9, 3), A6, 12, 5), [
        (0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (3, 1, 0), (4, 1, 0),
        (4, 2, 0), (5, 2, 0), (5, 3, 0), (5, 4, 0), (5, 5, 0), (6, 5, 0),
        (6, 6, 0), (6, 7, 0), (6, 8, 0), (6, 9, 0), (6, 9, 1), (7, 9, 1),
        (8, 9, 1), (8, 9, 2), (9, 9, 2), (9, 9, 3)]),
    ((14, (10, 10, 4), 0.15, (0, 0, 0), (9, 9, 3), A6, 6, 14), [
        (0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 3, 0), (0, 4, 0), (0, 5, 0),
        (0, 6, 0), (0, 7, 0), (1, 7, 0), (2, 7, 0), (3, 7, 0), (4, 7, 0),
        (5, 7, 0), (6, 7, 0), (7, 7, 0), (7, 7, 1), (8, 7, 1), (8, 8, 1),
        (8, 8, 2), (9, 8, 2), (9, 9, 2), (9, 9, 3)]),
    ((26, (8, 8, 1), 0.15, (0, 0, 0), (7, 7, 0), G4, 10, 26), [
        (0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (3, 1, 0), (3, 2, 0),
        (4, 2, 0), (4, 3, 0), (5, 3, 0), (5, 4, 0), (6, 4, 0), (6, 5, 0),
        (6, 6, 0), (7, 6, 0), (7, 7, 0)]),
]


class TestRRTStarGolden:
    @pytest.mark.parametrize("case,cells", RRT_GOLDEN)
    def test_seeded_paths_unchanged(self, case, cells):
        grid_seed, dims, density, start, goal, model, iters, seed = case
        blocked = np.random.default_rng(grid_seed).random(dims) < density
        blocked[start] = blocked[goal] = False
        grid = Grid(dims, blocked)
        with mock.patch.multiple(pathplan, RRT_MAX_ITERS=iters):
            path = rrt_star(grid, start, goal, model, seed=seed)
        assert path.cells == cells


# The RRT* the scalar planner replaced: a generator staircase, per-cell
# `Grid.is_free` and an (N, 3) node scan.  `rrt_star` must return its
# cells on every instance, or raise where it raised.  The reference takes
# its settings explicitly; `rrt_star` reads them from module constants,
# which the checks set to the same values.

def rrt_params(**settings):
    """RRT* settings as the reference reads them: `rrt_star`'s
    constants, with `settings` in place of some."""
    return types.SimpleNamespace(**{
        "max_iters": pathplan.RRT_MAX_ITERS,
        "rewire_radius": pathplan.RRT_REWIRE_RADIUS,
        "step_cells": pathplan.RRT_STEP_CELLS,
        "goal_bias": pathplan.RRT_GOAL_BIAS, **settings})

def staircase_reference(a, b):
    cur = list(a)
    while tuple(cur) != tuple(b):
        rem = [b[k] - cur[k] for k in range(3)]
        ax = max(range(3), key=lambda k: abs(rem[k]))
        cur[ax] += 1 if rem[ax] > 0 else -1
        yield tuple(cur)


def line_free_reference(grid, a, b):
    return all(grid.is_free(c) for c in staircase_reference(a, b))


def rrt_star_reference(grid, start, goal, model, params, seed, branches):
    """`branches` counts the runs that end in the fallback connection
    and the samples that fall back to the goal after 64 blocked draws."""
    start, goal = tuple(start), tuple(goal)
    if not grid.is_free(start) or not grid.is_free(goal):
        raise NoPathError("start or goal blocked")
    if model is MotionModel.GROUND4 and (start[2] != 0 or goal[2] != 0):
        raise NoPathError("ground model requires z=0 endpoints")

    rng = np.random.default_rng(seed)
    dims = grid.dims
    nodes = [start]
    coords = np.empty((params.max_iters + 1, 3), dtype=np.int64)
    coords[0] = start
    index = {start: 0}
    parent = {0: -1}
    cost = {0: 0.0}

    def sample_cell():
        if rng.random() < params.goal_bias:
            return goal
        for _ in range(64):
            x = int(rng.integers(dims[0]))
            y = int(rng.integers(dims[1]))
            z = 0 if model is MotionModel.GROUND4 else int(rng.integers(dims[2]))
            if grid.is_free((x, y, z)):
                return (x, y, z)
        branches["sampler_fallback"] += 1
        return goal

    def node_dists(cell):
        return np.abs(coords[:len(nodes)] - cell).sum(axis=1)

    goal_idx = None
    for _ in range(params.max_iters):
        target = sample_cell()
        nearest = int(np.argmin(node_dists(target)))
        new = nodes[nearest]
        for step, c in enumerate(staircase_reference(nodes[nearest], target)):
            if step >= params.step_cells or not grid.is_free(c):
                break
            new = c
        if new == nodes[nearest] or new in index:
            continue
        near = np.flatnonzero(node_dists(new) <= params.rewire_radius).tolist()
        best_par, best_cost = None, np.inf
        for k in sorted(set(near) | {nearest}):
            seg = manhattan(nodes[k], new)
            if cost[k] + seg < best_cost and line_free_reference(grid, nodes[k], new):
                best_par, best_cost = k, cost[k] + seg
        if best_par is None:
            continue
        idx = len(nodes)
        nodes.append(new)
        coords[idx] = new
        index[new] = idx
        parent[idx] = best_par
        cost[idx] = best_cost
        for k in near:
            seg = manhattan(new, nodes[k])
            if best_cost + seg < cost[k] - 1e-9 and \
                    line_free_reference(grid, new, nodes[k]):
                parent[k] = idx
                cost[k] = best_cost + seg
        if new == goal:
            goal_idx = idx

    if goal_idx is None:
        order = np.argsort(node_dists(goal), kind="stable")
        for k in order[:32].tolist():
            if line_free_reference(grid, nodes[k], goal):
                idx = len(nodes)
                nodes.append(goal)
                parent[idx] = k
                cost[idx] = cost[k] + manhattan(nodes[k], goal)
                goal_idx = idx
                branches["fallback"] += 1
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
        cells.extend(staircase_reference(a, b))
    return Path(cells)


def same_rrt_outcome(grid, start, goal, model, params, seed, branches):
    """`rrt_star` and `rrt_star_reference` return the same valid path
    from `start` to `goal`, or both raise `NoPathError`; `branches`
    counts how the reference ended."""
    with mock.patch.multiple(pathplan, RRT_MAX_ITERS=params.max_iters,
                             RRT_REWIRE_RADIUS=params.rewire_radius,
                             RRT_STEP_CELLS=params.step_cells,
                             RRT_GOAL_BIAS=params.goal_bias):
        try:
            ref = rrt_star_reference(grid, start, goal, model, params, seed,
                                     branches).cells
        except NoPathError:
            branches["no_path"] += 1
            with pytest.raises(NoPathError):
                rrt_star(grid, start, goal, model, seed=seed)
            return
        path = rrt_star(grid, start, goal, model, seed=seed)
    assert_walks(path, grid, model, start, goal)
    assert path.cells == ref


@st.composite
def rrt_instances(draw):
    """A grid up to 12x12x5 with free endpoints, a motion model, and
    RRT* settings from no iterations to a few hundred."""
    grid, start, goal, model, _ = _grid_and_ends(draw, (12, 12, 5))
    params = rrt_params(max_iters=draw(st.integers(0, 200)),
                        rewire_radius=draw(st.floats(0.0, 6.0)),
                        step_cells=draw(st.integers(1, 8)),
                        goal_bias=draw(st.floats(0.0, 1.0)))
    return grid, start, goal, model, params, draw(st.integers(0, 2**32 - 1))


@pytest.fixture(scope="module")
def planner_compare_instances():
    """Per benchmark seed, the first six (grid, start, goal, model, seed)
    instances RRT* gets in `bench.planner_compare` on the 50x50x30 grid:
    the four pairs at N = 4 and the first two at N = 8.  At seed 3 one
    of the four has no RRT* path."""
    instances = {}
    for benchmark_seed in (3, 29):
        found = instances[benchmark_seed] = []
        for n in (4, 8):
            spec = ScenarioSpec(mode="static", n_agents=(n,),
                                methods=("hungarian",), episodes=1,
                                seed_base=benchmark_seed * 1000,
                                obstacle_density=0.1, grid_dims=(50, 50, 30))
            seed = spec.seed_base * 1_000_000 + n * 10_000
            ep = Episode(spec.world_config(n), seed)
            pairs = feasible_optimum(ep.initial_cost_matrix()).pairs
            task_ids = [t.id for t in ep.state.live_tasks()]
            for i, j in pairs:
                agent = ep.state.agents[i]
                found.append((ep.state.grid, agent.position,
                              ep.state.task(task_ids[j]).location,
                              agent.motion_model, seed * 97 + i))
        del found[6:]
    return instances


def _empty_grid_instance():
    """Goal bias 1: once the goal is a node, every later sample is a
    tree node and the iteration is skipped."""
    return (empty_grid((6, 6, 3)), (0, 0, 0), (5, 5, 2), MotionModel.AERIAL6,
            rrt_params(max_iters=40, step_cells=3, goal_bias=1.0), 0)


def _no_rewire_instance():
    """Radius 0 with one-cell steps: no node is ever near a new one."""
    dims, start, goal = (10, 10, 1), (0, 0, 0), (9, 9, 0)
    blocked = np.random.default_rng(3).random(dims) < 0.15
    blocked[start] = blocked[goal] = False
    return (Grid(dims, blocked), start, goal, MotionModel.GROUND4,
            rrt_params(max_iters=150, rewire_radius=0.0, step_cells=1), 7)


def _corridor_instance():
    """Six free cells of 720: most runs of 64 draws miss them all, and
    the sampler falls back to the goal."""
    dims, start, goal = (12, 12, 5), (0, 0, 0), (5, 0, 0)
    blocked = np.ones(dims, dtype=bool)
    blocked[:6, 0, 0] = False
    return (Grid(dims, blocked), start, goal, MotionModel.AERIAL6,
            rrt_params(max_iters=20, goal_bias=0.0), 1)


class TestRRTStarAgainstReference:
    def test_small_instances(self):
        branches = Counter()

        @settings(max_examples=300, derandomize=True, deadline=None)
        @given(rrt_instances())
        @example(_empty_grid_instance())
        @example(_no_rewire_instance())
        @example(_corridor_instance())
        def check(instance):
            same_rrt_outcome(*instance, branches)

        check()
        assert branches["fallback"] > 0 and branches["no_path"] > 0
        assert branches["sampler_fallback"] > 0

    @pytest.mark.parametrize("benchmark_seed,i",
                             [(s, i) for s in (3, 29) for i in range(6)])
    def test_planner_compare_instances(self, planner_compare_instances,
                                       benchmark_seed, i):
        grid, start, goal, model, seed = \
            planner_compare_instances[benchmark_seed][i]
        same_rrt_outcome(grid, start, goal, model, rrt_params(), seed,
                         Counter())


class TestRRTSettingEdges:
    """Each search setting at the edge of its range, the others at the
    constants, on a cluttered grid: `rrt_star` reads the constants it
    runs under and returns the reference's outcome."""

    @pytest.mark.parametrize("model", [MotionModel.GROUND4,
                                       MotionModel.AERIAL6],
                             ids=["ground", "aerial"])
    @pytest.mark.parametrize("edge", [
        {"max_iters": 0}, {"max_iters": 1}, {"step_cells": 1},
        {"rewire_radius": 0.0}, {"goal_bias": 0.0}, {"goal_bias": 1.0}],
        ids=["no-iterations", "one-iteration", "one-cell-steps",
             "no-rewiring", "no-goal-bias", "only-goal-samples"])
    def test_matches_reference(self, edge, model):
        dims, start = (10, 10, 3), (0, 0, 0)
        goal = (9, 9, 0) if model is MotionModel.GROUND4 else (9, 9, 2)
        blocked = np.random.default_rng(5).random(dims) < 0.15
        blocked[start] = blocked[goal] = False
        same_rrt_outcome(Grid(dims, blocked), start, goal, model,
                         rrt_params(**edge), 11, Counter())


class TestPCG64Draws:
    """`_pcg64_draws` against the Generator it stands in for, call for
    call: doubles, n = 1 (no draw), grid-sized n, and n up to 2**32.
    Above 2**31 a draw is rejected and redrawn with probability
    (2**32 - n) / 2**32, so the rejection loop runs often."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.integers(0, 2**64 - 1),
           st.lists(st.one_of(st.none(), st.just(1), st.integers(2, 60),
                              st.integers(2**31, 2**32)), max_size=40))
    @example(0, [1, 50, None, 50, 50, 1, 2**32, 2**31 + 1, 2**31 + 1])
    def test_matches_generator(self, seed, calls):
        rng = np.random.default_rng(seed)
        random, integers = _pcg64_draws(seed)
        for n in calls:
            if n is None:
                assert random() == rng.random()
            else:
                assert integers(n) == rng.integers(n)
        # both sides stand at the same word and kept half-word
        assert (random(), integers(7)) == (rng.random(), rng.integers(7))


class TestStaircase:
    """`_staircase` against `staircase_reference` on a 60-cell cube with
    random obstacles: the stepper returns where the reference walk stops,
    cut at `limit` and before its first blocked cell; from any cell of
    its walk it continues as the walk does, one step or to the end (so
    single steps rebuild an RRT* segment); and the cells it reads stay
    in the box spanned by `a` and `b`, so it needs no bounds test."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.tuples(*[st.integers(0, 59)] * 3),
           st.tuples(*[st.integers(0, 59)] * 3), st.integers(0, 200),
           st.sampled_from((0.0, 0.01, 0.05, 0.3)),
           st.integers(0, 2**32 - 1))
    @example((5, 5, 5), (5, 5, 5), 3, 0.0, 0)
    @example((0, 7, 2), (59, 7, 2), 10, 0.0, 0)
    @example((4, 0, 9), (4, 59, 9), 0, 0.0, 0)
    @example((1, 2, 59), (1, 2, 0), 70, 0.0, 0)
    @example((0, 0, 0), (3, 3, 3), 5, 0.0, 0)
    @example((0, 0, 0), (59, 59, 59), 200, 0.05, 7)
    def test_matches_reference(self, a, b, limit, density, seed):
        dims = (60, 60, 60)
        grid = Grid(dims, np.random.default_rng(seed).random(dims) < density)
        ref = list(staircase_reference(a, b))
        walk = [a, *itertools.takewhile(grid.is_free, ref)]
        stop = len(walk) - 1
        assert _staircase(grid, a, b) == (walk[stop], stop)
        cut = min(limit, stop)
        assert _staircase(grid, a, b, limit) == (walk[cut], cut)
        box = [range(min(p, q), max(p, q) + 1) for p, q in zip(a, b)]
        for k, cell in enumerate(walk):
            assert _staircase(grid, a, b, k) == (cell, k)
            assert _staircase(grid, cell, b) == (walk[stop], stop - k)
            assert _staircase(grid, cell, b, 1) == \
                ((walk[k + 1], 1) if k < stop else (cell, 0))
        # the walk's cells and the blocked cell it stops before
        assert all(v in r for c in ref[:stop + 1] for v, r in zip(c, box))

    def test_a_step_that_does_not_advance_raises(self):
        """RRT* rebuilds its path by single steps; one that stops short
        raises instead of looping."""
        staircase = pathplan._staircase

        def stuck(grid, a, b, limit=None):
            return (a, 0) if limit == 1 else staircase(grid, a, b, limit)

        with mock.patch.object(pathplan, "_staircase", stuck), \
                pytest.raises(RuntimeError, match="blocked"):
            rrt_star(empty_grid((6, 6, 1)), (0, 0, 0), (5, 5, 0), A6)


class TestReservations:
    def test_double_booking_rejected(self):
        table = ReservationTable()
        table.reserve((1, 1, 0), 3, agent_id=0)
        with pytest.raises(ValueError):
            table.reserve((1, 1, 0), 3, agent_id=1)
        table.reserve((1, 1, 0), 3, agent_id=0)  # idempotent for the owner

    def test_release(self):
        table = ReservationTable()
        table.reserve((0, 0, 0), 1, 0)
        table.reserve((0, 0, 0), 2, 1)
        table.release_agent(0)
        assert table.slots.get(((0, 0, 0), 1)) is None
        table.release_before(3)
        assert table.slots.get(((0, 0, 0), 2)) is None

    def test_space_time_astar_waits_out_a_block(self):
        grid = empty_grid((6, 1, 1))
        table = ReservationTable()
        # corridor cell (2,0,0) is held by agent 9 for ticks 1..3
        for t in (1, 2, 3):
            table.reserve((2, 0, 0), t, 9)
        p = astar(grid, (0, 0, 0), (5, 0, 0), MotionModel.GROUND4,
                  reservations=table, agent_id=0, start_tick=0,
                  substeps_per_tick=1)
        p.validate(grid, MotionModel.GROUND4)
        assert p.cells[-1] == (5, 0, 0)
        assert len(p.cells) - 1 > 5  # waits were inserted

    def test_resolve_paths_keeps_lowest_cost_unchanged(self):
        grid = empty_grid((8, 1, 1))
        straight = Path([(x, 0, 0) for x in range(8)])
        cheap = AgentPlan(0, cost=1.0, path=straight, velocity=1.0,
                          model=MotionModel.GROUND4)
        dear = AgentPlan(1, cost=5.0, path=straight, velocity=1.0,
                         model=MotionModel.GROUND4)
        table = ReservationTable()
        out = resolve_paths([dear, cheap], table, grid)
        by_id = {p.agent_id: p for p in out}
        assert by_id[0].path.cells == straight.cells
        # the expensive plan was delayed or rerouted, not dropped
        assert by_id[1].path.cells[-1] == (7, 0, 0)

    def test_resolve_paths_reservations_disjoint(self):
        rng = np.random.default_rng(4)
        grid = empty_grid((10, 10, 1))
        plans = []
        for a in range(4):
            start = (int(rng.integers(10)), int(rng.integers(10)), 0)
            goal = (int(rng.integers(10)), int(rng.integers(10)), 0)
            path = astar(grid, start, goal, MotionModel.GROUND4)
            plans.append(AgentPlan(a, float(path.length), path, 1.0,
                                   MotionModel.GROUND4))
        table = ReservationTable()
        out = resolve_paths(plans, table, grid)
        assert sorted(p.agent_id for p in out) == [0, 1, 2, 3]
        seen = set()
        for p in out:
            slots = set(plan_schedule(p))
            assert all(table.slots.get((c, t)) == p.agent_id
                       for c, t in slots)
            assert not slots & seen, "two plans share a slot"
            seen |= slots

    def test_resolve_paths_replans_under_each_plans_model(self):
        """A plan whose next cell is held replans under its own motion
        model: the aerial plan climbs over the held cell, the ground plan
        waits on the ground plane until the cell is free."""
        grid = empty_grid((3, 1, 2))
        straight = Path([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
        cells = {}
        for model in (MotionModel.GROUND4, MotionModel.AERIAL6):
            table = ReservationTable()
            for tick in range(1, 6):
                table.reserve((1, 0, 0), tick, 9)
            (plan,) = resolve_paths([AgentPlan(0, 2.0, straight, 1.0, model)],
                                    table, grid)
            assert plan.model is model
            plan.path.validate(grid, model)
            cells[model] = plan.path.cells
        assert cells[MotionModel.GROUND4] == [(0, 0, 0)] * 6 + [(1, 0, 0),
                                                               (2, 0, 0)]
        assert cells[MotionModel.AERIAL6] == [
            (0, 0, 0), (0, 0, 1), (1, 0, 1), (2, 0, 1), (2, 0, 0)]

    def test_resolve_paths_holds_when_no_path_exists(self):
        grid = empty_grid((3, 1, 1))
        start = (0, 0, 0)
        table = ReservationTable()
        # at tick 1 others hold the start cell and its one free neighbor
        table.reserve(start, 1, 7)
        table.reserve((1, 0, 0), 1, 8)
        path = Path([start, (1, 0, 0), (2, 0, 0)])
        out = resolve_paths([AgentPlan(0, 2.0, path, velocity=1.0,
                                       model=MotionModel.GROUND4)],
                            table, grid)
        assert [p.agent_id for p in out] == [0]
        assert out[0].path.cells == [start, start] + path.cells[1:]
        assert 0 not in table.slots.values()

    def test_plan_schedule_respects_velocity(self):
        path = Path([(x, 0, 0) for x in range(7)])
        fast = AgentPlan(0, 1.0, path, velocity=3.0,
                         model=MotionModel.GROUND4, start_tick=0)
        sched = plan_schedule(fast)
        assert sched == [((3, 0, 0), 1), ((6, 0, 0), 2)]


def space_time_reference(grid, start, goal, model, table, agent_id,
                         start_tick, substeps_per_tick):
    """Fewest substeps from `start` to `goal` by breadth-first search over
    (cell, substep) states; None when the goal is never reached.

    Each substep the agent waits or moves one cell, and the state it
    enters must not be reserved for another agent at the tick in which
    that substep falls, the rule `astar` applies.  Once that tick is past
    every reservation the moves no longer depend on time, so any arrival
    comes within one substep per grid cell after that; the search stops
    there.
    """
    def tick_of(sub):
        return start_tick + -(-sub // substeps_per_tick)

    last = (table.max_tick() - start_tick + 1) * substeps_per_tick \
        + int(np.prod(grid.dims))
    moves = ((0, 0, 0),) + model.deltas
    layer, sub = {start}, 0
    while layer and sub <= last:
        if goal in layer:
            return sub
        sub += 1
        layer = {nxt for cell in layer for d in moves
                 for nxt in [(cell[0] + d[0], cell[1] + d[1], cell[2] + d[2])]
                 if grid.is_free(nxt)
                 and table.is_free_for(nxt, tick_of(sub), agent_id)}
    return None


@st.composite
def space_time_instances(draw):
    """A small grid, free endpoints, a motion model, a start tick, a
    speed and 1-40 (cell, tick) slots held by agent 7, in the box the
    endpoints span, where they can stand in the way."""
    dims = (draw(st.integers(2, 6)), draw(st.integers(2, 6)),
            draw(st.integers(1, 3)))
    model = draw(st.sampled_from([MotionModel.AERIAL6, MotionModel.GROUND4]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    blocked = rng.random(dims) < draw(st.floats(0.0, 0.3))
    top = 1 if model is MotionModel.GROUND4 else dims[2]
    ends = [(int(rng.integers(dims[0])), int(rng.integers(dims[1])),
             int(rng.integers(top))) for _ in range(2)]
    for cell in ends:
        blocked[cell] = False
    start_tick = draw(st.integers(0, 3))
    table = ReservationTable()
    for _ in range(draw(st.integers(1, 40))):
        cell = tuple(int(rng.integers(min(a, b), max(a, b) + 1))
                     for a, b in zip(*ends))
        table.reserve(cell, start_tick + int(rng.integers(1, 7)), 7)
    return (Grid(dims, blocked), ends[0], ends[1], model, table,
            start_tick, draw(st.integers(1, 3)))


class TestSpaceTimeAgainstReference:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(space_time_instances())
    def test_arrival_is_earliest_and_conflict_free(self, instance):
        grid, start, goal, model, table, start_tick, spt = instance
        ref = space_time_reference(grid, start, goal, model, table, 0,
                                   start_tick, spt)
        if ref is None:
            with pytest.raises(NoPathError):
                astar(grid, start, goal, model, table, 0, start_tick, spt)
            return
        path = astar(grid, start, goal, model, table, 0, start_tick, spt)
        assert_walks(path, grid, model, start, goal)
        assert len(path.cells) - 1 == ref
        for sub, cell in enumerate(path.cells[1:], start=1):
            tick = start_tick + -(-sub // spt)
            assert table.is_free_for(cell, tick, 0), (cell, tick)


def astar_reference(grid, start, goal, model, reservations=None,
                    agent_id=None, start_tick=0, substeps_per_tick=1,
                    max_expansions=500_000):
    """The two best-first loops that `astar` merged into one: a plain
    search over cells, and a search over (cell, substep) states for every
    substep whenever the table holds a slot.  Endpoints must be free."""
    if reservations is None or not reservations.slots:
        return _plain_reference(grid, start, goal, model, max_expansions)
    return _space_time_reference(grid, start, goal, model, reservations,
                                 agent_id, start_tick, substeps_per_tick,
                                 max_expansions)


def _plain_reference(grid, start, goal, model, max_expansions):
    deltas = model.deltas
    blocked = grid.blocked
    dx, dy, dz = grid.dims
    open_heap = [(manhattan(start, goal), 0, start)]
    g_best = {start: 0}
    came = {}
    expansions = 0
    while open_heap:
        f, neg_g, cell = heapq.heappop(open_heap)
        g = -neg_g
        if cell == goal:
            return Path(_reconstruct_reference(came, cell))
        if g > g_best.get(cell, np.inf):
            continue
        expansions += 1
        if expansions > max_expansions:
            raise NoPathError("expansion budget exhausted")
        cx, cy, cz = cell
        for ddx, ddy, ddz in deltas:
            nx, ny, nz = cx + ddx, cy + ddy, cz + ddz
            if not (0 <= nx < dx and 0 <= ny < dy and 0 <= nz < dz):
                continue
            if blocked[nx, ny, nz]:
                continue
            nxt = (nx, ny, nz)
            ng = g + 1
            if ng < g_best.get(nxt, np.inf):
                g_best[nxt] = ng
                came[nxt] = cell
                heapq.heappush(open_heap, (ng + manhattan(nxt, goal), -ng, nxt))
    raise NoPathError(f"no path {start} -> {goal}")


def _space_time_reference(grid, start, goal, model, reservations, agent_id,
                          start_tick, substeps_per_tick, max_expansions):
    # past the last reserved tick moves no longer depend on time, so a
    # reachable goal is reached within one substep per grid cell after it
    last = (reservations.max_tick() - start_tick + 1) * substeps_per_tick \
        + int(np.prod(grid.dims))

    def tick_of(substep: int) -> int:
        return start_tick + (substep + substeps_per_tick - 1) // substeps_per_tick

    def ok(cell, substep):
        return reservations.is_free_for(cell, tick_of(substep), agent_id)

    start_state = (start, 0)
    open_heap = [(manhattan(start, goal), 0, start_state)]
    g_best = {start_state: 0}
    came = {}
    expansions = 0
    while open_heap:
        f, neg_g, (cell, sub) = heapq.heappop(open_heap)
        g = -neg_g
        if cell == goal:
            return Path(_reconstruct_reference(came, (cell, sub),
                                               time_states=True))
        expansions += 1
        if expansions > max_expansions:
            raise NoPathError("space-time search budget exhausted")
        if sub >= last:
            continue
        moves = [(0, 0, 0)] + list(model.deltas)
        for d in moves:
            nxt = (cell[0] + d[0], cell[1] + d[1], cell[2] + d[2])
            if not grid.is_free(nxt) or not ok(nxt, sub + 1):
                continue
            state = (nxt, sub + 1)
            ng = g + 1
            if ng < g_best.get(state, np.inf):
                g_best[state] = ng
                came[state] = (cell, sub)
                heapq.heappush(
                    open_heap, (ng + manhattan(nxt, goal), -ng, state))
    raise NoPathError(f"no conflict-free path {start} -> {goal}")


def _reconstruct_reference(came, end, time_states=False):
    out = [end]
    while out[-1] in came:
        out.append(came[out[-1]])
    out.reverse()
    if time_states:
        return [cell for cell, _ in out]
    return out


def same_outcome(grid, start, goal, model, *args, budget=500_000):
    """`astar` and `astar_reference`, each given `budget` expansions,
    return the same valid path from `start` to `goal`, or both raise
    `NoPathError`."""
    with mock.patch.multiple(pathplan, ASTAR_MAX_EXPANSIONS=budget):
        try:
            ref = astar_reference(grid, start, goal, model, *args,
                                  max_expansions=budget).cells
        except NoPathError:
            with pytest.raises(NoPathError):
                astar(grid, start, goal, model, *args)
            return
        path = astar(grid, start, goal, model, *args)
    assert_walks(path, grid, model, start, goal)
    assert path.cells == ref


def _grid_and_ends(draw, max_dims):
    dims = tuple(draw(st.integers(1, n)) for n in max_dims)
    model = draw(st.sampled_from([MotionModel.AERIAL6, MotionModel.GROUND4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocked = rng.random(dims) < draw(st.floats(0.0, 0.35))
    top = 1 if model is MotionModel.GROUND4 else dims[2]
    ends = [(int(rng.integers(dims[0])), int(rng.integers(dims[1])),
             int(rng.integers(top))) for _ in range(2)]
    for cell in ends:
        blocked[cell] = False
    return Grid(dims, blocked), ends[0], ends[1], model, rng


@st.composite
def plain_instances(draw):
    """A grid up to 11x11x4 with free endpoints, a motion model, and an
    expansion budget that is sometimes small enough to run out."""
    grid, start, goal, model, _ = _grid_and_ends(draw, (11, 11, 4))
    budget = draw(st.one_of(st.just(500_000), st.integers(1, 120)))
    return grid, start, goal, model, budget


@st.composite
def expiring_instances(draw):
    """A grid up to 11x11x4 and 1-40 slots of agent 7 in the endpoints'
    box, all at ticks before the earliest possible arrival, so the search
    goes on past the last reserved tick."""
    grid, start, goal, model, rng = _grid_and_ends(draw, (11, 11, 4))
    start_tick = draw(st.integers(0, 3))
    spt = draw(st.integers(1, 3))
    # arrival takes at least manhattan(start, goal) substeps
    ticks = (manhattan(start, goal) - 1) // spt
    assume(ticks >= 1)
    table = ReservationTable()
    for _ in range(draw(st.integers(1, 40))):
        cell = tuple(int(rng.integers(min(a, b), max(a, b) + 1))
                     for a, b in zip(start, goal))
        table.reserve(cell, start_tick + int(rng.integers(1, ticks + 1)), 7)
    return grid, start, goal, model, table, start_tick, spt


class TestAStarAgainstReference:
    """One search serves plain and space-time queries; it returns the
    cells the two loops it replaced returned."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(plain_instances())
    def test_plain(self, instance):
        grid, start, goal, model, budget = instance
        same_outcome(grid, start, goal, model, budget=budget)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(space_time_instances())
    def test_space_time(self, instance):
        grid, start, goal, model, table, start_tick, spt = instance
        same_outcome(grid, start, goal, model, table, 0, start_tick, spt)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(expiring_instances())
    def test_reservations_end_before_arrival(self, instance):
        grid, start, goal, model, table, start_tick, spt = instance
        same_outcome(grid, start, goal, model, table, 0, start_tick, spt)

    def test_full_size_plain_pairs(self):
        rng = np.random.default_rng(12)
        grid = random_grid(rng, dims=(50, 50, 30), density=0.1)
        for i in range(40):
            model = (MotionModel.AERIAL6, MotionModel.GROUND4)[i % 2]
            ground = model is MotionModel.GROUND4
            same_outcome(grid, free_cell(rng, grid, ground),
                         free_cell(rng, grid, ground), model)

    def test_full_size_space_time_queries(self):
        """The space-time queries perfbench's `bench_static` makes at
        seed 3, recorded by wrapping `pathplan.astar`: each is its
        episode's grid seed (the 50 x 50 x 30 mask at density 0.1 is
        `init_episode`'s first draw), start, goal, model, the table's
        slots as (x, y, z, tick, agent), the agent, its start tick and
        substeps per tick.  Each table holds slots past the start tick,
        so the search steps through timed states, and each path differs
        from the plain one."""
        with open(os.path.join(REPO, "tests",
                               "bench_static_space_time.json")) as f:
            queries = json.load(f)
        assert len(queries) == 6
        for q in queries:
            dims = (50, 50, 30)
            blocked = np.random.default_rng(q["grid_seed"]).random(dims) < 0.1
            grid = Grid(dims, blocked)
            table = ReservationTable()
            for x, y, z, tick, agent in q["reservations"]:
                table.reserve((x, y, z), tick, agent)
            assert table.max_tick() > q["start_tick"]
            start, goal = tuple(q["start"]), tuple(q["goal"])
            model = MotionModel(q["model"])
            args = (table, q["agent_id"], q["start_tick"],
                    q["substeps_per_tick"])
            same_outcome(grid, start, goal, model, *args)
            assert astar(grid, start, goal, model, *args).cells != \
                astar(grid, start, goal, model).cells


class TestExpiredReservation:
    def test_detour_after_last_reserved_tick_costs_what_plain_costs(self):
        """A wall at x = 10 with one hole in the far top corner, and one
        slot of another agent at tick 1.  Searching (cell, substep)
        states at every substep expands a time copy of each cell it
        revisits while it floods the near side (29,878 expansions).  With
        bare cells past tick 1 the search costs what plain A* costs, plus
        five states that tick adds: a wait at the start, and bare copies
        of the start and its three neighbours, whose first arrival was a
        (cell, substep) state."""
        blocked = np.zeros((20, 20, 6), dtype=bool)
        blocked[10] = True
        blocked[10, 19, 5] = False
        grid = Grid((20, 20, 6), blocked)
        start, goal = (0, 0, 0), (19, 0, 0)
        table = ReservationTable()
        table.reserve((19, 19, 5), 1, agent_id=9)

        def plain_succeeds(budget):
            try:
                with mock.patch.multiple(pathplan,
                                         ASTAR_MAX_EXPANSIONS=budget):
                    astar(grid, start, goal, MotionModel.AERIAL6)
            except NoPathError:
                return False
            return True

        lo, hi = 1, 500_000
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if plain_succeeds(mid) else (mid + 1, hi)
        plain = astar(grid, start, goal, MotionModel.AERIAL6)
        with mock.patch.multiple(pathplan, ASTAR_MAX_EXPANSIONS=lo + 5):
            reserved = astar(grid, start, goal, MotionModel.AERIAL6, table, 0)
        reserved.validate(grid, MotionModel.AERIAL6)
        assert reserved.length == plain.length == 67
        assert len(reserved.cells) - 1 == 67

    def test_long_detour_past_the_last_reserved_tick(self):
        """A wall at x = 5 with one hole at the far end, y = 29, and one
        slot of another agent at tick 1: from (4, 0, 0) to (6, 0, 0) is
        60 moves, 19 ticks past the last reserved one at 3 substeps per
        tick, and the search finds them as plain A* does."""
        blocked = np.zeros((12, 30, 1), dtype=bool)
        blocked[5, :29] = True
        grid = Grid((12, 30, 1), blocked)
        start, goal = (4, 0, 0), (6, 0, 0)
        table = ReservationTable()
        table.reserve((0, 0, 0), 1, agent_id=9)
        plain = astar(grid, start, goal, MotionModel.AERIAL6)
        reserved = astar(grid, start, goal, MotionModel.AERIAL6, table, 0,
                         substeps_per_tick=3)
        reserved.validate(grid, MotionModel.AERIAL6)
        assert reserved.length == plain.length == 60
        assert len(reserved.cells) - 1 == 60


class TestPath:
    def test_length_ignores_waits(self):
        p = Path([(0, 0, 0), (0, 0, 0), (1, 0, 0), (1, 0, 0), (2, 0, 0)])
        assert p.length == 2

    def test_validate_rejects_jumps(self):
        grid = empty_grid((5, 5, 1))
        with pytest.raises(ValueError):
            Path([(0, 0, 0), (2, 0, 0)]).validate(grid, MotionModel.GROUND4)

    def test_validate_keeps_ground_paths_on_the_ground_plane(self):
        """Every step is a GROUND4 move and every cell is free, but the
        cells sit at z = 1, where no ground agent can be."""
        grid = empty_grid((3, 3, 2))
        path = Path([(0, 0, 1), (1, 0, 1), (1, 1, 1)])
        with pytest.raises(ValueError, match="z = 0"):
            path.validate(grid, MotionModel.GROUND4)
        path.validate(grid, MotionModel.AERIAL6)
        Path([(0, 0, 0), (1, 0, 0), (1, 1, 0)]).validate(
            grid, MotionModel.GROUND4)

    @pytest.mark.parametrize("cells", [
        [(2, 2, 1)], [(0, 0, 2), (0, 1, 2)], [(0, 0, 0), (0, 0, 1)]],
        ids=["one-cell", "top-layer", "climbs"])
    def test_validate_rejects_any_ground_cell_off_the_plane(self, cells):
        """A one-cell path takes no step, so only the cell check can
        catch it; a climb is caught at its first cell off the plane."""
        with pytest.raises(ValueError, match="z = 0"):
            Path(cells).validate(empty_grid((3, 3, 3)), MotionModel.GROUND4)
