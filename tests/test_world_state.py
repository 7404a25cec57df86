"""Paths read off cached distance fields, and id lookups on the episode
state."""

import numpy as np
import pytest

from magnnet.pathplan import Grid, MotionModel, distance_field
from magnnet.world import (WorldConfig, _extract_path, init_episode,
                           spawn_tasks)


def random_grid(seed, dims=(9, 8, 4), density=0.25):
    rng = np.random.default_rng(seed)
    return Grid(dims, rng.random(dims) < density), rng


@pytest.mark.parametrize("model", list(MotionModel))
@pytest.mark.parametrize("seed", range(6))
def test_extract_path_follows_field_from_every_reachable_start(model, seed):
    grid, rng = random_grid(seed)
    z_max = 1 if model is MotionModel.GROUND4 else grid.dims[2]
    free = [tuple(int(v) for v in c) for c in np.argwhere(~grid.blocked)
            if c[2] < z_max]
    source = free[int(rng.integers(len(free)))]
    field = distance_field(grid, source, model)
    starts = [tuple(int(v) for v in c) for c in np.argwhere(np.isfinite(field))]
    assert source in starts
    for start in starts:
        path = _extract_path(field, start, model)
        path.validate(grid, model)
        assert path.cells[0] == start
        assert path.goal == source
        assert path.length == field[start]


def test_ids_index_agents_and_tasks():
    cfg = WorldConfig(grid_dims=(15, 15, 6), n_agents=4, n_tasks_initial=4,
                      n_ground=2, n_aerial=2, obstacle_density=0.08,
                      task_interval=1.0, m_max=8)
    st = init_episode(cfg, 5)
    st.clock = 3.0
    assert len(spawn_tasks(st, cfg)) == 3
    for a in st.agents:
        assert st.agent(a.id) is a
    for t in st.tasks:
        assert st.task(t.id) is t
    for bad in (-1, len(st.agents)):
        with pytest.raises(KeyError):
            st.agent(bad)
    for bad in (-1, len(st.tasks)):
        with pytest.raises(KeyError):
            st.task(bad)
