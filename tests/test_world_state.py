"""Id lookups and the slot order on the episode state."""

import pytest

from magnnet.world import WorldConfig, init_episode, spawn_tasks


def test_ids_index_agents_and_tasks():
    cfg = WorldConfig(grid_dims=(15, 15, 6), n_agents=4, n_tasks_initial=4,
                      n_ground=2, n_aerial=2, obstacle_density=0.08,
                      task_interval=1.0)
    st = init_episode(cfg, 5)
    st.clock = 3.0
    assert len(spawn_tasks(st)) == 3
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


def test_live_slots_kept_until_a_slot_write():
    """`live_slots()` hands out one list until `replace_slot` writes a
    slot, and the next call reads the new slots."""
    cfg = WorldConfig(grid_dims=(15, 15, 6), n_agents=4, n_tasks_initial=3,
                      n_ground=2, n_aerial=2, obstacle_density=0.08,
                      task_interval=1.0)
    st = init_episode(cfg, 5)
    live = st.live_slots()
    assert live == [0, 1, 2] and st.live_slots() is live
    st.replace_slot(1, None)
    assert st.live_slots() == [0, 2] and live == [0, 1, 2]
    st.clock = 2.0
    assert [t.id for t in spawn_tasks(st)] == [3, 4]
    assert st.slots == [0, 3, 2, 4] + [None] * 16
    assert st.live_slots() == [0, 2, 1, 3]
