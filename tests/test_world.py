"""Simulator tests: placement, observations, masks, arbitration,
rewards, motion, spawning and episode lifecycle."""

import copy

import numpy as np
import pytest

from magnnet import pathplan, world
from magnnet.assign import CostMatrix
from magnnet.errors import PlacementError
from magnnet.gnn import build_graph
from magnnet.pathplan import MotionModel, Path
from magnnet.world import (AgentStatus, COST_SCALE, DecisionOutcome, Episode,
                           SENTINEL_NORMALIZED_COST, STATUS_CODE, TaskStatus,
                           WorldConfig, _plan_to_task, advance, arbitrate,
                           assign_tasks,
                           current_cost_matrix, init_episode, observation,
                           slot_cost_array, spawn_tasks, step_rewards,
                           terminal_bonus)


def local_observation_reference(state, agent_id, slot_costs):
    """One agent's observation, built row by row: the reference that
    `observation` must equal."""
    agent = state.agent(agent_id)
    m_max = state.config.m_max
    row = slot_costs[agent_id][:m_max]
    norm = np.where(np.isfinite(row), row / COST_SCALE,
                    SENTINEL_NORMALIZED_COST)
    obs = np.empty(m_max + 1)
    obs[0] = STATUS_CODE[agent.status]
    obs[1:] = norm
    return obs


def action_mask_reference(state, agent_id, slot_costs):
    """One agent's action mask, slot by slot: the reference that
    `observation` must equal."""
    agent = state.agent(agent_id)
    m_max = state.config.m_max
    mask = np.zeros(m_max + 1, dtype=bool)
    mask[0] = True
    if agent.status is not AgentStatus.IDLE:
        return mask
    row = slot_costs[agent_id]
    for s, tid in enumerate(state.slots):
        if tid is None:
            continue
        task = state.task(tid)
        if task.status is TaskStatus.WAITING and np.isfinite(row[s]):
            mask[s + 1] = True
    return mask


def round_view(st):
    """(slot costs, action masks) of one round: what `Episode.observe`
    keeps for `arbitrate`."""
    slot_costs = slot_cost_array(st, current_cost_matrix(st)[0])
    return slot_costs, observation(st, slot_costs)[1]


def small_config(**kw):
    base = dict(grid_dims=(15, 15, 6), n_agents=4, n_tasks_initial=4,
                n_ground=2, n_aerial=2, obstacle_density=0.08)
    base.update(kw)
    return WorldConfig(**base)


class TestConfig:
    def test_mix_must_sum(self):
        with pytest.raises(ValueError):
            WorldConfig(n_agents=4, n_ground=3, n_aerial=2)

    def test_density_bounds(self):
        with pytest.raises(ValueError):
            small_config(obstacle_density=0.5)

    # a non-positive interval makes spawn_tasks loop forever; a negative
    # count can still sum to n_agents; with no agents, or no task before
    # step_cap (so no decision round), collect_rollout never fills its
    # batch
    @pytest.mark.parametrize("kw", [
        dict(task_interval=0.0), dict(task_interval=-5.0),
        dict(n_agents=4, n_ground=-1, n_aerial=5),
        dict(n_agents=0, n_ground=0, n_aerial=0),
        dict(step_cap=0.0), dict(step_cap=-1.0),
        dict(n_tasks_initial=0),
        dict(n_tasks_initial=0, task_interval=50.0, step_cap=40.0),
        dict(n_tasks_initial=0, task_interval=39.5, step_cap=40.0),
        dict(n_tasks_initial=0, task_interval=5.0, m_max=0)],
        ids=["interval-0", "interval-neg", "n_ground-neg", "n_agents-0",
             "step_cap-0", "step_cap-neg",
             "static-no-task", "first-spawn-after-cap",
             "first-spawn-at-cap", "dynamic-no-slot"])
    def test_invalid_values_rejected(self, kw):
        with pytest.raises(ValueError):
            small_config(**kw)

    def test_first_spawn_before_cap_gives_a_round(self):
        ep = Episode(small_config(n_tasks_initial=0, task_interval=39.0,
                                  step_cap=40.0), 5)
        rounds = 0
        while not ep.terminated:
            if ep.decision_due():
                rounds += 1
                ep.observe()
                ep.act([0] * 4)
            ep.tick()
        assert rounds == 1

    def test_static_m_max_defaults_to_initial_tasks(self):
        assert small_config(n_tasks_initial=4).m_max == 4

    def test_dynamic_m_max_defaults_to_capacity(self):
        assert small_config(task_interval=5.0).m_max == 20

    def test_round_trip_dict(self):
        cfg = small_config(task_interval=2.0)
        again = WorldConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()


class TestInitEpisode:
    def test_deterministic_per_seed(self):
        a = init_episode(small_config(), 7)
        b = init_episode(small_config(), 7)
        assert [x.position for x in a.agents] == [x.position for x in b.agents]
        assert [t.location for t in a.tasks] == [t.location for t in b.tasks]
        assert np.array_equal(a.grid.blocked, b.grid.blocked)

    def test_seeds_differ(self):
        a = init_episode(small_config(), 1)
        b = init_episode(small_config(), 2)
        assert [x.position for x in a.agents] != [x.position for x in b.agents]

    def test_placement_on_free_cells_no_overlap(self):
        st = init_episode(small_config(), 3)
        cells = [a.position for a in st.agents] + [t.location for t in st.tasks]
        assert len(set(cells)) == len(cells)
        for c in cells:
            assert not st.grid.blocked[c]

    def test_ground_agents_and_tasks_at_z0(self):
        st = init_episode(small_config(), 5)
        for a in st.agents:
            if a.motion_model is MotionModel.GROUND4:
                assert a.position[2] == 0
        for t in st.tasks:
            assert t.location[2] == 0

    def test_too_small_grid_raises(self):
        with pytest.raises(PlacementError):
            init_episode(WorldConfig(grid_dims=(2, 2, 2), n_agents=4,
                                     n_tasks_initial=4, n_ground=2,
                                     n_aerial=2, obstacle_density=0.0), 0)

    def test_slots_cover_initial_tasks(self):
        st = init_episode(small_config(), 0)
        assert st.slots == [0, 1, 2, 3]


def sample_rows_reference(rng, candidates, count, taken):
    """Draw `count` distinct cells from an (n, 3) array of argwhere rows,
    skipping taken: the reference that `_sample_cells` must equal."""
    if len(candidates) < count + len(taken):
        avail = sum(1 for row in candidates
                    if tuple(int(v) for v in row) not in taken)
        if avail < count:
            raise PlacementError(
                f"need {count} free cells, only {avail} available")
    picked = []
    attempts = 0
    limit = 200 * (count + 1) + 4 * len(candidates)
    while len(picked) < count:
        attempts += 1
        if attempts > limit:
            raise PlacementError(
                f"could not place {count} cells after {attempts} draws")
        row = candidates[int(rng.integers(len(candidates)))]
        cell = (int(row[0]), int(row[1]), int(row[2]))
        if cell in taken:
            continue
        taken.add(cell)
        picked.append(cell)
    return picked


def placement_reference(config, seed, spawns):
    """Agent cells, task cells and `spawns` spawned task cells, drawn from
    np.argwhere rows as `init_episode` and `spawn_tasks` once did."""
    rng = np.random.default_rng(seed)
    blocked = rng.random(config.grid_dims) < config.obstacle_density
    ground_free = np.argwhere(~blocked[:, :, 0])
    ground_cells = np.zeros((len(ground_free), 3), dtype=int)
    ground_cells[:, :2] = ground_free
    taken = set()
    agents = sample_rows_reference(rng, ground_cells, config.n_ground, taken) \
        + sample_rows_reference(rng, np.argwhere(~blocked), config.n_aerial,
                                taken)
    tasks = sample_rows_reference(rng, ground_cells, config.n_tasks_initial,
                                  taken)
    for _ in range(spawns):
        x, y = ground_free[int(rng.integers(len(ground_free)))]
        tasks.append((int(x), int(y), 0))
    return agents, tasks


class TestPlacementReference:
    """Flat-index sampling places the same cells as argwhere rows."""

    # (3, 3, 2) with no obstacles has 9 ground cells; 3 ground and 2
    # aerial agents are taken before 5 tasks draw, and 9 < 5 + 5 takes
    # `_sample_cells`'s count of available cells, which raises for the
    # seeds that put an aerial agent on z = 0
    CONFIGS = (dict(),
               dict(grid_dims=(20, 7, 3), obstacle_density=0.25,
                    n_agents=6, n_ground=4, n_aerial=2, n_tasks_initial=5),
               dict(grid_dims=(3, 3, 2), obstacle_density=0.0, n_agents=5,
                    n_ground=3, n_aerial=2, n_tasks_initial=5))

    @pytest.mark.parametrize("kw", CONFIGS)
    def test_init_and_spawns_match_argwhere_sampling(self, kw):
        outcomes = set()
        for seed in range(12):
            cfg = small_config(task_interval=1.0, m_max=12, **kw)
            try:
                expect = placement_reference(cfg, seed, spawns=4)
            except PlacementError as err:
                with pytest.raises(PlacementError, match=str(err)):
                    init_episode(cfg, seed)
                outcomes.add("raised")
                continue
            st = init_episode(cfg, seed)
            st.clock = 4.0
            spawn_tasks(st)
            assert ([a.position for a in st.agents],
                    [t.location for t in st.tasks]) == expect
            outcomes.add("placed")
        if kw.get("grid_dims") == (3, 3, 2):
            assert outcomes == {"raised", "placed"}


class TestObservations:
    def test_layout_and_normalization(self):
        st = init_episode(small_config(), 11)
        cm, _ = current_cost_matrix(st)
        sc = slot_cost_array(st, cm)
        obs, masks = observation(st, sc)
        assert obs.shape == masks.shape == (4, st.config.m_max + 1)
        assert obs[0, 0] == STATUS_CODE[st.agents[0].status]
        row = sc[0]
        expect = np.where(np.isfinite(row), row / COST_SCALE,
                          SENTINEL_NORMALIZED_COST)
        assert np.allclose(obs[0, 1:], expect)

    def test_slot_costs_follow_task_ids_in_reused_slots(self):
        """Every decision round of a dynamic episode whose spawns reuse
        freed slots, `slot_cost_array` equals a per-column loop that puts
        the column labelled `tid` at `slots.index(tid)` and leaves the
        other slots inf, also in rounds where slot order is not id
        order."""
        ep = Episode(small_config(task_interval=2.0, m_max=5,
                                  step_cap=80.0), 137)
        st = ep.state
        rng = np.random.default_rng(5)
        rounds = unordered = 0
        while not ep.terminated:
            if ep.decision_due():
                cm, ids = current_cost_matrix(st)
                want = np.full((len(st.agents), st.config.m_max), np.inf)
                for j, tid in enumerate(ids):
                    want[:, st.slots.index(tid)] = cm.entries[:, j]
                assert np.array_equal(slot_cost_array(st, cm), want)
                slots = st.live_slots()
                unordered += slots != sorted(slots)
                rounds += 1
                _, masks, _, _ = ep.observe()
                ep.act([int(rng.choice(np.flatnonzero(m))) for m in masks])
            ep.tick()
        assert rounds > 20 and unordered > 0

    def test_cost_matrix_positive_and_scaled_by_velocity(self):
        st = init_episode(small_config(), 13)
        cm, _ = current_cost_matrix(st)
        finite = cm.entries[np.isfinite(cm.entries)]
        assert (finite >= 0).all()
        # aerial agents (rows 2, 3) divide by 5, ground by 3
        for i, ag in enumerate(st.agents):
            for j, t in enumerate(st.live_tasks()):
                if np.isfinite(cm.entries[i, j]):
                    d = cm.entries[i, j] * ag.velocity
                    assert abs(d - round(d)) < 1e-9  # integer meters

    def test_cost_matrix_equals_per_pair_path_cost(self):
        st = init_episode(small_config(), 13)
        st.agents[3].position = st.tasks[0].location  # a zero-cost entry
        cm, ids = current_cost_matrix(st)
        assert set(st.dist_cache) == {(tid, ag.motion_model)
                                      for tid in ids for ag in st.agents}
        for i, ag in enumerate(st.agents):
            for j, tid in enumerate(ids):
                d = st.dist_cache[(tid, ag.motion_model)][tuple(ag.position)]
                expect = pathplan.path_cost(float(d), ag.velocity) \
                    if np.isfinite(d) else np.inf
                assert cm.entries[i, j] == expect, (i, j)

    def test_cost_matrix_rejects_nonpositive_velocity(self):
        st = init_episode(small_config(), 13)
        st.agents[2].velocity = 0.0
        with pytest.raises(ValueError):
            current_cost_matrix(st)

    def test_mask_reject_always_valid(self):
        st = init_episode(small_config(), 17)
        _, masks = round_view(st)
        assert masks[:, 0].all()

    def test_mask_blocks_busy_agent(self):
        st = init_episode(small_config(), 19)
        st.agents[0].status = AgentStatus.ASSIGN
        m = round_view(st)[1][0]
        assert m[0] and not m[1:].any()

    def test_mask_blocks_assigned_task(self):
        st = init_episode(small_config(), 23)
        st.tasks[1].status = TaskStatus.ASSIGNED
        slot = st.slots.index(1)
        assert not round_view(st)[1][0, slot + 1]


class TestObservationEquivalence:
    """`observation` equals the per-agent reference bodies on mid-episode
    states: busy agents, Assigned and Done tasks, empty slots and
    unreachable tasks all occur across these runs."""

    CONFIGS = (dict(), dict(obstacle_density=0.25),
               dict(task_interval=3.0, m_max=8, step_cap=60.0),
               dict(task_interval=2.0, m_max=6, step_cap=60.0,
                    obstacle_density=0.25))

    def test_matches_reference_rows(self):
        seen = set()
        for k, kw in enumerate(self.CONFIGS):
            for seed in range(3):
                ep = Episode(small_config(**kw), 300 + 10 * k + seed)
                rng = np.random.default_rng(seed)
                while not ep.terminated:
                    st = ep.state
                    cm, _ = current_cost_matrix(st)
                    sc = slot_cost_array(st, cm)
                    obs, masks = observation(st, sc)
                    for a in st.agents:
                        assert np.array_equal(
                            obs[a.id],
                            local_observation_reference(st, a.id, sc))
                        assert np.array_equal(
                            masks[a.id], action_mask_reference(st, a.id, sc))
                    seen |= self._cases(st, sc)
                    if ep.decision_due():
                        _, m, _, _ = ep.observe()
                        ep.act([int(rng.choice(np.flatnonzero(r))) for r in m])
                    ep.tick()
        assert seen == {"busy", "assigned", "done", "empty", "unreachable"}

    @staticmethod
    def _cases(st, sc):
        cases = set()
        if any(a.status is not AgentStatus.IDLE for a in st.agents):
            cases.add("busy")
        status = {t.status for t in st.tasks}
        if TaskStatus.ASSIGNED in status:
            cases.add("assigned")
        if TaskStatus.DONE in status:
            cases.add("done")
        if None in st.slots:
            cases.add("empty")
        live = [s for s, tid in enumerate(st.slots) if tid is not None]
        if not np.isfinite(sc[:, live]).all():
            cases.add("unreachable")
        return cases


class TestFieldCache:
    """`state.dist_cache` holds only the fields of live tasks, decoded on
    demand into float32 arrays of the grid's shape, and never drops a
    field that is read again.  Oracles call the real
    `distance_field`, never the cache."""

    CONFIGS = (dict(), dict(obstacle_density=0.2),
               dict(task_interval=3.0, m_max=8, step_cap=60.0),
               dict(task_interval=2.0, m_max=6, step_cap=60.0,
                    obstacle_density=0.2, n_agents=5, n_ground=3))

    @staticmethod
    def _check_cache(st, distance_field, looked_up=()):
        """Every row equals its oracle field out to the row's last ring
        and is inf beyond it.  That ring is at least the distance of
        each agent in `looked_up` of the row's motion model, and a row
        one of them cannot reach holds the whole field."""
        live = {t.id: t for t in st.live_tasks()}
        for (tid, model), entry in st.dist_cache.items():
            assert tid in live, "a finished task's field is still cached"
            full = distance_field(st.grid, live[tid].location, model)
            assert entry.shape == st.grid.dims
            assert entry.dtype == np.float32 and entry.flags.c_contiguous
            last = entry.max(initial=-1.0, where=np.isfinite(entry))
            within = full <= last
            assert np.array_equal(entry[within], full[within])
            assert np.isinf(entry[~within]).all()
            for ag in looked_up:
                if ag.motion_model is model:
                    d = full[tuple(ag.position)]
                    assert d <= last or np.array_equal(entry, full), ag.id

    @staticmethod
    def _check_costs(st, cm, ids, distance_field):
        for j, tid in enumerate(ids):
            fields = {m: distance_field(st.grid, st.task(tid).location, m)
                      for m in MotionModel}
            for i, ag in enumerate(st.agents):
                d = fields[ag.motion_model][tuple(ag.position)]
                assert cm.entries[i, j] == d / ag.velocity, (i, tid)

    @pytest.mark.parametrize("k", range(len(CONFIGS)))
    def test_cache_serves_live_tasks_once_each(self, k, monkeypatch):
        real = pathplan.distance_field
        built = []

        def counting(grid, source, model, **kw):
            built.append((tuple(source), model))
            return real(grid, source, model, **kw)

        monkeypatch.setattr(pathplan, "distance_field", counting)
        read = set()
        for seed in range(2):
            ep = Episode(small_config(**self.CONFIGS[k]), 500 + 10 * k + seed)
            rng = np.random.default_rng(seed)
            while not ep.terminated:
                st = ep.state
                if ep.decision_due():
                    _, masks, cm, ids = ep.observe()
                    read |= {(seed, key) for key in st.dist_cache}
                    self._check_cache(st, real, st.agents)
                    self._check_costs(st, cm, ids, real)
                    ep.act([int(rng.choice(np.flatnonzero(r)))
                            for r in masks])
                ep.tick()
                self._check_cache(ep.state, real)
            assert any(t.status is TaskStatus.DONE for t in st.tasks)
            assert len(st.dist_cache) < sum(1 for s, _ in read if s == seed)
        # one build per (task, motion model) key over whole episodes:
        # eviction never dropped a field that was read again
        assert len(built) == len(read)

    def test_spawn_into_a_freed_slot_rebuilds_its_row(self, monkeypatch):
        """A dynamic episode whose spawned tasks reuse the slots of Done
        tasks: each spawned key is built once into its slot's row, equal
        to a fresh field out to the row's last ring."""
        cfg = WorldConfig(grid_dims=(12, 12, 4), n_agents=3, n_ground=1,
                          n_aerial=2, n_tasks_initial=2, m_max=2,
                          task_interval=2.0, step_cap=60.0,
                          obstacle_density=0.05)
        real = pathplan.distance_field
        ep = Episode(cfg, 4)
        ep.initial_cost_matrix()
        st = ep.state
        initial = set(st.dist_cache.keys())
        assert len(initial) == 2 * cfg.n_tasks_initial
        built = []

        def counting(grid, source, model, **kw):
            built.append((tuple(source), model))
            return real(grid, source, model, **kw)

        monkeypatch.setattr(pathplan, "distance_field", counting)
        owners = [[tid] for tid in st.slots]     # task ids per slot
        seen = set()
        while not ep.terminated:
            for s, tid in enumerate(st.slots):
                if tid is not None and tid != owners[s][-1]:
                    owners[s].append(tid)
            if ep.decision_due():
                _, masks, _, _ = ep.observe()
                seen |= st.dist_cache.keys()
                for (tid, model), row in st.dist_cache.items():
                    full = real(st.grid, st.task(tid).location, model)
                    # equal out to the row's last ring, which holds
                    # every agent of the model just looked up
                    last = row.max(initial=-1.0, where=np.isfinite(row))
                    within = full <= last
                    assert np.array_equal(row[within], full[within])
                    assert np.isinf(row[~within]).all()
                    assert all(full[tuple(ag.position)] <= last
                               or np.array_equal(row, full)
                               for ag in st.agents
                               if ag.motion_model is model), (tid, model)
                ep.act([int(np.flatnonzero(m)[-1]) for m in masks])
            ep.tick()
        reused = {tid for tids in owners for tid in tids[1:]}
        assert len(reused) >= 2, owners      # freed slots were taken again
        new_keys = seen - initial
        assert {tid for tid, _ in new_keys} == reused
        # one build per new key, none for the initial keys
        assert sorted(built, key=repr) == sorted(
            ((st.task(tid).location, m) for tid, m in new_keys), key=repr)

    def test_work_counters_match_the_keys_and_rings_held(self):
        """Per motion model, the store counts one field built for each
        distinct key the episode held, and rings searched between the
        sum of the keys' last rings and that sum plus one per key (the
        empty ring that ends a search): a row that a lookup extends
        never searches a ring twice."""
        extended = 0
        for k, config in enumerate(self.CONFIGS):
            ep = Episode(small_config(**config), 700 + k)
            st, rng = ep.state, np.random.default_rng(k)
            last = {}   # key -> the last ring its row was seen to hold
            while not ep.terminated:
                if ep.decision_due():
                    _, masks, _, _ = ep.observe()
                    for key, row in st.dist_cache.items():
                        ring = row.max(initial=0.0, where=np.isfinite(row))
                        last[key] = max(last.get(key, 0.0), ring)
                    ep.act([int(rng.choice(np.flatnonzero(r)))
                            for r in masks])
                ep.tick()
            for model, work in st.dist_cache.work.items():
                rings = [r for (_, m), r in last.items() if m is model]
                assert work.built == len(rings), (k, model)
                assert sum(rings) <= work.rings <= sum(rings) + len(rings)
                extended += work.extended
        assert extended > 0


def arbitrate_reference(state, actions, cm, task_ids):
    """`arbitrate` as it was with the Waiting tasks rescanned for every
    idle agent that rejects: the reference that `arbitrate` must equal."""
    col = {tid: j for j, tid in enumerate(task_ids)}
    outcome = DecisionOutcome()

    requests = {}
    for i, agent in enumerate(state.agents):
        action = int(actions[i])
        if action == 0:
            if agent.status is AgentStatus.IDLE and any(
                    np.isfinite(cm.entries[i, col[t.id]])
                    for t in state.waiting_tasks()):
                outcome.idle_rejects.append(agent.id)
            continue
        slot = action - 1
        tid = state.slots[slot] if 0 <= slot < len(state.slots) else None
        valid = (
            tid is not None
            and state.task(tid).status is TaskStatus.WAITING
            and agent.status is AgentStatus.IDLE
            and np.isfinite(cm.entries[i, col[tid]])
        )
        if not valid:
            outcome.invalid.append(agent.id)
            continue
        agent.status = AgentStatus.ACCEPT
        requests.setdefault(tid, []).append(agent.id)

    picks = []
    for tid in sorted(requests):
        contenders = sorted(requests[tid])
        outcome.requests[tid] = contenders
        winner = min(contenders, key=lambda a: (cm.entries[a, col[tid]], a))
        if len(contenders) > 1:
            outcome.conflicts.append((tid, contenders))
            state.contested_tasks.add(tid)
            for a in contenders:
                if a != winner:
                    state.agent(a).status = AgentStatus.IDLE
                    state.record("conflict_lost", agent=a, task=tid)
        picks.append((winner, tid, float(cm.entries[winner, col[tid]]),
                      _plan_to_task(state, state.agent(winner),
                                    state.task(tid))))
        outcome.assignments.append((winner, tid))
    assign_tasks(state, picks)
    return outcome


class TestArbitrationReference:
    """`arbitrate`, judging by the round's masks, equals
    `arbitrate_reference` on random-action rounds: any action in
    0..m_max, so rejects, invalid requests (empty slot, busy agent,
    Assigned task, unreachable task) and conflicts occur.  Every other
    round knocks out random cost entries, and `arbitrate` gets the slot
    costs and masks of that matrix, so some idle agents reach an Assigned
    task but no Waiting one."""

    CONFIGS = (dict(), dict(obstacle_density=0.25),
               dict(task_interval=3.0, m_max=8, step_cap=60.0),
               dict(task_interval=2.0, m_max=6, step_cap=60.0,
                    obstacle_density=0.25, n_agents=5, n_ground=3))

    def test_matches_reference_loop(self):
        seen = {"idle_rejects": 0, "invalid": 0, "conflicts": 0,
                "assignments": 0}
        for k, kw in enumerate(self.CONFIGS):
            for seed in range(3):
                ep = Episode(small_config(**kw), 700 + 10 * k + seed)
                rng = np.random.default_rng(seed)
                while not ep.terminated:
                    if ep.decision_due():
                        _, _, cm, ids = ep.observe()
                        actions = [int(a) for a in rng.integers(
                            ep.config.m_max + 1, size=len(ep.state.agents))]
                        if rng.random() < 0.5:
                            cm = CostMatrix(np.where(
                                rng.random(cm.entries.shape) < 0.5,
                                np.inf, cm.entries))
                        ref_state = copy.deepcopy(ep.state)
                        ref = arbitrate_reference(ref_state, actions, cm, ids)
                        sc = slot_cost_array(ep.state, cm)
                        out = arbitrate(ep.state, actions, sc,
                                        observation(ep.state, sc)[1])
                        for name in seen:
                            assert getattr(out, name) == getattr(ref, name)
                            seen[name] += len(getattr(out, name))
                        assert out.requests == ref.requests
                        assert [a.status for a in ep.state.agents] == \
                            [a.status for a in ref_state.agents]
                    ep.tick()
        assert all(seen.values()), seen


class TestArbitration:
    def test_uncontested_requests_win(self):
        st = init_episode(small_config(), 29)
        out = arbitrate(st, [1, 2, 3, 4], *round_view(st))
        assert len(out.assignments) == 4
        assert not out.conflicts
        for aid, tid in out.assignments:
            assert st.agent(aid).status is AgentStatus.ASSIGN
            assert st.task(tid).status is TaskStatus.ASSIGNED

    def test_contested_goes_to_cheapest(self):
        st = init_episode(small_config(), 31)
        sc, masks = round_view(st)
        slot = 0
        contenders = [i for i in range(4) if np.isfinite(sc[i][slot])]
        assert len(contenders) >= 2
        actions = [slot + 1 if i in contenders else 0 for i in range(4)]
        out = arbitrate(st, actions, sc, masks)
        tid = st.slots[slot]
        winner = min(contenders, key=lambda i: (sc[i][slot],
                                                st.agents[i].id))
        assert (st.agents[winner].id, tid) in out.assignments
        assert out.conflicts and out.conflicts[0][0] == tid
        assert tid in st.contested_tasks
        for i in contenders:
            if i != winner:
                assert st.agents[i].status is AgentStatus.IDLE

    def test_cost_tie_breaks_to_lower_id(self):
        st = init_episode(small_config(), 37)
        # force an exact tie between agents 2 and 3 on task slot 0
        st.agents[3].position = st.agents[2].position
        out = arbitrate(st, [0, 0, 1, 1], *round_view(st))
        assert out.assignments == [(2, st.slots[0])]

    def test_invalid_action_flagged_as_reject(self):
        st = init_episode(small_config(), 41)
        st.tasks[0].status = TaskStatus.ASSIGNED
        # slot 0 no longer Waiting
        out = arbitrate(st, [1, 0, 0, 0], *round_view(st))
        assert out.invalid == [0]
        assert st.agents[0].status is AgentStatus.IDLE

    def test_no_task_double_assignment(self):
        for seed in range(10):
            st = init_episode(small_config(), 100 + seed)
            out = arbitrate(st, [1, 1, 1, 1], *round_view(st))
            tasks = [t for _, t in out.assignments]
            assert len(set(tasks)) == len(tasks) <= 1


class TestRewards:
    def test_shaping_values(self):
        st = init_episode(small_config(), 43)
        out = arbitrate(st, [1, 2, 3, 4], *round_view(st))
        r = step_rewards(out, st)
        assert np.allclose(r, 1.0)

    def test_conflict_loser_penalized(self):
        st = init_episode(small_config(), 47)
        out = arbitrate(st, [1, 1, 0, 0], *round_view(st))
        r = step_rewards(out, st)
        assert sorted(np.round(r[:2], 2)) == [-0.5, 1.0]

    def test_idle_reject_penalized(self):
        st = init_episode(small_config(), 53)
        out = arbitrate(st, [0, 0, 0, 0], *round_view(st))
        r = step_rewards(out, st)
        # every idle agent that could have requested gets -0.1
        cm, _ = current_cost_matrix(st)
        for i in range(4):
            if np.isfinite(cm.entries[i]).any():
                assert r[i] == pytest.approx(-0.1)

    def test_terminal_bonus(self):
        assert terminal_bonus(10.0, 20.0) == pytest.approx(1.0)
        assert terminal_bonus(10.0, 10.0) == pytest.approx(2.0)
        assert terminal_bonus(0.0, 10.0) == 0.0
        assert terminal_bonus(10.0, 0.0) == 0.0


class TestMotion:
    def test_agent_reaches_task_and_frees_slot(self):
        cfg = small_config(obstacle_density=0.0)
        st = init_episode(cfg, 59)
        arbitrate(st, [1, 2, 3, 4], *round_view(st))
        for _ in range(200):
            advance(st)
            if all(t.status is TaskStatus.DONE for t in st.tasks):
                break
        assert all(t.status is TaskStatus.DONE for t in st.tasks)
        assert all(a.status is AgentStatus.IDLE for a in st.agents)
        assert st.slots == [None] * cfg.m_max

    def test_velocity_limits_cells_per_tick(self):
        cfg = small_config(obstacle_density=0.0)
        st = init_episode(cfg, 61)
        arbitrate(st, [1, 2, 3, 4], *round_view(st))
        before = {a.id: a.position for a in st.agents}
        advance(st)
        for a in st.agents:
            moved = sum(abs(p - q) for p, q in zip(before[a.id], a.position))
            assert moved <= int(a.velocity)

    def test_no_reservation_double_booking_over_time(self):
        cfg = small_config(obstacle_density=0.0)
        st = init_episode(cfg, 67)
        arbitrate(st, [1, 2, 3, 4], *round_view(st))
        for _ in range(60):
            advance(st)  # reserve() raises on any double booking

    @pytest.mark.parametrize("dims,n_ground,n_aerial", [
        ((8, 8, 2), 4, 4), ((6, 6, 2), 3, 3), ((5, 5, 1), 4, 0)])
    def test_motion_follows_booked_schedule(self, dims, n_ground, n_aerial):
        """An agent that records no wait stands, after each tick, on the
        cell its plan booked for that tick: `advance` moves as many
        cells per tick as `plan_schedule` books."""
        checked = waits = 0
        for seed in range(20):
            ep = Episode(WorldConfig(
                grid_dims=dims, n_agents=n_ground + n_aerial,
                n_tasks_initial=6, n_ground=n_ground, n_aerial=n_aerial,
                obstacle_density=0.2, task_interval=1.0, m_max=8,
                step_cap=40.0), seed)
            st = ep.state
            rng = np.random.default_rng(seed)
            while not ep.terminated:
                if ep.decision_due():
                    _, masks, _, _ = ep.observe()
                    ep.act([int(rng.choice(np.flatnonzero(m)))
                            for m in masks])
                n_log = len(st.log)
                ep.tick()
                waited = {e["agent"] for e in st.log[n_log:]
                          if e["event"] == "wait"}
                waits += len(waited)
                for a in st.agents:
                    if (a.status is AgentStatus.ASSIGN and a.id not in waited
                            and a.plan.start_tick < int(st.clock)):
                        assert st.reservations.owner(
                            a.position, int(st.clock)) == a.id
                        checked += 1
        assert checked > 100 and waits > 10


class TestSpawning:
    def test_static_mode_never_spawns(self):
        cfg = small_config()
        st = init_episode(cfg, 71)
        st.clock = 100.0
        assert spawn_tasks(st) == []

    def test_dynamic_spawns_on_interval(self):
        cfg = small_config(task_interval=5.0, m_max=10)
        st = init_episode(cfg, 73)
        st.clock = 11.0
        new = spawn_tasks(st)
        assert len(new) == 2  # intervals at t=5 and t=10
        assert new[0].id in st.slots

    def test_capacity_respected(self):
        cfg = small_config(task_interval=1.0, m_max=5)
        st = init_episode(cfg, 79)
        st.clock = 50.0
        spawn_tasks(st)
        assert len(st.live_tasks()) <= 5

    def test_live_tasks_read_from_slots_equal_status_scan(self):
        """`live_tasks` and `live_slots` read the slots; every round of a
        dynamic episode whose spawns reuse freed slots, they equal the
        scan of every task ever spawned for those not Done, in ascending
        id order, and the slots holding them."""
        ep = Episode(small_config(task_interval=2.0, m_max=5,
                                  step_cap=80.0), 131)
        st = ep.state
        rng = np.random.default_rng(3)
        owners = [{tid} for tid in st.slots]     # task ids per slot
        rounds = 0
        while not ep.terminated:
            scan = [t for t in st.tasks if t.status is not TaskStatus.DONE]
            assert st.live_tasks() == scan
            assert st.live_slots() == [st.slots.index(t.id) for t in scan]
            rounds += 1
            for s, tid in enumerate(st.slots):
                owners[s].add(tid)
            if ep.decision_due():
                _, masks, _, _ = ep.observe()
                ep.act([int(rng.choice(np.flatnonzero(m))) for m in masks])
            ep.tick()
        assert rounds > 40
        # freed slots were taken again by spawned tasks
        assert sum(len(tids - {None}) > 1 for tids in owners) >= 2

    def test_slot_reads_equal_status_scans(self, monkeypatch):
        """`waiting_tasks`, `all_tasks_done` and `terminated` read the
        slots: every tick of dynamic episodes whose spawns reuse freed
        slots, they equal scans of every task ever spawned.  `advance`
        returns exactly the log entries it appended."""
        real_advance = world.advance
        returned = []

        def recording(state):
            first = len(state.log)
            events = real_advance(state)
            assert events == state.log[first:]
            returned.extend(events)
            return events

        monkeypatch.setattr(world, "advance", recording)
        cfg = small_config(task_interval=2.0, m_max=5, step_cap=80.0)
        all_done_seen, reused = set(), 0
        for seed in range(3):
            ep = Episode(cfg, 150 + seed)
            st = ep.state
            rng = np.random.default_rng(seed)
            owners = [{tid} for tid in st.slots]     # task ids per slot
            while True:
                all_done = all(t.status is TaskStatus.DONE for t in st.tasks)
                assert st.waiting_tasks() == [
                    t for t in st.tasks if t.status is TaskStatus.WAITING]
                assert ep.all_tasks_done() == all_done
                assert ep.terminated == (st.clock >= cfg.step_cap)
                all_done_seen.add(all_done)
                if ep.terminated:
                    break
                for s, tid in enumerate(st.slots):
                    owners[s].add(tid)
                if ep.decision_due():
                    _, masks, _, _ = ep.observe()
                    ep.act([int(rng.choice(np.flatnonzero(m)))
                            for m in masks])
                ep.tick()
            reused += sum(len(tids - {None}) > 1 for tids in owners)
        assert reused >= 2 and all_done_seen == {True, False}
        assert {e["event"] for e in returned} == {"wait", "task_done",
                                                  "agent_idle"}


class TestEpisode:
    def test_full_episode_terminates(self):
        ep = Episode(small_config(obstacle_density=0.0), 83)
        rng = np.random.default_rng(0)
        guard = 0
        while not ep.terminated:
            guard += 1
            assert guard < 2000
            if ep.decision_due():
                obs, masks, cm, ids = ep.observe()
                acts = [int(np.flatnonzero(m)[-1]) for m in masks]
                ep.act(acts)
            ep.tick()
        assert ep.all_tasks_done()
        assert ep.achieved_total() > 0
        assert ep.optimal_total() > 0

    def test_observe_shapes(self):
        ep = Episode(small_config(), 89)
        obs, masks, cm, ids = ep.observe()
        m = ep.config.m_max
        assert obs.shape == (4, m + 1)
        assert masks.shape == (4, m + 1)
        assert cm.entries.shape == (4, len(ids))

    def test_one_cost_matrix_per_round(self, monkeypatch):
        calls = []
        real = pathplan.cost_matrix
        monkeypatch.setattr(pathplan, "cost_matrix",
                            lambda state: calls.append(1) or real(state))
        ep = Episode(small_config(task_interval=4.0, m_max=8,
                                  step_cap=60.0), 101)
        rng = np.random.default_rng(1)
        observes = 0
        first_cm = None
        while not ep.terminated:
            if ep.decision_due():
                obs, masks, cm, _ = ep.observe()
                observes += 1
                first_cm = cm if first_cm is None else first_cm
                build_graph(ep.state, cm)
                ep.act([int(rng.choice(np.flatnonzero(m))) for m in masks])
            ep.tick()
        ep.optimal_total()
        assert observes > 10
        assert len(calls) == observes
        assert ep.initial_cost_matrix() is first_cm

    def test_act_before_observe_raises(self):
        ep = Episode(small_config(), 103)
        with pytest.raises(RuntimeError):
            ep.act([0, 0, 0, 0])

    def test_act_after_tick_raises(self):
        ep = Episode(small_config(), 107)
        ep.observe()
        ep.tick()
        with pytest.raises(RuntimeError):
            ep.act([0, 0, 0, 0])

    @pytest.mark.parametrize("status", [TaskStatus.ASSIGNED, TaskStatus.DONE,
                                        None])
    def test_assign_tasks_rejects_non_waiting_task(self, status):
        st = init_episode(small_config(), 109)
        picks = [(a, 0, 1.0, Path([st.agents[a].position])) for a in (0, 1)]
        if status is None:      # the second pick finds the task Assigned
            st.tasks[0].status = TaskStatus.WAITING
        else:
            st.tasks[0].status = status
            picks = picks[:1]
        with pytest.raises(RuntimeError):
            assign_tasks(st, picks)

    def test_step_cap_terminates(self):
        ep = Episode(small_config(step_cap=5.0), 97)
        for _ in range(10):
            if ep.terminated:
                break
            ep.tick()
        assert ep.terminated
