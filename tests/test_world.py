"""Simulator tests: placement, observations, masks, arbitration,
rewards, motion, spawning and episode lifecycle."""

import copy
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule,
                                 run_state_machine_as_test)

from magnnet import pathplan, world
from magnnet.assign import CostMatrix
from magnnet.errors import PlacementError
from magnnet.gnn import build_graph
from magnnet.pathplan import MotionModel, Path, distance_field
from magnnet.world import (AgentStatus, COST_SCALE, Episode,
                           SENTINEL_NORMALIZED_COST, STATUS_CODE, TaskStatus,
                           WorldConfig, advance, arbitrate, assign_tasks,
                           current_cost_matrix, init_episode, observation,
                           referee,
                           slot_cost_array, spawn_tasks, terminal_bonus)

from helpers import decoded, load_tracer


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
        dict(n_tasks_initial=0, task_interval=39.5, step_cap=40.0)],
        ids=["interval-0", "interval-neg", "n_ground-neg", "n_agents-0",
             "step_cap-0", "step_cap-neg",
             "static-no-task", "first-spawn-after-cap",
             "first-spawn-at-cap"])
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

    @pytest.mark.parametrize("n_tasks", [1, 4, 24])
    def test_static_m_max_is_the_initial_task_count(self, n_tasks):
        cfg = small_config(n_tasks_initial=n_tasks)
        assert cfg.m_max == len(init_episode(cfg, 0).slots) == n_tasks

    @pytest.mark.parametrize("n_tasks,m_max", [
        (0, 20), (4, 20), (20, 20), (21, 21), (24, 24)])
    def test_dynamic_m_max_covers_dynamic_slots_and_initial_tasks(
            self, n_tasks, m_max):
        """A dynamic world has DYNAMIC_SLOTS slots, or one per initial
        task when more tasks start live; the slot count cannot be set."""
        cfg = small_config(n_tasks_initial=n_tasks, task_interval=5.0)
        assert world.DYNAMIC_SLOTS == 20
        st = init_episode(cfg, 0)
        assert cfg.m_max == len(st.slots) == m_max
        assert st.slots[:n_tasks] == list(range(n_tasks))
        with pytest.raises(AttributeError):
            cfg.m_max = 30

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

    def test_dynamic_grid_without_free_ground_cell_raises(self):
        # seed 3 blocks (0, 0, 0), the one ground cell, so a spawn would
        # draw from no cell
        with pytest.raises(PlacementError):
            init_episode(WorldConfig(grid_dims=(1, 1, 3), n_agents=1,
                                     n_ground=0, n_aerial=1,
                                     n_tasks_initial=0, task_interval=1.0,
                                     obstacle_density=0.29), 3)

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
            cfg = small_config(task_interval=1.0, **kw)
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
        assert st.dist_cache.keys() == {(tid, ag.motion_model)
                                        for tid in ids for ag in st.agents}
        for i, ag in enumerate(st.agents):
            for j, tid in enumerate(ids):
                row = decoded(st.dist_cache, (tid, ag.motion_model))
                d = row[tuple(ag.position)]
                expect = float(d) / ag.velocity if np.isfinite(d) else np.inf
                assert cm.entries[i, j] == expect, (i, j)

    def test_mask_reject_always_valid(self):
        st = init_episode(small_config(), 17)
        _, masks = round_view(st)
        assert masks[:, 0].all()

    def test_mask_blocks_busy_agent(self):
        st = init_episode(small_config(), 19)
        st.agents[0].assigned_task = 0
        m = round_view(st)[1][0]
        assert m[0] and not m[1:].any()

    def test_mask_blocks_assigned_task(self):
        st = init_episode(small_config(), 23)
        st.tasks[1].status = TaskStatus.ASSIGNED
        slot = st.slots.index(1)
        assert not round_view(st)[1][0, slot + 1]


class TestAgentStatus:
    """An agent's status is read from its task, so the two cannot
    disagree; task 0 is a task like any other."""

    @pytest.mark.parametrize("task,status", [
        (None, AgentStatus.IDLE), (0, AgentStatus.ASSIGN),
        (3, AgentStatus.ASSIGN)], ids=["none", "task-0", "task-3"])
    def test_status_follows_assigned_task(self, task, status):
        st = init_episode(small_config(), 19)
        st.agents[1].assigned_task = task
        assert st.agents[1].status is status
        obs, _ = observation(st, round_view(st)[0])
        assert obs[1, 0] == STATUS_CODE[status]

    def test_status_cannot_be_written(self):
        agent = init_episode(small_config(), 19).agents[0]
        with pytest.raises(AttributeError):
            agent.status = AgentStatus.ASSIGN
        assert agent.status is AgentStatus.IDLE


def arbitrate_reference(state, actions, cm, task_ids):
    """`arbitrate` as it was with the Waiting tasks rescanned for every
    idle agent that rejects and the requests gathered by task id: the
    reference that `arbitrate` must equal.  Its requests, assignments and
    contests are keyed by slot, as a `Ruling` keys them."""
    col = {tid: j for j, tid in enumerate(task_ids)}
    outcome = SimpleNamespace(requests={}, assignments={}, conflicts={},
                              invalid=[], idle_rejects=[])

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
        requests.setdefault(tid, []).append(agent.id)

    picks = []
    for tid in sorted(requests):
        contenders = sorted(requests[tid])
        slot = state.slots.index(tid)
        outcome.requests[slot] = contenders
        winner = min(contenders, key=lambda a: (cm.entries[a, col[tid]], a))
        if len(contenders) > 1:
            outcome.conflicts[slot] = contenders
            for a in contenders:
                if a != winner:
                    state.record("conflict_lost", agent=a, task=tid)
        agent = state.agent(winner)
        picks.append((winner, tid, float(cm.entries[winner, col[tid]]),
                      state.dist_cache.path(slot, agent.motion_model,
                                            agent.position)))
        outcome.assignments[slot] = winner
    assign_tasks(state, picks)
    return outcome


class TestArbitration:
    def test_uncontested_requests_win(self):
        st = init_episode(small_config(), 29)
        out = arbitrate(st, [1, 2, 3, 4], *round_view(st))
        assert out.assignments == {0: 0, 1: 1, 2: 2, 3: 3}
        assert not out.conflicts
        for slot, aid in out.assignments.items():
            assert st.agent(aid).status is AgentStatus.ASSIGN
            assert st.task(st.slots[slot]).status is TaskStatus.ASSIGNED

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
        assert out.assignments == {slot: winner}
        assert out.conflicts == {slot: contenders}
        assert [(e["agent"], e["task"]) for e in st.log
                if e["event"] == "conflict_lost"] == [
            (i, tid) for i in contenders if i != winner]
        for i in contenders:
            if i != winner:
                assert st.agents[i].status is AgentStatus.IDLE

    def test_cost_tie_breaks_to_lower_id(self):
        st = init_episode(small_config(), 37)
        # force an exact tie between agents 2 and 3 on task slot 0
        st.agents[3].position = st.agents[2].position
        out = arbitrate(st, [0, 0, 1, 1], *round_view(st))
        assert out.assignments == {0: 2}

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
            assigned = [t for t in st.tasks
                        if t.status is TaskStatus.ASSIGNED]
            assert len(assigned) == len(out.assignments) <= 1


class TestRewards:
    def test_shaping_values(self):
        st = init_episode(small_config(), 43)
        r = arbitrate(st, [1, 2, 3, 4], *round_view(st)).rewards
        assert np.allclose(r, 1.0)

    def test_conflict_loser_penalized(self):
        st = init_episode(small_config(), 47)
        r = arbitrate(st, [1, 1, 0, 0], *round_view(st)).rewards
        assert sorted(np.round(r[:2], 2)) == [-0.5, 1.0]

    def test_idle_reject_penalized(self):
        st = init_episode(small_config(), 53)
        r = arbitrate(st, [0, 0, 0, 0], *round_view(st)).rewards
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


def step_rewards_reference(outcome, n_agents):
    """The shaped rewards of a round as `world.step_rewards` gave them
    before `referee` did, from an outcome's winners, conflicts and idle
    rejections."""
    rewards = np.zeros(n_agents)
    winners = {a for a, _ in outcome.assignments}
    for a, _ in outcome.assignments:
        rewards[a] += world.WIN_REWARD
    for _, contenders in outcome.conflicts:
        for a in contenders:
            if a not in winners:
                rewards[a] += world.CONFLICT_PENALTY
    for a in outcome.idle_rejects:
        rewards[a] += world.IDLE_REJECT_PENALTY
    return rewards


def referee_reference(actions, masks, slot_costs):
    """Each agent judged on its own: its slot if its mask allows its
    action, its slot's requesters, and whether no rival is cheaper, or
    as cheap with a lower id.  Returns (requests, winners, invalid, idle
    rejects, rewards), the rewards by `step_rewards_reference`."""
    n, width = masks.shape

    def slot(i):
        a = int(actions[i])
        return a - 1 if 0 < a < width and masks[i, a] else None

    outcome = SimpleNamespace(assignments=[], conflicts=[], invalid=[],
                              idle_rejects=[])
    requests, winners = {}, {}
    for i in range(n):
        s = slot(i)
        if s is None:
            if int(actions[i]) != 0:
                outcome.invalid.append(i)
            elif masks[i, 1:].any():
                outcome.idle_rejects.append(i)
            continue
        rivals = [k for k in range(n) if slot(k) == s]
        requests[s] = rivals
        if all((slot_costs[i, s], i) <= (slot_costs[k, s], k)
               for k in rivals):
            winners[s] = i
            outcome.assignments.append((i, s))
            if len(rivals) > 1:
                outcome.conflicts.append((s, rivals))
    return (requests, winners, outcome.invalid, outcome.idle_rejects,
            step_rewards_reference(outcome, n))


@st.composite
def rounds(draw):
    """(actions, masks, slot costs) of a round of up to 20 agents and 20
    slots: costs from a few values, so ties are common, and inf; masks
    that allow some finite slots, with all-reject rows; actions that are
    allowed requests, rejections, masked-out or unreachable requests and
    indices out of range on either side."""
    n, m = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    costs = np.array(draw(st.lists(
        st.sampled_from([1.0, 2.0, 2.5, np.inf]), min_size=n * m,
        max_size=n * m))).reshape(n, m)
    allowed = np.array(draw(st.lists(st.booleans(), min_size=n * m,
                                     max_size=n * m))).reshape(n, m)
    masks = np.ones((n, m + 1), dtype=bool)
    masks[:, 1:] = allowed & np.isfinite(costs)
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        masks[i, 1:] = False
    actions = []
    for i in range(n):
        options = np.flatnonzero(masks[i, 1:]) + 1
        if len(options) and draw(st.booleans()):
            actions.append(int(options[draw(st.integers(0, len(options) - 1))]))
        else:
            actions.append(draw(st.integers(-2, m + 2)))
    return actions, masks, costs


class TestReferee:
    @settings(max_examples=300, deadline=None)
    @given(rounds())
    def test_equals_per_agent_reference(self, round_):
        actions, masks, costs = round_
        given_in = copy.deepcopy(round_)
        ruling = referee(actions, masks, costs)
        requests, winners, invalid, idle_rejects, rewards = \
            referee_reference(actions, masks, costs)
        assert ruling.requests == requests
        assert ruling.assignments == winners
        assert ruling.conflicts == {s: rivals for s, rivals in requests.items()
                                    if len(rivals) > 1}
        assert (ruling.invalid, ruling.idle_rejects) == (invalid, idle_rejects)
        assert ruling.rewards.dtype == rewards.dtype
        assert ruling.rewards.tobytes() == rewards.tobytes()
        # pure: the inputs stay as they were, and a second call agrees
        assert actions == given_in[0]
        assert np.array_equal(masks, given_in[1])
        assert np.array_equal(costs, given_in[2])
        again = referee(actions, masks, costs)
        assert again.rewards.tobytes() == ruling.rewards.tobytes()
        assert (again.requests, again.assignments) == (requests, winners)

    def test_act_returns_the_referees_ruling(self):
        """Dynamic episodes with slots reused out of task-id order and
        drawn valid, rejecting and invalid actions: every round's `act`
        returns `referee`'s ruling on the masks `observe` returned and
        the slot costs of its cost matrix, and the round's new
        `conflict_lost` entries name each contested slot's task with its
        losers, in ascending task-id order."""
        seen = Counter()
        config = small_config(n_agents=6, n_ground=3, n_aerial=3,
                              task_interval=1.0, step_cap=60.0)
        for seed in range(4):
            ep = Episode(config, seed)
            rng = np.random.default_rng(seed)
            while not ep.terminated:
                if ep.decision_due():
                    _, masks, cm, _ = ep.observe()
                    slot_costs = slot_cost_array(ep.state, cm)
                    actions = [int(rng.choice(np.flatnonzero(mask)))
                               if rng.random() < 0.9
                               else int(rng.integers(-1, len(mask) + 1))
                               for mask in masks]
                    slots, first = list(ep.state.slots), len(ep.state.log)
                    want = referee(actions, masks, slot_costs)
                    ruling = ep.act(actions)
                    assert ruling.requests == want.requests
                    assert ruling.assignments == want.assignments
                    assert ruling.invalid == want.invalid
                    assert ruling.idle_rejects == want.idle_rejects
                    assert ruling.rewards.dtype == want.rewards.dtype
                    assert ruling.rewards.tobytes() == want.rewards.tobytes()
                    lost = [(e["task"], e["agent"])
                            for e in ep.state.log[first:]
                            if e["event"] == "conflict_lost"]
                    order = sorted(want.conflicts, key=slots.__getitem__)
                    assert lost == [
                        (slots[s], a) for s in order
                        for a in want.conflicts[s]
                        if a != want.assignments[s]]
                    assert {t for t, _ in lost} == {slots[s] for s in order}
                    seen["conflicts"] += len(want.conflicts)
                    seen["invalid"] += len(want.invalid)
                    seen["reordered"] += order != sorted(order)
                ep.tick()
        assert all(seen[k] for k in ("conflicts", "invalid", "reordered")), \
            seen


def test_perfbench_arbitrate_counts_read_the_ruling():
    """perfbench counts a round's contests, invalid actions, assignments
    and valid requests from what `arbitrate` returns: on drawn rounds of
    8 agents and 3 tasks, crowded onto a favourite slot, with masked-out
    slots, coarse costs that tie, rejections and invalid and
    out-of-range actions, the counts equal a recount from the actions
    and masks alone."""
    tracer_module = load_tracer()
    rng = np.random.default_rng(5)
    config = small_config(n_agents=8, n_ground=4, n_aerial=4,
                          n_tasks_initial=3)
    seen = Counter()
    for seed in range(60):
        state = init_episode(config, seed)
        slot_costs, masks = round_view(state)
        masks[:, 1:] &= rng.random(masks[:, 1:].shape) < 0.8
        if rng.random() < 0.5:
            slot_costs = np.floor(slot_costs / 5.0)
        width, favourite = masks.shape[1], int(rng.integers(1, 4))
        actions = [int(rng.choice([favourite, favourite, 0,
                                   rng.integers(-2, width + 2)]))
                   for _ in range(len(masks))]
        tracer = tracer_module.Tracer()
        tracer_module._after_arbitrate(
            tracer, arbitrate(state, actions, slot_costs, masks))
        requests = Counter(a for i, a in enumerate(actions)
                           if 0 < a < width and masks[i, a])
        assert dict(tracer.counters) == {
            "world.arbitrate.contests": sum(n > 1 for n in requests.values()),
            "world.arbitrate.invalid": sum(
                a != 0 for a in actions) - requests.total(),
            "world.arbitrate.assignments": len(requests),
            "world.arbitrate.valid_requests": requests.total()}
        seen["contests"] += any(n > 1 for n in requests.values())
        seen["masked"] += any(0 < a < width and not masks[i, a]
                              for i, a in enumerate(actions))
        seen["out of range"] += any(not 0 <= a < width for a in actions)
        for a, n in requests.items():
            costs = sorted(slot_costs[i, a - 1] for i, b in enumerate(actions)
                           if b == a and masks[i, a])
            seen["ties"] += n > 1 and costs[0] == costs[1]
    assert all(seen[k] > 5 for k in ("contests", "masked", "out of range",
                                     "ties")), seen


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

class TestSpawning:
    def test_static_mode_never_spawns(self):
        cfg = small_config()
        st = init_episode(cfg, 71)
        st.clock = 100.0
        assert spawn_tasks(st) == []

    def test_dynamic_spawns_on_interval(self):
        cfg = small_config(task_interval=5.0)
        st = init_episode(cfg, 73)
        st.clock = 11.0
        new = spawn_tasks(st)
        assert len(new) == 2  # intervals at t=5 and t=10
        assert new[0].id in st.slots

    def test_capacity_respected(self):
        cfg = small_config(task_interval=1.0)
        st = init_episode(cfg, 79)
        st.clock = 50.0
        assert len(spawn_tasks(st)) == cfg.m_max - cfg.n_tasks_initial
        assert len(st.live_tasks()) == cfg.m_max == 20
        assert st.intervals_consumed == 50

    @pytest.mark.parametrize("k", [1, 3])
    def test_interval_with_every_slot_live_is_consumed(self, k):
        """An interval that finds no free slot spawns nothing, draws
        nothing and is not carried over: freeing a slot later spawns one
        task at the next interval, not the k that were missed."""
        cfg = small_config(n_tasks_initial=24, task_interval=2.0)
        st = init_episode(cfg, 83)
        assert None not in st.slots
        rng_state = st.rng.bit_generator.state
        log_len = len(st.log)
        st.clock = 2.0 * k
        assert spawn_tasks(st) == []
        assert st.intervals_consumed == k
        assert st.rng.bit_generator.state == rng_state
        assert len(st.tasks) == 24 and len(st.log) == log_len
        st.tasks[5].status = TaskStatus.DONE
        st.replace_slot(5, None)
        st.clock = 2.0 * k + 1.0      # no interval crossed yet
        assert spawn_tasks(st) == []
        st.clock = 2.0 * (k + 1)
        (new,) = spawn_tasks(st)
        assert new.id == 24 and st.slots[5] == 24
        assert st.intervals_consumed == k + 1
        assert None not in st.slots

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
        ep = Episode(small_config(task_interval=4.0,
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

    @pytest.mark.parametrize("before", [
        lambda ep: None,
        lambda ep: (ep.observe(), ep.tick()),
        lambda ep: (ep.observe(), ep.act([0, 0, 0, 0]))],
        ids=["no-observe", "after-tick", "second-act"])
    def test_act_without_a_fresh_observe_raises(self, before):
        """A second act used to arbitrate again on the round's stale
        masks, moving a winner to another task and stranding the first
        one as assigned with no agent."""
        ep = Episode(small_config(), 103)
        before(ep)
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


ZERO_AXIS = st.sampled_from((None,) * 7 + (0, 1, 2))
DENSITIES = st.sampled_from((0.0, 0.1, 0.2, 0.29))
INTERVALS = st.sampled_from((1.0, 2.0)) | st.none()


@st.composite
def world_settings(draw):
    """WorldConfig keywords for grids up to 8 x 8 x 3 and 2 to 10 agents,
    crowded enough that some moves wait.  Some are invalid: a zero-length
    axis, no task before step_cap.  The
    simplest draw is valid, so a shrunk failure keeps its episode."""
    dims = [draw(st.integers(2, 8)), draw(st.integers(2, 8)),
            draw(st.integers(1, 3))]
    zero_axis = draw(ZERO_AXIS)
    if zero_axis is not None:
        dims[zero_axis] = 0
    n_agents = draw(st.integers(2, 10))
    n_ground = draw(st.integers(0, n_agents))
    return dict(
        grid_dims=tuple(dims), obstacle_density=draw(DENSITIES),
        n_agents=n_agents, n_ground=n_ground, n_aerial=n_agents - n_ground,
        n_tasks_initial=draw(st.integers(0, 8)),
        task_interval=draw(INTERVALS),
        step_cap=float(draw(st.integers(2, 30))))


# half the agents request a slot their mask allows, if any
ACTION_KINDS = st.sampled_from(("request", "request", "reject", "any"))


class EpisodeMachine(RuleBasedStateMachine):
    """Whole episodes of drawn small configs, played through `Episode`:
    rounds of drawn valid, invalid and reject actions, some judged by
    knocked-out cost entries, skipped rounds, spawns into freed slots,
    forced waits and extended field rows, checked after every rule
    against the 3-argument `distance_field` (which `tests/test_pathplan.py`
    checks against heap Dijkstra), the per-agent observation and mask
    bodies and `arbitrate_reference` on a deep copy.  `tally` counts
    which cases occurred; `builds` holds the (source, motion model) of
    every `pathplan.distance_field` call."""

    def __init__(self, tally, builds):
        super().__init__()
        self.tally, self.builds = tally, builds
        self.ep = None
        self.round = None   # what `observe` returned this tick
        self.acted = False

    def field(self, cell, model):
        """The oracle field of a task cell, once per episode."""
        key = (cell, model)
        if key not in self.fields:
            self.fields[key] = distance_field(self.ep.state.grid, cell, model)
        return self.fields[key]

    def end_episode(self):
        if self.ep is not None:
            work = self.ep.state.dist_cache.work.values()
            self.tally["extended"] += sum(w.extended for w in work)
            self.tally["terminated"] += self.ep.terminated
        self.ep = None

    def teardown(self):
        self.end_episode()

    @precondition(lambda self: self.ep is None or self.ep.terminated)
    @rule(kw=world_settings(), seed=st.integers(0, 2 ** 16))
    def start(self, kw, seed):
        self.end_episode()
        try:
            config = WorldConfig(**kw)
        except ValueError:
            self.tally["rejected"] += 1
            return
        try:
            self.ep = Episode(config, seed)
        except PlacementError:
            # too few free cells for this seed's obstacles
            blocked = np.random.default_rng(seed).random(config.grid_dims) \
                < config.obstacle_density
            assert (~blocked[:, :, 0]).sum() \
                < config.n_agents + config.n_tasks_initial
            self.tally["unplaceable"] += 1
            return
        self.fields = {}
        self.keys = {}      # every store key held -> the last ring seen
        self.first_build = len(self.builds)
        self.logged = 0     # log entries checked
        self.ended = False
        self.held = list(self.ep.state.slots)  # last task id in each slot

    @precondition(lambda self: self.ep is not None and self.round is None
                  and self.ep.decision_due())
    @rule()
    def observe(self):
        self.round = self.ep.observe()
        self.tally["rounds"] += 1

    @precondition(lambda self: self.round is not None and not self.acted)
    @rule(data=st.data())
    def act(self, data):
        state = self.ep.state
        _, masks, cm, ids = self.round
        actions = []
        for mask in masks:
            kind = data.draw(ACTION_KINDS)
            allowed = np.flatnonzero(mask[1:]) + 1
            actions.append(
                data.draw(st.integers(-1, len(mask))) if kind == "any"
                else 0 if kind == "reject" or not len(allowed)
                else int(allowed[data.draw(st.integers(0, len(allowed) - 1))]))
        knocked = data.draw(st.booleans())
        if knocked:
            # some idle agents then reach an Assigned task but no Waiting one
            knock = data.draw(st.integers(0, 2 ** cm.entries.size - 1))
            bits = [knock >> k & 1 for k in range(cm.entries.size)]
            cm = CostMatrix(np.where(np.reshape(bits, cm.entries.shape),
                                     np.inf, cm.entries))
        # the grid and the generator stay as they are; log entries are
        # appended, never changed
        ref_state = copy.deepcopy(state, {id(state.grid): state.grid,
                                          id(state.rng): state.rng,
                                          id(state.log): list(state.log)})
        ref = arbitrate_reference(ref_state, actions, cm, ids)
        if knocked:
            sc = slot_cost_array(state, cm)
            out = arbitrate(state, actions, sc, observation(state, sc)[1])
            self.tally["knocked"] += 1
        else:
            out = self.ep.act(actions)
        for name in ("idle_rejects", "invalid", "conflicts", "assignments"):
            assert getattr(out, name) == getattr(ref, name), name
            self.tally[name] += len(getattr(out, name))
        col = {tid: j for j, tid in enumerate(ids)}
        for slot, contenders in out.conflicts.items():
            costs = sorted(cm.entries[a, col[state.slots[slot]]]
                           for a in contenders)
            self.tally["tied contests"] += int(costs[0] == costs[1])
        assert out.requests == ref.requests
        assert [a.status for a in state.agents] == \
            [a.status for a in ref_state.agents]
        assert state.log == ref_state.log
        self.acted = True

    @precondition(lambda self: self.ep is not None and not self.ep.terminated
                  and (self.round is None or self.acted))
    @rule()
    def tick(self):
        state = self.ep.state
        self.ep.tick()
        self.round, self.acted = None, False
        self.tally["ticks"] += 1
        for s, tid in enumerate(state.slots):
            if tid is not None and tid != self.held[s]:
                self.tally["reused"] += self.held[s] is not None
                self.held[s] = tid

    @invariant()
    def slots_read_like_status_scans(self):
        if self.ep is None:
            return
        state, cfg = self.ep.state, self.ep.config
        scan = [t for t in state.tasks if t.status is not TaskStatus.DONE]
        assert state.live_tasks() == scan
        assert state.live_slots() == [state.slots.index(t.id) for t in scan]
        assert state.waiting_tasks() == [
            t for t in state.tasks if t.status is TaskStatus.WAITING]
        assert self.ep.all_tasks_done() == (not scan)
        self.tally[f"all done {not scan}"] += 1
        assert self.ep.terminated == (state.clock >= cfg.step_cap or (
            cfg.task_interval is None and not scan))

    @invariant()
    def terminated_stays_and_comes_by_step_cap(self):
        if self.ep is None:
            return
        assert self.ep.terminated or not self.ended
        self.ended = self.ep.terminated
        assert self.ended or self.ep.state.clock < self.ep.config.step_cap

    @invariant()
    def observations_equal_reference_rows(self):
        """Slot costs from oracle fields go to the slot of their task id,
        `observation` of them equals the reference bodies, and an observed
        round returned exactly these."""
        if self.ep is None:
            return
        state = self.ep.state
        tasks = state.live_tasks()
        cm = CostMatrix(np.array(
            [[self.field(t.location, a.motion_model)[a.position] / a.velocity
              for t in tasks] for a in state.agents]).reshape(
                  len(state.agents), len(tasks)))
        sc = slot_cost_array(state, cm)
        want = np.full_like(sc, np.inf)
        for j, t in enumerate(tasks):
            want[:, state.slots.index(t.id)] = cm.entries[:, j]
        assert np.array_equal(sc, want)
        obs, masks = observation(state, sc)
        for a in state.agents:
            assert np.array_equal(obs[a.id],
                                  local_observation_reference(state, a.id, sc))
            assert np.array_equal(masks[a.id],
                                  action_mask_reference(state, a.id, sc))
        if self.round is not None and not self.acted:
            r_obs, r_masks, r_cm, r_ids = self.round
            assert r_ids == [t.id for t in tasks]
            assert np.array_equal(r_cm.entries, cm.entries)
            assert np.array_equal(r_obs, obs)
            assert np.array_equal(r_masks, masks)
            live = state.live_slots()
            self.tally["unordered"] += live != sorted(live)
        cases = {"busy": any(a.status is not AgentStatus.IDLE
                             for a in state.agents),
                 "assigned": any(t.status is TaskStatus.ASSIGNED
                                 for t in tasks),
                 "done": len(tasks) < len(state.tasks),
                 "empty": None in state.slots,
                 "unreachable": not np.isfinite(cm.entries).all()}
        self.tally.update(k for k, seen in cases.items() if seen)

    @invariant()
    def field_rows_are_oracle_fields_built_once(self):
        """Every store row of a live task holds its field, equal to the
        oracle out to the row's last ring and inf beyond it.  In a round
        the store holds a row for each live task and motion model, and a
        row's last ring reaches every agent of its model, or the row is
        the whole field.  Each key the episode held was built with one
        `distance_field` call, and its rows labelled as many rings as the
        keys' last rings sum to: no ring is searched twice."""
        if self.ep is None:
            return
        state = self.ep.state
        live = {t.id: t for t in state.live_tasks()}
        held = {key for key in state.dist_cache.keys() if key[0] in live}
        if self.round is not None:
            assert held == {
                (tid, a.motion_model) for tid in live for a in state.agents}
        for tid, model in held:
            row = decoded(state.dist_cache, (tid, model))
            full = self.field(live[tid].location, model)
            assert row.shape == state.grid.dims
            assert row.dtype == np.float32 and row.flags.c_contiguous
            last = row.max(initial=0.0, where=np.isfinite(row))
            within = full <= last
            assert np.array_equal(row[within], full[within])
            assert np.isinf(row[~within]).all()
            if self.round is not None:
                assert all(full[a.position] <= last
                           or np.array_equal(row, full)
                           for a in state.agents if a.motion_model is model)
            self.keys[tid, model] = max(self.keys.get((tid, model), 0), last)
        assert sorted(self.builds[self.first_build:], key=repr) == sorted(
            ((state.task(tid).location, m) for tid, m in self.keys), key=repr)
        for model, work in state.dist_cache.work.items():
            rings = [r for (_, m), r in self.keys.items() if m is model]
            assert work.built == len(rings)
            assert work.rings == sum(rings)

    @invariant()
    def each_assigned_task_has_one_agent(self):
        if self.ep is None:
            return
        state = self.ep.state
        assert sorted(a.assigned_task for a in state.agents
                      if a.assigned_task is not None) == [
            t.id for t in state.tasks if t.status is TaskStatus.ASSIGNED]

    @invariant()
    def assigned_lengths_are_field_distances(self):
        """Agents have not moved since their `assigned` events: the
        invariants run after the round that logged them."""
        if self.ep is None:
            return
        state = self.ep.state
        for e in state.log[self.logged:]:
            if e["event"] == "assigned":
                agent = state.agent(e["agent"])
                d = self.field(state.task(e["task"]).location,
                               agent.motion_model)[agent.position]
                assert e["length"] == d and e["cost"] == d / agent.velocity
        self.logged = len(state.log)

    @invariant()
    def movers_stand_on_booked_cells(self):
        """An Assign agent whose plan started before this tick stands on
        the cell its plan booked for it now: `advance` moves as many cells
        per tick as `plan_schedule` books.  A wait rebooks from the tick it
        ends, so a waiting agent's plan starts now."""
        if self.ep is None:
            return
        state = self.ep.state
        now = int(state.clock)
        for a in state.agents:
            if a.status is AgentStatus.ASSIGN and a.plan.start_tick < now:
                assert state.reservations.slots.get((a.position, now)) == a.id
                self.tally["on schedule"] += 1


def test_episode_machine(monkeypatch):
    """Runs `EpisodeMachine`, then checks that every case its invariants
    judge occurred."""
    tally, builds = Counter(), []

    def counting(grid, source, model, **kw):
        builds.append((tuple(source), model))
        return distance_field(grid, source, model, **kw)

    def recording(state):
        first = len(state.log)
        events = advance(state)
        assert events == state.log[first:]
        tally.update(f"advance {e['event']}" for e in events)
        return events

    monkeypatch.setattr(pathplan, "distance_field", counting)
    monkeypatch.setattr(world, "advance", recording)
    # a few long runs, each of several episodes: the cases tallied below
    # came more evenly than from many short runs, whose generated
    # examples repeat a few config families
    run_state_machine_as_test(
        lambda: EpisodeMachine(tally, builds),
        settings=settings(max_examples=12, stateful_step_count=200,
                          derandomize=True, deadline=None))
    assert {k for k in tally if k.startswith("advance ")} == {
        "advance wait", "advance task_done", "advance agent_idle"}
    for case in ("busy", "assigned", "done", "empty", "unreachable",
                 "unordered", "idle_rejects", "invalid", "conflicts",
                 "assignments", "tied contests", "knocked", "extended",
                 "all done True", "all done False", "rejected",
                 "terminated"):
        assert tally[case] > 0, (case, tally)
    assert tally["reused"] >= 2 and tally["advance wait"] > 10 \
        and tally["on schedule"] > 100 and tally["rounds"] > 20 \
        and tally["ticks"] > 40, tally
