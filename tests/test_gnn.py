"""Graph encoder tests: feature assembly, adjacency normalization,
permutation equivariance and a hand-computed forward pass."""

import numpy as np
import pytest

from magnnet import tensor as T
from magnnet.gnn import (HIDDEN, GCNParams, HeteroGraph, VELOCITY_SCALE,
                         _norm_adjacency, batch_graphs, build_graph,
                         gcn_encode, init_gcn_params, padded_task_features)
from magnnet.world import (STATUS_CODE, Episode, TaskStatus, WorldConfig,
                           current_cost_matrix, init_episode, observation,
                           slot_cost_array)

import helpers as ops


def small_state(seed=0):
    cfg = WorldConfig(grid_dims=(15, 15, 6), n_agents=4, n_tasks_initial=4,
                      n_ground=2, n_aerial=2, obstacle_density=0.08)
    return init_episode(cfg, seed)


def finish(st, task):
    """Mark `task` Done as `advance` does, freeing its slot."""
    task.status = type(task.status).DONE
    st.replace_slot(task.id, None)


def identity_params(m_max):
    """Projections that copy the first HIDDEN input dims; convs identity."""
    p = init_gcn_params(np.random.default_rng(0), m_max)
    for w, n_in in ((p.wa, 5 + m_max), (p.wt, 4)):
        w.data = np.zeros((n_in, HIDDEN))
        np.fill_diagonal(w.data, 1.0)
    p.w1.data = np.eye(HIDDEN)
    p.w2.data = np.eye(HIDDEN)
    for b in (p.ba, p.bt, p.b1, p.b2):
        b.data = np.zeros(HIDDEN)
    return p


class TestBuildGraph:
    def test_feature_layout(self):
        st = small_state(1)
        cm, _ = current_cost_matrix(st)
        g = build_graph(st, cm)
        assert g.agent_x.shape == (4, 5 + st.config.m_max)
        assert g.task_x.shape == (4, 4)
        obs, _ = observation(st, slot_cost_array(st, cm))
        assert np.array_equal(g.agent_x[:, 5:], obs[:, 1:])
        dims = np.asarray(st.config.grid_dims, dtype=float)
        for i, ag in enumerate(st.agents):
            assert np.allclose(g.agent_x[i, :3], np.asarray(ag.position) / dims)
            assert g.agent_x[i, 3] == STATUS_CODE[ag.status]
            assert g.agent_x[i, 4] == ag.velocity / VELOCITY_SCALE

    def test_edge_weights_formula(self):
        st = small_state(2)
        cm, _ = current_cost_matrix(st)
        g = build_graph(st, cm)
        finite = np.isfinite(cm.entries)
        assert np.allclose(g.edge_w[finite],
                           1.0 / (1.0 + cm.entries[finite]))
        assert (g.edge_w[~finite] == 0.0).all()


class TestBuildGraphWithObservation:
    """`build_graph(state, cm, obs)` with the round's `observe` output
    equals the two-argument form, which rebuilds the observation, and
    its task rows and slots equal a per-task reference."""

    CONFIGS = (dict(), dict(obstacle_density=0.25),
               dict(task_interval=3.0, step_cap=60.0),
               dict(task_interval=2.0, step_cap=60.0,
                    obstacle_density=0.25))

    def test_both_call_forms_agree(self):
        spawned = rounds = assigned = 0
        base = dict(grid_dims=(15, 15, 6), n_agents=4, n_tasks_initial=4,
                    n_ground=2, n_aerial=2, obstacle_density=0.08)
        for k, kw in enumerate(self.CONFIGS):
            cfg = WorldConfig(**{**base, **kw})
            dims = np.asarray(cfg.grid_dims, dtype=np.float64)
            for seed in range(2):
                ep = Episode(cfg, 600 + 10 * k + seed)
                rng = np.random.default_rng(seed)
                while not ep.terminated:
                    if ep.decision_due():
                        obs, masks, cm, _ = ep.observe()
                        rebuilt = build_graph(ep.state, cm)
                        given = build_graph(ep.state, cm, obs)
                        for name in ("agent_x", "task_x", "edge_w"):
                            assert np.array_equal(getattr(given, name),
                                                  getattr(rebuilt, name))
                        assert given.task_slots == rebuilt.task_slots
                        # the per-task loop and slot scan they replace
                        live = ep.state.live_tasks()
                        want = np.zeros((len(live), 4))
                        for j, t in enumerate(live):
                            want[j, :3] = np.asarray(t.location) / dims
                            want[j, 3] = t.status is TaskStatus.ASSIGNED
                        assert np.array_equal(given.task_x, want)
                        assert given.task_slots == [
                            ep.state.slots.index(t.id) for t in live]
                        assigned += int(want[:, 3].sum())
                        rounds += 1
                        ep.act([int(rng.choice(np.flatnonzero(m)))
                                for m in masks])
                    ep.tick()
                spawned += len(ep.state.tasks) - cfg.n_tasks_initial
        assert rounds > 50 and spawned > 0 and assigned > 0


class TestAdjacency:
    def test_rows_sum_to_one(self):
        st = small_state(4)
        cm, _ = current_cost_matrix(st)
        a = _norm_adjacency(build_graph(st, cm))
        assert a.shape == (8, 8)
        assert np.allclose(a.sum(axis=1), 1.0)

    def test_agent_agent_block_empty_without_comm(self):
        st = small_state(5)
        cm, _ = current_cost_matrix(st)
        a = _norm_adjacency(build_graph(st, cm))
        off_diag = a[:4, :4] - np.diag(np.diag(a[:4, :4]))
        assert np.allclose(off_diag, 0.0)


class TestEncode:
    def test_output_shape(self):
        st = small_state(6)
        cm, _ = current_cost_matrix(st)
        p = init_gcn_params(np.random.default_rng(1), st.config.m_max)
        emb = gcn_encode(build_graph(st, cm), p)
        assert emb.data.shape == (4, HIDDEN)

    def test_hand_computed_single_agent_single_task(self):
        # one agent, one task, identity weights: two rounds of averaging
        agent_x = np.zeros((1, 9))
        agent_x[0, :3] = [0.5, 0.25, 0.0]
        task_x = np.zeros((1, 4))
        task_x[0, :3] = [1.0, 1.0, 0.0]
        edge_w = np.array([[0.5]])  # cost 1 -> weight 1/2
        g = HeteroGraph(agent_x, task_x, edge_w, [0])
        p = identity_params(m_max=4)
        emb = gcn_encode(g, p).data

        task_proj = np.zeros((1, HIDDEN))
        task_proj[:, :4] = task_x  # 4 input features copied, rest zero
        h0 = np.vstack([agent_x[:, :HIDDEN], task_proj])
        a = np.array([[1.0, 0.5], [0.5, 1.0]])
        a = a / a.sum(axis=1, keepdims=True)
        h1 = np.maximum(a @ h0, 0.0)
        h2 = np.maximum(a @ h1, 0.0)
        assert np.allclose(emb, h2[:1])

    def test_permutation_equivariance_over_tasks(self):
        # relabeling task columns must permute nothing for agents: the
        # aggregation is a sum over tasks, so embeddings are invariant
        st = small_state(7)
        cm, _ = current_cost_matrix(st)
        g = build_graph(st, cm)
        p = init_gcn_params(np.random.default_rng(2), st.config.m_max)
        base = gcn_encode(g, p).data

        perm = np.array([2, 0, 3, 1])
        g2 = HeteroGraph(g.agent_x, g.task_x[perm], g.edge_w[:, perm],
                         [g.task_slots[k] for k in perm])
        assert np.allclose(gcn_encode(g2, p).data, base)

    def test_permutation_equivariance_over_agents(self):
        st = small_state(8)
        cm, _ = current_cost_matrix(st)
        g = build_graph(st, cm)
        p = init_gcn_params(np.random.default_rng(3), st.config.m_max)
        base = gcn_encode(g, p).data
        perm = np.array([3, 1, 0, 2])
        g2 = HeteroGraph(g.agent_x[perm], g.task_x, g.edge_w[perm],
                         g.task_slots)
        assert np.allclose(gcn_encode(g2, p).data, base[perm])

    def test_no_tasks_still_encodes(self):
        st = small_state(9)
        for t in st.tasks:
            finish(st, t)
        cm, _ = current_cost_matrix(st)
        g = build_graph(st, cm)
        assert g.n_tasks == 0
        p = init_gcn_params(np.random.default_rng(4), st.config.m_max)
        assert gcn_encode(g, p).data.shape == (4, HIDDEN)

    def test_gradients_flow_to_all_params(self):
        st = small_state(10)
        cm, _ = current_cost_matrix(st)
        g = build_graph(st, cm)
        p = init_gcn_params(np.random.default_rng(5), st.config.m_max)
        loss = ops.tsum(T.square(gcn_encode(g, p)))
        grads = T.backward(loss, p.parameters())
        assert any(np.abs(gr).sum() > 0 for gr in grads)


def graph_with_tasks_done(seed, n_done):
    """Graph of small_state(seed) after its first `n_done` tasks finish."""
    st = small_state(seed)
    for t in st.tasks[:n_done]:
        finish(st, t)
    cm, _ = current_cost_matrix(st)
    return build_graph(st, cm)


class TestBatchGraphs:
    def graphs(self):
        # 4, 2, 0 and 3 live tasks
        return [graph_with_tasks_done(seed, n_done)
                for seed, n_done in ((12, 0), (13, 2), (14, 4), (15, 1))]

    def test_union_layout(self):
        gs = self.graphs()
        assert [g.n_tasks for g in gs] == [4, 2, 0, 3]
        u = batch_graphs(gs)
        assert np.array_equal(u.agent_x, np.vstack([g.agent_x for g in gs]))
        assert np.array_equal(u.task_x, np.vstack([g.task_x for g in gs]))
        assert u.task_slots == [s for g in gs for s in g.task_slots]
        i = j = 0
        for g in gs:
            block = np.zeros_like(u.edge_w)
            block[i:i + g.n_agents, j:j + g.n_tasks] = g.edge_w
            rows = slice(i, i + g.n_agents)
            assert np.array_equal(u.edge_w[rows], block[rows])
            i, j = i + g.n_agents, j + g.n_tasks

    def test_encoding_stacks_per_graph_encodings(self):
        gs = self.graphs()
        p = init_gcn_params(np.random.default_rng(6), gs[0].agent_x.shape[1] - 5)
        union = gcn_encode(batch_graphs(gs), p).data
        stacked = np.vstack([gcn_encode(g, p).data for g in gs])
        assert union.shape == (sum(g.n_agents for g in gs), HIDDEN)
        assert np.max(np.abs(union - stacked)) <= 1e-12 * np.abs(stacked).max()

    def test_all_graphs_without_tasks(self):
        gs = [graph_with_tasks_done(16, 4), graph_with_tasks_done(17, 4)]
        p = init_gcn_params(np.random.default_rng(7), gs[0].agent_x.shape[1] - 5)
        union = gcn_encode(batch_graphs(gs), p).data
        stacked = np.vstack([gcn_encode(g, p).data for g in gs])
        assert np.max(np.abs(union - stacked)) <= 1e-12 * np.abs(stacked).max()


class TestPaddedTaskFeatures:
    def test_slot_layout(self):
        st = small_state(11)
        cm, _ = current_cost_matrix(st)
        g = build_graph(st, cm)
        out = padded_task_features(g, m_max=6)
        assert out.shape == (6, 4)
        for row, slot in zip(g.task_x, g.task_slots):
            assert np.array_equal(out[slot], row)
        assert np.allclose(out[4:], 0.0)

    def test_reused_slots_in_dynamic_episode(self):
        """Every decision round of a dynamic episode whose spawns reuse
        freed slots, each live task's features sit at the slot holding
        its id, and the slots of Done tasks and empty slots are zero."""
        cfg = WorldConfig(grid_dims=(15, 15, 6), n_agents=4,
                          n_tasks_initial=4, n_ground=2, n_aerial=2,
                          obstacle_density=0.08, task_interval=2.0,
                          step_cap=60.0)
        ep = Episode(cfg, 611)
        st = ep.state
        rng = np.random.default_rng(7)
        rounds = unordered = 0
        while not ep.terminated:
            if ep.decision_due():
                obs, masks, cm, _ = ep.observe()
                g = build_graph(st, cm, obs)
                out = padded_task_features(g, cfg.m_max)
                want = np.zeros((cfg.m_max, 4))
                for j, t in enumerate(st.live_tasks()):
                    want[st.slots.index(t.id)] = g.task_x[j]
                assert np.array_equal(out, want)
                unordered += g.task_slots != sorted(g.task_slots)
                rounds += 1
                ep.act([int(rng.choice(np.flatnonzero(m))) for m in masks])
            ep.tick()
        assert rounds > 20 and unordered > 0
