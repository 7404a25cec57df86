"""Trainer tests: GAE closed forms, clipped-surrogate arithmetic,
rollout integrity, model checkpoints and a short end-to-end train run."""

import csv
import json
import math
import os
import time
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from magnnet import ppo
from magnnet import tensor as T
from magnnet.errors import CheckpointMismatchError, NumericError, ShapeError
from magnnet.gnn import (HIDDEN, HeteroGraph, _norm_adjacency, batch_graphs,
                         build_graph, gcn_encode, padded_task_features)
from magnnet.policy import (ActionDistribution, actor_forward, critic_forward,
                            sample_action)
from magnnet.ppo import (GAE_LAMBDA, GAMMA, METRICS_COLUMNS, ModelParams,
                         PPOConfig, RolloutBuffer, StepRecord, _forward_steps,
                         _minibatch_loss, collect_rollout, compute_gae,
                         ppo_update, train)
from magnnet.tensor import AdamState, Tensor
from magnnet.world import Episode, WorldConfig, terminal_bonus

import helpers as ops
from helpers import REPO


def tiny_world(**kw):
    base = dict(grid_dims=(15, 15, 6), n_agents=4, n_tasks_initial=4,
                n_ground=2, n_aerial=2, obstacle_density=0.08)
    base.update(kw)
    return WorldConfig(**base)


def edit_w2(**changes):
    """A checkpoint fault: it sets keys of the `gcn.w2` record, deleting
    those given as None, and returns the edited JSON."""
    def fault(blob):
        record = blob["params"]["gcn.w2"]
        for key, value in changes.items():
            if value is None:
                del record[key]
            else:
                record[key] = value
        return blob
    return fault


def make_buffer(rewards, values, dones, n_agents=1):
    buf = RolloutBuffer()
    for r, v, d in zip(rewards, values, dones):
        buf.steps.append(StepRecord(
            graph=None, obs=None, masks=None,
            actions=np.zeros(n_agents, dtype=int),
            log_probs=np.zeros(n_agents),
            rewards=np.full(n_agents, float(r)),
            value=float(v), done=bool(d)))
    return buf


class TestPPOConfig:
    def test_minibatch_must_divide(self):
        with pytest.raises(ValueError):
            PPOConfig(train_batch=100, minibatch=64)


class TestGAE:
    def test_lambda_zero_is_td_error(self):
        buf = make_buffer([1.0, 2.0, 3.0], [0.5, 0.6, 0.7], [0, 0, 1])
        adv, ret = compute_gae(buf, gamma=0.9, lam=0.0)
        expect = [1.0 + 0.9 * 0.6 - 0.5,
                  2.0 + 0.9 * 0.7 - 0.6,
                  3.0 - 0.7]
        assert np.allclose(adv[:, 0], expect)
        assert np.allclose(ret, adv + np.array([[0.5], [0.6], [0.7]]))

    def test_lambda_one_gamma_one_is_reward_to_go_minus_value(self):
        buf = make_buffer([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0, 0, 1])
        adv, _ = compute_gae(buf, gamma=1.0, lam=1.0)
        assert np.allclose(adv[:, 0], [3.0, 2.0, 1.0])

    def test_recursion_matches_manual(self):
        g, l = 0.99, 0.95
        r = [0.3, -0.1, 0.8, 0.2]
        v = [0.1, 0.2, 0.3, 0.4]
        buf = make_buffer(r, v, [0, 0, 0, 1])
        adv, _ = compute_gae(buf, g, l)
        deltas = [r[t] + g * (v[t + 1] if t < 3 else 0.0) - v[t]
                  for t in range(4)]
        manual = [0.0] * 4
        acc = 0.0
        for t in (3, 2, 1, 0):
            acc = deltas[t] + (g * l * acc if t < 3 else 0.0)
            manual[t] = acc
        assert np.allclose(adv[:, 0], manual)

    def test_episode_boundary_resets(self):
        buf = make_buffer([1.0, 5.0], [0.0, 0.0], [1, 1])
        adv, _ = compute_gae(buf, gamma=0.9, lam=0.9)
        assert np.allclose(adv[:, 0], [1.0, 5.0])  # no leakage across done

    def test_multi_agent_rows_independent(self):
        buf = RolloutBuffer()
        buf.steps.append(StepRecord(None, None, None,
                                    np.zeros(2, int), np.zeros(2),
                                    np.array([1.0, -1.0]), 0.5, True))
        adv, _ = compute_gae(buf, 0.99, 0.95)
        assert np.allclose(adv[0], [0.5, -1.5])


class TestCollectRollout:
    def test_fills_buffer_with_whole_episodes(self):
        cfg = tiny_world()
        pcfg = PPOConfig(train_batch=64, minibatch=16, total_steps=64)
        model = ModelParams.init(np.random.default_rng(0), 4, cfg.m_max)
        buf = collect_rollout(cfg, model, pcfg, np.random.default_rng(1))
        assert buf.n_transitions >= 64
        assert buf.steps[-1].done  # ends on an episode boundary
        dones = sum(1 for s in buf.steps if s.done)
        assert dones == buf.episode_count

    def test_log_probs_consistent_with_actions(self):
        cfg = tiny_world()
        pcfg = PPOConfig(train_batch=16, minibatch=16)
        model = ModelParams.init(np.random.default_rng(2), 4, cfg.m_max)
        buf = collect_rollout(cfg, model, pcfg, np.random.default_rng(3))
        for step in buf.steps[:5]:
            dist, _ = _forward_steps(model, [step.graph], step.obs,
                                     step.masks, with_value=False)
            p = dist.p[np.arange(len(step.actions)), step.actions]
            assert np.allclose(np.log(p), step.log_probs)


def reference_rollout(world_config, model, config, rng):
    """The round loop `collect_rollout` ran before `ppo.play` took it over:
    the reference whose records the driver must reproduce bit for bit."""
    buffer = RolloutBuffer()
    while buffer.n_transitions < config.train_batch:
        ep = Episode(world_config, int(rng.integers(2 ** 31)))
        ep_steps = []
        while not ep.terminated:
            if ep.decision_due():
                obs, masks, cm, _ = ep.observe()
                graph = build_graph(ep.state, cm, obs)
                with T.no_grad():
                    dist, value = _forward_steps(model, [graph], obs, masks,
                                                 with_value=True)
                    actions, logps = sample_action(dist, rng)
                rewards = ep.act(actions).rewards
                ep_steps.append(StepRecord(
                    graph, obs, masks, np.asarray(actions),
                    np.asarray(logps), rewards.copy(),
                    float(value.data[0]) if value is not None else 0.0))
            ep.tick()
        if ep.all_tasks_done():
            bonus = terminal_bonus(ep.optimal_total(), ep.achieved_total())
            ep_steps[-1].rewards += bonus
        ep_steps[-1].done = True
        buffer.steps.extend(ep_steps)
        buffer.episode_rewards.append(
            float(sum(s.rewards.mean() for s in ep_steps)))
        buffer.episode_count += 1
    return buffer


def assert_same_array(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


class TestPlay:
    @pytest.mark.parametrize("world_kw", [
        {}, dict(task_interval=3.0, step_cap=40.0)],
        ids=["static", "dynamic"])
    def test_rollout_equals_reference_loop(self, world_kw):
        cfg = tiny_world(**world_kw)
        pcfg = PPOConfig(train_batch=48, minibatch=16)
        model = ModelParams.init(np.random.default_rng(21), 4, cfg.m_max)
        rng, ref_rng = np.random.default_rng(22), np.random.default_rng(22)
        buf = collect_rollout(cfg, model, pcfg, rng)
        ref = reference_rollout(cfg, model, pcfg, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert buf.episode_count == ref.episode_count
        assert buf.episode_rewards == ref.episode_rewards
        assert len(buf.steps) == len(ref.steps)
        for step, want in zip(buf.steps, ref.steps):
            for name in ("obs", "masks", "actions", "log_probs", "rewards"):
                assert_same_array(getattr(step, name), getattr(want, name))
            for name in ("agent_x", "task_x", "edge_w"):
                assert_same_array(getattr(step.graph, name),
                                  getattr(want.graph, name))
            assert step.graph.task_slots == want.graph.task_slots
            assert (step.value, step.done) == (want.value, want.done)
            assert step.wall_s > 0.0


def lockstep_worlds():
    """A static and a dynamic world of different lengths whose
    observations share m_max = 20, so one model plays both."""
    return [tiny_world(n_tasks_initial=20),
            tiny_world(task_interval=3.0, step_cap=40.0, n_agents=6,
                       n_ground=3, n_aerial=3)]


class Timed(Episode):
    """Stamps each `observe` entry, `act` return and `tick` entry and
    return with the episode's clock into the shared list `events`."""

    def __init__(self, config, seed, events):
        super().__init__(config, seed)
        self.events = events

    def stamp(self, kind):
        self.events.append((kind, self.state.clock, time.perf_counter()))

    def observe(self):
        self.stamp("observe")
        return super().observe()

    def act(self, actions):
        out = super().act(actions)
        self.stamp("act")
        return out

    def tick(self):
        self.stamp("tick")
        super().tick()
        self.stamp("ticked")


class TestDriver:
    """`ppo.play(episodes, decide)` plays a list of episodes in lockstep,
    one pass per tick of their shared clock."""

    def test_lockstep_equals_each_alone(self):
        configs = lockstep_worlds()
        decide = ppo.policy(ModelParams.init(np.random.default_rng(23), 4,
                                             20))
        together = [Episode(cfg, 7) for cfg in configs]
        records = list(ppo.play(together, decide))
        assert [r.episode for r in records[:2]] == [0, 1]
        lengths = []
        for k, cfg in enumerate(configs):
            alone = Episode(cfg, 7)
            want = list(ppo.play([alone], decide))
            got = [r for r in records if r.episode == k]
            assert {r.episode for r in want} == {0}
            assert len(got) == len(want)
            for step, ref in zip(got, want):
                assert_same_array(step.actions, ref.actions)
                assert_same_array(step.rewards, ref.rewards)
            assert together[k].state.log == alone.state.log
            lengths.append(len(got))
        assert lengths[0] != lengths[1]

    def test_decide_gets_due_episodes_once_per_pass(self):
        configs = lockstep_worlds() + [tiny_world(n_tasks_initial=20)]
        greedy = ppo.policy(ModelParams.init(np.random.default_rng(24), 4,
                                             20))
        episodes = [Episode(cfg, 8 + k) for k, cfg in enumerate(configs)]
        calls = []

        def decide(rounds):
            due = [k for k, ep in enumerate(episodes) if ep.decision_due()]
            assert [episodes.index(r[0]) for r in rounds] == due
            assert not any(r[0].terminated for r in rounds)
            calls.append((episodes[due[0]].state.clock, due))
            return greedy(rounds)

        list(ppo.play(episodes, decide))
        clocks = [clock for clock, _ in calls]
        assert clocks == sorted(set(clocks))    # at most one call a pass
        assert any(len(due) > 1 for _, due in calls)
        # each episode decides together at the ticks it decides alone
        for k, cfg in enumerate(configs):
            alone, clocks = Episode(cfg, 8 + k), []

            def decide_alone(rounds):
                clocks.append(alone.state.clock)
                return greedy(rounds)

            list(ppo.play([alone], decide_alone))
            assert clocks == [c for c, due in calls if k in due]

    def test_pass_records_share_its_span(self):
        events = []
        decide = ppo.policy(ModelParams.init(np.random.default_rng(25), 4,
                                             20))
        episodes = [Timed(cfg, 9, events) for cfg in lockstep_worlds()]
        walls, counts = Counter(), Counter()
        events.append(("ticked", 0.0, time.perf_counter()))
        for record in ppo.play(episodes, decide):
            clock = episodes[record.episode].state.clock
            walls[clock] += record.wall_s
            counts[clock] += 1
        assert set(counts.values()) == {1, 2}

        def stamps(kind, clock):
            return [t for k, c, t in events if (k, c) == (kind, clock)]

        for clock, wall_s in walls.items():
            # from the first observe to the last act's return, and no
            # part of the ticks before or after
            inner = max(stamps("act", clock)) - min(stamps("observe", clock))
            outer = min(stamps("tick", clock)) - max(stamps("ticked", clock))
            assert inner <= wall_s <= outer


def composed_forward_steps(model, graphs, obs, masks, with_value):
    """`ppo._forward_steps` on the unfused network, as it ran before the
    fused layer ops: every layer an `add(matmul(...))` chain with `relu`,
    and even a lone graph passed through `batch_graphs`."""
    g = batch_graphs(graphs)
    p = model.gcn
    h = T.add(ops.matmul(Tensor(g.agent_x), p.wa), p.ba)
    if g.n_tasks:
        h = T.concat([h, T.add(ops.matmul(Tensor(g.task_x), p.wt), p.bt)],
                     axis=0)
    adj = Tensor(_norm_adjacency(g))
    for w, b in ((p.w1, p.b1), (p.w2, p.b2)):
        h = ops.relu(T.add(ops.matmul(ops.matmul(adj, h), w), b))
    emb = T.slice_rows(h, 0, g.n_agents)
    a = model.actor
    x = T.concat([Tensor(np.atleast_2d(obs)), emb], axis=1)
    logits = T.add(ops.matmul(ops.relu(T.add(ops.matmul(x, a.w1), a.b1)),
                              a.w2), a.b2)
    dist = ActionDistribution(T.masked_softmax(logits, np.atleast_2d(masks)))
    if not with_value or model.critic is None:
        return dist, None
    c = model.critic
    rows = len(graphs)
    embs = T.reshape(emb, (rows, model.n_max, HIDDEN))
    feats = Tensor(np.stack([padded_task_features(gr, model.m_max)
                             for gr in graphs]))
    flat = T.concat([T.reshape(embs, (rows, -1)),
                     T.reshape(feats, (rows, -1))], axis=1)
    v = T.add(ops.matmul(ops.relu(T.add(ops.matmul(flat, c.w1), c.b1)),
                         c.w2), c.b2)
    return dist, T.reshape(v, (rows,))


class TestFusedNetwork:
    """The fused layer ops play and train exactly as the unfused chain."""

    def test_rollout_equals_composed_network(self, monkeypatch):
        cfg = tiny_world(task_interval=3.0, step_cap=40.0)
        pcfg = PPOConfig(train_batch=48, minibatch=16)
        model = ModelParams.init(np.random.default_rng(41), 4, cfg.m_max)
        buf = collect_rollout(cfg, model, pcfg, np.random.default_rng(42))
        monkeypatch.setattr(ppo, "_forward_steps", composed_forward_steps)
        ref = collect_rollout(cfg, model, pcfg, np.random.default_rng(42))
        assert len(buf.steps) == len(ref.steps)
        for step, want in zip(buf.steps, ref.steps):
            for name in ("actions", "log_probs", "rewards"):
                assert_same_array(getattr(step, name), getattr(want, name))
            assert step.value == want.value

    @pytest.mark.parametrize("minibatch", [4, 8],
                             ids=["lone-graph", "graph-union"])
    def test_update_equals_composed_network(self, monkeypatch, minibatch):
        cfg = tiny_world()
        pcfg = PPOConfig(train_batch=32, minibatch=minibatch,
                         epochs_per_update=2, learning_rate=1e-3)
        model, ref_model = (ModelParams.init(np.random.default_rng(43), 4,
                                             cfg.m_max) for _ in range(2))
        buf = collect_rollout(cfg, model, pcfg, np.random.default_rng(44))
        adv, ret = compute_gae(buf, GAMMA, GAE_LAMBDA)
        stats = ppo_update(buf, adv, ret, model, pcfg,
                           AdamState(), np.random.default_rng(45))
        monkeypatch.setattr(ppo, "_forward_steps", composed_forward_steps)
        ref_stats = ppo_update(buf, adv, ret, ref_model, pcfg,
                               AdamState(), np.random.default_rng(45))
        assert stats == ref_stats
        for p, q in zip(model.parameters(), ref_model.parameters()):
            assert_same_array(p.data, q.data)


class TestFusedUpdate:
    """`ppo_update` with the fused loss node and the flat Adam step
    trains exactly as with the composed loss chain and a per-parameter
    Adam step (`tests/helpers.py`)."""

    @pytest.mark.parametrize("minibatch,zero_adv", [
        (4, False), (8, False), (4, True)],
        ids=["lone-graph", "graph-union", "zero-advantages"])
    def test_update_equals_references(self, monkeypatch, minibatch,
                                      zero_adv):
        cfg = tiny_world()
        pcfg = PPOConfig(train_batch=32, minibatch=minibatch,
                         epochs_per_update=3, learning_rate=1e-2)
        model, ref_model = (ModelParams.init(np.random.default_rng(47), 4,
                                             cfg.m_max) for _ in range(2))
        buf = collect_rollout(cfg, model, pcfg, np.random.default_rng(48))
        adv, ret = compute_gae(buf, GAMMA, GAE_LAMBDA)
        if zero_adv:
            adv = np.zeros_like(adv)
        # under the parameters that collected, a lone graph's ratios are
        # exactly 1, so every `minimum` of the first minibatch is a tie
        step = buf.steps[0]
        dist, _ = _forward_steps(model, [step.graph], step.obs, step.masks,
                                 with_value=False)
        assert_same_array(np.log(dist.probs.data[np.arange(4),
                                                 step.actions]),
                          step.log_probs)
        stats = ppo_update(buf, adv, ret, model, pcfg, AdamState(),
                           np.random.default_rng(49))
        monkeypatch.setattr(ppo, "_minibatch_loss",
                            ops.composed_minibatch_loss)
        monkeypatch.setattr(ppo, "adam_step", ops.per_param_adam_step)
        ref_stats = ppo_update(buf, adv, ret, ref_model, pcfg, AdamState(),
                               np.random.default_rng(49))
        assert stats == ref_stats
        assert 0.0 < stats["clip_fraction"] < 1.0
        for p, q in zip(model.parameters(), ref_model.parameters()):
            assert_same_array(p.data, q.data)


class TestPPOUpdate:
    def _small_batch(self):
        cfg = tiny_world()
        pcfg = PPOConfig(train_batch=32, minibatch=8, epochs_per_update=2,
                         learning_rate=1e-3)
        model = ModelParams.init(np.random.default_rng(4), 4, cfg.m_max)
        buf = collect_rollout(cfg, model, pcfg, np.random.default_rng(5))
        return model, buf, pcfg

    def test_update_changes_parameters_and_reports_stats(self):
        model, buf, pcfg = self._small_batch()
        before = [p.data.copy() for p in model.parameters()]
        adv, ret = compute_gae(buf, GAMMA, GAE_LAMBDA)
        stats = ppo_update(buf, adv, ret, model, pcfg,
                           AdamState(), np.random.default_rng(6))
        moved = any(not np.allclose(b, p.data)
                    for b, p in zip(before, model.parameters()))
        assert moved
        for key in ("policy_loss", "value_loss", "entropy", "clip_fraction"):
            assert np.isfinite(stats[key])
        assert 0.0 <= stats["clip_fraction"] <= 1.0
        assert stats["entropy"] >= 0.0

    def test_first_epoch_ratio_is_one(self):
        # immediately after collection the policy is unchanged, so the
        # unclipped ratio equals 1 and the surrogate equals the advantage
        model, buf, pcfg = self._small_batch()
        step = buf.steps[0]
        dist, _ = _forward_steps(model, [step.graph], step.obs, step.masks,
                                 with_value=False)
        logp = T.log(T.gather_rows(dist.probs, step.actions))
        ratio = np.exp(logp.data - step.log_probs)
        assert np.allclose(ratio, 1.0)

    def test_value_only_gradient_when_advantages_zero(self):
        model, buf, pcfg = self._small_batch()
        pcfg2 = PPOConfig(train_batch=32, minibatch=8, epochs_per_update=1,
                          learning_rate=1e-3, entropy_coef=0.0)
        adv = np.zeros((len(buf.steps), buf.n_agents))
        ret = adv.copy()
        actor_before = [p.data.copy() for p in model.actor.parameters()]
        ppo_update(buf, adv, ret, model, pcfg2,
                   AdamState(), np.random.default_rng(7))
        # zero advantages and no entropy bonus: actor head stays put
        # (ratio == 1 exactly, min(1*0, clip(1)*0) has zero gradient)
        for b, p in zip(actor_before, model.actor.parameters()):
            assert np.allclose(b, p.data, atol=1e-12)


def per_step_loss(steps, adv, ret, model, config):
    """Reference minibatch loss: one graph forward pass per decision step,
    the per-step results joined with `concat`.  Same arguments and
    results as `ppo._minibatch_loss`."""
    logp_new, entropies, values = [], [], []
    for step in steps:
        emb = gcn_encode(step.graph, model.gcn)
        dist = actor_forward(step.obs, emb, model.actor, step.masks)
        value = critic_forward(emb,
                               padded_task_features(step.graph, model.m_max),
                               model.critic)
        logp_new.append(T.log(T.gather_rows(dist.probs, step.actions)))
        entropies.append(T.entropy_rows(dist.probs))
        values.append(T.reshape(value, (1,)))
    logp_new = T.concat(logp_new)
    entropy = T.mean(T.concat(entropies))
    old_logp = np.concatenate([s.log_probs for s in steps])
    ratio = ops.exp(ops.sub(logp_new, Tensor(old_logp)))
    adv_t = Tensor(np.concatenate(list(adv)))
    surrogate = ops.minimum(
        T.mul(ratio, adv_t),
        T.mul(ops.clip(ratio, 1.0 - ppo.CLIP_EPSILON,
                       1.0 + ppo.CLIP_EPSILON), adv_t))
    policy_loss = T.mul(T.mean(surrogate), -1.0)
    value_loss = T.mean(T.square(ops.sub(T.concat(values), Tensor(ret))))
    loss = T.add(T.add(policy_loss, T.mul(value_loss, ppo.VALUE_COEF)),
                 T.mul(entropy, -config.entropy_coef))
    stats = {
        "policy_loss": float(policy_loss.data),
        "value_loss": float(value_loss.data),
        "entropy": float(entropy.data),
        "clip_fraction": float(np.mean(
            np.abs(ratio.data - 1.0) > ppo.CLIP_EPSILON)),
    }
    return loss, stats


def without_tasks(step):
    """`step` with every task gone: only the reject action is open."""
    g = step.graph
    n = g.n_agents
    masks = np.zeros_like(step.masks)
    masks[:, 0] = True
    return StepRecord(HeteroGraph(g.agent_x, np.zeros((0, 4)),
                                  np.zeros((n, 0)), []),
                      step.obs, masks, np.zeros(n, dtype=int),
                      np.zeros(n), step.rewards, step.value)


def assert_rel_close(a, b, tol=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    scale = max(np.abs(b).max(), 1e-300)
    assert np.max(np.abs(a - b)) <= tol * scale, \
        f"relative error {np.max(np.abs(a - b)) / scale:.2e}"


class TestBatchedMinibatch:
    """The batched minibatch loss equals the per-step reference under a
    clip range of 0.05, narrow enough that some ratios are clipped."""

    def _batch(self, n_max, seed):
        cfg = tiny_world()
        pcfg = PPOConfig(train_batch=32, minibatch=16)
        model = ModelParams.init(np.random.default_rng(seed), n_max,
                                 cfg.m_max)
        buf = collect_rollout(cfg, model, pcfg,
                              np.random.default_rng(seed + 1))
        # move the policy off the one that collected, so ratios leave 1
        # and some are clipped
        rng = np.random.default_rng(seed + 2)
        for p in model.parameters():
            p.data = p.data + 0.05 * rng.normal(size=p.data.shape)
        return model, buf, pcfg, rng

    def _compare(self, model, steps, pcfg, rng):
        adv = rng.normal(size=(len(steps), len(steps[0].actions)))
        ret = rng.normal(size=len(steps))
        params = model.parameters()
        T.zero_grads(params)
        loss, stats = _minibatch_loss(steps, adv, ret, model, pcfg)
        grads = T.backward(loss, params)
        T.zero_grads(params)
        ref_loss, ref_stats = per_step_loss(steps, adv, ret, model, pcfg)
        ref_grads = T.backward(ref_loss, params)
        assert_rel_close(loss.data, ref_loss.data)
        for k in ref_stats:
            assert_rel_close(stats[k], ref_stats[k])
        for g, ref in zip(grads, ref_grads):
            assert_rel_close(g, ref)
        return ref_stats

    def test_matches_per_step_loss_and_gradients(self):
        model, buf, pcfg, rng = self._batch(n_max=4, seed=11)
        with mock.patch.object(ppo, "CLIP_EPSILON", 0.05):
            for lo in range(0, len(buf.steps), 4):
                stats = self._compare(model, buf.steps[lo:lo + 4], pcfg,
                                      rng)
        assert 0.0 < stats["clip_fraction"] < 1.0

    def test_padding_rows_and_a_step_without_tasks(self):
        model, buf, pcfg, rng = self._batch(n_max=4, seed=12)
        steps = [buf.steps[0], without_tasks(buf.steps[1])] + buf.steps[2:5]
        with mock.patch.object(ppo, "CLIP_EPSILON", 0.05):
            self._compare(model, steps, pcfg, rng)
        # the critic takes no padding rows: a reshape of the stacked
        # agent rows would group them across graphs
        wide = ModelParams.init(np.random.default_rng(12), 6, model.m_max)
        with pytest.raises(ShapeError, match="6 agents per graph, got 4"):
            _forward_steps(wide, [s.graph for s in steps],
                           np.concatenate([s.obs for s in steps]),
                           np.concatenate([s.masks for s in steps]),
                           with_value=True)

    def test_one_pass_per_minibatch(self, monkeypatch):
        cfg = tiny_world()
        pcfg = PPOConfig(train_batch=32, minibatch=8, epochs_per_update=2)
        model = ModelParams.init(np.random.default_rng(13), 4, cfg.m_max)
        buf = collect_rollout(cfg, model, pcfg, np.random.default_rng(14))
        calls = Counter()

        def counted(name):
            fn = getattr(ppo, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        names = ("gcn_encode", "critic_forward", "backward")
        for name in names:
            monkeypatch.setattr(ppo, name, counted(name))
        adv, ret = compute_gae(buf, GAMMA, GAE_LAMBDA)
        ppo_update(buf, adv, ret, model, pcfg, AdamState(),
                   np.random.default_rng(15))
        steps_per_mb = pcfg.minibatch // buf.n_agents
        minibatches = pcfg.epochs_per_update * math.ceil(
            len(buf.steps) / steps_per_mb)
        assert len(buf.steps) > steps_per_mb
        assert calls == {name: minibatches for name in names}


class TestModelParams:
    def test_checkpoint_round_trip(self, tmp_path):
        model = ModelParams.init(np.random.default_rng(8), 4, 4)
        path = tmp_path / "m.json"
        model.save(path)
        again = ModelParams.load(path)
        for (n1, p1), (n2, p2) in zip(sorted(model.named().items()),
                                      sorted(again.named().items())):
            assert n1 == n2
            assert p1.data.tobytes() == p2.data.tobytes()

    def test_checkpoint_without_critic_rejected_on_load(self, tmp_path):
        """Every checkpoint a command writes carries the critic, so one
        without it is missing parameters like any other."""
        model = ModelParams.init(np.random.default_rng(9), 4, 4)
        path = tmp_path / "m.json"
        T.save_checkpoint(path, {**model.gcn.named(), **model.actor.named()},
                          {"n_max": 4, "m_max": 4})
        with pytest.raises(CheckpointMismatchError, match="critic.w1"):
            ModelParams.load(path)

    @pytest.mark.parametrize("name", ["critic.w1", "critic.b1",
                                      "critic.w2", "critic.b2"])
    def test_checkpoint_missing_one_critic_parameter_rejected(self, tmp_path,
                                                              name):
        model = ModelParams.init(np.random.default_rng(9), 4, 4)
        arrays = {k: p for k, p in model.named().items() if k != name}
        path = tmp_path / "m.json"
        T.save_checkpoint(path, arrays, {"n_max": 4, "m_max": 4})
        with pytest.raises(CheckpointMismatchError,
                           match=f"missing parameter {name}"):
            ModelParams.load(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_rejected_on_load(self, tmp_path, bad):
        model = ModelParams.init(np.random.default_rng(11), 4, 4)
        model.gcn.w2.data[1, 2] = bad
        path = tmp_path / "m.json"
        model.save(path)
        with pytest.raises(CheckpointMismatchError, match="gcn.w2"):
            ModelParams.load(path)

    def test_unexpected_parameter_rejected_on_load(self, tmp_path):
        model = ModelParams.init(np.random.default_rng(12), 4, 4)
        path = tmp_path / "m.json"
        T.save_checkpoint(path, {**model.named(), "gcn.w3": np.zeros((6, 6))},
                          {"n_max": 4, "m_max": 4})
        with pytest.raises(CheckpointMismatchError, match="gcn.w3"):
            ModelParams.load(path)

    @pytest.mark.parametrize("fault,match", [
        (edit_w2(dtype="<i8"), "gcn.w2"),
        (edit_w2(dtype=">f8"), "gcn.w2"),
        (edit_w2(dtype="O"), "gcn.w2"),
        (edit_w2(dtype=None), "gcn.w2"),
        (edit_w2(shape=None), "gcn.w2"),
        (edit_w2(data_b64=None), "gcn.w2"),
        (edit_w2(data_b64="@@@@"), "gcn.w2"),
        (edit_w2(shape=[HIDDEN, HIDDEN, 2]), "gcn.w2"),
        (edit_w2(shape=[-HIDDEN, -HIDDEN]), "gcn.w2"),
        (edit_w2(shape=[-1, HIDDEN]), "gcn.w2"),
        (edit_w2(shape=[float(HIDDEN)] * 2), "gcn.w2"),
        (lambda blob: {**blob, "params": {**blob["params"],
                                          "gcn.w2": [0.0]}}, "gcn.w2"),
        (lambda blob: {"manifest": blob["manifest"]}, "params"),
        (lambda blob: {**blob, "manifest": [4, 4]}, "manifest"),
        (lambda blob: [blob], "params"),
    ], ids=["dtype-int", "dtype-big-endian", "dtype-object", "no-dtype",
            "no-shape", "no-data", "data-not-base64", "shape-too-big",
            "shape-negated", "shape-inferred", "shape-fractional",
            "record-not-object", "no-params", "manifest-not-object",
            "file-not-object"])
    def test_malformed_checkpoint_rejected_on_load(self, tmp_path, fault,
                                                   match):
        """Only what `save_checkpoint` writes loads: another dtype's bytes
        would read back as other, finite numbers, and the other faults
        used to escape as a KeyError, ValueError or TypeError."""
        path = tmp_path / "m.json"
        ModelParams.init(np.random.default_rng(14), 4, 4).save(path)
        path.write_text(json.dumps(fault(json.loads(path.read_text()))))
        with pytest.raises(CheckpointMismatchError, match=match):
            ModelParams.load(path)

    @pytest.mark.parametrize("manifest", [
        {"m_max": 4}, {"n_max": 4}, {"n_max": 0, "m_max": 4},
        {"n_max": 4, "m_max": 2.5}, {"n_max": "4", "m_max": 4},
        {"n_max": True, "m_max": 4}],
        ids=["no-n_max", "no-m_max", "zero", "fraction", "string", "bool"])
    def test_manifest_sizes_checked_on_load(self, tmp_path, manifest):
        """A size that is missing, or not a whole number >= 1, is named
        before any parameter is read against it."""
        model = ModelParams.init(np.random.default_rng(13), 4, 4)
        path = tmp_path / "m.json"
        T.save_checkpoint(path, model.named(), manifest)
        with pytest.raises(CheckpointMismatchError, match="n_max"):
            ModelParams.load(path)

    def test_scenario_check(self):
        """Only m_max must match: evaluation plays any agent count."""
        model = ModelParams.init(np.random.default_rng(10), 4, 4)
        model.check_scenario(m_max=4)
        with pytest.raises(CheckpointMismatchError):
            model.check_scenario(m_max=6)
        with pytest.raises(CheckpointMismatchError):
            model.check_scenario(m_max=3)


class TestTrain:
    def test_short_run_writes_artifacts(self, tmp_path):
        cfg = tiny_world()
        pcfg = PPOConfig(train_batch=64, minibatch=16, epochs_per_update=2,
                         learning_rate=1e-3, total_steps=150)
        out = train(cfg, pcfg, seed=0, out_dir=str(tmp_path))
        assert (tmp_path / "checkpoint.json").exists()
        with open(tmp_path / "metrics.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == METRICS_COLUMNS
        assert len(rows) - 1 == out["updates"] >= 2

    def test_negative_seed_creates_no_directory(self, tmp_path):
        pcfg = PPOConfig(train_batch=16, minibatch=16, total_steps=16)
        out = tmp_path / "out"
        with pytest.raises(ValueError):
            train(tiny_world(), pcfg, seed=-1, out_dir=str(out))
        assert not out.exists()

    def test_divergence_names_no_stale_checkpoint(self, tmp_path,
                                                  monkeypatch):
        # an earlier run left a checkpoint in the output directory
        (tmp_path / "checkpoint.json").write_text("{}")

        def diverge(*args, **kwargs):
            raise NumericError("NaN/Inf PPO loss")

        monkeypatch.setattr(ppo, "ppo_update", diverge)
        pcfg = PPOConfig(train_batch=16, minibatch=16, total_steps=16)
        with pytest.raises(NumericError) as err:
            train(tiny_world(), pcfg, seed=0, out_dir=str(tmp_path))
        assert str(err.value).endswith("last good checkpoint: None")

    def test_divergence_names_the_checkpoint_this_run_saved(self, tmp_path,
                                                            monkeypatch):
        update = ppo.ppo_update
        calls = []

        def diverge_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise NumericError("NaN/Inf PPO loss")
            return update(*args, **kwargs)

        monkeypatch.setattr(ppo, "ppo_update", diverge_second)
        monkeypatch.setattr(ppo, "CHECKPOINT_INTERVAL", 1)
        pcfg = PPOConfig(train_batch=16, minibatch=16, epochs_per_update=1,
                         total_steps=64)
        with pytest.raises(NumericError) as err:
            train(tiny_world(), pcfg, seed=0, out_dir=str(tmp_path))
        ckpt = str(tmp_path / "checkpoint.json")
        assert str(err.value).endswith(f"last good checkpoint: {ckpt}")

    def test_acceptance_fixture_is_what_this_code_trains(self, tmp_path,
                                                         monkeypatch):
        """Four updates of `configs/train_desk.json` at seed 0 write the
        first four rows of `runs/acceptance/seed0/metrics.csv`, byte for
        byte, so acceptance criteria 4-6 and 8 judge a policy this code
        trains: a change to training numerics fails here until the
        fixtures are retrained.  The run is the full-length one, stopped
        at its fifth rollout, so a schedule that reads `total_steps`
        runs as it did for the fixture."""
        collect, calls = ppo.collect_rollout, []

        class Stop(Exception):
            pass

        def four_rollouts(*args):
            calls.append(args)
            if len(calls) > 4:
                raise Stop
            return collect(*args)

        monkeypatch.setattr(ppo, "collect_rollout", four_rollouts)
        with open(os.path.join(REPO, "configs", "train_desk.json")) as f:
            blob = json.load(f)
        with pytest.raises(Stop):
            train(WorldConfig.from_dict(blob["world"]),
                  PPOConfig.from_dict(blob["ppo"]), 0, str(tmp_path))
        with open(os.path.join(REPO, "runs", "acceptance", "seed0",
                               "metrics.csv"), "rb") as f:
            fixture = f.read().splitlines(keepends=True)
        assert (tmp_path / "metrics.csv").read_bytes() == \
            b"".join(fixture[:5])

    def test_training_is_deterministic_per_seed(self, tmp_path):
        cfg = tiny_world()
        pcfg = PPOConfig(train_batch=32, minibatch=8, epochs_per_update=1,
                         learning_rate=1e-3, total_steps=40)
        train(cfg, pcfg, seed=3, out_dir=str(tmp_path / "a"))
        train(cfg, pcfg, seed=3, out_dir=str(tmp_path / "b"))
        a = (tmp_path / "a" / "checkpoint.json").read_bytes()
        b = (tmp_path / "b" / "checkpoint.json").read_bytes()
        assert a == b
