"""Trainer tests: GAE closed forms, clipped-surrogate arithmetic,
rollout integrity, model checkpoints and a short end-to-end train run."""

import csv

import numpy as np
import pytest

from magnnet.errors import CheckpointMismatchError
from magnnet.ppo import (METRICS_COLUMNS, ModelParams, PPOConfig,
                         RolloutBuffer, StepRecord, collect_rollout,
                         compute_gae, ppo_update, train)
from magnnet.tensor import AdamState
from magnnet.world import Episode, WorldConfig


def tiny_world(**kw):
    base = dict(grid_dims=(15, 15, 6), n_agents=4, n_tasks_initial=4,
                n_ground=2, n_aerial=2, obstacle_density=0.08)
    base.update(kw)
    return WorldConfig(**base)


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

    def test_gamma_bounds(self):
        with pytest.raises(ValueError):
            PPOConfig(gamma=0.0)


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
        buf = collect_rollout(lambda s: Episode(cfg, s), model, pcfg,
                              np.random.default_rng(1))
        assert buf.n_transitions >= 64
        assert buf.steps[-1].done  # ends on an episode boundary
        dones = sum(1 for s in buf.steps if s.done)
        assert dones == buf.episode_count

    def test_log_probs_consistent_with_actions(self):
        cfg = tiny_world()
        pcfg = PPOConfig(train_batch=16, minibatch=16)
        model = ModelParams.init(np.random.default_rng(2), 4, cfg.m_max)
        buf = collect_rollout(lambda s: Episode(cfg, s), model, pcfg,
                              np.random.default_rng(3))
        from magnnet.ppo import _forward_step
        for step in buf.steps[:5]:
            dist, _ = _forward_step(model, step.graph, step.obs, step.masks,
                                    with_value=False)
            p = dist.p[np.arange(len(step.actions)), step.actions]
            assert np.allclose(np.log(p), step.log_probs)


class TestPPOUpdate:
    def _small_batch(self):
        cfg = tiny_world()
        pcfg = PPOConfig(train_batch=32, minibatch=8, epochs_per_update=2,
                         learning_rate=1e-3)
        model = ModelParams.init(np.random.default_rng(4), 4, cfg.m_max)
        buf = collect_rollout(lambda s: Episode(cfg, s), model, pcfg,
                              np.random.default_rng(5))
        return model, buf, pcfg

    def test_update_changes_parameters_and_reports_stats(self):
        model, buf, pcfg = self._small_batch()
        before = [p.data.copy() for p in model.parameters()]
        adv, ret = compute_gae(buf, pcfg.gamma, pcfg.gae_lambda)
        stats = ppo_update(buf, adv, ret, model, pcfg,
                           AdamState(lr=pcfg.learning_rate),
                           np.random.default_rng(6))
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
        from magnnet import tensor as T
        from magnnet.ppo import _forward_step
        step = buf.steps[0]
        dist, _ = _forward_step(model, step.graph, step.obs, step.masks,
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
                   AdamState(lr=pcfg2.learning_rate),
                   np.random.default_rng(7))
        # zero advantages and no entropy bonus: actor head stays put
        # (ratio == 1 exactly, min(1*0, clip(1)*0) has zero gradient)
        for b, p in zip(actor_before, model.actor.parameters()):
            assert np.allclose(b, p.data, atol=1e-12)


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

    def test_critic_optional_on_load(self, tmp_path):
        model = ModelParams.init(np.random.default_rng(9), 4, 4,
                                 with_critic=False)
        path = tmp_path / "m.json"
        model.save(path)
        again = ModelParams.load(path)
        assert again.critic is None

    def test_scenario_check(self):
        model = ModelParams.init(np.random.default_rng(10), 4, 4)
        model.check_scenario(n_agents=4, m_max=4)
        with pytest.raises(CheckpointMismatchError):
            model.check_scenario(n_agents=5, m_max=4)
        with pytest.raises(CheckpointMismatchError):
            model.check_scenario(n_agents=4, m_max=6)


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

    def test_training_is_deterministic_per_seed(self, tmp_path):
        cfg = tiny_world()
        pcfg = PPOConfig(train_batch=32, minibatch=8, epochs_per_update=1,
                         learning_rate=1e-3, total_steps=40)
        train(cfg, pcfg, seed=3, out_dir=str(tmp_path / "a"))
        train(cfg, pcfg, seed=3, out_dir=str(tmp_path / "b"))
        a = (tmp_path / "a" / "checkpoint.json").read_bytes()
        b = (tmp_path / "b" / "checkpoint.json").read_bytes()
        assert a == b
