"""Actor/critic tests: widths, masking, uniformity at zero weights,
batched and unbatched critic values, and sampling statistics."""

import numpy as np
import pytest

from magnnet.errors import ShapeError
from magnnet.gnn import HIDDEN
from magnnet.policy import (ACTOR_HIDDEN, ActorParams, actor_forward,
                            critic_forward, init_actor_params,
                            init_critic_params, sample_action)
from magnnet.tensor import Tensor

M_MAX = 4


def zero_actor(m_max=M_MAX):
    p = init_actor_params(np.random.default_rng(0), m_max)
    for t in p.parameters():
        t.data = np.zeros_like(t.data)
    return p


class TestActor:
    def test_input_width_is_m_plus_7(self):
        p = init_actor_params(np.random.default_rng(1), M_MAX)
        assert p.w1.data.shape == (M_MAX + 7, ACTOR_HIDDEN)
        assert p.w2.data.shape == (ACTOR_HIDDEN, M_MAX + 1)
        assert p.m_max == M_MAX

    def test_uniform_at_zero_weights(self):
        p = zero_actor()
        obs = np.random.default_rng(2).normal(size=(3, M_MAX + 1))
        emb = Tensor(np.zeros((3, HIDDEN)))
        dist = actor_forward(obs, emb, p, np.ones((3, M_MAX + 1), bool))
        assert np.allclose(dist.p, 1.0 / (M_MAX + 1))

    def test_masked_entries_zero_probability(self):
        p = init_actor_params(np.random.default_rng(3), M_MAX)
        mask = np.ones((2, M_MAX + 1), bool)
        mask[0, 2] = False
        mask[1, 1:] = False
        dist = actor_forward(np.zeros((2, M_MAX + 1)),
                             Tensor(np.zeros((2, HIDDEN))), p, mask)
        assert dist.p[0, 2] == 0.0
        assert dist.p[1, 0] == 1.0
        assert np.allclose(dist.p.sum(axis=1), 1.0)

    def test_reject_mask_rejected(self):
        p = init_actor_params(np.random.default_rng(4), M_MAX)
        mask = np.ones((1, M_MAX + 1), bool)
        mask[0, 0] = False
        with pytest.raises(ShapeError):
            actor_forward(np.zeros((1, M_MAX + 1)),
                          Tensor(np.zeros((1, HIDDEN))), p, mask)

    def test_wrong_obs_width_rejected(self):
        p = init_actor_params(np.random.default_rng(5), M_MAX)
        with pytest.raises(ShapeError):
            actor_forward(np.zeros((1, M_MAX + 3)),
                          Tensor(np.zeros((1, HIDDEN))), p,
                          np.ones((1, M_MAX + 3), bool))

    def test_wrong_embedding_width_rejected(self):
        p = init_actor_params(np.random.default_rng(11), M_MAX)
        with pytest.raises(ShapeError, match="embedding width"):
            actor_forward(np.zeros((2, M_MAX + 1)),
                          Tensor(np.zeros((2, HIDDEN + 1))), p,
                          np.ones((2, M_MAX + 1), bool))


class TestCritic:
    def test_scalar_output(self):
        p = init_critic_params(np.random.default_rng(7), n_max=4, m_max=M_MAX)
        v = critic_forward(Tensor(np.zeros((4, HIDDEN))),
                           np.zeros((M_MAX, 4)), p)
        assert v.data.shape == ()

    def test_batch_axis_gives_one_value_per_state(self):
        p = init_critic_params(np.random.default_rng(9), n_max=4, m_max=M_MAX)
        rng = np.random.default_rng(10)
        embs = rng.normal(size=(3, 4, HIDDEN))
        tasks = rng.normal(size=(3, M_MAX, 4))
        v = critic_forward(Tensor(embs), tasks, p)
        assert v.data.shape == (3,)
        for k in range(3):
            one = critic_forward(Tensor(embs[k]), tasks[k], p).data
            assert abs(v.data[k] - one) <= 1e-12 * max(1.0, abs(one))

    def test_width_mismatch_rejected(self):
        p = init_critic_params(np.random.default_rng(8), n_max=4, m_max=M_MAX)
        with pytest.raises(ShapeError):
            critic_forward(Tensor(np.zeros((5, HIDDEN))),
                           np.zeros((M_MAX, 4)), p)

    def test_batched_width_mismatch_rejected(self):
        """A batch of states with one agent row too many is refused,
        not folded into a different number of states."""
        p = init_critic_params(np.random.default_rng(12), n_max=4, m_max=M_MAX)
        with pytest.raises(ShapeError, match="critic input width"):
            critic_forward(Tensor(np.zeros((3, 5, HIDDEN))),
                           np.zeros((3, M_MAX, 4)), p)


class TestSampling:
    def test_greedy_takes_argmax(self):
        probs = np.array([[0.1, 0.7, 0.2], [0.6, 0.3, 0.1]])
        from magnnet.policy import ActionDistribution
        from magnnet.tensor import Tensor
        dist = ActionDistribution(Tensor(probs))
        actions, logp = sample_action(dist, np.random.default_rng(0),
                                      greedy=True)
        assert list(actions) == [1, 0]
        assert np.allclose(logp, np.log([0.7, 0.6]))

    def test_sampling_matches_distribution(self):
        from magnnet.policy import ActionDistribution
        from magnnet.tensor import Tensor
        probs = np.array([[0.2, 0.8]])
        dist = ActionDistribution(Tensor(probs))
        rng = np.random.default_rng(1)
        draws = [sample_action(dist, rng)[0][0] for _ in range(2000)]
        assert 0.75 < np.mean(draws) < 0.85

    def test_never_samples_masked_action(self):
        from magnnet.policy import ActionDistribution
        from magnnet.tensor import Tensor
        probs = np.array([[0.5, 0.0, 0.5]])
        dist = ActionDistribution(Tensor(probs))
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, _ = sample_action(dist, rng)
            assert a[0] != 1

    def test_deterministic_per_rng_state(self):
        from magnnet.policy import ActionDistribution
        from magnnet.tensor import Tensor
        probs = np.full((5, 3), 1 / 3)
        dist = ActionDistribution(Tensor(probs))
        a1, _ = sample_action(dist, np.random.default_rng(9))
        a2, _ = sample_action(dist, np.random.default_rng(9))
        assert np.array_equal(a1, a2)

    @pytest.mark.parametrize("width", [2, 5, 21, 41])
    def test_draws_equal_per_row_choice(self, width):
        """One `rng.random(N)` call with a cdf count per row gives the
        same actions, log-probabilities and generator state as the
        per-row `rng.choice` loop it replaces, the reference here."""
        from magnnet.policy import ActionDistribution
        from magnnet.tensor import Tensor
        tables = np.random.default_rng(width)
        for k in range(50):
            n = int(tables.integers(1, 25))
            mask = tables.random((n, width)) < 0.6
            mask[:, 0] = True
            probs = np.where(mask, tables.random((n, width)), 0.0)
            probs /= probs.sum(axis=1, keepdims=True)
            dist = ActionDistribution(Tensor(probs))
            rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
            actions, logp = sample_action(dist, rng)
            ref = np.array([ref_rng.choice(width, p=row / row.sum())
                            for row in probs])
            assert np.array_equal(actions, ref)
            assert np.array_equal(logp, np.log(probs[np.arange(n), ref]))
            assert rng.random() == ref_rng.random()
