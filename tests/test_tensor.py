"""Autodiff kernel tests: every gradient is cross-checked against central
finite differences, the fused layers and the PPO loss node against the
op chains they replace (bit for bit), Adam against the closed-form
update and the flat step against a per-parameter one (bit for bit),
checkpoints against bit-exact round trips, and NaN/Inf against the
checked boundaries."""

import numpy as np
import pytest

from magnnet import tensor as T
from magnnet.errors import NumericError, ShapeError
from magnnet.gnn import HIDDEN
from magnnet.policy import actor_forward, init_actor_params
from magnnet.ppo import (GAE_LAMBDA, GAMMA, ModelParams, PPOConfig,
                         collect_rollout, compute_gae, ppo_update)
from magnnet.tensor import AdamState, Tensor, adam_step, backward, zero_grads
from magnnet.world import WorldConfig

import helpers as ops

RNG = np.random.default_rng(1234)


def fd_grad(f, params, eps=1e-6):
    """Central finite differences of a scalar-valued f() w.r.t. params."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.ravel()
        gflat = g.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            hi = f()
            flat[k] = orig - eps
            lo = f()
            flat[k] = orig
            gflat[k] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def check_against_fd(build, params, rtol=1e-6):
    """build() returns the scalar loss tensor using `params`."""
    zero_grads(params)
    loss = build()
    analytic = backward(loss, params)
    numeric = fd_grad(lambda: float(build().data), params)
    for a, n in zip(analytic, numeric):
        scale = max(1.0, np.abs(n).max())
        assert np.max(np.abs(a - n)) / scale < rtol, \
            f"gradient mismatch: max err {np.max(np.abs(a - n)) / scale}"


class TestForwardOps:
    def test_matmul_values(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        assert np.allclose(ops.matmul(a, b).data, [[17.0], [39.0]])

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeError):
            ops.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_add_broadcast_shape_error(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))

    def test_softmax_matches_closed_form(self):
        row = np.array([0.3, -1.2, 2.0])
        e = np.exp(row - row.max())
        p = T.masked_softmax(Tensor(row[None]), np.ones((1, 3), dtype=bool))
        assert np.allclose(p.data[0], e / e.sum())

    def test_masked_softmax_zeroes_masked(self):
        logits = Tensor(np.array([[1.0, 2.0, 3.0]]))
        mask = np.array([[True, False, True]])
        p = T.masked_softmax(logits, mask)
        assert p.data[0, 1] == 0.0
        assert np.isclose(p.data.sum(), 1.0)

    def test_masked_softmax_all_masked_row_raises(self):
        with pytest.raises(ShapeError):
            T.masked_softmax(Tensor(np.zeros((1, 3))),
                             np.zeros((1, 3), dtype=bool))

    def test_entropy_uniform(self):
        p = Tensor(np.full((1, 4), 0.25))
        assert np.isclose(T.entropy_rows(p).data[0], np.log(4.0))

    def test_entropy_deterministic_is_zero(self):
        p = Tensor(np.array([[0.0, 1.0, 0.0]]))
        assert T.entropy_rows(p).data[0] == 0.0

    def test_log_rejects_nonpositive(self):
        with pytest.raises(NumericError):
            T.log(Tensor(np.array([1.0, 0.0])))

    def test_nonfinite_raises(self):
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            ops.exp(Tensor(np.array([1e308])))

    def test_gather_rows(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        out = T.gather_rows(x, [2, 0])
        assert np.allclose(out.data, [2.0, 3.0])

    def test_minimum_tie_prefers_first(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([1.0]), requires_grad=True)
        out = ops.tsum(ops.minimum(a, b))
        ga, gb = backward(out, [a, b])
        assert ga[0] == 1.0 and gb[0] == 0.0


class TestGradientsAgainstFiniteDifferences:
    def test_two_layer_relu_network(self):
        w1 = T.param(RNG.normal(size=(4, 5)) * 0.5)
        b1 = T.param(RNG.normal(size=5) * 0.1)
        w2 = T.param(RNG.normal(size=(5, 2)) * 0.5)
        b2 = T.param(RNG.normal(size=2) * 0.1)
        x = Tensor(RNG.normal(size=(3, 4)))

        def build():
            h = ops.relu(T.add(ops.matmul(x, w1), b1))
            return T.mean(T.square(T.add(ops.matmul(h, w2), b2)))

        check_against_fd(build, [w1, b1, w2, b2])

    def test_softmax_cross_entropy_like_loss(self):
        w = T.param(RNG.normal(size=(3, 4)) * 0.3)
        x = Tensor(RNG.normal(size=(6, 3)))
        actions = RNG.integers(4, size=6)

        def build():
            p = T.masked_softmax(ops.matmul(x, w), np.ones((6, 4), dtype=bool))
            return T.mul(T.mean(T.log(T.gather_rows(p, actions))), -1.0)

        check_against_fd(build, [w])

    def test_masked_softmax_entropy_path(self):
        w = T.param(RNG.normal(size=(3, 5)) * 0.3)
        x = Tensor(RNG.normal(size=(4, 3)))
        mask = np.ones((4, 5), dtype=bool)
        mask[1, 2:] = False
        mask[3, 1] = False

        def build():
            p = T.masked_softmax(ops.matmul(x, w), mask)
            return T.mean(T.entropy_rows(p))

        check_against_fd(build, [w])

    def test_clip_minimum_exp_chain(self):
        # the surrogate chain `T.ppo_loss` fuses
        w = T.param(RNG.normal(size=(4, 1)) * 0.2)
        x = Tensor(RNG.normal(size=(7, 4)))
        old = Tensor(RNG.normal(size=7) * 0.1)
        adv = Tensor(RNG.normal(size=7))

        def build():
            logp = T.reshape(ops.matmul(x, w), (7,))
            ratio = ops.exp(ops.sub(logp, old))
            surr = ops.minimum(T.mul(ratio, adv),
                               T.mul(ops.clip(ratio, 0.8, 1.2), adv))
            return T.mul(T.mean(surr), -1.0)

        check_against_fd(build, [w])

    def test_concat_slice_reshape_chain(self):
        a = T.param(RNG.normal(size=(2, 3)))
        b = T.param(RNG.normal(size=(2, 3)))

        def build():
            cat = T.concat([a, b], axis=0)
            top = T.slice_rows(cat, 1, 3)
            return ops.tsum(T.square(T.reshape(top, (6,))))

        check_against_fd(build, [a, b])

    def test_unused_parameter_gets_zero_gradient(self):
        used = T.param(np.ones(3))
        unused = T.param(np.ones(2))
        loss = ops.tsum(T.square(used))
        grads = backward(loss, [used, unused])
        assert np.allclose(grads[0], 2.0)
        assert np.allclose(grads[1], 0.0)

    def test_reused_tensor_accumulates(self):
        x = T.param(np.array([2.0]))
        loss = ops.tsum(T.add(T.mul(x, x), x))  # x^2 + x -> grad 2x + 1
        (g,) = backward(loss, [x])
        assert np.isclose(g[0], 5.0)

    def test_operand_listed_twice_is_walked_once(self):
        x = T.param(np.array([2.0, -1.0]))
        (g,) = backward(ops.tsum(T.mul(x, x)), [x])
        assert np.array_equal(g, [4.0, -2.0])

    def test_broadcast_over_a_size_one_axis(self):
        a = T.param(RNG.normal(size=(3, 1)))
        b = T.param(RNG.normal(size=(4,)))
        check_against_fd(lambda: ops.tsum(T.square(T.add(a, b))), [a, b])

    def test_no_params_returns_nothing_but_sets_leaf_grads(self):
        x = T.param(np.array([3.0]))
        assert backward(ops.tsum(T.square(x)), []) == []
        assert np.allclose(x.grad, 6.0)

    def test_backward_requires_scalar(self):
        x = T.param(np.ones((2, 2)))
        with pytest.raises(ShapeError):
            backward(T.square(x), [x])


def composed_linear(x, w, b, relu=False):
    """The op chain `T.linear` fuses."""
    z = T.add(ops.matmul(x, w), b)
    return ops.relu(z) if relu else z


def composed_gcn_layer(adj, h, w, b):
    """The op chain `T.gcn_layer` fuses."""
    return ops.relu(T.add(ops.matmul(ops.matmul(Tensor(adj), h), w), b))


def random_adjacency(rng, n):
    """Row-normalized non-negative n x n weights with self-loops."""
    a = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.6)
    a += np.eye(n)
    return a / a.sum(axis=1, keepdims=True)


def linear_case(seed, x_is_param, width):
    rng = np.random.default_rng(seed)
    x = (T.param if x_is_param else Tensor)(rng.normal(size=(5, 4)))
    w = T.param(rng.normal(size=(4, width)) * 0.5)
    b = T.param(rng.normal(size=width) * 0.3)
    weights = Tensor(rng.normal(size=(5, width)))
    params = [w, b] + ([x] if x_is_param else [])
    return x, w, b, weights, params


def gcn_case(seed):
    rng = np.random.default_rng(seed)
    adj = random_adjacency(rng, 6)
    h = T.param(rng.normal(size=(6, 4)))
    w = T.param(rng.normal(size=(4, 3)) * 0.5)
    b = T.param(rng.normal(size=3) * 0.3)
    weights = Tensor(rng.normal(size=(6, 3)))
    return adj, h, w, b, weights, [h, w, b]


def loss_and_grads(build, params):
    zero_grads(params)
    out = build()
    grads = backward(ops.tsum(T.square(out)), params)
    return out.data, grads


class TestFusedLayers:
    @pytest.mark.parametrize("relu", [False, True], ids=["affine", "relu"])
    @pytest.mark.parametrize("x_is_param", [False, True],
                             ids=["x-const", "x-param"])
    def test_linear_against_fd(self, relu, x_is_param):
        x, w, b, weights, params = linear_case(21, x_is_param, 3)
        check_against_fd(
            lambda: T.mean(T.mul(T.square(T.linear(x, w, b, relu=relu)),
                                 weights)), params)

    def test_gcn_layer_against_fd(self):
        adj, h, w, b, weights, params = gcn_case(22)
        check_against_fd(
            lambda: T.mean(T.mul(T.square(T.gcn_layer(adj, h, w, b)),
                                 weights)), params)

    def test_gcn_layer_constant_input_gets_no_gradient(self):
        adj, h, w, b, _, _ = gcn_case(23)
        h = Tensor(h.data)
        grads = backward(ops.tsum(T.gcn_layer(adj, h, w, b)), [w, b])
        assert h.grad is None and all(np.isfinite(g).all() for g in grads)

    @pytest.mark.parametrize("width", [3, 1])
    @pytest.mark.parametrize("relu", [False, True], ids=["affine", "relu"])
    @pytest.mark.parametrize("x_is_param", [False, True],
                             ids=["x-const", "x-param"])
    def test_linear_equals_composed_chain(self, relu, x_is_param, width):
        x, w, b, _, params = linear_case(24, x_is_param, width)
        fused, fused_grads = loss_and_grads(
            lambda: T.linear(x, w, b, relu=relu), params)
        chain, chain_grads = loss_and_grads(
            lambda: composed_linear(x, w, b, relu=relu), params)
        assert np.array_equal(fused, chain)
        for f, c in zip(fused_grads, chain_grads):
            assert np.array_equal(f, c)

    def test_gcn_layer_equals_composed_chain(self):
        adj, h, w, b, _, params = gcn_case(25)
        fused, fused_grads = loss_and_grads(
            lambda: T.gcn_layer(adj, h, w, b), params)
        chain, chain_grads = loss_and_grads(
            lambda: composed_gcn_layer(adj, h, w, b), params)
        assert np.array_equal(fused, chain)
        for f, c in zip(fused_grads, chain_grads):
            assert np.array_equal(f, c)

    def test_stacked_layers_equal_composed_chain(self):
        # linear -> two gcn layers -> a relu linear head, the embedding
        # feeding the head twice, as agent embeddings feed actor and critic
        rng = np.random.default_rng(26)
        adj = random_adjacency(rng, 5)
        x = Tensor(rng.normal(size=(5, 7)))
        w0, w1, w2 = (T.param(rng.normal(size=s) * 0.5)
                      for s in ((7, 4), (4, 4), (4, 4)))
        b0, b1, b2 = (T.param(rng.normal(size=4) * 0.3) for _ in range(3))
        wh, bh = T.param(rng.normal(size=(4, 2))), T.param(rng.normal(size=2))
        params = [w0, b0, w1, b1, w2, b2, wh, bh]

        def net(lin, layer):
            h = layer(adj, layer(adj, lin(x, w0, b0), w1, b1), w2, b2)
            return T.concat([lin(h, wh, bh, relu=True),
                             lin(T.slice_rows(h, 1, 3), wh, bh)], axis=0)

        fused, fused_grads = loss_and_grads(
            lambda: net(T.linear, T.gcn_layer), params)
        chain, chain_grads = loss_and_grads(
            lambda: net(composed_linear, composed_gcn_layer), params)
        assert np.array_equal(fused, chain)
        for f, c in zip(fused_grads, chain_grads):
            assert np.array_equal(f, c)

    def test_relu_passes_nan_on(self):
        # the layers are unchecked: a NaN must reach the next boundary
        w = T.param(np.array([[np.nan, 1.0]]))
        out = T.linear(Tensor(np.ones((1, 1))), w, T.param(np.zeros(2)),
                       relu=True)
        assert np.isnan(out.data[0, 0])

    def test_shape_errors(self):
        w, b = T.param(np.ones((3, 2))), T.param(np.zeros(2))
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.ones((2, 4))), w, b)
        with pytest.raises(ShapeError):
            T.gcn_layer(np.eye(2), Tensor(np.ones((2, 4))), w, b)


PPO_LOSS_EDGES = ["generic", "ratio-one", "upper-bound", "lower-bound",
                  "zero-advantages"]


def ppo_loss_case(edge, seed=51):
    """Logits, values, mask and the constant arguments of `T.ppo_loss`
    for 8 transitions over 2 steps.  Every row masks some actions, so
    `entropy_rows` meets zero probabilities, and row 3 has one open
    action, of probability 1.  `edge` picks the ratios: all exactly 1
    (every `minimum` a tie), one exactly at 1 + clip_eps or 1 - clip_eps,
    or zero advantages."""
    rng = np.random.default_rng(seed)
    n, width, steps = 8, 5, 2
    logits = T.param(rng.normal(size=(n, width)))
    mask = rng.uniform(size=(n, width)) < 0.6
    mask[:, 0] = True
    mask[3, 1:] = False
    values = T.param(rng.normal(size=steps))
    actions = np.array([rng.choice(np.flatnonzero(m)) for m in mask])
    taken = T.masked_softmax(logits, mask).data[np.arange(n), actions]
    old_logp = np.log(taken)
    if edge != "ratio-one":
        old_logp = old_logp + rng.normal(scale=0.3, size=n)
    ratio = np.exp(np.log(taken) - old_logp)
    # r - 1 and 1 - r are exact for r in [0.5, 2], so 1 + (r - 1) == r
    clip_eps = {"upper-bound": ratio.max() - 1.0,
                "lower-bound": 1.0 - ratio.min()}.get(edge, 0.2)
    adv = np.zeros(n) if edge == "zero-advantages" else rng.normal(size=n)
    consts = [actions, old_logp, adv, rng.normal(size=steps), clip_eps,
              0.5, 0.05]
    return logits, values, mask, consts


def run_ppo_loss(loss_fn, logits, values, mask, consts):
    """(loss value, stats, gradients of logits and values) of one
    `loss_fn` with `T.ppo_loss`'s arguments."""
    zero_grads([logits, values])
    loss, stats = loss_fn(T.masked_softmax(logits, mask), values, *consts)
    return loss.data, stats, backward(loss, [logits, values])


class TestPPOLoss:
    """`T.ppo_loss` against the op chain it fuses, bit for bit, at the
    edges of its branches, and against finite differences."""

    @pytest.mark.parametrize("edge", PPO_LOSS_EDGES)
    def test_equals_composed_chain(self, edge):
        case = ppo_loss_case(edge)
        loss, stats, grads = run_ppo_loss(T.ppo_loss, *case)
        ref, ref_stats, ref_grads = run_ppo_loss(ops.composed_ppo_loss,
                                                 *case)
        assert loss == ref and stats == ref_stats
        for g, r in zip(grads, ref_grads):
            assert np.array_equal(g, r)
        # the case reaches its edge
        actions, old_logp, adv, _, clip_eps, _, _ = case[3]
        probs = T.masked_softmax(case[0], case[2]).data
        ratio = np.exp(np.log(probs[np.arange(8), actions]) - old_logp)
        assert (probs == 0.0).any() and probs[3, 0] == 1.0
        assert (ratio == 1.0).all() == (edge == "ratio-one")
        assert (ratio == 1.0 + clip_eps).any() == (edge == "upper-bound")
        assert (ratio == 1.0 - clip_eps).any() == (edge == "lower-bound")
        assert (adv == 0.0).all() == (edge == "zero-advantages")

    def test_against_fd(self):
        logits, values, mask, consts = ppo_loss_case("generic")
        check_against_fd(
            lambda: T.ppo_loss(T.masked_softmax(logits, mask), values,
                               *consts)[0], [logits, values])

    @pytest.mark.parametrize("fault", [
        "zero-probability-action", "overflowing-ratio", "infinite-old-logp",
        "overflowing-surrogate", "overflowing-value-loss", "nan-return"])
    def test_raises_where_the_chain_raises(self, fault):
        """Each fault makes the composed chain raise at one of its
        checked ops; the fused node must raise too.  An infinite old
        log-probability gives a ratio of 0 and an overflowing surrogate
        term loses to the clipped one in `minimum`: neither reaches the
        loss."""
        logits, values, mask, consts = ppo_loss_case("generic")
        actions, old_logp, adv, ret = (np.array(c, dtype=float)
                                       for c in consts[:4])
        actions = actions.astype(int)
        taken = np.log(T.masked_softmax(logits, mask).data[0, actions[0]])
        if fault == "zero-probability-action":
            actions[0] = np.flatnonzero(~mask[0])[0]
        elif fault == "overflowing-ratio":
            old_logp[0] = taken - 710.0
        elif fault == "infinite-old-logp":
            old_logp[0] = np.inf
        elif fault == "overflowing-surrogate":
            old_logp[0], adv[0] = taken - 709.0, 10.0
        elif fault == "overflowing-value-loss":
            ret[0] = 1e200
        else:
            ret[1] = np.nan
        consts = [actions, old_logp, adv, ret] + consts[4:]
        for loss_fn in (ops.composed_ppo_loss, T.ppo_loss):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(NumericError):
                run_ppo_loss(loss_fn, logits, values, mask, consts)


class TestFiniteBoundaries:
    def _actor_inputs(self, m_max=4):
        rng = np.random.default_rng(31)
        p = init_actor_params(rng, m_max)
        obs = rng.uniform(size=(3, m_max + 1))
        emb = Tensor(rng.normal(size=(3, HIDDEN)))
        return p, obs, emb, np.ones((3, m_max + 1), dtype=bool)

    def test_nan_weight_raises_in_actor_forward(self):
        p, obs, emb, mask = self._actor_inputs()
        p.w1.data[2, 5] = np.nan
        with pytest.raises(NumericError):
            actor_forward(obs, emb, p, mask)

    def test_nan_logit_under_the_mask_raises(self):
        p, obs, emb, mask = self._actor_inputs()
        p.b2.data[3] = np.nan
        mask[:, 3] = False
        with pytest.raises(NumericError):
            actor_forward(obs, emb, p, mask)

    def test_inf_embedding_raises_in_actor_forward(self):
        p, obs, emb, mask = self._actor_inputs()
        emb.data[1, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            actor_forward(obs, emb, p, mask)

    @pytest.mark.parametrize("name", ["gcn.w1", "actor.w2", "critic.b2"])
    def test_nan_parameter_raises_in_ppo_update(self, name):
        cfg = WorldConfig(grid_dims=(12, 12, 4), n_agents=2,
                          n_tasks_initial=2, n_ground=1, n_aerial=1)
        pcfg = PPOConfig(train_batch=8, minibatch=4, epochs_per_update=1)
        model = ModelParams.init(np.random.default_rng(32), 2, cfg.m_max)
        buf = collect_rollout(cfg, model, pcfg, np.random.default_rng(33))
        adv, ret = compute_gae(buf, GAMMA, GAE_LAMBDA)
        model.named()[name].data.flat[0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            ppo_update(buf, adv, ret, model, pcfg, AdamState(),
                       np.random.default_rng(34))


class TestNoGrad:
    def test_no_tape_inside_no_grad(self):
        w = T.param(np.ones((2, 2)))
        with T.no_grad():
            out = ops.matmul(Tensor(np.ones((1, 2))), w)
        assert out._parents == () and not out.requires_grad

    def test_values_identical_with_and_without_tape(self):
        w = T.param(RNG.normal(size=(3, 3)))
        x = Tensor(RNG.normal(size=(2, 3)))
        with_tape = T.masked_softmax(ops.matmul(x, w), np.ones((2, 3), bool))
        with T.no_grad():
            without = T.masked_softmax(ops.matmul(x, w), np.ones((2, 3), bool))
        assert np.array_equal(with_tape.data, without.data)


class TestAdam:
    def test_first_step_closed_form(self):
        p = T.param(np.array([1.0, -2.0]))
        g = np.array([0.5, -0.25])
        adam_step([p], [g], AdamState(), 0.1)
        # bias-corrected first step moves by ~lr * sign(g)
        expect = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
        assert np.allclose(p.data, expect, atol=1e-6)

    def test_two_steps_match_reference(self):
        p = T.param(np.array([0.0]))
        st = AdamState()
        m = v = 0.0
        x = 0.0
        for t in (1, 2, 3):
            g = 2.0 * x - 3.0
            adam_step([p], [np.array([g])], st, 0.01)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x -= 0.01 * (m / (1 - 0.9 ** t)) / \
                (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            assert np.isclose(p.data[0], x)

    def test_nan_gradient_raises(self):
        p = T.param(np.array([1.0]))
        with pytest.raises(NumericError):
            adam_step([p], [np.array([np.nan])], AdamState(), 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_of_any_parameter_changes_nothing(self, bad):
        params = [T.param(np.ones((2, 3))), T.param(np.zeros(4))]
        grads = [np.full((2, 3), 0.5), np.array([0.1, bad, 0.2, 0.3])]
        st = AdamState()
        with pytest.raises(NumericError):
            adam_step(params, grads, st, 0.1)
        assert st.step == 0 and st.m is None
        assert (params[0].data == 1.0).all() and (params[1].data == 0.0).all()

    def test_flat_step_equals_per_parameter_steps(self):
        """Five steps over parameters of several shapes, a 0-d one and
        one whose gradient is a transposed view among them."""
        rng = np.random.default_rng(61)
        shapes = [(4, 3), (3,), (), (1, 5), (3, 4)]
        params, ref = ([T.param(np.full(s, 0.25)) for s in shapes]
                       for _ in range(2))
        st, ref_st = AdamState(), AdamState()
        for _ in range(5):
            grads = [rng.normal(size=s) for s in shapes[:-1]]
            grads.append(rng.normal(size=(4, 3)).T)
            adam_step(params, grads, st, 0.01)
            ops.per_param_adam_step(ref, grads, ref_st, 0.01)
            for p, q in zip(params, ref):
                assert p.data.shape == q.data.shape
                assert np.array_equal(p.data, q.data)
        assert st.step == ref_st.step == 5

    def test_descends_quadratic(self):
        p = T.param(np.array([5.0]))
        st = AdamState()
        for _ in range(500):
            adam_step([p], [2.0 * p.data], st, 0.1)
        assert abs(p.data[0]) < 0.05


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        params = {"w": T.param(RNG.normal(size=(4, 3))),
                  "b": T.param(RNG.normal(size=3))}
        path = tmp_path / "ck.json"
        T.save_checkpoint(path, params, {"tag": 7})
        loaded, manifest = T.load_checkpoint(path)
        assert manifest == {"tag": 7}
        for k, p in params.items():
            assert loaded[k].tobytes() == p.data.tobytes()

    def test_accepts_raw_arrays(self, tmp_path):
        path = tmp_path / "ck.json"
        arr = RNG.normal(size=(2, 2))
        T.save_checkpoint(path, {"x": arr})
        loaded, _ = T.load_checkpoint(path)
        assert np.array_equal(loaded["x"], arr)


class TestGlorot:
    def test_bounds_and_determinism(self):
        a = T.glorot_uniform(np.random.default_rng(3), 10, 20)
        b = T.glorot_uniform(np.random.default_rng(3), 10, 20)
        limit = np.sqrt(6.0 / 30.0)
        assert np.array_equal(a, b)
        assert np.abs(a).max() <= limit

    def test_one_uniform_draw_at_the_glorot_limit(self):
        """Initial weights are the generator's own uniform draw on
        +-sqrt(6 / (fan_in + fan_out)), to the bit."""
        w = T.glorot_uniform(np.random.default_rng(4), 14, 10)
        ref = np.random.default_rng(4).uniform(-0.5, 0.5, size=(14, 10))
        assert w.tobytes() == ref.tobytes()
