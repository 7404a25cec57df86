"""Helpers that several test modules share and the package does not need:
an obstacle-free grid, a field store row decoded to floats, perfbench's
tracer, and the references that the fused tensor ops and the flat Adam
step are checked against bit for bit: the composed layer and loss ops,
the composed PPO minibatch loss and a per-parameter Adam step."""

import importlib.util
import os

import numpy as np

from magnnet import ppo
from magnnet import tensor as T
from magnnet.errors import NumericError, ShapeError
from magnnet.pathplan import Grid
from magnnet.tensor import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, Tensor,
                            _make, _unbroadcast, as_tensor)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def empty_grid(dims) -> Grid:
    return Grid(tuple(dims), np.zeros(tuple(dims), dtype=bool))


def decoded(store, key) -> np.ndarray:
    """The store row of `key`, a (task id, motion model) it holds,
    decoded into a float32 array of the grid's (x, y, z) shape: inf
    where the row has not reached a cell, and off the plane for
    GROUND4."""
    task_id, model = key
    out = np.empty(store.grid.dims, dtype=np.float32)
    store._rings[model].decode(store._held[model].index(task_id), out)
    return out


def load_tracer():
    """perfbench/tracer.py, imported by path as perfbench's checks use it."""
    spec = importlib.util.spec_from_file_location(
        "tracer", os.path.join(REPO, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# composed ops: `tensor.linear`, `tensor.gcn_layer` and `tensor.ppo_loss`
# run these chains' numpy calls in their order, so values and gradients
# must match exactly

def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def bwd(g):
        # a constant operand (an adjacency, input features) gets no gradient
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _make(out_data, (a, b), bwd)


def relu(x):
    x = as_tensor(x)
    keep = x.data > 0.0
    return _make(x.data * keep, (x,), lambda g: (g * keep,))


def tsum(x):
    x = as_tensor(x)
    return _make(x.data.sum(), (x,),
                 lambda g: (np.full_like(x.data, float(g)),))


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.data.shape), -_unbroadcast(g, b.data.shape)

    return _make(out_data, (a, b), bwd)


def exp(x):
    x = as_tensor(x)
    out_data = np.exp(x.data)
    return _make(out_data, (x,), lambda g: (g * out_data,))


def minimum(a, b):
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data <= b.data  # ties route gradient to a

    def bwd(g):
        return (_unbroadcast(g * take_a, a.data.shape),
                _unbroadcast(g * ~take_a, b.data.shape))

    return _make(np.minimum(a.data, b.data), (a, b), bwd)


def clip(x, lo, hi):
    x = as_tensor(x)
    inside = (x.data > lo) & (x.data < hi)
    return _make(np.clip(x.data, lo, hi), (x,), lambda g: (g * inside,))


def composed_ppo_loss(probs, values, actions, old_logp, adv, ret,
                      clip_eps, value_coef, entropy_coef):
    """The op chain `tensor.ppo_loss` fuses, with its arguments and
    results."""
    logp_new = T.log(T.gather_rows(probs, actions))
    entropy = T.mean(T.entropy_rows(probs))
    ratio = exp(sub(logp_new, Tensor(old_logp)))
    adv_t = Tensor(adv)
    surrogate = minimum(T.mul(ratio, adv_t),
                        T.mul(clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps),
                              adv_t))
    policy_loss = T.mul(T.mean(surrogate), -1.0)
    value_loss = T.mean(T.square(sub(values, Tensor(ret))))
    loss = T.add(T.add(policy_loss, T.mul(value_loss, value_coef)),
                 T.mul(entropy, -entropy_coef))
    stats = {
        "policy_loss": float(policy_loss.data),
        "value_loss": float(value_loss.data),
        "entropy": float(entropy.data),
        "clip_fraction": float(np.mean(
            np.abs(ratio.data - 1.0) > clip_eps)),
    }
    return loss, stats


def composed_minibatch_loss(steps, adv, ret, model, config):
    """`ppo._minibatch_loss` with the loss as the composed chain."""
    dist, values = ppo._forward_steps(
        model, [s.graph for s in steps],
        np.concatenate([s.obs for s in steps]),
        np.concatenate([s.masks for s in steps]), with_value=True)
    return composed_ppo_loss(
        dist.probs, values, np.concatenate([s.actions for s in steps]),
        np.concatenate([s.log_probs for s in steps]), adv.ravel(), ret,
        ppo.CLIP_EPSILON, ppo.VALUE_COEF, config.entropy_coef)


def per_param_adam_step(params, grads, state, lr):
    """`tensor.adam_step` one parameter at a time, its moments a list of
    arrays shaped like the parameters."""
    if state.m is None:
        state.m = [np.zeros_like(p.data) for p in params]
        state.v = [np.zeros_like(p.data) for p in params]
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise NumericError("NaN/Inf gradient passed to adam_step")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return state
