"""Minimal dense float64 kernel with reverse-mode autodiff and Adam.

Everything is sized for tiny networks (a few thousand parameters): each
op records itself on an implicit tape (the parent links of the output
tensor) and `backward` replays the tape in reverse topological order.  A
network layer is one fused op, `linear` or `gcn_layer`, and PPO's loss
is one more, `ppo_loss`, each with a hand-written backward.  Adam steps
all parameters as one flat vector.  All storage is numpy float64.

Finiteness is checked at boundaries, each raising NumericError on NaN/Inf:
- the outputs of the arithmetic ops (`log`, `entropy_rows`, `mean`,
  `mul`, `square`, `add`, `masked_softmax`), from which acceptance
  criterion 3 builds its loss;
- the actor's logits (`policy.actor_forward`), before a mask can hide
  them;
- in `ppo_loss`, the log-ratio, both surrogate terms and the loss (and
  the taken actions' probabilities, which must be > 0);
- the gradients `adam_step` applies.
The fused layers and the data-movement ops (`concat`, `slice_rows`,
`reshape`, `gather_rows`) go unchecked.  From finite
inputs they make no NaN/Inf except by overflow, and they pass any NaN/Inf
on to a checked boundary (a ReLU keeps NaN: `nan * False` is nan).
"""

from __future__ import annotations

import base64
import json
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from .errors import CheckpointMismatchError, NumericError, ShapeError

_grad_enabled = True

# Finite stand-in for -inf logits: exp(x - max) underflows to exactly 0.0
# so masked probabilities come out exactly zero without Inf entering data.
NEG_INF_LOGIT = -1e30


@contextmanager
def no_grad():
    """Disable tape recording (rollout / evaluation fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def check_finite(data: np.ndarray, what: str = "value produced") -> None:
    if not np.isfinite(data).all():
        raise NumericError(f"non-finite {what}")


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None


def param(data) -> Tensor:
    """Leaf parameter tensor."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


class ParamBundle:
    """Base of a dataclass whose fields are all parameter tensors: their
    names are the subclass's `prefix` dot field name, in field order."""

    def named(self) -> dict:
        return {f"{self.prefix}.{f.name}": getattr(self, f.name)
                for f in fields(self)}

    def parameters(self) -> list:
        return list(self.named().values())


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(data, parents, backward_fn) -> Tensor:
    """Wrap `data` as an op output, on the tape unless grad is off or no
    parent needs a gradient."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _make(data, parents, backward_fn) -> Tensor:
    """`_record` for an op whose output is checked for NaN/Inf."""
    check_finite(data)
    return _record(data, parents, backward_fn)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# forward ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out_data = a.data + b.data
    except ValueError as e:
        raise ShapeError(f"add: {a.data.shape} + {b.data.shape}") from e

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(out_data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def bwd(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), bwd)


def linear(x, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """`x @ w + b`, then `z * (z > 0)` when `relu`, as one tape node.

    Runs the numpy calls of `add(matmul(x, w), b)` (and `relu`) in their
    order, and its backward forms the same products, so values and
    gradients equal the composed chain's bit for bit."""
    x = as_tensor(x)
    if x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"linear: {x.data.shape} @ {w.data.shape}")
    z = x.data @ w.data + b.data
    if relu:
        keep = z > 0.0
        z = z * keep

    def bwd(g):
        if relu:
            g = g * keep
        # a constant input (node features) gets no gradient
        return (g @ w.data.T if x.requires_grad else None,
                x.data.T @ g, _unbroadcast(g, b.data.shape))

    return _record(z, (x, w, b), bwd)


def gcn_layer(adj: np.ndarray, h: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`relu((adj @ h) @ w + b)` for a constant numpy adjacency `adj`, as
    one tape node with the composed chain's numpy calls (see `linear`)."""
    h = as_tensor(h)
    if h.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"gcn_layer: {h.data.shape} @ {w.data.shape}")
    ah = adj @ h.data
    z = ah @ w.data + b.data
    keep = z > 0.0

    def bwd(g):
        g = g * keep
        return (adj.T @ (g @ w.data.T) if h.requires_grad else None,
                ah.T @ g, _unbroadcast(g, b.data.shape))

    return _record(z * keep, (h, w, b), bwd)


def log(x: Tensor) -> Tensor:
    x = as_tensor(x)
    if np.any(x.data <= 0.0):
        raise NumericError("log of non-positive value")
    return _make(np.log(x.data), (x,), lambda g: (g / x.data,))


def square(x: Tensor) -> Tensor:
    x = as_tensor(x)
    return _make(x.data ** 2, (x,), lambda g: (2.0 * g * x.data,))


def mean(x: Tensor) -> Tensor:
    x = as_tensor(x)
    n = x.data.size
    return _make(x.data.mean(), (x,),
                 lambda g: (np.full_like(x.data, float(g) / n),))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)

    def bwd(g):
        splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
        return tuple(np.split(g, splits, axis=axis))

    return _record(out_data, tuple(tensors), bwd)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    x = as_tensor(x)

    def bwd(g):
        full = np.zeros_like(x.data)
        full[start:stop] = g
        return (full,)

    return _record(x.data[start:stop], (x,), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    return _record(x.data.reshape(shape), (x,),
                   lambda g: (g.reshape(x.data.shape),))


def gather_rows(x: Tensor, idx) -> Tensor:
    """out[i] = x[i, idx[i]] for a 2-D input."""
    x = as_tensor(x)
    idx = np.asarray(idx, dtype=np.intp)
    rows = np.arange(x.data.shape[0])

    def bwd(g):
        full = np.zeros_like(x.data)
        full[rows, idx] = g
        return (full,)

    return _record(x.data[rows, idx], (x,), bwd)


def masked_softmax(logits: Tensor, mask) -> Tensor:
    """Row softmax with masked entries forced to exactly zero probability.

    `mask` is a boolean array (True = valid) and is not differentiated.
    """
    logits = as_tensor(logits)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != logits.data.shape:
        raise ShapeError(f"mask {mask.shape} vs logits {logits.data.shape}")
    if not mask.any(axis=-1).all():
        raise ShapeError("masked_softmax: a row has no valid entry")
    z = np.where(mask, logits.data, NEG_INF_LOGIT)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return ((g - dot) * s * mask,)

    return _make(s, (logits,), bwd)


def entropy_rows(probs: Tensor) -> Tensor:
    """Per-row Shannon entropy (natural log); zero entries contribute zero."""
    probs = as_tensor(probs)
    p = probs.data
    pos = p > 0.0
    logp = np.where(pos, np.log(np.where(pos, p, 1.0)), 0.0)
    h = -(p * logp).sum(axis=-1)

    def bwd(g):
        return (np.where(pos, -(logp + 1.0), 0.0) * np.expand_dims(g, -1),)

    return _make(h, (probs,), bwd)


def ppo_loss(probs: Tensor, values: Tensor, actions, old_logp, adv, ret,
             clip_eps: float, value_coef: float, entropy_coef: float):
    """PPO's clipped-surrogate loss with value and entropy terms as one
    tape node, and its minibatch's statistics: (loss, stats).

    `probs` holds one row of action probabilities per agent transition
    and `values` one value per decision step; the constants `actions`,
    `old_logp` and `adv` hold one entry per transition, `ret` one value
    target per step.  With r = exp(log(probs[i, actions[i]]) - old_logp),

        loss = -mean(min(r * adv, clip(r, 1 - clip_eps, 1 + clip_eps) * adv))
               + value_coef * mean((values - ret) ** 2)
               - entropy_coef * mean(entropy_rows(probs)).

    It runs the numpy calls of that loss composed of one op each (`log`,
    `gather_rows`, `entropy_rows`, `mean`, `mul`, `square`, `add`, and
    an exp, sub, clip and minimum), in their order, and its backward
    forms the same products, so values and gradients equal the composed
    chain's bit for bit (see `linear`).  It raises NumericError wherever
    that chain's checked ops did: for a taken action of probability
    <= 0, and for a non-finite log-ratio, surrogate term (a non-finite
    ratio makes the unclipped one so) or loss.  Any other NaN/Inf the
    chain stopped at reaches the loss."""
    p = probs.data
    rows = np.arange(p.shape[0])
    idx = np.asarray(actions, dtype=np.intp)
    adv = np.asarray(adv, dtype=np.float64)
    taken = p[rows, idx]
    if np.any(taken <= 0.0):
        raise NumericError("log of non-positive value")
    pos = p > 0.0
    logp = np.where(pos, np.log(np.where(pos, p, 1.0)), 0.0)
    h = -(p * logp).sum(axis=-1)
    entropy = h.mean()
    d = np.log(taken) - np.asarray(old_logp, dtype=np.float64)
    check_finite(d)
    ratio = np.exp(d)
    s1 = ratio * adv
    lo, hi = 1.0 - clip_eps, 1.0 + clip_eps
    inside = (ratio > lo) & (ratio < hi)
    s2 = np.clip(ratio, lo, hi) * adv
    check_finite(s1)  # a non-finite ratio makes it non-finite too
    check_finite(s2)
    take = s1 <= s2  # ties route gradient to the unclipped term
    surr = np.minimum(s1, s2)
    policy_loss = surr.mean() * -1.0
    dv = values.data - np.asarray(ret, dtype=np.float64)
    value_loss = (dv ** 2).mean()
    loss = (policy_loss + value_loss * value_coef) + entropy * -entropy_coef
    check_finite(loss)

    def bwd(g):
        g = float(g)  # the gradient of both terms of each `add`
        g_h = np.full_like(h, g * -entropy_coef / h.size)
        g_probs = np.where(pos, -(logp + 1.0), 0.0) * np.expand_dims(g_h, -1)
        g_dv = 2.0 * np.full_like(dv, g * value_coef / dv.size) * dv
        g_surr = np.full_like(surr, g * -1.0 / surr.size)
        # `ratio` feeds both surrogate terms: a two-term sum, as on the tape
        g_ratio = (g_surr * take) * adv + ((g_surr * ~take) * adv) * inside
        full = np.zeros_like(p)
        full[rows, idx] = g_ratio * ratio / taken
        return full + g_probs, g_dv.reshape(values.data.shape)

    stats = {"policy_loss": float(policy_loss),
             "value_loss": float(value_loss),
             "entropy": float(entropy),
             "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > clip_eps))}
    return _record(loss, (probs, values), bwd), stats


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(out: Tensor, params) -> list:
    """Reverse-accumulate gradients of a scalar `out`.

    Sets `.grad` on every reachable leaf with requires_grad and returns
    the gradients of `params` in order, with zeros for leaves the output
    does not depend on.
    """
    if out.data.size != 1:
        raise ShapeError(f"backward needs a scalar output, got {out.data.shape}")

    # tensors hash by identity, so they key the walk's set and dict; a
    # constant gets no gradient, so the walk leaves it out
    topo: list[Tensor] = []
    seen: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(out, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and p not in seen:
                stack.append((p, False))

    grads: dict[Tensor, np.ndarray] = {out: np.ones_like(out.data)}
    for node in reversed(topo):
        g = grads.pop(node)  # `out`'s seed, or a gradient from a consumer
        if node._backward_fn is None:
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            continue
        for p, pg in zip(node._parents, node._backward_fn(g)):
            if p.requires_grad:
                grads[p] = grads[p] + pg if p in grads else pg

    return [p.grad if p.grad is not None else np.zeros_like(p.data)
            for p in params]


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam's step count and moments, the moments of all parameters as
    one flat vector each (`adam_step`'s order)."""

    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(params: list[Tensor], grads: list[np.ndarray],
              state: AdamState, lr: float) -> AdamState:
    """One bias-corrected Adam update at rate `lr`, in place on
    `params`.  The gradients are laid end to end in one flat vector, so
    the finiteness check and the moment and step arithmetic run once;
    each parameter then subtracts its own slice of the step."""
    flat = np.concatenate([np.ravel(g) for g in grads])
    if not np.isfinite(flat).all():
        raise NumericError("NaN/Inf gradient passed to adam_step")
    if state.m is None:
        state.m, state.v = np.zeros_like(flat), np.zeros_like(flat)
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * flat
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * flat * flat
    step = lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    lo = 0
    for p in params:
        hi = lo + p.data.size
        p.data -= step[lo:hi].reshape(p.data.shape)
        lo = hi
    return state


# ---------------------------------------------------------------------------
# init + checkpoints
# ---------------------------------------------------------------------------

def glorot_uniform(rng: np.random.Generator, fan_in: int,
                   fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def save_checkpoint(path, named_params: dict, manifest: dict | None = None):
    """Write parameters as a JSON manifest with base64 float64 payloads.

    Round trip is bit-exact: arrays are serialized as raw little-endian
    float64 bytes.
    """
    blob = {"manifest": manifest or {}, "params": {}}
    for name, value in named_params.items():
        arr = value.data if isinstance(value, Tensor) else np.asarray(value)
        arr = np.ascontiguousarray(arr, dtype="<f8")
        blob["params"][name] = {
            "shape": list(arr.shape),
            "dtype": "<f8",
            "data_b64": base64.b64encode(arr.tobytes()).decode("ascii"),
        }
    with open(path, "w") as f:
        json.dump(blob, f)


def load_checkpoint(path):
    """Inverse of save_checkpoint: returns (dict name -> ndarray, manifest).

    Only what save_checkpoint writes loads; anything else raises
    CheckpointMismatchError: a file that cannot be opened or is not UTF-8
    JSON (the caller names the file), or a record with a missing key, a
    dtype other than "<f8" (its bytes would read as other numbers) or a
    shape that does not hold the payload."""
    try:
        with open(path, encoding="utf-8") as f:
            blob = json.load(f)
    except OSError as exc:
        raise CheckpointMismatchError(exc.strerror) from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointMismatchError(f"not UTF-8 JSON: {exc}") from None
    if not (isinstance(blob, dict) and isinstance(blob.get("params"), dict)
            and isinstance(blob.get("manifest", {}), dict)):
        raise CheckpointMismatchError("no params or manifest object")
    params = {}
    for name, rec in blob["params"].items():
        try:
            if rec["dtype"] != "<f8":
                raise ValueError(f"dtype {rec['dtype']!r} is not '<f8'")
            raw = base64.b64decode(rec["data_b64"], validate=True)
            arr = np.frombuffer(raw, dtype="<f8").reshape(rec["shape"])
            if list(arr.shape) != rec["shape"]:   # a -1 infers an axis
                raise ValueError(f"shape {rec['shape']}")
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointMismatchError(f"record {name}: {exc!r}") from None
        params[name] = arr.astype(np.float64)
    return params, blob.get("manifest", {})
