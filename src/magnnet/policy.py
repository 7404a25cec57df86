"""Shared per-agent actor and centralized critic.

One ActorParams instance serves every agent (parameter sharing); agents
differ only through their observations and graph embeddings.  The critic
consumes the full padded global state and runs only during training;
every checkpoint carries its parameters, and evaluation never reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .gnn import HIDDEN
from .tensor import ParamBundle, Tensor

ACTOR_HIDDEN = 128
CRITIC_HIDDEN = 128


@dataclass
class ActorParams(ParamBundle):
    """(m_max + 7) -> 128 -> (m_max + 1), ReLU hidden, softmax head."""

    prefix = "actor"

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @property
    def m_max(self) -> int:
        return self.w2.data.shape[1] - 1


@dataclass
class CriticParams(ParamBundle):
    """(6*n_max + 4*m_max) -> 128 -> 1."""

    prefix = "critic"

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class ActionDistribution:
    probs: Tensor          # rows over m_max + 1 actions; masked ones are 0

    @property
    def p(self) -> np.ndarray:
        return self.probs.data


def init_actor_params(rng: np.random.Generator, m_max: int) -> ActorParams:
    n_in = m_max + 7
    n_out = m_max + 1
    return ActorParams(
        w1=T.param(T.glorot_uniform(rng, n_in, ACTOR_HIDDEN)),
        b1=T.param(np.zeros(ACTOR_HIDDEN)),
        w2=T.param(T.glorot_uniform(rng, ACTOR_HIDDEN, n_out)),
        b2=T.param(np.zeros(n_out)),
    )


def init_critic_params(rng: np.random.Generator, n_max: int,
                       m_max: int) -> CriticParams:
    n_in = HIDDEN * n_max + 4 * m_max
    return CriticParams(
        w1=T.param(T.glorot_uniform(rng, n_in, CRITIC_HIDDEN)),
        b1=T.param(np.zeros(CRITIC_HIDDEN)),
        w2=T.param(T.glorot_uniform(rng, CRITIC_HIDDEN, 1)),
        b2=T.param(np.zeros(1)),
    )


def actor_forward(obs: np.ndarray, emb: Tensor, p: ActorParams,
                  mask: np.ndarray) -> ActionDistribution:
    """Masked softmax policy over {reject, request slot 1..m_max}.

    `obs` holds one float row [status, slot costs] of length m_max + 1
    per agent, `emb` the agents' 6-wide embeddings, and `mask` one bool
    row per agent.
    """
    if obs.shape[1] != p.m_max + 1:
        raise ShapeError(f"obs width {obs.shape[1]} != m_max+1 = {p.m_max + 1}")
    if emb.data.shape[1] != HIDDEN:
        raise ShapeError(f"embedding width {emb.data.shape[1]} != {HIDDEN}")
    if not mask[:, 0].all():
        raise ShapeError("reject action must never be masked")
    x = T.concat([Tensor(obs), emb], axis=1)
    logits = T.linear(T.linear(x, p.w1, p.b1, relu=True), p.w2, p.b2)
    # the layers pass NaN/Inf on unchecked; masking would hide it here
    T.check_finite(logits.data, "actor logit")
    return ActionDistribution(T.masked_softmax(logits, mask))


def critic_forward(agent_embs: Tensor, task_feats: np.ndarray,
                   p: CriticParams) -> Tensor:
    """Value of the global state.

    `agent_embs` is n_max x 6 (zero rows for absent agents), `task_feats`
    m_max x 4 (zero rows for absent slots); the value is 0-d.  With a
    leading batch axis (B x n_max x 6 and B x m_max x 4) the states are
    evaluated together and the result holds B values.
    """
    batched = agent_embs.data.ndim == 3
    rows = agent_embs.data.shape[0] if batched else 1
    flat = T.concat([T.reshape(agent_embs, (rows, -1)),
                     Tensor(task_feats.reshape(rows, -1))], axis=1)
    if flat.data.shape[1] != p.w1.data.shape[0]:
        raise ShapeError(
            f"critic input width {flat.data.shape[1]} != {p.w1.data.shape[0]}")
    v = T.linear(T.linear(flat, p.w1, p.b1, relu=True), p.w2, p.b2)
    return T.reshape(v, (rows,) if batched else ())


def sample_action(dist: ActionDistribution, rng: np.random.Generator,
                  greedy: bool = False):
    """Draw one action per row; returns (actions, natural-log probs).

    A row's draw is `rng.choice(len(row), p=row / row.sum())`, done for
    every row at once: `Generator.choice` normalizes the cdf of p, draws
    one uniform and returns the count of cdf entries <= it
    (`searchsorted(side="right")`).  One `rng.random(N)` call consumes
    the same uniforms as N `choice` calls, so the draws are equal."""
    p = dist.p
    if greedy:
        actions = p.argmax(axis=1)
    else:
        cdf = np.cumsum(p / p.sum(axis=1, keepdims=True), axis=1)
        cdf /= cdf[:, -1:]
        actions = np.count_nonzero(cdf <= rng.random(len(p))[:, None],
                                   axis=1)
    logp = np.log(p[np.arange(len(actions)), actions])
    return actions, logp
