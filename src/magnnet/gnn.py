"""Heterogeneous agent-task graph and 2-layer graph-convolution encoder.

Agent nodes carry [normalized position (3), status (1), normalized
velocity (1), normalized slot costs (m_max)], the status and costs
being the agent's `world.observation` row; task nodes carry
[normalized location (3), assigned flag (1)].  The graph is complete
bipartite agent-task; each edge carries weight 1/(1+c_ij) used to weight
the degree-normalized mean aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ParamBundle, Tensor
from .world import EpisodeState, TaskStatus, observation, slot_cost_array

HIDDEN = 6
VELOCITY_SCALE = 10.0


@dataclass
class HeteroGraph:
    agent_x: np.ndarray          # N x (5 + m_max)
    task_x: np.ndarray           # M_live x 4
    edge_w: np.ndarray           # N x M_live, 1/(1+c); 0 where unreachable
    task_slots: list             # observation slot of each live task

    @property
    def n_agents(self) -> int:
        return self.agent_x.shape[0]

    @property
    def n_tasks(self) -> int:
        return self.task_x.shape[0]


@dataclass
class GCNParams(ParamBundle):
    """Per-type input projections to width 6 plus two conv layers."""

    prefix = "gcn"

    wa: Tensor
    ba: Tensor
    wt: Tensor
    bt: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


def init_gcn_params(rng: np.random.Generator, m_max: int) -> GCNParams:
    agent_in = 5 + m_max
    return GCNParams(
        wa=T.param(T.glorot_uniform(rng, agent_in, HIDDEN)),
        ba=T.param(np.zeros(HIDDEN)),
        wt=T.param(T.glorot_uniform(rng, 4, HIDDEN)),
        bt=T.param(np.zeros(HIDDEN)),
        w1=T.param(T.glorot_uniform(rng, HIDDEN, HIDDEN)),
        b1=T.param(np.zeros(HIDDEN)),
        w2=T.param(T.glorot_uniform(rng, HIDDEN, HIDDEN)),
        b2=T.param(np.zeros(HIDDEN)),
    )


def build_graph(state: EpisodeState, cm, obs=None) -> HeteroGraph:
    """Assemble node features and edge weights from the live world.

    `obs` is the observation `Episode.observe` returned with `cm` this
    round; without it the observation is rebuilt from `cm`."""
    cfg = state.config
    dims = np.asarray(cfg.grid_dims, dtype=np.float64)
    live = state.live_tasks()
    if obs is None:
        obs, _ = observation(state, slot_cost_array(state, cm))

    pos = np.array([a.position for a in state.agents],
                   dtype=np.float64).reshape(-1, 3)
    agent_x = np.empty((len(state.agents), 5 + cfg.m_max))
    agent_x[:, :3] = pos / dims
    agent_x[:, 3] = obs[:, 0]
    agent_x[:, 4] = [a.velocity / VELOCITY_SCALE for a in state.agents]
    agent_x[:, 5:] = obs[:, 1:]

    task_x = np.empty((len(live), 4))
    task_x[:, :3] = np.array([t.location for t in live],
                             dtype=np.float64).reshape(-1, 3) / dims
    task_x[:, 3] = [t.status is TaskStatus.ASSIGNED for t in live]

    edge_w = np.where(np.isfinite(cm.entries), 1.0 / (1.0 + cm.entries), 0.0)

    return HeteroGraph(agent_x, task_x, edge_w, state.live_slots())


def batch_graphs(graphs) -> HeteroGraph:
    """Disjoint union of `graphs` as one graph.

    Agent rows and task rows are stacked in graph order, and each graph's
    `edge_w` sits on the block diagonal with zeros (no edge) between
    graphs, so every node still aggregates over its own graph only and
    `gcn_encode` of the union stacks the per-graph agent embeddings.
    """
    edge_w = np.zeros((sum(g.n_agents for g in graphs),
                       sum(g.n_tasks for g in graphs)))
    i = j = 0
    for g in graphs:
        edge_w[i:i + g.n_agents, j:j + g.n_tasks] = g.edge_w
        i += g.n_agents
        j += g.n_tasks
    return HeteroGraph(np.concatenate([g.agent_x for g in graphs]),
                       np.concatenate([g.task_x for g in graphs]),
                       edge_w,
                       [slot for g in graphs for slot in g.task_slots])


def _norm_adjacency(g: HeteroGraph) -> np.ndarray:
    """Row-normalized (self-loop included) weighted adjacency over the
    stacked [agents; tasks] node ordering."""
    n, m = g.n_agents, g.n_tasks
    size = n + m
    a = np.eye(size)
    if m:
        a[:n, n:] = g.edge_w
        a[n:, :n] = g.edge_w.T
    return a / a.sum(axis=1, keepdims=True)


def gcn_encode(g: HeteroGraph, p: GCNParams) -> Tensor:
    """Two rounds of weighted-mean message passing; returns the agent
    rows, one 6-vector per agent."""
    h = T.linear(g.agent_x, p.wa, p.ba)
    if g.n_tasks:
        h = T.concat([h, T.linear(g.task_x, p.wt, p.bt)], axis=0)
    adj = _norm_adjacency(g)
    h = T.gcn_layer(adj, h, p.w1, p.b1)
    h = T.gcn_layer(adj, h, p.w2, p.b2)
    return T.slice_rows(h, 0, g.n_agents)


def padded_task_features(g: HeteroGraph, m_max: int) -> np.ndarray:
    """Task features laid out by observation slot, zero rows for absent
    slots; feeds the centralized critic."""
    out = np.zeros((m_max, 4))
    out[g.task_slots] = g.task_x
    return out
