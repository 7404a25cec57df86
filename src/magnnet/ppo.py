"""CTDE training loop: rollout collection, GAE, clipped-surrogate PPO
updates with an entropy bonus, metrics logging and checkpointing.

All agents share one actor; their transitions pool into a single buffer.
The centralized critic sees the global state (all agent embeddings +
all task slot features); every checkpoint carries it, and evaluation
never runs it.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import CheckpointMismatchError, NumericError, ShapeError
from .gnn import (GCNParams, HIDDEN, batch_graphs, build_graph, gcn_encode,
                  init_gcn_params, padded_task_features)
from .policy import (ActorParams, CriticParams, actor_forward, critic_forward,
                     init_actor_params, init_critic_params, sample_action)
from .tensor import AdamState, adam_step, backward, zero_grads
from .world import Episode, WorldConfig, _whole, terminal_bonus

CHECKPOINT_INTERVAL = 25  # updates between periodic checkpoints

# the conventional PPO values (Schulman et al., 2017): discount, GAE
# lambda, clip range of the surrogate ratio, and the value-loss weight
GAMMA = 0.99
GAE_LAMBDA = 0.95
CLIP_EPSILON = 0.2
VALUE_COEF = 0.5


@dataclass
class PPOConfig:
    learning_rate: float = 1e-5
    train_batch: int = 512
    minibatch: int = 64
    epochs_per_update: int = 10
    entropy_coef: float = 0.05
    total_steps: int = 100_000

    def __post_init__(self):
        self.validate()

    def validate(self):
        # a non-finite rate or coefficient diverges at the first update
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if not 0 <= self.entropy_coef < np.inf:
            raise ValueError("entropy_coef must be finite and >= 0")
        # a fractional count dies in `train` as a range bound or runs
        # silently as a buffer size; with no epoch an update logs nan
        # losses, and with no step the untrained model is the result
        for name in ("train_batch", "minibatch", "epochs_per_update",
                     "total_steps"):
            if not (_whole(getattr(self, name)) and getattr(self, name) >= 1):
                raise ValueError(f"{name} must be a whole number >= 1")
        if self.train_batch % self.minibatch != 0:
            raise ValueError("minibatch must divide train_batch")

    @classmethod
    def from_dict(cls, d: dict) -> "PPOConfig":
        return cls(**d)


@dataclass
class ModelParams:
    """Full parameter bundle: encoder, shared actor and centralized
    critic.  Evaluation runs the encoder and actor only."""

    gcn: GCNParams
    actor: ActorParams
    critic: CriticParams
    n_max: int
    m_max: int

    def named(self) -> dict:
        return {name: p for bundle in (self.gcn, self.actor, self.critic)
                for name, p in bundle.named().items()}

    def parameters(self) -> list:
        return list(self.named().values())

    @classmethod
    def init(cls, rng: np.random.Generator, n_max: int,
             m_max: int) -> "ModelParams":
        return cls(
            gcn=init_gcn_params(rng, m_max),
            actor=init_actor_params(rng, m_max),
            critic=init_critic_params(rng, n_max, m_max),
            n_max=n_max, m_max=m_max)

    def save(self, path) -> None:
        T.save_checkpoint(path, self.named(),
                          {"n_max": self.n_max, "m_max": self.m_max})

    @classmethod
    def load(cls, path) -> "ModelParams":
        arrays, manifest = T.load_checkpoint(path)
        sizes = [manifest.get(key) for key in ("n_max", "m_max")]
        if not all(_whole(n) and n >= 1 for n in sizes):
            raise CheckpointMismatchError(
                f"manifest n_max, m_max = {sizes}: need whole numbers >= 1")
        model = cls.init(np.random.default_rng(0), *sizes)
        unknown = sorted(arrays.keys() - model.named().keys())
        if unknown:
            raise CheckpointMismatchError(f"unexpected parameters {unknown}")
        for name, p in model.named().items():
            if name not in arrays:
                raise CheckpointMismatchError(f"missing parameter {name}")
            if tuple(arrays[name].shape) != p.data.shape:
                raise CheckpointMismatchError(
                    f"{name}: shape {arrays[name].shape} != {p.data.shape}")
            if not np.isfinite(arrays[name]).all():
                raise CheckpointMismatchError(f"{name}: non-finite value")
            p.data = arrays[name]
        return model

    def check_scenario(self, m_max: int) -> None:
        """Evaluation runs the encoder and actor only, whose widths depend
        on m_max alone, so any agent count plays; the critic's agent
        count is checked where training runs it (`_forward_steps`)."""
        if m_max != self.m_max:
            raise CheckpointMismatchError(
                f"checkpoint m_max={self.m_max} does not match scenario "
                f"m_max={m_max}")


@dataclass
class StepRecord:
    """One synchronous decision round for all agents."""

    graph: object
    obs: np.ndarray        # N x (m_max + 1)
    masks: np.ndarray      # N x (m_max + 1)
    actions: np.ndarray    # N
    log_probs: np.ndarray  # N
    rewards: np.ndarray    # N
    value: float           # centralized estimate at this state
    done: bool = False     # last decision step of its episode
    wall_s: float = 0.0    # its share of its pass's observe-to-act span
    episode: int = 0       # index of its episode in `play`'s list


@dataclass
class RolloutBuffer:
    steps: list = field(default_factory=list)
    episode_rewards: list = field(default_factory=list)  # team reward / episode
    episode_count: int = 0

    @property
    def n_transitions(self) -> int:
        return sum(len(s.actions) for s in self.steps)

    @property
    def n_agents(self) -> int:
        return len(self.steps[0].actions)


def _forward_steps(model: ModelParams, graphs, obs, masks, with_value: bool):
    """Policy and value of one or more decision steps in one pass over the
    disjoint union of their graphs.  `obs` and `masks` stack the steps'
    agent rows in graph order; the values hold one entry per graph."""
    emb = gcn_encode(graphs[0] if len(graphs) == 1 else batch_graphs(graphs),
                     model.gcn)
    dist = actor_forward(obs, emb, model.actor, masks)
    values = None
    if with_value:
        # the critic reads n_max agent rows per graph, and a reshape of
        # the stacked rows groups them by graph only when each has n_max
        for g in graphs:
            if g.n_agents != model.n_max:
                raise ShapeError(f"critic needs {model.n_max} agents per "
                                 f"graph, got {g.n_agents}")
        values = critic_forward(
            T.reshape(emb, (len(graphs), model.n_max, HIDDEN)),
            np.stack([padded_task_features(g, model.m_max) for g in graphs]),
            model.critic)
    return dist, values


def policy(model: ModelParams, rng=None):
    """Magnnet's `decide` for `play`: per round, its graph, one no-grad
    forward pass and either sampled actions and the critic's value (with
    `rng`, training) or each agent's argmax and no value (evaluation)."""
    def decide(rounds):
        out = []
        for ep, obs, masks, cm in rounds:
            graph = build_graph(ep.state, cm, obs)
            with T.no_grad():
                dist, value = _forward_steps(model, [graph], obs, masks,
                                             with_value=rng is not None)
                actions, logps = sample_action(dist, rng, greedy=rng is None)
            value = 0.0 if value is None else float(value.data[0])
            out.append((actions, logps, value, graph))
        return out
    return decide


def play(episodes: list, decide):
    """Play `episodes` to their ends in lockstep.  Each pass observes the
    due episodes in list order, calls `decide` once with their rounds
    [(episode, obs, masks, cost matrix)], acts on the (actions, log_probs,
    value, graph) it returns per round, yields one StepRecord per round,
    tagged with its episode's index, and ticks every live episode.  The
    records share the pass's observe-to-act span evenly as `wall_s`."""
    while live := [k for k, ep in enumerate(episodes) if not ep.terminated]:
        if due := [k for k in live if episodes[k].decision_due()]:
            t0 = time.perf_counter()
            rounds = [(episodes[k], *episodes[k].observe()[:3]) for k in due]
            picks = decide(rounds)
            rewards = [episodes[k].act(p[0]).rewards
                       for k, p in zip(due, picks)]
            wall_s = (time.perf_counter() - t0) / len(due)
            for k, (_, obs, masks, _), (actions, logps, value, graph), r \
                    in zip(due, rounds, picks, rewards):
                yield StepRecord(graph, obs, masks, actions, logps, r, value,
                                 wall_s=wall_s, episode=k)
        for k in live:
            episodes[k].tick()


def collect_rollout(world_config: WorldConfig, model: ModelParams,
                    config: PPOConfig,
                    rng: np.random.Generator) -> RolloutBuffer:
    """Run whole episodes of `world_config`, each seeded from `rng`, under
    the current policy until the buffer holds at least config.train_batch
    transitions.

    Episodes always run to termination, so every recorded trajectory is
    terminal and GAE needs no bootstrap value.
    """
    buffer = RolloutBuffer()
    while buffer.n_transitions < config.train_batch:
        ep = Episode(world_config, int(rng.integers(2 ** 31)))
        ep_steps = list(play([ep], policy(model, rng)))
        if ep.all_tasks_done():
            ep_steps[-1].rewards += terminal_bonus(ep.optimal_total(),
                                                   ep.achieved_total())
        ep_steps[-1].done = True
        buffer.steps.extend(ep_steps)
        buffer.episode_rewards.append(
            float(sum(s.rewards.mean() for s in ep_steps)))
        buffer.episode_count += 1
    return buffer


def compute_gae(buffer: RolloutBuffer, gamma: float, lam: float):
    """Per-agent generalized advantage estimates on individual rewards.

    delta_t = r_t + gamma * V_{t+1} * (1 - done) - V_t
    A_t     = delta_t + gamma * lam * (1 - done) * A_{t+1}

    Every trajectory ends in a terminal step, so nothing is bootstrapped.
    Returns (advantages, returns), each shaped (n_steps, n_agents);
    returns = advantages + values.
    """
    n_steps = len(buffer.steps)
    n_agents = buffer.n_agents
    advantages = np.zeros((n_steps, n_agents))
    last_adv = np.zeros(n_agents)
    next_value = 0.0
    for t in range(n_steps - 1, -1, -1):
        step = buffer.steps[t]
        nonterminal = 0.0 if step.done else 1.0
        delta = step.rewards + gamma * next_value * nonterminal - step.value
        last_adv = delta + gamma * lam * nonterminal * last_adv
        advantages[t] = last_adv
        next_value = step.value
    values = np.array([[s.value] * n_agents for s in buffer.steps])
    return advantages, advantages + values


def _minibatch_loss(steps, adv: np.ndarray, ret: np.ndarray,
                    model: ModelParams, config: PPOConfig):
    """Clipped-surrogate loss with value and entropy terms over the
    decision steps `steps`, in one forward pass.

    `adv` holds the steps' normalized advantages, one row of agents per
    step; `ret` holds one value target per step.  Returns the scalar loss
    tensor and the minibatch's statistics.
    """
    dist, values = _forward_steps(
        model, [s.graph for s in steps],
        np.concatenate([s.obs for s in steps]),
        np.concatenate([s.masks for s in steps]), with_value=True)
    return T.ppo_loss(dist.probs, values,
                      np.concatenate([s.actions for s in steps]),
                      np.concatenate([s.log_probs for s in steps]),
                      adv.ravel(), ret, CLIP_EPSILON, VALUE_COEF,
                      config.entropy_coef)


def ppo_update(buffer: RolloutBuffer, advantages: np.ndarray,
               returns: np.ndarray, model: ModelParams, config: PPOConfig,
               adam: AdamState, rng: np.random.Generator) -> dict:
    """Clipped-surrogate PPO epochs over shuffled minibatches.

    Minibatches are drawn at decision-step granularity, so all of a
    step's agent transitions stay together; with the default sizes each
    minibatch still holds `minibatch` transitions.  Each minibatch runs
    one forward pass over the disjoint union of its steps' graphs, one
    backward pass and one Adam step.
    """
    n_agents = buffer.n_agents
    steps_per_mb = max(1, config.minibatch // n_agents)
    adv = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

    params = model.parameters()
    stats = {"policy_loss": [], "value_loss": [], "entropy": [],
             "clip_fraction": []}
    n_steps = len(buffer.steps)
    for _ in range(config.epochs_per_update):
        order = rng.permutation(n_steps)
        for lo in range(0, n_steps, steps_per_mb):
            chunk = order[lo:lo + steps_per_mb]
            # centralized value regresses to the mean per-agent return
            loss, mb_stats = _minibatch_loss(
                [buffer.steps[i] for i in chunk], adv[chunk],
                returns[chunk].mean(axis=1), model, config)
            zero_grads(params)
            grads = backward(loss, params)
            adam_step(params, grads, adam, config.learning_rate)
            for k, v in mb_stats.items():
                stats[k].append(v)
    return {k: float(np.mean(v)) for k, v in stats.items()}


METRICS_COLUMNS = ["update_index", "env_steps", "mean_episode_reward",
                   "mean_entropy", "policy_loss", "value_loss",
                   "clip_fraction"]


def train(world_config: WorldConfig, ppo_config: PPOConfig, seed: int,
          out_dir: str) -> dict:
    """Alternate collect/update until the env-step budget is spent.

    Writes a metrics CSV (one row per update) and periodic + final
    checkpoints under `out_dir`.  On numeric divergence the last good
    checkpoint is kept and the error re-raised.
    """
    master = np.random.default_rng(seed)  # rejects a bad seed first
    init_rng = np.random.default_rng(master.integers(2 ** 31))
    env_rng = np.random.default_rng(master.integers(2 ** 31))
    shuffle_rng = np.random.default_rng(master.integers(2 ** 31))
    sample_rng = env_rng  # env seeds and action sampling share a stream

    model = ModelParams.init(init_rng, world_config.n_agents,
                             world_config.m_max)
    adam = AdamState()
    metrics_path = os.path.join(out_dir, "metrics.csv")
    ckpt_path = os.path.join(out_dir, "checkpoint.json")

    env_steps = 0
    update_index = 0
    saved = None  # checkpoint this run wrote; out_dir may hold an older one
    # placed before out_dir is touched, so a crowded grid leaves it as it was
    buffer = collect_rollout(world_config, model, ppo_config, sample_rng)
    os.makedirs(out_dir, exist_ok=True)
    with open(metrics_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(METRICS_COLUMNS)
        while True:
            env_steps += buffer.n_transitions
            advantages, returns = compute_gae(buffer, GAMMA, GAE_LAMBDA)
            try:
                stats = ppo_update(buffer, advantages, returns, model,
                                   ppo_config, adam, shuffle_rng)
            except NumericError:
                raise NumericError(
                    f"training diverged at update {update_index}; last good "
                    f"checkpoint: {saved}")
            update_index += 1
            writer.writerow([
                update_index, env_steps,
                f"{np.mean(buffer.episode_rewards):.6f}",
                f"{stats['entropy']:.6f}",
                f"{stats['policy_loss']:.6f}",
                f"{stats['value_loss']:.6f}",
                f"{stats['clip_fraction']:.6f}",
            ])
            f.flush()
            if update_index % CHECKPOINT_INTERVAL == 0:
                model.save(ckpt_path)
                saved = ckpt_path
            if env_steps >= ppo_config.total_steps:
                break
            buffer = collect_rollout(world_config, model, ppo_config,
                                     sample_rng)
    model.save(ckpt_path)
    return {"checkpoint": ckpt_path, "metrics": metrics_path,
            "updates": update_index, "env_steps": env_steps}
