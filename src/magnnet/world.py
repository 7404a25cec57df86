"""3D grid world: agent/task lifecycles, decision-step arbitration,
reward shaping, motion advancement and dynamic task spawning.

One decision step per simulated second while any Waiting task exists:
every agent emits an action in {0 = reject, 1..m_max = request the task
in that observation slot}; contested tasks go to the requester with the
smallest travel-time cost.  Between decision steps agents advance along
their booked paths, `plan.substeps_per_tick` cells per tick.

A round is `Episode.observe` (the one cost matrix of the round, laid
out by slot, and the action masks drawn from it), then `Episode.act`
(`arbitrate` by those masks and slot costs), then `Episode.tick`; the
one loop that plays decided rounds is the driver `ppo.play`.  The
round's rule is the pure function `referee`, and its `Ruling`, keyed by
observation slot, is the one record of a round: `arbitrate` applies it
to the episode and returns it, `act` returns it, and `bench` replays
`referee` for the baselines' simulated rounds.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, asdict, replace
from enum import Enum

import numpy as np

from . import pathplan
from .assign import CostMatrix, feasible_optimum, total_cost
from .errors import PlacementError
from .pathplan import (AgentPlan, FieldStore, Grid, MotionModel, Path,
                       ReservationTable, resolve_paths)


class AgentStatus(Enum):
    IDLE = "idle"
    ASSIGN = "assign"


class TaskStatus(Enum):
    WAITING = "waiting"
    ASSIGNED = "assigned"
    DONE = "done"


# one scalar input dimension; ASSIGN keeps the 2/3 it had among four
# statuses, so observations and trained checkpoints read as before
STATUS_CODE = {
    AgentStatus.IDLE: 0.0,
    AgentStatus.ASSIGN: 2.0 / 3.0,
}

# cells per second; a plan books and moves round(v) cells per tick while
# costs divide by v, and the two agree only for whole speeds
GROUND_VELOCITY = 3.0
AERIAL_VELOCITY = 5.0

# seconds; observations divide slot costs by it
COST_SCALE = 50.0

# absent / unreachable task slots read as twice the normalization scale
SENTINEL_NORMALIZED_COST = 2.0

# shaped rewards: a won request, a lost contest, a rejection while some
# request was allowed, and the scale of the terminal team bonus
WIN_REWARD = 1.0
CONFLICT_PENALTY = -0.5
IDLE_REJECT_PENALTY = -0.1
TEAM_BONUS_SCALE = 2.0

# observation slots of a dynamic world, unless more tasks start live
DYNAMIC_SLOTS = 20


@dataclass
class AgentState:
    id: int
    motion_model: MotionModel
    position: tuple
    velocity: float
    assigned_task: int | None = None
    plan: AgentPlan | None = None
    path_index: int = 0

    @property
    def status(self) -> AgentStatus:
        return AgentStatus.IDLE if self.assigned_task is None \
            else AgentStatus.ASSIGN


@dataclass
class TaskState:
    id: int
    location: tuple
    status: TaskStatus = TaskStatus.WAITING


def _whole(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class WorldConfig:
    grid_dims: tuple = (50, 50, 30)
    n_agents: int = 4
    n_tasks_initial: int = 4
    task_interval: float | None = None  # None = static scenario
    obstacle_density: float = 0.1
    n_ground: int = 2
    n_aerial: int = 2
    step_cap: float = 400.0

    def __post_init__(self):
        self.grid_dims = tuple(self.grid_dims)
        self.validate()

    @property
    def m_max(self) -> int:
        """Observation slots = cap on live tasks: one per initial task,
        and in dynamic mode at least DYNAMIC_SLOTS."""
        if self.task_interval is None:
            return self.n_tasks_initial
        return max(DYNAMIC_SLOTS, self.n_tasks_initial)

    def validate(self):
        # a zero-length axis fails in `init_episode`, a fourth axis in
        # `observe`, and a fractional count builds float ids
        if len(self.grid_dims) != 3 or not all(
                _whole(d) and d >= 1 for d in self.grid_dims):
            raise ValueError("grid_dims must be three whole numbers >= 1")
        for name, low in (("n_agents", 1), ("n_ground", 0), ("n_aerial", 0),
                          ("n_tasks_initial", 0)):
            if not (_whole(getattr(self, name)) and getattr(self, name) >= low):
                raise ValueError(f"{name} must be a whole number >= {low}")
        if self.n_ground + self.n_aerial != self.n_agents:
            raise ValueError("n_ground + n_aerial must equal n_agents")
        if not 0.0 <= self.obstacle_density < 0.3:
            raise ValueError("obstacle_density must be in [0, 0.3)")
        # an infinite interval never spawns and overflows math.ceil below
        if self.task_interval is not None \
                and not 0 < self.task_interval < math.inf:
            raise ValueError("task_interval must be finite and > 0")
        # an infinite cap never ends a dynamic episode
        if not 0 < self.step_cap < math.inf:
            raise ValueError("step_cap must be finite and > 0")
        # with no task before step_cap an episode has no decision round;
        # the clock moves in whole ticks from 0, so the first spawn comes
        # at tick ceil(task_interval)
        spawns_in_time = (self.task_interval is not None
                          and math.ceil(self.task_interval) < self.step_cap)
        if self.n_tasks_initial < 1 and not spawns_in_time:
            raise ValueError("no task arrives before step_cap")

    @classmethod
    def from_dict(cls, d: dict) -> "WorldConfig":
        return cls(**d)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Ruling:
    """One round's ruling by `referee`, keyed by observation slot."""
    requests: dict          # slot -> requesting agent ids, ascending
    assignments: dict       # slot -> the requester it goes to
    invalid: list           # agents whose action the mask forbids
    idle_rejects: list      # rejected while a request was allowed
    rewards: np.ndarray     # each agent's shaped reward

    @property
    def conflicts(self) -> dict:
        """The contested slots: slot -> its two or more requesters."""
        return {s: agents for s, agents in self.requests.items()
                if len(agents) > 1}


@dataclass
class EpisodeState:
    config: WorldConfig
    clock: float
    agents: list
    tasks: list
    grid: Grid
    reservations: ReservationTable
    rng: np.random.Generator
    dist_cache: FieldStore  # per slot and model, its latest task's field
    slots: list = field(default_factory=list)   # slot -> task id or None
    log: list = field(default_factory=list)
    intervals_consumed: int = 0
    # `live_slots()` until the next `replace_slot`
    _live: list | None = field(default=None, init=False, repr=False,
                               compare=False)

    def live_slots(self) -> list:
        """Slots of the tasks not Done, in ascending task-id order: the
        column order of every cost matrix.  Each such task holds a slot,
        and `advance` frees a Done task's slot.  Callers must not change
        the list: it is kept until the next `replace_slot`."""
        if self._live is None:
            live = [s for s, tid in enumerate(self.slots) if tid is not None]
            live.sort(key=self.slots.__getitem__)
            self._live = live
        return self._live

    def replace_slot(self, old, new) -> None:
        """Put `new`, a task id or None, into the first slot holding
        `old`: every slot write goes through here."""
        self.slots[self.slots.index(old)] = new
        self._live = None

    def live_tasks(self) -> list:
        """Tasks not Done, in ascending id order: one per cost-matrix
        column."""
        return [self.tasks[self.slots[s]] for s in self.live_slots()]

    def waiting_tasks(self) -> list:
        return [t for t in self.live_tasks() if t.status is TaskStatus.WAITING]

    # agent and task ids are their list indices
    def agent(self, agent_id: int) -> AgentState:
        if not 0 <= agent_id < len(self.agents):
            raise KeyError(f"no agent with id {agent_id}")
        return self.agents[agent_id]

    def task(self, task_id: int) -> TaskState:
        if not 0 <= task_id < len(self.tasks):
            raise KeyError(f"no task with id {task_id}")
        return self.tasks[task_id]

    def record(self, kind: str, **ids) -> None:
        self.log.append({"tick": int(self.clock), "event": kind, **ids})


# ---------------------------------------------------------------------------
# episode construction
# ---------------------------------------------------------------------------

def _sample_cells(rng, candidates: np.ndarray, dims: tuple, count: int,
                  taken: set) -> list:
    """Draw `count` distinct cells from candidate flat indices into a grid
    of `dims` (C order), skipping taken (x, y, z) cells."""
    if len(candidates) < count + len(taken):
        cells = zip(*(a.tolist() for a in np.unravel_index(candidates, dims)))
        avail = sum(1 for cell in cells if cell not in taken)
        if avail < count:
            raise PlacementError(
                f"need {count} free cells, only {avail} available")
    picked = []
    attempts = 0
    limit = 200 * (count + 1) + 4 * len(candidates)
    while len(picked) < count:
        attempts += 1
        if attempts > limit:
            raise PlacementError(
                f"could not place {count} cells after {attempts} draws")
        flat = int(candidates[int(rng.integers(len(candidates)))])
        cell = tuple(int(v) for v in np.unravel_index(flat, dims))
        if cell in taken:
            continue
        taken.add(cell)
        picked.append(cell)
    return picked


def init_episode(config: WorldConfig, seed: int) -> EpisodeState:
    """Place obstacles, agents and initial tasks; deterministic per seed."""
    rng = np.random.default_rng(seed)
    dims = config.grid_dims
    blocked = rng.random(dims) < config.obstacle_density
    grid = Grid(dims, blocked)

    # flat indices in C order, so a draw picks the same cell as a row of
    # np.argwhere would; a z = 0 plane index times dz is its grid index
    ground_cells = np.flatnonzero(~blocked[:, :, 0]) * dims[2]
    air_cells = np.flatnonzero(~blocked)
    # `spawn_tasks` draws a free ground cell for every spawned task
    if config.task_interval is not None and not len(ground_cells):
        raise PlacementError("no free ground cell for spawned tasks")

    taken: set = set()
    ground_pos = _sample_cells(rng, ground_cells, dims, config.n_ground, taken)
    aerial_pos = _sample_cells(rng, air_cells, dims, config.n_aerial, taken)
    task_pos = _sample_cells(rng, ground_cells, dims, config.n_tasks_initial,
                             taken)

    agents = []
    for i, p in enumerate(ground_pos):
        agents.append(AgentState(i, MotionModel.GROUND4, p, GROUND_VELOCITY))
    for k, p in enumerate(aerial_pos):
        agents.append(AgentState(config.n_ground + k, MotionModel.AERIAL6, p,
                                 AERIAL_VELOCITY))
    tasks = [TaskState(j, p) for j, p in enumerate(task_pos)]

    state = EpisodeState(
        config=config, clock=0.0, agents=agents, tasks=tasks, grid=grid,
        reservations=ReservationTable(), rng=rng,
        dist_cache=FieldStore(grid, config.m_max),
        slots=[t.id for t in tasks] + [None] * (config.m_max - len(tasks)))
    state.record("episode_start", n_agents=len(agents), n_tasks=len(tasks))
    return state


# ---------------------------------------------------------------------------
# observations
# ---------------------------------------------------------------------------

def current_cost_matrix(state: EpisodeState):
    """Live-task cost matrix plus the task-id column labels."""
    cm = pathplan.cost_matrix(state)
    return cm, [t.id for t in state.live_tasks()]


def slot_cost_array(state: EpisodeState, cm: CostMatrix) -> np.ndarray:
    """N x m_max costs laid out by observation slot; inf for empty slots.
    Column j of `cm` goes to slot `state.live_slots()[j]`."""
    out = np.full((len(state.agents), state.config.m_max), np.inf)
    out[:, state.live_slots()] = cm.entries
    return out


def observation(state: EpisodeState, slot_costs: np.ndarray):
    """Every agent's observation and action mask for one decision round.

    An observation row is [status code, normalized slot costs...], length
    m_max + 1: costs divide by COST_SCALE, and absent or
    unreachable slots carry the sentinel value 2.0.  A mask row allows
    reject always, and slot j iff the agent is Idle and the slot holds a
    Waiting task the agent can reach.
    """
    finite = np.isfinite(slot_costs)
    obs = np.empty((len(state.agents), state.config.m_max + 1))
    obs[:, 0] = [STATUS_CODE[a.status] for a in state.agents]
    obs[:, 1:] = np.where(finite, slot_costs / COST_SCALE,
                          SENTINEL_NORMALIZED_COST)
    idle = np.array([a.status is AgentStatus.IDLE for a in state.agents],
                    dtype=bool)
    waiting = np.array([tid is not None
                        and state.task(tid).status is TaskStatus.WAITING
                        for tid in state.slots], dtype=bool)
    masks = np.ones(obs.shape, dtype=bool)
    masks[:, 1:] = finite & idle[:, None] & waiting[None, :]
    return obs, masks


# ---------------------------------------------------------------------------
# decision step
# ---------------------------------------------------------------------------

def assign_tasks(state: EpisodeState, picks) -> None:
    """Give each picked task to its agent and book the agent's path.

    Each pick is (agent id, task id, cost, path).  Marks the task
    Assigned and the agent's task, records an `assigned` event with the
    pair's cost and path length, then books every path in the
    reservation table through `resolve_paths`.  Raises RuntimeError when
    a picked task is not Waiting, so no task is assigned twice.
    """
    new_plans = []
    for agent_id, task_id, cost, path in picks:
        agent = state.agent(agent_id)
        task = state.task(task_id)
        if task.status is not TaskStatus.WAITING:
            raise RuntimeError(f"task {task_id} is {task.status.value}, "
                               "not waiting")
        agent.assigned_task = task_id
        agent.path_index = 0
        task.status = TaskStatus.ASSIGNED
        new_plans.append(AgentPlan(agent_id, cost, path, agent.velocity,
                                   agent.motion_model,
                                   start_tick=int(state.clock)))
        state.record("assigned", agent=agent_id, task=task_id, cost=cost,
                     length=path.length)
    for plan in resolve_paths(new_plans, state.reservations, state.grid):
        state.agent(plan.agent_id).plan = plan


def referee(actions, masks: np.ndarray, slot_costs: np.ndarray) -> Ruling:
    """The rule of one decision round, a pure function of the agents'
    actions, action masks (`observation`) and slot costs.  Action a of
    agent i requests slot a - 1 iff `masks[i, a]`; any other nonzero
    action is invalid, a rejection that is idle iff the mask allowed a
    request.  A requested slot goes to its cheapest requester (ties to
    the lower id).  Rewards: WIN_REWARD to a winner, CONFLICT_PENALTY to
    a loser, IDLE_REJECT_PENALTY to an idle rejection, else 0."""
    could_request = masks[:, 1:].any(axis=1)
    requests, assignments, invalid, idle_rejects = {}, {}, [], []
    rewards = np.zeros(len(masks))
    for i in range(len(masks)):
        action = int(actions[i])
        if action == 0:
            if could_request[i]:
                idle_rejects.append(i)
                rewards[i] = IDLE_REJECT_PENALTY
        elif 0 < action < masks.shape[1] and masks[i, action]:
            requests.setdefault(action - 1, []).append(i)
        else:
            invalid.append(i)
    for slot, contenders in requests.items():
        assignments[slot] = winner = min(
            contenders, key=lambda a: (slot_costs[a, slot], a))
        rewards[contenders] = CONFLICT_PENALTY
        rewards[winner] = WIN_REWARD
    return Ruling(requests, assignments, invalid, idle_rejects, rewards)


def arbitrate(state: EpisodeState, actions, slot_costs: np.ndarray,
              masks: np.ndarray) -> Ruling:
    """Apply `referee`'s ruling to the episode in ascending task-id order:
    a contested task's losers' `conflict_lost` entries, then the winners'
    tasks and walked paths (`assign_tasks`).  Returns the ruling."""
    ruling = referee(actions, masks, slot_costs)
    picks = []
    for slot in sorted(ruling.assignments, key=state.slots.__getitem__):
        tid, winner = state.slots[slot], ruling.assignments[slot]
        for a in ruling.requests[slot]:
            if a != winner:
                state.record("conflict_lost", agent=a, task=tid)
        agent = state.agent(winner)
        picks.append((winner, tid, float(slot_costs[winner, slot]),
                      state.dist_cache.path(slot, agent.motion_model,
                                            agent.position)))
    assign_tasks(state, picks)
    return ruling


def terminal_bonus(optimal_total: float, achieved_total: float) -> float:
    """System-wide end-of-episode bonus, identical for every agent."""
    if achieved_total <= 0.0 or optimal_total <= 0.0:
        return 0.0
    return TEAM_BONUS_SCALE * (optimal_total / achieved_total)


# ---------------------------------------------------------------------------
# motion + spawning
# ---------------------------------------------------------------------------

def advance(state: EpisodeState) -> list:
    """Move every Assign agent one tick along its path.

    An agent moves up to `plan.substeps_per_tick` cells, the count
    `plan_schedule` books per tick.  An agent whose next cell is reserved
    for another agent at the next tick stops before it, and its remaining
    schedule is rebooked from that tick.  Returns the log entries the
    tick recorded.
    """
    first = len(state.log)
    next_tick = int(state.clock) + 1
    moving = [a for a in state.agents if a.status is AgentStatus.ASSIGN]
    moving.sort(key=lambda a: (a.plan.cost, a.id))
    for agent in moving:
        cells = agent.plan.path.cells
        stop = min(agent.path_index + agent.plan.substeps_per_tick,
                   len(cells) - 1)
        while agent.path_index < stop:
            nxt = cells[agent.path_index + 1]
            if not state.reservations.is_free_for(nxt, next_tick, agent.id):
                _rebook(state, agent, next_tick)
                state.record("wait", agent=agent.id)
                break
            agent.path_index += 1
            agent.position = nxt
        if agent.path_index >= len(cells) - 1 and agent.position == cells[-1]:
            task = state.task(agent.assigned_task)
            task.status = TaskStatus.DONE
            state.replace_slot(task.id, None)
            state.record("task_done", agent=agent.id, task=task.id)
            state.reservations.release_agent(agent.id)
            agent.assigned_task = None
            agent.plan = None
            agent.path_index = 0
            state.record("agent_idle", agent=agent.id)
    state.clock += 1.0
    state.reservations.release_before(int(state.clock))
    return state.log[first:]


def _rebook(state: EpisodeState, agent: AgentState, from_tick: int) -> None:
    """Shift an agent's remaining reservations after a forced wait."""
    state.reservations.release_agent(agent.id)
    remaining = Path(agent.plan.path.cells[agent.path_index:])
    plan = replace(agent.plan, path=remaining, start_tick=from_tick)
    agent.plan = resolve_paths([plan], state.reservations, state.grid)[0]
    agent.path_index = 0


def spawn_tasks(state: EpisodeState) -> list:
    """Dynamic mode: one task per crossed interval while a slot is free."""
    interval = state.config.task_interval
    if interval is None:
        return []
    new = []
    while (state.intervals_consumed + 1) * interval <= state.clock:
        state.intervals_consumed += 1
        if None not in state.slots:
            continue
        cand = np.flatnonzero(~state.grid.blocked[:, :, 0])
        x, y = divmod(int(cand[int(state.rng.integers(len(cand)))]),
                      state.grid.dims[1])
        task = TaskState(len(state.tasks), (x, y, 0))
        state.tasks.append(task)
        state.replace_slot(None, task.id)
        state.record("task_spawn", task=task.id)
        new.append(task)
    return new


# ---------------------------------------------------------------------------
# episode driver
# ---------------------------------------------------------------------------

class Episode:
    """Single-writer owner of one episode's state."""

    def __init__(self, config: WorldConfig, seed: int):
        self.config = config
        self.state = init_episode(config, seed)
        self._initial_cm: CostMatrix | None = None
        self._observed: tuple | None = None    # (slot costs, masks) of a round
        self._optimal_total: float | None = None

    @property
    def terminated(self) -> bool:
        # neither term turns false again: the clock only advances, and a
        # static episode spawns no task into a slot it emptied
        return self.state.clock >= self.config.step_cap or (
            self.config.task_interval is None and self.all_tasks_done())

    def decision_due(self) -> bool:
        return not self.terminated and len(self.state.waiting_tasks()) > 0

    def initial_cost_matrix(self) -> CostMatrix:
        if self._initial_cm is None:
            self._initial_cm, _ = current_cost_matrix(self.state)
        return self._initial_cm

    def optimal_total(self) -> float:
        if self._optimal_total is None:
            cm = self.initial_cost_matrix()
            self._optimal_total = total_cost(cm, feasible_optimum(cm))
        return self._optimal_total

    def achieved_total(self) -> float:
        return sum(e["cost"] for e in self.state.log
                   if e["event"] == "assigned")

    def all_tasks_done(self) -> bool:
        """Every task that is not Done holds a slot, so all are Done iff
        every slot is empty."""
        return all(tid is None for tid in self.state.slots)

    def observe(self):
        """Per-agent observations and masks plus the shared cost matrix.

        The slot costs and masks are kept for this round's `act`, and the
        episode's first matrix is its initial one."""
        cm, task_ids = current_cost_matrix(self.state)
        slot_costs = slot_cost_array(self.state, cm)
        obs, masks = observation(self.state, slot_costs)
        if self._initial_cm is None:
            self._initial_cm = cm
        self._observed = (slot_costs, masks)
        return obs, masks, cm, task_ids

    def act(self, actions) -> Ruling:
        """Arbitrate `actions` by the masks and slot costs `observe` showed
        this round; returns the ruling."""
        if self._observed is None:
            raise RuntimeError("act needs an observe since the last act "
                               "or tick")
        ruling = arbitrate(self.state, actions, *self._observed)
        self._observed = None
        return ruling

    def tick(self) -> None:
        self._observed = None
        advance(self.state)
        spawn_tasks(self.state)
