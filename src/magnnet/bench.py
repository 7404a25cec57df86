"""Experiment harness: scenario execution for all four allocation
methods, metric computation and table/curve emission.

Metrics per (method, N): mean/std total travel cost (seconds, the sum of
assigned travel-time estimates), conflict-free success rate (% of tasks
never requested by two or more agents within one decision step), mean
allocation wall time (annotated non-deterministic, excluded from
reproducibility checks) and mean path length per planner.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import pathplan
from .assign import CostMatrix, feasible_optimum, greedy, random_assign
from .errors import NoPathError
from .pathplan import rrt_star
from .ppo import ModelParams, play, policy
from .world import (AgentStatus, Episode, WorldConfig, _whole,
                    assign_tasks, referee)

METHODS = ("hungarian", "magnnet", "greedy", "random")

# Full-scale published reference results (different hardware and training
# budget; for qualitative comparison only -- the desk-scale harness does
# not attempt to reproduce them).
REFERENCE_FULL_SCALE = {
    "total_travel_cost_s": {
        "hungarian": {4: 20.3, 8: 60.3, 12: 131.9, 20: 254.3},
        "magnnet": {4: 20.3, 8: 61.2, 12: 134.7, 20: 321.5},
        "greedy": {4: 22.5, 8: 65.8, 12: 140.5, 20: 383.2},
        "random": {4: 27.9, 8: 72.3, 12: 175.7, 20: 423.8},
    },
    "success_rate_pct": {
        "hungarian": {4: 100, 8: 100, 12: 100, 20: 100},
        "magnnet": {4: 100, 8: 100, 12: 90, 20: 80},
        "greedy": {4: 90, 8: 80, 12: 80, 20: 60},
    },
    "allocation_time_s": {
        "hungarian": {4: 0.8, 8: 1.5, 12: 2.8, 20: 5.6},
        "magnnet": {4: 0.4, 8: 0.6, 12: 1.2, 20: 2.8},
        "greedy": {4: 0.3, 8: 0.3, 12: 0.5, 20: 1.2},
    },
    "mean_path_length_m": {
        "astar": {4: 5.75, 8: 13.63, 12: 20.83, 20: 38.40},
        "rrt_star": {4: 8.86, 8: 13.87, 12: 19.86, 20: 40.95},
    },
}


@dataclass
class ScenarioSpec:
    mode: str = "static"                      # static: M = N at t = 0
    n_agents: tuple = (4,)
    methods: tuple = METHODS
    episodes: int = 20
    seed_base: int = 0
    checkpoint: str | None = None             # required for magnnet
    task_interval: float = 5.0                # dynamic mode spawn interval
    obstacle_density: float = 0.1
    grid_dims: tuple = (50, 50, 30)
    step_cap: float = 400.0

    def __post_init__(self):
        self.n_agents = tuple(self.n_agents)
        # the CLI's flags are whole numbers, a scenario file's keys need not
        # be: a fractional count dies in `run_benchmark`, a fractional seed
        # in `SeedSequence`, and `true` runs as one episode
        if not self.n_agents or not all(_whole(n) and n >= 1
                                        for n in self.n_agents):
            raise ValueError("n_agents must list whole counts >= 1")
        for name in ("episodes", "seed_base"):
            if not _whole(getattr(self, name)):
                raise ValueError(f"{name} must be a whole number")
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.seed_base < 0:
            raise ValueError("seed_base must be >= 0")
        self.methods = tuple(self.methods)
        # with no method, `bench` would write a report with no row
        if not self.methods:
            raise ValueError("methods must list at least one method")
        # a repeated entry would merge two cells into one report row
        for name in ("methods", "n_agents"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} lists an entry twice: {values}")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if self.mode not in ("static", "dynamic"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "dynamic" and self.task_interval is None:
            raise ValueError("dynamic mode needs a task_interval")
        if "magnnet" in self.methods and not self.checkpoint:
            raise ValueError("magnnet requires a checkpoint path")
        # the world settings fail here, not in `run_benchmark`'s first job
        for n in self.n_agents:
            self.world_config(n)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        return cls(**d)

    def world_config(self, n: int) -> WorldConfig:
        n_ground = n // 2
        return WorldConfig(
            grid_dims=self.grid_dims, n_agents=n, n_tasks_initial=n,
            task_interval=self.task_interval if self.mode == "dynamic" else None,
            obstacle_density=self.obstacle_density,
            n_ground=n_ground, n_aerial=n - n_ground,
            step_cap=self.step_cap)


@dataclass
class EpisodeLog:
    method: str
    n_agents: int
    n_tasks: int
    contested: list            # task ids requested by >= 2 agents at once
    total_cost_s: float
    alloc_wall_s: float        # see allocation_time
    path_lengths_m: list


# ---------------------------------------------------------------------------
# metric reductions
# ---------------------------------------------------------------------------

def success_rate(episode_logs: list) -> float:
    """Percent of tasks never simultaneously contested before assignment."""
    total = sum(log.n_tasks for log in episode_logs)
    contested = sum(len(set(log.contested)) for log in episode_logs)
    return 100.0 * (total - contested) / total


def allocation_time(episode_logs: list) -> float:
    """Mean allocation wall seconds (non-deterministic; not gated): a
    magnnet episode's summed `StepRecord.wall_s`, each its round's span
    from `observe` to the return of `act`, field builds included (an even
    share of the pass's span when `ppo.play` drives several episodes), or
    a baseline's solver call after its cost matrix."""
    return float(np.mean([log.alloc_wall_s for log in episode_logs]))


# ---------------------------------------------------------------------------
# episode execution
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _load_model(path: str) -> ModelParams:
    return ModelParams.load(path)


def _agent_local_conflicts(cm, picker) -> list:
    """Tasks contested when each agent picks on its own, round by round,
    without coordination (the decentralized framing of the baselines).

    Each round, every unassigned agent that reaches a remaining task
    requests the column `picker(row)`, `row` being its costs with the
    other columns inf; `world.referee` gives each task to its cheapest
    requester.  Winners leave for good and losers retry, whereas in a
    played episode an agent that has finished its task requests again.
    On the 20 instances of `configs/bench_static_n4.json` at N = 4, 8,
    12 and 20, greedy's count here equals the contests of a per-agent
    cheapest-slot `decide` played by `ppo.play` on 19, 4, 1 and 3; each
    other instance has an agent finish a task before the last initial
    task is assigned."""
    masks = np.insert(np.isfinite(cm.entries), 0, True, axis=1)
    contested: set[int] = set()
    while True:
        actions = [0] * len(masks)
        for i in np.flatnonzero(masks[:, 1:].any(axis=1)).tolist():
            row = np.where(masks[i, 1:], cm.entries[i], np.inf)
            actions[i] = picker(row) + 1
        ruling = referee(actions, masks, cm.entries)
        if not ruling.assignments:
            return sorted(contested)
        contested.update(ruling.conflicts)
        for j, winner in ruling.assignments.items():
            masks[winner, 1:] = masks[:, j + 1] = False


def _execute_assignment(ep: Episode, cm: CostMatrix, assignment) -> None:
    """Drive an assignment computed centrally on `cm`, the episode's
    initial cost matrix, through the environment (paths, reservations,
    motion) until its pairs, booked in `assignment.pairs` order (so
    `ep.achieved_total()` is `total_cost(cm, assignment)`), are served."""
    state = ep.state
    tasks = state.live_tasks()
    picks = []
    for i, j in assignment.pairs:
        agent = state.agents[i]
        task = tasks[j]
        path = pathplan.astar(state.grid, agent.position, task.location,
                              agent.motion_model)
        picks.append((agent.id, task.id, float(cm.entries[i, j]), path))
    assign_tasks(state, picks)
    while not ep.terminated and any(a.status is AgentStatus.ASSIGN
                                    for a in state.agents):
        ep.tick()


# The initial cost matrix of the one seeded instance a baseline episode
# ran last, read-only: {(config JSON, seed): CostMatrix}, at most one entry.
_instance_costs: dict = {}


def _instance_cost_matrix(ep: Episode, seed: int) -> CostMatrix:
    """The initial cost matrix of `ep`, the seeded instance (config, seed).

    Every method of a benchmark cell runs the same seeded instances, and
    `init_episode` is deterministic in (config, seed), so the first
    baseline episode of an instance computes the matrix from its own
    fields and every later one reads it here.  A baseline reads no other
    cost matrix (its paths come from A*), so a later episode builds no
    field at all."""
    key = (json.dumps(ep.config.to_dict(), sort_keys=True), seed)
    if key not in _instance_costs:
        _instance_costs.clear()     # never two instances' matrices at once
        cm = ep.initial_cost_matrix()
        cm.entries.flags.writeable = False      # a solver must copy first
        _instance_costs[key] = cm
    return _instance_costs[key]


def run_episode_baseline(method: str, config: WorldConfig, seed: int) -> EpisodeLog:
    ep = Episode(config, seed)
    cm = _instance_cost_matrix(ep, seed)
    t0 = time.perf_counter()
    if method == "hungarian":
        assignment = feasible_optimum(cm)
        contested = []  # centralized: conflict-free by construction
    elif method == "greedy":
        assignment = greedy(cm)
        contested = _agent_local_conflicts(cm, np.argmin)
    elif method == "random":
        assignment = random_assign(cm, seed)
        rng = np.random.default_rng(seed + 1)
        contested = _agent_local_conflicts(
            cm, lambda row: rng.choice(np.flatnonzero(np.isfinite(row))))
    else:
        raise ValueError(method)
    alloc_wall = time.perf_counter() - t0
    _execute_assignment(ep, cm, assignment)
    # a baseline is offered only the initial tasks, the columns of `cm`
    return EpisodeLog(method, config.n_agents, cm.n_tasks, contested,
                      ep.achieved_total(), alloc_wall,
                      _assigned_path_lengths(ep))


def run_episode_magnnet(config: WorldConfig, seed: int,
                        model: ModelParams) -> EpisodeLog:
    """Decentralized episode under `model`.  It builds its own fields:
    `alloc_wall_s` includes `observe`, so fields shared with earlier
    episodes would make it depend on the order the methods ran in."""
    model.check_scenario(config.m_max)
    ep = Episode(config, seed)
    alloc_wall = sum((step.wall_s for step in play([ep], policy(model))), 0.0)
    # every contested task has a loser, so these are the contested tasks
    contested = {e["task"] for e in ep.state.log
                 if e["event"] == "conflict_lost"}
    return EpisodeLog("magnnet", config.n_agents, len(ep.state.tasks),
                      sorted(contested), ep.achieved_total(),
                      alloc_wall, _assigned_path_lengths(ep))


def _assigned_path_lengths(ep: Episode) -> list:
    return [entry["length"] for entry in ep.state.log
            if entry["event"] == "assigned"]


def _instance_seed(spec: ScenarioSpec, n: int, episode: int) -> int:
    """The seed of episode `episode` at N = `n`: every method, and the
    planner comparison, plays the same instances."""
    return spec.seed_base * 1_000_000 + n * 10_000 + episode


def _run_cell(args):
    spec, method, n, ep_index = args
    config = spec.world_config(n)
    seed = _instance_seed(spec, n, ep_index)
    if method == "magnnet":
        model = _load_model(spec.checkpoint)
        return run_episode_magnnet(config, seed, model)
    return run_episode_baseline(method, config, seed)


REPORT_COLUMNS = ["method", "n_agents", "episodes",
                  "mean_total_travel_cost_s", "std_total_travel_cost_s",
                  "conflict_free_success_rate_pct", "mean_path_length_m",
                  "mean_allocation_wall_time_s"]
WALL_TIME_COLUMNS = ("mean_allocation_wall_time_s",)


@dataclass
class BenchReport:
    rows: list = field(default_factory=list)
    episode_logs: list = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(REPORT_COLUMNS)
            for row in self.rows:
                w.writerow([row[c] for c in REPORT_COLUMNS])

    def to_json(self, path) -> None:
        with open(path, "w") as f:
            json.dump({
                "rows": self.rows,
                "reference_full_scale": REFERENCE_FULL_SCALE,
                "note": ("wall-time columns are hardware-dependent and "
                         "non-deterministic; reference values are full-scale "
                         "published results for qualitative comparison only"),
            }, f, indent=2)


def run_benchmark(spec: ScenarioSpec, parallel: int = 1) -> BenchReport:
    """Run the methods x N sweep and aggregate metrics per cell.

    Jobs run instance-major (every method of one seeded instance in a
    row, in one worker when parallel), so the baselines of an instance
    share its initial cost matrix; `episode_logs` is method-major."""
    report = BenchReport()
    jobs = [(spec, method, n, e)
            for n in spec.n_agents
            for e in range(spec.episodes)
            for method in spec.methods]
    if parallel > 1:
        # imported here: a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            logs = list(pool.map(_run_cell, jobs,
                                 chunksize=len(spec.methods)))
    else:
        logs = [_run_cell(j) for j in jobs]

    by_cell: dict[tuple, list] = {}
    for job, log in zip(jobs, logs):
        by_cell.setdefault((job[1], job[2]), []).append(log)
    for method in spec.methods:
        for n in spec.n_agents:
            cell = by_cell[(method, n)]
            totals = [log.total_cost_s for log in cell]
            lengths = [l for log in cell for l in log.path_lengths_m]
            report.rows.append({
                "method": method,
                "n_agents": n,
                "episodes": len(cell),
                "mean_total_travel_cost_s": f"{np.mean(totals):.6f}",
                "std_total_travel_cost_s": f"{np.std(totals):.6f}",
                "conflict_free_success_rate_pct": f"{success_rate(cell):.2f}",
                "mean_path_length_m": f"{np.mean(lengths):.6f}" if lengths else "",
                "mean_allocation_wall_time_s": f"{allocation_time(cell):.6f}",
            })
    report.episode_logs = [log for method in spec.methods
                           for n in spec.n_agents
                           for log in by_cell[(method, n)]]
    return report


# ---------------------------------------------------------------------------
# planner comparison + training curves
# ---------------------------------------------------------------------------

def planner_compare(spec: ScenarioSpec) -> dict:
    """Feed identical (grid, start, goal) instances to A* and RRT* and
    report per-instance and mean lengths per N.  Every instance is an
    assigned pair, so its cost is finite and A* finds its path; an
    instance RRT* finds no path for within its budget gets no row, and
    `rrt_star_no_path` counts those."""
    results = {}
    for n in spec.n_agents:
        config = spec.world_config(n)
        rows = []
        no_path = 0
        for e in range(spec.episodes):
            seed = _instance_seed(spec, n, e)
            ep = Episode(config, seed)
            cm = ep.initial_cost_matrix()
            assignment = feasible_optimum(cm)
            tasks = ep.state.live_tasks()
            for i, j in assignment.pairs:
                agent = ep.state.agents[i]
                goal = tasks[j].location
                a_len = pathplan.astar(ep.state.grid, agent.position, goal,
                                       agent.motion_model).length
                try:
                    r_len = rrt_star(ep.state.grid, agent.position, goal,
                                     agent.motion_model,
                                     seed=seed * 97 + i).length
                except NoPathError:
                    no_path += 1
                    continue
                rows.append({"n_agents": n, "episode": e, "agent": i,
                             "astar_length_m": a_len,
                             "rrt_star_length_m": r_len})
        results[n] = {
            "instances": rows,
            "mean_astar_length_m": float(np.mean(
                [r["astar_length_m"] for r in rows])) if rows else None,
            "mean_rrt_star_length_m": float(np.mean(
                [r["rrt_star_length_m"] for r in rows])) if rows else None,
            "rrt_star_no_path": no_path,
        }
    return results


def emit_curves(metrics_log_path: str, out_dir: str) -> dict:
    """Split a training metrics CSV into plottable (env_steps, value)
    curves for reward and entropy.  A file that is not UTF-8 text, or
    lacks one of the columns, raises ValueError before `out_dir` is
    made."""
    with open(metrics_log_path, encoding="utf-8") as f:
        reader = csv.DictReader(f)
        missing = {"env_steps", "mean_episode_reward",
                   "mean_entropy"}.difference(reader.fieldnames or ())
        if missing:
            raise ValueError(f"missing columns: {', '.join(sorted(missing))}")
        rows = list(reader)
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, column in (("reward", "mean_episode_reward"),
                         ("entropy", "mean_entropy")):
        path = os.path.join(out_dir, f"{name}_curve.csv")
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["env_steps", column])
            for row in rows:
                w.writerow([row["env_steps"], row[column]])
        paths[name] = path
    return paths
