"""The four benchmark workloads.

Each workload turns the workload seed into inputs (scenario specs, a
training config, a checkpoint file), drives the `magnnet` entry point in
a closed loop (the next episode, instance or PPO update starts when the
previous one returns), checks the outputs outside the timed region and
hashes its seeded outputs into a determinism digest.

The amount of work per run is fixed by `--seconds` through each
workload's `round_s`, the time one round takes on the reference box, so
both sides of a comparison run identical inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import time
import traceback

import numpy as np

from calibrate import probe
from magnnet import bench, pathplan, ppo, world
from magnnet.bench import WALL_TIME_COLUMNS, ScenarioSpec
from magnnet.errors import NoPathError

BASELINES = ("hungarian", "greedy", "random")
STATIC_N = (4, 8, 12, 20)
DYNAMIC_N = (4, 12, 20)
PLANNER_N = (4, 8)
WARMUP_SEED = 987_654_321  # warm-up inputs differ from every measured one
CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")


def digest(blob) -> str:
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()


def report_rows(report) -> list:
    return [{k: v for k, v in row.items() if k not in WALL_TIME_COLUMNS}
            for row in report.rows]


class Pass:
    """What one timed pass over a workload's inputs produced.  An untraced
    pass probes the machine's speed around its rounds; a traced one does
    not, so no probe time lands in a span."""

    def __init__(self, speed_probes: bool = True):
        self.speed_probes = speed_probes
        self.work = 0                # env steps, episodes or instances
        self.episode_s: list = []
        self.decision_s: list = []
        self.attempted = 0
        self.failed = 0
        self.failures: list = []     # one line per failed operation
        self.seeded: list = []       # outputs that enter the digest
        self.quality: dict = {}
        self.raw = None              # what check() needs
        self.rounds: list = []       # (work, wall seconds) per round
        self.probes: list = []       # calibrate.probe() seconds around rounds
        self._mark = (0, 0.0)

    def probe(self) -> None:
        if self.speed_probes:
            self.probes.append(probe())

    def start(self) -> None:
        self.probe()
        self._mark = (self.work, time.perf_counter())

    def end_round(self) -> None:
        """Close a round: the work and wall time since the last mark, then
        probe the machine's speed outside the round."""
        now = time.perf_counter()
        self.rounds.append((self.work - self._mark[0], now - self._mark[1]))
        self.probe()
        self._mark = (self.work, time.perf_counter())

    @property
    def wall_s(self) -> float:
        return sum(wall for _, wall in self.rounds)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(what)


class Probes:
    """Timing hooks on `world.Episode` that both passes carry: the span
    from an `observe` call to the return of the matching `act` (one
    decision round), and an episode's life from construction to the first
    `terminated` that reads True.  Two clock reads per boundary."""

    def __init__(self, run: Pass):
        self.run = run
        self._saved = {}

    def __enter__(self):
        cls = world.Episode
        self._saved = {k: cls.__dict__[k]
                       for k in ("__init__", "observe", "act", "terminated")}
        init, observe, act = (self._saved[k] for k in ("__init__", "observe",
                                                        "act"))
        terminated = self._saved["terminated"].fget
        run = self.run

        def timed_init(ep, *args, **kwargs):
            ep._pb_born = time.perf_counter()
            ep._pb_seen = None
            init(ep, *args, **kwargs)

        def timed_observe(ep, *args, **kwargs):
            ep._pb_seen = time.perf_counter()
            return observe(ep, *args, **kwargs)

        def timed_act(ep, *args, **kwargs):
            out = act(ep, *args, **kwargs)
            if ep._pb_seen is not None:
                run.decision_s.append(time.perf_counter() - ep._pb_seen)
                ep._pb_seen = None
            return out

        def timed_terminated(ep):
            done = terminated(ep)
            if done and ep._pb_born is not None:
                run.episode_s.append(time.perf_counter() - ep._pb_born)
                ep._pb_born = None
            return done

        cls.__init__ = timed_init
        cls.observe = timed_observe
        cls.act = timed_act
        cls.terminated = property(timed_terminated)
        return self

    def __exit__(self, *exc):
        for k, v in self._saved.items():
            setattr(world.Episode, k, v)
        return False


class Workload:
    name = ""
    round_s = 1.0            # reference-box seconds per round
    expected_layers: tuple = ()
    predicted_zero: tuple = ()

    def __init__(self, seed: int, seconds: float, out_dir: str):
        self.seed = seed
        self.rounds = max(1, int(round(seconds / self.round_s)))
        self.out_dir = out_dir

    def setup(self) -> None:
        """Build inputs and warm up; must be safe to repeat."""

    def run(self, run: Pass, tag: str) -> None:
        """The timed closed loop over this run's inputs."""
        raise NotImplementedError

    def check(self, run: Pass) -> None:
        """Correctness checks and quality figures, after the timed loop."""

    def _guard(self, run: Pass, what: str, fn):
        """Run one operation; an exception counts it as failed."""
        try:
            return fn()
        except Exception:  # noqa: BLE001 - an operation must not end the run
            run.attempted += 1
            run.fail(f"{what}: {traceback.format_exc(limit=1).splitlines()[-1]}")
            return None


# ---------------------------------------------------------------------------

class TrainDesk(Workload):
    """`ppo.train` on configs/train_desk.json for a fixed env-step budget."""

    name = "train_desk"
    round_s = 7.2            # one PPO iteration: collect + update
    expected_layers = ("ppo.train", "ppo.collect_rollout", "ppo.compute_gae",
                       "ppo.ppo_update", "tensor.backward", "tensor.adam_step",
                       "world.Episode.observe", "world.arbitrate",
                       "world.advance", "gnn.build_graph", "gnn.gcn_encode",
                       "policy.actor_forward", "policy.critic_forward",
                       "policy.sample_action", "pathplan.cost_matrix",
                       "pathplan.distance_field", "pathplan.resolve_paths")
    predicted_zero = ("pathplan.astar", "pathplan.rrt_star")

    def setup(self):
        with open(os.path.join(CONFIG_DIR, "train_desk.json")) as f:
            blob = json.load(f)
        self.world_cfg = world.WorldConfig.from_dict(blob["world"])
        self.budget = self.rounds * blob["ppo"]["train_batch"]
        self.ppo_cfg = ppo.PPOConfig.from_dict(dict(blob["ppo"],
                                                    total_steps=self.budget))
        # warm-up: a short collect + update at full grid size
        tiny_ppo = ppo.PPOConfig.from_dict(dict(
            blob["ppo"], train_batch=16, minibatch=16, epochs_per_update=1,
            total_steps=16))
        ppo.train(self.world_cfg, tiny_ppo, WARMUP_SEED,
                  os.path.join(self.out_dir, "warmup"))

    def run(self, run, tag):
        out = os.path.join(self.out_dir, f"train-{tag}")
        shutil.rmtree(out, ignore_errors=True)
        iterations = []         # (probe start, start, env steps collected)
        collect = ppo.collect_rollout

        def timed_collect(*args, **kwargs):
            before_probe = time.perf_counter()
            run.probe()
            t = time.perf_counter()
            buffer = collect(*args, **kwargs)
            iterations.append((before_probe, t, buffer.n_transitions))
            return buffer

        ppo.collect_rollout = timed_collect
        try:
            with Probes(run):
                result = self._guard(run, "train", lambda: ppo.train(
                    self.world_cfg, self.ppo_cfg, self.seed, out))
            end = time.perf_counter()
            run.probe()
        finally:
            ppo.collect_rollout = collect
        # one round per PPO iteration: collect + update (+ checkpoint save),
        # up to the probe before the next iteration
        ends = [b for b, _, _ in iterations[1:]] + [end]
        run.rounds = [(steps, stop - t)
                      for (_, t, steps), stop in zip(iterations, ends)]
        run.raw = result
        if result is not None:
            run.work = result["env_steps"]

    def check(self, run):
        result = run.raw
        if result is None:
            return
        with open(result["metrics"]) as f:
            text = f.read()
        rows = list(csv.DictReader(text.splitlines()))
        run.seeded.append(text)
        run.attempted += len(rows)
        for row in rows:
            if not all(math.isfinite(float(row[k]))
                       for k in ("policy_loss", "value_loss")):
                run.fail(f"update {row['update_index']}: non-finite loss")
        if result["env_steps"] < self.budget:
            run.fail(f"env_steps {result['env_steps']} < budget {self.budget}")
        if not checkpoint_round_trips(result["checkpoint"]):
            run.fail("final checkpoint does not round-trip bit-exactly")
        run.quality["env_steps"] = result["env_steps"]
        run.quality["updates"] = result["updates"]


def checkpoint_round_trips(path: str) -> bool:
    """Load, save again, load again: every parameter must match bit for
    bit, and the second file must equal the first."""
    first = ppo.ModelParams.load(path)
    again = path + ".again"
    first.save(again)
    second = ppo.ModelParams.load(again)
    with open(path, "rb") as a, open(again, "rb") as b:
        same_file = a.read() == b.read()
    os.remove(again)
    return same_file and all(
        p.data.tobytes() == second.named()[k].data.tobytes()
        for k, p in first.named().items())


# ---------------------------------------------------------------------------

class BenchStatic(Workload):
    """`bench.run_benchmark` for the three baselines, static mode."""

    name = "bench_static"
    round_s = 4.6            # one sweep: 3 methods x N in STATIC_N
    expected_layers = ("bench.run_benchmark", "bench.run_episode_baseline",
                       "pathplan.astar", "pathplan.cost_matrix",
                       "pathplan.distance_field", "pathplan.resolve_paths",
                       "world.advance", "world.init_episode",
                       "assign.feasible_optimum", "assign.greedy",
                       "assign.random_assign")
    predicted_zero = ("tensor.backward", "pathplan.rrt_star",
                      "gnn.build_graph", "policy.actor_forward")

    def spec(self, r, n, method):
        return ScenarioSpec(mode="static", n_agents=(n,), methods=(method,),
                            episodes=1, seed_base=self.seed * 1000 + r,
                            obstacle_density=0.1, grid_dims=(50, 50, 30))

    def setup(self):
        cfg = self.spec(0, 4, "hungarian").world_config(4)
        for method in BASELINES:
            bench.run_episode_baseline(method, cfg, WARMUP_SEED)

    def run(self, run, tag):
        logs = {}
        run.start()
        for r in range(self.rounds):
            for n in STATIC_N:
                for method in BASELINES:
                    spec = self.spec(r, n, method)
                    e0 = time.perf_counter()
                    report = self._guard(run, f"{method} N={n} round {r}",
                                         lambda: bench.run_benchmark(spec, 1))
                    if report is None:
                        continue
                    run.episode_s.append(time.perf_counter() - e0)
                    run.attempted += 1
                    run.work += 1
                    logs[(r, n, method)] = report.episode_logs[0]
                    run.seeded.append(report_rows(report))
            run.end_round()
        run.decision_s = [log.alloc_wall_s for log in logs.values()]
        run.raw = logs

    def check(self, run):
        logs = run.raw
        for (r, n, method), log in logs.items():
            if method != "hungarian":
                continue
            for other in ("greedy", "random"):
                o = logs.get((r, n, other))
                if o is not None and len(o.path_lengths_m) == \
                        len(log.path_lengths_m) \
                        and log.total_cost_s > o.total_cost_s + 1e-9:
                    run.fail(f"N={n} round {r}: hungarian {log.total_cost_s} "
                             f"> {other} {o.total_cost_s}")
        run.quality = quality(list(logs.values()))


def quality(logs) -> dict:
    if not logs:
        return {}
    return {"travel_cost_s.mean": float(np.mean([l.total_cost_s for l in logs])),
            "conflict_free_pct": bench.success_rate(logs),
            "episodes": len(logs)}


# ---------------------------------------------------------------------------

class EvalDynamic(Workload):
    """The decentralized policy (the `eval` path) in dynamic mode, driven
    by a checkpoint generated from the workload seed."""

    name = "eval_dynamic"
    round_s = 4.8            # one episode at each N in DYNAMIC_N
    expected_layers = ("bench.run_benchmark", "bench.run_episode_magnnet",
                       "world.Episode.observe", "world.arbitrate",
                       "world.advance", "world.spawn_tasks",
                       "world.init_episode", "gnn.build_graph",
                       "gnn.gcn_encode", "policy.actor_forward",
                       "policy.sample_action", "pathplan.cost_matrix",
                       "pathplan.distance_field", "pathplan.resolve_paths")
    predicted_zero = ("tensor.backward", "pathplan.rrt_star", "pathplan.astar")

    def spec(self, r, n, step_cap=200.0):
        return ScenarioSpec(mode="dynamic", n_agents=(n,), methods=("magnnet",),
                            episodes=1, seed_base=self.seed * 1000 + r,
                            checkpoint=self.checkpoint, task_interval=5.0,
                            step_cap=step_cap, obstacle_density=0.1,
                            grid_dims=(50, 50, 30))

    def setup(self):
        self.checkpoint = os.path.join(self.out_dir, "checkpoint.json")
        model = ppo.ModelParams.init(np.random.default_rng(self.seed),
                                     n_max=20, m_max=20)
        model.save(self.checkpoint)
        loaded = ppo.ModelParams.load(self.checkpoint)
        self.round_trip_ok = all(
            p.data.tobytes() == loaded.named()[k].data.tobytes()
            for k, p in model.named().items())
        bench._load_model.cache_clear()
        bench._load_model(self.checkpoint)
        warm = self.spec(0, 4, step_cap=10.0)
        bench.run_episode_magnnet(warm.world_config(4), WARMUP_SEED,
                                  bench._load_model(self.checkpoint))

    def run(self, run, tag):
        logs = []
        run.start()
        with Probes(run):
            for r in range(self.rounds):
                for n in DYNAMIC_N:
                    spec = self.spec(r, n)
                    report = self._guard(run, f"N={n} round {r}",
                                         lambda: bench.run_benchmark(spec, 1))
                    if report is None:
                        continue
                    run.attempted += 1
                    run.work += 1
                    logs.append(report.episode_logs[0])
                    run.seeded.append(report_rows(report))
                run.end_round()
        run.raw = logs

    def check(self, run):
        logs = run.raw
        for log in logs:
            if not (math.isfinite(log.total_cost_s) and log.total_cost_s >= 0):
                run.fail(f"N={log.n_agents}: travel cost {log.total_cost_s}")
        if not self.round_trip_ok:
            run.fail("checkpoint does not round-trip bit-exactly",
                     run.attempted - run.failed)
        run.quality = quality(logs)


# ---------------------------------------------------------------------------

class InstanceRecorder:
    """Keeps every instance `bench.planner_compare` plans: the (grid,
    start, goal, model, path) plain A* returns, and the RRT* length when
    RRT* also finds a path.  Only those instances get a report row, in
    the same order, so rows and instances can be matched for the checks
    after the timed region."""

    def __init__(self):
        self.instances: list = []

    def __enter__(self):
        self._originals = (pathplan.astar, bench.rrt_star)
        astar, rrt_star = self._originals
        instances = self.instances

        def recorded_astar(grid, start, goal, model, *args, **kwargs):
            path = astar(grid, start, goal, model, *args, **kwargs)
            instances.append({"astar": (grid, start, goal, model, path),
                              "rrt_star_length_m": None})
            return path

        def recorded_rrt_star(*args, **kwargs):
            path = rrt_star(*args, **kwargs)
            instances[-1]["rrt_star_length_m"] = path.length
            return path

        pathplan.astar, bench.rrt_star = recorded_astar, recorded_rrt_star
        return self

    def __exit__(self, *exc):
        pathplan.astar, bench.rrt_star = self._originals
        return False


def check_astar_path(grid, start, goal, model, path) -> str | None:
    """None when the path is valid and as long as the exact distance."""
    try:
        path.validate(grid, model)
    except ValueError as exc:
        return f"invalid A* path {start}->{goal}: {exc}"
    if path.cells[0] != tuple(start) or path.goal != tuple(goal):
        return f"A* path {start}->{goal} has wrong endpoints"
    field = pathplan.distance_field(grid, goal, model)
    if field[tuple(start)] != path.length:
        return (f"A* length {path.length} != distance field "
                f"{field[tuple(start)]} for {start}->{goal}")
    return None


def check_row(row, astar_length, rrt_star_length) -> str | None:
    """None when a report row carries the lengths the planners returned
    and RRT* is no shorter than A*."""
    if (row["astar_length_m"], row["rrt_star_length_m"]) != \
            (astar_length, rrt_star_length):
        return (f"agent {row['agent']}: row lengths differ from what A* "
                f"({astar_length}) and RRT* ({rrt_star_length}) returned")
    if rrt_star_length < astar_length:
        return (f"agent {row['agent']}: RRT* {rrt_star_length} < "
                f"A* {astar_length}")
    return None


class PlannerCompare(Workload):
    """`bench.planner_compare`: A* and RRT* on the same instances."""

    name = "planner_compare"
    round_s = 3.2            # one episode at each N in PLANNER_N
    expected_layers = ("bench.planner_compare", "pathplan.astar",
                       "pathplan.rrt_star", "pathplan.cost_matrix",
                       "pathplan.distance_field", "assign.feasible_optimum",
                       "world.init_episode")
    predicted_zero = ("tensor.backward",)

    def spec(self, r, n):
        return ScenarioSpec(mode="static", n_agents=(n,), methods=("hungarian",),
                            episodes=1, seed_base=self.seed * 1000 + r,
                            obstacle_density=0.1, grid_dims=(50, 50, 30))

    def setup(self):
        ep = world.Episode(self.spec(0, 4).world_config(4), WARMUP_SEED)
        ep.initial_cost_matrix()
        agent, task = ep.state.agents[-1], ep.state.tasks[0]
        try:
            pathplan.astar(ep.state.grid, agent.position, task.location,
                           agent.motion_model)
        except NoPathError:
            pass

    def run(self, run, tag):
        checks = []
        run.start()
        for r in range(self.rounds):
            for n in PLANNER_N:
                spec = self.spec(r, n)
                e0 = time.perf_counter()
                with InstanceRecorder() as rec:
                    result = self._guard(run, f"N={n} round {r}",
                                         lambda: bench.planner_compare(spec))
                if result is None:
                    continue
                run.episode_s.append(time.perf_counter() - e0)
                rows = result[n]["instances"]
                run.work += len(rows)
                run.attempted += len(rec.instances)
                run.seeded.append([(row["astar_length_m"],
                                    row["rrt_star_length_m"]) for row in rows])
                checks.append((n, r, rows, rec.instances))
            run.end_round()
        run.raw = checks

    def check(self, run):
        """One failure per instance, however many of its checks fail."""
        lengths = {"astar": [], "rrt_star": []}
        for n, r, rows, instances in run.raw:
            planned = [i for i in instances if i["rrt_star_length_m"] is not None]
            if len(planned) != len(rows):
                run.fail(f"N={n} round {r}: {len(rows)} report rows for "
                         f"{len(planned)} instances RRT* solved", len(instances))
                continue
            row_of = {id(inst): row for inst, row in zip(planned, rows)}
            for inst in instances:
                row = row_of.get(id(inst))
                problem = check_astar_path(*inst["astar"])
                if row is not None and not problem:
                    problem = check_row(row, inst["astar"][4].length,
                                        inst["rrt_star_length_m"])
                if problem:
                    run.fail(f"N={n} round {r}: {problem}")
            for row in rows:
                lengths["astar"].append(row["astar_length_m"])
                lengths["rrt_star"].append(row["rrt_star_length_m"])
        if lengths["astar"]:
            run.quality = {
                "astar_length_m.mean": float(np.mean(lengths["astar"])),
                "rrt_star_length_m.mean": float(np.mean(lengths["rrt_star"])),
                "instances": len(lengths["astar"])}


WORKLOADS = {w.name: w for w in (TrainDesk, BenchStatic, EvalDynamic,
                                 PlannerCompare)}
