"""Benchmark harness tests: report shape, metric definitions,
determinism of everything except wall-time columns, and curve emission."""

import csv
import dataclasses
import json
import time

import numpy as np
import pytest

from magnnet import bench, pathplan, world
from magnnet import tensor as T
from magnnet.bench import (BenchReport, EpisodeLog, REPORT_COLUMNS,
                           ScenarioSpec, WALL_TIME_COLUMNS, allocation_time,
                           emit_curves, planner_compare, run_benchmark,
                           run_episode_baseline, run_episode_magnnet,
                           success_rate)
from magnnet.gnn import build_graph
from magnnet.policy import sample_action
from magnnet.ppo import ModelParams, _forward_steps
from magnnet.world import AgentStatus, Episode, WorldConfig


def small_spec(**kw):
    base = dict(mode="static", n_agents=(4,),
                methods=("hungarian", "greedy", "random"), episodes=3,
                seed_base=5, grid_dims=(15, 15, 6), obstacle_density=0.08,
                step_cap=120.0)
    base.update(kw)
    return ScenarioSpec(**base)


def strip_wall_time(csv_path):
    with open(csv_path) as f:
        rows = list(csv.reader(f))
    drop = [rows[0].index(c) for c in WALL_TIME_COLUMNS]
    return [[v for k, v in enumerate(r) if k not in drop] for r in rows]


def without_wall_time(log):
    return dataclasses.replace(log, alloc_wall_s=0.0)


def count_calls(monkeypatch, name="distance_field"):
    """Patch `pathplan.<name>` to record, per call, how many instances
    the shared cost-matrix cache held when the call started."""
    real = getattr(pathplan, name)
    held = []

    def counting(*args, **kw):
        held.append(len(bench._instance_costs))
        return real(*args, **kw)

    monkeypatch.setattr(pathplan, name, counting)
    return held


class TestScenarioSpec:
    def test_magnnet_requires_checkpoint(self):
        with pytest.raises(ValueError):
            ScenarioSpec(methods=("magnnet",))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(methods=("oracle",))

    # episodes=0 used to reach run_benchmark and fail with a KeyError
    @pytest.mark.parametrize("kw", [
        dict(episodes=0), dict(n_agents=()), dict(n_agents=(0,)),
        dict(n_agents=(4, -1)), dict(seed_base=-1)],
        ids=["episodes-0", "n_agents-empty", "n_agents-0", "n_agents-neg",
             "seed_base-neg"])
    def test_empty_sweep_rejected(self, kw):
        with pytest.raises(ValueError):
            ScenarioSpec(methods=("hungarian",), **kw)

    # a repeated entry used to merge cells: ("greedy", "greedy") x (3, 3)
    # reported 4 identical rows, each claiming 4 episodes
    @pytest.mark.parametrize("kw", [
        dict(methods=("greedy", "greedy")), dict(n_agents=(3, 3)),
        dict(methods=("greedy", "greedy"), n_agents=(3, 3))],
        ids=["methods", "n_agents", "both"])
    def test_duplicate_entries_rejected(self, kw):
        base = dict(methods=("greedy",), n_agents=(3,), episodes=1,
                    grid_dims=(12, 12, 4))
        with pytest.raises(ValueError, match="twice"):
            ScenarioSpec(**dict(base, **kw))

    def test_dynamic_gets_default_interval(self):
        spec = ScenarioSpec(mode="dynamic", methods=("hungarian",))
        assert spec.task_interval == 5.0

    def test_world_config_split(self):
        cfg = small_spec().world_config(4)
        assert cfg.n_ground == 2 and cfg.n_aerial == 2
        assert cfg.n_tasks_initial == 4 and cfg.m_max == 4


class TestMetrics:
    def test_success_rate(self):
        logs = [EpisodeLog("x", 4, 4, [1], 0, 0, []),
                EpisodeLog("x", 4, 4, [], 0, 0, [])]
        assert success_rate(logs) == pytest.approx(100.0 * 7 / 8)

    def test_allocation_time_mean(self):
        logs = [EpisodeLog("x", 4, 4, [], 0, 0.2, []),
                EpisodeLog("x", 4, 4, [], 0, 0.4, [])]
        assert allocation_time(logs) == pytest.approx(0.3)


class TestBaselineEpisodes:
    def test_hungarian_is_conflict_free(self):
        cfg = small_spec().world_config(4)
        for e in range(5):
            log = run_episode_baseline("hungarian", cfg, 1000 + e)
            assert log.contested == []

    def test_methods_ordered_on_average(self):
        cfg = small_spec().world_config(4)
        h, g, r = [], [], []
        for e in range(8):
            h.append(run_episode_baseline("hungarian", cfg, 2000 + e).total_cost_s)
            g.append(run_episode_baseline("greedy", cfg, 2000 + e).total_cost_s)
            r.append(run_episode_baseline("random", cfg, 2000 + e).total_cost_s)
        assert np.mean(h) <= np.mean(g) + 1e-9
        assert np.mean(g) <= np.mean(r) + 1e-9

    def test_episode_log_fields(self):
        cfg = small_spec().world_config(4)
        log = run_episode_baseline("hungarian", cfg, 7)
        assert log.method == "hungarian"
        assert log.n_agents == 4
        assert log.total_cost_s >= 0
        assert all(l >= 0 for l in log.path_lengths_m)


def reference_magnnet_episode(config, seed, model):
    """The round loop `run_episode_magnnet` ran before `ppo.play` took it
    over: the reference whose log the driver must reproduce."""
    ep = Episode(config, seed)
    rng = np.random.default_rng(seed)
    while not ep.terminated:
        if ep.decision_due():
            obs, masks, cm, _ = ep.observe()
            graph = build_graph(ep.state, cm, obs)
            with T.no_grad():
                dist, _ = _forward_steps(model, [graph], obs, masks,
                                         with_value=False)
                actions, _ = sample_action(dist, rng, greedy=True)
            ep.act(actions)
        ep.tick()
    return EpisodeLog("magnnet", config.n_agents, len(ep.state.tasks),
                      sorted(ep.state.contested_tasks), ep.achieved_total(),
                      0.0, bench._assigned_path_lengths(ep))


class TestMagnnetEpisode:
    @pytest.mark.parametrize("spec_kw", [
        {}, dict(mode="dynamic", task_interval=4.0, step_cap=60.0)],
        ids=["static", "dynamic"])
    def test_log_equals_reference_loop(self, spec_kw, monkeypatch):
        cfg = small_spec(**spec_kw).world_config(4)
        model = ModelParams.init(np.random.default_rng(3), 4, cfg.m_max)
        spans, lives = [], []

        class Timed(Episode):
            """Times each round from `observe` to `act`'s return, inside
            the span the driver times, and the episode's whole life."""

            def __init__(self, *args):
                self.born = time.perf_counter()
                super().__init__(*args)

            def observe(self):
                self.seen = time.perf_counter()
                return super().observe()

            def act(self, actions):
                out = super().act(actions)
                spans.append(time.perf_counter() - self.seen)
                return out

            @property
            def terminated(self):
                done = super().terminated
                if done:
                    lives.append(time.perf_counter() - self.born)
                return done

        monkeypatch.setattr(bench, "Episode", Timed)
        log = run_episode_magnnet(cfg, 9, model)
        assert without_wall_time(log) == \
            reference_magnnet_episode(cfg, 9, model)
        # the rounds' spans, each holding its observe-to-act interval,
        # and nothing outside the episode's life
        assert spans and sum(spans) <= log.alloc_wall_s <= lives[0]

    def test_path_lengths_are_whole_field_distances(self, monkeypatch):
        """Every length is the field distance of its pair, a whole number.
        A cost times the agent's speed is whole at the speeds 3 and 5 (d /
        v * v == d for every d < 400) but not at every speed: at 7, 29 /
        7 * 7 is 29.000000000000004."""
        cfg = WorldConfig(grid_dims=(40, 40, 4), n_agents=4,
                          n_tasks_initial=4, n_ground=2, n_aerial=2,
                          obstacle_density=0.08, task_interval=2.0,
                          step_cap=60.0)
        model = ModelParams.init(np.random.default_rng(3), 4, cfg.m_max)
        real = world.assign_tasks
        want = []

        def recording(state, picks):
            for agent_id, task_id, _, _ in picks:
                agent, task = state.agent(agent_id), state.task(task_id)
                want.append(pathplan.distance_field(
                    state.grid, task.location,
                    agent.motion_model)[agent.position])
            real(state, picks)

        monkeypatch.setattr(world, "assign_tasks", recording)
        for seed in range(4):
            want.clear()
            lengths = run_episode_magnnet(cfg, seed, model).path_lengths_m
            assert want and lengths == want
            assert all(float(n).is_integer() for n in lengths)


class TestRunBenchmark:
    def test_report_shape_and_determinism(self, tmp_path):
        spec = small_spec()
        r1 = run_benchmark(spec)
        r2 = run_benchmark(small_spec())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        r1.to_csv(p1)
        r2.to_csv(p2)
        assert strip_wall_time(p1) == strip_wall_time(p2)
        with open(p1) as f:
            rows = list(csv.reader(f))
        assert rows[0] == REPORT_COLUMNS
        assert len(rows) == 1 + len(spec.methods) * len(spec.n_agents)

    def test_json_report_carries_reference_tables(self, tmp_path):
        r = run_benchmark(small_spec(methods=("hungarian",), episodes=2))
        path = tmp_path / "r.json"
        r.to_json(path)
        blob = json.loads(path.read_text())
        assert "reference_full_scale" in blob
        assert "rows" in blob and blob["rows"]

    def test_magnnet_method_runs_from_checkpoint(self, tmp_path):
        model = ModelParams.init(np.random.default_rng(0), 4, 4)
        ck = tmp_path / "ck.json"
        model.save(ck)
        spec = small_spec(methods=("magnnet",), episodes=2,
                          checkpoint=str(ck))
        report = run_benchmark(spec)
        assert len(report.rows) == 1
        assert report.rows[0]["method"] == "magnnet"

    def test_dynamic_checkpoint_plays_more_agents(self, tmp_path):
        """A dynamic checkpoint trained at N = 4 plays an N = 8 cell: the
        encoder and actor, all that evaluation runs, are sized by m_max
        alone, 20 at both N."""
        model = ModelParams.init(np.random.default_rng(0), 4, 20)
        ck = tmp_path / "ck.json"
        model.save(ck)
        spec = small_spec(mode="dynamic", task_interval=4.0, step_cap=60.0,
                          n_agents=(4, 8), methods=("magnnet",), episodes=1,
                          checkpoint=str(ck))
        report = run_benchmark(spec)
        assert [(r["method"], r["n_agents"]) for r in report.rows] == \
            [("magnnet", 4), ("magnnet", 8)]
        cfg = spec.world_config(8)
        assert without_wall_time(run_episode_magnnet(cfg, 9, model)) == \
            reference_magnnet_episode(cfg, 9, model)


class TestSharedInstanceCosts:
    """Baseline episodes of one seeded instance share its initial cost
    matrix through `bench._instance_costs`, which holds one instance."""

    BASELINES = ("hungarian", "greedy", "random")

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        bench._instance_costs.clear()
        yield
        bench._instance_costs.clear()

    def test_baselines_share_one_cost_matrix(self, monkeypatch):
        cfg = small_spec().world_config(4)
        cold = {}
        for method in self.BASELINES:
            bench._instance_costs.clear()
            cold[method] = run_episode_baseline(method, cfg, 11)
        bench._instance_costs.clear()
        fields = count_calls(monkeypatch)
        costs = count_calls(monkeypatch, "cost_matrix")
        warm, built = {}, {}
        for method in self.BASELINES:
            before = len(fields)
            warm[method] = run_episode_baseline(method, cfg, 11)
            built[method] = len(fields) - before
        # the first episode builds one field per (task, motion model),
        # 2 models x M tasks, for the instance's one cost matrix
        assert built == {"hungarian": 2 * cfg.n_tasks_initial,
                         "greedy": 0, "random": 0}
        assert costs == [0]
        for method in self.BASELINES:
            assert without_wall_time(warm[method]) == \
                without_wall_time(cold[method])
        (cm,) = bench._instance_costs.values()
        with pytest.raises(ValueError):
            cm.entries[0, 0] = 0.0

    @pytest.mark.parametrize("change", [
        dict(seed=12), dict(step_cap=119.0), dict(obstacle_density=0.1)],
        ids=["seed", "step_cap", "obstacle_density"])
    def test_other_instance_replaces_cache_entry(self, change, monkeypatch):
        cfg = small_spec().world_config(4)
        run_episode_baseline("greedy", cfg, 11)
        first = dict(bench._instance_costs)
        change = dict(change)
        seed = change.pop("seed", 11)
        other = dataclasses.replace(cfg, **change)
        fields = count_calls(monkeypatch)
        costs = count_calls(monkeypatch, "cost_matrix")
        run_episode_baseline("greedy", other, seed)
        assert costs == [0]
        assert fields and set(fields) == {0}
        assert len(bench._instance_costs) == 1
        assert bench._instance_costs.keys() != first.keys()

    def test_cache_hit_episode_builds_no_field(self, monkeypatch):
        """A dynamic baseline episode that reads the cached matrix keeps
        an empty field store to its end, while tasks spawn into its free
        slots: nothing in it reads a field.  It ends once its pairs are
        served and counts only the tasks it was offered."""
        cfg = WorldConfig(grid_dims=(12, 12, 4), n_agents=3, n_ground=1,
                          n_aerial=2, n_tasks_initial=2,
                          task_interval=1.0, step_cap=60.0,
                          obstacle_density=0.05)
        run_episode_baseline("hungarian", cfg, 4)
        episodes, stored = [], []

        class Recorded(Episode):
            def __init__(self, *args):
                super().__init__(*args)
                episodes.append(self)

            def tick(self):
                super().tick()
                stored.append(len(self.state.dist_cache.keys()))

        monkeypatch.setattr(bench, "Episode", Recorded)
        fields = count_calls(monkeypatch)
        costs = count_calls(monkeypatch, "cost_matrix")
        log = run_episode_baseline("greedy", cfg, 4)
        (ep,) = episodes
        assert fields == [] and costs == []
        assert stored and set(stored) == {0}
        store = ep.state.dist_cache
        assert store.keys() == set()
        assert all(work.built == 0 for work in store.work.values())
        assert len(stored) == ep.state.clock < cfg.step_cap
        assert not ep.all_tasks_done() and all(
            a.status is AgentStatus.IDLE for a in ep.state.agents)
        spawned = [e for e in ep.state.log
                   if e["event"] == "task_spawn" and e["tick"] > 0]
        assert len(spawned) >= 1 and log.n_tasks == cfg.n_tasks_initial

    def test_magnnet_leaves_cache_alone(self, monkeypatch):
        cfg = small_spec().world_config(4)
        run_episode_baseline("hungarian", cfg, 17)
        before = dict(bench._instance_costs)
        entries = {k: np.array(cm.entries) for k, cm in before.items()}
        model = ModelParams.init(np.random.default_rng(0), 4, 4)
        fields = count_calls(monkeypatch)
        run_episode_magnnet(cfg, 17, model)
        assert len(fields) >= 2 * cfg.n_tasks_initial   # its own fields
        assert bench._instance_costs.keys() == before.keys()
        for key, cm in bench._instance_costs.items():
            assert cm is before[key]
            assert np.array_equal(cm.entries, entries[key])

    def test_sweep_runs_instance_major(self, monkeypatch):
        spec = small_spec(episodes=2, n_agents=(3, 4))
        fields = count_calls(monkeypatch)
        costs = count_calls(monkeypatch, "cost_matrix")
        run_benchmark(spec)
        # one cost matrix per instance, from ground and aerial agents at
        # both N: 2 models x M tasks each
        assert len(costs) == spec.episodes * len(spec.n_agents)
        assert len(fields) == spec.episodes * sum(2 * n for n in spec.n_agents)

    def test_pool_matches_serial(self):
        spec = small_spec(methods=("greedy", "hungarian"), n_agents=(3, 4),
                          episodes=2)
        serial = run_benchmark(spec, 1)
        pooled = run_benchmark(spec, 2)
        wall = set(WALL_TIME_COLUMNS)
        assert [{k: v for k, v in row.items() if k not in wall}
                for row in pooled.rows] == \
            [{k: v for k, v in row.items() if k not in wall}
             for row in serial.rows]
        assert [without_wall_time(log) for log in pooled.episode_logs] == \
            [without_wall_time(log) for log in serial.episode_logs]
        # episode_logs stay method-major: method, then N, then episode
        assert [(log.method, log.n_agents) for log in serial.episode_logs] \
            == [(m, n) for m in spec.methods for n in spec.n_agents
                for _ in range(spec.episodes)]


class TestPlannerCompare:
    def test_astar_never_longer_per_instance(self):
        spec = small_spec(methods=("hungarian",), episodes=3)
        results = planner_compare(spec)
        rows = results[4]["instances"]
        assert rows
        for r in rows:
            assert r["astar_length_m"] <= r["rrt_star_length_m"]
        assert results[4]["mean_astar_length_m"] <= \
            results[4]["mean_rrt_star_length_m"]

    def test_no_path_instances_are_counted(self):
        """Benchmark seed 3 at N = 4: four assigned pairs, one of them
        without an RRT* path (the `planner_compare_instances` fixture of
        test_pathplan.py)."""
        spec = ScenarioSpec(mode="static", n_agents=(4,), methods=("hungarian",),
                            episodes=1, seed_base=3000, obstacle_density=0.1,
                            grid_dims=(50, 50, 30))
        result = planner_compare(spec)[4]
        assert (len(result["instances"]), result["rrt_star_no_path"]) == \
            (3, 1)


class TestCurves:
    def test_emit_curves(self, tmp_path):
        log = tmp_path / "metrics.csv"
        with open(log, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["update_index", "env_steps", "mean_episode_reward",
                        "mean_entropy", "policy_loss", "value_loss",
                        "clip_fraction"])
            w.writerow([1, 512, 2.0, 1.5, 0, 0, 0])
            w.writerow([2, 1024, 2.5, 1.0, 0, 0, 0])
        paths = emit_curves(str(log), str(tmp_path / "curves"))
        with open(paths["entropy"]) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["env_steps", "mean_entropy"]
        assert rows[1:] == [["512", "1.5"], ["1024", "1.0"]]
