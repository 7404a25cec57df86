"""Every shipped config loads into the dataclass that consumes it, every
setting is one that some caller sets, every function is one that some
command or pinned check enters, and keys for settings that no longer
exist are rejected instead of being silently ignored."""

import ast
import dataclasses
import glob
import importlib
import json
import os
import pkgutil
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import magnnet
from magnnet import assign, bench, cli, gnn, pathplan, policy
from magnnet import tensor as T
from magnnet.bench import ScenarioSpec
from magnnet.ppo import PPOConfig
from magnnet.world import Episode, WorldConfig

from helpers import REPO, empty_grid, load_tracer

CONFIG_DIR = os.path.join(REPO, "configs")
CONFIGS = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json")))


def test_configs_present():
    assert CONFIGS


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_config_loads(path):
    with open(path) as f:
        blob = json.load(f)
    if "world" in blob:  # training config: the `train` command's sections
        assert set(blob) <= {"world", "ppo"}
        WorldConfig.from_dict(blob["world"])
        PPOConfig.from_dict(blob["ppo"])
    else:                # scenario spec: bench, eval and planner-compare
        ScenarioSpec.from_dict(blob)


def settings_set_by_callers(tmp_path, monkeypatch):
    """(class name, field) pairs that a shipped config, the spec's world
    config or a CLI command sets."""
    found = set()
    for path in CONFIGS:
        with open(path) as f:
            blob = json.load(f)
        if "world" in blob:
            found |= {("WorldConfig", k) for k in blob["world"]}
            found |= {("PPOConfig", k) for k in blob["ppo"]}
        else:
            found |= {("ScenarioSpec", k) for k in blob}

    def record(cls_name):
        def build(d=None, **kw):
            found.update((cls_name, k) for k in (d or kw))
        return build

    monkeypatch.setattr(bench, "WorldConfig", record("WorldConfig"))
    ScenarioSpec(methods=("hungarian",)).world_config(4)
    # the keys each scenario command writes over an empty scenario file
    monkeypatch.setattr(cli.ScenarioSpec, "from_dict",
                        record("ScenarioSpec"))
    for name in ("run_benchmark", "_write_report", "_planner_compare"):
        monkeypatch.setattr(cli, name, lambda *args: {})
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    for args in (["eval", str(empty)], ["bench"], ["planner-compare"]):
        result = CliRunner().invoke(cli.main, args + [
            str(empty), "--episodes", "1", "--seed", "0",
            "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
    return found


def test_every_setting_has_a_caller(tmp_path, monkeypatch):
    """A value that no entry point sets belongs in a module constant,
    not in a config field."""
    fields = {(cls.__name__, f.name) for cls in (WorldConfig, PPOConfig,
                                                  ScenarioSpec)
              for f in dataclasses.fields(cls)}
    assert len(fields) == 24
    assert fields - settings_set_by_callers(tmp_path, monkeypatch) == set()


def package_modules():
    return [importlib.import_module(f"magnnet.{info.name}")
            for info in pkgutil.iter_modules(magnnet.__path__)]


def defined_functions(modules) -> dict:
    """(file, first line) -> "module:line name" of every def in the
    package, nested ones included.  A code object's first line is its
    first decorator's, if it has one."""
    found = {}
    for module in modules:
        with open(module.__file__) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno
                                              for d in node.decorator_list])
                found[(module.__file__, first)] = \
                    f"{module.__name__}:{node.lineno} {node.name}"
    return found


def command_runs(tmp_path):
    """Every CLI command on tiny inputs, serially.  The crowded bench
    scenario makes `resolve_paths` replan, which no other run forces."""
    tiny = tmp_path / "train.json"
    tiny.write_text(json.dumps({
        "world": {"grid_dims": [12, 12, 4], "n_agents": 4,
                  "n_tasks_initial": 4, "n_ground": 2, "n_aerial": 2},
        "ppo": {"train_batch": 16, "minibatch": 16, "epochs_per_update": 1,
                "total_steps": 32}}))
    crowded = tmp_path / "crowded.json"
    crowded.write_text(json.dumps({
        "mode": "static", "n_agents": [8], "episodes": 3, "seed_base": 1,
        "grid_dims": [6, 6, 2], "methods": ["hungarian", "greedy",
                                             "random"]}))
    static, dynamic = (os.path.join(CONFIG_DIR, f"bench_{mode}_n4.json")
                       for mode in ("static", "dynamic"))
    checkpoint = os.path.join(REPO, "runs", "acceptance", "seed0",
                              "checkpoint.json")
    one = ["--episodes", "1"]
    return [["train", str(tiny), "--out", str(tmp_path / "train")],
            ["curves", str(tmp_path / "train" / "metrics.csv"),
             "--out", str(tmp_path / "curves")],
            ["eval", checkpoint, static, *one, "--out", str(tmp_path / "e")],
            ["bench", static, *one, "--out", str(tmp_path / "static")],
            ["bench", dynamic, *one, "--out", str(tmp_path / "dynamic")],
            ["bench", str(crowded), "--out", str(tmp_path / "crowded")],
            ["planner-compare", static, *one, "--out", str(tmp_path / "p")]]


def criterion_1():
    cm = assign.CostMatrix(np.random.default_rng(0).uniform(0, 10, (3, 4)))
    assign.brute_force(cm)


def criterion_3():
    """Criterion 3's loss on one micro-instance, built once and
    differentiated: its ops are the loss ops no command runs since
    training's loss became one `tensor.ppo_loss` node."""
    cfg = WorldConfig(grid_dims=(8, 8, 4), n_agents=2, n_tasks_initial=2,
                      n_ground=1, n_aerial=1, obstacle_density=0.05)
    ep = Episode(cfg, 300)
    obs, masks, cm, _ = ep.observe()
    graph = gnn.build_graph(ep.state, cm)
    rng = np.random.default_rng(3)
    enc = gnn.init_gcn_params(rng, cfg.m_max)
    actor = policy.init_actor_params(rng, cfg.m_max)
    critic = policy.init_critic_params(rng, cfg.n_agents, cfg.m_max)
    actions = np.array([int(np.flatnonzero(m)[-1]) for m in masks])
    emb = gnn.gcn_encode(graph, enc)
    dist = policy.actor_forward(obs, emb, actor, masks)
    logp = T.log(T.gather_rows(dist.probs, actions))
    v = policy.critic_forward(
        emb, gnn.padded_task_features(graph, cfg.m_max), critic)
    loss = T.add(T.add(T.mean(T.mul(logp, T.Tensor(rng.normal(size=2)))),
                       T.square(v)),
                 T.mul(T.mean(T.entropy_rows(dist.probs)), -0.01))
    T.backward(loss, enc.parameters() + actor.parameters()
               + critic.parameters())


def perfbench_astar_check():
    grid, model = empty_grid((4, 4, 2)), pathplan.MotionModel.AERIAL6
    path = pathplan.astar(grid, (0, 0, 0), (3, 3, 1), model)
    path.validate(grid, model)
    pathplan.distance_field(grid, path.goal, model)


def perfbench_cache_lookups():
    load_tracer().cache_lookups(Episode(WorldConfig(grid_dims=(8, 8, 2)),
                                        0).state)


# Roots that no command enters but a pinned check calls, each called as
# that check calls it; every function a root calls counts as reached
PINNED_ROOTS = {
    "assign.brute_force: acceptance criterion 1 checks the solver that "
    "bench runs against it on random matrices": criterion_1,
    "ParamBundle.parameters and the loss ops log, gather_rows, "
    "entropy_rows, mean, mul, add and square: acceptance criterion 3 "
    "builds a loss from them and checks its gradients": criterion_3,
    "Path.validate, Path.goal and the 3-argument distance_field: "
    "perfbench's check_astar_path": perfbench_astar_check,
    "FieldStore.keys: perfbench's cache_lookups": perfbench_cache_lookups,
}


def test_every_function_is_reached(tmp_path):
    """A function that neither a command nor a pinned check enters is
    test-only: it belongs in the tests that use it, or nowhere.  Pool
    workers are not traced, so the commands run serially."""
    modules = package_modules()
    for module in modules:  # a cached result would hide its function
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename,
                         frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for args in command_runs(tmp_path):
            result = CliRunner().invoke(cli.main, args)
            assert result.exit_code == 0, (args, result.output)
        for root in PINNED_ROOTS.values():
            root()
    finally:
        sys.setprofile(previous)
    defined = defined_functions(modules)
    unreached = sorted(defined[key] for key in defined.keys() - entered)
    assert not unreached, "entered by no command or pinned root:\n" \
        + "\n".join(unreached)


@pytest.mark.parametrize("cls, blob", [
    (ScenarioSpec, {"methods": ["hungarian"], "planner": "astar"}),
    (WorldConfig, {"seed": 0}),
    (WorldConfig, {"tasks_on_ground": True}),
    (WorldConfig, {"max_active_tasks": 20}),
    (PPOConfig, {"normalize_advantages": False}),
    (WorldConfig, {"ground_velocity": 3.0}),
    (WorldConfig, {"aerial_velocity": 5.0}),
    (WorldConfig, {"cost_scale": 50.0}),
    (WorldConfig, {"shaping": {"win_reward": 1.0}}),
    (PPOConfig, {"checkpoint_interval": 25}),
    (PPOConfig, {"gamma": 0.99}),
    (PPOConfig, {"gae_lambda": 0.95}),
    (PPOConfig, {"clip_epsilon": 0.2}),
    (PPOConfig, {"value_coef": 0.5}),
    (WorldConfig, {"m_max": 20}),
], ids=["spec-planner", "world-seed", "world-tasks_on_ground",
        "world-max_active_tasks", "ppo-normalize_advantages",
        "world-ground_velocity", "world-aerial_velocity", "world-cost_scale",
        "world-shaping", "ppo-checkpoint_interval", "ppo-gamma",
        "ppo-gae_lambda", "ppo-clip_epsilon", "ppo-value_coef",
        "world-m_max"])
def test_removed_settings_rejected(cls, blob):
    with pytest.raises(TypeError):
        cls.from_dict(blob)


@pytest.mark.parametrize("cls, blob", [
    (PPOConfig, {"train_batch": 0}),
    (PPOConfig, {"minibatch": 0}),
    (PPOConfig, {"minibatch": -16}),
    (PPOConfig, {"learning_rate": 0.0}),
    (PPOConfig, {"learning_rate": -1.0}),
    (WorldConfig, {"n_tasks_initial": -1}),
    (WorldConfig, {"step_cap": float("inf"), "task_interval": 5.0}),
    (WorldConfig, {"task_interval": float("inf")}),
    (WorldConfig, {"grid_dims": (12, 12)}),
    (WorldConfig, {"grid_dims": (12, 12, 0)}),
    (WorldConfig, {"grid_dims": (12, 12, 4, 2)}),
    (WorldConfig, {"grid_dims": (12.5, 12, 4)}),
    (WorldConfig, {"n_ground": 1.5, "n_aerial": 1.5, "n_agents": 3}),
    (WorldConfig, {"n_tasks_initial": 2.5}),
    (PPOConfig, {"epochs_per_update": 0}),
    (PPOConfig, {"total_steps": 0}),
    (PPOConfig, {"learning_rate": float("inf")}),
    (PPOConfig, {"entropy_coef": float("nan")}),
    (PPOConfig, {"entropy_coef": -0.01}),
    (PPOConfig, {"train_batch": 128.0}),
    (PPOConfig, {"minibatch": 16.0}),
    (PPOConfig, {"epochs_per_update": 1.5}),
    (ScenarioSpec, {"methods": ["hungarian"], "episodes": 1.5}),
    (ScenarioSpec, {"methods": ["hungarian"], "episodes": True}),
    (ScenarioSpec, {"methods": ["hungarian"], "seed_base": 0.5}),
    (ScenarioSpec, {"methods": ["hungarian"], "n_agents": [4, 6.5]}),
    (PPOConfig, {"total_steps": 1.5}),
    (PPOConfig, {"total_steps": True}),
    (ScenarioSpec, {"methods": ["hungarian"], "obstacle_density": 0.5}),
    (ScenarioSpec, {"methods": ["hungarian"], "grid_dims": [12, 12]}),
    (ScenarioSpec, {"methods": ["hungarian"], "step_cap": 0}),
    (ScenarioSpec, {"methods": ["hungarian"], "mode": "dynamic",
                    "task_interval": -1}),
], ids=["ppo-train_batch-0", "ppo-minibatch-0",
        "ppo-minibatch-neg", "ppo-learning_rate-0", "ppo-learning_rate-neg",
        "world-n_tasks_initial-neg", "world-step_cap-inf",
        "world-task_interval-inf", "world-grid_dims-2d",
        "world-grid_dims-zero-axis", "world-grid_dims-4d",
        "world-grid_dims-fractional", "world-mix-fractional",
        "world-n_tasks_initial-fractional", "ppo-epochs_per_update-0",
        "ppo-total_steps-0", "ppo-learning_rate-inf",
        "ppo-entropy_coef-nan", "ppo-entropy_coef-neg",
        "ppo-train_batch-fractional",
        "ppo-minibatch-fractional", "ppo-epochs_per_update-fractional",
        "spec-episodes-fractional", "spec-episodes-bool",
        "spec-seed_base-fractional", "spec-n_agents-fractional",
        "ppo-total_steps-fractional", "ppo-total_steps-bool",
        "spec-obstacle_density-high", "spec-grid_dims-2d", "spec-step_cap-0",
        "spec-task_interval-neg"])
def test_out_of_range_settings_rejected(cls, blob):
    """Each of these used to be accepted and then crash mid-run (division
    by zero after the first update, an empty buffer's IndexError, numpy's
    negative dimensions, math.ceil's OverflowError, an IndexError or a
    broadcast error on a grid without three axes, a diverged first
    update, a TypeError from a fractional count or seed), run without end
    (a dynamic episode under an infinite step cap) or run wrongly
    (one-step minibatches, Adam ascending the loss, float agent ids, no
    update at all, a fractional batch, `true` episodes).  A spec's world settings used to fail only in
    `run_benchmark`'s first job."""
    with pytest.raises(ValueError):
        cls.from_dict(blob)
