"""Every shipped config loads into the dataclass that consumes it, every
setting is one that some caller sets, every function is one that some
command or pinned check enters and every statement in one runs under
them, or is kept with its reason, and keys for settings that no longer
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


def command_runs(tmp_path):
    """Every CLI command on tiny inputs.  The dynamic bench runs through
    a two-worker process pool, so the traced parent runs the pool lines;
    the workers are not traced, and every statement they run a serial
    run reaches too.  The other runs are serial.  The tiny training
    runs past `CHECKPOINT_INTERVAL` updates, so it saves a periodic
    checkpoint; it stays static, since a dynamic one no longer reaches
    `terminal_bonus` and `optimal_total`.  The crowded bench scenario
    makes `resolve_paths` replan, which no other run forces.  The wide
    eval grid, a 2,000-cell corridor that its obstacles cut into pockets,
    spans 32 64-cell blocks per row of packed words: its aerial rows
    (288 words) and ground rows (96) both take `Rings`' numpy loop, the
    one with block carries, and rows run dry in five ticks.
    The fast-spawning bench spawns tasks before its baselines finish."""
    tiny = tmp_path / "train.json"
    tiny.write_text(json.dumps({
        "world": {"grid_dims": [12, 12, 4], "n_agents": 4,
                  "n_tasks_initial": 4, "n_ground": 2, "n_aerial": 2},
        "ppo": {"train_batch": 16, "minibatch": 16, "epochs_per_update": 1,
                "total_steps": 500}}))
    crowded = tmp_path / "crowded.json"
    crowded.write_text(json.dumps({
        "mode": "static", "n_agents": [8], "episodes": 3, "seed_base": 1,
        "grid_dims": [6, 6, 2], "methods": ["hungarian", "greedy",
                                             "random"]}))
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({
        "mode": "static", "n_agents": [4], "episodes": 1,
        "grid_dims": [2000, 1, 1], "step_cap": 5}))
    spawning = tmp_path / "spawning.json"
    spawning.write_text(json.dumps({
        "mode": "dynamic", "n_agents": [4], "episodes": 1,
        "task_interval": 1.0, "grid_dims": [12, 12, 4],
        "methods": ["hungarian", "greedy"]}))
    static, dynamic = (os.path.join(CONFIG_DIR, f"bench_{mode}_n4.json")
                       for mode in ("static", "dynamic"))
    checkpoint = os.path.join(REPO, "runs", "acceptance", "seed0",
                              "checkpoint.json")
    one = ["--episodes", "1"]
    return [["train", str(tiny), "--out", str(tmp_path / "train")],
            ["curves", str(tmp_path / "train" / "metrics.csv"),
             "--out", str(tmp_path / "curves")],
            ["eval", checkpoint, static, *one, "--out", str(tmp_path / "e")],
            ["eval", checkpoint, str(wide), "--out", str(tmp_path / "wide")],
            ["bench", static, *one, "--out", str(tmp_path / "static")],
            ["bench", dynamic, *one, "--parallel", "2",
             "--out", str(tmp_path / "dynamic")],
            ["bench", str(spawning), "--out", str(tmp_path / "spawning")],
            ["bench", str(crowded), "--seed", "1",
             "--out", str(tmp_path / "crowded")],
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


def unreached_statements(modules, executed, entered) -> set:
    """Keys, "module:function: first source line", of the statements in
    package function bodies (nested defs included) that ran no line of
    `executed`, a set of (file, line), and of the defs whose code object
    is not in `entered`, a set of (file, first line), each keyed by its
    def line in its own scope; a code object's first line is its first
    decorator's, if it has one.  A key that would repeat within a
    function gets " #2", " #3" and so on, in source order.  Raise
    statements, docstrings, global and nonlocal declarations, and
    module- and class-level statements are not counted.  A compound
    statement ran if its header or any statement in it did, since
    `try:` alone runs no code."""
    found = set()
    for module in modules:
        path, name = module.__file__, module.__name__.rsplit(".", 1)[-1]
        with open(path) as f:
            text = f.read()
        source, seen = text.splitlines(), {}

        def count(stmt, scope, ran):
            key = f"{name}:{scope[:-1]}: {source[stmt.lineno - 1].strip()}"
            seen[key] = seen.get(key, 0) + 1
            if not ran:
                found.add(key if seen[key] == 1 else f"{key} #{seen[key]}")

        def visit(body, scope, in_function) -> bool:
            """Whether any counted statement of `body` ran."""
            ran_any = False
            for stmt in body:
                if isinstance(stmt, (ast.Raise, ast.Global, ast.Nonlocal)) \
                        or (isinstance(stmt, ast.Expr)
                            and isinstance(stmt.value, ast.Constant)
                            and isinstance(stmt.value.value, str)):
                    continue
                blocks = [getattr(stmt, block, []) for block in
                          ("body", "orelse", "finalbody")]
                blocks += [h.body for h in getattr(stmt, "handlers", [])]
                first = min([stmt.lineno] + [d.lineno for d in getattr(
                    stmt, "decorator_list", [])])
                last = (stmt.body[0].lineno - 1 if blocks[0]
                        else stmt.end_lineno)
                ran = any((path, n) in executed
                          for n in range(first, last + 1))
                if isinstance(stmt, ast.ClassDef):
                    visit(stmt.body, f"{scope}{stmt.name}.", False)
                elif isinstance(stmt, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    inner = f"{scope}{stmt.name}."
                    count(stmt, inner, (path, first) in entered)
                    visit(stmt.body, inner, True)
                else:
                    for block in blocks:
                        ran |= visit(block, scope, in_function)
                if in_function:
                    count(stmt, scope, ran)
                ran_any |= ran
            return ran_any

        visit(ast.parse(text).body, "", False)
    return found


# Statements in package function bodies that no command run or pinned
# root executes, each kept for the reason given.  Keys are exact: an
# entry whose statement is reached, changed or gone fails the gate too.
REACH_ALLOWANCE = {
    "assign:brute_force: candidates = (zip(perm, range(m))":
        "the oracle's n > m case: criterion 1 and TestBruteForce check "
        "the solvers against it on tall matrices",
    "bench:planner_compare: no_path += 1":
        "a pair RRT* finds no path for within its budget gets no row "
        "(test_no_path_instances_are_counted, seed 3000)",
    "bench:planner_compare: continue":
        "as `no_path += 1`",
    "pathplan:FieldStore.lookup: out[:, ~valid] = np.inf":
        "safety: without it a blocked or off-grid cell reads distance 0 "
        "(test_cells_off_the_grid_are_unreachable)",
    "pathplan:Rings.search: return 0":
        "safety: a row started on a non-free source is finished, and "
        "searching it would XOR planes[-1] at ring 0 and leave ring -1 "
        "(test_source_off_the_grid_reaches_nothing)",
    "pathplan:_pcg64_draws.integers: return 0":
        "exactness: integers(1) draws nothing, as Generator.integers "
        "does (TestPCG64Draws)",
    "pathplan:_pcg64_draws.integers: threshold = (2**32 - n) % n":
        "exactness: Lemire's rejection, rare at grid sizes, keeps the "
        "draws equal to Generator.integers (TestPCG64Draws)",
    "pathplan:_pcg64_draws.integers: while m & 0xFFFFFFFF < threshold:":
        "exactness, as the threshold above",
    "pathplan:_pcg64_draws.integers: m = next32() * n #2":
        "exactness, as the threshold above",
    "pathplan:cost_matrix: continue":
        "a world without agents of one motion model, as an N = 1 "
        "scenario has (test_episode_machine)",
    "pathplan:cost_matrix: return CostMatrix(entries)":
        "a state with no live task, which the graph code encodes "
        "(TestEncode::test_no_tasks_still_encodes, TestBatchGraphs)",
    "pathplan:resolve_paths: cells = plan.path.cells":
        "motion safety: with no reservation-aware path the plan holds "
        "its start for a tick "
        "(test_resolve_paths_holds_when_no_path_exists)",
    "pathplan:resolve_paths: resolved.append(replace(":
        "motion safety, as the hold above",
    "pathplan:resolve_paths: continue":
        "motion safety, as the hold above",
    "pathplan:rrt_star.sample_cell: return goal #2":
        "the seeded sampler's rule after 64 blocked draws in a row, "
        "which only a nearly full grid reaches; without it a sample is "
        "None (TestRRTStarAgainstReference's corridor example)",
    "pathplan:rrt_star: order = np.argsort(node_dists(goal), "
    "kind=\"stable\")  # ties: oldest":
        "RRT*'s final goal connection, taken when no sample reached the "
        "goal: criterion 2 and the planner_compare instances at seeds 3 "
        "and 29 take it",
    "pathplan:rrt_star: for k in order[:32].tolist():":
        "the final goal connection, as above",
    "pathplan:rrt_star: if _staircase(grid, nodes[k], goal)[0] == goal:":
        "the final goal connection, as above",
    "pathplan:rrt_star: goal_idx = len(nodes)":
        "the final goal connection, as above",
    "pathplan:rrt_star: nodes.append(goal)":
        "the final goal connection, as above",
    "pathplan:rrt_star: parent.append(k)":
        "the final goal connection, as above",
    "pathplan:rrt_star: break":
        "the final goal connection, as above",
    "tensor:_unbroadcast: grad = grad.sum(axis=ax, keepdims=True)":
        "the gradient over a size-1 axis that `add` or `mul` broadcast "
        "(test_broadcast_over_a_size_one_axis)",
    "tensor:backward: continue #2":
        "an operand listed twice, as in mul(x, x), is pushed twice and "
        "walked once (test_operand_listed_twice_is_walked_once)",
    "world:_sample_cells: cells = zip(*(a.tolist() for a in "
    "np.unravel_index(candidates, dims)))":
        "a grid with too few free cells raises PlacementError naming "
        "the count (test_too_small_grid_raises)",
    "world:_sample_cells: avail = sum(1 for cell in cells if cell not "
    "in taken)":
        "the placement count, as above",
    "world:_sample_cells: if avail < count:":
        "the placement count, as above",
    "world:referee: invalid.append(i)":
        "a masked-out action counts as invalid and as a reject, and "
        "perfbench counts the ruling's invalid agents "
        "(test_invalid_action_flagged_as_reject)",
    "world:spawn_tasks: continue":
        "an interval that finds every slot live is consumed without a "
        "spawn (test_interval_with_every_slot_live_is_consumed)",
    "world:terminal_bonus: return 0.0":
        "no bonus, rather than a division by zero, when nothing was "
        "served or the optimum is zero (test_terminal_bonus)",
}


def test_every_line_is_reached(tmp_path):
    """A function that neither a command nor a pinned check enters is
    test-only, and a statement that they do not execute is a dead
    branch: each belongs in the tests that use it, or nowhere, unless
    `REACH_ALLOWANCE` names it with its reason.  Pool workers are not
    traced, so only one command run uses the pool, and what its workers
    run the serial runs reach."""
    modules = package_modules()
    for module in modules:  # a cached result would hide its code
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    bench._instance_costs.clear()
    files = {module.__file__ for module in modules}
    entered, executed = set(), set()

    def lines(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        entered.add((code.co_filename, code.co_firstlineno))
        return lines

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        for args in command_runs(tmp_path):
            result = CliRunner().invoke(cli.main, args)
            assert result.exit_code == 0, (args, result.output)
        for root in PINNED_ROOTS.values():
            root()
    finally:
        sys.settrace(previous)
    unreached = unreached_statements(modules, executed, entered)
    unlisted = sorted(unreached - REACH_ALLOWANCE.keys())
    stale = sorted(REACH_ALLOWANCE.keys() - unreached)
    message = ""
    if unlisted:
        message += ("run by no command or pinned root; reach them, delete "
                    "them or add them to REACH_ALLOWANCE with a reason:\n"
                    + "".join(f"    {key!r}: \"\",\n" for key in unlisted))
    if stale:
        message += ("REACH_ALLOWANCE entries that name no unreached "
                    "statement; remove them:\n"
                    + "".join(f"    {key!r}\n" for key in stale))
    assert not message, message
    assert all(REACH_ALLOWANCE.values()), "every entry states its reason"


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
    (ScenarioSpec, {"methods": ["hungarian"], "mode": "dynamic",
                    "task_interval": None}),
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
        "spec-task_interval-neg", "spec-task_interval-none"])
def test_out_of_range_settings_rejected(cls, blob):
    """Each of these used to be accepted and then crash mid-run (division
    by zero after the first update, an empty buffer's IndexError, numpy's
    negative dimensions, math.ceil's OverflowError, an IndexError or a
    broadcast error on a grid without three axes, a diverged first
    update, a TypeError from a fractional count or seed), run without end
    (a dynamic episode under an infinite step cap) or run wrongly
    (one-step minibatches, Adam ascending the loss, float agent ids, no
    update at all, a fractional batch, `true` episodes, a dynamic spec
    with a null interval playing a static world).  A spec's world
    settings used to fail only in `run_benchmark`'s first job."""
    with pytest.raises(ValueError):
        cls.from_dict(blob)
