"""Every shipped config loads into the dataclass that consumes it, every
setting is one that some caller sets, and keys for settings that no
longer exist are rejected instead of being silently ignored."""

import dataclasses
import glob
import json
import os

import pytest
from click.testing import CliRunner

from magnnet import bench, cli
from magnnet.bench import ScenarioSpec
from magnnet.ppo import PPOConfig
from magnnet.world import WorldConfig

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")
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
    assert len(fields) == 29
    assert fields - settings_set_by_callers(tmp_path, monkeypatch) == set()


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
], ids=["spec-planner", "world-seed", "world-tasks_on_ground",
        "world-max_active_tasks", "ppo-normalize_advantages",
        "world-ground_velocity", "world-aerial_velocity", "world-cost_scale",
        "world-shaping", "ppo-checkpoint_interval"])
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
    (PPOConfig, {"clip_epsilon": 0.0}),
    (PPOConfig, {"learning_rate": float("inf")}),
    (PPOConfig, {"entropy_coef": float("nan")}),
    (PPOConfig, {"value_coef": float("inf")}),
    (PPOConfig, {"entropy_coef": -0.01}),
    (PPOConfig, {"value_coef": -0.5}),
], ids=["ppo-train_batch-0", "ppo-minibatch-0",
        "ppo-minibatch-neg", "ppo-learning_rate-0", "ppo-learning_rate-neg",
        "world-n_tasks_initial-neg", "world-step_cap-inf",
        "world-task_interval-inf", "world-grid_dims-2d",
        "world-grid_dims-zero-axis", "world-grid_dims-4d",
        "world-grid_dims-fractional", "world-mix-fractional",
        "world-n_tasks_initial-fractional", "ppo-epochs_per_update-0",
        "ppo-total_steps-0", "ppo-clip_epsilon-0", "ppo-learning_rate-inf",
        "ppo-entropy_coef-nan", "ppo-value_coef-inf", "ppo-entropy_coef-neg",
        "ppo-value_coef-neg"])
def test_out_of_range_settings_rejected(cls, blob):
    """Each of these used to be accepted and then crash mid-run (division
    by zero after the first update, an empty buffer's IndexError, numpy's
    negative dimensions, math.ceil's OverflowError, an IndexError or a
    broadcast error on a grid without three axes, a diverged first
    update), run without end (a dynamic episode under an infinite step
    cap) or run wrongly (one-step minibatches, Adam ascending the loss,
    an inverted clip range, float agent ids, no update at all)."""
    with pytest.raises(ValueError):
        cls.from_dict(blob)
