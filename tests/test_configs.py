"""Every shipped config loads into the dataclass that consumes it, and
keys for settings that no longer exist are rejected instead of being
silently ignored."""

import glob
import json
import os

import pytest

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


@pytest.mark.parametrize("cls, blob", [
    (ScenarioSpec, {"methods": ["hungarian"], "planner": "astar"}),
    (WorldConfig, {"seed": 0}),
    (WorldConfig, {"tasks_on_ground": True}),
    (WorldConfig, {"max_active_tasks": 20}),
    (PPOConfig, {"normalize_advantages": False}),
], ids=["spec-planner", "world-seed", "world-tasks_on_ground",
        "world-max_active_tasks", "ppo-normalize_advantages"])
def test_removed_settings_rejected(cls, blob):
    with pytest.raises(TypeError):
        cls.from_dict(blob)


@pytest.mark.parametrize("cls, blob", [
    (PPOConfig, {"checkpoint_interval": 0}),
    (PPOConfig, {"train_batch": 0}),
    (PPOConfig, {"minibatch": 0}),
    (PPOConfig, {"minibatch": -16}),
    (PPOConfig, {"learning_rate": 0.0}),
    (PPOConfig, {"learning_rate": -1.0}),
    (WorldConfig, {"n_tasks_initial": -1}),
], ids=["ppo-checkpoint_interval-0", "ppo-train_batch-0", "ppo-minibatch-0",
        "ppo-minibatch-neg", "ppo-learning_rate-0", "ppo-learning_rate-neg",
        "world-n_tasks_initial-neg"])
def test_out_of_range_settings_rejected(cls, blob):
    """Each of these used to be accepted and then crash mid-run (division
    by zero after the first update, an empty buffer's IndexError, numpy's
    negative dimensions) or train wrongly (one-step minibatches, Adam
    ascending the loss)."""
    with pytest.raises(ValueError):
        cls.from_dict(blob)
