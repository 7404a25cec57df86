"""Console entry points through click's test runner, and the package
import path without scipy."""

import csv
import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner

from magnnet import cli
from magnnet.bench import REPORT_COLUMNS
from magnnet.cli import main
from magnnet.ppo import ModelParams

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKPOINT = os.path.join(REPO, "runs", "acceptance", "seed0",
                          "checkpoint.json")
TINY_SPEC = {"mode": "static", "n_agents": [4],
             "methods": ["hungarian", "greedy"], "episodes": 1,
             "seed_base": 2, "grid_dims": [12, 12, 4]}


def writes(content):
    """A checkpoint writer that puts bytes `content` at its path."""
    return lambda path: path.write_bytes(content)


def write_nan_checkpoint(path):
    """The seed-0 fixture with a NaN in its actor's output bias."""
    model = ModelParams.load(CHECKPOINT)
    model.actor.b2.data[0] = np.nan
    model.save(path)


# (id, writer, error after "checkpoint PATH: ") of checkpoint files that
# `eval` and `bench` both reject
CHECKPOINT_FILES = [
    ("no-manifest", writes(b'{"params": {}}'),
     "manifest n_max, m_max = [None, None]: need whole numbers >= 1"),
    ("not-json", writes(b'{"params": '), "{path}: not UTF-8 JSON: "
     "Expecting value: line 1 column 12 (char 11)"),
    ("not-utf8", writes(b'\xff{}'), "{path}: not UTF-8 JSON: 'utf-8' "
     "codec can't decode byte 0xff in position 0: invalid start byte"),
    ("nan", write_nan_checkpoint, "actor.b2: non-finite value")]


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(TINY_SPEC))
    return str(path)


class TestBench:
    def test_writes_report(self, spec_path, tmp_path):
        out = tmp_path / "bench"
        result = CliRunner().invoke(main, ["bench", spec_path,
                                           "--out", str(out)])
        assert result.exit_code == 0, result.output
        with open(out / "report.csv") as f:
            rows = list(csv.DictReader(f))
        assert list(rows[0]) == REPORT_COLUMNS
        assert [(r["method"], r["n_agents"], r["episodes"]) for r in rows] \
            == [("hungarian", "4", "1"), ("greedy", "4", "1")]
        assert (out / "report.json").is_file()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_parallel_below_one_is_a_usage_error(self, spec_path, tmp_path,
                                                 count):
        out = tmp_path / "bench"
        result = CliRunner().invoke(main, ["bench", spec_path, "--parallel",
                                           count, "--out", str(out)])
        assert result.exit_code == 2
        assert "--parallel" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("option, value", [
        ("--seed", "-1"), ("--episodes", "0"), ("--episodes", "-3")],
        ids=["seed-neg", "episodes-0", "episodes-neg"])
    @pytest.mark.parametrize("command", ["bench", "planner-compare", "eval"])
    def test_out_of_range_value_is_a_usage_error(self, spec_path, tmp_path,
                                                 command, option, value):
        """`--episodes 0` used to die in ScenarioSpec with a ValueError
        traceback."""
        out = tmp_path / "out"
        args = [spec_path, option, value, "--out", str(out)]
        if command == "eval":
            args.insert(0, CHECKPOINT)
        result = CliRunner().invoke(main, [command] + args)
        assert result.exit_code == 2
        assert option in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command, write, message", [
        pytest.param(command, write, message, id=f"{command}-{case}")
        for command in ("eval", "bench")
        for case, write, message in CHECKPOINT_FILES] + [
        pytest.param("bench", lambda path: path.mkdir(),
                     "{path}: Is a directory", id="bench-directory"),
        pytest.param("bench", lambda path: None,
                     "{path}: No such file or directory", id="bench-missing")])
    def test_mismatched_checkpoint_is_one_error_line(self, tmp_path,
                                                     command, write,
                                                     message):
        """A checkpoint without a manifest used to escape as a
        CheckpointMismatchError traceback, one that is not JSON or not
        UTF-8 as a JSONDecodeError or UnicodeDecodeError, one holding a
        NaN as a NumericError, and a spec's checkpoint that names a
        directory or nothing as an IsADirectoryError or
        FileNotFoundError.  `eval` takes its checkpoint as an argument
        that must name a file, so only `bench` has the last two
        (`test_directory_argument_is_a_usage_error`)."""
        checkpoint = tmp_path / "checkpoint.json"
        write(checkpoint)
        scenario = os.path.join(REPO, "configs", "bench_static_n4.json")
        out = tmp_path / "out"
        if command == "eval":
            args = [str(checkpoint), scenario]
        else:
            with open(scenario) as f:
                blob = json.load(f)
            blob.update(methods=["magnnet"], checkpoint=str(checkpoint))
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps(blob))
            args = [str(spec)]
        result = CliRunner().invoke(main, [command, *args, "--episodes", "1",
                                           "--out", str(out)])
        assert result.exit_code != 0
        assert result.output.splitlines() == [
            f"Error: checkpoint {checkpoint}: "
            + message.format(path=checkpoint)]
        assert isinstance(result.exception, SystemExit)
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        (json.dumps({**TINY_SPEC, "n_agents": 4}),
         "'int' object is not iterable"),
        (json.dumps({**TINY_SPEC, "grid_dims": 12}),
         "'int' object is not iterable"),
        (json.dumps({**TINY_SPEC, "colour": 1}),
         "ScenarioSpec.__init__() got an unexpected keyword argument "
         "'colour'"),
        (json.dumps([TINY_SPEC]), "'list' object is not a mapping"),
        (json.dumps({**TINY_SPEC, "obstacle_density": 0.5}),
         "obstacle_density must be in [0, 0.3)"),
        ('{"mode": ', "Expecting value: line 1 column 10 (char 9)")],
        ids=["n_agents-int", "grid_dims-int", "unknown-key", "list",
             "out-of-range", "not-json"])
    @pytest.mark.parametrize("command", ["eval", "bench", "planner-compare"])
    def test_scenario_that_does_not_load_is_one_error_line(
            self, tmp_path, command, text, message):
        """Each of these used to escape as a TypeError, AttributeError
        or ValueError traceback."""
        scenario = tmp_path / "spec.json"
        scenario.write_text(text)
        out = tmp_path / "out"
        args = [str(scenario), "--out", str(out)]
        if command == "eval":
            args.insert(0, CHECKPOINT)
        result = CliRunner().invoke(main, [command] + args)
        assert result.exit_code == 1
        assert result.output.splitlines() == [f"Error: {scenario}: {message}"]
        assert isinstance(result.exception, SystemExit)
        assert not out.exists()

    def test_eval_parallel_zero_is_a_usage_error(self, spec_path, tmp_path):
        result = CliRunner().invoke(main, ["eval", CHECKPOINT, spec_path,
                                           "--parallel", "0",
                                           "--out", str(tmp_path / "eval")])
        assert result.exit_code == 2
        assert "--parallel" in result.output


class TestTrain:
    @pytest.mark.parametrize("text, message", [
        (json.dumps({"world": {"grid_dims": 12}}),
         "'int' object is not iterable"),
        (json.dumps({"ppo": {"colour": 1}}),
         "PPOConfig.__init__() got an unexpected keyword argument 'colour'"),
        (json.dumps([{}]), "'list' object has no attribute 'get'"),
        (json.dumps({"ppo": {"train_batch": 0}}),
         "train_batch must be a whole number >= 1"),
        ('{"world": ', "Expecting value: line 1 column 11 (char 10)")],
        ids=["grid_dims-int", "unknown-key", "list", "out-of-range",
             "not-json"])
    def test_config_that_does_not_load_is_one_error_line(self, tmp_path,
                                                         text, message):
        """Each of these used to escape as a traceback."""
        config = tmp_path / "train.json"
        config.write_text(text)
        out = tmp_path / "train"
        result = CliRunner().invoke(main, ["train", str(config),
                                           "--out", str(out)])
        assert result.exit_code == 1
        assert result.output.splitlines() == [f"Error: {config}: {message}"]
        assert isinstance(result.exception, SystemExit)
        assert not out.exists()

    def test_negative_seed_is_a_usage_error(self, tmp_path):
        """It used to fail inside numpy, after the out dir was made."""
        config = tmp_path / "train.json"
        config.write_text("{}")
        out = tmp_path / "train"
        result = CliRunner().invoke(main, ["train", str(config), "--seed",
                                           "-1", "--out", str(out)])
        assert result.exit_code == 2
        assert "--seed" in result.output
        assert not out.exists()


@pytest.mark.parametrize("command, args", [
    ("train", ["configs"]),
    ("eval", ["runs", "configs/bench_static_n4.json"]),
    ("eval", [CHECKPOINT, "configs"]),
    ("bench", ["configs"]),
    ("planner-compare", ["configs"]),
    ("curves", ["runs"])],
    ids=["train", "eval-checkpoint", "eval-scenario", "bench",
         "planner-compare", "curves"])
def test_directory_argument_is_a_usage_error(tmp_path, command, args):
    """A directory given for a file used to escape as an
    IsADirectoryError traceback."""
    out = tmp_path / "out"
    args = [os.path.join(REPO, arg) for arg in args]
    result = CliRunner().invoke(main, [command, *args, "--out", str(out)])
    assert result.exit_code == 2
    assert "is a directory" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("command, args", [
    ("train", ["configs/train_desk.json"]),
    ("eval", [CHECKPOINT, "configs/bench_static_n4.json"]),
    ("bench", ["configs/bench_static_n4.json"]),
    ("planner-compare", ["configs/bench_static_n4.json"]),
    ("curves", ["runs/acceptance/seed0/metrics.csv"])],
    ids=["train", "eval", "bench", "planner-compare", "curves"])
def test_out_naming_a_file_is_a_usage_error(tmp_path, command, args):
    """An `--out` naming an existing file used to end in a
    FileExistsError traceback, for `bench` and `eval` only after the
    whole sweep had run.  Every command's work is stubbed to fail, so
    reaching it fails the test."""
    out = tmp_path / "out"
    out.write_text("kept")
    args = [os.path.join(REPO, arg) for arg in args]
    work = mock.Mock(side_effect=AssertionError("the command ran"))
    with mock.patch.multiple(cli, _train=work, run_benchmark=work,
                             _planner_compare=work, emit_curves=work):
        result = CliRunner().invoke(main, [command, *args, "--out",
                                           str(out)])
    assert result.exit_code == 2
    assert [line for line in result.output.splitlines()
            if line.startswith("Error")] == [
        f"Error: Invalid value for '--out': Directory '{out}' is a file."]
    assert not work.called
    assert out.read_text() == "kept"


@pytest.mark.parametrize("command", ["train", "eval", "bench",
                                     "planner-compare"])
def test_grid_too_small_is_one_error_line(tmp_path, command):
    """Four agents and four tasks on a 2x2x1 grid used to end in a
    PlacementError traceback."""
    if command == "train":
        blob = {"world": {"grid_dims": [2, 2, 1], "n_agents": 4,
                          "n_tasks_initial": 4, "n_ground": 2,
                          "n_aerial": 2}}
    else:
        blob = {**TINY_SPEC, "grid_dims": [2, 2, 1]}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(blob))
    args = [CHECKPOINT, str(config)] if command == "eval" else [str(config)]
    result = CliRunner().invoke(main, [command, *args, "--out",
                                       str(tmp_path / "out")])
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        f"Error: {config}: need 2 free cells, only 1 available"]
    assert isinstance(result.exception, SystemExit)


class TestCurves:
    @pytest.mark.parametrize("content, message", [
        (b"update_index,mean_entropy\n1,0.5\n",
         "missing columns: env_steps, mean_episode_reward"),
        (b"", "missing columns: env_steps, mean_entropy, "
         "mean_episode_reward"),
        (b"\xffenv_steps\n", "'utf-8' codec can't decode byte 0xff in "
         "position 0: invalid start byte")],
        ids=["missing-columns", "empty", "not-utf8"])
    def test_unreadable_log_is_one_error_line(self, tmp_path, content,
                                              message):
        """A log without the curves' columns used to escape as a
        KeyError traceback, and one that is not UTF-8 as a
        UnicodeDecodeError, each after the out dir was made."""
        log = tmp_path / "metrics.csv"
        log.write_bytes(content)
        out = tmp_path / "curves"
        result = CliRunner().invoke(main, ["curves", str(log),
                                           "--out", str(out)])
        assert result.exit_code == 1
        assert result.output.splitlines() == [f"Error: {log}: {message}"]
        assert isinstance(result.exception, SystemExit)
        assert not out.exists()

    def test_acceptance_metrics(self, tmp_path):
        log = os.path.join(REPO, "runs", "acceptance", "seed0", "metrics.csv")
        result = CliRunner().invoke(main, ["curves", log,
                                           "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        paths = json.loads(result.output)
        with open(log) as f:
            n_updates = sum(1 for _ in csv.DictReader(f))
        for name, column in (("reward", "mean_episode_reward"),
                             ("entropy", "mean_entropy")):
            with open(paths[name]) as f:
                rows = list(csv.reader(f))
            assert rows[0] == ["env_steps", column]
            assert len(rows) == n_updates + 1


NO_SCIPY = """
import csv, json, os, sys
sys.modules["scipy"] = None     # any scipy import now raises ImportError
import numpy as np
import magnnet.bench, magnnet.ppo
from magnnet.assign import CostMatrix, feasible_optimum
from magnnet.cli import main
a = feasible_optimum(CostMatrix(np.array([[4.0, 1.0], [2.0, np.inf]])))
assert a.pairs == ((0, 1), (1, 0)), a.pairs
tmp = sys.argv[1]
spec = os.path.join(tmp, "spec.json")
with open(spec, "w") as f:
    json.dump({"mode": "static", "n_agents": [4],
               "methods": ["hungarian", "greedy", "random"], "episodes": 2,
               "seed_base": 7, "grid_dims": [12, 12, 4]}, f)
out = os.path.join(tmp, "bench")
main(["bench", spec, "--out", out], standalone_mode=False)
with open(os.path.join(out, "report.csv")) as f:
    rows = list(csv.DictReader(f))
assert [(r["method"], r["episodes"]) for r in rows] == [
    ("hungarian", "2"), ("greedy", "2"), ("random", "2")], rows
loaded = [m for m in sys.modules
          if m.split(".")[0] == "scipy" and sys.modules[m] is not None]
assert not loaded, loaded
"""


def test_package_runs_without_scipy(tmp_path):
    """The solver and the `bench` command for all three baselines run,
    and no scipy module loads, with every scipy import blocked."""
    env = dict(os.environ)
    src = os.path.join(REPO, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
