"""Command-line entry points: train, eval, bench, planner-compare, curves."""

from __future__ import annotations

import json
import os

import click

from .bench import (BenchReport, ScenarioSpec, planner_compare as _planner_compare,
                    emit_curves, run_benchmark)
from .errors import CheckpointMismatchError, PlacementError
from .ppo import PPOConfig, train as _train
from .world import WorldConfig

OUT_DIR = click.Path(file_okay=False)


@click.group()
def main():
    """Decentralized multi-agent task allocation lab."""


def _load(path, build):
    """`build` applied to the JSON at `path`, with a file that is not
    JSON or does not build, a wrong type, key or value, reported as one
    error line instead of a traceback."""
    try:
        with open(path) as f:
            return build(json.load(f))
    except (AttributeError, TypeError, ValueError) as exc:
        raise click.ClickException(f"{path}: {exc}") from None


def _scenario(path, episodes, seed, **fixed) -> ScenarioSpec:
    """The scenario JSON at `path` with the `--episodes` and `--seed`
    overrides and the command's `fixed` keys."""
    for key, value in (("episodes", episodes), ("seed_base", seed)):
        if value is not None:
            fixed[key] = value
    return _load(path, lambda blob: ScenarioSpec.from_dict({**blob, **fixed}))


@main.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True)
@click.option("--out", type=OUT_DIR, default="runs/train",
              show_default=True, help="Output directory.")
def train(config, seed, out):
    """Train a policy from a JSON config with "world" and "ppo" sections."""
    world_cfg, ppo_cfg = _load(config, lambda blob: (
        WorldConfig.from_dict(blob.get("world", {})),
        PPOConfig.from_dict(blob.get("ppo", {}))))
    result = _run(config, _train, world_cfg, ppo_cfg, seed, out)
    click.echo(json.dumps(result, indent=2))


@main.command("eval")
@click.argument("checkpoint", type=click.Path(exists=True, dir_okay=False))
@click.argument("scenario", type=click.Path(exists=True, dir_okay=False))
@click.option("--episodes", type=click.IntRange(min=1), default=None,
              help="Override the scenario's episode count.")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override seed base.")
@click.option("--out", type=OUT_DIR, default="runs/eval", show_default=True)
@click.option("--parallel", type=click.IntRange(min=1), default=1,
              show_default=True, help="Worker processes.")
def eval_cmd(checkpoint, scenario, episodes, seed, out, parallel):
    """Decentralized evaluation of a trained checkpoint on a scenario."""
    spec = _scenario(scenario, episodes, seed, checkpoint=checkpoint,
                     methods=("magnnet",))
    _write_report(_run(scenario, _run_benchmark, spec, parallel), out)


@main.command()
@click.argument("spec", type=click.Path(exists=True, dir_okay=False))
@click.option("--episodes", type=click.IntRange(min=1), default=None)
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override seed base.")
@click.option("--out", type=OUT_DIR, default="runs/bench", show_default=True)
@click.option("--parallel", type=click.IntRange(min=1), default=1,
              show_default=True, help="Worker processes.")
def bench(spec, episodes, seed, out, parallel):
    """Run the methods x N benchmark sweep from a JSON spec."""
    _write_report(_run(spec, _run_benchmark, _scenario(spec, episodes, seed),
                       parallel), out)


def _run(path, work, *args):
    """`work(*args)`, with a grid too small for the config at `path`
    reported as one error line instead of a traceback."""
    try:
        return work(*args)
    except PlacementError as exc:
        raise click.ClickException(f"{path}: {exc}") from None


def _run_benchmark(spec: ScenarioSpec, parallel: int) -> BenchReport:
    """`run_benchmark`, with a checkpoint that does not fit the scenario
    reported as one error line instead of a traceback."""
    try:
        return run_benchmark(spec, parallel)
    except CheckpointMismatchError as exc:
        raise click.ClickException(
            f"checkpoint {spec.checkpoint}: {exc}") from None


def _write_report(report: BenchReport, out):
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, "report.csv")
    json_path = os.path.join(out, "report.json")
    report.to_csv(csv_path)
    report.to_json(json_path)
    click.echo(f"wrote {csv_path} and {json_path}")


@main.command("planner-compare")
@click.argument("spec", type=click.Path(exists=True, dir_okay=False))
@click.option("--episodes", type=click.IntRange(min=1), default=None)
@click.option("--seed", type=click.IntRange(min=0), default=None)
@click.option("--out", type=OUT_DIR, default="runs/planners",
              show_default=True)
def planner_compare(spec, episodes, seed, out):
    """Compare A* and RRT* path lengths on identical instances."""
    results = _run(spec, _planner_compare, _scenario(
        spec, episodes, seed, checkpoint=None, methods=("hungarian",)))
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "planner_compare.json")
    with open(path, "w") as f:
        json.dump(results, f, indent=2)
    click.echo(f"wrote {path}")


@main.command()
@click.argument("log", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=OUT_DIR, default="runs/curves",
              show_default=True)
def curves(log, out):
    """Emit reward/entropy curves from a training metrics CSV."""
    try:
        paths = emit_curves(log, out)
    except ValueError as exc:
        raise click.ClickException(f"{log}: {exc}") from None
    click.echo(json.dumps(paths, indent=2))


if __name__ == "__main__":
    main()
