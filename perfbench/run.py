"""Benchmark command for the magnnet lab.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The run sets up the workload
several times (the median is `setup_s`), makes one untraced timed pass,
checks the outputs, and prints the metrics by name with their units.
With `--trace 1` it then makes a second, traced pass over the same inputs
and reports per-layer metrics instead of end-to-end ones.  The last line
of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
# How far the summed self times may stray from the traced wall time: the
# tracer's own cost at the edges of the traced region is a few µs.
SELF_TIME_SLACK_S = 1e-3


def fail(message: str, code: int) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_package():
    """Import magnnet from the checkout's src/ and return the seconds spent
    since interpreter start-up of this script."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "magnnet", "__init__.py")):
        fail(f"no magnnet package under {src}; run from a source checkout", 2)
    sys.path.insert(0, src)
    import magnnet.bench  # noqa: F401
    import magnnet.ppo  # noqa: F401
    return time.perf_counter() - _T_START


def environment() -> dict:
    """Machine and toolchain facts stamped on every result."""
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numba": has_numba,
            "commit": git_commit()}


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# The named end-to-end metrics, by the workloads they apply to; a run
# prints these first.
NAMED = {
    "train_desk": ("setup_s", "env_steps_per_s", "peak_rss_mb", "failed_frac"),
    "bench_static": ("setup_s", "episode_s.p50", "episode_s.tail",
                     "travel_cost_s.mean", "conflict_free_pct", "peak_rss_mb",
                     "failed_frac"),
    "eval_dynamic": ("setup_s", "episode_s.p50", "episode_s.tail",
                     "decision_s.p50", "decision_s.tail", "travel_cost_s.mean",
                     "conflict_free_pct", "peak_rss_mb", "failed_frac"),
    "planner_compare": ("setup_s", "instances_per_s", "peak_rss_mb",
                        "failed_frac"),
}
WORK_NAME = {"train_desk": ("env_steps_per_s", "steps/s"),
             "planner_compare": ("instances_per_s", "1/s")}


def end_to_end(wl, run, setup_s, rss_mb) -> dict:
    """Every end-to-end figure this run produced: name -> (value, unit,
    note).  Timings come with their sample count and tail percentile."""
    from calibrate import at_reference_speed
    from stats import summarize
    out = {"setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} set-ups"),
           "peak_rss_mb": (rss_mb, "MB", ""),
           "failed_frac": (run.failed / max(run.attempted, 1), "ratio",
                           f"{run.failed} of {run.attempted}")}
    rates = [work / wall for work, wall in run.rounds]
    if rates:
        rate = statistics.median(rates)
        note = f"median of {len(rates)} rounds"
        out["work_per_s"] = (rate, "1/s", note)
        out["work_per_ref_s"] = (
            statistics.median(at_reference_speed(rates, run.probes)), "1/s",
            f"median of {len(rates)} rounds, at reference speed")
        out["probe_s"] = (statistics.median(run.probes), "s",
                          f"median of {len(run.probes)} speed probes")
        if wl.name in WORK_NAME:
            name, unit = WORK_NAME[wl.name]
            out[name] = (rate, unit, note)
    for key, samples in (("episode_s", run.episode_s),
                         ("decision_s", run.decision_s)):
        if not samples:
            continue
        s = summarize(samples)
        out[f"{key}.p50"] = (s["p50"], "s", f"n={s['n']}")
        if s["tail"] is not None:
            out[f"{key}.tail"] = (s["tail"], "s",
                                  f"p{s['tail_level']:g} of n={s['n']}")
    for key, unit in (("travel_cost_s.mean", "s"), ("conflict_free_pct", "%")):
        if key in run.quality:
            out[key] = (run.quality[key], unit,
                        f"{run.quality['episodes']} episodes")
    return out


def per_layer(tracer, traced, untraced) -> dict:
    """Layer figures from the traced pass: name -> (value, unit, note)."""
    from tracer import LAYERS, layer_totals
    totals = layer_totals(tracer.spans)
    c = tracer.counters
    names = [f"{m}.{a}" for m, a in LAYERS] + ["pathplan.astar_space_time"]
    out = {}
    for name in names:
        t = totals.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = (t["calls"], "count")
        out[f"{name}.self_s"] = (t["self_s"], "s")
    lookups = c.get("pathplan.cost_matrix.lookups", 0)
    out["pathplan.cost_matrix.cache_hit_ratio"] = (
        c.get("pathplan.cost_matrix.hits", 0) / lookups if lookups else 0.0,
        "ratio")
    out["pathplan.cost_matrix.lookups"] = (lookups, "count")
    for name in ("pathplan.astar.no_path", "pathplan.astar_space_time.no_path",
                 "pathplan.rrt_star.no_path", "world.arbitrate.contests",
                 "world.arbitrate.invalid", "world.arbitrate.valid_requests",
                 "world.forced_waits", "world.spawn_tasks.spawned"):
        out[name] = (c.get(name, 0), "count")
    valid = c.get("world.arbitrate.valid_requests", 0)
    out["world.arbitrate.win_ratio"] = (
        c.get("world.arbitrate.assignments", 0) / valid if valid else 0.0,
        "ratio")
    episodes = c.get("ppo.episodes", 0)
    out["ppo.decision_steps_per_episode"] = (
        c.get("ppo.decision_steps", 0) / episodes if episodes else 0.0,
        "count")
    root = totals.get("bench_loop", {"calls": 0, "self_s": 0.0})
    out["bench_loop.self_s"] = (root["self_s"], "s")
    out["trace.wall_s"] = (traced.wall_s, "s")
    out["trace.untraced_wall_s"] = (untraced.wall_s, "s")
    out["trace.overhead_pct"] = (
        100.0 * (traced.wall_s / untraced.wall_s - 1.0), "%")
    out["trace.spans"] = (len(tracer.spans), "count")
    return {k: (v, u, "") for k, (v, u) in out.items()}


def traced_pass(wl, untraced, out_dir):
    """Second pass over the same inputs with every layer wrapped.  Fails
    the run when an expected layer saw no call, when a span lies outside
    the root, when self times do not add up to the traced wall time read
    around the root, or when tracing changed a seeded output."""
    from tracer import ROOT as ROOT_SPAN, Patch, Tracer, span_problems
    from workloads import Pass, digest
    tracer = Tracer()
    traced = Pass(speed_probes=False)
    with Patch(tracer):
        t0 = time.perf_counter()
        index = tracer.begin(ROOT_SPAN)
        wl.run(traced, "traced")
        tracer.end(index)
        wall = time.perf_counter() - t0
    wl.check(traced)
    tracer.dump(os.path.join(out_dir, "spans.json"))

    problems = span_problems(tracer.spans, wall, SELF_TIME_SLACK_S)
    totals = {}
    for span in tracer.spans:
        totals[span[0]] = totals.get(span[0], 0) + 1
    for layer in wl.expected_layers:
        if not totals.get(layer):
            problems.append(f"layer {layer} recorded no call")
    if digest(traced.seeded) != digest(untraced.seeded):
        problems.append("tracing changed the seeded outputs")
    bypass = {layer: totals.get(layer, 0) for layer in wl.predicted_zero}
    return tracer, traced, problems, bypass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_package()
    contract = load_contract()
    from workloads import WORKLOADS, Pass, digest
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(WORKLOADS)}", 2)
    out_dir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    wl = WORKLOADS[args.workload](args.seed, args.seconds, out_dir)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    run = Pass()
    wl.run(run, "untraced")
    rss_mb = peak_rss_mb()
    wl.check(run)
    stamp = environment()
    seeded_digest = digest(run.seeded)
    e2e = end_to_end(wl, run, setup_s, rss_mb)
    layers, problems, bypass = {}, [], {}
    if args.trace:
        tracer, traced, problems, bypass = traced_pass(wl, run, out_dir)
        layers = per_layer(tracer, traced, run)
    figures = {**e2e, **layers}
    wanted = contract["per_layer" if args.trace else "end_to_end"]

    print(f"workload {wl.name}  seed {args.seed}  rounds {wl.rounds}  "
          f"trace {args.trace}")
    print(f"env {json.dumps(stamp, sort_keys=True)}")
    print(f"digest {seeded_digest}")
    named = NAMED[wl.name]
    print("end-to-end, untraced pass:")
    for name in named:
        if name in e2e:
            value, unit, note = e2e[name]
            print(f"  {name} = {value:.6g} {unit}  {note}".rstrip())
        else:
            print(f"  {name} = n/a  (fewer than 20 samples for a tail)")
    print("other figures of the untraced pass:")
    for name, (value, unit, note) in sorted(e2e.items()):
        if name not in named:
            print(f"  {name} = {value:.6g} {unit}  {note}".rstrip())
    if args.trace:
        print("per-layer, traced pass:")
        for name, (value, unit, _) in sorted(layers.items()):
            print(f"  {name} = {value:.6g} {unit}")
        print(f"bypass layers, predicted 0 calls: {json.dumps(bypass)}")
    for line in run.failures:
        print(f"FAILED {line}")
    for line in problems:
        print(f"TRACE CHECK FAILED {line}", file=sys.stderr)

    metrics = {}
    for spec in wanted:
        if spec["name"] not in figures:
            fail(f"metric {spec['name']} not produced by {wl.name}", 4)
        metrics[spec["name"]] = {"value": figures[spec["name"]][0],
                                 "unit": spec["unit"]}
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                   "rounds": wl.rounds, "env": stamp, "digest": seeded_digest,
                   "quality": run.quality, "failures": run.failures,
                   "round_work_wall": run.rounds,
                   "figures": {k: {"value": v, "unit": u, "note": n}
                               for k, (v, u, n) in figures.items()}},
                  f, indent=2, sort_keys=True)
    if problems:
        return 3
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
