"""Record one BENCH_<workload>.json per benchmark workload, and
alternating pairs against a base commit.

    python3 tools/bench_record.py [--seconds S]
    python3 tools/bench_record.py --base REV --pairs K --workload W
                                  [--layers A,B,...] [--seconds S]

Without --base, for each workload that BENCHMARK.json names, it runs

    python3 perfbench/run.py --workload W --seed 3 --seconds S --trace 1

from the repository root, S being 20 unless --seconds sets it.  One
such run makes an untraced timed pass and then a traced pass over the
same inputs; it exits 3 if tracing changed the digest or a layer saw no
call.  After every run has passed, it writes BENCH_W.json at the root:
the `env` stamp (which names the commit), the seeded `digest`, the
`quality` figures and every figure (the untraced end-to-end metrics and
the traced per-layer ones) of perfbench/out/W-seed3/result.json, plus
`correct`, `attempted` and `failed` from the run's last line.

With --base, --pairs and --workload it adds pairs to the BENCH_W.json
that the first form recorded at HEAD.  It extracts HEAD and commit REV
with `git archive` into two sibling temporary directories whose paths
have the same length (bench_head_* and bench_base_*), so the two sides
differ in their code alone, not in where it sits or in what a working
checkout holds beside it, and runs

    python3 perfbench/run.py --workload W --seed 3 --seconds S --trace T

K times in each copy, alternating which runs first (HEAD in the first
pair).  T is 0, or 1 with --layers, whose run adds a traced pass
after the untraced one.  Under the `pairs` key it writes REV's commit,
the run length, whether the two sides printed the same set of seeded
digests, and per metric what `compare` returns: the untraced
`work_per_ref_s` (HEAD over base per pair, higher is better), and with
--layers A,B,... under `layers`, the traced self time summed over layers
A, B, ... (base over HEAD per pair, as lower is better), so a ratio
above 1 is a pair HEAD won either way.  The layer sums are scaled to
reference speed as `work_per_ref_s` is: times REFERENCE_S of
perfbench/calibrate.py over the run's own `probe_s`, the median of its
untraced pass's speed probes.  Each side of `layers` also keeps the raw
sums and the probes.

A later --pairs command against the same REV, with the same run length
and the same --layers (or none), appends its pairs to that block: their
alternation continues the block's, and every figure above is computed
again over all recorded pairs.  Another REV, run length or layer list
replaces the block.

Either form refuses, and writes nothing, when the tree has changes
outside BENCH_*.json (the stamped commit must be the code that was
measured), when a run exits nonzero, when a run's last line lacks
"correct": true, or when a run prints no figure a metric needs.  The
second also refuses when BENCH_W.json is missing or records another
commit than HEAD.  SIGTERM stops either form as an error would: the
running run.py is killed and both copies removed.
"""

import argparse
import fnmatch
import importlib.util
import io
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED, SECONDS = 3, 20
COPIED = ("env", "digest", "quality", "figures")
METRIC = "work_per_ref_s"


def reference_s() -> float:
    """REFERENCE_S of perfbench/calibrate.py: the probe time at which a
    run is at reference speed."""
    spec = importlib.util.spec_from_file_location(
        "calibrate", os.path.join(ROOT, "perfbench", "calibrate.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.REFERENCE_S


class Refused(Exception):
    """A reason to write no BENCH file."""


def changes_outside_bench(status: str) -> list:
    """The paths of `git status --porcelain` output that are not
    BENCH_*.json files at the root."""
    paths = [line[3:].split(" -> ")[-1] for line in status.splitlines()]
    return [p for p in paths if not fnmatch.fnmatch(p, "BENCH_*.json")]


def run_summary(workload: str, returncode: int, stdout: str) -> dict:
    """The last line of a run that passed, a JSON object with `correct`,
    `attempted`, `failed` and `metrics`; Refused if it did not pass."""
    if returncode != 0:
        raise Refused(f"{workload}: run.py exited {returncode}")
    lines = stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        summary = {}
    if not isinstance(summary, dict) or summary.get("correct") is not True:
        raise Refused(f"{workload}: last line lacks \"correct\": true")
    return summary


def record(root: str, workloads, run, seconds: float = SECONDS) -> list:
    """Run each workload with `run(workload) -> (returncode, stdout)`,
    runs of `seconds` each, then write BENCH_<workload>.json under
    `root` for all of them, or, if any run did not pass, for none.
    Returns the paths written."""
    records = {}
    for workload in workloads:
        summary = run_summary(workload, *run(workload))
        out = os.path.join(root, "perfbench", "out", f"{workload}-seed{SEED}")
        with open(os.path.join(out, "result.json")) as f:
            result = json.load(f)
        records[workload] = {
            "workload": workload, "seed": SEED, "seconds": seconds,
            **{key: result[key] for key in COPIED},
            **{key: summary[key] for key in ("correct", "attempted",
                                             "failed")}}
    return [write_bench(root, workload, entry)
            for workload, entry in records.items()]


def write_bench(root: str, workload: str, entry: dict) -> str:
    path = os.path.join(root, f"BENCH_{workload}.json")
    with open(path, "w") as f:
        json.dump(entry, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def figure(summary: dict, stdout: str, name: str) -> float:
    """Figure `name` of a run that passed: from the last line's
    `metrics` if it is there, else from the run's "  name = value unit"
    line (a traced run's last line carries only per-layer metrics).
    Refused if the run printed neither."""
    if name in summary["metrics"]:
        return summary["metrics"][name]["value"]
    for line in stdout.splitlines():
        key, sep, rest = line.strip().partition(" = ")
        if sep and key == name:
            return float(rest.split()[0])
    raise Refused(f"no figure {name} in the run's output")


def record_pairs(workload: str, pairs: int, run, layers=(),
                 seconds: float = SECONDS, earlier=None) -> dict:
    """`pairs` pairs of runs of `workload`, one on each side, with
    `run(side, workload) -> (returncode, stdout)` for side "head" or
    "base"; HEAD runs first in even pairs.  With `layers`, the runs are
    traced, and each also gives the sum of those layers' traced
    `<layer>.self_s`, raw and at reference speed.  `earlier`, a `pairs`
    entry of the same run length and layers, holds pairs that come
    first: the new pairs are numbered after them, and every figure is
    computed over all of them.  Returns the `pairs` entry without the
    base commit.  Refused if a run did not pass or lacks a figure."""
    sides = ("head", "base")
    work, layer_s, probe_s = ({s: [] for s in sides} for _ in range(3))
    digests = {s: set() for s in sides}
    for side in sides if earlier else ():
        work[side] += earlier[side]["values"]
        digests[side].update(earlier[side]["digests"])
        if layers:
            layer_s[side] += earlier["layers"][side]["raw_s"]
            probe_s[side] += earlier["layers"][side]["probe_s"]
    first = len(work["head"])
    for k in range(first, first + pairs):
        for side in sides if k % 2 == 0 else sides[::-1]:
            returncode, stdout = run(side, workload)
            summary = run_summary(f"{workload} ({side})", returncode, stdout)
            work[side].append(figure(summary, stdout, METRIC))
            if layers:
                layer_s[side].append(sum(
                    figure(summary, stdout, f"{layer}.self_s")
                    for layer in layers))
                probe_s[side].append(figure(summary, stdout, "probe_s"))
            digests[side].update(line.split()[1]
                                 for line in stdout.splitlines()
                                 if line.startswith("digest "))
    entry = {"metric": METRIC, "seed": SEED, "seconds": seconds,
             "trace": int(bool(layers)),
             "digests_agree": digests["head"] == digests["base"],
             **compare(work["head"], work["base"])}
    for side in sides:
        entry[side]["digests"] = sorted(digests[side])
    if layers:
        reference = reference_s()
        at_ref = {s: [t * reference / p for t, p in zip(layer_s[s],
                                                         probe_s[s])]
                  for s in sides}
        entry["layers"] = {"names": list(layers),
                           "metric": "self_s summed, at reference speed",
                           **compare(at_ref["head"], at_ref["base"],
                                     lower_is_better=True)}
        for side in sides:
            entry["layers"][side].update(raw_s=layer_s[side],
                                         probe_s=probe_s[side])
    return entry


def compare(head: list, base: list, lower_is_better: bool = False) -> dict:
    """Per pair the ratio `head[k] / base[k]`, or `base[k] / head[k]`
    where lower is better, so a ratio above 1 is a pair HEAD won; how
    many it won and how many tied (ratio exactly 1), the exact two-sided
    sign test over the pairs that did not tie, and each side's values,
    median and quartiles."""
    ratios = [b / h if lower_is_better else h / b
              for h, b in zip(head, base)]
    wins = sum(r > 1.0 for r in ratios)
    ties = sum(r == 1.0 for r in ratios)
    return {"ratios": ratios, "head_wins": wins, "ties": ties,
            "sign_test_p": sign_test_p(wins, len(ratios) - wins - ties),
            "head": side_summary(head), "base": side_summary(base)}


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign test: the chance, under a fair coin over the
    wins + losses pairs that did not tie, of a split at least as uneven
    as this one, capped at 1."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def side_summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def run_workload(workload: str, trace: int = 1, root: str = ROOT,
                 seconds: float = SECONDS) -> tuple:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", f"{seconds:g}",
         "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout


def exit_on_signal(signum, frame):
    """Turn a signal into SystemExit, so that `subprocess.run` kills its
    child and the copies' temporary directories are removed."""
    raise SystemExit(128 + signum)


def git(*args, text=True):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=text).stdout


def extract(commit: str, into: str) -> None:
    """The tree of `commit`, extracted with `git archive` into `into`."""
    archive = git("archive", commit, text=False)
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **safe)


def same_block(recorded: dict, base_commit: str, seconds: float,
               layers) -> bool:
    """Whether a recorded `pairs` entry is a block that new pairs against
    `base_commit` of `seconds` each, summing `layers`, extend."""
    return (recorded.get("base_commit") == base_commit
            and recorded.get("seconds") == seconds
            and recorded.get("trace") == int(bool(layers))
            and recorded.get("layers", {}).get("names", []) == list(layers))


def pairs_main(base: str, pairs: int, workload: str, layers: list,
               seconds: float) -> int:
    path = os.path.join(ROOT, f"BENCH_{workload}.json")
    head = git("rev-parse", "HEAD").strip()
    base_commit = git("rev-parse", "--verify", f"{base}^{{commit}}").strip()
    try:
        with open(path) as f:
            entry = json.load(f)
    except FileNotFoundError:
        entry = {}
    if entry.get("env", {}).get("commit") != head:
        print(f"bench_record: {os.path.basename(path)} is not a record of "
              f"HEAD; run bench_record.py without flags first",
              file=sys.stderr)
        return 1
    earlier = entry.get("pairs")
    if not (earlier and same_block(earlier, base_commit, seconds, layers)):
        earlier = None
    with tempfile.TemporaryDirectory(prefix="bench_head_") as head_dir, \
            tempfile.TemporaryDirectory(prefix="bench_base_") as base_dir:
        sides = {"head": head_dir, "base": base_dir}
        extract(head, head_dir)
        extract(base_commit, base_dir)
        try:
            recorded = record_pairs(
                workload, pairs,
                lambda side, w: run_workload(w, trace=int(bool(layers)),
                                             root=sides[side],
                                             seconds=seconds),
                layers, seconds, earlier)
        except Refused as exc:
            print(f"bench_record: {exc}; nothing written", file=sys.stderr)
            return 1
    entry["pairs"] = {"base_commit": base_commit, **recorded}
    write_bench(ROOT, workload, entry)
    total = len(recorded["ratios"])
    print(f"wrote {pairs} pairs into {os.path.relpath(path, ROOT)}"
          f"{f' after {total - pairs} recorded' if earlier else ''}: "
          f"HEAD won {recorded['head_wins']} of {total} (sign test p = "
          f"{recorded['sign_test_p']:.3g}), digests "
          f"{'agree' if recorded['digests_agree'] else 'DIFFER'}, "
          f"median {METRIC} "
          f"{recorded['head']['median']:.6g} / "
          f"{recorded['base']['median']:.6g}")
    if layers:
        summed = recorded["layers"]
        print(f"traced self time of {', '.join(layers)} at reference "
              f"speed: HEAD won {summed['head_wins']} of {total} (sign "
              f"test p = {summed['sign_test_p']:.3g}), median "
              f"{summed['head']['median']:.6g} / "
              f"{summed['base']['median']:.6g} s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="commit to pair HEAD against")
    parser.add_argument("--pairs", type=int, help="pairs to run, >= 2")
    parser.add_argument("--workload", help="a workload of BENCHMARK.json")
    parser.add_argument("--layers", default="",
                        help="traced layers whose self time the pairs sum, "
                             "comma-separated")
    parser.add_argument("--seconds", type=float, default=SECONDS,
                        help=f"run length (default {SECONDS})")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    workloads = [w["name"] for w in contract["workloads"]]
    traced = {m["name"] for m in contract["per_layer"]}
    layers = [name for name in args.layers.split(",") if name]
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    unknown = [name for name in layers if f"{name}.self_s" not in traced]
    if unknown:
        parser.error(f"no traced self time for {', '.join(unknown)}")
    if layers and args.base is None:
        parser.error("--layers goes with --base")
    pairing = (args.base, args.pairs, args.workload)
    if any(a is not None for a in pairing):
        if None in pairing:
            parser.error("--base, --pairs and --workload go together")
        if args.pairs < 2:
            parser.error("--pairs must be at least 2 (for quartiles)")
        if args.workload not in workloads:
            parser.error(f"unknown workload {args.workload!r}")
    changed = changes_outside_bench(git("status", "--porcelain"))
    if changed:
        print(f"bench_record: the tree has changes: {', '.join(changed)}",
              file=sys.stderr)
        return 1
    signal.signal(signal.SIGTERM, exit_on_signal)
    if args.base is not None:
        return pairs_main(args.base, args.pairs, args.workload, layers,
                          args.seconds)
    try:
        written = record(ROOT, workloads,
                         lambda w: run_workload(w, seconds=args.seconds),
                         args.seconds)
    except Refused as exc:
        print(f"bench_record: {exc}; nothing written", file=sys.stderr)
        return 1
    for path in written:
        print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
