"""Record one BENCH_<workload>.json per benchmark workload, and
alternating untraced pairs against a base commit.

    python3 tools/bench_record.py
    python3 tools/bench_record.py --base REV --pairs K --workload W

Without flags, for each workload that BENCHMARK.json names, it runs

    python3 perfbench/run.py --workload W --seed 3 --seconds 20 --trace 1

from the repository root.  One such run makes an untraced timed pass and
then a traced pass over the same inputs; it exits 3 if tracing changed
the digest or a layer saw no call.  After every run has passed, it writes
BENCH_W.json at the root: the `env` stamp (which names the commit), the
seeded `digest`, the `quality` figures and every figure (the untraced
end-to-end metrics and the traced per-layer ones) of
perfbench/out/W-seed3/result.json, plus `correct`, `attempted` and
`failed` from the run's last line.

With --base, --pairs and --workload it adds pairs to the BENCH_W.json
that the first form recorded at HEAD.  It extracts commit REV with
`git archive` into a temporary directory and runs

    python3 perfbench/run.py --workload W --seed 3 --seconds 20 --trace 0

K times in each checkout, alternating which runs first (HEAD in the
first pair).  Under the `pairs` key it writes REV's commit, the
`work_per_ref_s` ratio (HEAD over base) of each pair, how many pairs
HEAD won and how many tied (ratio exactly 1), the exact two-sided sign
test's p-value over the pairs that did not tie, whether both sides
printed the same set of seeded digests, and per side the values, their
median and quartiles (statistics.quantiles, n=4) and those digests.

Either form refuses, and writes nothing, when the tree has changes
outside BENCH_*.json (the stamped commit must be the code that was
measured), when a run exits nonzero, or when a run's last line lacks
"correct": true.  The second also refuses when BENCH_W.json is missing
or records another commit than HEAD.
"""

import argparse
import fnmatch
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED, SECONDS = 3, 20
COPIED = ("env", "digest", "quality", "figures")
METRIC = "work_per_ref_s"


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


def record(root: str, workloads, run) -> list:
    """Run each workload with `run(workload) -> (returncode, stdout)`,
    then write BENCH_<workload>.json under `root` for all of them, or,
    if any run did not pass, for none.  Returns the paths written."""
    records = {}
    for workload in workloads:
        summary = run_summary(workload, *run(workload))
        out = os.path.join(root, "perfbench", "out", f"{workload}-seed{SEED}")
        with open(os.path.join(out, "result.json")) as f:
            result = json.load(f)
        records[workload] = {
            "workload": workload, "seed": SEED, "seconds": SECONDS,
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


def record_pairs(workload: str, pairs: int, run) -> dict:
    """`pairs` pairs of untraced runs of `workload`, one on each side,
    with `run(side, workload) -> (returncode, stdout)` for side "head"
    or "base"; HEAD runs first in even pairs.  Returns the `pairs`
    entry without the base commit.  Refused if a run did not pass."""
    values = {"head": [], "base": []}
    digests = {"head": set(), "base": set()}
    for k in range(pairs):
        for side in ("head", "base") if k % 2 == 0 else ("base", "head"):
            returncode, stdout = run(side, workload)
            summary = run_summary(f"{workload} ({side})", returncode, stdout)
            values[side].append(summary["metrics"][METRIC]["value"])
            digests[side].update(line.split()[1]
                                 for line in stdout.splitlines()
                                 if line.startswith("digest "))
    ratios = [h / b for h, b in zip(values["head"], values["base"])]
    wins = sum(r > 1.0 for r in ratios)
    ties = sum(r == 1.0 for r in ratios)
    return {"metric": METRIC, "seed": SEED, "seconds": SECONDS, "trace": 0,
            "ratios": ratios, "head_wins": wins, "ties": ties,
            "sign_test_p": sign_test_p(wins, len(ratios) - wins - ties),
            "digests_agree": digests["head"] == digests["base"],
            **{side: {**side_summary(values[side]),
                      "digests": sorted(digests[side])}
               for side in values}}


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


def run_workload(workload: str, trace: int = 1, root: str = ROOT) -> tuple:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout


def git(*args, text=True):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=text).stdout


def pairs_main(base: str, pairs: int, workload: str) -> int:
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
    with tempfile.TemporaryDirectory(prefix="bench_base_") as tmp:
        archive = git("archive", base_commit, text=False)
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, **safe)
        sides = {"head": ROOT, "base": tmp}
        try:
            recorded = record_pairs(
                workload, pairs,
                lambda side, w: run_workload(w, trace=0, root=sides[side]))
        except Refused as exc:
            print(f"bench_record: {exc}; nothing written", file=sys.stderr)
            return 1
    entry["pairs"] = {"base_commit": base_commit, **recorded}
    write_bench(ROOT, workload, entry)
    print(f"wrote pairs into {os.path.relpath(path, ROOT)}: HEAD won "
          f"{recorded['head_wins']} of {pairs} (sign test p = "
          f"{recorded['sign_test_p']:.3g}), digests "
          f"{'agree' if recorded['digests_agree'] else 'DIFFER'}, "
          f"median {METRIC} "
          f"{recorded['head']['median']:.6g} / "
          f"{recorded['base']['median']:.6g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="commit to pair HEAD against")
    parser.add_argument("--pairs", type=int, help="pairs to run, >= 2")
    parser.add_argument("--workload", help="a workload of BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
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
    if args.base is not None:
        return pairs_main(args.base, args.pairs, args.workload)
    try:
        written = record(ROOT, workloads, run_workload)
    except Refused as exc:
        print(f"bench_record: {exc}; nothing written", file=sys.stderr)
        return 1
    for path in written:
        print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
