"""Record one BENCH_<workload>.json per benchmark workload.

    python3 tools/bench_record.py

For each workload that BENCHMARK.json names, it runs

    python3 perfbench/run.py --workload W --seed 3 --seconds 20 --trace 1

from the repository root.  One such run makes an untraced timed pass and
then a traced pass over the same inputs; it exits 3 if tracing changed
the digest or a layer saw no call.  After every run has passed, it writes
BENCH_W.json at the root: the `env` stamp (which names the commit), the
seeded `digest`, the `quality` figures and every figure (the untraced
end-to-end metrics and the traced per-layer ones) of
perfbench/out/W-seed3/result.json, plus `correct`, `attempted` and
`failed` from the run's last line.

It refuses, and writes nothing, when the tree has changes outside
BENCH_*.json (the stamped commit must be the code that was measured),
when a run exits nonzero, or when a run's last line lacks
"correct": true.
"""

import fnmatch
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED, SECONDS = 3, 20
COPIED = ("env", "digest", "quality", "figures")


class Refused(Exception):
    """A reason to write no BENCH file."""


def changes_outside_bench(status: str) -> list:
    """The paths of `git status --porcelain` output that are not
    BENCH_*.json files at the root."""
    paths = [line[3:].split(" -> ")[-1] for line in status.splitlines()]
    return [p for p in paths if not fnmatch.fnmatch(p, "BENCH_*.json")]


def run_summary(workload: str, returncode: int, stdout: str) -> dict:
    """`correct`, `attempted` and `failed` of a run that passed, from its
    last line; Refused if it did not pass."""
    if returncode != 0:
        raise Refused(f"{workload}: run.py exited {returncode}")
    lines = stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        summary = {}
    if not isinstance(summary, dict) or summary.get("correct") is not True:
        raise Refused(f"{workload}: last line lacks \"correct\": true")
    return {key: summary[key] for key in ("correct", "attempted", "failed")}


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
            **{key: result[key] for key in COPIED}, **summary}
    written = []
    for workload, entry in records.items():
        path = os.path.join(root, f"BENCH_{workload}.json")
        with open(path, "w") as f:
            json.dump(entry, f, indent=2, sort_keys=True)
            f.write("\n")
        written.append(path)
    return written


def run_workload(workload: str) -> tuple:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def main() -> int:
    changed = changes_outside_bench(git("status", "--porcelain"))
    if changed:
        print(f"bench_record: the tree has changes: {', '.join(changed)}",
              file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
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
