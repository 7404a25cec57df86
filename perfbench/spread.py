"""Run the benchmark on several seeds and print each figure's median and
quartile spread, (Q3 - Q1) / median, the steadiness test a benchmark
change must pass.

    python3 perfbench/spread.py --workload bench_static --seeds 1-10 [--seconds 20]

Runs are sequential, one process at a time.  Figures come from the
result.json each run leaves under perfbench/out/; the medians and spreads
are also written to perfbench/out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import quartile_spread  # noqa: E402


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    seconds = args.seconds or contract["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}

    figures: dict[str, list] = {}
    digests = []
    for seed in seed_range(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            print(done.stdout[-2000:], done.stderr[-2000:], file=sys.stderr)
            return done.returncode
        last = json.loads(done.stdout.strip().splitlines()[-1])
        path = os.path.join(HERE, "out", f"{args.workload}-seed{seed}",
                            "result.json")
        with open(path) as f:
            result = json.load(f)
        digests.append(result["digest"][:12])
        for name, fig in result["figures"].items():
            figures.setdefault(name, []).append(fig["value"])
        print(f"seed {seed}: correct={last['correct']} "
              f"attempted={last['attempted']} failed={last['failed']} "
              + " ".join(f"{k}={v['value']:.4g}"
                         for k, v in last["metrics"].items()), flush=True)
    print(f"digests {' '.join(digests)}")
    summary = {}
    for name, values in sorted(figures.items()):
        if len(values) < 2 or statistics.median(values) == 0:
            continue
        spread = quartile_spread(values)
        summary[name] = {"median": statistics.median(values),
                         "spread": spread, "runs": len(values)}
        mark = ""
        if name in bounds:
            mark = f"  bound {bounds[name]}  " + (
                "ok" if spread < bounds[name] / 3 else "WIDE")
        print(f"{name:45s} median {statistics.median(values):12.6g}  "
              f"spread {spread:7.4f}{mark}")
    path = os.path.join(HERE, "out", f"spread-{args.workload}.json")
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seeds": args.seeds,
                   "seconds": seconds, "figures": summary}, f, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
