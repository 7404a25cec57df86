"""tools/bench_record.py on canned run.py output: what it writes for a
run that passed, and that it writes nothing when a run did not pass."""

import importlib.util
import json
import os

import pytest

from helpers import REPO

spec = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(REPO, "tools", "bench_record.py"))
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

RESULT = {"workload": "w", "seed": 3, "trace": 1, "rounds": 7,
          "env": {"commit": "abc123", "python": "3.11.7", "numpy": "2.4.6"},
          "digest": "f0e7a918", "quality": {"gap": 0.07},
          "failures": [], "round_work_wall": [[1, 0.5]],
          "figures": {"work_per_ref_s": {"value": 73.4, "unit": "1/s",
                                         "note": ""}}}
GOOD = ("workload w  seed 3  rounds 7  trace 1\ndigest f0e7a918\n"
        + json.dumps({"correct": True, "attempted": 7, "failed": 0,
                      "metrics": {}}) + "\n")
WRONG = GOOD.replace('"correct": true', '"correct": false')


@pytest.fixture
def root(tmp_path):
    for workload in ("a", "b"):
        out = tmp_path / "perfbench" / "out" / f"{workload}-seed3"
        out.mkdir(parents=True)
        (out / "result.json").write_text(json.dumps(RESULT))
    return tmp_path


def bench_files(root):
    return sorted(p.name for p in root.iterdir() if p.suffix == ".json")


def test_good_runs_write_one_file_each(root):
    written = bench_record.record(str(root), ["a", "b"],
                                  lambda w: (0, GOOD))
    assert [os.path.basename(p) for p in written] == \
        bench_files(root) == ["BENCH_a.json", "BENCH_b.json"]
    entry = json.loads((root / "BENCH_b.json").read_text())
    assert entry == {"workload": "b", "seed": 3, "seconds": 20,
                     "env": RESULT["env"],
                     "digest": "f0e7a918", "quality": RESULT["quality"],
                     "figures": RESULT["figures"], "correct": True,
                     "attempted": 7, "failed": 0}


@pytest.mark.parametrize("bad,reason", [
    ((0, WRONG), "correct"),
    ((3, GOOD), "exited 3"),
    ((0, "digest f0e7a918\n"), "correct"),
    ((0, ""), "correct"),
], ids=["correct-false", "nonzero-exit", "no-summary", "no-output"])
def test_a_failed_run_writes_nothing(root, bad, reason):
    """The failing run is the second, so the first run's passing result
    is not written either."""
    runs = {"a": (0, GOOD), "b": bad}
    with pytest.raises(bench_record.Refused, match=reason):
        bench_record.record(str(root), ["a", "b"], runs.__getitem__)
    assert bench_files(root) == []


def test_only_bench_files_may_differ():
    status = ("?? BENCH_train_desk.json\n M BENCH_a.json\n"
              " M src/magnnet/pathplan.py\n?? tools/\n"
              "R  old.py -> new.py\n?? sub/BENCH_x.json\n")
    assert bench_record.changes_outside_bench(status) == [
        "src/magnnet/pathplan.py", "tools/", "new.py", "sub/BENCH_x.json"]
    assert bench_record.changes_outside_bench("") == []
