"""tools/bench_record.py on canned run.py output: what it writes for a
run that passed, the pairs it records against a base with their sign
test and digest agreement, that it writes nothing when a run did not
pass, and that SIGTERM leaves neither a base checkout nor a run
behind."""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
import types

import pytest

from helpers import REPO

TOOL = os.path.join(REPO, "tools", "bench_record.py")
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)
REFERENCE_S = bench_record.reference_s()

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


def untraced(value, digest="d1"):
    """A passing `--trace 0` run's output with `work_per_ref_s` value."""
    metrics = {"setup_s": {"value": 0.2, "unit": "s"},
               "work_per_ref_s": {"value": value, "unit": "1/s"},
               "peak_rss_mb": {"value": 42.0, "unit": "MB"}}
    return (0, f"workload w  seed 3  rounds 3  trace 0\ndigest {digest}\n"
            + json.dumps({"correct": True, "attempted": 3, "failed": 0,
                          "metrics": metrics}) + "\n")


def canned_pairs(outputs):
    """A `run` that hands out each side's outputs in turn, and the
    sides in the order it was called."""
    calls = []

    def run(side, workload):
        calls.append(side)
        return outputs[side].pop(0)
    return run, calls


def test_pairs_alternate_and_summarize():
    run, calls = canned_pairs({
        "head": [untraced(v) for v in (110.0, 90.0, 120.0, 100.0)],
        "base": [untraced(v) for v in (100.0, 100.0, 100.0, 80.0)]})
    got = bench_record.record_pairs("w", 4, run)
    assert calls == ["head", "base", "base", "head"] * 2
    assert got["ratios"] == [1.1, 0.9, 1.2, 1.25]
    assert got["head_wins"] == 3 and got["ties"] == 0
    assert got["sign_test_p"] == 0.625      # 2 * (1 + 4) / 16
    assert got["digests_agree"] is True
    assert got["head"] == {"values": [110.0, 90.0, 120.0, 100.0],
                           "median": 105.0, "q1": 92.5, "q3": 117.5,
                           "digests": ["d1"]}
    assert (got["base"]["median"], got["base"]["q1"],
            got["base"]["q3"]) == (100.0, 85.0, 100.0)
    assert (got["metric"], got["seed"], got["seconds"], got["trace"]) == \
        ("work_per_ref_s", 3, 20, 0)


def test_pairs_keep_every_digest():
    run, _ = canned_pairs({"head": [untraced(1.0), untraced(1.0, "d2")],
                           "base": [untraced(1.0), untraced(1.0)]})
    got = bench_record.record_pairs("w", 2, run)
    assert got["head"]["digests"] == ["d1", "d2"]
    assert got["base"]["digests"] == ["d1"]
    assert got["digests_agree"] is False


@pytest.mark.parametrize("wins,losses,p", [
    (9, 1, 0.021484375), (1, 9, 0.021484375), (10, 0, 0.001953125),
    (5, 5, 1.0), (0, 0, 1.0)])
def test_sign_test_is_exact_and_two_sided(wins, losses, p):
    assert bench_record.sign_test_p(wins, losses) == p


def test_a_tie_counts_for_neither_side():
    """Ten pairs, one of them a tie and the other nine won by HEAD: the
    sign test runs on the nine, 2 / 2 ** 9."""
    head = [untraced(100.0)] + [untraced(110.0) for _ in range(9)]
    run, _ = canned_pairs({"head": head,
                           "base": [untraced(100.0) for _ in range(10)]})
    got = bench_record.record_pairs("w", 10, run)
    assert (got["head_wins"], got["ties"]) == (9, 1)
    assert got["sign_test_p"] == 2 / 2 ** 9 == 0.00390625
    assert got["digests_agree"] is True


@pytest.mark.parametrize("bad,reason", [
    ((0, WRONG), "correct"), ((3, GOOD), "exited 3"), ((0, ""), "correct")],
    ids=["correct-false", "nonzero-exit", "no-output"])
@pytest.mark.parametrize("side", ["head", "base"])
def test_a_failed_pair_run_refuses(bad, reason, side):
    """The bad run is the second pair's run on `side`."""
    outputs = {"head": [untraced(1.0), untraced(1.0)],
               "base": [untraced(1.0), untraced(1.0)]}
    outputs[side][1] = bad
    run, _ = canned_pairs(outputs)
    with pytest.raises(bench_record.Refused, match=f"{side}.*{reason}"):
        bench_record.record_pairs("w", 2, run)


def traced(work, rrt_star_s, astar_s, digest="d1",
           probe_s=REFERENCE_S):
    """A passing `--trace 1` run's output, laid out as run.py prints it:
    the untraced `work_per_ref_s` and `probe_s` among the printed
    figures only, the traced self times also in the last line's
    per-layer metrics."""
    layers = {"pathplan.rrt_star.self_s": rrt_star_s,
              "pathplan.astar.self_s": astar_s,
              "pathplan.astar.calls": 72}
    metrics = {name: {"value": value, "unit": "s"}
               for name, value in layers.items()}
    return (0, f"workload w  seed 3  rounds 6  trace 1\ndigest {digest}\n"
            "end-to-end, untraced pass:\n  setup_s = 0.2 s\n"
            "other figures of the untraced pass:\n"
            f"  probe_s = {probe_s:.6g} s  median of 7 speed probes\n"
            f"  work_per_ref_s = {work:.6g} 1/s  median of 6 rounds\n"
            "per-layer, traced pass:\n"
            + "".join(f"  {name} = {value:.6g} s\n"
                      for name, value in layers.items())
            + json.dumps({"correct": True, "attempted": 6, "failed": 0,
                          "metrics": metrics}) + "\n")


def test_layer_pairs_sum_the_named_layers():
    """Per run the summed self time of the two layers; a pair goes to
    the side with less of it, and the ratio is base over HEAD."""
    run, calls = canned_pairs({
        "head": [traced(50.0, 0.30, 0.10), traced(48.0, 0.25, 0.05),
                 traced(51.5, 0.40, 0.10), traced(47.0, 0.35, 0.05)],
        "base": [traced(40.0, 0.50, 0.10), traced(41.0, 0.20, 0.05),
                 traced(44.0, 0.50, 0.10), traced(42.0, 0.50, 0.10)]})
    got = bench_record.record_pairs(
        "w", 4, run, layers=["pathplan.rrt_star", "pathplan.astar"],
        seconds=60)
    assert calls == ["head", "base", "base", "head"] * 2
    assert (got["seconds"], got["trace"]) == (60, 1)
    assert got["head"]["values"] == [50.0, 48.0, 51.5, 47.0]
    assert got["head_wins"] == 4 and got["sign_test_p"] == 0.125
    layers = got["layers"]
    assert layers["names"] == ["pathplan.rrt_star", "pathplan.astar"]
    assert layers["head"]["values"] == pytest.approx([0.4, 0.3, 0.5, 0.4])
    assert layers["head"]["raw_s"] == pytest.approx([0.4, 0.3, 0.5, 0.4])
    assert layers["head"]["probe_s"] == [REFERENCE_S] * 4
    assert layers["base"]["values"] == pytest.approx([0.6, 0.25, 0.6, 0.6])
    assert layers["ratios"] == pytest.approx([1.5, 0.25 / 0.3, 1.2, 1.5])
    assert (layers["head_wins"], layers["ties"]) == (3, 0)
    assert layers["sign_test_p"] == 0.625       # 2 * (1 + 4) / 16
    assert layers["head"]["median"] == pytest.approx(0.4)
    assert (layers["head"]["q1"], layers["head"]["q3"]) == \
        pytest.approx((0.325, 0.475))


def test_layer_pairs_scale_out_the_box_speed():
    """HEAD's runs take twice the layer time of the base's, but their
    speed probes took twice as long too: at reference speed every pair
    ties, and the raw sums and probes stay beside the scaled ones."""
    slow = REFERENCE_S * 2
    run, _ = canned_pairs({
        "head": [traced(50.0, 0.5, 0.25, probe_s=slow) for _ in range(4)],
        "base": [traced(50.0, 0.25, 0.125) for _ in range(4)]})
    layers = bench_record.record_pairs(
        "w", 4, run, layers=["pathplan.rrt_star", "pathplan.astar"])["layers"]
    assert layers["ratios"] == [1.0] * 4
    assert (layers["head_wins"], layers["ties"], layers["sign_test_p"]) == \
        (0, 4, 1.0)
    assert layers["head"]["values"] == layers["base"]["values"] == \
        [0.375] * 4
    assert layers["head"]["raw_s"] == [0.75] * 4
    assert layers["base"]["raw_s"] == [0.375] * 4
    assert layers["head"]["probe_s"] == [slow] * 4
    assert layers["metric"] == "self_s summed, at reference speed"


def test_untraced_pairs_record_no_layers():
    run, _ = canned_pairs({"head": [untraced(1.0), untraced(1.0)],
                           "base": [untraced(1.0), untraced(1.0)]})
    got = bench_record.record_pairs("w", 2, run)
    assert "layers" not in got and got["trace"] == 0


def test_a_layer_the_run_did_not_print_refuses():
    run, _ = canned_pairs({"head": [traced(1.0, 0.1, 0.1)] * 2,
                           "base": [traced(1.0, 0.1, 0.1)] * 2})
    with pytest.raises(bench_record.Refused, match="pathplan.gnn.self_s"):
        bench_record.record_pairs("w", 2, run, layers=["pathplan.gnn"])


def test_run_length_reaches_run_py_and_the_record(root, monkeypatch):
    argv = []

    def fake_run(cmd, **kwargs):
        argv.append(cmd)
        return types.SimpleNamespace(returncode=0, stdout=GOOD)
    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    assert bench_record.run_workload("a", trace=0, root=str(root),
                                     seconds=60.0) == (0, GOOD)
    bench_record.run_workload("a", root=str(root), seconds=7.5)
    assert [cmd[cmd.index("--seconds") + 1] for cmd in argv] == ["60", "7.5"]
    assert [cmd[cmd.index("--trace") + 1] for cmd in argv] == ["0", "1"]
    bench_record.record(str(root), ["a"], lambda w: (0, GOOD), seconds=60.0)
    assert json.loads((root / "BENCH_a.json").read_text())["seconds"] == 60


@pytest.mark.parametrize("args,message", [
    (["--layers", "pathplan.nope"], "no traced self time"),
    (["--seconds", "0"], "positive"),
    (["--layers", "pathplan.astar", "--base", "HEAD", "--pairs", "2"],
     "go together")], ids=["unknown-layer", "zero-seconds", "no-workload"])
def test_bad_flags_are_usage_errors(args, message, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_record.main(args)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


# The recorder against a one-file repository, its runs replaced by a
# child that writes its pid and sleeps
STUBBED_RECORDER = """
import importlib.util, subprocess, sys
tool, repo, pidfile = sys.argv[1:]
spec = importlib.util.spec_from_file_location("bench_record", tool)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)
bench_record.ROOT = repo
SLEEPER = ("import os, sys, time; p = sys.argv[1]; "
           "open(p + '.tmp', 'w').write(str(os.getpid())); "
           "os.replace(p + '.tmp', p); time.sleep(120)")

def run_workload(workload, trace=1, root=None, seconds=None):
    return subprocess.run([sys.executable, "-c", SLEEPER, pidfile]).returncode, ""

bench_record.run_workload = run_workload
sys.exit(bench_record.main(["--base", "HEAD", "--pairs", "2",
                            "--workload", "w"]))
"""


def test_sigterm_leaves_no_base_checkout_or_run(tmp_path):
    repo, tmp, pidfile = tmp_path / "repo", tmp_path / "tmp", \
        tmp_path / "run.pid"
    repo.mkdir()
    tmp.mkdir()
    (repo / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "w"}], "per_layer": []}))

    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c",
             "commit.gpgsign=false", *args], cwd=repo, check=True,
            stdout=subprocess.PIPE, text=True).stdout
    git("init", "-q")
    git("add", "-A")
    git("commit", "-qm", "base")
    (repo / "BENCH_w.json").write_text(json.dumps(
        {"env": {"commit": git("rev-parse", "HEAD").strip()}}))
    recorder = subprocess.Popen(
        [sys.executable, "-c", STUBBED_RECORDER, TOOL, str(repo),
         str(pidfile)], env={**os.environ, "TMPDIR": str(tmp)})
    child = None
    try:
        deadline = time.monotonic() + 60
        while not pidfile.exists():
            assert recorder.poll() is None, "the recorder exited early"
            assert time.monotonic() < deadline, "no run started"
            time.sleep(0.05)
        child = int(pidfile.read_text())
        assert [p.name.startswith("bench_base_") for p in tmp.iterdir()] \
            == [True]
        recorder.send_signal(signal.SIGTERM)
        assert recorder.wait(timeout=60) == 128 + signal.SIGTERM
        assert list(tmp.iterdir()) == []
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)
    finally:
        recorder.kill()
        recorder.wait()
        if child is not None:
            try:
                os.kill(child, signal.SIGKILL)
            except ProcessLookupError:
                pass
