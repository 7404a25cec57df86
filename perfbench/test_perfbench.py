"""Tests for the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench_run  # noqa: E402
from calibrate import REFERENCE_S, at_reference_speed  # noqa: E402
from stats import (METRIC_NAME, TAIL_LADDER, percentile, quartile_spread,  # noqa: E402
                   summarize, tail_level)
from tracer import (Tracer, cache_lookups, layer_totals, self_times,  # noqa: E402
                    span_problems)


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# --- self time ---------------------------------------------------------------

def test_self_time_subtracts_child_spans():
    spans = [["root", 0.0, 10.0, -1],
             ["a", 1.0, 4.0, 0],
             ["b", 5.0, 6.0, 0],
             ["a.child", 2.0, 3.0, 1]]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1], ["c1", 1.0, 5.0, 0], ["c2", 3.0, 7.0, 0],
             ["c3", 9.0, 12.0, 0]]
    # children cover [1, 7] and [9, 10] of the parent
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_span_check_passes_when_spans_nest_in_the_root():
    spans = [["root", 1.0, 11.0, -1], ["a", 2.0, 4.0, 0], ["b", 3.0, 3.5, 1]]
    assert span_problems(spans, 10.0 + 1e-6, 1e-3) == []


def test_span_check_catches_a_span_outside_the_root():
    spans = [["root", 1.0, 11.0, -1], ["a", 2.0, 4.0, 0],
             ["stray", 5.0, 6.0, -1]]
    problems = span_problems(spans, 10.0, 1e-3)
    assert len(problems) == 2       # a second root, and 1 s counted twice
    assert "stray" in problems[0] and "11.000000" in problems[1]


def test_span_check_catches_a_root_shorter_than_the_wall():
    spans = [["root", 1.0, 9.0, -1], ["a", 2.0, 4.0, 0]]
    assert span_problems(spans, 10.0, 1e-3) == [
        "self times sum to 8.000000 s, traced wall is 10.000000 s"]


def test_span_check_catches_an_unclosed_span():
    spans = [["root", 1.0, 9.0, -1], ["a", 2.0, None, 0]]
    assert "never closed: a" in span_problems(spans, 8.0, 1e-3)[0]


def test_layer_totals_group_by_name():
    spans = [["root", 0.0, 4.0, -1], ["x", 0.0, 1.0, 0], ["x", 2.0, 3.5, 0]]
    totals = layer_totals(spans)
    assert totals["x"] == {"calls": 2, "self_s": pytest.approx(2.5)}
    assert totals["root"]["self_s"] == pytest.approx(1.5)


def test_tracer_nests_and_rejects_out_of_order_close():
    tr = Tracer()
    outer = tr.begin("outer")
    inner = tr.begin("inner")
    with pytest.raises(RuntimeError):
        tr.end(outer)
    tr.end(inner)
    tr.end(outer)
    assert tr.spans[inner][3] == outer and tr.spans[outer][3] == -1


# --- tail percentile -------------------------------------------------------

@pytest.mark.parametrize("n, level", [(19, None), (20, 50.0), (37, 50.0),
                                      (38, 75.0), (100, 90.0), (1000, 99.0),
                                      (10000, 99.9)])
def test_tail_level_examples(n, level):
    assert tail_level(n) == level


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    for n in range(1, 400):
        values = list(range(n))
        level = tail_level(n)
        beyond = {q: sum(v > percentile(values, q) for v in values)
                  for q in TAIL_LADDER}
        ok = [q for q in TAIL_LADDER if beyond[q] >= 10]
        assert level == (max(ok) if ok else None), n


def test_summarize_records_level_and_count():
    s = summarize([float(v) for v in range(40)])
    assert s["n"] == 40 and s["tail_level"] == 75.0
    assert s["p50"] == pytest.approx(19.5)
    assert s["tail"] == pytest.approx(percentile(range(40), 75.0))


def test_percentile_matches_linear_interpolation():
    assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)
    assert percentile([5], 90) == 5
    assert percentile([0, 10], 75) == pytest.approx(7.5)


def test_quartile_spread():
    assert quartile_spread([1.0] * 10) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3)


def test_reference_speed_scales_each_round_by_the_probes_around_it():
    ref = REFERENCE_S
    scaled = at_reference_speed([2.0, 4.0], [ref, 2 * ref, 2 * ref])
    assert scaled == pytest.approx([2.0 * 1.5, 4.0 * 2.0])


def test_reference_speed_needs_a_probe_around_every_round():
    with pytest.raises(ValueError):
        at_reference_speed([1.0, 3.0, 5.0], [REFERENCE_S] * 2)


# --- metric names ----------------------------------------------------------

def test_contract_metric_names_are_valid_and_unique():
    contract = load_contract()
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    names += [w["name"] for w in contract["workloads"]]
    assert all(METRIC_NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


def test_every_produced_figure_name_is_valid_and_covers_the_contract():
    contract = load_contract()
    tr = Tracer()
    root = tr.begin("bench_loop")
    tr.end(root)
    passes = SimpleNamespace(wall_s=1.0)
    layer = bench_run.per_layer(tr, passes, passes)
    run = SimpleNamespace(failed=0, attempted=3, wall_s=2.0, work=6,
                          rounds=[(3, 1.0), (3, 1.0)], probes=[0.1] * 3,
                          episode_s=[0.1] * 40, decision_s=[0.01] * 25,
                          quality={"travel_cost_s.mean": 1.0,
                                   "conflict_free_pct": 50.0, "episodes": 3})
    e2e = bench_run.end_to_end(SimpleNamespace(name="eval_dynamic"), run,
                               1.0, 100.0)
    for name in list(layer) + list(e2e):
        assert METRIC_NAME.fullmatch(name), name
    assert {m["name"] for m in contract["per_layer"]} <= set(layer)
    assert {m["name"] for m in contract["end_to_end"]} <= set(e2e)


# --- cache hit ratio base --------------------------------------------------

def fake_state(n_ground, n_aerial, task_ids, cached):
    agents = [SimpleNamespace(motion_model="g")] * n_ground \
        + [SimpleNamespace(motion_model="a")] * n_aerial
    tasks = [SimpleNamespace(id=t) for t in task_ids]
    return SimpleNamespace(agents=agents, live_tasks=lambda: tasks,
                           dist_cache={k: None for k in cached})


def test_cache_lookup_base_is_agents_times_live_tasks():
    state = fake_state(2, 3, [7, 8], cached=[(7, "g"), (7, "a")])
    lookups, misses = cache_lookups(state)
    assert lookups == 5 * 2
    assert misses == 2          # (8, g) and (8, a) are built once each


def test_cache_lookups_all_hit_when_every_key_cached():
    state = fake_state(1, 1, [1], cached=[(1, "g"), (1, "a"), (9, "a")])
    assert cache_lookups(state) == (2, 0)


def test_cache_counters_match_the_real_cost_matrix():
    magnnet_src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(magnnet_src, "magnnet")):
        pytest.skip("magnnet sources not present")
    sys.path.insert(0, magnnet_src)
    from magnnet import pathplan
    from magnnet.world import Episode, WorldConfig
    from tracer import Patch

    cfg = WorldConfig(grid_dims=(12, 12, 4), n_agents=4, n_tasks_initial=3,
                      n_ground=2, n_aerial=2, obstacle_density=0.05)
    ep = Episode(cfg, 3)
    tr = Tracer()
    with Patch(tr):
        pathplan.cost_matrix(ep.state)
        pathplan.cost_matrix(ep.state)
    assert pathplan.cost_matrix.__name__ == "cost_matrix"
    assert not hasattr(pathplan.cost_matrix, "__wrapped__")
    totals = layer_totals(tr.spans)
    assert tr.counters["pathplan.cost_matrix.lookups"] == 2 * 4 * 3
    built = totals["pathplan.distance_field"]["calls"]
    assert built == 3 * 2       # one field per (task, motion model)
    assert tr.counters["pathplan.cost_matrix.hits"] == 2 * 4 * 3 - built


# --- planner_compare failures ------------------------------------------------

def test_planner_failures_are_counted_per_instance(monkeypatch):
    magnnet_src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(magnnet_src, "magnnet")):
        pytest.skip("magnnet sources not present")
    sys.path.insert(0, magnnet_src)
    import workloads

    def instance(start, length, rrt_star_length):
        path = SimpleNamespace(length=length)
        return {"astar": (None, start, (9, 9, 0), "g", path),
                "rrt_star_length_m": rrt_star_length}

    # instance 1 has a bad A* path and no row (RRT* found no path);
    # instance 2's RRT* is shorter than its A*: two failures, not one
    instances = [instance((0, 0, 0), 5.0, 6.0), instance((1, 0, 0), 4.0, None),
                 instance((2, 0, 0), 7.0, 6.5)]
    rows = [{"agent": 0, "astar_length_m": 5.0, "rrt_star_length_m": 6.0},
            {"agent": 2, "astar_length_m": 7.0, "rrt_star_length_m": 6.5}]
    monkeypatch.setattr(workloads, "check_astar_path",
                        lambda grid, start, *rest: "bad path"
                        if start == (1, 0, 0) else None)
    run = workloads.Pass(speed_probes=False)
    run.attempted = len(instances)
    run.raw = [(4, 0, rows, instances)]
    workloads.PlannerCompare(1, 3.2, HERE).check(run)
    assert run.failed == 2
    assert any("bad path" in f for f in run.failures)
    assert any("agent 2" in f for f in run.failures)
