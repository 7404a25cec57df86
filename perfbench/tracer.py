"""In-memory span tracing of `magnnet` from outside the package.

The tracer replaces each layer function named in LAYERS with a wrapper
that records a span (name, start, end, parent).  A wrapper is bound at
every module of the package that holds the function under some name, so
`from .gnn import build_graph` in `ppo` and `bench` is traced as well as
`gnn.build_graph`.  Counters are read from arguments and results at the
same boundaries.  Spans stay in memory and are written out when the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced function; "Episode.observe" names a
# method of the class `Episode`.  The span name is "<module>.<attribute>".
LAYERS = (
    ("pathplan", "distance_field"),
    ("pathplan", "cost_matrix"),
    ("pathplan", "astar"),
    ("pathplan", "rrt_star"),
    ("pathplan", "resolve_paths"),
    ("world", "init_episode"),
    ("world", "Episode.observe"),
    ("world", "Episode.act"),
    ("world", "arbitrate"),
    ("world", "advance"),
    ("world", "spawn_tasks"),
    ("assign", "feasible_optimum"),
    ("assign", "greedy"),
    ("assign", "random_assign"),
    ("gnn", "build_graph"),
    ("gnn", "gcn_encode"),
    ("policy", "actor_forward"),
    ("policy", "critic_forward"),
    ("policy", "sample_action"),
    ("ppo", "train"),
    ("ppo", "collect_rollout"),
    ("ppo", "compute_gae"),
    ("ppo", "ppo_update"),
    ("tensor", "backward"),
    ("tensor", "adam_step"),
    ("tensor", "save_checkpoint"),
    ("tensor", "load_checkpoint"),
    ("bench", "run_benchmark"),
    ("bench", "run_episode_baseline"),
    ("bench", "run_episode_magnnet"),
    ("bench", "planner_compare"),
)

ROOT = "bench_loop"  # span the benchmark opens around a traced pass


class Tracer:
    """Single-threaded span recorder.  A span is [name, start, end,
    parent index]; the parent is the innermost span open at its start."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")
        self._open.pop()
        self.spans[index][2] = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, f)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval and their union is
    taken, so overlapping children are not subtracted twice."""
    children: dict[int, list] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for k, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(k, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def span_problems(spans, wall_s: float, slack_s: float) -> list[str]:
    """What is wrong with the spans of one traced region whose wall time
    `wall_s` was read from a clock outside the tracer.

    The region must be one root span that every other span nests in, and
    the self times of all spans must sum to `wall_s` within `slack_s`.
    Nested spans split the root's time exactly, so the sum misses `wall_s`
    only by the tracer's cost at the region's edges, unless a span lies
    outside the root (counted twice) or the root misses part of the
    region."""
    problems = []
    open_spans = [s[0] for s in spans if s[2] is None]
    if open_spans:
        return [f"spans never closed: {', '.join(sorted(set(open_spans)))}"]
    roots = [s[0] for s in spans if s[3] < 0]
    if len(roots) != 1:
        problems.append(f"{len(roots)} spans outside any parent: "
                        f"{', '.join(sorted(set(roots)))}")
    self_sum = sum(self_times(spans))
    if abs(self_sum - wall_s) > slack_s:
        problems.append(f"self times sum to {self_sum:.6f} s, traced wall "
                        f"is {wall_s:.6f} s")
    return problems


def layer_totals(spans) -> dict:
    """name -> {"calls": n, "self_s": summed self time}."""
    totals: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for span, self_s in zip(spans, self_times(spans)):
        totals[span[0]]["calls"] += 1
        totals[span[0]]["self_s"] += self_s
    return dict(totals)


# ---------------------------------------------------------------------------
# counters read at layer boundaries
# ---------------------------------------------------------------------------

def cache_lookups(state) -> tuple[int, int]:
    """(lookups, misses) that one `cost_matrix(state)` call will make.

    The call reads one distance field per (live task, agent): N x M_live
    lookups.  A lookup misses when its (task id, motion model) key is not
    yet in `state.dist_cache`; each missing key is built once and serves
    the remaining agents of that motion model."""
    tasks = state.live_tasks()
    lookups = len(state.agents) * len(tasks)
    keys = {(t.id, a.motion_model) for t in tasks for a in state.agents}
    return lookups, len(keys - state.dist_cache.keys())


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _astar_name(args, kwargs):
    table = _arg(args, kwargs, 4, "reservations")
    if table is not None and table.slots:
        return "pathplan.astar_space_time"
    return "pathplan.astar"


def _before_cost_matrix(tracer, args, kwargs):
    state = args[0]
    if _arg(args, kwargs, 1, "planner", "astar") == "astar" \
            and getattr(state, "dist_cache", None) is not None:
        lookups, misses = cache_lookups(state)
        tracer.count("pathplan.cost_matrix.lookups", lookups)
        tracer.count("pathplan.cost_matrix.hits", lookups - misses)


def _after_arbitrate(tracer, outcome):
    tracer.count("world.arbitrate.contests", len(outcome.conflicts))
    tracer.count("world.arbitrate.invalid", len(outcome.invalid))
    tracer.count("world.arbitrate.assignments", len(outcome.assignments))
    tracer.count("world.arbitrate.valid_requests",
                 sum(len(v) for v in outcome.requests.values()))


def _after_advance(tracer, events):
    tracer.count("world.forced_waits",
                 sum(1 for e in events if e["event"] == "wait"))


def _after_collect(tracer, buffer):
    tracer.count("ppo.decision_steps", len(buffer.steps))
    tracer.count("ppo.episodes", buffer.episode_count)


BEFORE = {"pathplan.cost_matrix": _before_cost_matrix}
AFTER = {
    "world.arbitrate": _after_arbitrate,
    "world.advance": _after_advance,
    "world.spawn_tasks": lambda tr, new: tr.count("world.spawn_tasks.spawned",
                                                  len(new)),
    "ppo.collect_rollout": _after_collect,
}
NAMER = {"pathplan.astar": _astar_name}


def _wrap(tracer: Tracer, name: str, fn, no_path_error):
    before, after, namer = BEFORE.get(name), AFTER.get(name), NAMER.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span_name = namer(args, kwargs) if namer else name
        if before:
            before(tracer, args, kwargs)
        index = tracer.begin(span_name)
        try:
            result = fn(*args, **kwargs)
        except no_path_error:
            tracer.end(index)
            tracer.count(span_name + ".no_path")
            raise
        except BaseException:
            tracer.end(index)
            raise
        tracer.end(index)
        if after:
            after(tracer, result)
        return result

    return traced


class Patch:
    """Installs traced wrappers for LAYERS and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple] = []

    @staticmethod
    def _modules():
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "magnnet"
                                      or n.startswith("magnnet."))]

    def __enter__(self):
        from magnnet.errors import NoPathError
        homes = {m: importlib.import_module(f"magnnet.{m}")
                 for m, _ in LAYERS}
        modules = self._modules()
        for mod_name, attr in LAYERS:
            name = f"{mod_name}.{attr}"
            home = homes[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, _wrap(self.tracer, name, original,
                                         NoPathError))
                continue
            original = getattr(home, attr)  # AttributeError = renamed layer
            wrapper = _wrap(self.tracer, name, original, NoPathError)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
        return False
