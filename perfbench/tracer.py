"""Per-layer tracing of amr_navkit from outside the package.

The program is never edited: each traced function is replaced, for the
length of a ``with`` block, by a wrapper in every ``amr_navkit`` module that
holds a reference to it. The package imports names with ``from .x import y``,
so one function can sit in several module namespaces (``plan`` lives in
``planner``, ``controller`` and ``pipeline``); all of them are patched.

For every wrapped function the tracer keeps call and error counts, total and
self time (span time minus the time of wrapped children) and every call
duration, for a median. Coarse boundaries additionally record one span each,
with the span that caused it. Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from time import perf_counter

import numpy as np

# layer (module) -> functions wrapped in it; ``Class.method`` names a method
LAYERS = {
    "scene": (
        "sweep_collision_check",
        "collision_mask",
        "collision_check",
        "clearance",
        "raycast_lidar",
        "visible_from",
        "step_kinematics",
        "sample_scene",
    ),
    "planner": (
        "plan",
        "segments_cost",
        "steer",
        "rs0_distance",
        "rollout",
        "waypoints_from_path",
        "resample_keyframes",
    ),
    "codec": ("encode_trajectory", "decode_trajectory"),
    "controller": ("run_episode", "OraclePolicy.query", "pure_pursuit", "tilt_step"),
    "pipeline": (
        "sample_task",
        "plan_with_margin",
        "generate_episode",
        "write_dataset",
        "read_dataset",
        "load_scene",
        "save_scene",
    ),
    "evaluation": ("run_task", "summarize", "report_export"),
    "cli": ("main",),
}

# boundaries that get one span per call; everything else is aggregated only
SPANNED = frozenset(
    {
        "cli.main",
        "evaluation.run_task",
        "controller.OraclePolicy.query",
        "planner.plan",
        "pipeline.sample_task",
        "pipeline.generate_episode",
        "pipeline.write_dataset",
    }
)

TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# The benchmark's speed probe runs inside cli.main, between items. Wrapping it
# like a traced function keeps its time out of cli.main's self time.
PROBE = "workloads.speed_probe"

_PLAN = "planner.plan"


def _resolve(qualname: str):
    """(owner, attribute) that defines a traced name, e.g. (planner, "plan")."""
    layer, _, rest = qualname.partition(".")
    owner = sys.modules.get(f"amr_navkit.{layer}") or sys.modules[layer]
    *classes, attr = rest.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


class Patch:
    """Replace functions in every namespace that references them; undo on exit.

    ``hooks`` maps a qualified name to ``make(name, current) -> wrapper``.
    Patches nest: a later Patch wraps whatever an earlier one installed.
    """

    def __init__(self, hooks: dict):
        self.hooks = hooks
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        for qualname, make in self.hooks.items():
            owner, attr = _resolve(qualname)
            current = getattr(owner, attr)
            wrapper = make(qualname, current)
            sites = [(owner, attr)]
            if isinstance(owner, type(sys)):
                sites += [
                    (mod, name)
                    for mod_name, mod in sorted(sys.modules.items())
                    if mod_name.startswith("amr_navkit") and mod is not owner
                    for name, value in list(vars(mod).items())
                    if value is current
                ]
            for site, name in sites:
                self._undo.append((site, name, getattr(site, name)))
                setattr(site, name, wrapper)
        return self

    def __exit__(self, *exc):
        for site, name, value in reversed(self._undo):
            setattr(site, name, value)
        self._undo.clear()
        return False


class Stat:
    """Aggregate for one traced function."""

    __slots__ = ("calls", "errors", "total_s", "self_s", "durations", "counts")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations = array("d")
        self.counts: dict[str, int] = {}

    def bump(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


class _Frame:
    """One active call: time spent in wrapped children and plan() calls among them."""

    __slots__ = ("child_s", "plans")

    def __init__(self):
        self.child_s = 0.0
        self.plans = 0


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# outcome observers: (stat, frame, args, kwargs, result, ok) -> None
def _sweep(stat, frame, args, kwargs, result, ok):
    if ok and result:
        stat.bump("hits")


def _visible(stat, frame, args, kwargs, result, ok):
    if ok and result:
        stat.bump("true")


def _query(stat, frame, args, kwargs, result, ok):
    if frame.plans:
        stat.bump("planned")
        stat.bump("plans", frame.plans)


def _with_margin(stat, frame, args, kwargs, result, ok):
    if frame.plans >= 2:
        stat.bump("fallbacks")


def _episode(stat, frame, args, kwargs, result, ok):
    if ok:
        stat.bump("keyframes", len(result.keyframes))


def _run_episode(stat, frame, args, kwargs, result, ok):
    if ok:
        stat.bump("steps", result.steps)


def _write(stat, frame, args, kwargs, result, ok):
    if ok:
        stat.bump("bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


OBSERVERS = {
    "scene.sweep_collision_check": _sweep,
    "scene.visible_from": _visible,
    "controller.OraclePolicy.query": _query,
    "pipeline.plan_with_margin": _with_margin,
    "pipeline.generate_episode": _episode,
    "controller.run_episode": _run_episode,
    "pipeline.write_dataset": _write,
}


class Tracer:
    """Wraps every name in TRACED, and PROBE, while active; see the module docstring."""

    def __init__(self):
        self.stats = {name: Stat() for name in (*TRACED, PROBE)}
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[_Frame] = []
        self._span_stack: list[int] = []
        self._patch = Patch({name: self._wrap for name in self.stats})

    def __enter__(self):
        self._patch.__enter__()
        return self

    def __exit__(self, *exc):
        return self._patch.__exit__(*exc)

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        span_stack = self._span_stack
        spans = self.spans
        spanned = name in SPANNED
        is_plan = name == _PLAN
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            if spanned:
                span = len(spans)
                spans.append(None)  # placeholder keeps ids in start order
                parent = span_stack[-1] if span_stack else None
                span_stack.append(span)
            frame = _Frame()
            stack.append(frame)
            ok = False
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                stack.pop()
                if stack:
                    caller = stack[-1]
                    caller.child_s += dur
                    if is_plan:
                        caller.plans += 1
                stat.calls += 1
                stat.errors += not ok
                stat.total_s += dur
                stat.self_s += dur - frame.child_s
                stat.durations.append(dur)
                if observe is not None:
                    observe(stat, frame, args, kwargs, result, ok)
                if spanned:
                    span_stack.pop()
                    spans[span] = (span, parent, name, t0, t1)

        return traced

    def counters(self) -> dict[str, int]:
        """Every deterministic count the trace holds, by name."""
        out = {}
        for name, s in self.stats.items():
            out[f"{name}.calls"] = s.calls
            out[f"{name}.errors"] = s.errors
            for key, n in sorted(s.counts.items()):
                out[f"{name}.{key}"] = n
        return out

    def layer_metrics(self) -> dict[str, float]:
        """``<module>.<function>.calls/.self_s/.p50_ms`` plus derived ratios."""
        out: dict[str, float] = {}
        for name, s in self.stats.items():
            out[f"{name}.calls"] = s.calls
            out[f"{name}.self_s"] = s.self_s
            out[f"{name}.p50_ms"] = float(np.median(s.durations)) * 1e3 if s.calls else 0.0
        st = self.stats

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        plans = st["planner.plan"].calls
        query = st["controller.OraclePolicy.query"]
        sweep = st["scene.sweep_collision_check"]
        write = st["pipeline.write_dataset"]
        out.update(
            {
                "planner.plan.per_query": ratio(
                    query.counts.get("plans", 0), query.counts.get("planned", 0)
                ),
                "planner.plan.fail_rate": ratio(st["planner.plan"].errors, plans),
                "scene.sweep_collision_check.per_plan": ratio(sweep.calls, plans),
                "scene.sweep_collision_check.hit_rate": ratio(
                    sweep.counts.get("hits", 0), sweep.calls
                ),
                "planner.segments_cost.per_plan": ratio(st["planner.segments_cost"].calls, plans),
                "scene.visible_from.true_rate": ratio(
                    st["scene.visible_from"].counts.get("true", 0), st["scene.visible_from"].calls
                ),
                "pipeline.sample_task.fail_rate": ratio(
                    st["pipeline.sample_task"].errors, st["pipeline.sample_task"].calls
                ),
                "pipeline.plan_with_margin.fallback_rate": ratio(
                    st["pipeline.plan_with_margin"].counts.get("fallbacks", 0),
                    st["pipeline.plan_with_margin"].calls,
                ),
                "pipeline.generate_episode.keyframes_per_call": ratio(
                    st["pipeline.generate_episode"].counts.get("keyframes", 0),
                    st["pipeline.generate_episode"].calls,
                ),
                "pipeline.write_dataset.mb_per_s": ratio(
                    write.counts.get("bytes", 0) / 1e6, write.total_s
                ),
                "controller.run_episode.steps_per_call": ratio(
                    st["controller.run_episode"].counts.get("steps", 0),
                    st["controller.run_episode"].calls,
                ),
                "controller.OraclePolicy.query.per_episode": ratio(
                    query.calls, st["controller.run_episode"].calls
                ),
            }
        )
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span, parent, name, t0, t1 in self.spans:
                fh.write(
                    json.dumps({"id": span, "parent": parent, "name": name, "start": t0, "end": t1})
                    + "\n"
                )
