"""Closed-loop benchmark runner and metrics reporting.

Episodes are fanned out over tasks (optionally across worker processes) and
aggregated into a report of final-pose error distributions: overall medians,
collision/success rates, and per-bucket summaries split by initial target
distance, FFR mode, and initial visibility. Failed episodes contribute
their terminal errors; collision episodes are additionally counted apart.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .controller import EpisodeResult, ExecutorConfig, OraclePolicy, run_episode
from .errors import SchemaMismatch, checked, written
from .geometry import CameraModel
from .pipeline import Expert, Task, parallel_map
from .planner import PlannedPath
from .scene import Scene

CSV_SCHEMA = "# amr-navkit-report-v1"
CSV_COLUMNS = (
    "bucket",
    "ffr",
    "visible",
    "count",
    "median_distance_m",
    "p90_distance_m",
    "max_distance_m",
    "median_angle_deg",
    "p90_angle_deg",
    "max_angle_deg",
)

_BUCKET_EDGES = (2.0, 4.0, 6.0)
BUCKET_LABELS = ("0-2", "2-4", "4-6", "6+")


def bucket_label(start_target_dist: float) -> str:
    """Initial-distance bucket; boundary values fall in the lower bucket."""
    for edge, label in zip(_BUCKET_EDGES, BUCKET_LABELS):
        if start_target_dist <= edge:
            return label
    return BUCKET_LABELS[-1]


@dataclass(frozen=True)
class PolicySpec:
    """The built-in oracle policy's configuration (picklable for worker pools)."""

    expert: Expert = Expert()
    seed: int = 0
    use_residual: bool = True

    def build(self, scene: Scene, route: PlannedPath | None = None) -> OraclePolicy:
        """The policy for one episode, starting on ``route`` if given."""
        return OraclePolicy(scene, self.expert, self.use_residual, seed=self.seed, path=route)


@dataclass
class BucketStats:
    count: int = 0
    median_distance: float = 0.0
    p90_distance: float = 0.0
    max_distance: float = 0.0
    median_angle: float = 0.0
    p90_angle: float = 0.0
    max_angle: float = 0.0


@dataclass
class MetricsReport:
    n_episodes: int
    median_distance_error: float
    median_angle_error: float
    collision_rate: float
    success_rate: float
    success_pos_tol: float
    success_ang_tol_deg: float
    median_distance_error_success_only: float
    median_angle_error_success_only: float
    outcomes: dict[str, int]
    buckets: dict[str, BucketStats]


@dataclass(frozen=True)
class EpisodeSummary:
    """Per-episode metrics row feeding the aggregate report."""

    task_index: int
    outcome: str
    distance_error: float
    angle_error: float
    steps: int
    min_clearance: float
    start_target_dist: float
    ffr: bool
    initially_visible: bool


def _episode_summary(
    index: int, scene: Scene, task: Task, result: EpisodeResult
) -> EpisodeSummary:
    target = scene.object_by_id(task.target_id)
    dist0 = math.hypot(target.box.cx - task.start.x, target.box.cy - task.start.y)
    return EpisodeSummary(
        task_index=index,
        outcome=result.outcome,
        distance_error=result.distance_error,
        angle_error=result.angle_error,
        steps=result.steps,
        min_clearance=result.min_clearance,
        start_target_dist=dist0,
        ffr=task.ffr,
        initially_visible=task.initially_visible,
    )


def run_task(
    index: int,
    scene: Scene,
    task: Task,
    policy_spec: PolicySpec,
    cfg: ExecutorConfig,
    camera: CameraModel,
    route: PlannedPath | None = None,
) -> tuple[EpisodeSummary, EpisodeResult]:
    """One episode of ``task``; its policy starts on ``route``, the path that
    admitted the task, if given."""
    policy = policy_spec.build(scene, route)
    result = run_episode(scene, task, policy, cfg, camera)
    return _episode_summary(index, scene, task, result), result


def _run_job(job) -> tuple[EpisodeSummary, EpisodeResult]:
    return run_task(*job)


def summarize(
    summaries: list[EpisodeSummary],
    success_pos_tol: float = 0.1,
    success_ang_tol_deg: float = 10.0,
) -> MetricsReport:
    """Aggregate per-episode summaries into a metrics report."""
    dists = np.array([s.distance_error for s in summaries])
    angs = np.array([s.angle_error for s in summaries])
    n = len(summaries)
    collisions = sum(1 for s in summaries if s.outcome == "collision")
    success = sum(
        1
        for s in summaries
        if s.outcome != "collision"
        and s.distance_error <= success_pos_tol
        and s.angle_error <= success_ang_tol_deg
    )
    ok = [s for s in summaries if s.outcome != "collision"]
    outcomes: dict[str, int] = {}
    for s in summaries:
        outcomes[s.outcome] = outcomes.get(s.outcome, 0) + 1

    buckets: dict[str, BucketStats] = {}
    for label in BUCKET_LABELS:
        for ffr in (True, False):
            for vis in (True, False):
                key = f"{label}/{'ffr' if ffr else 'nonffr'}/{'visible' if vis else 'hidden'}"
                rows = [
                    s
                    for s in summaries
                    if bucket_label(s.start_target_dist) == label
                    and s.ffr == ffr
                    and s.initially_visible == vis
                ]
                if rows:
                    bd = np.array([s.distance_error for s in rows])
                    ba = np.array([s.angle_error for s in rows])
                    buckets[key] = BucketStats(
                        count=len(rows),
                        median_distance=float(np.median(bd)),
                        p90_distance=float(np.percentile(bd, 90)),
                        max_distance=float(bd.max()),
                        median_angle=float(np.median(ba)),
                        p90_angle=float(np.percentile(ba, 90)),
                        max_angle=float(ba.max()),
                    )
                else:
                    buckets[key] = BucketStats()

    return MetricsReport(
        n_episodes=n,
        median_distance_error=float(np.median(dists)) if n else 0.0,
        median_angle_error=float(np.median(angs)) if n else 0.0,
        collision_rate=collisions / n if n else 0.0,
        success_rate=success / n if n else 0.0,
        success_pos_tol=success_pos_tol,
        success_ang_tol_deg=success_ang_tol_deg,
        median_distance_error_success_only=(
            float(np.median([s.distance_error for s in ok])) if ok else 0.0
        ),
        median_angle_error_success_only=(
            float(np.median([s.angle_error for s in ok])) if ok else 0.0
        ),
        outcomes=outcomes,
        buckets=buckets,
    )


def evaluate(
    tasks: list[Task],
    scenes: Mapping[int, Scene],
    policy_spec: PolicySpec,
    cfg: ExecutorConfig = ExecutorConfig(),
    camera: CameraModel = CameraModel(),
    workers: int = 1,
    success_pos_tol: float = 0.1,
    success_ang_tol_deg: float = 10.0,
    routes: Sequence[PlannedPath | None] | None = None,
) -> tuple[MetricsReport, list[tuple[EpisodeSummary, EpisodeResult]]]:
    """Run one episode per task, each starting on its entry of ``routes`` (the
    path that admitted it; none if not given); return the aggregate report
    and each episode."""
    if not tasks:
        raise ValueError("tasks must be nonempty")
    routes = [None] * len(tasks) if routes is None else routes
    jobs = [
        (i, scenes[t.scene_seed], t, policy_spec, cfg, camera, route)
        for i, (t, route) in enumerate(zip(tasks, routes, strict=True))
    ]
    episodes = parallel_map(_run_job, jobs, workers)
    report = summarize([s for s, _ in episodes], success_pos_tol, success_ang_tol_deg)
    return report, episodes


# ---------------------------------------------------------------------------
# export


def _sig6(d):
    """A written report with every float rounded to 6 significant digits."""
    if type(d) is dict:
        return {k: _sig6(v) for k, v in d.items()}
    return float(f"{d:.6g}") if isinstance(d, float) else d


def report_to_dict(report: MetricsReport) -> dict:
    return _sig6(written(report))


_BUCKET_NAMES = {f"{r}/{f}/{v}" for r in BUCKET_LABELS for f in ("ffr", "nonffr") for v in ("visible", "hidden")}


def report_from_dict(d: dict) -> MetricsReport:
    """Report from its JSON dict. A value ``errors.checked`` refuses (a missing
    or unknown field, a count that is not an integer, a number that is not
    finite) and a bucket label that ``summarize`` does not write are each a
    SchemaMismatch."""
    try:
        report = checked(d, MetricsReport, "")
    except (ValueError, OverflowError) as err:
        raise SchemaMismatch(f"report: {err}") from err
    for k in report.buckets:
        if k not in _BUCKET_NAMES:
            raise SchemaMismatch(f"report bucket {k!r}: expected <range>/<ffr|nonffr>/<visible|hidden>")
    return report


def report_to_csv(report: MetricsReport) -> str:
    """Bucket table as CSV with a fixed, versioned header."""
    buf = io.StringIO()
    buf.write(CSV_SCHEMA + "\n")
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for key, b in report.buckets.items():
        label, ffr, vis = key.split("/")
        writer.writerow(
            [
                label,
                int(ffr == "ffr"),
                int(vis == "visible"),
                b.count,
                f"{b.median_distance:.6g}",
                f"{b.p90_distance:.6g}",
                f"{b.max_distance:.6g}",
                f"{b.median_angle:.6g}",
                f"{b.p90_angle:.6g}",
                f"{b.max_angle:.6g}",
            ]
        )
    return buf.getvalue()


def report_text(report: MetricsReport, fmt: str) -> str:
    """A report as JSON or CSV text; field order is deterministic."""
    if fmt == "json":
        return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        return report_to_csv(report)
    raise ValueError(f"unknown report format {fmt!r}")


def report_export(report: MetricsReport, fmt: str, path: str) -> None:
    """Write ``report_text`` to a path that ``all_or_none`` yields."""
    text = report_text(report, fmt)
    with open(path, "w") as fh:
        fh.write(text)
