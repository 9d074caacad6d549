"""Demonstration pipeline: task sampling, episode generation, dataset IO.

Tasks pair a sampled robot embodiment and start pose with an object-centric
goal derived from a reference view. Episodes record expert keyframe
observations and tokenized waypoint actions along a planned path; the eval
oracle plans and labels with the same ``Expert``. Datasets are
line-delimited JSON with an explicit schema version and a manifest, and
scene files are JSON; every file is written by ``errors.written`` and read
by ``errors.checked``, with ``SHAPES`` holding the forms that are not an
object of their fields. A file that cannot be read or written is an
IoFailure, and one that is not UTF-8 a SchemaMismatch.
"""

from __future__ import annotations

import base64
import errno
import json
import math
import multiprocessing
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Annotated

import numpy as np

from . import __version__ as _generator_version
from .codec import PHI_BINS, PSI_BINS, R_BINS, TokenizedStep
from .errors import (
    AT_LEAST_1,
    NON_NEGATIVE,
    POSITIVE,
    UNIT,
    AmbiguousView,
    IoFailure,
    NoPathFound,
    SamplingExhausted,
    SchemaMismatch,
    Shape,
    check_ranges,
    checked,
    field_types,
    require_fields,
    written,
)
from .geometry import (
    GOAL_ANGLES,
    SIDE_NAMES,
    CameraModel,
    GoalSpec,
    OrientedBox,
    Pose2,
    SideLabels,
    compute_tilt,
    derive_goal_pose,
    determine_front_side,
    wrap_angle,
)
from .planner import (
    KEYFRAME_ROT_GAP,
    KEYFRAME_TRANS_GAP,
    Attempt,
    CostWeights,
    PlannedPath,
    PlannerBudget,
    label_poses,
    plan_with_margin,
    resample_keyframes,
)
from .scene import (
    LidarScan,
    Scene,
    SceneObject,
    check_lidar_params,
    collision_check,
    raycast_scans,
    visible_from,
)

SCENE_VERSION = "1"
DATASET_VERSION = "3"
LIDAR_UNIT = 1e-4  # metres per stored LiDAR range step (0.1 mm)


@dataclass(frozen=True)
class Task:
    """One navigation task: embodiment, start, reference view, and goal."""

    scene_seed: int
    start: Pose2
    robot_radius: float
    reference_view: Pose2
    target_id: int
    side_labels: SideLabels
    goal_spec: GoalSpec
    goal_pose: Pose2
    ffr: bool
    initially_visible: bool


@dataclass(frozen=True)
class Keyframe:
    """One expert observation/action sample along a demonstration path."""

    pose: Pose2
    tilt: float
    lidar: LidarScan
    expert_steps: list[TokenizedStep]


@dataclass(frozen=True)
class EpisodeRecord:
    task: Task
    keyframes: list[Keyframe]
    planner_cost: float
    generator_version: str = _generator_version


@dataclass(frozen=True)
class TraceEntry:
    """One executor step, as a row of an eval run's traces file."""

    step: int
    pose: Pose2
    tilt: float
    trajectory_id: int


@dataclass(frozen=True)
class DatasetManifest:
    """What a dataset's manifest file holds beside its version: the run that
    wrote it, and the record count that ``read_dataset`` checks; ``metadata``
    holds what differs between identical runs (the write time)."""

    master_seed: int
    scene_count: int
    record_count: int
    config_hash: str
    metadata: dict[str, str]


@dataclass(frozen=True)
class Expert:
    """How the expert plans and labels: one value for gen-data and the eval oracle.

    ``plan`` runs ``plan_with_margin`` with these weights and margin over
    the rungs it is given: a demonstration's one rung at ``budget``, a task
    probe's one small rung, or the oracle's (see ``OraclePolicy``).
    ``labels`` turns a planned path into the tokenized waypoint horizon seen
    from each of ``poses``, traversed at ``v_ref``/``omega_ref`` and sampled
    every ``dt``, and ``label`` does so for one pose.
    """

    weights: CostWeights = CostWeights()
    budget: PlannerBudget = PlannerBudget()
    safety_margin: float = 0.1
    horizon_n: int = 12
    dt: float = 0.2
    v_ref: float = 0.5
    omega_ref: float = 1.0

    def plan(
        self, scene: Scene, start: Pose2, goal: Pose2, radius: float, target_center, *attempts: Attempt
    ) -> PlannedPath:
        return plan_with_margin(scene, start, goal, radius, target_center, self.weights, attempts, self.safety_margin)

    def labels(self, path: PlannedPath, poses: list[Pose2]) -> list[list[TokenizedStep]]:
        return label_poses(path, poses, self.horizon_n, self.dt, self.v_ref, self.omega_ref)

    def label(self, path: PlannedPath, pose: Pose2) -> list[TokenizedStep]:
        return self.labels(path, [pose])[0]


@dataclass(frozen=True)
class TaskParams:
    # a goal distance outside [0, 1] fails GoalSpec mid-run, and a
    # fraction above 1 makes every task unsatisfiable
    d_min: Annotated[float, UNIT] = 0.1
    d_max: Annotated[float, UNIT] = 0.5
    p_ffr: Annotated[float, UNIT] = 0.5
    visibility_fraction: Annotated[float, UNIT] = 0.5
    max_start_target_dist: Annotated[float, POSITIVE] = 10.0
    max_attempts: Annotated[int, AT_LEAST_1] = 300

    def __post_init__(self):
        check_ranges(self, "task")
        if self.d_min > self.d_max:
            raise ValueError(f"task d_min must not exceed d_max, got {self.d_min} > {self.d_max}")


# free-pose draws before one task attempt gives up
_FREE_POSE_TRIES = 50
# the one rung of the feasibility probe that admits a task
PROBE_BUDGET = PlannerBudget(1, 16)


def _sample_free_pose(rng, scene: Scene, radius: float) -> Pose2 | None:
    b = scene.bounds
    for _ in range(_FREE_POSE_TRIES):
        pose = Pose2(
            float(rng.uniform(b.xmin + radius, b.xmax - radius)),
            float(rng.uniform(b.ymin + radius, b.ymax - radius)),
            float(rng.uniform(-math.pi, math.pi)),
        )
        if not collision_check(scene, pose, radius):
            return pose
    return None


def parallel_map(fn, jobs: list, workers: int) -> list:
    """``[fn(job) for job in jobs]``, over a pool of ``min(workers, len(jobs))``
    processes if that is above 1: a process beyond one per job would idle."""
    processes = min(workers, len(jobs))
    if processes > 1:
        with multiprocessing.Pool(processes) as pool:
            return pool.map(fn, jobs)
    return [fn(job) for job in jobs]


def sample_task(
    scene: Scene,
    rng_seed: int,
    params: TaskParams = TaskParams(),
    expert: Expert = Expert(),
    camera: CameraModel = CameraModel(),
) -> Task:
    """Rejection-sample a feasible task in a scene; deterministic per seed.

    Draws embodiment radius, free start pose, reference view (the start view
    with probability p_ffr, else a random free view aimed at some object),
    a target visible from the reference view, and a goal spec; accepts only
    goals that are collision-free and that ``expert`` reaches on one
    ``PROBE_BUDGET`` rung.
    """
    eligible = scene.target_objects()
    if not eligible:
        raise SamplingExhausted("scene has no target-eligible objects")
    rng = np.random.default_rng(rng_seed)
    hfov = camera.horizontal_fov

    for attempt in range(params.max_attempts):
        radius = float(rng.uniform(0.1, 0.5))
        start = _sample_free_pose(rng, scene, radius)
        if start is None:
            continue
        ffr = bool(rng.uniform() < params.p_ffr)
        if ffr:
            ref = start
        else:
            aim = eligible[int(rng.integers(len(eligible)))]
            ref_pos = _sample_free_pose(rng, scene, 0.1)
            if ref_pos is None:
                continue
            ref = Pose2(
                ref_pos.x,
                ref_pos.y,
                math.atan2(aim.box.cy - ref_pos.y, aim.box.cx - ref_pos.x),
            )
        candidates = [
            o
            for o in eligible
            if math.hypot(o.box.cx - start.x, o.box.cy - start.y) <= params.max_start_target_dist
            and visible_from(ref, o, scene, hfov, params.visibility_fraction)
        ]
        if not candidates:
            continue
        target = candidates[int(rng.integers(len(candidates)))]
        try:
            labels = determine_front_side(target.box, ref)
        except AmbiguousView:
            continue
        spec = GoalSpec(
            side=SIDE_NAMES[int(rng.integers(4))],
            distance_d=float(rng.uniform(params.d_min, params.d_max)),
            angle_theta=float(GOAL_ANGLES[int(rng.integers(len(GOAL_ANGLES)))]),
        )
        goal = derive_goal_pose(target.box, labels, spec, radius)
        if collision_check(scene, goal, radius):
            continue
        probe = Attempt(PROBE_BUDGET, rng_seed * 1000003 + attempt)
        try:
            expert.plan(scene, start, goal, radius, target.box.center, probe)
        except NoPathFound:
            continue
        return Task(
            scene_seed=scene.seed,
            start=start,
            robot_radius=radius,
            reference_view=ref,
            target_id=target.id,
            side_labels=labels,
            goal_spec=spec,
            goal_pose=goal,
            ffr=ffr,
            initially_visible=visible_from(start, target, scene, hfov, params.visibility_fraction),
        )
    raise SamplingExhausted(f"no feasible task after {params.max_attempts} attempts")


def generate_episode(
    scene: Scene,
    task: Task,
    expert: Expert = Expert(),
    camera: CameraModel = CameraModel(),
    seed: int = 0,
    num_rays: int = 360,
    max_range: float = 10.0,
) -> EpisodeRecord:
    """Plan the expert path and record keyframed observations and actions.

    The tilt follows the geometric gaze rule from the target's lowest
    point even when the object would be out of view. LiDAR ranges are
    recorded as the nearest multiple of ``LIDAR_UNIT``, as a dataset stores
    them, so a record reads back field for field.
    """
    target = scene.object_by_id(task.target_id)
    path = expert.plan(
        scene, task.start, task.goal_pose, task.robot_radius, target.box.center, Attempt(expert.budget, seed)
    )
    lowest = (target.box.cx, target.box.cy, target.base_height)
    poses = resample_keyframes(path)
    ranges = _range_steps(raycast_scans(scene, poses, num_rays, max_range)) * LIDAR_UNIT
    keyframes = []
    for pose, scan, steps in zip(poses, ranges, expert.labels(path, poses)):
        tilt = compute_tilt(camera, pose, lowest)
        keyframes.append(
            Keyframe(
                pose=pose,
                tilt=tilt,
                lidar=LidarScan(num_rays, scan, max_range),
                expert_steps=steps,
            )
        )
    return EpisodeRecord(task=task, keyframes=keyframes, planner_cost=path.cost)


def audit_keyframe_gaps(record: EpisodeRecord) -> bool:
    """Check every consecutive keyframe pair moves >= 0.2 m or turns >= 5 deg.

    The final pair is exempt (the path end is always emitted).
    """
    kfs = record.keyframes
    for a, b in zip(kfs[:-2], kfs[1:-1]):
        dp = math.hypot(b.pose.x - a.pose.x, b.pose.y - a.pose.y)
        dh = abs(wrap_angle(b.pose.heading - a.pose.heading))
        if dp < KEYFRAME_TRANS_GAP - 1e-6 and dh < KEYFRAME_ROT_GAP - 1e-6:
            return False
    return True


# ---------------------------------------------------------------------------
# serialization


def _range_steps(ranges: np.ndarray) -> np.ndarray:
    """LiDAR ranges as whole steps of ``LIDAR_UNIT``, rounded to nearest."""
    return np.rint(ranges / LIDAR_UNIT).astype(np.int64)


def _pose_from_list(v, where: str) -> Pose2:
    if type(v) is not list or len(v) != 3:
        raise ValueError(f"{where} must be [x, y, heading], got {v!r}")
    return Pose2(*(checked(x, float, f"{where}.{i}") for i, x in enumerate(v)))


@dataclass(frozen=True)
class KeyframeColumns:
    """A record's keyframes as a dataset stores them: ``count`` keyframes,
    each with ``horizon`` expert steps and a ``num_rays``-ray scan out to
    ``max_range``, and five columns, each the base64 of one packed array in
    keyframe order:

    * ``poses``, (count, 3) ``<f8``: x, y, heading;
    * ``tilts``, (count,) ``<f8``;
    * ``bins``, (count, horizon, 3) ``i1``: psi, r and phi bin of each step;
    * ``residuals``, (count, horizon, 3) ``<f8``: psi, r and phi residual;
    * ``range_steps``, (count, num_rays) ``<u4``: each range in whole steps
      of ``LIDAR_UNIT``, at most ``rint(max_range / LIDAR_UNIT)``.
    """

    count: Annotated[int, NON_NEGATIVE]
    horizon: Annotated[int, NON_NEGATIVE]
    num_rays: Annotated[int, NON_NEGATIVE]
    max_range: float
    poses: str
    tilts: str
    bins: str
    residuals: str
    range_steps: str

    def __post_init__(self):
        check_ranges(self, "keyframes")
        if self.count:
            check_lidar_params(self.num_rays, self.max_range, "keyframes")


def _column_forms(count: int, horizon: int, num_rays: int) -> dict:
    """Each ``KeyframeColumns`` column's dtype and array shape, in field order."""
    return {
        "poses": ("<f8", (count, 3)),
        "tilts": ("<f8", (count,)),
        "bins": ("i1", (count, horizon, 3)),
        "residuals": ("<f8", (count, horizon, 3)),
        "range_steps": ("<u4", (count, num_rays)),
    }


# each bin column's name and bin count, in the order a step's bins are stored
_BIN_COLUMNS = (("psi_bin", PSI_BINS), ("r_bin", R_BINS), ("phi_bin", PHI_BINS))
_STEP_FIELDS = attrgetter("psi_bin", "r_bin", "phi_bin", "psi_res", "r_res", "phi_res")


def _refuse_bad_values(poses, tilts, bins, residuals, range_steps, max_range: float, where: str) -> None:
    """Refuse (ValueError) the first column holding a value that no keyframe
    can: a non-finite pose, tilt or residual, a bin outside ``0..N-1`` for
    its N bins, or a range step outside ``0..rint(max_range / LIDAR_UNIT)``.
    The error names the column and the keyframe, each array's first axis."""
    top = round(max_range / LIDAR_UNIT)
    rules = [
        (column, "value", a, ~np.isfinite(a), "is not finite")
        for column, a in (("poses", poses), ("tilts", tilts), ("residuals", residuals))
    ]
    rules += [
        ("bins", name, b, (b < 0) | (b >= n), f"is outside 0..{n - 1}")
        for (name, n), b in zip(_BIN_COLUMNS, np.moveaxis(bins, -1, 0))
    ]
    outside = (range_steps < 0) | (range_steps > top)
    rules.append(("range_steps", "step", range_steps, outside, f"is outside 0..{top} (max_range {max_range} m)"))
    for column, label, values, bad, rule in rules:
        if bad.any():
            rows = bad.reshape(len(bad), -1)
            k = int(rows.any(axis=1).argmax())
            value = values.reshape(len(values), -1)[k][rows[k]][0]
            raise ValueError(f"{where}.{column}: keyframe {k}: {label} {value} {rule}")


def _column(text: str, dtype: str, shape: tuple, where: str) -> np.ndarray:
    """The array of ``shape`` and ``dtype`` that ``text`` holds in base64;
    text that is not base64 or not exactly that many bytes is a ValueError."""
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as err:  # binascii.Error, or a character that is not ASCII
        raise ValueError(f"{where}: invalid base64 ({err})") from err
    size = math.prod(shape) * np.dtype(dtype).itemsize
    if len(raw) != size:
        raise ValueError(f"{where}: {len(raw)} bytes, expected {size} for {dtype} of shape {shape}")
    return np.frombuffer(raw, dtype).reshape(shape)


def _keyframes_from_columns(d, where: str) -> list[Keyframe]:
    c = checked(d, KeyframeColumns, where)
    forms = _column_forms(c.count, c.horizon, c.num_rays)
    poses, tilts, bins, residuals, range_steps = (
        _column(getattr(c, name), dtype, shape, f"{where}.{name}") for name, (dtype, shape) in forms.items()
    )
    _refuse_bad_values(poses, tilts, bins, residuals, range_steps, c.max_range, where)
    steps = list(map(TokenizedStep, *bins.reshape(-1, 3).T.tolist(), *residuals.reshape(-1, 3).T.tolist()))
    horizons = [steps[k * c.horizon : (k + 1) * c.horizon] for k in range(c.count)]
    ranges = range_steps.astype(np.int64) * LIDAR_UNIT
    return [
        Keyframe(Pose2(*pose), tilt, LidarScan(c.num_rays, scan, c.max_range), horizon)
        for pose, tilt, scan, horizon in zip(poses.tolist(), tilts.tolist(), ranges, horizons)
    ]


def _keyframes_to_columns(keyframes: list[Keyframe]) -> dict:
    """The ``KeyframeColumns`` of ``keyframes``, written; keyframes that differ
    in horizon, ray count or range, or hold a value the reader refuses, are a
    ValueError, since no column form holds them."""
    count = len(keyframes)
    dims = [(len(kf.expert_steps), kf.lidar.num_rays, kf.lidar.max_range) for kf in keyframes]
    horizon, num_rays, max_range = dims[0] if dims else (0, 0, 0.0)
    for k, dim in enumerate(dims):
        if dim != dims[0]:
            raise ValueError(f"keyframe {k} has horizon, num_rays, max_range {dim}, keyframe 0 {dims[0]}")
    poses = np.array([(kf.pose.x, kf.pose.y, kf.pose.heading) for kf in keyframes], "<f8").reshape(count, 3)
    tilts = np.array([kf.tilt for kf in keyframes], "<f8")
    flat = list(chain.from_iterable(kf.expert_steps for kf in keyframes))
    steps = np.fromiter(chain.from_iterable(map(_STEP_FIELDS, flat)), float, 6 * len(flat)).reshape(count, horizon, 6)
    range_steps = _range_steps(np.array([kf.lidar.ranges for kf in keyframes], float).reshape(count, num_rays))
    bins, residuals = steps[..., :3], steps[..., 3:]
    _refuse_bad_values(poses, tilts, bins, residuals, range_steps, max_range, "keyframes")
    arrays = {"poses": poses, "tilts": tilts, "bins": bins, "residuals": residuals, "range_steps": range_steps}
    packed = {
        name: base64.b64encode(arrays[name].astype(dtype, copy=False).tobytes()).decode("ascii")
        for name, (dtype, _) in _column_forms(count, horizon, num_rays).items()
    }
    return written(KeyframeColumns(count, horizon, num_rays, max_range, **packed))


# a scene object stores its box fields inline, beside its own; the box's are read first
_BOX_FIELDS = tuple(field_types(OrientedBox))
_OWN_FIELDS = tuple(k for k in field_types(SceneObject) if k != "box")
_OBJECT_FIELDS = {**field_types(OrientedBox), **{k: field_types(SceneObject)[k] for k in _OWN_FIELDS}}


def _object_from_dict(d, where: str) -> SceneObject:
    """A scene object, each field read as ``errors.checked`` reads it; a box
    that ``OrientedBox`` refuses is a ValueError naming ``where``."""
    require_fields(d, _OBJECT_FIELDS.keys(), where)
    box = checked({k: d[k] for k in _BOX_FIELDS}, OrientedBox, where)
    return SceneObject(box=box, **{k: checked(d[k], _OBJECT_FIELDS[k], f"{where}.{k}") for k in _OWN_FIELDS})


def _object_to_dict(o: SceneObject) -> dict:
    return {**written(o.box), **{k: getattr(o, k) for k in _OWN_FIELDS}}


# the file-format types that are not stored as an object of their fields
SHAPES = {
    Pose2: Shape(_pose_from_list, lambda p: [p.x, p.y, p.heading]),
    list[Keyframe]: Shape(_keyframes_from_columns, _keyframes_to_columns),
    SceneObject: Shape(_object_from_dict, _object_to_dict),
    # no file is read back as traces, so the trace row has no reader
    TraceEntry: Shape(None, lambda e: [e.step, e.pose.x, e.pose.y, e.pose.heading, e.tilt, e.trajectory_id]),
}


def record_to_dict(record: EpisodeRecord) -> dict:
    return {"version": DATASET_VERSION, **written(record, SHAPES)}


def _read_versioned(d, kind: type, version: str, where: str, what: str):
    """``d`` read as ``kind`` by ``errors.checked``, once its ``version`` key is
    checked (against ``version``, naming the file ``what``) and dropped;
    anything refused is a SchemaMismatch naming ``where``."""
    if type(d) is not dict:
        raise SchemaMismatch(f"{where}: expected an object, got {type(d).__name__}")
    if d.get("version") != version:
        raise SchemaMismatch(f"{what} version {d.get('version')!r} != {version!r}")
    body = dict(d)
    del body["version"]
    try:
        return checked(body, kind, "", SHAPES)
    except (ValueError, OverflowError) as err:
        raise SchemaMismatch(f"{where}: {err}") from err


def record_from_dict(d: dict, index: int = -1) -> EpisodeRecord:
    """Record from its JSON dict; a wrong version, a value ``errors.checked``
    refuses (a missing or unknown field at any level included) or a
    keyframe column ``_keyframes_from_columns`` refuses is a SchemaMismatch."""
    where = f"record {index}" if index >= 0 else "record"
    return _read_versioned(d, EpisodeRecord, DATASET_VERSION, where, f"{where}: dataset")


def manifest_path(dataset_path: str) -> str:
    return str(dataset_path) + ".manifest.json"


def write_dataset(
    records: list[EpisodeRecord],
    path: str,
    master_seed: int = 0,
    scene_count: int = 0,
    config_hash: str = "",
    created_at: str = "",
) -> None:
    """Write records as compact JSONL plus a manifest.

    A record's keyframes are packed columns (``KeyframeColumns``): LiDAR
    ranges as whole steps of ``LIDAR_UNIT``, every float at full precision.
    A record whose keyframes no column form holds is a ValueError naming it.
    Both files appear or neither does, and a file that cannot be written is
    an IoFailure (``all_or_none``).
    """
    manifest = DatasetManifest(master_seed, scene_count, len(records), config_hash, {"created_at": created_at})
    with all_or_none([path, manifest_path(path)]) as (data_tmp, manifest_tmp):
        with open(data_tmp, "w") as fh:
            for i, record in enumerate(records):
                try:
                    line = json.dumps(record_to_dict(record), sort_keys=True, separators=(",", ":"))
                except ValueError as err:
                    raise ValueError(f"record {i}: {err}") from err
                fh.write(line + "\n")
        with open(manifest_tmp, "w") as fh:
            json.dump({"version": DATASET_VERSION, **written(manifest)}, fh, sort_keys=True, indent=2)
            fh.write("\n")


@contextmanager
def all_or_none(paths: list[str]):
    """Yield a hidden temporary path beside each of ``paths`` to write in its
    place, and rename them all into place once the block has written them all.

    If the block raises, or a path is a directory, the temporary files are
    removed and the files at ``paths`` stay as they were. An OSError, the
    block's included, is an IoFailure naming the output it was writing, not
    that output's temporary file: the one place a write error is worded.
    """
    temps = [os.path.join(os.path.dirname(p), f".{os.path.basename(p)}.partial") for p in paths]
    try:
        yield temps
        for path in paths:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    except OSError as err:
        path = dict(zip(temps, paths)).get(err.filename, err.filename) or ", ".join(paths)
        raise IoFailure(f"cannot write {path}: {err.strerror or err}") from err
    finally:
        for tmp in temps:
            if os.path.isfile(tmp):
                os.remove(tmp)


def read_json(path: str):
    """A parsed JSON file; an unreadable file is an IoFailure, one that is not
    UTF-8 JSON a SchemaMismatch."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise IoFailure(f"cannot read {path}: {err}") from err
    except ValueError as err:  # invalid JSON or text encoding
        raise SchemaMismatch(f"{path}: {err}") from err


def read_dataset(path: str, strict: bool = False) -> list[EpisodeRecord]:
    """Read a JSONL dataset; strict mode re-audits the keyframe gap rule.

    As for ``read_json``, an unreadable file is an IoFailure and one that is
    not UTF-8 a SchemaMismatch. After the records, the manifest must exist
    and read as a ``DatasetManifest`` of ``DATASET_VERSION`` that counts
    exactly the records read, so a truncated dataset is a SchemaMismatch.
    """
    records = []
    try:
        with open(path, encoding="utf-8") as fh:
            for i, line in enumerate(fh):
                if not line.strip():
                    continue
                try:
                    d = json.loads(line)
                except json.JSONDecodeError as err:
                    raise SchemaMismatch(f"record {i}: invalid JSON ({err})") from err
                record = record_from_dict(d, index=i)
                if strict and not audit_keyframe_gaps(record):
                    raise SchemaMismatch(f"record {i}: keyframe gap rule violated")
                records.append(record)
    except OSError as err:
        raise IoFailure(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise SchemaMismatch(f"{path}: {err}") from err
    mpath = manifest_path(path)
    try:
        manifest = _read_versioned(read_json(mpath), DatasetManifest, DATASET_VERSION, "manifest", "manifest")
    except (IoFailure, SchemaMismatch) as err:
        raise SchemaMismatch(f"dataset manifest {mpath}: {err}") from err
    if manifest.record_count != len(records):
        raise SchemaMismatch(f"{path}: {len(records)} records read, manifest says {manifest.record_count}")
    return records


# scene files


def scene_to_dict(scene: Scene) -> dict:
    return {"version": SCENE_VERSION, **written(scene, SHAPES)}


def scene_from_dict(d: dict) -> Scene:
    """Scene from its JSON dict; a wrong version or a value ``errors.checked``
    refuses (a missing or unknown field, a non-finite number, an id or seed
    that is not an integer, a target_eligible that is not a bool) is a
    SchemaMismatch, since one NaN would make every collision check pass."""
    return _read_versioned(d, Scene, SCENE_VERSION, "scene", "scene")


def save_scene(scene: Scene, path: str) -> None:
    """Write a scene file, as a path that ``all_or_none`` yields."""
    with open(path, "w") as fh:
        json.dump(scene_to_dict(scene), fh, sort_keys=True)
        fh.write("\n")


def load_scene(path: str) -> Scene:
    """The scene in a file; a SchemaMismatch names the file, so a command
    reading a directory of scenes says which one is bad."""
    d = read_json(path)
    try:
        return scene_from_dict(d)
    except SchemaMismatch as err:
        raise SchemaMismatch(f"{path}: {err}") from err
