"""Demonstration pipeline: task sampling, episode generation, dataset IO.

Tasks pair a sampled robot embodiment and start pose with an object-centric
goal derived from a reference view. Episodes record expert keyframe
observations and tokenized waypoint actions along a planned path. Datasets
are line-delimited JSON with an explicit schema version and a manifest.
"""

from __future__ import annotations

import json
import math
import multiprocessing
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__ as _generator_version
from .codec import TokenizedStep, encode_trajectory
from .errors import (
    AmbiguousView,
    NoPathFound,
    SamplingExhausted,
    SchemaMismatch,
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
)
from .planner import (
    CostWeights,
    PlannerBudget,
    plan_with_margin,
    resample_keyframes,
    waypoints_from_path,
)
from .scene import (
    Bounds,
    LidarScan,
    RobotState,
    Scene,
    SceneObject,
    collision_check,
    raycast_lidar,
    visible_from,
)

SCHEMA_VERSION = "1"


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
    expert_tilt_target: float


@dataclass(frozen=True)
class EpisodeRecord:
    task: Task
    keyframes: list[Keyframe]
    planner_cost: float
    generator_version: str = _generator_version


@dataclass(frozen=True)
class TaskParams:
    d_min: float = 0.1
    d_max: float = 0.5
    p_ffr: float = 0.5
    visibility_fraction: float = 0.5
    max_start_target_dist: float = 10.0
    max_attempts: int = 300


def _sample_free_pose(rng, scene: Scene, radius: float, tries: int = 50) -> Pose2 | None:
    b = scene.bounds
    for _ in range(tries):
        pose = Pose2(
            float(rng.uniform(b.xmin + radius, b.xmax - radius)),
            float(rng.uniform(b.ymin + radius, b.ymax - radius)),
            float(rng.uniform(-math.pi, math.pi)),
        )
        if not collision_check(scene, pose, radius):
            return pose
    return None


def parallel_map(fn, jobs: list, workers: int) -> list:
    """``[fn(job) for job in jobs]``, over a pool of ``workers`` processes if above 1."""
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            return pool.map(fn, jobs)
    return [fn(job) for job in jobs]


def sample_task(
    scene: Scene,
    rng_seed: int,
    params: TaskParams = TaskParams(),
    weights: CostWeights = CostWeights(),
    probe_budget: PlannerBudget = PlannerBudget(batches=1, batch_size=16),
    camera: CameraModel = CameraModel.pinhole(),
    safety_margin: float = 0.1,
) -> Task:
    """Rejection-sample a feasible task in a scene; deterministic per seed.

    Draws embodiment radius, free start pose, reference view (the start view
    with probability p_ffr, else a random free view aimed at some object),
    a target visible from the reference view, and a goal spec; accepts only
    goals that are collision-free and pass a cheap planner feasibility probe.
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
            labels = determine_front_side(target.box, ref, on_tie="error")
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
        try:
            plan_with_margin(
                scene, start, goal, radius, target.box.center, weights, probe_budget,
                seed=rng_seed * 1000003 + attempt, safety_margin=safety_margin,
            )
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
    weights: CostWeights = CostWeights(),
    budget: PlannerBudget = PlannerBudget(),
    camera: CameraModel = CameraModel.pinhole(),
    seed: int = 0,
    horizon_n: int = 12,
    dt: float = 0.2,
    v_ref: float = 0.5,
    omega_ref: float = 1.0,
    safety_margin: float = 0.1,
    num_rays: int = 360,
    max_range: float = 10.0,
) -> EpisodeRecord:
    """Plan the expert path and record keyframed observations and actions.

    The tilt target follows the geometric gaze rule from the target's lowest
    point even when the object would be out of view.
    """
    target = scene.object_by_id(task.target_id)
    path = plan_with_margin(
        scene, task.start, task.goal_pose, task.robot_radius, target.box.center,
        weights, budget, seed=seed, safety_margin=safety_margin,
    )
    lowest = (target.box.cx, target.box.cy, target.base_height)
    keyframes = []
    for pose in resample_keyframes(path):
        steps = encode_trajectory(
            waypoints_from_path(path, pose, horizon_n, dt, v_ref, omega_ref)
        )
        tilt = compute_tilt(camera, pose, lowest, tilt_limit=None)
        keyframes.append(
            Keyframe(
                pose=pose,
                tilt=tilt,
                lidar=raycast_lidar(scene, pose, num_rays, max_range),
                expert_steps=steps,
                expert_tilt_target=tilt,
            )
        )
    return EpisodeRecord(task=task, keyframes=keyframes, planner_cost=path.cost)


def relabel_from_state(
    scene: Scene,
    task: Task,
    state: RobotState,
    weights: CostWeights = CostWeights(),
    budget: PlannerBudget = PlannerBudget(),
    seed: int = 0,
    horizon_n: int = 12,
    dt: float = 0.2,
    v_ref: float = 0.5,
    omega_ref: float = 1.0,
    safety_margin: float = 0.1,
) -> list[TokenizedStep]:
    """Expert relabeling query: replan to the goal from an arbitrary state."""
    target = scene.object_by_id(task.target_id)
    path = plan_with_margin(
        scene, state.pose, task.goal_pose, state.radius, target.box.center,
        weights, budget, seed=seed, safety_margin=safety_margin,
    )
    return encode_trajectory(
        waypoints_from_path(path, state.pose, horizon_n, dt, v_ref, omega_ref)
    )


def audit_keyframe_gaps(
    record: EpisodeRecord, trans_gap: float = 0.2, rot_gap: float = math.radians(5.0)
) -> bool:
    """Check every consecutive keyframe pair moves >= 0.2 m or turns >= 5 deg.

    The final pair is exempt (the path end is always emitted).
    """
    from .geometry import wrap_angle

    kfs = record.keyframes
    for a, b in zip(kfs[:-2], kfs[1:-1]):
        dp = math.hypot(b.pose.x - a.pose.x, b.pose.y - a.pose.y)
        dh = abs(wrap_angle(b.pose.heading - a.pose.heading))
        if dp < trans_gap - 1e-6 and dh < rot_gap - 1e-6:
            return False
    return True


# ---------------------------------------------------------------------------
# serialization


def _pose_to_list(p: Pose2) -> list[float]:
    return [p.x, p.y, p.heading]


def _pose_from_list(v) -> Pose2:
    return Pose2(float(v[0]), float(v[1]), float(v[2]))


def task_to_dict(task: Task) -> dict:
    return {
        "scene_seed": task.scene_seed,
        "start": _pose_to_list(task.start),
        "robot_radius": task.robot_radius,
        "reference_view": _pose_to_list(task.reference_view),
        "target_id": task.target_id,
        "side_labels": asdict(task.side_labels),
        "goal_spec": {
            "side": task.goal_spec.side,
            "distance_d": task.goal_spec.distance_d,
            "angle_theta": task.goal_spec.angle_theta,
        },
        "goal_pose": _pose_to_list(task.goal_pose),
        "ffr": task.ffr,
        "initially_visible": task.initially_visible,
    }


def task_from_dict(d: dict) -> Task:
    return Task(
        scene_seed=int(d["scene_seed"]),
        start=_pose_from_list(d["start"]),
        robot_radius=float(d["robot_radius"]),
        reference_view=_pose_from_list(d["reference_view"]),
        target_id=int(d["target_id"]),
        side_labels=SideLabels(**{k: int(v) for k, v in d["side_labels"].items()}),
        goal_spec=GoalSpec(
            side=d["goal_spec"]["side"],
            distance_d=float(d["goal_spec"]["distance_d"]),
            angle_theta=float(d["goal_spec"]["angle_theta"]),
        ),
        goal_pose=_pose_from_list(d["goal_pose"]),
        ffr=bool(d["ffr"]),
        initially_visible=bool(d["initially_visible"]),
    )


def record_to_dict(record: EpisodeRecord) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "task": task_to_dict(record.task),
        "keyframes": [
            {
                "pose": _pose_to_list(kf.pose),
                "tilt": kf.tilt,
                "lidar": {
                    "num_rays": kf.lidar.num_rays,
                    "max_range": kf.lidar.max_range,
                    "ranges": kf.lidar.ranges.tolist(),
                },
                "expert_steps": [
                    {
                        "psi_bin": s.psi_bin,
                        "r_bin": s.r_bin,
                        "phi_bin": s.phi_bin,
                        "psi_res": s.psi_res,
                        "r_res": s.r_res,
                        "phi_res": s.phi_res,
                    }
                    for s in kf.expert_steps
                ],
                "expert_tilt_target": kf.expert_tilt_target,
            }
            for kf in record.keyframes
        ],
        "planner_cost": record.planner_cost,
        "generator_version": record.generator_version,
    }


_KEYFRAME_KEYS = {"pose", "tilt", "lidar", "expert_steps", "expert_tilt_target"}
_STEP_KEYS = {"psi_bin", "r_bin", "phi_bin", "psi_res", "r_res", "phi_res"}


def record_from_dict(d: dict, index: int = -1) -> EpisodeRecord:
    where = f"record {index}" if index >= 0 else "record"
    if d.get("version") != SCHEMA_VERSION:
        raise SchemaMismatch(f"{where}: version {d.get('version')!r} != {SCHEMA_VERSION!r}")
    try:
        keyframes = []
        for kf in d["keyframes"]:
            if set(kf.keys()) != _KEYFRAME_KEYS:
                raise SchemaMismatch(f"{where}: keyframe fields {sorted(kf.keys())}")
            for s in kf["expert_steps"]:
                if set(s.keys()) != _STEP_KEYS:
                    raise SchemaMismatch(f"{where}: step fields {sorted(s.keys())}")
            keyframes.append(
                Keyframe(
                    pose=_pose_from_list(kf["pose"]),
                    tilt=float(kf["tilt"]),
                    lidar=LidarScan(
                        num_rays=int(kf["lidar"]["num_rays"]),
                        ranges=np.array(kf["lidar"]["ranges"], dtype=float),
                        max_range=float(kf["lidar"]["max_range"]),
                    ),
                    expert_steps=[
                        TokenizedStep(
                            psi_bin=int(s["psi_bin"]),
                            r_bin=int(s["r_bin"]),
                            phi_bin=int(s["phi_bin"]),
                            psi_res=float(s["psi_res"]),
                            r_res=float(s["r_res"]),
                            phi_res=float(s["phi_res"]),
                        )
                        for s in kf["expert_steps"]
                    ],
                    expert_tilt_target=float(kf["expert_tilt_target"]),
                )
            )
        return EpisodeRecord(
            task=task_from_dict(d["task"]),
            keyframes=keyframes,
            planner_cost=float(d["planner_cost"]),
            generator_version=str(d["generator_version"]),
        )
    except SchemaMismatch:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise SchemaMismatch(f"{where}: {err}") from err


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
    """Write records as JSONL plus a manifest; floats keep full precision."""
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record_to_dict(record), sort_keys=True) + "\n")
    manifest = {
        "version": SCHEMA_VERSION,
        "master_seed": master_seed,
        "scene_count": scene_count,
        "record_count": len(records),
        "config_hash": config_hash,
        "metadata": {"created_at": created_at},
    }
    with open(manifest_path(path), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_dataset(path: str, strict: bool = False) -> list[EpisodeRecord]:
    """Read a JSONL dataset; strict mode re-audits the keyframe gap rule."""
    records = []
    with open(path) as fh:
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
    return records


# scene files


def scene_to_dict(scene: Scene) -> dict:
    def box(b: OrientedBox) -> dict:
        return {"cx": b.cx, "cy": b.cy, "hx": b.hx, "hy": b.hy, "yaw": b.yaw}

    return {
        "version": SCHEMA_VERSION,
        "seed": scene.seed,
        "bounds": {"w": scene.bounds.w, "h": scene.bounds.h},
        "walls": [box(b) for b in scene.walls],
        "objects": [
            dict(
                id=o.id,
                **box(o.box),
                base_height=o.base_height,
                category=o.category,
                target_eligible=o.target_eligible,
            )
            for o in scene.objects
        ],
    }


def _finite(value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {value!r}")
    return x


def scene_from_dict(d: dict) -> Scene:
    """Scene from its JSON dict; any missing field or non-finite number is a
    SchemaMismatch, since one NaN would make every collision check pass."""
    if d.get("version") != SCHEMA_VERSION:
        raise SchemaMismatch(f"scene version {d.get('version')!r} != {SCHEMA_VERSION!r}")

    def box(b: dict) -> OrientedBox:
        return OrientedBox(*(_finite(b[k]) for k in ("cx", "cy", "hx", "hy", "yaw")))

    try:
        return Scene(
            bounds=Bounds(_finite(d["bounds"]["w"]), _finite(d["bounds"]["h"])),
            walls=[box(b) for b in d["walls"]],
            objects=[
                SceneObject(
                    id=int(o["id"]),
                    box=box(o),
                    base_height=_finite(o["base_height"]),
                    category=str(o["category"]),
                    target_eligible=bool(o["target_eligible"]),
                )
                for o in d["objects"]
            ],
            seed=int(d["seed"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise SchemaMismatch(f"scene: {err}") from err


def save_scene(scene: Scene, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(scene_to_dict(scene), fh, sort_keys=True)
        fh.write("\n")


def load_scene(path: str) -> Scene:
    with open(path) as fh:
        return scene_from_dict(json.load(fh))
