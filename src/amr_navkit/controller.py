"""Closed-loop execution: pure-pursuit tracking, tilt regulation, replanning.

An episode queries a trajectory policy for tokenized waypoints on a fixed
cadence, tracks the decoded world-frame waypoints with pure pursuit, slews
the camera tilt toward its geometric setpoint every step (the tilt is the
executor's rule, not the policy's), and terminates on reaching the
goal, colliding, exhausting the step budget, or the policy reporting that
no path exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Annotated, Protocol, Sequence

import numpy as np

from .codec import TokenizedStep, decode_trajectory, encode_trajectory
from .errors import (
    AT_LEAST_1,
    FINITE_POSITIVE,
    NON_NEGATIVE,
    POSITIVE,
    EmptyTrajectory,
    NoPathFound,
    check_ranges,
)
from .geometry import (
    CameraModel,
    Pose2,
    compute_tilt,
    pose_error,
    se2_relative,
    wrap_angle,
)
from .pipeline import Expert, TraceEntry
from .planner import Attempt, PlannedPath, PlannerBudget, Translate, apply_segment
from .scene import (
    KINEMATICS_KINDS,
    Command,
    DiffDrive,
    OmniDrive,
    RobotState,
    Scene,
    SpeedLimits,
    clearance,
    command_omega,
    command_speed,
    step_kinematics,
)


@dataclass(frozen=True)
class ExecutorConfig:
    """Closed-loop execution parameters."""

    horizon_n: Annotated[int, AT_LEAST_1] = 12
    dt: Annotated[float, FINITE_POSITIVE] = 0.2
    replan_every: Annotated[int, AT_LEAST_1] = 8
    lookahead: Annotated[float, POSITIVE] = 0.3
    speed: Annotated[float, POSITIVE] = 0.5
    stop_pos_tol: Annotated[float, POSITIVE] = 0.01
    stop_ang_tol: Annotated[float, POSITIVE] = math.radians(0.5)
    max_steps: Annotated[int, AT_LEAST_1] = 600
    kinematics: str = "omnidirectional"
    omega_gain: Annotated[float, NON_NEGATIVE] = 2.0
    # a negative slew rate moves the tilt away from its setpoint, and a
    # negative limit pins the setpoint at the limit
    tilt_rate: Annotated[float, NON_NEGATIVE] = math.radians(90.0)  # slew limit, rad/s
    tilt_limit: Annotated[float, NON_NEGATIVE] = math.radians(60.0)
    v_max: Annotated[float, POSITIVE] = 1.5
    omega_max: Annotated[float, NON_NEGATIVE] = 3.0

    def __post_init__(self):
        check_ranges(self, "executor")
        if self.replan_every > self.horizon_n:
            raise ValueError(
                f"executor replan_every must not exceed horizon_n, got {self.replan_every} > {self.horizon_n}"
            )
        if self.kinematics not in KINEMATICS_KINDS:
            raise ValueError(f"executor kinematics must be one of {KINEMATICS_KINDS}, got {self.kinematics!r}")

    @property
    def limits(self) -> SpeedLimits:
        return SpeedLimits(self.v_max, self.omega_max)


@dataclass
class EpisodeResult:
    outcome: str  # reached | collision | timeout | no_path
    distance_error: float
    angle_error: float  # degrees
    steps: int
    min_clearance: float
    trace: list[TraceEntry] = field(default_factory=list)


class TrajectoryPolicy(Protocol):
    """Anything that maps (state, task, step) to tokenized waypoints.

    The tilt is not the policy's: the executor slews it by ``tilt_step``.
    A policy that reads LiDAR casts its own scan, e.g.
    ``raycast_lidar(scene, state.pose, num_rays, max_range)``.
    """

    def query(self, state: RobotState, task, step: int) -> list[TokenizedStep]:
        ...


# waypoints closer than this share a position: the plan turns in place there
TURN_TOL = 1e-6
# a differential drive turns in place while its target bears more than this
# off its heading (or off its back, to reverse): an arc to a target 0.3 m
# away then strays at most 7.5 mm off its chord
ROTATE_ANGLE = 0.1


def pure_pursuit(state: RobotState, trajectory_world: Sequence[Pose2], cfg: ExecutorConfig) -> Command:
    """Track a world-frame waypoint list with the pure-pursuit steering law.

    The target search starts at the waypoint nearest the robot, so it never
    aims back along the part of the plan already driven, and takes the first
    waypoint at least one lookahead away (else the last). It stops short at
    a waypoint where the plan turns in place (the next waypoint has the same
    position, within ``TURN_TOL``), so the chord to the target never cuts
    that corner, unless the robot is within half a step (``speed * dt / 2``)
    of it: then the search moves on, and the robot does not stall at the
    corner. A differential drive turns in place toward the target (or turns
    its back to it, to reverse) while the target bears more than
    ``ROTATE_ANGLE`` off that direction, so its arcs keep close to the
    chords. Near the trajectory end the speed tapers linearly with remaining
    distance and the final heading is aligned in place, so the commanded
    velocity reaches exactly zero once both stop tolerances are met.
    """
    if len(trajectory_world) == 0:
        raise EmptyTrajectory("pure pursuit needs at least one waypoint")

    # sqrt(dx*dx + dy*dy) is what norm(axis=1) computes per row
    px, py = state.pose.x, state.pose.y
    dists = [math.sqrt((p.x - px) * (p.x - px) + (p.y - py) * (p.y - py)) for p in trajectory_world]
    terminal = trajectory_world[-1]
    target = terminal
    corner_window = min(cfg.speed, cfg.v_max) * cfg.dt / 2
    for i in range(dists.index(min(dists)), len(trajectory_world) - 1):
        p, q = trajectory_world[i], trajectory_world[i + 1]
        turns = math.sqrt((q.x - p.x) * (q.x - p.x) + (q.y - p.y) * (q.y - p.y)) <= TURN_TOL
        if dists[i] >= cfg.lookahead or (turns and dists[i] > corner_window):
            target = p
            break
    goal_dist = dists[-1]
    heading_err = wrap_angle(terminal.heading - state.pose.heading)

    # linear speed taper inside 2 lookaheads of the trajectory end
    v_mag = min(cfg.speed, cfg.v_max) * min(1.0, goal_dist / (2 * cfg.lookahead))

    if state.kinematics == "omnidirectional":
        # position and heading servo independently, each with a deadband at
        # its stop tolerance, so the command reaches exactly zero at the end
        vx = vy = 0.0
        if goal_dist > cfg.stop_pos_tol:
            tx, ty = target.x - px, target.y - py
            norm = float(np.linalg.norm((tx, ty)))  # ddot: not equal to sqrt(tx*tx + ty*ty)
            if norm > 1e-12:
                vx, vy = v_mag * tx / norm, v_mag * ty / norm
        if abs(heading_err) <= cfg.stop_ang_tol:
            omega = 0.0
        else:
            omega = _clip(cfg.omega_gain * heading_err, cfg.omega_max)
        return OmniDrive(vx, vy, omega)

    if goal_dist <= cfg.stop_pos_tol:
        if abs(heading_err) <= cfg.stop_ang_tol:
            return DiffDrive(0.0, 0.0)
        return DiffDrive(0.0, _clip(cfg.omega_gain * heading_err, cfg.omega_max))

    c, s = math.cos(state.pose.heading), math.sin(state.pose.heading)
    rx, ry = target.x - px, target.y - py
    local_x = c * rx + s * ry
    local_y = -s * rx + c * ry
    dist_sq = local_x * local_x + local_y * local_y
    if dist_sq < 1e-18:
        return DiffDrive(0.0, _clip(cfg.omega_gain * heading_err, cfg.omega_max))
    bearing = math.atan2(local_y, local_x) if local_x >= 0 else math.atan2(-local_y, -local_x)
    if abs(bearing) > ROTATE_ANGLE:
        return DiffDrive(0.0, _clip(cfg.omega_gain * bearing, cfg.omega_max))
    v = v_mag if local_x >= 0 else -v_mag
    return DiffDrive(v, _clip(2.0 * v * local_y / dist_sq, cfg.omega_max))


def _clip(x: float, limit: float) -> float:
    """``np.clip(x, -limit, limit)`` on one float."""
    return min(max(x, -limit), limit)


def tilt_step(
    state: RobotState,
    camera: CameraModel,
    target_lowest_point: tuple[float, float, float],
    cfg: ExecutorConfig,
) -> float:
    """One slew-limited tilt update toward the geometric gaze setpoint."""
    try:
        setpoint = compute_tilt(camera, state.pose, target_lowest_point)
    except ValueError:
        return state.tilt  # point on the camera axis; hold tilt
    setpoint = _clip(setpoint, cfg.tilt_limit)
    slew = cfg.tilt_rate * cfg.dt
    return min(max(setpoint, state.tilt - slew), state.tilt + slew)


def run_episode(
    scene: Scene,
    task,
    policy: TrajectoryPolicy,
    cfg: ExecutorConfig = ExecutorConfig(),
    camera: CameraModel = CameraModel(),
) -> EpisodeResult:
    """Run one closed-loop episode; deterministic given scene, task and policy."""
    state = RobotState(
        pose=task.start,
        radius=task.robot_radius,
        tilt=0.0,
        kinematics=cfg.kinematics,
    )
    target = scene.object_by_id(task.target_id)
    lowest = (target.box.cx, target.box.cy, target.base_height)

    trajectory: list[Pose2] = []
    trace: list[TraceEntry] = []
    traj_id = 0
    outcome = "timeout"
    min_clear = clearance(scene, state.pose, state.radius)

    for step in range(cfg.max_steps):
        if step % cfg.replan_every == 0:
            try:
                steps = policy.query(state, task, step)
            except NoPathFound:
                outcome = "no_path"
                break
            trajectory = decode_trajectory(steps, state.pose, use_residual=True)
            traj_id += 1

        cmd = pure_pursuit(state, trajectory, cfg)
        state = replace(state, tilt=tilt_step(state, camera, lowest, cfg))
        trace.append(TraceEntry(step, state.pose, state.tilt, traj_id))

        dist_err, ang_err = pose_error(state.pose, task.goal_pose)
        if (
            command_speed(cmd) < 1e-9
            and command_omega(cmd) < 1e-9
            and dist_err <= cfg.stop_pos_tol
            and ang_err <= math.degrees(cfg.stop_ang_tol)
        ):
            outcome = "reached"
            break

        state = step_kinematics(state, cmd, cfg.dt, cfg.limits)
        cl = clearance(scene, state.pose, state.radius)
        min_clear = min(min_clear, cl)
        if cl < 0:
            outcome = "collision"
            break

    dist_err, ang_err = pose_error(state.pose, task.goal_pose)
    return EpisodeResult(
        outcome=outcome,
        distance_error=dist_err,
        angle_error=ang_err,
        steps=len(trace),
        min_clearance=min_clear,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# built-in policies

# within this distance of the goal position the oracle only turns in place
SNAP_DIST = 0.01
# batches of the oracle's warm attempt, which seeds the previous route
WARM_BATCHES = 1


def _route_vertices(path: PlannedPath) -> list[Pose2]:
    """The pose at the end of each Translate of ``path`` but the last (the goal).

    Empty for a route with one translation, which is still a route to warm
    the next query from.
    """
    ends, pose = [], path.start
    for seg in path.segments:
        pose = apply_segment(pose, seg)
        if isinstance(seg, Translate):
            ends.append(pose)
    return ends[:-1]


@dataclass
class OraclePolicy:
    """Expert policy: replans from the current state on every query.

    A query walks ``Expert.plan``'s ladder over these rungs: once a plan has
    succeeded, a warm ``certified`` rung of ``WARM_BATCHES`` batches seeded
    with ``via``, the previous route's vertices (``None`` until a plan
    succeeds; empty after a route with one translation); then three cold
    rungs at 1x, 3x and 8x the budget, each with its own seed. The warm rung
    is certified because its one-batch routes may keep only the 5 mm edge
    pad of clearance, and must not pre-empt an inflated route that a cold
    rung could find. Every successful plan replaces ``via``, so a policy
    serves one episode. The horizon always goes through the codec;
    ``use_residual=False`` drops the residuals, so the decoded trajectory
    snaps to bin centers and exposes the raw quantization error.
    """

    scene: Scene
    expert: Expert = Expert()
    use_residual: bool = True
    seed: int = 0
    queries: int = 0
    via: list[Pose2] | None = None

    def _plan(self, state: RobotState, task) -> PlannedPath:
        target = self.scene.object_by_id(task.target_id)
        seed = (self.seed * 1000003 + self.queries) % (2**63)
        budget = self.expert.budget
        rungs = []
        if self.via is not None:
            rungs.append(Attempt(PlannerBudget(WARM_BATCHES, budget.batch_size), seed, self.via, certified=True))
        # escalate the sampling budget (with fresh seeds) before giving up
        for level, factor in enumerate((1, 3, 8)):
            cold_seed = (seed + level * 7_777_777) % (2**63)
            rungs.append(Attempt(PlannerBudget(factor * budget.batches, budget.batch_size), cold_seed))
        return self.expert.plan(self.scene, state.pose, task.goal_pose, state.radius, target.box.center, *rungs)

    def _terminal_rotation(self, state: RobotState, task) -> list[Pose2]:
        """Hold the goal position and walk the heading to the goal heading.

        Used once the base is within ``SNAP_DIST``: replanning a
        sub-centimeter positional hop would otherwise spin the robot toward
        an arbitrary hop bearing on every replan.
        """
        goal = task.goal_pose
        max_turn = self.expert.omega_ref * self.expert.dt
        steps = []
        prev = state.pose
        h = state.pose.heading
        for _ in range(self.expert.horizon_n):
            err = wrap_angle(goal.heading - h)
            h = h + _clip(err, max_turn)
            pose = Pose2(goal.x, goal.y, h)
            steps.append(pose)
        out = []
        for p in steps:
            out.append(se2_relative(prev, p))
            prev = p
        return out

    def query(self, state: RobotState, task, step: int) -> list[TokenizedStep]:
        goal_dist = math.hypot(task.goal_pose.x - state.pose.x, task.goal_pose.y - state.pose.y)
        if goal_dist <= SNAP_DIST:
            steps = encode_trajectory(self._terminal_rotation(state, task))
        else:
            path = self._plan(state, task)
            self.queries += 1
            self.via = _route_vertices(path)
            steps = self.expert.label(path, state.pose)
        if not self.use_residual:
            steps = [s.without_residual() for s in steps]
        return steps
