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
from .planner import Attempt, PlannedPath, PlannerBudget, route_vertices
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


# waypoints closer than this share a position: the plan turns in place there;
# a step whose end lies within this of the line of the step before goes on along it
TURN_TOL = 1e-6
# a differential drive turns in place while its target bears more than this
# off its heading (or off its back, to reverse): an arc to a target 0.3 m
# away then strays at most 0.3 * ROTATE_ANGLE / 4 = 3.75 mm off its chord,
# inside the LIN_STEP / 2 pad that every planned edge keeps
ROTATE_ANGLE = 0.05


def _goes_on(ux: float, uy: float, vx: float, vy: float) -> bool:
    """Whether step ``(vx, vy)`` goes on in the direction of step ``(ux, uy)``."""
    return ux * vx + uy * vy > 0 and abs(ux * vy - uy * vx) <= TURN_TOL * math.sqrt(ux * ux + uy * uy)


def _is_corner(trajectory_world: Sequence[Pose2], i: int) -> bool:
    """Whether the horizon changes direction at waypoint ``i`` (not the last).

    It does where the plan turns in place (waypoint ``i + 1`` shares its
    position), and where waypoint ``i`` ends a straight run (the two steps
    into it go on in one direction) and the step out of it leaves that
    direction: a plan turn shorter than one sample puts no two waypoints on
    the corner. Arcs have no straight runs.
    """
    p, q = trajectory_world[i], trajectory_world[i + 1]
    ox, oy = q.x - p.x, q.y - p.y
    if math.sqrt(ox * ox + oy * oy) <= TURN_TOL:
        return True
    if i < 2:
        return False
    a, b = trajectory_world[i - 2], trajectory_world[i - 1]
    ix, iy = p.x - b.x, p.y - b.y
    return _goes_on(b.x - a.x, b.y - a.y, ix, iy) and not _goes_on(ix, iy, ox, oy)


def pure_pursuit(state: RobotState, trajectory_world: Sequence[Pose2], cfg: ExecutorConfig) -> Command:
    """Track a world-frame waypoint list with the pure-pursuit steering law.

    The target search starts at the waypoint nearest the robot, so it never
    aims back along the part of the plan already driven, and takes the first
    waypoint at least one lookahead away (else the last). It stops short at
    a corner, where the horizon changes direction (``_is_corner``), so the
    chord to the target never cuts it, and moves past a corner only once
    the robot is on it (within ``TURN_TOL``). No step passes its target:
    the speed is at most the target's distance over ``dt``, so the robot
    lands on a corner or the horizon's end and stops there. A differential
    drive turns in place toward the target (or turns its back to it, to
    reverse) while the target bears more than ``ROTATE_ANGLE`` off that
    direction, so its arcs keep close to the chords. At the horizon's end
    the final heading is aligned in place, so the commanded velocity
    reaches exactly zero once both stop tolerances are met. Every turn in
    place, and the omnidirectional heading servo, is deadbeat (``_turn``):
    it lands on its setpoint in one step unless ``omega_max`` clips it.
    """
    if len(trajectory_world) == 0:
        raise EmptyTrajectory("pure pursuit needs at least one waypoint")

    # sqrt(dx*dx + dy*dy) is what norm(axis=1) computes per row
    px, py = state.pose.x, state.pose.y
    dists = [math.sqrt((p.x - px) * (p.x - px) + (p.y - py) * (p.y - py)) for p in trajectory_world]
    terminal = trajectory_world[-1]
    j = len(trajectory_world) - 1
    for i in range(dists.index(min(dists)), j):
        if dists[i] >= cfg.lookahead or (dists[i] > TURN_TOL and _is_corner(trajectory_world, i)):
            j = i
            break
    target = trajectory_world[j]
    goal_dist = dists[-1]
    heading_err = wrap_angle(terminal.heading - state.pose.heading)
    # no step passes the target
    v_mag = min(cfg.speed, cfg.v_max, dists[j] / cfg.dt)

    if state.kinematics == "omnidirectional":
        # position and heading servo independently, so the command reaches
        # exactly zero at the end: the robot lands on the horizon's end, and
        # the heading deadband is the stop tolerance
        vx = vy = 0.0
        if goal_dist > TURN_TOL:
            tx, ty = target.x - px, target.y - py
            norm = float(np.linalg.norm((tx, ty)))  # ddot: not equal to sqrt(tx*tx + ty*ty)
            if norm > 1e-12:
                vx, vy = v_mag * tx / norm, v_mag * ty / norm
        return OmniDrive(vx, vy, 0.0 if abs(heading_err) <= cfg.stop_ang_tol else _turn(heading_err, cfg))

    # an arc ends only near its target, so a differential drive keeps its
    # position deadband at the stop tolerance: a TURN_TOL one would turn it
    # in place to face a residual of a fraction of a millimetre
    if goal_dist <= cfg.stop_pos_tol:
        if abs(heading_err) <= cfg.stop_ang_tol:
            return DiffDrive(0.0, 0.0)
        return DiffDrive(0.0, _turn(heading_err, cfg))

    c, s = math.cos(state.pose.heading), math.sin(state.pose.heading)
    rx, ry = target.x - px, target.y - py
    local_x = c * rx + s * ry
    local_y = -s * rx + c * ry
    dist_sq = local_x * local_x + local_y * local_y
    if dist_sq < 1e-18:
        return DiffDrive(0.0, _turn(heading_err, cfg))
    bearing = math.atan2(local_y, local_x) if local_x >= 0 else math.atan2(-local_y, -local_x)
    if abs(bearing) > ROTATE_ANGLE:
        return DiffDrive(0.0, _turn(bearing, cfg))
    v = v_mag if local_x >= 0 else -v_mag
    return DiffDrive(v, _clip(2.0 * v * local_y / dist_sq, cfg.omega_max))


def _clip(x: float, limit: float) -> float:
    """``np.clip(x, -limit, limit)`` on one float."""
    return min(max(x, -limit), limit)


def _turn(err: float, cfg: ExecutorConfig) -> float:
    """The deadbeat turn rate: it closes a heading error ``err`` in one step
    of ``dt``, clipped at ``omega_max``."""
    return _clip(err / cfg.dt, cfg.omega_max)


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


@dataclass
class OraclePolicy:
    """Expert policy: labels a path from the current state on every query.

    ``path`` is the last path labelled, at first the one that admitted the
    task (``sample_task``'s), if given. A query from the pose ``path``
    starts at (an episode's first) labels it and plans nothing; any other
    walks ``Expert.plan``'s ladder over these rungs: once there is a
    ``path``, a warm rung of ``WARM_BATCHES`` batches seeded with its
    ``route_vertices``; then three cold rungs at 1x, 3x and 8x the budget,
    each with its own seed. Every rung plans at the inflated radius, then
    at the true radius. Every successful plan replaces ``path``, so a
    policy serves one episode. The horizon always goes through the codec;
    ``use_residual=False`` drops the residuals, so the decoded trajectory
    snaps to bin centers and exposes the raw quantization error.
    """

    scene: Scene
    expert: Expert = Expert()
    use_residual: bool = True
    seed: int = 0
    queries: int = 0
    path: PlannedPath | None = None

    def _plan(self, state: RobotState, task) -> PlannedPath:
        target = self.scene.object_by_id(task.target_id)
        seed = (self.seed * 1000003 + self.queries) % (2**63)
        budget = self.expert.budget
        rungs = []
        if self.path is not None:
            rungs.append(Attempt(PlannerBudget(WARM_BATCHES, budget.batch_size), seed, route_vertices(self.path)))
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
            if self.path is None or self.path.start != state.pose:
                self.path = self._plan(state, task)
            self.queries += 1
            steps = self.expert.label(self.path, state.pose)
        if not self.use_residual:
            steps = [s.without_residual() for s in steps]
        return steps
