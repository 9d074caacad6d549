import math
from dataclasses import replace

import numpy as np
import pytest

from amr_navkit.codec import encode_trajectory
from amr_navkit.controller import (
    TURN_TOL,
    ExecutorConfig,
    OraclePolicy,
    pure_pursuit,
    run_episode,
    tilt_step,
)
from amr_navkit import planner
from amr_navkit.errors import EmptyTrajectory, InvalidEndpoint, NoPathFound
from amr_navkit.geometry import CameraModel, Pose2, compute_tilt
from amr_navkit.planner import PlannedPath, PlannerBudget, Rotate, Translate, rollout, route_vertices
from amr_navkit.scene import (
    Bounds,
    DiffDrive,
    OmniDrive,
    OrientedBox,
    RobotState,
    Scene,
    SceneObject,
    _room_walls,
    command_omega,
    command_speed,
    sample_scene,
    step_kinematics,
    sweep_collision_checks,
)
from amr_navkit.pipeline import Expert, Task, sample_task
from amr_navkit import cli
from amr_navkit.config import RunConfig
from amr_navkit.errors import SamplingExhausted
from amr_navkit.evaluation import PolicySpec, run_task
from amr_navkit.geometry import GoalSpec, SideLabels


CFG_DIFF = ExecutorConfig(kinematics="differential")
CFG_OMNI = ExecutorConfig(kinematics="omnidirectional")
# a small planning budget keeps the closed-loop tests fast
EXPERT = Expert(budget=PlannerBudget(2, 16))


def make_task(scene, start, goal, target_id=0, radius=0.3) -> Task:
    return Task(
        scene_seed=scene.seed,
        start=start,
        robot_radius=radius,
        reference_view=start,
        target_id=target_id,
        side_labels=SideLabels.from_front(0),
        goal_spec=GoalSpec("front", 0.5, 0.0),
        goal_pose=goal,
        ffr=True,
        initially_visible=True,
    )


def room_with_target(w=12.0, h=12.0, box=None) -> Scene:
    box = box or OrientedBox(4.0, 0.0, 0.5, 0.5, 0.0)
    return Scene(Bounds(w, h), _room_walls(Bounds(w, h), 0.1), [SceneObject(0, box)], seed=0)


class TestPurePursuit:
    def test_straight_path_aligned(self):
        state = RobotState(Pose2(0, 0, 0), 0.3)
        traj = [Pose2(x, 0, 0) for x in np.linspace(0.1, 3.0, 30)]
        cmd = pure_pursuit(state, traj, CFG_DIFF)
        assert isinstance(cmd, DiffDrive)
        assert cmd.v == pytest.approx(CFG_DIFF.speed)
        assert cmd.omega == pytest.approx(0.0, abs=1e-12)

    def test_lateral_target_curvature(self):
        # a target at (x, y) within ROTATE_ANGLE of the heading: omega = 2*speed*y/(x^2 + y^2)
        state = RobotState(Pose2(0, 0, 0), 0.3)
        traj = [Pose2(1.0, 0.05, 0), Pose2(5.0, 0.25, 0)]
        cmd = pure_pursuit(state, traj, CFG_DIFF)
        assert cmd.v == pytest.approx(CFG_DIFF.speed)
        assert cmd.omega == pytest.approx(2.0 * CFG_DIFF.speed * 0.05 / (1.0 + 0.05**2))

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_differential_turns_in_place_to_a_target_off_its_heading(self, side):
        # straight to the left (or the right): the arc would stray 0.25 m off
        # its chord, so the drive first turns toward the target
        state = RobotState(Pose2(0, 0, 0), 0.3)
        cmd = pure_pursuit(state, [Pose2(0, side * 0.5, 0), Pose2(0, side * 5.0, 0)], CFG_DIFF)
        assert cmd.v == 0.0
        assert cmd.omega == pytest.approx(side * min(math.pi / 2 / CFG_DIFF.dt, CFG_DIFF.omega_max))

    def test_differential_turns_its_back_to_a_target_behind(self):
        # a target behind and to the left: reversing there needs a clockwise
        # turn first, made in one step (deadbeat)
        state = RobotState(Pose2(0, 0, 0), 0.3)
        cmd = pure_pursuit(state, [Pose2(-1.0, 0.5, 0)], CFG_DIFF)
        assert cmd.v == 0.0
        assert cmd.omega == pytest.approx(math.atan2(-0.5, 1.0) / CFG_DIFF.dt)
        turned = step_kinematics(state, cmd, CFG_DIFF.dt, CFG_DIFF.limits)
        assert turned.pose.heading == pytest.approx(math.atan2(-0.5, 1.0))
        # once the back faces it within ROTATE_ANGLE, the drive reverses
        cmd = pure_pursuit(state, [Pose2(-1.0, 0.05, 0)], CFG_DIFF)
        assert cmd.v < 0.0

    def test_zero_command_at_final_point(self):
        state = RobotState(Pose2(2.0, 1.0, 0.5), 0.3)
        traj = [Pose2(2.0, 1.0, 0.5)]
        for cfg in (CFG_DIFF, CFG_OMNI):
            state2 = replace(state, kinematics=cfg.kinematics)
            cmd = pure_pursuit(state2, traj, cfg)
            assert command_speed(cmd) == 0.0
            assert command_omega(cmd) == 0.0

    def test_final_inplace_rotation(self):
        state = RobotState(Pose2(2.0, 1.0, 0.0), 0.3)
        traj = [Pose2(2.0, 1.0, 1.0)]
        cmd = pure_pursuit(state, traj, CFG_DIFF)
        assert cmd.v == 0.0
        assert cmd.omega > 0.0

    def test_omni_decoupled_servo(self):
        cfg = CFG_OMNI
        state = RobotState(Pose2(0, 0, 0), 0.3, kinematics="omnidirectional")
        traj = [Pose2(2.0, 0.0, 1.0)]
        cmd = pure_pursuit(state, traj, cfg)
        assert isinstance(cmd, OmniDrive)
        assert cmd.vx > 0 and abs(cmd.vy) < 1e-12
        assert cmd.omega > 0  # heading servo active while moving

    @pytest.mark.parametrize("cfg", [CFG_OMNI, CFG_DIFF], ids=["omni", "diff"])
    @pytest.mark.parametrize("dist, speed", [(0.3, 0.5), (0.1, 0.5), (0.06, 0.3), (0.02, 0.1)])
    def test_speed_is_bounded_by_the_target(self, cfg, dist, speed):
        # full speed while the target is a step (speed * dt = 0.1 m) or more
        # away, else the speed that ends the step on it
        state = RobotState(Pose2(0, 0, 0), 0.3, kinematics=cfg.kinematics)
        cmd = pure_pursuit(state, [Pose2(dist, 0.0, 0.0)], cfg)
        assert command_speed(cmd) == pytest.approx(speed)

    @pytest.mark.parametrize("cfg", [CFG_OMNI, CFG_DIFF], ids=["omni", "diff"])
    @pytest.mark.parametrize("x, y", [(0.06, 0.0), (0.02, 0.0), (-0.05, 0.0), (0.05, 0.03), (0.07, 0.002)])
    def test_reaches_a_target_closer_than_one_step_in_one_step(self, cfg, x, y):
        # the drive faces the target, or its back does: one step ends on it
        # (a differential arc, 0.03 rad off, within 1e-4 m) and the next
        # command has no speed
        heading = math.atan2(y, x) + (math.pi if x < 0 else 0.0) + (0.03 if cfg is CFG_DIFF and y else 0.0)
        state = RobotState(Pose2(0, 0, heading), 0.3, kinematics=cfg.kinematics)
        traj = [Pose2(x, y, heading)]
        state = step_kinematics(state, pure_pursuit(state, traj, cfg), cfg.dt, cfg.limits)
        assert math.hypot(state.pose.x - x, state.pose.y - y) <= (1e-12 if cfg is CFG_OMNI or not y else 1e-4)
        assert command_speed(pure_pursuit(state, traj, cfg)) == 0.0

    def test_empty_trajectory(self):
        with pytest.raises(EmptyTrajectory):
            pure_pursuit(RobotState(Pose2(0, 0, 0), 0.3), [], CFG_DIFF)

    def test_commands_respect_limits(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            kin = "differential" if rng.uniform() < 0.5 else "omnidirectional"
            state = RobotState(
                Pose2(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi)),
                0.3,
                kinematics=kin,
            )
            traj = [
                Pose2(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
                for _ in range(int(rng.integers(1, 15)))
            ]
            cfg = CFG_DIFF if kin == "differential" else CFG_OMNI
            cmd = pure_pursuit(replace(state, kinematics=kin), traj, cfg)
            assert command_speed(cmd) <= cfg.v_max + 1e-9
            assert command_omega(cmd) <= cfg.omega_max + 1e-9


def arc():
    """12 waypoints 0.1 rad (about 0.1 m) apart on the unit circle, from (1, 0) counterclockwise."""
    return [Pose2(math.cos(0.1 * k), math.sin(0.1 * k), 0.1 * k + math.pi / 2) for k in range(12)]


def corner(turns=3):
    """0.5 m east along y = 0, a turn in place at (0.5, 0) over ``turns``
    waypoints, then 0.5 m north; waypoints 0.1 m apart."""
    east = [Pose2(0.1 * k, 0.0, 0.0) for k in range(1, 6)]
    turn = [Pose2(0.5, 0.0, (k + 1) * math.pi / 2 / turns) for k in range(turns)]
    north = [Pose2(0.5, 0.1 * k, math.pi / 2) for k in range(1, 6)]
    return east + turn + north


def bent(bend):
    """0.5 m east along y = 0 (waypoints 0.1 m apart), a turn by ``bend`` at
    (0.55, 0) between two samples, then 0.65 m on along the new heading."""
    east = [Pose2(0.1 * k, 0.0, 0.0) for k in range(1, 6)]
    on = [0.05 + 0.1 * k for k in range(7)]
    return east + [Pose2(0.55 + d * math.cos(bend), d * math.sin(bend), bend) for d in on]


def omni_target(state, traj):
    """The index of the waypoint that an omnidirectional command heads for:
    the one whose bearing from the robot matches the command's."""
    cmd = pure_pursuit(state, traj, CFG_OMNI)
    heading = math.atan2(cmd.vy, cmd.vx)
    misses = [abs(math.remainder(math.atan2(p.y - state.pose.y, p.x - state.pose.x) - heading, math.tau)) for p in traj]
    return misses.index(min(misses))


class TestTargetRule:
    @pytest.mark.parametrize("travelled", np.linspace(0.05, 0.95, 19))
    def test_never_targets_a_waypoint_before_the_nearest(self, travelled):
        # the robot partway along the horizon, 2 cm off it: waypoints behind
        # it lie a lookahead away too, and the old scan from waypoint 0 took them
        traj = arc()
        pose = Pose2(1.02 * math.cos(travelled), 1.02 * math.sin(travelled), travelled + math.pi / 2)
        state = RobotState(pose, 0.3, kinematics="omnidirectional")
        dists = [math.hypot(p.x - state.pose.x, p.y - state.pose.y) for p in traj]
        nearest = dists.index(min(dists))
        target = omni_target(state, traj)
        assert target >= nearest
        assert dists[target] >= CFG_OMNI.lookahead or target == len(traj) - 1
        assert all(d < CFG_OMNI.lookahead for d in dists[nearest:target])

    def test_backs_up_to_no_waypoint_already_passed(self):
        # 4 steps into a straight horizon waypoint 0 is 0.3 m behind: drive on, not back
        traj = [Pose2(0.1 * k, 0.0, 0.0) for k in range(1, 13)]
        pose = Pose2(0.4, 0.0, 0.0)
        for cfg in (CFG_OMNI, CFG_DIFF):
            cmd = pure_pursuit(RobotState(pose, 0.3, kinematics=cfg.kinematics), traj, cfg)
            assert (cmd.vx if cfg is CFG_OMNI else cmd.v) == pytest.approx(cfg.speed)

    @pytest.mark.parametrize(
        "x, y", [(0.0, 0.0), (0.2, 0.0), (0.38, 0.0), (0.44, 0.0), (0.3, -0.02), (0.42, 0.03), (0.499, 0.0), (0.53, 0.01)]
    )
    def test_stops_at_a_turn_in_place(self, x, y):
        # anywhere off the corner: head along the east leg to it (or back to
        # it, from past it), though near it the first waypoint a lookahead
        # away lies on the north leg
        traj = corner()
        state = RobotState(Pose2(x, y, 0.0), 0.3, kinematics="omnidirectional")
        cmd = pure_pursuit(state, traj, CFG_OMNI)
        assert math.atan2(cmd.vy, cmd.vx) == pytest.approx(math.atan2(-y, 0.5 - x))
        diff = pure_pursuit(RobotState(Pose2(x, y, math.atan2(-y, 0.5 - x)), 0.3), traj, CFG_DIFF)
        assert diff.v > 0 and diff.omega == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("x, y", [(0.46, 0.0), (0.5, 0.0), (0.53, 0.0), (0.48, 0.02), (0.5, 5e-7)])
    def test_lands_on_the_turn_then_moves_on(self, x, y):
        # within a step of the corner, the next step ends on it; once on it
        # (within TURN_TOL), the search moves on to the north leg
        traj = corner()
        state = RobotState(Pose2(x, y, 0.0), 0.3, kinematics="omnidirectional")
        if math.hypot(x - 0.5, y) > TURN_TOL:
            state = step_kinematics(state, pure_pursuit(state, traj, CFG_OMNI), CFG_OMNI.dt, CFG_OMNI.limits)
            assert math.hypot(state.pose.x - 0.5, state.pose.y) <= 1e-12
        cmd = pure_pursuit(state, traj, CFG_OMNI)
        assert cmd.vy == pytest.approx(CFG_OMNI.speed) and cmd.vx == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("bend", [0.126, -0.126, 0.01, math.pi / 2, math.pi])
    @pytest.mark.parametrize("x", [0.25, 0.35, 0.45])
    def test_stops_at_the_end_of_a_straight_run_before_a_bend(self, bend, x):
        # east along y = 0, then a plan turn at (0.55, 0) that takes less
        # than one sample: no waypoint lies on it, and the first one a
        # lookahead away is past it. The target is the run's last waypoint,
        # (0.5, 0), straight ahead.
        traj = bent(bend)
        assert all(math.hypot(p.x - 0.55, p.y) > 0.04 for p in traj)
        for cfg in (CFG_OMNI, CFG_DIFF):
            state = RobotState(Pose2(x, 0.0, 0.0), 0.3, kinematics=cfg.kinematics)
            cmd = pure_pursuit(state, traj, cfg)
            if cfg is CFG_OMNI:
                assert cmd.vy == 0.0
                assert cmd.vx == pytest.approx(min(cfg.speed, (0.5 - x) / cfg.dt))
            else:
                assert cmd.v > 0.0 and cmd.omega == 0.0

    @pytest.mark.parametrize("travelled", np.linspace(0.0, 0.35, 8))
    def test_keeps_the_lookahead_target_on_a_gentle_arc(self, travelled):
        # a 10 m radius arc turns 0.01 rad per 0.1 m step: no straight run,
        # so no corner, and the target is the first waypoint a lookahead on
        traj = [Pose2(10 * math.sin(0.01 * k), 10 - 10 * math.cos(0.01 * k), 0.01 * k) for k in range(1, 13)]
        pose = Pose2(10 * math.sin(travelled / 10), 10 - 10 * math.cos(travelled / 10), travelled / 10)
        state = RobotState(pose, 0.3, kinematics="omnidirectional")
        dists = [math.hypot(p.x - pose.x, p.y - pose.y) for p in traj]
        nearest = dists.index(min(dists))
        want = next(i for i in range(nearest, len(traj)) if dists[i] >= CFG_OMNI.lookahead)
        cmd = pure_pursuit(state, traj, CFG_OMNI)
        assert math.atan2(cmd.vy, cmd.vx) == pytest.approx(
            math.atan2(traj[want].y - pose.y, traj[want].x - pose.x), abs=1e-12
        )

    @pytest.mark.parametrize("cfg", [CFG_OMNI, CFG_DIFF], ids=["omni", "diff"])
    @pytest.mark.parametrize("turns", [1, 3, 8])
    def test_drives_through_a_corner_without_stalling(self, cfg, turns):
        # track one fixed horizon: the robot reaches the turn, goes on up the
        # north leg and stops at its end, each inside a bounded step count
        traj = corner(turns)
        state = RobotState(Pose2(0.0, 0.0, 0.0), 0.3, kinematics=cfg.kinematics)
        for _ in range(60):
            cmd = pure_pursuit(state, traj, cfg)
            if command_speed(cmd) == 0.0 and command_omega(cmd) == 0.0:
                break
            state = step_kinematics(state, cmd, cfg.dt, cfg.limits)
            # the path is an L: the robot keeps to its two legs
            assert min(abs(state.pose.y), abs(state.pose.x - 0.5)) < 0.06
        else:
            pytest.fail("the robot did not stop at the end of the horizon")
        assert math.hypot(state.pose.x - 0.5, state.pose.y - 0.5) <= cfg.stop_pos_tol


def cli_episode(tmp_path, master_seed: int, index: int):
    """Task ``index`` of ``eval --policy oracle`` at the CLI default config on
    master seed ``master_seed``, run as ``eval`` runs it: its scene and result."""
    scenes_dir = tmp_path / "scenes"
    argv = ["--seed", str(master_seed), "--workers", "1", "gen-scenes", "--count", "8", "--out", str(scenes_dir)]
    assert cli.main(argv) == 0
    scenes = cli._load_scene_dir(str(scenes_dir))
    cfg = replace(RunConfig(), master_seed=master_seed)
    expert, camera = cfg.expert(), cfg.camera.model()
    tasks, seed_index = [], 0  # each task with the route that admitted it
    while len(tasks) <= index:
        scene = scenes[len(tasks) % len(scenes)]
        seed_index += 1
        try:
            tasks.append(sample_task(scene, cli._task_seed(master_seed, seed_index - 1), cfg.task, expert, camera))
        except SamplingExhausted:
            pass
    spec = PolicySpec(expert, master_seed, use_residual=True)
    task, route = tasks[index]
    _, result = run_task(index, scene, task, spec, cfg.executor, camera, route)
    return scene, task, result


class TestTrackingRegressions:
    """Episodes that the oracle lost to tracking: when the target search began
    at waypoint 0, and when a step could pass its target."""

    @pytest.mark.parametrize(
        "master_seed, index",
        [
            # backed up to a passed waypoint, then chorded across a turn: collided at step 62
            pytest.param(8378000, 5, id="8378000-t5"),
            # with the search forward from the nearest waypoint alone, a chord
            # past a turn in place collided at step 143
            pytest.param(8937000, 4, id="8937000-t4"),
        ],
    )
    def test_reaches_its_goal_and_every_step_sweeps_clear(self, tmp_path, master_seed, index):
        scene, task, result = cli_episode(tmp_path, master_seed, index)
        assert result.outcome == "reached"
        # 8937000 task 4 also reached under the scan from waypoint 0, but in
        # 242 steps, backing up in every replan cycle; the search forward takes 167
        assert result.steps < 200
        xy = np.array([(e.pose.x, e.pose.y) for e in result.trace])
        assert not sweep_collision_checks(scene, xy[:-1], xy[1:], task.robot_radius).any()

    @pytest.mark.parametrize(
        "master_seed, index",
        [
            # 41.9 mm short of a turn in place, inside the old half-step
            # window: the target moved past it and the next step's chord cut
            # the corner; collided at step 27 (-5.65 mm)
            pytest.param(9903000, 7, id="9903000-t7"),
            # 4.3 mm short of a turn in place, the target moved past it: the
            # chord came within 11.9 mm of a box, and the next query found
            # no path (step 56)
            pytest.param(9987000, 2, id="9987000-t2"),
        ],
    )
    def test_lands_on_each_corner_and_reaches_its_goal(self, master_seed, index):
        # replayed as eval builds task ``index`` of the round (no task seed skipped)
        scene = sample_scene(cli._scene_seed(master_seed, index))
        task, route = sample_task(scene, cli._task_seed(master_seed, index))
        spec = PolicySpec(Expert(), master_seed)
        _, result = run_task(index, scene, task, spec, ExecutorConfig(), CameraModel(), route)
        assert result.outcome == "reached"
        assert result.min_clearance >= 0


class TestTiltStep:
    CAM = CameraModel()

    def test_converges_to_setpoint(self):
        cfg = CFG_OMNI
        state = RobotState(Pose2(0, 0, 0), 0.3, tilt=0.0)
        point = (2.0, 0.0, 0.0)
        setpoint = compute_tilt(self.CAM, state.pose, point)
        for _ in range(20):
            state = replace(state, tilt=tilt_step(state, self.CAM, point, cfg))
        assert state.tilt == pytest.approx(setpoint, abs=1e-12)

    def test_slew_limited(self):
        cfg = CFG_OMNI
        state = RobotState(Pose2(0, 0, 0), 0.3, tilt=0.0)
        new = tilt_step(state, self.CAM, (0.5, 0.0, 0.0), cfg)
        assert abs(new - state.tilt) <= cfg.tilt_rate * cfg.dt + 1e-12

    def test_monotone_on_approach(self):
        # closing in on a floor-level object looks further and further down
        cfg = CFG_OMNI
        tilts = []
        for rho in np.linspace(5.0, 1.0, 30):
            state = RobotState(Pose2(-rho, 0, 0), 0.3, tilt=0.6)
            tilts.append(compute_tilt(self.CAM, state.pose, (0.0, 0.0, 0.0)))
        assert all(b >= a for a, b in zip(tilts, tilts[1:]))

    def test_clamps_at_limit(self):
        cfg = CFG_OMNI
        state = RobotState(Pose2(0, 0, 0), 0.3, tilt=0.9)
        new = tilt_step(state, self.CAM, (0.05, 0.0, 0.0), cfg)
        assert new <= cfg.tilt_limit + 1e-12


class ZeroMotionPolicy:
    def query(self, state, task, step):
        return encode_trajectory([Pose2(0, 0, 0)] * 12)


class WallCrashPolicy:
    """Commands straight ahead regardless of obstacles."""

    def query(self, state, task, step):
        return encode_trajectory([Pose2(0.1, 0, 0)] * 12)


class CountingOracle(OraclePolicy):
    calls: int = 0

    def query(self, state, task, step):
        CountingOracle.calls += 1
        return super().query(state, task, step)


class TestRunEpisode:
    def test_oracle_reaches_goal_ahead(self):
        scene = room_with_target()
        start = Pose2(0.0, 0.0, 0.0)
        goal = Pose2(3.0, 0.0, 0.0)
        task = make_task(scene, start, goal)
        res = run_episode(scene, task, OraclePolicy(scene=scene, expert=EXPERT), CFG_OMNI)
        assert res.outcome == "reached"
        assert res.distance_error <= CFG_OMNI.stop_pos_tol + 1e-9
        assert res.angle_error <= math.degrees(CFG_OMNI.stop_ang_tol) + 1e-9

    def test_differential_tracking_also_reaches(self):
        scene = room_with_target()
        task = make_task(scene, Pose2(0, 0, 0), Pose2(3.0, 0.6, 0.3))
        res = run_episode(scene, task, OraclePolicy(scene=scene, expert=EXPERT), CFG_DIFF)
        assert res.outcome == "reached"
        assert res.distance_error <= CFG_DIFF.stop_pos_tol + 1e-9

    def test_zero_motion_policy_times_out(self):
        scene = room_with_target()
        cfg = replace(CFG_OMNI, max_steps=40)
        task = make_task(scene, Pose2(0, 0, 0), Pose2(3.0, 0, 0))
        res = run_episode(scene, task, ZeroMotionPolicy(), cfg)
        assert res.outcome == "timeout"
        assert res.steps == 40

    def test_crash_policy_collides(self):
        box = OrientedBox(1.5, 0.0, 0.3, 1.5, 0.0)
        scene = room_with_target(box=box)
        task = make_task(scene, Pose2(0, 0, 0), Pose2(4, 0, 0))
        res = run_episode(scene, task, WallCrashPolicy(), CFG_OMNI)
        assert res.outcome == "collision"
        assert res.min_clearance <= 0.0

    def test_no_path_outcome(self):
        class RefusingPolicy:
            def query(self, state, task, step):
                raise NoPathFound("nope")

        scene = room_with_target()
        task = make_task(scene, Pose2(0, 0, 0), Pose2(3.0, 0, 0))
        res = run_episode(scene, task, RefusingPolicy(), CFG_OMNI)
        assert res.outcome == "no_path"
        assert res.steps == 0

    def test_replan_cadence(self):
        scene = room_with_target()
        task = make_task(scene, Pose2(0, 0, 0), Pose2(3.0, 0, 0))
        CountingOracle.calls = 0
        policy = CountingOracle(scene=scene, expert=EXPERT)
        res = run_episode(scene, task, policy, CFG_OMNI)
        assert res.outcome == "reached"
        assert CountingOracle.calls == math.ceil(res.steps / CFG_OMNI.replan_every)
        ids = [e.trajectory_id for e in res.trace]
        assert ids == sorted(ids)
        assert len(set(ids)) == CountingOracle.calls

    def test_episode_deterministic(self):
        scene = sample_scene(30)
        task = sample_task(scene, 5)[0]
        r1 = run_episode(scene, task, OraclePolicy(scene=scene, expert=EXPERT, seed=4), CFG_OMNI)
        r2 = run_episode(scene, task, OraclePolicy(scene=scene, expert=EXPERT, seed=4), CFG_OMNI)
        assert r1.outcome == r2.outcome
        assert r1.distance_error == r2.distance_error
        assert [e.pose for e in r1.trace] == [e.pose for e in r2.trace]

    def test_codec_roundtrip_residuals_on_matches_oracle_precision(self):
        scene = room_with_target()
        task = make_task(scene, Pose2(0, 0, 0), Pose2(3.0, 0, 0))
        res = run_episode(
            scene, task, OraclePolicy(scene=scene, expert=EXPERT, use_residual=True), CFG_OMNI
        )
        assert res.outcome == "reached"
        assert res.distance_error <= CFG_OMNI.stop_pos_tol + 1e-9

    def test_without_residual_drops_only_the_residuals(self):
        scene = room_with_target()
        task = make_task(scene, Pose2(0, 0, 0), Pose2(3.0, 0, 0))
        state = RobotState(task.start, task.robot_radius)
        exact = OraclePolicy(scene=scene, expert=EXPERT).query(state, task, 0)
        snapped = OraclePolicy(scene=scene, expert=EXPERT, use_residual=False).query(state, task, 0)
        assert snapped == [s.without_residual() for s in exact]
        assert snapped != exact

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExecutorConfig(replan_every=13, horizon_n=12)
        with pytest.raises(ValueError):
            ExecutorConfig(stop_pos_tol=0.0)
        for dt in (0.0, -0.2, math.inf):
            with pytest.raises(ValueError, match="executor dt"):
                ExecutorConfig(dt=dt)
        # replan_every 0 divided by zero; max_steps -1 ran zero-step episodes
        for field, value in (("replan_every", 0), ("replan_every", -2), ("max_steps", 0), ("max_steps", -1)):
            with pytest.raises(ValueError, match=f"executor {field} must be at least 1"):
                ExecutorConfig(**{field: value})
        assert ExecutorConfig(replan_every=1, max_steps=1)
        # tilt_rate -1 slewed the tilt away from its setpoint; tilt_limit -0.5 pinned it there
        for field in ("tilt_rate", "tilt_limit"):
            for value in (-1.0, -0.5, -1e-300, math.nan):
                with pytest.raises(ValueError, match=f"executor {field} must be non-negative"):
                    ExecutorConfig(**{field: value})
            assert ExecutorConfig(**{field: 0.0}) and ExecutorConfig(**{field: math.inf})

    def test_error_shrinks_with_stop_tolerance(self):
        scene = room_with_target()
        task = make_task(scene, Pose2(0, 0, 0), Pose2(3.0, 0, 0))
        errors = []
        for tol in (0.05, 0.02, 0.01):
            cfg = replace(CFG_OMNI, stop_pos_tol=tol)
            res = run_episode(scene, task, OraclePolicy(scene=scene, expert=EXPERT), cfg)
            assert res.outcome == "reached"
            assert res.distance_error <= tol + 1e-9
            errors.append(res.distance_error)
        assert errors[-1] <= errors[0] + 1e-9


class TestOraclePlanLadder:
    # inflated then true radius at each budget level x1, x3, x8, with the
    # level's seed (5 * 1000003 + queries) + level * 7777777
    INFLATED = 0.3 + 0.1

    def ladder(self, level0_seed):
        return [
            (r, PlannerBudget(factor * 2, 16), level0_seed + level * 7_777_777, [])
            for level, factor in enumerate((1, 3, 8))
            for r in (self.INFLATED, 0.3)
        ]

    @classmethod
    def recorder(cls, attempts, outcome, inflated=None):
        """A stand-in for planner.plan that records each attempt, then
        returns ``outcome`` or raises it when it is an exception type;
        ``inflated``, when given, is the outcome at the inflated radius."""

        def plan(scene, start, goal, radius, target_center, w, budget, seed, via=()):
            attempts.append((radius, budget, seed, list(via)))
            result = inflated if inflated is not None and radius == cls.INFLATED else outcome
            if isinstance(result, type):
                raise result("refused")
            return result

        return plan

    def policy_and_task(self):
        scene = room_with_target()
        task = make_task(scene, Pose2(0, 0, 0), Pose2(3.0, 0, 0))
        expert = Expert(budget=PlannerBudget(2, 16), safety_margin=0.1)
        return OraclePolicy(scene=scene, expert=expert, seed=5, queries=3), task

    @pytest.mark.parametrize("error", [NoPathFound, InvalidEndpoint])
    def test_attempt_order(self, monkeypatch, error):
        """A first query keeps no route, so it runs the cold ladder alone. An
        endpoint in collision is refused once at each radius: the later
        levels then have no radius left to plan at."""
        attempts = []
        monkeypatch.setattr(planner, "plan", self.recorder(attempts, error))
        policy, task = self.policy_and_task()
        with pytest.raises(NoPathFound, match="refused"):
            policy.query(RobotState(Pose2(0, 0, 0), 0.3), task, 0)
        ladder = self.ladder(5_000_018)
        assert attempts == (ladder if error is NoPathFound else ladder[:2])
        assert policy.queries == 3

    # a route with three moves: the first two ends are kept, the last (the goal) is not
    ROUTE = [Rotate(0.5), Translate(1.0), Rotate(-0.5), Translate(0.8), Rotate(-0.5), Translate(1.0), Rotate(0.5)]
    KEPT = [Pose2(math.cos(0.5), math.sin(0.5), 0.5), Pose2(math.cos(0.5) + 0.8, math.sin(0.5), 0.0)]

    def routed_policy(self, monkeypatch):
        """A policy whose first query succeeded with ROUTE, and its task."""
        policy, task = self.policy_and_task()
        start = Pose2(0, 0, 0)
        route = PlannedPath(start, self.ROUTE, rollout(start, self.ROUTE), 3.0)
        attempts = []
        monkeypatch.setattr(planner, "plan", self.recorder(attempts, route))
        policy.query(RobotState(start, 0.3), task, 0)
        assert attempts == self.ladder(5_000_018)[:1]
        assert route_vertices(policy.path) == self.KEPT
        return policy, task

    @pytest.mark.parametrize("error", [NoPathFound, InvalidEndpoint])
    def test_warm_attempt_comes_first_after_a_plan(self, monkeypatch, error):
        """One batch with the level-0 seed and the kept route's vertices, at
        the inflated radius, then at the true radius, then the six cold
        attempts unchanged; an endpoint in collision drops each radius at its
        warm attempt, which leaves the cold rungs nothing to plan at."""
        policy, task = self.routed_policy(monkeypatch)
        attempts = []
        monkeypatch.setattr(planner, "plan", self.recorder(attempts, error))
        with pytest.raises(NoPathFound, match="refused"):
            policy.query(RobotState(Pose2(0.2, 0, 0), 0.3), task, 8)
        warm = [(r, PlannerBudget(1, 16), 5_000_019, self.KEPT) for r in (self.INFLATED, 0.3)]
        assert attempts == [*warm, *(self.ladder(5_000_019) if error is NoPathFound else [])]

    def test_warm_success_replaces_the_kept_route(self, monkeypatch):
        policy, task = self.routed_policy(monkeypatch)
        start = Pose2(0.2, 0, 0)
        segs = [Translate(1.0), Rotate(0.5), Translate(1.0)]
        attempts = []
        monkeypatch.setattr(planner, "plan", self.recorder(attempts, PlannedPath(start, segs, rollout(start, segs), 2.0)))
        policy.query(RobotState(start, 0.3), task, 8)
        assert attempts == [(self.INFLATED, PlannerBudget(1, 16), 5_000_019, self.KEPT)]
        assert route_vertices(policy.path) == [Pose2(1.2, 0.0, 0.0)]
        assert policy.queries == 5

    def test_one_translation_route_still_warms(self, monkeypatch):
        """A route with one translation keeps no vertices, but it is a route:
        the next query still starts with the warm attempt, seeded with none."""
        policy, task = self.policy_and_task()
        start = Pose2(0, 0, 0)
        segs = [Rotate(0.5), Translate(2.0), Rotate(-0.5)]
        attempts = []
        monkeypatch.setattr(planner, "plan", self.recorder(attempts, PlannedPath(start, segs, rollout(start, segs), 2.0)))
        policy.query(RobotState(start, 0.3), task, 0)
        assert route_vertices(policy.path) == []
        policy.query(RobotState(Pose2(0.2, 0, 0), 0.3), task, 8)
        assert attempts == [self.ladder(5_000_018)[0], (self.INFLATED, PlannerBudget(1, 16), 5_000_019, [])]

    def test_warm_failure_warms_again_at_the_true_radius(self, monkeypatch):
        """When the warm attempt finds no inflated route, it is made once more
        at the true radius, and a route found there ends the query and is
        kept, as a cold rung's would be."""
        policy, task = self.routed_policy(monkeypatch)
        start = Pose2(0.2, 0, 0)
        segs = [Translate(1.0), Rotate(0.5), Translate(1.0)]
        route = PlannedPath(start, segs, rollout(start, segs), 2.0)
        attempts = []
        monkeypatch.setattr(planner, "plan", self.recorder(attempts, route, inflated=NoPathFound))
        policy.query(RobotState(start, 0.3), task, 8)
        assert attempts == [(r, PlannerBudget(1, 16), 5_000_019, self.KEPT) for r in (self.INFLATED, 0.3)]
        assert route_vertices(policy.path) == [Pose2(1.2, 0.0, 0.0)]

    def test_route_from_the_pose_is_labelled_without_a_plan(self, monkeypatch):
        """A policy built on the route that admitted its task (as
        ``PolicySpec.build`` gives it) labels that route on its first query,
        which starts where the route does, and plans nothing."""
        policy, task = self.policy_and_task()
        start = Pose2(0, 0, 0)
        route = PlannedPath(start, self.ROUTE, rollout(start, self.ROUTE), 3.0)
        attempts = []
        monkeypatch.setattr(planner, "plan", self.recorder(attempts, NoPathFound))
        policy.path = route
        steps = policy.query(RobotState(start, 0.3), task, 0)
        assert attempts == []
        assert steps == policy.expert.label(route, start)
        assert policy.path is route and policy.queries == 4

    def test_route_from_elsewhere_runs_the_ladder(self, monkeypatch):
        """A route that starts at another pose than the state's only warms the
        plan: the warm rung with its vertices, then the cold ladder."""
        policy, task = self.policy_and_task()
        start = Pose2(0, 0, 0)
        policy.path = PlannedPath(start, self.ROUTE, rollout(start, self.ROUTE), 3.0)
        attempts = []
        monkeypatch.setattr(planner, "plan", self.recorder(attempts, NoPathFound))
        with pytest.raises(NoPathFound, match="refused"):
            policy.query(RobotState(Pose2(0.2, 0, 0), 0.3), task, 0)
        warm = [(r, PlannerBudget(1, 16), 5_000_018, self.KEPT) for r in (self.INFLATED, 0.3)]
        assert attempts == [*warm, *self.ladder(5_000_018)]

    def test_invalid_endpoint_warms_again_at_the_true_radius(self, monkeypatch):
        """An inflated endpoint in collision drops only the inflated radius:
        the warm attempt is made once more at the true radius, then the
        ladder plans at the true radius alone."""
        policy, task = self.routed_policy(monkeypatch)
        attempts = []
        monkeypatch.setattr(planner, "plan", self.recorder(attempts, NoPathFound, inflated=InvalidEndpoint))
        with pytest.raises(NoPathFound):
            policy.query(RobotState(Pose2(0.2, 0, 0), 0.3), task, 8)
        warm = [(r, PlannerBudget(1, 16), 5_000_019, self.KEPT) for r in (self.INFLATED, 0.3)]
        assert attempts == [*warm, *self.ladder(5_000_019)[1::2]]
