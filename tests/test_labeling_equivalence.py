"""Keyframe labelling from the per-path step table matches the per-call loop bit for bit.

``waypoints_from_path`` slices ``PlannedPath.step_table`` instead of
re-deriving every remaining step's length and turn, and ``record_to_dict``
builds step dicts directly instead of through ``dataclasses.asdict``. The
references below are the code they replaced.
"""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from amr_navkit.errors import OffPath
from amr_navkit.geometry import Pose2, se2_relative, wrap_angle
from amr_navkit.pipeline import generate_episode, plan_with_margin, record_to_dict, sample_task
from amr_navkit.planner import (
    CostWeights,
    PlannedPath,
    PlannerBudget,
    Rotate,
    Translate,
    resample_keyframes,
    rollout,
    waypoints_from_path,
)
from amr_navkit.scene import sample_scene

SPEEDS = [(0.5, 1.0), (0.2, 0.3), (1.0, 2.5), (0.13, 0.7)]


def reference_waypoints(path, current, n=12, dt=0.2, v_ref=0.5, omega_ref=1.0, max_projection=0.3):
    """``waypoints_from_path`` as it was, walking the remaining path on every call."""
    states = path.states
    d2 = (states[:, 0] - current.x) ** 2 + (states[:, 1] - current.y) ** 2
    proj = int(np.argmin(d2))
    if math.sqrt(d2[proj]) > max_projection:
        raise OffPath("off path")
    rem = states[proj:]
    durations = np.empty(max(len(rem) - 1, 0))
    for i in range(len(rem) - 1):
        ds = math.hypot(rem[i + 1, 0] - rem[i, 0], rem[i + 1, 1] - rem[i, 1])
        dh = abs(wrap_angle(rem[i + 1, 2] - rem[i, 2]))
        durations[i] = ds / v_ref if ds > 1e-12 else dh / omega_ref
    tau = np.concatenate([[0.0], np.cumsum(durations)])
    world = []
    for k in range(1, n + 1):
        t = k * dt
        if len(rem) == 1 or t >= tau[-1]:
            world.append(Pose2.from_array(rem[-1]))
            continue
        i = int(np.searchsorted(tau, t, side="right"))
        f = (t - tau[i - 1]) / (tau[i] - tau[i - 1])
        x = rem[i - 1, 0] + f * (rem[i, 0] - rem[i - 1, 0])
        y = rem[i - 1, 1] + f * (rem[i, 1] - rem[i - 1, 1])
        h = rem[i - 1, 2] + f * wrap_angle(rem[i, 2] - rem[i - 1, 2])
        world.append(Pose2(x, y, h))
    steps, prev = [], current
    for p in world:
        steps.append(se2_relative(prev, p))
        prev = p
    return steps


def bits(poses) -> list[int]:
    return np.array([[p.x, p.y, p.heading] for p in poses], dtype=np.float64).view(np.uint64).ravel().tolist()


def assert_bit_identical(path, poses, speeds=SPEEDS):
    for v_ref, omega_ref in speeds:
        for pose in poses:
            got = waypoints_from_path(path, pose, 12, 0.2, v_ref, omega_ref)
            want = reference_waypoints(path, pose, 12, 0.2, v_ref, omega_ref)
            assert bits(got) == bits(want), (pose, v_ref, omega_ref)


def fresh(path: PlannedPath) -> PlannedPath:
    """The same path without a cached step table."""
    return PlannedPath(path.start, path.segments, path.states.copy(), path.cost)


@pytest.fixture(scope="module")
def planned_paths():
    paths = []
    for seed in (11, 12, 13):
        scene = sample_scene(seed)
        task = sample_task(scene, seed)
        target = scene.object_by_id(task.target_id)
        paths.append(
            plan_with_margin(
                scene, task.start, task.goal_pose, task.robot_radius, target.box.center,
                CostWeights(), PlannerBudget(), seed=seed,
            )
        )
    return paths


def test_planned_paths_at_every_keyframe(planned_paths):
    for path in planned_paths:
        assert_bit_identical(fresh(path), resample_keyframes(path))


def test_planned_paths_off_keyframe(planned_paths):
    rng = np.random.default_rng(5)
    for path in planned_paths:
        rows = path.states[rng.integers(len(path.states), size=25)]
        offsets = rng.uniform(-0.2, 0.2, size=(len(rows), 2))
        poses = [
            Pose2(r[0] + dx, r[1] + dy, r[2] + float(rng.uniform(-1, 1)))
            for r, (dx, dy) in zip(rows, offsets)
        ]
        assert_bit_identical(fresh(path), poses)


def test_pure_rotations():
    start = Pose2(0.5, -0.2, 0.3)
    segs = [Rotate(2.0), Translate(0.4), Rotate(-3.0), Translate(-0.7), Rotate(0.05)]
    path = PlannedPath(start, segs, rollout(start, segs), 0.0)
    lengths, turns = path.step_table
    assert (lengths <= 1e-12).sum() > 100 and (lengths > 1e-12).sum() > 100
    poses = [Pose2.from_array(s) for s in path.states[::7]]
    assert_bit_identical(path, poses)


def test_one_state_path():
    start = Pose2(1.0, 2.0, -0.5)
    path = PlannedPath(start, [], rollout(start, []), 0.0)
    assert len(path.states) == 1
    assert all(len(a) == 0 for a in path.step_table)
    assert_bit_identical(path, [start, Pose2(1.1, 2.0, 0.0)])


def test_repeated_calls_in_shuffled_order(planned_paths):
    rng = np.random.default_rng(9)
    path = fresh(planned_paths[0])
    poses = resample_keyframes(path)
    for _ in range(3):
        order = rng.permutation(len(poses))
        assert_bit_identical(path, [poses[i] for i in order], speeds=SPEEDS[:2])


def test_record_dict_bytes_match_asdict():
    for seed in (21, 22):
        scene = sample_scene(seed)
        task = sample_task(scene, seed)
        record = generate_episode(scene, task, seed=seed)
        reference = record_to_dict(record)
        for kf_dict, kf in zip(reference["keyframes"], record.keyframes):
            kf_dict["expert_steps"] = [asdict(s) for s in kf.expert_steps]
        got = json.dumps(record_to_dict(record), sort_keys=True)
        assert got == json.dumps(reference, sort_keys=True)
