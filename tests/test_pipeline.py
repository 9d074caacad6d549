import json
import math

import numpy as np
import pytest

from amr_navkit.codec import decode_trajectory
from amr_navkit.errors import NoPathFound, SamplingExhausted, SchemaMismatch
from amr_navkit.geometry import Pose2
from amr_navkit.pipeline import (
    TaskParams,
    audit_keyframe_gaps,
    generate_episode,
    load_scene,
    read_dataset,
    record_from_dict,
    record_to_dict,
    relabel_from_state,
    sample_task,
    save_scene,
    scene_from_dict,
    scene_to_dict,
    task_from_dict,
    task_to_dict,
    write_dataset,
)
from amr_navkit.scene import (
    Bounds,
    OrientedBox,
    RobotState,
    Scene,
    SceneObject,
    _room_walls,
    collision_check,
    sample_scene,
    sweep_collision_check,
    visible_from,
)


def single_box_scene() -> Scene:
    return Scene(
        Bounds(10, 10),
        _room_walls(Bounds(10, 10), 0.1),
        [SceneObject(0, OrientedBox(2.0, 1.0, 0.5, 0.5, 0.2))],
        seed=77,
    )


@pytest.fixture(scope="module")
def sampled_tasks():
    scene = sample_scene(40)
    tasks = [sample_task(scene, seed) for seed in range(12)]
    return scene, tasks


@pytest.fixture(scope="module")
def one_episode():
    scene = sample_scene(41)
    task = sample_task(scene, 3)
    record = generate_episode(scene, task, seed=3)
    return scene, task, record


class TestSampleTask:
    def test_single_box_ffr(self):
        scene = single_box_scene()
        task = sample_task(scene, 1, TaskParams(p_ffr=1.0))
        assert task.ffr is True
        assert task.target_id == 0
        assert task.reference_view == task.start
        assert task.initially_visible is True

    def test_d_range_and_validity(self, sampled_tasks):
        scene, tasks = sampled_tasks
        for task in tasks:
            assert 0.1 <= task.goal_spec.distance_d <= 0.5
            assert 0.1 <= task.robot_radius <= 0.5
            assert not collision_check(scene, task.goal_pose, task.robot_radius)
            assert not collision_check(scene, task.start, task.robot_radius)
            target = scene.object_by_id(task.target_id)
            d0 = math.hypot(target.box.cx - task.start.x, target.box.cy - task.start.y)
            assert d0 <= 10.0

    def test_goal_pose_consistent_with_spec(self, sampled_tasks):
        from amr_navkit.geometry import derive_goal_pose

        scene, tasks = sampled_tasks
        for task in tasks:
            target = scene.object_by_id(task.target_id)
            g = derive_goal_pose(target.box, task.side_labels, task.goal_spec, task.robot_radius)
            assert math.hypot(g.x - task.goal_pose.x, g.y - task.goal_pose.y) <= 1e-12

    def test_ffr_flag_matches_reference_view(self, sampled_tasks):
        scene, tasks = sampled_tasks
        assert any(t.ffr for t in tasks) or any(not t.ffr for t in tasks)
        for task in tasks:
            assert task.ffr == (task.reference_view == task.start)
            target = scene.object_by_id(task.target_id)
            assert task.initially_visible == visible_from(task.start, target, scene)

    def test_determinism(self):
        scene = sample_scene(42)
        t1, t2 = sample_task(scene, 9), sample_task(scene, 9)
        assert t1 == t2

    def test_no_targets_exhausts(self):
        scene = Scene(
            Bounds(8, 8),
            _room_walls(Bounds(8, 8), 0.1),
            [SceneObject(0, OrientedBox(2, 0, 0.3, 0.3, 0), target_eligible=False)],
            seed=1,
        )
        with pytest.raises(SamplingExhausted):
            sample_task(scene, 1)


class TestGenerateEpisode:
    def test_short_task_keyframe_count(self):
        # straight 1.2 m approach: >= 6 translation keyframes plus rotations
        scene = single_box_scene()
        start = Pose2(-1.0, 1.0, 0.0)
        task = sample_task(scene, 2)
        record = generate_episode(scene, task, seed=2)
        assert len(record.keyframes) >= 2
        final = record.keyframes[-1].pose
        assert math.hypot(final.x - task.goal_pose.x, final.y - task.goal_pose.y) <= 1e-9

    def test_keyframe_gap_rule(self, one_episode):
        _, _, record = one_episode
        assert audit_keyframe_gaps(record)

    def test_decoded_steps_make_progress_and_stay_free(self, one_episode):
        scene, task, record = one_episode
        for kf in record.keyframes:
            world = decode_trajectory(kf.expert_steps, kf.pose, use_residual=True)
            d_before = math.hypot(kf.pose.x - task.goal_pose.x, kf.pose.y - task.goal_pose.y)
            d_after = math.hypot(world[-1].x - task.goal_pose.x, world[-1].y - task.goal_pose.y)
            if d_before > 0.02:
                assert d_after < d_before
            prev = kf.pose
            for p in world:
                assert not sweep_collision_check(scene, prev, p, task.robot_radius, 0.02)
                prev = p

    def test_tilt_targets_finite(self, one_episode):
        _, _, record = one_episode
        for kf in record.keyframes:
            assert math.isfinite(kf.expert_tilt_target)
            assert math.isfinite(kf.tilt)

    def test_lidar_attached_to_every_keyframe(self, one_episode):
        _, _, record = one_episode
        for kf in record.keyframes:
            assert kf.lidar.ranges.shape == (360,)
            assert (kf.lidar.ranges > 0).all()
            assert len(kf.expert_steps) == 12


class TestRelabel:
    def test_at_start_matches_first_keyframe(self):
        scene = sample_scene(43)
        task = sample_task(scene, 4)
        record = generate_episode(scene, task, seed=11)
        state = RobotState(task.start, task.robot_radius)
        steps = relabel_from_state(scene, task, state, seed=11)
        assert steps == record.keyframes[0].expert_steps

    def test_at_goal_gives_zero_steps(self):
        scene = single_box_scene()
        task = sample_task(scene, 2)
        state = RobotState(task.goal_pose, task.robot_radius)
        steps = relabel_from_state(scene, task, state, seed=0)
        world = decode_trajectory(steps, task.goal_pose, use_residual=True)
        for p in world:
            assert math.hypot(p.x - task.goal_pose.x, p.y - task.goal_pose.y) <= 1e-9
            assert abs(p.heading - task.goal_pose.heading) <= 1e-9

    def test_perturbed_state_recovers_collision_free(self):
        scene = sample_scene(44)
        task = sample_task(scene, 6)
        rng = np.random.default_rng(0)
        found = 0
        while found < 5:
            dx, dy = rng.uniform(-0.3, 0.3, size=2)
            pose = Pose2(task.start.x + dx, task.start.y + dy, task.start.heading + rng.uniform(-0.5, 0.5))
            if collision_check(scene, pose, task.robot_radius):
                continue
            state = RobotState(pose, task.robot_radius)
            try:
                steps = relabel_from_state(scene, task, state, seed=1)
            except NoPathFound:
                continue
            world = decode_trajectory(steps, pose, use_residual=True)
            prev = pose
            for p in world:
                assert not sweep_collision_check(scene, prev, p, task.robot_radius, 0.02)
                prev = p
            found += 1


class TestDatasetIO:
    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_dataset([], str(path), master_seed=5, scene_count=0, config_hash="abc")
        assert read_dataset(str(path)) == []
        manifest = json.loads((tmp_path / "empty.jsonl.manifest.json").read_text())
        assert manifest["record_count"] == 0
        assert manifest["master_seed"] == 5
        assert manifest["config_hash"] == "abc"

    def test_roundtrip_field_exact(self, one_episode, tmp_path):
        _, _, record = one_episode
        path = tmp_path / "data.jsonl"
        write_dataset([record] * 3, str(path))
        back = read_dataset(str(path), strict=True)
        assert len(back) == 3
        for r in back:
            assert r.task == record.task
            assert r.planner_cost == record.planner_cost
            assert len(r.keyframes) == len(record.keyframes)
            for a, b in zip(r.keyframes, record.keyframes):
                assert a.pose == b.pose
                assert a.expert_steps == b.expert_steps
                assert a.tilt == b.tilt
                np.testing.assert_array_equal(a.lidar.ranges, b.lidar.ranges)

    def test_corrupt_field_names_record_index(self, one_episode, tmp_path):
        _, _, record = one_episode
        d = record_to_dict(record)
        d["keyframes"][0]["poze"] = d["keyframes"][0].pop("pose")
        path = tmp_path / "bad.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(record_to_dict(record)) + "\n")
            fh.write(json.dumps(d) + "\n")
        with pytest.raises(SchemaMismatch, match="record 1"):
            read_dataset(str(path))

    def test_version_mismatch(self, one_episode):
        _, _, record = one_episode
        d = record_to_dict(record)
        d["version"] = "0"
        with pytest.raises(SchemaMismatch):
            record_from_dict(d, index=0)

    def test_task_dict_roundtrip(self, sampled_tasks):
        _, tasks = sampled_tasks
        for task in tasks:
            assert task_from_dict(json.loads(json.dumps(task_to_dict(task)))) == task

    def test_float_precision_roundtrip(self, one_episode):
        _, _, record = one_episode
        back = record_from_dict(json.loads(json.dumps(record_to_dict(record))))
        kf0, kb0 = record.keyframes[0], back.keyframes[0]
        assert kb0.pose.x == kf0.pose.x  # repr roundtrip is exact
        assert kb0.expert_steps[0].psi_res == kf0.expert_steps[0].psi_res


class TestSceneIO:
    def test_scene_roundtrip(self, tmp_path):
        scene = sample_scene(45)
        path = tmp_path / "scene.json"
        save_scene(scene, str(path))
        back = load_scene(str(path))
        assert back.seed == scene.seed
        assert back.bounds == scene.bounds
        assert back.walls == scene.walls
        assert back.objects == scene.objects

    def test_scene_version_check(self):
        with pytest.raises(SchemaMismatch):
            scene_from_dict({"version": "9", "seed": 0})

    @pytest.mark.parametrize("where, key, value", [("walls", "cx", math.nan), ("objects", "hx", math.inf)])
    def test_non_finite_number_rejected(self, where, key, value):
        # a NaN wall center once passed every collision check of the scene
        d = json.loads(json.dumps(scene_to_dict(sample_scene(45))))
        d[where][0][key] = value
        with pytest.raises(SchemaMismatch, match="non-finite"):
            scene_from_dict(json.loads(json.dumps(d)))

    def test_scene_dict_is_json_clean(self):
        blob = json.dumps(scene_to_dict(sample_scene(46)))
        assert "NaN" not in blob
