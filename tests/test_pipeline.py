import base64
import json
import math
import multiprocessing

import numpy as np
import pytest

from amr_navkit.codec import decode_trajectory
from amr_navkit.errors import NoPathFound, SamplingExhausted, SchemaMismatch
from amr_navkit.geometry import Pose2
from amr_navkit.pipeline import (
    EpisodeRecord,
    Expert,
    TaskParams,
    audit_keyframe_gaps,
    generate_episode,
    load_scene,
    parallel_map,
    read_dataset,
    record_from_dict,
    record_to_dict,
    sample_task,
    save_scene,
    scene_from_dict,
    scene_to_dict,
    write_dataset,
)
from amr_navkit.planner import Attempt
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


class RecordingPool:
    """Stands in for ``multiprocessing.Pool``: records the process count and
    maps inline, so no process is started."""

    started: list[int] = []

    def __init__(self, processes):
        RecordingPool.started.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return [fn(job) for job in jobs]


@pytest.mark.parametrize(
    "workers, jobs, processes",
    [(64, 8, [8]), (2, 8, [2]), (8, 2, [2]), (64, 1, []), (4, 0, []), (1, 8, [])],
)
def test_parallel_map_starts_at_most_one_process_per_job(monkeypatch, workers, jobs, processes):
    # --workers 64 with 8 jobs once started 64 processes
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "started", [])
    assert parallel_map(abs, list(range(-jobs, 0)), workers) == list(range(jobs, 0, -1))
    assert RecordingPool.started == processes


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
                assert not sweep_collision_check(scene, prev, p, task.robot_radius)
                prev = p

    def test_tilt_targets_finite(self, one_episode):
        _, _, record = one_episode
        for kf in record.keyframes:
            assert math.isfinite(kf.tilt)

    def test_lidar_attached_to_every_keyframe(self, one_episode):
        _, _, record = one_episode
        for kf in record.keyframes:
            assert kf.lidar.ranges.shape == (360,)
            assert (kf.lidar.ranges > 0).all()
            assert len(kf.expert_steps) == 12


def relabel(scene, task, state, seed):
    """The oracle's query: the expert replans from ``state`` and labels its pose."""
    expert = Expert()
    target = scene.object_by_id(task.target_id)
    path = expert.plan(scene, state.pose, task.goal_pose, state.radius, target.box.center, Attempt(expert.budget, seed))
    return expert.label(path, state.pose)


class TestRelabel:
    def test_at_start_matches_first_keyframe(self):
        scene = sample_scene(43)
        task = sample_task(scene, 4)
        record = generate_episode(scene, task, seed=11)
        state = RobotState(task.start, task.robot_radius)
        steps = relabel(scene, task, state, seed=11)
        assert steps == record.keyframes[0].expert_steps

    def test_at_goal_gives_zero_steps(self):
        scene = single_box_scene()
        task = sample_task(scene, 2)
        state = RobotState(task.goal_pose, task.robot_radius)
        steps = relabel(scene, task, state, seed=0)
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
                steps = relabel(scene, task, state, seed=1)
            except NoPathFound:
                continue
            world = decode_trajectory(steps, pose, use_residual=True)
            prev = pose
            for p in world:
                assert not sweep_collision_check(scene, prev, p, task.robot_radius)
                prev = p
            found += 1


def _with_field(d: dict, field: str, value) -> dict:
    """``d`` with the value at a dotted path such as ``keyframes.0.tilt`` replaced."""
    *path, last = [int(k) if k.isdigit() else k for k in field.split(".")]
    parent = d
    for key in path:
        parent = parent[key]
    parent[last] = value
    return d


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
        d["keyframes"]["poze"] = d["keyframes"].pop("poses")
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "task.start.0",
            "task.goal_pose.2",
            "task.reference_view.1",
            "task.robot_radius",
            "planner_cost",
        ],
    )
    def test_non_finite_number_rejected(self, one_episode, tmp_path, field, value):
        _, _, record = one_episode
        d = _with_field(record_to_dict(record), field, value)
        with pytest.raises(SchemaMismatch, match="record 0"):
            record_from_dict(json.loads(json.dumps(d)), index=0)
        data = tmp_path / "nan.jsonl"
        data.write_text(json.dumps(d) + "\n")
        with pytest.raises(SchemaMismatch):
            read_dataset(str(data))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "column, keyframe, offset",
        [
            ("poses", 0, 1),  # keyframe 0's y
            ("tilts", 0, 0),
            ("tilts", -1, 0),  # the last keyframe's
            ("residuals", 0, 0),  # step 0's psi_res
            ("residuals", 0, 1),  # its r_res
            ("residuals", 0, 2),  # its phi_res
        ],
    )
    def test_non_finite_column_value_rejected(self, one_episode, tmp_path, column, keyframe, offset, value):
        _, _, record = one_episode
        d = record_to_dict(record)
        keyframe %= len(record.keyframes)
        values = np.frombuffer(base64.b64decode(d["keyframes"][column]), "<f8").reshape(len(record.keyframes), -1)
        values = values.copy()
        values[keyframe, offset] = value
        d["keyframes"][column] = base64.b64encode(values).decode()
        where = f"record 0: keyframes\\.{column}: keyframe {keyframe}: value {value} is not finite"
        with pytest.raises(SchemaMismatch, match=where):
            record_from_dict(json.loads(json.dumps(d)), index=0)
        data = tmp_path / "nan.jsonl"
        data.write_text(json.dumps(d) + "\n")
        with pytest.raises(SchemaMismatch, match=where):
            read_dataset(str(data))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("task.ffr", "false"),
            ("task.initially_visible", 0),
            ("task.target_id", 2.7),
            ("task.scene_seed", "3"),
            ("task.side_labels.front", True),
            ("task.goal_spec.side", 1),
            ("task.robot_radius", "0.3"),
            ("keyframes.bins", [1.5]),  # a column must be its packed bytes
            ("keyframes.horizon", 1.5),
            ("keyframes.num_rays", None),
            ("generator_version", 1),
        ],
    )
    def test_mistyped_field_rejected(self, one_episode, field, value):
        # "false" once loaded as ffr=True, and 2.7 as target 2
        _, _, record = one_episode
        d = _with_field(record_to_dict(record), field, value)
        with pytest.raises(SchemaMismatch, match="must be"):
            record_from_dict(json.loads(json.dumps(d)), index=0)

    def test_task_dict_roundtrip(self, sampled_tasks):
        _, tasks = sampled_tasks
        for task in tasks:
            d = record_to_dict(EpisodeRecord(task=task, keyframes=[], planner_cost=0.0))
            assert record_from_dict(json.loads(json.dumps(d))).task == task

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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("target_eligible", "false"),
            ("target_eligible", 0),
            ("target_eligible", None),
            ("id", 20.7),
            ("id", "20"),
            ("id", True),
            ("seed", 3.9),
            ("seed", "3"),
            ("seed", False),
            ("cx", "1.5"),
            ("base_height", True),
        ],
    )
    def test_mistyped_field_rejected(self, key, value):
        # "false" once loaded as a target-eligible object, and 20.7 as id 20
        d = json.loads(json.dumps(scene_to_dict(sample_scene(45))))
        (d if key == "seed" else d["objects"][0])[key] = value
        with pytest.raises(SchemaMismatch, match=f"{key} must be"):
            scene_from_dict(d)

    def test_integral_float_id_and_seed_accepted(self):
        d = json.loads(json.dumps(scene_to_dict(sample_scene(45))))
        d["seed"] = 45.0
        d["objects"][0]["id"] = float(d["objects"][0]["id"])
        scene = scene_from_dict(d)
        assert scene == scene_from_dict(scene_to_dict(sample_scene(45)))
        assert type(scene.seed) is int and type(scene.objects[0].id) is int
        assert type(scene.seed) is int and type(scene.objects[0].id) is int

    def test_scene_dict_is_json_clean(self):
        blob = json.dumps(scene_to_dict(sample_scene(46)))
        assert "NaN" not in blob
