import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amr_navkit.errors import GenerationFailed, InvalidCommand
from amr_navkit.geometry import OrientedBox, Pose2, rot2, se2_compose
from amr_navkit.pipeline import scene_to_dict
from amr_navkit.scene import (
    Bounds,
    DiffDrive,
    OmniDrive,
    RobotState,
    Scene,
    SceneGenParams,
    SceneObject,
    SpeedLimits,
    _boxes_overlap,
    _countable_free_area,
    _largest_free_area,
    _Placed,
    _room_walls,
    collision_check,
    obstacle_distances,
    raycast_lidar,
    sample_scene,
    step_kinematics,
    sweep_collision_check,
    visible_from,
)
from test_kernel_equivalence import reference_segment_blocked


def empty_room(w=10.0, h=10.0) -> Scene:
    return Scene(Bounds(w, h), _room_walls(Bounds(w, h), 0.1), [], seed=0)


def room_with(boxes, w=10.0, h=10.0, eligible=True) -> Scene:
    objects = [
        SceneObject(id=i, box=b, target_eligible=eligible) for i, b in enumerate(boxes)
    ]
    return Scene(Bounds(w, h), _room_walls(Bounds(w, h), 0.1), objects, seed=0)


def disc_box_collides_oracle(scene: Scene, pose: Pose2, radius: float, samples=200) -> bool:
    """Independent disc-vs-scene verdict: dense perimeter sampling plus
    containment probes (disc center inside a box, box corner inside disc)."""
    ang = np.linspace(0, 2 * math.pi, samples, endpoint=False)
    pts = np.stack([pose.x + radius * np.cos(ang), pose.y + radius * np.sin(ang)], axis=1)
    b = scene.bounds
    if ((pts[:, 0] < b.xmin) | (pts[:, 0] > b.xmax) | (pts[:, 1] < b.ymin) | (pts[:, 1] > b.ymax)).any():
        return True
    boxes = scene.walls + [o.box for o in scene.objects]
    center = np.array([[pose.x, pose.y]])
    for box in boxes:
        if box.contains(pts).any() or box.contains(center)[0]:
            return True
        if (np.linalg.norm(box.corners() - center, axis=1) < radius).any():
            return True
    return False


class TestCollision:
    def test_empty_room_center_free(self):
        assert collision_check(empty_room(), Pose2(0, 0, 0), 0.3) is False

    def test_tangency_is_free(self):
        scene = room_with([OrientedBox(2.0, 0.0, 0.5, 0.5, 0.0)])
        # disc center at x=1.2: face at x=1.5, distance exactly 0.3
        assert collision_check(scene, Pose2(1.2, 0, 0), 0.3) is False
        assert collision_check(scene, Pose2(1.2 + 1e-6, 0, 0), 0.3) is True

    def test_exit_bounds_collides(self):
        # wall-free scene isolates the room-bounds convention; binary-exact
        # positions make the tangency boundary observable
        scene = Scene(Bounds(10, 10), [], [], seed=0)
        assert collision_check(scene, Pose2(4.8125, 0, 0), 0.25) is True
        assert collision_check(scene, Pose2(4.75, 0, 0), 0.25) is False

    def test_agrees_with_perimeter_oracle(self):
        scene = sample_scene(12)
        rng = np.random.default_rng(0)
        b = scene.bounds
        for _ in range(500):
            pose = Pose2(rng.uniform(b.xmin, b.xmax), rng.uniform(b.ymin, b.ymax), 0.0)
            radius = float(rng.uniform(0.1, 0.5))
            assert collision_check(scene, pose, radius) == disc_box_collides_oracle(
                scene, pose, radius
            )


class TestSweep:
    def test_degenerate_sweep_equals_point_check(self):
        scene = room_with([OrientedBox(1.0, 0.0, 0.4, 0.4, 0.2)])
        for pose in (Pose2(0, 0, 0), Pose2(1.0, 0, 0)):
            assert sweep_collision_check(scene, pose, pose, 0.3) == collision_check(
                scene, pose, 0.3
            )

    def test_straight_through_wall(self):
        scene = room_with([OrientedBox(0.0, 0.0, 0.1, 2.0, 0.0)])
        assert sweep_collision_check(scene, Pose2(-1, 0, 0), Pose2(1, 0, 0), 0.3) is True

    def test_grazing_is_decided_at_contact(self):
        # sweeps 0.3125 m from the box, along its top face or past its corner
        # (nearest at (0.6875, 0.5), a 3-4-5 step from it): a disc a hair
        # wider collides, however short the close stretch, and one a hair
        # narrower does not; one exactly as wide only touches, which is free
        scene = room_with([OrientedBox(0.0, 0.0, 0.5, 0.25, 0.0)])
        face = (Pose2(-2.0, 0.5625, 0), Pose2(2.0, 0.5625, 0))
        corner = (Pose2(1.0875, 0.2, 0), Pose2(0.2875, 0.8, 0))
        assert not sweep_collision_check(scene, *face, 0.3125)
        for a, c in (face, corner):
            assert not sweep_collision_check(scene, a, c, 0.3125 - 1e-12)
            assert sweep_collision_check(scene, a, c, 0.3125 + 1e-12)


class TestRaycast:
    def test_empty_room_wall_distances(self):
        scan = raycast_lidar(empty_room(), Pose2(0, 0, 0), num_rays=360, max_range=10.0)
        assert scan.ranges[0] == pytest.approx(5.0, abs=1e-12)
        assert scan.ranges[90] == pytest.approx(5.0, abs=1e-12)
        assert scan.ranges[45] == pytest.approx(5 * math.sqrt(2), abs=1e-9)

    def test_object_behind_wall_occluded(self):
        wall = OrientedBox(2.0, 0.0, 0.05, 3.0, 0.0)
        hidden = OrientedBox(3.5, 0.0, 0.3, 0.3, 0.0)
        with_obj = room_with([wall, hidden])
        without = room_with([wall])
        a = raycast_lidar(with_obj, Pose2(0, 0, 0))
        b = raycast_lidar(without, Pose2(0, 0, 0))
        np.testing.assert_allclose(a.ranges, b.ranges, atol=1e-12)

    def test_agrees_with_marching_oracle(self):
        scene = sample_scene(14)
        pose = Pose2(0.0, 0.0, 0.3)
        if collision_check(scene, pose, 0.2):
            pose = Pose2(1.0, 1.0, 0.3)
        scan = raycast_lidar(scene, pose, num_rays=90, max_range=10.0)
        boxes = scene.walls + [o.box for o in scene.objects]
        step = 0.001
        for k in range(90):
            ang = pose.heading + 2 * math.pi * k / 90
            t = np.arange(1, int(10.0 / step) + 1) * step
            pts = np.stack([pose.x + t * math.cos(ang), pose.y + t * math.sin(ang)], axis=1)
            inside = np.zeros(len(pts), dtype=bool)
            for box in boxes:
                inside |= box.contains(pts)
            hit = np.flatnonzero(inside)
            dist = t[hit[0]] if hit.size else 10.0
            assert abs(scan.ranges[k] - dist) <= 0.002

    def test_rigid_transform_invariance(self):
        scene = sample_scene(15)
        pose = Pose2(0.5, -0.5, 0.2)
        t = Pose2(3.0, -2.0, 0.8)
        R = rot2(t.heading)

        def move_box(b: OrientedBox) -> OrientedBox:
            c = R @ np.array([b.cx, b.cy]) + np.array([t.x, t.y])
            return OrientedBox(c[0], c[1], b.hx, b.hy, b.yaw + t.heading)

        # drop the room bounds from the comparison by using far bounds
        s1 = Scene(Bounds(100, 100), [move_box(b) for b in scene.walls],
                   [SceneObject(o.id, move_box(o.box)) for o in scene.objects], seed=1)
        s0 = Scene(Bounds(100, 100), list(scene.walls),
                   [SceneObject(o.id, o.box) for o in scene.objects], seed=1)
        a = raycast_lidar(s0, pose, num_rays=180, max_range=30.0)
        b = raycast_lidar(s1, se2_compose(t, pose), num_rays=180, max_range=30.0)
        np.testing.assert_allclose(a.ranges, b.ranges, atol=1e-9)

    def test_min_range_exceeds_radius_at_free_poses(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            scene = sample_scene(100 + seed)
            b = scene.bounds
            found = 0
            while found < 10:
                pose = Pose2(rng.uniform(b.xmin, b.xmax), rng.uniform(b.ymin, b.ymax), rng.uniform(-3, 3))
                radius = float(rng.uniform(0.1, 0.5))
                if collision_check(scene, pose, radius):
                    continue
                scan = raycast_lidar(scene, pose)
                assert scan.ranges.min() >= radius
                found += 1

    @pytest.mark.parametrize(
        "field, value",
        [pytest.param(f, v, id=f"{v}-{f}") for f in ("x", "y", "heading") for v in (math.nan, math.inf, -math.inf)],
    )
    def test_non_finite_pose_refused(self, field, value):
        # a raycast never sees a non-finite pose: Pose2 refuses one, naming the field
        args = {"x": 0.0, "y": 0.0, "heading": 0.0, field: value}
        with pytest.raises(ValueError, match=rf"^Pose2 {field} must be finite, got {value}$"):
            raycast_lidar(empty_room(), Pose2(**args))


class TestKinematics:
    def test_differential_straight(self):
        s = RobotState(Pose2(0, 0, 0), 0.3)
        out = step_kinematics(s, DiffDrive(1.0, 0.0), 0.2)
        assert out.pose.x == pytest.approx(0.2, abs=1e-15)
        assert out.pose.y == 0.0

    def test_differential_spin(self):
        s = RobotState(Pose2(1, 2, 0), 0.3)
        out = step_kinematics(s, DiffDrive(0.0, math.pi), 1.0)
        assert (out.pose.x, out.pose.y) == (1, 2)
        assert abs(abs(out.pose.heading) - math.pi) < 1e-12

    def test_differential_arc_against_integration_oracle(self):
        s = RobotState(Pose2(0, 0, 0.3), 0.3)
        v, omega, dt = 1.0, 0.53, 0.7
        out = step_kinematics(s, DiffDrive(v, omega), dt)
        # fine-step Euler integration oracle
        n = 70000
        x, y, h = 0.0, 0.0, 0.3
        for _ in range(n):
            x += v * (dt / n) * math.cos(h)
            y += v * (dt / n) * math.sin(h)
            h += omega * (dt / n)
        assert out.pose.x == pytest.approx(x, abs=1e-5)
        assert out.pose.y == pytest.approx(y, abs=1e-5)
        assert out.pose.heading == pytest.approx(h, abs=1e-9)

    @pytest.mark.parametrize(
        "state,cmd",
        [
            (RobotState(Pose2(0.3, -1, 0.9), 0.2), DiffDrive(0.7, 1.3)),
            (RobotState(Pose2(0.3, -1, 0.9), 0.2, kinematics="omnidirectional"), OmniDrive(0.4, -0.2, 0.8)),
        ],
    )
    def test_composition_exactness(self, state, cmd):
        dt = 0.37
        once = step_kinematics(step_kinematics(state, cmd, dt), cmd, dt)
        twice = step_kinematics(state, cmd, 2 * dt)
        assert once.pose.x == pytest.approx(twice.pose.x, abs=1e-12)
        assert once.pose.y == pytest.approx(twice.pose.y, abs=1e-12)
        assert abs(once.pose.heading - twice.pose.heading) < 1e-12

    def test_command_kind_mismatch(self):
        s = RobotState(Pose2(0, 0, 0), 0.3)
        with pytest.raises(InvalidCommand):
            step_kinematics(s, OmniDrive(0.1, 0, 0), 0.1)

    def test_speed_limits(self):
        s = RobotState(Pose2(0, 0, 0), 0.3)
        with pytest.raises(InvalidCommand):
            step_kinematics(s, DiffDrive(2.0, 0.0), 0.1, SpeedLimits(v_max=1.5))
        step_kinematics(s, DiffDrive(1.5, 0.0), 0.1, SpeedLimits(v_max=1.5))


class TestVisibility:
    def test_target_ahead(self):
        scene = room_with([OrientedBox(3.0, 0.0, 0.5, 0.5, 0.0)])
        assert visible_from(Pose2(0, 0, 0), scene.objects[0], scene) is True

    def test_target_behind_camera(self):
        scene = room_with([OrientedBox(3.0, 0.0, 0.5, 0.5, 0.0)])
        assert visible_from(Pose2(0, 0, math.pi), scene.objects[0], scene) is False

    def test_occlusion_fraction_threshold(self):
        # wall occludes the lower half of the target footprint
        target = OrientedBox(4.0, 0.0, 0.2, 1.0, 0.0)
        wall = OrientedBox(2.0, -0.75, 0.05, 0.75, 0.0)
        scene = room_with([target, wall], w=12, h=12)
        cam = Pose2(0, 0, 0)
        # count unoccluded in-FOV samples explicitly
        fr = np.linspace(-1, 1, 7)[1:-1]
        gx, gy = np.meshgrid(fr * target.hx, fr * target.hy)
        pts = np.stack([gx.ravel() + 4.0, gy.ravel()], axis=1)
        seen = sum(
            1
            for p in pts
            if abs(math.atan2(p[1], p[0])) <= math.pi / 4
            and not reference_segment_blocked(scene, np.array([0.0, 0.0]), p, target)
        )
        frac = seen / len(pts)
        assert visible_from(cam, scene.objects[0], scene, fraction=frac - 0.05) is True
        assert visible_from(cam, scene.objects[0], scene, fraction=frac + 0.05) is False


class TestSceneGeneration:
    def test_walls_only(self):
        params = SceneGenParams(objects_min=0, objects_max=0)
        scene = sample_scene(1, params)
        assert scene.objects == []
        assert len(scene.walls) == 4
        assert collision_check(scene, Pose2(0, 0, 0), 0.3) is False

    def test_determinism(self):
        a = json.dumps(scene_to_dict(sample_scene(1)), sort_keys=True)
        b = json.dumps(scene_to_dict(sample_scene(1)), sort_keys=True)
        assert a == b

    def test_no_pairwise_overlaps_seed_sweep(self):
        margin = SceneGenParams().min_clearance / 2
        for seed in range(1, 101):
            scene = sample_scene(seed)
            boxes = [_Placed(o.box, margin) for o in scene.objects]
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    assert not _boxes_overlap(boxes[i], boxes[j]), f"seed {seed}: {i} vs {j}"

    def test_objects_inside_bounds(self):
        for seed in (5, 6, 7):
            scene = sample_scene(seed)
            b = scene.bounds
            for o in scene.objects:
                for cx, cy in o.box.corners():
                    assert b.xmin <= cx <= b.xmax and b.ymin <= cy <= b.ymax

    def test_generation_failure(self):
        # the largest admitted value, which the grid can never count
        defaults = SceneGenParams()
        largest = _countable_free_area(defaults.room_max, defaults.free_probe_radius)
        params = SceneGenParams(min_free_area=largest, max_attempts=5)
        with pytest.raises(GenerationFailed):
            sample_scene(1, params)
        with pytest.raises(ValueError, match="min_free_area must not exceed"):
            SceneGenParams(min_free_area=math.nextafter(largest, math.inf))

    @settings(max_examples=400, deadline=None)
    @given(
        room_max=st.floats(0.05, 14.0),
        w_share=st.floats(0.01, 1.0),
        h_share=st.floats(0.01, 1.0),
        probe=st.one_of(st.floats(0.0, 3.0), st.integers(0, 60)),
    )
    def test_free_area_bound_holds_on_the_grid(self, room_max, w_share, h_share, probe):
        # an empty room frees the most cells; min_free_area above the bound is
        # refused, so a value the grid can count must never be above it. An
        # integer draws the tightest radius, a column's centre-to-wall distance,
        # at which that column is free (touching a wall is not a collision).
        bounds = Bounds(room_max * w_share, room_max * h_share)
        nx = max(1, int(bounds.w / 0.25))
        probe_radius = probe if type(probe) is float else (probe % nx + 0.5) * (bounds.w / nx)
        scene = Scene(bounds, _room_walls(bounds, 0.1), [], 0)
        assert _largest_free_area(scene, probe_radius) <= _countable_free_area(room_max, probe_radius)

    def test_free_area_bound_is_reached_within_a_cell(self):
        # the free cells of an empty largest room span more than side - 2 * 0.5 m each way
        for room_max, probe_radius in ((12.0, 0.5), (4.0, 0.5), (6.0, 0.0), (3.3, 1.0)):
            scene = Scene(Bounds(room_max, room_max), _room_walls(Bounds(room_max, room_max), 0.1), [], 0)
            side = math.sqrt(_countable_free_area(room_max, probe_radius))
            assert _largest_free_area(scene, probe_radius) > (side - 1.0) ** 2

    def test_smallest_box_must_fit_the_largest_room(self):
        # sample_scene keeps a box's bounding circle in the room: sides up to room_max / sqrt(2)
        fits = 1.5 / math.sqrt(2) * (1 - 1e-9)
        params = SceneGenParams(
            room_min=1.5, room_max=1.5, objects_min=1, objects_max=1, size_min=fits, size_max=fits, min_free_area=0
        )
        assert len(sample_scene(0, params).objects) == 1
        too_big = 1.5 / math.sqrt(2) * (1 + 1e-9)
        with pytest.raises(ValueError, match="size_min must let a box fit a room_max room"):
            SceneGenParams(room_min=1.5, room_max=1.5, size_min=too_big, size_max=too_big, min_free_area=0)
        # with no box required, a room no box fits is still a scene
        SceneGenParams(room_min=1.5, room_max=1.5, objects_min=0, size_min=too_big, size_max=too_big, min_free_area=0)

    def test_unique_ids_enforced(self):
        box = OrientedBox(1, 1, 0.2, 0.2, 0)
        with pytest.raises(ValueError):
            Scene(Bounds(10, 10), [], [SceneObject(0, box), SceneObject(0, box)], 0)


class TestGoalClearance:
    def test_derived_goals_with_positive_d_are_free(self):
        # a lone box: every approach ray region is empty, so any d > 0 goal
        # must be collision-free for the deriving radius
        from amr_navkit.geometry import GoalSpec, SideLabels, derive_goal_pose

        box = OrientedBox(1.0, -0.5, 0.6, 0.4, 0.7)
        scene = room_with([box], w=14, h=14)
        rng = np.random.default_rng(9)
        for _ in range(300):
            labels = SideLabels.from_front(int(rng.integers(4)))
            theta = [0.0, math.pi / 12, -math.pi / 12, math.pi / 6, -math.pi / 6][int(rng.integers(5))]
            radius = float(rng.uniform(0.1, 0.5))
            # the swung ray keeps d+R to the side midpoint, so the
            # perpendicular face clearance is (d+R)cos(theta) - R; require
            # the d that keeps it positive (always true for d in [0.1, 0.5])
            d_min = radius * (1 / math.cos(theta) - 1)
            spec = GoalSpec(
                ("front", "back", "left", "right")[int(rng.integers(4))],
                float(rng.uniform(d_min + 1e-6, 1.0)),
                theta,
            )
            goal = derive_goal_pose(box, labels, spec, radius)
            assert collision_check(scene, goal, radius) is False
        # the generation range d in [0.1, 0.5] clears the worst case
        assert 0.1 >= 0.5 * (1 / math.cos(math.pi / 6) - 1)


class TestObstacleDistances:
    def test_matches_manual_distance(self):
        scene = room_with([OrientedBox(2.0, 0.0, 0.5, 0.5, 0.0)])
        d = obstacle_distances(scene, np.array([[0.0, 0.0]]))[0]
        # nearest of: box face at 1.5, walls at 5 - 0 = 5
        assert d == pytest.approx(1.5, abs=1e-12)

    def test_inside_box_is_zero(self):
        scene = room_with([OrientedBox(2.0, 0.0, 0.5, 0.5, 0.0)])
        assert obstacle_distances(scene, np.array([[2.0, 0.0]]))[0] == 0.0
