import math

import numpy as np
import pytest
from scipy import integrate

from amr_navkit.errors import InvalidEndpoint, NoPathFound, OffPath
from amr_navkit.geometry import OrientedBox, Pose2, se2_compose, wrap_angle
from amr_navkit.planner import (
    CostWeights,
    PlannedPath,
    PlannerBudget,
    Rotate,
    Translate,
    apply_segment,
    path_cost,
    plan,
    resample_keyframes,
    rollout,
    rs0_distance,
    segments_cost,
    steer,
    waypoints_from_path,
)
from amr_navkit.scene import Bounds, Scene, SceneObject, _room_walls, collision_mask


def empty_room(w=10.0, h=10.0) -> Scene:
    return Scene(Bounds(w, h), _room_walls(Bounds(w, h), 0.1), [], seed=0)


def apply_all(start: Pose2, segments) -> Pose2:
    pose = start
    for seg in segments:
        pose = apply_segment(pose, seg)
    return pose


def straight_path(length=1.0, heading=0.0) -> PlannedPath:
    start = Pose2(0, 0, heading)
    segs = [Translate(length)]
    return PlannedPath(start, segs, rollout(start, segs), length)


class TestRS0Distance:
    W = CostWeights()

    def test_identity(self):
        a = Pose2(1, 2, 0.5)
        assert rs0_distance(a, a, self.W) == 0.0

    def test_pure_forward(self):
        assert rs0_distance(Pose2(0, 0, 0), Pose2(1, 0, 0), self.W) == pytest.approx(1.0)

    def test_reverse_branch_enumeration(self):
        # forward: two half-turns; backward: surcharge on one meter
        a, b = Pose2(0, 0, 0), Pose2(-1, 0, 0)
        fwd = 1.0 + 0.3 * 2 * math.pi
        back = 1.0 + 2.0 * 1.0
        assert rs0_distance(a, b, self.W) == pytest.approx(min(fwd, back))
        assert rs0_distance(a, b, self.W) == pytest.approx(2.884955592, abs=1e-6)

    def test_symmetry_without_backward_surcharge(self):
        w = CostWeights(w_backward=0.0)
        rng = np.random.default_rng(0)
        for _ in range(300):
            a = Pose2(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
            b = Pose2(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
            assert rs0_distance(a, b, w) == pytest.approx(rs0_distance(b, a, w), abs=1e-12)

    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = Pose2(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
            b = Pose2(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
            d = rs0_distance(a, b, self.W)
            assert d >= 0
            if d == 0:
                assert (a.x, a.y) == (b.x, b.y) and abs(wrap_angle(a.heading - b.heading)) < 1e-12

    def test_metric_lower_bound_on_two_leg_paths(self):
        w = CostWeights(w_lookat=0.0)
        rng = np.random.default_rng(2)
        for _ in range(1000):
            a = Pose2(rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-math.pi, math.pi))
            b = Pose2(rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-math.pi, math.pi))
            mid = Pose2(rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-math.pi, math.pi))
            two_leg = segments_cost(a, steer(a, mid, w=w), (0, 0), w) + segments_cost(
                mid, steer(mid, b, w=w), (0, 0), w
            )
            assert rs0_distance(a, b, w) <= two_leg + 1e-9


    def test_triangle_inequality_fails(self):
        """rs0 is not a metric: a sideways shift costs two quarter turns
        directly, but little via a pose just ahead. So the A* heuristic can
        overestimate the cost left on a roadmap path."""
        a, b, c = Pose2(0, 0, 0), Pose2(0.1, 0.005, 0.05), Pose2(0, 0.01, 0)
        assert rs0_distance(a, c, self.W) == pytest.approx(0.952, abs=1e-3)
        assert rs0_distance(a, b, self.W) + rs0_distance(b, c, self.W) == pytest.approx(0.460, abs=1e-3)


class TestSteer:
    def test_same_pose_empty(self):
        a = Pose2(1, 1, 0.3)
        assert steer(a, a) == []

    def test_pure_rotation(self):
        segs = steer(Pose2(0, 0, 0), Pose2(0, 0, math.pi / 2))
        assert segs == [Rotate(math.pi / 2)]

    def test_diagonal_decomposition(self):
        segs = steer(Pose2(0, 0, 0), Pose2(1, 1, 0))
        assert len(segs) == 3
        assert segs[0] == Rotate(pytest.approx(math.pi / 4))
        assert segs[1] == Translate(pytest.approx(math.sqrt(2)))
        assert segs[2] == Rotate(pytest.approx(-math.pi / 4))

    def test_composition_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(10000):
            a = Pose2(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi))
            b = Pose2(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi))
            end = apply_all(a, steer(a, b))
            assert math.hypot(end.x - b.x, end.y - b.y) <= 1e-9
            assert abs(wrap_angle(end.heading - b.heading)) <= 1e-9

    def test_forward_only_mode(self):
        segs = steer(Pose2(0, 0, 0), Pose2(-1, 0, 0), allow_backward=False)
        assert all(not isinstance(s, Translate) or s.ds > 0 for s in segs)
        end = apply_all(Pose2(0, 0, 0), segs)
        assert math.hypot(end.x + 1, end.y) <= 1e-9


class TestPathCost:
    def test_lookat_zero_when_facing_target(self):
        # moving straight toward the target keeps deviation at zero
        w = CostWeights()
        cost = segments_cost(Pose2(0, 0, 0), [Translate(1.0)], (10.0, 0.0), w)
        assert cost == pytest.approx(w.w_translate * 1.0, abs=1e-9)

    def test_perpendicular_segment_hand_integral(self):
        # constant deviation pi/2 when the target is infinitely far sideways
        w = CostWeights()
        cost = segments_cost(Pose2(0, 0, 0), [Translate(1.0)], (0.5, 1e9), w)
        expect = w.w_translate * 1.0 + w.w_lookat * (math.pi / 2) * 1.0
        assert cost == pytest.approx(expect, rel=1e-6)

    def test_lookat_against_quadrature_oracle(self):
        w = CostWeights(w_translate=1.0, w_rotate=0.0, w_backward=0.0, w_lookat=1.0)
        rng = np.random.default_rng(4)
        for _ in range(20):
            start = Pose2(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-math.pi, math.pi))
            length = rng.uniform(0.5, 3.0)
            target = (rng.uniform(-4, 4), rng.uniform(-4, 4))
            got = segments_cost(start, [Translate(length)], target, w) - length

            def dev(s):
                x = start.x + s * math.cos(start.heading)
                y = start.y + s * math.sin(start.heading)
                return abs(wrap_angle(start.heading - math.atan2(target[1] - y, target[0] - x)))

            oracle, _ = integrate.quad(dev, 0, length, limit=200)
            assert got == pytest.approx(oracle, rel=2e-3, abs=2e-3)

    def test_backward_term_isolation(self):
        # doubling the backward surcharge leaves forward-only paths unchanged
        target = (3.0, 0.0)
        segs = [Rotate(0.4), Translate(2.0), Rotate(-0.4)]
        c1 = segments_cost(Pose2(0, 0, 0), segs, target, CostWeights(w_backward=2.0))
        c2 = segments_cost(Pose2(0, 0, 0), segs, target, CostWeights(w_backward=4.0))
        assert c1 == c2

    def test_backward_no_lookat(self):
        # look-at accrues on forward motion only
        w = CostWeights(w_translate=1.0, w_rotate=0.0, w_backward=0.0, w_lookat=1.0)
        assert segments_cost(Pose2(0, 0, 0), [Translate(-1.0)], (1e9, 0), w) == pytest.approx(1.0)


class TestPlan:
    def test_empty_room_matches_direct_connection(self):
        scene = empty_room()
        start, goal = Pose2(-3, -2, 0.3), Pose2(3, 2, -0.5)
        target = (4.0, 4.0)
        w = CostWeights()
        path = plan(scene, start, goal, 0.3, target, w, PlannerBudget(2, 16), seed=0)
        direct = segments_cost(start, steer(start, goal, w=w), target, w)
        assert path.cost <= direct * 1.05 + 1e-9
        assert path.cost == pytest.approx(path_cost(path, target, w), abs=1e-9)

    def test_endpoints_reproduced(self):
        scene = empty_room()
        start, goal = Pose2(-3, -2, 0.3), Pose2(3, 2, -0.5)
        path = plan(scene, start, goal, 0.3, (0, 0), seed=1)
        end = apply_all(start, path.segments)
        assert math.hypot(end.x - goal.x, end.y - goal.y) <= 1e-9
        assert abs(wrap_angle(end.heading - goal.heading)) <= 1e-9
        np.testing.assert_allclose(path.states[0], [start.x, start.y, start.heading])

    def test_enclosed_goal_unreachable(self):
        ring = [
            OrientedBox(3.0, 0.0, 0.05, 1.0, 0.0),
            OrientedBox(1.0, 0.0, 0.05, 1.0, 0.0),
            OrientedBox(2.0, 0.95, 1.05, 0.05, 0.0),
            OrientedBox(2.0, -0.95, 1.05, 0.05, 0.0),
        ]
        scene = Scene(
            Bounds(10, 10),
            _room_walls(Bounds(10, 10), 0.1),
            [SceneObject(i, b) for i, b in enumerate(ring)],
            seed=0,
        )
        with pytest.raises(NoPathFound):
            plan(scene, Pose2(-3, 0, 0), Pose2(2, 0, 0), 0.3, (2, 0), budget=PlannerBudget(3, 24), seed=0)

    def test_invalid_endpoints(self):
        scene = empty_room()
        with pytest.raises(InvalidEndpoint):
            plan(scene, Pose2(4.9, 0, 0), Pose2(0, 0, 0), 0.3, (0, 0), seed=0)
        with pytest.raises(InvalidEndpoint):
            plan(scene, Pose2(0, 0, 0), Pose2(4.9, 0, 0), 0.3, (0, 0), seed=0)

    def test_detour_around_u_wall(self):
        arms = [
            OrientedBox(0.0, 1.0, 0.1, 1.5, 0.0),
            OrientedBox(-1.0, -0.4, 1.1, 0.1, 0.0),
            OrientedBox(-1.0, 2.4, 1.1, 0.1, 0.0),
        ]
        scene = Scene(
            Bounds(12, 12),
            _room_walls(Bounds(12, 12), 0.1),
            [SceneObject(i, b) for i, b in enumerate(arms)],
            seed=0,
        )
        start, goal = Pose2(-2.5, 1.0, 0.0), Pose2(2.5, 1.0, 0.0)
        path = plan(scene, start, goal, 0.3, (5, 5), budget=PlannerBudget(8, 48), seed=3)
        # strictly longer than the straight line, and collision-free throughout
        seg_len = sum(abs(s.ds) for s in path.segments if isinstance(s, Translate))
        assert seg_len > 5.0 + 0.5
        assert not collision_mask(scene, path.states[:, :2], 0.3).any()

    def test_anytime_monotonicity(self):
        scene_seeds = range(20, 26)
        for ss in scene_seeds:
            from amr_navkit.scene import sample_scene

            scene = sample_scene(ss)
            start, goal = None, None
            rng = np.random.default_rng(ss)
            b = scene.bounds
            while start is None or goal is None:
                cand = Pose2(rng.uniform(b.xmin, b.xmax), rng.uniform(b.ymin, b.ymax), rng.uniform(-3, 3))
                if not collision_mask(scene, np.array([[cand.x, cand.y]]), 0.3)[0]:
                    if start is None:
                        start = cand
                    else:
                        goal = cand
            costs = []
            for batches in (1, 2, 4):
                try:
                    costs.append(plan(scene, start, goal, 0.3, (0, 0), budget=PlannerBudget(batches, 16), seed=7).cost)
                except NoPathFound:
                    costs.append(math.inf)
            assert costs[1] <= costs[0] + 1e-9
            assert costs[2] <= costs[1] + 1e-9

    def test_determinism(self):
        scene = empty_room()
        p1 = plan(scene, Pose2(-3, 0, 0), Pose2(3, 1, 0.4), 0.3, (1, 1), budget=PlannerBudget(3, 16), seed=9)
        p2 = plan(scene, Pose2(-3, 0, 0), Pose2(3, 1, 0.4), 0.3, (1, 1), budget=PlannerBudget(3, 16), seed=9)
        assert p1.cost == p2.cost
        np.testing.assert_array_equal(p1.states, p2.states)


class TestKeyframes:
    def test_straight_meter_six_keyframes(self):
        kfs = resample_keyframes(straight_path(1.0))
        assert len(kfs) == 6
        xs = [k.x for k in kfs]
        np.testing.assert_allclose(xs, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-9)

    def test_pure_rotation_five_keyframes(self):
        start = Pose2(0, 0, 0)
        segs = [Rotate(math.radians(20))]
        path = PlannedPath(start, segs, rollout(start, segs), 0.0)
        kfs = resample_keyframes(path)
        assert len(kfs) == 5
        np.testing.assert_allclose(
            [math.degrees(k.heading) for k in kfs], [0, 5, 10, 15, 20], atol=1e-9
        )

    def test_gap_property_on_random_paths(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            start = Pose2(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-math.pi, math.pi))
            segs = []
            for _ in range(rng.integers(1, 6)):
                if rng.uniform() < 0.5:
                    segs.append(Rotate(float(rng.uniform(-math.pi, math.pi))))
                else:
                    segs.append(Translate(float(rng.uniform(-1.5, 1.5)) or 0.1))
            path = PlannedPath(start, segs, rollout(start, segs), 0.0)
            kfs = resample_keyframes(path)
            for a, b in zip(kfs[:-2], kfs[1:-1]):
                dp = math.hypot(b.x - a.x, b.y - a.y)
                dh = abs(wrap_angle(b.heading - a.heading))
                assert dp >= 0.2 - 1e-6 or dh >= math.radians(5) - 1e-6

    def test_endpoints_always_included(self):
        path = straight_path(0.05)
        kfs = resample_keyframes(path)
        assert len(kfs) == 2
        assert kfs[0].x == 0.0 and kfs[-1].x == pytest.approx(0.05)


class TestWaypoints:
    def test_straight_path_uniform_steps(self):
        path = straight_path(5.0)
        steps = waypoints_from_path(path, Pose2(0, 0, 0), n=12, dt=0.2, v_ref=0.5)
        assert len(steps) == 12
        for s in steps:
            assert s.x == pytest.approx(0.1, abs=1e-9)
            assert abs(s.y) <= 1e-9
            assert abs(s.heading) <= 1e-9

    def test_goal_holding_at_end(self):
        path = straight_path(1.0)
        steps = waypoints_from_path(path, Pose2(1.0, 0, 0), n=12, dt=0.2, v_ref=0.5)
        for s in steps:
            assert math.hypot(s.x, s.y) <= 1e-9
            assert abs(s.heading) <= 1e-9

    def test_step_displacement_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            start = Pose2(0, 0, rng.uniform(-math.pi, math.pi))
            segs = []
            for _ in range(rng.integers(1, 5)):
                if rng.uniform() < 0.4:
                    segs.append(Rotate(float(rng.uniform(-2, 2)) or 0.3))
                else:
                    segs.append(Translate(float(rng.uniform(0.2, 2.0))))
            path = PlannedPath(start, segs, rollout(start, segs), 0.0)
            v_ref = float(rng.uniform(0.2, 1.0))
            steps = waypoints_from_path(path, start, n=12, dt=0.2, v_ref=v_ref)
            for s in steps:
                assert math.hypot(s.x, s.y) <= v_ref * 0.2 + 1e-9

    def test_off_path_rejected(self):
        path = straight_path(2.0)
        with pytest.raises(OffPath):
            waypoints_from_path(path, Pose2(0, 1.0, 0))

    def test_v_ref_dt_product_guard(self):
        path = straight_path(2.0)
        with pytest.raises(ValueError):
            waypoints_from_path(path, Pose2(0, 0, 0), v_ref=1.5, dt=0.2)

    @pytest.mark.parametrize(
        "v_ref, omega_ref",
        [
            (0.0, 1.0),
            (-0.5, 1.0),
            (math.nan, 1.0),
            (math.inf, 1.0),
            (0.5, 0.0),
            (0.5, -1.0),
            (0.5, math.nan),
            (0.5, math.inf),
        ],
    )
    def test_reference_speeds_must_be_finite_positive(self, v_ref, omega_ref):
        start = Pose2(0, 0, 0)
        segs = [Translate(1.0), Rotate(math.pi / 2)]
        path = PlannedPath(start, segs, rollout(start, segs), 0.0)
        with pytest.raises(ValueError, match="finite and positive"):
            waypoints_from_path(path, start, v_ref=v_ref, omega_ref=omega_ref)

    def test_mixed_path_reaches_segment_boundaries(self):
        start = Pose2(0, 0, 0)
        segs = [Rotate(math.pi / 2), Translate(1.0)]
        path = PlannedPath(start, segs, rollout(start, segs), 0.0)
        steps = waypoints_from_path(path, start, n=12, dt=0.2, v_ref=0.5, omega_ref=1.0)
        # rebuild world poses: rotation phase lasts (pi/2)/1.0 s, then motion
        world = []
        cur = start
        for s in steps:
            cur = se2_compose(cur, s)
            world.append(cur)
        assert world[-1].x == pytest.approx(0.0, abs=1e-9)
        # total time 2.4 s: ~1.57 s rotating, remaining 0.83 s at 0.5 m/s
        assert world[-1].y == pytest.approx(0.5 * (2.4 - math.pi / 2), abs=1e-6)
