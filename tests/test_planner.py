import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from amr_navkit import planner
from amr_navkit.codec import decode_trajectory
from amr_navkit.errors import InvalidEndpoint, NoPathFound, OffPath
from amr_navkit.geometry import OrientedBox, Pose2, se2_compose, wrap_angle
from amr_navkit.pipeline import Expert
from amr_navkit.planner import (
    NO_PATH,
    Attempt,
    CostWeights,
    PlannedPath,
    PlannerBudget,
    Rotate,
    Translate,
    apply_segment,
    label_poses,
    plan,
    plan_with_margin,
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


def u_wall_scene() -> Scene:
    """A U of three walls, open to the left: U_START sits in its mouth, U_GOAL behind its base."""
    arms = [
        OrientedBox(0.0, 1.0, 0.1, 1.5, 0.0),
        OrientedBox(-1.0, -0.4, 1.1, 0.1, 0.0),
        OrientedBox(-1.0, 2.4, 1.1, 0.1, 0.0),
    ]
    return Scene(
        Bounds(12, 12),
        _room_walls(Bounds(12, 12), 0.1),
        [SceneObject(i, b) for i, b in enumerate(arms)],
        seed=0,
    )


U_START, U_GOAL = Pose2(-2.5, 1.0, 0.0), Pose2(2.5, 1.0, 0.0)


def split_room(gap: float) -> Scene:
    """A 4 m x 2 m room split at x = 0 by a 0.2 m thick wall of two boxes,
    with a door of width ``gap`` from y = -0.2 up."""
    bounds = Bounds(4.0, 2.0)
    top = -0.2 + gap
    low = OrientedBox(0.0, -0.7, 0.1, 0.5, 0.0)
    high = OrientedBox(0.0, (top + 1.2) / 2, 0.1, (1.2 - top) / 2, 0.0)
    return Scene(bounds, _room_walls(bounds, 0.1), [SceneObject(0, low), SceneObject(1, high)], seed=0)


def through_door(gap: float) -> list[Pose2]:
    """Via poses 0.5 m either side of the door, on its centre line."""
    return [Pose2(x, -0.2 + gap / 2, 0.0) for x in (-0.5, 0.5)]


DOOR_RADIUS = 0.31
DOOR_START, DOOR_GOAL = Pose2(-1.0, 0.0, 0.0), Pose2(1.0, 0.0, 0.0)


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

    @given(
        st.floats(-3.0, 3.0),
        st.floats(-3.0, 3.0),
        st.floats(-math.pi, math.pi),
        st.floats(1e-3, 4.0),
        st.sampled_from(["anywhere", "on the line", "at the end", "beside the move"]),
        st.floats(-6.0, 6.0),
        st.floats(-2.0, 2.0),
    )
    @settings(max_examples=300, deadline=None)
    @example(0.0, 0.0, 0.0, 1.0, "on the line", 0.5, 0.0)  # passes through the target
    @example(0.0, 0.0, 0.0, 1.0, "at the end", 0.0, 0.0)
    @example(1.0, -2.0, 0.3, 2.0, "beside the move", 0.25, 1e-9)
    def test_closed_form_lookat_matches_a_fine_trapezoid(self, x, y, h, length, kind, along, side):
        """The closed form against a 0.1 mm trapezoid of the deviation. Where
        the move passes through or beside the target, the deviation jumps by
        up to pi within a step, and the trapezoid is off by up to pi * 1e-4;
        elsewhere they agree to 1e-7."""
        if kind == "on the line":
            side = 0.0
        elif kind == "at the end":
            along, side = length, side * 1e-9
        elif kind == "beside the move":
            along, side = length * (along + 6.0) / 12.0, side * 1e-3
        c, s = math.cos(h), math.sin(h)
        target = (x + along * c - side * s, y + along * s + side * c)
        w = CostWeights(w_translate=1.0, w_rotate=0.0, w_backward=0.0, w_lookat=1.0)
        got = segments_cost(Pose2(x, y, h), [Translate(length)], target, w) - length

        k = int(math.ceil(length / 1e-4))
        sx = x + np.linspace(0.0, length, k + 1) * c
        sy = y + np.linspace(0.0, length, k + 1) * s
        dev = np.abs((h - np.arctan2(target[1] - sy, target[0] - sx) + math.pi) % (2 * math.pi) - math.pi)
        trapezoid = float((dev[0] / 2 + dev[1:-1].sum() + dev[-1] / 2) * (length / k))
        assert got >= 0.0
        assert abs(got - trapezoid) <= (1e-7 if abs(side) >= 0.01 else 4e-4)

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
        assert path.cost == pytest.approx(segments_cost(path.start, path.segments, target, w), abs=1e-9)

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
        scene = u_wall_scene()
        path = plan(scene, U_START, U_GOAL, 0.3, (5, 5), budget=PlannerBudget(8, 48), seed=3)
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

    def test_via_poses_out_of_bounds_or_colliding_are_dropped(self, monkeypatch):
        scene = u_wall_scene()
        free = Pose2(4.0, -3.0, 0.5)
        dropped = [
            Pose2(7.0, 0.0, 0.0),  # out of bounds
            Pose2(0.0, 1.0, 0.0),  # inside the U's middle arm
            Pose2(0.3, 1.0, 0.0),  # 0.2 m from that arm: free at 0.1 m, not at 0.3 m
        ]
        added = []
        add = planner._Roadmap.add
        monkeypatch.setattr(planner._Roadmap, "add", lambda rm, pose: (added.append(pose), add(rm, pose)))
        budget = PlannerBudget(2, 16)
        path = plan(scene, U_START, U_GOAL, 0.3, (5, 5), budget=budget, seed=4, via=[*dropped, free])
        # start, goal, the staged goal poses, then the kept via pose, then the batches
        staged = [Pose2(2.5 - back, 1.0, 0.0) for back in (0.25, 0.5, 1.0)]
        assert added[:6] == [U_START, U_GOAL, *staged, free]
        assert not set(dropped) & set(added)
        # dropped poses draw nothing from the seed's stream: the plan is the one without them
        base = plan(scene, U_START, U_GOAL, 0.3, (5, 5), budget=budget, seed=4)
        bare = plan(scene, U_START, U_GOAL, 0.3, (5, 5), budget=budget, seed=4, via=dropped)
        assert (repr(bare.cost), bare.segments) == (repr(base.cost), base.segments)
        assert not collision_mask(scene, path.states[:, :2], 0.3).any()

    def test_via_route_lets_one_batch_succeed(self):
        """A 4-sample batch alone finds no way round the U; the route of an
        earlier plan, seeded into the same batch, does."""
        scene = u_wall_scene()
        route = plan(scene, U_START, U_GOAL, 0.3, (5, 5), budget=PlannerBudget(8, 48), seed=3)
        via = [apply_all(U_START, route.segments[:i + 1]) for i, s in enumerate(route.segments)
               if isinstance(s, Translate)][:-1]
        one = PlannerBudget(1, 4)
        with pytest.raises(NoPathFound):
            plan(scene, U_START, U_GOAL, 0.3, (5, 5), budget=one, seed=0)
        path = plan(scene, U_START, U_GOAL, 0.3, (5, 5), budget=one, seed=0, via=via)
        assert path.cost <= route.cost
        assert not collision_mask(scene, path.states[:, :2], 0.3).any()

    @pytest.mark.parametrize("gap, closed", [(2 * DOOR_RADIUS - 0.02, True), (2 * DOOR_RADIUS + 0.02, False)])
    def test_door_narrower_than_the_disc_is_closed(self, gap, closed):
        """A door narrower than the disc leaves no free centre on the wall's
        midline, which every way between the halves crosses; a plan through
        the door then fails even with via poses on its centre line, and
        otherwise succeeds."""
        scene = split_room(gap)
        assert not collision_mask(scene, np.array([[-1.0, 0.0], [1.0, 0.0]]), DOOR_RADIUS).any()
        midline = np.stack([np.zeros(2001), np.linspace(-1.0, 1.0, 2001)], axis=1)
        assert bool(collision_mask(scene, midline, DOOR_RADIUS).all()) is closed
        args = (scene, DOOR_START, DOOR_GOAL, DOOR_RADIUS, (0.0, 0.0))
        kwargs = dict(budget=PlannerBudget(2, 16), seed=0, via=through_door(gap))
        if closed:
            with pytest.raises(NoPathFound, match=NO_PATH):
                plan(*args, **kwargs)
        else:
            path = plan(*args, **kwargs)
            assert not collision_mask(scene, path.states[:, :2], DOOR_RADIUS).any()

    def test_plan_samples_every_batch_before_no_path(self, monkeypatch):
        """``plan`` is a pure search: between poses that no path joins, it
        samples its whole budget before it raises."""
        sampled = []
        sample = planner._sample_positions
        monkeypatch.setattr(planner, "_sample_positions", lambda *args: sampled.append(1) or sample(*args))
        scene = split_room(2 * DOOR_RADIUS - 0.02)
        with pytest.raises(NoPathFound, match=NO_PATH):
            plan(scene, DOOR_START, DOOR_GOAL, DOOR_RADIUS, (0.0, 0.0), budget=PlannerBudget(3, 8), seed=0)
        assert len(sampled) == 3

    @pytest.mark.parametrize("batches, batch_size", [(0, 24), (-1, 24), (4, 0), (4, -1)])
    def test_budget_below_one_refused(self, batches, batch_size):
        # batch_size -1 once raised inside numpy, batch_size 0 planned on the
        # staged goal poses alone, and batches 0 was clamped to 1 in plan()
        with pytest.raises(ValueError, match="planner batch(es|_size) must be at least 1"):
            PlannerBudget(batches, batch_size)

    def test_determinism(self):
        scene = empty_room()
        p1 = plan(scene, Pose2(-3, 0, 0), Pose2(3, 1, 0.4), 0.3, (1, 1), budget=PlannerBudget(3, 16), seed=9)
        p2 = plan(scene, Pose2(-3, 0, 0), Pose2(3, 1, 0.4), 0.3, (1, 1), budget=PlannerBudget(3, 16), seed=9)
        assert p1.cost == p2.cost
        np.testing.assert_array_equal(p1.states, p2.states)


class TestPlanWithMargin:
    """The attempt ladder, against a stand-in for ``plan`` that records its calls."""

    RADIUS = 0.3
    INFLATED = 0.3 + 0.1
    RUNGS = [Attempt(PlannerBudget(1, 16), seed) for seed in (10, 11, 12)]
    VIA = [Pose2(0.5, 0.5, 0.0)]

    @staticmethod
    def record(monkeypatch, outcomes):
        """(attempts, vias): ``plan`` records (radius, seed) and its ``via``,
        and raises ``outcomes[radius]`` with a message that names the attempt."""
        attempts, vias = [], []

        def plan(scene, start, goal, radius, target_center, w, budget, seed, via=()):
            attempts.append((radius, seed))
            vias.append(list(via))
            raise outcomes[radius](f"refused at {radius} with seed {seed}")

        monkeypatch.setattr(planner, "plan", plan)
        return attempts, vias

    def ladder(self, *rungs):
        return plan_with_margin(empty_room(), Pose2(0, 0, 0), Pose2(1, 0, 0), self.RADIUS, (2, 0), CostWeights(), rungs)

    def test_invalid_endpoint_drops_its_radius_for_later_rungs(self, monkeypatch):
        attempts, _ = self.record(monkeypatch, {self.INFLATED: InvalidEndpoint, self.RADIUS: NoPathFound})
        with pytest.raises(NoPathFound):
            self.ladder(*self.RUNGS)
        assert attempts == [(self.INFLATED, 10), (self.RADIUS, 10), (self.RADIUS, 11), (self.RADIUS, 12)]

    def test_no_path_keeps_both_radii(self, monkeypatch):
        attempts, _ = self.record(monkeypatch, {self.INFLATED: NoPathFound, self.RADIUS: NoPathFound})
        with pytest.raises(NoPathFound):
            self.ladder(*self.RUNGS)
        assert attempts == [(r, seed) for seed in (10, 11, 12) for r in (self.INFLATED, self.RADIUS)]

    @pytest.mark.parametrize("inflated", [NoPathFound, InvalidEndpoint])
    def test_rung_with_a_via_plans_at_both_radii_with_its_seed_and_via(self, monkeypatch, inflated):
        """A warm rung follows the cold rungs' rule: after either failure at
        the inflated radius it plans at the true radius, with the same seed
        and the same ``via``."""
        attempts, vias = self.record(monkeypatch, {self.INFLATED: inflated, self.RADIUS: NoPathFound})
        with pytest.raises(NoPathFound):
            self.ladder(Attempt(PlannerBudget(1, 16), 9, self.VIA), self.RUNGS[0])
        cold = [(self.INFLATED, 10)] if inflated is NoPathFound else []
        assert attempts == [(self.INFLATED, 9), (self.RADIUS, 9), *cold, (self.RADIUS, 10)]
        assert vias == [self.VIA, self.VIA] + [[]] * (len(attempts) - 2)

    def test_rung_with_a_via_after_its_inflated_radius_is_refused(self, monkeypatch):
        """A warm rung behind a cold rung whose inflated endpoint was refused
        plans at the true radius alone, with its own seed and ``via``."""
        attempts, vias = self.record(monkeypatch, {self.INFLATED: InvalidEndpoint, self.RADIUS: NoPathFound})
        with pytest.raises(NoPathFound):
            self.ladder(self.RUNGS[0], Attempt(PlannerBudget(1, 16), 9, self.VIA), self.RUNGS[1])
        assert attempts == [(self.INFLATED, 10), (self.RADIUS, 10), (self.RADIUS, 9), (self.RADIUS, 11)]
        assert vias == [[], [], self.VIA, []]

    @pytest.mark.parametrize(
        "start, inflated",
        [
            pytest.param(DOOR_START, NoPathFound, id="door-closed-to-the-inflated-disc"),
            pytest.param(Pose2(-0.45, -0.5, 0.0), InvalidEndpoint, id="start-within-the-margin"),
        ],
    )
    def test_rung_with_a_via_passes_a_door_at_the_true_radius(self, monkeypatch, start, inflated):
        """On a real scene, with no stand-in for ``plan``: a 0.64 m door lets
        the 0.3 m disc through but not the inflated 0.4 m one, so a warm rung
        whose inflated plan fails either way finds its route at the true radius."""
        scene, gap = split_room(0.64), 0.64
        outcomes = []
        real = planner.plan

        def plan_recorded(scene, start, goal, radius, *rest):
            try:
                path = real(scene, start, goal, radius, *rest)
            except (NoPathFound, InvalidEndpoint) as err:
                outcomes.append((radius, type(err)))
                raise
            outcomes.append((radius, PlannedPath))
            return path

        monkeypatch.setattr(planner, "plan", plan_recorded)
        rung = Attempt(PlannerBudget(1, 16), 0, through_door(gap))
        path = plan_with_margin(scene, start, DOOR_GOAL, self.RADIUS, (0.0, 0.0), CostWeights(), [rung])
        assert outcomes == [(self.INFLATED, inflated), (self.RADIUS, PlannedPath)]
        assert not collision_mask(scene, path.states[:, :2], self.RADIUS).any()
        assert collision_mask(scene, path.states[:, :2], self.INFLATED).any()

    @pytest.mark.parametrize("last", [NoPathFound, InvalidEndpoint])
    def test_last_error_message_is_raised(self, monkeypatch, last):
        attempts, _ = self.record(monkeypatch, {self.INFLATED: NoPathFound, self.RADIUS: last})
        with pytest.raises(NoPathFound) as err:
            self.ladder(self.RUNGS[0])
        assert type(err.value) is NoPathFound
        assert attempts == [(self.INFLATED, 10), (self.RADIUS, 10)]
        assert str(err.value) == f"refused at {self.RADIUS} with seed 10"

    def test_zero_margin_plans_once_per_rung(self, monkeypatch):
        """At margin 0 both radii are one: a failed rung plans once."""
        attempts, _ = self.record(monkeypatch, {self.RADIUS: NoPathFound})
        expert = Expert(safety_margin=0.0)
        with pytest.raises(NoPathFound):
            expert.plan(empty_room(), Pose2(0, 0, 0), Pose2(1, 0, 0), self.RADIUS, (2, 0), *self.RUNGS)
        assert attempts == [(self.RADIUS, 10), (self.RADIUS, 11), (self.RADIUS, 12)]

    def test_first_path_found_is_returned(self):
        scene = empty_room()
        start, goal = Pose2(-3, 0, 0), Pose2(3, 1, 0.4)
        got = plan_with_margin(scene, start, goal, 0.3, (1, 1), CostWeights(), self.RUNGS)
        want = plan(scene, start, goal, 0.4, (1, 1), budget=PlannerBudget(1, 16), seed=10)
        assert (repr(got.cost), got.segments) == (repr(want.cost), want.segments)


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

    def test_nan_pose_refused_when_built(self):
        # the pose is refused where it is built, naming its field, not later as a codec OutOfRange
        path = straight_path(1.0)
        with pytest.raises(ValueError, match="^Pose2 x must be finite, got nan$"):
            waypoints_from_path(path, Pose2(math.nan, 0, 0))

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


@pytest.mark.parametrize("turn", [math.pi / 2, -math.pi / 2, 2.5, -3.0])
def test_mid_rotation_keyframes_turn_onward(turn):
    """Every state of a rotation in place shares its position, so a keyframe
    partway through the turn ties with all of them in distance; it is
    labelled from the state at its own heading, and its first decoded step
    keeps turning the way the rotation turns (not back to its start)."""
    start = Pose2(0.3, -0.2, 0.4)
    segs = [Rotate(turn), Translate(1.0)]
    path = PlannedPath(start, segs, rollout(start, segs), 0.0)
    keyframes = resample_keyframes(path)
    inside = [
        k for k in keyframes
        if (k.x, k.y) == (start.x, start.y) and 1e-6 < abs(wrap_angle(k.heading - start.heading)) < abs(turn) - 1e-6
    ]
    assert len(inside) >= 8
    for k, steps in zip(inside, label_poses(path, inside)):
        first = decode_trajectory(steps, k, use_residual=True)[0]
        assert math.copysign(1.0, turn) * wrap_angle(first.heading - k.heading) > 0
