import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amr_navkit.errors import AmbiguousView
from amr_navkit.geometry import (
    CameraModel,
    GoalSpec,
    OrientedBox,
    Pose2,
    SideLabels,
    compute_tilt,
    derive_goal_pose,
    determine_front_side,
    pose_error,
    project_to_pixel,
    rot2,
    se2_compose,
    se2_relative,
    wrap_angle,
)

poses = st.builds(
    Pose2,
    st.floats(-10, 10),
    st.floats(-10, 10),
    st.floats(-math.pi, math.pi),
)


def assert_pose_close(a: Pose2, b: Pose2, tol=1e-12):
    assert abs(a.x - b.x) <= tol
    assert abs(a.y - b.y) <= tol
    assert abs(wrap_angle(a.heading - b.heading)) <= tol


class TestSE2:
    def test_compose_identity_left(self):
        assert_pose_close(se2_compose(Pose2(0, 0, 0), Pose2(1, 2, 0.5)), Pose2(1, 2, 0.5))

    def test_compose_quarter_turn_maps_x_to_y(self):
        assert_pose_close(
            se2_compose(Pose2(1, 0, math.pi / 2), Pose2(1, 0, 0)), Pose2(1, 1, math.pi / 2)
        )

    @given(poses, poses, poses)
    @settings(max_examples=200)
    def test_compose_associative(self, a, b, c):
        left = se2_compose(se2_compose(a, b), c)
        right = se2_compose(a, se2_compose(b, c))
        assert_pose_close(left, right, tol=1e-10)

    @given(poses)
    def test_identity_two_sided(self, a):
        eye = Pose2(0, 0, 0)
        assert_pose_close(se2_compose(eye, a), a)
        assert_pose_close(se2_compose(a, eye), a)

    def test_relative_same_pose(self):
        a = Pose2(2, -1, 0.7)
        assert_pose_close(se2_relative(a, a), Pose2(0, 0, 0))

    def test_relative_identity_frame(self):
        assert_pose_close(se2_relative(Pose2(0, 0, 0), Pose2(3, 4, 1)), Pose2(3, 4, 1))

    def test_relative_hand_rotated(self):
        # offset (0, 1) seen from a frame facing +y is (1, 0)
        rel = se2_relative(Pose2(1, 1, math.pi / 2), Pose2(1, 2, math.pi / 2))
        assert_pose_close(rel, Pose2(1, 0, 0), tol=1e-12)

    @given(poses, poses)
    @settings(max_examples=200)
    def test_relative_compose_roundtrip(self, a, b):
        assert_pose_close(se2_compose(a, se2_relative(a, b)), b, tol=1e-9)

    def test_heading_always_wrapped(self):
        assert -math.pi <= Pose2(0, 0, 7 * math.pi).heading < math.pi
        assert Pose2(0, 0, math.pi).heading == -math.pi


class TestFrontSide:
    def test_camera_squarely_facing_plus_x(self):
        box = OrientedBox(0, 0, 0.5, 0.5, 0)
        labels = determine_front_side(box, Pose2(5, 0, math.pi))
        assert labels == SideLabels(front=0, back=2, left=1, right=3)

    def test_diagonal_view_is_ambiguous(self):
        box = OrientedBox(0, 0, 0.5, 0.5, 0)
        with pytest.raises(AmbiguousView):
            determine_front_side(box, Pose2(5, 5, 0))

    def test_rotated_box_matches_bruteforce(self):
        # brute-force argmax over the 4 side scores is the oracle
        rng = np.random.default_rng(3)
        for _ in range(200):
            box = OrientedBox(
                rng.uniform(-1, 1),
                rng.uniform(-1, 1),
                rng.uniform(0.2, 1.0),
                rng.uniform(0.2, 1.0),
                rng.uniform(-math.pi, math.pi),
            )
            ang = rng.uniform(-math.pi, math.pi)
            cam = Pose2(box.cx + 4 * math.cos(ang), box.cy + 4 * math.sin(ang), 0.0)
            scores = []
            for k in range(4):
                mid = box.side_midpoint(k)
                to_cam = np.array([cam.x, cam.y]) - mid
                scores.append(float(np.dot(box.side_normal(k), to_cam / np.linalg.norm(to_cam))))
            order = sorted(scores)
            if order[-1] - order[-2] < 0.05:
                continue
            labels = determine_front_side(box, cam)
            assert labels.front == int(np.argmax(scores))

    def test_yawed_box_front_normal(self):
        # from (5, 2) the best two side scores differ by 0.59, far from a tie
        box = OrientedBox(0, 0, 0.5, 0.5, math.pi / 4)
        labels = determine_front_side(box, Pose2(5, 2, 0))
        n = box.side_normal(labels.front)
        scores = [
            float(
                np.dot(
                    box.side_normal(k),
                    (np.array([5.0, 2.0]) - box.side_midpoint(k))
                    / np.linalg.norm(np.array([5.0, 2.0]) - box.side_midpoint(k)),
                )
            )
            for k in range(4)
        ]
        assert labels.front == int(np.argmax(scores))
        assert n @ np.array([1.0, 0.0]) > 0.5  # roughly faces the camera

    def test_invariant_under_camera_distance_scaling(self):
        # far-field form: per-side scores deviate from their limits by at
        # most circumradius/distance, so a 0.12 asymptotic margin at 20x
        # circumradius pins the argmax for every larger distance
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 200:
            box = OrientedBox(
                rng.uniform(-1, 1),
                rng.uniform(-1, 1),
                rng.uniform(0.1, 1.0),
                rng.uniform(0.1, 1.0),
                rng.uniform(-math.pi, math.pi),
            )
            circ = math.hypot(box.hx, box.hy)
            ang = rng.uniform(-math.pi, math.pi)
            u = np.array([math.cos(ang), math.sin(ang)])
            limits = sorted(float(box.side_normal(k) @ u) for k in range(4))
            if limits[-1] - limits[-2] < 0.12:
                continue
            base = 20 * circ
            try:
                fronts = set()
                for scale in (1.0, 2.0, 5.0, 20.0):
                    cam = Pose2(
                        box.cx + base * scale * math.cos(ang),
                        box.cy + base * scale * math.sin(ang),
                        0.0,
                    )
                    fronts.add(determine_front_side(box, cam).front)
            except AmbiguousView:
                continue
            assert len(fronts) == 1
            checked += 1

    def test_camera_inside_box_rejected(self):
        with pytest.raises(ValueError):
            determine_front_side(OrientedBox(0, 0, 1, 1, 0), Pose2(0.1, 0.0, 0))

    def test_side_labels_cyclic_convention(self):
        labels = SideLabels.from_front(3)
        assert (labels.back, labels.left, labels.right) == (1, 0, 2)
        with pytest.raises(ValueError):
            SideLabels(front=0, back=1, left=2, right=3)


class TestGoalPose:
    BOX = OrientedBox(0, 0, 0.5, 0.5, 0)
    LABELS = SideLabels.from_front(0)

    def test_head_on_approach(self):
        g = derive_goal_pose(self.BOX, self.LABELS, GoalSpec("front", 0.5, 0.0), 0.3)
        assert_pose_close(g, Pose2(1.3, 0, math.pi), tol=1e-12)

    def test_angled_approach_closed_form(self):
        g = derive_goal_pose(self.BOX, self.LABELS, GoalSpec("front", 0.5, math.pi / 6), 0.3)
        assert g.x == pytest.approx(0.5 + 0.8 * math.cos(math.pi / 6), abs=1e-12)
        assert g.y == pytest.approx(0.8 * math.sin(math.pi / 6), abs=1e-12)
        assert g.heading == pytest.approx(math.atan2(-0.4, -0.6928203230275509), abs=1e-9)

    def test_zero_clearance_touches_face(self):
        g = derive_goal_pose(self.BOX, self.LABELS, GoalSpec("front", 0.0, 0.0), 0.3)
        assert_pose_close(g, Pose2(0.8, 0, math.pi), tol=1e-12)

    def test_heading_points_at_side_midpoint(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            box = OrientedBox(
                rng.uniform(-2, 2),
                rng.uniform(-2, 2),
                rng.uniform(0.1, 1),
                rng.uniform(0.1, 1),
                rng.uniform(-math.pi, math.pi),
            )
            labels = SideLabels.from_front(int(rng.integers(4)))
            side = ("front", "back", "left", "right")[int(rng.integers(4))]
            spec = GoalSpec(
                side, float(rng.uniform(0, 1)), [0, math.pi / 12, -math.pi / 12][int(rng.integers(3))]
            )
            g = derive_goal_pose(box, labels, spec, float(rng.uniform(0.1, 0.5)))
            m = box.side_midpoint(labels.side_index(side))
            to_mid = m - np.array([g.x, g.y])
            to_mid = to_mid / np.linalg.norm(to_mid)
            hvec = np.array([math.cos(g.heading), math.sin(g.heading)])
            assert float(hvec @ to_mid) == pytest.approx(1.0, abs=1e-9)

    def test_equivariance_under_rigid_motion(self):
        rng = np.random.default_rng(6)
        box = OrientedBox(1.0, -0.5, 0.4, 0.7, 0.3)
        labels = SideLabels.from_front(2)
        spec = GoalSpec("left", 0.4, math.pi / 6)
        g = derive_goal_pose(box, labels, spec, 0.25)
        for _ in range(100):
            t = Pose2(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi))
            R = rot2(t.heading)
            c2 = R @ np.array([box.cx, box.cy]) + np.array([t.x, t.y])
            box2 = OrientedBox(c2[0], c2[1], box.hx, box.hy, box.yaw + t.heading)
            g2 = derive_goal_pose(box2, labels, spec, 0.25)
            assert_pose_close(g2, se2_compose(t, g), tol=1e-9)


class TestTilt:
    def test_steep_tilt_is_returned(self):
        # a point 0.2 m ahead of a camera 1.5 m up needs a tilt of about 56 deg;
        # the executor clips it to its own limit, so it is returned, not refused
        cam = CameraModel()
        alpha = compute_tilt(cam, Pose2(0, 0, 0), (0.2, 0.0, 0.0))
        gamma = math.atan(0.5 * math.tan(cam.vertical_fov / 2))
        assert alpha == pytest.approx(math.atan2(1.5, 0.2) - gamma, abs=1e-12)
        assert alpha > math.radians(30)

    def test_closed_form_example(self):
        cam = CameraModel(height=1.5, vertical_fov=math.pi / 2, image_width_px=224, image_height_px=224)
        alpha = compute_tilt(cam, Pose2(0, 0, 0), (1.5, 0.0, 0.0))
        beta = math.atan2(1.5, 1.5)
        gamma = math.atan(0.5 * math.tan(math.pi / 4))
        assert alpha == pytest.approx(beta - gamma, abs=1e-12)
        assert math.degrees(alpha) == pytest.approx(18.434948822922, abs=1e-9)
        u, v = project_to_pixel(cam, alpha, np.array([1.5, 0.0, 0.0]))
        assert v == pytest.approx(0.75 * 224, abs=0.5)

    def test_point_at_camera_height_tilts_up_by_gamma(self):
        cam = CameraModel()
        gamma = math.atan(0.5 * math.tan(cam.vertical_fov / 2))
        for rho in (0.5, 2.0, 7.0):
            alpha = compute_tilt(cam, Pose2(0, 0, 0), (rho, 0.0, cam.height))
            assert alpha == pytest.approx(-gamma, abs=1e-12)

    def test_far_point_limit(self):
        cam = CameraModel()
        gamma = math.atan(0.5 * math.tan(cam.vertical_fov / 2))
        alpha = compute_tilt(cam, Pose2(0, 0, 0), (1e9, 0.0, 0.0))
        assert alpha > -gamma
        assert alpha == pytest.approx(-gamma, abs=1e-6)

    def test_projection_lands_on_target_row(self):
        # random camera/object configurations with the camera yawed toward
        # the point (tilt alone can only place the row in the mid-plane)
        rng = np.random.default_rng(7)
        for _ in range(200):
            vfov = rng.uniform(math.radians(40), math.radians(110))
            h_px = int(rng.integers(100, 500))
            cam = CameraModel(
                height=float(rng.uniform(0.8, 2.0)),
                vertical_fov=float(vfov),
                image_width_px=int(rng.integers(100, 500)),
                image_height_px=h_px,
            )
            rho = float(rng.uniform(0.4, 8.0))
            ang = float(rng.uniform(-math.pi, math.pi))
            px, py = 2.0 + rho * math.cos(ang), -1.0 + rho * math.sin(ang)
            pt = (px, py, float(rng.uniform(0, 0.5)))
            pose = Pose2(2.0, -1.0, ang)  # camera faces the point
            alpha = compute_tilt(cam, pose, pt)
            rel = se2_relative(pose, Pose2(pt[0], pt[1], 0.0))
            u, v = project_to_pixel(cam, alpha, np.array([rel.x, rel.y, pt[2]]))
            assert u == pytest.approx(cam.cx_px, abs=1e-6)
            assert v == pytest.approx(0.75 * h_px, abs=0.5)


class TestPoseError:
    def test_identical(self):
        assert pose_error(Pose2(1, 2, 0.3), Pose2(1, 2, 0.3)) == (0.0, 0.0)

    def test_canonical_magnitudes(self):
        d, a = pose_error(Pose2(0.03, 0, math.pi / 180), Pose2(0, 0, 0))
        assert d == pytest.approx(0.03, abs=1e-15)
        assert a == pytest.approx(1.0, abs=1e-12)

    def test_wrap(self):
        d, a = pose_error(Pose2(0, 0, -math.pi + 0.01), Pose2(0, 0, 0))
        assert d == 0.0
        assert a == pytest.approx(math.degrees(math.pi - 0.01), abs=1e-9)
        assert 0 <= a <= 180
