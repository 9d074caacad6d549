"""The batched collision and cost shortcuts decide exactly as the loops they replace.

Edge sweeps decide on exact segment-to-box distances and sample only near
the decision radius, the roadmap search weighs unevaluated edges by the
rotate-translate bound, and visibility casts all sight lines in one call.
None of these may change a verdict or a plan; the reference implementations
below are the per-edge and per-sight-line code they replaced.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amr_navkit.geometry import OrientedBox, Pose2, rot2, wrap_angle
from amr_navkit.pipeline import sample_task
from amr_navkit.planner import (
    CostWeights,
    Rotate,
    Translate,
    plan,
    rs0_distance,
    segments_cost,
    steer,
)
from amr_navkit.scene import (
    Bounds,
    Scene,
    SceneObject,
    _ray_box_entries,
    _room_walls,
    collision_mask,
    sample_scene,
    sweep_collision_check,
    sweep_collision_checks,
    visible_from,
)


def reference_sweep(scene, p0, p1, radius, step) -> bool:
    """Sampled disc sweep, as every edge was validated before batching."""
    x0, y0, x1, y1 = (float(v) for v in (*p0, *p1))
    dist = math.hypot(x1 - x0, y1 - y0)
    n = max(1, int(math.ceil(dist / step)))
    t = np.linspace(0.0, 1.0, n + 1)
    pts = np.stack([x0 + t * (x1 - x0), y0 + t * (y1 - y0)], axis=1)
    return bool(collision_mask(scene, pts, radius).any())


def reference_segment_blocked(scene, a, b, skip_box) -> bool:
    """One sight line, with the skipped box masked out on every call."""
    centers, halves, cy, sy = scene._box_params
    boxes = scene.walls + [o.box for o in scene.objects]
    keep = np.array([bx is not skip_box for bx in boxes])
    centers, halves, cy, sy = centers[keep], halves[keep], cy[keep], sy[keep]
    if not centers.size:
        return False
    d = b - a
    dist = np.linalg.norm(d)
    if dist < 1e-12:
        return False
    entry = _ray_box_entries(a, (d / dist)[None, :], centers, halves, cy, sy)
    return bool(entry.min() < dist - 1e-9)


def reference_visible_from(camera_pose, target, scene, hfov=math.pi / 2, fraction=0.5, grid_n=5):
    """One sight-line test per in-view lattice point."""
    fr = np.linspace(-1.0, 1.0, grid_n + 2)[1:-1]
    gx, gy = np.meshgrid(fr * target.box.hx, fr * target.box.hy)
    local = np.stack([gx.ravel(), gy.ravel()], axis=1)
    world = target.box.center + local @ rot2(target.box.yaw).T
    cam = np.array([camera_pose.x, camera_pose.y])
    seen = 0
    for pt in world:
        bearing = math.atan2(pt[1] - cam[1], pt[0] - cam[0])
        if abs(wrap_angle(bearing - camera_pose.heading)) > hfov / 2:
            continue
        if not reference_segment_blocked(scene, cam, pt, target.box):
            seen += 1
    return seen >= fraction * len(world)


@lru_cache(maxsize=None)
def scene_for(kind: int) -> Scene:
    if kind == 0:  # walls, no objects
        return Scene(Bounds(8.0, 6.0), _room_walls(Bounds(8.0, 6.0), 0.1), [], seed=0)
    if kind == 1:  # nothing at all: only the room edge
        return Scene(Bounds(8.0, 6.0), [], [], seed=0)
    return sample_scene(kind)


SCENES = (0, 1, 2, 5, 13)
STEP = st.sampled_from([0.01, 0.02, 0.005])
RADIUS = st.floats(0.1, 0.5)
UNIT = st.floats(0.0, 1.0)


@st.composite
def segments(draw, scene: Scene, radius: float, step: float):
    """(p0, p1) pairs: random (partly outside the room), zero-length, and
    deliberately near-tangent to a box face or corner at the decision radii."""
    b = scene.bounds
    kind = draw(st.sampled_from(["random", "zero", "face", "corner"]))
    boxes = scene.walls + [o.box for o in scene.objects]
    if kind in ("face", "corner") and not boxes:
        kind = "random"

    def pt():
        return np.array([draw(st.floats(b.xmin - 1, b.xmax + 1)), draw(st.floats(b.ymin - 1, b.ymax + 1))])

    if kind == "random":
        return pt(), pt()
    if kind == "zero":
        p = pt()
        return p, p.copy()
    box: OrientedBox = draw(st.sampled_from(boxes))
    gap = draw(st.sampled_from([radius, radius - step / 2])) + draw(st.sampled_from([-1e-7, 0.0, 1e-7]))
    sx, sy = draw(st.sampled_from([-1.0, 1.0])), draw(st.sampled_from([-1.0, 1.0]))
    if kind == "face":
        # parallel to the x face, `gap` outside it, spanning part of the face
        u0, u1 = draw(UNIT), draw(UNIT)
        a = np.array([sx * (box.hx + gap), (2 * u0 - 1) * box.hy])
        c = np.array([sx * (box.hx + gap), (2 * u1 - 1) * box.hy])
    else:
        # perpendicular to a direction inside the corner's normal cone, so the
        # corner is the closest feature, `gap` away
        ang = draw(st.floats(0.05, math.pi / 2 - 0.05))
        normal = np.array([sx * math.cos(ang), sy * math.sin(ang)])
        closest = np.array([sx * box.hx, sy * box.hy]) + gap * normal
        along = np.array([-normal[1], normal[0]])
        a = closest - draw(st.floats(0.0, 1.5)) * along
        c = closest + draw(st.floats(0.0, 1.5)) * along
    rot = rot2(box.yaw)
    return box.center + rot @ a, box.center + rot @ c


@st.composite
def sweep_cases(draw):
    scene = scene_for(draw(st.sampled_from(SCENES)))
    radius, step = draw(RADIUS), draw(STEP)
    segs = draw(st.lists(segments(scene, radius, step), min_size=1, max_size=12))
    return scene, radius, step, segs


class TestSweepEquivalence:
    @given(sweep_cases())
    # a subnormal segment once made the clip's division overflow (a warning)
    @example((scene_for(0), 0.5, 0.01, [(np.zeros(2), np.zeros(2)), (np.zeros(2), np.array([0.0, 5e-324]))]))
    @settings(max_examples=400, deadline=None)
    def test_batch_equals_sampled_reference(self, case):
        scene, radius, step, segs = case
        p0 = np.array([a for a, _ in segs])
        p1 = np.array([c for _, c in segs])
        got = sweep_collision_checks(scene, p0, p1, radius, step)
        want = [reference_sweep(scene, a, c, radius, step) for a, c in segs]
        assert got.tolist() == want
        for (a, c), w in zip(segs, want):
            assert sweep_collision_check(scene, Pose2(*a, 0.0), Pose2(*c, 0.0), radius, step) is w

    def test_planner_edges_on_suite_scenes(self):
        """Roadmap-like edges at the planner's inflated radius, many in the band."""
        rng = np.random.default_rng(5)
        for seed in (3, 7, 11):
            scene = sample_scene(seed)
            b = scene.bounds
            p0 = np.stack([rng.uniform(b.xmin, b.xmax, 300), rng.uniform(b.ymin, b.ymax, 300)], axis=1)
            p1 = p0 + rng.uniform(-2.0, 2.0, size=p0.shape)
            radius = 0.3 + 0.005
            got = sweep_collision_checks(scene, p0, p1, radius, 0.01)
            assert got.tolist() == [reference_sweep(scene, a, c, radius, 0.01) for a, c in zip(p0, p1)]

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            sweep_collision_checks(scene_for(0), np.zeros((1, 2)), np.ones((1, 2)), 0.3, 0.0)


class TestLookatBound:
    @given(
        st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-math.pi, math.pi)),
        st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-math.pi, math.pi)),
        st.tuples(st.floats(-6, 6), st.floats(-6, 6)),
        st.tuples(st.floats(0.1, 3), st.floats(0, 2), st.floats(0, 4), st.floats(0, 2)),
    )
    @settings(max_examples=500, deadline=None)
    def test_rs0_lower_bounds_connection_cost(self, a, b, target, weights):
        """An unevaluated roadmap edge weighs this bound in the lazy search,
        so it must never exceed the edge's exact cost."""
        pa, pb, w = Pose2(*a), Pose2(*b), CostWeights(*weights)
        assert rs0_distance(pa, pb, w) <= segments_cost(pa, steer(pa, pb, w=w), target, w) + 1e-9


class TestVisibilityEquivalence:
    def test_batched_sight_lines_match_per_point(self):
        rng = np.random.default_rng(9)
        for seed in (2, 5, 13, 21):
            scene = sample_scene(seed)
            b = scene.bounds
            for _ in range(60):
                cam = Pose2(rng.uniform(b.xmin, b.xmax), rng.uniform(b.ymin, b.ymax), rng.uniform(-math.pi, math.pi))
                target = scene.objects[int(rng.integers(len(scene.objects)))]
                frac = float(rng.uniform(0.0, 1.0))
                assert visible_from(cam, target, scene, fraction=frac) == reference_visible_from(
                    cam, target, scene, fraction=frac
                )

    def test_occluder_just_before_lattice_points(self):
        # a small box inside the target, in front of the nearest lattice point
        # of the middle row: that sight line enters it 4 cm before its end, and
        # the row's four farther points are hidden behind it
        target = SceneObject(id=0, box=OrientedBox(3.0, 0.0, 0.6, 0.6, 0.0))
        occluder = SceneObject(id=1, box=OrientedBox(2.57, 0.0, 0.01, 0.01, 0.0))
        scene = Scene(Bounds(10.0, 10.0), _room_walls(Bounds(10.0, 10.0), 0.1), [target, occluder], seed=0)
        cam = Pose2(0.0, 0.0, 0.0)
        for frac, want in ((0.78, True), (0.82, False)):  # 20 of 25 points seen
            assert reference_visible_from(cam, target, scene, fraction=frac) is want
            assert visible_from(cam, target, scene, fraction=frac) is want


# plan() outputs recorded before edge validation was batched: (scene seed,
# task seed) -> (repr(cost), segments). The plan seed is the task seed.
GOLDEN_PLANS = {
    (3, 0): (
        "7.815710478054896",
        [
            Rotate(dtheta=-2.8839075361580244),
            Translate(ds=1.741409328794329),
            Rotate(dtheta=-0.47927508672915575),
            Rotate(dtheta=1.8085891032780026),
            Translate(ds=1.0642031364133737),
            Rotate(dtheta=-0.6101696406103452),
            Rotate(dtheta=0.05543142511094601),
            Translate(ds=1.0271182861846382),
            Rotate(dtheta=1.7001578008300626),
        ],
    ),
    (7, 1): (
        "4.898926419152857",
        [
            Rotate(dtheta=0.6721433283914982),
            Translate(ds=3.044472533789216),
            Rotate(dtheta=1.4275957862980704),
        ],
    ),
    (22, 0): (
        "6.919177585313076",
        [
            Rotate(dtheta=-0.6594300500203216),
            Translate(ds=2.0125773048285347),
            Rotate(dtheta=1.6722220329725808),
            Rotate(dtheta=-1.2909982515491194),
            Translate(ds=1.381418261228196),
            Rotate(dtheta=2.124992484009172),
            Translate(ds=0.2500000000000001),
        ],
    ),
    (29, 0): (
        "14.404668408483413",
        [
            Rotate(dtheta=-2.514116559225843),
            Translate(ds=2.157829388580472),
            Rotate(dtheta=-0.7272702310681263),
            Rotate(dtheta=-0.011168150666407417),
            Translate(ds=2.1494150605667985),
            Rotate(dtheta=-0.791407647567528),
            Rotate(dtheta=1.2179713752673447),
            Translate(ds=1.1019280095698756),
            Rotate(dtheta=-2.2653461322092276),
            Rotate(dtheta=2.4491382090725677),
            Translate(ds=2.832454994867772),
            Rotate(dtheta=1.830758123095337),
            Translate(ds=0.25000000000000017),
        ],
    ),
}


def plan_task(scene_seed: int, task_seed: int):
    scene = sample_scene(scene_seed)
    task = sample_task(scene, task_seed)
    target = scene.object_by_id(task.target_id)
    return plan(
        scene, task.start, task.goal_pose, task.robot_radius, target.box.center,
        CostWeights(), seed=task_seed,
    )


class TestGoldenPlans:
    @pytest.mark.parametrize("case", sorted(GOLDEN_PLANS))
    def test_plan_unchanged(self, case):
        cost, segs = GOLDEN_PLANS[case]
        path = plan_task(*case)
        assert repr(path.cost) == cost
        assert path.segments == segs
