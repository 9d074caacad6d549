"""The batched collision and cost shortcuts decide as the loops they replace.

Edge sweeps decide on the exact segment-to-box distance, which a sweep
sampled every 1 mm must agree with wherever it is more than 2e-6 from
contact; the roadmap search weighs unevaluated edges by the rotate-translate
bound, and visibility casts all sight lines in one call. The reference
implementations below are the dense sweep and the per-sight-line code the
batched visibility replaced.
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
    obstacle_distances,
    sample_scene,
    sweep_collision_check,
    sweep_collision_checks,
    visible_from,
)


DENSE_STEP = 1e-3  # the reference sweep's sample spacing, meters
CONTACT = 2e-6  # sweeps this close to contact are left out of the comparison


def dense_clearance(scene, p0, p1) -> float:
    """Least obstacle distance over positions sampled along p0->p1 every 1 mm.

    Along a segment the distance to a box or room side is convex. Its least
    value lies at an end, where a face is parallel (it is constant there), at
    0 inside a box, or beside a corner at some distance d, where it grows as
    sqrt(d^2 + s^2) with the offset s along the segment. A sample lies within
    0.5 mm of that point, so the sampled least value is above the true one by
    under 0.5e-3^2 / (2 d). That only matters to a verdict when d is within
    0.5 mm of a radius of at least 0.1 m, where it is under 1.3e-6 < CONTACT.
    """
    x0, y0, x1, y1 = (float(v) for v in (*p0, *p1))
    n = max(1, int(math.ceil(math.hypot(x1 - x0, y1 - y0) / DENSE_STEP)))
    t = np.linspace(0.0, 1.0, n + 1)
    return float(obstacle_distances(scene, np.stack([x0 + t * (x1 - x0), y0 + t * (y1 - y0)], axis=1)).min())


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
RADIUS = st.floats(0.1, 0.5)
UNIT = st.floats(0.0, 1.0)


@st.composite
def segments(draw, scene: Scene, radius: float):
    """(p0, p1) pairs: random (partly outside the room), zero-length, and
    deliberately near-tangent to a box face or corner, just outside the
    ``CONTACT`` band around the radius."""
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
    gap = radius + draw(st.sampled_from([-1e-3, -1e-5, -3e-6, 3e-6, 1e-5, 1e-3]))
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
    radius = draw(RADIUS)
    segs = draw(st.lists(segments(scene, radius), min_size=1, max_size=12))
    return scene, radius, segs


class TestSweepEquivalence:
    @given(sweep_cases())
    # a subnormal segment once made the clip's division overflow (a warning)
    @example((scene_for(0), 0.5, [(np.zeros(2), np.zeros(2)), (np.zeros(2), np.array([0.0, 5e-324]))]))
    @settings(max_examples=400, deadline=None)
    def test_exact_verdict_matches_a_dense_sweep(self, case):
        scene, radius, segs = case
        p0 = np.array([a for a, _ in segs])
        p1 = np.array([c for _, c in segs])
        got = sweep_collision_checks(scene, p0, p1, radius)
        for (a, c), hit in zip(segs, got.tolist()):
            clear = dense_clearance(scene, a, c)
            if abs(clear - radius) > CONTACT:
                assert hit is (clear < radius)
            assert sweep_collision_check(scene, Pose2(*a, 0.0), Pose2(*c, 0.0), radius) is hit

    def test_planner_edges_on_suite_scenes(self):
        """Roadmap-like edges at the planner's padded radius, many near contact."""
        rng = np.random.default_rng(5)
        compared = 0
        for seed in (3, 7, 11):
            scene = sample_scene(seed)
            b = scene.bounds
            p0 = np.stack([rng.uniform(b.xmin, b.xmax, 300), rng.uniform(b.ymin, b.ymax, 300)], axis=1)
            p1 = p0 + rng.uniform(-2.0, 2.0, size=p0.shape)
            radius = 0.3 + 0.005
            got = sweep_collision_checks(scene, p0, p1, radius)
            for a, c, hit in zip(p0, p1, got.tolist()):
                clear = dense_clearance(scene, a, c)
                if abs(clear - radius) > CONTACT:
                    assert hit is (clear < radius)
                    compared += 1
        assert compared >= 890


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


# plan() outputs recorded with the closed-form look-at cost and exact edge
# verdicts: (scene seed, task seed) -> (repr(cost), segments). The plan seed
# is the task seed.
GOLDEN_PLANS = {
    (3, 0): (
        "7.81568469407811",
        [
            Rotate(dtheta=-2.8839058882976296),
            Translate(ds=1.7414080093537452),
            Rotate(dtheta=-0.4792767345895501),
            Rotate(dtheta=1.808587254566036),
            Translate(ds=1.06420066561501),
            Rotate(dtheta=-0.6101677918983786),
            Rotate(dtheta=0.05543142511094601),
            Translate(ds=1.0271182861846382),
            Rotate(dtheta=1.7001578008300626),
        ],
    ),
    (7, 1): (
        "4.898907771832282",
        [
            Rotate(dtheta=0.6721433283914982),
            Translate(ds=3.044472533789216),
            Rotate(dtheta=1.4275957862980704),
        ],
    ),
    (22, 0): (
        "6.919149307321484",
        [
            Rotate(dtheta=-0.6594295501972685),
            Translate(ds=2.0125760440155043),
            Rotate(dtheta=1.6722215331495267),
            Rotate(dtheta=-1.290999267033925),
            Translate(ds=1.381419057264745),
            Rotate(dtheta=2.1249934994939776),
            Translate(ds=0.2500000000000001),
        ],
    ),
    (29, 0): (
        "14.404637351169434",
        [
            Rotate(dtheta=-2.514116559225843),
            Translate(ds=2.157829388580472),
            Rotate(dtheta=-0.7272702310681263),
            Rotate(dtheta=-0.011167824295261308),
            Translate(ds=2.149414566672561),
            Rotate(dtheta=-0.791407973938675),
            Rotate(dtheta=1.21797061025093),
            Translate(ds=1.101928168963195),
            Rotate(dtheta=-2.265345367192813),
            Rotate(dtheta=2.4491382090725677),
            Translate(ds=2.832454994867772),
            Rotate(dtheta=1.830758123095337),
            Translate(ds=0.25000000000000017),
        ],
    ),
}


def plan_task(scene_seed: int, task_seed: int):
    scene = sample_scene(scene_seed)
    task = sample_task(scene, task_seed)[0]
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
