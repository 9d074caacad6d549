"""The oracle's rewritten hot paths compute exactly what the code they replaced did.

``rs0_distance`` writes its two branches out instead of looping over
``_branches``; ``rollout`` builds each segment's rows with numpy instead of
one state at a time; ``collision_check`` and ``clearance`` run a scalar loop
over the scene's boxes instead of ``obstacle_distances``; and
``waypoints_from_path`` grows a step prefix only as far as the horizon
instead of reading a whole-path step table. The references below are the
code they replaced. Floats are compared with ``==`` or as uint64 bit
patterns, never with a tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amr_navkit.geometry import OrientedBox, Pose2, se2_relative, wrap_angle
from amr_navkit.planner import (
    ANG_STEP,
    LIN_STEP,
    CostWeights,
    PlannedPath,
    Rotate,
    Translate,
    _branches,
    apply_segment,
    rollout,
    rs0_distance,
    waypoints_from_path,
)
from amr_navkit.scene import (
    Bounds,
    Scene,
    SceneObject,
    clearance,
    collision_check,
    collision_mask,
    obstacle_distances,
    sample_scene,
)

SPEEDS = [(0.5, 1.0), (0.2, 0.3), (1.0, 0.2), (0.13, 0.7)]


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).ravel().tolist()


# ---------------------------------------------------------------------------
# references: the code as it was


def reference_rs0_distance(a, b, w=CostWeights()):
    best = math.inf
    for backward, rot1, dist, rot2 in _branches(a, b):
        c = w.w_translate * dist + w.w_rotate * (abs(rot1) + abs(rot2))
        if backward:
            c += w.w_backward * dist
        best = min(best, c)
    return best


def reference_rollout(start, segments):
    rows = [start.as_array()]
    pose = start
    for seg in segments:
        if isinstance(seg, Rotate):
            k = max(1, int(math.ceil(abs(seg.dtheta) / ANG_STEP)))
            for i in range(1, k + 1):
                h = pose.heading + seg.dtheta * (i / k)
                rows.append([pose.x, pose.y, wrap_angle(h)])
        else:
            k = max(1, int(math.ceil(abs(seg.ds) / LIN_STEP)))
            c, s = math.cos(pose.heading), math.sin(pose.heading)
            for i in range(1, k + 1):
                d = seg.ds * (i / k)
                rows.append([pose.x + d * c, pose.y + d * s, pose.heading])
        pose = apply_segment(pose, seg)
    return np.array(rows)


def reference_step_table(states):
    rows = states.tolist()
    lengths, turns = [], []
    for (x0, y0, h0), (x1, y1, h1) in zip(rows, rows[1:]):
        lengths.append(math.hypot(x1 - x0, y1 - y0))
        turns.append(abs(wrap_angle(h1 - h0)))
    return np.array(lengths), np.array(turns)


def reference_waypoints(path, current, n=12, dt=0.2, v_ref=0.5, omega_ref=1.0, max_projection=0.3):
    """``waypoints_from_path`` slicing a whole-path step table, as it was."""
    states = path.states
    d2 = (states[:, 0] - current.x) ** 2 + (states[:, 1] - current.y) ** 2
    proj = int(np.argmin(d2))
    assert math.sqrt(d2[proj]) <= max_projection
    rem = states[proj:]
    lengths, turns = reference_step_table(states)
    ds, dh = lengths[proj:], turns[proj:]
    durations = np.where(ds > 1e-12, ds / v_ref, dh / omega_ref)
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


# ---------------------------------------------------------------------------
# strategies

coord = st.floats(-10.0, 10.0, allow_nan=False)
heading = st.one_of(
    st.floats(-math.pi, math.pi),
    st.sampled_from([math.pi, -math.pi, math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0), 0.0, -0.0]),
)
poses = st.builds(Pose2, coord, coord, heading)
tiny = st.floats(-1e-12, 1e-12, allow_nan=False)
weights = st.builds(
    CostWeights,
    st.floats(1e-3, 10.0),
    st.floats(0.0, 10.0),
    st.floats(0.0, 10.0),
    st.floats(0.0, 10.0),
)
segments = st.lists(
    st.one_of(
        st.builds(Rotate, st.one_of(st.floats(-7.0, 7.0), tiny, st.sampled_from([0.0, math.pi, -math.pi]))),
        st.builds(Translate, st.one_of(st.floats(-3.0, 3.0), tiny, st.just(0.0))),
    ),
    max_size=6,
)


# ---------------------------------------------------------------------------
# rs0_distance


@given(poses, poses, weights)
@settings(max_examples=1000, deadline=None)
@example(Pose2(0.0, 0.0, math.pi), Pose2(1.0, 0.0, -math.pi), CostWeights())
@example(Pose2(0.0, 0.0, 3.0), Pose2(-1.0, 1e-300, -3.0), CostWeights())
def test_rs0_distance_matches_branches(a, b, w):
    assert bits(rs0_distance(a, b, w)) == bits(reference_rs0_distance(a, b, w))


@given(poses, tiny, tiny, heading, weights)
@settings(max_examples=500, deadline=None)
@example(Pose2(1.0, 2.0, math.nextafter(-math.pi, 0.0)), 0.0, 0.0, math.nextafter(math.pi, 0.0), CostWeights())
def test_rs0_distance_coincident_positions(a, dx, dy, h, w):
    # dist < 1e-12: the rotate-only branch
    b = Pose2(a.x + dx, a.y + dy, h)
    assert bits(rs0_distance(a, b, w)) == bits(reference_rs0_distance(a, b, w))


# ---------------------------------------------------------------------------
# rollout


@given(poses, segments)
@settings(max_examples=400, deadline=None)
@example(Pose2(0.0, 0.0, 0.0), [])
@example(Pose2(0.0, 0.0, math.pi), [Rotate(0.0), Translate(0.0), Rotate(1e-300), Translate(-1e-300)])
@example(Pose2(1.0, -1.0, 3.1), [Rotate(math.pi), Translate(2.5), Rotate(-7.0), Translate(-0.004)])
def test_rollout_matches_per_state_loop(start, segs):
    got, want = rollout(start, segs), reference_rollout(start, segs)
    assert got.shape == want.shape
    assert bits(got) == bits(want)


# ---------------------------------------------------------------------------
# one-point collision queries


@pytest.fixture(scope="module")
def scenes():
    empty = Scene(bounds=Bounds(4.0, 3.0), walls=[], objects=[])
    tilted = Scene(
        bounds=Bounds(6.0, 5.0),
        walls=[],
        objects=[SceneObject(0, OrientedBox(0.3, -0.2, 0.8, 0.4, 0.7)), SceneObject(1, OrientedBox(-2.0, 1.5, 0.1, 0.9, -2.9))],
    )
    return [sample_scene(s) for s in (3, 17, 42)] + [empty, tilted]


def assert_point_queries_match(scene, x, y, radius):
    pose = Pose2(x, y, 0.0)
    want = float(obstacle_distances(scene, np.array([[pose.x, pose.y]]))[0])
    assert bits(clearance(scene, pose, radius)) == bits(want - radius)
    assert collision_check(scene, pose, radius) == bool(collision_mask(scene, np.array([[pose.x, pose.y]]), radius)[0])


@given(st.data(), st.floats(-1.4, 1.4), st.floats(-1.4, 1.4), st.floats(0.0, 0.6))
@settings(max_examples=400, deadline=None)
def test_point_queries_anywhere(scenes, data, fx, fy, radius):
    # fractions of the room's half sizes: |f| > 1 is outside the room
    scene = data.draw(st.sampled_from(scenes))
    assert_point_queries_match(scene, fx * scene.bounds.w / 2, fy * scene.bounds.h / 2, radius)


@given(st.data(), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.0, 0.6))
@settings(max_examples=400, deadline=None)
def test_point_queries_inside_boxes(scenes, data, u, v, radius):
    scene = data.draw(st.sampled_from(scenes[:3] + scenes[4:]))
    box = data.draw(st.sampled_from(scene.walls + [o.box for o in scene.objects]))
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    lx, ly = u * box.hx, v * box.hy
    assert_point_queries_match(scene, box.cx + c * lx - s * ly, box.cy + s * lx + c * ly, radius)


def test_point_queries_at_box_corners_and_room_edges(scenes):
    for scene in scenes:
        b = scene.bounds
        points = [(b.xmin, 0.0), (b.xmax, b.ymax), (0.0, b.ymin), (b.xmin - 1.0, b.ymax + 2.0)]
        for box in scene.walls + [o.box for o in scene.objects]:
            points.extend(map(tuple, box.corners().tolist()))
        for x, y in points:
            for radius in (0.0, 0.25):
                assert_point_queries_match(scene, x, y, radius)


def test_non_finite_points_take_the_array_path(scenes):
    with np.errstate(invalid="ignore"):
        for x, y in [(math.nan, 0.0), (math.inf, 1.0), (0.0, -math.inf)]:
            assert_point_queries_match(scenes[0], x, y, 0.2)


# ---------------------------------------------------------------------------
# labelling from the on-demand step prefix


def assert_labels_match(path, queries):
    for pose, (v_ref, omega_ref), n in queries:
        got = waypoints_from_path(path, pose, n, 0.2, v_ref, omega_ref)
        want = reference_waypoints(path, pose, n, 0.2, v_ref, omega_ref)
        assert bits([[p.x, p.y, p.heading] for p in got]) == bits([[p.x, p.y, p.heading] for p in want])


@st.composite
def labelled_paths(draw):
    start = draw(poses)
    segs = draw(segments)
    path = PlannedPath(start, segs, rollout(start, segs), 0.0)
    last = len(path.states) - 1
    index = st.one_of(st.integers(0, last), st.just(last))
    queries = []
    for _ in range(draw(st.integers(1, 8))):
        row = path.states[draw(index)]
        dx, dy = draw(st.floats(-0.1, 0.1)), draw(st.floats(-0.1, 0.1))
        pose = Pose2(row[0] + dx, row[1] + dy, row[2] + draw(st.floats(-1.0, 1.0)))
        queries.append((pose, draw(st.sampled_from(SPEEDS)), draw(st.integers(1, 24))))
    return path, queries


@given(labelled_paths(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_labels_match_whole_path_table(case, rnd):
    path, queries = case
    rnd.shuffle(queries)  # the prefix grows in whatever order queries arrive
    assert_labels_match(path, queries)


def test_path_shorter_than_horizon():
    start = Pose2(0.2, 0.1, 0.4)
    segs = [Rotate(0.3), Translate(0.25), Rotate(-0.1)]
    path = PlannedPath(start, segs, rollout(start, segs), 0.0)
    queries = [(Pose2.from_array(path.states[i]), speed, 12) for i in (0, 5, 40) for speed in SPEEDS]
    assert_labels_match(path, queries)


def test_projection_at_the_last_state():
    start = Pose2(-1.0, 0.5, 2.0)
    segs = [Translate(1.5), Rotate(2.0)]
    path = PlannedPath(start, segs, rollout(start, segs), 0.0)
    last = Pose2.from_array(path.states[-1])
    assert_labels_match(path, [(last, SPEEDS[0], 12), (Pose2(last.x + 0.05, last.y, 0.0), SPEEDS[1], 5)])


def test_one_state_path():
    start = Pose2(1.0, 2.0, -0.5)
    path = PlannedPath(start, [], rollout(start, []), 0.0)
    assert_labels_match(path, [(start, SPEEDS[0], 12), (Pose2(1.1, 2.0, 0.0), SPEEDS[2], 3)])


def test_long_path_grows_only_its_horizon():
    start = Pose2(0.0, 0.0, 0.0)
    segs = [Translate(4.0), Rotate(3.0), Translate(-4.0), Rotate(-3.0), Translate(4.0)]
    path = PlannedPath(start, segs, rollout(start, segs), 0.0)
    assert_labels_match(path, [(start, SPEEDS[0], 12)])
    assert len(path._lengths) < len(path.states) // 4
    rng = np.random.default_rng(3)
    rows = rng.permutation(len(path.states))[:40]
    assert_labels_match(path, [(Pose2.from_array(path.states[i]), SPEEDS[i % 4], 12) for i in rows])
    lengths, turns = path.steps_to(len(path.states) - 1)
    want = reference_step_table(path.states)
    assert bits(lengths) == bits(want[0]) and bits(turns) == bits(want[1])


def test_dt_must_be_positive():
    start = Pose2(0.0, 0.0, 0.0)
    path = PlannedPath(start, [Translate(1.0)], rollout(start, [Translate(1.0)]), 0.0)
    for dt in (0.0, -0.2, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            waypoints_from_path(path, start, 12, dt)
