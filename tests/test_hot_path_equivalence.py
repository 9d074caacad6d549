"""The oracle's rewritten hot paths compute exactly what the code they replaced did.

``rs0_distance`` writes its two branches out instead of looping over
``_branches``; ``rollout`` builds each segment's rows with numpy instead of
one state at a time; ``collision_check`` and ``clearance`` run a scalar loop
over the scene's boxes instead of ``obstacle_distances``;
``waypoints_from_path`` computes step lengths and turns only as far as the
horizon reaches instead of reading a whole-path step table; ``_Roadmap.evaluate``
skips chain vertices whose edges it swept earlier in the batch; and
``pure_pursuit``, ``tilt_step`` and the oracle's terminal rotation work on
floats instead of small arrays. ``Pose2``, ``PolarStep`` and
``TokenizedStep`` are slotted with one hand-written ``__init__``;
``visible_from`` reads a per-scene cache of target lattices and occluders
and settles a view with too few points in the field of view before casting a
ray; ``waypoints_from_path`` builds each relative step from its interpolated
row without a world ``Pose2``; and ``resample_keyframes`` walks Python rows.
The references below are the code they replaced. (The informed sampler's
stacked matmul is checked against a per-try product in
``tests/test_soa_kernel_equivalence.py``.) Floats are compared with ``==``
or as uint64 bit patterns, never with a tolerance.
"""

import dataclasses
import math
import pickle
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amr_navkit import scene as scene_module
from amr_navkit.codec import (
    PHI_BINS,
    PHI_WIDTH,
    PSI_BINS,
    PSI_WIDTH,
    R_BINS,
    R_MAX,
    R_WIDTH,
    PolarStep,
    TokenizedStep,
    encode_trajectory,
)
from amr_navkit.controller import ROTATE_ANGLE, TURN_TOL, ExecutorConfig, OraclePolicy, pure_pursuit, tilt_step
from amr_navkit.errors import OutOfRange
from amr_navkit.geometry import (
    TWO_PI,
    CameraModel,
    OrientedBox,
    Pose2,
    compute_tilt,
    rot2,
    se2_relative,
    wrap_angle,
)
from amr_navkit.pipeline import Expert, plan_with_margin, sample_task
from amr_navkit.planner import (
    ANG_STEP,
    K_NEIGHBORS,
    LIN_STEP,
    Attempt,
    CostWeights,
    PlannedPath,
    PlannerBudget,
    Rotate,
    Translate,
    _branches,
    _neighbor_lists,
    _Roadmap,
    _shortest_path,
    apply_segment,
    resample_keyframes,
    rollout,
    rs0_distance,
    waypoints_from_path,
)
from amr_navkit.scene import (
    Bounds,
    DiffDrive,
    OmniDrive,
    RobotState,
    Scene,
    SceneObject,
    _room_walls,
    clearance,
    collision_check,
    collision_mask,
    obstacle_distances,
    sample_scene,
    sweep_collision_checks,
    visible_from,
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
    """``waypoints_from_path`` slicing a whole-path step table, with a world pose per sample, as it was."""
    states = path.states
    d2 = (states[:, 0] - current.x) ** 2 + (states[:, 1] - current.y) ** 2
    tied = np.flatnonzero(d2 == d2.min())
    proj = int(tied[np.argmin([abs(wrap_angle(states[i, 2] - current.heading)) for i in tied])])
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
            world.append(ReferencePose2(float(rem[-1, 0]), float(rem[-1, 1]), float(rem[-1, 2])))
            continue
        i = int(np.searchsorted(tau, t, side="right"))
        f = (t - tau[i - 1]) / (tau[i] - tau[i - 1])
        x = rem[i - 1, 0] + f * (rem[i, 0] - rem[i - 1, 0])
        y = rem[i - 1, 1] + f * (rem[i, 1] - rem[i - 1, 1])
        h = rem[i - 1, 2] + f * wrap_angle(rem[i, 2] - rem[i - 1, 2])
        world.append(ReferencePose2(x, y, h))
    steps, prev = [], current
    for p in world:
        steps.append(reference_se2_relative(prev, p))
        prev = p
    return steps


def reference_se2_relative(a, b):
    c, s = math.cos(a.heading), math.sin(a.heading)
    dx, dy = b.x - a.x, b.y - a.y
    return ReferencePose2(c * dx + s * dy, -s * dx + c * dy, b.heading - a.heading)


class ReferenceRoadmap(_Roadmap):
    """``_Roadmap`` with the evaluate that rebuilt the edge set from every chain vertex."""

    def evaluate(self, chain, positions, nbrs):
        todo = [e for e in zip(chain, chain[1:]) if e not in self._conn]
        if not todo:
            return False
        new = sorted({(min(i, j), max(i, j)) for i in chain for j in nbrs[i]} - self._swept)
        if new:
            self._swept.update(new)
            ends = positions[np.array(new)]
            r = self.radius + LIN_STEP / 2
            hits = sweep_collision_checks(self.scene, ends[:, 0], ends[:, 1], r)
            for (a, b), hit in zip(new, hits.tolist()):
                if hit:
                    self.weight[a][b] = self.weight[b][a] = math.inf
        for i, j in todo:
            if self.weight[i][j] < math.inf:
                self.connection(i, j)
        return True


def reference_pure_pursuit(state, trajectory_world, cfg):
    pos = np.array([state.pose.x, state.pose.y])
    pts = np.array([[p.x, p.y] for p in trajectory_world])
    dists = np.linalg.norm(pts - pos, axis=1)
    n = len(pts)
    # step k runs from waypoint k to waypoint k + 1
    steps = np.diff(pts, axis=0)
    lengths = np.linalg.norm(steps, axis=1)
    # step k + 1 goes on in step k's direction
    dot = steps[:-1, 0] * steps[1:, 0] + steps[:-1, 1] * steps[1:, 1]
    cross = steps[:-1, 0] * steps[1:, 1] - steps[:-1, 1] * steps[1:, 0]
    goes_on = (dot > 0) & (np.abs(cross) <= TURN_TOL * lengths[:-1])
    # waypoint i is a corner when waypoint i + 1 shares its position (a turn
    # in place), or when steps i - 2 and i - 1 run straight into it and step
    # i does not go on
    corners = np.zeros(n, dtype=bool)
    corners[: n - 1] = lengths <= TURN_TOL
    corners[2 : n - 1] |= goes_on[: n - 3] & ~goes_on[1 : n - 2]
    stops = (dists >= cfg.lookahead) | (corners & (dists > TURN_TOL))
    stops[: int(np.argmin(dists))] = False
    stops[-1] = True
    j = int(np.flatnonzero(stops)[0])
    target = pts[j]
    terminal = trajectory_world[-1]
    goal_dist = float(dists[-1])
    heading_err = wrap_angle(terminal.heading - state.pose.heading)
    v_mag = min(cfg.speed, cfg.v_max, float(dists[j]) / cfg.dt)
    if state.kinematics == "omnidirectional":
        if goal_dist <= TURN_TOL:
            vel = np.zeros(2)
        else:
            to_target = target - pos
            norm = float(np.linalg.norm(to_target))
            vel = v_mag * to_target / norm if norm > 1e-12 else np.zeros(2)
        if abs(heading_err) <= cfg.stop_ang_tol:
            omega = 0.0
        else:
            omega = float(np.clip(heading_err / cfg.dt, -cfg.omega_max, cfg.omega_max))
        return OmniDrive(float(vel[0]), float(vel[1]), omega)
    if goal_dist <= cfg.stop_pos_tol:
        if abs(heading_err) <= cfg.stop_ang_tol:
            return DiffDrive(0.0, 0.0)
        omega = float(np.clip(heading_err / cfg.dt, -cfg.omega_max, cfg.omega_max))
        return DiffDrive(0.0, omega)
    c, s = math.cos(state.pose.heading), math.sin(state.pose.heading)
    rel = target - pos
    local_x = c * rel[0] + s * rel[1]
    local_y = -s * rel[0] + c * rel[1]
    dist_sq = local_x * local_x + local_y * local_y
    if dist_sq < 1e-18:
        omega = float(np.clip(heading_err / cfg.dt, -cfg.omega_max, cfg.omega_max))
        return DiffDrive(0.0, omega)
    forward = local_x >= 0
    bearing = math.atan2(local_y, local_x) if forward else math.atan2(-local_y, -local_x)
    if abs(bearing) > ROTATE_ANGLE:
        return DiffDrive(0.0, float(np.clip(bearing / cfg.dt, -cfg.omega_max, cfg.omega_max)))
    v = v_mag if forward else -v_mag
    omega = float(np.clip(2.0 * v * local_y / dist_sq, -cfg.omega_max, cfg.omega_max))
    return DiffDrive(v, omega)


def reference_tilt_step(state, camera, target_lowest_point, cfg):
    try:
        setpoint = compute_tilt(camera, state.pose, target_lowest_point)
    except ValueError:
        return state.tilt
    setpoint = float(np.clip(setpoint, -cfg.tilt_limit, cfg.tilt_limit))
    slew = cfg.tilt_rate * cfg.dt
    return float(np.clip(setpoint, state.tilt - slew, state.tilt + slew))


def reference_terminal_rotation(policy, state, task):
    goal = task.goal_pose
    max_turn = policy.expert.omega_ref * policy.expert.dt
    steps = []
    prev = state.pose
    h = state.pose.heading
    for _ in range(policy.expert.horizon_n):
        err = wrap_angle(goal.heading - h)
        h = h + float(np.clip(err, -max_turn, max_turn))
        pose = Pose2(goal.x, goal.y, h)
        steps.append(pose)
    out = []
    for p in steps:
        out.append(se2_relative(prev, p))
        prev = p
    return out


@dataclass(frozen=True)
class ReferencePose2:
    x: float
    y: float
    heading: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        raw_heading = self.heading
        object.__setattr__(self, "heading", float(wrap_angle(self.heading)))
        for name, value in (("x", self.x), ("y", self.y), ("heading", raw_heading)):
            if not math.isfinite(value):
                raise ValueError(f"Pose2 {name} must be finite, got {value}")


@dataclass(frozen=True)
class ReferencePolarStep:
    psi: float
    r: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "psi", self.psi % TWO_PI)  # wrap_2pi
        object.__setattr__(self, "phi", self.phi % TWO_PI)
        if not -1e-12 <= self.r <= R_MAX + 1e-9:
            raise OutOfRange(f"step distance {self.r} outside [0, {R_MAX}]")


def reference_quantize(value, width, nbins):
    idx = min(int(value / width), nbins - 1)
    return idx, value - (idx + 0.5) * width


def reference_encode_trajectory(waypoints):
    """``encode_step(step_from_pose(rel))`` per step, through the dataclasses as they were."""
    out = []
    for rel in waypoints:
        r = math.hypot(rel.x, rel.y)
        psi = math.atan2(rel.y, rel.x) if r > 1e-12 else 0.0
        step = ReferencePolarStep(psi, r, rel.heading)
        if step.r > R_MAX + 1e-9:
            raise OutOfRange(f"step distance {step.r} exceeds {R_MAX}")
        psi_bin, psi_res = reference_quantize(step.psi, PSI_WIDTH, PSI_BINS)
        r_bin, r_res = reference_quantize(step.r, R_WIDTH, R_BINS)
        phi_bin, phi_res = reference_quantize(step.phi, PHI_WIDTH, PHI_BINS)
        out.append((psi_bin, r_bin, phi_bin, psi_res, r_res, phi_res))
    return out


def reference_resample_keyframes(path, trans_gap=0.2, rot_gap=math.radians(5.0)):
    states = path.states
    idx = [0]
    for i in range(1, len(states)):
        last = states[idx[-1]]
        dp = math.hypot(states[i, 0] - last[0], states[i, 1] - last[1])
        dh = abs(wrap_angle(states[i, 2] - last[2]))
        if dp >= trans_gap - 1e-9 or dh >= rot_gap - 1e-9:
            idx.append(i)
    if idx[-1] != len(states) - 1:
        idx.append(len(states) - 1)
    return [ReferencePose2(float(states[i][0]), float(states[i][1]), float(states[i][2])) for i in idx]


def reference_sight_lines_blocked(scene, a, pts, skip_box):
    """The sight-line test with the skipped box masked out and ``np.linalg.norm`` lengths on every call."""
    blocked = np.zeros(len(pts), dtype=bool)
    centers, halves, cy, sy = scene._box_params
    boxes = scene.walls + [o.box for o in scene.objects]
    keep = np.array([bx is not skip_box for bx in boxes], dtype=bool)
    centers, halves, cy, sy = centers[keep], halves[keep], cy[keep], sy[keep]
    if not centers.size:
        return blocked
    d = pts - a[None, :]
    dist = np.array([np.linalg.norm(v) for v in d])
    far = dist >= 1e-12
    if far.any():
        entry = scene_module._ray_box_entries(a, d[far] / dist[far, None], centers, halves, cy, sy)
        blocked[far] = entry.min(axis=1) < dist[far] - 1e-9
    return blocked


def reference_lattice(box, grid_n):
    fr = np.linspace(-1.0, 1.0, grid_n + 2)[1:-1]
    gx, gy = np.meshgrid(fr * box.hx, fr * box.hy)
    local = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return box.center + local @ rot2(box.yaw).T


def reference_visible_from(camera_pose, target, scene, hfov=math.pi / 2, fraction=0.5):
    """``visible_from`` building the 5 x 5 lattice on every call and casting before counting."""
    world = reference_lattice(target.box, 5)
    cam = np.array([camera_pose.x, camera_pose.y])
    in_fov = [
        abs(wrap_angle(math.atan2(pt[1] - cam[1], pt[0] - cam[0]) - camera_pose.heading)) <= hfov / 2
        for pt in world
    ]
    blocked = reference_sight_lines_blocked(scene, cam, world[in_fov], target.box)
    seen = int((~blocked).sum())
    return seen >= fraction * len(world)


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
    queries = [(Pose2(*path.states[i]), speed, 12) for i in (0, 5, 40) for speed in SPEEDS]
    assert_labels_match(path, queries)


def test_projection_at_the_last_state():
    start = Pose2(-1.0, 0.5, 2.0)
    segs = [Translate(1.5), Rotate(2.0)]
    path = PlannedPath(start, segs, rollout(start, segs), 0.0)
    last = Pose2(*path.states[-1])
    assert_labels_match(path, [(last, SPEEDS[0], 12), (Pose2(last.x + 0.05, last.y, 0.0), SPEEDS[1], 5)])


def test_one_state_path():
    start = Pose2(1.0, 2.0, -0.5)
    path = PlannedPath(start, [], rollout(start, []), 0.0)
    assert_labels_match(path, [(start, SPEEDS[0], 12), (Pose2(1.1, 2.0, 0.0), SPEEDS[2], 3)])


def test_long_path_labels_from_its_start_and_anywhere_on_it():
    start = Pose2(0.0, 0.0, 0.0)
    segs = [Translate(4.0), Rotate(3.0), Translate(-4.0), Rotate(-3.0), Translate(4.0)]
    path = PlannedPath(start, segs, rollout(start, segs), 0.0)
    assert_labels_match(path, [(start, SPEEDS[0], 12)])
    rng = np.random.default_rng(3)
    rows = rng.permutation(len(path.states))[:40]
    assert_labels_match(path, [(Pose2(*path.states[i]), SPEEDS[i % 4], 12) for i in rows])


def test_dt_must_be_positive():
    start = Pose2(0.0, 0.0, 0.0)
    path = PlannedPath(start, [Translate(1.0)], rollout(start, [Translate(1.0)]), 0.0)
    for dt in (0.0, -0.2, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            waypoints_from_path(path, start, 12, dt)


# ---------------------------------------------------------------------------
# evaluate's per-batch bookkeeping


def roadmap_states(rm):
    """Everything ``evaluate`` writes: swept edges, weight rows and exact costs, floats as bits."""
    rows = [sorted(row.items()) for row in rm.weight]
    return (
        sorted(rm._swept),
        [[j for j, _ in row] for row in rows],
        [bits([wt for _, wt in row]) for row in rows],
        sorted((key, bits(cost), segs) for key, (cost, segs) in rm._conn.items()),
    )


class Recording:
    """Wraps a roadmap's evaluate to snapshot its state after every call."""

    def __init__(self, rm):
        self.log = []
        inner = rm.evaluate

        def evaluate(chain, positions, nbrs):
            result = inner(chain, positions, nbrs)
            self.log.append((list(chain), result, roadmap_states(rm)))
            return result

        rm.evaluate = evaluate


@given(
    st.sampled_from([3, 17, 42, 77]),
    st.integers(0, 2**32 - 1),
    st.floats(0.1, 0.5),
    st.integers(1, 4),
    st.integers(4, 24),
)
@settings(max_examples=60, deadline=None)
@example(3, 0, 0.3, 4, 24)
def test_evaluate_matches_whole_chain_rebuild(scene_seed, seed, radius, batches, batch_size):
    scene = sample_scene(scene_seed)
    b = scene.bounds
    rng = np.random.default_rng(seed)
    target = np.array([0.0, 0.0])
    got, want = _Roadmap(scene, radius, target, CostWeights()), ReferenceRoadmap(scene, radius, target, CostWeights())
    got_log, want_log = Recording(got), Recording(want)
    for _ in range(batches + 1):  # the first batch holds start and goal
        for _ in range(2 if not got.poses else batch_size):
            x, y = rng.uniform((b.xmin, b.ymin), (b.xmax, b.ymax)).tolist()
            pose = Pose2(x, y, float(rng.uniform(-math.pi, math.pi)))
            got.add(pose)
            want.add(pose)
        positions = np.array([[p.x, p.y] for p in got.poses])
        nbrs = _neighbor_lists(positions, K_NEIGHBORS)
        got_path = _shortest_path(got, positions, nbrs)
        want_path = _shortest_path(want, positions, [list(row) for row in nbrs])
        assert bits(got_path[0]) == bits(want_path[0]) and got_path[1] == want_path[1]
        assert got_log.log == want_log.log
    assert roadmap_states(got) == roadmap_states(want)


# ---------------------------------------------------------------------------
# scalar pure pursuit and tilt slew


def command_bits(cmd):
    fields = [cmd.vx, cmd.vy, cmd.omega] if isinstance(cmd, OmniDrive) else [cmd.v, cmd.omega]
    assert all(type(f) is float for f in fields)
    return type(cmd).__name__, bits(fields)


# waypoint offsets at three scales: 1e-10 puts the target on top of the
# robot (dist_sq < 1e-18), 0.5 straddles the lookahead and stop tolerance
offsets = st.one_of(
    st.floats(-1e-9, 1e-9), st.floats(-0.5, 0.5), st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0])
)
configs = st.builds(
    ExecutorConfig,
    lookahead=st.sampled_from([1e-12, 0.05, 0.3, 1.0]),
    speed=st.floats(0.05, 2.0),
    stop_pos_tol=st.sampled_from([1e-12, 0.01, 0.2]),
    stop_ang_tol=st.sampled_from([1e-12, math.radians(0.5), 1.0]),
    kinematics=st.sampled_from(["omnidirectional", "differential"]),
    dt=st.floats(0.01, 0.5),
    v_max=st.floats(0.05, 2.0),
    omega_max=st.floats(0.0, 4.0),
)


def polyline(x, turns):
    """Waypoint offsets walked from ``(x, 0)`` at heading 0: each ``(turn,
    length)`` turns the heading, then steps ``length`` along it."""
    h, y, out = 0.0, 0.0, []
    for turn, length in turns:
        h += turn
        x, y = x + length * math.cos(h), y + length * math.sin(h)
        out.append((x, y, h))
    return out


# horizons like the oracle's, which start up to 1.5 m behind the robot:
# straight runs, turns in place, bends shorter than a sample, reversals and
# gentle arcs, at sample lengths near 0.1 m
polylines = st.builds(
    polyline,
    st.floats(-1.5, 0.3),
    st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.sampled_from([0.126, -0.126, 0.01, 1e-9, math.pi / 2, math.pi]), heading),
            st.one_of(st.sampled_from([0.0, 0.1, 0.05, 1e-7]), st.floats(0.0, 0.2)),
        ),
        min_size=1,
        max_size=14,
    ),
)


@given(poses, st.one_of(st.lists(st.tuples(offsets, offsets, heading), min_size=1, max_size=14), polylines), configs)
@settings(max_examples=900, deadline=None)
@example(Pose2(1.0, 2.0, 0.5), [(0.0, 0.0, 0.5)], ExecutorConfig(kinematics="differential"))
@example(Pose2(1.0, 2.0, 0.5), [(0.0, 0.0, 2.0)], ExecutorConfig(kinematics="differential"))
@example(Pose2(1.0, 2.0, 0.5), [(0.05, 0.0, 0.5), (0.1, 0.1, 0.5)], ExecutorConfig(kinematics="omnidirectional"))
@example(
    Pose2(0.0, 0.0, 0.0), [(1e-10, 0.0, 0.0), (2.0, 0.0, 1.0)], ExecutorConfig(lookahead=1e-12, kinematics="differential")
)
@example(
    Pose2(0.0, 0.0, 0.0), [(1e-10, 0.0, 0.0), (2.0, 0.0, 1.0)], ExecutorConfig(lookahead=1e-12, kinematics="omnidirectional")
)
# waypoint 0 behind the robot, then a turn in place 0.2 m ahead of it (aimed
# at), the same turn 0.03 m ahead (aimed at too, with the step shortened to
# end on it), and under the robot (searched past); a target 0.46 rad off a
# differential drive's heading (turned to in place)
@example(
    Pose2(0.0, 0.0, 0.0), [(-0.1, 0.0, 0.0), (0.2, 0.0, 0.0), (0.2, 0.0, 1.0), (0.2, 0.4, 1.5)], ExecutorConfig()
)
@example(
    Pose2(0.0, 0.0, 0.0), [(-0.1, 0.0, 0.0), (0.03, 0.0, 0.0), (0.03, 0.0, 1.0), (0.03, 0.4, 1.5)], ExecutorConfig()
)
@example(Pose2(0.0, 0.0, 0.0), [(-0.1, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.4, 1.5)], ExecutorConfig())
@example(Pose2(0.0, 0.0, 0.0), [(0.4, 0.2, 0.0)], ExecutorConfig(kinematics="differential"))
# a straight run east that ends at (0.2, 0), then a bend of 0.126 rad (aimed
# at the run's end), and a run that goes straight on (aimed a lookahead on)
@example(
    Pose2(0.0, 0.0, 0.0),
    [(0.0, 0.0, 0.0), (0.1, 0.0, 0.0), (0.2, 0.0, 0.0), (0.3, 0.0126, 0.126), (0.4, 0.0252, 0.126)],
    ExecutorConfig(),
)
@example(
    Pose2(0.0, 0.0, 0.0),
    [(0.0, 0.0, 0.0), (0.1, 0.0, 0.0), (0.2, 0.0, 0.0), (0.3, 0.0, 0.0), (0.4, 0.0, 0.0)],
    ExecutorConfig(kinematics="differential"),
)
def test_pure_pursuit_matches_array_version(pose, offs, cfg):
    state = RobotState(pose, 0.3, kinematics=cfg.kinematics)
    traj = [Pose2(pose.x + dx, pose.y + dy, h) for dx, dy, h in offs]
    assert command_bits(pure_pursuit(state, traj, cfg)) == command_bits(reference_pure_pursuit(state, traj, cfg))


CAMERA = CameraModel()


@given(
    poses,
    st.one_of(st.floats(-1.5, 1.5), st.sampled_from([0.0, -0.0])),
    st.tuples(st.one_of(coord, st.just(0.0)), st.one_of(coord, st.just(0.0)), st.floats(0.0, 2.0)),
    st.builds(
        ExecutorConfig,
        dt=st.floats(0.01, 1.0),
        tilt_rate=st.floats(0.0, 5.0),
        tilt_limit=st.floats(0.0, 1.5),
        kinematics=st.sampled_from(["omnidirectional", "differential"]),
    ),
)
@settings(max_examples=600, deadline=None)
@example(Pose2(0.0, 0.0, 0.0), 0.2, (0.0, 0.0, 0.5), ExecutorConfig())  # point under the camera: tilt held
@example(Pose2(0.0, 0.0, 0.0), -0.0, (3.0, 0.0, 0.0), ExecutorConfig(tilt_rate=0.0))
def test_tilt_step_matches_clip(pose, tilt, point, cfg):
    state = RobotState(pose, 0.3, tilt=tilt, kinematics=cfg.kinematics)
    assert bits(tilt_step(state, CAMERA, point, cfg)) == bits(reference_tilt_step(state, CAMERA, point, cfg))


def test_terminal_rotation_matches_clip():
    rng = np.random.default_rng(4)
    scene = Scene(bounds=Bounds(4.0, 3.0), walls=[], objects=[])
    for _ in range(400):
        expert = Expert(
            horizon_n=int(rng.integers(1, 20)),
            dt=float(rng.uniform(0.01, 1.0)),
            omega_ref=float(rng.uniform(0.01, 3.0)),
        )
        policy = OraclePolicy(scene=scene, expert=expert)
        heading = float(rng.choice([rng.uniform(-math.pi, math.pi), math.pi, -math.pi, 0.0, -0.0]))
        state = RobotState(Pose2(*rng.uniform(-1.0, 1.0, 2), heading), 0.3)
        goal_heading = float(rng.choice([rng.uniform(-math.pi, math.pi), heading, -heading]))
        goal = Pose2(*rng.uniform(-1.0, 1.0, 2), goal_heading)
        task = mock.Mock(goal_pose=goal)
        got = policy._terminal_rotation(state, task)
        want = reference_terminal_rotation(policy, state, task)
        assert bits([[p.x, p.y, p.heading] for p in got]) == bits([[p.x, p.y, p.heading] for p in want])


# ---------------------------------------------------------------------------
# slotted value types


def constructed(cls, *args):
    """Field types and bits of ``cls(*args)``, or the type and message of what it raised."""
    try:
        value = cls(*args)
    except Exception as err:  # noqa: BLE001 - compared, not swallowed
        return type(err).__name__, str(err)
    fields = [getattr(value, f.name) for f in dataclasses.fields(value)]
    return [type(f).__name__ for f in fields], bits(fields)


numbers = st.one_of(
    st.floats(),
    st.integers(),
    st.sampled_from([math.pi, -math.pi, 3 * math.pi, -0.0, 1e300, -1e300, math.nan, math.inf, -math.inf]),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)


@given(numbers, numbers, numbers)
@settings(max_examples=600, deadline=None)
@example(np.float64(1.5), 2, -math.pi)
@example(-0.0, 1e300, math.pi)
@example(math.nan, math.inf, math.nan)
@example(0, 0, 10**400)
def test_pose2_construction_matches_post_init(x, y, heading):
    assert constructed(Pose2, x, y, heading) == constructed(ReferencePose2, x, y, heading)


step_lengths = st.one_of(
    numbers,
    st.floats(-2e-12, R_MAX + 2e-9),
    st.sampled_from([-1e-12, 0.0, -0.0, R_MAX, R_MAX + 1e-9, math.nextafter(R_MAX + 1e-9, math.inf), -2e-12]),
)


@given(numbers, step_lengths, numbers)
@settings(max_examples=600, deadline=None)
@example(math.pi, 0.1, -math.pi)
@example(-0.0, R_MAX + 1e-9, 2 * math.pi)
@example(np.float64(7.0), np.float32(0.1), 3)
@example(1.0, math.nan, 1.0)
def test_polar_step_construction_matches_post_init(psi, r, phi):
    assert constructed(PolarStep, psi, r, phi) == constructed(ReferencePolarStep, psi, r, phi)


@pytest.mark.parametrize(
    "value, change",
    [
        (Pose2(1.0, -2.0, 3.5), {"heading": 4.0}),
        (PolarStep(1.0, 0.1, -2.0), {"psi": -1.0}),
        (TokenizedStep(1, 2, 3, 0.01, -0.002, 0.0), {"r_res": 0.5}),
    ],
    ids=["Pose2", "PolarStep", "TokenizedStep"],
)
def test_slotted_types_keep_dataclass_behaviour(value, change):
    cls = type(value)
    names = [f.name for f in dataclasses.fields(value)]
    assert cls.__slots__ == tuple(names) and not hasattr(value, "__dict__")
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls and copy == value and hash(copy) == hash(value)
    assert bits([getattr(copy, n) for n in names]) == bits([getattr(value, n) for n in names])
    assert dataclasses.replace(value) == value and dataclasses.replace(value) is not value
    # replace goes through __init__, so a replaced heading or angle is wrapped again
    assert dataclasses.replace(value, **change) == cls(**{**dataclasses.asdict(value), **change})
    assert value != dataclasses.replace(value, **change)
    assert repr(value).startswith(f"{cls.__name__}({names[0]}=")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, names[0], 0.0)
    # a name that is not a field has no slot; depending on the Python
    # version the frozen __setattr__ refuses it as frozen or as a TypeError
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        value.extra = 1.0
    assert not hasattr(value, "extra")


# ---------------------------------------------------------------------------
# labelling without world poses, and keyframes on Python rows


def label_outcome(fn):
    try:
        return [(t.psi_bin, t.r_bin, t.phi_bin, *bits([t.psi_res, t.r_res, t.phi_res])) for t in fn()]
    except OutOfRange as err:
        return str(err)


def reference_label_outcome(fn):
    try:
        return [(*t[:3], *bits(t[3:])) for t in fn()]
    except OutOfRange as err:
        return str(err)


def assert_encoded_labels_match(path, queries):
    for pose, (v_ref, omega_ref), n in queries:
        got = waypoints_from_path(path, pose, n, 0.2, v_ref, omega_ref)
        want = reference_waypoints(path, pose, n, 0.2, v_ref, omega_ref)
        assert bits([[p.x, p.y, p.heading] for p in got]) == bits([[p.x, p.y, p.heading] for p in want])
        assert label_outcome(lambda: encode_trajectory(got)) == reference_label_outcome(
            lambda: reference_encode_trajectory(want)
        )


def assert_keyframes_match(path):
    got, want = resample_keyframes(path), reference_resample_keyframes(path)
    assert bits([[p.x, p.y, p.heading] for p in got]) == bits([[p.x, p.y, p.heading] for p in want])


@given(labelled_paths())
@settings(max_examples=300, deadline=None)
def test_labels_and_keyframes_match_world_pose_chain(case):
    path, queries = case
    assert_encoded_labels_match(path, queries)
    assert_keyframes_match(path)


@pytest.fixture(scope="module")
def planned():
    paths = []
    for seed in (31, 32, 33, 34):
        scene = sample_scene(seed)
        task = sample_task(scene, seed)[0]
        target = scene.object_by_id(task.target_id)
        paths.append(
            plan_with_margin(
                scene, task.start, task.goal_pose, task.robot_radius, target.box.center,
                CostWeights(), [Attempt(PlannerBudget(), seed)],
            )
        )
    return paths


def test_planned_paths_labels_and_keyframes(planned):
    rng = np.random.default_rng(12)
    for path in planned:
        assert_keyframes_match(path)
        keyframes = resample_keyframes(path)
        assert_encoded_labels_match(path, [(p, SPEEDS[0], 12) for p in keyframes])
        rows = path.states[rng.integers(len(path.states), size=20)]
        queries = [
            (Pose2(r[0] + dx, r[1] + dy, r[2] + dh), SPEEDS[i % 4], int(rng.integers(1, 24)))
            for i, (r, (dx, dy, dh)) in enumerate(zip(rows, rng.uniform(-0.1, 0.1, (20, 3))))
        ]
        assert_encoded_labels_match(path, queries)
        middle = keyframes[len(keyframes) // 2]
        labels = Expert().label(path, middle)
        assert label_outcome(lambda: labels) == reference_label_outcome(
            lambda: reference_encode_trajectory(reference_waypoints(path, middle))
        )


# ---------------------------------------------------------------------------
# visibility from cached lattices with the field-of-view short-circuit


def ray_calls(fn):
    """``fn()``, and the origin, directions and box centers (as bits) of each ``_ray_box_entries`` call."""
    calls = []
    inner = scene_module._ray_box_entries

    def record(origin, dirs, centers, halves, cy, sy):
        calls.append((bits(origin), bits(dirs), bits(centers)))
        return inner(origin, dirs, centers, halves, cy, sy)

    with mock.patch.object(scene_module, "_ray_box_entries", record):
        result = fn()
    return result, calls


def assert_views_match(scene, cam, target, hfov, fraction):
    got, got_calls = ray_calls(lambda: visible_from(cam, target, scene, hfov, fraction))
    want, want_calls = ray_calls(lambda: reference_visible_from(cam, target, scene, hfov, fraction))
    assert got is want
    # a short-circuited view casts no ray; any view that casts casts the same rays
    assert got_calls == want_calls or (not got_calls and got is False)
    return got_calls


def _partly_outside_scene():
    bounds = Bounds(6.0, 5.0)
    objects = [
        SceneObject(0, OrientedBox(2.9, 0.0, 0.5, 0.3, 0.4)),  # straddles the right wall
        SceneObject(1, OrientedBox(-1.0, 2.6, 0.8, 0.2, -0.2)),  # straddles the top wall
        SceneObject(2, OrientedBox(-0.5, -0.5, 0.3, 0.3, 1.1)),
        SceneObject(3, OrientedBox(0.6, -1.2, 0.05, 0.9, 2.9)),
    ]
    return Scene(bounds, _room_walls(bounds, 0.1), objects, seed=0)


VIEW_SCENES = [
    sample_scene(3),
    sample_scene(17),
    _partly_outside_scene(),
    # no walls and one object: the target hides nothing, so no ray is cast
    Scene(Bounds(4.0, 4.0), [], [SceneObject(7, OrientedBox(1.0, 0.5, 0.4, 0.2, 0.3))]),
]


@st.composite
def views(draw):
    scene = draw(st.sampled_from(VIEW_SCENES))
    target = draw(st.sampled_from(scene.objects))
    hfov = draw(st.one_of(st.sampled_from([math.pi / 2, 2 * math.pi, 1.0]), st.floats(0.05, 6.0)))
    fraction = draw(st.one_of(st.sampled_from([0.0, 1.0, 0.5, 0.04]), st.floats(0.0, 1.0)))
    b = scene.bounds
    x = draw(st.floats(b.xmin - 1.0, b.xmax + 1.0))
    y = draw(st.floats(b.ymin - 1.0, b.ymax + 1.0))
    heading = draw(st.floats(-math.pi, math.pi))
    kind = draw(st.sampled_from(["random", "on_point", "fov_edge"]))
    if kind != "random":
        # a point of the sampled 5 x 5 lattice, or of a lattice of another size
        lattice = reference_lattice(target.box, draw(st.sampled_from([5, draw(st.integers(1, 7))])))
        px, py = lattice[draw(st.integers(0, len(lattice) - 1))].tolist()
        if kind == "on_point":
            x, y = px, py  # that sight line has length 0
        else:
            # that point's bearing lands on (or within rounding of) one edge of the view
            heading = math.atan2(py - y, px - x) + draw(st.sampled_from([-1.0, 1.0])) * hfov / 2
    return scene, Pose2(x, y, heading), target, hfov, fraction


@given(views())
@settings(max_examples=1000, deadline=None)
def test_visible_from_matches_uncached_casting(view):
    assert_views_match(*view)


def test_visible_from_edge_cases():
    scene = VIEW_SCENES[2]
    target = scene.objects[2]
    lattice = reference_lattice(target.box, 5)
    cams = [Pose2(-2.5, -0.5, 0.0), Pose2(-2.5, -0.5, math.pi), Pose2(*lattice[0].tolist(), 0.3)]
    # each lattice point on either edge of the view
    cams += [
        Pose2(-2.5, -0.5, math.atan2(py + 0.5, px + 2.5) + sign * math.pi / 4)
        for px, py in lattice.tolist()
        for sign in (-1.0, 1.0)
    ]
    for cam in cams:
        for fraction in (0.0, 1.0, 0.5, 1.0 / 25):
            assert_views_match(scene, cam, target, math.pi / 2, fraction)


def test_visible_from_other_object_under_a_cached_id():
    scene = _partly_outside_scene()
    target = scene.objects[2]
    cam = Pose2(-2.5, -0.5, 0.0)
    assert_views_match(scene, cam, target, math.pi / 2, 0.5)
    # the same id on another box, and an equal copy that is not the scene's
    # object (its own box is not skipped, so it hides its own lattice)
    moved = dataclasses.replace(target, box=OrientedBox(0.5, 1.0, 0.3, 0.2, 0.0))
    for other in (moved, dataclasses.replace(target), target):
        for fraction in (0.0, 0.5, 1.0):
            assert_views_match(scene, cam, other, math.pi / 2, fraction)

