"""Keyframe labelling matches the code it replaced bit for bit.

``waypoints_from_path`` computes each step's length and turn only as far as
the horizon reaches instead of re-deriving every remaining step, and ``record_to_dict``
packs each step's fields into a record's columns instead of writing them
through ``dataclasses.asdict``. Then
``planner.label_poses`` labelled every keyframe of a path in one array pass,
with ``codec.encode_steps`` as its quantizer, in place of a
``waypoints_from_path`` -> ``encode_trajectory`` loop per pose; both of those
became wrappers over the array code. The references below are the code they
replaced, with one rule changed in both: of the states tied at the least
distance, a pose projects to the first of those nearest its heading (it was
the first of them all). Floats are compared as uint64 bit patterns, never
with a tolerance.
"""

import base64
import bisect
import json
import math
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amr_navkit.codec import R_MAX, encode_step, encode_steps, encode_trajectory, step_from_pose
from amr_navkit.errors import OffPath, OutOfRange
from amr_navkit.geometry import TWO_PI, Pose2, se2_relative, wrap_angle
from amr_navkit.pipeline import Expert, generate_episode, plan_with_margin, record_to_dict, sample_task
from amr_navkit.planner import (
    Attempt,
    CostWeights,
    PlannedPath,
    PlannerBudget,
    Rotate,
    Translate,
    label_poses,
    resample_keyframes,
    rollout,
    waypoints_from_path,
)
from amr_navkit.scene import sample_scene

SPEEDS = [(0.5, 1.0), (0.2, 0.3), (1.0, 2.5), (0.13, 0.7)]


def projection(states, current):
    """The state ``current`` projects to, and its squared distance: of the
    states at the least squared distance, the first least far in wrapped heading."""
    d2 = (states[:, 0] - current.x) ** 2 + (states[:, 1] - current.y) ** 2
    tied = np.flatnonzero(d2 == d2.min())
    proj = int(tied[np.argmin([abs(wrap_angle(states[i, 2] - current.heading)) for i in tied])])
    return proj, d2[proj]


def reference_waypoints(path, current, n=12, dt=0.2, v_ref=0.5, omega_ref=1.0, max_projection=0.3):
    """``waypoints_from_path`` as it was, walking the remaining path on every call."""
    states = path.states
    proj, d2 = projection(states, current)
    if math.sqrt(d2) > max_projection:
        raise OffPath("off path")
    rem = states[proj:]
    durations = np.empty(max(len(rem) - 1, 0))
    for i in range(len(rem) - 1):
        ds = math.hypot(rem[i + 1, 0] - rem[i, 0], rem[i + 1, 1] - rem[i, 1])
        dh = abs(wrap_angle(rem[i + 1, 2] - rem[i, 2]))
        durations[i] = ds / v_ref if ds > 1e-12 else dh / omega_ref
    tau = np.concatenate([[0.0], np.cumsum(durations)])
    world = []
    for k in range(1, n + 1):
        t = k * dt
        if len(rem) == 1 or t >= tau[-1]:
            world.append(Pose2(*rem[-1]))
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


def bits(poses) -> list[int]:
    return np.array([[p.x, p.y, p.heading] for p in poses], dtype=np.float64).view(np.uint64).ravel().tolist()


def assert_bit_identical(path, poses, speeds=SPEEDS):
    for v_ref, omega_ref in speeds:
        for pose in poses:
            got = waypoints_from_path(path, pose, 12, 0.2, v_ref, omega_ref)
            want = reference_waypoints(path, pose, 12, 0.2, v_ref, omega_ref)
            assert bits(got) == bits(want), (pose, v_ref, omega_ref)


def fresh(path: PlannedPath) -> PlannedPath:
    """The same path without a computed step prefix."""
    return PlannedPath(path.start, path.segments, path.states.copy(), path.cost)


@pytest.fixture(scope="module")
def planned_paths():
    paths = []
    for seed in (11, 12, 13):
        scene = sample_scene(seed)
        task = sample_task(scene, seed)
        target = scene.object_by_id(task.target_id)
        paths.append(
            plan_with_margin(
                scene, task.start, task.goal_pose, task.robot_radius, target.box.center,
                CostWeights(), [Attempt(PlannerBudget(), seed)],
            )
        )
    return paths


def test_planned_paths_at_every_keyframe(planned_paths):
    for path in planned_paths:
        assert_bit_identical(fresh(path), resample_keyframes(path))


def test_planned_paths_off_keyframe(planned_paths):
    rng = np.random.default_rng(5)
    for path in planned_paths:
        rows = path.states[rng.integers(len(path.states), size=25)]
        offsets = rng.uniform(-0.2, 0.2, size=(len(rows), 2))
        poses = [
            Pose2(r[0] + dx, r[1] + dy, r[2] + float(rng.uniform(-1, 1)))
            for r, (dx, dy) in zip(rows, offsets)
        ]
        assert_bit_identical(fresh(path), poses)


def test_pure_rotations():
    start = Pose2(0.5, -0.2, 0.3)
    segs = [Rotate(2.0), Translate(0.4), Rotate(-3.0), Translate(-0.7), Rotate(0.05)]
    path = PlannedPath(start, segs, rollout(start, segs), 0.0)
    lengths, turns = parent_step_slice(path.states, 0, len(path.states) - 1)
    assert (lengths <= 1e-12).sum() > 100 and (lengths > 1e-12).sum() > 100
    poses = [Pose2(*s) for s in path.states[::7]]
    assert_bit_identical(path, poses)


def test_one_state_path():
    start = Pose2(1.0, 2.0, -0.5)
    path = PlannedPath(start, [], rollout(start, []), 0.0)
    assert len(path.states) == 1
    assert all(len(a) == 0 for a in parent_step_slice(path.states, 0, 0))
    assert_bit_identical(path, [start, Pose2(1.1, 2.0, 0.0)])


def test_repeated_calls_in_shuffled_order(planned_paths):
    rng = np.random.default_rng(9)
    path = fresh(planned_paths[0])
    poses = resample_keyframes(path)
    for _ in range(3):
        order = rng.permutation(len(poses))
        assert_bit_identical(path, [poses[i] for i in order], speeds=SPEEDS[:2])


def test_record_columns_hold_each_step_asdict():
    for seed in (21, 22):
        scene = sample_scene(seed)
        task = sample_task(scene, seed)
        record = generate_episode(scene, task, seed=seed)
        columns = record_to_dict(record)["keyframes"]
        bins = np.frombuffer(base64.b64decode(columns["bins"]), "i1").reshape(-1, 3)
        residuals = np.frombuffer(base64.b64decode(columns["residuals"]), "<f8").reshape(-1, 3)
        reference = [asdict(s) for kf in record.keyframes for s in kf.expert_steps]
        assert len(reference) == columns["count"] * columns["horizon"] > 0
        want = np.array([[d["psi_bin"], d["r_bin"], d["phi_bin"]] for d in reference])
        np.testing.assert_array_equal(bins, want)
        want = np.array([[d["psi_res"], d["r_res"], d["phi_res"]] for d in reference])
        np.testing.assert_array_equal(residuals.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# every keyframe in one array pass, against the per-pose scalar chain


def parent_step_slice(states, lo, hi):
    """Length and absolute turn of state pairs lo..hi-1, one pair at a time."""
    rows = states[lo:hi + 1].tolist()
    lengths, turns = [], []
    for (x0, y0, h0), (x1, y1, h1) in zip(rows, rows[1:]):
        lengths.append(math.hypot(x1 - x0, y1 - y0))
        turns.append(abs(wrap_angle(h1 - h0)))
    return np.array(lengths, dtype=float), np.array(turns, dtype=float)


def parent_waypoints(path, current, n=12, dt=0.2, v_ref=0.5, omega_ref=1.0, max_projection=0.3):
    """``waypoints_from_path`` as it was: a doubling window, then a Python loop per sample."""
    if not (0 < v_ref < math.inf and 0 < omega_ref < math.inf):
        raise ValueError("v_ref and omega_ref must be finite and positive")
    if not 0 < dt < math.inf:
        raise ValueError("dt must be finite and positive")
    if v_ref * dt > 0.2 + 1e-12:
        raise ValueError("v_ref * dt must not exceed the 0.2 m step range")
    states = path.states
    proj, d2 = projection(states, current)
    if math.sqrt(d2) > max_projection:
        raise OffPath(f"pose projects {math.sqrt(d2):.3f} m from the path")
    last, horizon, chunk = len(states) - 1, n * dt, 160
    while True:
        end = min(proj + chunk, last)
        ds, dh = parent_step_slice(states, proj, end)
        durations = np.where(ds > 1e-12, ds / v_ref, dh / omega_ref)
        tau = np.concatenate([[0.0], np.cumsum(durations)])
        if end == last or tau[-1] > horizon:
            break
        chunk *= 2
    rem = states[proj:end + 1]
    tau = tau.tolist()
    steps = []
    px, py, ph = current.x, current.y, current.heading
    for k in range(1, n + 1):
        t = k * dt
        if len(rem) == 1 or t >= tau[-1]:
            x, y, h = rem[-1].tolist()
        else:
            i = bisect.bisect_right(tau, t)
            f = (t - tau[i - 1]) / (tau[i] - tau[i - 1])
            (x0, y0, h0), (x1, y1, h1) = rem[i - 1:i + 1].tolist()
            x, y, h = x0 + f * (x1 - x0), y0 + f * (y1 - y0), h0 + f * wrap_angle(h1 - h0)
        h = wrap_angle(h)
        c, s = math.cos(ph), math.sin(ph)
        dx, dy = x - px, y - py
        steps.append(Pose2(c * dx + s * dy, -s * dx + c * dy, h - ph))
        px, py, ph = x, y, h
    return steps


def parent_encode_trajectory(waypoints):
    return [encode_step(step_from_pose(rel)) for rel in waypoints]


def parent_labels(path, poses, n=12, dt=0.2, v_ref=0.5, omega_ref=1.0):
    return [parent_encode_trajectory(parent_waypoints(path, p, n, dt, v_ref, omega_ref)) for p in poses]


def token_bits(tokens):
    return [
        (t.psi_bin, t.r_bin, t.phi_bin, *np.array([t.psi_res, t.r_res, t.phi_res]).view(np.uint64).tolist())
        for t in tokens
    ]


def outcome(fn, per_entry):
    """What ``fn()`` returns, as bits, or the type and message of what it raises."""
    try:
        return [per_entry(v) for v in fn()]
    except (OffPath, OutOfRange, ValueError) as err:
        return type(err).__name__, str(err)


def assert_labels_match(path, poses, n=12, dt=0.2, v_ref=0.5, omega_ref=1.0):
    """One array pass, and one pass per pose, label (or fail) as the scalar chain does."""
    want = outcome(lambda: parent_labels(path, poses, n, dt, v_ref, omega_ref), token_bits)
    assert outcome(lambda: label_poses(path, poses, n, dt, v_ref, omega_ref), token_bits) == want
    for pose in poses:
        assert outcome(lambda: label_poses(path, [pose], n, dt, v_ref, omega_ref), token_bits) == outcome(
            lambda: parent_labels(path, [pose], n, dt, v_ref, omega_ref), token_bits
        )
        assert outcome(lambda: waypoints_from_path(path, pose, n, dt, v_ref, omega_ref), bits_of) == outcome(
            lambda: parent_waypoints(path, pose, n, dt, v_ref, omega_ref), bits_of
        )
    return want


def bits_of(pose):
    return tuple(np.array([pose.x, pose.y, pose.heading]).view(np.uint64).tolist())


coord = st.floats(-5.0, 5.0, allow_nan=False)
tiny = st.floats(-1e-12, 1e-12, allow_nan=False)
segment_lists = st.lists(
    st.one_of(
        st.builds(Rotate, st.one_of(st.floats(-7.0, 7.0), tiny, st.just(0.0))),
        st.builds(Translate, st.one_of(st.floats(-3.0, 3.0), tiny, st.just(0.0))),
    ),
    max_size=6,
)


@st.composite
def label_cases(draw):
    """A rolled-out path (zero and tiny segments give duplicate states) and
    poses on states, near them, and too far from the path or its first step."""
    start = Pose2(draw(coord), draw(coord), draw(st.floats(-math.pi, math.pi)))
    segs = draw(segment_lists)
    path = PlannedPath(start, segs, rollout(start, segs), 0.0)
    last = len(path.states) - 1
    poses = []
    for _ in range(draw(st.integers(1, 12))):
        x, y, h = path.states[draw(st.one_of(st.integers(0, last), st.just(last), st.just(0)))].tolist()
        kind = draw(st.sampled_from(["on", "on", "near", "far"]))
        if kind == "on":
            poses.append(Pose2(x, y, h))
        else:
            reach = 0.1 if kind == "near" else 0.5
            dx, dy = draw(st.floats(-reach, reach)), draw(st.floats(-reach, reach))
            poses.append(Pose2(x + dx, y + dy, h + draw(st.floats(-1.0, 1.0))))
    return path, poses, draw(st.sampled_from(SPEEDS)), draw(st.integers(1, 24))


@given(label_cases())
@settings(max_examples=250, deadline=None)
def test_one_pass_matches_the_per_pose_chain(case):
    path, poses, (v_ref, omega_ref), n = case
    assert_labels_match(fresh(path), poses, n, 0.2, v_ref, omega_ref)


def test_one_pass_pure_rotations_and_one_state_path():
    start = Pose2(0.5, -0.2, 0.3)
    segs = [Rotate(2.0), Rotate(-3.0), Rotate(0.05), Rotate(-6.5)]
    path = PlannedPath(start, segs, rollout(start, segs), 0.0)
    poses = [Pose2(*s) for s in path.states[::9]] + [Pose2(0.55, -0.2, 1.0)]
    for v_ref, omega_ref in SPEEDS:
        assert_labels_match(fresh(path), poses, 12, 0.2, v_ref, omega_ref)
    one = PlannedPath(start, [], rollout(start, []), 0.0)
    for v_ref, omega_ref in SPEEDS:
        assert_labels_match(one, [start, Pose2(0.6, -0.2, 0.0), start], 12, 0.2, v_ref, omega_ref)


def test_one_pass_duplicate_states():
    """Zero-duration pairs: repeated rows, at the start, inside and at the end."""
    start = Pose2(0.0, 0.0, 0.4)
    segs = [Translate(0.3), Rotate(0.5), Translate(-0.2)]
    rows = rollout(start, segs)
    states = np.concatenate([rows[:1], rows[:5], rows[5:6], rows[5:40], rows[39:], rows[-1:], rows[-1:]])
    path = PlannedPath(start, segs, states, 0.0)
    lengths, turns = parent_step_slice(states, 0, len(states) - 1)
    assert ((lengths == 0) & (turns == 0)).sum() >= 4
    poses = [Pose2(*s) for s in states[::3]] + [Pose2(*states[-1])]
    for v_ref, omega_ref in SPEEDS:
        assert_labels_match(fresh(path), poses, 12, 0.2, v_ref, omega_ref)


def test_one_pass_horizon_past_the_first_window():
    start = Pose2(-2.0, 1.0, 0.0)
    segs = [Translate(3.0), Rotate(-1.0), Translate(2.0)]
    path = PlannedPath(start, segs, rollout(start, segs), 0.0)
    # at 1 m/s, 160 one-centimetre steps last 1.6 s: a 24-step horizon (4.8 s) outgrows it twice
    ds, dh = parent_step_slice(path.states, 0, 160)
    assert np.where(ds > 1e-12, ds / 1.0, dh / 2.5).sum() < 24 * 0.2 / 2
    poses = [Pose2(*s) for s in path.states[::37]]
    assert_labels_match(fresh(path), poses, 24, 0.2, 1.0, 2.5)
    assert_labels_match(fresh(path), poses[:1], 24, 0.2, 1.0, 2.5)


def test_one_pass_revisited_positions_project_to_the_nearest_heading():
    """A path that comes back over its own states exactly: distances tie, and
    the projection is the first of the tied states nearest in heading, so a
    pose on the way back labels the way back."""
    start = Pose2(1.0, 1.0, 0.7)
    out = rollout(start, [Translate(0.8)])
    back = out[::-1].copy()
    back[:, 2] = wrap_angle(0.7 + math.pi)
    states = np.concatenate([out, back, out[1:]])
    path = PlannedPath(start, [], states, 0.0)
    poses = [Pose2(*s) for s in states[len(out):][::11]]
    poses += [Pose2(s[0] + 0.01, s[1] - 0.02, s[2]) for s in out[::17]]
    for v_ref, omega_ref in SPEEDS:
        assert_labels_match(fresh(path), poses, 12, 0.2, v_ref, omega_ref)


def test_one_pass_planned_paths_every_keyframe_and_off_it(planned_paths):
    rng = np.random.default_rng(17)
    for path in planned_paths:
        keyframes = resample_keyframes(path)
        rows = path.states[rng.integers(len(path.states), size=20)]
        off = [Pose2(r[0] + dx, r[1] + dy, r[2] + dh) for r, (dx, dy, dh) in zip(rows, rng.uniform(-0.1, 0.1, (20, 3)))]
        for v_ref, omega_ref in SPEEDS[:2]:
            want = assert_labels_match(fresh(path), keyframes, 12, 0.2, v_ref, omega_ref)
            assert isinstance(want, list) and len(want) == len(keyframes) > 20
        assert_labels_match(fresh(path), off, 12, 0.2, *SPEEDS[3])
        for pose in keyframes[::5]:
            got = Expert().label(fresh(path), pose)
            assert token_bits(got) == token_bits(parent_labels(path, [pose])[0])


def test_one_pass_raises_for_the_first_bad_pose_in_order():
    start = Pose2(0.0, 0.0, 0.0)
    path = PlannedPath(start, [Translate(2.0)], rollout(start, [Translate(2.0)]), 0.0)
    on, long_step, off = Pose2(0.5, 0.0, 0.0), Pose2(1.0, 0.25, 0.0), Pose2(1.0, 0.5, 0.0)
    first_long = outcome(lambda: parent_labels(path, [long_step]), token_bits)
    first_off = outcome(lambda: parent_labels(path, [off]), token_bits)
    assert first_long[0] == "OutOfRange" and first_off[0] == "OffPath"
    for poses in ([on, long_step, off], [on, off, long_step], [off, on], [long_step], [on, on, off]):
        assert assert_labels_match(fresh(path), poses) in (first_long, first_off)
    for v_ref, omega_ref, dt in [(0.0, 1.0, 0.2), (0.5, math.inf, 0.2), (0.5, 1.0, 0.0), (1.5, 1.0, 0.2)]:
        want = outcome(lambda: parent_labels(path, [on], 12, dt, v_ref, omega_ref), token_bits)
        assert want[0] == "ValueError"
        assert outcome(lambda: label_poses(path, [on, off], 12, dt, v_ref, omega_ref), token_bits) == want


class ReferenceExpert(Expert):
    """The expert with the per-pose scalar labelling chain."""

    def labels(self, path, poses):
        return parent_labels(path, poses, self.horizon_n, self.dt, self.v_ref, self.omega_ref)


def test_record_bytes_match_the_reference_labeller():
    for seed in (41, 42, 43):
        scene = sample_scene(seed)
        task = sample_task(scene, seed)
        got = record_to_dict(generate_episode(scene, task, seed=seed))
        want = record_to_dict(generate_episode(scene, task, expert=ReferenceExpert(), seed=seed))
        assert got["keyframes"]["count"] > 5
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


# ---------------------------------------------------------------------------
# the array quantizer against encode_step(step_from_pose(.))

TOP = math.nextafter(TWO_PI, 0.0)  # 2 pi - ulp
component = st.one_of(
    st.floats(-0.25, 0.25),
    st.sampled_from([0.0, -0.0, R_MAX, -R_MAX, R_MAX + 1e-9, math.nextafter(R_MAX + 1e-9, 1.0), 1e-13, -1e-300]),
)
angle = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, TOP, -TOP, TWO_PI, -1e-300, 1e-300, math.pi, -math.pi, math.nan, math.inf]),
)


def reference_steps(x, y, heading):
    return [encode_step(step_from_pose(SimpleNamespace(x=a, y=b, heading=h))) for a, b, h in zip(x, y, heading)]


@given(st.lists(st.tuples(component, component, angle), max_size=30))
@settings(max_examples=400, deadline=None)
@example([(0.0, 0.0, 0.0), (R_MAX, 0.0, TOP), (0.0, -R_MAX, -0.0), (0.1, -0.0, -1e-300)])
@example([(R_MAX + 1e-9, 0.0, 0.0), (-0.1, -1e-300, TOP), (0.1, -1e-300, TWO_PI)])
@example([(0.1, 0.0, 0.0), (math.nextafter(R_MAX + 1e-9, 1.0), 0.0, 0.0), (0.0, 0.0, math.nan)])
@example([(0.1, 0.0, math.inf), (0.3, 0.0, 0.0)])
@example([(math.nan, 0.0, 0.0)])
def test_quantizer_matches_scalar_encoder(steps):
    x, y, h = ([s[i] for s in steps] for i in range(3))
    want = outcome(lambda: reference_steps(x, y, h), lambda t: token_bits([t])[0])
    assert outcome(lambda: encode_steps(x, y, h), lambda t: token_bits([t])[0]) == want
    assert outcome(lambda: encode_steps(np.array(x), np.array(y), np.array(h)), lambda t: token_bits([t])[0]) == want
    if not all(map(math.isfinite, x + y + h)):
        # a non-finite delta never reaches encode_trajectory: Pose2 refuses it
        with pytest.raises(ValueError, match="^Pose2 (x|y|heading) must be finite"):
            [Pose2(*s) for s in steps]
        return
    poses = [Pose2(*s) for s in steps]
    assert outcome(lambda: encode_trajectory(poses), lambda t: token_bits([t])[0]) == outcome(
        lambda: parent_encode_trajectory(poses), lambda t: token_bits([t])[0]
    )


def test_quantizer_edges():
    x = [0.0, R_MAX, R_MAX + 1e-9, 0.1, 0.05]
    y = [0.0, 0.0, 0.0, -1e-300, -0.0]
    h = [-0.0, TOP, TWO_PI, -1e-300, 0.5]
    tokens = encode_steps(x, y, h)
    assert token_bits(tokens) == token_bits(reference_steps(x, y, h))
    # the top bins are clamped: r at R_MAX (and 1e-9 past it), phi at 2 pi - ulp,
    # and psi and phi that wrap to 2 pi; 2 pi itself wraps to 0
    assert [t.r_bin for t in tokens[:3]] == [0, 31, 31]
    assert [t.phi_bin for t in tokens[:4]] == [0, 11, 0, 11] and tokens[3].psi_bin == 29
    assert encode_steps([], [], []) == []
    with pytest.raises(OutOfRange, match="outside"):
        encode_steps([math.nextafter(R_MAX + 1e-9, 1.0)], [0.0], [0.0])
