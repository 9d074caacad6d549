"""The cone-culled, batched LiDAR raycast gives exactly the ranges of testing
every ray against every box, one scan at a time.

``raycast_scans`` tests a ray against a box only when it lies within one ray
spacing of the hull of the box's corner bearings, and casts up to a chunk of
scans per batch; sight lines (``_ray_box_entries``) share its slab test. The
references below are the per-scan all-pairs code they replaced. Ranges are
compared as uint64 bit patterns, never with a tolerance.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amr_navkit.geometry import OrientedBox, Pose2
from amr_navkit.scene import (
    _SCAN_CHUNK,
    Bounds,
    Scene,
    SceneObject,
    _ray_box_entries,
    _room_walls,
    raycast_lidar,
    raycast_scans,
    sample_scene,
)

# ---------------------------------------------------------------------------
# references: the code as it was


def reference_ray_box_entries(origin, dirs, centers, halves, cy, sy):
    """Entry distance of each ray into each box, +inf for misses; (K, B)."""
    rel = origin[None, :] - centers  # (B, 2)
    ox = rel[:, 0] * cy + rel[:, 1] * sy
    oy = -rel[:, 0] * sy + rel[:, 1] * cy
    dx = dirs[:, 0][:, None] * cy[None, :] + dirs[:, 1][:, None] * sy[None, :]
    dy = -dirs[:, 0][:, None] * sy[None, :] + dirs[:, 1][:, None] * cy[None, :]

    with np.errstate(divide="ignore", invalid="ignore"):
        t1x = (-halves[:, 0][None, :] - ox[None, :]) / dx
        t2x = (halves[:, 0][None, :] - ox[None, :]) / dx
        t1y = (-halves[:, 1][None, :] - oy[None, :]) / dy
        t2y = (halves[:, 1][None, :] - oy[None, :]) / dy
    par_x = np.abs(dx) < 1e-15
    in_x = np.abs(ox)[None, :] <= halves[:, 0][None, :]
    lo_x = np.where(par_x, np.where(in_x, -np.inf, np.inf), np.minimum(t1x, t2x))
    hi_x = np.where(par_x, np.where(in_x, np.inf, -np.inf), np.maximum(t1x, t2x))
    par_y = np.abs(dy) < 1e-15
    in_y = np.abs(oy)[None, :] <= halves[:, 1][None, :]
    lo_y = np.where(par_y, np.where(in_y, -np.inf, np.inf), np.minimum(t1y, t2y))
    hi_y = np.where(par_y, np.where(in_y, np.inf, -np.inf), np.maximum(t1y, t2y))

    tmin = np.maximum(lo_x, lo_y)
    tmax = np.minimum(hi_x, hi_y)
    hit = (tmax >= tmin) & (tmax > 0)
    return np.where(hit, np.maximum(tmin, 0.0), np.inf)


def reference_raycast(scene, pose, num_rays=360, max_range=10.0):
    """One scan, every ray against every box."""
    centers, halves, cy, sy = scene._box_params
    angles = pose.heading + np.arange(num_rays) * (2.0 * math.pi / num_rays)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    origin = np.array([pose.x, pose.y])
    if centers.size:
        ranges = reference_ray_box_entries(origin, dirs, centers, halves, cy, sy).min(axis=1)
    else:
        ranges = np.full(num_rays, np.inf)
    return np.minimum(ranges, max_range)


def bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def assert_same_scans(scene, poses, num_rays=360, max_range=10.0):
    got = raycast_scans(scene, poses, num_rays, max_range)
    want = np.array([reference_raycast(scene, p, num_rays, max_range) for p in poses])
    assert got.shape == (len(poses), num_rays)
    assert np.array_equal(bits(got), bits(want.reshape(got.shape)))
    for p, row in zip(poses[:2], want):
        assert np.array_equal(bits(raycast_lidar(scene, p, num_rays, max_range).ranges), bits(row))
    return got


# ---------------------------------------------------------------------------
# scenes and poses

ROTATED = OrientedBox(1.3, -0.7, 0.6, 0.25, 0.4)
# every corner and face offset of this box is exact in binary
AXIS = OrientedBox(-1.5, 1.0, 0.5, 0.25, 0.0)


@lru_cache(maxsize=None)
def scene_for(kind: int) -> Scene:
    if kind == 0:  # walls only
        return Scene(Bounds(8.0, 6.0), _room_walls(Bounds(8.0, 6.0), 0.1), [], seed=0)
    if kind == 1:  # nothing at all
        return Scene(Bounds(8.0, 6.0), [], [], seed=0)
    if kind == 2:  # axis-aligned walls, one rotated and one axis-aligned box
        objects = [SceneObject(0, ROTATED), SceneObject(1, AXIS)]
        return Scene(Bounds(8.0, 6.0), _room_walls(Bounds(8.0, 6.0), 0.1), objects, seed=0)
    return sample_scene(kind)


SCENES = (0, 1, 2, 3, 8, 14, 27, 40)
NUM_RAYS = st.sampled_from([1, 2, 3, 360, 1024])
UNIT = st.floats(0.0, 1.0)


@st.composite
def room_poses(draw, scene: Scene, heading=None):
    """Poses anywhere in the room and a little beyond, in or out of boxes."""
    b = scene.bounds
    x = b.xmin - 0.2 + draw(UNIT) * (b.w + 0.4)
    y = b.ymin - 0.2 + draw(UNIT) * (b.h + 0.4)
    return Pose2(x, y, draw(st.floats(-math.pi, math.pi)) if heading is None else heading)


def box_local(box: OrientedBox, u: float, v: float) -> tuple[float, float]:
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    return box.cx + c * u - s * v, box.cy + s * u + c * v


@st.composite
def box_poses(draw, box: OrientedBox):
    """Origins at a corner, on a face, inside (near a face or not) and just
    outside a corner of ``box``."""
    kind = draw(st.sampled_from(["corner", "face", "inside", "near_corner"]))
    sx, sy = draw(st.sampled_from([-1.0, 1.0])), draw(st.sampled_from([-1.0, 1.0]))
    heading = draw(st.floats(-math.pi, math.pi))
    if kind == "corner":
        x, y = box.corners()[draw(st.integers(0, 3))]
    elif kind == "face":
        t = 2 * draw(UNIT) - 1
        on_x_face = draw(st.booleans())
        x, y = box_local(box, sx * box.hx, t * box.hy) if on_x_face else box_local(box, t * box.hx, sy * box.hy)
    elif kind == "inside":
        depth = draw(st.sampled_from([1e-9, 1e-6, 1e-3, 0.5]))
        x, y = box_local(box, sx * box.hx * (1 - depth), (2 * draw(UNIT) - 1) * box.hy)
    else:
        gap = draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]))
        x, y = box_local(box, sx * (box.hx + gap * draw(UNIT)), sy * (box.hy + gap * draw(UNIT)))
    return Pose2(x, y, heading)


# ---------------------------------------------------------------------------


class TestRaycastEquivalence:
    @given(st.data(), st.sampled_from(SCENES), NUM_RAYS, st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_sampled_scenes_and_poses(self, data, kind, num_rays, k):
        scene = scene_for(kind)
        poses = data.draw(st.lists(room_poses(scene), min_size=k, max_size=k))
        assert_same_scans(scene, poses, num_rays)

    @given(st.data(), st.sampled_from((0, 2, 3)), st.integers(-2, 2), st.sampled_from([4, 8, 360, 1024]))
    @settings(max_examples=60, deadline=None)
    def test_axis_headings_take_the_parallel_branch(self, data, kind, quarter, num_rays):
        """Headings at k*pi/2 cast rays exactly along axis-aligned walls."""
        scene = scene_for(kind)
        heading = quarter * math.pi / 2
        poses = data.draw(st.lists(room_poses(scene, heading), min_size=1, max_size=4))
        assert_same_scans(scene, poses, num_rays)

    @given(st.data(), st.sampled_from([ROTATED, AXIS]), NUM_RAYS)
    @settings(max_examples=300, deadline=None)
    def test_origins_at_and_near_a_box(self, data, box, num_rays):
        poses = data.draw(st.lists(box_poses(box), min_size=1, max_size=3))
        assert_same_scans(scene_for(2), poses, num_rays)

    @pytest.mark.parametrize("box", [ROTATED, AXIS], ids=["rotated", "axis"])
    def test_corner_face_and_inside_origins(self, box):
        poses = [Pose2(x, y, h) for x, y in box.corners() for h in (0.0, math.pi / 2, -math.pi, 0.3)]
        poses += [Pose2(*box_local(box, box.hx, 0.0), 0.1)]
        poses += [Pose2(*box_local(box, 0.2 * box.hx, -box.hy), 2.0)]
        poses += [Pose2(*box_local(box, box.hx + 1e-9, box.hy + 1e-9), 0.7)]
        for num_rays in (1, 2, 3, 360, 1024):
            assert_same_scans(scene_for(2), poses, num_rays)
        inside = [Pose2(box.cx, box.cy, 0.2), Pose2(*box_local(box, box.hx - 1e-9, 0.0), -1.0)]
        assert not assert_same_scans(scene_for(2), inside).any()

    def test_rays_along_the_hull_edge(self):
        """From a corner of AXIS, or in line with one of its faces, the rays
        along the face graze it and hit: they lie exactly on the hull of the
        corner bearings, so the cone must keep its edge rays."""
        b = AXIS
        poses = [Pose2(x, y, 0.0) for x, y in b.corners()]
        for sx in (-1.0, 1.0):
            for sy in (-1.0, 1.0):
                poses.append(Pose2(b.cx + sx * (b.hx + 0.25), b.cy + sy * b.hy, 0.0))
                poses.append(Pose2(b.cx + sx * b.hx, b.cy + sy * (b.hy + 0.25), 0.0))
        for num_rays in (4, 360, 1024):
            got = assert_same_scans(scene_for(2), poses, num_rays)
            along = got[:, :: num_rays // 4]  # rays at 0, pi/2, pi and -pi/2
            # two grazing rays from each corner, one from each point in line with a face
            assert (along[:4] == 0.0).sum(axis=1).tolist() == [2] * 4
            assert (along[4:] == 0.25).sum(axis=1).tolist() == [1] * 8

    def test_empty_scene_reads_max_range(self):
        got = assert_same_scans(scene_for(1), [Pose2(0.0, 0.0, 0.0), Pose2(1.0, 2.0, 3.0)], 7, 4.5)
        assert (got == 4.5).all()

    def test_max_range_below_nearest_hit(self):
        scene = scene_for(2)
        got = assert_same_scans(scene, [Pose2(0.0, 0.0, 0.0), Pose2(-3.0, 2.0, 1.0)], 360, 0.05)
        assert (got == 0.05).all()

    @pytest.mark.parametrize("count", [0, 1, _SCAN_CHUNK, _SCAN_CHUNK + 1, 40])
    def test_batches_across_the_chunk_boundary(self, count):
        scene = sample_scene(8)
        rng = np.random.default_rng(count)
        b = scene.bounds
        poses = [
            Pose2(rng.uniform(b.xmin, b.xmax), rng.uniform(b.ymin, b.ymax), rng.uniform(-math.pi, math.pi))
            for _ in range(count)
        ]
        assert_same_scans(scene, poses)


class TestSightLineKernel:
    @given(
        st.sampled_from((0, 2, 3, 14)),
        st.tuples(st.floats(-5, 5), st.floats(-4, 4)),
        st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_entries_equal_reference(self, kind, origin, angles):
        centers, halves, cy, sy = scene_for(kind)._box_params
        a = np.array(origin)
        ang = np.array(angles + [0.0, math.pi / 2, -math.pi])
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        got = _ray_box_entries(a, dirs, centers, halves, cy, sy)
        # the reference warns when a subnormal direction component overflows a
        # quotient it then discards; the values are the same either way
        with np.errstate(over="ignore"):
            want = reference_ray_box_entries(a, dirs, centers, halves, cy, sy)
        assert np.array_equal(bits(got), bits(want))
