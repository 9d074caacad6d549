"""Procedural 2D scenes, collision queries, LiDAR raycasting, and kinematics.

A scene is a rectangular room (centered on the origin) enclosed by four
wall boxes plus a set of oriented-box obstacles, some of which are eligible
navigation targets. The robot is a disc; touching an obstacle boundary is
not a collision (free space is closed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Annotated

import numpy as np

from .errors import AT_LEAST_1, NON_NEGATIVE, POSITIVE, GenerationFailed, InvalidCommand, check_ranges
from .geometry import OrientedBox, Pose2, rot2, wrap_angle

KINEMATICS_KINDS = ("differential", "omnidirectional")

_CATEGORIES = (
    "table", "chair", "couch", "shelf", "cabinet", "drawers", "picture", "unlabeled",
)


@dataclass(frozen=True)
class SceneObject:
    """An obstacle with a footprint box and the height of its lowest vertex."""

    id: int
    box: OrientedBox
    base_height: float = 0.0
    category: str = "unlabeled"
    target_eligible: bool = True


@dataclass(frozen=True)
class Bounds:
    """Axis-aligned room rectangle of size w x h centered on the origin."""

    w: float
    h: float

    @property
    def xmin(self) -> float:
        return -self.w / 2

    @property
    def xmax(self) -> float:
        return self.w / 2

    @property
    def ymin(self) -> float:
        return -self.h / 2

    @property
    def ymax(self) -> float:
        return self.h / 2


@dataclass
class Scene:
    """Immutable-after-construction scene; queries are reentrant."""

    bounds: Bounds
    walls: list[OrientedBox]
    objects: list[SceneObject]
    seed: int = 0

    def __post_init__(self):
        ids = [o.id for o in self.objects]
        if len(ids) != len(set(ids)):
            raise ValueError("object ids must be unique within a scene")

    @cached_property
    def _box_params(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(centers (B,2), half-extents (B,2), cos yaw (B,), sin yaw (B,)) over walls+objects."""
        boxes = self.walls + [o.box for o in self.objects]
        centers = np.array([[b.cx, b.cy] for b in boxes]).reshape(-1, 2)
        halves = np.array([[b.hx, b.hy] for b in boxes]).reshape(-1, 2)
        yaws = np.array([b.yaw for b in boxes])
        return centers, halves, np.cos(yaws), np.sin(yaws)

    @cached_property
    def _box_rows(self) -> list[tuple[float, float, float, float, float, float]]:
        """``_box_params`` as one (cx, cy, hx, hy, cos yaw, sin yaw) tuple of Python floats per box."""
        centers, halves, cy, sy = self._box_params
        return list(zip(*centers.T.tolist(), *halves.T.tolist(), cy.tolist(), sy.tolist()))

    @cached_property
    def _views(self) -> dict:
        """``visible_from``'s lattices and occluders, by object id; see ``_target_view``."""
        return {}

    @cached_property
    def _certificates(self) -> dict:
        """``certified_disconnected``'s component labels by radius, each built on its first call there."""
        return {}

    def object_by_id(self, object_id: int) -> SceneObject:
        for o in self.objects:
            if o.id == object_id:
                return o
        raise KeyError(f"no object with id {object_id}")

    def target_objects(self) -> list[SceneObject]:
        return [o for o in self.objects if o.target_eligible]


@dataclass(frozen=True)
class RobotState:
    """Disc robot state: base pose, footprint radius, camera tilt, and drive
    type, one of ``KINEMATICS_KINDS`` (``ExecutorConfig`` checks the setting)."""

    pose: Pose2
    radius: float
    tilt: float = 0.0
    kinematics: str = "differential"

    def __post_init__(self):
        if not 0.1 <= self.radius <= 0.5:
            raise ValueError(f"radius {self.radius} outside [0.1, 0.5]")


@dataclass(frozen=True)
class LidarScan:
    """One 360-degree range scan; ray k points at heading + 2*pi*k/num_rays."""

    num_rays: int
    ranges: np.ndarray
    max_range: float

    def __post_init__(self):
        object.__setattr__(self, "ranges", np.asarray(self.ranges, dtype=float))
        if self.ranges.shape != (self.num_rays,):
            raise ValueError("ranges length must equal num_rays")


# velocity commands, one flavor per kinematics kind

@dataclass(frozen=True)
class DiffDrive:
    v: float
    omega: float


@dataclass(frozen=True)
class OmniDrive:
    """World-frame planar velocity plus yaw rate (translation is straight)."""

    vx: float
    vy: float
    omega: float


Command = DiffDrive | OmniDrive


@dataclass(frozen=True)
class SpeedLimits:
    v_max: float = 1.5
    omega_max: float = 3.0


def command_speed(cmd: Command) -> float:
    if isinstance(cmd, OmniDrive):
        return math.hypot(cmd.vx, cmd.vy)
    return abs(cmd.v)


def command_omega(cmd: Command) -> float:
    return abs(cmd.omega)


# ---------------------------------------------------------------------------
# collision queries


def obstacle_distances(scene: Scene, points: np.ndarray) -> np.ndarray:
    """Distance from each point (n, 2) to the nearest box surface or room edge.

    Points inside a box get distance 0; points outside the room get the
    (negative) margin by which they exceed the bounds.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    centers, halves, cy, sy = scene._box_params
    d = pts[:, None, :] - centers[None, :, :]
    lx = d[:, :, 0] * cy + d[:, :, 1] * sy
    ly = -d[:, :, 0] * sy + d[:, :, 1] * cy
    ex = np.maximum(np.abs(lx) - halves[None, :, 0], 0.0)
    ey = np.maximum(np.abs(ly) - halves[None, :, 1], 0.0)
    box_dist = np.sqrt(ex * ex + ey * ey).min(axis=1) if centers.size else np.full(len(pts), np.inf)
    b = scene.bounds
    edge_dist = np.minimum.reduce(
        [pts[:, 0] - b.xmin, b.xmax - pts[:, 0], pts[:, 1] - b.ymin, b.ymax - pts[:, 1]]
    )
    return np.minimum(box_dist, edge_dist)


def collision_mask(scene: Scene, points: np.ndarray, radius: float) -> np.ndarray:
    """Boolean collision verdict for discs of the given radius at each point."""
    return obstacle_distances(scene, points) < radius


def _point_distance(scene: Scene, x: float, y: float) -> float:
    """``obstacle_distances`` of one point, in scalar Python.

    The same elementwise operations on the same floats, without numpy's
    per-call overhead. A minimum of non-NaN values is exact in any order,
    and sqrt is monotone, so the root of the least squared box distance is
    the least box distance.
    """
    best = math.inf
    for cx, cy, hx, hy, c, s in scene._box_rows:
        dx, dy = x - cx, y - cy
        ex = abs(dx * c + dy * s) - hx
        ey = abs(-dx * s + dy * c) - hy
        if ex < 0.0:
            ex = 0.0
        if ey < 0.0:
            ey = 0.0
        q = ex * ex + ey * ey
        if q < best:
            best = q
    b = scene.bounds
    return min(math.sqrt(best), x - b.xmin, b.xmax - x, y - b.ymin, b.ymax - y)


def collision_check(scene: Scene, pose: Pose2, radius: float) -> bool:
    """True iff a disc at the pose intersects any box or exits the room.

    A disc exactly tangent to a face (distance == radius) is free.
    """
    return _point_distance(scene, pose.x, pose.y) < radius


def clearance(scene: Scene, pose: Pose2, radius: float) -> float:
    """Signed clearance between the robot footprint and the nearest obstacle."""
    return _point_distance(scene, pose.x, pose.y) - radius


# corner k of a box is (_CORNER_SIGNS[0, k] * hx, _CORNER_SIGNS[1, k] * hy)
_CORNER_SIGNS = np.array([[-1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0]])[:, :, None, None]


def _segment_box_distances(
    p0: np.ndarray, p1: np.ndarray, centers, halves, cy, sy
) -> np.ndarray:
    """Exact distance from each segment p0->p1 (E, 2) to each box; (E, B).

    In box-local coordinates the box is an axis-aligned rectangle. A segment
    that crosses it is at distance 0; otherwise the closest pair involves a
    segment endpoint or a rectangle corner (Ericson, Real-Time Collision
    Detection, ch. 5).

    x and y are separate (E, B) planes and endpoints, corners and clip axes
    are stacked on a leading axis: at these sizes a numpy reduction over a
    short trailing axis costs ten elementwise ops.
    """
    h = halves.T[:, None, :]  # (2, 1, B): x, y
    # np.array, not np.stack: same values, a quarter of the call overhead
    rx = np.array([p0[:, 0], p1[:, 0]])[..., None] - centers[:, 0]  # (2, E, B): p0, p1
    ry = np.array([p0[:, 1], p1[:, 1]])[..., None] - centers[:, 1]
    lx = rx * cy + ry * sy
    ly = ry * cy - rx * sy
    a = np.array([lx[0], ly[0]])  # (2, E, B): x, y
    d = np.array([lx[1], ly[1]]) - a
    (ax, ay), (dx, dy) = a, d

    ends = np.maximum(np.abs(np.array([a, a + d])) - h, 0.0)  # (2, 2, E, B): p0/p1, x/y
    best = np.sqrt(ends[:, 0] * ends[:, 0] + ends[:, 1] * ends[:, 1]).min(axis=0)

    # corner k to its closest segment point a + t d (t = 0 when d = 0)
    relx = _CORNER_SIGNS[0] * h[0] - ax  # (4, E, B)
    rely = _CORNER_SIGNS[1] * h[1] - ay
    dd = dx * dx + dy * dy
    t = np.clip((relx * dx + rely * dy) / np.where(dd > 0.0, dd, 1.0), 0.0, 1.0)
    gx = t * dx - relx
    gy = t * dy - rely
    best = np.minimum(best, np.sqrt(gx * gx + gy * gy).min(axis=0))

    # Liang-Barsky clip of the segment (t in [0, 1]) against the rectangle
    flat = np.abs(d) < 1e-15
    inside = np.abs(a) <= h
    # flat axes are decided by ``inside``; dividing by 1 there keeps a
    # zero or subnormal d from overflowing
    safe_d = np.where(flat, 1.0, d)
    t1 = (-h - a) / safe_d
    t2 = (h - a) / safe_d
    lo = np.where(flat, np.where(inside, -np.inf, np.inf), np.minimum(t1, t2)).max(axis=0)
    hi = np.where(flat, np.where(inside, np.inf, -np.inf), np.maximum(t1, t2)).min(axis=0)
    crosses = np.maximum(lo, 0.0) <= np.minimum(hi, 1.0)
    return np.where(crosses, 0.0, best)


def sweep_collision_checks(scene: Scene, p0: np.ndarray, p1: np.ndarray, radius: float) -> np.ndarray:
    """Collision verdicts (E,) for straight disc sweeps p0[e] -> p1[e], (E, 2) each.

    A sweep collides when the exact distance d from its segment to some box
    or room side is below ``radius``: ``collision_check``'s rule at every
    point of the segment, so a disc that only touches a face stays free.
    """
    p0 = np.asarray(p0, dtype=float).reshape(-1, 2)
    p1 = np.asarray(p1, dtype=float).reshape(-1, 2)
    centers, halves, cy, sy = scene._box_params
    b = scene.bounds
    # the room-edge distance is linear along a segment: its minimum is at an end
    (x0, y0), (x1, y1) = p0.T, p1.T
    d = np.minimum(
        np.minimum(np.minimum(x0 - b.xmin, b.xmax - x0), np.minimum(x1 - b.xmin, b.xmax - x1)),
        np.minimum(np.minimum(y0 - b.ymin, b.ymax - y0), np.minimum(y1 - b.ymin, b.ymax - y1)),
    )
    if centers.size:
        d = np.minimum(d, _segment_box_distances(p0, p1, centers, halves, cy, sy).min(axis=1))
    return d < radius


def sweep_collision_check(scene: Scene, start: Pose2, end: Pose2, radius: float) -> bool:
    """Collision verdict of a disc swept straight from start to end (headings
    are irrelevant to a disc footprint); see ``sweep_collision_checks``."""
    return bool(
        sweep_collision_checks(scene, np.array([[start.x, start.y]]), np.array([[end.x, end.y]]), radius)[0]
    )


# ---------------------------------------------------------------------------
# free-space certificate

CERT_CELL = 0.05  # cell side of the free-space certificate's grid, meters
_CERT_SLACK = 1e-6  # a cell is blocked within radius - _CERT_SLACK, far above rounding


def _free_space_certificate(scene: Scene, radius: float) -> np.ndarray:
    """Component labels (ny, nx) of the free cells of a ``CERT_CELL`` grid
    from the room's corner (xmin, ymin), -1 on blocked cells.

    A cell is blocked when all 4 of its corners lie within rho = radius -
    ``_CERT_SLACK`` of one box, or of one room side. Each such
    rho-neighbourhood is convex, so the whole closed cell lies in it, and a
    disc of ``radius`` centred anywhere in it collides. A path of free disc
    centres therefore never touches a blocked cell, and it crosses from one
    cell to the next only through a shared side or corner of free cells: it
    stays in one 4-connected component of free cells (a corner shared with a
    blocked cell is blocked itself). Disconnection proofs for motion
    planning: Basch, Guibas, Hsu & Nguyen, ICRA 2001.
    """
    b, rho = scene.bounds, radius - _CERT_SLACK
    nx, ny = math.ceil(b.w / CERT_CELL), math.ceil(b.h / CERT_CELL)
    xs = b.xmin + np.arange(nx + 1) * CERT_CELL
    ys = b.ymin + np.arange(ny + 1) * CERT_CELL
    # a room side blocks a column (row) when the cell's far corners are within rho of it
    blocked = np.zeros((ny, nx), dtype=bool)
    blocked[:, (xs[1:] - b.xmin < rho) | (b.xmax - xs[:-1] < rho)] = True
    blocked[(ys[1:] - b.ymin < rho) | (b.ymax - ys[:-1] < rho), :] = True
    centers, halves, cy, sy = scene._box_params
    for (cx, cyy), (hx, hy), c, s in zip(centers.tolist(), halves.tolist(), cy.tolist(), sy.tolist()):
        # the corners within the box's bounding square, grown by rho
        ex, ey = abs(hx * c) + abs(hy * s) + rho, abs(hx * s) + abs(hy * c) + rho
        i0, i1 = max(0, math.floor((cx - ex - b.xmin) / CERT_CELL)), min(nx, math.ceil((cx + ex - b.xmin) / CERT_CELL))
        j0, j1 = max(0, math.floor((cyy - ey - b.ymin) / CERT_CELL)), min(ny, math.ceil((cyy + ey - b.ymin) / CERT_CELL))
        if i0 >= i1 or j0 >= j1:
            continue
        dx = xs[i0:i1 + 1] - cx
        dy = ys[j0:j1 + 1, None] - cyy
        qx = np.maximum(np.abs(dx * c + dy * s) - hx, 0.0)
        qy = np.maximum(np.abs(dy * c - dx * s) - hy, 0.0)
        near = qx * qx + qy * qy < rho * rho
        blocked[j0:j1, i0:i1] |= near[:-1, :-1] & near[:-1, 1:] & near[1:, :-1] & near[1:, 1:]
    # label every cell of a free run with its component's root run
    rows, starts, lengths, roots = _row_run_components(~blocked)
    labels = np.full(nx * ny, -1, dtype=np.int32)
    offsets = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    labels[np.repeat(rows * nx + starts, lengths) + offsets] = np.repeat(roots, lengths)
    return labels.reshape(ny, nx)


def certified_disconnected(scene: Scene, radius: float, a: Pose2, b: Pose2) -> bool:
    """Whether the ``_free_space_certificate`` at ``radius`` proves that no
    collision-free path joins the positions of a and b, which must both be
    free at ``radius``.

    When it does, ``planner.plan`` at ``radius`` fails at any budget and
    seed, and ``planner.plan_with_margin``, the one caller, lets a certified
    rung drop its safety margin: no chain that a search could return crosses
    a blocked cell, as its vertices are free at ``radius`` and
    ``_Roadmap.evaluate`` accepts an edge only when the exact distance of its
    segment to every obstacle is at least ``radius``. The first call at a
    radius builds the certificate and caches it on the scene. False when a
    position maps to a blocked cell, which only rounding can do.
    """
    labels = scene._certificates.get(radius)
    if labels is None:
        labels = scene._certificates[radius] = _free_space_certificate(scene, radius)
    bounds, (ny, nx) = scene.bounds, labels.shape
    la, lb = (
        labels[
            min(max(int((p.y - bounds.ymin) // CERT_CELL), 0), ny - 1),
            min(max(int((p.x - bounds.xmin) // CERT_CELL), 0), nx - 1),
        ]
        for p in (a, b)
    )
    return bool(la >= 0 and lb >= 0 and la != lb)


# ---------------------------------------------------------------------------
# raycasting


def _to_box_frame(x, y, c, s):
    """World vectors (x, y) in the frame of boxes with yaw cosine c and sine s (broadcasting)."""
    return x * c + y * s, -x * s + y * c


def _slabs(ox, oy, hx, hy) -> np.ndarray:
    """Slab data (8, ...) of ray origins (ox, oy) in box-local coordinates.

    Rows: the offsets -hx - ox, hx - ox, -hy - oy, hy - oy from the origin
    to the x and y slab faces, then the (lo, hi) bounds of the x and then
    the y slab for a ray parallel to it: (-inf, inf) inside it, else empty.
    """
    par_x = np.where(np.abs(ox) <= hx, -np.inf, np.inf)
    par_y = np.where(np.abs(oy) <= hy, -np.inf, np.inf)
    return np.array([-hx - ox, hx - ox, -hy - oy, hy - oy, par_x, -par_x, par_y, -par_y])


def _slab_entries(slabs: np.ndarray, dx, dy) -> np.ndarray:
    """Entry distance of rays into boxes, +inf for misses, elementwise over broadcast arrays.

    The slab test (Williams et al., JGT 2005) of box-local ray directions
    (dx, dy) against the ``_slabs`` of their origins.
    """
    ax, bx, ay, by, par_lo_x, par_hi_x, par_lo_y, par_hi_y = slabs
    # a zero or subnormal direction component is parallel, and its quotients unused
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t1x, t2x, t1y, t2y = ax / dx, bx / dx, ay / dy, by / dy
    par_x = np.abs(dx) < 1e-15
    lo_x = np.where(par_x, par_lo_x, np.minimum(t1x, t2x))
    hi_x = np.where(par_x, par_hi_x, np.maximum(t1x, t2x))
    par_y = np.abs(dy) < 1e-15
    lo_y = np.where(par_y, par_lo_y, np.minimum(t1y, t2y))
    hi_y = np.where(par_y, par_hi_y, np.maximum(t1y, t2y))

    tmin = np.maximum(lo_x, lo_y)
    tmax = np.minimum(hi_x, hi_y)
    hit = (tmax >= tmin) & (tmax > 0)
    return np.where(hit, np.maximum(tmin, 0.0), np.inf)


def _ray_box_entries(
    origin: np.ndarray, dirs: np.ndarray, centers, halves, cy, sy
) -> np.ndarray:
    """Entry distance of each ray into each box, +inf for misses; (K, B)."""
    rel = origin[None, :] - centers  # (B, 2)
    ox, oy = _to_box_frame(rel[:, 0], rel[:, 1], cy, sy)
    dx, dy = _to_box_frame(dirs[:, 0][:, None], dirs[:, 1][:, None], cy, sy)
    return _slab_entries(_slabs(ox, oy, halves[:, 0], halves[:, 1]), dx, dy)


def check_lidar_params(num_rays: int, max_range: float, what: str = "lidar") -> None:
    """Refuse a scan with no rays or a ``max_range`` that is not finite and positive (ValueError)."""
    if num_rays < 1:
        raise ValueError(f"{what} num_rays must be at least 1, got {num_rays}")
    if not 0 < max_range < math.inf:
        raise ValueError(f"{what} max_range must be finite and positive, got {max_range}")


# scans cast per batch: bounds the pair arrays of one batch to a few MB
_SCAN_CHUNK = 16

# a box whose corner bearings spread wider than this may contain the ray
# origin or have it on its boundary, where the bearings bound nothing
_FULL_SPREAD = math.pi - 1e-3


def _scan_chunk(scene: Scene, poses: list[Pose2], num_rays: int) -> np.ndarray:
    """Ray ranges (K, num_rays) of a few scans, +inf where no box is hit.

    A ray from outside a convex box can hit it only at a bearing within the
    hull of the bearings of the box's corners. For each (scan, box) the rays
    from the one at or below that hull, less one, to the one at or above it,
    plus one, are tested (the extra ray each side is a margin far above
    rounding error), and all rays when the hull spans about half a turn or
    more, as it does from inside or on the box. The bearings come from the
    slab test's own box-local offsets, so they agree with its inside test.
    Each tested pair takes the same float operations as testing all pairs,
    and a minimum is exact in any order, so the ranges are bit for bit those
    of testing every ray against every box.
    """
    centers, halves, cy, sy = scene._box_params
    k_scans, n_boxes = len(poses), len(centers)
    step = 2.0 * math.pi / num_rays
    xs = np.array([p.x for p in poses])[:, None]
    ys = np.array([p.y for p in poses])[:, None]
    headings = np.array([p.heading for p in poses])
    angles = headings[:, None] + np.arange(num_rays) * step
    # each scan's rays twice over, so a run of rays that wraps past the
    # last ray is one slice
    trig = np.array([np.cos(angles), np.sin(angles)])
    trig = np.concatenate([trig, trig], axis=2).reshape(2, -1)

    ox, oy = _to_box_frame(xs - centers[:, 0], ys - centers[:, 1], cy, sy)  # (K, B)
    slabs = _slabs(ox, oy, halves[:, 0], halves[:, 1])
    # box-local corner bearings from the slab offsets, relative to corner 0 in [-pi, pi)
    ax, bx, ay, by = slabs[:4]
    bearings = np.arctan2(np.array([ay, by, ay, by]), np.array([ax, ax, bx, bx]))
    rel = (bearings - bearings[0] + math.pi) % (2.0 * math.pi) - math.pi
    lo, hi = rel.min(axis=0), rel.max(axis=0)
    base = bearings[0] + np.arctan2(sy, cy) - headings[:, None]
    first = np.floor((base + lo) / step) - 1
    count = np.ceil((base + hi) / step) + 2 - first
    full = (hi - lo > _FULL_SPREAD) | (count >= num_rays)
    first = np.where(full, 0, first).astype(np.int64) % num_rays
    count = np.where(full, num_rays, count).astype(np.int64).ravel()

    # one column per tested (scan, box, ray) pair
    row_start = np.arange(k_scans)[:, None] * (2 * num_rays)
    group_first = (row_start + first).ravel()
    ray = np.arange(count.sum()) + np.repeat(group_first - (np.cumsum(count) - count), count)
    box_rot = np.broadcast_to(np.array([cy, sy])[:, None, :], (2, k_scans, n_boxes))
    pairs = np.repeat(np.concatenate([slabs, box_rot]).reshape(10, -1), count, axis=1)
    cos, sin = trig.take(ray, axis=1)
    dx, dy = _to_box_frame(cos, sin, pairs[8], pairs[9])
    ranges = np.full((k_scans, 2 * num_rays), np.inf)
    np.minimum.at(ranges.reshape(-1), ray, _slab_entries(pairs[:8], dx, dy))
    return np.minimum(ranges[:, :num_rays], ranges[:, num_rays:])


def raycast_scans(
    scene: Scene, poses: list[Pose2], num_rays: int = 360, max_range: float = 10.0
) -> np.ndarray:
    """Exact ray-vs-oriented-box LiDAR ranges (K, num_rays) from K poses.

    Ray k of a scan points at its heading + 2*pi*k/num_rays; a ray that hits
    nothing within ``max_range`` reads ``max_range``.
    """
    check_lidar_params(num_rays, max_range)
    ranges = np.full((len(poses), num_rays), np.inf)
    if scene._box_params[0].size:
        for i in range(0, len(poses), _SCAN_CHUNK):
            ranges[i : i + _SCAN_CHUNK] = _scan_chunk(scene, poses[i : i + _SCAN_CHUNK], num_rays)
    return np.minimum(ranges, max_range)


def raycast_lidar(
    scene: Scene, pose: Pose2, num_rays: int = 360, max_range: float = 10.0
) -> LidarScan:
    """Exact ray-vs-oriented-box LiDAR scan from a collision-free pose."""
    return LidarScan(num_rays, raycast_scans(scene, [pose], num_rays, max_range)[0], max_range)


def _occluders(scene: Scene, skip_box: OrientedBox) -> tuple:
    """``scene._box_params`` without the boxes that are ``skip_box``, so a target does not occlude itself."""
    params = scene._box_params
    boxes = scene.walls + [o.box for o in scene.objects]
    keep = np.array([bx is not skip_box for bx in boxes], dtype=bool)
    return tuple(p[keep] for p in params)


def _sight_lines_blocked(a: np.ndarray, pts: np.ndarray, occluders: tuple) -> np.ndarray:
    """Whether each open segment a->pts[k], (K, 2), crosses a box of ``_occluders``; (K,) bool."""
    blocked = np.zeros(len(pts), dtype=bool)
    centers, halves, cy, sy = occluders
    if not centers.size:
        return blocked
    d = pts - a[None, :]
    # each length is the norm of its own vector, as for a single line: a
    # batched sum of squares can differ in the last bit and flip a grazing
    # sight line, so a line's verdict would depend on its batch. For a 1-D
    # vector, np.linalg.norm is exactly sqrt(v.dot(v)).
    dist = np.array([math.sqrt(v.dot(v)) for v in d])
    far = dist >= 1e-12
    if far.any():
        entry = _ray_box_entries(a, d[far] / dist[far, None], centers, halves, cy, sy)
        blocked[far] = entry.min(axis=1) < dist[far] - 1e-9
    return blocked


VIEW_GRID_N = 5  # lattice points per box axis that ``visible_from`` samples


def _target_view(scene: Scene, target: SceneObject) -> tuple:
    """(target, lattice (VIEW_GRID_N**2, 2), its rows as floats, ``_occluders`` of its box) for ``visible_from``.

    Built once per scene for each object id. The entry holds the target it
    was built from, so a different object under the same id gets its own
    lattice rather than a stale one.
    """
    view = scene._views.get(target.id)
    if view is None or view[0] is not target:
        box = target.box
        fr = np.linspace(-1.0, 1.0, VIEW_GRID_N + 2)[1:-1]
        gx, gy = np.meshgrid(fr * box.hx, fr * box.hy)
        local = np.stack([gx.ravel(), gy.ravel()], axis=1)
        world = box.center + local @ rot2(box.yaw).T
        view = scene._views[target.id] = (target, world, world.tolist(), _occluders(scene, box))
    return view


def visible_from(
    camera_pose: Pose2,
    target: SceneObject,
    scene: Scene,
    hfov: float = math.pi / 2,
    fraction: float = 0.5,
) -> bool:
    """Whether enough of the target footprint is seen from a camera pose.

    Samples a VIEW_GRID_N x VIEW_GRID_N lattice over the target box; a
    sample counts as seen when its bearing lies inside the horizontal FOV
    and the sight line meets no other box first. True iff the seen fraction
    reaches ``fraction``.
    """
    _, world, rows, occluders = _target_view(scene, target)
    x, y, heading = camera_pose.x, camera_pose.y, camera_pose.heading
    half = hfov / 2
    in_fov = [abs(wrap_angle(math.atan2(py - y, px - x) - heading)) <= half for px, py in rows]
    need = fraction * len(rows)
    # only a sample in view can be seen: too few in view settles it without a ray
    if sum(in_fov) < need:
        return False
    blocked = _sight_lines_blocked(np.array([x, y]), world[in_fov], occluders)
    return int((~blocked).sum()) >= need


# ---------------------------------------------------------------------------
# kinematics


def _arc_step(pose: Pose2, v: float, omega: float, dt: float) -> Pose2:
    """Exact constant-twist integration of a unicycle (arc or straight)."""
    h = pose.heading
    if abs(omega) < 1e-12:
        return Pose2(pose.x + v * dt * math.cos(h), pose.y + v * dt * math.sin(h), h)
    h1 = h + omega * dt
    r = v / omega
    return Pose2(pose.x + r * (math.sin(h1) - math.sin(h)), pose.y - r * (math.cos(h1) - math.cos(h)), h1)


def step_kinematics(
    state: RobotState, cmd: Command, dt: float, limits: SpeedLimits | None = None
) -> RobotState:
    """Advance the robot by one exactly-integrated constant-command step."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if limits is not None:
        if command_speed(cmd) > limits.v_max + 1e-9:
            raise InvalidCommand(f"speed {command_speed(cmd):.3f} exceeds {limits.v_max}")
        if command_omega(cmd) > limits.omega_max + 1e-9:
            raise InvalidCommand(f"yaw rate {command_omega(cmd):.3f} exceeds {limits.omega_max}")

    if state.kinematics == "differential":
        if not isinstance(cmd, DiffDrive):
            raise InvalidCommand(f"differential drive got {type(cmd).__name__}")
        pose = _arc_step(state.pose, cmd.v, cmd.omega, dt)
    else:
        if not isinstance(cmd, OmniDrive):
            raise InvalidCommand(f"omnidirectional drive got {type(cmd).__name__}")
        pose = Pose2(
            state.pose.x + cmd.vx * dt,
            state.pose.y + cmd.vy * dt,
            state.pose.heading + cmd.omega * dt,
        )
    return replace(state, pose=pose)


# ---------------------------------------------------------------------------
# procedural generation


@dataclass(frozen=True)
class SceneGenParams:
    room_min: Annotated[float, POSITIVE] = 6.0
    room_max: Annotated[float, POSITIVE] = 12.0
    objects_min: Annotated[int, NON_NEGATIVE] = 5
    objects_max: Annotated[int, NON_NEGATIVE] = 15
    size_min: Annotated[float, POSITIVE] = 0.2
    size_max: Annotated[float, POSITIVE] = 2.0
    min_clearance: Annotated[float, NON_NEGATIVE] = 0.4
    min_free_area: Annotated[float, NON_NEGATIVE] = 10.0
    wall_thickness: Annotated[float, POSITIVE] = 0.1
    free_probe_radius: Annotated[float, NON_NEGATIVE] = 0.5
    max_attempts: Annotated[int, AT_LEAST_1] = 200

    def __post_init__(self):
        check_ranges(self, "scene_gen")
        for lo, hi in (("room_min", "room_max"), ("objects_min", "objects_max"), ("size_min", "size_max")):
            a, b = getattr(self, lo), getattr(self, hi)
            if a > b:
                raise ValueError(f"scene_gen {lo} must not exceed {hi}, got {a} > {b}")
        largest = _countable_free_area(self.room_max, self.free_probe_radius)
        if self.min_free_area > largest:
            raise ValueError(
                "scene_gen min_free_area must not exceed the area the free-area grid can count in a room_max room,"
                f" got {self.min_free_area} > {largest}"
            )
        # sample_scene's own test, for the smallest box in the largest room
        room, margin = Bounds(self.room_max, self.room_max), math.hypot(self.size_min / 2, self.size_min / 2)
        if self.objects_min >= 1 and room.xmax - margin < room.xmin + margin:
            raise ValueError(
                f"scene_gen size_min must let a box fit a room_max room, got {self.size_min}: its bounding"
                f" circle is {2 * margin} m across, the room {self.room_max} m"
            )


class _Placed:
    """A box inflated by a clearance margin: the radii of its circumscribed
    and inscribed circles, and what ``_boxes_overlap`` reads of it, computed
    on first use and then kept."""

    __slots__ = ("box", "margin", "outer", "inner", "_sides")

    def __init__(self, box: OrientedBox, margin: float):
        self.box, self.margin = box, margin
        self.outer = math.hypot(box.hx + margin, box.hy + margin)
        self.inner = min(box.hx, box.hy) + margin
        self._sides = None

    def sides(self) -> tuple:
        """(corners (4, 2), the unit axes of its two sides) of the inflated box."""
        if self._sides is None:
            b, m = self.box, self.margin
            inflated = b if m == 0 else OrientedBox(b.cx, b.cy, b.hx + m, b.hy + m, b.yaw)
            axes = [np.array([math.cos(a), math.sin(a)]) for a in (b.yaw, b.yaw + math.pi / 2)]
            self._sides = inflated.corners(), axes
        return self._sides


def _boxes_overlap(a: _Placed, b: _Placed) -> bool:
    """Separating-axis overlap test for two inflated oriented boxes."""
    (pa, axes_a), (pb, axes_b) = a.sides(), b.sides()
    for axis in (*axes_a, *axes_b):
        # a max or min of floats is exact, so lists give numpy's verdict
        qa, qb = (pa @ axis).tolist(), (pb @ axis).tolist()
        if max(qa) < min(qb) or max(qb) < min(qa):
            return False
    return True


# slack of the circle pre-tests, far above the rounding of the SAT's projections
_CIRCLE_SLACK = 1e-6


def _overlaps_any(box: _Placed, placed: list[_Placed]) -> bool:
    """Whether ``box`` overlaps any of ``placed``, by ``_boxes_overlap``.

    Circles decide most pairs first. A box lies inside its circumscribed
    circle, so centres farther apart than the sum of the two circumradii
    leave the boxes disjoint, at a distance g > 1e-6; two disjoint
    rectangles are then separated along one of their side axes by at least
    g / sqrt(2), which the SAT's projections resolve. A box holds its
    inscribed circle, so centres closer than the sum of the inscribed radii
    make the circles, and so every projection of the two boxes, overlap by
    more than 1e-6, and the SAT finds no separating axis. Only pairs between
    the two bounds, 1e-6 slack included, reach the SAT.
    """
    x, y = box.box.cx, box.box.cy
    for other in placed:
        d = math.hypot(x - other.box.cx, y - other.box.cy)
        if d > box.outer + other.outer + _CIRCLE_SLACK:
            continue
        if d < box.inner + other.inner - _CIRCLE_SLACK or _boxes_overlap(box, other):
            return True
    return False


def _room_walls(bounds: Bounds, t: float) -> list[OrientedBox]:
    w, h = bounds.w, bounds.h
    return [
        OrientedBox(0.0, h / 2 + t / 2, w / 2 + t, t / 2, 0.0),
        OrientedBox(0.0, -h / 2 - t / 2, w / 2 + t, t / 2, 0.0),
        OrientedBox(w / 2 + t / 2, 0.0, t / 2, h / 2 + t, 0.0),
        OrientedBox(-w / 2 - t / 2, 0.0, t / 2, h / 2 + t, 0.0),
    ]


# cell size of the free-area occupancy grid, meters
_FREE_AREA_CELL = 0.25


def _countable_free_area(room_max: float, probe_radius: float) -> float:
    """A bound on what ``_largest_free_area`` counts in any room of sides at
    most ``room_max``: no region is larger than the room, and a free cell's
    centre lies at least ``probe_radius`` from each wall, with cells narrower
    than twice ``_FREE_AREA_CELL``, so the free cells of a row or column span
    less than ``max(0, room_max - 2 * probe_radius) + 2 * _FREE_AREA_CELL``."""
    side = max(0.0, room_max - 2 * probe_radius) + 2 * _FREE_AREA_CELL
    return min(room_max * room_max, side * side)


def _row_run_components(free: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """The runs of True cells in each row of a 2-D grid and their 4-connected components.

    Returns the runs' rows, first columns and lengths, as arrays in row
    order, and for each run the index of its component's root run.
    Run-based labelling (He, Chao & Suzuki, IEEE TIP 2008): each row's runs
    are found at once, and runs of adjacent rows that share a column are
    merged by union-find.
    """
    edges = np.diff(np.pad(free.astype(np.int8), ((0, 0), (1, 1))), axis=1)
    rows, starts = np.nonzero(edges == 1)  # in row order, as are the ends
    ends = np.nonzero(edges == -1)[1]
    s, e = starts.tolist(), ends.tolist()
    first = np.searchsorted(rows, np.arange(len(free) + 1)).tolist()  # row r's runs: first[r]:first[r + 1]
    parent = list(range(len(s)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for r in range(len(free) - 1):
        i, i_end, j, j_end = first[r], first[r + 1], first[r + 1], first[r + 2]
        while i < i_end and j < j_end:
            if s[i] < e[j] and s[j] < e[i]:
                a, b = root(i), root(j)
                if a != b:
                    parent[b] = a
            if e[i] < e[j]:
                i += 1
            else:
                j += 1
    return rows, starts, ends - starts, [root(k) for k in range(len(parent))]


def _largest_component(free: np.ndarray) -> int:
    """Cell count of the largest 4-connected component of True cells in a
    2-D grid, 0 if none: the sum of its runs' lengths."""
    _, _, lengths, roots = _row_run_components(free)
    return int(np.bincount(roots, weights=lengths).max()) if roots else 0


def _largest_free_area(scene: Scene, probe_radius: float) -> float:
    """Area of the largest 4-connected free region on a coarse occupancy grid.

    A cell is free when a disc of ``probe_radius`` at its centre is. The
    components come from ``_row_run_components``, and are exactly
    a flood fill's: the cells of a run are 4-linked along their row, and two
    runs of adjacent rows that share a column are 4-linked across it, which
    are all the links there are. The area is the same integer cell count
    times the same cell area, capped at the room's area: with every cell
    free, the product can round one ulp above it.
    """
    b = scene.bounds
    nx = max(1, int(b.w / _FREE_AREA_CELL))
    ny = max(1, int(b.h / _FREE_AREA_CELL))
    xs = b.xmin + (np.arange(nx) + 0.5) * (b.w / nx)
    ys = b.ymin + (np.arange(ny) + 0.5) * (b.h / ny)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    free = ~collision_mask(scene, pts, probe_radius)
    cell_area = (b.w / nx) * (b.h / ny)
    return min(_largest_component(free.reshape(ny, nx)) * cell_area, b.w * b.h)


def sample_scene(seed: int, params: SceneGenParams = SceneGenParams()) -> Scene:
    """Deterministically generate a walled room with non-overlapping obstacles.

    A candidate box is rejected when it overlaps a placed box, both inflated
    by half of ``min_clearance``. ``_overlaps_any`` settles most pairs by
    circles alone, and exactly: centres more than the sum of the
    circumscribed radii plus 1e-6 apart cannot overlap, and centres less
    than the sum of the inscribed radii minus 1e-6 apart must, with the
    slack far above the SAT's rounding. The pairs between reach the
    separating-axis test, which reads each box's corners, built once.
    Raises GenerationFailed when the rejection budget runs out before a
    layout with a large-enough traversable region is found.
    """
    rng = np.random.default_rng(seed)
    for _ in range(params.max_attempts):
        w = float(rng.uniform(params.room_min, params.room_max))
        h = float(rng.uniform(params.room_min, params.room_max))
        bounds = Bounds(w, h)
        walls = _room_walls(bounds, params.wall_thickness)
        count = int(rng.integers(params.objects_min, params.objects_max + 1))
        placed_boxes: list[_Placed] = []
        objects: list[SceneObject] = []
        placed = 0
        tries = 0
        while placed < count and tries < 50 * max(count, 1):
            tries += 1
            hx = float(rng.uniform(params.size_min, params.size_max)) / 2
            hy = float(rng.uniform(params.size_min, params.size_max)) / 2
            margin = math.hypot(hx, hy)
            if bounds.xmax - margin < bounds.xmin + margin or bounds.ymax - margin < bounds.ymin + margin:
                continue  # no centre keeps the box's bounding circle in the room
            cx = float(rng.uniform(bounds.xmin + margin, bounds.xmax - margin))
            cy = float(rng.uniform(bounds.ymin + margin, bounds.ymax - margin))
            yaw = float(rng.uniform(-math.pi, math.pi))
            box = OrientedBox(cx, cy, hx, hy, yaw)
            candidate = _Placed(box, params.min_clearance / 2)
            if _overlaps_any(candidate, placed_boxes):
                continue
            placed_boxes.append(candidate)
            objects.append(
                SceneObject(
                    id=placed,
                    box=box,
                    base_height=float(rng.uniform(0.0, 0.3)),
                    category=str(rng.choice(_CATEGORIES)),
                    target_eligible=True,
                )
            )
            placed += 1
        if placed < count:
            continue
        scene = Scene(bounds=bounds, walls=walls, objects=objects, seed=seed)
        if _largest_free_area(scene, params.free_probe_radius) >= params.min_free_area:
            return scene
    raise GenerationFailed(f"no valid scene layout for seed {seed} in {params.max_attempts} attempts")
