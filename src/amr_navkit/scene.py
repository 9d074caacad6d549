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

import numpy as np

from .errors import GenerationFailed, InvalidCommand
from .geometry import OrientedBox, Pose2, rot2, wrap_angle

KINEMATICS_KINDS = ("differential", "omnidirectional", "ackermann")

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

    def object_by_id(self, object_id: int) -> SceneObject:
        for o in self.objects:
            if o.id == object_id:
                return o
        raise KeyError(f"no object with id {object_id}")

    def target_objects(self) -> list[SceneObject]:
        return [o for o in self.objects if o.target_eligible]


@dataclass(frozen=True)
class RobotState:
    """Disc robot state: base pose, footprint radius, camera tilt, drive type."""

    pose: Pose2
    radius: float
    tilt: float = 0.0
    kinematics: str = "differential"
    wheelbase: float | None = None

    def __post_init__(self):
        if not 0.1 <= self.radius <= 0.5:
            raise ValueError(f"radius {self.radius} outside [0.1, 0.5]")
        if self.kinematics not in KINEMATICS_KINDS:
            raise ValueError(f"unknown kinematics {self.kinematics!r}")
        if self.kinematics == "ackermann" and not self.wheelbase:
            raise ValueError("ackermann kinematics needs a wheelbase")


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

    def points(self) -> np.ndarray:
        """Robot-frame (x, y) hit points, shape (num_rays, 2)."""
        ang = np.arange(self.num_rays) * (2.0 * math.pi / self.num_rays)
        return np.stack([self.ranges * np.cos(ang), self.ranges * np.sin(ang)], axis=1)


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


@dataclass(frozen=True)
class AckermannDrive:
    v: float
    steer: float


Command = DiffDrive | OmniDrive | AckermannDrive


@dataclass(frozen=True)
class SpeedLimits:
    v_max: float = 1.5
    omega_max: float = 3.0


def command_speed(cmd: Command) -> float:
    if isinstance(cmd, OmniDrive):
        return math.hypot(cmd.vx, cmd.vy)
    return abs(cmd.v)


def command_omega(cmd: Command) -> float:
    if isinstance(cmd, AckermannDrive):
        return abs(cmd.steer)
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


def collision_check(scene: Scene, pose: Pose2, radius: float) -> bool:
    """True iff a disc at the pose intersects any box or exits the room.

    A disc exactly tangent to a face (distance == radius) is free.
    """
    return bool(collision_mask(scene, np.array([[pose.x, pose.y]]), radius)[0])


def clearance(scene: Scene, pose: Pose2, radius: float) -> float:
    """Signed clearance between the robot footprint and the nearest obstacle."""
    return float(obstacle_distances(scene, np.array([[pose.x, pose.y]]))[0]) - radius


_CORNER_SIGNS = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])


def _segment_box_distances(
    p0: np.ndarray, p1: np.ndarray, centers, halves, cy, sy
) -> np.ndarray:
    """Exact distance from each segment p0->p1 (E, 2) to each box; (E, B).

    In box-local coordinates the box is an axis-aligned rectangle. A segment
    that crosses it is at distance 0; otherwise the closest pair involves a
    segment endpoint or a rectangle corner (Ericson, Real-Time Collision
    Detection, ch. 5).
    """

    def local(p):  # (E, B, 2)
        d = p[:, None, :] - centers
        return np.stack([d[..., 0] * cy + d[..., 1] * sy, d[..., 1] * cy - d[..., 0] * sy], axis=-1)

    a = local(p0)
    d = local(p1) - a
    ends = np.maximum(np.abs(np.stack([a, a + d])) - halves, 0.0)
    best = np.sqrt((ends * ends).sum(axis=-1)).min(axis=0)

    # corner k to its closest segment point a + t d (t = 0 when d = 0)
    rel = (halves[:, None, :] * _CORNER_SIGNS)[None] - a[:, :, None, :]  # (E, B, 4, 2)
    dd = (d * d).sum(axis=-1)
    t = (rel * d[:, :, None, :]).sum(axis=-1) / np.where(dd > 0.0, dd, 1.0)[..., None]
    gap = np.clip(t, 0.0, 1.0)[..., None] * d[:, :, None, :] - rel
    best = np.minimum(best, np.sqrt((gap * gap).sum(axis=-1)).min(axis=-1))

    # Liang-Barsky clip of the segment (t in [0, 1]) against the rectangle
    flat = np.abs(d) < 1e-15
    inside = np.abs(a) <= halves
    # flat axes are decided by ``inside``; dividing by 1 there keeps a
    # zero or subnormal d from overflowing
    safe_d = np.where(flat, 1.0, d)
    t1 = (-halves - a) / safe_d
    t2 = (halves - a) / safe_d
    lo = np.where(flat, np.where(inside, -np.inf, np.inf), np.minimum(t1, t2)).max(axis=-1)
    hi = np.where(flat, np.where(inside, np.inf, -np.inf), np.maximum(t1, t2)).min(axis=-1)
    crosses = np.maximum(lo, 0.0) <= np.minimum(hi, 1.0)
    return np.where(crosses, 0.0, best)


def _sampled_sweep(
    scene: Scene, p0: np.ndarray, p1: np.ndarray, radius: float, step: float
) -> bool:
    """Disc collision at positions sampled along p0->p1 at spacing <= step."""
    x0, y0, x1, y1 = float(p0[0]), float(p0[1]), float(p1[0]), float(p1[1])
    n = max(1, int(math.ceil(math.hypot(x1 - x0, y1 - y0) / step)))
    t = np.linspace(0.0, 1.0, n + 1)
    pts = np.stack([x0 + t * (x1 - x0), y0 + t * (y1 - y0)], axis=1)
    return bool(collision_mask(scene, pts, radius).any())


def sweep_collision_checks(
    scene: Scene, p0: np.ndarray, p1: np.ndarray, radius: float, step: float = 0.01
) -> np.ndarray:
    """Collision verdicts (E,) for straight disc sweeps p0[e] -> p1[e], (E, 2) each.

    The verdict is that of sampling each sweep at arc-length spacing <= step,
    endpoints included, and testing a disc at every sample. It is decided
    from the exact segment-to-obstacle distance d whenever that is
    conclusive: d >= radius + 1e-9 means every sample is free, and
    d < radius - step/2 - 1e-9 means the sample nearest the closest point
    (at most step/2 away; the distance is 1-Lipschitz) collides. Only sweeps
    in the band between are sampled.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    p0 = np.asarray(p0, dtype=float).reshape(-1, 2)
    p1 = np.asarray(p1, dtype=float).reshape(-1, 2)
    centers, halves, cy, sy = scene._box_params
    b = scene.bounds
    # the room-edge distance is linear along a segment: its minimum is at an end
    d = np.minimum.reduce(
        [np.minimum(p[:, 0] - b.xmin, b.xmax - p[:, 0]) for p in (p0, p1)]
        + [np.minimum(p[:, 1] - b.ymin, b.ymax - p[:, 1]) for p in (p0, p1)]
    )
    if centers.size:
        d = np.minimum(d, _segment_box_distances(p0, p1, centers, halves, cy, sy).min(axis=1))
    hit = d < radius - step / 2 - 1e-9
    for e in np.flatnonzero(~hit & (d < radius + 1e-9)):
        hit[e] = _sampled_sweep(scene, p0[e], p1[e], radius, step)
    return hit


def sweep_collision_check(
    scene: Scene, start: Pose2, end: Pose2, radius: float, step: float = 0.01
) -> bool:
    """Collision verdict along a straight position sweep from start to end.

    Positions are linearly interpolated (headings slerped, irrelevant to a
    disc footprint) at arc-length spacing <= step, endpoints included; see
    ``sweep_collision_checks``.
    """
    return bool(
        sweep_collision_checks(
            scene, np.array([[start.x, start.y]]), np.array([[end.x, end.y]]), radius, step
        )[0]
    )


# ---------------------------------------------------------------------------
# raycasting


def _ray_box_entries(
    origin: np.ndarray, dirs: np.ndarray, centers, halves, cy, sy
) -> np.ndarray:
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
    # rays parallel to an axis: inside the slab -> (-inf, inf), else empty
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
    entry = np.where(hit, np.maximum(tmin, 0.0), np.inf)
    return entry


def raycast_lidar(
    scene: Scene, pose: Pose2, num_rays: int = 360, max_range: float = 10.0
) -> LidarScan:
    """Exact ray-vs-oriented-box LiDAR scan from a collision-free pose."""
    centers, halves, cy, sy = scene._box_params
    angles = pose.heading + np.arange(num_rays) * (2.0 * math.pi / num_rays)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    origin = np.array([pose.x, pose.y])
    if centers.size:
        entry = _ray_box_entries(origin, dirs, centers, halves, cy, sy)
        ranges = entry.min(axis=1)
    else:
        ranges = np.full(num_rays, np.inf)
    return LidarScan(num_rays, np.minimum(ranges, max_range), max_range)


def segment_blocked(scene: Scene, a: np.ndarray, b: np.ndarray, skip_box: OrientedBox | None = None) -> bool:
    """True iff the open segment a->b crosses a wall or object box.

    ``skip_box`` excludes one box (used for self-occlusion-free visibility).
    """
    return bool(_sight_lines_blocked(scene, a, np.asarray(b)[None, :], skip_box)[0])


def _sight_lines_blocked(
    scene: Scene, a: np.ndarray, pts: np.ndarray, skip_box: OrientedBox | None
) -> np.ndarray:
    """``segment_blocked`` for every open segment a->pts[k], (K, 2); (K,) bool."""
    blocked = np.zeros(len(pts), dtype=bool)
    centers, halves, cy, sy = scene._box_params
    if skip_box is not None:
        boxes = scene.walls + [o.box for o in scene.objects]
        keep = np.array([bx is not skip_box for bx in boxes], dtype=bool)
        centers, halves, cy, sy = centers[keep], halves[keep], cy[keep], sy[keep]
    if not centers.size:
        return blocked
    d = pts - a[None, :]
    # each length is the norm of its own vector, as for a single line: a
    # batched sum of squares can differ in the last bit and flip a grazing
    # sight line, so a line's verdict would depend on its batch
    dist = np.array([np.linalg.norm(v) for v in d])
    far = dist >= 1e-12
    if far.any():
        entry = _ray_box_entries(a, d[far] / dist[far, None], centers, halves, cy, sy)
        blocked[far] = entry.min(axis=1) < dist[far] - 1e-9
    return blocked


def visible_from(
    camera_pose: Pose2,
    target: SceneObject,
    scene: Scene,
    hfov: float = math.pi / 2,
    fraction: float = 0.5,
    grid_n: int = 5,
) -> bool:
    """Whether enough of the target footprint is seen from a camera pose.

    Samples a grid_n x grid_n lattice over the target box; a sample counts
    as seen when its bearing lies inside the horizontal FOV and the sight
    line meets no other box first. True iff the seen fraction reaches
    ``fraction``.
    """
    fr = np.linspace(-1.0, 1.0, grid_n + 2)[1:-1]
    gx, gy = np.meshgrid(fr * target.box.hx, fr * target.box.hy)
    local = np.stack([gx.ravel(), gy.ravel()], axis=1)
    world = target.box.center + local @ rot2(target.box.yaw).T
    cam = np.array([camera_pose.x, camera_pose.y])
    in_fov = [
        abs(wrap_angle(math.atan2(pt[1] - cam[1], pt[0] - cam[0]) - camera_pose.heading)) <= hfov / 2
        for pt in world
    ]
    blocked = _sight_lines_blocked(scene, cam, world[in_fov], target.box)
    seen = int((~blocked).sum())
    return seen >= fraction * len(world)


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
        if not isinstance(cmd, AckermannDrive) and command_omega(cmd) > limits.omega_max + 1e-9:
            raise InvalidCommand(f"yaw rate {command_omega(cmd):.3f} exceeds {limits.omega_max}")

    if state.kinematics == "differential":
        if not isinstance(cmd, DiffDrive):
            raise InvalidCommand(f"differential drive got {type(cmd).__name__}")
        pose = _arc_step(state.pose, cmd.v, cmd.omega, dt)
    elif state.kinematics == "omnidirectional":
        if not isinstance(cmd, OmniDrive):
            raise InvalidCommand(f"omnidirectional drive got {type(cmd).__name__}")
        pose = Pose2(
            state.pose.x + cmd.vx * dt,
            state.pose.y + cmd.vy * dt,
            state.pose.heading + cmd.omega * dt,
        )
    else:
        if not isinstance(cmd, AckermannDrive):
            raise InvalidCommand(f"ackermann drive got {type(cmd).__name__}")
        if abs(cmd.steer) >= math.pi / 2:
            raise InvalidCommand(f"steering angle {cmd.steer:.3f} out of range")
        omega = cmd.v * math.tan(cmd.steer) / state.wheelbase
        pose = _arc_step(state.pose, cmd.v, omega, dt)
    return replace(state, pose=pose)


# ---------------------------------------------------------------------------
# procedural generation


@dataclass(frozen=True)
class SceneGenParams:
    room_min: float = 6.0
    room_max: float = 12.0
    objects_min: int = 5
    objects_max: int = 15
    size_min: float = 0.2
    size_max: float = 2.0
    min_clearance: float = 0.4
    min_free_area: float = 10.0
    wall_thickness: float = 0.1
    free_probe_radius: float = 0.5
    max_attempts: int = 200


def _boxes_overlap(a: OrientedBox, b: OrientedBox, margin: float = 0.0) -> bool:
    """Separating-axis overlap test for two oriented boxes, with inflation."""
    ca = a if margin == 0 else OrientedBox(a.cx, a.cy, a.hx + margin, a.hy + margin, a.yaw)
    cb = b if margin == 0 else OrientedBox(b.cx, b.cy, b.hx + margin, b.hy + margin, b.yaw)
    pa, pb = ca.corners(), cb.corners()
    for yaw in (ca.yaw, cb.yaw):
        for ang in (yaw, yaw + math.pi / 2):
            axis = np.array([math.cos(ang), math.sin(ang)])
            qa, qb = pa @ axis, pb @ axis
            if qa.max() < qb.min() or qb.max() < qa.min():
                return False
    return True


def _room_walls(bounds: Bounds, t: float) -> list[OrientedBox]:
    w, h = bounds.w, bounds.h
    return [
        OrientedBox(0.0, h / 2 + t / 2, w / 2 + t, t / 2, 0.0),
        OrientedBox(0.0, -h / 2 - t / 2, w / 2 + t, t / 2, 0.0),
        OrientedBox(w / 2 + t / 2, 0.0, t / 2, h / 2 + t, 0.0),
        OrientedBox(-w / 2 - t / 2, 0.0, t / 2, h / 2 + t, 0.0),
    ]


def _largest_free_area(scene: Scene, probe_radius: float, cell: float = 0.25) -> float:
    """Area of the largest 4-connected free region on a coarse occupancy grid."""
    b = scene.bounds
    nx = max(1, int(b.w / cell))
    ny = max(1, int(b.h / cell))
    xs = b.xmin + (np.arange(nx) + 0.5) * (b.w / nx)
    ys = b.ymin + (np.arange(ny) + 0.5) * (b.h / ny)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    free = ~collision_mask(scene, pts, probe_radius)
    free = free.reshape(ny, nx)
    seen = np.zeros_like(free)
    best = 0
    cell_area = (b.w / nx) * (b.h / ny)
    for i in range(ny):
        for j in range(nx):
            if free[i, j] and not seen[i, j]:
                stack, count = [(i, j)], 0
                seen[i, j] = True
                while stack:
                    ci, cj = stack.pop()
                    count += 1
                    for ni, nj in ((ci - 1, cj), (ci + 1, cj), (ci, cj - 1), (ci, cj + 1)):
                        if 0 <= ni < ny and 0 <= nj < nx and free[ni, nj] and not seen[ni, nj]:
                            seen[ni, nj] = True
                            stack.append((ni, nj))
                best = max(best, count)
    return best * cell_area


def sample_scene(seed: int, params: SceneGenParams = SceneGenParams()) -> Scene:
    """Deterministically generate a walled room with non-overlapping obstacles.

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
        boxes: list[OrientedBox] = []
        objects: list[SceneObject] = []
        placed = 0
        tries = 0
        while placed < count and tries < 50 * max(count, 1):
            tries += 1
            hx = float(rng.uniform(params.size_min, params.size_max)) / 2
            hy = float(rng.uniform(params.size_min, params.size_max)) / 2
            margin = math.hypot(hx, hy)
            cx = float(rng.uniform(bounds.xmin + margin, bounds.xmax - margin))
            cy = float(rng.uniform(bounds.ymin + margin, bounds.ymax - margin))
            yaw = float(rng.uniform(-math.pi, math.pi))
            box = OrientedBox(cx, cy, hx, hy, yaw)
            if any(_boxes_overlap(box, other, margin=params.min_clearance / 2) for other in boxes):
                continue
            boxes.append(box)
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
