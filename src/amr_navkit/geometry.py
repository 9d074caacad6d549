"""SE(2) pose algebra, oriented boxes, side labeling, and goal-pose geometry.

Frame conventions used across the package:
  * world and robot frames are right-handed: x forward, y left, z up
  * headings are radians, wrapped to [-pi, pi)
  * camera pixel rows count from the image top; camera frame is x right,
    y down, z along the optical axis
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousView

TWO_PI = 2.0 * math.pi

SIDE_NAMES = ("front", "back", "left", "right")

# approach angles allowed in a goal spec: 0, +/-15, +/-30 degrees
GOAL_ANGLES = (0.0, math.pi / 12, -math.pi / 12, math.pi / 6, -math.pi / 6)

# a view whose two best side scores differ by less than this is ambiguous
FRONT_TIE_EPSILON = 0.05


def wrap_angle(angle: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    return (angle + math.pi) % TWO_PI - math.pi


def rot2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True, slots=True)
class Pose2:
    """A planar pose (x, y, heading); heading is kept wrapped to [-pi, pi).

    Every field is finite: a NaN or infinite x, y or heading is a ValueError
    naming the field, so no query downstream has to test for one. Slotted,
    with one hand-written ``__init__`` that stores each converted field once:
    the pipeline builds hundreds of thousands of poses.
    """

    x: float
    y: float
    heading: float

    def __init__(self, x: float, y: float, heading: float):
        x, y = float(x), float(y)
        wrapped = float((heading + math.pi) % TWO_PI - math.pi)  # wrap_angle
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(wrapped)):
            for name, value in (("x", x), ("y", y), ("heading", heading)):
                if not math.isfinite(value):
                    raise ValueError(f"Pose2 {name} must be finite, got {value}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "heading", wrapped)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.heading])


def se2_compose(a: Pose2, b: Pose2) -> Pose2:
    """Compose two poses: b expressed in a's frame, mapped to the world."""
    c, s = math.cos(a.heading), math.sin(a.heading)
    return Pose2(
        a.x + c * b.x - s * b.y,
        a.y + s * b.x + c * b.y,
        a.heading + b.heading,
    )


def se2_relative(a: Pose2, b: Pose2) -> Pose2:
    """Express b in a's frame, i.e. inverse(a) composed with b."""
    c, s = math.cos(a.heading), math.sin(a.heading)
    dx, dy = b.x - a.x, b.y - a.y
    return Pose2(c * dx + s * dy, -s * dx + c * dy, b.heading - a.heading)


@dataclass(frozen=True)
class OrientedBox:
    """A 2D oriented box: center, half-extents along local axes, yaw.

    Side k has its outward normal at local angle k*pi/2, so side 0 faces
    local +x, side 1 local +y, side 2 local -x, side 3 local -y.
    """

    cx: float
    cy: float
    hx: float
    hy: float
    yaw: float

    def __post_init__(self):
        if self.hx <= 0 or self.hy <= 0:
            raise ValueError(f"half-extents must be positive, got ({self.hx}, {self.hy})")

    @property
    def center(self) -> np.ndarray:
        return np.array([self.cx, self.cy])

    def side_normal(self, k: int) -> np.ndarray:
        """World-frame outward unit normal of side k."""
        ang = self.yaw + k * (math.pi / 2)
        return np.array([math.cos(ang), math.sin(ang)])

    def side_midpoint(self, k: int) -> np.ndarray:
        half = (self.hx, self.hy, self.hx, self.hy)[k]
        return self.center + half * self.side_normal(k)

    def corners(self) -> np.ndarray:
        """The 4 corners, counter-clockwise, shape (4, 2)."""
        local = np.array(
            [[self.hx, self.hy], [-self.hx, self.hy], [-self.hx, -self.hy], [self.hx, -self.hy]]
        )
        return self.center + local @ rot2(self.yaw).T

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points (n, 2) strictly inside the box."""
        local = np.atleast_2d(points - self.center) @ rot2(self.yaw)
        return (np.abs(local[:, 0]) < self.hx) & (np.abs(local[:, 1]) < self.hy)


@dataclass(frozen=True)
class SideLabels:
    """Assignment of front/back/left/right to the four box side indices.

    The labels are a fixed cyclic pattern around the box: back is opposite
    the front, and left is the side whose normal is the front normal
    rotated +90 degrees.
    """

    front: int
    back: int
    left: int
    right: int

    def __post_init__(self):
        if sorted((self.front, self.back, self.left, self.right)) != [0, 1, 2, 3]:
            raise ValueError("side labels must be a permutation of 0..3")
        if self.back != (self.front + 2) % 4 or self.left != (self.front + 1) % 4:
            raise ValueError("labels must keep the fixed cyclic offsets from front")

    @staticmethod
    def from_front(front: int) -> "SideLabels":
        return SideLabels(front, (front + 2) % 4, (front + 1) % 4, (front + 3) % 4)

    def side_index(self, name: str) -> int:
        return getattr(self, name)


@dataclass(frozen=True)
class GoalSpec:
    """Object-centric goal: approach side, clearance distance, approach angle."""

    side: str
    distance_d: float
    angle_theta: float

    def __post_init__(self):
        if self.side not in SIDE_NAMES:
            raise ValueError(f"unknown side {self.side!r}")
        if not 0.0 <= self.distance_d <= 1.0:
            raise ValueError(f"distance_d must be in [0, 1], got {self.distance_d}")
        if min(abs(self.angle_theta - a) for a in GOAL_ANGLES) > 1e-9:
            raise ValueError(f"angle_theta {self.angle_theta} not in the allowed set")


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera with a known mounting height on the robot.

    Pixels are square and the principal point is the image center, so the
    intrinsics follow from the vertical field of view and the image size.
    """

    height: float = 1.5
    vertical_fov: float = math.pi / 2
    image_width_px: int = 224
    image_height_px: int = 224

    @property
    def fy(self) -> float:
        return (self.image_height_px / 2) / math.tan(self.vertical_fov / 2)

    @property
    def fx(self) -> float:
        return self.fy

    @property
    def cx_px(self) -> float:
        return self.image_width_px / 2

    @property
    def cy_px(self) -> float:
        return self.image_height_px / 2

    @property
    def horizontal_fov(self) -> float:
        return 2.0 * math.atan((self.image_width_px / 2) / self.fx)


def determine_front_side(box: OrientedBox, camera: Pose2) -> SideLabels:
    """Label the box side most facing the camera as the front.

    The visibility score of side k is the dot product between its outward
    unit normal and the unit direction from the side midpoint to the camera
    position. When the two best scores are within ``FRONT_TIE_EPSILON`` the
    view is ambiguous, and AmbiguousView is raised.
    """
    cam = np.array([camera.x, camera.y])
    if box.contains(cam[None, :])[0]:
        raise ValueError("camera position lies inside the box")
    scores = np.empty(4)
    for k in range(4):
        to_cam = cam - box.side_midpoint(k)
        scores[k] = float(np.dot(box.side_normal(k), to_cam / np.linalg.norm(to_cam)))
    order = np.argsort(scores)
    if scores[order[3]] - scores[order[2]] < FRONT_TIE_EPSILON:
        raise AmbiguousView(
            f"top side scores {scores[order[3]]:.4f} and {scores[order[2]]:.4f} within {FRONT_TIE_EPSILON}"
        )
    return SideLabels.from_front(int(order[3]))


def derive_goal_pose(
    box: OrientedBox, labels: SideLabels, spec: GoalSpec, robot_radius: float
) -> Pose2:
    """Goal pose for an approach spec relative to a labeled box side.

    The goal stands on the side's outward ray rotated by the approach angle
    about the side midpoint, at a distance that leaves ``distance_d`` of
    clearance between the object face and the robot footprint boundary.
    The goal heading points at the side midpoint.
    """
    if robot_radius <= 0:
        raise ValueError("robot_radius must be positive")
    k = labels.side_index(spec.side)
    m = box.side_midpoint(k)
    n = box.side_normal(k)
    ray = rot2(spec.angle_theta) @ n
    pos = m + (spec.distance_d + robot_radius) * ray
    heading = math.atan2(m[1] - pos[1], m[0] - pos[0])
    return Pose2(float(pos[0]), float(pos[1]), heading)


def compute_tilt(
    camera: CameraModel,
    camera_pose: Pose2,
    object_lowest_point: tuple[float, float, float],
) -> float:
    """Downward camera tilt that puts a 3D point on the row 3/4 down the image.

    tilt = beta - gamma, where beta is the depression angle from the camera
    to the point and gamma is the viewing angle of the target row below the
    optical axis. Positive tilt looks down; the executor clips it to its
    tilt limit.
    """
    px, py, pz = object_lowest_point
    rho = math.hypot(px - camera_pose.x, py - camera_pose.y)
    if rho <= 0:
        raise ValueError("object point is directly above/below the camera")
    beta = math.atan2(camera.height - pz, rho)
    gamma = math.atan(0.5 * math.tan(camera.vertical_fov / 2))
    return beta - gamma


def pose_error(achieved: Pose2, goal: Pose2) -> tuple[float, float]:
    """Final-pose error: (Euclidean distance in meters, |heading error| in degrees)."""
    dist = math.hypot(achieved.x - goal.x, achieved.y - goal.y)
    ang = abs(wrap_angle(achieved.heading - goal.heading))
    return dist, math.degrees(ang)


def camera_to_robot_rotation(tilt: float) -> np.ndarray:
    """Rotation taking camera-frame vectors (x right, y down, z optical axis)
    to the robot frame (x forward, y left, z up) for a given downward tilt."""
    sa, ca = math.sin(tilt), math.cos(tilt)
    return np.array(
        [
            [0.0, -sa, ca],
            [-1.0, 0.0, 0.0],
            [0.0, -ca, -sa],
        ]
    )


def project_to_pixel(
    camera: CameraModel, tilt: float, point_robot: np.ndarray
) -> tuple[float, float]:
    """Project a robot-frame 3D point through the tilted camera to pixels.

    The camera sits at (0, 0, camera.height) in the robot frame. Returns
    (u, v) with v counted from the image top; the point must be in front
    of the camera.
    """
    rel = np.asarray(point_robot, dtype=float) - np.array([0.0, 0.0, camera.height])
    p_cam = camera_to_robot_rotation(tilt).T @ rel
    if p_cam[2] <= 0:
        raise ValueError("point is behind the camera")
    u = camera.fx * p_cam[0] / p_cam[2] + camera.cx_px
    v = camera.fy * p_cam[1] / p_cam[2] + camera.cy_px
    return float(u), float(v)
