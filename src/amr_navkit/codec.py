"""Trajectory tokenization: the discrete action interface.

Egocentric polar waypoint steps are quantized into uniform bins with
arithmetic residuals, and decoded back into world-frame waypoint chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .geometry import TWO_PI, Pose2, se2_compose

# bin layout for one waypoint sub-action (direction, distance, heading)
PSI_BINS = 30
R_BINS = 32
PHI_BINS = 12
R_MAX = 0.2

PSI_WIDTH = 2.0 * math.pi / PSI_BINS
R_WIDTH = R_MAX / R_BINS
PHI_WIDTH = 2.0 * math.pi / PHI_BINS


@dataclass(frozen=True, slots=True)
class PolarStep:
    """One egocentric waypoint step in its predecessor's frame.

    psi is the displacement direction, r the displacement length, phi the
    new heading; psi and phi live in [0, 2*pi), r in [0, R_MAX].
    """

    psi: float
    r: float
    phi: float

    def __init__(self, psi: float, r: float, phi: float):
        psi, phi = psi % TWO_PI, phi % TWO_PI
        if not -1e-12 <= r <= R_MAX + 1e-9:
            raise OutOfRange(f"step distance {r} outside [0, {R_MAX}]")
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "phi", phi)


@dataclass(frozen=True, slots=True)
class TokenizedStep:
    """Quantized polar step: bin indices plus residuals from bin centers."""

    psi_bin: int
    r_bin: int
    phi_bin: int
    psi_res: float
    r_res: float
    phi_res: float

    def without_residual(self) -> "TokenizedStep":
        return TokenizedStep(self.psi_bin, self.r_bin, self.phi_bin, 0.0, 0.0, 0.0)


def _quantize(value: float, width: float, nbins: int) -> tuple[int, float]:
    idx = min(int(value / width), nbins - 1)
    return idx, value - (idx + 0.5) * width


def encode_step(step: PolarStep) -> TokenizedStep:
    """Quantize a polar step into uniform bins with residuals.

    Bins are half-open [i*w, (i+1)*w) with the top bin clamped so the range
    maximum still encodes; the residual is the offset from the bin center.
    """
    if step.r > R_MAX + 1e-9:
        raise OutOfRange(f"step distance {step.r} exceeds {R_MAX}")
    psi_bin, psi_res = _quantize(step.psi, PSI_WIDTH, PSI_BINS)
    r_bin, r_res = _quantize(step.r, R_WIDTH, R_BINS)
    phi_bin, phi_res = _quantize(step.phi, PHI_WIDTH, PHI_BINS)
    return TokenizedStep(psi_bin, r_bin, phi_bin, psi_res, r_res, phi_res)


def decode_step(tok: TokenizedStep, use_residual: bool = True) -> PolarStep:
    """Recover a continuous step as bin center plus (optionally) the residual."""
    if not (0 <= tok.psi_bin < PSI_BINS and 0 <= tok.r_bin < R_BINS and 0 <= tok.phi_bin < PHI_BINS):
        raise ValueError("bin index out of range")
    psi = (tok.psi_bin + 0.5) * PSI_WIDTH
    r = (tok.r_bin + 0.5) * R_WIDTH
    phi = (tok.phi_bin + 0.5) * PHI_WIDTH
    if use_residual:
        psi += tok.psi_res
        r += tok.r_res
        phi += tok.phi_res
    return PolarStep(psi, max(0.0, min(r, R_MAX)), phi)


def step_from_pose(rel: Pose2) -> PolarStep:
    """Convert an egocentric pose delta into a polar step (psi=0 for zero motion)."""
    r = math.hypot(rel.x, rel.y)
    psi = math.atan2(rel.y, rel.x) if r > 1e-12 else 0.0
    return PolarStep(psi, r, rel.heading)


def pose_from_step(step: PolarStep) -> Pose2:
    """Pose delta in the predecessor frame realizing a polar step."""
    return Pose2(step.r * math.cos(step.psi), step.r * math.sin(step.psi), step.phi)


# the (psi, r, phi) bin widths and top bins, as columns for a (3, n) array
_WIDTHS = np.array([[PSI_WIDTH], [R_WIDTH], [PHI_WIDTH]])
_TOP_BINS = np.array([[PSI_BINS - 1], [R_BINS - 1], [PHI_BINS - 1]])


def encode_steps(x, y, heading) -> list[TokenizedStep]:
    """``encode_step(step_from_pose(Pose2(x, y, heading)))`` over arrays of deltas.

    ``heading`` is as a Pose2 holds it (already wrapped). Every bin and
    residual has the scalar chain's bits: ``hypot`` and ``atan2`` are
    ``math``'s per element (numpy's round some inputs differently), and the
    rest is numpy's elementwise arithmetic, which rounds as Python's does
    (``astype`` truncates as ``int`` does). For the first step it cannot
    encode, it raises what ``encode_step`` raises for that step.
    """
    xs, ys = np.asarray(x, dtype=float).tolist(), np.asarray(y, dtype=float).tolist()
    r = np.fromiter(map(math.hypot, xs, ys), float, len(xs))
    psi = np.where(r > 1e-12, np.fromiter(map(math.atan2, ys, xs), float, len(xs)), 0.0)
    heading = np.asarray(heading, dtype=float)
    ok = (-1e-12 <= r) & (r <= R_MAX + 1e-9) & np.isfinite(heading)
    if not ok.all():
        i = int(ok.argmin())
        # raises: the scalar chain words the error as a per-step loop would
        encode_step(PolarStep(float(psi[i]), float(r[i]), float(heading[i])))
    value = np.array([psi % TWO_PI, r, heading % TWO_PI])
    bins = np.minimum((value / _WIDTHS).astype(np.int64), _TOP_BINS)
    res = value - (bins + 0.5) * _WIDTHS
    return list(map(TokenizedStep, *bins.tolist(), *res.tolist()))


def encode_trajectory(waypoints: list[Pose2]) -> list[TokenizedStep]:
    """Tokenize a chain of egocentric pose deltas (each in its predecessor's frame)."""
    return encode_steps([p.x for p in waypoints], [p.y for p in waypoints], [p.heading for p in waypoints])


def decode_trajectory(
    tokens: list[TokenizedStep], base: Pose2, use_residual: bool = True
) -> list[Pose2]:
    """Chain decoded steps forward from a world base pose; returns world waypoints."""
    poses = []
    cur = base
    for tok in tokens:
        cur = se2_compose(cur, pose_from_step(decode_step(tok, use_residual)))
        poses.append(cur)
    return poses
