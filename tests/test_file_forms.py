"""One table for every file form: ``errors.written`` writes what
``errors.checked`` reads, through ``pipeline.SHAPES`` for the forms that are
not an object of their fields, so each file reads back equal to what wrote it.
The bytes themselves are pinned by ``tests/test_golden_digests.py``.
"""

import dataclasses
import json
import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amr_navkit.codec import PHI_BINS, PSI_BINS, R_BINS, TokenizedStep
from amr_navkit.config import RunConfig, config_from_dict
from amr_navkit.errors import checked, field_types, written
from amr_navkit.evaluation import EpisodeSummary, MetricsReport, report_to_dict, summarize
from amr_navkit.geometry import OrientedBox, Pose2
from amr_navkit.pipeline import (
    LIDAR_UNIT,
    SHAPES,
    DatasetManifest,
    Keyframe,
    generate_episode,
    sample_task,
)
from amr_navkit.scene import LidarScan, SceneObject, sample_scene


def _same(a, b) -> bool:
    """Equal field by field, floats and arrays bit for bit, and of the same types."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, k), getattr(b, k)) for k in field_types(type(a)))
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def _round_trip(x):
    return checked(json.loads(json.dumps(written(x, SHAPES))), type(x), "", SHAPES)


def _summary(i: int) -> EpisodeSummary:
    outcome = ("reached", "timeout", "collision")[i % 3]
    return EpisodeSummary(i, outcome, 0.01 * i, 1.5 * i, 40 + i, 0.2, 0.7 * i, i % 2 == 0, i % 3 == 0)


def test_every_file_reads_back_equal():
    scene = sample_scene(41)
    record = generate_episode(scene, sample_task(scene, 3)[0], seed=3, num_rays=8)
    report = summarize([_summary(i) for i in range(12)])
    config = config_from_dict({"master_seed": 7, "executor": {"speed": 0.4}, "scene_gen": {"room_max": 9.5}})
    manifest = DatasetManifest(5, 2, 3, "abc", {"created_at": "2026-01-01T00:00:00+00:00"})
    for x in (scene, record, report, config, RunConfig(), manifest):
        assert _same(_round_trip(x), x), type(x).__name__


def test_rounded_report_reads_back_rounded():
    report = summarize([_summary(i) for i in range(12)])
    d = report_to_dict(report)
    assert d == written(checked(d, MetricsReport, ""))
    assert d["median_angle_error"] == float(f"{report.median_angle_error:.6g}")


# each shape's writer and reader are inverses

# every finite float: -0.0, subnormals and the extremes included
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
poses = st.builds(Pose2, finite, finite, finite)


@settings(max_examples=300, deadline=None)
@given(poses)
def test_pose_round_trip(p):
    assert _same(_round_trip(p), p)


steps = st.builds(
    TokenizedStep,
    st.integers(0, PSI_BINS - 1),
    st.integers(0, R_BINS - 1),
    st.integers(0, PHI_BINS - 1),
    finite,
    finite,
    finite,
)


@st.composite
def keyframe_lists(draw):
    """Keyframes as one record holds them: one horizon, ray count and range
    for all; each range a whole number of steps, at ``max_range`` or below."""
    count = draw(st.integers(0, 4))
    horizon = draw(st.integers(0, 6))
    num_rays = draw(st.integers(1, 24))
    max_range = draw(st.one_of(st.just(10.0), st.floats(1e-3, 200.0)))
    top = round(max_range / LIDAR_UNIT)
    ray_steps = st.one_of(st.just(top), st.just(0), st.integers(0, top))
    return [
        Keyframe(
            pose=draw(poses),
            tilt=draw(finite),
            lidar=LidarScan(
                num_rays,
                np.array(draw(st.lists(ray_steps, min_size=num_rays, max_size=num_rays)), dtype=np.int64) * LIDAR_UNIT,
                max_range,
            ),
            expert_steps=draw(st.lists(steps, min_size=horizon, max_size=horizon)),
        )
        for _ in range(count)
    ]


def _keyframes_round_trip(keyframes: list) -> list:
    """A record's keyframes, written through their shape and read back."""
    text = json.dumps(SHAPES[list[Keyframe]].write(keyframes))
    return checked(json.loads(text), list[Keyframe], "keyframes", SHAPES)


# -0.0 and a subnormal in every float column, every ray at max_range
_TINY = 5e-324
_EDGE = Keyframe(
    Pose2(-0.0, _TINY, -0.0),
    -0.0,
    LidarScan(5, np.full(5, 2.0), 2.0),
    [TokenizedStep(PSI_BINS - 1, R_BINS - 1, PHI_BINS - 1, -0.0, _TINY, -_TINY)] * 3,
)


@settings(max_examples=300, deadline=None)
@given(keyframe_lists())
@example([])
@example([_EDGE])
@example([_EDGE, _EDGE])
def test_keyframes_round_trip_bit_for_bit(keyframes):
    assert _same(_keyframes_round_trip(keyframes), keyframes)


positive = st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False)
scene_objects = st.builds(
    SceneObject,
    id=st.integers(-(2**62), 2**62),
    box=st.builds(OrientedBox, finite, finite, positive, positive, finite),
    base_height=finite,
    category=st.text(max_size=12),
    target_eligible=st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(scene_objects)
def test_scene_object_round_trip(o):
    assert _same(_round_trip(o), o)

