"""One table for every file form: ``errors.written`` writes what
``errors.checked`` reads, through ``pipeline.SHAPES`` for the forms that are
not an object of their fields, so each file reads back equal to what wrote it.
The bytes themselves are pinned by ``tests/test_golden_digests.py``.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amr_navkit.config import RunConfig, config_from_dict
from amr_navkit.errors import checked, field_types, written
from amr_navkit.evaluation import EpisodeSummary, MetricsReport, report_to_dict, summarize
from amr_navkit.geometry import OrientedBox, Pose2
from amr_navkit.pipeline import (
    LIDAR_UNIT,
    SHAPES,
    DatasetManifest,
    generate_episode,
    sample_task,
)
from amr_navkit.scene import LidarScan, SceneObject, sample_scene


def _same(a, b) -> bool:
    """Equal field by field, arrays element by element, and of the same types."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
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
    record = generate_episode(scene, sample_task(scene, 3), seed=3, num_rays=8)
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

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
poses = st.builds(Pose2, finite, finite, finite)


@settings(max_examples=300, deadline=None)
@given(poses)
def test_pose_round_trip(p):
    assert _same(_round_trip(p), p)


@st.composite
def lidar_scans(draw):
    num_rays = draw(st.integers(1, 64))
    max_range = draw(st.floats(1e-3, 200.0))
    top = round(max_range / LIDAR_UNIT)
    steps = draw(st.lists(st.integers(0, top), min_size=num_rays, max_size=num_rays))
    return LidarScan(num_rays, np.array(steps, dtype=np.int64) * LIDAR_UNIT, max_range)


@settings(max_examples=200, deadline=None)
@given(lidar_scans())
def test_lidar_round_trip_on_whole_steps(scan):
    assert _same(_round_trip(scan), scan)


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

