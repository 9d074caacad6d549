"""Dataset schema v2: LiDAR ranges stored as integer steps of 0.1 mm, compact JSON lines."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amr_navkit.errors import SchemaMismatch
from amr_navkit.pipeline import (
    DATASET_VERSION,
    LIDAR_UNIT,
    _range_steps,
    generate_episode,
    read_dataset,
    record_from_dict,
    record_to_dict,
    sample_task,
    save_scene,
    scene_to_dict,
    write_dataset,
)
from amr_navkit.scene import LidarScan, raycast_lidar, sample_scene

HALF_STEP = 0.5 * LIDAR_UNIT + 1e-12


@pytest.fixture(scope="module")
def demos():
    out = []
    for scene_seed, task_seed, max_range in ((41, 3, 10.0), (52, 5, 10.0), (63, 7, 2.0)):
        scene = sample_scene(scene_seed)
        task = sample_task(scene, task_seed)
        out.append((scene, max_range, generate_episode(scene, task, seed=task_seed, max_range=max_range)))
    return out


def _ranges_field(d: dict, k: int = 0) -> list:
    return d["keyframes"][k]["lidar"]["ranges"]


def test_stored_ranges_within_half_step_of_raycast(demos):
    at_max = 0
    for scene, max_range, record in demos:
        for kf in record.keyframes:
            exact = raycast_lidar(scene, kf.pose, kf.lidar.num_rays, max_range).ranges
            stored = kf.lidar.ranges
            assert np.abs(stored - exact).max() <= HALF_STEP
            np.testing.assert_array_equal(stored, _range_steps(stored) * LIDAR_UNIT)
            hit_max = exact == max_range
            at_max += int(hit_max.sum())
            assert (_range_steps(stored)[hit_max] == round(max_range / LIDAR_UNIT)).all()
    assert at_max > 0  # the 2 m scans reach max_range


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([-1, 0, 1]))
@example(0, 0)
@example(99_999, 0)
@example(10**6, 0)
def test_half_step_ranges_round_within_half_step(k, nudge):
    # (k + 0.5) steps is the worst case for rounding; nudge it one ulp either way
    r = (k + 0.5) * LIDAR_UNIT
    r = float(np.nextafter(r, np.inf if nudge > 0 else -np.inf)) if nudge else r
    q = _range_steps(np.array([r]))
    assert q.dtype == np.int64 and q[0] in (k, k + 1)
    assert abs(q[0] * LIDAR_UNIT - r) <= HALF_STEP


def test_half_step_ranges_survive_write_and_read(demos, tmp_path):
    _, _, record = demos[0]
    kf = record.keyframes[0]
    ranges = (np.arange(kf.lidar.num_rays) + 0.5) * LIDAR_UNIT * 97
    edited = dataclasses.replace(
        record,
        keyframes=[dataclasses.replace(kf, lidar=LidarScan(kf.lidar.num_rays, ranges, kf.lidar.max_range))],
    )
    path = tmp_path / "half.jsonl"
    write_dataset([edited], str(path))
    (back,) = read_dataset(str(path))
    assert np.abs(back.keyframes[0].lidar.ranges - ranges).max() <= HALF_STEP


def test_write_read_write_is_byte_identical(demos, tmp_path):
    records = [record for _, _, record in demos]
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset(records, str(first), master_seed=4, scene_count=3, config_hash="abc")
    back = read_dataset(str(first), strict=True)
    write_dataset(back, str(second), master_seed=4, scene_count=3, config_hash="abc")
    assert first.read_bytes() == second.read_bytes()
    manifest = json.loads((tmp_path / "a.jsonl.manifest.json").read_text())
    assert manifest["version"] == DATASET_VERSION == "2"


def test_lines_are_compact_with_integer_ranges(demos, tmp_path):
    _, _, record = demos[0]
    path = tmp_path / "data.jsonl"
    write_dataset([record], str(path))
    line = path.read_text()
    assert line.count("\n") == 1 and ", " not in line and ": " not in line
    d = json.loads(line)
    assert d["version"] == "2"
    assert all(type(q) is int for kf in d["keyframes"] for q in kf["lidar"]["ranges"])


def test_version_1_record_rejected_naming_both_versions(demos, tmp_path):
    _, _, record = demos[0]
    d = record_to_dict(record)
    d["version"] = "1"
    for kf, scan in zip(d["keyframes"], record.keyframes):
        kf["lidar"]["ranges"] = scan.lidar.ranges.tolist()
    with pytest.raises(SchemaMismatch, match="'1' != '2'"):
        record_from_dict(json.loads(json.dumps(d)), index=0)
    path = tmp_path / "v1.jsonl"
    path.write_text(json.dumps(d, sort_keys=True) + "\n")
    with pytest.raises(SchemaMismatch, match="record 0: dataset version '1' != '2'"):
        read_dataset(str(path))


def test_scene_files_stay_version_1(tmp_path):
    scene = sample_scene(45)
    assert scene_to_dict(scene)["version"] == "1"
    path = tmp_path / "scene.json"
    save_scene(scene, str(path))
    assert json.loads(path.read_text())["version"] == "1"


@pytest.mark.parametrize(
    "value, match",
    [
        (1.5, "lidar.ranges.7 must be int"),
        (True, "lidar.ranges.7 must be int"),
        ("3", "lidar.ranges.7 must be int"),
        (None, "lidar.ranges.7 must be int"),
        (-1, "lidar.ranges.7: -1 is outside"),
        (100_001, "lidar.ranges.7: 100001 is outside"),
        (10**30, "lidar.ranges.7: 1000000000000000000000000000000 is outside"),
    ],
)
def test_bad_range_step_rejected(demos, tmp_path, value, match):
    _, _, record = demos[0]
    d = record_to_dict(record)
    _ranges_field(d)[7] = value
    # the message names the full path, keyframe included
    with pytest.raises(SchemaMismatch, match=f"record 0: keyframes\\.0\\.{re.escape(match)}"):
        record_from_dict(json.loads(json.dumps(d)), index=0)
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(d) + "\n")
    with pytest.raises(SchemaMismatch, match=r"record 0: keyframes\.0\.lidar\.ranges\.7\b"):
        read_dataset(str(path))


def test_range_bound_follows_the_record_max_range(demos):
    _, _, record = demos[2]  # max_range 2 m
    d = record_to_dict(record)
    _ranges_field(d)[0] = 20_000
    assert record_from_dict(json.loads(json.dumps(d))).keyframes[0].lidar.ranges[0] == 2.0
    _ranges_field(d)[0] = 20_001
    with pytest.raises(SchemaMismatch, match="20001 is outside 0..20000"):
        record_from_dict(json.loads(json.dumps(d)))


@pytest.mark.parametrize("edit", ["append", "drop", "empty"])
def test_wrong_range_count_rejected(demos, edit):
    _, _, record = demos[0]
    d = record_to_dict(record)
    ranges = _ranges_field(d)
    if edit == "append":
        ranges.append(ranges[0])
    elif edit == "drop":
        ranges.pop()
    else:
        ranges.clear()
    with pytest.raises(SchemaMismatch, match="values for 360 rays"):
        record_from_dict(json.loads(json.dumps(d)), index=0)


def test_integral_float_step_loads_as_int(demos):
    # the errors.checked rule for every int field: an integral number
    _, _, record = demos[0]
    d = record_to_dict(record)
    _ranges_field(d)[7] = float(_ranges_field(d)[7])
    back = record_from_dict(json.loads(json.dumps(d)))
    np.testing.assert_array_equal(back.keyframes[0].lidar.ranges, record.keyframes[0].lidar.ranges)
