"""Dataset schema v3: compact JSON lines, each record's keyframes one object of
packed little-endian columns (``pipeline.KeyframeColumns``), LiDAR ranges as
whole steps of 0.1 mm.

A malformed column is a SchemaMismatch naming the record, the column and,
where there is one, the keyframe; a non-finite pose, tilt or residual is
``tests/test_pipeline.py``'s case. A record that no column form holds is a
ValueError at write time.
"""

import base64
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amr_navkit.codec import PHI_BINS, PSI_BINS, R_BINS
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


# each column's dtype and the numbers it holds per keyframe, as (count, horizon, num_rays) give them
COLUMNS = {
    "poses": ("<f8", lambda h, n: 3),
    "tilts": ("<f8", lambda h, n: 1),
    "bins": ("i1", lambda h, n: 3 * h),
    "residuals": ("<f8", lambda h, n: 3 * h),
    "range_steps": ("<u4", lambda h, n: n),
}


def _decoded(d: dict, column: str) -> np.ndarray:
    """A record dict's column as a writable (count, per keyframe) array."""
    kfs = d["keyframes"]
    dtype, per = COLUMNS[column]
    raw = np.frombuffer(base64.b64decode(kfs[column]), dtype)
    return raw.reshape(kfs["count"], per(kfs["horizon"], kfs["num_rays"])).copy()


def _encoded(d: dict, column: str, values: np.ndarray) -> dict:
    d["keyframes"][column] = base64.b64encode(np.ascontiguousarray(values, COLUMNS[column][0])).decode()
    return d


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
    assert manifest["version"] == DATASET_VERSION == "3"


def test_lines_are_compact_with_packed_columns(demos, tmp_path):
    _, _, record = demos[0]
    path = tmp_path / "data.jsonl"
    write_dataset([record], str(path))
    line = path.read_text()
    assert line.count("\n") == 1 and ", " not in line and ": " not in line
    d = json.loads(line)
    assert d["version"] == "3"
    kfs = d["keyframes"]
    assert (kfs["count"], kfs["horizon"], kfs["num_rays"], kfs["max_range"]) == (len(record.keyframes), 12, 360, 10.0)
    np.testing.assert_array_equal(_decoded(d, "range_steps") * LIDAR_UNIT, [kf.lidar.ranges for kf in record.keyframes])
    assert _decoded(d, "tilts")[:, 0].tolist() == [kf.tilt for kf in record.keyframes]


def _v2_line(record) -> dict:
    """``record`` as a version-2 dataset wrote it: one object per keyframe."""
    d = record_to_dict(record)
    d["version"] = "2"
    d["keyframes"] = [
        {
            "pose": [kf.pose.x, kf.pose.y, kf.pose.heading],
            "tilt": kf.tilt,
            "expert_tilt_target": kf.tilt,
            "lidar": {
                "num_rays": kf.lidar.num_rays,
                "max_range": kf.lidar.max_range,
                "ranges": _range_steps(kf.lidar.ranges).tolist(),
            },
            "expert_steps": [dataclasses.asdict(s) for s in kf.expert_steps],
        }
        for kf in record.keyframes
    ]
    return d


def test_version_2_dataset_rejected_naming_both_versions(demos, tmp_path):
    _, _, record = demos[0]
    d = _v2_line(record)
    with pytest.raises(SchemaMismatch, match="'2' != '3'"):
        record_from_dict(json.loads(json.dumps(d)), index=0)
    path = tmp_path / "v2.jsonl"
    write_dataset([record], str(path))
    path.write_text(json.dumps(d, sort_keys=True) + "\n")
    manifest = tmp_path / "v2.jsonl.manifest.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "version": "2"}))
    with pytest.raises(SchemaMismatch, match="record 0: dataset version '2' != '3'"):
        read_dataset(str(path))


def test_version_2_manifest_rejected_naming_both_versions(demos, tmp_path):
    _, _, record = demos[0]
    path = tmp_path / "d.jsonl"
    write_dataset([record], str(path))
    manifest = tmp_path / "d.jsonl.manifest.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "version": "2"}))
    with pytest.raises(SchemaMismatch, match=re.escape(f"dataset manifest {manifest}: manifest version '2' != '3'")):
        read_dataset(str(path))


def test_scene_files_stay_version_1(tmp_path):
    scene = sample_scene(45)
    assert scene_to_dict(scene)["version"] == "1"
    path = tmp_path / "scene.json"
    save_scene(scene, str(path))
    assert json.loads(path.read_text())["version"] == "1"


# every malformed column, planted in the second record of a dataset


def _read_with_second_record(record, d: dict, tmp_path):
    path = tmp_path / "bad.jsonl"
    write_dataset([record, record], str(path))
    first = path.read_text().splitlines()[0]
    path.write_text(first + "\n" + json.dumps(d, sort_keys=True) + "\n")
    return read_dataset(str(path))


@pytest.mark.parametrize("edit", ["drop", "append"])
@pytest.mark.parametrize("column", COLUMNS)
def test_column_of_wrong_length_rejected(demos, tmp_path, column, edit):
    _, _, record = demos[0]
    d = record_to_dict(record)
    raw = base64.b64decode(d["keyframes"][column])
    size = np.dtype(COLUMNS[column][0]).itemsize
    raw = raw[:-size] if edit == "drop" else raw + raw[:size]
    d["keyframes"][column] = base64.b64encode(raw).decode()
    count = len(raw) + (size if edit == "drop" else -size)
    with pytest.raises(SchemaMismatch, match=f"record 1: keyframes\\.{column}: {len(raw)} bytes, expected {count}"):
        _read_with_second_record(record, d, tmp_path)


@pytest.mark.parametrize("n", [2, 4])
def test_poses_of_other_than_three_numbers_rejected(demos, n):
    # a pose list of 2 or 4 numbers was once read without complaint
    _, _, record = demos[0]
    d = record_to_dict(record)
    poses = _decoded(d, "poses")
    _encoded(d, "poses", np.resize(poses, (len(poses), n)))
    match = r"record 0: keyframes\.poses: \d+ bytes, expected \d+ for <f8 of shape \(\d+, 3\)"
    with pytest.raises(SchemaMismatch, match=match):
        record_from_dict(d, index=0)


@pytest.mark.parametrize("text", ["@@@@", "AAA", "AA=A", "A\u00e9AA", " AAAA"])
@pytest.mark.parametrize("column", COLUMNS)
def test_column_that_is_not_base64_rejected(demos, tmp_path, column, text):
    _, _, record = demos[0]
    d = record_to_dict(record)
    d["keyframes"][column] = text
    with pytest.raises(SchemaMismatch, match=f"record 1: keyframes\\.{column}: invalid base64"):
        _read_with_second_record(record, d, tmp_path)


@pytest.mark.parametrize(
    "which, name, value",
    [
        (0, "psi_bin", PSI_BINS),
        (1, "r_bin", R_BINS),
        (2, "phi_bin", PHI_BINS),
        (0, "psi_bin", -1),
        (1, "r_bin", 127),
        (2, "phi_bin", -128),
    ],
)
def test_bin_outside_its_bins_rejected(demos, tmp_path, which, name, value):
    _, _, record = demos[0]
    d = record_to_dict(record)
    bins = _decoded(d, "bins")
    bins[3, 3 * 5 + which] = value  # keyframe 3, step 5
    top = {0: PSI_BINS, 1: R_BINS, 2: PHI_BINS}[which] - 1
    match = re.escape(f"record 1: keyframes.bins: keyframe 3: {name} {value} is outside 0..{top}") + "$"
    with pytest.raises(SchemaMismatch, match=match):
        _read_with_second_record(record, _encoded(d, "bins", bins), tmp_path)


@pytest.mark.parametrize("step", [100_001, 2**32 - 1])
def test_range_step_above_max_range_rejected(demos, tmp_path, step):
    _, _, record = demos[0]
    d = record_to_dict(record)
    steps = _decoded(d, "range_steps")
    steps[2, 7] = step
    match = rf"record 1: keyframes\.range_steps: keyframe 2: step {step} is outside 0\.\.100000 \(max_range 10\.0 m\)"
    with pytest.raises(SchemaMismatch, match=match):
        _read_with_second_record(record, _encoded(d, "range_steps", steps), tmp_path)


def test_range_bound_follows_the_record_max_range(demos):
    _, _, record = demos[2]  # max_range 2 m
    d = record_to_dict(record)
    steps = _decoded(d, "range_steps")
    steps[0, 0] = 20_000
    back = record_from_dict(json.loads(json.dumps(_encoded(d, "range_steps", steps))))
    assert back.keyframes[0].lidar.ranges[0] == 2.0
    steps[0, 0] = 20_001
    with pytest.raises(SchemaMismatch, match="20001 is outside 0..20000"):
        record_from_dict(json.loads(json.dumps(_encoded(d, "range_steps", steps))))


def test_integral_float_header_loads_as_int(demos):
    # the errors.checked rule for every int field: an integral number
    _, _, record = demos[0]
    d = record_to_dict(record)
    for key in ("count", "horizon", "num_rays"):
        d["keyframes"][key] = float(d["keyframes"][key])
    back = record_from_dict(json.loads(json.dumps(d)))
    assert [kf.expert_steps for kf in back.keyframes] == [kf.expert_steps for kf in record.keyframes]
    np.testing.assert_array_equal(back.keyframes[-1].lidar.ranges, record.keyframes[-1].lidar.ranges)


@pytest.mark.parametrize("key", ["count", "horizon", "num_rays"])
def test_negative_header_count_rejected(demos, key):
    _, _, record = demos[0]
    d = record_to_dict(record)
    d["keyframes"][key] = -1
    with pytest.raises(SchemaMismatch, match=f"record 0: keyframes {key} must be non-negative, got -1"):
        record_from_dict(d, index=0)


# the writer refuses a record that no column form holds


def _edited(record, k: int, **fields):
    keyframes = list(record.keyframes)
    keyframes[k] = dataclasses.replace(keyframes[k], **fields)
    return dataclasses.replace(record, keyframes=keyframes)


@pytest.mark.parametrize(
    "edit, dims",
    [
        pytest.param(lambda kf: {"lidar": LidarScan(180, kf.lidar.ranges[:180], 10.0)}, (12, 180, 10.0), id="num_rays"),
        pytest.param(lambda kf: {"lidar": LidarScan(360, kf.lidar.ranges, 20.0)}, (12, 360, 20.0), id="max_range"),
        pytest.param(lambda kf: {"expert_steps": kf.expert_steps[:-1]}, (11, 360, 10.0), id="horizon"),
    ],
)
def test_writer_refuses_keyframes_that_differ(demos, tmp_path, edit, dims):
    _, _, record = demos[0]
    bad = _edited(record, 2, **edit(record.keyframes[2]))
    path = tmp_path / "d.jsonl"
    match = f"record 1: keyframe 2 has horizon, num_rays, max_range {dims}, keyframe 0 (12, 360, 10.0)"
    with pytest.raises(ValueError, match="^" + re.escape(match)):
        write_dataset([record, bad], str(path))
    assert not path.exists() and not (tmp_path / "d.jsonl.manifest.json").exists()


@pytest.mark.parametrize("shift, step", [(10.0, r"\d+"), (-20.0, r"-\d+")], ids=["above-max", "negative"])
def test_writer_refuses_a_range_the_reader_refuses(demos, tmp_path, shift, step):
    # a step outside 0..2**32-1 would otherwise wrap in its <u4 column
    _, _, record = demos[0]
    kf = record.keyframes[2]
    bad = _edited(record, 2, lidar=LidarScan(360, kf.lidar.ranges + shift, 10.0))
    path = tmp_path / "d.jsonl"
    with pytest.raises(ValueError, match=rf"^record 0: keyframes\.range_steps: keyframe 2: step {step} is outside"):
        write_dataset([bad], str(path))
    assert not path.exists()
