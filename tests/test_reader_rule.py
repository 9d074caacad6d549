"""One reader rule for every file format: at each level an object has exactly
its type's fields, each value read by its type hint (``errors.checked``).

Every case plants one defect at one nesting level of a valid file: an
unknown key, a dropped key, or an array where an object belongs.
"""

import base64
import dataclasses
import json
import math
import re
import typing

import numpy as np
import pytest

from amr_navkit.cli import main
from amr_navkit.config import RunConfig, config_from_dict
from amr_navkit.errors import IoFailure, SchemaMismatch, checked, field_types
from amr_navkit.evaluation import MetricsReport, report_from_dict, report_to_dict, summarize
from amr_navkit.pipeline import (
    DATASET_VERSION,
    SHAPES,
    EpisodeRecord,
    KeyframeColumns,
    generate_episode,
    manifest_path,
    read_dataset,
    record_from_dict,
    record_to_dict,
    sample_task,
    scene_from_dict,
    scene_to_dict,
    write_dataset,
)
from amr_navkit.scene import Scene, raycast_lidar, sample_scene


@pytest.fixture(scope="module")
def episode():
    scene = sample_scene(41)
    task = sample_task(scene, 3)[0]
    return scene, task, generate_episode(scene, task, seed=3, num_rays=8)


def _copy(d):
    return json.loads(json.dumps(d))


def _at(d, path):
    for key in path:
        d = d[key]
    return d


def _planted(d, path, edit, drop_key):
    """``d`` with ``edit`` applied to the object at ``path`` (() is the whole file)."""
    d = _copy(d)
    if edit == "array" and not path:
        return []
    if edit == "array":
        _at(d, path[:-1])[path[-1]] = []
    elif edit == "unknown":
        _at(d, path)["bogus"] = 1
    else:
        del _at(d, path)[drop_key]
    return d


EDITS = ["unknown", "drop", "array"]

DATASET_LEVELS = {
    "record": ((), "planner_cost"),
    "task": (("task",), "ffr"),
    "side_labels": (("task", "side_labels"), "left"),
    "goal_spec": (("task", "goal_spec"), "side"),
    # a record's keyframes are one object of packed columns (KeyframeColumns),
    # which holds the keyframe fields, the LiDAR parameters and the expert steps
    "keyframe": (("keyframes",), "tilts"),
    "lidar": (("keyframes",), "max_range"),
    "expert_step": (("keyframes",), "bins"),
}


@pytest.mark.parametrize("edit", EDITS)
@pytest.mark.parametrize("level", DATASET_LEVELS)
def test_dataset_record_levels(episode, level, edit):
    path, drop_key = DATASET_LEVELS[level]
    d = _planted(record_to_dict(episode[2]), path, edit, drop_key)
    with pytest.raises(SchemaMismatch, match="record 0"):
        record_from_dict(d, index=0)


SCENE_LEVELS = {
    "top": ((), "seed"),
    "bounds": (("bounds",), "h"),
    "wall": (("walls", 2), "yaw"),
    "object": (("objects", 0), "category"),
}


@pytest.mark.parametrize("edit", EDITS)
@pytest.mark.parametrize("level", SCENE_LEVELS)
def test_scene_levels(level, edit):
    path, drop_key = SCENE_LEVELS[level]
    d = _planted(scene_to_dict(sample_scene(45)), path, edit, drop_key)
    with pytest.raises(SchemaMismatch):
        scene_from_dict(d)


def test_misspelled_scene_key_rejected():
    # a hand-added "target_eligble": false was once dropped, leaving the object a target
    d = _copy(scene_to_dict(sample_scene(45)))
    d["objects"][0]["target_eligble"] = False
    with pytest.raises(SchemaMismatch, match=r"objects\.0: unknown fields \['target_eligble'\]"):
        scene_from_dict(d)


REPORT_LEVELS = {
    "top": ((), "n_episodes"),
    "bucket": (("buckets", "2-4/nonffr/hidden"), "max_angle"),
}


@pytest.mark.parametrize("edit", EDITS)
@pytest.mark.parametrize("level", REPORT_LEVELS)
def test_report_levels(level, edit):
    path, drop_key = REPORT_LEVELS[level]
    d = _planted(report_to_dict(summarize([])), path, edit, drop_key)
    with pytest.raises(SchemaMismatch, match="report"):
        report_from_dict(d)


CONFIG_LEVELS = {"top": ((), "workers"), "section": (("executor",), "dt")}


@pytest.mark.parametrize("edit", ["unknown", "array"])
@pytest.mark.parametrize("level", CONFIG_LEVELS)
def test_config_levels(tmp_path, level, edit):
    # a top-level array once loaded as the defaults, and a section array raised AttributeError
    path, drop_key = CONFIG_LEVELS[level]
    d = _planted({"workers": 1, "executor": {"dt": 0.2}}, path, edit, drop_key)
    with pytest.raises(ValueError):
        config_from_dict(d)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(d))
    assert main(["--config", str(cfg), "gen-scenes", "--count", "1", "--out", str(tmp_path / "s")]) == 2


@pytest.mark.parametrize("level", CONFIG_LEVELS)
def test_config_dropped_key_takes_its_default(level):
    # unlike the data files, a config names only what it changes
    path, drop_key = CONFIG_LEVELS[level]
    d = _planted({"workers": 3, "executor": {"dt": 0.5}}, path, "drop", drop_key)
    cfg = config_from_dict(d)
    assert (cfg.workers, cfg.executor.dt) == ((1, 0.5) if level == "top" else (3, 0.2))


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("path", [("task", "start"), ("task", "goal_pose"), ("task", "reference_view")])
def test_pose_must_have_three_numbers(episode, path, n):
    # 4 numbers once loaded (the 4th dropped) and 2 raised IndexError
    d = _copy(record_to_dict(episode[2]))
    pose = _at(d, path)
    del pose[n:]
    pose.extend([0.0] * (n - len(pose)))
    with pytest.raises(SchemaMismatch, match=r"must be \[x, y, heading\]"):
        record_from_dict(d, index=0)


def test_dataset_line_that_is_an_array(episode, tmp_path):
    path = tmp_path / "d.jsonl"
    write_dataset([episode[2]], str(path))
    path.write_text(path.read_text() + "[]\n")
    with pytest.raises(SchemaMismatch, match="record 1: expected an object, got list"):
        read_dataset(str(path))


def test_dataset_that_is_not_utf8(episode, tmp_path):
    # read_json's rule; this once raised a bare UnicodeDecodeError
    path = tmp_path / "d.jsonl"
    write_dataset([episode[2]], str(path))
    path.write_bytes(path.read_bytes() + b"\xff\n")
    with pytest.raises(SchemaMismatch, match="^" + re.escape(f"{path}: 'utf-8' codec can't decode")):
        read_dataset(str(path))


def test_dataset_that_cannot_be_read(tmp_path):
    # read_json's rule; this once raised a bare FileNotFoundError
    path = tmp_path / "missing.jsonl"
    with pytest.raises(IoFailure, match="^" + re.escape(f"cannot read {path}: ")):
        read_dataset(str(path))


# the manifest: present, of this version, counting exactly the records read


def test_truncated_dataset_rejected(episode, tmp_path):
    path = tmp_path / "d.jsonl"
    write_dataset([episode[2]] * 3, str(path))
    assert len(read_dataset(str(path), strict=True)) == 3
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2]))
    with pytest.raises(SchemaMismatch, match="2 records read, manifest says 3"):
        read_dataset(str(path), strict=True)


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda m: None, id="missing"),
        pytest.param(lambda m: {**m, "version": "1"}, id="version-1"),
        pytest.param(lambda m: {**m, "record_count": "1"}, id="count-string"),
        pytest.param(lambda m: {**m, "record_count": 1.5}, id="count-fraction"),
        pytest.param(lambda m: {k: v for k, v in m.items() if k != "record_count"}, id="count-missing"),
        pytest.param(lambda m: [m], id="array"),
    ],
)
def test_bad_manifest_rejected(episode, tmp_path, edit):
    path = tmp_path / "d.jsonl"
    write_dataset([episode[2]], str(path))
    manifest = tmp_path / "d.jsonl.manifest.json"
    assert manifest_path(str(path)) == str(manifest)
    changed = edit(json.loads(manifest.read_text()))
    if changed is None:
        manifest.unlink()
    else:
        manifest.write_text(json.dumps(changed))
    with pytest.raises(SchemaMismatch):
        read_dataset(str(path))


def test_integral_float_record_count_accepted(episode, tmp_path):
    path = tmp_path / "d.jsonl"
    write_dataset([episode[2]] * 2, str(path))
    manifest = tmp_path / "d.jsonl.manifest.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "record_count": 2.0}))
    assert len(read_dataset(str(path))) == 2
    assert DATASET_VERSION == json.loads(manifest.read_text())["version"]


# one LiDAR parameter rule: num_rays >= 1 and a finite max_range > 0


@pytest.mark.parametrize("num_rays, max_range", [(0, 10.0), (-4, 10.0), (8, -1.0), (8, 0.0), (8, math.nan), (8, math.inf)])
def test_lidar_params_checked_at_library_boundary(episode, num_rays, max_range):
    # max_range -1 once wrote a dataset that read_dataset refused; num_rays 0 divided by zero
    scene, task, record = episode
    with pytest.raises(ValueError, match="lidar (num_rays|max_range)"):
        raycast_lidar(scene, record.keyframes[0].pose, num_rays, max_range)
    with pytest.raises(ValueError, match="lidar (num_rays|max_range)"):
        generate_episode(scene, task, seed=3, num_rays=num_rays, max_range=max_range)


@pytest.mark.parametrize("num_rays, max_range", [(0, -5.0), (0, 10.0), (1, 0.0), (1, -5.0)])
def test_record_lidar_params_checked(episode, num_rays, max_range):
    # the ranges are left one step each, so only the parameters are wrong
    d = _copy(record_to_dict(episode[2]))
    keyframes = d["keyframes"]
    steps = np.zeros((keyframes["count"], num_rays), "<u4")
    keyframes.update(num_rays=num_rays, max_range=max_range, range_steps=base64.b64encode(steps).decode())
    with pytest.raises(SchemaMismatch, match=r"record 0: keyframes (num_rays|max_range)"):
        record_from_dict(d, index=0)


# every type the four readers reach resolves its hints and has a file form


def _reachable(kind, seen):
    if kind in seen or kind in SHAPES:  # a shape's own reader holds its whole form
        return
    if dataclasses.is_dataclass(kind):
        seen.add(kind)
        for hint in field_types(kind).values():
            _reachable(hint, seen)
    for arg in typing.get_args(kind):
        _reachable(arg, seen)


@pytest.mark.parametrize("root", [EpisodeRecord, KeyframeColumns, Scene, MetricsReport, RunConfig])
def test_reachable_dataclasses_resolve_their_hints(root):
    # a field type imported only under TYPE_CHECKING would fail here, not at the first read
    seen = set()
    _reachable(root, seen)
    assert root in seen
    for cls in seen:
        for name, hint in field_types(cls).items():
            origin = typing.get_origin(hint)
            assert (
                hint in (float, int, bool, str)
                or dataclasses.is_dataclass(hint)
                or origin is list
                or origin is dict and typing.get_args(hint)[0] is str
            ), f"{cls.__name__}.{name}: {hint!r} has no file form"


def test_walker_reads_nested_lists_and_dicts():
    assert checked({"a": [1, 2.0]}, dict[str, list[int]], "x") == {"a": [1, 2]}
    with pytest.raises(ValueError, match=r"x\['a'\]\.1 must be int, got 2.5"):
        checked({"a": [1, 2.5]}, dict[str, list[int]], "x")
    with pytest.raises(ValueError, match=r"x\['a'\]: expected a list, got dict"):
        checked({"a": {}}, dict[str, list[int]], "x")
