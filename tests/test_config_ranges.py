"""Every config field declares its allowed ``Range`` beside it, or is on
``ALLOWED`` with the reason it declares none; and every declared range and
every rule between fields is enforced at load, from a config file and from
an AMR_* variable alike, with one log line that names the section once.

The fields on ``ALLOWED`` are held to a rule that a type built from the
config owns, or to no range at all, so an entry whose field is gone or now
declares a range fails the check too.
"""

import json
import math

import pytest

from amr_navkit.cli import main
from amr_navkit.config import RunConfig
from amr_navkit.errors import field_ranges, field_types, written

_EXPERT = "refused when cli.main builds the expert at load"
ALLOWED = {
    "planner.w_translate": f"CostWeights' range, {_EXPERT}",
    "planner.w_rotate": f"CostWeights' range, {_EXPERT}",
    "planner.w_backward": f"CostWeights' range, {_EXPERT}",
    "planner.w_lookat": f"CostWeights' range, {_EXPERT}",
    "planner.batches": f"PlannerBudget's range, {_EXPERT}",
    "planner.batch_size": f"PlannerBudget's range, {_EXPERT}",
    "oracle.v_ref": f"planner.check_labelling's rule with executor.dt, {_EXPERT}",
    "oracle.omega_ref": f"planner.check_labelling's rule, {_EXPERT}",
    "sensor.num_rays": "scene.check_lidar_params' rule, which every scan caster and reader shares",
    "sensor.max_range": "scene.check_lidar_params' rule, which every scan caster and reader shares",
    "executor.kinematics": "a choice among scene.KINEMATICS_KINDS, not a range",
    "camera.height": "no code constrains the mounting height",
}


def _fields():
    """(dotted name, owning dataclass, field name) of every config field."""
    sections = field_types(RunConfig)
    for key, value in written(RunConfig()).items():
        if isinstance(value, dict):
            for field in value:
                yield f"{key}.{field}", sections[key], field
        else:
            yield key, RunConfig, key


def test_every_field_declares_a_range_or_is_allowed():
    undeclared = {name for name, cls, field in _fields() if field not in field_ranges(cls)}
    assert undeclared - ALLOWED.keys() == set(), "declare a Range beside the field, or allow it with a reason"
    assert ALLOWED.keys() - undeclared == set(), "allowed but gone, or declares a range now: drop the entry"


def _nearest_refused():
    """(dotted name, value, its Range) of the refused value nearest each finite end of each declared range."""
    for name, cls, field in _fields():
        allowed = field_ranges(cls).get(field)
        if allowed is None:
            continue
        kind = field_types(cls)[field]
        ends = [(allowed.lo, allowed.lo_open, -math.inf)]
        if allowed.hi != math.inf:
            ends.append((allowed.hi, allowed.hi_open, math.inf))
        for end, is_open, away in ends:
            if is_open:
                value = kind(end)
            elif kind is int:
                value = end + (1 if away > 0 else -1)
            else:
                value = math.nextafter(end, away)
            yield pytest.param(name, value, allowed, id=f"{name}={value}")


def _refusal(tmp_path, monkeypatch, caplog, source, name, value) -> str:
    """The one log line of gen-scenes run with ``name`` set to ``value`` by
    a config file or an AMR_* variable, which must exit 2 and write nothing."""
    section, _, field = name.rpartition(".")
    argv = []
    if source == "file":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({section: {field: value}} if section else {field: value}))
        argv = ["--config", str(path)]
    else:
        monkeypatch.setenv(f"AMR_{(section or 'run').upper()}_{field.upper()}", str(value))
    out = tmp_path / "out"
    caplog.clear()
    assert main([*argv, "gen-scenes", "--count", "1", "--out", str(out)]) == 2
    assert not out.exists()
    lines = [r.getMessage() for r in caplog.records]
    assert len(lines) == 1 and caplog.records[0].levelname == "ERROR"
    return lines[0]


@pytest.mark.parametrize("source", ["file", "env"])
@pytest.mark.parametrize("name, value, allowed", list(_nearest_refused()))
def test_each_range_refuses_its_nearest_outside_value(tmp_path, monkeypatch, caplog, source, name, value, allowed):
    section, _, field = name.rpartition(".")
    line = _refusal(tmp_path, monkeypatch, caplog, source, name, value)
    # the section is named once; a top-level field's section is "run"
    assert line == f"config error: {section or 'run'} {field} must be {allowed}, got {value}"


# each rule between fields: (field, the rule, the bound it holds the field to at the defaults)
CROSS_FIELD = [
    ("scene_gen.room_min", "must not exceed room_max", 12.0),
    ("scene_gen.objects_min", "must not exceed objects_max", 15),
    ("scene_gen.size_min", "must not exceed size_max", 2.0),
    # (room_max - 2 * free_probe_radius + 2 * cell) ** 2, the free-area grid's bound
    ("scene_gen.min_free_area", "must not exceed the area the free-area grid can count in a room_max room", 132.25),
    ("task.d_min", "must not exceed d_max", 0.5),
    ("executor.replan_every", "must not exceed horizon_n", 12),
]


@pytest.mark.parametrize("source", ["file", "env"])
@pytest.mark.parametrize("name, rule, bound", CROSS_FIELD)
def test_each_rule_between_fields_refuses_its_nearest_outside_value(
    tmp_path, monkeypatch, caplog, source, name, rule, bound
):
    value = bound + 1 if type(bound) is int else math.nextafter(bound, math.inf)
    line = _refusal(tmp_path, monkeypatch, caplog, source, name, value)
    section, _, field = name.rpartition(".")
    assert line == f"config error: {section} {field} {rule}, got {value} > {bound}"
