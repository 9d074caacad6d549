import inspect
import json
import math
import re
from itertools import takewhile
from operator import attrgetter

import pytest

from amr_navkit import controller, planner
from amr_navkit.cli import main
from amr_navkit.config import (
    CameraParams,
    OracleParams,
    PlannerParams,
    RunConfig,
    SensorParams,
    apply_env_overrides,
    config_from_dict,
    config_hash,
    load_config,
)
from amr_navkit.errors import written
from amr_navkit.evaluation import report_to_dict, summarize
from amr_navkit.pipeline import Expert, TaskParams, read_dataset, scene_to_dict
from amr_navkit.scene import sample_scene


def run(args) -> int:
    return main(args)


@pytest.fixture()
def fast_config(tmp_path):
    cfg = {
        "master_seed": 3,
        "scene_gen": {"objects_min": 3, "objects_max": 6, "room_min": 6.0, "room_max": 8.0},
        "executor": {"max_steps": 300},
        "planner": {"batches": 2, "batch_size": 16},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_defaults_roundtrip(self):
        cfg = RunConfig()
        assert config_from_dict(written(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"no_such_section": {}})
        with pytest.raises(ValueError):
            config_from_dict({"planner": {"no_such_field": 1}})

    def test_env_overrides(self):
        env = {
            "AMR_EXECUTOR_SPEED": "0.4",
            "AMR_PLANNER_BATCHES": "7",
            "AMR_RUN_MASTER_SEED": "99",
            "AMR_TASK_P_FFR": "0.25",
            "IGNORED": "x",
        }
        out = config_from_dict(apply_env_overrides({}, env))
        assert out.executor.speed == 0.4
        assert out.planner.batches == 7
        assert out.master_seed == 99
        assert out.task.p_ffr == 0.25

    def test_env_override_unknown_field(self):
        with pytest.raises(ValueError):
            apply_env_overrides({}, {"AMR_PLANNER_NOPE": "1"})

    def test_hash_stable_and_sensitive(self):
        a, b = RunConfig(), RunConfig()
        assert config_hash(a) == config_hash(b)
        c = config_from_dict(apply_env_overrides({}, {"AMR_EXECUTOR_SPEED": "0.4"}))
        assert config_hash(c) != config_hash(a)

    def test_hash_ignores_workers(self):
        # --workers 1 and --workers 2 write the same bytes, so their manifests agree
        assert config_hash(RunConfig(workers=1)) == config_hash(RunConfig(workers=2))

    def test_default_expert_is_the_config_default(self):
        assert RunConfig().expert() == Expert()

    @pytest.mark.parametrize(
        "key, raw, field",
        [
            ("AMR_PLANNER_W_TRANSLATE", "1.5", "weights.w_translate"),
            ("AMR_PLANNER_W_ROTATE", "0.7", "weights.w_rotate"),
            ("AMR_PLANNER_W_BACKWARD", "3.5", "weights.w_backward"),
            ("AMR_PLANNER_W_LOOKAT", "0.25", "weights.w_lookat"),
            ("AMR_PLANNER_BATCHES", "7", "budget.batches"),
            ("AMR_PLANNER_BATCH_SIZE", "40", "budget.batch_size"),
            ("AMR_PLANNER_SAFETY_MARGIN", "0.2", "safety_margin"),
            ("AMR_ORACLE_V_REF", "0.8", "v_ref"),
            ("AMR_ORACLE_OMEGA_REF", "1.5", "omega_ref"),
            ("AMR_EXECUTOR_HORIZON_N", "10", "horizon_n"),
            ("AMR_EXECUTOR_DT", "0.25", "dt"),
        ],
    )
    def test_env_override_reaches_expert(self, key, raw, field):
        read = attrgetter(field)
        assert read(config_from_dict(apply_env_overrides({}, {key: raw})).expert()) == float(raw)
        assert read(RunConfig().expert()) != float(raw)

    def test_load_missing_returns_defaults(self):
        assert config_from_dict(load_config(None)) == RunConfig()

    @pytest.mark.parametrize("field", ["v_ref", "omega_ref"])
    @pytest.mark.parametrize("value", [0.0, -0.5, math.nan, math.inf])
    def test_oracle_speeds_must_be_finite_positive(self, field, value):
        # the labelling rule, run when the expert is built at load
        with pytest.raises(ValueError):
            RunConfig(oracle=OracleParams(**{field: value})).expert()

    def test_oracle_zero_speed_env_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AMR_ORACLE_V_REF", "0")
        assert run(["gen-scenes", "--count", "1", "--out", str(tmp_path / "s")]) == 2

    @pytest.mark.parametrize(
        "body, match",
        [
            *(
                pytest.param('{"executor": {"speed": %s}}' % text, "finite", id=text)
                for text in ("NaN", "Infinity", "-Infinity", "1e400")
            ),
            pytest.param('{"executor": {"speed": "fast"}}', "must be float", id="str-for-float"),
            pytest.param('{"sensor": {"max_range": true}}', "must be float", id="bool-for-float"),
            pytest.param('{"executor": {"max_steps": 8.5}}', "must be int", id="fraction-for-int"),
            pytest.param('{"sensor": {"num_rays": true}}', "must be int", id="bool-for-int"),
            pytest.param('{"workers": 1.5}', "must be int", id="fraction-for-workers"),
            pytest.param('{"executor": {"kinematics": 1}}', "must be str", id="number-for-str"),
        ],
    )
    def test_non_finite_config_file_rejected(self, tmp_path, body, match):
        path = tmp_path / "cfg.json"
        path.write_text(body)
        with pytest.raises(ValueError, match=match):
            config_from_dict(load_config(str(path)))
        assert run(["--config", str(path), "gen-scenes", "--count", "1", "--out", str(tmp_path / "s")]) == 2

    def test_workers_flag_below_one_exits_2(self, tmp_path):
        assert run(["--workers", "-4", "gen-scenes", "--count", "1", "--out", str(tmp_path / "s")]) == 2
        assert not (tmp_path / "s").exists()

    def test_workers_config_file_below_one_exits_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"workers": 0}')
        with pytest.raises(ValueError, match="workers"):
            config_from_dict(load_config(str(path)))
        assert run(["--config", str(path), "gen-scenes", "--count", "1", "--out", str(tmp_path / "s")]) == 2

    def test_workers_env_below_one_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AMR_RUN_WORKERS", "0")
        assert run(["gen-scenes", "--count", "1", "--out", str(tmp_path / "s")]) == 2

    def test_config_file_numbers_take_field_type(self):
        cfg = config_from_dict({"executor": {"speed": 1, "max_steps": 8.0}, "workers": 2.0})
        assert (cfg.executor.speed, cfg.executor.max_steps, cfg.workers) == (1.0, 8, 2)
        assert type(cfg.executor.speed) is float
        assert type(cfg.executor.max_steps) is int and type(cfg.workers) is int

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("AMR_EXECUTOR_SPEED", "NaN"),
            ("AMR_EXECUTOR_SPEED", "nan"),
            ("AMR_SENSOR_MAX_RANGE", "Infinity"),
            ("AMR_EXECUTOR_MAX_STEPS", "Infinity"),
            ("AMR_EXECUTOR_MAX_STEPS", "8.5"),
            ("AMR_EXECUTOR_KINEMATICS", "ackermann"),
            ("AMR_EXECUTOR_KINEMATICS", "unicycle"),
            ("AMR_EXECUTOR_WHEELBASE", "0.5"),
            ("AMR_PLANNER_K_NEIGHBORS", "8"),
            ("AMR_EXECUTOR_DT", "-0.2"),
            ("AMR_EXECUTOR_DT", "0"),
            # each of these once ran: 50% collisions with a shrunken expert
            # footprint, a numpy traceback, a 3.49 m median error, a silent
            # clamp to 1 batch, a ZeroDivisionError, zero-step episodes
            ("AMR_PLANNER_SAFETY_MARGIN", "-0.2"),
            ("AMR_PLANNER_BATCH_SIZE", "-1"),
            ("AMR_PLANNER_BATCH_SIZE", "0"),
            ("AMR_PLANNER_BATCHES", "0"),
            ("AMR_PLANNER_PROBE_BATCHES", "0"),
            ("AMR_PLANNER_PROBE_BATCH_SIZE", "0"),
            ("AMR_EXECUTOR_REPLAN_EVERY", "0"),
            ("AMR_EXECUTOR_MAX_STEPS", "-1"),
            ("AMR_EXECUTOR_MAX_STEPS", "0"),
            # a negative rate slewed the tilt away from its setpoint; a
            # negative limit pinned the setpoint at the limit
            ("AMR_EXECUTOR_TILT_RATE", "-1.0"),
            ("AMR_EXECUTOR_TILT_LIMIT", "-0.5"),
            ("AMR_EXECUTOR_TILT_RATE", "NaN"),
        ],
    )
    def test_non_finite_env_override_exits_2(self, tmp_path, monkeypatch, key, raw):
        monkeypatch.setenv(key, raw)
        assert run(["gen-scenes", "--count", "1", "--out", str(tmp_path / "s")]) == 2

    @pytest.mark.parametrize(
        "key, field", [("AMR_EXECUTOR_TILT_RATE", "tilt_rate"), ("AMR_EXECUTOR_TILT_LIMIT", "tilt_limit")]
    )
    def test_negative_tilt_setting_names_its_field(self, tmp_path, monkeypatch, caplog, key, field):
        monkeypatch.setenv(key, "-0.5")
        assert run(["gen-scenes", "--count", "1", "--out", str(tmp_path / "s")]) == 2
        assert f"executor {field} must be non-negative" in caplog.text

    @pytest.mark.parametrize(
        "field, value",
        [("batches", 0), ("batch_size", -1), ("safety_margin", -0.2)],
    )
    def test_planner_params_refused(self, field, value):
        # batches and batch_size are PlannerBudget's rule, run when the expert is built
        with pytest.raises(ValueError, match=f"planner {field} must"):
            RunConfig(planner=PlannerParams(**{field: value})).expert()
        assert RunConfig(planner=PlannerParams(**{field: 0.0 if field == "safety_margin" else 1})).expert()

    @pytest.mark.parametrize(
        "field, value",
        [("num_rays", 0), ("num_rays", -4), ("max_range", -1), ("max_range", 0), ("max_range", math.nan),
         ("max_range", math.inf)],
    )
    def test_sensor_params_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match=f"sensor {field}"):
            SensorParams(**{field: value})

    @pytest.mark.parametrize(
        "body", ['{"sensor": {"num_rays": 0}}', '{"sensor": {"num_rays": -4}}',
                 '{"sensor": {"max_range": -1}}', '{"sensor": {"max_range": 0.0}}'],
    )
    def test_bad_sensor_config_file_exits_2(self, tmp_path, body):
        # max_range -1 once wrote a dataset of -1.0 ranges; num_rays 0 and -4 crashed
        path = tmp_path / "cfg.json"
        path.write_text(body)
        with pytest.raises(ValueError, match="sensor"):
            config_from_dict(load_config(str(path)))
        scenes = tmp_path / "scenes"
        assert run(["gen-scenes", "--count", "1", "--out", str(scenes)]) == 0
        out = tmp_path / "d.jsonl"
        assert run(["--config", str(path), "gen-data", "--scenes", str(scenes), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, raw",
        [("AMR_SENSOR_NUM_RAYS", "0"), ("AMR_SENSOR_NUM_RAYS", "-4"), ("AMR_SENSOR_MAX_RANGE", "-1"),
         ("AMR_SENSOR_MAX_RANGE", "0")],
    )
    def test_bad_sensor_env_override_exits_2(self, tmp_path, monkeypatch, key, raw):
        scenes = tmp_path / "scenes"
        assert run(["gen-scenes", "--count", "1", "--out", str(scenes)]) == 0
        monkeypatch.setenv(key, raw)
        out = tmp_path / "d.jsonl"
        assert run(["gen-data", "--scenes", str(scenes), "--out", str(out)]) == 2
        assert not out.exists()
        assert run(["eval", "--scenes", str(scenes), "--n-tasks", "1", "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize(
        "field, value, words",
        [("d_min", -0.1, "in [0, 1]"), ("d_max", 2.0, "in [0, 1]"), ("d_max", math.nan, "in [0, 1]"),
         ("p_ffr", -0.2, "in [0, 1]"), ("p_ffr", 1.5, "in [0, 1]"), ("visibility_fraction", 1.5, "in [0, 1]"),
         ("visibility_fraction", -1e-9, "in [0, 1]"), ("max_start_target_dist", 0.0, "positive"),
         ("max_start_target_dist", -3.0, "positive"), ("max_attempts", 0, "at least 1")],
    )
    def test_task_params_refused(self, field, value, words):
        with pytest.raises(ValueError, match=re.escape(f"task {field} must be {words}, got ")):
            TaskParams(**{field: value})

    def test_task_params_edges_accepted(self):
        assert TaskParams(d_min=0.0, d_max=1.0, p_ffr=0.0, visibility_fraction=1.0, max_attempts=1)
        assert TaskParams(d_min=0.3, d_max=0.3, p_ffr=1.0, visibility_fraction=0.0)
        with pytest.raises(ValueError, match="task d_min must not exceed d_max, got 0.6 > 0.5"):
            TaskParams(d_min=0.6)

    @pytest.mark.parametrize(
        "field, value, words",
        [("vertical_fov_deg", 0.0, "in (0, 180)"), ("vertical_fov_deg", 180.0, "in (0, 180)"),
         ("vertical_fov_deg", -30.0, "in (0, 180)"), ("vertical_fov_deg", math.nan, "in (0, 180)"),
         ("width_px", 0, "at least 1"), ("height_px", -2, "at least 1")],
    )
    def test_camera_params_refused(self, field, value, words):
        with pytest.raises(ValueError, match=re.escape(f"camera {field} must be {words}, got ")):
            CameraParams(**{field: value})
        assert CameraParams(**{field: 179.9 if field == "vertical_fov_deg" else 1}).model()

    def test_default_config_hash_unchanged(self):
        # the default manifest hash moves only when a hashed config field is added or removed
        assert config_hash(RunConfig()) == "0002167408072d05"

    @pytest.mark.parametrize(
        "body, env, field",
        [pytest.param('{"planner": {"probe_batches": 2}}', {}, "probe_batches", id="file"),
         pytest.param("{}", {"AMR_PLANNER_PROBE_BATCH_SIZE": "8"}, "AMR_PLANNER_PROBE_BATCH_SIZE", id="env")],
    )
    def test_task_probe_keys_are_unknown(self, tmp_path, monkeypatch, caplog, body, env, field):
        # the probe's 1 x 16 budget is pipeline.PROBE_BUDGET, set by no key
        path = tmp_path / "cfg.json"
        path.write_text(body)
        for key, raw in env.items():
            monkeypatch.setenv(key, raw)
        caplog.clear()
        assert run(["--config", str(path), "gen-scenes", "--count", "1", "--out", str(tmp_path / "s")]) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].startswith("config error: ") and field in errors[0]
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "key, raw, field",
        [("AMR_TASK_D_MAX", "2.0", "task d_max"),  # once a GoalSpec traceback, exit 1
         ("AMR_TASK_VISIBILITY_FRACTION", "1.5", "task visibility_fraction"),  # once 0 records, exit 0
         ("AMR_TASK_D_MIN", "0.6", "task d_min"),
         ("AMR_TASK_P_FFR", "-0.1", "task p_ffr"),
         ("AMR_TASK_MAX_START_TARGET_DIST", "0", "task max_start_target_dist"),
         ("AMR_TASK_MAX_ATTEMPTS", "0", "task max_attempts"),
         ("AMR_CAMERA_VERTICAL_FOV_DEG", "0", "camera vertical_fov_deg"),  # once a ZeroDivisionError
         ("AMR_CAMERA_WIDTH_PX", "0", "camera width_px")],
    )
    def test_bad_task_or_camera_setting_exits_2(self, tmp_path, monkeypatch, caplog, key, raw, field):
        scenes = tmp_path / "scenes"
        assert run(["gen-scenes", "--count", "1", "--out", str(scenes)]) == 0
        monkeypatch.setenv(key, raw)
        out = tmp_path / "d.jsonl"
        assert run(["gen-data", "--scenes", str(scenes), "--episodes-per-scene", "1", "--out", str(out)]) == 2
        assert f"{field} must" in caplog.text
        assert not out.exists()


    @pytest.mark.parametrize("command", ["gen-scenes", "gen-data", "eval"])
    @pytest.mark.parametrize(
        "argv, env, words",
        [
            # the first two crashed in CostWeights, the next two at label time,
            # the scene_gen three in gen-scenes, lookahead 0 with a
            # ZeroDivisionError and --seed -1 in numpy, each with exit 1; a
            # negative omega_max was an eval "hard failure" and a negative
            # speed ran to exit 0 with every episode a collision
            ([], {"AMR_PLANNER_W_TRANSLATE": "0"}, "planner w_translate must be positive, got 0.0"),
            ([], {"AMR_PLANNER_W_ROTATE": "-1"}, "planner w_rotate must be non-negative, got -1.0"),
            ([], {"AMR_ORACLE_V_REF": "2"}, "step range, got executor.dt 0.2, oracle.v_ref 2.0,"),
            ([], {"AMR_EXECUTOR_DT": "2"}, "step range, got executor.dt 2.0, oracle.v_ref 0.5,"),
            ([], {"AMR_SCENE_GEN_OBJECTS_MIN": "20"}, "objects_min must not exceed objects_max, got 20 > 15"),
            ([], {"AMR_SCENE_GEN_ROOM_MIN": "-3"}, "scene_gen room_min must be positive, got -3.0"),
            ([], {"AMR_SCENE_GEN_WALL_THICKNESS": "0"}, "scene_gen wall_thickness must be positive, got 0.0"),
            ([], {"AMR_EXECUTOR_LOOKAHEAD": "0"}, "executor lookahead must be positive, got 0.0"),
            (["--seed", "-1"], {}, "run master_seed must be non-negative, got -1"),
            ([], {"AMR_EXECUTOR_OMEGA_MAX": "-1"}, "executor omega_max must be non-negative, got -1.0"),
            ([], {"AMR_EXECUTOR_SPEED": "-1"}, "executor speed must be positive, got -1.0"),
        ],
    )
    def test_refused_at_load_before_any_work(self, tmp_path, monkeypatch, caplog, command, argv, env, words):
        scenes = tmp_path / "scenes"
        assert run(["gen-scenes", "--count", "1", "--out", str(scenes)]) == 0
        for key, raw in env.items():
            monkeypatch.setenv(key, raw)
        out = tmp_path / "out"
        rest = ["--count", "1"] if command == "gen-scenes" else ["--scenes", str(scenes)]
        caplog.clear()
        assert run([*argv, command, *rest, "--out", str(out)]) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [errors[0]] and errors[0].startswith("config error: ") and words in errors[0]
        assert [r.getMessage() for r in caplog.records] == errors  # nothing ran before the refusal
        assert sorted(tmp_path.iterdir()) == [scenes]

    _FREE_AREA_RULE = "scene_gen min_free_area must not exceed the area the free-area grid can count in a room_max room"

    def test_room_too_small_for_its_free_area_is_refused_at_load(self, tmp_path, monkeypatch, caplog):
        # once numpy's "high - low < 0" with exit 1, then about 2 s of
        # attempts to exit 3: no 1.5 m room holds 10 m2 of free area
        monkeypatch.setenv("AMR_SCENE_GEN_ROOM_MIN", "1")
        monkeypatch.setenv("AMR_SCENE_GEN_ROOM_MAX", "1.5")
        caplog.clear()
        assert run(["gen-scenes", "--count", "1", "--out", str(tmp_path / "s")]) == 2
        # the probe disc keeps 0.5 m off each wall: (1.5 - 2 * 0.5 + 0.5) ** 2
        assert [r.getMessage() for r in caplog.records] == [f"config error: {self._FREE_AREA_RULE}, got 10.0 > 1.0"]
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "env, message",
        [
            # once admitted, as 15 <= 4 ** 2, then every attempt failed with exit 3
            pytest.param(
                {"ROOM_MIN": "4", "ROOM_MAX": "4", "MIN_FREE_AREA": "15"},
                f"{_FREE_AREA_RULE}, got 15.0 > 12.25",
                id="free-area-the-grid-cannot-count",
            ),
            # once 200 attempts, each placing no box, then exit 3
            pytest.param(
                {"ROOM_MIN": "1", "ROOM_MAX": "1.5", "MIN_FREE_AREA": "0", "SIZE_MIN": "1.9"},
                "scene_gen size_min must let a box fit a room_max room, got 1.9",
                id="no-box-fits",
            ),
        ],
    )
    def test_unmeetable_scene_gen_is_refused_at_load(self, tmp_path, monkeypatch, caplog, env, message):
        for key, raw in env.items():
            monkeypatch.setenv(f"AMR_SCENE_GEN_{key}", raw)
        caplog.clear()
        assert run(["gen-scenes", "--count", "1", "--out", str(tmp_path / "s")]) == 2
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 1 and lines[0].startswith(f"config error: {message}")
        assert not (tmp_path / "s").exists()

    def test_unmeetable_free_area_is_a_hard_failure(self, tmp_path, monkeypatch, caplog):
        # admitted, as 12.25 is the bound itself, but a 4 m room's free cells give only 9 m2
        for key, raw in {"ROOM_MIN": "4", "ROOM_MAX": "4", "MIN_FREE_AREA": "12.25", "MAX_ATTEMPTS": "3"}.items():
            monkeypatch.setenv(f"AMR_SCENE_GEN_{key}", raw)
        caplog.clear()
        assert run(["gen-scenes", "--count", "1", "--out", str(tmp_path / "s")]) == 3
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].exc_info is None
        assert list((tmp_path / "s").iterdir()) == []

    def test_a_value_error_keeps_its_path(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setenv("AMR_SCENE_GEN_ROOM_MIN", "nan")
        caplog.clear()
        assert run(["gen-scenes", "--count", "1", "--out", str(tmp_path / "s")]) == 2
        assert [r.getMessage() for r in caplog.records] == ["config error: scene_gen.room_min: non-finite number nan"]

    @pytest.mark.parametrize(
        "env, body",
        [
            ({"AMR_EXECUTOR_HORIZON_N": "6", "AMR_EXECUTOR_REPLAN_EVERY": "4"},
             {"executor": {"horizon_n": 6, "replan_every": 4}}),
            ({"AMR_TASK_D_MAX": "0.05", "AMR_TASK_D_MIN": "0.01"}, {"task": {"d_max": 0.05, "d_min": 0.01}}),
        ],
    )
    def test_env_overrides_are_judged_together(self, tmp_path, monkeypatch, env, body):
        # each pair was refused when the first override in name order met the other's default
        want = config_from_dict(body)
        for order in (env, dict(reversed(env.items()))):
            got = config_from_dict(apply_env_overrides({}, order))
            assert got == want and config_hash(got) == config_hash(want)
        section, fields = next(iter(body.items()))
        first, second = fields
        split = config_from_dict(apply_env_overrides({section: {first: fields[first]}}, {
            f"AMR_{section.upper()}_{second.upper()}": str(fields[second])}))
        assert split == want
        for key, raw in env.items():
            monkeypatch.setenv(key, raw)
        assert run(["gen-scenes", "--count", "1", "--out", str(tmp_path / "s")]) == 0


class TestGenScenes:
    def test_count_and_idempotence(self, tmp_path, fast_config):
        out = tmp_path / "scenes"
        assert run(["--config", fast_config, "gen-scenes", "--count", "3", "--out", str(out)]) == 0
        files = sorted(out.glob("scene_*.json"))
        assert len(files) == 3
        blobs = [f.read_bytes() for f in files]
        assert run(["--config", fast_config, "gen-scenes", "--count", "3", "--out", str(out)]) == 0
        assert [f.read_bytes() for f in sorted(out.glob("scene_*.json"))] == blobs

    def test_count_zero(self, tmp_path, fast_config):
        out = tmp_path / "none"
        with pytest.raises(SystemExit) as exc:
            run(["--config", fast_config, "gen-scenes", "--count", "0", "--out", str(out)])
        assert exc.value.code == 2
        assert list(out.glob("*.json")) == []

    def test_negative_count_exits_2(self, tmp_path, fast_config):
        out = tmp_path / "none"
        with pytest.raises(SystemExit) as exc:
            run(["--config", fast_config, "gen-scenes", "--count", "-3", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_invalid_out_dir(self, tmp_path, fast_config, capsys, caplog):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a dir")
        rc = run(["--config", fast_config, "gen-scenes", "--count", "1", "--out", str(blocker / "x")])
        assert rc == 2
        assert "blocker" in caplog.text

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"planner": {"bogus": 1}}')
        assert run(["--config", str(bad), "gen-scenes", "--count", "1", "--out", str(tmp_path / "s")]) == 2


class TestGenData:
    def test_dataset_and_manifest(self, tmp_path, fast_config):
        scenes = tmp_path / "scenes"
        out = tmp_path / "data.jsonl"
        assert run(["--config", fast_config, "gen-scenes", "--count", "2", "--out", str(scenes)]) == 0
        assert (
            run(
                [
                    "--config",
                    fast_config,
                    "gen-data",
                    "--scenes",
                    str(scenes),
                    "--episodes-per-scene",
                    "2",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        records = read_dataset(str(out), strict=True)
        manifest = json.loads((tmp_path / "data.jsonl.manifest.json").read_text())
        assert manifest["record_count"] == len(records)
        assert manifest["scene_count"] == 2
        assert len(records) <= 4

    def test_byte_identical_rerun(self, tmp_path, fast_config):
        scenes = tmp_path / "scenes"
        run(["--config", fast_config, "gen-scenes", "--count", "1", "--out", str(scenes)])
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (out1, out2):
            assert (
                run(
                    [
                        "--config",
                        fast_config,
                        "gen-data",
                        "--scenes",
                        str(scenes),
                        "--episodes-per-scene",
                        "2",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
        assert out1.read_bytes() == out2.read_bytes()
        m1 = json.loads((tmp_path / "a.jsonl.manifest.json").read_text())
        m2 = json.loads((tmp_path / "b.jsonl.manifest.json").read_text())
        assert m1["config_hash"] == m2["config_hash"]

    def test_scene_without_targets_warns(self, tmp_path, fast_config, caplog):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        scene = {
            "version": "1",
            "seed": 1,
            "bounds": {"w": 8.0, "h": 8.0},
            "walls": [
                {"cx": 0.0, "cy": 4.05, "hx": 4.1, "hy": 0.05, "yaw": 0.0},
                {"cx": 0.0, "cy": -4.05, "hx": 4.1, "hy": 0.05, "yaw": 0.0},
                {"cx": 4.05, "cy": 0.0, "hx": 0.05, "hy": 4.1, "yaw": 0.0},
                {"cx": -4.05, "cy": 0.0, "hx": 0.05, "hy": 4.1, "yaw": 0.0},
            ],
            "objects": [
                {
                    "id": 0,
                    "cx": 2.0,
                    "cy": 0.0,
                    "hx": 0.4,
                    "hy": 0.4,
                    "yaw": 0.0,
                    "base_height": 0.0,
                    "category": "table",
                    "target_eligible": False,
                }
            ],
        }
        (scenes / "scene_00000.json").write_text(json.dumps(scene))
        out = tmp_path / "data.jsonl"
        assert (
            run(
                [
                    "--config",
                    fast_config,
                    "gen-data",
                    "--scenes",
                    str(scenes),
                    "--episodes-per-scene",
                    "1",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert read_dataset(str(out)) == []
        assert "skipped" in caplog.text

    def test_non_finite_scene_file_exits_3(self, tmp_path, fast_config):
        scenes = tmp_path / "scenes"
        assert run(["--config", fast_config, "gen-scenes", "--count", "1", "--out", str(scenes)]) == 0
        path = next(scenes.glob("scene_*.json"))
        d = json.loads(path.read_text())
        d["walls"][0]["cx"] = math.nan
        path.write_text(json.dumps(d))
        rc = run(["--config", fast_config, "gen-data", "--scenes", str(scenes), "--out", str(tmp_path / "d.jsonl")])
        assert rc == 3

    def test_zero_episodes_per_scene_exits_2(self, tmp_path, fast_config):
        scenes = tmp_path / "scenes"
        assert run(["--config", fast_config, "gen-scenes", "--count", "1", "--out", str(scenes)]) == 0
        out = tmp_path / "d.jsonl"
        with pytest.raises(SystemExit) as exc:
            run(["--config", fast_config, "gen-data", "--scenes", str(scenes),
                 "--episodes-per-scene", "0", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_string_target_flag_in_scene_file_exits_3(self, tmp_path, fast_config):
        scenes = tmp_path / "scenes"
        assert run(["--config", fast_config, "gen-scenes", "--count", "1", "--out", str(scenes)]) == 0
        path = next(scenes.glob("scene_*.json"))
        d = json.loads(path.read_text())
        d["objects"][0]["target_eligible"] = "false"
        path.write_text(json.dumps(d))
        out = tmp_path / "d.jsonl"
        rc = run(["--config", fast_config, "gen-data", "--scenes", str(scenes), "--out", str(out)])
        assert rc == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "eval"])
    def test_schema_error_names_the_scene_file(self, tmp_path, fast_config, caplog, command):
        scenes = tmp_path / "scenes"
        assert run(["--config", fast_config, "gen-scenes", "--count", "3", "--out", str(scenes)]) == 0
        bad = sorted(scenes.glob("scene_*.json"))[1]
        d = json.loads(bad.read_text())
        d["objects"][0]["id"] = "0"
        bad.write_text(json.dumps(d))
        caplog.clear()
        rc = run(["--config", fast_config, command, "--scenes", str(scenes), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert f"{bad}: scene: objects.0.id must be int" in caplog.text
        assert "scene_00000.json" not in caplog.text and "scene_00002.json" not in caplog.text

    def test_missing_scenes_dir_exits_3(self, tmp_path, fast_config):
        rc = run(
            [
                "--config",
                fast_config,
                "gen-data",
                "--scenes",
                str(tmp_path / "nope"),
                "--out",
                str(tmp_path / "d.jsonl"),
            ]
        )
        assert rc == 3


def _misspelled_key_scene() -> bytes:
    d = scene_to_dict(sample_scene(45))
    d["objects"][0]["target_eligble"] = False
    return json.dumps(d).encode()


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(b"not json {", id="not-json"),
        pytest.param(b"\xff\xfe{}", id="not-utf8"),
        pytest.param(b"[]", id="array"),
        pytest.param(_misspelled_key_scene(), id="misspelled-key"),
    ],
)
@pytest.mark.parametrize("command", ["gen-data", "eval"])
def test_bad_scene_file_exits_3(tmp_path, fast_config, command, content):
    # not-JSON and not-UTF-8 once exited 1 with a traceback; the misspelled key ran to exit 0
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    (scenes / "scene_00000.json").write_bytes(content)
    rc = run(["--config", fast_config, command, "--scenes", str(scenes), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "gen-data"])
@pytest.mark.parametrize("five_objects_first", [True, False])
def test_two_scene_files_with_one_seed_exit_3(tmp_path, caplog, command, five_objects_first):
    """A task names its scene by seed. With the 5-object scene first, eval
    once ran task 0 on the 8-object scene, its start inside a box, and
    exited 0; in the other order it died with a KeyError (exit 1). gen-data
    wrote both scenes' records under one seed."""
    scenes = tmp_path / "scenes"
    assert run(["gen-scenes", "--count", "2", "--out", str(scenes)]) == 0
    first, second = sorted(scenes.glob("scene_*.json"))
    d = json.loads(second.read_text())
    assert d["seed"] == 1 and len(d["objects"]) == 5
    assert len(json.loads(first.read_text())["objects"]) == 8
    d["seed"] = 0
    second.write_text(json.dumps(d))
    if five_objects_first:
        first.rename(scenes / "scene_00002.json")
        first, second = second, scenes / "scene_00002.json"
    caplog.clear()
    out = tmp_path / "out"
    count = "--n-tasks" if command == "eval" else "--episodes-per-scene"
    assert run([command, "--scenes", str(scenes), count, "2", "--out", str(out)]) == 3
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"{first} and {second} both hold scene seed 0"]
    assert sorted(tmp_path.iterdir()) == [scenes]


@pytest.mark.parametrize(
    "argv, directory",
    [
        # each of these once exited 1 with a traceback
        pytest.param("gen-data --episodes-per-scene 1 --out {tmp}/missing/data.jsonl", None, id="gen-data-no-dir"),
        pytest.param(
            "gen-data --episodes-per-scene 1 --out {tmp}/data.jsonl", "data.jsonl.manifest.json", id="manifest-is-a-dir"
        ),
        pytest.param("eval --n-tasks 1 --out {tmp}/file/report", None, id="eval-out-under-a-file"),
        pytest.param("eval --n-tasks 1 --out {tmp}/report", "report.traces.jsonl", id="traces-is-a-dir"),
        pytest.param("gen-scenes --count 1 --out {tmp}/more", "more/scene_00000.json", id="scene-is-a-dir"),
        # these two once named the temporary file instead of the output
        pytest.param("gen-scenes --count 1 --out {tmp}/t1", "t1/.scene_00000.json.partial", id="scene-temp-is-a-dir"),
        pytest.param("eval --n-tasks 1 --out {tmp}/report", ".report.json.partial", id="report-temp-is-a-dir"),
    ],
)
def test_unwritable_output_exits_3_with_one_log_line(tmp_path, fast_config, caplog, argv, directory):
    (tmp_path / "file").write_text("a file, not a directory")
    if directory:
        (tmp_path / directory).mkdir(parents=True)
    scenes = tmp_path / "scenes"
    assert run(["--config", fast_config, "gen-scenes", "--count", "1", "--out", str(scenes)]) == 0
    command, *rest = argv.format(tmp=tmp_path).split()
    if command != "gen-scenes":
        rest += ["--scenes", str(scenes)]
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if not p.is_dir()}
    caplog.clear()
    assert run(["--config", fast_config, command, *rest]) == 3
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].exc_info is None
    assert errors[0].getMessage().startswith("cannot ")
    if directory and directory.endswith(".partial"):
        temp = tmp_path / directory
        output = temp.with_name(temp.name.removeprefix(".").removesuffix(".partial"))
        assert errors[0].getMessage().startswith(f"cannot write {output}: ")
        assert ".partial" not in errors[0].getMessage()
    # no output that could be written is left behind, nor any temporary file
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if not p.is_dir()} == before


def test_worker_count_leaves_outputs_unchanged(tmp_path, fast_config):
    scenes = tmp_path / "scenes"
    assert run(["--config", fast_config, "gen-scenes", "--count", "2", "--out", str(scenes)]) == 0
    outputs = {}
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        out.mkdir()
        common = ["--config", fast_config, "--workers", workers]
        assert run([*common, "gen-data", "--scenes", str(scenes), "--episodes-per-scene", "2",
                    "--out", str(out / "data.jsonl")]) == 0
        assert run([*common, "eval", "--scenes", str(scenes), "--n-tasks", "3",
                    "--out", str(out / "report")]) == 0
        names = ("data.jsonl", "report.json", "report.csv", "report.traces.jsonl")
        outputs[workers] = {name: (out / name).read_bytes() for name in names}
    assert outputs["1"] == outputs["2"]
    assert len(read_dataset(str(tmp_path / "w2" / "data.jsonl"))) > 0


class TestEval:
    def test_single_task_eval_and_report(self, tmp_path, fast_config):
        scenes = tmp_path / "scenes"
        run(["--config", fast_config, "gen-scenes", "--count", "1", "--out", str(scenes)])
        out = tmp_path / "report"
        rc = run(
            [
                "--config",
                fast_config,
                "eval",
                "--scenes",
                str(scenes),
                "--n-tasks",
                "1",
                "--policy",
                "oracle",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["n_episodes"] == 1
        csv_text = (tmp_path / "report.csv").read_text()
        assert csv_text.startswith("# amr-navkit-report-v1")
        traces = [json.loads(l) for l in (tmp_path / "report.traces.jsonl").read_text().splitlines()]
        assert len(traces) == 1
        assert traces[0]["outcome"] == "reached"

    def test_oracle_converges_on_a_task_it_once_wandered_on(self, tmp_path):
        """Master seed 8251000's task 0 timed out when every replan was cold:
        the oracle drifted between near-equal routes, its heading flipping
        between replans. Seeding each replan with the previous route settles it."""
        scenes, out = tmp_path / "scenes", tmp_path / "report"
        assert run(["--seed", "8251000", "--workers", "1", "gen-scenes", "--count", "8", "--out", str(scenes)]) == 0
        argv = ["eval", "--scenes", str(scenes), "--n-tasks", "8", "--policy", "oracle", "--out", str(out)]
        assert run(["--seed", "8251000", "--workers", "1", *argv]) == 0
        traces = [json.loads(l) for l in (tmp_path / "report.traces.jsonl").read_text().splitlines()]
        assert traces[0]["task_index"] == 0
        assert traces[0]["outcome"] == "reached"

    def test_every_oracle_replan_after_a_route_starts_warm(self, tmp_path, monkeypatch):
        """On master seed 0, every oracle query after an episode's first
        successful plan starts with a one-batch warm attempt, a route with one
        translation included; a cold plan (a budget of 4 batches or more)
        follows only failed warm attempts or belongs to an episode's first query."""
        bind = inspect.signature(planner.plan).bind
        real_plan, real_query = planner.plan, controller.OraclePolicy.query
        episodes, active = {}, []  # id(policy) -> (policy, queries), each a list of [batches, via, succeeded]

        def plan(*args, **kwargs):
            if not active:  # a task-sampling probe
                return real_plan(*args, **kwargs)
            arguments = bind(*args, **kwargs).arguments
            call = [arguments["budget"].batches, arguments.get("via"), False]
            active[-1].append(call)
            path = real_plan(*args, **kwargs)
            call[2] = True
            return path

        def query(policy, state, task, step):
            calls = []
            episodes.setdefault(id(policy), (policy, []))[1].append(calls)
            active.append(calls)
            try:
                return real_query(policy, state, task, step)
            finally:
                active.pop()

        monkeypatch.setattr(planner, "plan", plan)
        monkeypatch.setattr(controller.OraclePolicy, "query", query)
        scenes = tmp_path / "scenes"
        assert run(["--seed", "0", "--workers", "1", "gen-scenes", "--count", "8", "--out", str(scenes)]) == 0
        argv = ["eval", "--scenes", str(scenes), "--n-tasks", "8", "--policy", "oracle", "--out", str(tmp_path / "r")]
        assert run(["--seed", "0", "--workers", "1", *argv]) == 0

        assert len(episodes) == 8
        warm_after_one_translation = 0
        for _, queries in episodes.values():
            planned = [calls for calls in queries if calls]  # the others turned in place at the goal
            assert planned[0][0][0] >= 4
            for calls in planned[1:]:
                n_warm = len(list(takewhile(lambda call: call[0] == 1, calls)))
                assert n_warm >= 1
                assert all(call[0] >= 4 and call[1] == () for call in calls[n_warm:])
                if n_warm < len(calls):  # the cold ladder ran, so every warm attempt failed
                    assert not any(call[2] for call in calls[:n_warm])
                warm_after_one_translation += calls[0][1] == []
        assert warm_after_one_translation > 0

    @pytest.mark.parametrize("n_tasks", ["0", "-3"])
    def test_non_positive_n_tasks_exits_2(self, tmp_path, n_tasks):
        with pytest.raises(SystemExit) as exc:
            run(["eval", "--scenes", str(tmp_path), "--n-tasks", n_tasks, "--out", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert not (tmp_path / "r.json").exists()

    def test_report_command_roundtrip(self, tmp_path, fast_config, capsys):
        scenes = tmp_path / "scenes"
        run(["--config", fast_config, "gen-scenes", "--count", "1", "--out", str(scenes)])
        out = tmp_path / "report"
        run(
            [
                "--config",
                fast_config,
                "eval",
                "--scenes",
                str(scenes),
                "--n-tasks",
                "1",
                "--policy",
                "oracle",
                "--out",
                str(out),
            ]
        )
        rc = run(["report", "--report", str(tmp_path / "report.json"), "--format", "csv"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert printed.startswith("# amr-navkit-report-v1")

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(None, id="missing"),
            pytest.param("not json {", id="not-json"),
            pytest.param('{"x": 1}', id="unknown-fields"),
            pytest.param("[1, 2]", id="not-an-object"),
        ],
    )
    def test_report_bad_input_exits_3(self, tmp_path, content):
        path = tmp_path / "rep.json"
        if content is not None:
            path.write_text(content)
        assert run(["report", "--report", str(path)]) == 3

    @pytest.mark.parametrize("edit", ["add", "drop"])
    def test_report_bucket_fields_checked(self, tmp_path, capsys, edit):
        d = report_to_dict(summarize([]))
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(d))
        assert run(["report", "--report", str(path)]) == 0
        bucket = d["buckets"][next(iter(d["buckets"]))]
        if edit == "add":
            bucket["bogus"] = 1
        else:
            del bucket["count"]
        path.write_text(json.dumps(d))
        assert run(["report", "--report", str(path)]) == 3

    @pytest.mark.parametrize(
        "where, field, value",
        [
            pytest.param("bucket", "median_distance", "x", id="bucket-string"),
            pytest.param("bucket", "p90_angle", math.nan, id="bucket-nan"),
            pytest.param("bucket", "max_distance", math.inf, id="bucket-inf"),
            pytest.param("bucket", "count", 1.5, id="count-fraction"),
            pytest.param("bucket", "count", "3", id="count-string"),
            pytest.param("top", "median_distance_error", "x", id="report-string"),
            pytest.param("top", "collision_rate", math.nan, id="report-nan"),
            pytest.param("top", "n_episodes", 2.5, id="n-episodes-fraction"),
            pytest.param("top", "outcomes", {"reached": "x"}, id="outcome-count-string"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_report_values_checked(self, tmp_path, capsys, where, field, value, fmt):
        d = report_to_dict(summarize([]))
        target = d if where == "top" else d["buckets"]["0-2/ffr/visible"]
        target[field] = value
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(d))
        assert run(["report", "--report", str(path), "--format", fmt]) == 3

    @pytest.mark.parametrize("label", ["nolabel", "0-2/ffr", "0-3/ffr/visible", "0-2/ffr/visible/x"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_report_bucket_labels_checked(self, tmp_path, capsys, label, fmt):
        d = report_to_dict(summarize([]))
        d["buckets"][label] = d["buckets"].pop("0-2/ffr/visible")
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(d))
        assert run(["report", "--report", str(path), "--format", fmt]) == 3

    def test_report_integral_float_count_accepted(self, tmp_path, capsys):
        d = report_to_dict(summarize([]))
        d["buckets"]["0-2/ffr/visible"]["count"] = 0.0
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(d))
        assert run(["report", "--report", str(path), "--format", "csv"]) == 0
        assert "\n0-2,1,1,0,0," in capsys.readouterr().out

    def test_codec_policy_names(self, tmp_path, fast_config):
        scenes = tmp_path / "scenes"
        run(["--config", fast_config, "gen-scenes", "--count", "1", "--out", str(scenes)])
        for policy in ("oracle", "codec-noresidual"):
            out = tmp_path / f"rep_{policy}"
            rc = run(
                [
                    "--config",
                    fast_config,
                    "eval",
                    "--scenes",
                    str(scenes),
                    "--n-tasks",
                    "1",
                    "--policy",
                    policy,
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
            assert (tmp_path / f"rep_{policy}.json").exists()
        # "codec" was the oracle under another name
        with pytest.raises(SystemExit) as exc:
            run(["--config", fast_config, "eval", "--scenes", str(scenes), "--n-tasks", "1",
                 "--policy", "codec", "--out", str(tmp_path / "rep_codec")])
        assert exc.value.code == 2
        assert not list(tmp_path.glob("rep_codec.*"))

    def test_seed_flag_changes_output(self, tmp_path, fast_config):
        scenes1, scenes2 = tmp_path / "s1", tmp_path / "s2"
        run(["--config", fast_config, "--seed", "1", "gen-scenes", "--count", "1", "--out", str(scenes1)])
        run(["--config", fast_config, "--seed", "2", "gen-scenes", "--count", "1", "--out", str(scenes2)])
        a = (scenes1 / "scene_00000.json").read_bytes()
        b = (scenes2 / "scene_00000.json").read_bytes()
        assert a != b
