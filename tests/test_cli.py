import json
import math

import pytest

from amr_navkit.cli import main
from amr_navkit.config import (
    OracleParams,
    RunConfig,
    apply_env_overrides,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
)
from amr_navkit.pipeline import read_dataset


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
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"no_such_section": {}})
        with pytest.raises(ValueError):
            config_from_dict({"planner": {"no_such_field": 1}})

    def test_env_overrides(self):
        cfg = RunConfig()
        env = {
            "AMR_EXECUTOR_SPEED": "0.4",
            "AMR_PLANNER_BATCHES": "7",
            "AMR_RUN_MASTER_SEED": "99",
            "AMR_TASK_P_FFR": "0.25",
            "IGNORED": "x",
        }
        out = apply_env_overrides(cfg, env)
        assert out.executor.speed == 0.4
        assert out.planner.batches == 7
        assert out.master_seed == 99
        assert out.task.p_ffr == 0.25

    def test_env_override_unknown_field(self):
        with pytest.raises(ValueError):
            apply_env_overrides(RunConfig(), {"AMR_PLANNER_NOPE": "1"})

    def test_hash_stable_and_sensitive(self):
        a, b = RunConfig(), RunConfig()
        assert config_hash(a) == config_hash(b)
        c = apply_env_overrides(a, {"AMR_EXECUTOR_SPEED": "0.4"})
        assert config_hash(c) != config_hash(a)

    def test_load_missing_returns_defaults(self):
        assert load_config(None) == RunConfig()

    @pytest.mark.parametrize("field", ["v_ref", "omega_ref"])
    @pytest.mark.parametrize("value", [0.0, -0.5, math.nan, math.inf])
    def test_oracle_speeds_must_be_finite_positive(self, field, value):
        with pytest.raises(ValueError):
            OracleParams(**{field: value})

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
            load_config(str(path))
        assert run(["--config", str(path), "gen-scenes", "--count", "1", "--out", str(tmp_path / "s")]) == 2

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
        ],
    )
    def test_non_finite_env_override_exits_2(self, tmp_path, monkeypatch, key, raw):
        monkeypatch.setenv(key, raw)
        assert run(["gen-scenes", "--count", "1", "--out", str(tmp_path / "s")]) == 2


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
        assert run(["--config", fast_config, "gen-scenes", "--count", "0", "--out", str(out)]) == 0
        assert list(out.glob("*.json")) == []

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

    def test_codec_policy_names(self, tmp_path, fast_config):
        scenes = tmp_path / "scenes"
        run(["--config", fast_config, "gen-scenes", "--count", "1", "--out", str(scenes)])
        for policy in ("codec", "codec-noresidual"):
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

    def test_seed_flag_changes_output(self, tmp_path, fast_config):
        scenes1, scenes2 = tmp_path / "s1", tmp_path / "s2"
        run(["--config", fast_config, "--seed", "1", "gen-scenes", "--count", "1", "--out", str(scenes1)])
        run(["--config", fast_config, "--seed", "2", "gen-scenes", "--count", "1", "--out", str(scenes2)])
        a = (scenes1 / "scene_00000.json").read_bytes()
        b = (scenes2 / "scene_00000.json").read_bytes()
        assert a != b
