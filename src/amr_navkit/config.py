"""Run configuration: one structured document with env-var overrides.

The config is a JSON file of flat sections. Any scalar field can be
overridden with AMR_<SECTION>_<FIELD> (e.g. AMR_EXECUTOR_SPEED=0.4,
AMR_RUN_MASTER_SEED=7). Every field is an int, float or str, and file and
env values alike are checked against that type. The canonical hash of the
resolved config is recorded in dataset manifests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, replace

from .controller import ExecutorConfig
from .errors import checked, field_types
from .geometry import CameraModel
from .pipeline import Expert, TaskParams
from .planner import CostWeights, PlannerBudget
from .scene import SceneGenParams, check_lidar_params


@dataclass(frozen=True)
class PlannerParams:
    w_translate: float = 1.0
    w_rotate: float = 0.3
    w_backward: float = 2.0
    w_lookat: float = 0.5
    batches: int = 4
    batch_size: int = 24
    probe_batches: int = 1
    probe_batch_size: int = 16
    safety_margin: float = 0.1

    def __post_init__(self):
        for name in ("batches", "batch_size", "probe_batches", "probe_batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"planner {name} must be at least 1, got {getattr(self, name)}")
        if self.safety_margin < 0:
            raise ValueError(f"planner safety_margin must not be negative, got {self.safety_margin}")

    def probe_budget(self) -> PlannerBudget:
        return PlannerBudget(self.probe_batches, self.probe_batch_size)


@dataclass(frozen=True)
class OracleParams:
    v_ref: float = 0.5
    omega_ref: float = 1.0

    def __post_init__(self):
        if not (0 < self.v_ref < math.inf and 0 < self.omega_ref < math.inf):
            raise ValueError("oracle v_ref and omega_ref must be finite and positive")


@dataclass(frozen=True)
class CameraParams:
    height: float = 1.5
    vertical_fov_deg: float = 90.0
    width_px: int = 224
    height_px: int = 224

    def __post_init__(self):
        if not 0 < self.vertical_fov_deg < 180:
            raise ValueError(f"camera vertical_fov_deg must be in (0, 180), got {self.vertical_fov_deg}")
        for name in ("width_px", "height_px"):
            if getattr(self, name) < 1:
                raise ValueError(f"camera {name} must be at least 1, got {getattr(self, name)}")

    def model(self) -> CameraModel:
        return CameraModel(self.height, math.radians(self.vertical_fov_deg), self.width_px, self.height_px)


@dataclass(frozen=True)
class SensorParams:
    num_rays: int = 360
    max_range: float = 10.0

    def __post_init__(self):
        check_lidar_params(self.num_rays, self.max_range, "sensor")


@dataclass(frozen=True)
class EvalParams:
    success_pos_tol: float = 0.1
    success_ang_tol_deg: float = 10.0


@dataclass(frozen=True)
class RunConfig:
    master_seed: int = 0
    workers: int = 1
    scene_gen: SceneGenParams = SceneGenParams()
    planner: PlannerParams = PlannerParams()
    task: TaskParams = TaskParams()
    executor: ExecutorConfig = ExecutorConfig()
    camera: CameraParams = CameraParams()
    sensor: SensorParams = SensorParams()
    oracle: OracleParams = OracleParams()
    eval: EvalParams = EvalParams()

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")

    def expert(self) -> Expert:
        """The expert that plans and labels, for gen-data and the eval oracle alike."""
        p = self.planner
        return Expert(
            weights=CostWeights(p.w_translate, p.w_rotate, p.w_backward, p.w_lookat),
            budget=PlannerBudget(p.batches, p.batch_size),
            safety_margin=p.safety_margin,
            horizon_n=self.executor.horizon_n,
            dt=self.executor.dt,
            v_ref=self.oracle.v_ref,
            omega_ref=self.oracle.omega_ref,
        )


def config_from_dict(d: dict) -> RunConfig:
    """Config from its JSON dict, read by ``errors.checked`` once every absent
    key and section field is filled in with its default."""
    if type(d) is dict:
        full = config_to_dict(RunConfig())
        for k, v in d.items():
            full[k] = {**full[k], **v} if type(v) is dict and type(full.get(k)) is dict else v
        d = full
    return checked(d, RunConfig, "")


def config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def load_config(path: str | None) -> RunConfig:
    """Load a JSON config file; None yields pure defaults."""
    if path is None:
        return RunConfig()
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def _env_value(raw: str, hint, where: str):
    if hint is not str:
        try:
            raw = int(raw)
        except ValueError:
            raw = float(raw)
    return checked(raw, hint, where)


def apply_env_overrides(cfg: RunConfig, environ) -> RunConfig:
    """Apply AMR_<SECTION>_<FIELD> scalar overrides; unknown names raise."""
    for key, raw in sorted(environ.items()):
        if not key.startswith("AMR_"):
            continue
        rest = key[len("AMR_"):].lower()
        if rest in ("run_master_seed", "run_workers"):
            field = rest[len("run_"):]
            cfg = replace(cfg, **{field: _env_value(raw, int, field)})
            continue
        for name, cls in field_types(RunConfig).items():
            prefix = name + "_"
            if dataclasses.is_dataclass(cls) and rest.startswith(prefix):
                field = rest[len(prefix):]
                types = field_types(cls)
                if field not in types:
                    raise ValueError(f"env override {key} names unknown field {field!r}")
                value = _env_value(raw, types[field], f"{name}.{field}")
                cfg = replace(cfg, **{name: replace(getattr(cfg, name), **{field: value})})
                break
        else:
            raise ValueError(f"env override {key} names no config section")
    return cfg


def config_hash(cfg: RunConfig) -> str:
    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
