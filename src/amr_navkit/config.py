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
from typing import get_type_hints

from .controller import ExecutorConfig
from .errors import checked
from .geometry import CameraModel
from .pipeline import Expert, TaskParams
from .planner import CostWeights, PlannerBudget
from .scene import SceneGenParams


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

    def model(self) -> CameraModel:
        return CameraModel.pinhole(
            self.height, math.radians(self.vertical_fov_deg), self.width_px, self.height_px
        )


@dataclass(frozen=True)
class SensorParams:
    num_rays: int = 360
    max_range: float = 10.0

    def __post_init__(self):
        if self.num_rays < 1:
            raise ValueError(f"sensor num_rays must be at least 1, got {self.num_rays}")
        if not 0 < self.max_range < math.inf:
            raise ValueError(f"sensor max_range must be finite and positive, got {self.max_range}")


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


_SECTIONS = {
    "scene_gen": SceneGenParams,
    "planner": PlannerParams,
    "task": TaskParams,
    "executor": ExecutorConfig,
    "camera": CameraParams,
    "sensor": SensorParams,
    "oracle": OracleParams,
    "eval": EvalParams,
}


def _field_types(cls) -> dict:
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _section_from_dict(cls, d: dict, where: str):
    types = _field_types(cls)
    unknown = set(d) - set(types)
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} in config section {where!r}")
    return cls(**{k: checked(v, types[k], f"{where}.{k}") for k, v in d.items()})


def config_from_dict(d: dict) -> RunConfig:
    known = set(_SECTIONS) | {"master_seed", "workers"}
    unknown = set(d) - known
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    kwargs = {}
    for name in ("master_seed", "workers"):
        if name in d:
            kwargs[name] = checked(d[name], int, name)
    for name, cls in _SECTIONS.items():
        if name in d:
            kwargs[name] = _section_from_dict(cls, d[name], name)
    return RunConfig(**kwargs)


def config_to_dict(cfg: RunConfig) -> dict:
    out = {"master_seed": cfg.master_seed, "workers": cfg.workers}
    for name in _SECTIONS:
        out[name] = dataclasses.asdict(getattr(cfg, name))
    return out


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
        for name, cls in _SECTIONS.items():
            prefix = name + "_"
            if rest.startswith(prefix):
                field = rest[len(prefix):]
                types = _field_types(cls)
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
