"""Run configuration: one structured document with env-var overrides.

The config is a JSON file of flat sections. Any scalar field can be
overridden with AMR_<SECTION>_<FIELD> (e.g. AMR_EXECUTOR_SPEED=0.4,
AMR_RUN_MASTER_SEED=7). The canonical hash of the resolved config is
recorded in dataset manifests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import get_type_hints

from .controller import ExecutorConfig
from .geometry import CameraModel
from .pipeline import TaskParams
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
    k_neighbors: int = 8
    probe_batches: int = 1
    probe_batch_size: int = 16
    safety_margin: float = 0.1

    def weights(self) -> CostWeights:
        return CostWeights(self.w_translate, self.w_rotate, self.w_backward, self.w_lookat)

    def budget(self) -> PlannerBudget:
        return PlannerBudget(self.batches, self.batch_size)

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


def _section_from_dict(cls, d: dict, where: str):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(d) - names
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} in config section {where!r}")
    return cls(**d)


def _check_finite(cfg: RunConfig) -> RunConfig:
    """Reject NaN and infinite values, which json parses but no field accepts."""
    for name in _SECTIONS:
        for field, value in dataclasses.asdict(getattr(cfg, name)).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"config value {name}.{field} must be finite, got {value}")
    return cfg


def config_from_dict(d: dict) -> RunConfig:
    known = set(_SECTIONS) | {"master_seed", "workers"}
    unknown = set(d) - known
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    kwargs = {}
    if "master_seed" in d:
        kwargs["master_seed"] = int(d["master_seed"])
    if "workers" in d:
        kwargs["workers"] = int(d["workers"])
    for name, cls in _SECTIONS.items():
        if name in d:
            kwargs[name] = _section_from_dict(cls, d[name], name)
    return _check_finite(RunConfig(**kwargs))


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


def _parse_scalar(raw: str, hint) -> object:
    if raw.lower() in ("none", "null"):
        return None
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    if hint is int and not isinstance(value, bool):
        return int(value)
    if hint is float:
        return float(value)
    return value


def apply_env_overrides(cfg: RunConfig, environ) -> RunConfig:
    """Apply AMR_<SECTION>_<FIELD> scalar overrides; unknown names raise."""
    for key, raw in sorted(environ.items()):
        if not key.startswith("AMR_"):
            continue
        rest = key[len("AMR_"):].lower()
        if rest in ("run_master_seed", "run_workers"):
            field = rest[len("run_"):]
            cfg = replace(cfg, **{field: int(raw)})
            continue
        matched = False
        for name, cls in _SECTIONS.items():
            prefix = name + "_"
            if rest.startswith(prefix):
                field = rest[len(prefix):]
                names = {f.name for f in dataclasses.fields(cls)}
                if field not in names:
                    raise ValueError(f"env override {key} names unknown field {field!r}")
                hints = get_type_hints(cls)
                section = replace(getattr(cfg, name), **{field: _parse_scalar(raw, hints.get(field))})
                cfg = replace(cfg, **{name: section})
                matched = True
                break
        if not matched:
            raise ValueError(f"env override {key} names no config section")
    return _check_finite(cfg)


def config_hash(cfg: RunConfig) -> str:
    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
