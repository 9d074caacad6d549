"""Run configuration: one structured document, read once.

The config is a JSON file of flat sections. Any scalar field can be
overridden with AMR_<SECTION>_<FIELD> (e.g. AMR_EXECUTOR_SPEED=0.4), a
top-level one with AMR_RUN_<FIELD>. The overrides are written into the
file's dict, which ``config_from_dict`` reads once with ``errors.checked``,
so every rule judges the final values. Each field's ``Range`` is declared
beside it; a field that a type built from it holds to a rule declares none
(the expert's weights, budget and speeds, the sensor's scan). The canonical
hash of the resolved config is recorded in dataset manifests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Annotated

from .controller import ExecutorConfig
from .errors import AT_LEAST_1, NON_NEGATIVE, Range, check_ranges, checked, field_types, written
from .geometry import CameraModel
from .pipeline import Expert, TaskParams
from .planner import CostWeights, PlannerBudget, check_labelling
from .scene import SceneGenParams, check_lidar_params


@dataclass(frozen=True)
class PlannerParams:
    w_translate: float = 1.0
    w_rotate: float = 0.3
    w_backward: float = 2.0
    w_lookat: float = 0.5
    batches: int = 4
    batch_size: int = 24
    safety_margin: Annotated[float, NON_NEGATIVE] = 0.1

    def __post_init__(self):
        check_ranges(self, "planner")


@dataclass(frozen=True)
class OracleParams:
    v_ref: float = 0.5
    omega_ref: float = 1.0


@dataclass(frozen=True)
class CameraParams:
    height: float = 1.5
    vertical_fov_deg: Annotated[float, Range(0, 180, lo_open=True, hi_open=True)] = 90.0
    width_px: Annotated[int, AT_LEAST_1] = 224
    height_px: Annotated[int, AT_LEAST_1] = 224

    def __post_init__(self):
        check_ranges(self, "camera")

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
    success_pos_tol: Annotated[float, NON_NEGATIVE] = 0.1
    success_ang_tol_deg: Annotated[float, NON_NEGATIVE] = 10.0

    def __post_init__(self):
        check_ranges(self, "eval")


@dataclass(frozen=True)
class RunConfig:
    master_seed: Annotated[int, NON_NEGATIVE] = 0
    workers: Annotated[int, AT_LEAST_1] = 1
    scene_gen: SceneGenParams = SceneGenParams()
    planner: PlannerParams = PlannerParams()
    task: TaskParams = TaskParams()
    executor: ExecutorConfig = ExecutorConfig()
    camera: CameraParams = CameraParams()
    sensor: SensorParams = SensorParams()
    oracle: OracleParams = OracleParams()
    eval: EvalParams = EvalParams()

    def __post_init__(self):
        check_ranges(self, "run")

    def expert(self) -> Expert:
        """The expert that plans and labels, for gen-data and the eval oracle
        alike; a step or speeds that labelling refuses raise ValueError here."""
        dt, v_ref, omega_ref = self.executor.dt, self.oracle.v_ref, self.oracle.omega_ref
        try:
            check_labelling(dt, v_ref, omega_ref)
        except ValueError as err:
            got = f"executor.dt {dt}, oracle.v_ref {v_ref}, oracle.omega_ref {omega_ref}"
            raise ValueError(f"{err}, got {got}") from None
        p = self.planner
        return Expert(
            weights=CostWeights(p.w_translate, p.w_rotate, p.w_backward, p.w_lookat),
            budget=PlannerBudget(p.batches, p.batch_size),
            safety_margin=p.safety_margin,
            horizon_n=self.executor.horizon_n,
            dt=dt,
            v_ref=v_ref,
            omega_ref=omega_ref,
        )


def config_from_dict(d: dict) -> RunConfig:
    """Config from its JSON dict, read by ``errors.checked`` once every absent
    key and section field is filled in with its default: the one read by
    which every setting reaches a ``RunConfig``."""
    if type(d) is dict:
        full = written(RunConfig())
        for k, v in d.items():
            full[k] = {**full[k], **v} if type(v) is dict and type(full.get(k)) is dict else v
        d = full
    return checked(d, RunConfig, "")


def load_config(path: str | None):
    """The parsed JSON of a config file, for ``apply_env_overrides`` and
    ``config_from_dict``; None yields an empty one."""
    if path is None:
        return {}
    with open(path) as fh:
        return json.load(fh)


def apply_env_overrides(d, environ) -> dict:
    """A copy of ``d``, a parsed config file, with each AMR_<SECTION>_<FIELD>
    or AMR_RUN_<FIELD> in ``environ`` written in, as ``checked`` will read
    it; an AMR_* name that matches no field, or a number that does not
    parse, raises ValueError. A ``d`` that is not an object comes back as it
    is, for ``config_from_dict`` to refuse."""
    if type(d) is not dict:
        return d
    out = {k: dict(v) if type(v) is dict else v for k, v in d.items()}
    names = {}
    for name, hint in field_types(RunConfig).items():
        if dataclasses.is_dataclass(hint):
            names.update({f"AMR_{name}_{f}".upper(): (name, f, h) for f, h in field_types(hint).items()})
        else:
            names[f"AMR_RUN_{name}".upper()] = (None, name, hint)
    for key, raw in environ.items():
        if not key.startswith("AMR_"):
            continue
        if key not in names:
            raise ValueError(f"env override {key} names no config field")
        section, field, hint = names[key]
        try:
            value = raw if hint is str else int(raw) if raw.strip().lstrip("+-").isdigit() else float(raw)
        except ValueError:
            raise ValueError(f"env override {key} is not a number: {raw!r}") from None
        target = out if section is None else out.setdefault(section, {})
        if type(target) is dict:  # else config_from_dict refuses the file's section
            target[field] = value
    return out


def config_hash(cfg: RunConfig) -> str:
    """The hash of every resolved field that can change an output: ``workers``
    only sets how many processes write the same bytes, so it is left out."""
    fields = written(cfg)
    del fields["workers"]
    canon = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
