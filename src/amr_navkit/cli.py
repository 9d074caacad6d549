"""Batch entry points: scene generation, dataset generation, eval, reporting.

Settings are read once (``config``), and the expert and camera built from
them, before any command runs: a refused value exits 2 before any work or
output.

Exit codes: 0 success, 2 config/usage error, 3 generation or eval hard
failure, an unreadable or malformed scene or report file, or an output
file that cannot be written. A command's output files all appear or none
do. All commands are deterministic under an identical resolved config
(timestamps appear only inside manifest metadata).
"""

from __future__ import annotations

import argparse
import datetime
import json
import logging
import os
import sys
from pathlib import Path
from typing import NamedTuple

from .config import RunConfig, apply_env_overrides, config_from_dict, config_hash, load_config
from .errors import (
    GenerationFailed,
    IoFailure,
    NavkitError,
    NoPathFound,
    SamplingExhausted,
    written,
)
from .evaluation import (
    PolicySpec,
    evaluate,
    report_export,
    report_from_dict,
    report_text,
)
from .geometry import CameraModel
from .pipeline import (
    SHAPES,
    Expert,
    all_or_none,
    generate_episode,
    load_scene,
    parallel_map,
    read_json,
    sample_task,
    save_scene,
    write_dataset,
)
from .scene import sample_scene

log = logging.getLogger("amr_navkit")

# policy name -> use_residual; the oracle's horizon always goes through the codec
_POLICIES = {"oracle": True, "codec-noresidual": False}


class Run(NamedTuple):
    """The resolved config and what the commands build from it, built once."""

    cfg: RunConfig
    expert: Expert
    camera: CameraModel


def _scene_seed(master_seed: int, index: int) -> int:
    return master_seed * 1000 + index


def _task_seed(master_seed: int, index: int) -> int:
    return master_seed * 1_000_000 + index


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load_scene_dir(scenes_dir: str):
    """The scenes in a directory, in file-name order; two files that hold one
    seed are refused, as a task names its scene by seed."""
    paths = sorted(Path(scenes_dir).glob("scene_*.json"))
    if not paths:
        raise IoFailure(f"no scene_*.json files in {scenes_dir}")
    scenes = [load_scene(str(p)) for p in paths]
    seen = {}
    for path, scene in zip(paths, scenes):
        first = seen.setdefault(scene.seed, path)
        if first != path:
            raise IoFailure(f"{first} and {path} both hold scene seed {scene.seed}")
    return scenes


def cmd_gen_scenes(run: Run, args) -> int:
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        log.error("cannot create output directory %s: %s", out_dir, err)
        return 2
    paths = [str(out_dir / f"scene_{i:05d}.json") for i in range(args.count)]
    with all_or_none(paths) as temps:
        for i, tmp in enumerate(temps):
            seed = _scene_seed(run.cfg.master_seed, i)
            scene = sample_scene(seed, run.cfg.scene_gen)
            save_scene(scene, tmp)
            log.info("generated %s (seed %d, %d objects)", paths[i], seed, len(scene.objects))
    return 0


def _gen_one(job):
    run, scene, task_seed = job
    try:
        task = sample_task(scene, task_seed, run.cfg.task, run.expert, run.camera)
        record = generate_episode(
            scene, task, run.expert, run.camera, task_seed, run.cfg.sensor.num_rays, run.cfg.sensor.max_range
        )
        return task_seed, record, None
    except (SamplingExhausted, NoPathFound, GenerationFailed) as err:
        return task_seed, None, f"{type(err).__name__}: {err}"


def cmd_gen_data(run: Run, args) -> int:
    cfg = run.cfg
    scenes = _load_scene_dir(args.scenes)
    jobs = []
    for si, scene in enumerate(scenes):
        for e in range(args.episodes_per_scene):
            jobs.append((run, scene, _task_seed(cfg.master_seed, si * 1000 + e)))

    records = []
    for task_seed, record, err in parallel_map(_gen_one, jobs, cfg.workers):
        if record is None:
            log.warning("task seed %d skipped: %s", task_seed, err)
        else:
            records.append(record)
            log.info("task seed %d -> %d keyframes", task_seed, len(record.keyframes))
    write_dataset(
        records,
        args.out,
        master_seed=cfg.master_seed,
        scene_count=len(scenes),
        config_hash=config_hash(cfg),
        created_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )
    log.info("wrote %d records to %s", len(records), args.out)
    return 0


def cmd_eval(run: Run, args) -> int:
    cfg = run.cfg
    scenes = _load_scene_dir(args.scenes)
    by_seed = {s.seed: s for s in scenes}
    spec = PolicySpec(run.expert, cfg.master_seed, _POLICIES[args.policy])

    tasks = []
    seed_index = 0
    while len(tasks) < args.n_tasks and seed_index < 10 * args.n_tasks:
        scene = scenes[len(tasks) % len(scenes)]
        task_seed = _task_seed(cfg.master_seed, seed_index)
        seed_index += 1
        try:
            tasks.append(sample_task(scene, task_seed, cfg.task, run.expert, run.camera))
            log.info("task %d sampled with seed %d", len(tasks) - 1, task_seed)
        except SamplingExhausted as err:
            log.warning("task seed %d skipped: %s", task_seed, err)
    if len(tasks) < args.n_tasks:
        log.error("only sampled %d of %d tasks", len(tasks), args.n_tasks)
        return 3

    report, episodes = evaluate(
        tasks,
        by_seed,
        spec,
        cfg.executor,
        run.camera,
        cfg.workers,
        cfg.eval.success_pos_tol,
        cfg.eval.success_ang_tol_deg,
    )
    out = Path(args.out)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise IoFailure(f"cannot create output directory {out.parent}: {err}") from err
    paths = [str(out.with_suffix(ext)) for ext in (".json", ".csv", ".traces.jsonl")]
    with all_or_none(paths) as (json_tmp, csv_tmp, traces_tmp):
        report_export(report, "json", json_tmp)
        report_export(report, "csv", csv_tmp)
        with open(traces_tmp, "w") as fh:
            for summary, result in episodes:
                line = {"task_index": summary.task_index, **written(result, SHAPES)}
                fh.write(json.dumps(line, sort_keys=True) + "\n")
    log.info(
        "evaluated %d tasks: median %.4f m / %.3f deg, collisions %.1f%%",
        report.n_episodes,
        report.median_distance_error,
        report.median_angle_error,
        100 * report.collision_rate,
    )
    return 0


def cmd_report(run: Run, args) -> int:
    report = report_from_dict(read_json(args.report))
    if args.out:
        with all_or_none([args.out]) as (tmp,):
            report_export(report, args.format, tmp)
    else:
        sys.stdout.write(report_text(report, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amr-navkit",
        description="scene generation, demonstration datasets, and closed-loop evaluation",
    )
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override master seed")
    parser.add_argument("--workers", type=int, default=None, help="override worker count")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scenes", help="write procedural scene JSON files")
    p.add_argument("--count", type=_positive_int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_scenes)

    p = sub.add_parser("gen-data", help="generate an expert demonstration dataset")
    p.add_argument("--scenes", required=True, help="directory of scene_*.json")
    p.add_argument("--episodes-per-scene", type=_positive_int, default=10)
    p.add_argument("--out", required=True, help="output dataset .jsonl path")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("eval", help="run a closed-loop evaluation sweep")
    p.add_argument("--scenes", required=True, help="directory of scene_*.json")
    p.add_argument("--n-tasks", type=_positive_int, default=50)
    p.add_argument("--policy", choices=sorted(_POLICIES), default="oracle")
    p.add_argument("--out", required=True, help="report base path (writes .json/.csv/.traces.jsonl)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="re-export a report JSON")
    p.add_argument("--report", required=True, help="report .json path")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    flags = {"AMR_RUN_MASTER_SEED": args.seed, "AMR_RUN_WORKERS": args.workers}
    environ = {**os.environ, **{key: str(value) for key, value in flags.items() if value is not None}}
    try:
        cfg = config_from_dict(apply_env_overrides(load_config(args.config), environ))
        run = Run(cfg, cfg.expert(), cfg.camera.model())
    except (ValueError, TypeError, OverflowError, OSError) as err:
        log.error("config error: %s", err)
        return 2
    try:
        return args.func(run, args)
    except IoFailure as err:
        log.error("%s", err)
        return 3
    except NavkitError as err:
        log.error("hard failure: %s", err)
        return 3


if __name__ == "__main__":
    sys.exit(main())
