"""Batch entry points: scene generation, dataset generation, eval, reporting.

Exit codes: 0 success, 2 config/usage error, 3 generation or eval hard
failure. All commands are deterministic under an identical resolved config
(timestamps appear only inside manifest metadata).
"""

from __future__ import annotations

import argparse
import datetime
import json
import logging
import multiprocessing
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import RunConfig, apply_env_overrides, config_hash, load_config
from .errors import (
    GenerationFailed,
    IoFailure,
    NavkitError,
    NoPathFound,
    SamplingExhausted,
)
from .evaluation import (
    PolicySpec,
    report_export,
    report_from_dict,
    run_task,
    summarize,
)
from .pipeline import (
    generate_episode,
    load_scene,
    sample_task,
    save_scene,
    write_dataset,
)
from .scene import sample_scene

log = logging.getLogger("amr_navkit")

_POLICIES = {
    "oracle": ("oracle", True),
    "codec": ("codec_roundtrip", True),
    "codec-noresidual": ("codec_roundtrip", False),
}


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
    paths = sorted(Path(scenes_dir).glob("scene_*.json"))
    if not paths:
        raise IoFailure(f"no scene_*.json files in {scenes_dir}")
    return [load_scene(str(p)) for p in paths]


def _policy_spec(cfg: RunConfig, name: str) -> PolicySpec:
    kind, residual = _POLICIES[name]
    return PolicySpec(
        kind=kind,
        use_residual=residual,
        weights=cfg.planner.weights(),
        budget=cfg.planner.budget(),
        v_ref=cfg.oracle.v_ref,
        omega_ref=cfg.oracle.omega_ref,
        safety_margin=cfg.planner.safety_margin,
        seed=cfg.master_seed,
    )


def cmd_gen_scenes(cfg: RunConfig, args) -> int:
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        log.error("cannot create output directory %s: %s", out_dir, err)
        return 2
    for i in range(args.count):
        seed = _scene_seed(cfg.master_seed, i)
        scene = sample_scene(seed, cfg.scene_gen)
        path = out_dir / f"scene_{i:05d}.json"
        save_scene(scene, str(path))
        log.info("wrote %s (seed %d, %d objects)", path, seed, len(scene.objects))
    return 0


def _gen_one(job):
    cfg, scene, task_seed = job
    try:
        task = sample_task(
            scene,
            task_seed,
            cfg.task,
            cfg.planner.weights(),
            cfg.planner.probe_budget(),
            cfg.camera.model(),
            cfg.planner.safety_margin,
        )
        record = generate_episode(
            scene,
            task,
            cfg.planner.weights(),
            cfg.planner.budget(),
            cfg.camera.model(),
            seed=task_seed,
            horizon_n=cfg.executor.horizon_n,
            dt=cfg.executor.dt,
            v_ref=cfg.oracle.v_ref,
            omega_ref=cfg.oracle.omega_ref,
            safety_margin=cfg.planner.safety_margin,
            num_rays=cfg.sensor.num_rays,
            max_range=cfg.sensor.max_range,
        )
        return task_seed, record, None
    except (SamplingExhausted, NoPathFound, GenerationFailed) as err:
        return task_seed, None, f"{type(err).__name__}: {err}"


def cmd_gen_data(cfg: RunConfig, args) -> int:
    scenes = _load_scene_dir(args.scenes)
    jobs = []
    for si, scene in enumerate(scenes):
        for e in range(args.episodes_per_scene):
            jobs.append((cfg, scene, _task_seed(cfg.master_seed, si * 1000 + e)))
    if cfg.workers > 1:
        with multiprocessing.Pool(cfg.workers) as pool:
            results = pool.map(_gen_one, jobs)
    else:
        results = [_gen_one(j) for j in jobs]

    records = []
    for task_seed, record, err in results:
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


def cmd_eval(cfg: RunConfig, args) -> int:
    scenes = _load_scene_dir(args.scenes)
    by_seed = {s.seed: s for s in scenes}
    spec = _policy_spec(cfg, args.policy)

    tasks = []
    seed_index = 0
    while len(tasks) < args.n_tasks and seed_index < 10 * args.n_tasks:
        scene = scenes[len(tasks) % len(scenes)]
        task_seed = _task_seed(cfg.master_seed, seed_index)
        seed_index += 1
        try:
            tasks.append(
                sample_task(
                    scene,
                    task_seed,
                    cfg.task,
                    cfg.planner.weights(),
                    cfg.planner.probe_budget(),
                    cfg.camera.model(),
                    cfg.planner.safety_margin,
                )
            )
            log.info("task %d sampled with seed %d", len(tasks) - 1, task_seed)
        except SamplingExhausted as err:
            log.warning("task seed %d skipped: %s", task_seed, err)
    if len(tasks) < args.n_tasks:
        log.error("only sampled %d of %d tasks", len(tasks), args.n_tasks)
        return 3

    jobs = [
        (
            i,
            by_seed[t.scene_seed],
            t,
            spec,
            cfg.executor,
            cfg.camera.model(),
            cfg.sensor.num_rays,
            cfg.sensor.max_range,
        )
        for i, t in enumerate(tasks)
    ]
    if cfg.workers > 1:
        with multiprocessing.Pool(cfg.workers) as pool:
            outputs = pool.starmap(run_task, jobs)
    else:
        outputs = [run_task(*j) for j in jobs]

    summaries = [s for s, _ in outputs]
    report = summarize(summaries, cfg.eval.success_pos_tol, cfg.eval.success_ang_tol_deg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    report_export(report, "json", str(out.with_suffix(".json")))
    report_export(report, "csv", str(out.with_suffix(".csv")))
    with open(out.with_suffix(".traces.jsonl"), "w") as fh:
        for summary, result in outputs:
            fh.write(
                json.dumps(
                    {
                        "task_index": summary.task_index,
                        "outcome": result.outcome,
                        "distance_error": result.distance_error,
                        "angle_error": result.angle_error,
                        "steps": result.steps,
                        "min_clearance": result.min_clearance,
                        "trace": [
                            [e.step, e.pose.x, e.pose.y, e.pose.heading, e.tilt, e.trajectory_id]
                            for e in result.trace
                        ],
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    log.info(
        "evaluated %d tasks: median %.4f m / %.3f deg, collisions %.1f%%",
        report.n_episodes,
        report.median_distance_error,
        report.median_angle_error,
        100 * report.collision_rate,
    )
    return 0


def cmd_report(cfg: RunConfig, args) -> int:
    with open(args.report) as fh:
        report = report_from_dict(json.load(fh))
    if args.out:
        report_export(report, args.format, args.out)
    else:
        from .evaluation import report_to_csv, report_to_dict

        if args.format == "csv":
            sys.stdout.write(report_to_csv(report))
        else:
            json.dump(report_to_dict(report), sys.stdout, sort_keys=True, indent=2)
            sys.stdout.write("\n")
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
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_scenes)

    p = sub.add_parser("gen-data", help="generate an expert demonstration dataset")
    p.add_argument("--scenes", required=True, help="directory of scene_*.json")
    p.add_argument("--episodes-per-scene", type=int, default=10)
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
    try:
        cfg = load_config(args.config)
        cfg = apply_env_overrides(cfg, os.environ)
        if args.seed is not None:
            cfg = replace(cfg, master_seed=args.seed)
        if args.workers is not None:
            cfg = replace(cfg, workers=args.workers)
    except (ValueError, TypeError, OverflowError, OSError, json.JSONDecodeError) as err:
        log.error("config error: %s", err)
        return 2
    try:
        return args.func(cfg, args)
    except IoFailure as err:
        log.error("%s", err)
        return 3
    except NavkitError as err:
        log.error("hard failure: %s", err)
        return 3


if __name__ == "__main__":
    sys.exit(main())
