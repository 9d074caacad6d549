"""Acceptance criteria, one test per criterion (criterion 2 split in two).

Each test prints an ACCEPTANCE line with its measured numbers so a -s run
reads as a checklist. Criterion 2b asserts a final-position error bound
that only accounts for per-step distance/direction quantization; under the
chained frame convention the heading quantization also rotates every later
step, so the measured worst case exceeds that bound and the test fails by
design rather than weakening the assertion.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from amr_navkit.cli import main as cli_main
from amr_navkit.codec import (
    PHI_WIDTH,
    PSI_WIDTH,
    R_WIDTH,
    PolarStep,
    decode_step,
    decode_trajectory,
    encode_step,
    encode_trajectory,
    pose_from_step,
)
from amr_navkit.controller import ExecutorConfig
from amr_navkit.evaluation import PolicySpec, run_task, summarize
from amr_navkit.geometry import CameraModel, Pose2, compute_tilt, project_to_pixel, se2_relative
from amr_navkit.pipeline import Expert, audit_keyframe_gaps, generate_episode, sample_task
from amr_navkit.planner import PlannerBudget, plan
from amr_navkit.scene import (
    collision_check,
    collision_mask,
    raycast_lidar,
    sample_scene,
)
from amr_navkit.errors import NoPathFound, SamplingExhausted

from test_scene import disc_box_collides_oracle

N_TASKS = 200
N_SCENES = 20

EXEC_CFG = ExecutorConfig(max_steps=400)
ORACLE_SPEC = PolicySpec(Expert(budget=PlannerBudget(2, 16), safety_margin=0.12))
CODEC_ON = replace(ORACLE_SPEC, use_residual=True)
CODEC_OFF = replace(ORACLE_SPEC, use_residual=False)
CAMERA = CameraModel()


@pytest.fixture(scope="module")
def task_pool():
    scenes = {}
    tasks = []
    per_scene = N_TASKS // N_SCENES
    for i in range(N_SCENES):
        scene = sample_scene(1000 + i)
        scenes[scene.seed] = scene
        got, seed = 0, 0
        while got < per_scene and seed < 50 * per_scene:
            try:
                tasks.append(sample_task(scene, 10_000 * i + seed))
                got += 1
            except SamplingExhausted:
                pass
            seed += 1
        assert got == per_scene, f"scene {i}: only {got} tasks"
    return scenes, tasks


@pytest.fixture(scope="module")
def oracle_sweep(task_pool):
    scenes, tasks = task_pool
    t0 = time.monotonic()
    outputs = [
        run_task(i, scenes[t.scene_seed], t, CODEC_ON, EXEC_CFG, CAMERA) for i, t in enumerate(tasks)
    ]
    elapsed = time.monotonic() - t0
    return [s for s, _ in outputs], elapsed


def test_criterion_1_codec_exactness():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    vals = rng.uniform(size=(100_000, 3))
    worst_rt = 0.0
    worst_center = [0.0, 0.0, 0.0]
    for u in vals:
        step = PolarStep(u[0] * 2 * math.pi * (1 - 1e-12), u[1] * 0.2, u[2] * 2 * math.pi * (1 - 1e-12))
        tok = encode_step(step)
        exact = decode_step(tok, use_residual=True)
        worst_rt = max(
            worst_rt,
            abs(exact.psi - step.psi),
            abs(exact.r - step.r),
            abs(exact.phi - step.phi),
        )
        center = decode_step(tok, use_residual=False)
        worst_center[0] = max(worst_center[0], abs(center.psi - step.psi))
        worst_center[1] = max(worst_center[1], abs(center.r - step.r))
        worst_center[2] = max(worst_center[2], abs(center.phi - step.phi))
    elapsed = time.monotonic() - t0
    assert worst_rt <= 1e-12
    assert worst_center[0] <= PSI_WIDTH / 2 + 1e-12  # 6 deg
    assert worst_center[1] <= R_WIDTH / 2 + 1e-12  # 3.125 mm
    assert worst_center[2] <= PHI_WIDTH / 2 + 1e-12  # 15 deg
    assert math.degrees(PSI_WIDTH / 2) == pytest.approx(6.0)
    assert math.degrees(PHI_WIDTH / 2) == pytest.approx(15.0)
    assert R_WIDTH / 2 == pytest.approx(0.003125)
    assert elapsed < 5.0
    print(
        f"\nACCEPTANCE 1 PASS: roundtrip max {worst_rt:.2e}; center errs "
        f"psi {math.degrees(worst_center[0]):.3f} deg, r {worst_center[1]*1000:.3f} mm, "
        f"phi {math.degrees(worst_center[2]):.3f} deg; {elapsed:.1f}s"
    )


def _random_trajectories(n=10_000, steps=12, seed=102):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield [
            PolarStep(
                float(rng.uniform(0, 2 * math.pi)),
                float(rng.uniform(0, 0.2)),
                float(rng.uniform(0, 2 * math.pi)),
            )
            for _ in range(steps)
        ]


def test_criterion_2a_trajectory_roundtrip_exact():
    t0 = time.monotonic()
    worst = 0.0
    base = Pose2(0.7, -0.3, 0.5)
    for steps in _random_trajectories():
        rel = [pose_from_step(s) for s in steps]
        toks = encode_trajectory(rel)
        dec = decode_trajectory(toks, base, use_residual=True)
        from amr_navkit.geometry import se2_compose

        cur = base
        for r, d in zip(rel, dec):
            cur = se2_compose(cur, r)
            worst = max(worst, math.hypot(cur.x - d.x, cur.y - d.y))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-9
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 2a PASS: residual roundtrip max {worst:.2e} m; {elapsed:.1f}s")


def test_criterion_2b_no_residual_error_bound():
    # the stated analytic bound: per-step distance and direction quantization
    bound = 12 * (R_WIDTH / 2 + 0.2 * (PSI_WIDTH / 2))
    assert bound == pytest.approx(0.2888, abs=1e-3)
    base = Pose2(0, 0, 0)
    errs = []
    for steps in _random_trajectories(seed=103):
        toks = [encode_step(s) for s in steps]
        exact = decode_trajectory(toks, base, use_residual=True)
        approx = decode_trajectory(toks, base, use_residual=False)
        errs.append(math.hypot(exact[-1].x - approx[-1].x, exact[-1].y - approx[-1].y))
    errs = np.array(errs)
    mean_ok = errs.mean() < bound / 2
    max_ok = errs.max() <= bound
    line = "PASS" if (mean_ok and max_ok) else "FAIL"
    print(
        f"\nACCEPTANCE 2b {line}: no-residual final-position error max {errs.max():.3f} m "
        f"(bound {bound:.3f}), mean {errs.mean():.3f} m"
    )
    assert mean_ok, "mean error should sit well below the bound"
    # heading-bin errors rotate every later step's frame under the chained
    # convention, so the psi/r-only bound is exceeded; kept as specified
    assert max_ok, (
        f"max no-residual error {errs.max():.3f} m exceeds the stated bound {bound:.3f} m: "
        "the bound omits the heading-bin error, which rotates every subsequent "
        "step's frame in the chained convention"
    )


def test_criterion_3_oracle_closed_loop(oracle_sweep):
    summaries, elapsed = oracle_sweep
    report = summarize(summaries)
    assert report.n_episodes >= 200
    ok = (
        report.median_distance_error <= 0.03
        and report.median_angle_error <= 1.0
        and report.collision_rate == 0.0
    )
    print(
        f"\nACCEPTANCE 3 {'PASS' if ok else 'FAIL'}: {report.n_episodes} episodes, median "
        f"{report.median_distance_error*100:.2f} cm / {report.median_angle_error:.3f} deg, "
        f"collisions {report.collision_rate*100:.1f}%, outcomes {report.outcomes}, {elapsed:.0f}s"
    )
    assert report.median_distance_error <= 0.03
    assert report.median_angle_error <= 1.0
    assert report.collision_rate == 0.0
    assert elapsed < 600.0


def test_criterion_4_quantization_gap(task_pool, oracle_sweep):
    scenes, tasks = task_pool
    summaries_on, _ = oracle_sweep
    summaries_off = [
        run_task(i, scenes[t.scene_seed], t, CODEC_OFF, EXEC_CFG, CAMERA)[0]
        for i, t in enumerate(tasks)
    ]
    med_on = float(np.median([s.distance_error for s in summaries_on]))
    med_off = float(np.median([s.distance_error for s in summaries_off]))
    ok = med_off > med_on
    print(
        f"\nACCEPTANCE 4 {'PASS' if ok else 'FAIL'}: median distance error "
        f"residuals-on {med_on*100:.2f} cm < residuals-off {med_off*100:.2f} cm (strict)"
    )
    assert med_off > med_on


def test_criterion_5_keyframe_gaps(task_pool):
    scenes, tasks = task_pool
    audited = 0
    for task in tasks[:40]:
        try:
            record = generate_episode(scenes[task.scene_seed], task, seed=7)
        except NoPathFound:
            continue
        assert audit_keyframe_gaps(record), f"gap violation in task {audited}"
        audited += 1
    assert audited >= 30
    print(f"\nACCEPTANCE 5 PASS: {audited} episodes, 100% satisfy the 0.2 m / 5 deg gap rule")


def test_criterion_6_tilt_law():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(1000):
        cam = CameraModel(
            height=float(rng.uniform(0.8, 2.0)),
            vertical_fov=float(rng.uniform(math.radians(40), math.radians(110))),
            image_width_px=int(rng.integers(100, 500)),
            image_height_px=int(rng.integers(100, 500)),
        )
        rho = float(rng.uniform(0.4, 9.0))
        bearing = float(rng.uniform(-math.pi, math.pi))
        pose = Pose2(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)), bearing)
        pt = (
            pose.x + rho * math.cos(bearing),
            pose.y + rho * math.sin(bearing),
            float(rng.uniform(0.0, 0.6)),
        )
        alpha = compute_tilt(cam, pose, pt)
        rel = se2_relative(pose, Pose2(pt[0], pt[1], 0.0))
        _, v = project_to_pixel(cam, alpha, np.array([rel.x, rel.y, pt[2]]))
        worst = max(worst, abs(v - 0.75 * cam.image_height_px))
    assert worst <= 0.5
    print(f"\nACCEPTANCE 6 PASS: 1000 configs, worst row offset {worst:.2e} px (<= 0.5)")


def test_criterion_7_sensor_oracles():
    # LiDAR vs 1 mm marching
    worst_lidar = 0.0
    for seed in range(50):
        scene = sample_scene(2000 + seed)
        pose = None
        rng = np.random.default_rng(seed)
        b = scene.bounds
        while pose is None:
            cand = Pose2(rng.uniform(b.xmin, b.xmax), rng.uniform(b.ymin, b.ymax), rng.uniform(-3, 3))
            if not collision_check(scene, cand, 0.2):
                pose = cand
        num_rays = 72
        scan = raycast_lidar(scene, pose, num_rays=num_rays, max_range=10.0)
        boxes = scene.walls + [o.box for o in scene.objects]
        step = 0.001
        t = np.arange(1, int(10.0 / step) + 1) * step
        for k in range(num_rays):
            ang = pose.heading + 2 * math.pi * k / num_rays
            pts = np.stack([pose.x + t * math.cos(ang), pose.y + t * math.sin(ang)], axis=1)
            inside = np.zeros(len(pts), dtype=bool)
            for box in boxes:
                inside |= box.contains(pts)
            hit = np.flatnonzero(inside)
            dist = t[hit[0]] if hit.size else 10.0
            worst_lidar = max(worst_lidar, abs(scan.ranges[k] - dist))
    assert worst_lidar <= 0.002

    # collision_check vs perimeter-sampling oracle
    disagreements = 0
    rng = np.random.default_rng(105)
    oracle_scenes = [sample_scene(3000 + k) for k in range(10)]
    for i in range(1000):
        scene = oracle_scenes[i % 10]
        b = scene.bounds
        pose = Pose2(
            float(rng.uniform(b.xmin, b.xmax)), float(rng.uniform(b.ymin, b.ymax)), 0.0
        )
        radius = float(rng.uniform(0.1, 0.5))
        if collision_check(scene, pose, radius) != disc_box_collides_oracle(scene, pose, radius):
            disagreements += 1
    assert disagreements == 0
    print(
        f"\nACCEPTANCE 7 PASS: lidar vs marching oracle max {worst_lidar*1000:.3f} mm (<= 2 mm); "
        f"collision oracle disagreements {disagreements}/1000"
    )


def test_criterion_8_planner_audit():
    from amr_navkit.errors import NoPathFound

    audited = 0
    monotone_checked = 0
    for seed in range(50):
        scene = sample_scene(4000 + seed)
        rng = np.random.default_rng(seed)
        b = scene.bounds
        endpoints = []
        while len(endpoints) < 2:
            cand = Pose2(rng.uniform(b.xmin, b.xmax), rng.uniform(b.ymin, b.ymax), rng.uniform(-3, 3))
            if not collision_mask(scene, np.array([[cand.x, cand.y]]), 0.3)[0]:
                endpoints.append(cand)
        start, goal = endpoints
        costs = []
        for batches in (2, 4):
            try:
                path = plan(scene, start, goal, 0.3, (0.0, 0.0), budget=PlannerBudget(batches, 16), seed=11)
            except NoPathFound:
                costs.append(math.inf)
                continue
            costs.append(path.cost)
            # dense states are spaced <= 1 cm; every one must be free
            assert not collision_mask(scene, path.states[:, :2], 0.3).any()
            audited += 1
        if all(math.isfinite(c) for c in costs):
            assert costs[1] <= costs[0] + 1e-9
            monotone_checked += 1
    assert audited >= 40
    assert monotone_checked >= 20
    print(
        f"\nACCEPTANCE 8 PASS: {audited} paths re-validated collision-free at 1 cm; "
        f"monotonicity held on {monotone_checked} budget doublings"
    )


def test_criterion_9_determinism(tmp_path):
    cfg = {
        "master_seed": 5,
        "scene_gen": {"objects_min": 3, "objects_max": 6, "room_min": 6.0, "room_max": 8.0},
        "planner": {"batches": 2, "batch_size": 16},
        "executor": {"max_steps": 300},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    scenes = tmp_path / "scenes"
    assert cli_main(["--config", str(cfg_path), "gen-scenes", "--count", "2", "--out", str(scenes)]) == 0

    datasets = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.jsonl"
        rc = cli_main(
            [
                "--config",
                str(cfg_path),
                "gen-data",
                "--scenes",
                str(scenes),
                "--episodes-per-scene",
                "2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        datasets.append(out.read_bytes())
    assert datasets[0] == datasets[1]

    reports = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc = cli_main(
            [
                "--config",
                str(cfg_path),
                "eval",
                "--scenes",
                str(scenes),
                "--n-tasks",
                "2",
                "--policy",
                "oracle",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        reports.append((tmp_path / f"{name}.json").read_bytes())
    assert reports[0] == reports[1]
    print("\nACCEPTANCE 9 PASS: gen-data byte-identical; eval reports identical")
