"""The free-space certificate proves only what no plan can do.

``certified_disconnected`` says that two poses lie in different components
of a 5 cm grid's free cells, where a cell is blocked when all of its corners
lie within the radius of one box or room side. ``plan_with_margin``, its one
reader, trusts it to let a certified rung drop the safety margin, so a
certificate must never hold for two poses that a plan could join.
"""

import math
import pickle

import numpy as np
import pytest

from amr_navkit import planner
from amr_navkit.controller import ExecutorConfig
from amr_navkit.errors import NoPathFound
from amr_navkit.evaluation import PolicySpec, evaluate, report_to_dict
from amr_navkit.geometry import OrientedBox, Pose2
from amr_navkit.pipeline import Expert, sample_task
from amr_navkit.planner import NO_PATH, PlannerBudget, plan
from amr_navkit.scene import (
    CERT_CELL,
    Bounds,
    Scene,
    SceneObject,
    _room_walls,
    certified_disconnected,
    collision_check,
    sample_scene,
)

RADIUS = 0.31
START, GOAL = Pose2(-1.0, 0.0, 0.0), Pose2(1.0, 0.0, 0.0)


def split_room(gap: float) -> Scene:
    """A 4 m x 2 m room split at x = 0 by a 0.2 m thick wall of two boxes,
    with a door of width ``gap`` whose lower side lies on a grid line."""
    bounds = Bounds(4.0, 2.0)
    low_top, high_bottom = -0.2, -0.2 + gap
    assert (low_top - bounds.ymin) / CERT_CELL == pytest.approx(16)
    low = OrientedBox(0.0, (-1.2 + low_top) / 2, 0.1, (low_top + 1.2) / 2, 0.0)
    high = OrientedBox(0.0, (high_bottom + 1.2) / 2, 0.1, (1.2 - high_bottom) / 2, 0.0)
    objects = [SceneObject(0, low), SceneObject(1, high)]
    return Scene(bounds, _room_walls(bounds, 0.1), objects)


@pytest.mark.parametrize("gap, closed", [(2 * RADIUS - 0.02, True), (2 * RADIUS + 0.02, False)])
def test_door_narrower_than_the_disc_is_certified_closed(gap, closed):
    scene = split_room(gap)
    assert not collision_check(scene, START, RADIUS) and not collision_check(scene, GOAL, RADIUS)
    assert certified_disconnected(scene, RADIUS, START, GOAL) is closed
    # the same side of the wall is always one component
    assert not certified_disconnected(scene, RADIUS, START, Pose2(-1.5, 0.5, 1.0))


def test_plan_neither_builds_nor_reads_the_certificate(monkeypatch):
    scene = split_room(2 * RADIUS - 0.02)
    with pytest.raises(NoPathFound, match=NO_PATH):
        plan(scene, START, GOAL, RADIUS, (0.0, 0.0), budget=PlannerBudget(1, 8))
    assert scene._certificates == {}

    # a plan between poses that a cached certificate separates still samples
    assert certified_disconnected(scene, RADIUS, START, GOAL)
    sampled = []
    sample = planner._sample_positions
    monkeypatch.setattr(planner, "_sample_positions", lambda *args: sampled.append(1) or sample(*args))
    with pytest.raises(NoPathFound, match=NO_PATH):
        plan(scene, START, GOAL, RADIUS, (0.0, 0.0), budget=PlannerBudget(2, 8))
    assert len(sampled) == 2 and list(scene._certificates) == [RADIUS]


def free_poses(rng, scene: Scene, radius: float, n: int) -> list[Pose2]:
    b, poses = scene.bounds, []
    while len(poses) < n:
        p = Pose2(rng.uniform(b.xmin, b.xmax), rng.uniform(b.ymin, b.ymax), rng.uniform(-math.pi, math.pi))
        if not collision_check(scene, p, radius):
            poses.append(p)
    return poses


def test_certified_pairs_fail_to_plan_at_a_large_budget():
    """Whenever the certificate separates two free poses, a 16 x 32 plan on
    a scene that holds no certificate fails too."""
    rng = np.random.default_rng(2024)
    checked = 0
    for seed in range(12):
        for radius in (0.4, 0.5, 0.6):
            scene = sample_scene(seed)
            poses = free_poses(rng, scene, radius, 6)
            pairs = [(a, c) for i, a in enumerate(poses) for c in poses[i + 1:]]
            for a, c in pairs:
                if certified_disconnected(scene, radius, a, c):
                    with pytest.raises(NoPathFound):
                        plan(sample_scene(seed), a, c, radius, (0.0, 0.0), budget=PlannerBudget(16, 32), seed=seed)
                    checked += 1
    assert checked >= 50


def test_scene_with_a_certificate_pickles_and_evaluates_alike_on_workers():
    scene = sample_scene(4)
    expert = Expert()
    tasks = [sample_task(scene, s) for s in range(2)]
    radius = tasks[0].robot_radius + expert.safety_margin
    a, c = free_poses(np.random.default_rng(0), scene, radius, 2)
    certified_disconnected(scene, radius, a, c)  # builds and caches it
    labels = scene._certificates[radius]
    assert labels is not None

    copy = pickle.loads(pickle.dumps(scene))
    assert np.array_equal(copy._certificates[radius], labels)

    cfg = ExecutorConfig()
    runs = [
        evaluate(tasks, {scene.seed: s}, PolicySpec(), cfg, workers=workers)
        for s, workers in ((scene, 1), (scene, 2), (sample_scene(4), 1))
    ]
    reports = [report_to_dict(rep) for rep, _ in runs]
    assert reports[0] == reports[1] == reports[2]
    assert runs[0][1] == runs[1][1] == runs[2][1]
