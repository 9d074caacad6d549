"""The lazy roadmap search returns exactly the plans of the eager A* it replaced.

``planner._shortest_path`` runs A* on rotate-translate lower bounds and
sweeps and costs only the edges around each candidate chain. The reference
below is the eager A* it replaced: every expansion costs each neighbor that
the bound does not rule out, sweeps the improving ones in one batch and
relaxes the free ones. Both are patched into ``plan()`` in turn, and the
plans must agree in ``repr(cost)`` and segments.
"""

import heapq
import math

import numpy as np
import pytest

from amr_navkit import planner
from amr_navkit.errors import InvalidEndpoint, NoPathFound
from amr_navkit.geometry import Pose2
from amr_navkit.pipeline import sample_task
from amr_navkit.planner import CostWeights, PlannerBudget, rs0_distance
from amr_navkit.scene import collision_check, sample_scene, sweep_collision_checks

from test_kernel_equivalence import GOLDEN_PLANS


def reference_connection_cost(rm, i: int, j: int, limit: float) -> float:
    """Cost of the i->j connection, or inf when its bound reaches ``limit``."""
    known = rm._conn.get((i, j))
    if known is not None:
        return known[0]
    if rs0_distance(rm.poses[i], rm.poses[j], rm.w) >= limit + 1e-9:
        return math.inf
    return rm.connection(i, j)[0]


def reference_edges_free(rm, valid: dict, i: int, js: list[int]) -> list[bool]:
    """Whether each edge i-j is collision-free; unswept edges go in one batch."""
    keys = [(min(i, j), max(i, j)) for j in js]
    new = [key for key in keys if key not in valid]
    if new:
        p0 = np.array([[rm.poses[a].x, rm.poses[a].y] for a, _ in new])
        p1 = np.array([[rm.poses[b].x, rm.poses[b].y] for _, b in new])
        step = planner.LIN_STEP
        hits = sweep_collision_checks(rm.scene, p0, p1, rm.radius + step / 2, step)
        valid.update(zip(new, (not hit for hit in hits.tolist())))
    return [valid[key] for key in keys]


def reference_shortest_path(rm, nbrs):
    """Eager A* from vertex 0 to vertex 1, with sweep verdicts kept per roadmap."""
    valid = rm.__dict__.setdefault("reference_valid", {})
    n = len(rm.poses)
    h = rm.heuristic()
    dist = [math.inf] * n
    prev = [-1] * n
    dist[0] = 0.0
    heap = [(h[0], 0)]
    while heap:
        f, u = heapq.heappop(heap)
        du = dist[u]
        if f > du + h[u] + 1e-12:
            continue
        if u == 1:
            break
        better = []
        for v in nbrs[u]:
            nd = du + reference_connection_cost(rm, u, v, dist[v] - 1e-12 - du)
            if nd < dist[v] - 1e-12:
                better.append((v, nd))
        free = reference_edges_free(rm, valid, u, [v for v, _ in better])
        for (v, nd), ok in zip(better, free):
            if ok:
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd + h[v], v))
    if math.isinf(dist[1]):
        return math.inf, []
    chain = [1]
    while chain[-1] != 0:
        chain.append(prev[chain[-1]])
    return dist[1], chain[::-1]


class Searches:
    """Runs plan() with either search and counts its exact connection costs."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.costs = {"lazy": 0, "eager": 0}

    def plan(self, search: str, *args, **kwargs):
        """(repr(cost), segments) of the plan, or the exception type raised."""
        lazy = planner._shortest_path
        counted = planner.segments_cost

        def segments_cost(*a, **k):
            self.costs[search] += 1
            return counted(*a, **k)

        with self.monkeypatch.context() as m:
            m.setattr(planner, "segments_cost", segments_cost)
            m.setattr(planner, "_shortest_path", lazy if search == "lazy" else reference_shortest_path)
            try:
                path = planner.plan(*args, **kwargs)
            except (NoPathFound, InvalidEndpoint) as err:
                return type(err)
        return repr(path.cost), path.segments

    def assert_equal(self, *args, **kwargs):
        got = self.plan("lazy", *args, **kwargs)
        assert got == self.plan("eager", *args, **kwargs)
        return got


@pytest.fixture()
def searches(monkeypatch):
    return Searches(monkeypatch)


def _free_pose(rng, scene, radius):
    b = scene.bounds
    for _ in range(200):
        pose = Pose2(rng.uniform(b.xmin, b.xmax), rng.uniform(b.ymin, b.ymax), rng.uniform(-math.pi, math.pi))
        if not collision_check(scene, pose, radius):
            return pose
    raise AssertionError("no free pose found")


def test_golden_plans(searches):
    for scene_seed, task_seed in sorted(GOLDEN_PLANS):
        scene = sample_scene(scene_seed)
        task = sample_task(scene, task_seed)
        target = scene.object_by_id(task.target_id).box.center
        got = searches.assert_equal(
            scene, task.start, task.goal_pose, task.robot_radius, target, CostWeights(), seed=task_seed
        )
        assert got == GOLDEN_PLANS[scene_seed, task_seed]
    assert searches.costs["lazy"] <= searches.costs["eager"]


def test_random_queries(searches):
    """Random scenes, poses, radii and budgets; some queries have no path."""
    rng = np.random.default_rng(2024)
    outcomes = {"path": 0, "no path": 0}
    for query in range(200):
        scene = sample_scene(int(rng.integers(1000)))
        radius = float(rng.uniform(0.1, 0.5))
        start, goal = _free_pose(rng, scene, radius), _free_pose(rng, scene, radius)
        target = scene.objects[int(rng.integers(len(scene.objects)))].box.center
        budget = PlannerBudget(int(rng.integers(1, 5)), int(rng.choice([16, 24, 48])))
        got = searches.assert_equal(scene, start, goal, radius, target, CostWeights(), budget, seed=query)
        outcomes["no path" if got is NoPathFound else "path"] += 1
    assert min(outcomes.values()) > 0, outcomes
    assert searches.costs["lazy"] <= searches.costs["eager"]


def test_both_margin_radii(searches):
    """plan_with_margin plans at the inflated radius, then at the true one."""
    budget = PlannerBudget(1, 16)
    for seed in range(12):
        scene = sample_scene(100 + seed)
        task = sample_task(scene, seed)
        target = scene.object_by_id(task.target_id).box.center
        for radius in (task.robot_radius + 0.1, task.robot_radius):
            searches.assert_equal(scene, task.start, task.goal_pose, radius, target, CostWeights(), budget, seed)
    assert searches.costs["lazy"] <= searches.costs["eager"]
