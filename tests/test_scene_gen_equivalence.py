"""``scene.sample_scene`` against reference copies of its earlier code.

The placement loop once tested each candidate box against every placed box
with a separating-axis test (SAT) that rebuilt both boxes' corners on each
call, and ``_largest_free_area`` once counted components with a per-cell
flood fill. Both are kept here verbatim as the reference. The current code
settles most pairs with circle pre-tests, builds each box's corners once,
and merges row runs of free cells; it draws from the RNG in the same order,
so each scene must serialize to the same JSON, and a seed that fails must
fail in both.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amr_navkit.errors import GenerationFailed
from amr_navkit.geometry import OrientedBox
from amr_navkit.pipeline import scene_to_dict
from amr_navkit.scene import (
    _CATEGORIES,
    _CIRCLE_SLACK,
    _FREE_AREA_CELL,
    Bounds,
    Scene,
    SceneGenParams,
    SceneObject,
    _boxes_overlap,
    _largest_component,
    _overlaps_any,
    _Placed,
    _room_walls,
    collision_mask,
    sample_scene,
)


def reference_boxes_overlap(a: OrientedBox, b: OrientedBox, margin: float = 0.0) -> bool:
    """Separating-axis overlap test for two oriented boxes, with inflation."""
    ca = a if margin == 0 else OrientedBox(a.cx, a.cy, a.hx + margin, a.hy + margin, a.yaw)
    cb = b if margin == 0 else OrientedBox(b.cx, b.cy, b.hx + margin, b.hy + margin, b.yaw)
    pa, pb = ca.corners(), cb.corners()
    for yaw in (ca.yaw, cb.yaw):
        for ang in (yaw, yaw + math.pi / 2):
            axis = np.array([math.cos(ang), math.sin(ang)])
            qa, qb = pa @ axis, pb @ axis
            if qa.max() < qb.min() or qb.max() < qa.min():
                return False
    return True


def reference_flood_fill(free: np.ndarray) -> int:
    """Cell count of the largest 4-connected component of True cells, by a per-cell stack walk."""
    ny, nx = free.shape
    seen = np.zeros_like(free)
    best = 0
    for i in range(ny):
        for j in range(nx):
            if free[i, j] and not seen[i, j]:
                stack, count = [(i, j)], 0
                seen[i, j] = True
                while stack:
                    ci, cj = stack.pop()
                    count += 1
                    for ni, nj in ((ci - 1, cj), (ci + 1, cj), (ci, cj - 1), (ci, cj + 1)):
                        if 0 <= ni < ny and 0 <= nj < nx and free[ni, nj] and not seen[ni, nj]:
                            seen[ni, nj] = True
                            stack.append((ni, nj))
                best = max(best, count)
    return best


def reference_largest_free_area(scene: Scene, probe_radius: float) -> float:
    b = scene.bounds
    nx = max(1, int(b.w / _FREE_AREA_CELL))
    ny = max(1, int(b.h / _FREE_AREA_CELL))
    xs = b.xmin + (np.arange(nx) + 0.5) * (b.w / nx)
    ys = b.ymin + (np.arange(ny) + 0.5) * (b.h / ny)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    free = ~collision_mask(scene, pts, probe_radius)
    cell_area = (b.w / nx) * (b.h / ny)
    return reference_flood_fill(free.reshape(ny, nx)) * cell_area


def reference_sample_scene(seed: int, params: SceneGenParams) -> Scene:
    rng = np.random.default_rng(seed)
    for _ in range(params.max_attempts):
        w = float(rng.uniform(params.room_min, params.room_max))
        h = float(rng.uniform(params.room_min, params.room_max))
        bounds = Bounds(w, h)
        walls = _room_walls(bounds, params.wall_thickness)
        count = int(rng.integers(params.objects_min, params.objects_max + 1))
        boxes: list[OrientedBox] = []
        objects: list[SceneObject] = []
        placed = 0
        tries = 0
        while placed < count and tries < 50 * max(count, 1):
            tries += 1
            hx = float(rng.uniform(params.size_min, params.size_max)) / 2
            hy = float(rng.uniform(params.size_min, params.size_max)) / 2
            margin = math.hypot(hx, hy)
            if bounds.xmax - margin < bounds.xmin + margin or bounds.ymax - margin < bounds.ymin + margin:
                continue
            cx = float(rng.uniform(bounds.xmin + margin, bounds.xmax - margin))
            cy = float(rng.uniform(bounds.ymin + margin, bounds.ymax - margin))
            yaw = float(rng.uniform(-math.pi, math.pi))
            box = OrientedBox(cx, cy, hx, hy, yaw)
            if any(reference_boxes_overlap(box, other, margin=params.min_clearance / 2) for other in boxes):
                continue
            boxes.append(box)
            objects.append(
                SceneObject(
                    id=placed,
                    box=box,
                    base_height=float(rng.uniform(0.0, 0.3)),
                    category=str(rng.choice(_CATEGORIES)),
                    target_eligible=True,
                )
            )
            placed += 1
        if placed < count:
            continue
        scene = Scene(bounds=bounds, walls=walls, objects=objects, seed=seed)
        if reference_largest_free_area(scene, params.free_probe_radius) >= params.min_free_area:
            return scene
    raise GenerationFailed(f"no valid scene layout for seed {seed} in {params.max_attempts} attempts")


def _outcome(generate, seed: int, params: SceneGenParams) -> str:
    try:
        return json.dumps(scene_to_dict(generate(seed, params)), sort_keys=True)
    except GenerationFailed as err:
        return f"GenerationFailed: {err}"


# (params, seeds) of each setting
SETTINGS = {
    "default": (SceneGenParams(), range(100)),
    # min_clearance 0 takes the uninflated branch of the SAT's boxes
    "no-clearance": (SceneGenParams(min_clearance=0.0), range(100)),
    # a scene of 40 boxes gives the reference's SAT about 1,100 pairs, four
    # times a default scene's: 20 seeds test 22,000 pairs in about a second
    "40-small-objects": (
        SceneGenParams(
            objects_min=40, objects_max=40, size_min=0.2, size_max=0.4, room_min=10.0, room_max=12.0,
            min_free_area=5.0,
        ),
        range(20),
    ),
    # two in three boxes that reach the SAT overlap, and 5 of the 100 seeds fail
    "crowded-6m-room": (
        SceneGenParams(
            room_min=6.0, room_max=6.0, size_min=1.0, size_max=2.0, objects_min=3, objects_max=4,
            min_free_area=5.0, max_attempts=3,
        ),
        range(100),
    ),
}


@pytest.mark.parametrize("name", SETTINGS)
def test_scenes_match_the_reference(name):
    params, seeds = SETTINGS[name]
    for seed in seeds:
        assert _outcome(sample_scene, seed, params) == _outcome(reference_sample_scene, seed, params), seed


def _checkerboard(ny: int, nx: int) -> np.ndarray:
    return (np.add.outer(np.arange(ny), np.arange(nx)) % 2).astype(bool)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda ny: st.integers(1, 12).flatmap(
            lambda nx: st.lists(st.booleans(), min_size=ny * nx, max_size=ny * nx).map(
                lambda cells: np.array(cells, dtype=bool).reshape(ny, nx)
            )
        )
    )
)
@example(np.ones((1, 9), dtype=bool))
@example(np.ones((9, 1), dtype=bool))
@example(np.array([[True, False, True, True, False]]))
@example(np.array([[True], [False], [True], [True]]))
@example(np.ones((7, 5), dtype=bool))
@example(np.zeros((6, 8), dtype=bool))
@example(_checkerboard(7, 7))
@example(~_checkerboard(6, 9))
@example(np.array([[1, 1, 1], [0, 0, 1], [1, 1, 1], [1, 0, 0], [1, 1, 1]], dtype=bool))  # a snake
@example(np.array([[1, 0, 1], [1, 0, 1], [1, 1, 1]], dtype=bool))  # two runs joined a row later
def test_row_runs_count_what_a_flood_fill_counts(free):
    assert _largest_component(free) == reference_flood_fill(free)


def _pair(kind, hx_a, hy_a, hx_b, hy_b, margin, yaw, turn, spread, delta):
    """Two boxes, the second placed by ``kind``:

    * "random": ``spread`` away at bearing ``turn``;
    * "corners": corner to corner along both inflated diagonals, which is
      where boxes come nearest to touching at the far bound, with the
      centres ``delta`` beyond that bound: the inflated boxes touch at
      ``delta`` = -1e-6;
    * "faces": the inflated boxes' shorter half-extents facing along the
      line of centres, which is where boxes come nearest to parting at the
      certain-overlap bound, with the centres ``delta`` beyond that bound:
      the inflated boxes touch at ``delta`` = +1e-6.
    """
    ia, ja, ib, jb = hx_a + margin, hy_a + margin, hx_b + margin, hy_b + margin
    if kind == "random":
        d, bearing, yaw_b = spread, turn, yaw + 2.0 * turn
    elif kind == "corners":
        d = math.hypot(ia, ja) + math.hypot(ib, jb) + _CIRCLE_SLACK + delta
        bearing = yaw + math.atan2(ja, ia)
        yaw_b = bearing + math.pi - math.atan2(jb, ib)
    else:
        d = min(ia, ja) + min(ib, jb) - _CIRCLE_SLACK + delta
        bearing = yaw if ia <= ja else yaw + math.pi / 2
        yaw_b = bearing if ib <= jb else bearing + math.pi / 2
    a = OrientedBox(0.3, -0.2, hx_a, hy_a, yaw)
    b = OrientedBox(0.3 + d * math.cos(bearing), -0.2 + d * math.sin(bearing), hx_b, hy_b, yaw_b)
    return a, b


_half = st.floats(0.1, 1.0)
_NEAR = [at + e for at in (-_CIRCLE_SLACK, 0.0, _CIRCLE_SLACK) for e in (-1e-9, 0.0, 1e-9)] + [-2e-6, 2e-6]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["random", "corners", "faces"]),
    _half, _half, _half, _half,
    st.sampled_from([0.0, 0.2]) | st.floats(0.0, 0.3),
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi, math.pi),
    st.floats(0.0, 3.0),
    # at and within 1e-9 of each bound and of contact, or anywhere near
    st.sampled_from(_NEAR) | st.floats(-1e-3, 1e-3),
)
@example("corners", 0.5, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 1e-9)
@example("corners", 0.5, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, -_CIRCLE_SLACK + 1e-9)
@example("faces", 0.4, 0.7, 0.3, 0.9, 0.2, 0.7, 0.0, 0.0, -1e-9)
@example("faces", 0.4, 0.7, 0.3, 0.9, 0.2, 0.7, 0.0, 0.0, _CIRCLE_SLACK - 1e-9)
@example("corners", 0.1, 1.0, 0.9, 0.2, 0.2, 1.3, 0.0, 0.0, 0.0)
def test_circle_pre_tests_never_contradict_the_sat(kind, hx_a, hy_a, hx_b, hy_b, margin, yaw, turn, spread, delta):
    box_a, box_b = _pair(kind, hx_a, hy_a, hx_b, hy_b, margin, yaw, turn, spread, delta)
    a, b = _Placed(box_a, margin), _Placed(box_b, margin)
    sat = _boxes_overlap(a, b)
    assert sat == reference_boxes_overlap(box_a, box_b, margin)
    d = math.hypot(box_a.cx - box_b.cx, box_a.cy - box_b.cy)
    if d > a.outer + b.outer + _CIRCLE_SLACK:  # "far"
        assert not sat
    if d < a.inner + b.inner - _CIRCLE_SLACK:  # "certain"
        assert sat
    assert _overlaps_any(a, [b]) == _overlaps_any(b, [a]) == sat
