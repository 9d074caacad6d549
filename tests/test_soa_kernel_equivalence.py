"""The roadmap's batched layers compute exactly what the code they replaced did.

``scene._segment_box_distances`` works on separate x and y planes with
endpoints, corners and clip axes on a leading axis; ``planner._neighbor_lists``
builds its lists from one adjacency matrix; ``planner._sample_positions`` draws
its random numbers in batches. Each must give the same floats, bit for bit, as
the reference copies below, which are the stacked kernel, the set builder and
the per-try sampling loop they replaced. Distances are compared as uint64 bit
patterns, so even a sign of zero or a last-bit rounding difference fails.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amr_navkit.planner import K_NEIGHBORS, _neighbor_lists, _sample_positions
from amr_navkit.scene import Bounds, Scene, _segment_box_distances, sample_scene

_REF_CORNER_SIGNS = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])


def reference_segment_box_distances(p0, p1, centers, halves, cy, sy):
    """The kernel with x and y on a trailing axis, as it was before."""

    def local(p):  # (E, B, 2)
        d = p[:, None, :] - centers
        return np.stack([d[..., 0] * cy + d[..., 1] * sy, d[..., 1] * cy - d[..., 0] * sy], axis=-1)

    a = local(p0)
    d = local(p1) - a
    ends = np.maximum(np.abs(np.stack([a, a + d])) - halves, 0.0)
    best = np.sqrt((ends * ends).sum(axis=-1)).min(axis=0)

    rel = (halves[:, None, :] * _REF_CORNER_SIGNS)[None] - a[:, :, None, :]  # (E, B, 4, 2)
    dd = (d * d).sum(axis=-1)
    t = (rel * d[:, :, None, :]).sum(axis=-1) / np.where(dd > 0.0, dd, 1.0)[..., None]
    gap = np.clip(t, 0.0, 1.0)[..., None] * d[:, :, None, :] - rel
    best = np.minimum(best, np.sqrt((gap * gap).sum(axis=-1)).min(axis=-1))

    flat = np.abs(d) < 1e-15
    inside = np.abs(a) <= halves
    safe_d = np.where(flat, 1.0, d)
    t1 = (-halves - a) / safe_d
    t2 = (halves - a) / safe_d
    lo = np.where(flat, np.where(inside, -np.inf, np.inf), np.minimum(t1, t2)).max(axis=-1)
    hi = np.where(flat, np.where(inside, np.inf, -np.inf), np.maximum(t1, t2)).min(axis=-1)
    crosses = np.maximum(lo, 0.0) <= np.minimum(hi, 1.0)
    return np.where(crosses, 0.0, best)


def reference_neighbor_sets(positions, k):
    """Symmetric k-nearest-neighbour sets, built one edge at a time."""
    n = len(positions)
    nbrs = [set() for _ in range(n)]
    if n < 2:
        return nbrs
    d = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    kk = min(k, n - 1)
    nearest = np.argpartition(d, kk - 1, axis=1)[:, :kk].tolist()
    for i, row in enumerate(nearest):
        for j in row:
            nbrs[i].add(j)
            nbrs[j].add(i)
    nbrs[0].add(1)
    nbrs[1].add(0)
    return nbrs


def reference_sample_positions(rng, scene, n, informed):
    """One (x, y) or (u, angle) pair of scalar draws per try."""
    b = scene.bounds
    out = np.empty((n, 2))
    got = 0
    tries = 0
    while got < n and tries < 50 * n:
        tries += 1
        if informed is None:
            pt = np.array([rng.uniform(b.xmin, b.xmax), rng.uniform(b.ymin, b.ymax)])
        else:
            center, axes_rot, (sa, sb) = informed[0], informed[1], informed[2]
            r = math.sqrt(rng.uniform())
            ang = rng.uniform(0.0, 2 * math.pi)
            pt = center + axes_rot @ np.array([sa * r * math.cos(ang), sb * r * math.sin(ang)])
            if not (b.xmin <= pt[0] <= b.xmax and b.ymin <= pt[1] <= b.ymax):
                continue
        out[got] = pt
        got += 1
    return out[:got]


def box_params(boxes):
    """(centers, halves, cos yaw, sin yaw) as ``Scene._box_params`` builds them."""
    centers = np.array([[cx, cy] for cx, cy, _, _, _ in boxes]).reshape(-1, 2)
    halves = np.array([[hx, hy] for _, _, hx, hy, _ in boxes]).reshape(-1, 2)
    yaws = np.array([yaw for *_, yaw in boxes])
    return centers, halves, np.cos(yaws), np.sin(yaws)


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_kernel_matches(p0, p1, boxes):
    params = box_params(boxes)
    p0, p1 = np.asarray(p0, dtype=float).reshape(-1, 2), np.asarray(p1, dtype=float).reshape(-1, 2)
    assert_bits_equal(_segment_box_distances(p0, p1, *params), reference_segment_box_distances(p0, p1, *params))


COORD = st.floats(-6.0, 6.0)
BOX = st.tuples(COORD, COORD, st.floats(0.01, 2.0), st.floats(0.01, 2.0), st.floats(-math.pi, math.pi))
TINY = [5e-324, -5e-324, 1e-310, 1e-16, 1e-15, 1e-12]


@st.composite
def kernel_cases(draw):
    """Boxes and segments: random, zero-length, subnormal-length, axis-parallel,
    and from a box centre to one of its corners."""
    boxes = draw(st.lists(BOX, min_size=0, max_size=12))
    p0s, p1s = [], []
    for _ in range(draw(st.integers(1, 15))):
        kind = draw(st.sampled_from(["random", "zero", "tiny", "x-parallel", "y-parallel", "corner"]))
        p0 = np.array([draw(COORD), draw(COORD)])
        if kind == "random":
            p1 = np.array([draw(COORD), draw(COORD)])
        elif kind == "zero":
            p1 = p0.copy()
        elif kind == "tiny":
            p1 = p0 + np.array([draw(st.sampled_from(TINY)), draw(st.sampled_from([0.0, *TINY]))])
        elif kind == "x-parallel":
            p1 = np.array([draw(COORD), p0[1]])
        elif kind == "y-parallel":
            p1 = np.array([p0[0], draw(COORD)])
        elif boxes:
            cx, cy, hx, hy, yaw = draw(st.sampled_from(boxes))
            sx, sy = draw(st.sampled_from([-1.0, 1.0])), draw(st.sampled_from([-1.0, 1.0]))
            c, s = math.cos(yaw), math.sin(yaw)
            p0 = np.array([cx, cy])
            p1 = p0 + np.array([c * sx * hx - s * sy * hy, s * sx * hx + c * sy * hy])
            if draw(st.booleans()):
                p0, p1 = p1, p0
        else:
            p1 = p0.copy()
        p0s.append(p0)
        p1s.append(p1)
    return np.array(p0s), np.array(p1s), boxes


AXIS_BOX = (0.0, 0.0, 1.0, 0.5, 0.0)
TURNED_BOX = (1.5, -0.5, 0.4, 0.8, 0.7)


class TestSegmentBoxKernel:
    @given(kernel_cases())
    @settings(max_examples=400, deadline=None)
    def test_bits_equal_reference(self, case):
        assert_kernel_matches(*case)

    @pytest.mark.parametrize(
        "p0, p1",
        [
            pytest.param([0.3, 0.2], [0.3, 0.2], id="zero-length-inside"),
            pytest.param([3.0, 2.0], [3.0, 2.0], id="zero-length-outside"),
            pytest.param([0.0, 0.0], [0.0, 5e-324], id="subnormal-length-at-centre"),
            pytest.param([0.0, 3.0], [5e-324, 3.0], id="subnormal-length-outside"),
            pytest.param([-3.0, 0.5], [3.0, 0.5], id="x-parallel-on-face"),
            pytest.param([-3.0, 0.7], [3.0, 0.7], id="x-parallel-above"),
            pytest.param([1.0, -3.0], [1.0, 3.0], id="y-parallel-on-face"),
            pytest.param([1.2, -3.0], [1.2, 3.0], id="y-parallel-beside"),
            pytest.param([0.0, 0.0], [1.0, 0.5], id="centre-to-corner"),
            pytest.param([1.0, -0.5], [-1.0, 0.5], id="corner-to-corner"),
            pytest.param([1.0, 0.5], [3.0, 0.5], id="corner-outwards"),
            pytest.param([1.5, -0.5], [2.0, 0.3], id="turned-centre-out"),
        ],
    )
    def test_pinned_segments(self, p0, p1):
        assert_kernel_matches([p0], [p1], [AXIS_BOX, TURNED_BOX])

    def test_box_free_scene(self):
        p0 = np.array([[0.0, 0.0], [1.0, 2.0]])
        p1 = np.array([[0.0, 0.0], [-1.0, 0.5]])
        got = _segment_box_distances(p0, p1, *box_params([]))
        assert got.shape == (2, 0)
        assert_kernel_matches(p0, p1, [])

    def test_roadmap_edges_on_sampled_scenes(self):
        rng = np.random.default_rng(11)
        for seed in (3, 7, 22):
            scene = sample_scene(seed)
            b = scene.bounds
            p0 = rng.uniform((b.xmin, b.ymin), (b.xmax, b.ymax), size=(40, 2))
            p1 = p0 + rng.uniform(-2.0, 2.0, size=p0.shape)
            params = scene._box_params
            assert_bits_equal(
                _segment_box_distances(p0, p1, *params), reference_segment_box_distances(p0, p1, *params)
            )


@st.composite
def vertex_sets(draw):
    """Positions, some on a coarse lattice so that duplicates and ties occur."""
    n = draw(st.integers(1, 60))
    lattice = draw(st.booleans())
    value = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) if lattice else st.floats(-6.0, 6.0)
    return np.array([[draw(value), draw(value)] for _ in range(n)])


class TestNeighborLists:
    @staticmethod
    def assert_same_graph(positions, k):
        got = _neighbor_lists(positions, k)
        want = reference_neighbor_sets(positions, k)
        assert [set(row) for row in got] == want
        assert all(row == sorted(set(row)) for row in got)

    @given(vertex_sets(), st.sampled_from([1, 3, K_NEIGHBORS]))
    @example(np.zeros((1, 2)), K_NEIGHBORS)
    @example(np.zeros((2, 2)), K_NEIGHBORS)
    @settings(max_examples=300, deadline=None)
    def test_same_neighbor_sets(self, positions, k):
        self.assert_same_graph(positions, k)

    @pytest.mark.parametrize("n", [1, 2, K_NEIGHBORS, K_NEIGHBORS + 1, K_NEIGHBORS + 2, 100])
    def test_sizes_around_k(self, n):
        positions = np.random.default_rng(n).uniform(-4.0, 4.0, size=(n, 2))
        self.assert_same_graph(positions, K_NEIGHBORS)

    def test_all_duplicates(self):
        self.assert_same_graph(np.ones((20, 2)), K_NEIGHBORS)

    @given(vertex_sets())
    @settings(max_examples=100, deadline=None)
    def test_distance_matrix_is_norm(self, positions):
        dx = positions[:, 0, None] - positions[:, 0]
        dy = positions[:, 1, None] - positions[:, 1]
        want = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=2)
        assert_bits_equal(np.sqrt(dx * dx + dy * dy), want)


ROOM = Scene(Bounds(8.0, 6.0), [], [], seed=0)


def ellipse(center, axis_angle, a_len, b_len):
    c, s = math.cos(axis_angle), math.sin(axis_angle)
    return np.array(center, dtype=float), np.array([[c, -s], [s, c]]), (a_len, b_len)


class TestSamplePositions:
    @staticmethod
    def assert_same_draws(seed, n, informed, scene=ROOM):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _sample_positions(got_rng, scene, n, informed)
        want = reference_sample_positions(want_rng, scene, n, informed)
        assert_bits_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        return got

    @pytest.mark.parametrize("n", [0, 1, 24])
    def test_uniform(self, n):
        assert len(self.assert_same_draws(7, n, None)) == n

    def test_uniform_sampled_scene(self):
        self.assert_same_draws(3, 24, None, scene=sample_scene(5))

    def test_ellipse_partly_outside(self):
        # centred 0.5 m inside a room corner: about half the tries fall outside, but
        # all 24 points are found well within the 50 n try limit
        got = self.assert_same_draws(11, 24, ellipse((3.5, 2.5), 0.4, 2.0, 1.5))
        assert len(got) == 24

    def test_ellipse_wholly_outside_hits_try_cap(self):
        got = self.assert_same_draws(5, 24, ellipse((40.0, 0.0), 0.0, 1.0, 0.5))
        assert len(got) == 0

    def test_ellipse_mostly_outside_runs_out_of_tries(self):
        got = self.assert_same_draws(2, 24, ellipse((4.0, 3.0), 0.0, 40.0, 40.0))
        assert 0 < len(got) < 24

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 30),
        st.tuples(st.floats(-8.0, 8.0), st.floats(-6.0, 6.0)),
        st.floats(-math.pi, math.pi),
        st.floats(1e-9, 10.0),
        st.floats(1e-9, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_ellipses(self, seed, n, center, angle, a_len, b_len):
        self.assert_same_draws(seed, n, ellipse(center, angle, a_len, b_len))
