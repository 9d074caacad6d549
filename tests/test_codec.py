import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amr_navkit.codec import (
    PHI_BINS,
    PHI_WIDTH,
    PSI_BINS,
    PSI_WIDTH,
    R_BINS,
    R_MAX,
    R_WIDTH,
    PolarStep,
    TokenizedStep,
    decode_step,
    decode_trajectory,
    encode_step,
    encode_trajectory,
    pose_from_step,
    step_from_pose,
)
from amr_navkit.errors import OutOfRange
from amr_navkit.geometry import Pose2

steps_st = st.builds(
    PolarStep,
    st.floats(0, 2 * math.pi, exclude_max=True),
    st.floats(0, R_MAX),
    st.floats(0, 2 * math.pi, exclude_max=True),
)


class TestStepCodec:
    def test_bin_counts(self):
        assert (PSI_BINS, R_BINS, PHI_BINS) == (30, 32, 12)
        assert R_WIDTH == pytest.approx(0.00625)

    def test_r_midrange_example(self):
        tok = encode_step(PolarStep(0.0, 0.1, 0.0))
        assert tok.r_bin == 16
        assert tok.r_res == pytest.approx(-0.003125, abs=1e-15)
        assert decode_step(tok, use_residual=False).r == pytest.approx(0.103125, abs=1e-15)

    def test_psi_range_start(self):
        tok = encode_step(PolarStep(0.0, 0.05, 0.0))
        assert tok.psi_bin == 0
        assert tok.psi_res == pytest.approx(-math.pi / 30, abs=1e-15)

    def test_top_bin_clamped(self):
        tok = encode_step(PolarStep(0.0, R_MAX, 0.0))
        assert tok.r_bin == R_BINS - 1
        assert abs(tok.r_res) <= R_WIDTH / 2 + 1e-15

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            PolarStep(0.0, 0.21, 0.0)

    @given(steps_st)
    @settings(max_examples=500)
    def test_roundtrip_exact(self, step):
        dec = decode_step(encode_step(step), use_residual=True)
        assert abs(dec.psi - step.psi) <= 1e-12
        assert abs(dec.r - step.r) <= 1e-12
        assert abs(dec.phi - step.phi) <= 1e-12

    @given(steps_st)
    @settings(max_examples=500)
    def test_residual_within_half_width(self, step):
        tok = encode_step(step)
        assert abs(tok.psi_res) <= PSI_WIDTH / 2 + 1e-12
        assert abs(tok.r_res) <= R_WIDTH / 2 + 1e-12
        assert abs(tok.phi_res) <= PHI_WIDTH / 2 + 1e-12

    @given(steps_st)
    @settings(max_examples=500)
    def test_center_decode_error_bounded(self, step):
        dec = decode_step(encode_step(step), use_residual=False)
        assert abs(dec.psi - step.psi) <= PSI_WIDTH / 2 + 1e-12
        assert abs(dec.r - step.r) <= R_WIDTH / 2 + 1e-12
        assert abs(dec.phi - step.phi) <= PHI_WIDTH / 2 + 1e-12

    def test_phi_center_error_at_most_15_deg(self):
        for phi in np.linspace(0, 2 * math.pi, 1000, endpoint=False):
            dec = decode_step(encode_step(PolarStep(0, 0.1, float(phi))), use_residual=False)
            assert abs(dec.phi - phi) <= math.radians(15) + 1e-12

    def test_bad_bin_index_rejected(self):
        with pytest.raises(ValueError):
            decode_step(TokenizedStep(30, 0, 0, 0, 0, 0))


class TestTrajectoryCodec:
    def test_straight_chain_identical_tokens(self):
        waypoints = [Pose2(0.1, 0, 0)] * 12
        toks = encode_trajectory(waypoints)
        assert all(t == toks[0] for t in toks)
        assert toks[0].psi_bin == 0 and toks[0].r_bin == 16 and toks[0].phi_bin == 0

    def test_zero_motion(self):
        toks = encode_trajectory([Pose2(0, 0, 0)] * 12)
        assert all(t.r_bin == 0 and abs(t.r_res + R_WIDTH / 2) < 1e-15 for t in toks)
        base = Pose2(1.0, -2.0, 0.4)
        poses = decode_trajectory(toks, base, use_residual=True)
        for p in poses:
            assert math.hypot(p.x - base.x, p.y - base.y) <= 1e-12
            assert abs(p.heading - base.heading) <= 1e-12

    def test_world_roundtrip_with_residuals(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            base = Pose2(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi))
            rel = [
                pose_from_step(
                    PolarStep(rng.uniform(0, 2 * math.pi), rng.uniform(0, R_MAX), rng.uniform(0, 2 * math.pi))
                )
                for _ in range(12)
            ]
            world = []
            cur = base
            for r in rel:
                from amr_navkit.geometry import se2_compose

                cur = se2_compose(cur, r)
                world.append(cur)
            dec = decode_trajectory(encode_trajectory(rel), base, use_residual=True)
            for a, b in zip(world, dec):
                assert math.hypot(a.x - b.x, a.y - b.y) <= 1e-9
                assert abs(a.heading - b.heading) <= 1e-9

    def test_step_pose_conversion_inverse(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            step = PolarStep(rng.uniform(0, 2 * math.pi), rng.uniform(1e-6, R_MAX), rng.uniform(0, 2 * math.pi))
            back = step_from_pose(pose_from_step(step))
            assert abs(back.psi - step.psi) <= 1e-9
            assert abs(back.r - step.r) <= 1e-12

    def test_oversized_step_rejected(self):
        with pytest.raises(OutOfRange):
            encode_trajectory([Pose2(0.3, 0, 0)])


def test_chained_frame_bound_covers_criterion_2b_trajectories():
    """The no-residual error bound that holds under the chained frame convention.

    Criterion 2b states 12 * (R_WIDTH/2 + 0.2 * PSI_WIDTH/2), which leaves out
    that a heading-bin error rotates the frame of every later step. Without
    residuals, step k's direction is off by at most
    theta_k = (k - 1) * PHI_WIDTH/2 + PSI_WIDTH/2, so its displacement is off
    by at most R_WIDTH/2 (its length) plus the chord 0.2 * 2 sin(theta_k / 2)
    that the direction error sweeps at r <= 0.2, and the final position by
    the sum over the 12 steps. This bound must cover the worst error on
    criterion 2b's seed-103 trajectories, which the stated one does not.
    """
    theta = np.minimum(math.pi, np.arange(12) * (PHI_WIDTH / 2) + PSI_WIDTH / 2)
    bound = float(np.sum(R_WIDTH / 2 + 0.2 * 2 * np.sin(theta / 2)))
    stated = 12 * (R_WIDTH / 2 + 0.2 * (PSI_WIDTH / 2))

    # criterion 2b's 10,000 trajectories of 12 (psi, r, phi) steps, drawn in one call
    steps = np.random.default_rng(103).uniform(0.0, (2 * math.pi, R_MAX, 2 * math.pi), size=(10_000, 12, 3))
    width = np.array([PSI_WIDTH, R_WIDTH, PHI_WIDTH])
    centers = (np.minimum((steps / width).astype(np.int64), (PSI_BINS - 1, R_BINS - 1, PHI_BINS - 1)) + 0.5) * width

    def final_positions(s):
        heading = np.cumsum(s[..., 2], axis=1) - s[..., 2]  # each step's frame
        direction = heading + s[..., 0]
        return np.stack([(s[..., 1] * np.cos(direction)).sum(1), (s[..., 1] * np.sin(direction)).sum(1)], 1)

    exact, approx = final_positions(steps), final_positions(centers)
    errors = np.hypot(*(exact - approx).T)
    # the array chain is the codec's own, on the first trajectories
    base = Pose2(0.0, 0.0, 0.0)
    for k in range(20):
        tokens = [encode_step(PolarStep(*map(float, s))) for s in steps[k]]
        for s, use_residual in ((exact, True), (approx, False)):
            end = decode_trajectory(tokens, base, use_residual)[-1]
            assert math.hypot(end.x - s[k, 0], end.y - s[k, 1]) <= 1e-12
    assert stated < errors.max() <= bound
    assert errors.max() == pytest.approx(0.682, abs=1e-3)
