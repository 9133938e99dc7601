"""Pre-grasp candidate sampling on the sphere around the object."""

import math

import numpy as np
import pytest

from depthrefine import (
    GraspSamplingConfig,
    NoFeasibleCandidateError,
    UnitQuaternion,
    candidate_orientation,
    candidate_position,
    quat_to_matrix,
    quat_y,
    quat_z,
    sample_candidates,
)
from helpers import random_quaternion

CENTER = np.array([0.1, -0.2, 0.45])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GraspSamplingConfig(radius=0.0)
        with pytest.raises(ValueError):
            GraspSamplingConfig(radius=0.1, alpha_samples=0)
        with pytest.raises(ValueError):
            GraspSamplingConfig(radius=0.1, theta_max=0.0)
        with pytest.raises(ValueError):
            GraspSamplingConfig(radius=0.1, theta_max=3.5)

    def test_non_finite_radius_and_nan_table_rejected(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="radius"):
                GraspSamplingConfig(radius=bad)
        with pytest.raises(ValueError, match="table_height"):
            GraspSamplingConfig(radius=0.1, table_height=math.nan)
        # -inf is the documented "no filter" default.
        assert GraspSamplingConfig(radius=0.1, table_height=-math.inf).table_height == -math.inf

    def test_nan_table_cannot_pass_candidates_below_table(self):
        # Every candidate of an object 1 m under the table is below it, so
        # no value of table_height may yield candidates here.
        below = np.array([0.0, 0.0, -1.0])
        with pytest.raises(NoFeasibleCandidateError):
            sample_candidates(below, GraspSamplingConfig(radius=0.15, table_height=0.0))
        with pytest.raises(ValueError):
            sample_candidates(below, GraspSamplingConfig(radius=0.15, table_height=math.nan))


class TestClosedFormCases:
    def test_polar_candidate_directly_above(self):
        r = 0.15
        for alpha in (0.0, 1.1, 2.0 * math.pi - 0.3):
            pos = candidate_position(CENTER, r, alpha, 0.0)
            assert np.allclose(pos, CENTER + [0.0, 0.0, r], atol=1e-15)
            q = candidate_orientation(UnitQuaternion.identity(), alpha, 0.0)
            assert np.abs(q.as_array() - quat_z(alpha).as_array()).max() < 1e-12

    def test_equator_alpha_zero_offsets_y(self):
        pos = candidate_position(CENTER, 0.2, 0.0, math.pi / 2)
        assert np.allclose(pos, CENTER + [0.0, 0.2, 0.0], atol=1e-12)

    def test_sin_alpha_lands_on_x(self):
        pos = candidate_position(CENTER, 0.2, math.pi / 2, math.pi / 2)
        assert np.allclose(pos, CENTER + [0.2, 0.0, 0.0], atol=1e-12)


class TestCompositionOracle:
    def test_orientation_matches_matrix_product(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            align = random_quaternion(rng)
            alpha = rng.uniform(0.0, 2.0 * math.pi)
            theta = rng.uniform(0.0, math.pi)
            got = quat_to_matrix(candidate_orientation(align, alpha, theta))
            want = quat_to_matrix(align) @ quat_to_matrix(quat_z(alpha)) @ quat_to_matrix(quat_y(theta))
            assert np.abs(got - want).max() < 1e-9


class TestSampleCandidates:
    def test_grid_count_and_sphere_radius(self):
        cfg = GraspSamplingConfig(radius=0.15, alpha_samples=8, theta_samples=4)
        cands = sample_candidates(CENTER, cfg)
        assert len(cands) == 32
        for c in cands:
            assert abs(np.linalg.norm(c.position - CENTER) - 0.15) < 1e-9
            assert abs(np.linalg.norm(c.orientation.as_array()) - 1.0) < 1e-12

    def test_ordering_theta_then_alpha(self):
        cfg = GraspSamplingConfig(radius=0.1, alpha_samples=3, theta_samples=3)
        cands = sample_candidates(CENTER, cfg)
        keys = [(c.theta, c.alpha) for c in cands]
        assert keys == sorted(keys)

    def test_theta_spans_zero_to_max_inclusive(self):
        cfg = GraspSamplingConfig(radius=0.1, alpha_samples=1, theta_samples=5, theta_max=1.0)
        thetas = [c.theta for c in sample_candidates(CENTER, cfg)]
        assert thetas[0] == 0.0
        assert math.isclose(thetas[-1], 1.0, rel_tol=1e-12)

    def test_alpha_excludes_two_pi(self):
        cfg = GraspSamplingConfig(radius=0.1, alpha_samples=4, theta_samples=1)
        alphas = [c.alpha for c in sample_candidates(CENTER, cfg)]
        assert alphas == pytest.approx([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_table_filter_drops_low_candidates(self):
        center = np.array([0.0, 0.0, 0.05])
        cfg = GraspSamplingConfig(
            radius=0.2, alpha_samples=6, theta_samples=4, theta_max=math.pi, table_height=0.0
        )
        cands = sample_candidates(center, cfg)
        assert 0 < len(cands) < 24
        for c in cands:
            assert c.position[2] >= 0.0

    def test_all_filtered_raises(self):
        center = np.array([0.0, 0.0, -1.0])
        cfg = GraspSamplingConfig(radius=0.1, table_height=0.5)
        with pytest.raises(NoFeasibleCandidateError):
            sample_candidates(center, cfg)

    def test_alignment_is_left_factor(self):
        align = quat_y(0.4)
        cfg = GraspSamplingConfig(radius=0.1, alpha_samples=2, theta_samples=2,
                                  approach_alignment=align)
        for c in sample_candidates(CENTER, cfg):
            want = quat_to_matrix(align) @ quat_to_matrix(quat_z(c.alpha)) @ quat_to_matrix(quat_y(c.theta))
            assert np.abs(quat_to_matrix(c.orientation) - want).max() < 1e-9
