"""Pre-grasp candidate sampling on the sphere around the object."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthrefine import (
    GraspSamplingConfig,
    NoFeasibleCandidateError,
    UnitQuaternion,
    sample_candidates,
)
from depthrefine.geometry import quat_to_matrix, quat_y, quat_z
from depthrefine.grasp import MAX_GRID_CELLS
from helpers import candidate_orientation, candidate_position, random_quaternion

CENTER = np.array([0.1, -0.2, 0.45])


def chain_grid(center, cfg):
    """(position, orientation, alpha, theta) bytes of every kept candidate,
    one at a time through the quaternion chain."""
    step = 0.0 if cfg.theta_samples == 1 else cfg.theta_max / (cfg.theta_samples - 1)
    out = []
    for theta in [k * step for k in range(cfg.theta_samples)]:
        for alpha in [k * (2.0 * math.pi / cfg.alpha_samples) for k in range(cfg.alpha_samples)]:
            pos = candidate_position(center, cfg.radius, alpha, theta)
            if not pos[2] < cfg.table_height:
                q = candidate_orientation(cfg.approach_alignment, alpha, theta)
                out.append((pos.tobytes(), q.as_array().tobytes(), alpha, theta))
    return out


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

    def test_fractional_sample_counts_rejected_by_name(self):
        for name in ("alpha_samples", "theta_samples"):
            for bad in (2.5, 0.5, math.inf, math.nan, int("9" * 401)):
                with pytest.raises(ValueError, match=name):
                    GraspSamplingConfig(radius=0.1, **{name: bad})
            with pytest.raises(ValueError, match=name):
                GraspSamplingConfig(radius=0.1, **{name: 0})

    def test_grid_cells_bounded(self):
        # Only constructed: a grid past the bound is refused before it is
        # built, where 10**300 cells used to loop until memory ran out.
        cfg = GraspSamplingConfig(radius=0.1, alpha_samples=MAX_GRID_CELLS // 4, theta_samples=4)
        assert cfg.alpha_samples * cfg.theta_samples == MAX_GRID_CELLS
        for alpha, theta in ((MAX_GRID_CELLS + 1, 1), (MAX_GRID_CELLS // 4 + 1, 4), (10**300, 4)):
            with pytest.raises(ValueError, match=r"alpha_samples \* theta_samples"):
                GraspSamplingConfig(radius=0.1, alpha_samples=alpha, theta_samples=theta)

    def test_integral_float_counts_stored_as_int(self):
        cfg = GraspSamplingConfig(radius=0.1, alpha_samples=8.0, theta_samples=np.float64(4.0))
        assert (cfg.alpha_samples, cfg.theta_samples) == (8, 4)
        assert type(cfg.alpha_samples) is int and type(cfg.theta_samples) is int
        want = GraspSamplingConfig(radius=0.1, alpha_samples=8, theta_samples=4)
        got = sample_candidates(CENTER, cfg)
        assert [(c.position.tobytes(), c.alpha, c.theta) for c in got] == [
            (c.position.tobytes(), c.alpha, c.theta) for c in sample_candidates(CENTER, want)
        ]

    def test_non_finite_radius_and_nan_table_rejected(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="radius"):
                GraspSamplingConfig(radius=bad)
        with pytest.raises(ValueError, match="table_height"):
            GraspSamplingConfig(radius=0.1, table_height=math.nan)
        # -inf is the documented "no filter" default.
        assert GraspSamplingConfig(radius=0.1, table_height=-math.inf).table_height == -math.inf

    def test_alignment_must_be_a_quaternion(self):
        # A tuple used to be accepted, and sample_candidates then ended in an
        # AttributeError.
        with pytest.raises(ValueError, match="^approach_alignment must be a UnitQuaternion"):
            GraspSamplingConfig(0.15, approach_alignment=(1.0, 0.0, 0.0, 0.0))

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

    def test_position_beyond_float_range_refused(self):
        # The offset added to the center overflows: this used to warn from
        # numpy before the candidate's own check refused it.
        cfg = GraspSamplingConfig(radius=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="candidate positions must be finite"):
                sample_candidates([1.7e308, 0.0, 0.0], cfg)

    def test_overflow_below_the_table_dropped(self):
        # Only the theta = 0 ring is kept, whose x offsets are 0; the rows
        # that overflow lie below the table and are dropped without a warning.
        cfg = GraspSamplingConfig(radius=1e308, theta_samples=2, table_height=6e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cands = sample_candidates([1.7e308, 0.0, 0.0], cfg)
        assert [c.theta for c in cands] == [0.0] * 8
        assert all(c.position.tolist() == [1.7e308, 0.0, 1e308] for c in cands)

    def test_alignment_is_left_factor(self):
        align = quat_y(0.4)
        cfg = GraspSamplingConfig(radius=0.1, alpha_samples=2, theta_samples=2,
                                  approach_alignment=align)
        for c in sample_candidates(CENTER, cfg):
            want = quat_to_matrix(align) @ quat_to_matrix(quat_z(c.alpha)) @ quat_to_matrix(quat_y(c.theta))
            assert np.abs(quat_to_matrix(c.orientation) - want).max() < 1e-9


class TestBulkGridOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        alpha_samples=st.integers(1, 12),
        theta_samples=st.integers(1, 6),
        theta_max=st.floats(1e-3, math.pi),
        table_offset=st.one_of(st.just(-math.inf), st.floats(-0.3, 0.3)),
    )
    def test_grid_equals_per_candidate_chain(
        self, seed, alpha_samples, theta_samples, theta_max, table_offset
    ):
        # The cached grid must give every value of the one-candidate-at-a-time
        # chain exactly, with the same filter and the same empty-grid error.
        rng = np.random.default_rng(seed)
        center = rng.normal(scale=0.5, size=3)
        cfg = GraspSamplingConfig(
            radius=float(rng.uniform(0.01, 0.3)),
            alpha_samples=alpha_samples,
            theta_samples=theta_samples,
            theta_max=theta_max,
            approach_alignment=random_quaternion(rng),
            table_height=float(center[2]) + table_offset,
        )
        want = chain_grid(center, cfg)
        if not want:
            with pytest.raises(NoFeasibleCandidateError):
                sample_candidates(center, cfg)
            return
        got = [
            (c.position.tobytes(), c.orientation.as_array().tobytes(), c.alpha, c.theta)
            for c in sample_candidates(center, cfg)
        ]
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        alpha_samples=st.integers(1, 12),
        theta_samples=st.integers(1, 6),
        theta_max=st.floats(1e-3, math.pi),
        table_offset=st.one_of(st.just(-math.inf), st.floats(-0.3, 0.3)),
        zeros=st.sets(st.integers(0, 3), min_size=1, max_size=3),
    )
    def test_cache_hits_match_chain(
        self, seed, alpha_samples, theta_samples, theta_max, table_offset, zeros
    ):
        # Repeated calls reuse a cached grid. A copy whose alignment differs
        # only in the sign of one zero component compares equal to it, yet
        # must get its own grid; so must a mutated returned position not
        # leak into the next call.
        rng = np.random.default_rng(seed)
        center = rng.normal(scale=0.5, size=3)
        align = random_quaternion(rng).as_array()
        align[list(zeros)] = 0.0
        align = (align / np.linalg.norm(align)).tolist()
        flipped = list(align)
        flipped[min(zeros)] = -0.0
        cfg = GraspSamplingConfig(
            radius=float(rng.uniform(0.01, 0.3)),
            alpha_samples=alpha_samples,
            theta_samples=theta_samples,
            theta_max=theta_max,
            approach_alignment=UnitQuaternion(*align),
            table_height=float(center[2]) + table_offset,
        )
        copy = dataclasses.replace(
            cfg,
            radius=cfg.radius * 1.5,
            approach_alignment=UnitQuaternion(*flipped),
            table_height=cfg.table_height - 0.05,
        )
        assert copy.approach_alignment == cfg.approach_alignment
        for c in (cfg, copy, cfg, copy):
            want = chain_grid(center, c)
            if not want:
                with pytest.raises(NoFeasibleCandidateError):
                    sample_candidates(center, c)
                continue
            got = sample_candidates(center, c)
            assert [
                (g.position.tobytes(), g.orientation.as_array().tobytes(), g.alpha, g.theta)
                for g in got
            ] == want
            got[0].position[:] = np.nan
