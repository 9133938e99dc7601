"""Objective, robust inlier selection, and the closed-form sigma fit."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthrefine import (
    CAD_CUBOID,
    DEFAULT_INTRINSICS,
    DegenerateSceneError,
    DepthMap,
    NoOverlapError,
    Pose,
    RefineConfig,
    UnitQuaternion,
    builtin_model,
    default_sweep,
    generate_scene,
    pixel_support,
    refine,
    render_depth,
    tabletop_scene,
)
from depthrefine.geometry import quat_x
from depthrefine.refiner import objective, ransac_inliers, residual_samples
import depthrefine.refiner as refiner_module
from helpers import searchsorted_ransac_inliers, square_mesh, traced_peak

INTR = DEFAULT_INTRINSICS


def apple_pose(z: float = 0.5) -> Pose:
    return Pose(np.array([0.0, 0.0, z]), quat_x(-math.pi / 2))


class TestConfigs:
    def test_ransac_validation(self):
        with pytest.raises(ValueError):
            RefineConfig(inlier_threshold=0.0)
        with pytest.raises(ValueError):
            RefineConfig(min_inlier_fraction=1.5)

    def test_refine_validation(self):
        with pytest.raises(ValueError):
            RefineConfig(bound_fraction=1.0)

    @pytest.mark.parametrize("threshold", [math.inf, math.nan])
    def test_threshold_must_be_finite(self, threshold):
        with pytest.raises(ValueError, match="inlier_threshold must be positive and finite"):
            RefineConfig(inlier_threshold=threshold)


class TestObjective:
    def test_self_residual_zero(self):
        mesh, _ = builtin_model("apple")
        pose = apple_pose()
        real = render_depth(mesh, pose, INTR)
        assert objective(0.0, mesh, pose, INTR, real) == 0.0

    def test_quadratic_in_mu(self):
        # With the measured map an exact mu*-scaling of the sigma=0 render,
        # the objective is mean(d0^2) * (mu* - mu)^2 on the common support.
        mesh, _ = builtin_model("apple")
        pose = apple_pose()
        d0 = render_depth(mesh, pose, INTR)
        mu_star = 0.85
        real = DepthMap(INTR.width, INTR.height, d0.data * np.float32(mu_star))
        norm = float(np.linalg.norm(pose.position))
        d0_valid = d0.data[d0.valid_mask].astype(np.float64)
        for mu in (0.7, 0.85, 1.0, 1.2):
            sigma = (1.0 - mu) * norm
            val = objective(sigma, mesh, pose, INTR, real)
            expected = float(np.mean(d0_valid**2)) * (mu_star - mu) ** 2
            assert val == pytest.approx(expected, rel=1e-3, abs=1e-9)

    def test_single_offset_pixel(self):
        mesh, _ = builtin_model("apple")
        pose = apple_pose()
        d0 = render_depth(mesh, pose, INTR)
        data = d0.data.copy()
        i, j = divmod(int(pixel_support(d0)[0]), INTR.width)
        data[i, j] += np.float32(0.05)
        real = DepthMap(INTR.width, INTR.height, data)
        rho = len(pixel_support(d0))
        assert objective(0.0, mesh, pose, INTR, real) == pytest.approx(
            0.05**2 / rho, rel=1e-5
        )

    def test_restricted_to_inlier_set(self):
        mesh, _ = builtin_model("apple")
        pose = apple_pose()
        d0 = render_depth(mesh, pose, INTR)
        data = d0.data.copy()
        support = pixel_support(d0)
        rows, cols = np.divmod(support[:10], INTR.width)
        data[rows, cols] += np.float32(0.2)
        real = DepthMap(INTR.width, INTR.height, data)
        assert objective(0.0, mesh, pose, INTR, real, support[10:]) == 0.0
        assert objective(0.0, mesh, pose, INTR, real) > 0.0

    def test_inliers_must_be_flat_indices(self):
        mesh, _ = builtin_model("apple")
        pose = apple_pose()
        real = render_depth(mesh, pose, INTR)
        support = pixel_support(real)
        # Unsigned indices are refused too: numpy intersects them with
        # int64 ones as float64, which cannot index.
        bad_inputs = (real.valid_mask, support.astype(np.float64), support.reshape(1, -1),
                      support.astype(np.uint64))
        for bad in bad_inputs:
            with pytest.raises(ValueError, match="1-D signed integer array"):
                objective(0.0, mesh, pose, INTR, real, bad)

    def test_map_shape_must_match_intrinsics(self):
        mesh, _ = builtin_model("apple")
        real = DepthMap(INTR.width - 1, INTR.height, np.ones((INTR.height, INTR.width - 1)))
        with pytest.raises(ValueError, match="shapes differ"):
            objective(0.0, mesh, apple_pose(), INTR, real)

    def test_disjoint_support_raises(self):
        mesh, _ = builtin_model("apple")
        pose = apple_pose()
        data = np.zeros((INTR.height, INTR.width), dtype=np.float32)
        data[:5, :5] = 2.0  # far corner, never covered by the render
        real = DepthMap(INTR.width, INTR.height, data)
        with pytest.raises(NoOverlapError):
            objective(0.0, mesh, pose, INTR, real)


class TestResidualSamples:
    def test_pairs_only_where_both_valid(self):
        a = np.zeros((2, 3), dtype=np.float32)
        b = np.zeros((2, 3), dtype=np.float32)
        a[0, 1] = 0.5
        a[1, 2] = 0.6
        b[0, 1] = 0.55
        b[0, 0] = 0.7
        pairs = residual_samples(DepthMap(3, 2, a), DepthMap(3, 2, b))
        assert pairs.dtype == np.int64
        assert pairs.tolist() == [1]  # flat index of (0, 1)
        assert a.ravel()[pairs].tolist() == [pytest.approx(0.5)]
        assert b.ravel()[pairs].tolist() == [pytest.approx(0.55)]

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        height=st.integers(1, 40),
        width=st.integers(1, 40),
        real_holes=st.floats(0.0, 1.0),
        virtual_holes=st.floats(0.0, 1.0),
    )
    def test_ascending_pixels_valid_in_both(self, seed, height, width, real_holes, virtual_holes):
        rng = np.random.default_rng(seed)
        real, virtual = (
            DepthMap(width, height, np.where(
                rng.random((height, width)) < holes, 0.0, rng.uniform(0.1, 2.0, (height, width))
            ).astype(np.float32))
            for holes in (real_holes, virtual_holes)
        )
        got = residual_samples(real, virtual)
        assert got.dtype == np.int64
        want = [i for i, (a, b) in enumerate(zip(real.data.ravel().tolist(), virtual.data.ravel().tolist()))
                if a > 0.0 and b > 0.0]
        assert got.tolist() == want

    def test_shape_mismatch_rejected(self):
        a = DepthMap(3, 2, np.ones((2, 3), dtype=np.float32))
        b = DepthMap(2, 3, np.ones((3, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            residual_samples(a, b)


class TestRansac:
    def test_all_exact_inliers(self):
        mu = 0.9
        v = np.linspace(0.4, 0.7, 60)
        got = ransac_inliers(mu * v, v, RefineConfig())
        assert got.tolist() == list(range(60))

    def test_occluder_split_exact(self):
        # 80 clean pixels on d = 0.9*v, 20 displaced 0.15 m nearer.
        v = np.linspace(0.45, 0.65, 100)
        d = 0.9 * v
        d[:20] -= 0.15
        cfg = RefineConfig(inlier_threshold=0.01)
        got = ransac_inliers(d, v, cfg)
        assert got.tolist() == list(range(20, 100))

    def test_two_samples_both_inliers(self):
        v = np.array([0.55, 0.70])
        got = ransac_inliers(0.9 * v, v, RefineConfig())
        assert got.tolist() == [0, 1]

    def test_constant_depth_scene(self):
        got = ransac_inliers(np.full(40, 0.5), np.full(40, 0.5), RefineConfig())
        assert len(got) == 40

    def test_no_consensus_degenerate(self):
        rng = np.random.default_rng(14)
        d, v = rng.uniform(0.3, 1.5, (300, 2)).T
        cfg = RefineConfig(inlier_threshold=1e-5, min_inlier_fraction=0.3)
        with pytest.raises(DegenerateSceneError):
            ransac_inliers(d, v, cfg)

    def test_too_few_samples(self):
        with pytest.raises(DegenerateSceneError):
            ransac_inliers(np.array([0.5]), np.array([0.5]), RefineConfig())

    def test_finds_consensus_that_sampling_misses(self):
        # A 30% consensus is drawn within ceil(log(0.001)/log(0.7)) = 20
        # one-pair draws with probability 0.999, but none of the first 20
        # draws of default_rng(0) picks it, so a sampler seeded 0 that stops
        # there gives up. The exact maximum finds it.
        n = 1000
        first = np.random.default_rng(0).integers(n, size=20)
        rng = np.random.default_rng(16)
        v = rng.uniform(0.4, 0.8, n)
        d = rng.uniform(0.2, 1.2, n)
        consensus = np.setdiff1d(np.arange(n), first)[: int(0.3 * n)]
        d[consensus] = 0.9 * v[consensus]
        got = ransac_inliers(d, v, RefineConfig())
        assert set(consensus) <= set(got.tolist())

    def test_no_consensus_is_fast_at_tiny_min_fraction(self):
        # Two sorts bound the work, however small the accepted consensus:
        # repeated hypothesis scoring took seconds here and grew as n**2.
        rng = np.random.default_rng(17)
        d, v = rng.uniform(0.3, 1.5, (40_000, 2)).T
        cfg = RefineConfig(inlier_threshold=1e-9, min_inlier_fraction=1e-9)
        start = time.perf_counter()
        got = ransac_inliers(d, v, cfg)
        assert time.perf_counter() - start < 1.0
        assert got.size >= 1

    def test_touching_intervals_overlap(self):
        # Dyadic values make each d = 1.0 interval [0.75, 1.25] end exactly
        # where each d = 1.5 interval [1.25, 1.75] starts, so all five pairs
        # agree only at that shared end, mu = 1.25.
        d = np.array([1.0, 1.5, 1.0, 1.5, 1.5])
        v = np.ones(5)
        cfg = RefineConfig(inlier_threshold=0.25)
        got = ransac_inliers(d, v, cfg)
        samples = [(k, float(d[k]), float(v[k])) for k in range(5)]
        assert frozenset(got.tolist()) == reference_ransac_inliers(samples, cfg)
        assert got.tolist() == [0, 1, 2, 3, 4]

    def test_full_frame_of_tied_ends_matches_searchsorted(self):
        # A 640x480 frame, too many pairs for the O(n**2) oracle, of few
        # distinct dyadic depths: each interval end is shared by thousands
        # of pairs, and some ends equal another pair's start exactly.
        rng = np.random.default_rng(18)
        n = 640 * 480
        v = rng.integers(4, 8, n) / 8.0
        d = 0.875 * v + rng.integers(-2, 3, n) / 64.0
        d[rng.random(n) < 0.3] -= 0.25
        cfg = RefineConfig(inlier_threshold=1 / 32)
        want = searchsorted_ransac_inliers(d, v, cfg)
        assert want is not None and 0 < want.size < n
        assert np.array_equal(ransac_inliers(d, v, cfg), want)

    def test_tiny_min_fraction_same_inliers_in_bounded_memory(self):
        rng = np.random.default_rng(15)
        v = rng.uniform(0.4, 0.8, 1000)
        d = 0.8 * v + rng.normal(0.0, 0.002, 1000)
        d[::3] -= 0.2
        want = ransac_inliers(d, v, RefineConfig())
        tracemalloc.start()
        try:
            got = ransac_inliers(d, v, RefineConfig(min_inlier_fraction=1e-12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak < 1_000_000


def reference_ransac_inliers(samples, cfg):
    """Per-pair loop version of `ransac_inliers`, kept as its oracle.

    `samples` is a list of (pixel, real_depth, virtual_depth); returns the
    frozenset of the pixels that agree with the best scale. Pair i agrees with the scales
    in [(d_i - t)/v_i, (d_i + t)/v_i]; for every interval start, in
    ascending order, it counts the intervals that contain it and keeps
    the first maximum.
    """
    n = len(samples)
    if n < 2:
        raise DegenerateSceneError(f"need at least 2 residual samples, got {n}")
    t = cfg.inlier_threshold
    intervals = [((d_i - t) / v_i, (d_i + t) / v_i) for _, d_i, v_i in samples]

    best_count = 0
    best_mu = 0.0
    for start in sorted(lo for lo, _ in intervals):
        containing = [hi for lo, hi in intervals if lo <= start <= hi]
        if len(containing) > best_count:
            best_count, best_mu = len(containing), (start + min(containing)) / 2.0

    consensus = [s for s in samples if abs(s[1] - best_mu * s[2]) <= t]
    if len(consensus) < math.ceil(cfg.min_inlier_fraction * n):
        raise DegenerateSceneError("below the minimum fraction")
    return frozenset(s[0] for s in consensus)


def _outcome(fn):
    try:
        return fn()
    except DegenerateSceneError:
        return DegenerateSceneError


class TestRansacMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(0, 400),
        mu=st.floats(0.5, 1.5),
        outlier_share=st.floats(0.0, 0.9),
        noise=st.floats(0.0, 0.01),
        depth_levels=st.sampled_from([0, 1, 3]),
        threshold=st.floats(1e-4, 0.05),
        min_fraction=st.floats(0.001, 1.0),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_same_inliers_and_failures(
        self, n, mu, outlier_share, noise, depth_levels, threshold, min_fraction, data_seed,
    ):
        rng = np.random.default_rng(data_seed)
        v = rng.uniform(0.3, 1.5, n)
        if depth_levels:
            # Few distinct rendered depths make many intervals tie.
            v = np.round(v * depth_levels) / depth_levels + 0.3
        d = mu * v + rng.normal(0.0, noise, n)
        outliers = rng.random(n) < outlier_share
        d[outliers] -= rng.uniform(0.05, 0.3, int(outliers.sum()))
        d = np.maximum(d, 1e-6)
        cfg = RefineConfig(inlier_threshold=threshold, min_inlier_fraction=min_fraction)
        samples = [(k, float(d[k]), float(v[k])) for k in range(n)]
        want = _outcome(lambda: reference_ransac_inliers(samples, cfg))
        got = _outcome(lambda: ransac_inliers(d, v, cfg))
        if want is DegenerateSceneError:
            assert got is DegenerateSceneError
        else:
            assert got is not DegenerateSceneError
            assert frozenset(got.tolist()) == want
            assert np.all(np.diff(got) > 0)


class TestRefine:
    def test_fixed_point(self):
        mesh, _ = builtin_model("apple")
        pose = apple_pose(0.55)
        real = render_depth(mesh, pose, INTR)
        result = refine(pose, mesh, CAD_CUBOID, INTR, real)
        assert abs(result.mu_opt - 1.0) < 1e-3
        assert abs(result.sigma_opt) < 1e-3
        assert np.abs(result.estimated_dims.as_array() - CAD_CUBOID.as_array()).max() < 1e-4

    def test_recovers_small_scale(self):
        spec = tabletop_scene("t", 0.648, seed=21)
        real, coarse = generate_scene(spec)
        mesh, _ = builtin_model("apple")
        result = refine(coarse, mesh, CAD_CUBOID, INTR, real)
        want = 0.648 * CAD_CUBOID.as_array()
        assert np.linalg.norm(result.estimated_dims.as_array() - want) < 1e-3

    def test_occlusion_robust(self):
        spec = tabletop_scene("t", 0.85, occluder_fraction=0.2, occluder_offset=0.1, seed=22)
        real, coarse = generate_scene(spec)
        mesh, _ = builtin_model("apple")
        result = refine(coarse, mesh, CAD_CUBOID, INTR, real)
        want = 0.85 * CAD_CUBOID.as_array()
        assert np.linalg.norm(result.estimated_dims.as_array() - want) < 2e-3

    def test_result_invariants(self):
        spec = tabletop_scene("t", 0.9, depth_noise=0.002, seed=23)
        real, coarse = generate_scene(spec)
        mesh, _ = builtin_model("apple")
        r = refine(coarse, mesh, CAD_CUBOID, INTR, real)
        norm_in = np.linalg.norm(coarse.position)
        norm_out = np.linalg.norm(r.refined_pose.position)
        assert abs(r.mu_opt - norm_out / norm_in) < 1e-9
        assert np.abs(r.estimated_dims.as_array() - r.mu_opt * CAD_CUBOID.as_array()).max() < 1e-9
        assert abs(r.mu_opt - (1.0 - r.sigma_opt / norm_in)) < 1e-9
        assert abs(r.mu_opt - 1.0) <= 0.8
        assert r.refined_pose.orientation == coarse.orientation
        v0 = render_depth(mesh, coarse, INTR)
        d = real.data.ravel()[r.inliers].astype(np.float64)
        v = v0.data.ravel()[r.inliers].astype(np.float64)
        assert r.rms_residual**2 == pytest.approx(np.mean((d - r.mu_opt * v) ** 2), rel=1e-9)
        assert r.inliers.dtype == np.int64
        assert r.inliers.ndim == 1
        assert np.all(np.diff(r.inliers) > 0)
        assert not r.inliers.flags.writeable

    def test_deterministic(self):
        spec = tabletop_scene("t", 0.78, depth_noise=0.002, occluder_fraction=0.15, seed=24)
        real, coarse = generate_scene(spec)
        mesh, _ = builtin_model("apple")
        a = refine(coarse, mesh, CAD_CUBOID, INTR, real)
        b = refine(coarse, mesh, CAD_CUBOID, INTR, real)
        assert a.sigma_opt == b.sigma_opt
        assert a.mu_opt == b.mu_opt
        assert np.array_equal(a.inliers, b.inliers)
        assert np.array_equal(a.refined_pose.position, b.refined_pose.position)

    def test_closed_form_oracle(self):
        # Clean scaled scene: the optimizer must land on the analytic
        # least-squares scale (sum d*d0)/(sum d0^2).
        mesh, _ = builtin_model("apple")
        for seed, mu_star in ((1, 0.7), (2, 0.95), (3, 1.15)):
            spec = tabletop_scene("t", mu_star, seed=seed)
            real, coarse = generate_scene(spec)
            result = refine(coarse, mesh, CAD_CUBOID, INTR, real)
            d0 = render_depth(mesh, coarse, INTR)
            both = d0.valid_mask & real.valid_mask
            dd = real.data[both].astype(np.float64)
            vv = d0.data[both].astype(np.float64)
            mu_hat = float(dd @ vv / (vv @ vv))
            assert abs(result.mu_opt - mu_hat) / result.mu_opt < 1e-3

    def test_behind_camera_pose_rejected(self):
        mesh, _ = builtin_model("apple")
        real = DepthMap(INTR.width, INTR.height, np.zeros((INTR.height, INTR.width), np.float32))
        pose = Pose(np.array([0.0, 0.0, -0.5]), UnitQuaternion.identity())
        with pytest.raises(ValueError):
            refine(pose, mesh, CAD_CUBOID, INTR, real)

    def test_no_overlap_raises(self):
        mesh, _ = builtin_model("apple")
        pose = apple_pose()
        data = np.zeros((INTR.height, INTR.width), dtype=np.float32)
        data[:5, :5] = 1.0
        real = DepthMap(INTR.width, INTR.height, data)
        with pytest.raises(NoOverlapError):
            refine(pose, mesh, CAD_CUBOID, INTR, real)

    def test_unfittable_measurement_degenerate(self):
        mesh, _ = builtin_model("apple")
        pose = apple_pose()
        rng = np.random.default_rng(15)
        data = rng.uniform(0.3, 1.5, (INTR.height, INTR.width)).astype(np.float32)
        real = DepthMap(INTR.width, INTR.height, data)
        cfg = RefineConfig(inlier_threshold=1e-6)
        with pytest.raises(DegenerateSceneError):
            refine(pose, mesh, CAD_CUBOID, INTR, real, cfg)

    def test_one_render_per_refine(self, monkeypatch):
        calls = []
        rasterize = refiner_module._rasterize

        def counting_render(*args, **kwargs):
            calls.append(1)
            return rasterize(*args, **kwargs)

        monkeypatch.setattr(refiner_module, "_rasterize", counting_render)
        spec = tabletop_scene("t", 0.8, occluder_fraction=0.2, seed=25)
        real, coarse = generate_scene(spec)
        mesh, _ = builtin_model("apple")
        refine(coarse, mesh, CAD_CUBOID, INTR, real)
        assert len(calls) == 1

    def test_depth_beyond_float32_raises_value_error(self):
        # Finite vertices whose depths, 5e38 m, overflow float32: the same
        # error a DepthMap of them raises.
        real = DepthMap(INTR.width, INTR.height, np.ones((INTR.height, INTR.width), np.float32))
        pose = Pose(np.array([0.0, 0.0, 5e38]), UnitQuaternion.identity())
        with pytest.raises(ValueError, match="depth values must be finite"):
            refine(pose, square_mesh(1e38), CAD_CUBOID, INTR, real)

    def test_occluded_noisy_refine_in_bounded_memory(self):
        # The eval-occluded mix. Rasterizing only the object's window, in
        # blocks, keeps the peak near 1.07 MB; a full-frame render and
        # support scan took 1.58 MB.
        spec = tabletop_scene("t", 0.7, occluder_fraction=0.2, depth_noise=0.002,
                              shape_noise=0.002, seed=3)
        real, coarse = generate_scene(spec)
        mesh, _ = builtin_model("apple")
        got, peak = traced_peak(lambda: refine(coarse, mesh, CAD_CUBOID, INTR, real))
        pairs = residual_samples(real, render_depth(mesh, coarse, INTR))
        assert np.isin(got.inliers, pairs).all()
        assert abs(got.mu_opt - 0.7) <= 0.01
        assert peak < 1_300_000

    def test_size_mismatch_rejected_before_render(self, monkeypatch):
        def failing_render(*args, **kwargs):
            raise AssertionError("rendered before the size check")

        monkeypatch.setattr(refiner_module, "_rasterize", failing_render)
        mesh, _ = builtin_model("apple")
        real = DepthMap(INTR.width, INTR.height - 1, np.ones((INTR.height - 1, INTR.width)))
        with pytest.raises(ValueError, match="dimensions"):
            refine(apple_pose(), mesh, CAD_CUBOID, INTR, real)


# A float32 depth carries a relative rounding error up to 2**-24, about
# 3e-8 m at 0.5 m, so an exact-fit residual may read as a squared error
# near 1e-15 on either side; agreement is asked to 1e-6 relative above
# that floor.
FLOAT32_MSE_FLOOR = 1e-14


class TestClosedFormMatchesRenderedObjective:
    @pytest.mark.parametrize(
        "spec",
        [
            tabletop_scene("clean", 0.8, seed=31),
            tabletop_scene("noisy", 0.8, depth_noise=0.002, seed=32),
            tabletop_scene("occluded", 0.8, occluder_fraction=0.2, seed=33),
        ],
        ids=lambda spec: spec.scene_id,
    )
    def test_value_and_minimum(self, spec):
        real, coarse = generate_scene(spec)
        mesh, _ = builtin_model("apple")
        r = refine(coarse, mesh, CAD_CUBOID, INTR, real)

        def f(sigma):
            return objective(sigma, mesh, coarse, INTR, real, r.inliers)

        f_opt = f(r.sigma_opt)
        assert r.rms_residual**2 == pytest.approx(f_opt, rel=1e-6, abs=FLOAT32_MSE_FLOOR)
        v0 = render_depth(mesh, coarse, INTR)
        d = real.data.ravel()[r.inliers].astype(np.float64)
        v = v0.data.ravel()[r.inliers].astype(np.float64)
        assert r.mu_opt == pytest.approx(float(d @ v) / float(v @ v), rel=1e-9)
        assert f(r.sigma_opt - 1e-3) >= f_opt
        assert f(r.sigma_opt + 1e-3) >= f_opt


class TestFreeSpaceFraction:
    # Over 60 default-sweep scenes per setting, correct fits read at most
    # 0.0072 and wrong fits at least 0.19; the bounds keep a wide margin.
    LOW = 0.05
    HIGH = 0.1

    @pytest.mark.parametrize("occluder_fraction", [0.2, 0.5])
    def test_low_on_correct_fits(self, occluder_fraction):
        mesh, _ = builtin_model("apple")
        for spec in default_sweep(occluder_fraction=occluder_fraction, depth_noise=0.002):
            real, coarse = generate_scene(spec)
            r = refine(coarse, mesh, CAD_CUBOID, INTR, real)
            assert abs(r.mu_opt - spec.true_scale) < 0.01
            assert 0.0 <= r.free_space_fraction < self.LOW

    @pytest.mark.parametrize("occluder_fraction", [0.6, 0.8])
    def test_high_when_the_occluder_wins(self, occluder_fraction):
        # Occluders this large outvote the object, so the fit lands on
        # the occluding plane and the object's pixels lie beyond it.
        mesh, _ = builtin_model("apple")
        for spec in default_sweep(occluder_fraction=occluder_fraction):
            real, coarse = generate_scene(spec)
            r = refine(coarse, mesh, CAD_CUBOID, INTR, real)
            assert abs(r.mu_opt - spec.true_scale) > 0.01
            assert r.free_space_fraction > self.HIGH


class TestLateralError:
    @pytest.mark.parametrize("occluder_fraction", [0.0, 0.5])
    def test_ten_mm_lateral_offset_stays_right(self, occluder_fraction):
        # A coarse pose 10 mm off sideways at the true depth still refines
        # to the right scale: a consensus over the whole support would
        # not, if it refused every fit with pairs beyond free space.
        mesh, _ = builtin_model("apple")
        scene = {"occluder_fraction": occluder_fraction} if occluder_fraction else {}
        for seed in range(0, 60, 5):
            for spec in default_sweep(seed=seed, depth_noise=0.002, **scene):
                real, coarse = generate_scene(spec)
                p = coarse.position.copy()
                p[0] += 0.01 * p[2] / spec.true_pose.position[2]
                r = refine(Pose(p, coarse.orientation), mesh, CAD_CUBOID, INTR, real)
                assert abs(r.mu_opt - spec.true_scale) <= 0.01, spec.scene_id


class TestAtBound:
    @pytest.mark.parametrize("true_scale", [0.7, 1.3])
    def test_beyond_bound_raises(self, true_scale):
        # A scale outside [1 - b, 1 + b] is refused, never clipped to the bound.
        spec = tabletop_scene("t", true_scale, seed=26)
        real, coarse = generate_scene(spec)
        mesh, _ = builtin_model("apple")
        cfg = RefineConfig(bound_fraction=0.1)
        with pytest.raises(DegenerateSceneError, match=rf"mu\*={true_scale}\d* .*\[0\.9, 1\.1\]"):
            refine(coarse, mesh, CAD_CUBOID, INTR, real, cfg)
        r = refine(coarse, mesh, CAD_CUBOID, INTR, real, RefineConfig(bound_fraction=0.35))
        assert abs(r.mu_opt - true_scale) < 1e-3

    def test_default_sweep_not_at_bound(self):
        # Every default scene refines within the default bound.
        mesh, _ = builtin_model("apple")
        for spec in default_sweep():
            real, coarse = generate_scene(spec)
            r = refine(coarse, mesh, CAD_CUBOID, INTR, real)
            assert abs(r.mu_opt - spec.true_scale) < 1e-3
