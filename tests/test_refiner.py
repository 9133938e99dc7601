"""Objective, robust inlier selection, and the closed-form sigma fit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthrefine import (
    CAD_CUBOID,
    DEFAULT_INTRINSICS,
    BehindCameraError,
    DegenerateSceneError,
    DepthMap,
    NoOverlapError,
    Pose,
    RansacConfig,
    RefineConfig,
    UnitQuaternion,
    builtin_model,
    default_sweep,
    generate_scene,
    objective,
    pixel_support,
    quat_x,
    ransac_inliers,
    refine,
    render_depth,
    residual_samples,
    tabletop_scene,
)
import depthrefine.refiner as refiner_module

INTR = DEFAULT_INTRINSICS


def apple_pose(z: float = 0.5) -> Pose:
    return Pose(np.array([0.0, 0.0, z]), quat_x(-math.pi / 2))


class TestConfigs:
    def test_ransac_validation(self):
        with pytest.raises(ValueError):
            RansacConfig(iterations=0)
        with pytest.raises(ValueError):
            RansacConfig(inlier_threshold=0.0)
        with pytest.raises(ValueError):
            RansacConfig(min_inlier_fraction=1.5)

    def test_refine_validation(self):
        with pytest.raises(ValueError):
            RefineConfig(bound_fraction=1.0)


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
        rows, cols = np.divmod(pixel_support(d0)[:10], INTR.width)
        data[rows, cols] += np.float32(0.2)
        real = DepthMap(INTR.width, INTR.height, data)
        keep = d0.valid_mask
        keep[rows, cols] = False
        assert objective(0.0, mesh, pose, INTR, real, keep) == 0.0
        assert objective(0.0, mesh, pose, INTR, real) > 0.0

    def test_inliers_must_be_map_shaped_mask(self):
        mesh, _ = builtin_model("apple")
        pose = apple_pose()
        real = render_depth(mesh, pose, INTR)
        for bad in (pixel_support(real), real.valid_mask.T, real.valid_mask.astype(np.uint8)):
            with pytest.raises(ValueError):
                objective(0.0, mesh, pose, INTR, real, bad)

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

    def test_shape_mismatch_rejected(self):
        a = DepthMap(3, 2, np.ones((2, 3), dtype=np.float32))
        b = DepthMap(2, 3, np.ones((3, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            residual_samples(a, b)


class TestRansac:
    def test_all_exact_inliers(self):
        mu = 0.9
        v = np.linspace(0.4, 0.7, 60)
        got = ransac_inliers(mu * v, v, RansacConfig(seed=0))
        assert got.tolist() == list(range(60))

    def test_occluder_split_exact(self):
        # 80 clean pixels on d = 0.9*v, 20 displaced 0.15 m nearer.
        v = np.linspace(0.45, 0.65, 100)
        d = 0.9 * v
        d[:20] -= 0.15
        cfg = RansacConfig(inlier_threshold=0.01, seed=3)
        got = ransac_inliers(d, v, cfg)
        assert got.tolist() == list(range(20, 100))

    def test_two_samples_both_inliers(self):
        got = ransac_inliers(np.array([0.5, 0.6]), np.array([0.55, 0.70]), RansacConfig(seed=1))
        assert got.tolist() == [0, 1]

    def test_constant_depth_scene(self):
        got = ransac_inliers(np.full(40, 0.5), np.full(40, 0.5), RansacConfig(seed=2))
        assert len(got) == 40

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(13)
        v = rng.uniform(0.4, 0.8, 200)
        d = 0.8 * v + rng.normal(0.0, 0.002, 200)
        d[::5] += 0.3
        cfg = RansacConfig(seed=42)
        assert np.array_equal(ransac_inliers(d, v, cfg), ransac_inliers(d, v, cfg))

    def test_no_consensus_degenerate(self):
        rng = np.random.default_rng(14)
        d, v = rng.uniform(0.3, 1.5, (300, 2)).T
        cfg = RansacConfig(inlier_threshold=1e-5, min_inlier_fraction=0.3, seed=0)
        with pytest.raises(DegenerateSceneError):
            ransac_inliers(d, v, cfg)

    def test_too_few_samples(self):
        with pytest.raises(DegenerateSceneError):
            ransac_inliers(np.array([0.5]), np.array([0.5]), RansacConfig())


def reference_ransac_inliers(samples, cfg):
    """Per-sample loop version of `ransac_inliers`, kept as its oracle.

    `samples` is a list of (pixel, real_depth, virtual_depth); returns the
    frozenset of the final inlier pixels.
    """
    n = len(samples)
    if n < 2:
        raise DegenerateSceneError(f"need at least 2 residual samples, got {n}")
    d = np.array([s[1] for s in samples], dtype=np.float64)
    v = np.array([s[2] for s in samples], dtype=np.float64)
    rng = np.random.default_rng(cfg.seed)

    best_count = -1
    best_ab = (0.0, 0.0)
    for _ in range(cfg.iterations):
        i, j = rng.choice(n, size=2, replace=False)
        if v[i] == v[j]:
            a, b = 0.0, 0.5 * (d[i] + d[j])
        else:
            a = (d[j] - d[i]) / (v[j] - v[i])
            b = d[i] - a * v[i]
        count = int(np.count_nonzero(np.abs(d - (a * v + b)) <= cfg.inlier_threshold))
        if count > best_count:
            best_count = count
            best_ab = (a, b)

    if best_count < math.ceil(cfg.min_inlier_fraction * n):
        raise DegenerateSceneError("below the minimum fraction")

    a, b = best_ab
    consensus = np.abs(d - (a * v + b)) <= cfg.inlier_threshold
    vv, dd = v[consensus], d[consensus]
    var = float(np.var(vv))
    if var > 0.0:
        a = float(np.cov(vv, dd, bias=True)[0, 1] / var)
        b = float(dd.mean() - a * vv.mean())
    else:
        a, b = 0.0, float(dd.mean())
    final = np.abs(d - (a * v + b)) <= cfg.inlier_threshold
    return frozenset(samples[k][0] for k in np.nonzero(final)[0])


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
        min_fraction=st.floats(0.05, 0.7),
        iterations=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_same_inliers_and_failures(
        self, n, mu, outlier_share, noise, depth_levels, threshold, min_fraction,
        iterations, seed, data_seed,
    ):
        rng = np.random.default_rng(data_seed)
        v = rng.uniform(0.3, 1.5, n)
        if depth_levels:
            # Few distinct rendered depths exercise the equal-depth pair branch.
            v = np.round(v * depth_levels) / depth_levels + 0.3
        d = mu * v + rng.normal(0.0, noise, n)
        outliers = rng.random(n) < outlier_share
        d[outliers] -= rng.uniform(0.05, 0.3, int(outliers.sum()))
        d = np.maximum(d, 1e-6)
        cfg = RansacConfig(
            iterations=iterations,
            inlier_threshold=threshold,
            min_inlier_fraction=min_fraction,
            seed=seed,
        )
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
        bound = 0.8 * float(coarse.position[2])
        assert -bound <= r.sigma_opt <= bound
        assert r.refined_pose.orientation == coarse.orientation
        assert r.rms_residual == pytest.approx(math.sqrt(r.objective_value))
        assert r.inlier_mask.dtype == bool
        assert r.inlier_mask.shape == (INTR.height, INTR.width)
        assert not r.inlier_mask.flags.writeable

    def test_deterministic(self):
        spec = tabletop_scene("t", 0.78, depth_noise=0.002, occluder_fraction=0.15, seed=24)
        real, coarse = generate_scene(spec)
        mesh, _ = builtin_model("apple")
        a = refine(coarse, mesh, CAD_CUBOID, INTR, real)
        b = refine(coarse, mesh, CAD_CUBOID, INTR, real)
        assert a.sigma_opt == b.sigma_opt
        assert a.mu_opt == b.mu_opt
        assert np.array_equal(a.inlier_mask, b.inlier_mask)
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
        with pytest.raises(BehindCameraError):
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
        cfg = RefineConfig(ransac=RansacConfig(inlier_threshold=1e-6, seed=0))
        with pytest.raises(DegenerateSceneError):
            refine(pose, mesh, CAD_CUBOID, INTR, real, cfg)

    def test_one_render_per_refine(self, monkeypatch):
        calls = []

        def counting_render(*args, **kwargs):
            calls.append(1)
            return render_depth(*args, **kwargs)

        monkeypatch.setattr(refiner_module, "render_depth", counting_render)
        spec = tabletop_scene("t", 0.8, occluder_fraction=0.2, seed=25)
        real, coarse = generate_scene(spec)
        mesh, _ = builtin_model("apple")
        refine(coarse, mesh, CAD_CUBOID, INTR, real)
        assert len(calls) == 1

    def test_size_mismatch_rejected_before_render(self, monkeypatch):
        def failing_render(*args, **kwargs):
            raise AssertionError("rendered before the size check")

        monkeypatch.setattr(refiner_module, "render_depth", failing_render)
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
        assert not r.at_bound

        def f(sigma):
            return objective(sigma, mesh, coarse, INTR, real, r.inlier_mask)

        f_opt = f(r.sigma_opt)
        assert r.objective_value == pytest.approx(f_opt, rel=1e-6, abs=FLOAT32_MSE_FLOOR)
        v0 = render_depth(mesh, coarse, INTR)
        d = real.data[r.inlier_mask].astype(np.float64)
        v = v0.data[r.inlier_mask].astype(np.float64)
        assert r.mu_opt == pytest.approx(float(d @ v) / float(v @ v), rel=1e-9)
        assert f(r.sigma_opt - 1e-3) >= f_opt
        assert f(r.sigma_opt + 1e-3) >= f_opt


class TestAtBound:
    def test_clipped_at_bound(self):
        spec = tabletop_scene("t", 0.7, seed=26)
        real, coarse = generate_scene(spec)
        mesh, _ = builtin_model("apple")
        r = refine(coarse, mesh, CAD_CUBOID, INTR, real, RefineConfig(bound_fraction=0.1))
        pz = float(coarse.position[2])
        assert r.at_bound
        assert r.sigma_opt == 0.1 * pz
        f_opt = objective(r.sigma_opt, mesh, coarse, INTR, real, r.inlier_mask)
        for step in (1e-3, 1e-2):
            inward = objective(r.sigma_opt - step, mesh, coarse, INTR, real, r.inlier_mask)
            assert inward >= f_opt

    def test_default_sweep_not_at_bound(self):
        mesh, _ = builtin_model("apple")
        for spec in default_sweep():
            real, coarse = generate_scene(spec)
            assert not refine(coarse, mesh, CAD_CUBOID, INTR, real).at_bound
