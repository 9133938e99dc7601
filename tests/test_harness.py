"""Synthetic scenes, the simulated scale-blind estimator, and the metrics."""

import math

import numpy as np
import pytest

from depthrefine import (
    CAD_CUBOID,
    DEFAULT_INTRINSICS,
    DEFAULT_SCALE_LEVELS,
    EvalRecord,
    OccluderSpec,
    Pose,
    SceneSpec,
    UnitQuaternion,
    builtin_model,
    centroid_error,
    default_sweep,
    dimensional_error,
    ellipsoid_mesh,
    generate_scene,
    leftmost_region,
    pixel_support,
    quat_x,
    refine,
    render_depth,
    run_sweep,
    simulate_rgb_estimate,
    summary_table,
    tabletop_scene,
    transform_point,
)

INTR = DEFAULT_INTRINSICS


class TestBuiltinModels:
    def test_apple_bbox_matches_cuboid(self):
        mesh, dims = builtin_model("apple")
        extent = mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)
        assert np.allclose(extent, dims.as_array(), atol=1e-12)
        assert np.abs(mesh.centroid).max() < 1e-12

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            builtin_model("banana")

    def test_ellipsoid_validation(self):
        with pytest.raises(ValueError):
            ellipsoid_mesh((0.05, -0.01, 0.05))
        with pytest.raises(ValueError):
            ellipsoid_mesh((0.05, 0.05, 0.05), rings=1)


class TestSimulateRgbEstimate:
    def test_unit_scale_identity(self):
        pose = Pose(np.array([0.1, -0.05, 0.5]), quat_x(0.3))
        est = simulate_rgb_estimate(pose, 1.0)
        assert np.allclose(est.position, pose.position, atol=1e-15)
        assert est.orientation == pose.orientation

    def test_small_object_pushed_farther(self):
        pose = Pose(np.array([0.0, 0.0, 0.4]), UnitQuaternion.identity())
        est = simulate_rgb_estimate(pose, 0.5)
        assert np.allclose(est.position, [0.0, 0.0, 0.8], atol=1e-12)

    def test_support_identical_to_true_render(self):
        # The ambiguity in one line: model at p/mu with scale 1 shows the
        # same silhouette as the mu-scaled object at p.
        mesh, _ = builtin_model("apple")
        pose = Pose(np.array([0.02, 0.01, 0.45]), quat_x(-math.pi / 2))
        mu_star = 0.76
        est = simulate_rgb_estimate(pose, mu_star)
        true_render = render_depth(mesh, pose, INTR, scale=mu_star)
        est_render = render_depth(mesh, est, INTR)
        s_true, s_est = pixel_support(true_render), pixel_support(est_render)
        assert len(np.setxor1d(s_true, s_est)) < 0.02 * len(s_true)

    def test_rejects_bad_scale(self):
        pose = Pose(np.array([0.0, 0.0, 0.4]), UnitQuaternion.identity())
        with pytest.raises(ValueError):
            simulate_rgb_estimate(pose, 0.0)


class TestLeftmostRegion:
    def test_count_and_subset(self):
        width = 32
        support = np.array([i * width + j for i in range(10) for j in range(20)])
        region = leftmost_region(support, width, 0.25)
        assert len(region) == math.ceil(0.25 * 200)
        assert np.isin(region, support).all()
        assert set(region.tolist()) == {i * width + j for i in range(10) for j in range(5)}
        # Ordered by column, then by row within a column.
        assert region.tolist() == [i * width + j for j in range(5) for i in range(10)]


class TestGenerateScene:
    def test_deterministic(self):
        spec = tabletop_scene("t", 0.8, depth_noise=0.002, shape_noise=0.001,
                              occluder_fraction=0.1, seed=31)
        a, pa = generate_scene(spec)
        b, pb = generate_scene(spec)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(pa.position, pb.position)

    def test_noiseless_matches_direct_render(self):
        spec = tabletop_scene("t", 0.9, seed=0)
        real, coarse = generate_scene(spec)
        mesh, _ = builtin_model("apple")
        direct = render_depth(mesh, spec.true_pose, INTR, scale=0.9)
        assert np.array_equal(real.data, direct.data)
        assert np.allclose(coarse.position, spec.true_pose.position / 0.9, atol=1e-12)

    def test_occluder_overwrites_nearer(self):
        spec = tabletop_scene("t", 0.8, occluder_fraction=0.2, occluder_offset=0.1, seed=1)
        real, _ = generate_scene(spec)
        mesh, _ = builtin_model("apple")
        gt = render_depth(mesh, spec.true_pose, INTR, scale=0.8)
        region = leftmost_region(pixel_support(gt), INTR.width, 0.2)
        plane = spec.occluder.depth
        assert len(region) > 0
        got = real.data.ravel()[region].astype(np.float64)
        assert np.abs(got - plane).max() <= 1e-6

    def test_occluder_behind_object_no_effect(self):
        base = tabletop_scene("t", 0.8, seed=2)
        spec = SceneSpec(
            scene_id="t",
            true_scale=0.8,
            true_pose=base.true_pose,
            camera_pose=base.camera_pose,
            occluder=OccluderSpec(depth=2.0, fraction=0.2),
            seed=2,
        )
        real, _ = generate_scene(spec)
        mesh, _ = builtin_model("apple")
        gt = render_depth(mesh, base.true_pose, INTR, scale=0.8)
        assert np.array_equal(real.data, gt.data)

    def test_depth_noise_moves_only_valid_pixels(self):
        spec = tabletop_scene("t", 0.8, depth_noise=0.003, seed=3)
        real, _ = generate_scene(spec)
        mesh, _ = builtin_model("apple")
        gt = render_depth(mesh, spec.true_pose, INTR, scale=0.8)
        assert np.array_equal(real.valid_mask, gt.valid_mask)
        diff = real.data[gt.valid_mask].astype(np.float64) - gt.data[gt.valid_mask].astype(np.float64)
        assert 0.0005 < np.std(diff) < 0.01
        assert not np.array_equal(real.data, gt.data)

    def test_spec_validation(self):
        base = tabletop_scene("t", 0.8)
        with pytest.raises(ValueError):
            SceneSpec("t", -1.0, base.true_pose, base.camera_pose)
        with pytest.raises(ValueError):
            SceneSpec("t", 0.8, base.true_pose, base.camera_pose, depth_noise=-0.1)
        for field in ("depth_noise", "shape_noise"):
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match=field):
                    SceneSpec("t", 0.8, base.true_pose, base.camera_pose, **{field: bad})
        with pytest.raises(ValueError):
            OccluderSpec(depth=0.4, fraction=1.5)

    def test_occluder_fraction_validation(self):
        assert tabletop_scene("t", 0.8, occluder_fraction=0.0).occluder is None
        assert tabletop_scene("t", 0.8, occluder_fraction=0.2).occluder.fraction == 0.2
        # NaN used to pass as "no occluder" and render an unoccluded scene.
        for bad in (math.nan, -0.1, 1.0, math.inf):
            with pytest.raises(ValueError, match="occluder_fraction"):
                tabletop_scene("t", 0.8, occluder_fraction=bad)


class TestTabletopGeometry:
    def test_object_rests_on_table(self):
        spec = tabletop_scene("t", 0.7, object_depth=0.55)
        assert spec.true_pose.position[2] == pytest.approx(0.55)
        world = transform_point(spec.camera_pose, spec.true_pose.position)
        assert world[2] == pytest.approx(0.5 * 0.7 * CAD_CUBOID.dy, abs=1e-12)

    def test_model_height_axis_points_up(self):
        spec = tabletop_scene("t", 1.0)
        mesh, dims = builtin_model("apple")
        top_model = np.array([0.0, dims.dy / 2.0, 0.0])
        top_cam = transform_point(spec.true_pose, top_model)
        top_world = transform_point(spec.camera_pose, top_cam)
        assert top_world[2] == pytest.approx(dims.dy, abs=1e-12)

    def test_frame_consistency_of_centroid_metric(self):
        # Camera-frame z mapped through the extrinsics equals the world z
        # used by the metric.
        spec = tabletop_scene("t", 0.8, object_depth=0.6)
        cam_z = float(spec.true_pose.position[2])
        world = transform_point(spec.camera_pose, spec.true_pose.position)
        height = float(spec.camera_pose.position[2])
        assert abs((height - cam_z) - world[2]) < 1e-9


class TestMetrics:
    def test_centroid_error_examples(self):
        assert centroid_error(0.031, 0.073) == pytest.approx(0.0055, abs=1e-12)
        assert centroid_error(-0.172, 0.064) == pytest.approx(0.204, abs=1e-12)
        assert centroid_error(0.04, 0.08) == 0.0

    def test_dimensional_error_examples(self):
        from depthrefine import CuboidDims

        assert dimensional_error(CAD_CUBOID, CAD_CUBOID) == 0.0
        est = CuboidDims(0.063, 0.055, 0.062)
        true = CuboidDims(0.062, 0.047, 0.062)
        assert dimensional_error(est, true) == pytest.approx(math.hypot(0.001, 0.008), rel=1e-12)
        a = CuboidDims(0.10, 0.08, 0.09)
        b = CuboidDims(0.10, 0.08, 0.04)
        assert dimensional_error(a, b) == pytest.approx(0.05, rel=1e-12)


class TestRunSweep:
    def test_clean_sweep_recovers_dimensions(self):
        records, table = run_sweep(default_sweep(seed=5))
        assert len(records) == len(DEFAULT_SCALE_LEVELS)
        assert all(r.success for r in records)
        assert max(r.dimensional_error for r in records) < 1e-3
        assert "success: 5/5" in table

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            run_sweep([])

    def test_deterministic(self):
        specs = default_sweep(depth_noise=0.002, seed=6)[:2]
        a, _ = run_sweep(specs)
        b, _ = run_sweep(specs)
        assert a == b

    def test_failure_recorded_not_raised(self):
        # Depth noise an order above the inlier threshold leaves no consensus.
        spec = tabletop_scene("bad", 0.8, depth_noise=0.05, seed=7)
        records, table = run_sweep([spec])
        assert len(records) == 1
        assert records[0].success is False
        assert records[0].dimensional_error is None
        assert "failed" in table

    def test_success_needs_dimensional_error(self):
        with pytest.raises(ValueError):
            EvalRecord("x", 0.0, None, 0.0, True)
        with pytest.raises(ValueError):
            EvalRecord("x", 0.0, -1e-3, 0.0, True)
        assert EvalRecord("x", 0.0, 0.0, 0.0, True).success

    def test_summary_table_formats_failures(self):
        table = summary_table([EvalRecord("x", None, None, None, False)])
        assert "0/1" in table


class TestRoundTripProperty:
    def test_recovery_across_scales_and_depths(self):
        mesh, _ = builtin_model("apple")
        rng = np.random.default_rng(17)
        for _ in range(6):
            mu_star = float(rng.uniform(0.5, 1.3))
            depth = float(rng.uniform(0.3, 1.0))
            spec = tabletop_scene("t", mu_star, object_depth=depth, seed=int(rng.integers(1e6)))
            real, coarse = generate_scene(spec)
            result = refine(coarse, mesh, CAD_CUBOID, INTR, real)
            assert abs(result.mu_opt - mu_star) / mu_star < 1e-3
            assert np.linalg.norm(result.refined_pose.position - spec.true_pose.position) < 1e-3
