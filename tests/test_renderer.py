"""Software depth rasterizer: coverage, perspective-correct depth, z-buffer."""

import math

import numpy as np
import pytest

from depthrefine import (
    CameraIntrinsics,
    DepthMap,
    EmptyGeometryError,
    Pose,
    TriangleMesh,
    UnitQuaternion,
    apply_sigma_to_pose,
    builtin_model,
    ellipsoid_mesh,
    pixel_support,
    project,
    quat_x,
    render_depth,
)
from helpers import random_quaternion, square_mesh

INTR = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)


def frontal_pose(z: float = 1.0) -> Pose:
    return Pose(np.array([0.0, 0.0, z]), UnitQuaternion.identity())


class TestTriangleMesh:
    def test_rejects_no_triangles(self):
        with pytest.raises(EmptyGeometryError):
            TriangleMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=int))

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 3]]))

    def test_rejects_nan_vertices(self):
        verts = np.array([[0.0, 0.0, np.nan], [1, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError):
            TriangleMesh(verts, np.array([[0, 1, 2]]))

    def test_recentered(self):
        mesh = square_mesh()
        shifted = TriangleMesh(mesh.vertices + [1.0, 2.0, 3.0], mesh.triangles)
        centered, offset = shifted.recentered()
        assert np.allclose(offset, [1.0, 2.0, 3.0], atol=1e-12)
        assert np.abs(centered.centroid).max() < 1e-12


class TestDepthMap:
    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            DepthMap(2, 2, np.array([[0.5, -0.1], [0.0, 1.0]], dtype=np.float32))

    def test_rejects_non_finite_values(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                DepthMap(2, 2, np.array([[0.5, bad], [0.0, 1.0]], dtype=np.float32))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            DepthMap(3, 2, np.zeros((3, 3), dtype=np.float32))

    def test_valid_mask(self):
        d = DepthMap(2, 2, np.array([[0.5, 0.0], [0.0, 1.0]], dtype=np.float32))
        assert d.valid_mask.tolist() == [[True, False], [False, True]]


class TestFrontoParallelSquare:
    def test_depth_exact(self):
        d = render_depth(square_mesh(), frontal_pose(), INTR)
        vals = d.data[d.valid_mask]
        assert vals.size > 0
        assert np.all(vals == np.float32(1.0))

    def test_support_is_projected_rectangle(self):
        # Corners at +-0.1 m and z=1 project to u in [260, 380], v in [180, 300];
        # covered pixel centers are cols 260..379 and rows 180..299.
        half = 0.1
        d = render_depth(square_mesh(half), frontal_pose(), INTR)
        support = pixel_support(d)
        u_lo, v_lo, _ = project(INTR, (-half, -half, 1.0))
        u_hi, v_hi, _ = project(INTR, (half, half, 1.0))
        cols = range(math.ceil(u_lo - 0.5), math.floor(u_hi - 0.5) + 1)
        rows = range(math.ceil(v_lo - 0.5), math.floor(v_hi - 0.5) + 1)
        assert support.tolist() == [i * INTR.width + j for i in rows for j in cols]

    def test_shared_diagonal_leaves_no_holes_or_leaks(self):
        # The two triangles share the square's diagonal; the fill rule must
        # assign every interior pixel exactly once, so the support is the
        # full rectangle regardless of the shared edge.
        d = render_depth(square_mesh(0.05), frontal_pose(0.7), INTR)
        support = pixel_support(d)
        rows, cols = np.divmod(support, INTR.width)
        assert len(support) == len(np.unique(rows)) * len(np.unique(cols))


class TestScalingLaw:
    def test_depth_scaling_and_support_invariance(self):
        mesh, _ = builtin_model("apple")
        rng = np.random.default_rng(11)
        for _ in range(10):
            pose = Pose(
                np.array([rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1), rng.uniform(0.4, 0.9)]),
                random_quaternion(rng),
            )
            sigma = rng.uniform(-0.6, 0.6) * float(pose.position[2])
            moved, mu = apply_sigma_to_pose(pose, sigma)
            d0 = render_depth(mesh, pose, INTR)
            ds = render_depth(mesh, moved, INTR, scale=mu)
            s0, s1 = pixel_support(d0), pixel_support(ds)
            assert len(s0) > 100
            assert len(np.setxor1d(s0, s1)) < 0.02 * len(s0)
            common = np.intersect1d(s0, s1)
            ratio = ds.data.ravel()[common].astype(np.float64) / (
                mu * d0.data.ravel()[common].astype(np.float64)
            )
            assert np.abs(ratio - 1.0).max() < 1e-6


class TestSphereOracle:
    def test_depth_matches_analytic_ray_intersection(self):
        radius = 0.05
        mesh = ellipsoid_mesh((radius, radius, radius), rings=32, segments=48)
        center = np.array([0.0, 0.0, 1.0])
        d = render_depth(mesh, Pose(center, UnitQuaternion.identity()), INTR)
        support = pixel_support(d)
        assert len(support) > 500
        # The faceted sphere is sandwiched between the exact sphere and the
        # inscribed sphere shrunk by the facet sagitta, so the first surface
        # crossing of a ray lies between the two analytic near-intersections.
        step = max(math.pi / 32, 2 * math.pi / 48)
        sagitta = 1.1 * radius * (1.0 - math.cos(step * math.sqrt(2.0) / 2.0))
        for i, j in zip(*np.divmod(support[:: max(1, len(support) // 400)], INTR.width)):
            ray = np.array([(j + 0.5 - INTR.cx) / INTR.fx, (i + 0.5 - INTR.cy) / INTR.fy, 1.0])
            ray /= np.linalg.norm(ray)
            b = float(ray @ center)
            rho_sq = float(center @ center) - b * b
            disc = radius * radius - rho_sq
            disc_inner = (radius - sagitta) ** 2 - rho_sq
            got = float(d.data[i, j])
            if disc_inner <= 0.0:
                # Limb pixel whose ray misses the inscribed sphere: a facet
                # chord can still cover it anywhere within the z-bounds.
                assert center[2] - radius <= got <= center[2] + radius
                continue
            depth_near = (b - math.sqrt(disc)) * ray[2]
            depth_inner = (b - math.sqrt(disc_inner)) * ray[2]
            assert depth_near - 1e-6 <= got <= depth_inner + 1e-6

    def test_min_depth_is_near_distance(self):
        mesh, dims = builtin_model("sphere")
        d = render_depth(mesh, frontal_pose(1.0), INTR)
        r = dims.dx / 2.0
        assert abs(float(d.data[d.valid_mask].min()) - (1.0 - r)) < 2e-4


class TestEdgeCases:
    def test_behind_camera_all_invalid(self):
        d = render_depth(square_mesh(), frontal_pose(-1.0), INTR)
        assert not d.valid_mask.any()

    def test_near_plane_triangles_discarded(self):
        # One vertex closer than the near plane drops the whole triangle.
        verts = np.array([[-0.1, -0.1, 1.0], [0.1, -0.1, 1.0], [0.0, 0.1, 5e-5]])
        mesh = TriangleMesh(verts, np.array([[0, 1, 2]]))
        pose = Pose(np.array([0.0, 0.0, 0.0]), UnitQuaternion.identity())
        d = render_depth(mesh, pose, INTR)
        assert not d.valid_mask.any()

    def test_off_screen_mesh_empty_support(self):
        pose = Pose(np.array([5.0, 0.0, 1.0]), UnitQuaternion.identity())
        d = render_depth(square_mesh(), pose, INTR)
        assert pixel_support(d).size == 0

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            render_depth(square_mesh(), frontal_pose(), INTR, scale=0.0)

    def test_occlusion_nearer_wins(self):
        near = square_mesh(0.02)
        far = TriangleMesh(near.vertices + [0.0, 0.0, 0.5], near.triangles)
        both = TriangleMesh(
            np.vstack([near.vertices, far.vertices]),
            np.vstack([near.triangles, far.triangles + 4]),
        )
        d = render_depth(both, frontal_pose(1.0), INTR)
        # Far square projects inside the near square's silhouette; every
        # shared pixel must read the nearer depth.
        vals = d.data[d.valid_mask]
        assert np.all(vals <= np.float32(1.0))
        assert np.any(vals == np.float32(1.0))

    def test_sub_ulp_depth_gap_keeps_rounded_minimum(self):
        # Two full overlapping squares on either side of the float32 rounding
        # midpoint above 1.0, less than one float32 ulp apart: the nearer
        # one rounds down to 1.0, the farther one up to the next float32.
        near, far = 1.0 + 5.9e-8, 1.0 + 6.0e-8
        assert far - near < np.spacing(np.float32(1.0))
        assert np.float32(near) != np.float32(far)
        sq = square_mesh(0.02)
        for first, second in ((near, far), (far, near)):
            mesh = TriangleMesh(
                np.vstack([sq.vertices + [0.0, 0.0, first], sq.vertices + [0.0, 0.0, second]]),
                np.vstack([sq.triangles, sq.triangles + 4]),
            )
            d = render_depth(mesh, frontal_pose(0.0), INTR)
            vals = d.data[d.valid_mask]
            assert vals.size > 0
            assert np.all(vals == np.float32(near))

    def test_winding_insensitive(self):
        mesh = square_mesh()
        flipped = TriangleMesh(mesh.vertices, mesh.triangles[:, ::-1])
        a = render_depth(mesh, frontal_pose(), INTR)
        b = render_depth(flipped, frontal_pose(), INTR)
        assert np.array_equal(a.data, b.data)


class TestDeterminism:
    def test_bit_identical_renders(self):
        mesh, _ = builtin_model("apple")
        pose = Pose(np.array([0.03, -0.02, 0.55]), quat_x(-math.pi / 2))
        a = render_depth(mesh, pose, INTR)
        b = render_depth(mesh, pose, INTR)
        assert np.array_equal(a.data, b.data)


class TestConvexBounds:
    def test_watertight_convex_depths_within_analytic_bounds(self):
        mesh, dims = builtin_model("apple")
        rng = np.random.default_rng(12)
        radius = max(dims.dx, dims.dy, dims.dz) / 2.0
        for _ in range(5):
            z = rng.uniform(0.4, 0.8)
            pose = Pose(np.array([0.0, 0.0, z]), random_quaternion(rng))
            d = render_depth(mesh, pose, INTR)
            vals = d.data[d.valid_mask].astype(np.float64)
            assert vals.min() >= z - radius - 1e-6
            assert vals.max() <= z + radius + 1e-6


class TestPixelSupport:
    def test_all_invalid_empty(self):
        d = DepthMap(4, 3, np.zeros((3, 4), dtype=np.float32))
        assert pixel_support(d).size == 0

    def test_support_matches_mask(self):
        data = np.zeros((3, 4), dtype=np.float32)
        data[1, 2] = 0.7
        data[0, 0] = 1.2
        d = DepthMap(4, 3, data)
        support = pixel_support(d)
        assert support.dtype == np.int64
        assert support.tolist() == [0, 6]  # flat row-major (0, 0) and (1, 2)
