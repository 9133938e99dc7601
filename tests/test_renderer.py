"""Software depth rasterizer: coverage, perspective-correct depth, z-buffer."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


def random_soup(rng: np.random.Generator, size: float, grid: bool) -> TriangleMesh:
    """Triangle soup with random windings, repeated-corner and collinear
    degenerates; `size` sets how far corners spread around the origin."""
    nv = int(rng.integers(3, 30))
    verts = rng.normal(scale=size, size=(nv, 3))
    if grid:
        # Coarse coordinates make exact edge ties and zero areas likely.
        verts = np.round(verts / size, 1) * size
    verts[2] = 0.5 * (verts[0] + verts[1])
    tris = rng.integers(0, nv, size=(int(rng.integers(1, 40)), 3))
    tris[0] = [0, 1, 2]
    repeated = rng.random(tris.shape[0]) < 0.15
    tris[repeated, 2] = tris[repeated, 1]
    return TriangleMesh(verts, tris)


soup_scenes = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    # 1 mm corners at 2 m render sub-pixel; 0.5 m corners reach behind the
    # near plane and off the screen.
    "size": st.sampled_from([0.001, 0.01, 0.1, 0.5]),
    "grid": st.booleans(),
    "z": st.floats(-0.2, 2.0),
    "width": st.integers(1, 64),
    "height": st.integers(1, 64),
    "f": st.floats(20.0, 300.0),
    "scale": st.floats(0.05, 3.0),
})


def soup_scene(p: dict):
    rng = np.random.default_rng(p["seed"])
    mesh = random_soup(rng, p["size"], p["grid"])
    w, h = p["width"], p["height"]
    intr = CameraIntrinsics(
        p["f"], p["f"] * rng.uniform(0.8, 1.2),
        w * rng.uniform(0.01, 0.99), h * rng.uniform(0.01, 0.99), w, h,
    )
    offset = rng.normal(scale=0.1, size=2)
    pose = Pose(np.array([offset[0], offset[1], p["z"]]), random_quaternion(rng))
    return rng, mesh, pose, intr, p["scale"]


class TestSoupProperties:
    @settings(max_examples=200, deadline=None)
    @given(soup_scenes)
    def test_reversed_windings_render_same_bytes(self, p):
        # A reversed triangle is re-oriented into a cyclic rotation of its
        # corners: the same directed edges, so the same coverage. Its 1/z sum
        # runs in a rotated order; the float32 store absorbs that (no
        # difference in 5M covered pixels of 20k such soups).
        _, mesh, pose, intr, scale = soup_scene(p)
        flipped = TriangleMesh(mesh.vertices, mesh.triangles[:, ::-1])
        a = render_depth(mesh, pose, intr, scale)
        b = render_depth(flipped, pose, intr, scale)
        assert a.data.tobytes() == b.data.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(soup_scenes)
    def test_triangle_order_renders_same_bytes(self, p):
        rng, mesh, pose, intr, scale = soup_scene(p)
        shuffled = TriangleMesh(mesh.vertices, rng.permutation(mesh.triangles))
        a = render_depth(mesh, pose, intr, scale)
        b = render_depth(shuffled, pose, intr, scale)
        assert a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize("case", ["behind", "off_screen", "degenerate"])
    def test_no_drawable_triangle_renders_all_zero_map(self, case):
        intr = CameraIntrinsics(fx=80.0, fy=90.0, cx=20.0, cy=15.0, width=37, height=29)
        rng = np.random.default_rng(3)
        verts = rng.normal(scale=0.05, size=(12, 3))
        tris = rng.integers(0, 12, size=(20, 3))
        position = [0.0, 0.0, 1.0]
        if case == "behind":
            position = [0.0, 0.0, -1.0]
        elif case == "off_screen":
            position = [0.0, 3.0, 1.0]
        else:
            tris[:, 2] = tris[:, 1]
        mesh = TriangleMesh(verts, tris)
        d = render_depth(mesh, Pose(np.array(position), random_quaternion(rng)), intr)
        assert d.data.dtype == np.float32
        assert d.data.shape == (29, 37)
        assert not d.data.any()


# fx, fy and the depths are powers of two, so a corner placed at the screen
# point (U/2, V/2) projects back to exactly that point.
GRID = CameraIntrinsics(fx=64.0, fy=64.0, cx=16.0, cy=12.0, width=32, height=24)
grid_points = st.tuples(st.integers(-8, 2 * GRID.width + 8), st.integers(-8, 2 * GRID.height + 8))


def orient2(a, b, c):
    """Twice the signed area of (a, b, c), exact on integer points."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


class TestWatertightness:
    @settings(max_examples=200, deadline=None)
    @given(
        corners=st.tuples(grid_points, grid_points, grid_points, grid_points),
        depths=st.tuples(*[st.sampled_from([1.0, 2.0, 4.0])] * 4),
        reverse=st.tuples(st.booleans(), st.booleans()),
    )
    def test_shared_edge_covered_exactly_once(self, corners, depths, reverse):
        # Triangles (p0, p1, q) and (p1, p0, r) share the edge p0-p1, with q
        # and r on opposite sides. Doubled screen coordinates are integers,
        # so pixel centers (odd, odd) often lie exactly on the shared edge.
        p0, p1, q, r = corners
        assume(orient2(p0, p1, q) * orient2(p0, p1, r) < 0)
        verts = np.array([
            [(u / 2 - GRID.cx) * z / GRID.fx, (v / 2 - GRID.cy) * z / GRID.fy, z]
            for (u, v), z in zip(corners, depths)
        ])
        pose = Pose(np.zeros(3), UnitQuaternion.identity())
        halves = []
        for tri, rev in (([0, 1, 2], reverse[0]), ([1, 0, 3], reverse[1])):
            tris = np.array([tri[::-1] if rev else tri])
            halves.append(render_depth(TriangleMesh(verts, tris), pose, GRID).valid_mask)
        a, b = halves
        assert not (a & b).any()

        rows, cols = np.mgrid[0 : GRID.height, 0 : GRID.width]
        c = (2 * cols + 1, 2 * rows + 1)
        dot0 = (c[0] - p0[0]) * (p1[0] - p0[0]) + (c[1] - p0[1]) * (p1[1] - p0[1])
        dot1 = (c[0] - p1[0]) * (p0[0] - p1[0]) + (c[1] - p1[1]) * (p0[1] - p1[1])
        on_edge = (orient2(p0, p1, c) == 0) & (dot0 > 0) & (dot1 > 0)
        assert (a | b)[on_edge].all()


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
