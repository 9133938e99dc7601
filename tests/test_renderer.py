"""Software depth rasterizer: coverage, perspective-correct depth, z-buffer."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from depthrefine import (
    CameraIntrinsics,
    DepthMap,
    Pose,
    TriangleMesh,
    UnitQuaternion,
    apply_sigma_to_pose,
    builtin_model,
    pixel_support,
    render_depth,
)
from depthrefine import renderer
from depthrefine.geometry import quat_x
from depthrefine.harness import (
    default_sweep,
    ellipsoid_mesh,
    generate_scene,
    simulate_rgb_estimate,
    tabletop_scene,
)
from helpers import (
    dense_mesh,
    project,
    random_quaternion,
    reference_render_depth,
    square_mesh,
    traced_peak,
)

INTR = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)


def frontal_pose(z: float = 1.0) -> Pose:
    return Pose(np.array([0.0, 0.0, z]), UnitQuaternion.identity())


class TestTriangleMesh:
    def test_rejects_no_triangles(self):
        with pytest.raises(ValueError):
            TriangleMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=int))

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 3]]))

    @pytest.mark.parametrize("index", [1.7, math.nan, math.inf, -1.0, 2**63, 2**70, 10**400],
                             ids=["1.7", "nan", "inf", "-1.0", "2**63", "2**70", "10**400"])
    def test_rejects_index_not_a_vertex(self, index):
        # 1.7 used to be truncated to vertex 1, and 2**70 to raise OverflowError.
        with pytest.raises(ValueError, match="triangle ind"):
            TriangleMesh(np.zeros((3, 3)), [[0, index, 2]])

    def test_whole_float_indices_accepted(self):
        mesh = TriangleMesh(np.zeros((3, 3)), np.array([[0.0, 1.0, 2.0]]))
        assert mesh.triangles.dtype == np.int64 and mesh.triangles.tolist() == [[0, 1, 2]]

    def test_rejects_nan_vertices(self):
        verts = np.array([[0.0, 0.0, np.nan], [1, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError):
            TriangleMesh(verts, np.array([[0, 1, 2]]))


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

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0.5, np.nan]], "must be finite"),
            ([[np.inf, 0.5]], "must be finite"),
            ([[0.5, -np.inf]], "must be finite"),
            ([[-0.1, 0.5]], r"0\.0 \(invalid\) or positive"),
            ([[-0.1, np.nan]], "must be finite"),
            (np.zeros((0, 0)), "width must be an integral count of at least 1"),
        ],
        ids=["nan", "+inf", "-inf", "negative", "negative-and-nan", "empty"],
    )
    def test_value_checks(self, rows, message):
        # A non-finite value is reported before a negative one. A 0x0 map
        # used to be accepted, and `store_depth` then wrote a file that
        # `load_depth` refuses.
        data = np.array(rows, dtype=np.float32)
        h, w = data.shape
        with pytest.raises(ValueError, match=message):
            DepthMap(w, h, data)

    def test_value_beyond_float32_rejected(self):
        # The float32 cast used to end in an overflow warning, not this error.
        with pytest.raises(ValueError, match="depth values must be finite"):
            DepthMap(2, 1, np.array([[1e300, 1.0]]))

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


def assert_scaling_law(mesh, pose, intr, sigma):
    """The render slid by `sigma` and scaled by its `mu` covers the same
    pixels, each at `mu` times the depth of the unmoved render."""
    moved, mu = apply_sigma_to_pose(pose, sigma)
    d0 = render_depth(mesh, pose, intr)
    ds = render_depth(mesh, moved, intr, scale=mu)
    s0, s1 = pixel_support(d0), pixel_support(ds)
    assert len(s0) > 100
    assert len(np.setxor1d(s0, s1)) < 0.02 * len(s0)
    common = np.intersect1d(s0, s1)
    ratio = ds.data.ravel()[common].astype(np.float64) / (
        mu * d0.data.ravel()[common].astype(np.float64)
    )
    assert np.abs(ratio - 1.0).max() < 1e-6


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
            assert_scaling_law(mesh, pose, INTR, sigma)

    @pytest.mark.parametrize("mesh_id", ["apple", "sphere", "cube"])
    def test_every_builtin_mesh_at_random_intrinsics(self, mesh_id):
        mesh, dims = builtin_model(mesh_id)
        size = float(dims.as_array().max())
        rng = np.random.default_rng(12)
        for _ in range(40):
            width, height = (int(n) for n in rng.integers(64, 321, size=2))
            fx = rng.uniform(0.8, 1.6) * width
            fy = fx * rng.uniform(0.9, 1.1)
            cx, cy = width * rng.uniform(0.4, 0.6), height * rng.uniform(0.4, 0.6)
            intr = CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=width, height=height)
            # The object spans 30-70% of the shorter side, near the frame's
            # center, so its support holds hundreds of pixels.
            z = min(fx, fy) * size / (rng.uniform(0.3, 0.7) * min(width, height))
            u, v = width * rng.uniform(0.4, 0.6), height * rng.uniform(0.4, 0.6)
            pose = Pose(
                np.array([(u - cx) * z / fx, (v - cy) * z / fy, z]), random_quaternion(rng)
            )
            assert_scaling_law(mesh, pose, intr, rng.uniform(-0.6, 0.6) * z)


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


def render_oracle_bytes(mesh, pose, intr, scale=1.0) -> DepthMap:
    """`render_depth`, checked byte for byte against `reference_render_depth`,
    which expands every box pixel by pixel with the same float64 operations
    on the same operands."""
    got = render_depth(mesh, pose, intr, scale)
    assert got.data.tobytes() == reference_render_depth(mesh, pose, intr, scale).data.tobytes()
    return got


class TestReferenceOracle:
    @settings(max_examples=300, deadline=None)
    @given(soup_scenes)
    def test_soup_renders_oracle_bytes(self, p):
        _, mesh, pose, intr, scale = soup_scene(p)
        render_oracle_bytes(mesh, pose, intr, scale)

    @settings(max_examples=200, deadline=None)
    @given(
        points=st.lists(
            st.tuples(grid_points, st.sampled_from([1.0, 2.0, 4.0])), min_size=3, max_size=8
        ),
        picks=st.lists(st.tuples(*[st.integers(0, 7)] * 3), min_size=1, max_size=12),
    )
    def test_lattice_ties_render_oracle_bytes(self, points, picks):
        # Corners on the half-pixel lattice put pixel centers exactly on
        # edges, where only the top-left rule decides coverage.
        verts = np.array([
            [(u / 2 - GRID.cx) * z / GRID.fx, (v / 2 - GRID.cy) * z / GRID.fy, z]
            for (u, v), z in points
        ])
        mesh = TriangleMesh(verts, np.array(picks) % len(points))
        render_oracle_bytes(mesh, Pose(np.zeros(3), UnitQuaternion.identity()), GRID)

    def test_tabletop_scenes_render_oracle_bytes(self):
        # Full 640x480 frames: the apple at each scene's true pose and scale,
        # and at the coarse pose the refiner renders.
        mesh, _ = builtin_model("apple")
        for spec in default_sweep(depth_noise=0.002, seed=1):
            _, coarse = generate_scene(spec, INTR)
            for pose, scale in ((spec.true_pose, spec.true_scale), (coarse, 1.0)):
                assert render_oracle_bytes(mesh, pose, INTR, scale).valid_mask.sum() > 1000

    def test_vertices_at_or_behind_camera_raise_no_warning(self):
        # Vertices exactly at z = 0, behind the camera and inside the near
        # plane are used only by triangles that are dropped; the projection
        # must not divide by them.
        sq = square_mesh(0.05)
        verts = np.vstack([
            sq.vertices + [0.0, 0.0, 0.6],
            [[0.0, 0.0, 0.0], [0.1, 0.0, -0.3], [0.0, 0.1, 5e-5], [-0.1, 0.0, 0.0]],
        ])
        tris = np.vstack([sq.triangles, [[0, 1, 4], [1, 2, 5], [2, 4, 6], [4, 5, 7]]])
        mesh = TriangleMesh(verts, tris)
        pose = Pose(np.zeros(3), UnitQuaternion.identity())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert render_oracle_bytes(mesh, pose, INTR).valid_mask.sum() > 100


def rasterize_oracle(mesh, pose, intr, scale=1.0):
    """`_rasterize`, checked against the support and gathered depths of
    `reference_render_depth`."""
    support, depths = renderer._rasterize(mesh, pose, intr, scale)
    want = reference_render_depth(mesh, pose, intr, scale)
    want_support = pixel_support(want)
    assert support.dtype == np.int64 and depths.dtype == np.float32
    assert support.tobytes() == want_support.tobytes()
    assert depths.tobytes() == want.data.ravel()[want_support].tobytes()
    return support, depths


class TestRasterize:
    @settings(max_examples=200, deadline=None)
    @given(soup_scenes, st.sampled_from([1, 5, 64, renderer._FRAGMENT_BLOCK]))
    def test_soup_matches_oracle(self, p, block):
        # Small blocks split the soups' triangles into many runs.
        _, mesh, pose, intr, scale = soup_scene(p)
        with mock.patch.object(renderer, "_FRAGMENT_BLOCK", block):
            rasterize_oracle(mesh, pose, intr, scale)

    def test_triangle_larger_than_a_block_runs_alone(self):
        # A triangle 200 px wide and tall behind the apple, between its
        # triangles in the mesh order: its box alone holds more than a block.
        apple, _ = builtin_model("apple")
        half = 100.0 * 0.6 / INTR.fx
        big = np.array([[-half, -half, 0.1], [half, -half, 0.1], [0.0, half, 0.1]])
        n = len(apple.vertices)
        mid = len(apple.triangles) // 2
        tris = np.vstack([apple.triangles[:mid], [[n, n + 1, n + 2]], apple.triangles[mid:]])
        mesh = TriangleMesh(np.vstack([apple.vertices, big]), tris)
        pose = Pose(np.array([0.01, -0.02, 0.5]), UnitQuaternion.identity())
        support, _ = rasterize_oracle(mesh, pose, INTR)
        assert support.size > renderer._FRAGMENT_BLOCK

    def test_window_touching_all_four_borders(self):
        # The square overfills the frame: the window is the whole frame, and
        # the box of each of its two triangles holds far more than a block.
        support, depths = rasterize_oracle(square_mesh(1.0), frontal_pose(1.0), INTR)
        assert support.size == INTR.width * INTR.height
        assert np.all(depths == np.float32(1.0))

    @pytest.mark.parametrize("position", [[0.0, 0.0, -1.0], [0.0, 3.0, 1.0], [5.0, 0.0, 1.0]])
    def test_all_culled_mesh_gives_empty_arrays(self, position):
        mesh, _ = builtin_model("apple")
        pose = Pose(np.array(position), UnitQuaternion.identity())
        support, depths = rasterize_oracle(mesh, pose, INTR)
        assert support.shape == depths.shape == (0,)

    def test_depth_beyond_float32_raises_as_depth_map_does(self):
        # Every vertex is finite, but 5e38 m overflows float32.
        pose = frontal_pose(5e38)
        with pytest.raises(ValueError, match="depth values must be finite"):
            renderer._rasterize(square_mesh(1e38), pose, INTR)
        with pytest.raises(ValueError, match="depth values must be finite"):
            render_depth(square_mesh(1e38), pose, INTR)

    @pytest.mark.parametrize("coord, scale", [(1e300, 1e10), (1e307, 1.0)], ids=["posed", "projected"])
    def test_vertex_beyond_float64_raises(self, coord, scale):
        # Finite vertices whose posed (scaled) or projected coordinates
        # overflow float64 used to end in an overflow warning.
        mesh = TriangleMesh(np.array([[0, 0, coord], [coord, 0, -coord], [0, coord, 0]]),
                            np.array([[0, 1, 2]]))
        with pytest.raises(ValueError, match="mesh vertices must be finite once posed"):
            render_depth(mesh, frontal_pose(0.5), INTR, scale=scale)

    @pytest.mark.parametrize("render", [render_depth, renderer._rasterize], ids=["render_depth", "_rasterize"])
    def test_far_triangle_raises(self, render):
        # Finite corners projecting near 1e163 pixels used to overflow twice
        # the area and the edge functions into a warning or a wrong render.
        mesh = TriangleMesh(np.array([[0, 0, 0], [1e160, 0, 0], [0, 1e160, 0]]), np.array([[0, 1, 2]]))
        with pytest.raises(ValueError, match="project within 1e150 pixels"):
            render(mesh, frontal_pose(0.5), INTR)

    def test_bound_keeps_a_triangle_just_inside(self):
        # Corners near 1e150 pixels still render; the triangle covers the
        # frame's left half at its own depth.
        x = 0.99e150 * 0.5 / INTR.fx
        mesh = TriangleMesh(np.array([[0.0, -x, 0.0], [0.0, x, 0.0], [-x, 0.0, 0.0]]), np.array([[0, 1, 2]]))
        d = render_depth(mesh, frontal_pose(0.5), INTR)
        assert d.valid_mask[:, :320].all() and not d.valid_mask[:, 320:].any()
        assert (d.data[d.valid_mask] == np.float32(0.5)).all()


class TestTransientMemory:
    def test_largest_pick_render_in_bounded_memory(self):
        # The coarse pose of the largest apple of the pick sweep: 52,274
        # fragments in the triangles' pixel-center boxes. Expanding them in
        # blocks into a z-buffer over the object's window keeps the peak near
        # 1.35 MB, most of it the output frame; expanding all of them at once
        # into a full-frame z-buffer took 2.9 MB.
        mesh, _ = builtin_model("apple")
        spec = default_sweep(seed=1)[-1]
        assert spec.true_scale == 1.011
        coarse = simulate_rgb_estimate(spec.true_pose, spec.true_scale)
        want = render_depth(mesh, coarse, INTR)
        got, peak = traced_peak(lambda: render_depth(mesh, coarse, INTR))
        assert got.data.tobytes() == want.data.tobytes()
        assert peak < 2_200_000

    def test_dense_render_in_bounded_memory(self):
        # The 50,880-triangle mesh at its tabletop pose, where 24,108
        # triangles survive the cull. Culling before any (3, T) corner array
        # and swapping corners in place keeps the peak near 6.3 MB (7.7 MB
        # with every fragment expanded at once into a full-frame z-buffer);
        # corner arrays of every triangle took 11.0 MB.
        mesh = dense_mesh()
        pose = tabletop_scene("dense", 0.793).true_pose
        want = reference_render_depth(mesh, pose, INTR, scale=0.793)
        got, peak = traced_peak(lambda: render_depth(mesh, pose, INTR, scale=0.793))
        assert got.valid_mask.sum() > 5000
        assert got.data.tobytes() == want.data.tobytes()
        assert peak < 9_000_000


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
