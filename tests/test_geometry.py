"""Quaternion algebra, poses, projection, and the slide-and-scale transform."""

import dataclasses
import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthrefine import (
    CameraIntrinsics,
    CuboidDims,
    DepthMap,
    GraspSamplingConfig,
    Pose,
    RefineConfig,
    SceneSpec,
    UnitQuaternion,
    apply_sigma_to_pose,
    builtin_model,
    generate_scene,
    quat_mul,
    refine,
    sample_candidates,
    transform_point,
)
from depthrefine.fileio import _F32_MAX, _F32_TINY, _scale_depths
from depthrefine.geometry import as_vec3, quat_to_matrix, quat_y, quat_z
from depthrefine.harness import ellipsoid_mesh, simulate_rgb_estimate, tabletop_scene
from depthrefine.renderer import _rasterize
from helpers import (
    conjugate,
    project,
    random_quaternion,
    reference_normalize,
    reference_rotate,
    square_mesh,
)


class TestUnitQuaternion:
    def test_identity(self):
        q = UnitQuaternion.identity()
        assert (q.w, q.x, q.y, q.z) == (1.0, 0.0, 0.0, 0.0)

    def test_normalizes_small_deviation(self):
        q = UnitQuaternion(1.0 + 5e-4, 0.0, 0.0, 0.0)
        assert math.isclose(np.linalg.norm(q.as_array()), 1.0, abs_tol=1e-15)

    def test_rejects_far_from_unit(self):
        with pytest.raises(ValueError):
            UnitQuaternion(0.5, 0.0, 0.0, 0.0)

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            for slot in range(4):
                q = [0.5, 0.5, 0.5, 0.5]
                q[slot] = bad
                with pytest.raises(ValueError, match="must be finite"):
                    UnitQuaternion(*q)

    @pytest.mark.parametrize("huge", [1e200, -1e200, 1.7e308])
    def test_huge_component_rejected_without_warning(self, huge):
        # Squaring 1e200 overflows; the norm check must not warn on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too far from 1"):
                UnitQuaternion(0.5, huge, 0.5, 0.5)

    @settings(max_examples=500, deadline=None)
    @given(
        direction=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
        stretch=st.floats(-9e-4, 9e-4),
        negate_w=st.booleans(),
    )
    def test_normalization_matches_linalg_norm_oracle(self, direction, stretch, negate_w):
        # Near-unit inputs of either sign of w normalize to the bits of the
        # `np.linalg.norm` form, sign flip included.
        length = math.sqrt(sum(c * c for c in direction))
        if length < 1e-3:
            return
        w, x, y, z = (c * (1.0 + stretch) / length for c in direction)
        w = -abs(w) if negate_w else abs(w)
        got = UnitQuaternion(w, x, y, z)
        want = reference_normalize(w, x, y, z)
        assert np.array([got.w, got.x, got.y, got.z]).tobytes() == np.array(want).tobytes()

    def test_canonical_sign(self):
        q = UnitQuaternion(-1.0, 0.0, 0.0, 0.0)
        assert q.w == 1.0
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert random_quaternion(rng).w >= 0.0

    def test_conjugate_inverts_rotation(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            q = random_quaternion(rng)
            v = rng.normal(size=3)
            back = quat_to_matrix(conjugate(q)) @ (quat_to_matrix(q) @ v)
            assert np.allclose(back, v, atol=1e-12)


class TestQuatMul:
    def test_identity_neutral(self):
        q = quat_z(0.7)
        r = quat_mul(UnitQuaternion.identity(), q)
        assert np.allclose(r.as_array(), q.as_array(), atol=1e-15)

    def test_angle_addition(self):
        r = quat_mul(quat_z(math.pi / 2), quat_z(math.pi / 2))
        assert np.allclose(r.as_array(), quat_z(math.pi).as_array(), atol=1e-12)

    def test_matches_matrix_product_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = random_quaternion(rng), random_quaternion(rng)
            got = quat_to_matrix(quat_mul(a, b))
            want = quat_to_matrix(a) @ quat_to_matrix(b)
            assert np.abs(got - want).max() < 1e-9

    def test_associative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b, c = (random_quaternion(rng) for _ in range(3))
            left = quat_mul(quat_mul(a, b), c)
            right = quat_mul(a, quat_mul(b, c))
            assert np.abs(left.as_array() - right.as_array()).max() < 1e-9


class TestRotate:
    """Points rotate by `quat_to_matrix`, in `transform_point` as in the renderer."""

    def test_identity(self):
        p = transform_point(Pose(np.zeros(3), UnitQuaternion.identity()), (1.0, 2.0, 3.0))
        assert p.tolist() == [1.0, 2.0, 3.0]

    def test_elementary_z(self):
        p = transform_point(Pose(np.zeros(3), quat_z(math.pi / 2)), (1.0, 0.0, 0.0))
        assert np.allclose(p, [0, 1, 0], atol=1e-12)

    def test_matches_matrix_oracle_and_preserves_norm(self):
        # The renderer poses vertex rows as `vertices @ R.T`.
        rng = np.random.default_rng(4)
        for _ in range(100):
            q = random_quaternion(rng)
            v = rng.normal(size=3)
            got = transform_point(Pose(np.zeros(3), q), v)
            assert np.abs(got - (v[None] @ quat_to_matrix(q).T)[0]).max() < 1e-15
            assert math.isclose(np.linalg.norm(got), np.linalg.norm(v), rel_tol=1e-12)

    def test_matches_cross_product_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            q = random_quaternion(rng)
            v = rng.normal(size=3) * 10.0 ** rng.uniform(-3, 3)
            t = rng.normal(size=3)
            got = transform_point(Pose(t, q), v)
            bound = 1e-14 * (np.linalg.norm(v) + np.linalg.norm(t))
            assert np.abs(got - (reference_rotate(q, v) + t)).max() <= bound

    def test_tabletop_camera_exact(self):
        # The tabletop camera is a half turn about x: both rotation forms
        # negate y and z exactly, so world positions keep every bit.
        camera = tabletop_scene("t", 0.8).camera_pose
        rng = np.random.default_rng(6)
        for _ in range(200):
            x, y, z = v = rng.normal(size=3) * 10.0 ** rng.uniform(-3, 3)
            got = transform_point(camera, v)
            assert got.tobytes() == (reference_rotate(camera.orientation, v) + camera.position).tobytes()
            assert got.tobytes() == (np.array([x, -y, -z]) + camera.position).tobytes()

    def test_rejects_non_finite_point(self):
        with pytest.raises(ValueError, match="must be finite"):
            transform_point(Pose(np.zeros(3), UnitQuaternion.identity()), (0.0, np.nan, 1.0))


class TestAsVec3:
    def test_non_finite_component_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            for k in range(3):
                v = [0.1, -0.2, 0.3]
                v[k] = bad
                with pytest.raises(ValueError, match="must be finite"):
                    as_vec3(v)

    def test_wrong_shape_rejected(self):
        for shape in ((2,), (3, 1)):
            with pytest.raises(ValueError, match="expected a 3-vector"):
                as_vec3(np.zeros(shape))


class TestPose:
    def test_transform_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pose = Pose(rng.normal(size=3), random_quaternion(rng))
            p = rng.normal(size=3)
            back = quat_to_matrix(conjugate(pose.orientation)) @ (transform_point(pose, p) - pose.position)
            assert np.allclose(back, p, atol=1e-12)

    def test_rejects_non_finite_position(self):
        with pytest.raises(ValueError):
            Pose(np.array([0.0, np.inf, 1.0]), UnitQuaternion.identity())

    def test_rejects_non_quaternion_orientation(self):
        with pytest.raises(ValueError):
            Pose(np.zeros(3), (1.0, 0.0, 0.0, 0.0))


class TestCameraIntrinsics:
    def test_validation(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=-1.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=600.0, fy=600.0, cx=700.0, cy=240.0, width=640, height=480)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=-1.0, width=640, height=480)

    def test_image_size_must_be_integral(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640.7, height=480)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480.5)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=math.inf, height=480)
        # An int too large for a float used to raise OverflowError.
        with pytest.raises(ValueError, match="height"):
            CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=10**400)
        intr = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640.0, height=480)
        assert (intr.width, intr.height) == (640, 480)
        assert isinstance(intr.width, int)


class TestCuboidDims:
    def test_scaled(self):
        d = CuboidDims(0.092, 0.080, 0.092).scaled(0.5)
        assert np.allclose(d.as_array(), [0.046, 0.040, 0.046], atol=1e-15)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            CuboidDims(0.1, 0.0, 0.1)


def intrinsics(**fields):
    return CameraIntrinsics(**{"fx": 600.0, "fy": 600.0, "cx": 320.0, "cy": 240.0,
                               "width": 640, "height": 480, **fields})


FRONTAL = Pose(np.array([0.0, 0.0, 0.5]), UnitQuaternion.identity())

# (field, build): one site of the positive-real rule each, built from the
# value under test.
POSITIVE_SITES = {
    "CameraIntrinsics.fx": ("fx", lambda x: intrinsics(fx=x)),
    "CameraIntrinsics.fy": ("fy", lambda x: intrinsics(fy=x)),
    "CuboidDims.dx": ("dx", lambda x: CuboidDims(x, 0.08, 0.092)),
    "CuboidDims.dy": ("dy", lambda x: CuboidDims(0.092, x, 0.092)),
    "CuboidDims.dz": ("dz", lambda x: CuboidDims(0.092, 0.08, x)),
    "CuboidDims.scaled": ("scale factor", lambda x: CuboidDims(0.092, 0.08, 0.092).scaled(x)),
    "_rasterize": ("scale", lambda x: _rasterize(square_mesh(), FRONTAL, intrinsics(), x)),
    "RefineConfig": ("inlier_threshold", lambda x: RefineConfig(inlier_threshold=x)),
    "GraspSamplingConfig": ("radius", lambda x: GraspSamplingConfig(radius=x)),
    "ellipsoid_mesh": ("radius", lambda x: ellipsoid_mesh((0.05, x, 0.05))),
    "SceneSpec": ("true_scale", lambda x: dataclasses.replace(SceneSpec("t", 0.8), true_scale=x)),
    "simulate_rgb_estimate": ("true_scale", lambda x: simulate_rgb_estimate(FRONTAL, x)),
    "tabletop_scene.true_scale": ("true_scale", lambda x: tabletop_scene("t", x)),
    "tabletop_scene.object_depth": ("object_depth", lambda x: tabletop_scene("t", 0.8, object_depth=x)),
}

# The same for the count rule.
COUNT_SITES = {
    "CameraIntrinsics.width": ("width", lambda n: intrinsics(width=n)),
    "CameraIntrinsics.height": ("height", lambda n: intrinsics(height=n)),
    "GraspSamplingConfig.alpha_samples": ("alpha_samples", lambda n: GraspSamplingConfig(0.15, alpha_samples=n)),
    "GraspSamplingConfig.theta_samples": ("theta_samples", lambda n: GraspSamplingConfig(0.15, theta_samples=n)),
    "DepthMap.width": ("width", lambda n: DepthMap(n, 1, np.zeros((1, 0)))),
    "DepthMap.height": ("height", lambda n: DepthMap(1, n, np.zeros((0, 1)))),
    "ellipsoid_mesh.rings": ("rings", lambda n: ellipsoid_mesh((0.05, 0.05, 0.05), rings=n)),
    "ellipsoid_mesh.segments": ("segments", lambda n: ellipsoid_mesh((0.05, 0.05, 0.05), segments=n)),
}

# The non-negative reals and the seed, a whole number: 0 passes, as the defaults show.
NON_NEGATIVE_SITES = {
    "SceneSpec.depth_noise": ("depth_noise", lambda x: SceneSpec("t", 0.8, depth_noise=x)),
    "SceneSpec.shape_noise": ("shape_noise", lambda x: SceneSpec("t", 0.8, shape_noise=x)),
    "SceneSpec.seed": ("seed", lambda n: SceneSpec("t", 0.8, seed=n)),
}

# Reals that may be infinite, or of any sign, but not beyond float range.
# The occluder offset is read even when there is no occluder.
FLOAT_RANGE_SITES = {
    "SceneSpec.occluder_offset": ("occluder_offset", lambda x: SceneSpec("t", 0.8, occluder_offset=x)),
    "GraspSamplingConfig.table_height": (
        "table_height", lambda x: GraspSamplingConfig(0.15, table_height=x)),
    "apply_sigma_to_pose": ("sigma", lambda x: apply_sigma_to_pose(FRONTAL, x)),
}

# Reals in a stated interval, with a value just below and just above it.
INTERVAL_SITES = {
    "RefineConfig.bound_fraction": (
        "bound_fraction", lambda x: RefineConfig(bound_fraction=x), (0.0, 1.0)),
    "RefineConfig.min_inlier_fraction": (
        "min_inlier_fraction", lambda x: RefineConfig(min_inlier_fraction=x),
        (0.0, math.nextafter(1.0, 2.0))),
    "GraspSamplingConfig.theta_max": (
        "theta_max", lambda x: GraspSamplingConfig(0.15, theta_max=x),
        (0.0, math.nextafter(math.pi, 4.0))),
    "SceneSpec.occluder_fraction": (
        "occluder_fraction", lambda x: SceneSpec("t", 0.8, occluder_fraction=x),
        (math.nextafter(0.0, -1.0), 1.0)),
    "CameraIntrinsics.cx": ("cx", lambda x: intrinsics(cx=x), (0.0, 640.0)),
    "CameraIntrinsics.cy": ("cy", lambda x: intrinsics(cy=x), (0.0, 480.0)),
    "_scale_depths": (
        "--depth-scale", lambda x: _scale_depths(np.ones((1, 1), np.float32), x, "--depth-scale"),
        (math.nextafter(_F32_TINY, 0.0), math.nextafter(_F32_MAX, math.inf))),
}

# Vectors and quaternions, whose components must be finite.
VECTOR_SITES = {
    "as_vec3": ("vector components", lambda x: as_vec3([x, 0, 0])),
    "Pose": ("vector components", lambda x: Pose([0, 0, x], UnitQuaternion.identity())),
    "UnitQuaternion": ("quaternion components", lambda x: UnitQuaternion(x, 0, 0, 0)),
    "sample_candidates": (
        "vector components", lambda x: sample_candidates([0, 0, x], GraspSamplingConfig(0.15))),
}

# One site of each rule, for a value that is no number at all.
NON_NUMBER_SITES = {
    "positive": POSITIVE_SITES["RefineConfig"],
    "count": COUNT_SITES["GraspSamplingConfig.alpha_samples"],
    "non-negative": NON_NEGATIVE_SITES["SceneSpec.seed"],
    "float range": FLOAT_RANGE_SITES["SceneSpec.occluder_offset"],
    "interval": INTERVAL_SITES["RefineConfig.bound_fraction"][:2],
}

# One site of each rule, for a bool: a number to the numbers module, but no
# length, count or seed.
BOOL_SITES = {**NON_NUMBER_SITES, "quaternion": VECTOR_SITES["UnitQuaternion"]}

# Every real field of the five frozen types, by its site above, at a value
# that a Decimal, a Fraction and a float32 hold exactly.
REAL_VALUES = {
    "CameraIntrinsics.fx": 600, "CameraIntrinsics.fy": 512.5,
    "CameraIntrinsics.cx": 320, "CameraIntrinsics.cy": 239.5,
    "CuboidDims.dx": 0.125, "CuboidDims.dy": 1, "CuboidDims.dz": 0.0625,
    "RefineConfig.bound_fraction": 0.5, "RefineConfig": 0.0078125, "RefineConfig.min_inlier_fraction": 1,
    "GraspSamplingConfig": 0.25, "GraspSamplingConfig.theta_max": 1, "GraspSamplingConfig.table_height": -2,
    "SceneSpec": 0.75, "tabletop_scene.object_depth": 1, "SceneSpec.occluder_fraction": 0.25,
    "SceneSpec.occluder_offset": 0, "SceneSpec.depth_noise": 0.001953125, "SceneSpec.shape_noise": 2,
}
REAL_SITES = {**POSITIVE_SITES, **NON_NEGATIVE_SITES, **FLOAT_RANGE_SITES,
              **{site: entry[:2] for site, entry in INTERVAL_SITES.items()}}
REAL_FORMS = {"int": int, "Decimal": Decimal, "Fraction": Fraction, "float32": np.float32}
# An int only where it holds the value.
REAL_CASES = [(site, form) for site, value in REAL_VALUES.items()
              for form in REAL_FORMS if form != "int" or value == int(value)]

# The same for every count and the seed of those types, each a whole number.
COUNT_VALUES = {"CameraIntrinsics.width": 641, "CameraIntrinsics.height": 481,
                "GraspSamplingConfig.alpha_samples": 6, "GraspSamplingConfig.theta_samples": 3,
                "SceneSpec.seed": 7}
COUNT_FIELDS = {**COUNT_SITES, "SceneSpec.seed": NON_NEGATIVE_SITES["SceneSpec.seed"]}
COUNT_FORMS = {"float": float, "Decimal": Decimal, "Fraction": Fraction, "int64": np.int64, "float32": np.float32}

NOT_POSITIVE = {"0": 0, "-1": -1, "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "10**400": 10**400}
NEGATIVE = {k: v for k, v in NOT_POSITIVE.items() if k != "0"}
NOT_POSITIVE_FLOATS = {k: v for k, v in NOT_POSITIVE.items() if k != "10**400"}


class TestNumberRules:
    """Every positive length, scale and count, every non-negative noise and
    seed, every real that must stay within float range or in an interval,
    and every vector and quaternion component is checked by its rule, whose
    error names the field: no other exception, and no numpy warning. A field
    keeps what its rule returns: a float for a real, an int for a count."""

    @staticmethod
    def assert_refused(field, build, value, got=""):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{field} must be" + (f".*, got {got}$" if got else "")):
                build(value)

    @pytest.mark.parametrize("value", NOT_POSITIVE.values(), ids=NOT_POSITIVE.keys())
    @pytest.mark.parametrize("site", POSITIVE_SITES)
    def test_positive_real_refused(self, site, value):
        # An inf radius used to end in a RuntimeWarning, 10**400 in an
        # OverflowError, and fx=inf in an error naming no field.
        self.assert_refused(*POSITIVE_SITES[site], value)

    @pytest.mark.parametrize("value", [*NOT_POSITIVE.values(), 0.5], ids=[*NOT_POSITIVE.keys(), "0.5"])
    @pytest.mark.parametrize("site", COUNT_SITES)
    def test_count_refused(self, site, value):
        # A 0-width DepthMap used to be accepted, and a 0-width
        # CameraIntrinsics to give an error naming no field; rings=2.5 ended
        # in a TypeError from range.
        self.assert_refused(*COUNT_SITES[site], value)

    @pytest.mark.parametrize("value", NEGATIVE.values(), ids=NEGATIVE.keys())
    @pytest.mark.parametrize("site", NON_NEGATIVE_SITES)
    def test_non_negative_refused(self, site, value):
        # 10**400 used to end in an OverflowError, and seed=-1 in a numpy
        # error naming no field.
        self.assert_refused(*NON_NEGATIVE_SITES[site], value)

    def test_fractional_seed_refused(self):
        # Used to end in a TypeError from numpy.
        self.assert_refused(*NON_NEGATIVE_SITES["SceneSpec.seed"], 1.5)

    @pytest.mark.parametrize("site", FLOAT_RANGE_SITES)
    def test_beyond_float_range_refused(self, site):
        # Each used to end in an OverflowError.
        self.assert_refused(*FLOAT_RANGE_SITES[site], 10**400)

    @pytest.mark.parametrize("site", FLOAT_RANGE_SITES)
    def test_nan_refused(self, site):
        # A NaN offset at fraction 0 used to be kept unchecked.
        self.assert_refused(*FLOAT_RANGE_SITES[site], math.nan)

    @pytest.mark.parametrize("value", NOT_POSITIVE_FLOATS.values(), ids=NOT_POSITIVE_FLOATS.keys())
    def test_occluder_depth_refused(self, value):
        # The occluder stands `occluder_offset` in front of the object, so
        # this offset puts it at depth `value`. An infinite depth used to
        # pass and leave the scene unoccluded. A NaN offset fails on its own
        # rule first.
        def build(x):
            return SceneSpec("t", 0.8, object_depth=1.0, occluder_fraction=0.2, occluder_offset=1.0 - x)

        self.assert_refused("occluder_offset" if math.isnan(value) else "occluder depth", build, value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "10**400", "10**5000", "below", "above"])
    @pytest.mark.parametrize("site", INTERVAL_SITES)
    def test_interval_refused(self, site, value):
        # A message that printed all 5,000 digits of an int would raise
        # Python's own ValueError, which names no field.
        field, build, (below, above) = INTERVAL_SITES[site]
        bad = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "10**400": 10**400,
               "10**5000": 10**5000, "below": below, "above": above}[value]
        self.assert_refused(field, build, bad, "an int beyond float range" if "**" in value else "")

    @pytest.mark.parametrize("site", INTERVAL_SITES)
    def test_interval_bounds_accepted(self, site):
        # The closed ends of each interval, and the values just inside the open ones.
        _, build, (below, above) = INTERVAL_SITES[site]
        build(math.nextafter(below, math.inf))
        build(math.nextafter(above, -math.inf))

    @pytest.mark.parametrize("value", [math.nan, math.inf, 10**400], ids=["nan", "inf", "10**400"])
    @pytest.mark.parametrize("site", VECTOR_SITES)
    def test_vector_component_refused(self, site, value):
        # 10**400 used to end in an OverflowError from numpy.
        self.assert_refused(*VECTOR_SITES[site], value)

    @pytest.mark.parametrize("value", ["0.5", None, np.array([0.5, 0.6])], ids=["str", "None", "array"])
    @pytest.mark.parametrize("site", NON_NUMBER_SITES)
    def test_non_number_refused(self, site, value):
        # Each used to end in a TypeError from math, or a ValueError from
        # numpy that named no field.
        self.assert_refused(*NON_NUMBER_SITES[site], value, re.escape(repr(value)))

    @pytest.mark.parametrize("value", [True, np.True_], ids=["True", "np.True_"])
    @pytest.mark.parametrize("site", BOOL_SITES)
    def test_bool_refused(self, site, value):
        # Each used to be kept as given, so inlier_threshold=True held True.
        self.assert_refused(*BOOL_SITES[site], value, re.escape(repr(value)))

    @pytest.mark.parametrize("site, form", REAL_CASES)
    def test_real_field_holds_a_float(self, site, form):
        # Each used to keep the value as given, and a Decimal then ended in a
        # TypeError naming no field once it met a float.
        field, build = REAL_SITES[site]
        got = getattr(build(REAL_FORMS[form](REAL_VALUES[site])), field)
        assert type(got) is float and got == REAL_VALUES[site]

    @pytest.mark.parametrize("site, value", [
        (INTERVAL_SITES["RefineConfig.bound_fraction"][:2], Decimal("0.99999999999999999999")),
        (POSITIVE_SITES["RefineConfig"], Decimal("1e400")),
    ], ids=["rounds onto an open end", "rounds to inf"])
    def test_refused_when_its_float_breaks_the_rule(self, site, value):
        # Each passes the rule as a Decimal, but its float is 1.0 or inf.
        self.assert_refused(*site, value, re.escape(repr(value)))

    @pytest.mark.parametrize("form", COUNT_FORMS)
    @pytest.mark.parametrize("site", COUNT_VALUES)
    def test_count_field_holds_an_int(self, site, form):
        field, build = COUNT_FIELDS[site]
        got = getattr(build(COUNT_FORMS[form](COUNT_VALUES[site])), field)
        assert type(got) is int and got == COUNT_VALUES[site]

    @pytest.mark.parametrize("form", [Decimal, Fraction], ids=["Decimal", "Fraction"])
    def test_pipeline_runs_on_any_real_form(self, form):
        # Scene, refinement and grasps built from Decimal or Fraction fields
        # give the bytes the float fields give; each stage used to end in a
        # TypeError naming no field.
        mesh, cad = builtin_model("apple")

        def run(real_of):
            intr = CameraIntrinsics(*map(real_of, (600.0, 600.0, 320.0, 240.0)), 640, 480)
            spec = SceneSpec("t", real_of(0.8), object_depth=real_of(0.55), occluder_fraction=real_of(0.2),
                             occluder_offset=real_of(0.1), depth_noise=real_of(0.002), seed=3)
            depth, coarse = generate_scene(spec, intr)
            dims = CuboidDims(*map(real_of, cad.as_array().tolist()))
            cfg = RefineConfig(*map(real_of, (0.8, 0.007, 0.3)))
            result = refine(coarse, mesh, dims, intr, depth, cfg)
            world = transform_point(spec.camera_pose, result.refined_pose.position)
            grasp_cfg = GraspSamplingConfig(real_of(0.15), theta_max=real_of(1.0), table_height=real_of(0.0))
            candidates = sample_candidates(world, grasp_cfg)
            return (depth.data.tobytes(), result.mu_opt.hex(), result.inliers.tobytes(),
                    result.estimated_dims, [c.position.tobytes() for c in candidates])

        assert run(lambda x: form(repr(x))) == run(float)


class TestSigmaTransform:
    """The slide along the camera ray, through `apply_sigma_to_pose`."""

    @staticmethod
    def slide(sigma, position):
        return apply_sigma_to_pose(Pose(position, UnitQuaternion.identity()), sigma)

    def test_translate_along_axis(self):
        moved, _ = self.slide(0.2, np.array([0.0, 0.0, 1.0]))
        assert np.allclose(moved.position, [0.0, 0.0, 0.8], atol=1e-15)

    def test_zero_sigma_is_identity(self):
        moved, _ = self.slide(0.0, np.array([0.3, 0.0, 0.4]))
        assert np.allclose(moved.position, [0.3, 0.0, 0.4], atol=1e-15)

    def test_off_axis_scaling(self):
        moved, _ = self.slide(0.1, np.array([0.3, 0.0, 0.4]))
        assert np.allclose(moved.position, [0.24, 0.0, 0.32], atol=1e-12)

    def test_scale_factor_values(self):
        assert self.slide(0.0, np.array([0.0, 0.0, 1.0]))[1] == 1.0
        assert math.isclose(self.slide(0.2, np.array([0.0, 0.0, 1.0]))[1], 0.8)
        assert math.isclose(self.slide(-0.1, np.array([0.0, 0.0, 0.5]))[1], 1.2)

    def test_result_collinear_with_norm_contract(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            position = rng.uniform(-1.0, 1.0, 3)
            position[2] = rng.uniform(0.3, 1.5)
            norm = np.linalg.norm(position)
            sigma = rng.uniform(-0.8, 0.8) * norm
            moved = self.slide(sigma, position)[0].position
            cross = np.cross(moved, position)
            assert np.abs(cross).max() < 1e-12
            assert math.isclose(np.linalg.norm(moved), norm - sigma, rel_tol=1e-12)

    def test_mu_affine_strictly_decreasing(self):
        position = np.array([0.1, -0.2, 0.7])
        norm = np.linalg.norm(position)
        sigmas = np.linspace(-0.5, 0.5, 11) * norm
        mus = [self.slide(s, position)[1] for s in sigmas]
        assert all(a > b for a, b in zip(mus, mus[1:]))
        # affine: second differences vanish
        second = np.diff(mus, n=2)
        assert np.abs(second).max() < 1e-12

    def test_round_trip_inverse_is_negated_sigma(self):
        # Sigma is an absolute displacement along the ray, so the exact
        # inverse is -sigma applied to the moved position. Sampling within
        # half the position distance keeps both legs inside the
        # |sigma| < ||p|| validity region.
        rng = np.random.default_rng(7)
        for _ in range(50):
            position = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(0.4, 1.2)])
            sigma = rng.uniform(-0.45, 0.45) * np.linalg.norm(position)
            moved = self.slide(sigma, position)[0].position
            back = self.slide(-sigma, moved)[0].position
            assert np.abs(back - position).max() < 1e-12

    def test_non_finite_sigma_rejected(self):
        for sigma in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                self.slide(sigma, np.array([0.0, 0.0, 1.0]))

    def test_zero_anchor_rejected(self):
        with pytest.raises(ValueError):
            self.slide(0.1, np.zeros(3))

    def test_sigma_at_anchor_distance_rejected(self):
        with pytest.raises(ValueError):
            self.slide(1.0, np.array([0.0, 0.0, 1.0]))


class TestApplySigmaToPose:
    def test_zero_sigma(self):
        pose = Pose(np.array([0.0, 0.0, 0.6]), quat_z(0.3))
        moved, mu = apply_sigma_to_pose(pose, 0.0)
        assert mu == 1.0
        assert np.allclose(moved.position, pose.position, atol=1e-15)
        assert moved.orientation == pose.orientation

    def test_halfway(self):
        pose = Pose(np.array([0.0, 0.0, 0.6]), quat_y(0.8))
        moved, mu = apply_sigma_to_pose(pose, 0.3)
        assert math.isclose(mu, 0.5, rel_tol=1e-12)
        assert np.allclose(moved.position, [0.0, 0.0, 0.3], atol=1e-12)
        assert moved.orientation == pose.orientation

    def test_world_point_identity(self):
        # Moving the pose and shrinking the model scales every world point
        # by mu about the camera origin.
        rng = np.random.default_rng(8)
        for _ in range(50):
            pose = Pose(
                np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), rng.uniform(0.4, 1.0)]),
                random_quaternion(rng),
            )
            sigma = rng.uniform(-0.6, 0.6) * np.linalg.norm(pose.position)
            moved, mu = apply_sigma_to_pose(pose, sigma)
            v = rng.uniform(-0.05, 0.05, 3)
            rotated = quat_to_matrix(pose.orientation) @ v
            lhs = moved.position + mu * rotated
            rhs = mu * (pose.position + rotated)
            assert np.abs(lhs - rhs).max() < 1e-12


class TestProject:
    INTR = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)

    def test_optical_axis(self):
        assert project(self.INTR, (0.0, 0.0, 1.0)) == (320.0, 240.0, 1.0)

    def test_offset_point(self):
        u, v, depth = project(self.INTR, (0.1, 0.0, 1.0))
        assert math.isclose(u, 370.0, abs_tol=1e-12)
        assert math.isclose(v, 240.0, abs_tol=1e-12)
        assert depth == 1.0

    def test_scaled_point_same_pixel(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            p = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(0.2, 2.0)])
            mu = rng.uniform(0.3, 2.5)
            u0, v0, d0 = project(self.INTR, p)
            u1, v1, d1 = project(self.INTR, mu * p)
            assert math.isclose(u0, u1, abs_tol=1e-9)
            assert math.isclose(v0, v1, abs_tol=1e-9)
            assert math.isclose(d1, mu * d0, rel_tol=1e-12)

    def test_behind_camera_rejected(self):
        with pytest.raises(ValueError):
            project(self.INTR, (0.0, 0.0, -0.5))
        with pytest.raises(ValueError):
            project(self.INTR, (0.1, 0.1, 0.0))


class TestProjectionInvariance:
    def test_pixels_fixed_depth_scaled(self):
        # The defining identity: after the slide-and-scale move, every
        # model vertex projects to the same pixel with depth scaled by mu.
        intr = CameraIntrinsics(fx=600.0, fy=580.0, cx=310.0, cy=250.0, width=640, height=480)
        rng = np.random.default_rng(10)
        for _ in range(100):
            pose = Pose(
                np.array([rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15), rng.uniform(0.35, 1.0)]),
                random_quaternion(rng),
            )
            sigma = rng.uniform(-0.7, 0.7) * float(pose.position[2])
            moved, mu = apply_sigma_to_pose(pose, sigma)
            v = rng.uniform(-0.05, 0.05, 3)
            world = transform_point(pose, v)
            if world[2] * mu <= 0.0:
                continue
            scaled = moved.position + mu * (quat_to_matrix(pose.orientation) @ v)
            u0, v0, d0 = project(intr, world)
            u1, v1, d1 = project(intr, scaled)
            assert abs(u1 - u0) < 1e-6 and abs(v1 - v0) < 1e-6
            assert abs(d1 / (mu * d0) - 1.0) < 1e-9
