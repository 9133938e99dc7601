"""Synthetic end-to-end evaluation of the refinement pipeline.

Builds ground-truth tabletop scenes from built-in meshes, simulates the
scale-blind RGB estimator (a smaller object is reported proportionally
farther along the camera ray, leaving the image unchanged), renders the
measured depth map with optional occlusion and noise, runs refinement,
and scores it with two metrics: the table-frame centroid error
(half-height minus estimated z) and the Euclidean norm of the dimension
error vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DepthRefineError
from .geometry import (
    CameraIntrinsics,
    CuboidDims,
    Pose,
    UnitQuaternion,
    _check_field,
    _count,
    _positive,
    _real,
    quat_x,
    transform_point,
)
from .refiner import refine
# render_depth and pixel_support stay module attributes for the benchmark tracer.
from .renderer import DepthMap, TriangleMesh, _frame, _rasterize, pixel_support, render_depth

DEFAULT_INTRINSICS = CameraIntrinsics(
    fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480
)

# Reference model cuboid (meters); dy is the model height.
CAD_CUBOID = CuboidDims(0.092, 0.080, 0.092)

# True-to-model scale ratios spanning the size spread of real fruit samples.
DEFAULT_SCALE_LEVELS = (0.674, 0.793, 0.967, 0.989, 1.011)

MIN_VALID_DEPTH = 1e-6


def ellipsoid_mesh(radii, rings: int = 16, segments: int = 24) -> TriangleMesh:
    """Latitude-longitude triangulation of an axis-aligned ellipsoid."""
    rx, ry, rz = (_positive("radius", r) for r in radii)
    rings, segments = _count("rings", rings, least=2), _count("segments", segments, least=3)
    theta = [math.pi * k / rings for k in range(1, rings)]
    phi = [2.0 * math.pi * m / segments for m in range(segments)]
    st = [math.sin(t) for t in theta]
    ring_xyz = np.stack([
        np.outer(st, [math.cos(p) for p in phi]),
        np.outer(st, [math.sin(p) for p in phi]),
        np.outer([math.cos(t) for t in theta], np.ones(segments)),
    ], axis=-1)
    verts = np.vstack([(0.0, 0.0, 1.0), ring_xyz.reshape(-1, 3), (0.0, 0.0, -1.0)])

    # a[r, m] is vertex m of ring r (north to south), b[r, m] its successor
    # in the ring. Caps fan from the poles; each band quad splits in two.
    m = np.arange(segments)
    first = 1 + segments * np.arange(rings - 1)[:, None]
    a, b = first + m, first + (m + 1) % segments
    tris = np.concatenate([
        np.stack([np.zeros_like(m), a[0], b[0]], axis=-1),
        np.stack([a[:-1], a[1:], b[1:], a[:-1], b[1:], b[:-1]], axis=-1).reshape(-1, 3),
        np.stack([np.full_like(m, len(verts) - 1), b[-1], a[-1]], axis=-1),
    ])
    return TriangleMesh(verts * np.array([rx, ry, rz]), tris)


def cuboid_mesh(dims: CuboidDims) -> TriangleMesh:
    """Axis-aligned box centered at the origin, 12 triangles."""
    hx, hy, hz = dims.dx / 2.0, dims.dy / 2.0, dims.dz / 2.0
    corners = np.array(
        [(sx * hx, sy * hy, sz * hz)
         for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
        dtype=np.float64,
    )
    quads = [
        (0, 1, 3, 2), (4, 6, 7, 5),  # x faces
        (0, 4, 5, 1), (2, 3, 7, 6),  # y faces
        (0, 2, 6, 4), (1, 5, 7, 3),  # z faces
    ]
    tris = []
    for a, b, c, d in quads:
        tris.append((a, b, c))
        tris.append((a, c, d))
    return TriangleMesh(corners, np.array(tris, dtype=np.int64))


@lru_cache(maxsize=None)
def builtin_model(mesh_id: str) -> tuple[TriangleMesh, CuboidDims]:
    """Built-in mesh plus its enclosing cuboid, by id."""
    if mesh_id == "apple":
        dims = CAD_CUBOID
        mesh = ellipsoid_mesh((dims.dx / 2.0, dims.dy / 2.0, dims.dz / 2.0))
    elif mesh_id == "sphere":
        dims = CuboidDims(0.1, 0.1, 0.1)
        mesh = ellipsoid_mesh((0.05, 0.05, 0.05))
    elif mesh_id == "cube":
        dims = CuboidDims(0.08, 0.06, 0.08)
        mesh = cuboid_mesh(dims)
    else:
        raise ValueError(f"unknown mesh id {mesh_id!r}")
    # Every caller shares the cached arrays, so none may write to them.
    mesh.vertices.flags.writeable = False
    mesh.triangles.flags.writeable = False
    return mesh, dims


@dataclass(frozen=True)
class SceneSpec:
    """Tabletop scene: the camera looks straight down at an object resting
    on the table directly below, `object_depth` meters away.

    The world frame has its origin on the table surface with z pointing
    up; the model's height axis (y) is posed to point up, so the true
    centroid height is true_scale * dy / 2. An occluder, when
    `occluder_fraction` is above 0, is a fronto-parallel plane
    `occluder_offset` meters in front of the object that covers that
    share of its pixels. `true_pose` and `camera_pose` are derived from
    the fields, so `dataclasses.replace` derives them again.
    """

    scene_id: str
    true_scale: float
    object_depth: float = 0.5
    mesh_id: str = "apple"
    occluder_fraction: float = 0.0
    occluder_offset: float = 0.1
    depth_noise: float = 0.0
    shape_noise: float = 0.0
    seed: int = 0
    true_pose: Pose = field(init=False, repr=False, compare=False)
    camera_pose: Pose = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("scene_id", "mesh_id"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a str, got {getattr(self, name)!r}")
        for name in ("true_scale", "object_depth"):
            _check_field(self, name, _positive)
        _check_field(self, "occluder_fraction", _real, "in [0, 1)", lambda v: 0.0 <= v < 1.0)
        _check_field(self, "occluder_offset", _real, "within float range and not NaN",
                     lambda v: not math.isnan(v))
        if self.occluder_fraction > 0.0:
            # An infinite depth never wins the nearer-of test, so the scene
            # would come out unoccluded.
            _positive("occluder depth", self.object_depth - self.occluder_offset)
        for name in ("depth_noise", "shape_noise"):
            # NaN fails every comparison, so it would skip the noise step.
            _check_field(self, name, _real, "finite and non-negative",
                         lambda v: math.isfinite(v) and v >= 0.0)
        _check_field(self, "seed", _count, 0)
        _, dims = builtin_model(self.mesh_id)
        rest_height = 0.5 * self.true_scale * dims.dy
        camera_pose = Pose(
            np.array([0.0, 0.0, self.object_depth + rest_height]),
            UnitQuaternion(0.0, 1.0, 0.0, 0.0),  # optical axis along world -z
        )
        true_pose = Pose(np.array([0.0, 0.0, self.object_depth]), quat_x(-math.pi / 2.0))
        object.__setattr__(self, "camera_pose", camera_pose)
        object.__setattr__(self, "true_pose", true_pose)


# One more name for the class, not a wrapper: scenes are built as
# `tabletop_scene(scene_id, true_scale, ...)` throughout.
tabletop_scene = SceneSpec


@dataclass(frozen=True)
class EvalRecord:
    """Per-scene outcome; error fields are None when refinement failed."""

    scene_id: str
    centroid_error: float | None
    dimensional_error: float | None
    mu_error: float | None
    success: bool


def simulate_rgb_estimate(true_pose: Pose, true_scale: float) -> Pose:
    """Pose an ideal scale-blind estimator reports for an object of
    `true_scale` times the model size: same image, position pushed to
    p/true_scale, orientation untouched."""
    return Pose(true_pose.position / _positive("true_scale", true_scale), true_pose.orientation)


def leftmost_region(support: np.ndarray, width: int, fraction: float) -> np.ndarray:
    """Deterministic occlusion region: the leftmost `fraction` of the
    support pixels, ordered by column then row.

    `support` holds flat row-major pixel indices of an image `width`
    pixels wide; the region is returned in the same form.
    """
    count = math.ceil(fraction * len(support))
    rows, cols = np.divmod(support, width)
    return support[np.lexsort((rows, cols))[:count]]


def generate_scene(
    spec: SceneSpec, intr: CameraIntrinsics = DEFAULT_INTRINSICS
) -> tuple[DepthMap, Pose]:
    """Measured depth map plus the simulated coarse pose estimate.

    The ground-truth object is the built-in mesh at `true_scale`, with
    optional per-vertex shape noise (uniform, applied only to the
    ground-truth render, never to the model the refiner sees). The
    occluder overwrites its region where it is nearer; Gaussian depth
    noise lands on every valid pixel. Only the rasterized support is
    worked on, in float64, and scattered once into a zero float32 frame;
    every pixel off it stays invalid. Deterministic per seed. Raises
    ValueError when the camera sees no pixel of the object or the
    occluder hides none of its region.
    """
    mesh, _ = builtin_model(spec.mesh_id)
    rng = np.random.default_rng(spec.seed)

    gt_mesh = mesh
    if spec.shape_noise > 0.0:
        jitter = rng.uniform(-spec.shape_noise, spec.shape_noise, mesh.vertices.shape)
        gt_mesh = TriangleMesh(mesh.vertices + jitter, mesh.triangles)

    support, depths = _rasterize(gt_mesh, spec.true_pose, intr, scale=spec.true_scale)
    if support.size == 0:
        raise ValueError(f"scene {spec.scene_id!r}: the object covers no pixel")
    depths = depths.astype(np.float64)

    if spec.occluder_fraction > 0.0:
        occluder_depth = spec.object_depth - spec.occluder_offset
        region = leftmost_region(support, intr.width, spec.occluder_fraction)
        # The region lies inside the support, where every depth is above 0,
        # so the nearer of object and occluder is the minimum.
        at = np.searchsorted(support, region)
        covered = depths[at]
        if not np.any(covered > occluder_depth):
            raise ValueError(
                f"scene {spec.scene_id!r}: the occluder at depth {occluder_depth} "
                "is nearer than the object on no pixel of its region"
            )
        depths[at] = np.minimum(covered, occluder_depth)

    # An occluder's depth is positive, so the valid pixels are still exactly
    # the support: one noise draw per valid pixel, in row-major order.
    if spec.depth_noise > 0.0:
        noise = rng.normal(0.0, spec.depth_noise, support.size)
        depths = np.maximum(depths + noise, MIN_VALID_DEPTH)

    return _frame(intr, support, depths), simulate_rgb_estimate(spec.true_pose, spec.true_scale)


def centroid_error(estimated_z: float, object_height: float) -> float:
    """Table-frame metric: half the true object height minus the estimated
    centroid z (origin on the table surface, z up)."""
    return 0.5 * object_height - estimated_z


def dimensional_error(d_est: CuboidDims, d_true: CuboidDims) -> float:
    """Euclidean norm of the dimension difference vector."""
    return float(np.linalg.norm(d_est.as_array() - d_true.as_array()))


def default_sweep(scales=DEFAULT_SCALE_LEVELS, seed: int = 0, **scene) -> list[SceneSpec]:
    """One tabletop scene per scale level, seeded seed, seed + 1, ...

    `scene` holds further `SceneSpec` fields (object_depth,
    mesh_id, occluder_fraction, occluder_offset, depth_noise,
    shape_noise), shared by every scene of the sweep.
    """
    return [
        SceneSpec(f"scale-{level:.3f}", level, seed=seed + k, **scene)
        for k, level in enumerate(scales)
    ]


def run_sweep(specs: list[SceneSpec]) -> tuple[list[EvalRecord], str]:
    """Evaluate refinement with the default intrinsics and `RefineConfig`
    over the scenes.

    A pipeline failure (a DepthRefineError) is recorded as a failed scene,
    not raised. Invalid input raises ValueError out of the sweep; no
    tabletop scene can give `refine` one, because its coarse z is
    object_depth / true_scale > 0.
    """
    if not specs:
        raise ValueError("specs must be non-empty")
    records: list[EvalRecord] = []
    for spec in specs:
        real, coarse = generate_scene(spec)
        mesh, cad_dims = builtin_model(spec.mesh_id)
        true_dims = cad_dims.scaled(spec.true_scale)
        try:
            result = refine(coarse, mesh, cad_dims, DEFAULT_INTRINSICS, real)
        except DepthRefineError:
            records.append(EvalRecord(spec.scene_id, None, None, None, False))
            continue
        world_pos = transform_point(spec.camera_pose, result.refined_pose.position)
        records.append(
            EvalRecord(
                scene_id=spec.scene_id,
                centroid_error=centroid_error(float(world_pos[2]), true_dims.dy),
                dimensional_error=dimensional_error(result.estimated_dims, true_dims),
                mu_error=result.mu_opt - spec.true_scale,
                success=True,
            )
        )
    return records, summary_table(records)


def summary_table(records: list[EvalRecord]) -> str:
    """Plain-text per-scene table with aggregate error statistics."""
    lines = [
        f"{'scene':<18} {'centroid err [m]':>17} {'dim err [m]':>13} "
        f"{'mu err':>9} {'status':>8}"
    ]
    for r in records:
        if r.success:
            lines.append(
                f"{r.scene_id:<18} {r.centroid_error:>+17.6f} "
                f"{r.dimensional_error:>13.6f} {r.mu_error:>+9.5f} {'ok':>8}"
            )
        else:
            lines.append(
                f"{r.scene_id:<18} {'-':>17} {'-':>13} {'-':>9} {'failed':>8}"
            )
    good = [r for r in records if r.success]
    lines.append(f"success: {len(good)}/{len(records)}")
    if good:
        cent = np.array([abs(r.centroid_error) for r in good])
        dims = np.array([r.dimensional_error for r in good])
        lines.append(
            f"abs centroid err [m]: mean {cent.mean():.6f}, max {cent.max():.6f}"
        )
        lines.append(
            f"dimensional err [m]:  mean {dims.mean():.6f}, max {dims.max():.6f}"
        )
    return "\n".join(lines)
