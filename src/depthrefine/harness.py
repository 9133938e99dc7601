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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DepthRefineError
from .geometry import (
    CameraIntrinsics,
    CuboidDims,
    Pose,
    UnitQuaternion,
    quat_x,
    transform_point,
)
from .refiner import RefineConfig, refine
from .renderer import DepthMap, TriangleMesh, pixel_support, render_depth

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
    rx, ry, rz = (float(r) for r in radii)
    if min(rx, ry, rz) <= 0.0:
        raise ValueError("radii must be positive")
    if rings < 2 or segments < 3:
        raise ValueError("need rings >= 2 and segments >= 3")
    verts = [(0.0, 0.0, 1.0)]
    for k in range(1, rings):
        theta = math.pi * k / rings
        st, ct = math.sin(theta), math.cos(theta)
        for m in range(segments):
            phi = 2.0 * math.pi * m / segments
            verts.append((st * math.cos(phi), st * math.sin(phi), ct))
    verts.append((0.0, 0.0, -1.0))
    bottom = len(verts) - 1

    def ring(k: int, m: int) -> int:
        return 1 + (k - 1) * segments + (m % segments)

    tris = []
    for m in range(segments):
        tris.append((0, ring(1, m), ring(1, m + 1)))
    for k in range(1, rings - 1):
        for m in range(segments):
            a, b = ring(k, m), ring(k, m + 1)
            c, d = ring(k + 1, m), ring(k + 1, m + 1)
            tris.append((a, c, d))
            tris.append((a, d, b))
    for m in range(segments):
        tris.append((bottom, ring(rings - 1, m + 1), ring(rings - 1, m)))

    scaled = np.array(verts, dtype=np.float64) * np.array([rx, ry, rz])
    return TriangleMesh(scaled, np.array(tris, dtype=np.int64))


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
    return mesh, dims


@dataclass(frozen=True)
class OccluderSpec:
    """Fronto-parallel plane patch: absolute depth and support fraction covered."""

    depth: float
    fraction: float

    def __post_init__(self):
        if not self.depth > 0.0:
            raise ValueError("occluder depth must be positive")
        if not 0.0 < self.fraction < 1.0:
            raise ValueError("occluder fraction must be in (0, 1)")


@dataclass(frozen=True)
class SceneSpec:
    """Ground-truth scene: what the camera sees and what the estimator reports."""

    scene_id: str
    true_scale: float
    true_pose: Pose
    camera_pose: Pose
    mesh_id: str = "apple"
    occluder: OccluderSpec | None = None
    depth_noise: float = 0.0
    shape_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not self.true_scale > 0.0:
            raise ValueError("true_scale must be positive")
        for name in ("depth_noise", "shape_noise"):
            value = getattr(self, name)
            # NaN fails every comparison, so it would skip the noise step.
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


@dataclass(frozen=True)
class EvalRecord:
    """Per-scene outcome; error fields are None when refinement failed."""

    scene_id: str
    centroid_error: float | None
    dimensional_error: float | None
    mu_error: float | None
    success: bool

    def __post_init__(self):
        if self.success and not (
            self.dimensional_error is not None and self.dimensional_error >= 0.0
        ):
            raise ValueError("dimensional_error must be non-negative")


def simulate_rgb_estimate(true_pose: Pose, true_scale: float) -> Pose:
    """Pose an ideal scale-blind estimator reports for an object of
    `true_scale` times the model size: same image, position pushed to
    p/true_scale, orientation untouched."""
    if not true_scale > 0.0:
        raise ValueError("true_scale must be positive")
    return Pose(true_pose.position / true_scale, true_pose.orientation)


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
    noise lands on every valid pixel. Deterministic per seed.
    """
    mesh, _ = builtin_model(spec.mesh_id)
    rng = np.random.default_rng(spec.seed)

    gt_mesh = mesh
    if spec.shape_noise > 0.0:
        jitter = rng.uniform(-spec.shape_noise, spec.shape_noise, mesh.vertices.shape)
        gt_mesh = TriangleMesh(mesh.vertices + jitter, mesh.triangles)

    rendered = render_depth(gt_mesh, spec.true_pose, intr, scale=spec.true_scale)
    data = rendered.data.astype(np.float64)

    if spec.occluder is not None:
        region = leftmost_region(pixel_support(rendered), intr.width, spec.occluder.fraction)
        # The region lies inside the support, where every depth is above 0,
        # so the nearer of object and occluder is the minimum.
        flat = data.reshape(-1)
        flat[region] = np.minimum(flat[region], spec.occluder.depth)

    if spec.depth_noise > 0.0:
        valid = data > 0.0
        noisy = data[valid] + rng.normal(0.0, spec.depth_noise, int(valid.sum()))
        data[valid] = np.maximum(noisy, MIN_VALID_DEPTH)

    real = DepthMap(intr.width, intr.height, data.astype(np.float32))
    return real, simulate_rgb_estimate(spec.true_pose, spec.true_scale)


def tabletop_scene(
    scene_id: str,
    true_scale: float,
    object_depth: float = 0.5,
    mesh_id: str = "apple",
    occluder_fraction: float = 0.0,
    occluder_offset: float = 0.1,
    depth_noise: float = 0.0,
    shape_noise: float = 0.0,
    seed: int = 0,
) -> SceneSpec:
    """Scene with the camera looking straight down at an object resting on
    the table directly below, `object_depth` meters away.

    The world frame has its origin on the table surface with z pointing
    up; the model's height axis (y) is posed to point up, so the true
    centroid height is true_scale * dy / 2.
    """
    if not 0.0 <= occluder_fraction < 1.0:
        raise ValueError(f"occluder_fraction must be in [0, 1), got {occluder_fraction}")
    _, dims = builtin_model(mesh_id)
    rest_height = 0.5 * true_scale * dims.dy
    camera_pose = Pose(
        np.array([0.0, 0.0, object_depth + rest_height]),
        UnitQuaternion(0.0, 1.0, 0.0, 0.0),  # optical axis along world -z
    )
    true_pose = Pose(np.array([0.0, 0.0, object_depth]), quat_x(-math.pi / 2.0))
    occluder = None
    if occluder_fraction > 0.0:
        occluder = OccluderSpec(object_depth - occluder_offset, occluder_fraction)
    return SceneSpec(
        scene_id=scene_id,
        true_scale=true_scale,
        true_pose=true_pose,
        camera_pose=camera_pose,
        mesh_id=mesh_id,
        occluder=occluder,
        depth_noise=depth_noise,
        shape_noise=shape_noise,
        seed=seed,
    )


def centroid_error(estimated_z: float, object_height: float) -> float:
    """Table-frame metric: half the true object height minus the estimated
    centroid z (origin on the table surface, z up)."""
    return 0.5 * object_height - estimated_z


def dimensional_error(d_est: CuboidDims, d_true: CuboidDims) -> float:
    """Euclidean norm of the dimension difference vector."""
    return float(np.linalg.norm(d_est.as_array() - d_true.as_array()))


def default_sweep(
    depth_noise: float = 0.0,
    shape_noise: float = 0.0,
    occluder_fraction: float = 0.0,
    seed: int = 0,
) -> list[SceneSpec]:
    """One tabletop scene per default scale level."""
    return [
        tabletop_scene(
            scene_id=f"scale-{level:.3f}",
            true_scale=level,
            occluder_fraction=occluder_fraction,
            depth_noise=depth_noise,
            shape_noise=shape_noise,
            seed=seed + k,
        )
        for k, level in enumerate(DEFAULT_SCALE_LEVELS)
    ]


def run_sweep(
    specs: list[SceneSpec],
    intr: CameraIntrinsics = DEFAULT_INTRINSICS,
    cfg: RefineConfig | None = None,
) -> tuple[list[EvalRecord], str]:
    """Evaluate refinement over the scenes; failures are recorded, not raised."""
    if not specs:
        raise ValueError("specs must be non-empty")
    records: list[EvalRecord] = []
    for spec in specs:
        real, coarse = generate_scene(spec, intr)
        mesh, cad_dims = builtin_model(spec.mesh_id)
        true_dims = cad_dims.scaled(spec.true_scale)
        try:
            result = refine(coarse, mesh, cad_dims, intr, real, cfg)
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
