"""Depth-only software rasterizer.

Renders the z-buffered depth map of a posed, uniformly scaled triangle
mesh through a pinhole camera. Coverage rule: a pixel belongs to a
triangle when its center lies inside the projected triangle, with the
top-left convention breaking ties on shared edges. Depth is
perspective-correct (1/z interpolated barycentrically in screen space).
No back-face culling; the z-buffer alone resolves visibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyGeometryError
from .geometry import CameraIntrinsics, Pose, quat_to_matrix

# Triangles with any vertex closer than this are dropped whole rather than
# clipped; refinement operates far from the near plane.
NEAR_PLANE = 1e-4

INVALID_DEPTH = 0.0

# Pixel (row i, col j) has its center at (u, v) = (j + 0.5, i + 0.5).
PIXEL_CENTER_OFFSET = 0.5


@dataclass(frozen=True)
class TriangleMesh:
    """Triangle mesh in its model frame, origin at the model centroid.

    vertices: (N, 3) float64, meters. triangles: (M, 3) vertex indices.
    """

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=np.float64)
        tris = np.asarray(self.triangles, dtype=np.int64)
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise ValueError(f"vertices must be (N, 3), got {verts.shape}")
        if not np.all(np.isfinite(verts)):
            raise ValueError("mesh vertices must be finite")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise ValueError(f"triangles must be (M, 3), got {tris.shape}")
        if tris.shape[0] == 0:
            raise EmptyGeometryError("mesh has no triangles")
        if tris.min() < 0 or tris.max() >= verts.shape[0]:
            raise ValueError(
                f"triangle index out of range for {verts.shape[0]} vertices"
            )
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)

    @property
    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def recentered(self) -> tuple[TriangleMesh, np.ndarray]:
        """Mesh shifted so the vertex centroid is the origin, plus the offset removed."""
        offset = self.centroid
        return TriangleMesh(self.vertices - offset, self.triangles), offset


@dataclass(frozen=True)
class DepthMap:
    """Row-major grid of camera-frame z values in meters; 0.0 marks invalid."""

    width: int
    height: int
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float32)
        if data.shape != (self.height, self.width):
            raise ValueError(
                f"data shape {data.shape} does not match {self.height}x{self.width}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("depth values must be finite")
        if np.any(data < 0.0):
            raise ValueError("depth values must be 0.0 (invalid) or positive")
        object.__setattr__(self, "data", data)

    @property
    def valid_mask(self) -> np.ndarray:
        return self.data > 0.0


def render_depth(
    mesh: TriangleMesh, pose: Pose, intr: CameraIntrinsics, scale: float = 1.0
) -> DepthMap:
    """Render the depth map of `mesh` at `pose`, uniformly scaled by `scale`.

    Scaling is applied about the model-frame origin before posing, so a
    (pose, scale) pair produced by `apply_sigma_to_pose` reproduces the
    silhouette of the unscaled render while multiplying every depth by mu.
    Triangles with any vertex in front of the near plane are discarded; a
    mesh entirely behind the camera yields an all-invalid map.
    """
    if not (np.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    w, h = intr.width, intr.height

    rot = quat_to_matrix(pose.orientation)
    verts = pose.position + scale * (mesh.vertices @ rot.T)

    zs = verts[:, 2]
    tri = mesh.triangles
    keep = zs[tri].min(axis=1) >= NEAR_PLANE
    if not np.any(keep):
        return DepthMap(w, h, np.zeros((h, w), dtype=np.float32))
    tri = tri[keep]

    v0, v1, v2 = verts[tri[:, 0]], verts[tri[:, 1]], verts[tri[:, 2]]

    def to_screen(v):
        u = intr.fx * v[:, 0] / v[:, 2] + intr.cx
        vv = intr.fy * v[:, 1] / v[:, 2] + intr.cy
        return u, vv, v[:, 2]

    x0, y0, z0 = to_screen(v0)
    x1, y1, z1 = to_screen(v1)
    x2, y2, z2 = to_screen(v2)

    # Force positive orientation (counter-clockwise with v down) by swapping
    # vertices 1 and 2; windings may be inconsistent in CAD meshes.
    area2 = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    flip = area2 < 0.0
    x1[flip], x2[flip] = x2[flip], x1[flip].copy()
    y1[flip], y2[flip] = y2[flip], y1[flip].copy()
    z1[flip], z2[flip] = z2[flip], z1[flip].copy()
    area2 = np.abs(area2)

    nondeg = area2 > 0.0
    if not np.any(nondeg):
        return DepthMap(w, h, np.zeros((h, w), dtype=np.float32))
    x0, y0, z0 = x0[nondeg], y0[nondeg], z0[nondeg]
    x1, y1, z1 = x1[nondeg], y1[nondeg], z1[nondeg]
    x2, y2, z2 = x2[nondeg], y2[nondeg], z2[nondeg]
    area2 = area2[nondeg]

    # Pixel-center bounding boxes, clipped to the viewport.
    c = PIXEL_CENTER_OFFSET
    px_lo = np.clip(np.ceil(np.minimum(np.minimum(x0, x1), x2) - c), 0, w - 1).astype(np.int64)
    px_hi = np.clip(np.floor(np.maximum(np.maximum(x0, x1), x2) - c), 0, w - 1).astype(np.int64)
    py_lo = np.clip(np.ceil(np.minimum(np.minimum(y0, y1), y2) - c), 0, h - 1).astype(np.int64)
    py_hi = np.clip(np.floor(np.maximum(np.maximum(y0, y1), y2) - c), 0, h - 1).astype(np.int64)

    # Keep off-screen and sliver-thin boxes out of the candidate list. The
    # clip above collapses fully off-screen triangles to inverted boxes.
    bw = px_hi - px_lo + 1
    bh = py_hi - py_lo + 1
    on = (bw > 0) & (bh > 0)
    mx0 = np.minimum(np.minimum(x0, x1), x2)
    mx1 = np.maximum(np.maximum(x0, x1), x2)
    my0 = np.minimum(np.minimum(y0, y1), y2)
    my1 = np.maximum(np.maximum(y0, y1), y2)
    on &= (mx1 >= c) & (mx0 <= w - c) & (my1 >= c) & (my0 <= h - c)
    if not np.any(on):
        return DepthMap(w, h, np.zeros((h, w), dtype=np.float32))

    x0, y0, z0 = x0[on], y0[on], z0[on]
    x1, y1, z1 = x1[on], y1[on], z1[on]
    x2, y2, z2 = x2[on], y2[on], z2[on]
    area2 = area2[on]
    px_lo, py_lo, bw, bh = px_lo[on], py_lo[on], bw[on], bh[on]

    # Top-left fill rule per edge: with v down and positive orientation, a
    # "top" edge runs rightward at constant v, a "left" edge runs upward.
    def top_left(dx, dy):
        return ((dy == 0.0) & (dx > 0.0)) | (dy < 0.0)

    tl01 = top_left(x1 - x0, y1 - y0)
    tl12 = top_left(x2 - x1, y2 - y1)
    tl20 = top_left(x0 - x2, y0 - y2)

    counts = bw * bh
    total = int(counts.sum())
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    t = np.repeat(np.arange(counts.shape[0]), counts)
    k = np.arange(total) - starts[t]
    px = px_lo[t] + k % bw[t]
    py = py_lo[t] + k // bw[t]
    cu = px + c
    cv = py + c

    e01 = (x1[t] - x0[t]) * (cv - y0[t]) - (y1[t] - y0[t]) * (cu - x0[t])
    e12 = (x2[t] - x1[t]) * (cv - y1[t]) - (y2[t] - y1[t]) * (cu - x1[t])
    e20 = (x0[t] - x2[t]) * (cv - y2[t]) - (y0[t] - y2[t]) * (cu - x2[t])

    inside = (
        ((e01 > 0.0) | ((e01 == 0.0) & tl01[t]))
        & ((e12 > 0.0) | ((e12 == 0.0) & tl12[t]))
        & ((e20 > 0.0) | ((e20 == 0.0) & tl20[t]))
    )
    if not np.any(inside):
        return DepthMap(w, h, np.zeros((h, w), dtype=np.float32))

    # Screen barycentrics weight the opposite vertex; interpolating 1/z is
    # exact for planar triangles.
    inv_z = (e12 * (1.0 / z0[t]) + e20 * (1.0 / z1[t]) + e01 * (1.0 / z2[t])) / area2[t]
    depth = 1.0 / inv_z[inside]
    flat = (py[inside] * w + px[inside]).astype(np.int64)

    # Rounding to float32 is monotone, so taking the minimum after rounding
    # stores the same value as rounding the float64 minimum.
    zbuf = np.full(w * h, np.inf, dtype=np.float32)
    np.minimum.at(zbuf, flat, depth.astype(np.float32))
    zbuf[zbuf == np.inf] = INVALID_DEPTH
    return DepthMap(w, h, zbuf.reshape(h, w))


def pixel_support(d: DepthMap) -> np.ndarray:
    """Flat row-major int64 indices of the pixels holding valid depths."""
    return np.flatnonzero(d.valid_mask)
