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

    # Drop near-plane triangles before projecting, so nothing divides by z <= 0.
    tri = mesh.triangles
    tri = tri[verts[:, 2][tri].min(axis=1) >= NEAR_PLANE]

    # Screen coordinates as (3, T) arrays: corner along axis 0, triangle along
    # axis 1, each row contiguous. Later gathers and filters go row by row
    # (`x[i][t]`, `np.compress`); fancy indexing along axis 1 was about 4x slower.
    x, y, z = verts.T[:, tri.T]
    x = intr.fx * x / z + intr.cx
    y = intr.fy * y / z + intr.cy

    # Force positive orientation (counter-clockwise with v down) by swapping
    # corners 1 and 2; windings may be inconsistent in CAD meshes. Building new
    # arrays frees the gathered (3, 3, T) block.
    area2 = (x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])
    flip = area2 < 0.0
    x, y, z = (
        np.stack((a[0], np.where(flip, a[2], a[1]), np.where(flip, a[1], a[2])))
        for a in (x, y, z)
    )
    area2 = np.abs(area2)

    # Pixel-center bounding boxes, clipped to the viewport.
    c = PIXEL_CENTER_OFFSET
    x_lo, x_hi = x.min(axis=0), x.max(axis=0)
    y_lo, y_hi = y.min(axis=0), y.max(axis=0)
    px_lo = np.clip(np.ceil(x_lo - c), 0, w - 1).astype(np.int64)
    px_hi = np.clip(np.floor(x_hi - c), 0, w - 1).astype(np.int64)
    py_lo = np.clip(np.ceil(y_lo - c), 0, h - 1).astype(np.int64)
    py_hi = np.clip(np.floor(y_hi - c), 0, h - 1).astype(np.int64)
    bw = px_hi - px_lo + 1
    bh = py_hi - py_lo + 1

    # One candidate filter: degenerate triangles, boxes holding no pixel center
    # (sliver-thin), and triangles wholly off screen, whose clipped boxes land
    # on the border column or row.
    on = (
        (area2 > 0.0) & (bw > 0) & (bh > 0)
        & (x_hi >= c) & (x_lo <= w - c) & (y_hi >= c) & (y_lo <= h - c)
    )
    x, y, z = (np.compress(on, a, axis=1) for a in (x, y, z))
    area2, px_lo, py_lo, bw, bh = (a[on] for a in (area2, px_lo, py_lo, bw, bh))

    # One fragment per pixel center in each box; t is the fragment's triangle.
    counts = bw * bh
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    t = np.repeat(np.arange(counts.shape[0]), counts)
    k = np.arange(int(counts.sum())) - starts[t]
    px = px_lo[t] + k % bw[t]
    py = py_lo[t] + k // bw[t]
    cu = px + c
    cv = py + c

    # Edge functions with the top-left fill rule: with v down and positive
    # orientation, a "top" edge runs rightward at constant v, a "left" edge
    # runs upward.
    inside = np.ones(t.shape[0], dtype=bool)
    edges = []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        dx, dy = x[j] - x[i], y[j] - y[i]
        e = dx[t] * (cv - y[i][t]) - dy[t] * (cu - x[i][t])
        top_left = ((dy == 0.0) & (dx > 0.0)) | (dy < 0.0)
        inside &= (e > 0.0) | ((e == 0.0) & top_left[t])
        edges.append(e)
    e01, e12, e20 = (e[inside] for e in edges)

    # Screen barycentrics weight the opposite corner; interpolating 1/z is
    # exact for planar triangles.
    t = t[inside]
    rz = 1.0 / z
    inv_z = (e12 * rz[0][t] + e20 * rz[1][t] + e01 * rz[2][t]) / area2[t]
    flat = py[inside] * w + px[inside]

    # Rounding to float32 is monotone, so taking the minimum after rounding
    # stores the same value as rounding the float64 minimum.
    zbuf = np.full(w * h, np.inf, dtype=np.float32)
    np.minimum.at(zbuf, flat, (1.0 / inv_z).astype(np.float32))
    zbuf[zbuf == np.inf] = INVALID_DEPTH
    return DepthMap(w, h, zbuf.reshape(h, w))


def pixel_support(d: DepthMap) -> np.ndarray:
    """Flat row-major int64 indices of the pixels holding valid depths."""
    return np.flatnonzero(d.valid_mask)
