"""Depth-only software rasterizer.

Renders the z-buffered depth map of a posed, uniformly scaled triangle
mesh through a pinhole camera. Coverage rule: a pixel belongs to a
triangle when its center lies inside the projected triangle, by Pineda's
edge-function test with the top-left convention breaking ties on shared
edges. Depth is perspective-correct (1/z interpolated barycentrically in
screen space). No back-face culling; the z-buffer alone resolves
visibility.

Fragments are expanded in two levels: the rows of each triangle's
pixel-center box, then the columns of each row, by `np.repeat` over the
triangles in order. The part of an edge function that depends only on the
row is computed once per row. The fragment stage runs inside one helper:
each edge function is computed in place in one buffer, every
fragment-sized array is freed once used, and none outlives the helper, so
none is alive when the z-buffer is allocated. Per-triangle corner data is
kept as C-ordered (3, T) arrays: gathering through a plain `triangles.T`
gives F-ordered ones, on which every reduction over the corners is several
times slower.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CameraIntrinsics, Pose, quat_to_matrix

# Triangles with any vertex closer than this are dropped whole rather than
# clipped; refinement operates far from the near plane.
NEAR_PLANE = 1e-4

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
            raise ValueError("mesh has no triangles")
        if tris.min() < 0 or tris.max() >= verts.shape[0]:
            raise ValueError(
                f"triangle index out of range for {verts.shape[0]} vertices"
            )
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)


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
        # min and max propagate NaN and hold any inf, so these two reductions
        # see every non-finite value.
        lo, hi = data.min(initial=0.0), data.max(initial=0.0)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("depth values must be finite")
        if lo < 0.0:
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
    vx, vy, vz = (pose.position + scale * (mesh.vertices @ rot.T)).T

    # Drop near-plane triangles, and divide by z only at vertices past the
    # plane, so nothing divides by z <= 0.
    front = vz >= NEAR_PLANE
    tri = np.ascontiguousarray(mesh.triangles.T)
    if not front.all():
        tri = tri.take(np.flatnonzero(front[tri[0]] & front[tri[1]] & front[tri[2]]), axis=1)

    def over_z(a):
        return np.divide(a, vz, out=np.zeros_like(vz), where=front)

    # Project each vertex once, then gather (3, T) corner arrays.
    x = (over_z(intr.fx * vx) + intr.cx)[tri]
    y = (over_z(intr.fy * vy) + intr.cy)[tri]

    # Pixel-center bounding boxes, clipped to the viewport. Neither the box
    # nor |area2| depends on the corner order, so culling comes first.
    c = PIXEL_CENTER_OFFSET
    area2 = (x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])
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
    # on the border column or row. `take` is several times faster than a
    # boolean mask here.
    on = np.flatnonzero(
        (area2 != 0.0) & (bw > 0) & (bh > 0)
        & (x_hi >= c) & (x_lo <= w - c) & (y_hi >= c) & (y_lo <= h - c)
    )
    x, y, tri = (a.take(on, axis=1) for a in (x, y, tri))
    area2, px_lo, py_lo, bw, bh = (a.take(on) for a in (area2, px_lo, py_lo, bw, bh))

    # Force positive orientation (counter-clockwise with v down) by swapping
    # corners 1 and 2; windings may be inconsistent in CAD meshes.
    flip = area2 < 0.0
    area2 = np.abs(area2)
    x, y, tri = (
        (a[0], np.where(flip, a[2], a[1]), np.where(flip, a[1], a[2]))
        for a in (x, y, tri)
    )
    rz = over_z(1.0)
    flat, depth = _fragments(x, y, [rz[k] for k in tri], area2, px_lo, py_lo, bw, bh, w)

    # Rounding to float32 is monotone, so taking the minimum after rounding
    # stores the same value as rounding the float64 minimum. Uncovered pixels
    # keep 0.0, the invalid depth; only covered ones start from +inf.
    zbuf = np.zeros(w * h, dtype=np.float32)
    zbuf[flat] = np.inf
    np.minimum.at(zbuf, flat, depth)
    return DepthMap(w, h, zbuf.reshape(h, w))


def _fragments(x, y, rz, area2, px_lo, py_lo, bw, bh, w):
    """Flat pixel indices and float32 depths of the covered pixel centers.

    Takes positively oriented triangles as corner arrays `x`, `y` (screen
    position) and `rz` (1/z), twice their areas, and their clipped
    pixel-center boxes: top-left corner `px_lo`, `py_lo`, size `bw` x `bh`.
    Rows are `w` pixels wide. Every fragment-sized array is freed as soon
    as it has been used.
    """
    c = PIXEL_CENTER_OFFSET

    # Rows of each box, then one fragment per pixel center of each row: py
    # counts up from each box's top row, the column from each row's first
    # one. The column buffer becomes the flat index once `cu` is formed.
    counts = bw * bh
    py = np.arange(int(bh.sum())) + np.repeat(py_lo - (np.cumsum(bh) - bh), bh)
    cw = np.repeat(bw, bh)
    flat = np.arange(int(cw.sum())) + np.repeat(np.repeat(px_lo, bh) - (np.cumsum(cw) - cw), cw)
    cu = flat + c
    flat += np.repeat(py * w, cw)
    cv = py + c

    # Edge functions with the top-left fill rule: with v down and positive
    # orientation, a "top" edge runs rightward at constant v, a "left" edge
    # runs upward. `e >= thr`, with thr the smallest positive double off
    # top-left edges, is `(e > 0) | ((e == 0) & top_left)` in one comparison.
    # Each edge is `row - dy * (cu - x_i)`, evaluated in place in one buffer.
    tiny = np.nextafter(0.0, 1.0)
    inside = np.ones(flat.shape[0], dtype=bool)
    edges = []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        dx, dy = x[j] - x[i], y[j] - y[i]
        row = np.repeat(dx, bh) * (cv - np.repeat(y[i], bh))
        e = np.repeat(x[i], counts)
        np.subtract(cu, e, out=e)
        e *= np.repeat(dy, counts)
        np.subtract(np.repeat(row, cw), e, out=e)
        thr = np.where(((dy == 0.0) & (dx > 0.0)) | (dy < 0.0), 0.0, tiny)
        inside &= e >= np.repeat(thr, counts)
        edges.append(e)
    del cu, e
    keep = np.flatnonzero(inside)
    del inside
    flat = flat.take(keep)
    e01, e12, e20 = (e.take(keep) for e in edges)
    del edges

    # Screen barycentrics weight the opposite corner; interpolating 1/z is
    # exact for planar triangles.
    t = np.repeat(np.arange(counts.shape[0]), counts).take(keep)
    inv_z = (e12 * rz[0][t] + e20 * rz[1][t] + e01 * rz[2][t]) / area2[t]
    return flat, (1.0 / inv_z).astype(np.float32)


def pixel_support(d: DepthMap) -> np.ndarray:
    """Flat row-major int64 indices of the pixels holding valid depths."""
    return np.flatnonzero(d.valid_mask)
