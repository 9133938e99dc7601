"""Depth-only software rasterizer.

Renders the z-buffered depth map of a posed, uniformly scaled triangle
mesh through a pinhole camera. Coverage rule: a pixel belongs to a
triangle when its center lies inside the projected triangle, by Pineda's
edge-function test with the top-left convention breaking ties on shared
edges. Depth is perspective-correct (1/z interpolated barycentrically in
screen space). No back-face culling; the z-buffer alone resolves
visibility.

Culling comes first, from the corners one at a time; only its survivors
are gathered as C-ordered (3, K) corner arrays, since a plain
`triangles.T` gather gives F-ordered ones, on which every reduction over
the corners is several times slower. The z-buffer spans only the window
of the survivors' pixel-center boxes, not the frame.

Fragments are expanded in two levels: the rows of each triangle's
pixel-center box, then the columns of each row, by `np.repeat` over the
triangles in order. The part of an edge function that depends only on the
row is computed once per row. Triangles are expanded in consecutive runs
of a bounded number of box pixel centers, each run inside one helper:
each edge function is computed in place in one buffer, every
fragment-sized array is freed once used, and none outlives the helper, so
at most one run's fragments are alive at a time. `_frame` scatters the
covered pixels into a full frame for `render_depth` and `generate_scene`;
`refine` takes them as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CameraIntrinsics, Pose, _check_field, _count, _positive, quat_to_matrix

# Triangles with any vertex closer than this are dropped whole rather than
# clipped; refinement operates far from the near plane.
NEAR_PLANE = 1e-4

# Pixel (row i, col j) has its center at (u, v) = (j + 0.5, i + 0.5).
PIXEL_CENTER_OFFSET = 0.5

# Most box pixel centers expanded into fragments at once.
_FRAGMENT_BLOCK = 16_384


@dataclass(frozen=True)
class TriangleMesh:
    """Triangle mesh in its model frame, origin at the model centroid.

    vertices: (N, 3) float64, meters. triangles: (M, 3) vertex indices.
    """

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=np.float64)
        tris = np.asarray(self.triangles)
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise ValueError(f"vertices must be (N, 3), got {verts.shape}")
        if not np.all(np.isfinite(verts)):
            raise ValueError("mesh vertices must be finite")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise ValueError(f"triangles must be (M, 3), got {tris.shape}")
        if tris.shape[0] == 0:
            raise ValueError("mesh has no triangles")
        # Checked before the int64 cast, which would truncate or wrap; NaN fails.
        if not (tris.min() >= 0 and tris.max() < verts.shape[0]):
            raise ValueError(f"triangle index out of range for {verts.shape[0]} vertices")
        if tris.dtype.kind not in "iu" and not np.all(tris == np.floor(tris.astype(np.float64))):
            raise ValueError("triangle indices must be whole numbers")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris.astype(np.int64, copy=False))


@dataclass(frozen=True)
class DepthMap:
    """Row-major grid of camera-frame z values in meters; 0.0 marks invalid."""

    width: int
    height: int
    data: np.ndarray

    def __post_init__(self):
        for name in ("width", "height"):
            _check_field(self, name, _count)
        # A value beyond float32 casts to inf, which the check below refuses.
        with np.errstate(over="ignore"):
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
    return _frame(intr, *_rasterize(mesh, pose, intr, scale))


def _frame(intr: CameraIntrinsics, support: np.ndarray, depths: np.ndarray) -> DepthMap:
    """The frame of `intr` with `depths` at the flat indices `support`, 0.0 elsewhere."""
    data = np.zeros(intr.width * intr.height, dtype=np.float32)
    # A depth beyond float32 lands as inf, which DepthMap refuses.
    with np.errstate(over="ignore"):
        data[support] = depths
    return DepthMap(intr.width, intr.height, data.reshape(intr.height, intr.width))


def _rasterize(
    mesh: TriangleMesh, pose: Pose, intr: CameraIntrinsics, scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending int64 flat indices of the pixels `render_depth` covers, and
    their float32 depths, without a full frame.

    Raises ValueError when a posed vertex is not finite or projects beyond
    1e150 pixels, and as `DepthMap` would on a depth beyond float32.
    """
    scale = _positive("scale", scale)
    w, h = intr.width, intr.height

    rot = quat_to_matrix(pose.orientation)
    with np.errstate(over="ignore", invalid="ignore"):
        posed = pose.position + scale * (mesh.vertices @ rot.T)
    vx, vy, vz = posed.T

    # Divide by z only at vertices past the near plane, so nothing divides
    # by z <= 0; the triangles using any other vertex are dropped below.
    front = vz >= NEAR_PLANE

    def over_z(a):
        return np.divide(a, vz, out=np.zeros_like(vz), where=front)

    # Project each vertex once. A vertex posed beyond float64 is refused, and
    # so is one projected beyond 1e150 pixels, NaN and inf included. Then twice
    # a triangle's area and each edge function, differences of products of two
    # coordinate differences, stay below about 1e301, and their 1/z-weighted
    # sums below about 1e305. The test takes extremes, as np.abs(u), 200 KB on
    # the dense mesh, moved glibc's mmap threshold and slowed its refine by 8%.
    with np.errstate(over="ignore", invalid="ignore"):
        u = over_z(intr.fx * vx) + intr.cx
        v = over_z(intr.fy * vy) + intr.cy
    ends = (u.min(), u.max(), v.min(), v.max())
    if not (np.isfinite(posed).all() and all(abs(e) <= 1e150 for e in ends)):
        raise ValueError("mesh vertices must be finite once posed, and project within 1e150 pixels")

    # Cull before any corner array exists, on pixel-center boxes clipped to
    # the viewport. One filter drops near-plane triangles, boxes holding no
    # pixel center (sliver-thin), and triangles wholly off screen, whose
    # clipped boxes land on the border column or row.
    corners = mesh.triangles.T
    px_lo, bw, on_x = _box(u, corners, w)
    py_lo, bh, on_y = _box(v, corners, h)
    on = np.flatnonzero(on_x & on_y & front[corners[0]] & front[corners[1]] & front[corners[2]])

    # Gather C-ordered (3, K) corner arrays of the survivors only, then drop
    # degenerate triangles. Neither filter depends on the corner order, and
    # `take` is several times faster than a boolean mask here.
    tri = np.ascontiguousarray(mesh.triangles.take(on, axis=0).T)
    x, y = u[tri], v[tri]
    del u, v, on_x, on_y
    area2 = (x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])
    keep = np.flatnonzero(area2 != 0.0)
    x, y, tri = (a.take(keep, axis=1) for a in (x, y, tri))
    on = on.take(keep)
    area2, px_lo, py_lo, bw, bh = area2.take(keep), *(a.take(on) for a in (px_lo, py_lo, bw, bh))
    if on.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float32)

    # Force positive orientation (counter-clockwise with v down) by swapping
    # corners 1 and 2 in place; windings may be inconsistent in CAD meshes.
    flip = np.flatnonzero(area2 < 0.0)
    np.abs(area2, out=area2)
    for a in (x, y, tri):
        a[1:, flip] = a[:0:-1, flip]
    rz = over_z(1.0)
    rz = [rz[k] for k in tri]

    # The z-buffer spans only the survivors' pixel-center boxes, and starts
    # at +inf so that a covered pixel is one holding a finite depth.
    x0, y0 = int(px_lo.min()), int(py_lo.min())
    ww = int((px_lo + bw).max()) - x0
    hh = int((py_lo + bh).max()) - y0
    zwin = np.full(ww * hh, np.inf, dtype=np.float32)

    # Triangles go to the fragment stage in consecutive runs of at most
    # _FRAGMENT_BLOCK box pixel centers (a larger triangle runs alone), so
    # the fragment arrays stay small however many triangles survive.
    # Rounding to float32 is monotone, so taking the minimum after rounding
    # stores the same value as rounding the float64 minimum.
    ends = np.cumsum(bw * bh)
    start = 0
    while start < on.size:
        base = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, base + _FRAGMENT_BLOCK, "right")), start + 1)
        run = slice(start, stop)
        flat, depth = _fragments(
            x[:, run], y[:, run], [r[run] for r in rz], area2[run],
            px_lo[run], py_lo[run], bw[run], bh[run], ww, x0, y0,
        )
        # max propagates NaN and holds any inf; every depth is positive.
        if not np.isfinite(depth.max(initial=0.0)):
            raise ValueError("depth values must be finite")
        np.minimum.at(zwin, flat, depth)
        start = stop

    covered = np.flatnonzero(zwin != np.inf)
    depths = zwin[covered]
    # Window rows are ww wide and frame rows w wide.
    covered += (covered // ww) * (w - ww) + (y0 * w + x0)
    return covered, depths


def _box(p, corners, n):
    """First pixel center, center count and on-screen test of each triangle's
    clipped box along one axis of `n` pixels, from its corners one at a time."""
    c = PIXEL_CENTER_OFFSET
    lo, hi = p[corners[0]], p[corners[0]]
    for k in corners[1:]:
        np.minimum(lo, p[k], out=lo)
        np.maximum(hi, p[k], out=hi)
    first = np.clip(np.ceil(lo - c), 0, n - 1).astype(np.int64)
    count = np.clip(np.floor(hi - c), 0, n - 1).astype(np.int64) - first + 1
    return first, count, (count > 0) & (hi >= c) & (lo <= n - c)


def _fragments(x, y, rz, area2, px_lo, py_lo, bw, bh, ww, x0, y0):
    """Window flat indices and float32 depths of the covered pixel centers.

    Takes positively oriented triangles as corner arrays `x`, `y` (screen
    position) and `rz` (1/z), twice their areas, and their clipped
    pixel-center boxes: top-left corner `px_lo`, `py_lo`, size `bw` x `bh`.
    Indices count row-major in a window `ww` pixels wide whose top-left
    pixel is (x0, y0); a depth that overflows float32 comes out as inf.
    Every fragment-sized array is freed as soon as it has been used.
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
    flat += np.repeat((py - y0) * ww - x0, cw)
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
    with np.errstate(divide="ignore", over="ignore"):
        return flat, (1.0 / inv_z).astype(np.float32)


def pixel_support(d: DepthMap) -> np.ndarray:
    """Flat row-major int64 indices of the pixels holding valid depths."""
    return np.flatnonzero(d.valid_mask)
