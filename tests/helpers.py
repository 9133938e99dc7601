"""Shared fixtures-as-functions for the test suite."""

import json
import math
import tracemalloc
import warnings

import numpy as np

from depthrefine import CameraIntrinsics, DepthMap, TriangleMesh, UnitQuaternion, store_mesh
from depthrefine.geometry import as_vec3, quat_mul, quat_to_matrix, quat_y, quat_z
from depthrefine.harness import (
    CAD_CUBOID,
    DEFAULT_INTRINSICS,
    MIN_VALID_DEPTH,
    builtin_model,
    ellipsoid_mesh,
    leftmost_region,
    simulate_rgb_estimate,
)
from depthrefine.renderer import NEAR_PLANE, PIXEL_CENTER_OFFSET, pixel_support, render_depth


def square_mesh(half: float = 0.1) -> TriangleMesh:
    """Two coplanar triangles forming an axis-aligned square in z=0."""
    verts = np.array(
        [[-half, -half, 0.0], [half, -half, 0.0], [half, half, 0.0], [-half, half, 0.0]]
    )
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return TriangleMesh(verts, tris)


def random_quaternion(rng: np.random.Generator) -> UnitQuaternion:
    w, x, y, z = rng.normal(size=4)
    n = (w * w + x * x + y * y + z * z) ** 0.5
    return UnitQuaternion(w / n, x / n, y / n, z / n)


def conjugate(q: UnitQuaternion) -> UnitQuaternion:
    """The inverse rotation of a unit quaternion."""
    return UnitQuaternion(q.w, -q.x, -q.y, -q.z)


def project(intr: CameraIntrinsics, point) -> tuple[float, float, float]:
    """Pinhole projection of a camera-frame point to (u, v, depth)."""
    p = as_vec3(point)
    if p[2] <= 0.0:
        raise ValueError(f"point with z={p[2]:.6g} is behind the camera")
    u = intr.fx * p[0] / p[2] + intr.cx
    v = intr.fy * p[1] / p[2] + intr.cy
    return float(u), float(v), float(p[2])


def reference_normalize(w, x, y, z) -> tuple[float, float, float, float]:
    """`np.linalg.norm` normalization and sign flip that `UnitQuaternion`
    must match bit for bit on the inputs it accepts."""
    q = np.array([w, x, y, z], dtype=np.float64)
    q /= float(np.linalg.norm(q))
    if q[0] < 0.0:
        q = -q
    return tuple(float(c) for c in q)


def reference_rotate(q: UnitQuaternion, v) -> np.ndarray:
    """`np.cross` form of the quaternion rotation, an oracle for the matrix
    form that `transform_point` and the renderer use."""
    vec = as_vec3(v)
    qv = np.array([q.x, q.y, q.z])
    t = 2.0 * np.cross(qv, vec)
    return vec + q.w * t + np.cross(qv, t)


def write_obj(path, mesh: TriangleMesh) -> None:
    store_mesh(path, mesh)


def reference_store_mesh(path, mesh: TriangleMesh) -> None:
    """Per-line f-string writer whose bytes `store_mesh` must match."""
    # tolist() hands the f-strings Python floats and ints, which format
    # faster than numpy scalars and to the same text.
    with open(path, "w", encoding="utf-8") as fh:
        for x, y, z in mesh.vertices.tolist():
            fh.write(f"v {x:.12g} {y:.12g} {z:.12g}\n")
        for a, b, c in (mesh.triangles + 1).tolist():
            fh.write(f"f {a} {b} {c}\n")


def traced_peak(fn):
    """`fn()`'s result and the peak bytes tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dense_mesh() -> TriangleMesh:
    """The apple-sized ellipsoid at 160 x 160: 25,442 vertices, 50,880 triangles."""
    return ellipsoid_mesh((CAD_CUBOID.dx / 2, CAD_CUBOID.dy / 2, CAD_CUBOID.dz / 2), 160, 160)


def reference_write_json(path, doc) -> None:
    """Streamed JSON writer whose bytes `write_json` must match."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def reference_parse_plain_obj(buf: bytes):
    """Per-block layout checks whose None-or-arrays outcome
    `fileio._parse_plain_obj` must match bit for bit.

    The buffer splits at the first line that opens with `f `; each block
    must be lines of its tag and three values of its number characters, and
    is then parsed with np.fromstring.
    """
    split = buf.find(b"\nf ") + 1
    v_block, f_block = buf[:split], buf[split:]
    n_v = _reference_plain_lines(v_block, b"v", b"0123456789+-.eE")
    n_f = _reference_plain_lines(f_block, b"f", b"0123456789")
    if n_v < 1 or n_f < 1:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            vertices = np.fromstring(v_block.translate(None, b"v"), sep=" ")
            indices = np.fromstring(f_block.translate(None, b"f"), dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    if vertices.size != 3 * n_v or indices.size != 3 * n_f:
        return None
    if indices.min() < 1 or indices.max() > n_v:
        return None
    return vertices.reshape(n_v, 3), indices.reshape(n_f, 3) - 1


def _reference_plain_lines(block: bytes, tag: bytes, number_chars: bytes) -> int:
    """The line count of `block` if each line is `<tag>` and three values
    of `number_chars` split by single spaces and ended by LF; else -1."""
    n = block.count(b"\n")
    if (
        block.translate(None, number_chars) != (tag + b"   \n") * n
        or not block.startswith(tag + b" ")
        or block.count(b"\n" + tag + b" ") != n - 1
    ):
        return -1
    return n


def searchsorted_ransac_inliers(d, v, cfg):
    """`ransac_inliers` with `ends` found by `np.searchsorted(hi, lo, "left")`,
    a large-n oracle for its stable merge of the two sorted end lists."""
    n = len(d)
    t = cfg.inlier_threshold
    lo = np.sort((d - t) / v)
    hi = np.sort((d + t) / v)
    ends = np.searchsorted(hi, lo, "left")
    k = int(np.argmax(np.arange(1, n + 1) - ends))
    best_mu = (lo[k] + hi[ends[k]]) / 2.0
    agree = np.abs(d - best_mu * v) <= t
    if np.count_nonzero(agree) < math.ceil(cfg.min_inlier_fraction * n):
        return None
    return np.flatnonzero(agree)


def reference_render_depth(mesh, pose, intr, scale: float = 1.0) -> DepthMap:
    """Bounding-box rasterizer that `render_depth` must match byte for byte.

    Every triangle is gathered as (3, T) corner arrays, re-oriented, and
    expanded to one fragment per pixel center of its clipped box; a fragment
    is kept when all three edge functions pass the top-left rule written
    out as `(e > 0) | ((e == 0) & top_left)`.
    """
    w, h = intr.width, intr.height
    rot = quat_to_matrix(pose.orientation)
    verts = pose.position + scale * (mesh.vertices @ rot.T)

    tri = mesh.triangles
    tri = tri[verts[:, 2][tri].min(axis=1) >= NEAR_PLANE]
    x, y, z = verts.T[:, tri.T]
    x = intr.fx * x / z + intr.cx
    y = intr.fy * y / z + intr.cy

    area2 = (x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])
    flip = area2 < 0.0
    x, y, z = (
        np.stack((a[0], np.where(flip, a[2], a[1]), np.where(flip, a[1], a[2])))
        for a in (x, y, z)
    )
    area2 = np.abs(area2)

    c = PIXEL_CENTER_OFFSET
    x_lo, x_hi = x.min(axis=0), x.max(axis=0)
    y_lo, y_hi = y.min(axis=0), y.max(axis=0)
    px_lo = np.clip(np.ceil(x_lo - c), 0, w - 1).astype(np.int64)
    px_hi = np.clip(np.floor(x_hi - c), 0, w - 1).astype(np.int64)
    py_lo = np.clip(np.ceil(y_lo - c), 0, h - 1).astype(np.int64)
    py_hi = np.clip(np.floor(y_hi - c), 0, h - 1).astype(np.int64)
    bw = px_hi - px_lo + 1
    bh = py_hi - py_lo + 1
    on = (
        (area2 > 0.0) & (bw > 0) & (bh > 0)
        & (x_hi >= c) & (x_lo <= w - c) & (y_hi >= c) & (y_lo <= h - c)
    )
    x, y, z = (np.compress(on, a, axis=1) for a in (x, y, z))
    area2, px_lo, py_lo, bw, bh = (a[on] for a in (area2, px_lo, py_lo, bw, bh))

    counts = bw * bh
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    t = np.repeat(np.arange(counts.shape[0]), counts)
    k = np.arange(int(counts.sum())) - starts[t]
    px = px_lo[t] + k % bw[t]
    py = py_lo[t] + k // bw[t]
    cu = px + c
    cv = py + c

    inside = np.ones(t.shape[0], dtype=bool)
    edges = []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        dx, dy = x[j] - x[i], y[j] - y[i]
        e = dx[t] * (cv - y[i][t]) - dy[t] * (cu - x[i][t])
        top_left = ((dy == 0.0) & (dx > 0.0)) | (dy < 0.0)
        inside &= (e > 0.0) | ((e == 0.0) & top_left[t])
        edges.append(e)
    e01, e12, e20 = (e[inside] for e in edges)

    t = t[inside]
    rz = 1.0 / z
    inv_z = (e12 * rz[0][t] + e20 * rz[1][t] + e01 * rz[2][t]) / area2[t]
    flat = py[inside] * w + px[inside]

    zbuf = np.full(w * h, np.inf, dtype=np.float32)
    np.minimum.at(zbuf, flat, (1.0 / inv_z).astype(np.float32))
    zbuf[zbuf == np.inf] = 0.0
    return DepthMap(w, h, zbuf.reshape(h, w))


def reference_generate_scene(spec, intr=DEFAULT_INTRINSICS):
    """Full-frame float64 scene build that `generate_scene` must match byte
    for byte: the occluder and the noise are applied through whole-frame
    masks."""
    mesh, _ = builtin_model(spec.mesh_id)
    rng = np.random.default_rng(spec.seed)

    gt_mesh = mesh
    if spec.shape_noise > 0.0:
        jitter = rng.uniform(-spec.shape_noise, spec.shape_noise, mesh.vertices.shape)
        gt_mesh = TriangleMesh(mesh.vertices + jitter, mesh.triangles)

    rendered = render_depth(gt_mesh, spec.true_pose, intr, scale=spec.true_scale)
    if not rendered.valid_mask.any():
        raise ValueError(f"scene {spec.scene_id!r}: the object covers no pixel")
    data = rendered.data.astype(np.float64)

    if spec.occluder_fraction > 0.0:
        occluder_depth = spec.object_depth - spec.occluder_offset
        region = leftmost_region(pixel_support(rendered), intr.width, spec.occluder_fraction)
        flat = data.reshape(-1)
        covered = flat[region]
        if not np.any(covered > occluder_depth):
            raise ValueError(
                f"scene {spec.scene_id!r}: the occluder at depth {occluder_depth} "
                "is nearer than the object on no pixel of its region"
            )
        flat[region] = np.minimum(covered, occluder_depth)

    if spec.depth_noise > 0.0:
        valid = data > 0.0
        noisy = data[valid] + rng.normal(0.0, spec.depth_noise, int(valid.sum()))
        data[valid] = np.maximum(noisy, MIN_VALID_DEPTH)

    real = DepthMap(intr.width, intr.height, data)
    return real, simulate_rgb_estimate(spec.true_pose, spec.true_scale)


def candidate_position(center, radius: float, alpha: float, theta: float) -> np.ndarray:
    """One grid point: center + r*(sin(t)sin(a), sin(t)cos(a), cos(t))."""
    st = math.sin(theta)
    offset = np.array(
        [st * math.sin(alpha), st * math.cos(alpha), math.cos(theta)],
        dtype=np.float64,
    )
    return as_vec3(center) + radius * offset


def candidate_orientation(align: UnitQuaternion, alpha: float, theta: float) -> UnitQuaternion:
    """One grid orientation: align * Rz(alpha) * Ry(theta) as quaternions."""
    return quat_mul(quat_mul(align, quat_z(alpha)), quat_y(theta))


def reference_ellipsoid_mesh(radii, rings: int, segments: int) -> TriangleMesh:
    """Per-vertex, per-triangle loop build that `ellipsoid_mesh` must match
    byte for byte."""
    rx, ry, rz = (float(r) for r in radii)
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
