"""File formats: OBJ meshes, PFM depth maps, JSON scene configs.

OBJ support is the ASCII subset with `v` and `f` records; polygonal faces
are fan-triangulated and vertices are re-centered on load so the model
centroid sits at the origin (the invariant point of the scale transform).
Depth maps use grayscale PFM (`Pf`), little-endian, meters, with 0.0 as
the invalid sentinel; round-trips are bit-exact. Poses, intrinsics, and
model dimensions travel in one JSON document.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path

import numpy as np

from .errors import ConfigError, DepthMapFormatError, MeshParseError
from .geometry import CameraIntrinsics, CuboidDims, Pose, UnitQuaternion
from .renderer import DepthMap, TriangleMesh

log = logging.getLogger(__name__)

# Reject PFM headers and scene configs whose pixel count exceeds this; a
# corrupt header must not drive a giant allocation.
MAX_PFM_PIXELS = 100_000_000


def load_mesh(path) -> TriangleMesh:
    """Load an ASCII OBJ file, re-centered so the vertex centroid is the origin.

    Only `v` and `f` records are honored; everything else is skipped.
    Faces may carry `v/vt/vn` bundles (only the vertex index is used) and
    polygons are fan-triangulated. Indices are 1-based; negative indices
    count back from the current vertex list.
    """
    path = Path(path)
    vertices: list[tuple[float, float, float]] = []
    triangles: list[tuple[int, int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0] not in ("v", "f"):
                continue
            if parts[0] == "v":
                if len(parts) < 4:
                    raise MeshParseError(
                        f"{path.name}:{lineno}: vertex needs 3 coordinates"
                    )
                try:
                    vertices.append(tuple(float(s) for s in parts[1:4]))
                except ValueError:
                    raise MeshParseError(
                        f"{path.name}:{lineno}: non-numeric vertex coordinate"
                    ) from None
            else:
                if len(parts) < 4:
                    raise MeshParseError(
                        f"{path.name}:{lineno}: face needs at least 3 vertices"
                    )
                idx = []
                for tok in parts[1:]:
                    head = tok.split("/")[0]
                    try:
                        k = int(head)
                    except ValueError:
                        raise MeshParseError(
                            f"{path.name}:{lineno}: bad face index {tok!r}"
                        ) from None
                    if k == 0:
                        raise MeshParseError(
                            f"{path.name}:{lineno}: face index 0 (indices are 1-based)"
                        )
                    k = k - 1 if k > 0 else len(vertices) + k
                    if not 0 <= k < len(vertices):
                        raise MeshParseError(
                            f"{path.name}:{lineno}: face index {tok} out of range "
                            f"for {len(vertices)} vertices"
                        )
                    idx.append(k)
                for a, b in zip(idx[1:-1], idx[2:]):
                    triangles.append((idx[0], a, b))
    try:
        mesh = TriangleMesh(np.array(vertices, dtype=np.float64).reshape(-1, 3),
                            np.array(triangles, dtype=np.int64).reshape(-1, 3))
    except ValueError as exc:
        raise MeshParseError(f"{path.name}: {exc}") from None
    centered, offset = mesh.recentered()
    log.info(
        "loaded %s: %d vertices, %d triangles, re-centered by (%g, %g, %g)",
        path.name, len(vertices), len(triangles), *offset,
    )
    return centered


def store_mesh(path, mesh: TriangleMesh) -> None:
    """Write a mesh as an ASCII OBJ file (v and f records, 1-based indices)."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.12g} {v[1]:.12g} {v[2]:.12g}\n")
        for t in mesh.triangles:
            fh.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")


def store_depth(path, depth: DepthMap) -> None:
    """Write a depth map as grayscale little-endian PFM."""
    header = f"Pf\n{depth.width} {depth.height}\n-1.0\n".encode("ascii")
    payload = np.ascontiguousarray(np.flipud(depth.data), dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_depth(path) -> DepthMap:
    """Read a grayscale PFM depth map, bit-exact against store_depth."""
    with open(path, "rb") as fh:
        buf = fh.read()
    pos = 0
    tokens = []
    for _ in range(4):
        while pos < len(buf) and buf[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(buf) and not buf[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DepthMapFormatError("truncated header")
        tokens.append(buf[start:pos])
    pos += 1  # single whitespace byte terminates the header

    if tokens[0] != b"Pf":
        raise DepthMapFormatError(
            f"unsupported magic {tokens[0]!r} (grayscale 'Pf' required)"
        )
    try:
        width, height = int(tokens[1]), int(tokens[2])
        scale = float(tokens[3])
    except ValueError:
        raise DepthMapFormatError("non-numeric header field") from None
    if width <= 0 or height <= 0 or width * height > MAX_PFM_PIXELS:
        raise DepthMapFormatError(f"dimensions {width}x{height} overflow sane bounds")
    if scale > 0:
        raise DepthMapFormatError("big-endian PFM not supported (scale must be negative)")
    if scale == 0:
        raise DepthMapFormatError("zero scale header")

    expected = width * height * 4
    payload = buf[pos : pos + expected]
    if len(payload) < expected:
        raise DepthMapFormatError(
            f"truncated payload: {len(payload)} bytes, expected {expected}"
        )
    data = np.frombuffer(payload, dtype="<f4").reshape(height, width)
    data = np.flipud(data).copy()  # PFM stores rows bottom-up
    if -scale != 1.0:
        data *= np.float32(-scale)
    try:
        return DepthMap(width, height, data)
    except ValueError as exc:
        raise DepthMapFormatError(str(exc)) from None


def _vec3_field(doc: dict, key: str) -> np.ndarray:
    val = doc.get(key)
    if not (isinstance(val, (list, tuple)) and len(val) == 3):
        raise ConfigError(f"field {key!r} must be a 3-element array")
    arr = np.array(val, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"field {key!r} must be finite")
    return arr


def _number_field(doc: dict, key: str) -> float:
    val = doc.get(key)
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigError(f"field {key!r} must be a number")
    if not np.isfinite(val):
        raise ConfigError(f"field {key!r} must be finite")
    return float(val)


def _quat_field(doc: dict, key: str) -> UnitQuaternion:
    val = doc.get(key)
    if not (isinstance(val, (list, tuple)) and len(val) == 4):
        raise ConfigError(f"field {key!r} must be a 4-element [w, x, y, z] array")
    try:
        return UnitQuaternion(*(float(c) for c in val))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {key!r}: {exc}") from None


def _pose_from(doc: dict) -> Pose:
    return Pose(_vec3_field(doc, "position"), _quat_field(doc, "orientation"))


def load_scene_config(path) -> tuple[Pose, CameraIntrinsics, Pose | None, CuboidDims]:
    """Parse the JSON scene document: pose, intrinsics, optional camera
    extrinsics (camera pose in the world frame), and model cuboid dims.

    Required fields: position [x,y,z] (m), orientation [w,x,y,z],
    fx, fy, cx, cy, width, height, cad_dims [dx,dy,dz] (m).
    Optional: world_T_camera {position, orientation}.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path.name}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path.name}: top level must be an object")

    required = ("position", "orientation", "fx", "fy", "cx", "cy",
                "width", "height", "cad_dims")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ConfigError(f"{path.name}: missing fields {missing}")

    try:
        pose = _pose_from(doc)
        intr = CameraIntrinsics(
            fx=_number_field(doc, "fx"),
            fy=_number_field(doc, "fy"),
            cx=_number_field(doc, "cx"),
            cy=_number_field(doc, "cy"),
            width=_number_field(doc, "width"),
            height=_number_field(doc, "height"),
        )
        dims = CuboidDims(*_vec3_field(doc, "cad_dims"))
    except ValueError as exc:
        raise ConfigError(f"{path.name}: {exc}") from None
    # Same bound as a PFM header, checked before anything allocates the image.
    if intr.width * intr.height > MAX_PFM_PIXELS:
        raise ConfigError(
            f"{path.name}: image {intr.width}x{intr.height} exceeds {MAX_PFM_PIXELS} pixels"
        )

    extrinsics = None
    if "world_T_camera" in doc:
        sub = doc["world_T_camera"]
        if not isinstance(sub, dict):
            raise ConfigError(f"{path.name}: world_T_camera must be an object")
        for k in ("position", "orientation"):
            if k not in sub:
                raise ConfigError(f"{path.name}: world_T_camera missing {k!r}")
        try:
            extrinsics = _pose_from(sub)
        except ValueError as exc:
            raise ConfigError(f"{path.name}: world_T_camera: {exc}") from None
    return pose, intr, extrinsics, dims
