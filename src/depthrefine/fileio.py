"""File formats: OBJ meshes, PFM depth maps, JSON scene configs.

OBJ support is the ASCII subset with `v` and `f` records; polygonal faces
are fan-triangulated and vertices are re-centered on load so the model
centroid sits at the origin (the invariant point of the scale transform).
A plain file of `v x y z` lines then `f a b c` lines, as store_mesh
writes it, passes one layout check over the whole buffer and is parsed
in bulk; every other file goes through the line parser, and both give
the same arrays. Depth maps use grayscale PFM (`Pf`), little-endian,
meters, with 0.0 as the invalid sentinel (NaN and inf pixels load as
0.0); round-trips are bit-exact. Poses, intrinsics, and model dimensions
travel in one JSON document.
"""

from __future__ import annotations

import json
import logging
import math
import re
import warnings
from pathlib import Path

import numpy as np

from .geometry import MAX_IMAGE_PIXELS, CameraIntrinsics, CuboidDims, Pose, UnitQuaternion, _count, _real
from .renderer import DepthMap, TriangleMesh

log = logging.getLogger(__name__)
_STORE_BLOCK_ROWS = 4096  # store_mesh formats this many rows at a time


def load_mesh(path) -> TriangleMesh:
    """Load an ASCII OBJ file, re-centered so the vertex centroid is the origin.

    Only `v` and `f` records are honored; everything else is skipped.
    Faces may carry `v/vt/vn` bundles (only the vertex index is used) and
    polygons are fan-triangulated. Indices are 1-based; negative indices
    count back from the current vertex list.
    """
    path = Path(path)
    parsed = _parse_plain_obj(path.read_bytes())
    if parsed is None:
        parsed = _parse_obj_lines(path)
    try:
        mesh = TriangleMesh(*parsed)
    except ValueError as exc:
        raise ValueError(f"{path.name}: {exc}") from None
    # Validated first, so no non-finite vertex reaches the mean. The parsed
    # array is the mesh's own, so it is re-centered in place. Finite
    # coordinates near the float64 limit can still overflow in the sum or
    # the shift; min and max propagate NaN and hold any inf.
    with np.errstate(over="ignore", invalid="ignore"):
        offset = mesh.vertices.mean(axis=0)
        np.subtract(mesh.vertices, offset, out=mesh.vertices)
    if not (np.isfinite(mesh.vertices.min()) and np.isfinite(mesh.vertices.max())):
        raise ValueError(f"{path.name}: re-centering the vertices overflows float64")
    log.info(
        "loaded %s: %d vertices, %d triangles, re-centered by (%g, %g, %g)",
        path.name, len(mesh.vertices), len(mesh.triangles), *offset,
    )
    return mesh


def _parse_plain_obj(buf: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """Parse store_mesh's layout (only `v x y z` lines, then only `f a b c`
    lines) with one np.fromstring per block.

    One layout check covers the whole buffer: deleting the number
    characters must leave `v   ` lines then `f   ` lines, every tag must
    open its line and be followed by a space, and the face lines must hold
    digits only. Returns (vertices, 0-based triangles), or None whenever
    the arrays could differ from _parse_obj_lines': any other layout
    (comments, other records, bundles, polygons, signed indices, tabs, CR,
    non-ASCII bytes), a token numpy reads other than as one whole number,
    or an index outside 1..vertex count. Coordinates that overflow read as
    inf in both.
    """
    # Deleting the values leaves each line's tag, three spaces and LF.
    skeleton = buf.translate(None, b"0123456789+-.eE")
    n_v = skeleton.find(b"f") // 5
    n_f = len(skeleton) // 5 - n_v
    if n_v < 1 or n_f < 1 or skeleton != b"v   \n" * n_v + b"f   \n" * n_f:
        return None
    # The buffer now holds only values, tags, spaces and LF, and of these
    # only the two tags sort above `e`.
    raw = np.frombuffer(buf, dtype=np.uint8)
    tags = np.flatnonzero(raw > ord("e"))
    before, after = raw[tags[1:] - 1], raw[tags + 1]
    if tags[0] != 0 or (before != ord("\n")).any() or (after != ord(" ")).any():
        return None
    split = tags[n_v]
    del tags, before, after
    # With each tag alone between a line start and a space, a space in its
    # place leaves the same tokens. Each block is translated on its own, the
    # faces after the vertices are parsed, so the buffer is never copied whole.
    blank = bytes.maketrans(b"vf", b"  ")
    try:
        # On unmatched data numpy 2 raises ValueError; numpy < 2 warns with
        # a DeprecationWarning and truncates, which the counts also catch.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            vertices = np.fromstring(buf[:split].translate(blank), sep=" ")
            f_text = buf[split:].translate(blank)
            if any(c in f_text for c in b"+-.eE"):
                return None
            indices = np.fromstring(f_text, dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    # Each line has three spaces after its tag, so these totals hold only
    # if every line holds three values.
    if vertices.size != 3 * n_v or indices.size != 3 * n_f:
        return None
    # int64 overflow saturates in numpy; the line parser reports the index.
    if indices.min() < 1 or indices.max() > n_v:
        return None
    indices -= 1
    return vertices.reshape(n_v, 3), indices.reshape(n_f, 3)


def _parse_obj_lines(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Parse any OBJ line by line: (vertices, 0-based fan-triangulated faces).

    Raises ValueError naming the line of the first bad record.
    """
    vertices: list[tuple[float, float, float]] = []
    triangles: list[tuple[int, int, int]] = []
    # utf-8-sig drops a leading byte-order mark, which would hide the first record.
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0] not in ("v", "f"):
                continue
            if parts[0] == "v":
                if len(parts) < 4:
                    raise ValueError(f"{path.name}:{lineno}: vertex needs 3 coordinates")
                try:
                    vertices.append(tuple(float(s) for s in parts[1:4]))
                except ValueError:
                    raise ValueError(
                        f"{path.name}:{lineno}: non-numeric vertex coordinate"
                    ) from None
            else:
                if len(parts) < 4:
                    raise ValueError(f"{path.name}:{lineno}: face needs at least 3 vertices")
                idx = []
                for tok in parts[1:]:
                    head = tok.split("/")[0]
                    try:
                        k = int(head)
                    except ValueError:
                        raise ValueError(f"{path.name}:{lineno}: bad face index {tok!r}") from None
                    if k == 0:
                        raise ValueError(
                            f"{path.name}:{lineno}: face index 0 (indices are 1-based)"
                        )
                    k = k - 1 if k > 0 else len(vertices) + k
                    if not 0 <= k < len(vertices):
                        raise ValueError(
                            f"{path.name}:{lineno}: face index {tok} out of range "
                            f"for {len(vertices)} vertices"
                        )
                    idx.append(k)
                for a, b in zip(idx[1:-1], idx[2:]):
                    triangles.append((idx[0], a, b))
    return (np.array(vertices, dtype=np.float64).reshape(-1, 3),
            np.array(triangles, dtype=np.int64).reshape(-1, 3))


def store_mesh(path, mesh: TriangleMesh) -> None:
    """Write a mesh as an ASCII OBJ file (v and f records, 1-based indices)."""
    # One `%` format per block of rows: tolist() hands it Python floats and
    # ints, which format faster than numpy scalars and to the same text.
    records = (("v %.12g %.12g %.12g\n", mesh.vertices), ("f %d %d %d\n", mesh.triangles + 1))
    with open(path, "w", encoding="utf-8") as fh:
        for line, rows in records:
            for start in range(0, len(rows), _STORE_BLOCK_ROWS):
                block = rows[start : start + _STORE_BLOCK_ROWS]
                fh.write(line * len(block) % tuple(block.ravel().tolist()))


def store_depth(path, depth: DepthMap) -> None:
    """Write a depth map as grayscale little-endian PFM."""
    header = f"Pf\n{depth.width} {depth.height}\n-1.0\n".encode("ascii")
    payload = np.ascontiguousarray(np.flipud(depth.data), dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_depth(path) -> DepthMap:
    """Read a grayscale PFM depth map, bit-exact against store_depth.

    NaN and +/-inf pixels, the holes a sensor leaves, load as 0.0 (invalid).
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    # Four whitespace-separated tokens; one whitespace byte ends the header.
    header = re.match(rb"\s*(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s?", buf)
    if header is None:
        raise ValueError("truncated header")
    tokens = header.groups()
    if tokens[0] != b"Pf":
        raise ValueError(f"unsupported magic {tokens[0]!r} (grayscale 'Pf' required)")
    try:
        width, height = int(tokens[1]), int(tokens[2])
        scale = float(tokens[3])
    except ValueError:
        raise ValueError("non-numeric header field") from None
    width, height = _count("width", width), _count("height", height)
    if width * height > MAX_IMAGE_PIXELS:
        raise ValueError(f"dimensions {width}x{height} overflow sane bounds")
    if scale > 0:
        raise ValueError("big-endian PFM not supported (scale must be negative)")

    expected = width * height * 4
    payload = memoryview(buf)[header.end() : header.end() + expected]
    if len(payload) < expected:
        raise ValueError(f"truncated payload: {len(payload)} bytes, expected {expected}")
    data = np.frombuffer(payload, dtype="<f4").reshape(height, width)
    data = np.flipud(data).copy()  # PFM stores rows bottom-up
    holes = ~np.isfinite(data)
    if holes.any():
        data[holes] = 0.0
        log.info("%s: %d NaN/inf pixels mapped to 0.0 (invalid)",
                 Path(path).name, int(np.count_nonzero(holes)))
    _scale_depths(data, -scale, "scale header magnitude")
    return DepthMap(width, height, data)


# The depth factors float32 depths can take, as Python floats so that a huge
# factor is not cast to float32 before it is checked: below the smallest
# normal the depths underflow to 0 and the scene gets the blame; above the
# largest the float32 cast overflows.
_F32_TINY, _F32_MAX = float(np.finfo(np.float32).tiny), float(np.finfo(np.float32).max)


def _scale_depths(data: np.ndarray, factor: float, label: str) -> np.ndarray:
    """Multiply float32 depths in place by `factor` and return them; raise
    ValueError naming `label` unless `factor` lies in [_F32_TINY, _F32_MAX]."""
    factor = _real(label, factor, f"in [{_F32_TINY:.6g}, {_F32_MAX:.6g}]",
                   lambda v: _F32_TINY <= v <= _F32_MAX)
    if factor != 1.0:
        # An overflowing product reaches DepthMap's finite check as inf.
        with np.errstate(over="ignore"):
            data *= np.float32(factor)
    return data


def _field(doc: dict, key: str, size: int = 0):
    """The finite number at doc[key], or with `size` the list of that many
    finite numbers, as floats. Raises ValueError naming the field `key`."""
    if key not in doc:
        raise ValueError(f"missing field {key!r}")
    val = doc[key]
    if not size:
        return _real(f"field {key!r}", val, "finite", math.isfinite)
    if not (isinstance(val, list) and len(val) == size):
        raise ValueError(f"field {key!r} must be a {size}-element array")
    return [_real(f"field {key!r}", v, "finite", math.isfinite) for v in val]


def _pose_from(doc: dict) -> Pose:
    position = _field(doc, "position", 3)
    components = _field(doc, "orientation", 4)
    try:
        orientation = UnitQuaternion(*components)
    except ValueError as exc:
        raise ValueError(f"field 'orientation': {exc}") from None
    return Pose(position, orientation)


def _pose_doc(pose: Pose) -> dict:
    return {"position": pose.position.tolist(), "orientation": pose.orientation.as_array().tolist()}


def write_json(path, doc) -> None:
    """Write `doc` as 2-space-indented JSON with a trailing newline.

    The text is built first, so a document json cannot encode raises
    TypeError before any file is created.
    """
    text = json.dumps(doc, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def store_scene_config(
    path, pose: Pose, intr: CameraIntrinsics, dims: CuboidDims, extrinsics: Pose | None = None
) -> None:
    """Write the JSON scene document that load_scene_config reads back."""
    doc = {
        **_pose_doc(pose),
        "fx": intr.fx,
        "fy": intr.fy,
        "cx": intr.cx,
        "cy": intr.cy,
        "width": intr.width,
        "height": intr.height,
        "cad_dims": dims.as_array().tolist(),
    }
    if extrinsics is not None:
        doc["world_T_camera"] = _pose_doc(extrinsics)
    write_json(path, doc)


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
        raise ValueError(f"{path.name}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path.name}: top level must be an object")

    try:
        pose = _pose_from(doc)
        intr = CameraIntrinsics(
            *(_field(doc, key) for key in ("fx", "fy", "cx", "cy", "width", "height"))
        )
        dims = CuboidDims(*_field(doc, "cad_dims", 3))
    except ValueError as exc:
        raise ValueError(f"{path.name}: {exc}") from None

    extrinsics = None
    if "world_T_camera" in doc:
        sub = doc["world_T_camera"]
        if not isinstance(sub, dict):
            raise ValueError(f"{path.name}: world_T_camera must be an object")
        try:
            extrinsics = _pose_from(sub)
        except ValueError as exc:
            raise ValueError(f"{path.name}: world_T_camera: {exc}") from None
    return pose, intr, extrinsics, dims
