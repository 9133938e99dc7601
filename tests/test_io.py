"""OBJ meshes, PFM depth maps, and the JSON scene document."""

import json
import math
import struct

import numpy as np
import pytest

from depthrefine import (
    ConfigError,
    DepthMap,
    DepthMapFormatError,
    EmptyGeometryError,
    MeshParseError,
    load_depth,
    load_mesh,
    load_scene_config,
    store_depth,
)
from depthrefine.fileio import MAX_PFM_PIXELS
from helpers import square_mesh, write_obj

CUBE_OBJ = """\
# unit-ish cube
v 0 0 0
v 2 0 0
v 2 2 0
v 0 2 0
v 0 0 2
v 2 0 2
v 2 2 2
v 0 2 2
f 1 2 3 4
f 5 8 7 6
f 1 5 6 2
f 2 6 7 3
f 3 7 8 4
f 4 8 5 1
"""


def scene_doc(**overrides) -> dict:
    doc = {
        "position": [0.0, 0.0, 0.5],
        "orientation": [1.0, 0.0, 0.0, 0.0],
        "fx": 600.0,
        "fy": 600.0,
        "cx": 320.0,
        "cy": 240.0,
        "width": 640,
        "height": 480,
        "cad_dims": [0.092, 0.080, 0.092],
    }
    doc.update(overrides)
    return doc


class TestLoadMesh:
    def test_cube_quads_fan_triangulated_and_recentered(self, tmp_path):
        path = tmp_path / "cube.obj"
        path.write_text(CUBE_OBJ)
        mesh = load_mesh(path)
        assert mesh.vertices.shape == (8, 3)
        assert mesh.triangles.shape == (12, 3)
        # original centroid (1,1,1) removed
        assert np.abs(mesh.centroid).max() < 1e-12
        assert np.allclose(np.abs(mesh.vertices), 1.0, atol=1e-12)

    def test_recentering_offset_logged(self, tmp_path, caplog):
        path = tmp_path / "cube.obj"
        path.write_text(CUBE_OBJ)
        with caplog.at_level("INFO", logger="depthrefine.fileio"):
            load_mesh(path)
        assert "re-centered" in caplog.text

    def test_slash_bundles_and_negative_indices(self, tmp_path):
        path = tmp_path / "m.obj"
        path.write_text(
            "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
            "vn 0 0 1\nvt 0 0\n"
            "f 1/1/1 2/1/1 3/1/1\n"
            "f -3 -2 -1\n"
        )
        mesh = load_mesh(path)
        assert mesh.triangles.shape == (2, 3)

    def test_round_trip_helper(self, tmp_path):
        path = tmp_path / "sq.obj"
        original = square_mesh()
        write_obj(path, original)
        mesh = load_mesh(path)
        assert np.allclose(mesh.vertices, original.vertices, atol=1e-12)
        assert np.array_equal(mesh.triangles, original.triangles)

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
        with pytest.raises(MeshParseError, match="4"):
            load_mesh(path)

    def test_zero_index(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
        with pytest.raises(MeshParseError, match="1-based"):
            load_mesh(path)

    def test_malformed_vertex(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 zero 0\n")
        with pytest.raises(MeshParseError, match="bad.obj:1"):
            load_mesh(path)

    def test_short_face(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nf 1 2\n")
        with pytest.raises(MeshParseError, match="at least 3"):
            load_mesh(path)

    def test_no_triangles(self, tmp_path):
        path = tmp_path / "empty.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n")
        with pytest.raises(EmptyGeometryError):
            load_mesh(path)


class TestPfm:
    def random_map(self, seed: int = 0) -> DepthMap:
        rng = np.random.default_rng(seed)
        data = rng.uniform(0.1, 3.0, (7, 5)).astype(np.float32)
        data[rng.uniform(size=(7, 5)) < 0.3] = 0.0
        return DepthMap(5, 7, data)

    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "d.pfm"
        original = self.random_map()
        store_depth(path, original)
        loaded = load_depth(path)
        assert loaded.width == 5 and loaded.height == 7
        assert np.array_equal(
            loaded.data.view(np.uint32), original.data.view(np.uint32)
        )

    def test_layout_bottom_up_little_endian(self, tmp_path):
        path = tmp_path / "d.pfm"
        data = np.array([[1.5, 0.0], [2.5, 3.5]], dtype=np.float32)
        store_depth(path, DepthMap(2, 2, data))
        raw = path.read_bytes()
        header = b"Pf\n2 2\n-1.0\n"
        assert raw.startswith(header)
        payload = raw[len(header):]
        assert len(payload) == 16
        floats = struct.unpack("<4f", payload)
        # bottom row first on disk
        assert floats == (2.5, 3.5, 1.5, 0.0)

    def test_invalid_sentinel_saved_exactly(self, tmp_path):
        path = tmp_path / "d.pfm"
        data = np.array([[0.5, 0.0], [0.25, 1.0]], dtype=np.float32)
        store_depth(path, DepthMap(2, 2, data))
        loaded = load_depth(path)
        assert float(loaded.data[0, 1]) == 0.0
        assert not loaded.valid_mask[0, 1]

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"PF\n2 2\n-1.0\n" + b"\x00" * 48)
        with pytest.raises(DepthMapFormatError, match="magic"):
            load_depth(path)

    def test_rejects_big_endian(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n2 2\n1.0\n" + b"\x00" * 16)
        with pytest.raises(DepthMapFormatError, match="big-endian"):
            load_depth(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n4 4\n-1.0\n" + b"\x00" * 10)
        with pytest.raises(DepthMapFormatError, match="truncated payload"):
            load_depth(path)

    def test_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n2")
        with pytest.raises(DepthMapFormatError, match="header"):
            load_depth(path)

    def test_rejects_dimension_overflow(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n99999999 99999999\n-1.0\n")
        with pytest.raises(DepthMapFormatError, match="overflow"):
            load_depth(path)

    def test_rejects_negative_depths(self, tmp_path):
        path = tmp_path / "d.pfm"
        payload = struct.pack("<4f", -1.0, 0.5, 0.5, 0.5)
        path.write_bytes(b"Pf\n2 2\n-1.0\n" + payload)
        with pytest.raises(DepthMapFormatError):
            load_depth(path)

    def test_scale_magnitude_applied(self, tmp_path):
        path = tmp_path / "d.pfm"
        payload = struct.pack("<4f", 1.0, 2.0, 3.0, 4.0)
        path.write_bytes(b"Pf\n2 2\n-0.5\n" + payload)
        loaded = load_depth(path)
        assert np.allclose(np.sort(loaded.data.ravel()), [0.5, 1.0, 1.5, 2.0])


class TestSceneConfig:
    def write(self, tmp_path, doc) -> str:
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_parses_all_fields(self, tmp_path):
        doc = scene_doc(world_T_camera={
            "position": [0.0, 0.0, 0.54],
            "orientation": [0.0, 1.0, 0.0, 0.0],
        })
        pose, intr, extr, dims = load_scene_config(self.write(tmp_path, doc))
        assert np.allclose(pose.position, [0.0, 0.0, 0.5])
        assert pose.orientation.w == 1.0
        assert (intr.fx, intr.width) == (600.0, 640)
        assert extr is not None
        assert np.allclose(extr.position, [0.0, 0.0, 0.54])
        assert np.allclose(dims.as_array(), [0.092, 0.080, 0.092], atol=1e-15)

    def test_extrinsics_optional(self, tmp_path):
        _, _, extr, _ = load_scene_config(self.write(tmp_path, scene_doc()))
        assert extr is None

    def test_missing_field(self, tmp_path):
        doc = scene_doc()
        del doc["cad_dims"]
        with pytest.raises(ConfigError, match="cad_dims"):
            load_scene_config(self.write(tmp_path, doc))

    def test_near_unit_quaternion_renormalized(self, tmp_path):
        doc = scene_doc(orientation=[1.0005, 0.0, 0.0, 0.0])
        pose, _, _, _ = load_scene_config(self.write(tmp_path, doc))
        assert pose.orientation.w == 1.0

    def test_far_from_unit_quaternion_rejected(self, tmp_path):
        doc = scene_doc(orientation=[0.5, 0.0, 0.0, 0.0])
        with pytest.raises(ConfigError, match="orientation"):
            load_scene_config(self.write(tmp_path, doc))

    def test_non_finite_rejected(self, tmp_path):
        doc = scene_doc(fx=float("nan"))
        with pytest.raises(ConfigError, match="fx"):
            load_scene_config(self.write(tmp_path, doc))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_scene_config(str(path))

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError, match="object"):
            load_scene_config(str(path))

    def test_image_size_bounded_like_pfm(self, tmp_path):
        # Checked while parsing; nothing of the image size is allocated.
        doc = scene_doc(width=100_000, height=100_000, cx=50_000.0, cy=50_000.0)
        with pytest.raises(ConfigError, match="exceeds"):
            load_scene_config(self.write(tmp_path, doc))
        side = math.isqrt(MAX_PFM_PIXELS)
        doc = scene_doc(width=side, height=side, cx=side / 2, cy=side / 2)
        _, intr, _, _ = load_scene_config(self.write(tmp_path, doc))
        assert intr.width * intr.height <= MAX_PFM_PIXELS

    def test_bad_intrinsics_rejected(self, tmp_path):
        doc = scene_doc(cx=900.0)
        with pytest.raises(ConfigError):
            load_scene_config(self.write(tmp_path, doc))
