"""OBJ meshes, PFM depth maps, and the JSON scene document."""

import json
import math
import re
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthrefine import (
    CameraIntrinsics,
    CuboidDims,
    DepthMap,
    Pose,
    TriangleMesh,
    UnitQuaternion,
    load_depth,
    load_mesh,
    load_scene_config,
    store_depth,
    store_mesh,
    store_scene_config,
)
from depthrefine.geometry import MAX_IMAGE_PIXELS, quat_x
from depthrefine import fileio
from helpers import (
    dense_mesh,
    reference_parse_plain_obj,
    reference_store_mesh,
    reference_write_json,
    square_mesh,
    traced_peak,
    write_obj,
)

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
        assert np.abs(mesh.vertices.mean(axis=0)).max() < 1e-12
        assert np.allclose(np.abs(mesh.vertices), 1.0, atol=1e-12)

    def test_recentering_offset_logged(self, tmp_path, caplog):
        path = tmp_path / "cube.obj"
        path.write_text(CUBE_OBJ)
        with caplog.at_level("INFO", logger="depthrefine.fileio"):
            load_mesh(path)
        assert "re-centered" in caplog.text

    @pytest.mark.parametrize("text", [
        # The x sum overflows.
        "v 1e308 0 0\nv 1e308 1 0\nv 0 0 1\nf 1 2 3\n",
        # The sum and the mean are finite; 1.7e308 minus the mean is not.
        "v 1.7e308 0 0\nv -1.7e308 1 0\nv -1.7e308 0 1\nf 1 2 3\n",
    ])
    def test_recentering_overflow_rejected(self, tmp_path, text):
        path = tmp_path / "big.obj"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"big\.obj: re-centering the vertices overflows"):
            load_mesh(path)

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

    def test_store_mesh_layout(self, tmp_path):
        # The bulk reader accepts exactly this layout: `v` lines at 12
        # significant digits, then 1-based `f` lines, single spaces, LF ends.
        path = tmp_path / "tri.obj"
        verts = np.array([[1.0 / 3.0, -2.5e-7, 0.0], [1e12, 1.0, 2.0], [0.1, 0.2, 123456.789]])
        store_mesh(path, TriangleMesh(verts, np.array([[0, 1, 2], [2, 1, 0]])))
        assert path.read_bytes() == (
            b"v 0.333333333333 -2.5e-07 0\n"
            b"v 1e+12 1 2\n"
            b"v 0.1 0.2 123456.789\n"
            b"f 1 2 3\n"
            b"f 3 2 1\n"
        )

    def test_store_mesh_matches_reference_writer(self, tmp_path):
        # Signed zeros, the smallest subnormal, huge and tiny magnitudes.
        verts = np.array([[-0.0, 5e-324, 1e300], [-1.5e-7, 0.1, 0.0], [0.1, -0.0, -1e300]])
        mesh = TriangleMesh(verts, np.array([[0, 1, 2], [2, 1, 0]]))
        store_mesh(tmp_path / "got.obj", mesh)
        reference_store_mesh(tmp_path / "want.obj", mesh)
        got = (tmp_path / "got.obj").read_bytes()
        assert got == (tmp_path / "want.obj").read_bytes()
        assert got.startswith(b"v -0 4.94065645841e-324 1e+300\n")

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
        with pytest.raises(ValueError, match="4"):
            load_mesh(path)

    def test_zero_index(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
        with pytest.raises(ValueError, match="1-based"):
            load_mesh(path)

    def test_malformed_vertex(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 zero 0\n")
        with pytest.raises(ValueError, match="bad.obj:1"):
            load_mesh(path)

    def test_short_face(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nf 1 2\n")
        with pytest.raises(ValueError, match="at least 3"):
            load_mesh(path)

    def test_byte_order_mark_ignored(self, tmp_path):
        # The mark used to hide the first `v` record, which shifted every face.
        text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\n"
        plain, marked = tmp_path / "plain.obj", tmp_path / "bom.obj"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        want, got = load_mesh(plain), load_mesh(marked)
        assert np.array_equal(got.vertices, want.vertices)
        assert np.array_equal(got.triangles, want.triangles)

    def test_no_triangles(self, tmp_path):
        path = tmp_path / "empty.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n")
        with pytest.raises(ValueError, match="^empty.obj: mesh has no triangles$"):
            load_mesh(path)


def _line_parser_load(path) -> TriangleMesh:
    """load_mesh with its bulk path switched off."""
    with mock.patch.object(fileio, "_parse_plain_obj", return_value=None):
        return load_mesh(path)


def _outcome(load, path):
    """The loaded arrays, or the type and message of what was raised."""
    try:
        mesh = load(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return mesh.vertices, mesh.triangles


def _edit_lines(text: str, tag: str, edit) -> str:
    """Apply `edit` to the tokens after the tag of every `tag` line."""
    lines = text.splitlines(keepends=True)
    for k, line in enumerate(lines):
        if line.startswith(tag + " "):
            lines[k] = " ".join([tag, *edit(line.split()[1:])]) + "\n"
    return "".join(lines)


def _face_first(text: str) -> str:
    lines = text.splitlines(keepends=True)
    k = next(k for k, line in enumerate(lines) if line.startswith("f "))
    return "".join([lines[k], *lines[:k], *lines[k + 1:]])


def _glue_tag(text: str, k: int) -> str:
    """Glue the k-th `v` line's tag to its first value, keeping 3 spaces."""
    lines = text.splitlines(keepends=True)
    i = [i for i, line in enumerate(lines) if line.startswith("v ")][k]
    lines[i] = "v" + lines[i][2:-1] + " \n"
    return "".join(lines)


def _digit_before_tag(text: str, k: int) -> str:
    """Put a digit before the k-th `v` tag and drop the middle value of the
    next `v` line, leaving a double space: the skeleton and the value count
    stay store_mesh's, and the line parser skips the prefixed line."""
    lines = text.splitlines(keepends=True)
    vs = [i for i, line in enumerate(lines) if line.startswith("v ")]
    prefixed, doubled = vs[k], vs[(k + 1) % len(vs)]
    lines[prefixed] = "7" + lines[prefixed]
    tag, x, _, z = lines[doubled].split()
    lines[doubled] = f"{tag} {x}  {z}\n"
    return "".join(lines)


def _replace_first(text: str, tag: str, token: str) -> str:
    """Swap the first value of the first `tag` line for `token`."""
    return re.sub(rf"(?m)^{tag} \S+", lambda m: f"{tag} {token}", text, count=1)


# Rewrites of a store_mesh file that the bulk path must hand to the line
# parser: (text, vertex count, fuzz token) -> text.
FALLBACK_REWRITES = {
    "crlf": lambda t, n, tok: t.replace("\n", "\r\n"),
    "tabs": lambda t, n, tok: t.replace(" ", "\t"),
    "comment": lambda t, n, tok: "# exported mesh\n" + t,
    "bom": lambda t, n, tok: "\ufeff" + t,
    "vn": lambda t, n, tok: t.replace("\nf ", "\nvn 0 0 1\nf ", 1),
    "bundles": lambda t, n, tok: _edit_lines(t, "f", lambda ix: [f"{i}//{i}" for i in ix]),
    "quads": lambda t, n, tok: _edit_lines(t, "f", lambda ix: [*ix, ix[0]]),
    "negative": lambda t, n, tok: _edit_lines(t, "f", lambda ix: [str(int(i) - n - 1) for i in ix]),
    "4-value v": lambda t, n, tok: _edit_lines(t, "v", lambda xs: [*xs, "1"]),
    "short v": lambda t, n, tok: _replace_first(t, "v", ""),
    "glued first tag": lambda t, n, tok: _glue_tag(t, 0),
    "glued last tag": lambda t, n, tok: _glue_tag(t, -1),
    "face first": lambda t, n, tok: _face_first(t),
    "digit before first tag": lambda t, n, tok: _digit_before_tag(t, 0),
    "digit before last tag": lambda t, n, tok: _digit_before_tag(t, -1),
    "plus-signed indices": lambda t, n, tok: _edit_lines(t, "f", lambda ix: [f"+{i}" for i in ix]),
    "nan(123)": lambda t, n, tok: _replace_first(t, "v", "nan(123)"),
    "int64 overflow": lambda t, n, tok: _replace_first(t, "f", "9223372036854775808"),
}

# Rewrites that keep the plain layout but may hold tokens numpy and Python
# read differently; either path may take them.
TOKEN_REWRITES = {
    "vertex token": lambda t, n, tok: _replace_first(t, "v", tok),
    "index token": lambda t, n, tok: _replace_first(t, "f", tok.strip("+-.eE") or "0"),
    "inf by overflow": lambda t, n, tok: _replace_first(t, "v", "-1e999"),
}


@st.composite
def meshes(draw) -> TriangleMesh:
    n_v = draw(st.integers(3, 9))
    coords = draw(st.lists(st.floats(-1e6, 1e6), min_size=3 * n_v, max_size=3 * n_v))
    index = st.integers(0, n_v - 1)
    tris = draw(st.lists(st.tuples(index, index, index), min_size=1, max_size=6))
    return TriangleMesh(np.reshape(coords, (n_v, 3)), np.array(tris))


class TestBulkObjMatchesLineParser:
    """load_mesh's bulk path gives the line parser's arrays or its error."""

    @settings(max_examples=60, deadline=None)
    @given(mesh=meshes(), token=st.text(alphabet="0123456789+-.eE", min_size=1, max_size=7))
    def test_same_arrays_or_same_error(self, tmp_path_factory, mesh, token):
        path = tmp_path_factory.mktemp("obj") / "m.obj"
        store_mesh(path, mesh)
        plain = path.read_text()
        assert fileio._parse_plain_obj(path.read_bytes()) is not None
        n_v = len(mesh.vertices)
        cases = {"plain": plain}
        for name, rewrite in {**FALLBACK_REWRITES, **TOKEN_REWRITES}.items():
            cases[name] = rewrite(plain, n_v, token)
        for name, text in cases.items():
            path.write_bytes(text.encode("utf-8"))
            if name in FALLBACK_REWRITES:
                assert fileio._parse_plain_obj(path.read_bytes()) is None, name
            got = _outcome(load_mesh, path)
            want = _outcome(_line_parser_load, path)
            if isinstance(want[0], np.ndarray):
                assert isinstance(got[0], np.ndarray), (name, got)
                assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype
                assert np.array_equal(got[0], want[0]), name
                assert np.array_equal(got[1], want[1]), name
            else:
                assert got == want, name


# One-byte edits: (kind, position, byte), the position taken modulo the length.
EDITS = st.lists(
    st.tuples(
        st.sampled_from(("insert", "delete", "replace")),
        st.integers(0, 2**16),
        st.sampled_from(b"vf +-.eE0\n\t"),
    ),
    min_size=1,
    max_size=3,
)


def _apply_edits(buf: bytes, edits) -> bytes:
    for kind, pos, byte in edits:
        k = pos % (len(buf) + 1)
        if kind == "insert":
            buf = buf[:k] + bytes([byte]) + buf[k:]
        elif k < len(buf):
            buf = buf[:k] + (bytes([byte]) if kind == "replace" else b"") + buf[k + 1:]
    return buf


def _assert_same_parse(buf: bytes, name: str) -> None:
    got, want = fileio._parse_plain_obj(buf), reference_parse_plain_obj(buf)
    if want is None:
        assert got is None, name
        return
    assert got is not None, name
    for g, w in zip(got, want):
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), name


class TestPlainObjMatchesReference:
    """The one-pass layout check takes exactly the files the per-block
    checks took, and reads them to the same bits."""

    @settings(max_examples=120, deadline=None)
    @given(
        mesh=meshes(),
        token=st.text(alphabet="0123456789+-.eE", min_size=1, max_size=7),
        base=st.sampled_from(["plain", *FALLBACK_REWRITES, *TOKEN_REWRITES]),
        edits=EDITS,
    )
    def test_none_where_reference_is(self, tmp_path_factory, mesh, token, base, edits):
        path = tmp_path_factory.mktemp("obj") / "m.obj"
        store_mesh(path, mesh)
        text = path.read_text()
        cases = {"plain": text}
        for name, rewrite in {**FALLBACK_REWRITES, **TOKEN_REWRITES}.items():
            cases[name] = rewrite(text, len(mesh.vertices), token)
        for name, case in cases.items():
            _assert_same_parse(case.encode("utf-8"), name)
        _assert_same_parse(_apply_edits(cases[base].encode("utf-8"), edits), f"{base} {edits}")

    def test_digit_before_tag_refused_by_tag_check_alone(self, tmp_path):
        path = tmp_path / "m.obj"
        mesh = TriangleMesh(np.arange(12.0).reshape(4, 3), np.array([[0, 1, 2], [0, 2, 3]]))
        store_mesh(path, mesh)
        plain = path.read_bytes()
        digits = b"0123456789+-.eE"
        for k in (0, 1, -1):
            buf = _digit_before_tag(plain.decode("utf-8"), k).encode("utf-8")
            # The skeleton and the value count match store_mesh's layout.
            assert buf.translate(None, digits) == plain.translate(None, digits)
            assert np.fromstring(buf.translate(None, b"vf"), sep=" ").size == 3 * (4 + 2)
            assert fileio._parse_plain_obj(buf) is None
            assert reference_parse_plain_obj(buf) is None


class TestWriteJson:
    @pytest.mark.parametrize("doc", [
        {"zero": -0.0, "tiny": 1e-300, "nested": [[1, [2.5, []]], {"a": [-0.0, {}]}]},
        [-0.0, 1e-300, [[[]]], "text", None, True],
        -0.0,
    ], ids=["dict", "list", "scalar"])
    def test_bytes_match_streamed_dump(self, tmp_path, doc):
        fileio.write_json(tmp_path / "got.json", doc)
        reference_write_json(tmp_path / "want.json", doc)
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_unserializable_doc_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(TypeError):
            fileio.write_json(path, {"position": [0.0, 1.0], "bad": object()})
        assert not path.exists()


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

    def test_whole_float_size_round_trips(self, tmp_path):
        # A size of 5.0 used to be kept as a float, and `store_depth` wrote a
        # "Pf 5.0 7" header that `load_depth` refuses.
        path = tmp_path / "d.pfm"
        original = self.random_map()
        store_depth(path, DepthMap(5.0, 7.0, original.data))
        assert path.read_bytes().startswith(b"Pf\n5 7\n")
        assert load_depth(path).data.tobytes() == original.data.tobytes()

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

    def test_round_trip_mixed_whitespace_header(self, tmp_path):
        # Tabs, CRLF and runs of spaces separate the header tokens; one
        # whitespace byte ends the header.
        path = tmp_path / "d.pfm"
        original = self.random_map(seed=1)
        header = b"  Pf\r\n5\t\t7   \r\n \t-1.0\n"
        path.write_bytes(header + np.flipud(original.data).astype("<f4").tobytes())
        loaded = load_depth(path)
        assert loaded.width == 5 and loaded.height == 7
        assert np.array_equal(loaded.data.view(np.uint32), original.data.view(np.uint32))

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"PF\n2 2\n-1.0\n" + b"\x00" * 48)
        with pytest.raises(ValueError, match="magic"):
            load_depth(path)

    def test_rejects_big_endian(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n2 2\n1.0\n" + b"\x00" * 16)
        with pytest.raises(ValueError, match="big-endian"):
            load_depth(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n4 4\n-1.0\n" + b"\x00" * 10)
        with pytest.raises(ValueError, match="truncated payload"):
            load_depth(path)

    def test_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n2")
        with pytest.raises(ValueError, match="header"):
            load_depth(path)

    def test_rejects_dimension_overflow(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n99999999 99999999\n-1.0\n")
        with pytest.raises(ValueError, match="overflow"):
            load_depth(path)

    @pytest.mark.parametrize("header, message", [
        (b"Pf\n0 5\n-1.0\n", "width must be an integral count of at least 1, got 0"),
        (b"Pf\n5 -2\n-1.0\n", "height must be an integral count of at least 1, got -2"),
    ])
    def test_header_size_read_by_count_rule(self, tmp_path, header, message):
        # Each used to be reported as a size that overflows sane bounds.
        path = tmp_path / "d.pfm"
        path.write_bytes(header)
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_depth(path)

    def test_rejects_negative_depths(self, tmp_path):
        path = tmp_path / "d.pfm"
        payload = struct.pack("<4f", -1.0, 0.5, 0.5, 0.5)
        path.write_bytes(b"Pf\n2 2\n-1.0\n" + payload)
        with pytest.raises(ValueError):
            load_depth(path)

    def test_nan_and_inf_holes_load_invalid(self, tmp_path, caplog):
        # store_depth refuses non-finite maps, so write the PFM by hand.
        data = self.random_map(seed=3).data.copy()
        holes = np.zeros(data.shape, dtype=bool)
        holes[0, 0] = holes[2, 3] = holes[4, 1] = holes[6, 4] = True
        data[0, 0], data[2, 3], data[4, 1], data[6, 4] = np.nan, np.inf, -np.inf, np.nan
        path = tmp_path / "holes.pfm"
        path.write_bytes(b"Pf\n5 7\n-1.0\n" + np.flipud(data).astype("<f4").tobytes())
        with caplog.at_level("INFO", logger="depthrefine.fileio"):
            loaded = load_depth(path)
        assert "4 NaN/inf pixels" in caplog.text
        assert np.array_equal(loaded.data[holes], np.zeros(4, dtype=np.float32))
        assert not loaded.valid_mask[holes].any()
        assert np.array_equal(
            loaded.data[~holes].view(np.uint32), data[~holes].view(np.uint32)
        )

    def test_scale_magnitude_applied(self, tmp_path):
        path = tmp_path / "d.pfm"
        payload = struct.pack("<4f", 1.0, 2.0, 3.0, 4.0)
        path.write_bytes(b"Pf\n2 2\n-0.5\n" + payload)
        loaded = load_depth(path)
        assert np.allclose(np.sort(loaded.data.ravel()), [0.5, 1.0, 1.5, 2.0])

    @pytest.mark.parametrize("scale, depth, message", [
        (b"-inf", 0.5, "scale header"),
        (b"-1e300", 0.5, "scale header"),
        (b"-1e-50", 0.5, "scale header"),
        (b"nan", 0.5, "scale header"),
        (b"-0.0", 0.5, "scale header"),
        (b"-3e38", 10.0, "finite"),
    ], ids=["minus-inf", "beyond-float32", "below-float32", "nan", "zero", "product-overflows"])
    def test_rejects_scale_header_outside_float32(self, tmp_path, scale, depth, message):
        # -1e300 and an overflowing product used to warn (exit 1 under the
        # warning filter), and -1e-50 loaded as an all-invalid map.
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n2 2\n" + scale + b"\n" + struct.pack("<4f", *[depth] * 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                load_depth(path)


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
        with pytest.raises(ValueError, match="cad_dims"):
            load_scene_config(self.write(tmp_path, doc))

    def test_near_unit_quaternion_renormalized(self, tmp_path):
        doc = scene_doc(orientation=[1.0005, 0.0, 0.0, 0.0])
        pose, _, _, _ = load_scene_config(self.write(tmp_path, doc))
        assert pose.orientation.w == 1.0

    def test_far_from_unit_quaternion_rejected(self, tmp_path):
        doc = scene_doc(orientation=[0.5, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="orientation"):
            load_scene_config(self.write(tmp_path, doc))

    def test_non_finite_rejected(self, tmp_path):
        doc = scene_doc(fx=float("nan"))
        with pytest.raises(ValueError, match="fx"):
            load_scene_config(self.write(tmp_path, doc))

    @pytest.mark.parametrize("field, value", [
        ("position", ["0", 0.0, 0.5]),
        ("orientation", [True, 0.0, 0.0, 0.0]),
        ("cad_dims", [0.092, None, 0.092]),
    ])
    def test_array_components_must_be_numbers(self, tmp_path, field, value):
        # The string and the boolean used to load as 0.0 and 1.0.
        with pytest.raises(ValueError, match=f"field '{field}' must be finite, got "):
            load_scene_config(self.write(tmp_path, scene_doc(**{field: value})))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            load_scene_config(str(path))

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="object"):
            load_scene_config(str(path))

    def test_image_size_bounded_like_pfm(self, tmp_path):
        # Checked while parsing; nothing of the image size is allocated.
        doc = scene_doc(width=100_000, height=100_000, cx=50_000.0, cy=50_000.0)
        with pytest.raises(ValueError, match="exceeds"):
            load_scene_config(self.write(tmp_path, doc))
        side = math.isqrt(MAX_IMAGE_PIXELS)
        doc = scene_doc(width=side, height=side, cx=side / 2, cy=side / 2)
        _, intr, _, _ = load_scene_config(self.write(tmp_path, doc))
        assert intr.width * intr.height <= MAX_IMAGE_PIXELS
        # The bound belongs to the intrinsics, however they are built.
        with pytest.raises(ValueError, match="exceeds"):
            CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=0.5, width=1e300, height=1)

    def test_bad_intrinsics_rejected(self, tmp_path):
        doc = scene_doc(cx=900.0)
        with pytest.raises(ValueError):
            load_scene_config(self.write(tmp_path, doc))


class TestStoreSceneConfig:
    POSE = Pose(np.array([0.01, -0.02, 0.61]), quat_x(-0.4))
    INTR = CameraIntrinsics(fx=610.5, fy=605.25, cx=321.5, cy=239.75, width=640, height=480)
    DIMS = CuboidDims(0.092, 0.080, 0.092)

    def check_round_trip(self, path, extrinsics):
        store_scene_config(path, self.POSE, self.INTR, self.DIMS, extrinsics)
        pose, intr, extr, dims = load_scene_config(path)
        assert np.array_equal(pose.position, self.POSE.position)
        assert pose.orientation == self.POSE.orientation
        assert intr == self.INTR
        assert dims.as_array().tolist() == self.DIMS.as_array().tolist()
        return extr

    def test_round_trip_with_extrinsics(self, tmp_path):
        camera = Pose(np.array([0.0, 0.0, 0.54]), UnitQuaternion(0.0, 1.0, 0.0, 0.0))
        extr = self.check_round_trip(tmp_path / "scene.json", camera)
        assert np.array_equal(extr.position, camera.position)
        assert extr.orientation == camera.orientation

    def test_round_trip_without_extrinsics(self, tmp_path):
        path = tmp_path / "scene.json"
        assert self.check_round_trip(path, None) is None
        assert "world_T_camera" not in json.loads(path.read_text())


class TestTransientMemory:
    """tracemalloc peaks of the dense-mesh file path: the 50,880-triangle
    mesh's OBJ (25,442 vertex rows, 50,880 face rows) and a 640x480 PFM."""

    def test_store_mesh_in_bounded_memory(self, tmp_path):
        # Formatting 4,096 rows at a time keeps the peak near 2.0 MB; the
        # per-line loop over two whole-mesh tolist() calls took 10.5 MB. The
        # bound leaves 2.0 MB of margin above the first and 6.5 MB below the
        # second. The rows cross the block boundary 6 and 12 times.
        mesh = dense_mesh()
        reference_store_mesh(tmp_path / "want.obj", mesh)
        _, peak = traced_peak(lambda: store_mesh(tmp_path / "got.obj", mesh))
        assert (tmp_path / "got.obj").read_bytes() == (tmp_path / "want.obj").read_bytes()
        assert peak < 4_000_000

    def test_load_mesh_in_bounded_memory(self, tmp_path):
        # Translating each block of the buffer on its own keeps the peak
        # near 5.5 MB; translating the whole buffer and slicing it took
        # 11.0 MB. The bound leaves 2.5 MB of margin above the first and
        # 3.0 MB below the second.
        path = tmp_path / "dense.obj"
        store_mesh(path, dense_mesh())
        got, peak = traced_peak(lambda: load_mesh(path))
        vertices, triangles = reference_parse_plain_obj(path.read_bytes())
        assert got.vertices.tobytes() == (vertices - vertices.mean(axis=0)).tobytes()
        assert got.triangles.tobytes() == triangles.tobytes()
        assert peak < 8_000_000

    def test_load_depth_in_bounded_memory(self, tmp_path):
        # A view of the payload in place of a 1.2 MB bytes copy keeps the
        # peak near 2.8 MB, against 4.0 MB with the copy. The bound leaves
        # 0.6 MB of margin on either side.
        data = np.random.default_rng(0).uniform(0.3, 1.5, (480, 640)).astype(np.float32)
        data[::7, ::5] = 0.0
        path = tmp_path / "d.pfm"
        store_depth(path, DepthMap(640, 480, data))
        got, peak = traced_peak(lambda: load_depth(path))
        assert got.data.tobytes() == data.tobytes()
        assert peak < 3_400_000
