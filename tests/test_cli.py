"""End-to-end tests of the command-line interface.

Every test drives ``cli.main`` in-process and checks the returned exit
code plus the files the command writes. Error-path tests pin the exit
codes: 2 invalid input (a ValueError), 3 no overlap, 4 degenerate
scene, 5 no feasible candidate.
"""

import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from depthrefine import (
    EXIT_DEGENERATE_SCENE,
    EXIT_INVALID_INPUT,
    EXIT_NO_CANDIDATE,
    EXIT_NO_OVERLAP,
    EXIT_OK,
    EXIT_UNEXPECTED,
    CameraIntrinsics,
    DegenerateSceneError,
    DepthMap,
    DepthRefineError,
    EvalRecord,
    GraspSamplingConfig,
    NoFeasibleCandidateError,
    NoOverlapError,
    Pose,
    RefineConfig,
    UnitQuaternion,
    apply_sigma_to_pose,
    default_sweep,
    generate_scene,
    load_depth,
    load_mesh,
    load_scene_config,
    refine,
    render_depth,
    run_sweep,
    sample_candidates,
    store_depth,
    tabletop_scene,
    transform_point,
)
from depthrefine import cli, fileio
from depthrefine.cli import main
from depthrefine.harness import builtin_model

from helpers import reference_write_json, square_mesh, write_obj

INTRINSICS = CameraIntrinsics(fx=150.0, fy=150.0, cx=50.0, cy=50.0, width=100, height=100)


def scene_doc(**overrides) -> dict:
    doc = {
        "position": [0.0, 0.0, 0.5],
        "orientation": [1.0, 0.0, 0.0, 0.0],
        "fx": INTRINSICS.fx,
        "fy": INTRINSICS.fy,
        "cx": INTRINSICS.cx,
        "cy": INTRINSICS.cy,
        "width": INTRINSICS.width,
        "height": INTRINSICS.height,
        "cad_dims": [0.2, 0.2, 0.01],
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def workspace(tmp_path):
    """OBJ + scene JSON for a fronto-parallel square at 0.5 m."""
    obj = tmp_path / "square.obj"
    write_obj(obj, square_mesh(half=0.1))
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(scene_doc()))
    return tmp_path, str(obj), str(scene)


def render_fixture_depth(scale: float = 1.0) -> DepthMap:
    pose = Pose(np.array([0.0, 0.0, 0.5]), UnitQuaternion.identity())
    return render_depth(square_mesh(half=0.1), pose, INTRINSICS, scale=scale)


def write_raw_pfm(path, data: np.ndarray) -> None:
    """A PFM of any float32 values, which store_depth would refuse."""
    height, width = data.shape
    header = f"Pf\n{width} {height}\n-1.0\n".encode("ascii")
    path.write_bytes(header + np.flipud(data).astype("<f4").tobytes())


class TestRender:
    def test_writes_loadable_depth_map(self, workspace, capsys):
        tmp_path, obj, scene = workspace
        out = str(tmp_path / "depth.pfm")
        assert main(["render", "--mesh", obj, "--scene", scene, "--out", out]) == EXIT_OK
        loaded = load_depth(out)
        assert np.array_equal(loaded.data, render_fixture_depth().data)
        assert "valid pixels" in capsys.readouterr().out

    def test_byte_identical_across_runs(self, workspace):
        tmp_path, obj, scene = workspace
        a = tmp_path / "a.pfm"
        b = tmp_path / "b.pfm"
        for out in (a, b):
            assert main(["render", "--mesh", obj, "--scene", scene, "--out", str(out)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_scale_flag(self, workspace):
        tmp_path, obj, scene = workspace
        out = str(tmp_path / "depth.pfm")
        rc = main(["render", "--mesh", obj, "--scene", scene, "--scale", "0.5", "--out", out])
        assert rc == EXIT_OK
        assert np.array_equal(load_depth(out).data, render_fixture_depth(scale=0.5).data)


class TestRefine:
    def refine_args(self, workspace, depth_path, *extra):
        _, obj, scene = workspace
        out = depth_path.parent / "result.json"
        argv = [
            "refine", "--mesh", obj, "--scene", scene,
            "--depth", str(depth_path), "--out", str(out), *extra,
        ]
        return argv, out

    def test_fixed_point_when_measurement_matches(self, workspace):
        tmp_path, _, _ = workspace
        depth_path = tmp_path / "measured.pfm"
        measured = render_fixture_depth()
        store_depth(depth_path, measured)
        argv, out = self.refine_args(workspace, depth_path)
        assert main(argv) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["sigma_opt"] == pytest.approx(0.0, abs=1e-12)
        assert doc["mu_opt"] == pytest.approx(1.0, abs=1e-12)
        assert doc["refined_position"] == pytest.approx([0.0, 0.0, 0.5], abs=1e-12)
        assert doc["refined_orientation"] == [1.0, 0.0, 0.0, 0.0]
        assert doc["estimated_dims"] == pytest.approx([0.2, 0.2, 0.01], abs=1e-12)
        assert doc["inlier_count"] == int(np.count_nonzero(measured.valid_mask))
        assert doc["rms_residual"] == pytest.approx(0.0, abs=1e-12)
        assert "refined_position_world" not in doc

    def test_scaled_measurement_recovers_mu(self, workspace):
        tmp_path, _, _ = workspace
        depth_path = tmp_path / "measured.pfm"
        # True object is 0.75x the model at 0.75x the coarse depth: the
        # silhouette matches the coarse render but every depth is scaled.
        true_pose = Pose(np.array([0.0, 0.0, 0.375]), UnitQuaternion.identity())
        measured = render_depth(square_mesh(half=0.1), true_pose, INTRINSICS, scale=0.75)
        store_depth(depth_path, measured)
        argv, out = self.refine_args(workspace, depth_path)
        assert main(argv) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["mu_opt"] == pytest.approx(0.75, abs=1e-3)
        assert doc["refined_position"][2] == pytest.approx(0.375, abs=5e-4)
        assert doc["estimated_dims"][0] == pytest.approx(0.2 * doc["mu_opt"], rel=1e-12)

    def test_reports_free_space_fraction(self, workspace):
        tmp_path, _, _ = workspace
        measured = render_fixture_depth()
        data = measured.data.copy()
        # One pixel measured 5 cm beyond the model: the only free-space pair.
        row, col = np.argwhere(measured.valid_mask)[0]
        data[row, col] += np.float32(0.05)
        depth_path = tmp_path / "measured.pfm"
        store_depth(depth_path, DepthMap(measured.width, measured.height, data))
        argv, out = self.refine_args(workspace, depth_path)
        assert main(argv) == EXIT_OK
        doc = json.loads(out.read_text())
        pairs = int(np.count_nonzero(measured.valid_mask))
        assert doc["free_space_fraction"] == pytest.approx(1.0 / pairs, rel=1e-12)

    def test_mu_beyond_bound_exits_4(self, workspace, capsys):
        tmp_path, _, _ = workspace
        depth_path = tmp_path / "measured.pfm"
        # mu* = 0.75 lies outside the bound [0.9, 1.1].
        true_pose = Pose(np.array([0.0, 0.0, 0.375]), UnitQuaternion.identity())
        store_depth(depth_path, render_depth(square_mesh(half=0.1), true_pose, INTRINSICS, scale=0.75))
        argv, out = self.refine_args(workspace, depth_path, "--bound-fraction", "0.1")
        assert main(argv) == EXIT_DEGENERATE_SCENE
        assert "mu*=0.75" in capsys.readouterr().err
        assert not out.exists()

    def test_world_frame_position_with_extrinsics(self, workspace, tmp_path):
        _, obj, _ = workspace
        extr = Pose(np.array([0.0, 0.0, 1.0]), UnitQuaternion(0.0, 1.0, 0.0, 0.0))
        doc = scene_doc(world_T_camera={
            "position": [0.0, 0.0, 1.0],
            "orientation": [0.0, 1.0, 0.0, 0.0],
        })
        scene = tmp_path / "scene_world.json"
        scene.write_text(json.dumps(doc))
        depth_path = tmp_path / "measured.pfm"
        store_depth(depth_path, render_fixture_depth())
        out = tmp_path / "result.json"
        rc = main(["refine", "--mesh", obj, "--scene", str(scene),
                   "--depth", str(depth_path), "--out", str(out)])
        assert rc == EXIT_OK
        result = json.loads(out.read_text())
        expected = transform_point(extr, np.asarray(result["refined_position"]))
        assert result["refined_position_world"] == pytest.approx(list(expected), abs=1e-12)

    def test_documents_match_streamed_json_dump(self, workspace, tmp_path):
        _, obj, _ = workspace
        scene = tmp_path / "scene_world.json"
        scene.write_text(json.dumps(scene_doc(world_T_camera={
            "position": [0.1, -0.2, 1.0],
            "orientation": [0.0, 1.0, 0.0, 0.0],
        })))
        depth_path = tmp_path / "measured.pfm"
        store_depth(depth_path, render_fixture_depth(scale=0.9))
        runs = [
            ["refine", "--mesh", obj, "--scene", str(scene),
             "--depth", str(depth_path), "--out", str(tmp_path / "result.json")],
            ["sample-grasps", "--position", "0.0", "0.0", "0.032", "--radius", "0.15",
             "--out", str(tmp_path / "grasps.json")],
        ]
        with mock.patch.object(cli, "write_json", wraps=fileio.write_json) as spy:
            for argv in runs:
                assert main(argv) == EXIT_OK
        assert spy.call_count == len(runs)
        want = tmp_path / "want.json"
        for (path, doc), _ in spy.call_args_list:
            reference_write_json(want, doc)
            assert open(path, "rb").read() == want.read_bytes()

    def test_depth_scale_flag(self, workspace):
        tmp_path, _, _ = workspace
        measured = render_fixture_depth()
        scaled = DepthMap(measured.width, measured.height,
                          measured.data * np.float32(1000.0))
        depth_path = tmp_path / "measured_mm.pfm"
        store_depth(depth_path, scaled)
        argv, out = self.refine_args(workspace, depth_path, "--depth-scale", "0.001")
        assert main(argv) == EXIT_OK
        assert json.loads(out.read_text())["mu_opt"] == pytest.approx(1.0, abs=1e-6)

    def test_nonpositive_depth_scale_rejected(self, workspace, capsys):
        tmp_path, _, _ = workspace
        depth_path = tmp_path / "measured.pfm"
        store_depth(depth_path, render_fixture_depth())
        argv, _ = self.refine_args(workspace, depth_path, "--depth-scale", "0")
        assert main(argv) == EXIT_INVALID_INPUT
        assert "depth-scale" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, name", [
        ("--depth-scale", "--depth-scale"), ("--inlier-threshold", "inlier_threshold"),
    ], ids=["depth-scale", "inlier-threshold"])
    def test_infinite_flag_exits_2(self, workspace, capsys, flag, name):
        # An infinite depth scale passed the positivity check and warned on
        # 0 * inf; an infinite threshold warned on inf - inf in the
        # consensus sweep and exited 4, blaming the scene for a bad flag.
        tmp_path, _, _ = workspace
        depth_path = tmp_path / "measured.pfm"
        store_depth(depth_path, render_fixture_depth())
        argv, out = self.refine_args(workspace, depth_path, flag, "inf")
        assert main(argv) == EXIT_INVALID_INPUT
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e-45", "1e40"])
    def test_depth_scale_outside_float32_exits_2(self, workspace, capsys, value):
        # 1e-45 underflowed every depth to 0 and exited 3, blaming the
        # scene; 1e40 overflowed the float32 cast with a RuntimeWarning.
        tmp_path, _, _ = workspace
        depth_path = tmp_path / "measured.pfm"
        store_depth(depth_path, render_fixture_depth())
        argv, out = self.refine_args(workspace, depth_path, "--depth-scale", value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_INVALID_INPUT
        assert "--depth-scale" in capsys.readouterr().err
        assert not out.exists()

    def test_depth_scale_product_overflow_exits_2(self, workspace):
        # In range, but 2 m times 3e38 exceeds float32: the product is inf
        # and DepthMap rejects it, with no warning on the way.
        tmp_path, _, _ = workspace
        measured = render_fixture_depth()
        depth_path = tmp_path / "measured.pfm"
        store_depth(depth_path, DepthMap(measured.width, measured.height, 4 * measured.data))
        argv, out = self.refine_args(workspace, depth_path, "--depth-scale", "3e38")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_INVALID_INPUT
        assert not out.exists()

    def test_sensor_holes_refine(self, workspace):
        tmp_path, _, _ = workspace
        measured = render_fixture_depth()
        data = measured.data.copy()
        rows, cols = np.nonzero(measured.valid_mask)
        data[rows[::7], cols[::7]] = np.nan
        data[rows[3::11], cols[3::11]] = np.inf
        depth_path = tmp_path / "holes.pfm"
        write_raw_pfm(depth_path, data)
        argv, out = self.refine_args(workspace, depth_path)
        assert main(argv) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["mu_opt"] == pytest.approx(1.0, abs=1e-12)
        assert doc["inlier_count"] == int(np.count_nonzero(np.isfinite(data) & (data > 0.0)))

    def test_disjoint_support_exits_3(self, workspace, capsys):
        tmp_path, _, _ = workspace
        data = np.zeros((100, 100), dtype=np.float32)
        data[0, 0] = 0.5
        depth_path = tmp_path / "disjoint.pfm"
        store_depth(depth_path, DepthMap(100, 100, data))
        argv, _ = self.refine_args(workspace, depth_path)
        assert main(argv) == EXIT_NO_OVERLAP
        assert "error:" in capsys.readouterr().err

    def test_no_consensus_exits_4(self, workspace, capsys):
        tmp_path, _, _ = workspace
        rng = np.random.default_rng(3)
        data = rng.uniform(0.4, 0.6, size=(100, 100)).astype(np.float32)
        depth_path = tmp_path / "noise.pfm"
        store_depth(depth_path, DepthMap(100, 100, data))
        argv, _ = self.refine_args(workspace, depth_path, "--inlier-threshold", "1e-9")
        assert main(argv) == EXIT_DEGENERATE_SCENE
        assert "error:" in capsys.readouterr().err


class TestInvalidInputs:
    def test_bad_depth_magic_exits_2(self, workspace):
        tmp_path, _, _ = workspace
        bad = tmp_path / "bad.pfm"
        bad.write_bytes(b"PF\n2 2\n-1.0\n" + b"\x00" * 48)
        argv = ["refine", "--mesh", workspace[1], "--scene", workspace[2],
                "--depth", str(bad), "--out", str(tmp_path / "r.json")]
        assert main(argv) == EXIT_INVALID_INPUT

    def test_negative_depth_pixel_exits_2(self, workspace, capsys):
        tmp_path, obj, scene = workspace
        data = render_fixture_depth().data.copy()
        data[0, 0] = -0.5
        depth_path = tmp_path / "negative.pfm"
        write_raw_pfm(depth_path, data)
        argv = ["refine", "--mesh", obj, "--scene", scene,
                "--depth", str(depth_path), "--out", str(tmp_path / "r.json")]
        assert main(argv) == EXIT_INVALID_INPUT
        assert "positive" in capsys.readouterr().err

    def test_missing_scene_field_exits_2(self, workspace):
        tmp_path, obj, _ = workspace
        doc = scene_doc()
        del doc["position"]
        scene = tmp_path / "broken.json"
        scene.write_text(json.dumps(doc))
        argv = ["render", "--mesh", obj, "--scene", str(scene),
                "--out", str(tmp_path / "d.pfm")]
        assert main(argv) == EXIT_INVALID_INPUT

    def test_fractional_image_size_exits_2(self, workspace):
        tmp_path, obj, _ = workspace
        depth_path = tmp_path / "measured.pfm"
        store_depth(depth_path, render_fixture_depth())
        scene = tmp_path / "fractional.json"
        scene.write_text(json.dumps(scene_doc(width=100.7)))
        argv = ["refine", "--mesh", obj, "--scene", str(scene),
                "--depth", str(depth_path), "--out", str(tmp_path / "r.json")]
        assert main(argv) == EXIT_INVALID_INPUT

    @pytest.mark.parametrize("field", [
        "width", "fx", "cad_dims", "position", "orientation", "world_T_camera.position",
    ])
    def test_scene_int_beyond_float_range_exits_2(self, workspace, capsys, field):
        # A 400-digit JSON integer used to exit 1: with a TypeError from
        # np.isfinite in a scalar field, with an OverflowError in an array.
        tmp_path, obj, _ = workspace
        huge = int("9" * 400)
        overrides = {
            "width": {"width": huge},
            "fx": {"fx": huge},
            "cad_dims": {"cad_dims": [0.2, huge, 0.01]},
            "position": {"position": [0.0, 0.0, huge]},
            "orientation": {"orientation": [huge, 0.0, 0.0, 0.0]},
            "world_T_camera.position": {"world_T_camera": {
                "position": [0.0, 0.0, huge], "orientation": [0.0, 1.0, 0.0, 0.0],
            }},
        }[field]
        scene = tmp_path / "huge-int.json"
        scene.write_text(json.dumps(scene_doc(**overrides)))
        out = tmp_path / "d.pfm"
        assert main(["render", "--mesh", obj, "--scene", str(scene), "--out", str(out)]) == (
            EXIT_INVALID_INPUT
        )
        *frame, key = field.split(".")
        err = capsys.readouterr().err
        assert err.count(repr(key)) == 1 and all(f"{name}:" in err for name in frame)
        assert not out.exists()

    def test_oversized_scene_exits_2(self, workspace, capsys):
        # 10^10 pixels: rejected while parsing the scene, before the render
        # would allocate the z-buffer.
        tmp_path, obj, _ = workspace
        scene = tmp_path / "huge.json"
        scene.write_text(json.dumps(
            scene_doc(width=100_000, height=100_000, cx=50_000.0, cy=50_000.0)
        ))
        out = tmp_path / "d.pfm"
        assert main(["render", "--mesh", obj, "--scene", str(scene), "--out", str(out)]) == (
            EXIT_INVALID_INPUT
        )
        assert "exceeds" in capsys.readouterr().err
        assert not out.exists()

    def test_depth_size_mismatch_exits_2(self, workspace, capsys):
        tmp_path, obj, scene = workspace
        depth_path = tmp_path / "small.pfm"
        store_depth(depth_path, DepthMap(50, 50, np.ones((50, 50), dtype=np.float32)))
        argv = ["refine", "--mesh", obj, "--scene", scene,
                "--depth", str(depth_path), "--out", str(tmp_path / "r.json")]
        assert main(argv) == EXIT_INVALID_INPUT
        assert "do not match intrinsics" in capsys.readouterr().err

    def test_bad_mesh_exits_2(self, workspace, capsys):
        tmp_path, _, scene = workspace
        bad = tmp_path / "bad.obj"
        bad.write_text("v 0 0 0\nf 1 2 9\n")
        argv = ["render", "--mesh", str(bad), "--scene", scene,
                "--out", str(tmp_path / "d.pfm")]
        assert main(argv) == EXIT_INVALID_INPUT
        assert "bad.obj" in capsys.readouterr().err

    def test_mesh_overflowing_on_recentering_exits_2(self, workspace, capsys):
        # Every coordinate is finite, but the x sum overflows float64: the
        # mesh used to load with x = -inf and render no pixel.
        tmp_path, _, scene = workspace
        big = tmp_path / "big.obj"
        big.write_text("v 1e308 0 0\nv 1e308 1 0\nv 0 0 1\nf 1 2 3\n")
        out = tmp_path / "d.pfm"
        argv = ["render", "--mesh", str(big), "--scene", scene, "--out", str(out)]
        assert main(argv) == EXIT_INVALID_INPUT
        assert "big.obj" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("coord, scale", [("1e300", "1e10"), ("1e307", "1")], ids=["posed", "projected"])
    def test_mesh_overflowing_when_posed_exits_2(self, workspace, capsys, coord, scale):
        # Finite vertices that overflow float64 once scaled and posed, or
        # once projected, used to exit 1 on an overflow warning.
        tmp_path, _, scene = workspace
        big = tmp_path / "big.obj"
        big.write_text(f"v 0 0 {coord}\nv {coord} 0 -{coord}\nv 0 {coord} 0\nf 1 2 3\n")
        out = tmp_path / "d.pfm"
        argv = ["render", "--mesh", str(big), "--scene", scene, "--scale", scale, "--out", str(out)]
        assert main(argv) == EXIT_INVALID_INPUT
        assert "mesh vertices must be finite once posed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["render", "refine"])
    def test_far_triangle_exits_2(self, workspace, capsys, command):
        # Its corners project near 1e163 pixels. The triangle used to reach
        # the edge functions, which overflowed: exit 1 on the warning, or
        # without a warning filter a render of 0 valid pixels.
        tmp_path, _, scene = workspace
        far = tmp_path / "far.obj"
        far.write_text("v 0 0 0\nv 1e160 0 0\nv 0 1e160 0\nf 1 2 3\n")
        depth_path = tmp_path / "measured.pfm"
        store_depth(depth_path, render_fixture_depth())
        out = tmp_path / "out"
        argv = {
            "render": ["render", "--mesh", str(far), "--scene", scene, "--out", str(out)],
            "refine": ["refine", "--mesh", str(far), "--scene", scene,
                       "--depth", str(depth_path), "--out", str(out)],
        }[command]
        assert main(argv) == EXIT_INVALID_INPUT
        assert "project within 1e150 pixels" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exits_2(self, workspace, tmp_path):
        _, obj, scene = workspace
        argv = ["refine", "--mesh", obj, "--scene", scene,
                "--depth", str(tmp_path / "nope.pfm"), "--out", str(tmp_path / "r.json")]
        assert main(argv) == EXIT_INVALID_INPUT

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["no-such-command"])
        assert exc_info.value.code == 2

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["render", "--mesh", "x.obj"])
        assert exc_info.value.code == 2

    def test_ransac_iterations_flag_is_gone(self, workspace):
        # The consensus is maximized exactly: no draw count, no seed.
        tmp_path, obj, scene = workspace
        depth = tmp_path / "measured.pfm"
        store_depth(depth, render_fixture_depth())
        out = tmp_path / "result.json"
        argv = ["refine", "--mesh", obj, "--scene", scene, "--depth", str(depth), "--out", str(out)]
        for gone in (["--ransac-iterations", "10"], ["--seed", "1"]):
            with pytest.raises(SystemExit) as exc_info:
                main(argv + gone)
            assert exc_info.value.code == EXIT_INVALID_INPUT
            assert not out.exists()
        assert main(argv) == EXIT_OK


class TestSampleGrasps:
    def test_matches_library_sampling(self, tmp_path):
        out = tmp_path / "grasps.json"
        rc = main(["sample-grasps", "--position", "0.1", "-0.2", "0.3",
                   "--radius", "0.15", "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        expected = sample_candidates(
            np.array([0.1, -0.2, 0.3]), GraspSamplingConfig(radius=0.15)
        )
        assert len(doc) == len(expected)
        for entry, cand in zip(doc, expected):
            assert entry["position"] == pytest.approx(list(cand.position), abs=1e-12)
            assert entry["alpha"] == cand.alpha
            assert entry["theta"] == cand.theta
            q = cand.orientation
            assert entry["orientation"] == pytest.approx([q.w, q.x, q.y, q.z], abs=1e-12)

    def test_table_filter_flag(self, tmp_path):
        # Candidate heights are 0.3 + 0.15*cos(theta): 0.45, 0.441, 0.415,
        # 0.375 for the default four theta rings, so 0.42 splits them.
        out = tmp_path / "grasps.json"
        rc = main(["sample-grasps", "--position", "0", "0", "0.3",
                   "--radius", "0.15", "--table-height", "0.42", "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert 0 < len(doc) < 32
        assert all(entry["position"][2] >= 0.42 for entry in doc)

    def test_nan_table_height_exits_2(self, tmp_path, capsys):
        # The object sits below the table, so a working filter leaves no
        # candidate (exit 5); a NaN height must not switch the filter off.
        out = tmp_path / "grasps.json"
        base = ["sample-grasps", "--position", "0", "0", "-1", "--out", str(out)]
        assert main(base + ["--table-height", "0"]) == EXIT_NO_CANDIDATE
        assert main(base + ["--table-height", "nan"]) == EXIT_INVALID_INPUT
        assert "table_height" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_radius_exits_2(self, tmp_path, capsys):
        out = tmp_path / "grasps.json"
        rc = main(["sample-grasps", "--position", "0", "0", "0.3",
                   "--radius", "inf", "--out", str(out)])
        assert rc == EXIT_INVALID_INPUT
        assert "radius" in capsys.readouterr().err
        assert not out.exists()

    def test_position_overflow_exits_2(self, tmp_path, capsys):
        # Used to warn from numpy (exit 1 under the warning filter).
        out = tmp_path / "grasps.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["sample-grasps", "--position", "1.7e308", "0", "0",
                       "--radius", "1e308", "--out", str(out)])
        assert rc == EXIT_INVALID_INPUT
        assert "candidate positions must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_count_beyond_float_range_exits_2(self, tmp_path, capsys):
        # An int too large for a float used to exit 1 with OverflowError.
        out = tmp_path / "grasps.json"
        rc = main(["sample-grasps", "--position", "0", "0", "0.032",
                   "--alpha-samples", "9" * 401, "--out", str(out)])
        assert rc == EXIT_INVALID_INPUT
        assert "alpha_samples" in capsys.readouterr().err
        assert not out.exists()

    def test_all_filtered_exits_5(self, tmp_path, capsys):
        rc = main(["sample-grasps", "--position", "0", "0", "0.3",
                   "--radius", "0.15", "--table-height", "10",
                   "--out", str(tmp_path / "grasps.json")])
        assert rc == EXIT_NO_CANDIDATE
        assert "error:" in capsys.readouterr().err


def scene_command(command: str, tmp_path):
    """argv of a one-scene `simulate` or `eval` run, and the files it writes."""
    if command == "simulate":
        outputs = [tmp_path / "scene.pfm", tmp_path / "scene.json"]
        return ["simulate", "--scale", "0.8", "--out-depth", str(outputs[0]),
                "--out-scene", str(outputs[1])], outputs
    outputs = [tmp_path / "records.jsonl"]
    return ["eval", "--scales", "0.8", "--out", str(outputs[0])], outputs


class TestSimulateAndEval:
    def test_simulate_then_refine_recovers_scale(self, tmp_path, capsys):
        depth_path = tmp_path / "scene.pfm"
        scene_path = tmp_path / "scene.json"
        rc = main(["simulate", "--scale", "0.8",
                   "--out-depth", str(depth_path), "--out-scene", str(scene_path)])
        assert rc == EXIT_OK
        pose, intr, extrinsics, dims = load_scene_config(scene_path)
        assert extrinsics is not None
        assert intr.width == 640
        assert np.allclose(dims.as_array(), [0.092, 0.080, 0.092])
        assert load_depth(depth_path).valid_mask.any()
        capsys.readouterr()

        mesh, _ = builtin_model("apple")
        obj_path = tmp_path / "apple.obj"
        write_obj(obj_path, mesh)
        out = tmp_path / "result.json"
        rc = main(["refine", "--mesh", str(obj_path), "--scene", str(scene_path),
                   "--depth", str(depth_path), "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["mu_opt"] == pytest.approx(0.8, abs=2e-3)
        # Object rests on the table, so its world height is half its true size.
        world_z = doc["refined_position_world"][2]
        assert world_z == pytest.approx(0.8 * 0.080 / 2.0, abs=1e-3)

    def test_eval_writes_records_and_table(self, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        rc = main(["eval", "--scales", "1.0", "0.9", "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert record["success"] is True
            assert record["mu_error"] < 1e-3
        table = capsys.readouterr().out
        assert "success: 2/2" in table
        assert "scale-1.000" in table

    def test_eval_records_carry_every_eval_record_field(self, tmp_path):
        out = tmp_path / "records.jsonl"
        assert main(["eval", "--scales", "0.9", "--out", str(out)]) == EXIT_OK
        record = json.loads(out.read_text())
        assert list(record) == [f.name for f in dataclasses.fields(EvalRecord)]

    @pytest.mark.parametrize("command", ["simulate", "eval"])
    @pytest.mark.parametrize("flag, value", [
        ("--depth-noise", "nan"),
        ("--shape-noise", "nan"),
        ("--shape-noise", "inf"),
        ("--occluder-fraction", "nan"),
    ])
    def test_non_finite_scene_parameter_exits_2(self, tmp_path, capsys, command, flag, value):
        # NaN used to skip the noise or occluder step (exit 0 with a clean
        # scene); an infinite shape noise ended in an OverflowError (exit 1).
        argv, outputs = scene_command(command, tmp_path)
        assert main(argv + [flag, value]) == EXIT_INVALID_INPUT
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not any(path.exists() for path in outputs)

    @pytest.mark.parametrize("command, flag", [("simulate", "--scale"), ("eval", "--scales")])
    def test_infinite_scale_exits_2(self, tmp_path, capsys, command, flag):
        # Used to exit 2 on the camera pose, "vector components must be
        # finite", naming neither the flag nor the field.
        argv, outputs = scene_command(command, tmp_path)
        assert main(argv + [flag, "inf"]) == EXIT_INVALID_INPUT
        assert "true_scale" in capsys.readouterr().err
        assert not any(path.exists() for path in outputs)

    @pytest.mark.parametrize("command", ["simulate", "eval"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        # Used to exit 2 on numpy's "expected non-negative integer", which
        # named no flag.
        argv, outputs = scene_command(command, tmp_path)
        assert main(argv + ["--seed", "-1"]) == EXIT_INVALID_INPUT
        assert "seed must be" in capsys.readouterr().err
        assert not any(path.exists() for path in outputs)

    @pytest.mark.parametrize("command", ["simulate", "eval"])
    def test_infinite_occluder_depth_exits_2(self, tmp_path, capsys, command):
        # offset -inf puts the occluder at depth +inf, which used to leave the
        # scene unoccluded with exit 0.
        argv, outputs = scene_command(command, tmp_path)
        argv += ["--occluder-fraction", "0.2", "--occluder-offset=-inf"]
        assert main(argv) == EXIT_INVALID_INPUT
        assert "occluder depth" in capsys.readouterr().err
        assert not any(path.exists() for path in outputs)

    @pytest.mark.parametrize("command", ["simulate", "eval"])
    @pytest.mark.parametrize("offset", ["-0.2", "0"])
    def test_occluder_hiding_nothing_exits_2(self, tmp_path, capsys, command, offset):
        # An occluder at or behind the object's depth used to be dropped,
        # writing the unoccluded scene with exit 0.
        argv, outputs = scene_command(command, tmp_path)
        argv += ["--occluder-fraction", "0.2", f"--occluder-offset={offset}"]
        assert main(argv) == EXIT_INVALID_INPUT
        assert "no pixel of its region" in capsys.readouterr().err
        assert not any(path.exists() for path in outputs)

    @pytest.mark.parametrize("command", ["simulate", "eval"])
    def test_depth_noise_beyond_float32_exits_2(self, tmp_path, capsys, command):
        # Noisy depths beyond float32 used to exit 1 on an overflow warning.
        argv, outputs = scene_command(command, tmp_path)
        assert main(argv + ["--depth-noise", "1e39"]) == EXIT_INVALID_INPUT
        assert "depth values must be finite" in capsys.readouterr().err
        assert not any(path.exists() for path in outputs)

    @pytest.mark.parametrize("command, flags, message", [
        ("simulate", ["--object-depth=-0.5"], "object_depth"),
        ("simulate", ["--object-depth=0"], "object_depth"),
        ("simulate", ["--scale", "1e-9"], "covers no pixel"),
        ("simulate", ["--object-depth", "1e6"], "covers no pixel"),
        ("eval", ["--object-depth=-0.5"], "object_depth"),
    ], ids=["behind", "at-camera", "tiny", "far", "eval-behind"])
    def test_unseen_object_exits_2(self, tmp_path, capsys, command, flags, message):
        # Each of these used to exit 0: simulate wrote a map the camera
        # never saw, and eval recorded a failed scene.
        argv, outputs = scene_command(command, tmp_path)
        assert main(argv + flags) == EXIT_INVALID_INPUT
        assert message in capsys.readouterr().err
        assert not any(path.exists() for path in outputs)


class TestLibraryDefaults:
    """A command run with no optional flag gives what the library gives
    with its own defaults: the CLI restates none of them."""

    def test_render_uses_render_depth_default_scale(self, workspace):
        tmp_path, obj, scene = workspace
        out = tmp_path / "depth.pfm"
        assert main(["render", "--mesh", obj, "--scene", scene, "--out", str(out)]) == EXIT_OK
        pose, intr, _, _ = load_scene_config(scene)
        expected = render_depth(load_mesh(obj), pose, intr)
        assert np.array_equal(load_depth(out).data, expected.data)

    def test_refine_uses_default_refine_config(self, tmp_path):
        # Depth noise of about half the inlier threshold, so the inlier
        # count follows the threshold.
        depth, scene, obj, out = (tmp_path / n for n in ("s.pfm", "s.json", "a.obj", "r.json"))
        assert main(["simulate", "--scale", "0.8", "--depth-noise", "0.004", "--seed", "1",
                     "--out-depth", str(depth), "--out-scene", str(scene)]) == EXIT_OK
        write_obj(obj, builtin_model("apple")[0])
        rc = main(["refine", "--mesh", str(obj), "--scene", str(scene),
                   "--depth", str(depth), "--out", str(out)])
        assert rc == EXIT_OK
        pose, intr, _, cad_dims = load_scene_config(scene)
        real = load_depth(depth)
        result = refine(pose, load_mesh(obj), cad_dims, intr, real, RefineConfig())
        doc = json.loads(out.read_text())
        assert doc["mu_opt"] == result.mu_opt
        assert doc["inlier_count"] == len(result.inliers)
        assert 0 < doc["inlier_count"] < np.count_nonzero(real.valid_mask)

    def test_simulate_uses_tabletop_scene_defaults(self, tmp_path):
        out = tmp_path / "scene.pfm"
        rc = main(["simulate", "--scale", "0.8", "--out-depth", str(out),
                   "--out-scene", str(tmp_path / "scene.json")])
        assert rc == EXIT_OK
        expected = tmp_path / "expected.pfm"
        store_depth(expected, generate_scene(tabletop_scene("simulated", 0.8))[0])
        assert out.read_bytes() == expected.read_bytes()

    def test_eval_uses_default_sweep(self, tmp_path):
        out = tmp_path / "records.jsonl"
        assert main(["eval", "--out", str(out)]) == EXIT_OK
        records, _ = run_sweep(default_sweep())
        expected = [json.dumps(dataclasses.asdict(r)) for r in records]
        assert out.read_text().splitlines() == expected


class TestRepeatedMain:
    """`main` may run many times in one process: it builds its parser once,
    and each call sees only its own flags."""

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_flags_and_usage_errors_do_not_outlive_their_call(self, tmp_path):
        depth, scene, obj = (tmp_path / n for n in ("s.pfm", "s.json", "a.obj"))
        assert main(["simulate", "--scale", "0.8", "--depth-noise", "0.004", "--seed", "1",
                     "--out-depth", str(depth), "--out-scene", str(scene)]) == EXIT_OK
        write_obj(obj, builtin_model("apple")[0])
        argv = ["refine", "--mesh", str(obj), "--scene", str(scene), "--depth", str(depth)]
        flags = ["--inlier-threshold", "0.02", "--min-inlier-fraction", "0.5"]
        assert main([*argv, "--out", str(tmp_path / "flagged.json"), *flags]) == EXIT_OK
        with pytest.raises(SystemExit) as exc_info:
            main(["refine"])
        assert exc_info.value.code == 2
        assert main([*argv, "--out", str(tmp_path / "plain.json")]) == EXIT_OK
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        subprocess.run([sys.executable, "-m", "depthrefine.cli", *argv,
                        "--out", str(tmp_path / "fresh.json")], env=env, check=True)
        plain = (tmp_path / "plain.json").read_bytes()
        assert plain == (tmp_path / "fresh.json").read_bytes()
        assert plain != (tmp_path / "flagged.json").read_bytes()


def _write(path, data: bytes):
    path.write_bytes(data)
    return path


class TestExitCodeMapping:
    def test_error_classes_partition_codes(self):
        assert NoOverlapError.exit_code == EXIT_NO_OVERLAP
        assert DegenerateSceneError.exit_code == EXIT_DEGENERATE_SCENE
        assert NoFeasibleCandidateError.exit_code == EXIT_NO_CANDIDATE
        assert DepthRefineError.exit_code == EXIT_UNEXPECTED
        assert all(cls.exit_code != EXIT_INVALID_INPUT for cls in DepthRefineError.__subclasses__())

    def test_one_failure_per_pipeline_stage(self):
        # Overlap, consensus and grasp feasibility: the only ways the
        # pipeline fails on valid input.
        assert {cls.exit_code for cls in DepthRefineError.__subclasses__()} == {3, 4, 5}

    @pytest.mark.parametrize("raise_it", [
        lambda tmp: load_mesh(_write(tmp / "bad.obj", b"v 0 0 0\nf 1 2 9\n")),
        lambda tmp: load_depth(_write(tmp / "bad.pfm", b"PF\n2 2\n-1.0\n" + b"\x00" * 48)),
        lambda tmp: load_scene_config(_write(tmp / "s.json", b'{"fx": 1.0}')),
        lambda tmp: load_mesh(_write(tmp / "empty.obj", b"v 0 0 0\nv 1 0 0\nv 0 1 0\n")),
        lambda tmp: generate_scene(tabletop_scene("far", 1.0, object_depth=1e6)),
        lambda tmp: refine(
            Pose(np.zeros(3), UnitQuaternion.identity()), square_mesh(),
            builtin_model("apple")[1], INTRINSICS, render_fixture_depth(),
        ),
        lambda tmp: apply_sigma_to_pose(Pose(np.zeros(3), UnitQuaternion.identity()), 0.1),
    ], ids=["bad-obj", "bad-pfm-magic", "missing-field", "no-triangles",
            "covers-no-pixel", "coarse-z-zero", "sigma-at-origin"])
    def test_invalid_input_is_a_value_error(self, tmp_path, raise_it):
        # The CLI maps every ValueError to exit 2; the DepthRefineError
        # classes are the pipeline's own failures, each with its own code.
        with pytest.raises(ValueError) as exc_info:
            raise_it(tmp_path)
        assert not isinstance(exc_info.value, DepthRefineError)

