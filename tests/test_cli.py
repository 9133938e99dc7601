"""End-to-end tests of the command-line interface.

Every test drives ``cli.main`` in-process and checks the returned exit
code plus the files the command writes. Error-path tests pin the exit
code partition: 2 invalid input, 3 no overlap, 4 degenerate scene,
5 no feasible candidate.
"""

import json

import numpy as np
import pytest

from depthrefine import (
    EXIT_DEGENERATE_SCENE,
    EXIT_INVALID_INPUT,
    EXIT_NO_CANDIDATE,
    EXIT_NO_OVERLAP,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_UNEXPECTED,
    CameraIntrinsics,
    DegenerateSceneError,
    DepthMap,
    DepthRefineError,
    GraspSamplingConfig,
    MeshParseError,
    NoFeasibleCandidateError,
    NoOverlapError,
    NumericalError,
    Pose,
    UnitQuaternion,
    exit_code_for,
    load_depth,
    load_scene_config,
    render_depth,
    sample_candidates,
    store_depth,
    transform_point,
)
from depthrefine.cli import main
from depthrefine.harness import builtin_model

from helpers import square_mesh, write_obj

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
        assert doc["mu_at_bound"] is False
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

    def test_mu_at_bound_flag(self, workspace):
        tmp_path, _, _ = workspace
        depth_path = tmp_path / "measured.pfm"
        # mu* = 0.75 needs sigma = 0.125 m, beyond the 0.05 m bound.
        true_pose = Pose(np.array([0.0, 0.0, 0.375]), UnitQuaternion.identity())
        store_depth(depth_path, render_depth(square_mesh(half=0.1), true_pose, INTRINSICS, scale=0.75))
        argv, out = self.refine_args(workspace, depth_path, "--bound-fraction", "0.1")
        assert main(argv) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["mu_at_bound"] is True
        assert doc["sigma_opt"] == pytest.approx(0.05, abs=1e-12)

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

    def test_all_filtered_exits_5(self, tmp_path, capsys):
        rc = main(["sample-grasps", "--position", "0", "0", "0.3",
                   "--radius", "0.15", "--table-height", "10",
                   "--out", str(tmp_path / "grasps.json")])
        assert rc == EXIT_NO_CANDIDATE
        assert "error:" in capsys.readouterr().err


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
        if command == "simulate":
            outputs = [tmp_path / "scene.pfm", tmp_path / "scene.json"]
            argv = ["simulate", "--scale", "0.8", "--out-depth", str(outputs[0]),
                    "--out-scene", str(outputs[1])]
        else:
            outputs = [tmp_path / "records.jsonl"]
            argv = ["eval", "--scales", "0.8", "--out", str(outputs[0])]
        assert main(argv + [flag, value]) == EXIT_INVALID_INPUT
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not any(path.exists() for path in outputs)


class TestExitCodeMapping:
    def test_error_classes_partition_codes(self):
        assert exit_code_for(MeshParseError("x")) == EXIT_INVALID_INPUT
        assert exit_code_for(NoOverlapError("x")) == EXIT_NO_OVERLAP
        assert exit_code_for(DegenerateSceneError("x")) == EXIT_DEGENERATE_SCENE
        assert exit_code_for(NoFeasibleCandidateError("x")) == EXIT_NO_CANDIDATE
        assert exit_code_for(NumericalError("x")) == EXIT_NUMERICAL
        assert exit_code_for(DepthRefineError("x")) == EXIT_UNEXPECTED
        assert exit_code_for(RuntimeError("x")) == EXIT_UNEXPECTED
