"""Workloads of the depthrefine benchmark: inputs, one operation, its check.

Each workload builds its inputs from a seed in `setup`, runs one operation
per `run(k)` call, and scores the operation's output against the ground
truth of its scene in `check`. Any `round_ops` consecutive operations form
a round that visits each scale level once; scale levels differ in cost by
up to 1.7x, so the runner times whole rounds. Operations reach the package through module
attributes (`refiner.refine`, `harness.run_sweep`, `cli.main`, ...) looked
up at call time, so the tracer in `tracing.py` can wrap them from outside.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from depthrefine import cli, fileio, geometry, grasp, harness, refiner, renderer

INTR = harness.DEFAULT_INTRINSICS

# Acceptance criteria 3 and 4: dimensions and table-frame centroid within 5 mm.
TOL_M = 0.005
# Acceptance criterion 6: every candidate on its sphere to 1e-9 m.
SPHERE_TOL_M = 1e-9

GRASP_RADIUS = 0.15
GRASP_CFG = grasp.GraspSamplingConfig(
    radius=GRASP_RADIUS, alpha_samples=8, theta_samples=4, table_height=0.0
)

DEPTH_NOISE = 0.002
CLI_SCALE = 0.793
DENSE_RINGS = DENSE_SEGMENTS = 160  # 50,880 triangles

# eval-occluded cycles through this many distinct seeded scenes.
EVAL_SCENES = 200


@dataclass(frozen=True)
class Outcome:
    """Check verdict of one operation: no reasons means it passed."""

    reasons: tuple[str, ...]
    dim_err_m: float | None = None


def apple_radii() -> tuple[float, float, float]:
    cad = harness.CAD_CUBOID
    return cad.dx / 2.0, cad.dy / 2.0, cad.dz / 2.0


def score(est_dims, true_dims, world_z, coarse_q, refined_q, center, grasp_positions):
    """Check one refined pose and its grasp set against the scene's truth."""
    reasons = []
    dim_err = float(np.linalg.norm(np.asarray(est_dims) - true_dims.as_array()))
    if not dim_err <= TOL_M:
        reasons.append("dims")
    if not abs(harness.centroid_error(world_z, true_dims.dy)) <= TOL_M:
        reasons.append("centroid")
    if tuple(refined_q) != tuple(coarse_q):
        reasons.append("orientation")
    off = np.abs(np.linalg.norm(np.asarray(grasp_positions) - center, axis=-1) - GRASP_RADIUS)
    if len(grasp_positions) == 0 or not np.all(off <= SPHERE_TOL_M):
        reasons.append("grasp_sphere")
    return Outcome(tuple(reasons), dim_err)


def _quat(q: geometry.UnitQuaternion) -> tuple[float, float, float, float]:
    return q.w, q.x, q.y, q.z


@dataclass
class PickResult:
    spec: harness.SceneSpec
    coarse: geometry.Pose
    result: refiner.RefinementResult
    world: np.ndarray
    candidates: list


class PickTabletop:
    """`refine` on a pre-generated apple scene, world transform, grasp sampling."""

    name = "pick-tabletop"
    obj_bytes = 0
    round_ops = len(harness.DEFAULT_SCALE_LEVELS)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.mesh, self.cad = harness.builtin_model("apple")
        self.scenes = []
        for spec in harness.default_sweep(depth_noise=DEPTH_NOISE, seed=self.seed):
            real, coarse = harness.generate_scene(spec, INTR)
            self.scenes.append((spec, real, coarse))

    def run(self, k: int) -> PickResult:
        spec, real, coarse = self.scenes[k % len(self.scenes)]
        result = refiner.refine(coarse, self.mesh, self.cad, INTR, real)
        world = geometry.transform_point(spec.camera_pose, result.refined_pose.position)
        candidates = grasp.sample_candidates(world, GRASP_CFG)
        return PickResult(spec, coarse, result, world, candidates)

    def check(self, out: PickResult) -> Outcome:
        return score(
            out.result.estimated_dims.as_array(),
            self.cad.scaled(out.spec.true_scale),
            float(out.world[2]),
            _quat(out.coarse.orientation),
            _quat(out.result.refined_pose.orientation),
            out.world,
            [c.position for c in out.candidates],
        )


class EvalOccluded:
    """`run_sweep` over one occluded, noisy scene generated inside the op."""

    name = "eval-occluded"
    obj_bytes = 0
    round_ops = len(harness.DEFAULT_SCALE_LEVELS)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.specs = []
        levels = len(harness.DEFAULT_SCALE_LEVELS)
        for r in range(EVAL_SCENES // levels):
            self.specs += harness.default_sweep(
                depth_noise=DEPTH_NOISE,
                shape_noise=0.002,
                occluder_fraction=0.2,
                seed=self.seed * EVAL_SCENES + levels * r,
            )

    def run(self, k: int) -> harness.EvalRecord:
        records, _ = harness.run_sweep([self.specs[k % len(self.specs)]])
        return records[0]

    def check(self, rec: harness.EvalRecord) -> Outcome:
        # An EvalRecord carries the two paper metrics but no pose, so the
        # orientation and grasp parts of the check do not apply here.
        if not rec.success:
            return Outcome(("sweep_failed",))
        reasons = []
        if not rec.dimensional_error <= TOL_M:
            reasons.append("dims")
        if not abs(rec.centroid_error) <= TOL_M:
            reasons.append("centroid")
        return Outcome(tuple(reasons), rec.dimensional_error)


@dataclass
class CliResult:
    refine_code: int
    grasp_code: int | None
    doc: dict | None
    grasps: list | None


class CliDense:
    """In-process `depthrefine refine` then `sample-grasps` on files of a dense mesh."""

    name = "cli-dense"
    round_ops = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.obj = workdir / "dense.obj"
        self.pfm = workdir / "scene.pfm"
        self.scene = workdir / "scene.json"
        self.result = workdir / "result.json"
        self.grasps = workdir / "grasps.json"

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        mesh = harness.ellipsoid_mesh(apple_radii(), DENSE_RINGS, DENSE_SEGMENTS)
        fileio.store_mesh(self.obj, mesh)
        self.obj_bytes = self.obj.stat().st_size

        spec = harness.tabletop_scene("cli-dense", CLI_SCALE)
        data = renderer.render_depth(mesh, spec.true_pose, INTR, scale=CLI_SCALE).data
        data = data.astype(np.float64)
        valid = data > 0.0
        rng = np.random.default_rng(self.seed)
        noisy = data[valid] + rng.normal(0.0, DEPTH_NOISE, int(valid.sum()))
        data[valid] = np.maximum(noisy, harness.MIN_VALID_DEPTH)
        fileio.store_depth(self.pfm, renderer.DepthMap(INTR.width, INTR.height, data.astype(np.float32)))

        coarse = harness.simulate_rgb_estimate(spec.true_pose, CLI_SCALE)
        self.true_dims = harness.CAD_CUBOID.scaled(CLI_SCALE)
        self.coarse_q = _quat(coarse.orientation)
        doc = {
            "position": [float(x) for x in coarse.position],
            "orientation": list(self.coarse_q),
            "fx": INTR.fx, "fy": INTR.fy, "cx": INTR.cx, "cy": INTR.cy,
            "width": INTR.width, "height": INTR.height,
            "cad_dims": [float(x) for x in harness.CAD_CUBOID.as_array()],
            "world_T_camera": {
                "position": [float(x) for x in spec.camera_pose.position],
                "orientation": list(_quat(spec.camera_pose.orientation)),
            },
        }
        self.scene.write_text(json.dumps(doc), encoding="utf-8")

    def run(self, k: int) -> CliResult:
        for path in (self.result, self.grasps):
            path.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([
                "refine", "--mesh", str(self.obj), "--scene", str(self.scene),
                "--depth", str(self.pfm), "--out", str(self.result),
            ])
            if code != 0:
                return CliResult(code, None, None, None)
            doc = json.loads(self.result.read_text(encoding="utf-8"))
            position = [repr(float(x)) for x in doc["refined_position_world"]]
            grasp_code = cli.main([
                "sample-grasps", "--position", *position, "--radius", repr(GRASP_RADIUS),
                "--table-height", "0.0", "--out", str(self.grasps),
            ])
        grasps = None
        if grasp_code == 0:
            grasps = json.loads(self.grasps.read_text(encoding="utf-8"))
        return CliResult(code, grasp_code, doc, grasps)

    def check(self, out: CliResult) -> Outcome:
        if out.refine_code != 0 or out.grasp_code != 0:
            return Outcome(("exit_code",))
        try:
            world = np.array(out.doc["refined_position_world"], dtype=np.float64)
            est_dims = out.doc["estimated_dims"]
            refined_q = out.doc["refined_orientation"]
            positions = [c["position"] for c in out.grasps]
        except (KeyError, TypeError):
            return Outcome(("result_json",))
        # The CLI normalizes the scene quaternion on load; compare against
        # the same normalization of what was written.
        coarse_q = _quat(geometry.UnitQuaternion(*self.coarse_q))
        return score(est_dims, self.true_dims, float(world[2]), coarse_q,
                     refined_q, world, positions)


WORKLOADS = {w.name: w for w in (PickTabletop, EvalOccluded, CliDense)}

# Render-cost curve: apple-sized ellipsoids at 720, 4,900 and 50,880 triangles.
CURVE_MESHES = {720: (16, 24), 4900: (50, 50), 50880: (160, 160)}


def render_curve(repeats: int) -> dict[int, float]:
    """Median ms of a standalone render on the tabletop pose, per triangle count."""
    pose = harness.tabletop_scene("curve", 1.0).true_pose
    out = {}
    for tris, (rings, segments) in CURVE_MESHES.items():
        mesh = harness.ellipsoid_mesh(apple_radii(), rings, segments)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            renderer.render_depth(mesh, pose, INTR)
            times.append(time.perf_counter() - t0)
        out[tris] = 1e3 * float(np.median(times))
    return out

