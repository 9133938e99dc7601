"""Command-line surface: render, refine, sample-grasps, simulate, eval.

One subcommand per pipeline stage. Exit codes: 0 success, 1 unexpected
failure, 2 invalid input (any ValueError or OSError), and one code per
pipeline failure on valid input: 3 no overlap between rendered and
measured depth, 4 degenerate scene (no consensus, or a scale beyond the bound),
5 no feasible grasp candidate. Every command that touches randomness
takes --seed; identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from .errors import EXIT_INVALID_INPUT, EXIT_OK, EXIT_UNEXPECTED, DepthRefineError
from .fileio import (
    _scale_depths, load_depth, load_mesh, load_scene_config, store_depth, store_scene_config,
    write_json,
)
from .geometry import UnitQuaternion, transform_point
from .grasp import GraspSamplingConfig, sample_candidates
from .harness import (
    DEFAULT_INTRINSICS,
    builtin_model,
    default_sweep,
    generate_scene,
    run_sweep,
    tabletop_scene,
)
from .refiner import RefineConfig, refine
from .renderer import DepthMap, render_depth


def _given(args, *names) -> dict:
    """The flags among `names` set on the command line. An unset flag is
    absent from `args`, so the library's own default applies to it."""
    return {name: getattr(args, name) for name in names if name in args}


def cmd_render(args) -> int:
    pose, intr, _, _ = load_scene_config(args.scene)
    mesh = load_mesh(args.mesh)
    depth = render_depth(mesh, pose, intr, **_given(args, "scale"))
    store_depth(args.out, depth)
    valid = int(np.count_nonzero(depth.valid_mask))
    print(f"rendered {depth.width}x{depth.height}, {valid} valid pixels -> {args.out}")
    return EXIT_OK


def cmd_refine(args) -> int:
    pose, intr, extrinsics, cad_dims = load_scene_config(args.scene)
    mesh = load_mesh(args.mesh)
    real = load_depth(args.depth)
    if args.depth_scale != 1.0:
        # The range load_depth allows a PFM scale. `real` is this call's own
        # map, so its depths are scaled in place and checked again as a new map.
        scaled = _scale_depths(real.data, args.depth_scale, "--depth-scale")
        real = DepthMap(real.width, real.height, scaled)
    cfg = RefineConfig(**_given(args, "bound_fraction", "inlier_threshold", "min_inlier_fraction"))
    result = refine(pose, mesh, cad_dims, intr, real, cfg)
    inlier_count = len(result.inliers)
    doc = {
        "sigma_opt": result.sigma_opt,
        "mu_opt": result.mu_opt,
        "refined_position": result.refined_pose.position.tolist(),
        "refined_orientation": result.refined_pose.orientation.as_array().tolist(),
        "estimated_dims": result.estimated_dims.as_array().tolist(),
        "inlier_count": inlier_count,
        "rms_residual": result.rms_residual,
        "free_space_fraction": result.free_space_fraction,
    }
    if extrinsics is not None:
        doc["refined_position_world"] = transform_point(
            extrinsics, result.refined_pose.position
        ).tolist()
    write_json(args.out, doc)
    print(
        f"sigma_opt={result.sigma_opt:+.4f} m, mu_opt={result.mu_opt:.4f}, "
        f"{inlier_count} inliers, rms={result.rms_residual:.4f} m -> {args.out}"
    )
    return EXIT_OK


def cmd_sample_grasps(args) -> int:
    given = _given(args, "alpha_samples", "theta_samples", "theta_max", "table_height")
    if "align" in args:
        given["approach_alignment"] = UnitQuaternion(*args.align)
    cfg = GraspSamplingConfig(radius=args.radius, **given)
    candidates = sample_candidates(np.array(args.position), cfg)
    doc = [
        {
            "position": c.position.tolist(),
            "orientation": c.orientation.as_array().tolist(),
            "alpha": c.alpha,
            "theta": c.theta,
        }
        for c in candidates
    ]
    write_json(args.out, doc)
    print(f"{len(candidates)} grasp candidates -> {args.out}")
    return EXIT_OK


# The scene flags simulate and eval share, named as `tabletop_scene` keywords.
SCENE_FLAGS = (
    "mesh_id", "object_depth", "occluder_fraction", "occluder_offset",
    "depth_noise", "shape_noise", "seed",
)


def cmd_simulate(args) -> int:
    spec = tabletop_scene("simulated", args.scale, **_given(args, *SCENE_FLAGS))
    real, coarse = generate_scene(spec, DEFAULT_INTRINSICS)
    store_depth(args.out_depth, real)
    _, cad_dims = builtin_model(spec.mesh_id)
    store_scene_config(args.out_scene, coarse, DEFAULT_INTRINSICS, cad_dims, spec.camera_pose)
    valid = int(np.count_nonzero(real.valid_mask))
    print(
        f"simulated scale={args.scale} scene: {valid} valid pixels -> "
        f"{args.out_depth}, coarse estimate -> {args.out_scene}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    records, table = run_sweep(default_sweep(**_given(args, "scales", *SCENE_FLAGS)))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for r in records:
                fh.write(json.dumps(dataclasses.asdict(r)))
                fh.write("\n")
    print(table)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depthrefine",
        description="Depth-based refinement of scale-ambiguous pose estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # An unset flag stays out of the parsed namespace, so the library's own
    # default applies (see _given). Only --radius, --depth-scale and eval's
    # --out, which the library leaves open, state a default here.
    command = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    p = command("render", help="render a depth map of a posed mesh")
    p.add_argument("--mesh", required=True, help="OBJ mesh path")
    p.add_argument("--scene", required=True, help="scene JSON (pose + intrinsics)")
    p.add_argument("--scale", type=float, help="uniform mesh scale")
    p.add_argument("--out", required=True, help="output PFM path")
    p.set_defaults(func=cmd_render)

    p = command("refine", help="refine a coarse pose against a measured depth map")
    p.add_argument("--mesh", required=True, help="OBJ mesh path")
    p.add_argument("--scene", required=True, help="scene JSON (coarse pose + intrinsics + cad_dims)")
    p.add_argument("--depth", required=True, help="measured depth map (PFM)")
    p.add_argument("--out", required=True, help="output result JSON path")
    p.add_argument("--depth-scale", type=float, default=1.0,
                   help="multiply loaded depths by this factor (e.g. 0.001 for mm)")
    p.add_argument("--bound-fraction", type=float)
    p.add_argument("--inlier-threshold", type=float)
    p.add_argument("--min-inlier-fraction", type=float)
    p.set_defaults(func=cmd_refine)

    p = command("sample-grasps", help="sample pre-grasp poses on a sphere")
    p.add_argument("--position", type=float, nargs=3, required=True,
                   metavar=("X", "Y", "Z"), help="refined object position (world frame)")
    p.add_argument("--radius", type=float, default=0.15, help="sphere radius [m]")
    p.add_argument("--alpha-samples", type=int)
    p.add_argument("--theta-samples", type=int)
    p.add_argument("--theta-max", type=float)
    p.add_argument("--align", type=float, nargs=4, metavar=("W", "X", "Y", "Z"),
                   help="end-effector alignment quaternion")
    p.add_argument("--table-height", type=float, help="drop candidates below this world z")
    p.add_argument("--out", required=True, help="output candidates JSON path")
    p.set_defaults(func=cmd_sample_grasps)

    # The SCENE_FLAGS, declared once for simulate and eval.
    scene = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    scene.add_argument("--mesh-id", choices=("apple", "sphere", "cube"))
    scene.add_argument("--object-depth", type=float)
    scene.add_argument("--occluder-fraction", type=float)
    scene.add_argument("--occluder-offset", type=float)
    scene.add_argument("--depth-noise", type=float)
    scene.add_argument("--shape-noise", type=float)
    scene.add_argument("--seed", type=int)

    p = command("simulate", parents=[scene], help="generate a synthetic scene + coarse estimate")
    p.add_argument("--scale", type=float, required=True, help="true object scale")
    p.add_argument("--out-depth", required=True, help="output PFM path")
    p.add_argument("--out-scene", required=True, help="output scene JSON path")
    p.set_defaults(func=cmd_simulate)

    p = command("eval", parents=[scene], help="run the synthetic evaluation sweep")
    p.add_argument("--scales", type=float, nargs="+")
    p.add_argument("--out", default="", help="optional line-delimited JSON records path")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DepthRefineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except Exception as exc:  # pragma: no cover - last resort
        print(f"unexpected error: {exc!r}", file=sys.stderr)
        return EXIT_UNEXPECTED


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
