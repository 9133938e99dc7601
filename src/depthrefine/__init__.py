"""Depth-based refinement of scale-ambiguous RGB pose estimates.

An RGB-only pose estimator trained on a fixed-size reference model cannot
tell a small near object from a large far one. This package slides the
model along the camera ray while rescaling it to keep the image fixed,
fits the slide parameter in closed form from one render so the rendered
depth map matches the measured one, and reports the corrected position
plus the true object dimensions. It also samples pre-grasp poses around the corrected position
and ships a synthetic evaluation harness plus a command-line interface.
"""

from .errors import (
    EXIT_DEGENERATE_SCENE,
    EXIT_INVALID_INPUT,
    EXIT_NO_CANDIDATE,
    EXIT_NO_OVERLAP,
    EXIT_OK,
    EXIT_UNEXPECTED,
    DegenerateSceneError,
    DepthRefineError,
    NoFeasibleCandidateError,
    NoOverlapError,
)
from .fileio import (
    load_depth,
    load_mesh,
    load_scene_config,
    store_depth,
    store_mesh,
    store_scene_config,
)
from .geometry import (
    CameraIntrinsics,
    CuboidDims,
    Pose,
    UnitQuaternion,
    apply_sigma_to_pose,
    quat_mul,
    transform_point,
)
from .grasp import (
    GraspCandidate,
    GraspSamplingConfig,
    sample_candidates,
)
from .harness import (
    CAD_CUBOID,
    DEFAULT_INTRINSICS,
    DEFAULT_SCALE_LEVELS,
    EvalRecord,
    SceneSpec,
    builtin_model,
    centroid_error,
    default_sweep,
    dimensional_error,
    generate_scene,
    run_sweep,
    tabletop_scene,
)
from .refiner import (
    RefineConfig,
    RefinementResult,
    refine,
)
from .renderer import DepthMap, TriangleMesh, pixel_support, render_depth

__version__ = "0.1.0"

__all__ = [
    "CAD_CUBOID",
    "CameraIntrinsics",
    "CuboidDims",
    "DEFAULT_INTRINSICS",
    "DEFAULT_SCALE_LEVELS",
    "DegenerateSceneError",
    "DepthMap",
    "DepthRefineError",
    "EXIT_DEGENERATE_SCENE",
    "EXIT_INVALID_INPUT",
    "EXIT_NO_CANDIDATE",
    "EXIT_NO_OVERLAP",
    "EXIT_OK",
    "EXIT_UNEXPECTED",
    "EvalRecord",
    "GraspCandidate",
    "GraspSamplingConfig",
    "NoFeasibleCandidateError",
    "NoOverlapError",
    "Pose",
    "RefineConfig",
    "RefinementResult",
    "SceneSpec",
    "TriangleMesh",
    "UnitQuaternion",
    "apply_sigma_to_pose",
    "builtin_model",
    "centroid_error",
    "default_sweep",
    "dimensional_error",
    "generate_scene",
    "load_depth",
    "load_mesh",
    "load_scene_config",
    "pixel_support",
    "quat_mul",
    "refine",
    "render_depth",
    "run_sweep",
    "sample_candidates",
    "store_depth",
    "store_mesh",
    "store_scene_config",
    "tabletop_scene",
    "transform_point",
]
