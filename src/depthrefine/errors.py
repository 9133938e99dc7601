"""Exception hierarchy and the CLI exit codes.

Every error class carries the process exit code the CLI reports when the
error escapes a subcommand. Codes partition the error classes: parse and
validation problems exit 2, pipeline failures get their own codes so
callers can distinguish "the coarse pose was too wrong to refine" from
"the scene had no usable consensus".
"""

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_INVALID_INPUT = 2
EXIT_NO_OVERLAP = 3
EXIT_DEGENERATE_SCENE = 4
EXIT_NO_CANDIDATE = 5
EXIT_NUMERICAL = 6


class DepthRefineError(Exception):
    """Base class for all package errors."""

    exit_code = EXIT_UNEXPECTED


class InvalidInputError(DepthRefineError):
    """Malformed or contract-violating input (files, configs, geometry)."""

    exit_code = EXIT_INVALID_INPUT


class MeshParseError(InvalidInputError):
    """OBJ file could not be parsed; message carries the offending line."""


class DepthMapFormatError(InvalidInputError):
    """PFM file rejected: bad magic, bad dimensions, endianness, truncation."""


class ConfigError(InvalidInputError):
    """Pose/intrinsics JSON missing fields or failing validation."""


class EmptyGeometryError(InvalidInputError):
    """Mesh with no triangles, or a scene whose object covers no pixel."""


class DegenerateRayError(InvalidInputError):
    """Camera-to-object ray undefined (position at the camera origin)."""


class BehindCameraError(InvalidInputError):
    """Point with non-positive camera-frame depth cannot be projected."""


class NoOverlapError(DepthRefineError):
    """Rendered support and valid real pixels do not intersect."""

    exit_code = EXIT_NO_OVERLAP


class DegenerateSceneError(DepthRefineError):
    """Robust regression found no consensus above the configured fraction."""

    exit_code = EXIT_DEGENERATE_SCENE


class NoFeasibleCandidateError(DepthRefineError):
    """Every sampled grasp candidate was filtered out."""

    exit_code = EXIT_NO_CANDIDATE


class NumericalError(DepthRefineError):
    """Objective evaluated to a non-finite value."""

    exit_code = EXIT_NUMERICAL
