"""Pipeline errors and the CLI exit codes.

Invalid input (a malformed file, a bad field or flag, a degenerate
geometry) raises ValueError, which the CLI reports as exit 2. The
classes here are the pipeline's three failures on valid input, one per
stage, each with its own exit code: no overlap between render and
measurement (3), no consensus on a plausible scale (4), no feasible grasp (5).
"""

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_INVALID_INPUT = 2
EXIT_NO_OVERLAP = 3
EXIT_DEGENERATE_SCENE = 4
EXIT_NO_CANDIDATE = 5


class DepthRefineError(Exception):
    """Base class for the pipeline's failures on valid input."""

    exit_code = EXIT_UNEXPECTED


class NoOverlapError(DepthRefineError):
    """Rendered support and valid real pixels do not intersect."""

    exit_code = EXIT_NO_OVERLAP


class DegenerateSceneError(DepthRefineError):
    """No consensus above the configured fraction, or a scale beyond the bound."""

    exit_code = EXIT_DEGENERATE_SCENE


class NoFeasibleCandidateError(DepthRefineError):
    """Every sampled grasp candidate was filtered out."""

    exit_code = EXIT_NO_CANDIDATE
