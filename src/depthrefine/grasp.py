"""Pre-grasp candidate poses on a sphere around the refined object position.

Candidates sit at radius r from the object center, parameterized by an
azimuth alpha about the world z axis and a polar angle theta from the
zenith. Each orientation composes a robot-specific alignment rotation
(mapping the end-effector approach axis onto world z) with the azimuth
and polar rotations, so the approach axis always points at the object.
The grid's unit offsets and orientations depend only on the sampling
config, so they are built on a config's first use and kept on it; each
call then only shifts the offsets to the object and applies the table
filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NoFeasibleCandidateError
from .geometry import UnitQuaternion, _check_field, _count, _positive, _real, as_vec3, quat_mul, quat_y, quat_z

# The most grid cells a config may ask for; the grid is built cell by cell in
# Python (about 13 us each), so this bounds its first use to a second or two.
MAX_GRID_CELLS = 100_000


@dataclass(frozen=True)
class GraspSamplingConfig:
    """Sphere radius, grid density, alignment rotation, and table filter.

    `approach_alignment` is the rotation aligning the end-effector
    approach vector with the world z axis; it is robot-specific input,
    never computed here. Candidates below `table_height` (world z) are
    discarded.
    """

    radius: float
    alpha_samples: int = 8
    theta_samples: int = 4
    theta_max: float = math.pi / 3
    approach_alignment: UnitQuaternion = UnitQuaternion.identity()
    table_height: float = -math.inf

    def __post_init__(self):
        _check_field(self, "radius", _positive)
        # -inf (the default) disables the filter; NaN would disable it silently.
        _check_field(self, "table_height", _real, "within float range and not NaN",
                     lambda v: not math.isnan(v))
        for name in ("alpha_samples", "theta_samples"):
            _check_field(self, name, _count)
        if self.alpha_samples * self.theta_samples > MAX_GRID_CELLS:
            raise ValueError(f"alpha_samples * theta_samples must be at most {MAX_GRID_CELLS}")
        _check_field(self, "theta_max", _real, "in (0, pi]", lambda v: 0.0 < v <= math.pi)
        if not isinstance(self.approach_alignment, UnitQuaternion):
            raise ValueError("approach_alignment must be a UnitQuaternion")

    @cached_property
    def _grid(self) -> tuple[np.ndarray, list]:
        """Unit offsets (K, 3), read-only, and (orientation, alpha, theta) per
        cell, theta-ascending then alpha-ascending.

        Built on first use and kept on the instance (a frozen dataclass still
        has a `__dict__`), so it lives as long as this config and comes from
        this config's own alignment bits.
        """
        if self.theta_samples == 1:
            thetas = [0.0]
        else:
            step = self.theta_max / (self.theta_samples - 1)
            thetas = [k * step for k in range(self.theta_samples)]
        alphas = [k * (2.0 * math.pi / self.alpha_samples) for k in range(self.alpha_samples)]

        # Cell (theta, alpha) sits at r*(sin(t)sin(a), sin(t)cos(a), cos(t))
        # from the center, oriented align * Rz(alpha) * Ry(theta).
        azimuths = [(a, quat_mul(self.approach_alignment, quat_z(a))) for a in alphas]
        offsets, cells = [], []
        for theta in thetas:
            st, ct, polar = math.sin(theta), math.cos(theta), quat_y(theta)
            for alpha, azimuth in azimuths:
                offsets.append((st * math.sin(alpha), st * math.cos(alpha), ct))
                cells.append((quat_mul(azimuth, polar), alpha, theta))
        offsets = np.array(offsets)
        offsets.flags.writeable = False
        return offsets, cells


@dataclass(frozen=True)
class GraspCandidate:
    position: np.ndarray
    orientation: UnitQuaternion
    alpha: float
    theta: float


def sample_candidates(
    refined_position, cfg: GraspSamplingConfig
) -> list[GraspCandidate]:
    """Grid of pre-grasp poses around `refined_position` (world frame).

    alpha spans [0, 2pi) exclusive, theta spans [0, theta_max] inclusive;
    candidates are ordered theta-ascending then alpha-ascending. Raises
    NoFeasibleCandidateError when the table filter rejects everything.
    """
    center = as_vec3(refined_position)
    offsets, cells = cfg._grid
    # A sum beyond float range is refused below, as an infinite position.
    with np.errstate(over="ignore"):
        positions = center + cfg.radius * offsets
    keep = positions[:, 2] >= cfg.table_height
    if not np.isfinite(positions[keep]).all():
        raise ValueError("candidate positions must be finite; the center or radius is too large")
    out = [
        GraspCandidate(position, *cell)
        for position, cell, kept in zip(positions, cells, keep.tolist())
        if kept
    ]
    if not out:
        raise NoFeasibleCandidateError(
            "every candidate lies below the table height"
        )
    return out
