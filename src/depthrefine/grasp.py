"""Pre-grasp candidate poses on a sphere around the refined object position.

Candidates sit at radius r from the object center, parameterized by an
azimuth alpha about the world z axis and a polar angle theta from the
zenith. Each orientation composes a robot-specific alignment rotation
(mapping the end-effector approach axis onto world z) with the azimuth
and polar rotations, so the approach axis always points at the object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoFeasibleCandidateError
from .geometry import UnitQuaternion, as_vec3, quat_mul, quat_y, quat_z


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
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        # -inf (the default) disables the filter; NaN would disable it silently.
        if math.isnan(self.table_height):
            raise ValueError("table_height must not be NaN")
        if self.alpha_samples < 1 or self.theta_samples < 1:
            raise ValueError("sample counts must be >= 1")
        if not 0.0 < self.theta_max <= math.pi:
            raise ValueError("theta_max must be in (0, pi]")


@dataclass(frozen=True)
class GraspCandidate:
    position: np.ndarray
    orientation: UnitQuaternion
    alpha: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position))


def candidate_position(
    center, radius: float, alpha: float, theta: float
) -> np.ndarray:
    """Point on the sphere: center + r*(sin(t)sin(a), sin(t)cos(a), cos(t))."""
    st = math.sin(theta)
    offset = np.array(
        [st * math.sin(alpha), st * math.cos(alpha), math.cos(theta)],
        dtype=np.float64,
    )
    return as_vec3(center) + radius * offset


def candidate_orientation(
    align: UnitQuaternion, alpha: float, theta: float
) -> UnitQuaternion:
    """Compose align * Rz(alpha) * Ry(theta) as quaternions."""
    return quat_mul(quat_mul(align, quat_z(alpha)), quat_y(theta))


def sample_candidates(
    refined_position, cfg: GraspSamplingConfig
) -> list[GraspCandidate]:
    """Grid of pre-grasp poses around `refined_position` (world frame).

    alpha spans [0, 2pi) exclusive, theta spans [0, theta_max] inclusive;
    candidates are ordered theta-ascending then alpha-ascending. Raises
    NoFeasibleCandidateError when the table filter rejects everything.
    """
    center = as_vec3(refined_position)
    if cfg.theta_samples == 1:
        thetas = [0.0]
    else:
        step = cfg.theta_max / (cfg.theta_samples - 1)
        thetas = [k * step for k in range(cfg.theta_samples)]
    alphas = [k * (2.0 * math.pi / cfg.alpha_samples) for k in range(cfg.alpha_samples)]

    out: list[GraspCandidate] = []
    for theta in thetas:
        for alpha in alphas:
            pos = candidate_position(center, cfg.radius, alpha, theta)
            if pos[2] < cfg.table_height:
                continue
            out.append(
                GraspCandidate(
                    position=pos,
                    orientation=candidate_orientation(
                        cfg.approach_alignment, alpha, theta
                    ),
                    alpha=alpha,
                    theta=theta,
                )
            )
    if not out:
        raise NoFeasibleCandidateError(
            "every candidate lies below the table height"
        )
    return out
