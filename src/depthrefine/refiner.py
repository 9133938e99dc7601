"""Depth-based refinement of a scale-ambiguous pose estimate.

An RGB-only estimator that knows the object only through a fixed-size
reference model confounds object scale with distance: a smaller object is
reported farther away, along the camera ray, with the image unchanged.
This module recovers the true distance and size from one measured depth
map. A single parameter sigma slides the model along the ray while
shrinking it just enough to keep the silhouette fixed (scale factor
mu = 1 - sigma/||p||). That slide-and-rescale leaves the rendered support
unchanged and multiplies every rendered depth by mu, so the render at
sigma equals mu times the render at sigma=0. The mean squared residual
over a robust inlier set is therefore a quadratic in mu, minimized in
closed form from a single render; the module reports the corrected
position and the rescaled dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSceneError, NoOverlapError
from .geometry import (
    CameraIntrinsics,
    CuboidDims,
    Pose,
    _check_field,
    _positive,
    _real,
    apply_sigma_to_pose,
)
# objective calls render_depth; the benchmark tracer also wraps it here.
from .renderer import DepthMap, TriangleMesh, _rasterize, render_depth


@dataclass(frozen=True)
class RefineConfig:
    """Plausible scales and robust scale-only fit d = mu*d_hat.

    A fit is rejected when its consensus is below `min_inlier_fraction`
    of the pairs, or when its scale lies outside [1 - bound_fraction,
    1 + bound_fraction].
    """

    bound_fraction: float = 0.8
    inlier_threshold: float = 0.007
    min_inlier_fraction: float = 0.3

    def __post_init__(self):
        _check_field(self, "bound_fraction", _real, "in (0, 1)", lambda v: 0.0 < v < 1.0)
        _check_field(self, "inlier_threshold", _positive)
        _check_field(self, "min_inlier_fraction", _real, "in (0, 1]", lambda v: 0.0 < v <= 1.0)


@dataclass(frozen=True)
class RefinementResult:
    sigma_opt: float
    mu_opt: float
    refined_pose: Pose
    estimated_dims: CuboidDims
    inliers: np.ndarray  # read-only ascending int64 flat pixel indices
    rms_residual: float
    # Share of all pairs measured beyond mu_opt*v0 + inlier_threshold; an
    # occluder only brings depths nearer, so a high share flags a wrong fit.
    free_space_fraction: float


def residual_samples(real: DepthMap, virtual: DepthMap) -> np.ndarray:
    """Flat row-major int64 indices of the pixels valid in both maps.

    `DepthMap` guarantees that every valid depth is finite and positive,
    so each index pairs two usable depths.
    """
    if real.data.shape != virtual.data.shape:
        raise ValueError("depth map shapes differ")
    return np.flatnonzero(real.valid_mask & virtual.valid_mask)


def objective(
    sigma: float,
    mesh: TriangleMesh,
    pose: Pose,
    intr: CameraIntrinsics,
    real: DepthMap,
    inliers: np.ndarray | None = None,
) -> float:
    """Mean squared depth residual at the given sigma.

    Renders the model at the slid-and-scaled pose, pairs its pixels with
    the measured ones through `residual_samples` (narrowed to `inliers`
    when given: ascending flat pixel indices, as `RefinementResult.inliers`),
    and averages the squared differences. No pair means the coarse pose is
    too wrong to refine and raises NoOverlapError.
    """
    transformed, mu = apply_sigma_to_pose(pose, sigma)
    virtual = render_depth(mesh, transformed, intr, scale=mu)
    pairs = residual_samples(real, virtual)
    if inliers is not None:
        inliers = np.asarray(inliers)
        if inliers.ndim != 1 or inliers.dtype.kind != "i":
            raise ValueError("inliers must be a 1-D signed integer array of flat pixel indices")
        pairs = np.intersect1d(pairs, inliers, assume_unique=True)
    if pairs.size == 0:
        raise NoOverlapError("rendered and measured depth supports do not intersect")
    diff = (real.data.ravel()[pairs].astype(np.float64)
            - virtual.data.ravel()[pairs].astype(np.float64))
    return float(np.mean(diff * diff))


def ransac_inliers(d: np.ndarray, v: np.ndarray, cfg: RefineConfig) -> np.ndarray:
    """Fit the scale-only model d = mu*v robustly; return the consenting pairs.

    `d` and `v` are paired measured and rendered depths, float64, every
    `v` positive. Maximizes RANSAC's consensus score, the count of
    |d - mu*v| <= inlier_threshold, exactly rather than by sampling: pair
    i agrees with mu when mu lies in [(d_i - t)/v_i, (d_i + t)/v_i], so
    the best mu is the deepest point of n intervals, found by sorting
    their ends and counting the ends before each start by one stable merge
    of the two sorted lists (the 1-D case of maximum consensus; Chin &
    Suter, 2017). It takes the middle of the first deepest overlap, as an
    edge would lose, to rounding, the pair that defines it. Returns the
    ascending int64 positions of the pairs within the threshold of that
    mu, the consensus itself. Raises DegenerateSceneError when the
    consensus is below min_inlier_fraction.
    """
    n = len(d)
    if n < 2:
        raise DegenerateSceneError(f"need at least 2 residual samples, got {n}")

    t = cfg.inlier_threshold
    lo = np.sort((d - t) / v)
    hi = np.sort((d + t) / v)
    # Of the k+1 intervals starting at or before lo[k], all but the ends[k]
    # that end before it contain it. The stable merge puts each start ahead
    # of an equal end, so a touching interval counts as containing it. Tied
    # starts undercount all but the last of them, which argmax then prefers.
    ends = np.flatnonzero(np.concatenate((lo, hi)).argsort(kind="stable") < n) - np.arange(n)
    k = int(np.argmax(np.arange(1, n + 1) - ends))
    best_mu = (lo[k] + hi[ends[k]]) / 2.0

    agree = np.abs(d - best_mu * v) <= t
    count = int(np.count_nonzero(agree))
    if count < math.ceil(cfg.min_inlier_fraction * n):
        raise DegenerateSceneError(
            f"best consensus {count}/{n} below the minimum fraction "
            f"{cfg.min_inlier_fraction}"
        )
    return np.flatnonzero(agree)


def refine(
    coarse: Pose,
    mesh: TriangleMesh,
    cad_dims: CuboidDims,
    intr: CameraIntrinsics,
    real: DepthMap,
    cfg: RefineConfig | None = None,
) -> RefinementResult:
    """Correct a scale-ambiguous pose against a measured depth map.

    Rasterizes once at sigma=0 over the object's window only (no
    full-frame z-buffer or mask), pairs each covered pixel with its
    measured depth and freezes a robust inlier set (the silhouette is
    sigma-invariant, so one vote suffices). Because the render at sigma
    equals mu times the sigma=0 render v0 on the same pixels (up to
    float32 rounding), the objective mean((d - mu*v0)^2) over the inliers
    is a convex quadratic in mu, and so in sigma, minimized by
    mu* = <d,v0>/<v0,v0> at sigma* = (1 - mu*)*||p||. A mu* outside
    [1 - bound_fraction, 1 + bound_fraction] raises DegenerateSceneError. The orientation passes through untouched;
    `inliers` holds the ascending flat indices of the consenting pixels.
    """
    if cfg is None:
        cfg = RefineConfig()
    _positive("coarse position z", float(coarse.position[2]))
    if (real.height, real.width) != (intr.height, intr.width):
        raise ValueError("real depth map dimensions do not match intrinsics")

    support, depths = _rasterize(mesh, coarse, intr)
    measured = real.data.ravel()[support]
    hit = measured > 0.0
    pairs = support[hit]
    if pairs.size == 0:
        raise NoOverlapError("no pixel is valid in both the render and the measurement")
    d_all = measured[hit].astype(np.float64)
    v_all = depths[hit].astype(np.float64)
    keep = ransac_inliers(d_all, v_all, cfg)
    d = d_all[keep]
    v0 = v_all[keep]
    inliers = pairs[keep]
    inliers.flags.writeable = False

    # All finite: DepthMap depths are at most 3.4e38 and rendered ones at
    # least NEAR_PLANE, so in float64 each squared residual and their mean
    # stay below about 1e78, and v0 > 0 keeps mu* finite. Past the check,
    # |mu* - 1| <= b = bound_fraction < 1 keeps |sigma_opt| below ||p||.
    mu_star = float(d @ v0) / float(v0 @ v0)
    b = cfg.bound_fraction
    if abs(mu_star - 1.0) > b:
        raise DegenerateSceneError(
            f"fitted scale mu*={mu_star:.6g} lies outside the bound [{1 - b:.6g}, {1 + b:.6g}]"
        )
    sigma_opt = (1.0 - mu_star) * float(np.linalg.norm(coarse.position))

    refined_pose, mu_opt = apply_sigma_to_pose(coarse, sigma_opt)
    diff = d - mu_opt * v0
    f_opt = float(np.mean(diff * diff))
    return RefinementResult(
        sigma_opt=sigma_opt,
        mu_opt=mu_opt,
        refined_pose=refined_pose,
        estimated_dims=cad_dims.scaled(mu_opt),
        inliers=inliers,
        rms_residual=math.sqrt(f_opt),
        free_space_fraction=float(np.mean(d_all > mu_opt * v_all + cfg.inlier_threshold)),
    )
