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
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BehindCameraError,
    DegenerateSceneError,
    NoOverlapError,
    NumericalError,
)
from .geometry import (
    CameraIntrinsics,
    CuboidDims,
    Pose,
    apply_sigma_to_pose,
)
from .renderer import DepthMap, TriangleMesh, render_depth

@dataclass(frozen=True)
class RansacConfig:
    """Robust line fit d = a*d_hat + b separating object pixels from occluders."""

    iterations: int = 256
    inlier_threshold: float = 0.007
    min_inlier_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not self.inlier_threshold > 0.0:
            raise ValueError("inlier_threshold must be positive")
        if not 0.0 < self.min_inlier_fraction <= 1.0:
            raise ValueError("min_inlier_fraction must be in (0, 1]")


@dataclass(frozen=True)
class RefineConfig:
    bound_fraction: float = 0.8
    ransac: RansacConfig = field(default_factory=RansacConfig)

    def __post_init__(self):
        if not 0.0 < self.bound_fraction < 1.0:
            raise ValueError("bound_fraction must be in (0, 1)")


@dataclass(frozen=True)
class RefinementResult:
    sigma_opt: float
    mu_opt: float
    refined_pose: Pose
    estimated_dims: CuboidDims
    inlier_mask: np.ndarray  # read-only boolean (H, W) mask
    rms_residual: float
    objective_value: float
    at_bound: bool


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

    Renders the model at the slid-and-scaled pose, intersects the render's
    support with the measurement's valid pixels (and with `inliers` when
    given: a boolean mask of the map shape), and averages the squared
    differences. Empty intersection means the coarse pose is too wrong to
    refine and raises NoOverlapError.
    """
    if (real.height, real.width) != (intr.height, intr.width):
        raise ValueError("real depth map dimensions do not match intrinsics")
    transformed, mu = apply_sigma_to_pose(pose, sigma)
    virtual = render_depth(mesh, transformed, intr, scale=mu)
    mask = virtual.valid_mask & real.valid_mask
    if inliers is not None:
        inliers = np.asarray(inliers)
        if inliers.shape != mask.shape or inliers.dtype != bool:
            raise ValueError("inlier mask must be a boolean array of the map shape")
        mask &= inliers
    rho = int(np.count_nonzero(mask))
    if rho == 0:
        raise NoOverlapError(
            "rendered and measured depth supports do not intersect"
        )
    diff = real.data[mask].astype(np.float64) - virtual.data[mask].astype(np.float64)
    value = float(np.mean(diff * diff))
    if not np.isfinite(value):
        raise NumericalError(f"objective is not finite at sigma={sigma}")
    return value


def ransac_inliers(d: np.ndarray, v: np.ndarray, cfg: RansacConfig) -> np.ndarray:
    """Robustly fit d = a*d_hat + b and return the positions of the consenting pairs.

    `d` and `v` are the paired measured and rendered depths, float64.
    Two-point hypotheses are scored by |residual| <= inlier_threshold; the
    best consensus set is refit by least squares and the final inliers are
    recomputed against the refit line. Returns the ascending int64
    positions into `d` of the final inliers. Deterministic for a fixed seed.
    """
    n = len(d)
    if n < 2:
        raise DegenerateSceneError(f"need at least 2 residual samples, got {n}")
    rng = np.random.default_rng(cfg.seed)

    # Each hypothesis is scored in one reused buffer, in the operation
    # order of abs(d - (a*v + b)). Scoring all hypotheses in one
    # (iterations, n) broadcast was slower: its temporaries leave the cache.
    resid = np.empty(n)
    hit = np.empty(n, dtype=bool)
    best_count = -1
    best_ab = (0.0, 0.0)
    for _ in range(cfg.iterations):
        i, j = rng.choice(n, size=2, replace=False)
        if v[i] == v[j]:
            # No slope from a vertical pair; a flat line through the mean
            # still covers constant-depth scenes.
            a, b = 0.0, 0.5 * (d[i] + d[j])
        else:
            a = (d[j] - d[i]) / (v[j] - v[i])
            b = d[i] - a * v[i]
        np.multiply(v, a, out=resid)
        resid += b
        np.subtract(d, resid, out=resid)
        np.abs(resid, out=resid)
        count = int(np.count_nonzero(np.less_equal(resid, cfg.inlier_threshold, out=hit)))
        if count > best_count:
            best_count = count
            best_ab = (a, b)

    if best_count < math.ceil(cfg.min_inlier_fraction * n):
        raise DegenerateSceneError(
            f"best consensus {best_count}/{n} below the minimum fraction "
            f"{cfg.min_inlier_fraction}"
        )

    a, b = best_ab
    consensus = np.abs(d - (a * v + b)) <= cfg.inlier_threshold
    vv, dd = v[consensus], d[consensus]
    var = float(np.var(vv))
    if var > 0.0:
        a = float(np.cov(vv, dd, bias=True)[0, 1] / var)
        b = float(dd.mean() - a * vv.mean())
    else:
        a, b = 0.0, float(dd.mean())
    return np.flatnonzero(np.abs(d - (a * v + b)) <= cfg.inlier_threshold)


def refine(
    coarse: Pose,
    mesh: TriangleMesh,
    cad_dims: CuboidDims,
    intr: CameraIntrinsics,
    real: DepthMap,
    cfg: RefineConfig | None = None,
) -> RefinementResult:
    """Correct a scale-ambiguous pose against a measured depth map.

    Renders once at sigma=0, pairs rendered and measured depths and
    freezes a robust inlier set (the silhouette is sigma-invariant, so one
    vote suffices). Because the render at sigma equals mu times the
    sigma=0 render v0 on the same pixels (up to float32 rounding), the
    objective mean((d - mu*v0)^2) over the inliers is a convex quadratic in
    mu, and so in sigma, minimized by mu* = <d,v0>/<v0,v0>. The matching
    sigma* = (1 - mu*)*||p|| is clipped to the search interval
    [-bound_fraction*pz, +bound_fraction*pz]; `at_bound` reports whether
    the clip moved it. The orientation passes through untouched.
    """
    if cfg is None:
        cfg = RefineConfig()
    pz = float(coarse.position[2])
    if pz <= 0.0:
        raise BehindCameraError(f"coarse position z must be positive, got {pz}")
    if (real.height, real.width) != (intr.height, intr.width):
        raise ValueError("real depth map dimensions do not match intrinsics")

    virtual0 = render_depth(mesh, coarse, intr)
    pairs = residual_samples(real, virtual0)
    if pairs.size == 0:
        raise NoOverlapError("no pixel is valid in both the render and the measurement")
    d_all = real.data.ravel()[pairs].astype(np.float64)
    v_all = virtual0.data.ravel()[pairs].astype(np.float64)
    keep = ransac_inliers(d_all, v_all, cfg.ransac)
    if keep.size == 0:
        raise NoOverlapError("the inlier set is empty")
    d = d_all[keep]
    v0 = v_all[keep]
    inlier_mask = np.zeros(real.data.size, dtype=bool)
    inlier_mask[pairs[keep]] = True
    inlier_mask = inlier_mask.reshape(real.data.shape)
    inlier_mask.flags.writeable = False

    mu_star = float(d @ v0) / float(v0 @ v0)
    bound = cfg.bound_fraction * pz
    sigma_star = (1.0 - mu_star) * float(np.linalg.norm(coarse.position))
    sigma_opt = min(max(sigma_star, -bound), bound)

    refined_pose, mu_opt = apply_sigma_to_pose(coarse, sigma_opt)
    diff = d - mu_opt * v0
    f_opt = float(np.mean(diff * diff))
    if not math.isfinite(f_opt):
        raise NumericalError(f"objective is not finite at sigma={sigma_opt}")
    return RefinementResult(
        sigma_opt=sigma_opt,
        mu_opt=mu_opt,
        refined_pose=refined_pose,
        estimated_dims=cad_dims.scaled(mu_opt),
        inlier_mask=inlier_mask,
        rms_residual=math.sqrt(f_opt),
        objective_value=f_opt,
        at_bound=sigma_opt != sigma_star,
    )
