"""Camera-frame geometry: quaternion algebra, pinhole projection, and the
one-parameter translate-and-scale family that keeps an object's image-plane
appearance fixed while changing its depth and size.

Conventions:
    - 3-vectors are numpy arrays of shape (3,), float64, meters.
    - Quaternions are Hamilton, scalar-first (w, x, y, z), unit norm,
      sign-canonicalized to w >= 0.
    - The camera frame is right-handed with +z the optical axis pointing
      into the scene; pixel u grows rightward, v downward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Constructors renormalize; inputs farther than this from unit norm are
# rejected rather than silently rescaled.
UNIT_NORM_TOL = 1e-3

# The largest image, in pixels, that intrinsics or a PFM header may describe;
# a corrupt size must not drive a giant allocation.
MAX_IMAGE_PIXELS = 100_000_000


def as_vec3(v) -> np.ndarray:
    """Validate and convert to a float64 3-vector with finite components."""
    try:
        arr = np.asarray(v, dtype=np.float64)
    except OverflowError:
        raise ValueError("vector components must be finite, got an int beyond float range") from None
    if arr.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {arr.shape}")
    # `math.isfinite` on three floats is cheaper than a numpy reduction.
    if not all(map(math.isfinite, arr.tolist())):
        raise ValueError(f"vector components must be finite, got {arr}")
    return arr


def _real(name: str, value, rule: str, ok) -> float:
    """`value` as a float, when it is no bool and `ok` holds for it as given
    and as that float (a Decimal may round onto an open end or to inf); `rule`
    says in words what `ok` asks. Anything else, an int too large for a float
    or a non-number included, raises ValueError naming `name`."""
    try:
        if not isinstance(value, (bool, np.bool_)) and ok(value) and ok(real := float(value)):
            return real
        float(value)  # so that an int beyond float range is named as one
    except OverflowError:
        raise ValueError(f"{name} must be {rule}, got an int beyond float range") from None
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def _positive(name: str, value) -> float:
    """`value` as a float, when it is finite and above 0."""
    return _real(name, value, "positive and finite", lambda v: math.isfinite(v) and v > 0)


def _count(name: str, value, least: int = 1) -> int:
    """`value` as an int of at least `least`; a fractional count is refused,
    not truncated."""
    _real(name, value, f"an integral count of at least {least}",
          lambda v: math.isfinite(v) and v == int(v) and v >= least)
    return int(value)


def _check_field(obj, name: str, rule, *args) -> None:
    """Set the frozen field `name` of `obj` to what `rule` returns for it."""
    object.__setattr__(obj, name, rule(name, getattr(obj, name), *args))


@dataclass(frozen=True)
class UnitQuaternion:
    """Unit quaternion (w, x, y, z), Hamilton convention.

    Construction normalizes the components and flips the sign so w >= 0;
    inputs whose norm deviates from 1 by more than UNIT_NORM_TOL are
    rejected.
    """

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        w, x, y, z = (_real("quaternion components", v, "finite", math.isfinite)
                      for v in (self.w, self.x, self.y, self.z))
        # hypot cannot overflow, so a huge component fails here, before q.dot(q) could.
        length = math.hypot(w, x, y, z)
        if not abs(length - 1.0) <= UNIT_NORM_TOL:
            raise ValueError(f"quaternion norm {length:.6g} too far from 1")
        # Normalize by `np.linalg.norm`'s own 1-D formula for its exact bits;
        # a sum of Python squares differs in the last bit on about 11% of
        # near-unit inputs.
        q = np.array([w, x, y, z])
        norm = math.sqrt(q.dot(q))
        if w < 0.0:
            norm = -norm
        for name, value in zip("wxyz", (w, x, y, z)):
            object.__setattr__(self, name, value / norm)

    @classmethod
    def identity(cls) -> UnitQuaternion:
        return cls(1.0, 0.0, 0.0, 0.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=np.float64)


def quat_mul(a: UnitQuaternion, b: UnitQuaternion) -> UnitQuaternion:
    """Hamilton product a * b, renormalized and sign-canonicalized."""
    w = a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z
    x = a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y
    y = a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x
    z = a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w
    return UnitQuaternion(w, x, y, z)


def quat_to_matrix(q: UnitQuaternion) -> np.ndarray:
    """3x3 rotation matrix of a unit quaternion."""
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_z(angle: float) -> UnitQuaternion:
    """Elementary rotation about the z axis."""
    half = 0.5 * angle
    return UnitQuaternion(math.cos(half), 0.0, 0.0, math.sin(half))


def quat_y(angle: float) -> UnitQuaternion:
    """Elementary rotation about the y axis."""
    half = 0.5 * angle
    return UnitQuaternion(math.cos(half), 0.0, math.sin(half), 0.0)


def quat_x(angle: float) -> UnitQuaternion:
    """Elementary rotation about the x axis."""
    half = 0.5 * angle
    return UnitQuaternion(math.cos(half), math.sin(half), 0.0, 0.0)


@dataclass(frozen=True)
class Pose:
    """Rigid pose: position (meters) plus orientation, frame per context."""

    position: np.ndarray
    orientation: UnitQuaternion

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position))
        if not isinstance(self.orientation, UnitQuaternion):
            raise ValueError("orientation must be a UnitQuaternion")


def transform_point(pose: Pose, point) -> np.ndarray:
    """Map a point from the pose's local frame into its parent frame, by the
    rotation matrix the renderer poses vertices with."""
    return quat_to_matrix(pose.orientation) @ as_vec3(point) + pose.position


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics: focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        for name in ("width", "height"):
            _check_field(self, name, _count)
        for name in ("fx", "fy"):
            _check_field(self, name, _positive)
        if self.width * self.height > MAX_IMAGE_PIXELS:
            raise ValueError(f"image {self.width}x{self.height} exceeds {MAX_IMAGE_PIXELS} pixels")
        _check_field(self, "cx", _real, f"in (0, {self.width})", lambda v: 0 < v < self.width)
        _check_field(self, "cy", _real, f"in (0, {self.height})", lambda v: 0 < v < self.height)


@dataclass(frozen=True)
class CuboidDims:
    """Edge lengths of an object's enclosing cuboid, meters."""

    dx: float
    dy: float
    dz: float

    def __post_init__(self):
        for name in ("dx", "dy", "dz"):
            _check_field(self, name, _positive)

    def as_array(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dz], dtype=np.float64)

    def scaled(self, factor: float) -> CuboidDims:
        factor = _positive("scale factor", factor)
        return CuboidDims(factor * self.dx, factor * self.dy, factor * self.dz)


def apply_sigma_to_pose(pose: Pose, sigma: float) -> tuple[Pose, float]:
    """Displace a pose by sigma (meters) along its camera ray toward the
    camera; returns (moved pose, mu) with mu = 1 - sigma/||p||.

    The position p is the point kept fixed in the image plane: moving it
    by sigma and shrinking the object by mu leaves the projected
    silhouette unchanged. Orientation is untouched.
    """
    sigma = _real("sigma", sigma, "finite", math.isfinite)
    p = pose.position
    norm = float(np.linalg.norm(p))
    if norm == 0.0:
        raise ValueError("position at the camera origin defines no ray")
    if abs(sigma) >= norm:
        raise ValueError(
            f"|sigma|={abs(sigma):.6g} must stay below the position distance {norm:.6g}"
        )
    return Pose(p - sigma * (p / norm), pose.orientation), 1.0 - sigma / norm
