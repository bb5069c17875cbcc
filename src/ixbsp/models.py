"""State conventions, motion and measurement models.

The planar world uses 3-DOF poses (x, y, theta) and 2-D landmarks.  Headings
always live in (-pi, pi].  There is one model of each kind:

* ``MotionModel``: a planar unicycle primitive step
  pose' = (x + t*cos(theta+delta), y + t*sin(theta+delta), theta+delta) + w
  with additive world-frame Gaussian noise.
* ``MeasModel``: range-bearing to a landmark with additive Gaussian noise and
  a bounded field of view / sensing range.

The linear-Gaussian analysis of the wildfire bound builds its own affine maps
(``bounds.LinearGaussianScenario``) and uses neither model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._gaussian import chol_lower, whitener
from .errors import InvalidInput

POSE_DIM = 3
LANDMARK_DIM = 2


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def wrap_angle_array(theta: np.ndarray) -> np.ndarray:
    """Vectorized wrap to (-pi, pi]."""
    wrapped = np.mod(np.asarray(theta, dtype=float) + np.pi, 2.0 * np.pi)
    wrapped = np.where(wrapped <= 0.0, wrapped + 2.0 * np.pi, wrapped)
    return wrapped - np.pi


class _NoiseFactors:
    """Mixin for models with a ``noise_cov``: its factors, computed once.

    Every caller built from one model shares these read-only arrays instead
    of validating and factorizing the same covariance again.
    """

    @cached_property
    def noise_chol(self) -> np.ndarray:
        """Read-only ``chol_lower(noise_cov)``; ``noise_chol @ e`` with
        standard normal ``e`` draws the noise."""
        low = chol_lower(self.noise_cov)
        low.flags.writeable = False
        return low

    @cached_property
    def noise_wt(self) -> np.ndarray:
        """Read-only ``whitener(noise_cov).T``; ``noise_wt @ r`` whitens a residual."""
        wt = whitener(self.noise_cov).T
        wt.flags.writeable = False
        return wt

    def __getstate__(self) -> dict:
        # pickling leaves the caches out; the receiver recomputes them
        state = dict(self.__dict__)
        state.pop("noise_chol", None)
        state.pop("noise_wt", None)
        return state


@dataclass(frozen=True, slots=True, order=True)
class VariableId:
    """Identifier of one block in the joint state: a pose time or a landmark.

    kind is "pose" (dim 3, index = discrete time) or "landmark" (dim 2,
    index = landmark id).  Ordering is lexicographic which keeps pose blocks
    grouped and deterministic.
    """

    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in ("pose", "landmark"):
            raise InvalidInput(f"unknown variable kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return POSE_DIM if self.kind == "pose" else LANDMARK_DIM


def pose_var(t: int) -> VariableId:
    return VariableId("pose", t)


def landmark_var(j: int) -> VariableId:
    return VariableId("landmark", j)


@dataclass(frozen=True, slots=True)
class ActionId:
    """A motion primitive by index into the configured primitive set."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise InvalidInput("action index must be non-negative")


@dataclass(frozen=True, slots=True)
class Primitive:
    """One unicycle step: rotate by ``delta`` then translate ``dist`` forward."""

    name: str
    dist: float
    delta: float


DEFAULT_PRIMITIVES: tuple[Primitive, ...] = (
    Primitive("forward", 1.0, 0.0),
    Primitive("left", 1.0, math.pi / 2.0),
    Primitive("right", 1.0, -math.pi / 2.0),
)


@dataclass(frozen=True)
class MotionModel(_NoiseFactors):
    """Unicycle process model.

    Actions index into ``primitives``; ``noise_cov`` is the 3x3 additive
    world-frame covariance (x, y, theta).
    """

    primitives: tuple[Primitive, ...] = DEFAULT_PRIMITIVES
    noise_cov: np.ndarray = field(
        default_factory=lambda: np.diag([0.5**2, 0.5**2, math.radians(0.5) ** 2])
    )

    def step_mean(self, x: np.ndarray, action: ActionId) -> np.ndarray:
        """Noise-free transition f(x, u)."""
        x = np.asarray(x, dtype=float)
        prim = self.primitives[action.index]
        heading = wrap_angle(x[2] + prim.delta)
        return np.array(
            [x[0] + prim.dist * math.cos(heading),
             x[1] + prim.dist * math.sin(heading),
             heading]
        )

    def step_jacobian(self, x: np.ndarray, action: ActionId) -> np.ndarray:
        """d f / d x at (x, u)."""
        prim = self.primitives[action.index]
        heading = x[2] + prim.delta
        return np.array(
            [[1.0, 0.0, -prim.dist * math.sin(heading)],
             [0.0, 1.0, prim.dist * math.cos(heading)],
             [0.0, 0.0, 1.0]]
        )


@dataclass(frozen=True)
class MeasModel(_NoiseFactors):
    """Range-bearing observation model.

    z = (range, bearing) to a landmark with additive noise ``noise_cov``
    (2x2); landmarks are visible when range lies in [min_range, max_range]
    and |bearing| <= fov/2.
    """

    noise_cov: np.ndarray = field(
        default_factory=lambda: np.diag([0.1**2, math.radians(0.5) ** 2])
    )
    fov: float = math.pi / 2.0
    min_range: float = 2.0
    max_range: float = 40.0

    def predict(self, pose: np.ndarray, landmark: np.ndarray) -> np.ndarray:
        """Noise-free measurement h(pose, landmark)."""
        dx = landmark[0] - pose[0]
        dy = landmark[1] - pose[1]
        rng = math.hypot(dx, dy)
        bearing = wrap_angle(math.atan2(dy, dx) - pose[2])
        return np.array([rng, bearing])

    def linearize(
        self, pose: np.ndarray, landmarks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``predict`` of k landmarks seen from one pose and its Jacobians,
        stacked: the model's one linearization.

        ``landmarks`` is (k, 2).  Returns h (k, 2) and the Jacobians
        (k, 2, 5), whose columns are d h / d landmark, then d h / d pose
        (the canonical landmark-then-pose order).  Each row and block equals
        the one computed landmark by landmark with Python floats, bit for
        bit: range and bearing come from ``math.hypot`` and ``math.atan2``
        per landmark, because ``np.hypot`` and ``np.arctan2`` differ from
        them in the last bit.  A landmark on the pose raises ``InvalidInput``.
        """
        x, y, heading = pose.tolist()
        dx = landmarks[:, 0] - x
        dy = landmarks[:, 1] - y
        q = dx * dx + dy * dy
        rng = np.sqrt(q)
        if (rng < 1e-9).any():
            raise InvalidInput("landmark coincides with pose; range-bearing undefined")
        z = np.array([(math.hypot(a, b), wrap_angle(math.atan2(b, a) - heading))
                      for a, b in zip(dx.tolist(), dy.tolist())]).reshape(-1, 2)
        jac = np.empty((q.size, 2, 5))
        jac[:, 0, 0] = dx / rng  # d h / d landmark
        jac[:, 0, 1] = dy / rng
        jac[:, 1, 0] = -dy / q
        jac[:, 1, 1] = dx / q
        jac[:, :, 2:4] = -jac[:, :, :2]  # d h / d pose position
        jac[:, :, 4] = (0.0, -1.0)  # d h / d heading
        return z, jac

    def visible(self, pose: np.ndarray, landmark: np.ndarray) -> bool:
        """Field-of-view and range gate evaluated at a concrete pose."""
        rng, bearing = self.predict(pose, landmark)
        return self.min_range <= rng <= self.max_range and abs(bearing) <= 0.5 * self.fov

    def invert(self, pose: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Landmark position implied by one range-bearing measurement."""
        rng, bearing = float(z[0]), float(z[1])
        heading = pose[2] + bearing
        return np.array([pose[0] + rng * math.cos(heading),
                         pose[1] + rng * math.sin(heading)])
