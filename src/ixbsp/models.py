"""State conventions, motion and measurement models.

The planar world uses 3-DOF poses (x, y, theta) and 2-D landmarks.  Headings
always live in (-pi, pi].  Two model families are supported:

* ``MotionModel``: either a planar unicycle primitive step
  pose' = (x + t*cos(theta+delta), y + t*sin(theta+delta), theta+delta) + w
  with additive world-frame Gaussian noise, or a generic linear model
  x' = F x + J u + w used by the analytic bound machinery.
* ``MeasModel``: range-bearing to a landmark with additive Gaussian noise and
  a bounded field of view / sensing range, or a generic linear model
  z = H x' + v on the newest pose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._gaussian import whitener
from .errors import InvalidInput, UnsupportedModel

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


class _NoiseWhitener:
    """Mixin for models with a ``noise_cov``: its whitener, computed once."""

    @cached_property
    def noise_wt(self) -> np.ndarray:
        """Read-only ``whitener(noise_cov).T``; ``noise_wt @ r`` whitens a residual.

        Every factor built from one model shares this array instead of
        factorizing the same covariance again.
        """
        wt = whitener(self.noise_cov).T
        wt.flags.writeable = False
        return wt

    def __getstate__(self) -> dict:
        # pickling leaves the cache out; the receiver recomputes it
        state = dict(self.__dict__)
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

    def label(self) -> str:
        return f"{'x' if self.kind == 'pose' else 'l'}{self.index}"


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
class MotionModel(_NoiseWhitener):
    """Process model; ``kind`` selects the transition map.

    kind == "unicycle": primitives index into ``primitives``; ``noise_cov`` is
    the 3x3 additive world-frame covariance (x, y, theta).
    kind == "linear": x' = F x + J u + w with w ~ N(0, noise_cov); actions
    index rows of ``controls``.
    """

    kind: str = "unicycle"
    primitives: tuple[Primitive, ...] = DEFAULT_PRIMITIVES
    noise_cov: np.ndarray = field(
        default_factory=lambda: np.diag([0.5**2, 0.5**2, math.radians(0.5) ** 2])
    )
    f_mat: np.ndarray | None = None
    j_mat: np.ndarray | None = None
    controls: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("unicycle", "linear"):
            raise UnsupportedModel(f"motion model kind {self.kind!r}")
        if self.kind == "linear" and (self.f_mat is None or self.j_mat is None):
            raise InvalidInput("linear motion model needs f_mat and j_mat")

    @property
    def state_dim(self) -> int:
        return POSE_DIM if self.kind == "unicycle" else self.f_mat.shape[0]

    def step_mean(self, x: np.ndarray, action: ActionId) -> np.ndarray:
        """Noise-free transition f(x, u)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "unicycle":
            prim = self.primitives[action.index]
            heading = wrap_angle(x[2] + prim.delta)
            return np.array(
                [x[0] + prim.dist * math.cos(heading),
                 x[1] + prim.dist * math.sin(heading),
                 heading]
            )
        u = self.controls[action.index]
        return self.f_mat @ x + self.j_mat @ u

    def step_jacobian(self, x: np.ndarray, action: ActionId) -> np.ndarray:
        """d f / d x at (x, u)."""
        if self.kind == "unicycle":
            prim = self.primitives[action.index]
            heading = x[2] + prim.delta
            return np.array(
                [[1.0, 0.0, -prim.dist * math.sin(heading)],
                 [0.0, 1.0, prim.dist * math.cos(heading)],
                 [0.0, 0.0, 1.0]]
            )
        return self.f_mat.copy()


@dataclass(frozen=True)
class MeasModel(_NoiseWhitener):
    """Observation model; ``kind`` selects the map.

    kind == "range_bearing": z = (range, bearing) to a landmark with additive
    noise ``noise_cov`` (2x2); landmarks are visible when range lies in
    [min_range, max_range] and |bearing| <= fov/2.
    kind == "linear": z = H x' + v on the newest pose block.
    """

    kind: str = "range_bearing"
    noise_cov: np.ndarray = field(
        default_factory=lambda: np.diag([0.1**2, math.radians(0.5) ** 2])
    )
    fov: float = math.pi / 2.0
    min_range: float = 2.0
    max_range: float = 40.0
    h_mat: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("range_bearing", "linear"):
            raise UnsupportedModel(f"measurement model kind {self.kind!r}")
        if self.kind == "linear" and self.h_mat is None:
            raise InvalidInput("linear measurement model needs h_mat")

    def predict(self, pose: np.ndarray, landmark: np.ndarray | None = None) -> np.ndarray:
        """Noise-free measurement h(pose, landmark)."""
        if self.kind == "linear":
            return self.h_mat @ np.asarray(pose, dtype=float)
        dx = landmark[0] - pose[0]
        dy = landmark[1] - pose[1]
        rng = math.hypot(dx, dy)
        bearing = wrap_angle(math.atan2(dy, dx) - pose[2])
        return np.array([rng, bearing])

    def jacobians(
        self, pose: np.ndarray, landmark: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """(d h / d pose, d h / d landmark) at the linearization point."""
        if self.kind == "linear":
            return self.h_mat.copy(), None
        dx = landmark[0] - pose[0]
        dy = landmark[1] - pose[1]
        q = dx * dx + dy * dy
        rng = math.sqrt(q)
        if rng < 1e-9:
            raise InvalidInput("landmark coincides with pose; range-bearing undefined")
        h_pose = np.array(
            [[-dx / rng, -dy / rng, 0.0],
             [dy / q, -dx / q, -1.0]]
        )
        h_lm = np.array(
            [[dx / rng, dy / rng],
             [-dy / q, dx / q]]
        )
        return h_pose, h_lm

    def visible(self, pose: np.ndarray, landmark: np.ndarray) -> bool:
        """Field-of-view and range gate evaluated at a concrete pose."""
        if self.kind == "linear":
            return True
        rng, bearing = self.predict(pose, landmark)
        return self.min_range <= rng <= self.max_range and abs(bearing) <= 0.5 * self.fov

    def invert(self, pose: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Landmark position implied by one range-bearing measurement."""
        if self.kind != "range_bearing":
            raise UnsupportedModel("inverse only defined for range_bearing")
        rng, bearing = float(z[0]), float(z[1])
        heading = pose[2] + bearing
        return np.array([pose[0] + rng * math.cos(heading),
                         pose[1] + rng * math.sin(heading)])
