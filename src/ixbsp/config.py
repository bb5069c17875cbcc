"""Scenario configuration.

``ScenarioConfig`` collects every knob a planning experiment needs: sampling
budgets, reuse thresholds, world geometry, noise magnitudes and reward shape.
Rollout seeds are not part of it; they come from the CLI's ``--seeds``.
Configs round-trip through plain JSON dicts so the CLI, the snapshot files
and the test harness all speak the same schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ConfigError
from .models import MeasModel, MotionModel, Primitive

REWARD_KINDS = ("info_and_distance", "distance_with_cov_penalty")
PLANNER_NAMES = ("xbsp", "mlbsp", "ixbsp", "imlbsp")
# noise and prior standard deviations; each must be positive
_STD_FIELDS = ("prior_pos_std", "prior_heading_std_deg", "motion_pos_std",
               "motion_heading_std_deg", "meas_range_std", "meas_bearing_std_deg")
_INT_FIELDS = ("n_u", "n_x", "n_z", "horizon", "overlap", "max_sessions")


def _require_ints(cfg: Any, names: tuple[str, ...]) -> None:
    """Counts must be plain ints: a float or a bool is a config error."""
    for name in names:
        value = getattr(cfg, name)
        if type(value) is not int:
            raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True, slots=True)
class WorldConfig:
    """Random world generation knobs (landmark field plus goals)."""

    n_landmarks: int = 12
    extent: float = 12.0
    n_goals: int = 1
    goal_distance: float = 6.0
    start_xy: tuple[float, float] = (0.0, 0.0)
    start_heading_deg: float = 0.0

    def validate(self) -> None:
        _require_ints(self, ("n_landmarks", "n_goals"))
        if not (self.n_landmarks >= 1 and self.n_goals >= 1):
            raise ConfigError("world needs n_landmarks >= 1 and n_goals >= 1")
        if not (self.extent > 0.0 and math.isfinite(self.extent)):
            raise ConfigError("world extent must be positive and finite")
        if not (self.goal_distance >= 0.0 and math.isfinite(self.goal_distance)):
            raise ConfigError("world goal_distance must be non-negative and finite")
        if len(self.start_xy) != 2 or not all(map(math.isfinite, self.start_xy)):
            raise ConfigError("world start_xy must be two finite numbers")
        if not math.isfinite(self.start_heading_deg):
            raise ConfigError("world start_heading_deg must be finite")


@dataclass(frozen=True, slots=True)
class RewardConfig:
    """Immediate reward shape.

    info_and_distance:  r = alpha * 0.5*ln((2*pi*e)^n * det(Lambda))
                            + (1-alpha) * (d2g_prev - d2g)
    distance_with_cov_penalty: r = (d2g_prev - d2g)
                            - penalty * [sqrt(tr(Sigma_pose)) > cov_threshold]
    Lambda is the information matrix of the newest pose's marginal.
    """

    kind: str = "info_and_distance"
    alpha: float = 0.5
    cov_threshold: float = 1.0
    penalty: float = 10.0

    def validate(self) -> None:
        if self.kind not in REWARD_KINDS:
            raise ConfigError(f"reward kind must be one of {REWARD_KINDS}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("reward alpha must lie in [0, 1]")
        if not self.cov_threshold >= 0.0:
            raise ConfigError("reward cov_threshold must be non-negative")
        if not (self.penalty >= 0.0 and math.isfinite(self.penalty)):
            raise ConfigError("reward penalty must be non-negative and finite")


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """Everything one experiment needs; field names double as JSON keys."""

    # sampling budgets
    n_u: int = 3
    n_x: int = 5
    n_z: int = 1
    horizon: int = 3
    overlap: int = 1

    # reuse thresholds
    epsilon_c: float = 250.0
    epsilon_wf: float = 2.0
    use_wildfire: bool = True
    beta_sigma: float = 1.5

    # motion primitives: (name, translation [m], rotation [deg])
    primitives: tuple[tuple[str, float, float], ...] = (
        ("forward", 1.0, 0.0),
        ("left", 1.0, 90.0),
        ("right", 1.0, -90.0),
    )

    # noise magnitudes
    prior_pos_std: float = 5.0
    prior_heading_std_deg: float = 1.0
    motion_pos_std: float = 0.5
    motion_heading_std_deg: float = 0.5
    meas_range_std: float = 0.1
    meas_bearing_std_deg: float = 0.5

    # sensing gates
    fov_deg: float = 90.0
    min_range: float = 2.0
    max_range: float = 40.0

    # rollout control
    max_sessions: int = 30
    goal_tolerance: float = 1.0

    world: WorldConfig = field(default_factory=WorldConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)

    def validate(self) -> None:
        _require_ints(self, _INT_FIELDS)
        # a JSON string such as "false" is truthy, so it would turn reuse on
        if type(self.use_wildfire) is not bool:
            raise ConfigError(
                f"use_wildfire must be true or false, got {self.use_wildfire!r}")
        if self.n_u < 1 or self.n_u > len(self.primitives):
            raise ConfigError("n_u must be in [1, len(primitives)]")
        for name, dist, deg in self.primitives:
            if not (math.isfinite(dist) and math.isfinite(deg)):
                raise ConfigError(f"primitive {name!r} needs a finite distance and angle")
        if self.n_x < 1 or self.n_z < 1:
            raise ConfigError("n_x and n_z must be >= 1")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        # rollouts archive exactly one executed action, and an archive's own
        # overlap sets the incremental planners' overlap timings, so any other
        # value would time different levels for different planners
        if self.overlap != 1:
            raise ConfigError(
                "overlap must be 1: rollouts archive one executed action")
        # ``not x >= 0`` also rejects NaN, which every comparison fails
        if not (self.epsilon_c >= 0.0 and self.epsilon_wf >= 0.0):
            raise ConfigError("thresholds must be non-negative")
        if self.epsilon_wf > self.epsilon_c:
            raise ConfigError("epsilon_wf must not exceed epsilon_c")
        if not self.beta_sigma > 0.0:
            raise ConfigError("beta_sigma must be positive (or inf)")
        for name in _STD_FIELDS:
            std = getattr(self, name)
            if not (std > 0.0 and math.isfinite(std)):
                raise ConfigError(f"{name} must be positive and finite")
        if not self.goal_tolerance >= 0.0:
            raise ConfigError("goal_tolerance must be non-negative")
        if not 0.0 < self.fov_deg <= 360.0:
            raise ConfigError("fov_deg must be in (0, 360]")
        if not 0.0 <= self.min_range < self.max_range:
            raise ConfigError("sensing ranges need 0 <= min_range < max_range")
        if self.max_sessions < 1:
            raise ConfigError("max_sessions must be >= 1")
        self.world.validate()
        self.reward.validate()

    # model factories -----------------------------------------------------

    def motion_model(self) -> MotionModel:
        prims = tuple(
            Primitive(name, dist, math.radians(deg)) for name, dist, deg in self.primitives
        )
        cov = np.diag(
            [self.motion_pos_std**2,
             self.motion_pos_std**2,
             math.radians(self.motion_heading_std_deg) ** 2]
        )
        return MotionModel(primitives=prims, noise_cov=cov)

    def meas_model(self) -> MeasModel:
        cov = np.diag(
            [self.meas_range_std**2, math.radians(self.meas_bearing_std_deg) ** 2]
        )
        return MeasModel(
            noise_cov=cov,
            fov=math.radians(self.fov_deg),
            min_range=self.min_range,
            max_range=self.max_range,
        )

    def prior_cov(self) -> np.ndarray:
        return np.diag(
            [self.prior_pos_std**2,
             self.prior_pos_std**2,
             math.radians(self.prior_heading_std_deg) ** 2]
        )

    # serialization --------------------------------------------------------

    def to_json_dict(self) -> dict[str, Any]:
        raw = asdict(self)
        raw["primitives"] = [list(p) for p in self.primitives]
        raw["world"] = asdict(self.world)
        raw["world"]["start_xy"] = list(self.world.start_xy)
        raw["reward"] = asdict(self.reward)
        return raw

    @classmethod
    def from_json_dict(cls, raw: dict[str, Any]) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        data = dict(raw)
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            if "world" in data:
                wd = dict(data["world"])
                if "start_xy" in wd:
                    wd["start_xy"] = tuple(wd["start_xy"])
                data["world"] = WorldConfig(**wd)
            if "reward" in data:
                data["reward"] = RewardConfig(**data["reward"])
            if "primitives" in data:
                data["primitives"] = tuple(
                    (str(n), float(d), float(a)) for n, d, a in data["primitives"]
                )
            cfg = cls(**data)
            cfg.validate()
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        return cfg


def load_config(path: str | Path) -> ScenarioConfig:
    """Read and validate a JSON config file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return ScenarioConfig.from_json_dict(raw)
