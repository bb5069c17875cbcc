"""Scenario config validation: bad numbers are config errors at load time."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest

from ixbsp.cli import main
from ixbsp.config import ScenarioConfig, load_config
from ixbsp.errors import ConfigError

from _util import tiny_cfg

NAN = float("nan")

BAD_NUMBERS = [
    dict(epsilon_c=NAN, epsilon_wf=NAN),
    dict(epsilon_c=NAN),
    dict(epsilon_wf=NAN),
    dict(goal_tolerance=NAN),
    dict(goal_tolerance=-0.5),
    dict(beta_sigma=NAN),
    dict(beta_sigma=-math.inf),
    dict(prior_pos_std=0.0),
    dict(prior_heading_std_deg=-1.0),
    dict(motion_pos_std=0.0, motion_heading_std_deg=0.0),
    dict(motion_heading_std_deg=-0.5),
    dict(meas_range_std=0.0),
    dict(meas_bearing_std_deg=NAN),
    dict(fov_deg=NAN),
    dict(fov_deg=0.0),
    dict(min_range=NAN),
    dict(max_range=0.1),
    dict(primitives=(("forward", NAN, 0.0), ("left", 1.0, 90.0), ("right", 1.0, -90.0))),
    dict(world=dict(n_landmarks=0)),
    dict(world=dict(n_goals=0)),
    dict(world=dict(extent=NAN)),
    dict(world=dict(goal_distance=NAN)),
    dict(world=dict(start_xy=(0.0, 0.0, 0.0))),
    dict(world=dict(start_heading_deg=math.inf)),
    dict(reward=dict(kind="distance_with_cov_penalty", cov_threshold=NAN)),
    dict(reward=dict(kind="distance_with_cov_penalty", penalty=NAN)),
    dict(max_sessions=2.5),
    dict(max_sessions=NAN),
    dict(n_x=1.5),
    dict(n_z=1.0),
    dict(horizon=2.0),
    dict(overlap=1.0),
    dict(horizon=3, overlap=2),
    dict(n_u=True),
    dict(world=dict(n_landmarks=2.5)),
    dict(world=dict(n_goals=1.5)),
]


def _override(cfg, overrides):
    """``cfg`` with ``overrides`` applied, unvalidated; a dict value
    overrides fields of the nested ``world`` or ``reward`` config."""
    return replace(cfg, **{
        k: replace(getattr(cfg, k), **v) if isinstance(v, dict) else v
        for k, v in overrides.items()})


@pytest.mark.parametrize("overrides", BAD_NUMBERS, ids=lambda kw: ",".join(
    f"{k}={v}" for k, v in kw.items()))
def test_bad_number_rejected(overrides, tmp_path):
    with pytest.raises(ConfigError):
        _override(tiny_cfg(), overrides).validate()
    # the same values through a JSON file (Python's json reads NaN/-Infinity)
    raw = _override(tiny_cfg(), overrides).to_json_dict()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError):
        load_config(path)
    # the CLI reports a config error (exit 2), not a failed run (exit 1)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                 "--planners", "mlbsp"]) == 2


@pytest.mark.parametrize("value", ["false", 1, 0, None], ids=repr)
def test_use_wildfire_must_be_a_bool(value):
    raw = tiny_cfg().to_json_dict()
    raw["use_wildfire"] = value
    with pytest.raises(ConfigError, match="use_wildfire"):
        ScenarioConfig.from_json_dict(raw)
    with pytest.raises(ConfigError, match="use_wildfire"):
        replace(tiny_cfg(), use_wildfire=value).validate()


def test_infinite_beta_sigma_and_zero_tolerance_kept():
    cfg = tiny_cfg(beta_sigma=math.inf, goal_tolerance=0.0)
    assert cfg.beta_sigma == math.inf and cfg.goal_tolerance == 0.0


def test_seeds_is_not_a_config_key():
    raw = tiny_cfg().to_json_dict()
    assert "seeds" not in raw
    raw["seeds"] = [0]
    with pytest.raises(ConfigError, match="seeds"):
        ScenarioConfig.from_json_dict(raw)


@pytest.mark.parametrize("key, value", [("distance", "sqrt_j"),
                                        ("rep_test", "per_coordinate"),
                                        ("session_timeout_s", 300.0)])
def test_removed_reuse_options_are_unknown_keys(key, value, tmp_path):
    raw = tiny_cfg().to_json_dict()
    assert key not in raw
    raw[key] = value
    with pytest.raises(ConfigError, match=key):
        ScenarioConfig.from_json_dict(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                 "--planners", "mlbsp"]) == 2
