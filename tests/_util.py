"""Shared helpers for the test suite."""

from __future__ import annotations

import functools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import Phase

from ixbsp import beliefs
from ixbsp.beliefs import GaussianState, VariableIndex
from ixbsp.config import RewardConfig, ScenarioConfig, WorldConfig
from ixbsp.models import landmark_var, pose_var


TESTS = Path(__file__).resolve().parent


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter with ``src`` and ``tests`` on the
    path; return its stdout."""
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return done.stdout


# hypothesis phases for tests that plan whole sessions: no shrinking, so a
# failing example is reported at once instead of re-planning many seeds
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def range_bearing_jacobians(pose, landmark) -> tuple[np.ndarray, np.ndarray]:
    """(d h / d pose, d h / d landmark) of ``MeasModel``'s range and bearing
    at one (pose, landmark) pair, computed with scalars: the reference that
    ``MeasModel.linearize`` stacks bit for bit."""
    dx = landmark[0] - pose[0]
    dy = landmark[1] - pose[1]
    q = dx * dx + dy * dy
    rng = math.sqrt(q)
    h_pose = np.array([[-dx / rng, -dy / rng, 0.0],
                       [dy / q, -dx / q, -1.0]])
    h_lm = np.array([[dx / rng, dy / rng],
                     [-dy / q, dx / q]])
    return h_pose, h_lm


def random_spd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T) + 0.5 * n * np.eye(n)


def landmark_state(rng: np.random.Generator, n_landmarks: int,
                   scale: float = 1.0) -> GaussianState:
    """Random Gaussian over landmark blocks only (no angular coordinates)."""
    index = VariableIndex.of([landmark_var(i) for i in range(n_landmarks)])
    mean = rng.standard_normal(index.dim)
    return GaussianState(index=index, mean=mean,
                         cov=random_spd(rng, index.dim, scale))


def pose_landmark_state(rng: np.random.Generator, t: int,
                        n_landmarks: int) -> GaussianState:
    index = VariableIndex.of(
        [pose_var(t)] + [landmark_var(i) for i in range(n_landmarks)])
    mean = rng.standard_normal(index.dim)
    mean[index.theta_mask()] *= 0.3  # keep headings well inside (-pi, pi)
    return GaussianState(index=index, mean=mean,
                         cov=random_spd(rng, index.dim))


def cap_solves_at(monkeypatch, cap: int) -> None:
    """Make every Gauss-Newton solve stop after at most ``cap`` iterations,
    and make beliefs report ``cap`` as the iteration cap."""
    monkeypatch.setattr(beliefs, "solve_factors",
                        functools.partial(beliefs.solve_factors, max_iter=cap))
    monkeypatch.setattr(beliefs, "_GN_MAX_ITER", cap)


def _with(cfg: ScenarioConfig, overrides: dict) -> ScenarioConfig:
    """``cfg`` with ``overrides`` applied, validated."""
    cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


def tiny_cfg(**overrides) -> ScenarioConfig:
    """Small, fast scenario; tests override what they pin."""
    cfg = ScenarioConfig(
        n_u=3, n_x=2, n_z=1, horizon=2, overlap=1,
        epsilon_c=250.0, epsilon_wf=2.0, use_wildfire=True, beta_sigma=1.5,
        prior_pos_std=2.0, prior_heading_std_deg=5.0,
        motion_pos_std=0.5, motion_heading_std_deg=1.0,
        meas_range_std=0.3, meas_bearing_std_deg=1.5,
        fov_deg=360.0, min_range=0.5, max_range=40.0,
        world=WorldConfig(n_landmarks=3, extent=12.0, n_goals=1,
                          goal_distance=4.0),
        max_sessions=4, goal_tolerance=1.5,
        reward=RewardConfig(kind="info_and_distance", alpha=0.5),
    )
    return _with(cfg, overrides)


def bench_cfg(**overrides) -> ScenarioConfig:
    """The desk-scale benchmark scenario shared by the acceptance criteria.

    epsilon_wf is calibrated against the measured between-session branch
    distances of this scenario family (pooled median 8.7, 75th percentile
    15.5 over 20 rollouts), so adoption fires at steady state but not during
    map discovery.
    """
    cfg = ScenarioConfig(
        n_u=3, n_x=1, n_z=1, horizon=3, overlap=1,
        epsilon_c=250.0, epsilon_wf=15.0, use_wildfire=True, beta_sigma=1.5,
        prior_pos_std=2.0, prior_heading_std_deg=5.0,
        motion_pos_std=0.5, motion_heading_std_deg=1.0,
        meas_range_std=0.3, meas_bearing_std_deg=1.5,
        fov_deg=360.0, min_range=0.5, max_range=40.0,
        world=WorldConfig(n_landmarks=5, extent=16.0, n_goals=1,
                          goal_distance=6.0),
        max_sessions=10, goal_tolerance=1.5,
        reward=RewardConfig(kind="info_and_distance", alpha=0.5),
    )
    return _with(cfg, overrides)
