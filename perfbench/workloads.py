"""The benchmark's workloads: scenario configs, planner pairs and world seeds.

Every workload is a closed loop of paired rollouts on the desk-scale
``bench_cfg`` scenario family: one rollout at a time, and in each session the
fresh planner (the driver) plans first, then its incremental twin plans from
the same posterior as a shadow whose actions are never executed.

This module imports only the standard library; the program sees the config as
a plain JSON dict and builds its own ``ScenarioConfig`` from it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

# The values of ``bench_cfg`` in tests/_util.py, as a ScenarioConfig JSON
# dict.  ``test_perfbench.py`` checks that the two stay equal.
BENCH_CFG: dict = {
    "n_u": 3, "n_x": 1, "n_z": 1, "horizon": 3, "overlap": 1,
    "epsilon_c": 250.0, "epsilon_wf": 15.0, "use_wildfire": True,
    "beta_sigma": 1.5,
    "prior_pos_std": 2.0, "prior_heading_std_deg": 5.0,
    "motion_pos_std": 0.5, "motion_heading_std_deg": 1.0,
    "meas_range_std": 0.3, "meas_bearing_std_deg": 1.5,
    "fov_deg": 360.0, "min_range": 0.5, "max_range": 40.0,
    "world": {"n_landmarks": 5, "extent": 16.0, "n_goals": 1,
              "goal_distance": 6.0},
    "max_sessions": 10, "goal_tolerance": 1.5,
    "reward": {"kind": "info_and_distance", "alpha": 0.5},
}

# Seeds of one run are seed * WORLDS_PER_SEED + i; a run never gets near
# this many rollouts, so the worlds of two seeds never overlap.
WORLDS_PER_SEED = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    driver: str
    shadow: str
    config: dict
    # Sizes the traced run, which covers a fixed number of driver sessions
    # so that its work counters repeat exactly from commit to commit: a
    # little under the driver sessions per second of the untraced loop on a
    # 2-core host at the seed commit, so both traced passes fit the window.
    trace_rate: float
    why: str

    def world_seed(self, seed: int, i: int) -> int:
        """World and rollout seed of the ``i``-th rollout of a run."""
        return seed * WORLDS_PER_SEED + i

    def trace_sessions(self, seconds: float) -> int:
        """Driver sessions of one traced run (and of the decision digest)."""
        return max(2, int(seconds / 2.0 * self.trace_rate))


def _with(base: dict, **overrides) -> dict:
    cfg = copy.deepcopy(base)
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    return cfg


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="bench-x-h2", driver="xbsp", shadow="ixbsp",
            config=_with(BENCH_CFG, horizon=2), trace_rate=1.5,
            why="sampled futures at horizon 2: GN iterations dominate both "
                "planners, re-use tests representative samples",
        ),
        Workload(
            name="bench-ml", driver="mlbsp", shadow="imlbsp",
            config=_with(BENCH_CFG), trace_rate=1.8,
            why="ML solves take one GN iteration: the control where GN "
                "iteration changes must not move plan_s",
        ),
        # Not in BENCHMARK.json: a session costs 4-10x more, so a run of the
        # benchmark's length holds too few sessions for steady percentiles.
        # Run them by name for their per-layer traces.
        Workload(
            name="bench-x", driver="xbsp", shadow="ixbsp",
            config=_with(BENCH_CFG), trace_rate=0.45,
            why="bench_cfg with sampled futures at horizon 3",
        ),
        Workload(
            name="map-ml", driver="mlbsp", shadow="imlbsp",
            config=_with(BENCH_CFG, max_sessions=20, world={
                "n_landmarks": 12, "extent": 20.0, "goal_distance": 10.0}),
            trace_rate=0.2,
            why="larger map: re-use mostly updates and hinted re-solves hit "
                "the GN cap",
        ),
    )
}

# The workloads of BENCHMARK.json, run by ``--workload all``.
GATED = ("bench-x-h2", "bench-ml")
