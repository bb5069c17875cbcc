"""Ground-truth simulation and the plan-act-infer rollout loop."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from ixbsp.beliefs import make_prior_belief
from ixbsp.errors import InvalidInput
from ixbsp.models import ActionId, MeasModel, MotionModel, Primitive
from ixbsp.simulation import (
    WorldModel,
    estimation_error,
    plan_session,
    run_rollout,
    session_seed,
    simulate_step,
    win_fraction,
    world_from_config,
)

from _util import cap_solves_at, tiny_cfg


class TestWorldModel:
    def test_generation_is_deterministic_and_in_bounds(self):
        cfg = replace(tiny_cfg().world, n_landmarks=7, n_goals=2,
                      start_xy=(1.0, -2.0))
        w1 = world_from_config(cfg, seed=7)
        assert world_from_config(cfg, seed=7) == w1
        assert [i for i, _ in w1.landmarks] == list(range(7))
        assert len(w1.goals) == 2
        half = cfg.extent / 2.0
        for _, (x, y) in w1.landmarks:
            assert abs(x - 1.0) <= half and abs(y + 2.0) <= half
        assert world_from_config(cfg, seed=8) != w1

    def test_config_worlds_put_goals_on_the_ring(self):
        cfg = tiny_cfg()
        world = world_from_config(cfg.world, seed=3)
        assert len(world.landmarks) == cfg.world.n_landmarks
        x0, y0 = cfg.world.start_xy
        for gx, gy in world.goals:
            assert math.hypot(gx - x0, gy - y0) == pytest.approx(
                cfg.world.goal_distance)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            WorldModel(landmarks=((0, (1.0, 2.0)), (0, (3.0, 4.0))),
                       goals=((0.0, 0.0),))
        with pytest.raises(InvalidInput):
            WorldModel(landmarks=((0, (1.0, 2.0)),), goals=())


def _noiseless_models():
    motion = MotionModel(primitives=(Primitive("fwd", 1.0, 0.0),),
                         noise_cov=np.zeros((3, 3)))
    meas = MeasModel(noise_cov=np.zeros((2, 2)),
                     fov=2 * math.pi, min_range=0.5, max_range=10.0)
    return motion, meas


class TestSimulateStep:
    def test_noiseless_step_is_exact(self):
        motion, meas = _noiseless_models()
        world = WorldModel(landmarks=((0, (3.0, 0.0)), (1, (100.0, 0.0))),
                           goals=((5.0, 0.0),))
        rng = np.random.default_rng(0)
        gt = np.array([0.0, 0.0, 0.0])
        new_gt, z_set = simulate_step(gt, ActionId(0), world, motion, meas, rng)
        assert np.allclose(new_gt, [1.0, 0.0, 0.0])
        assert z_set.keys() == (0,)  # the far landmark is out of range
        z = z_set.entries[0].value
        assert z == pytest.approx([2.0, 0.0])

    def test_same_rng_state_reproduces_the_draw(self):
        cfg = tiny_cfg()
        motion, meas = cfg.motion_model(), cfg.meas_model()
        world = world_from_config(cfg.world, seed=1)
        gt = np.array([0.1, -0.2, 0.3])
        out1 = simulate_step(gt, ActionId(1), world, motion, meas,
                             np.random.default_rng(42))
        out2 = simulate_step(gt, ActionId(1), world, motion, meas,
                             np.random.default_rng(42))
        assert np.array_equal(out1[0], out2[0])
        assert out1[1].keys() == out2[1].keys()
        for e1, e2 in zip(out1[1], out2[1]):
            assert np.array_equal(e1.value, e2.value)

    def test_motion_noise_matches_model_covariance(self):
        cfg = tiny_cfg()
        motion = cfg.motion_model()
        meas = cfg.meas_model()
        world = WorldModel(landmarks=((0, (500.0, 500.0)),),
                           goals=((5.0, 0.0),))
        rng = np.random.default_rng(9)
        gt = np.array([0.0, 0.0, 0.0])
        mean_step = motion.step_mean(gt, ActionId(0))
        n = 10_000
        residuals = np.empty((n, 3))
        for i in range(n):
            new_gt, z_set = simulate_step(gt, ActionId(0), world, motion,
                                          meas, rng)
            assert len(z_set.entries) == 0
            residuals[i] = new_gt - mean_step
        sample_cov = np.cov(residuals.T)
        se = np.sqrt(2.0 / n) * np.abs(np.diag(motion.noise_cov))
        assert np.all(np.abs(np.diag(sample_cov) - np.diag(motion.noise_cov))
                      <= 4.0 * se + 1e-12)
        assert abs(np.mean(residuals, axis=0)).max() <= 4.0 * math.sqrt(
            np.max(np.diag(motion.noise_cov)) / n)


class TestScalarMetrics:
    def test_estimation_error_is_planar_distance(self):
        belief = make_prior_belief(np.array([1.0, 2.0, 0.5]), np.eye(3))
        gt = np.array([4.0, 6.0, -0.3])
        assert estimation_error(belief, gt) == pytest.approx(5.0)

    def test_win_fraction(self):
        a = np.array([1.0, 2.0, 3.0])
        assert win_fraction(a, a) == 0.5
        assert win_fraction(a, a + 1.0) == 1.0
        assert win_fraction(a + 1.0, a) == 0.0
        assert win_fraction(np.array([1.0, 5.0]), np.array([2.0, 4.0])) == 0.5
        with pytest.raises(InvalidInput):
            win_fraction(a, a[:2])
        with pytest.raises(InvalidInput):
            win_fraction(np.array([]), np.array([]))

    def test_session_seed_is_stable_and_spread(self):
        assert session_seed(3, 0) == session_seed(3, 0)
        seeds = {session_seed(3, s) for s in range(20)}
        assert len(seeds) == 20
        assert session_seed(4, 0) != session_seed(3, 0)


class TestPlanSessionDispatch:
    def test_unknown_planner_rejected(self):
        cfg = tiny_cfg()
        belief = make_prior_belief(np.zeros(3), cfg.prior_cov())
        with pytest.raises(InvalidInput):
            plan_session("bogus", belief, None, cfg, cfg.motion_model(),
                         cfg.meas_model(), np.array([4.0, 0.0]), 0)


class TestRollout:
    def _run(self, planner, seed=5, **kw):
        cfg = kw.pop("cfg", tiny_cfg(max_sessions=3))
        world = world_from_config(cfg.world, seed=0)
        return run_rollout(world, planner, cfg, seed, **kw)

    def test_rollout_is_deterministic(self):
        m1 = self._run("ixbsp")
        m2 = self._run("ixbsp")
        assert m1.actions == m2.actions
        assert m1.estimation_err == m2.estimation_err
        assert m1.final_cov_norm == m2.final_cov_norm
        assert [r.objective for r in m1.sessions] == \
               [r.objective for r in m2.sessions]
        m3 = self._run("ixbsp", seed=6)
        assert m3.actions != m1.actions or m3.estimation_err != m1.estimation_err

    @pytest.mark.parametrize("fresh, incremental",
                             [("xbsp", "ixbsp"), ("mlbsp", "imlbsp")])
    def test_horizon_one_incremental_matches_fresh(self, fresh, incremental):
        # a horizon-1 tree holds only the executed level: nothing is archived
        cfg = tiny_cfg(max_sessions=3, horizon=1)
        ref = self._run(fresh, cfg=cfg)
        inc = self._run(incremental, cfg=cfg)
        assert len(inc.sessions) == len(ref.sessions) > 1
        assert inc.actions == ref.actions
        assert [r.objective for r in inc.sessions] == \
               [r.objective for r in ref.sessions]
        assert {r.reuse_mode for r in inc.sessions} == {"no_archive"}
        assert {r.reusable_factors for r in ref.sessions + inc.sessions} == {0}

    def test_metrics_are_internally_consistent(self):
        m = self._run("xbsp")
        assert len(m.actions) == len(m.sessions) >= 1
        assert m.goals_reached <= m.n_goals
        assert m.timed_out == (m.goals_reached < m.n_goals)
        assert m.final_tree is not None
        assert m.final_tree.horizon == tiny_cfg().horizon
        assert m.cumulative_time() >= sum(r.overlap_time_s for r in m.sessions) >= 0.0
        for rec, act in zip(m.sessions, m.actions):
            assert rec.chosen_seq[0] == act
            assert rec.planner == "xbsp"

    def test_reuse_accounting_by_session(self):
        m = self._run("ixbsp")
        first, rest = m.sessions[0], m.sessions[1:]
        assert first.reuse_mode == "no_archive"
        assert first.reused == first.wildfire == 0
        assert rest, "rollout should run more than one session"
        for rec in rest:
            assert rec.reuse_mode in ("fresh", "update", "adopt")
            assert rec.reused + rec.wildfire > 0
            assert 0 <= rec.reused_factors
            assert rec.reused_factors <= rec.reusable_factors + rec.removed_factors
        assert any(rec.reused_factors > 0 for rec in rest)

    def test_records_report_capped_solves(self, monkeypatch):
        assert not any(r.gn_cap_hits or r.posterior_gn_capped
                       for r in self._run("ixbsp").sessions)
        cap_solves_at(monkeypatch, 1)
        m = self._run("ixbsp")
        first, rest = m.sessions[0], m.sessions[1:]
        assert not first.posterior_gn_capped  # the prior comes from no solve
        assert rest and all(r.posterior_gn_capped for r in rest)
        assert all(0 < r.gn_cap_hits <= r.nominal + r.reused for r in rest)

    def test_shadows_never_influence_execution(self):
        bare = self._run("ixbsp")
        shadowed = self._run("ixbsp", shadow_kinds=("mlbsp", "imlbsp"))
        assert shadowed.actions == bare.actions
        assert shadowed.estimation_err == bare.estimation_err
        assert sorted(shadowed.shadow_sessions) == ["imlbsp", "mlbsp"]
        for kind, rows in shadowed.shadow_sessions.items():
            assert len(rows) == len(shadowed.sessions)
            assert {r.planner for r in rows} == {kind}

    def test_shadow_validation(self):
        cfg = tiny_cfg(max_sessions=2)
        world = world_from_config(cfg.world, seed=0)
        with pytest.raises(InvalidInput):
            run_rollout(world, "xbsp", cfg, 1, shadow_kinds=("xbsp",))
        with pytest.raises(InvalidInput):
            run_rollout(world, "xbsp", cfg, 1, shadow_kinds=("mlbsp", "mlbsp"))

    def test_json_dict_carries_the_summary_fields(self):
        m = self._run("mlbsp")
        raw = m.to_json_dict()
        assert raw["planner"] == "mlbsp"
        assert raw["rollout_seed"] == 5
        assert raw["actions"] == m.actions
        assert len(raw["sessions"]) == len(m.sessions)
        assert set(raw["sessions"][0]) >= {"session", "objective", "chosen_seq",
                                           "reuse_mode", "reused_factors"}
        assert raw["cumulative_time_s"] >= raw["cumulative_overlap_time_s"]
